#!/usr/bin/env sh
# Continuous-integration gate: formatting, lints, build, tests.
# Everything runs offline against the vendored workspace (Cargo.lock is
# committed and all dependencies are path crates).
set -eu

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, warnings are errors: no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release (the CLI and every bench binary the checks below run)"
cargo build --release --workspace --bins
LOWPOWER=target/release/lowpower
TABLES23=target/release/tables23
ABLATION=target/release/ablation

echo "==> cargo test (tier-1: root package)"
cargo test -q

echo "==> cargo test (every other workspace crate; the root package ran above)"
cargo test --workspace --exclude lowpower -q

echo "==> cargo test (benchmark crate: flowbench builds against the flow API)"
cargo test -q --manifest-path flowbench/Cargo.toml

TMP="${TMPDIR:-/tmp}"
echo "==> tables23 determinism (--threads 1 vs 2 must be byte-identical)"
"$TABLES23" --circuits cm42a,x2,x3 --threads 1 > "$TMP/t23_serial.txt" 2> /dev/null
"$TABLES23" --circuits cm42a,x2,x3 --threads 2 > "$TMP/t23_par.txt" 2> /dev/null
cmp "$TMP/t23_serial.txt" "$TMP/t23_par.txt"

echo "==> paper-result byte-identity (full-suite tables23 and ablation vs results/)"
"$TABLES23" --threads 2 > "$TMP/t23_full.txt" 2> /dev/null
cmp "$TMP/t23_full.txt" results/tables23.txt
"$ABLATION" --threads 2 > "$TMP/ablation.txt" 2> /dev/null
# The last ablation column is wall time; compare everything else.
strip_time='s/ +[0-9.]+(ns|µs|ms|s)$//'
sed -E "$strip_time" "$TMP/ablation.txt" > "$TMP/ablation.stripped"
sed -E "$strip_time" results/ablation.txt > "$TMP/ablation_ref.stripped"
cmp "$TMP/ablation.stripped" "$TMP/ablation_ref.stripped"

echo "==> CLI byte-identity (decomp per style and report on examples/blif vs results/cli/)"
for f in examples/blif/*.blif; do
    b=$(basename "$f" .blif)
    for style in conventional minpower bounded; do
        "$LOWPOWER" decomp --blif "$f" --style "$style" > "$TMP/cli.txt"
        cmp "$TMP/cli.txt" "results/cli/$b.decomp-$style.txt"
    done
    "$LOWPOWER" report --blif "$f" > "$TMP/cli.txt"
    cmp "$TMP/cli.txt" "results/cli/$b.report.txt"
done

echo "==> explain byte-identity (VI on each example's first output, README's mux4 V run, vs results/cli/)"
for f in examples/blif/*.blif; do
    b=$(basename "$f" .blif)
    node=$(sed -n 's/^\.outputs \([^ ]*\).*/\1/p' "$f")
    "$LOWPOWER" explain --blif "$f" --method VI --node "$node" > "$TMP/cli.txt"
    cmp "$TMP/cli.txt" "results/cli/$b.explain.txt"
done
"$LOWPOWER" explain --blif examples/blif/mux4.blif --method V --node f \
    > "$TMP/cli.txt"
cmp "$TMP/cli.txt" results/cli/mux4.explain-V.txt

echo "==> map_benchmark byte-identity (the example's six methods on x2 vs results/cli/)"
cargo run --release --quiet --example map_benchmark -- x2 > "$TMP/map_benchmark.txt"
cmp "$TMP/map_benchmark.txt" results/cli/map_benchmark.x2.txt

echo "==> CLI option gate (a subcommand rejects options it does not read)"
for args in "report --blif examples/blif/mux4.blif --qor" \
    "decomp --blif examples/blif/mux4.blif --verify"; do
    # Each string is one command line, split into words on purpose.
    if "$LOWPOWER" $args > /dev/null 2>&1; then
        echo "lowpower $args exited 0 but must fail"
        exit 1
    fi
done

echo "==> lint gate (examples/blif, --lint=deny)"
for f in examples/blif/*.blif; do
    echo "    lint $f"
    "$LOWPOWER" lint --blif "$f" --lint=deny
done

echo "==> obs gate (JSONL validity, stripped-snapshot determinism, chrome trace)"
# Deterministic counters are the regression signal: each example's
# stripped snapshot must match the one committed under results/cli/.
for f in examples/blif/*.blif; do
    b=$(basename "$f" .blif)
    "$LOWPOWER" synth --blif "$f" \
        --obs=json --obs-out - 2> /dev/null > "$TMP/obs.jsonl"
    "$LOWPOWER" obs-check --file "$TMP/obs.jsonl" --strip \
        > "$TMP/obs.stripped"
    cmp "$TMP/obs.stripped" "results/cli/$b.obs.json"
done
"$LOWPOWER" synth --blif examples/blif/fulladd.blif \
    --obs=json --obs-out - 2> /dev/null > "$TMP/obs_a.jsonl"
"$LOWPOWER" synth --blif examples/blif/fulladd.blif \
    --obs=json --obs-out - 2> /dev/null > "$TMP/obs_b.jsonl"
"$LOWPOWER" obs-check --file "$TMP/obs_a.jsonl"
"$LOWPOWER" obs-check --file "$TMP/obs_a.jsonl" --strip \
    > "$TMP/obs_a.stripped"
"$LOWPOWER" obs-check --file "$TMP/obs_b.jsonl" --strip \
    > "$TMP/obs_b.stripped"
cmp "$TMP/obs_a.stripped" "$TMP/obs_b.stripped"
"$LOWPOWER" synth --blif examples/blif/fulladd.blif \
    --obs=chrome --obs-out "$TMP/obs.trace.json" > /dev/null
"$LOWPOWER" obs-check --file "$TMP/obs.trace.json" --chrome

echo "==> obs disabled-overhead smoke (criterion micro-bench)"
cargo bench --quiet -p lowpower-bench --bench obs_overhead > /dev/null

echo "==> BDD construction smoke (criterion micro-bench: adders, optimized x3)"
cargo bench --quiet -p lowpower-bench --bench bdd_prob > /dev/null

echo "==> mapper smoke (criterion micro-bench: optimized x3, both objectives)"
cargo bench --quiet -p lowpower-bench --bench map_sweep > /dev/null

echo "==> decomposition smoke (criterion micro-bench: tree builders, s510 styles, optimized x3 bounded)"
cargo bench --quiet -p lowpower-bench --bench decomp > /dev/null

echo "==> logicopt smoke (criterion micro-bench: rugged_like on suite circuits and a 2 000-node network, s344 passes)"
cargo bench --quiet -p lowpower-bench --bench logicopt_speed > /dev/null

echo "==> qor gate (regenerate example-circuit QoR, zero-tolerance diff vs baseline)"
"$LOWPOWER" qor-baseline \
    --blif examples/blif/fulladd.blif --blif examples/blif/mux4.blif \
    --blif examples/blif/parity4.blif --out "$TMP/qor_examples.json" > /dev/null
"$LOWPOWER" qor-diff \
    --baseline results/qor_baseline.json --against "$TMP/qor_examples.json"

echo "==> qor ledger gate (the ledger lines riding the obs stream parse strictly)"
"$LOWPOWER" synth --blif examples/blif/mux4.blif --method V \
    --qor --obs=json --obs-out "$TMP/qor.jsonl" > /dev/null 2>&1
"$LOWPOWER" obs-check --file "$TMP/qor.jsonl"
# Its stripped snapshot pins the `qor` span counts and `qor.snapshots`.
"$LOWPOWER" obs-check --file "$TMP/qor.jsonl" --strip \
    > "$TMP/qor.stripped"
cmp "$TMP/qor.stripped" results/cli/mux4.qor.obs.json

echo "CI OK"
