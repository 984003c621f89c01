//! Determinism and exactness of the QoR ledger.
//!
//! The ledger's contract is that it is a pure function of the flow's
//! inputs: byte-identical renders regardless of thread count or repeat
//! runs, and per-stage deltas that telescope **exactly** (fixed-point
//! integers, no float drift) to the end-to-end delta. These tests pin
//! that contract across the full circuit × method matrix, plus the
//! provenance guarantee that every mapped gate resolves to a node of the
//! optimized network, and the ε = 0.5 mapping regression on s510 (a
//! same-node-augmentation curve dead-end that used to make every phase
//! assignment infeasible).

use genlib::builtin::lib2_like;
use lowpower::flow::{decompose, map, optimize, run_flow, run_method, FlowConfig, Method};
use lowpower::obs::check::parse_json;
use qor::{LedgerReport, Metrics, Provenance, Snapshot};

fn qor_cfg(sim_threads: usize) -> FlowConfig {
    FlowConfig {
        qor: true,
        sim_vectors: 256,
        sim_threads,
        ..FlowConfig::default()
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The ledger's machine-readable form: its lines as they ride the obs
/// stream, one [`Snapshot::render_json`] line each, `\n`-terminated.
fn ledger_lines(ledger: &LedgerReport) -> String {
    ledger
        .snapshots
        .iter()
        .map(|s| s.render_json(&ledger.circuit, &ledger.method) + "\n")
        .collect()
}

/// `(circuit, [digest of the `run_flow` ledger lines per method in
/// `Method::ALL` order], digest of the `run_method` ledger lines of method
/// V on the optimized network)`. The ledger is a pure function of the flow; a
/// change that *intends* to alter it regenerates this table from the
/// failure message and says so in its description.
const GOLDEN: [(&str, [u64; 6], u64); 3] = [
    (
        "cm42a",
        [
            0xbf09a6d92ad0816f,
            0x2b5e43b93553cdbf,
            0xcf8b8cbc76012d63,
            0xeec473f0b54b168a,
            0x3144d5b1dff9be42,
            0xe40d137bb5b9cfc6,
        ],
        0xc518c3a45204f939,
    ),
    (
        "x2",
        [
            0xc61c1464dad344a5,
            0xf000f927207fcb67,
            0x34a5f7673f85c891,
            0x56e7c69f6efbd130,
            0xc436aba2363e8222,
            0x9e084f7667237f84,
        ],
        0xafd90c42565a6a6b,
    ),
    (
        "s208",
        [
            0x430a38bfd8991fab,
            0x16e3bbfec2c3c79c,
            0x0679b56e36840b41,
            0x299b31e8cadcdd9b,
            0x2125e894fcd13677,
            0xedd8a9b16131e1c6,
        ],
        0x63df54ee1fcf1e5a,
    ),
];

#[test]
fn ledgers_thread_invariant_and_repeatable() {
    let lib = lib2_like();
    let mut actual = Vec::new();
    for (name, _, _) in GOLDEN {
        let net = benchgen::suite_circuit(name);
        let mut flow_digests = [0u64; 6];
        for (i, m) in Method::ALL.into_iter().enumerate() {
            let runs: Vec<(String, String)> = [1, 4, 1]
                .iter()
                .map(|&t| {
                    let r = run_flow(&net, &lib, m, &qor_cfg(t))
                        .unwrap_or_else(|e| panic!("method {m} failed on {name}: {e}"));
                    let ledger = r.qor.expect("cfg.qor=true yields a ledger");
                    (ledger.render_text(), ledger_lines(&ledger))
                })
                .collect();
            for (text, jsonl) in &runs[1..] {
                assert_eq!(
                    text, &runs[0].0,
                    "{name}/{m}: ledger text differs across runs/threads"
                );
                assert_eq!(
                    jsonl, &runs[0].1,
                    "{name}/{m}: ledger lines differ across runs/threads"
                );
            }
            for line in runs[0].1.lines() {
                parse_json(line)
                    .and_then(|j| Snapshot::from_json(&j))
                    .unwrap_or_else(|e| panic!("{name}/{m}: invalid ledger line {line}: {e}"));
            }
            flow_digests[i] = fnv1a(runs[0].1.as_bytes());
        }
        let ledger = run_method(&optimize(&net), &lib, Method::V, &qor_cfg(1))
            .unwrap_or_else(|e| panic!("method V failed on optimized {name}: {e}"))
            .qor
            .expect("cfg.qor=true yields a ledger");
        assert_eq!(ledger.snapshots[0].stage, "optimized");
        actual.push((name, flow_digests, fnv1a(ledger_lines(&ledger).as_bytes())));
    }
    let table: String = actual
        .iter()
        .map(|(name, flow, method)| {
            let hex: Vec<String> = flow.iter().map(|x| format!("0x{x:016x}")).collect();
            format!("    (\"{name}\", [{}], 0x{method:016x}),\n", hex.join(", "))
        })
        .collect();
    for ((name, want_flow, want_method), (_, got_flow, got_method)) in GOLDEN.iter().zip(&actual) {
        assert_eq!(
            (&want_flow[..], want_method),
            (&got_flow[..], got_method),
            "QoR ledger of {name} changed; current table:\n{table}"
        );
    }
}

#[test]
fn per_stage_deltas_telescope_exactly() {
    let lib = lib2_like();
    for name in ["s208", "cm42a", "x2"] {
        let net = benchgen::suite_circuit(name);
        for m in Method::ALL {
            let r = run_flow(&net, &lib, m, &qor_cfg(1))
                .unwrap_or_else(|e| panic!("method {m} failed on {name}: {e}"));
            let ledger = r.qor.expect("ledger");
            assert!(
                ledger.snapshots.len() >= 5,
                "{name}/{m}: expected initial + per-pass + decompose + map \
                 snapshots, got {}",
                ledger.snapshots.len()
            );
            let folded = ledger
                .deltas()
                .iter()
                .fold(Metrics::ZERO, |acc, (_, d)| acc.plus(d));
            let end = ledger.end_to_end().expect("at least two snapshots");
            assert_eq!(
                folded, end,
                "{name}/{m}: per-stage deltas do not sum to the end-to-end delta"
            );
        }
    }
}

#[test]
fn every_mapped_gate_resolves_to_an_optimized_node() {
    let lib = lib2_like();
    let cfg = qor_cfg(1);
    for name in ["s208", "cm42a", "x2"] {
        let net = benchgen::suite_circuit(name);
        let optimized = optimize(&net);
        let mut known: Vec<String> = optimized
            .node_ids()
            .map(|id| optimized.node(id).name().to_string())
            .collect();
        known.extend(
            optimized
                .inputs()
                .iter()
                .map(|id| optimized.node(*id).name().to_string()),
        );
        for m in Method::ALL {
            let d = decompose(&optimized, &lib, m.decomp_style(), &cfg)
                .unwrap_or_else(|e| panic!("method {m} failed on {name}: {e}"));
            let r = map(&d, &lib, m.map_objective())
                .unwrap_or_else(|e| panic!("method {m} failed on {name}: {e}"));
            let provenance = Provenance::from_decomposed(d.network());
            for inst in &r.mapped.instances {
                let origin = provenance.resolve(&inst.source);
                assert!(
                    known.iter().any(|k| k == origin),
                    "{name}/{m}: gate {} (subject {}) resolved to `{origin}`, \
                     which is not a node of the optimized network",
                    inst.name,
                    inst.source
                );
            }
        }
    }
}

/// Regression: mapping s510 with a wide power window (ε = 0.5) used to
/// fail with "no feasible match" because pruning could leave a phase
/// curve populated only by same-node augmentation points, a dead end no
/// downstream match can build on. The mapper now re-inserts the cheapest
/// raw point exempt from pruning; the map must succeed and the ledger
/// must record the mapped snapshot.
#[test]
fn s510_maps_at_wide_epsilon() {
    let lib = lib2_like();
    let optimized = optimize(&benchgen::suite_circuit("s510"));
    let cfg = FlowConfig {
        epsilon: 0.5,
        sim_vectors: 64,
        qor: true,
        ..FlowConfig::default()
    };
    let r = run_method(&optimized, &lib, Method::V, &cfg)
        .expect("s510 must map at epsilon = 0.5 (raw-point restoration)");
    let ledger = r.qor.expect("cfg.qor=true yields a ledger");
    let last = ledger.snapshots.last().expect("snapshots");
    assert_eq!(last.stage, "map", "ledger must end with the map snapshot");
    assert_eq!(
        last.metrics,
        qor::measure_mapped(&r.mapped, &lib, &cfg.qor_ctx())
    );
}
