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
use lowpower::flow::{optimize, run_flow, run_method, FlowConfig, Method};
use qor::Metrics;

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

/// `(circuit, [digest of the `run_flow` ledger JSONL per method in
/// `Method::ALL` order], digest of the `run_method` ledger of method V on
/// the optimized network)`. The ledger is a pure function of the flow; a
/// change that *intends* to alter it regenerates this table from the
/// failure message and says so in its description.
const GOLDEN: [(&str, [u64; 6], u64); 3] = [
    (
        "cm42a",
        [
            0xc7224df7ecc52a5f,
            0xf03da3988eb1a0a0,
            0xa088b569b6c00d99,
            0x971413aeb920ab8c,
            0x7cafaa022e8bd645,
            0x8354550e95b6cd2e,
        ],
        0x5d5f558a0663d678,
    ),
    (
        "x2",
        [
            0x091fb97bf6c93763,
            0x0c638ace85085d7a,
            0x659be6a9760ef435,
            0xe0944ecde30cb6de,
            0x2834fa552a71f1cd,
            0x3b3e239a26262560,
        ],
        0xdc81163d5ab7f827,
    ),
    (
        "s208",
        [
            0xbb7aae90fbb924a4,
            0xa7c4fb27ebe6149d,
            0x57d79c1eff1e1afa,
            0x58a1b6f29d8ba5c8,
            0xc6850b14eb46ab4d,
            0x8d897728cd5bdb95,
        ],
        0xe33c6c9166ef5a31,
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
                    (ledger.render_text(), ledger.render_jsonl())
                })
                .collect();
            for (text, jsonl) in &runs[1..] {
                assert_eq!(
                    text, &runs[0].0,
                    "{name}/{m}: ledger text differs across runs/threads"
                );
                assert_eq!(
                    jsonl, &runs[0].1,
                    "{name}/{m}: ledger JSONL differs across runs/threads"
                );
            }
            qor::check::check_jsonl(&runs[0].1)
                .unwrap_or_else(|e| panic!("{name}/{m}: invalid ledger JSONL: {e}"));
            flow_digests[i] = fnv1a(runs[0].1.as_bytes());
        }
        let ledger = run_method(&optimize(&net), &lib, Method::V, &qor_cfg(1))
            .unwrap_or_else(|e| panic!("method V failed on optimized {name}: {e}"))
            .qor
            .expect("cfg.qor=true yields a ledger");
        assert_eq!(ledger.snapshots[0].stage, "optimized");
        actual.push((name, flow_digests, fnv1a(ledger.render_jsonl().as_bytes())));
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
            let r = run_flow(&net, &lib, m, &qor_cfg(1))
                .unwrap_or_else(|e| panic!("method {m} failed on {name}: {e}"));
            for inst in &r.mapped.instances {
                let origin = r.provenance.resolve(&inst.source);
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
