//! Golden mapped netlists and glitch powers: the structural BLIF and the
//! glitch-simulated power of every method on small suite circuits, pinned
//! by digest.
//!
//! The mapper's curve construction is a hot path that gets rewritten for
//! speed; any such rewrite must leave the chosen gates, their bindings and
//! the instance order exactly as they were. A digest of
//! `MappedNetwork::to_blif` captures all three. When a change *intends* to
//! alter the mapping, regenerate the table from the failure message and
//! say so in the change description.

use genlib::builtin::lib2_like;
use lowpower::flow::{optimize, run_methods, FlowConfig, Method, MethodResult};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every method's result on each named suite circuit, in (circuit,
/// `Method::ALL`) order.
fn run_all(names: &[&str]) -> Vec<MethodResult> {
    let optimized: Vec<_> = names
        .iter()
        .map(|name| optimize(&benchgen::suite_circuit(name)))
        .collect();
    run_methods(&optimized, &lib2_like(), &FlowConfig::default(), 2)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// `(circuit, [digest per method in `Method::ALL` order])`.
const GOLDEN: [(&str, [u64; 6]); 3] = [
    (
        "cm42a",
        [
            0x990a53f0dda449d1,
            0x2d7ba708c4762b5d,
            0x990a53f0dda449d1,
            0xd56d077f64949b91,
            0x6824dfb63c3e029f,
            0xd56d077f64949b91,
        ],
    ),
    (
        "x2",
        [
            0x8b13fb0df663ff5d,
            0x8b13fb0df663ff5d,
            0x8b13fb0df663ff5d,
            0x1e331290fe055e67,
            0x1e331290fe055e67,
            0x1e331290fe055e67,
        ],
    ),
    (
        "s208",
        [
            0x34a9fab10f1265d1,
            0x6ef0e9dbe70fbaf3,
            0x37049dbb052b493e,
            0x05975bafcd240fda,
            0x461c0c2e3d4cfa5d,
            0x6d3232ca852599c0,
        ],
    ),
];

#[test]
fn mapped_blif_digests_are_pinned() {
    let lib = lib2_like();
    let names = GOLDEN.map(|(name, _)| name);
    let results = run_all(&names);
    let actual: Vec<(&str, Vec<u64>)> = names
        .into_iter()
        .zip(results.chunks(Method::ALL.len()))
        .map(|(name, results)| {
            let blif = |r: &MethodResult| r.mapped.to_blif(&lib, &format!("{name}_mapped"));
            let digest = |r| fnv1a(blif(r).as_bytes());
            (name, results.iter().map(digest).collect())
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, d)| {
            let hex: Vec<String> = d.iter().map(|x| format!("0x{x:016x}")).collect();
            format!("    (\"{name}\", [{}]),\n", hex.join(", "))
        })
        .collect();
    for ((name, want), (_, got)) in GOLDEN.iter().zip(&actual) {
        assert_eq!(
            &want[..],
            &got[..],
            "mapped netlist of {name} changed; current table:\n{table}"
        );
    }
}

/// Digest of `glitch_power_uw.to_bits()` over every method of cm42a, x2
/// and s344 (in that order, methods in `Method::ALL` order).
///
/// The glitch simulator's event loop is a hot path that gets rewritten for
/// speed; any such rewrite must pop events in exactly the old order, so
/// every reported power keeps its bit pattern.
const GLITCH_GOLDEN: u64 = 0xafd1ea567de780de;

#[test]
fn glitch_power_digest_is_pinned() {
    let bytes: Vec<u8> = run_all(&["cm42a", "x2", "s344"])
        .iter()
        .flat_map(|r| r.glitch_power_uw.to_bits().to_le_bytes())
        .collect();
    let digest = fnv1a(&bytes);
    assert_eq!(
        digest, GLITCH_GOLDEN,
        "glitch powers changed; current digest: 0x{digest:016x}"
    );
}
