//! Exact constructions of classic combinational circuit shapes.

use netlist::{Cube, Lit, Network, NodeId, Sop};

/// `n`-to-`outputs` line decoder (`cm42a` is `decoder(4, 10)` up to signal
/// naming: a 4-input, 10-output one-of-code decoder).
///
/// # Panics
/// Panics if `outputs > 2^n` or `n == 0`.
pub fn decoder(n: usize, outputs: usize) -> Network {
    assert!(n > 0 && outputs <= 1 << n, "decoder shape out of range");
    let mut net = Network::new(format!("dec{n}x{outputs}"));
    let pis: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("a{i}")).expect("fresh"))
        .collect();
    for m in 0..outputs {
        let mut cube = Cube::tautology(n);
        for (i, _) in pis.iter().enumerate() {
            cube.set_lit(i, if m >> i & 1 == 1 { Lit::Pos } else { Lit::Neg });
        }
        let id = net
            .add_logic(format!("y{m}"), pis.clone(), Sop::from_cubes(n, vec![cube]))
            .expect("fresh");
        net.add_output(format!("y{m}"), id);
    }
    net
}

/// `n`-bit ripple-carry adder: inputs `a0..`, `b0..`, `cin`; outputs
/// `s0..`, `cout`.
pub fn ripple_adder(n: usize) -> Network {
    assert!(n > 0, "adder needs at least one bit");
    let mut net = Network::new(format!("add{n}"));
    let a: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("a{i}")).expect("fresh"))
        .collect();
    let b: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("b{i}")).expect("fresh"))
        .collect();
    let mut carry = net.add_input("cin").expect("fresh");
    for i in 0..n {
        // sum = a ^ b ^ c ; cout = ab + ac + bc
        let sum = net
            .add_logic(
                format!("s{i}"),
                vec![a[i], b[i], carry],
                Sop::parse(3, &["100", "010", "001", "111"]).expect("sop"),
            )
            .expect("fresh");
        net.add_output(format!("s{i}"), sum);
        let cout = net
            .add_logic(
                format!("c{}", i + 1),
                vec![a[i], b[i], carry],
                Sop::parse(3, &["11-", "1-1", "-11"]).expect("sop"),
            )
            .expect("fresh");
        carry = cout;
    }
    net.add_output("cout", carry);
    net
}

/// `n`-bit ALU slice: two data words, 2 select bits; op ∈ {ADD, AND, OR,
/// XOR} selected by `s1 s0`. Outputs `f0..f(n-1)` and `cout`. This is the
/// `alu2`-style workload: arithmetic carry chains mixed with logic ops and
/// output muxing.
pub fn alu(n: usize) -> Network {
    assert!(n > 0, "alu needs at least one bit");
    let mut net = Network::new(format!("alu{n}"));
    let a: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("a{i}")).expect("fresh"))
        .collect();
    let b: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("b{i}")).expect("fresh"))
        .collect();
    let s0 = net.add_input("s0").expect("fresh");
    let s1 = net.add_input("s1").expect("fresh");
    let mut carry: Option<NodeId> = None;
    for i in 0..n {
        let and_i = net
            .add_logic(
                format!("and{i}"),
                vec![a[i], b[i]],
                Sop::parse(2, &["11"]).expect("sop"),
            )
            .expect("fresh");
        let or_i = net
            .add_logic(
                format!("or{i}"),
                vec![a[i], b[i]],
                Sop::parse(2, &["1-", "-1"]).expect("sop"),
            )
            .expect("fresh");
        let xor_i = net
            .add_logic(
                format!("xor{i}"),
                vec![a[i], b[i]],
                Sop::parse(2, &["10", "01"]).expect("sop"),
            )
            .expect("fresh");
        let (sum_i, cout_i) = match carry {
            None => {
                // half adder on bit 0 when no carry-in yet
                let c = net
                    .add_logic(
                        format!("c{i}"),
                        vec![a[i], b[i]],
                        Sop::parse(2, &["11"]).expect("sop"),
                    )
                    .expect("fresh");
                (xor_i, c)
            }
            Some(cin) => {
                let s = net
                    .add_logic(
                        format!("sum{i}"),
                        vec![a[i], b[i], cin],
                        Sop::parse(3, &["100", "010", "001", "111"]).expect("sop"),
                    )
                    .expect("fresh");
                let c = net
                    .add_logic(
                        format!("c{i}"),
                        vec![a[i], b[i], cin],
                        Sop::parse(3, &["11-", "1-1", "-11"]).expect("sop"),
                    )
                    .expect("fresh");
                (s, c)
            }
        };
        carry = Some(cout_i);
        // 4:1 mux on (s1, s0): 00=sum, 01=and, 10=or, 11=xor
        // f = !s1!s0·sum + !s1 s0·and + s1!s0·or + s1 s0·xor
        let f = net
            .add_logic(
                format!("f{i}"),
                vec![s1, s0, sum_i, and_i, or_i, xor_i],
                Sop::parse(6, &["001---", "01-1--", "10--1-", "11---1"]).expect("sop"),
            )
            .expect("fresh");
        net.add_output(format!("f{i}"), f);
    }
    net.add_output("cout", carry.expect("n > 0"));
    net
}

/// `n`-input parity tree (XOR chain) — a high-switching-activity workload.
pub fn parity(n: usize) -> Network {
    assert!(n >= 2, "parity needs at least two inputs");
    let mut net = Network::new(format!("parity{n}"));
    let pis: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("x{i}")).expect("fresh"))
        .collect();
    let mut acc = pis[0];
    for (i, &pi) in pis.iter().enumerate().skip(1) {
        acc = net
            .add_logic(
                format!("p{i}"),
                vec![acc, pi],
                Sop::parse(2, &["10", "01"]).expect("sop"),
            )
            .expect("fresh");
    }
    net.add_output("parity", acc);
    net
}

/// Mux tree selecting one of `2^k` data inputs by `k` select lines.
pub fn mux_tree(k: usize) -> Network {
    assert!((1..=6).contains(&k), "mux tree select width out of range");
    let mut net = Network::new(format!("mux{}", 1 << k));
    let sel: Vec<NodeId> = (0..k)
        .map(|i| net.add_input(format!("s{i}")).expect("fresh"))
        .collect();
    let data: Vec<NodeId> = (0..1 << k)
        .map(|i| net.add_input(format!("d{i}")).expect("fresh"))
        .collect();
    let mut layer = data;
    for (level, &s) in sel.iter().enumerate() {
        let mut next = Vec::with_capacity(layer.len() / 2);
        for pair in 0..layer.len() / 2 {
            let m = net
                .add_logic(
                    format!("m{level}_{pair}"),
                    vec![s, layer[2 * pair], layer[2 * pair + 1]],
                    // !s·d0 + s·d1
                    Sop::parse(3, &["01-", "1-1"]).expect("sop"),
                )
                .expect("fresh");
            next.push(m);
        }
        layer = next;
    }
    net.add_output("y", layer[0]);
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_one_hot() {
        let net = decoder(4, 10);
        net.check().unwrap();
        assert_eq!(net.inputs().len(), 4);
        assert_eq!(net.outputs().len(), 10);
        for v in 0..16u32 {
            let pis: Vec<bool> = (0..4).map(|i| v >> i & 1 == 1).collect();
            let outs = net.eval_outputs(&pis);
            for (m, &o) in outs.iter().enumerate() {
                assert_eq!(o, m as u32 == v, "minterm {m} at value {v}");
            }
        }
    }

    #[test]
    fn adder_adds() {
        let net = ripple_adder(4);
        net.check().unwrap();
        for a in 0..16u32 {
            for b in 0..16u32 {
                for cin in 0..2u32 {
                    let mut pis = Vec::new();
                    pis.extend((0..4).map(|i| a >> i & 1 == 1));
                    pis.extend((0..4).map(|i| b >> i & 1 == 1));
                    pis.push(cin == 1);
                    let outs = net.eval_outputs(&pis);
                    let mut got = 0u32;
                    for (i, &bit) in outs.iter().enumerate().take(5) {
                        if bit {
                            got |= 1 << i;
                        }
                    }
                    assert_eq!(got, a + b + cin, "a={a} b={b} cin={cin}");
                }
            }
        }
    }

    #[test]
    fn alu_ops() {
        let net = alu(2);
        net.check().unwrap();
        for a in 0..4u32 {
            for b in 0..4u32 {
                for op in 0..4u32 {
                    let mut pis = Vec::new();
                    pis.extend((0..2).map(|i| a >> i & 1 == 1));
                    pis.extend((0..2).map(|i| b >> i & 1 == 1));
                    pis.push(op & 1 == 1); // s0
                    pis.push(op >> 1 & 1 == 1); // s1
                    let outs = net.eval_outputs(&pis);
                    let expect = match op {
                        0 => (a + b) & 3,
                        1 => a & b,
                        2 => a | b,
                        _ => a ^ b,
                    };
                    let mut got = 0u32;
                    for (i, &bit) in outs.iter().enumerate().take(2) {
                        if bit {
                            got |= 1 << i;
                        }
                    }
                    assert_eq!(got, expect, "a={a} b={b} op={op}");
                }
            }
        }
    }

    #[test]
    fn parity_is_xor_reduce() {
        let net = parity(5);
        net.check().unwrap();
        for v in 0..32u32 {
            let pis: Vec<bool> = (0..5).map(|i| v >> i & 1 == 1).collect();
            assert_eq!(net.eval_outputs(&pis), vec![v.count_ones() % 2 == 1]);
        }
    }

    #[test]
    fn mux_selects() {
        let net = mux_tree(2);
        net.check().unwrap();
        for sel in 0..4u32 {
            for data in 0..16u32 {
                let mut pis = Vec::new();
                pis.extend((0..2).map(|i| sel >> i & 1 == 1));
                pis.extend((0..4).map(|i| data >> i & 1 == 1));
                assert_eq!(net.eval_outputs(&pis), vec![data >> sel & 1 == 1]);
            }
        }
    }
}
