//! Optimization scripts: the `rugged`-like preparation used by the paper.

use crate::eliminate::eliminate;
use crate::extract::extract;
use crate::simplify::simplify_network;
use crate::sweep::sweep;
use netlist::Network;

/// Before/after statistics of a script run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptReport {
    /// Literal count before.
    pub literals_before: usize,
    /// Literal count after.
    pub literals_after: usize,
    /// Logic node count before.
    pub nodes_before: usize,
    /// Logic node count after.
    pub nodes_after: usize,
}

/// Run the `rugged`-like technology-independent optimization script:
/// sweep → simplify → eliminate(−1) → extract → simplify → sweep, iterated
/// twice. Every experiment in the paper starts from such an optimized
/// network (its Section 4 uses the SIS rugged script for the same purpose).
pub fn rugged_like(net: &mut Network) -> ScriptReport {
    rugged_like_with(net, &mut |_, _| {})
}

/// [`rugged_like`] with a per-pass observer: `hook(label, net)` runs after
/// each constituent pass with the network in its post-pass state. Labels
/// are `"round.pass"` (e.g. `"1.sweep"`, `"2.extract"`), unique within one
/// script run so QoR ledgers can attribute each pass's delta. The script
/// itself is unchanged — [`rugged_like`] delegates here with a no-op hook.
///
/// Each pass runs in an obs span named after it (`sweep`, `simplify`,
/// `eliminate`, `extract`, `resimplify`, `resweep`), closed before the hook
/// runs, so the hook's own work is not charged to the pass.
pub fn rugged_like_with(net: &mut Network, hook: &mut dyn FnMut(&str, &Network)) -> ScriptReport {
    let literals_before = net.literal_count();
    let nodes_before = net.logic_count();
    for r in 1..=2 {
        let _round = obs::span!("rugged.round", "{r}");
        pass(r, "sweep", net, hook, sweep);
        pass(r, "simplify", net, hook, simplify_network);
        pass(r, "eliminate", net, hook, |n| eliminate(n, -1));
        pass(r, "extract", net, hook, |n| extract(n, 0));
        pass(r, "resimplify", net, hook, simplify_network);
        pass(r, "resweep", net, hook, sweep);
    }
    ScriptReport {
        literals_before,
        literals_after: net.literal_count(),
        nodes_before,
        nodes_after: net.logic_count(),
    }
}

/// Run pass `name` of round `r` in a span of that name, then `hook`.
fn pass<R>(
    r: usize,
    name: &'static str,
    net: &mut Network,
    hook: &mut dyn FnMut(&str, &Network),
    run: impl FnOnce(&mut Network) -> R,
) {
    {
        let _span = obs::span!(name);
        run(net);
    }
    hook(&format!("{r}.{name}"), net);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalent;
    use netlist::parse_blif;

    #[test]
    fn rugged_preserves_function_and_reduces_cost() {
        let mut net = parse_blif(
            ".model t\n.inputs a b c d\n.outputs f g\n\
             .names a b x\n11 1\n10 1\n\
             .names x c y\n11 1\n\
             .names a c d z\n1-1 1\n11- 1\n\
             .names y z d f\n1-- 1\n-11 1\n\
             .names y z g\n11 1\n.end\n",
        )
        .unwrap()
        .network;
        let orig = net.clone();
        let rep = rugged_like(&mut net);
        net.check().unwrap();
        assert!(equivalent(&orig, &net));
        assert!(rep.literals_after <= rep.literals_before);
    }

    #[test]
    fn rugged_is_idempotentish() {
        // A second run must not increase the literal count.
        let mut net = parse_blif(
            ".model t\n.inputs a b c d e\n.outputs f g\n\
             .names a b c f\n1-1 1\n-11 1\n011 1\n\
             .names a b d e g\n1-1- 1\n-11- 1\n---1 1\n.end\n",
        )
        .unwrap()
        .network;
        rugged_like(&mut net);
        let lits1 = net.literal_count();
        rugged_like(&mut net);
        assert!(net.literal_count() <= lits1);
        net.check().unwrap();
    }

    #[test]
    fn randomized_networks_survive_the_script() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for trial in 0..8 {
            let mut blif = String::from(".model r\n.inputs a b c d e\n.outputs o0 o1\n");
            // two levels of random nodes
            for (name, ins) in [("m0", "a b c"), ("m1", "c d e"), ("m2", "a d e")] {
                blif.push_str(&format!(".names {ins} {name}\n"));
                for _ in 0..rng.gen_range(1..4) {
                    let row: String = (0..3)
                        .map(|_| ['0', '1', '-'][rng.gen_range(0..3usize)])
                        .collect();
                    blif.push_str(&format!("{row} 1\n"));
                }
            }
            for (out, ins) in [("o0", "m0 m1 e"), ("o1", "m1 m2 a")] {
                blif.push_str(&format!(".names {ins} {out}\n"));
                for _ in 0..rng.gen_range(1..4) {
                    let row: String = (0..3)
                        .map(|_| ['0', '1', '-'][rng.gen_range(0..3usize)])
                        .collect();
                    blif.push_str(&format!("{row} 1\n"));
                }
            }
            blif.push_str(".end\n");
            let mut net = parse_blif(&blif).unwrap().network;
            let orig = net.clone();
            rugged_like(&mut net);
            net.check().unwrap();
            assert!(equivalent(&orig, &net), "trial {trial} diverged:\n{blif}");
        }
    }
}
