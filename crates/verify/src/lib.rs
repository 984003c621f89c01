//! Combinational equivalence checking (CEC) between two [`Network`]s.
//!
//! Synthesis passes are only trustworthy if they preserve function. This
//! crate proves (or refutes) that two combinational netlists compute the
//! same outputs, with two independent backends:
//!
//! * **BDD** ([`VerifyLevel::Full`]) — build canonical ROBDDs for both
//!   networks over a shared variable order, each node's cover through
//!   `activity`'s SOP→BDD kernel [`activity::sop_bdd`], and compare output
//!   handles. Handle equality is function equality, so agreement is a
//!   proof. If the manager exceeds a node budget the check transparently
//!   falls back to simulation (reported via [`EquivReport::bdd_fallback`]).
//! * **Random simulation** ([`VerifyLevel::Sim`]) — bit-parallel evaluation
//!   of seeded random vectors, 64 per word, reusing the same kernel as
//!   `activity`'s Monte-Carlo estimator. Cheap and effective at exposing
//!   real bugs, but passing is only statistical evidence.
//!
//! Networks are matched **by name**: primary inputs are aligned by name
//! over the union of both input sets, and outputs are paired by name under
//! an [`OutputPolicy`]. On any mismatch a concrete input vector is
//! extracted, greedily minimized to its essential inputs, and reported as
//! a [`Counterexample`] together with the first diverging output and an
//! offending internal node inside its cone.

mod align;
mod bddcheck;
mod cex;
mod sim;

pub use cex::Counterexample;

use netlist::Network;

/// How much post-pass checking the flow performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyLevel {
    /// No checking.
    #[default]
    Off,
    /// Bit-parallel random simulation only.
    Sim,
    /// BDD proof, falling back to simulation over the node budget.
    Full,
}

impl std::str::FromStr for VerifyLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<VerifyLevel, String> {
        match s {
            "off" => Ok(VerifyLevel::Off),
            "sim" => Ok(VerifyLevel::Sim),
            "full" => Ok(VerifyLevel::Full),
            other => Err(format!(
                "unknown verify level `{other}` (expected off|sim|full)"
            )),
        }
    }
}

/// How primary outputs of the two networks are paired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputPolicy {
    /// Both networks must expose exactly the same output names.
    Exact,
    /// Only outputs present in both networks are compared (used across
    /// passes that legitimately drop outputs, e.g. constant stripping).
    Intersection,
}

/// Tuning knobs for [`check_equiv`].
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Backend selection; [`VerifyLevel::Off`] makes the check a no-op.
    pub level: VerifyLevel,
    /// Output pairing policy.
    pub outputs: OutputPolicy,
    /// Simulation effort: words of 64 vectors each.
    pub sim_words: usize,
    /// Seed for the simulation vector stream.
    pub seed: u64,
    /// BDD manager node budget before falling back to simulation.
    pub bdd_node_budget: usize,
    /// Worker threads for the simulation backend (1 = serial). The
    /// verdict — including which counterexample is reported — is
    /// identical at every thread count.
    pub threads: usize,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            level: VerifyLevel::Full,
            outputs: OutputPolicy::Exact,
            sim_words: 256,
            seed: 0x5EED_CEC5,
            bdd_node_budget: 2_000_000,
            threads: 1,
        }
    }
}

impl VerifyOptions {
    /// Options at a given level, defaults otherwise.
    pub fn at_level(level: VerifyLevel) -> VerifyOptions {
        VerifyOptions {
            level,
            ..VerifyOptions::default()
        }
    }

    /// Same options with a different output policy.
    pub fn with_outputs(mut self, outputs: OutputPolicy) -> VerifyOptions {
        self.outputs = outputs;
        self
    }

    /// Same options with a different simulation thread count.
    pub fn with_threads(mut self, threads: usize) -> VerifyOptions {
        self.threads = threads;
        self
    }
}

/// Which engine produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Canonical BDD comparison (a proof).
    Bdd,
    /// Bit-parallel random simulation (statistical evidence).
    Sim,
}

/// Statistics of a successful equivalence check.
#[derive(Debug, Clone)]
pub struct EquivReport {
    /// Engine that produced the verdict.
    pub backend: Backend,
    /// Number of output pairs compared.
    pub outputs_checked: usize,
    /// True if [`VerifyLevel::Full`] was requested but the BDD node budget
    /// was exceeded and simulation decided instead.
    pub bdd_fallback: bool,
    /// Simulation vectors applied (0 for a pure BDD proof).
    pub vectors: usize,
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Checking was disabled ([`VerifyLevel::Off`]).
    Skipped,
    /// No difference found; see the report for the strength of the claim.
    Equivalent(EquivReport),
    /// The networks differ on a concrete, minimized input vector.
    NotEquivalent(Box<Counterexample>),
}

impl Verdict {
    /// True unless a counterexample was found.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Verdict::NotEquivalent(_))
    }
}

/// Structural failure that prevents comparison (as opposed to a
/// functional mismatch, which is reported as a [`Verdict`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Output sets differ under [`OutputPolicy::Exact`].
    OutputMismatch(String),
    /// No output name is shared between the networks.
    NoCommonOutputs,
    /// A network is malformed (e.g. cyclic).
    Network(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::OutputMismatch(m) => write!(f, "output mismatch: {m}"),
            VerifyError::NoCommonOutputs => write!(f, "networks share no output names"),
            VerifyError::Network(m) => write!(f, "malformed network: {m}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Check combinational equivalence of `a` and `b` under `opts`.
///
/// Inputs are aligned by name over the union of both input sets; an input
/// present in only one network simply varies freely there. Outputs are
/// paired by name under `opts.outputs`.
///
/// # Errors
/// Returns [`VerifyError`] when the networks cannot be compared at all;
/// functional differences are reported as [`Verdict::NotEquivalent`].
pub fn check_equiv(a: &Network, b: &Network, opts: &VerifyOptions) -> Result<Verdict, VerifyError> {
    if opts.level != VerifyLevel::Off {
        obs::counter!("verify.checks");
    }
    match opts.level {
        VerifyLevel::Off => Ok(Verdict::Skipped),
        VerifyLevel::Sim => {
            let al = align::align(a, b, opts.outputs)?;
            sim::run(a, b, &al, opts, false)
        }
        VerifyLevel::Full => bddcheck::check(a, b, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::parse_blif;

    fn net(src: &str) -> Network {
        parse_blif(src).unwrap().network
    }

    // f = a·b + c two ways: flat, and as a decomposed tree with inputs
    // declared in a different order.
    const FLAT: &str =
        ".model flat\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n--1 1\n.end\n";
    const TREE: &str = ".model tree\n.inputs c a b\n.outputs f\n.names a b t\n11 1\n\
                        .names t c f\n1- 1\n-1 1\n.end\n";
    const BROKEN: &str = ".model broken\n.inputs c a b\n.outputs f\n.names a b t\n10 1\n\
                          .names t c f\n1- 1\n-1 1\n.end\n";

    #[test]
    fn equivalent_under_both_backends() {
        let (a, b) = (net(FLAT), net(TREE));
        for level in [VerifyLevel::Sim, VerifyLevel::Full] {
            let v = check_equiv(&a, &b, &VerifyOptions::at_level(level)).unwrap();
            match v {
                Verdict::Equivalent(r) => {
                    assert_eq!(r.outputs_checked, 1);
                    assert!(!r.bdd_fallback);
                    let want = if level == VerifyLevel::Full {
                        Backend::Bdd
                    } else {
                        Backend::Sim
                    };
                    assert_eq!(r.backend, want);
                }
                other => panic!("expected Equivalent, got {other:?}"),
            }
        }
    }

    #[test]
    fn mismatch_is_caught_by_both_backends() {
        let (a, b) = (net(FLAT), net(BROKEN));
        for level in [VerifyLevel::Sim, VerifyLevel::Full] {
            let v = check_equiv(&a, &b, &VerifyOptions::at_level(level)).unwrap();
            let Verdict::NotEquivalent(cex) = v else {
                panic!("expected NotEquivalent at {level:?}");
            };
            assert_eq!(cex.output, "f");
            // The witness must actually diverge when replayed.
            let pis_a: Vec<bool> = a
                .input_names()
                .iter()
                .map(|n| cex.input_value(n).unwrap())
                .collect();
            let pis_b: Vec<bool> = b
                .input_names()
                .iter()
                .map(|n| cex.input_value(n).unwrap())
                .collect();
            assert_ne!(a.eval_outputs(&pis_a), b.eval_outputs(&pis_b));
        }
    }

    #[test]
    fn bdd_budget_exhaustion_falls_back_to_simulation() {
        let (a, b) = (net(FLAT), net(TREE));
        let opts = VerifyOptions {
            bdd_node_budget: 1,
            ..Default::default()
        };
        let v = check_equiv(&a, &b, &opts).unwrap();
        match v {
            Verdict::Equivalent(r) => {
                assert_eq!(r.backend, Backend::Sim);
                assert!(r.bdd_fallback);
                assert!(r.vectors > 0);
            }
            other => panic!("expected fallback Equivalent, got {other:?}"),
        }
    }

    #[test]
    fn off_level_skips() {
        let (a, b) = (net(FLAT), net(BROKEN));
        let v = check_equiv(&a, &b, &VerifyOptions::at_level(VerifyLevel::Off)).unwrap();
        assert!(matches!(v, Verdict::Skipped));
    }

    #[test]
    fn exact_policy_rejects_missing_outputs() {
        let a = net(FLAT);
        let two = net(
            ".model two\n.inputs a b c\n.outputs f g\n.names a b c f\n11- 1\n--1 1\n\
             .names a g\n1 1\n.end\n",
        );
        let err = check_equiv(&a, &two, &VerifyOptions::default()).unwrap_err();
        assert!(matches!(err, VerifyError::OutputMismatch(_)), "{err}");
        let opts = VerifyOptions::default().with_outputs(OutputPolicy::Intersection);
        assert!(check_equiv(&a, &two, &opts).unwrap().is_ok());
    }

    #[test]
    fn disjoint_outputs_error() {
        let a = net(FLAT);
        let g = net(".model g\n.inputs a\n.outputs g\n.names a g\n1 1\n.end\n");
        let opts = VerifyOptions::default().with_outputs(OutputPolicy::Intersection);
        assert_eq!(
            check_equiv(&a, &g, &opts).unwrap_err(),
            VerifyError::NoCommonOutputs
        );
    }

    #[test]
    fn counterexample_minimizes_to_essential_inputs() {
        // f = a·b with six spectator inputs vs constant 0: divergence needs
        // exactly a=1, b=1; everything else is a don't-care.
        let a = net(".model wide\n.inputs a b u v w x y z\n.outputs f\n.names a b f\n11 1\n.end\n");
        let b = net(".model zero\n.inputs a b u v w x y z\n.outputs f\n.names f\n.end\n");
        for level in [VerifyLevel::Sim, VerifyLevel::Full] {
            let v = check_equiv(&a, &b, &VerifyOptions::at_level(level)).unwrap();
            let Verdict::NotEquivalent(cex) = v else {
                panic!("expected NotEquivalent at {level:?}");
            };
            assert_eq!(
                cex.care,
                vec!["a".to_string(), "b".to_string()],
                "at {level:?}"
            );
            assert_eq!(cex.input_value("a"), Some(true));
            assert_eq!(cex.input_value("b"), Some(true));
            for spectator in ["u", "v", "w", "x", "y", "z"] {
                assert_eq!(cex.input_value(spectator), Some(false), "at {level:?}");
            }
            assert_eq!(cex.values, (true, false));
            assert_eq!(cex.output, "f");
            let text = cex.to_string();
            assert!(text.contains("a=1 b=1"), "display: {text}");
        }
    }

    #[test]
    fn bdd_counterexample_is_mapped_back_from_variable_order() {
        // `f`'s fanins reach `b` before `a`, so the depth-first variable
        // order reverses the declared inputs. The difference b·!a is only
        // witnessed by a=0 b=1; read in variable order it would be a=1 b=0.
        let a = net(".model l\n.inputs a b\n.outputs f\n.names b a f\n10 1\n.end\n");
        let b = net(".model r\n.inputs a b\n.outputs f\n.names b a f\n11 1\n.end\n");
        assert_eq!(a.input_dfs_order(), vec![1, 0]);
        let v = check_equiv(&a, &b, &VerifyOptions::at_level(VerifyLevel::Full)).unwrap();
        let Verdict::NotEquivalent(cex) = v else {
            panic!("expected NotEquivalent, got {v:?}");
        };
        let pis: Vec<bool> = ["a", "b"]
            .iter()
            .map(|n| cex.input_value(n).unwrap())
            .collect();
        assert_ne!(a.eval_outputs(&pis), b.eval_outputs(&pis), "{cex}");
        assert_eq!(pis, vec![false, true]);
    }

    #[test]
    fn level_parses_from_str() {
        assert_eq!("off".parse::<VerifyLevel>().unwrap(), VerifyLevel::Off);
        assert_eq!("sim".parse::<VerifyLevel>().unwrap(), VerifyLevel::Sim);
        assert_eq!("full".parse::<VerifyLevel>().unwrap(), VerifyLevel::Full);
        assert!("bogus".parse::<VerifyLevel>().is_err());
    }
}
