//! Transition models: static CMOS and domino dynamic CMOS (p/n blocks).

/// Circuit design style, determining how signal probability translates into
/// switching activity (paper §1.2 and §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransitionModel {
    /// Static CMOS: the output switches on both edges; with temporal
    /// independence `E = 2·p·(1−p)` (eq. 3 applied to both directions).
    /// Eqs. 10–11, the 0→1 and 1→0 probabilities of a 2-input gate, sum
    /// to this at the gate's exact output probability.
    #[default]
    StaticCmos,
    /// Domino p-block: outputs precharge to 0 and switch when the function
    /// evaluates to 1, so `E = P(f = 1)` (eq. 5 context).
    DominoP,
    /// Domino n-block: outputs precharge to 1 and switch when the function
    /// evaluates to 0, so `E = P(f = 0)` (eq. 6 context).
    DominoN,
}

impl TransitionModel {
    /// Expected transitions per cycle for a signal with `P(sig = 1) = p_one`.
    pub fn switching(self, p_one: f64) -> f64 {
        match self {
            TransitionModel::StaticCmos => 2.0 * p_one * (1.0 - p_one),
            TransitionModel::DominoP => p_one,
            TransitionModel::DominoN => 1.0 - p_one,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_switching_values() {
        assert!((TransitionModel::StaticCmos.switching(0.5) - 0.5).abs() < 1e-12);
        assert!((TransitionModel::StaticCmos.switching(0.0)).abs() < 1e-12);
        assert!((TransitionModel::DominoP.switching(0.3) - 0.3).abs() < 1e-12);
        assert!((TransitionModel::DominoN.switching(0.3) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn static_cmos_matches_two_cycle_enumeration_of_and() {
        // Eqs. (10)–(11) by direct enumeration of the 16 two-cycle states
        // of two temporally and mutually independent AND inputs.
        let (pa, pb) = (0.37, 0.81);
        let p = |bit: usize, p_one: f64| if bit == 1 { p_one } else { 1.0 - p_one };
        let mut toggles = 0.0;
        for s in 0..16usize {
            let (ap, ac, bp, bc) = (s >> 3 & 1, s >> 2 & 1, s >> 1 & 1, s & 1);
            if ap & bp != ac & bc {
                toggles += p(ap, pa) * p(ac, pa) * p(bp, pb) * p(bc, pb);
            }
        }
        assert!((toggles - TransitionModel::StaticCmos.switching(pa * pb)).abs() < 1e-12);
    }
}
