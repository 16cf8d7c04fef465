//! *The-earlier-the-better* refinement checks (paper §III, Fig. 2).
//!
//! A component `C` refines an abstraction `Ĉ` (written `C ⊑ Ĉ`) when earlier
//! input arrivals never cause later outputs:
//!
//! ```text
//!   ∀i: a(i) ≤ â(i)   ⇒   ∀j: b(j) ≤ b̂(j)
//! ```
//!
//! For the deterministic traces produced by our simulators this reduces to a
//! pointwise comparison of token production timestamps: given the same (or
//! earlier) inputs, the refined model must produce every token no later than
//! the abstraction. The paper's chain of abstractions
//! `hardware ⊑ CSDF ⊑ SDF` is validated with exactly this check
//! (experiment E8), and the shared-FIFO counter-example of Fig. 9
//! (experiment E7) is shown to *violate* it when the check-for-space is
//! removed.

use crate::graph::Time;

/// Arrival/production timestamps of consecutive tokens at one observation
/// point, in token order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArrivalTrace {
    /// Timestamp of the `j`-th token.
    pub times: Vec<Time>,
}

impl ArrivalTrace {
    /// Build from raw timestamps.
    pub fn new(times: Vec<Time>) -> Self {
        ArrivalTrace { times }
    }

    /// Number of observed tokens.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if no tokens were observed.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Latest timestamp.
    pub fn last(&self) -> Option<Time> {
        self.times.last().copied()
    }
}

/// Outcome of a refinement comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefinementOutcome {
    /// Every common token is produced no later by the refined trace, and the
    /// refined trace has at least as many tokens.
    Refines,
    /// Token `index` arrives later in the refined trace than in the
    /// abstraction — the abstraction's guarantee is violated.
    LateToken {
        /// Index of the offending token.
        index: usize,
        /// Arrival in the refined (implementation) trace.
        refined: Time,
        /// Arrival promised by the abstraction.
        abstracted: Time,
    },
    /// The refined trace produced fewer tokens than the abstraction within
    /// the observed horizon.
    MissingTokens {
        /// Tokens in the refined trace.
        refined: usize,
        /// Tokens in the abstraction's trace.
        abstracted: usize,
    },
}

/// Check `refined ⊑ abstracted` on a single observation point.
pub fn check_refinement(refined: &ArrivalTrace, abstracted: &ArrivalTrace) -> RefinementOutcome {
    if refined.len() < abstracted.len() {
        return RefinementOutcome::MissingTokens {
            refined: refined.len(),
            abstracted: abstracted.len(),
        };
    }
    for (j, (&b, &bh)) in refined.times.iter().zip(&abstracted.times).enumerate() {
        if b > bh {
            return RefinementOutcome::LateToken {
                index: j,
                refined: b,
                abstracted: bh,
            };
        }
    }
    RefinementOutcome::Refines
}

/// Boolean form of [`check_refinement`].
pub fn refines(refined: &ArrivalTrace, abstracted: &ArrivalTrace) -> bool {
    check_refinement(refined, abstracted) == RefinementOutcome::Refines
}

/// Check refinement over several observation points simultaneously; all
/// points must refine. Returns the first failing point's index and outcome.
pub fn check_refinement_multi(
    refined: &[ArrivalTrace],
    abstracted: &[ArrivalTrace],
) -> Result<(), (usize, RefinementOutcome)> {
    assert_eq!(
        refined.len(),
        abstracted.len(),
        "observation point count mismatch"
    );
    for (i, (r, a)) in refined.iter().zip(abstracted).enumerate() {
        match check_refinement(r, a) {
            RefinementOutcome::Refines => {}
            bad => return Err((i, bad)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_traces_refine() {
        let t = ArrivalTrace::new(vec![1, 2, 3]);
        assert!(refines(&t, &t));
    }

    #[test]
    fn earlier_refines() {
        let imp = ArrivalTrace::new(vec![1, 3, 5]);
        let abs = ArrivalTrace::new(vec![2, 3, 9]);
        assert!(refines(&imp, &abs));
    }

    #[test]
    fn later_token_detected() {
        let imp = ArrivalTrace::new(vec![1, 4]);
        let abs = ArrivalTrace::new(vec![2, 3]);
        assert_eq!(
            check_refinement(&imp, &abs),
            RefinementOutcome::LateToken {
                index: 1,
                refined: 4,
                abstracted: 3
            }
        );
    }

    #[test]
    fn missing_tokens_detected() {
        let imp = ArrivalTrace::new(vec![1]);
        let abs = ArrivalTrace::new(vec![1, 2]);
        assert_eq!(
            check_refinement(&imp, &abs),
            RefinementOutcome::MissingTokens {
                refined: 1,
                abstracted: 2
            }
        );
    }

    #[test]
    fn extra_tokens_allowed() {
        // The refined component may produce more than promised.
        let imp = ArrivalTrace::new(vec![1, 2, 3, 4]);
        let abs = ArrivalTrace::new(vec![5, 6]);
        assert!(refines(&imp, &abs));
    }

    #[test]
    fn multi_point_first_failure() {
        let imp = vec![
            ArrivalTrace::new(vec![1, 2]),
            ArrivalTrace::new(vec![9, 10]),
        ];
        let abs = vec![ArrivalTrace::new(vec![1, 2]), ArrivalTrace::new(vec![3, 4])];
        let err = check_refinement_multi(&imp, &abs).unwrap_err();
        assert_eq!(err.0, 1);
    }

    #[test]
    fn refinement_transitive() {
        let hw = ArrivalTrace::new(vec![1, 2, 3]);
        let csdf = ArrivalTrace::new(vec![2, 3, 4]);
        let sdf = ArrivalTrace::new(vec![4, 4, 4]);
        assert!(refines(&hw, &csdf));
        assert!(refines(&csdf, &sdf));
        assert!(refines(&hw, &sdf), "refinement must be transitive");
    }
}
