//! JXP algorithm configuration.

/// How a peer folds a met peer's graph knowledge into its own state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeMode {
    /// Algorithm 2 (baseline): build the full union of both local graphs
    /// plus a merged world node, run PageRank on the union, then project
    /// back and discard. Accurate but expensive (the paper's Table 1).
    Full,
    /// §4.1 (optimized, default): only add the relevant in-link knowledge
    /// to the local world node and run PageRank on the *unchanged-size*
    /// extended local graph. The convergence proof (§5) covers this mode.
    LightWeight,
}

/// How two score lists are combined when peers meet (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombineMode {
    /// Baseline: average the scores of pages known to both peers, and
    /// after the PageRank computation re-weight external bookkeeping
    /// scores by `PR(W) / L(W)` (paper eq. 2).
    Average,
    /// Optimized (default): take the **bigger** of the two scores —
    /// justified because JXP scores never overestimate true PageRank
    /// (Theorem 5.3) and the world-node score is monotonically
    /// non-increasing (Theorem 5.1) — and leave external bookkeeping
    /// scores untouched after the computation (eq. 3).
    TakeMax,
}

/// Tunable parameters of the JXP algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct JxpConfig {
    /// Probability of following a link in the underlying random walk
    /// (the paper's ε; random-jump probability is `1 − ε`). Default 0.85.
    pub epsilon: f64,
    /// L1 convergence threshold of each local PageRank computation.
    pub pr_tolerance: f64,
    /// Iteration cap of each local PageRank computation.
    pub pr_max_iterations: usize,
    /// Graph-merging procedure at meetings.
    pub merge: MergeMode,
    /// Score-list combination rule at meetings.
    pub combine: CombineMode,
}

impl Default for JxpConfig {
    fn default() -> Self {
        JxpConfig {
            epsilon: 0.85,
            pr_tolerance: 1e-10,
            pr_max_iterations: 100,
            merge: MergeMode::LightWeight,
            combine: CombineMode::TakeMax,
        }
    }
}

impl JxpConfig {
    /// The paper's baseline configuration: full merging with score
    /// averaging (Algorithm 2 as first presented in §3).
    pub fn baseline() -> Self {
        JxpConfig {
            merge: MergeMode::Full,
            combine: CombineMode::Average,
            ..Default::default()
        }
    }

    /// The optimized configuration of §4 (light-weight merging +
    /// take-the-max combination) — same as `Default`.
    pub fn optimized() -> Self {
        Self::default()
    }

    /// Validate parameter ranges.
    ///
    /// # Panics
    /// Panics if `epsilon ∉ (0, 1)`, `pr_tolerance ≤ 0`, or
    /// `pr_max_iterations == 0`.
    pub fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "epsilon must be in (0, 1), got {}",
            self.epsilon
        );
        assert!(self.pr_tolerance > 0.0, "pr_tolerance must be positive");
        assert!(
            self.pr_max_iterations > 0,
            "pr_max_iterations must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_optimized_variant() {
        let c = JxpConfig::default();
        assert_eq!(c.merge, MergeMode::LightWeight);
        assert_eq!(c.combine, CombineMode::TakeMax);
        assert_eq!(c, JxpConfig::optimized());
    }

    #[test]
    fn baseline_is_full_merge_with_averaging() {
        let c = JxpConfig::baseline();
        assert_eq!(c.merge, MergeMode::Full);
        assert_eq!(c.combine, CombineMode::Average);
    }

    #[test]
    fn default_validates() {
        JxpConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn epsilon_one_rejected() {
        JxpConfig {
            epsilon: 1.0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "pr_tolerance")]
    fn zero_tolerance_rejected() {
        JxpConfig {
            pr_tolerance: 0.0,
            ..Default::default()
        }
        .validate();
    }
}
