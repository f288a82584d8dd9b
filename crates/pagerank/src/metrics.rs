//! Ranking-comparison metrics, exactly as §6.2 of the paper defines them.
//!
//! * **Spearman's footrule distance** over the top-k of two rankings, with
//!   a page missing from one ranking placed at position `k + 1`, normalized
//!   to `[0, 1]` (0 = identical, 1 = disjoint).
//! * **Linear score error**: mean `|JXP score − PR score|` over the top-k
//!   pages *of the centralized PR ranking*.
//! * **Kendall's tau** and **top-k overlap** as supplementary diagnostics.

use crate::ranking::Ranking;
use jxp_webgraph::{FxHashMap, FxHashSet, PageId};

/// Spearman's footrule distance between the top-`k` prefixes of two
/// rankings, normalized to `[0, 1]`.
///
/// Following the paper: positions are 1-based within the top-k; a page
/// present in one top-k but not the other gets position `k + 1` in the
/// latter. The normalizer `k·(k+1)` is the distance of two disjoint
/// top-k lists, so disjoint lists score exactly 1.
///
/// # Panics
/// Panics if `k == 0`.
pub fn footrule_distance(a: &Ranking, b: &Ranking, k: usize) -> f64 {
    assert!(k > 0, "footrule over an empty prefix is undefined");
    let top_a = a.top_k(k);
    let top_b = b.top_k(k);
    let pos = |r: &Ranking, p: PageId| -> usize {
        match r.position(p) {
            Some(i) if i < k => i + 1, // 1-based
            _ => k + 1,
        }
    };
    // Sorted + deduped union (not a hash set): the summands are
    // integers so any order gives the same total, but a stable order
    // keeps the loop replayable and needs no hash iteration (rule D1).
    let mut union: Vec<PageId> = top_a.iter().chain(top_b.iter()).copied().collect();
    union.sort_unstable();
    union.dedup();
    let sum: usize = union.iter().map(|&p| pos(a, p).abs_diff(pos(b, p))).sum();
    sum as f64 / (k * (k + 1)) as f64
}

/// Linear score error: the average absolute difference between the
/// approximate score and the true score over the top-`k` pages **of the
/// true ranking** (the paper measures over "the top-k pages in the
/// centralized PR ranking"). A page without an approximate score
/// contributes its full true score (approximation 0).
///
/// # Panics
/// Panics if `k == 0` or the true ranking is empty.
pub fn linear_score_error(approx: &Ranking, truth: &Ranking, k: usize) -> f64 {
    assert!(k > 0, "linear score error over an empty prefix");
    let top = truth.top_k(k);
    assert!(!top.is_empty(), "true ranking is empty");
    let sum: f64 = top
        .iter()
        .map(|&p| {
            let t = truth
                .score(p)
                .expect("page from truth.top_k must be scored");
            let a = approx.score(p).unwrap_or(0.0);
            (t - a).abs()
        })
        .sum();
    sum / top.len() as f64
}

/// Fraction of the top-`k` of `truth` that also appears in the top-`k` of
/// `approx` (a.k.a. precision of the approximate top-k).
pub fn top_k_overlap(approx: &Ranking, truth: &Ranking, k: usize) -> f64 {
    assert!(k > 0, "overlap over an empty prefix");
    let top_t = truth.top_k(k);
    if top_t.is_empty() {
        return 1.0;
    }
    let set_a: FxHashSet<PageId> = approx.top_k(k).iter().copied().collect();
    let hits = top_t.iter().filter(|p| set_a.contains(p)).count();
    hits as f64 / top_t.len() as f64
}

/// Kendall's tau-a over the pages ranked by **both** rankings' top-`k`
/// prefixes: the fraction of concordant minus discordant pairs, in
/// `[-1, 1]`. Returns `None` if fewer than two common pages exist.
pub fn kendall_tau(a: &Ranking, b: &Ranking, k: usize) -> Option<f64> {
    let pos_a: FxHashMap<PageId, usize> = a
        .top_k(k)
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i))
        .collect();
    let common: Vec<(usize, usize)> = b
        .top_k(k)
        .iter()
        .enumerate()
        .filter_map(|(ib, &p)| pos_a.get(&p).map(|&ia| (ia, ib)))
        .collect();
    let n = common.len();
    if n < 2 {
        return None;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let (a1, b1) = common[i];
            let (a2, b2) = common[j];
            let s = ((a1 as i64 - a2 as i64) * (b1 as i64 - b2 as i64)).signum();
            if s > 0 {
                concordant += 1;
            } else if s < 0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    Some((concordant - discordant) as f64 / pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranking(pages: &[u32]) -> Ranking {
        // Score decreases with list position.
        Ranking::from_scores(
            pages
                .iter()
                .enumerate()
                .map(|(i, &p)| (PageId(p), 1.0 - i as f64 * 0.01)),
        )
    }

    #[test]
    fn footrule_identical_is_zero() {
        let a = ranking(&[1, 2, 3, 4]);
        let b = ranking(&[1, 2, 3, 4]);
        assert_eq!(footrule_distance(&a, &b, 4), 0.0);
    }

    #[test]
    fn footrule_disjoint_is_one() {
        let a = ranking(&[1, 2, 3]);
        let b = ranking(&[4, 5, 6]);
        assert!((footrule_distance(&a, &b, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn footrule_single_swap() {
        let a = ranking(&[1, 2, 3, 4]);
        let b = ranking(&[2, 1, 3, 4]);
        // Two pages displaced by 1 each → 2 / (4·5) = 0.1.
        assert!((footrule_distance(&a, &b, 4) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn footrule_is_symmetric() {
        let a = ranking(&[1, 2, 3, 9]);
        let b = ranking(&[3, 1, 7, 2]);
        let d1 = footrule_distance(&a, &b, 4);
        let d2 = footrule_distance(&b, &a, 4);
        assert!((d1 - d2).abs() < 1e-12);
        assert!(d1 > 0.0 && d1 < 1.0);
    }

    #[test]
    fn footrule_uses_only_top_k() {
        // Beyond-k differences must not matter.
        let a = ranking(&[1, 2, 3, 4, 5]);
        let b = ranking(&[1, 2, 3, 5, 4]);
        assert_eq!(footrule_distance(&a, &b, 3), 0.0);
    }

    #[test]
    fn footrule_missing_page_at_k_plus_one() {
        let a = ranking(&[1, 2]);
        let b = ranking(&[1]);
        // Page 2: pos 2 in a, missing in b → pos 3. Diff 1. Normalizer 2·3.
        assert!((footrule_distance(&a, &b, 2) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty prefix")]
    fn footrule_k_zero_panics() {
        let a = ranking(&[1]);
        let _ = footrule_distance(&a, &a, 0);
    }

    #[test]
    fn linear_error_zero_for_identical_scores() {
        let a = Ranking::from_scores([(PageId(1), 0.6), (PageId(2), 0.4)]);
        let b = Ranking::from_scores([(PageId(1), 0.6), (PageId(2), 0.4)]);
        assert_eq!(linear_score_error(&a, &b, 2), 0.0);
    }

    #[test]
    fn linear_error_averages_absolute_diffs() {
        let truth = Ranking::from_scores([(PageId(1), 0.6), (PageId(2), 0.4)]);
        let approx = Ranking::from_scores([(PageId(1), 0.5), (PageId(2), 0.5)]);
        assert!((linear_score_error(&approx, &truth, 2) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn linear_error_missing_page_counts_full_score() {
        let truth = Ranking::from_scores([(PageId(1), 0.6), (PageId(2), 0.4)]);
        let approx = Ranking::from_scores([(PageId(1), 0.6)]);
        assert!((linear_score_error(&approx, &truth, 2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn linear_error_k_truncates_to_available() {
        let truth = Ranking::from_scores([(PageId(1), 1.0)]);
        let approx = Ranking::from_scores([(PageId(1), 0.9)]);
        let e = linear_score_error(&approx, &truth, 100);
        assert!((e - 0.1).abs() < 1e-9);
    }

    #[test]
    fn overlap_bounds() {
        let a = ranking(&[1, 2, 3]);
        let b = ranking(&[3, 2, 1]);
        assert_eq!(top_k_overlap(&a, &b, 3), 1.0);
        let c = ranking(&[7, 8, 9]);
        assert_eq!(top_k_overlap(&a, &c, 3), 0.0);
        let d = ranking(&[1, 8, 9]);
        assert!((top_k_overlap(&d, &a, 3) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_tau_extremes() {
        let a = ranking(&[1, 2, 3, 4]);
        let same = ranking(&[1, 2, 3, 4]);
        let rev = ranking(&[4, 3, 2, 1]);
        assert_eq!(kendall_tau(&a, &same, 4), Some(1.0));
        assert_eq!(kendall_tau(&a, &rev, 4), Some(-1.0));
    }

    #[test]
    fn kendall_tau_needs_two_common_pages() {
        let a = ranking(&[1, 2]);
        let b = ranking(&[1, 9]);
        assert_eq!(kendall_tau(&a, &b, 2), None);
    }
}
