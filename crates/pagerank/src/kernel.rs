//! The one pull kernel of the power sweep.
//!
//! Every PageRank sweep in the workspace — global PageRank over any
//! `GraphSource` ([`crate::power`], the one centralized solver) and the
//! per-peer extended-graph PageRank (`jxp_core::local_pr`) — runs this
//! loop, inside [`crate::par::chunked_fill`], over a **reverse-CSR row
//! block**: a run of consecutive rows whose predecessor lists sit in one
//! `preds` array, delimited by `offsets`.
//!
//! The source vector is **pre-multiplied**: the caller fills
//! `contrib[j] = curr[j] · inv_out[j]` once per sweep, so an edge costs
//! one gather and one add instead of two gathers, a multiply and an add.
//! Scores keep their bits: the product is the same IEEE multiplication
//! of the same two operands (just computed once per source instead of
//! once per edge), and each row still adds its terms to `0.0` in
//! ascending predecessor order.

/// Pull one block of rows.
///
/// Row `k` of the block has predecessors
/// `preds[offsets[k] .. offsets[k + 1]]` (ids index `contrib`; `preds`
/// may extend past the block on either side). For each row the kernel
/// sums `contrib` over that list in order and stores
/// `out[k] = finish(k, Σ)`. `finish` carries everything that differs
/// between callers — the jump/dangling base, ε, the world-column term
/// of the extended graph — and may accumulate per-chunk partials (L1
/// delta, mass leaving for the world node) as it goes; it is called
/// once per row, in row order.
///
/// # Panics
/// Panics if `offsets.len() != out.len() + 1`, or if an offset or a
/// predecessor id is out of range.
#[inline]
pub fn pull_block<F>(
    offsets: &[u32],
    preds: &[u32],
    contrib: &[f64],
    out: &mut [f64],
    mut finish: F,
) where
    F: FnMut(usize, f64) -> f64,
{
    assert_eq!(
        offsets.len(),
        out.len() + 1,
        "offsets do not frame the rows"
    );
    let mut lo = offsets[0] as usize;
    for (k, (slot, &hi)) in out.iter_mut().zip(&offsets[1..]).enumerate() {
        let hi = hi as usize;
        let mut sum = 0.0;
        for &j in &preds[lo..hi] {
            sum += contrib[j as usize];
        }
        *slot = finish(k, sum);
        lo = hi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::CHUNK;
    use jxp_webgraph::{GraphBuilder, GraphSource, PageId};

    #[test]
    fn rows_sum_their_own_lists_in_order() {
        // Three rows framed inside a longer preds array.
        let preds = [9, 0, 2, 1, 0, 9];
        let offsets = [1, 3, 3, 5];
        let contrib = [0.5, 0.25, 0.125];
        let mut out = [0.0; 3];
        let mut seen = Vec::new();
        pull_block(&offsets, &preds, &contrib, &mut out, |k, sum| {
            seen.push(k);
            sum + 1.0
        });
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(out, [1.625, 1.0, 1.75]);
    }

    #[test]
    fn empty_block_calls_nothing() {
        pull_block(&[7], &[], &[], &mut [], |_, _| unreachable!());
    }

    #[test]
    #[should_panic(expected = "offsets do not frame")]
    fn mismatched_frame_panics() {
        pull_block(&[0, 0], &[], &[], &mut [], |_, s| s);
    }

    /// The loop this kernel replaced: two gathers and a multiply per
    /// edge. Kept as the reference the pre-multiplied form must equal
    /// bit for bit.
    fn per_edge_reference(
        offsets: &[u32],
        preds: &[u32],
        curr: &[f64],
        inv_out: &[f64],
        base: f64,
        eps: f64,
    ) -> Vec<f64> {
        (0..offsets.len() - 1)
            .map(|q| {
                let mut sum = 0.0;
                for &p in &preds[offsets[q] as usize..offsets[q + 1] as usize] {
                    sum += curr[p as usize] * inv_out[p as usize];
                }
                base + eps * sum
            })
            .collect()
    }

    #[test]
    fn premultiplied_contrib_keeps_every_bit() {
        // A 2·CHUNK+57-row fragment with hubs, chords and dangling
        // pages, and a non-uniform score vector so the products differ.
        let n = 2 * CHUNK + 57;
        let mut b = GraphBuilder::new();
        b.ensure_nodes(n);
        for i in 0..n as u32 {
            if i % 89 == 0 {
                continue; // dangling page
            }
            b.add_edge(PageId(i), PageId((i + 1) % n as u32));
            b.add_edge(PageId(i), PageId((i * 7 + 13) % n as u32));
            if i % 5 == 0 {
                b.add_edge(PageId(i), PageId(0)); // hub
            }
        }
        let g = b.build();
        let inv_out: Vec<f64> = g
            .nodes()
            .map(|v| match g.out_degree(v) {
                0 => 0.0,
                d => 1.0 / d as f64,
            })
            .collect();
        assert!(inv_out.contains(&0.0), "fixture lost its dangling pages");
        let curr: Vec<f64> = (0..n).map(|i| 1.0 / (3.0 + i as f64).sqrt()).collect();
        let contrib: Vec<f64> = curr.iter().zip(&inv_out).map(|(c, i)| c * i).collect();
        let (base, eps) = (0.15 / n as f64, 0.85);

        g.for_each_pred_block(0..n, |_, offsets, preds| {
            let want = per_edge_reference(offsets, preds, &curr, &inv_out, base, eps);
            let mut got = vec![0.0; n];
            // Chunk by chunk, as `chunked_fill` frames it.
            for (c, chunk) in got.chunks_mut(CHUNK).enumerate() {
                let frame = &offsets[c * CHUNK..=c * CHUNK + chunk.len()];
                pull_block(frame, preds, &contrib, chunk, |_, sum| base + eps * sum);
            }
            for q in 0..n {
                assert_eq!(got[q].to_bits(), want[q].to_bits(), "row {q}");
            }
        });
    }
}
