//! The contract of receiver-filtered payloads: absorbing the payload a
//! sender cut to the receiver's filter leaves the receiver exactly where
//! the sender's whole payload would — score bits, world node, world
//! score — whatever the fragments, the world states, the combine mode,
//! and whichever side re-crawled in between.

use jxp_core::{meeting, CombineMode, JxpConfig, JxpPeer, MergeMode};
use jxp_synopses::BloomFilter;
use jxp_webgraph::{CsrGraph, GraphBuilder, PageId, Subgraph};
use proptest::collection::vec;
use proptest::prelude::*;

const MAX_PAGES: u32 = 36;

fn build(n: u32, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new();
    b.ensure_nodes(n as usize);
    for &(s, d) in edges {
        b.add_edge(PageId(s % n), PageId(d % n));
    }
    b.build()
}

/// The pages (of `n`) whose membership mask has `bit` set; never empty.
fn pages_of(masks: &[u8], n: u32, bit: u8) -> Vec<PageId> {
    let mut pages: Vec<PageId> = (0..n)
        .filter(|&p| masks[p as usize] & (1 << bit) != 0)
        .map(PageId)
        .collect();
    if pages.is_empty() {
        pages.push(PageId(u32::from(bit) % n));
    }
    pages
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// `receiver` absorbs `sender`'s payload both ways; the two outcomes must
/// be the same peer.
fn check(receiver: &JxpPeer, sender: &JxpPeer) -> Result<(), TestCaseError> {
    let cut = sender.payload_for(receiver.interest());
    let whole = sender.payload();
    prop_assert!(cut.wire_size() <= whole.wire_size());
    prop_assert_eq!(cut.num_pages(), whole.num_pages());
    let (mut by_cut, mut by_whole) = (receiver.clone(), receiver.clone());
    prop_assert_eq!(by_cut.try_absorb(&cut), Ok(()));
    prop_assert_eq!(by_whole.try_absorb(&whole), Ok(()));
    prop_assert_eq!(bits(by_cut.scores()), bits(by_whole.scores()));
    prop_assert_eq!(by_cut.world(), by_whole.world());
    prop_assert_eq!(
        by_cut.world_score().to_bits(),
        by_whole.world_score().to_bits()
    );
    prop_assert_eq!(
        by_cut.stats().total_pr_iterations,
        by_whole.stats().total_pr_iterations
    );
    // A filter that says yes to everything cuts nothing away.
    let ones = BloomFilter::from_parts(vec![u64::MAX; 3], 5, 0);
    let mut everything = sender.payload_for(Some(&ones));
    prop_assert_eq!(everything.cut_for, ones.fingerprint());
    everything.cut_for = 0;
    prop_assert_eq!(&everything, &whole);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cut_and_whole_payloads_leave_equal_peers(
        n in 4..=MAX_PAGES,
        crawl_1 in vec((0..MAX_PAGES, 0..MAX_PAGES), 1..140),
        crawl_2 in vec((0..MAX_PAGES, 0..MAX_PAGES), 1..140),
        masks in vec(0u8..32, MAX_PAGES as usize),
        warm_up in vec((0..3usize, 0..3usize), 0..8),
        take_max in 0u8..2,
        one_page_receiver in 0u8..4,
    ) {
        let (old_web, new_web) = (build(n, &crawl_1), build(n, &crawl_2));
        let config = JxpConfig {
            combine: if take_max == 1 { CombineMode::TakeMax } else { CombineMode::Average },
            ..JxpConfig::optimized()
        };
        prop_assert_eq!(config.merge, MergeMode::LightWeight);
        let peer = |web: &CsrGraph, pages: Vec<PageId>| {
            JxpPeer::new(Subgraph::from_pages(web, pages), u64::from(n), config.clone())
        };
        let mut receiver_pages = pages_of(&masks, n, 0);
        if one_page_receiver == 0 {
            receiver_pages.truncate(1);
        }
        let mut peers = [
            peer(&old_web, receiver_pages),
            peer(&old_web, pages_of(&masks, n, 1)),
            peer(&old_web, pages_of(&masks, n, 2)),
        ];
        // Fill the world nodes a little, in a random order.
        for &(i, j) in &warm_up {
            if i != j {
                let (lo, hi) = peers.split_at_mut(i.max(j));
                meeting::meet(&mut lo[i.min(j)], &mut hi[0]);
            }
        }
        for (r, s) in [(0, 1), (1, 0), (0, 2), (2, 1)] {
            check(&peers[r], &peers[s])?;
        }

        // The Web changes and the sender re-crawls, also gaining and
        // losing pages: the receiver's world node now holds links the
        // sender's new crawl no longer has. (The third peer sits the rest
        // out: relaying old-Web out-degrees into new-Web entries trips a
        // debug assertion in `WorldNode::upsert`, whole payload or cut.)
        peers[1].update_fragment(Subgraph::from_pages(&new_web, pages_of(&masks, n, 3)));
        check(&peers[0], &peers[1])?;
        check(&peers[1], &peers[0])?;
        let (receiver, rest) = peers.split_at_mut(1);
        meeting::meet(&mut receiver[0], &mut rest[0]);
        // Then the receiver re-crawls: its filter is a new one.
        let before = peers[0].interest().map(BloomFilter::fingerprint);
        peers[0].update_fragment(Subgraph::from_pages(&new_web, pages_of(&masks, n, 4)));
        let stale = peers[1].payload_for(peers[0].interest());
        if before != peers[0].interest().map(BloomFilter::fingerprint) {
            // A payload cut to the old filter is refused, not absorbed.
            let mut old = stale.clone();
            old.cut_for = before.unwrap();
            prop_assert!(peers[0].clone().try_absorb(&old).is_err());
        }
        check(&peers[0], &peers[1])?;
        check(&peers[1], &peers[0])?;
    }
}

#[test]
fn a_full_merging_peer_publishes_no_filter_and_gets_everything() {
    let web = build(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let light = JxpPeer::new(
        Subgraph::from_pages(&web, [PageId(0), PageId(1)]),
        4,
        JxpConfig::default(),
    );
    let mut full = JxpPeer::new(
        Subgraph::from_pages(&web, [PageId(2), PageId(3)]),
        4,
        JxpConfig::baseline(),
    );
    assert!(full.interest().is_none());
    assert!(full.payload().interest.is_none());
    let to_full = light.payload_for(full.interest());
    assert_eq!(to_full, light.payload());
    assert_eq!(to_full.cut_for, 0);
    // It must refuse anything cut, whoever it was cut for.
    let cut = light.payload_for(light.interest());
    assert!(full.try_absorb(&cut).is_err());
    full.try_absorb(&to_full).unwrap();
}
