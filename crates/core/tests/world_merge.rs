//! The world node's one-pass merge against the per-record model it
//! replaced: a `BTreeMap` of entries that each own a `Vec` of targets,
//! updated one record at a time with a map probe per record and a binary
//! search plus insert per target. On random worlds and random payloads —
//! pages, bare ids and relayed entries that share a source, dangling ↔
//! linked transitions, both combine modes — the two must agree on every
//! entry, every dangling page and every bit of `inflow`. Deterministic
//! cases pin the edges of the merge's galloping search: records before
//! the first source and after the last, at consecutive positions and at
//! gaps of 2^k − 1, 2^k and 2^k + 1 entries, into empty and 1-entry
//! worlds.

use jxp_core::{CombineMode, MeetingPayload, WorldNode};
use jxp_webgraph::{PageId, Subgraph};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Page ids are drawn from `0..IDS`, small enough that streams collide.
const IDS: u32 = 24;
/// Relayed out-degrees start here, so a union of targets never exceeds one.
const RELAYED_DEGREE: u32 = IDS;
const N_TOTAL: f64 = 100.0;

struct Entry {
    out_degree: u32,
    score: f64,
    targets: Vec<PageId>,
}

/// The world node as it was: one record at a time.
#[derive(Default)]
struct Reference {
    entries: BTreeMap<PageId, Entry>,
    dangling: BTreeMap<PageId, f64>,
}

fn combined(mine: f64, theirs: f64, combine: CombineMode) -> f64 {
    match combine {
        CombineMode::TakeMax => mine.max(theirs),
        CombineMode::Average => (mine + theirs) / 2.0,
    }
}

impl Reference {
    fn upsert(
        &mut self,
        src: PageId,
        out_degree: u32,
        score: f64,
        targets: impl IntoIterator<Item = PageId>,
        combine: CombineMode,
    ) {
        let entry = self.entries.entry(src).or_insert_with(|| Entry {
            out_degree,
            score,
            targets: Vec::new(),
        });
        entry.out_degree = entry.out_degree.max(out_degree);
        entry.score = match combine {
            CombineMode::TakeMax => entry.score.max(score),
            CombineMode::Average if entry.targets.is_empty() => score,
            CombineMode::Average => (entry.score + score) / 2.0,
        };
        for t in targets {
            if let Err(pos) = entry.targets.binary_search(&t) {
                entry.targets.insert(pos, t);
            }
        }
    }

    fn set_authoritative(
        &mut self,
        src: PageId,
        out_degree: u32,
        score: f64,
        mut targets: Vec<PageId>,
        combine: CombineMode,
    ) {
        if out_degree == 0 {
            self.entries.remove(&src);
            self.upsert_dangling(src, score, combine);
            return;
        }
        if targets.is_empty() {
            self.forget(src);
            return;
        }
        self.dangling.remove(&src);
        targets.sort_unstable();
        targets.dedup();
        let score = match self.entries.get(&src) {
            Some(e) => combined(e.score, score, combine),
            None => score,
        };
        self.entries.insert(
            src,
            Entry {
                out_degree,
                score,
                targets,
            },
        );
    }

    fn forget(&mut self, src: PageId) {
        self.dangling.remove(&src);
        self.entries.remove(&src);
    }

    fn upsert_dangling(&mut self, page: PageId, score: f64, combine: CombineMode) {
        self.dangling
            .entry(page)
            .and_modify(|s| *s = combined(*s, score, combine))
            .or_insert(score);
    }

    fn absorb_light(&mut self, payload: &MeetingPayload, local: &Subgraph, combine: CombineMode) {
        for pp in payload.pages() {
            if !local.contains(pp.page) {
                let targets = pp.succs.iter().copied().filter(|&t| local.contains(t));
                let targets = targets.collect();
                self.set_authoritative(pp.page, pp.out_degree, pp.score, targets, combine);
            }
        }
        for &page in &payload.unlinked {
            if !local.contains(page) {
                self.forget(page);
            }
        }
        for &(page, score) in &payload.world_dangling {
            if !local.contains(page) {
                self.upsert_dangling(page, score, combine);
            }
        }
        for wp in payload.world() {
            if local.contains(wp.src) {
                continue;
            }
            let mut targets = wp
                .targets
                .iter()
                .copied()
                .filter(|&t| local.contains(t))
                .peekable();
            if targets.peek().is_some() {
                self.upsert(wp.src, wp.out_degree, wp.score, targets, combine);
            }
        }
    }

    fn inflow(&self, graph: &Subgraph) -> Vec<f64> {
        let dangling_mass: f64 = self.dangling.values().sum();
        let mut inflow = vec![dangling_mass / N_TOTAL; graph.num_pages()];
        for e in self.entries.values() {
            let per_link = e.score / e.out_degree as f64;
            for &t in &e.targets {
                if let Some(i) = graph.local_index(t) {
                    inflow[i] += per_link;
                }
            }
        }
        inflow
    }
}

type Entries = Vec<(PageId, u32, u64, Vec<PageId>)>;
type Dangling = Vec<(PageId, u64)>;

fn flat_state(w: &WorldNode, local: &Subgraph) -> (Entries, Dangling, Vec<u64>) {
    let entries = w
        .iter()
        .map(|(src, e)| (src, e.out_degree, e.score.to_bits(), e.targets.to_vec()))
        .collect();
    let dangling = w.dangling_iter().map(|(p, s)| (p, s.to_bits())).collect();
    let inflow = w
        .inflow(local, N_TOTAL)
        .iter()
        .map(|x| x.to_bits())
        .collect();
    (entries, dangling, inflow)
}

fn reference_state(r: &Reference, local: &Subgraph) -> (Entries, Dangling, Vec<u64>) {
    let entries = r
        .entries
        .iter()
        .map(|(&src, e)| (src, e.out_degree, e.score.to_bits(), e.targets.clone()))
        .collect();
    let dangling = r.dangling.iter().map(|(&p, s)| (p, s.to_bits())).collect();
    let inflow = r.inflow(local).iter().map(|x| x.to_bits()).collect();
    (entries, dangling, inflow)
}

fn ids(raw: &[u32]) -> Vec<PageId> {
    raw.iter().map(|&p| PageId(p)).collect()
}

/// Ascending and unique.
fn sorted(raw: &[u32]) -> Vec<PageId> {
    let mut ids = ids(raw);
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// One record per key, ascending by key.
fn by_key<T>(mut records: Vec<T>, key: impl Fn(&T) -> u32) -> Vec<T> {
    records.sort_by_key(&key);
    records.dedup_by_key(|r| key(r));
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_pass_merge_matches_the_per_record_model(
        take_max in 0u8..2,
        local in vec(0..IDS, 1..10),
        ops in vec((0u8..4, 0..IDS, 0..4u32, 0.0..0.2f64, vec(0..IDS, 0..4)), 0..40),
        pages in vec((0..IDS, 0..4u32, 0.0..0.2f64, vec(0..IDS, 0..4)), 0..12),
        unlinked in vec(0..IDS, 0..6),
        world in vec((0..IDS, 0..6u32, 0.0..0.2f64, vec(0..IDS, 0..5)), 0..12),
        world_dangling in vec((0..IDS, 0.0..0.2f64), 0..6),
    ) {
        let combine = if take_max == 1 { CombineMode::TakeMax } else { CombineMode::Average };
        let local = Subgraph::from_adjacency(sorted(&local).into_iter().map(|p| (p, vec![])));

        // A random world, built through the single-record entry points.
        let (mut flat, mut reference) = (WorldNode::new(), Reference::default());
        for (kind, src, degree, score, targets) in ops {
            let src = PageId(src);
            match kind {
                0 => {
                    let degree = RELAYED_DEGREE + degree;
                    flat.upsert(src, degree, score, ids(&targets), combine);
                    reference.upsert(src, degree, score, ids(&targets), combine);
                }
                1 => {
                    let mut targets = ids(&targets);
                    targets.truncate(degree as usize);
                    flat.set_authoritative(src, degree, score, targets.clone(), combine);
                    reference.set_authoritative(src, degree, score, targets, combine);
                }
                2 => {
                    flat.forget(src);
                    reference.forget(src);
                }
                _ => {
                    flat.upsert_dangling(src, score, combine);
                    reference.upsert_dangling(src, score, combine);
                }
            }
        }
        prop_assert_eq!(flat_state(&flat, &local), reference_state(&reference, &local));

        // A payload whose three sorted streams share sources. A held page
        // of out-degree 0 is dangling.
        let mut payload = MeetingPayload::default();
        for (page, out_degree, score, succs) in by_key(pages, |p| p.0) {
            let mut succs = sorted(&succs);
            succs.truncate(out_degree as usize);
            payload.push_page(PageId(page), score, out_degree, succs);
        }
        for (src, degree, score, targets) in by_key(world, |w| w.0) {
            payload.push_world(PageId(src), RELAYED_DEGREE + degree, score, sorted(&targets));
        }
        payload.unlinked = sorted(&unlinked);
        payload.world_dangling = world_dangling.iter().map(|&(p, s)| (PageId(p), s)).collect();
        payload.world_score = 0.5;
        payload.cut_for = 1;
        flat.absorb_light(&payload, &local, combine);
        reference.absorb_light(&payload, &local, combine);
        prop_assert_eq!(flat_state(&flat, &local), reference_state(&reference, &local));
        prop_assert_eq!(flat.num_links(), reference.entries.values().map(|e| e.targets.len()).sum::<usize>());
        for (src, e) in &reference.entries {
            let found = flat.entry(*src).map(|f| f.targets.to_vec());
            prop_assert_eq!(found, Some(e.targets.clone()));
        }
    }
}

/// Where a world of `len` spaced sources keeps source `i`: 1000, 1002, …,
/// so a record at an odd id lands between two sources.
fn on(i: usize) -> u32 {
    1000 + 2 * i as u32
}

/// Absorb records at `srcs` (ascending) into a world of `len` spaced
/// sources that each link to local page 0, flat and per record, in both
/// combine modes, and compare. Record `j` is a relayed entry, a held page
/// or a bare id as `j % 3` is 0, 1 or 2, so the merge meets every kind.
fn merge_at(len: usize, srcs: &[u32]) {
    let local = Subgraph::from_adjacency([(PageId(0), vec![]), (PageId(1), vec![])]);
    for combine in [CombineMode::TakeMax, CombineMode::Average] {
        let (mut flat, mut reference) = (WorldNode::new(), Reference::default());
        for i in 0..len {
            let score = 0.001 * (i % 7) as f64;
            flat.upsert(PageId(on(i)), 2, score, [PageId(0)], combine);
            reference.upsert(PageId(on(i)), 2, score, [PageId(0)], combine);
        }
        let mut payload = MeetingPayload::default();
        for (j, &src) in srcs.iter().enumerate().filter(|(j, _)| j % 3 == 1) {
            payload.push_page(PageId(src), 0.002 * j as f64, 3, [PageId(1)]);
        }
        payload.unlinked = srcs.iter().skip(2).step_by(3).map(|&s| PageId(s)).collect();
        for (j, &src) in srcs.iter().enumerate().step_by(3) {
            let targets = [PageId(0), PageId(1)];
            payload.push_world(PageId(src), RELAYED_DEGREE, 0.003 * j as f64, targets);
        }
        payload.cut_for = 1;
        flat.absorb_light(&payload, &local, combine);
        reference.absorb_light(&payload, &local, combine);
        assert_eq!(
            flat_state(&flat, &local),
            reference_state(&reference, &local),
            "{len} sources, records at {srcs:?}"
        );
    }
}

#[test]
fn merge_into_an_empty_or_one_entry_world() {
    merge_at(0, &[]);
    merge_at(0, &[5]);
    merge_at(0, &[5, 6, 900, 2000]);
    merge_at(1, &[]);
    merge_at(1, &[999]);
    merge_at(1, &[on(0)]);
    merge_at(1, &[on(0) + 1]);
    merge_at(1, &[999, on(0), on(0) + 1]);
}

#[test]
fn merge_records_before_the_first_source_and_after_the_last() {
    let len = 300;
    merge_at(len, &[999]);
    merge_at(len, &[5, 999]);
    merge_at(len, &[on(0)]);
    merge_at(len, &[on(len - 1)]);
    merge_at(len, &[on(len - 1) + 1]);
    merge_at(len, &[on(len - 1) + 1, on(len - 1) + 2, 50_000]);
    merge_at(len, &[999, on(len - 1) + 1]);
}

#[test]
fn merge_records_at_consecutive_positions() {
    let len = 300;
    let sources: Vec<u32> = (0..40).map(on).collect();
    merge_at(len, &sources);
    let gaps: Vec<u32> = (0..40).map(|i| on(i) + 1).collect();
    merge_at(len, &gaps);
    // Every id from 999 on: before, on and between sources in turn.
    let every: Vec<u32> = (999..1100).collect();
    merge_at(len, &every);
    let tail: Vec<u32> = (on(len - 20)..on(len - 1) + 5).collect();
    merge_at(len, &tail);
}

#[test]
fn merge_records_at_gaps_around_powers_of_two() {
    let len = 300;
    for k in 0..8 {
        for gap in [(1usize << k) - 1, 1 << k, (1 << k) + 1] {
            if gap == 0 {
                continue;
            }
            for start in [0, 1, gap / 2] {
                let at: Vec<usize> = (start..len).step_by(gap).collect();
                let sources: Vec<u32> = at.iter().map(|&i| on(i)).collect();
                merge_at(len, &sources);
                let between: Vec<u32> = at.iter().map(|&i| on(i) + 1).collect();
                merge_at(len, &between);
            }
        }
    }
}
