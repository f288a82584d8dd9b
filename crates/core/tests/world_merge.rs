//! The world node's one-pass merge against the per-record model it
//! replaced: a `BTreeMap` of entries that each own a `Vec` of targets,
//! updated one record at a time with a map probe per record and a binary
//! search plus insert per target. On random worlds and random payloads —
//! pages, bare ids and relayed entries that share a source, dangling ↔
//! linked transitions, relayed records about sources the world holds
//! with the same targets, fewer or one more, both combine modes — the two
//! must agree on every entry, every dangling page and every bit of
//! `inflow`. Deterministic cases pin the edges of the merge's galloping
//! search: records before the first source and after the last, at
//! consecutive positions and at gaps of 2^k − 1, 2^k and 2^k + 1
//! entries, into empty and 1-entry worlds. Others pin the in-place path,
//! where a record that leaves its entry's degree, targets and presence
//! as they were only moves the score, and its fall-through to a rebuild.

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
        linked in vec((0..IDS, 0..4u32, 0.0..0.2f64, vec(0..IDS as usize, 1..4)), 0..8),
        pages in vec((0..IDS, 0..4u32, 0.0..0.2f64, vec(0..IDS, 0..4)), 0..12),
        unlinked in vec(0..IDS, 0..6),
        world in vec((0..IDS, 0..6u32, 0.0..0.2f64, vec(0..IDS, 0..5)), 0..12),
        known in vec((0..64usize, 0u8..3, 0..3u32, 0.0..0.2f64, 0..IDS), 0..12),
        restated in vec((0..64usize, 0..3u32, 0.0..0.2f64), 0..4),
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
        // External sources that link into the fragment, so relayed
        // records about them have local targets.
        for (src, degree, score, picks) in linked {
            let src = PageId(src);
            if local.contains(src) {
                continue;
            }
            let targets: Vec<PageId> = picks.iter().map(|&i| local.page_at(i % local.num_pages())).collect();
            let degree = RELAYED_DEGREE + degree;
            flat.upsert(src, degree, score, targets.clone(), combine);
            reference.upsert(src, degree, score, targets, combine);
        }
        prop_assert_eq!(flat_state(&flat, &local), reference_state(&reference, &local));

        // The world's external entries that link into the fragment, for
        // records about sources it holds.
        let entries: Vec<(u32, u32, Vec<u32>)> = flat
            .iter()
            .filter(|&(src, e)| !local.contains(src) && e.targets.iter().any(|&t| local.contains(t)))
            .map(|(src, e)| (src.0, e.out_degree, e.targets.iter().map(|t| t.0).collect()))
            .collect();
        let entry = |k: usize| (!entries.is_empty()).then(|| &entries[k % entries.len()]);

        // A payload whose three sorted streams share sources. A held page
        // of out-degree 0 is dangling. Some held pages restate an entry's
        // targets, at a degree one below, at or one above the entry's.
        let restated = restated.iter().filter_map(|&(k, shift, score)| {
            let (src, degree, targets) = entry(k)?;
            let degree = (degree + shift).saturating_sub(1).max(targets.len() as u32);
            Some((*src, degree, score, targets.clone()))
        });
        let pages = restated.chain(pages).collect();
        let mut payload = MeetingPayload::default();
        for (page, out_degree, score, succs) in by_key(pages, |p| p.0) {
            let mut succs = sorted(&succs);
            succs.truncate(out_degree as usize);
            payload.push_page(PageId(page), score, out_degree, succs);
        }
        // About half the relayed records name a source the world holds:
        // the entry's targets, every other one of them, or one more, at a
        // degree one below, at or one above the entry's. One more target
        // comes at a relayed degree, so the union stays within it.
        let known = known.iter().filter_map(|&(k, kind, shift, score, extra)| {
            let (src, degree, targets) = entry(k)?;
            Some(match kind {
                0 => (*src, (degree + shift).saturating_sub(1).max(1), score, targets.clone()),
                1 => {
                    let fewer = targets.iter().copied().step_by(2).collect();
                    (*src, (degree + shift).saturating_sub(1).max(1), score, fewer)
                }
                _ => {
                    let more = targets.iter().copied().chain([extra]).collect();
                    (*src, RELAYED_DEGREE + shift, score, more)
                }
            })
        });
        let relayed = world
            .into_iter()
            .map(|(src, degree, score, targets)| (src, RELAYED_DEGREE + degree, score, targets));
        for (src, degree, score, targets) in by_key(known.chain(relayed).collect(), |w| w.0) {
            payload.push_world(PageId(src), degree, score, sorted(&targets));
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

/// Local pages 0..4; a world of `len` spaced sources, source `i` of
/// out-degree 3 linking to local pages 0 and 2 at score 0.01 · (i + 1).
fn linked_world(len: usize, combine: CombineMode) -> (Subgraph, WorldNode, Reference) {
    let local = Subgraph::from_adjacency((0..4).map(|p| (PageId(p), vec![])));
    let (mut flat, mut reference) = (WorldNode::new(), Reference::default());
    for i in 0..len {
        let (src, score) = (PageId(on(i)), entry_score(i));
        let targets = vec![PageId(0), PageId(2)];
        flat.set_authoritative(src, 3, score, targets.clone(), combine);
        reference.set_authoritative(src, 3, score, targets, combine);
    }
    (local, flat, reference)
}

fn entry_score(i: usize) -> f64 {
    0.01 * (i + 1) as f64
}

/// Absorb the payload `build` makes into a `linked_world` of `len`
/// sources, flat and per record, in both combine modes, and compare.
/// Returns the flat worlds' entries before and after, per mode.
fn absorb_into_linked(len: usize, build: impl Fn(&mut MeetingPayload)) -> Vec<(Entries, Entries)> {
    let mut seen = Vec::new();
    for combine in [CombineMode::TakeMax, CombineMode::Average] {
        let (local, mut flat, mut reference) = linked_world(len, combine);
        let before = flat_state(&flat, &local).0;
        let mut payload = MeetingPayload::default();
        build(&mut payload);
        payload.cut_for = 1;
        flat.absorb_light(&payload, &local, combine);
        reference.absorb_light(&payload, &local, combine);
        let after = flat_state(&flat, &local);
        assert_eq!(after, reference_state(&reference, &local), "{combine:?}");
        let links: usize = reference.entries.values().map(|e| e.targets.len()).sum();
        assert_eq!(flat.num_links(), links, "{combine:?}");
        seen.push((before, after.0));
    }
    seen
}

/// A relayed record about source `on(1)` of a 3-source world.
fn relay_to_second(degree: u32, score: f64, targets: &[u32]) -> Vec<(Entries, Entries)> {
    absorb_into_linked(3, |p| {
        p.push_world(PageId(on(1)), degree, score, ids(targets))
    })
}

#[test]
fn relayed_records_the_entry_covers_move_only_the_score() {
    let entry = entry_score(1);
    // The entry's own targets, a strict subset, and both with a target
    // that is not local (filtered out before the merge sees it).
    for targets in [&[0, 2][..], &[2], &[0], &[0, 2, 50], &[2, 60]] {
        for score in [entry / 2.0, entry, entry * 2.0] {
            for degree in [2, 3] {
                for (before, after) in relay_to_second(degree, score, targets) {
                    let (src, e) = (&after[1].0, &after[1].3);
                    assert_eq!((src, e), (&before[1].0, &before[1].3), "{targets:?}");
                    assert_eq!(after[1].1, 3, "{targets:?} at degree {degree}");
                }
            }
        }
    }
}

#[test]
fn relayed_records_above_the_entrys_degree_or_with_a_new_target_rebuild() {
    let entry = entry_score(1);
    for score in [entry / 2.0, entry, entry * 2.0] {
        // Above the entry's degree, with its targets or a subset.
        for targets in [&[0, 2][..], &[2]] {
            for (_, after) in relay_to_second(4, score, targets) {
                assert_eq!(after[1].1, 4);
            }
        }
        // A target the entry lacks, alone or beside known ones.
        for targets in [&[1][..], &[0, 1], &[0, 1, 2], &[3]] {
            for (_, after) in relay_to_second(3, score, targets) {
                assert_eq!(after[1].3.len(), 3, "{targets:?}");
            }
        }
    }
}

#[test]
fn a_held_page_a_bare_id_and_a_relayed_record_on_one_source() {
    // On a source the world holds and on one it does not.
    for src in [on(1), on(1) + 1] {
        // The held page restates the entry; a covered relayed record.
        absorb_into_linked(3, |p| {
            p.push_page(PageId(src), 0.05, 3, ids(&[0, 2]));
            p.push_world(PageId(src), 3, 0.07, ids(&[2]));
        });
        // The held page restates the entry, the bare id drops it and the
        // relayed record brings it back.
        absorb_into_linked(3, |p| {
            p.push_page(PageId(src), 0.05, 3, ids(&[0, 2]));
            p.unlinked = vec![PageId(src)];
            p.push_world(PageId(src), RELAYED_DEGREE, 0.07, ids(&[0]));
        });
        // The held page links nowhere local, the bare id finds nothing
        // left, and the relayed record links nowhere local either.
        absorb_into_linked(3, |p| {
            p.push_page(PageId(src), 0.05, 3, ids(&[40, 41]));
            p.unlinked = vec![PageId(src)];
            p.push_world(PageId(src), 3, 0.07, ids(&[50]));
        });
        // The held page restates the targets at another degree, or the
        // degree with other targets.
        for degree in [2, 4] {
            absorb_into_linked(3, |p| p.push_page(PageId(src), 0.05, degree, ids(&[0, 2])));
        }
        for succs in [&[0][..], &[0, 1], &[1, 2], &[0, 2, 40]] {
            absorb_into_linked(3, |p| p.push_page(PageId(src), 0.05, 3, ids(succs)));
        }
        // A dangling held page, then a relayed record.
        absorb_into_linked(3, |p| {
            p.push_page(PageId(src), 0.05, 0, ids(&[]));
            p.push_world(PageId(src), 3, 0.07, ids(&[0, 2]));
        });
    }
}

#[test]
fn a_payload_that_changes_nothing_leaves_the_world_as_it_was() {
    let len = 50;
    let seen = absorb_into_linked(len, |p| {
        // Held pages that restate entries, at their scores, and held
        // pages and bare ids about sources the world does not hold whose
        // links are not local.
        for i in (0..len).step_by(5) {
            p.push_page(PageId(on(i)), entry_score(i), 3, ids(&[0, 2]));
            p.push_page(PageId(on(i) + 1), 0.02, 2, ids(&[30, 31]));
        }
        p.unlinked = (0..len).step_by(7).map(|i| PageId(on(i) + 1)).collect();
        // Relayed records covered by every entry, at its score, and ones
        // that link nowhere local.
        for i in 0..len {
            let targets = if i % 2 == 0 { &[0, 2][..] } else { &[2] };
            p.push_world(
                PageId(on(i)),
                3 - (i % 2) as u32,
                entry_score(i),
                ids(targets),
            );
            p.push_world(PageId(on(i) + 1), 3, 0.03, ids(&[40]));
        }
    });
    for (before, after) in seen {
        assert_eq!(before, after);
    }
}

#[test]
fn structural_edits_only_at_the_first_or_only_at_the_last_source() {
    let len = 300;
    for edited in [0, len - 1] {
        // Every source gets a covered relayed record; the edited one
        // gains a target, loses its entry, or changes its degree.
        for edit in 0..3 {
            absorb_into_linked(len, |p| {
                let mut unlinked = Vec::new();
                for i in 0..len {
                    let (src, score) = (PageId(on(i)), 0.5 * entry_score(i));
                    match (i == edited, edit) {
                        (true, 0) => p.push_world(src, 4, score, ids(&[0, 1])),
                        (true, 1) => unlinked.push(src),
                        (true, _) => p.push_world(src, 5, score, ids(&[2])),
                        (false, _) => p.push_world(src, 3, score, ids(&[0])),
                    }
                }
                p.unlinked = unlinked;
            });
        }
    }
}
