//! The world node `W`.
//!
//! The world node represents every page a peer does not hold locally. Its
//! state is the set of **known in-links** from external pages into the
//! local graph: for each known external page `r` the peer stores `r`'s
//! true out-degree `out(r)`, the freshest learned authority score `α(r)`,
//! and the set of local pages `r` points to — exactly the bookkeeping the
//! paper's eq. (8) needs to weight the `W → i` transitions:
//!
//! ```text
//! p_wi = ( Σ_{r → i, r ∈ W} α(r) / out(r) ) / α_w
//! ```
//!
//! Links from external to external pages are *not* enumerated — they are
//! the world node's self-loop, whose probability `p_ww` absorbs whatever
//! the explicit `W → i` transitions do not claim (eq. 9).
//!
//! **Layout.** The known sources are sorted parallel arrays — source id,
//! out-degree, score, and an offset into one shared arena of target ids —
//! because the world node is the part of a peer that grows with every
//! meeting. Nothing is ever inserted into the middle of them: every change
//! is one merge, an ascending pass that walks the arrays beside a sorted
//! run of records. The records about one source form a page group. A
//! group that leaves its entry's presence, out-degree and targets as they
//! were — a relayed record whose targets the entry already has, a held
//! page that restates them, a bare id about a source the world node does
//! not hold — is decided by a two-pointer walk over the entry's targets
//! and writes only its combined score, in place. The first group that
//! does change structure allocates the next arrays and bulk copies the
//! entries below it; from there on the pass bulk copies the stretches
//! between such groups — in-place scores ride along — and builds the
//! next arrays, which replace the old ones at the end. So a payload that
//! changes no structure copies and allocates nothing. The next group is
//! found by galloping from the cursor, so a record costs a search of the
//! distance to the previous one, not of the whole rest. Light-weight
//! absorption ([`absorb_light`](WorldNode::absorb_light)) is one such
//! pass over a whole meeting payload; the single-record methods
//! ([`upsert`](WorldNode::upsert),
//! [`set_authoritative`](WorldNode::set_authoritative),
//! [`forget`](WorldNode::forget)) are passes over one record.

use crate::config::CombineMode;
use crate::payload::MeetingPayload;
use jxp_webgraph::{PageId, Subgraph};
use std::collections::BTreeMap;
use std::ops::Range;

/// Knowledge about one external page that links into the local graph, as
/// [`WorldNode::iter`] and [`WorldNode::entry`] read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldEntry<'a> {
    /// The page's true (global) out-degree, `out(r)`.
    pub out_degree: u32,
    /// The freshest learned JXP score of the page, `α(r)`.
    pub score: f64,
    /// Local pages this external page links to (ascending global ids).
    pub targets: &'a [PageId],
}

/// The world node: all known external in-link knowledge of one peer.
///
/// Besides the linked [`WorldEntry`]s, the world node tracks known
/// **external dangling pages** (zero out-degree). The paper leaves
/// dangling pages unspecified; this reproduction uses the standard
/// treatment (dangling rank mass redistributed uniformly over all `N`
/// pages) in the centralized ground truth, so the world node must model
/// the same flow or local scores would be systematically underestimated
/// and JXP would converge to a biased fixed point (see DESIGN.md §5).
/// Peers learn about external dangling pages at meetings exactly like
/// they learn about in-links: a met peer's local dangling pages (and its
/// own dangling knowledge) ride along in the payload.
///
/// Both kinds of knowledge are kept in ascending `PageId` order — the
/// links as sorted arrays (see the module docs), the dangling pages in a
/// `BTreeMap` (lint rule D1, no hash-ordered iteration; see DESIGN.md
/// §11) — because that order reaches float accumulation in
/// [`inflow`](WorldNode::inflow) / [`dangling_mass`](WorldNode::dangling_mass)
/// and the meeting payload / snapshot encoders, so it must be the same
/// on every run at every thread count. Sorted-by-`PageId` order is part
/// of the public contract of [`iter`](WorldNode::iter) and
/// [`dangling_iter`](WorldNode::dangling_iter).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldNode {
    links: Links,
    /// Known external dangling pages → freshest learned score.
    dangling: BTreeMap<PageId, f64>,
}

/// The linked sources as sorted parallel arrays.
#[derive(Debug, Clone, PartialEq)]
struct Links {
    /// Source pages, strictly ascending.
    srcs: Vec<PageId>,
    /// `out(r)` per source.
    degrees: Vec<u32>,
    /// `α(r)` per source.
    scores: Vec<f64>,
    /// Source `k`'s targets are `targets[offsets[k]..offsets[k + 1]]`;
    /// one longer than `srcs`. While a merge builds the arrays, the
    /// targets past the last offset belong to the source being merged.
    offsets: Vec<u32>,
    /// Every source's targets, each run ascending, back to back.
    targets: Vec<PageId>,
}

impl Default for Links {
    fn default() -> Self {
        Links::with_capacity(0, 0)
    }
}

impl Links {
    fn with_capacity(entries: usize, targets: usize) -> Self {
        let mut offsets = Vec::with_capacity(entries + 1);
        offsets.push(0);
        Links {
            srcs: Vec::with_capacity(entries),
            degrees: Vec::with_capacity(entries),
            scores: Vec::with_capacity(entries),
            offsets,
            targets: Vec::with_capacity(targets),
        }
    }

    fn range(&self, k: usize) -> Range<usize> {
        self.offsets[k] as usize..self.offsets[k + 1] as usize
    }

    fn entry(&self, k: usize) -> WorldEntry<'_> {
        WorldEntry {
            out_degree: self.degrees[k],
            score: self.scores[k],
            targets: &self.targets[self.range(k)],
        }
    }

    /// Where the targets not yet claimed by an entry start.
    fn open(&self) -> usize {
        self.offsets[self.srcs.len()] as usize
    }

    /// Close the unclaimed targets as the entry of `src`, which must lie
    /// above every source so far.
    fn close(&mut self, src: PageId, out_degree: u32, score: f64) {
        assert!(
            self.srcs.last().is_none_or(|&last| last < src),
            "world entry {src:?} out of order"
        );
        let end = self.end();
        self.srcs.push(src);
        self.degrees.push(out_degree);
        self.scores.push(score);
        self.offsets.push(end);
    }

    /// Append `from`'s entries `range` unchanged.
    fn copy(&mut self, from: &Links, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        debug_assert!(self.srcs.last() < Some(&from.srcs[range.start]));
        self.srcs.extend_from_slice(&from.srcs[range.clone()]);
        self.degrees.extend_from_slice(&from.degrees[range.clone()]);
        self.scores.extend_from_slice(&from.scores[range.clone()]);
        let (first, last) = (from.offsets[range.start], from.offsets[range.end]);
        let base = self.end();
        self.targets
            .extend_from_slice(&from.targets[first as usize..last as usize]);
        // Every shifted offset is at most the new end, so none overflows.
        self.end();
        self.offsets.extend(
            from.offsets[range.start + 1..=range.end]
                .iter()
                .map(|&o| o - first + base),
        );
    }

    /// The length of the target arena, as an offset.
    fn end(&self) -> u32 {
        u32::try_from(self.targets.len()).expect("world node holds < 2^32 links")
    }
}

/// A [`merge`](WorldNode::merge) in progress. It reads the world node's
/// arrays in order. A page group that leaves the structure — which
/// sources there are, their out-degrees and their targets — as it was
/// writes only its combined score, in place. The first group that changes
/// structure allocates the next arrays; every stretch of entries before a
/// structural group is bulk copied into them, and they replace the old
/// arrays at [`finish`](Merge::finish).
struct Merge<'w> {
    links: &'w mut Links,
    dangling: &'w mut BTreeMap<PageId, f64>,
    /// Entries and links the records may add: the next arrays' headroom.
    room: (usize, usize),
    /// The first entry of `links` no group has reached.
    k: usize,
    /// The last group's source; the next one must lie above it.
    last: Option<PageId>,
    /// The rebuilt arrays, from the first structural edit on.
    next: Option<Links>,
    /// The first entry of `links` not yet copied into `next`.
    copied: usize,
}

impl<'w> Merge<'w> {
    fn new(world: &'w mut WorldNode, room: (usize, usize)) -> Self {
        Merge {
            links: &mut world.links,
            dangling: &mut world.dangling,
            room,
            k: 0,
            last: None,
            next: None,
            copied: 0,
        }
    }

    /// Pass over source `src`: `apply` hands the [`Slot`] of the page to
    /// each record of its group in turn.
    ///
    /// # Panics
    /// Panics unless `src` lies above the previous group's source.
    fn group(&mut self, src: PageId, apply: impl FnOnce(&mut Slot<'_, 'w>)) {
        assert!(
            self.last < Some(src),
            "merge records out of order at {src:?}"
        );
        self.last = Some(src);
        let at = self.k + gallop(&self.links.srcs[self.k..], src);
        let held = self.links.srcs.get(at) == Some(&src);
        let (out_degree, score) = if held {
            (self.links.degrees[at], self.links.scores[at])
        } else {
            (0, 0.0)
        };
        let mut slot = Slot {
            merge: self,
            src,
            at,
            building: false,
            present: held,
            out_degree,
            score,
        };
        apply(&mut slot);
        let Slot {
            building,
            present,
            out_degree,
            score,
            ..
        } = slot;
        self.k = at + usize::from(held);
        if building {
            let next = self.next.as_mut().expect("a built page has next arrays");
            if present {
                next.close(src, out_degree, score);
            } else {
                next.targets.truncate(next.open());
            }
            self.copied = self.k;
        } else if held {
            self.links.scores[at] = score;
        }
    }

    /// Install the rebuilt arrays, if any group changed structure.
    fn finish(self) {
        if let Some(mut next) = self.next {
            next.copy(self.links, self.copied..self.links.srcs.len());
            *self.links = next;
        }
    }
}

/// One source page while a [`merge`](WorldNode::merge) passes over it:
/// what the world node knows about the page so far. Until a record
/// changes the page's structure, its targets are its entry's in the old
/// arrays; from then on they are the unclaimed tail of the next arrays.
pub(crate) struct Slot<'m, 'w> {
    merge: &'m mut Merge<'w>,
    src: PageId,
    /// Where the page's entry is, or would go, in the old arrays.
    at: usize,
    /// Whether the page's targets have moved to the next arrays.
    building: bool,
    present: bool,
    out_degree: u32,
    score: f64,
}

impl Slot<'_, '_> {
    fn targets(&self) -> &[PageId] {
        let m = &*self.merge;
        match &m.next {
            Some(next) if self.building => &next.targets[next.open()..],
            // Not built yet, so a present page is its old entry.
            _ if self.present => &m.links.targets[m.links.range(self.at)],
            _ => &[],
        }
    }

    fn next(&mut self) -> &mut Links {
        self.merge
            .next
            .as_mut()
            .expect("a built page has next arrays")
    }

    /// Prepare a structural edit: the next arrays hold every entry below
    /// the page, then its targets as their unclaimed tail.
    fn build(&mut self) {
        if self.building {
            return;
        }
        self.building = true;
        let m = &mut *self.merge;
        let old = &*m.links;
        let next = m.next.get_or_insert_with(|| {
            Links::with_capacity(old.srcs.len() + m.room.0, old.targets.len() + m.room.1)
        });
        next.copy(old, m.copied..self.at);
        if self.present {
            next.targets
                .extend_from_slice(&old.targets[old.range(self.at)]);
        }
    }

    fn clear_targets(&mut self) {
        let next = self.next();
        next.targets.truncate(next.open());
    }

    /// Sort and deduplicate the targets; an ascending run is left as is.
    fn normalize_targets(&mut self) {
        let next = self.next();
        let open = next.open();
        let tail = &mut next.targets[open..];
        if tail.is_sorted_by(|a, b| a < b) {
            return;
        }
        tail.sort_unstable();
        let mut kept = 0;
        for i in 0..tail.len() {
            if kept == 0 || tail[i] != tail[kept - 1] {
                tail[kept] = tail[i];
                kept += 1;
            }
        }
        next.targets.truncate(open + kept);
    }

    /// See [`WorldNode::upsert`]. A record about a present page whose
    /// degree is at most the page's, and whose targets it already has,
    /// moves only the score.
    pub(crate) fn upsert<I>(
        &mut self,
        out_degree: u32,
        score: f64,
        targets: I,
        combine: CombineMode,
    ) where
        I: IntoIterator<Item = PageId, IntoIter: Clone>,
    {
        let src = self.src;
        assert!(out_degree > 0, "external page {src:?} with zero out-degree");
        assert!(
            score.is_finite() && score >= 0.0,
            "invalid score {score} for {src:?}"
        );
        let targets = targets.into_iter();
        let in_place = !self.building
            && self.present
            && out_degree <= self.out_degree
            && covers(self.targets(), targets.clone());
        if !in_place {
            self.build();
            if !self.present {
                (self.present, self.out_degree, self.score) = (true, out_degree, score);
            }
            self.out_degree = self.out_degree.max(out_degree);
        }
        self.score = match combine {
            CombineMode::TakeMax => self.score.max(score),
            CombineMode::Average => {
                if self.targets().is_empty() {
                    // Fresh entry: no previous knowledge to average with.
                    score
                } else {
                    (self.score + score) / 2.0
                }
            }
        };
        if !in_place {
            self.next().targets.extend(targets);
            self.normalize_targets();
        }
        debug_assert!(
            self.targets().len() <= self.out_degree as usize,
            "entry {src:?} has more targets than out-degree"
        );
    }

    /// See [`WorldNode::set_authoritative`]. A record that restates a
    /// present page's degree and targets moves only the score.
    pub(crate) fn set_authoritative<I>(
        &mut self,
        out_degree: u32,
        score: f64,
        targets: I,
        combine: CombineMode,
    ) where
        I: IntoIterator<Item = PageId, IntoIter: Clone>,
    {
        let src = self.src;
        assert!(
            score.is_finite() && score >= 0.0,
            "invalid score {score} for {src:?}"
        );
        let targets = targets.into_iter();
        if out_degree == 0 {
            self.unlink();
            self.upsert_dangling(score, combine);
            return;
        }
        if targets.clone().next().is_none() {
            // The page no longer links into my fragment at all.
            self.forget();
            return;
        }
        self.merge.dangling.remove(&src);
        let same = !self.building
            && self.present
            && out_degree == self.out_degree
            && targets.clone().eq(self.targets().iter().copied());
        if !same {
            self.build();
            self.clear_targets();
            self.next().targets.extend(targets);
            self.normalize_targets();
        }
        assert!(
            self.targets().len() <= out_degree as usize,
            "more targets than out-degree for {src:?}"
        );
        self.score = match (self.present, combine) {
            (false, _) => score,
            (true, CombineMode::TakeMax) => self.score.max(score),
            (true, CombineMode::Average) => (self.score + score) / 2.0,
        };
        (self.present, self.out_degree) = (true, out_degree);
    }

    /// See [`WorldNode::forget`].
    pub(crate) fn forget(&mut self) {
        self.merge.dangling.remove(&self.src);
        self.unlink();
    }

    /// Drop the page's entry, if it has one.
    fn unlink(&mut self) {
        if self.present {
            self.build();
            self.clear_targets();
            self.present = false;
        }
    }

    /// See [`WorldNode::upsert_dangling`].
    pub(crate) fn upsert_dangling(&mut self, score: f64, combine: CombineMode) {
        upsert_dangling(self.merge.dangling, self.src, score, combine);
    }
}

/// Whether `within` (ascending) holds every id `ids` yields, a two-pointer
/// walk; ids that are not strictly ascending answer `false`.
fn covers(within: &[PageId], mut ids: impl Iterator<Item = PageId>) -> bool {
    let mut rest = within.iter();
    ids.all(|t| rest.any(|&e| e == t))
}

fn upsert_dangling(
    dangling: &mut BTreeMap<PageId, f64>,
    page: PageId,
    score: f64,
    combine: CombineMode,
) {
    assert!(
        score.is_finite() && score >= 0.0,
        "invalid score {score} for dangling {page:?}"
    );
    dangling
        .entry(page)
        .and_modify(|current| {
            *current = match combine {
                CombineMode::TakeMax => current.max(score),
                CombineMode::Average => (*current + score) / 2.0,
            }
        })
        .or_insert(score);
}

/// How many leading entries of `srcs` lie below `src`. Records are
/// dense in a world node, so the answer is usually near the front:
/// probe 1, 2, 4, … entries ahead, then binary-search the last step.
fn gallop(srcs: &[PageId], src: PageId) -> usize {
    // Every entry before `below` lies below `src`.
    let (mut below, mut step) = (0, 1);
    while below + step <= srcs.len() && srcs[below + step - 1] < src {
        below += step;
        step *= 2;
    }
    // The entry at `below + step - 1`, if any, does not.
    let end = (below + step - 1).min(srcs.len());
    below + srcs[below..end].partition_point(|&s| s < src)
}

impl WorldNode {
    /// An empty world node (a freshly initialized peer knows nothing about
    /// external in-links — paper eq. 12).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of known external source pages.
    pub fn len(&self) -> usize {
        self.links.srcs.len()
    }

    /// Whether no external in-links are known yet.
    pub fn is_empty(&self) -> bool {
        self.links.srcs.is_empty()
    }

    /// Look up the knowledge about external page `r`.
    pub fn entry(&self, r: PageId) -> Option<WorldEntry<'_>> {
        let k = self.links.srcs.binary_search(&r).ok()?;
        Some(self.links.entry(k))
    }

    /// Iterate over `(source page, entry)` in ascending `PageId` order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (PageId, WorldEntry<'_>)> {
        let links = &self.links;
        links
            .srcs
            .iter()
            .enumerate()
            .map(move |(k, &r)| (r, links.entry(k)))
    }

    /// Total number of stored `external → local` links.
    pub fn num_links(&self) -> usize {
        self.links.targets.len()
    }

    /// Apply `records` — ascending by page; several for one page apply
    /// in order — in one pass over the world node: `apply` sees each
    /// record with the [`Slot`] of its page, and every source no record
    /// names is carried over as is. A page group that leaves its entry's
    /// presence, out-degree and targets as they were only writes its
    /// combined score into the arrays; the next arrays are allocated at
    /// the first group that does change structure, so a run of records
    /// that changes none copies nothing. `room` is an upper bound on the
    /// entries and links the records add, so the next arrays are
    /// allocated once.
    ///
    /// # Panics
    /// Panics if the records are out of order.
    pub(crate) fn merge<R>(
        &mut self,
        records: impl IntoIterator<Item = (PageId, R)>,
        room: (usize, usize),
        mut apply: impl FnMut(&mut Slot<'_, '_>, R),
    ) {
        let mut merge = Merge::new(self, room);
        let mut records = records.into_iter().peekable();
        while let Some((src, record)) = records.next() {
            merge.group(src, |slot| {
                apply(slot, record);
                while let Some((_, record)) = records.next_if(|&(p, _)| p == src) {
                    apply(slot, record);
                }
            });
        }
        merge.finish();
    }

    /// The world-node half of §4.1 light-weight merging: fold in what
    /// `payload` says about pages outside `local`, in one merge pass over
    /// the arrays (see the module docs). Per page, in this order:
    ///
    /// 1. a page the sender holds is a
    ///    [`set_authoritative`](WorldNode::set_authoritative) with its
    ///    links into `local`;
    /// 2. a bare id in [`unlinked`](MeetingPayload::unlinked) is a
    ///    [`forget`](WorldNode::forget);
    /// 3. a relayed world entry is an [`upsert`](WorldNode::upsert) of its
    ///    links into `local`, skipped when it has none.
    ///
    /// The sender's dangling knowledge then goes through
    /// [`upsert_dangling`](WorldNode::upsert_dangling).
    ///
    /// The payload's page records, bare ids and world records must each be
    /// ascending, as [`MeetingPayload::validate`] insists.
    pub fn absorb_light(
        &mut self,
        payload: &MeetingPayload,
        local: &Subgraph,
        combine: CombineMode,
    ) {
        let room = (
            payload.pages.len() + payload.world.len(),
            payload.num_links(),
        );
        let keep = |t: &PageId| local.contains(*t);
        let (pages, unlinked, world) = (&payload.pages, &payload.unlinked, &payload.world);
        let mine = local.pages();
        let mut merge = Merge::new(self, room);
        // Cursors into the three record streams and into my pages. A
        // stream that has ended reads as u64::MAX, above every page.
        let key = |page: Option<PageId>| page.map_or(u64::MAX, |p| u64::from(p.0));
        let (mut h, mut u, mut r, mut l) = (0, 0, 0, 0);
        loop {
            let hk = key(pages.get(h).map(|pp| pp.id));
            let uk = key(unlinked.get(u).copied());
            let rk = key(world.get(r).map(|wp| wp.id));
            let first = hk.min(uk).min(rk);
            if first == u64::MAX {
                break;
            }
            let page = PageId(first as u32);
            let held = (hk == first).then(|| &pages[h]);
            let bare = uk == first;
            let relayed = (rk == first).then(|| &world[r]);
            h += usize::from(held.is_some());
            u += usize::from(bare);
            r += usize::from(relayed.is_some());
            // Records about a page I hold are not the world node's: a
            // merge-join against my ascending pages tells.
            l += gallop(&mine[l..], page);
            if mine.get(l) == Some(&page) {
                continue;
            }
            merge.group(page, |slot| {
                if let Some(pp) = held {
                    // The sender knows the page's complete, current
                    // out-link list, so stale links from older crawls are
                    // replaced (§5.3 dynamics).
                    let targets = payload.links_of(pp).iter().copied().filter(keep);
                    slot.set_authoritative(pp.out_degree, pp.score, targets, combine);
                }
                if bare {
                    // Had the page come as a full record, the authoritative
                    // update would have found no targets and dropped it.
                    slot.forget();
                }
                if let Some(wp) = relayed {
                    let targets = payload.links_of(wp).iter().copied().filter(keep);
                    let mut targets = targets.peekable();
                    if targets.peek().is_some() {
                        slot.upsert(wp.out_degree, wp.score, targets, combine);
                    }
                }
            });
        }
        merge.finish();
        for &(page, score) in &payload.world_dangling {
            if !local.contains(page) {
                self.upsert_dangling(page, score, combine);
            }
        }
    }

    /// Insert or refresh knowledge about external page `src`.
    ///
    /// * `out_degree` — `src`'s true out-degree (must cover its links).
    /// * `score` — the sending peer's current `α(src)`; combined with any
    ///   existing knowledge per `combine` (§4.2: the optimized variant
    ///   takes the max because scores never overestimate true PR).
    /// * `targets` — local pages `src` links to; unioned with existing.
    ///
    /// # Panics
    /// Panics if `out_degree == 0` (a page with an out-link has degree ≥ 1)
    /// or `score` is not finite and non-negative.
    pub fn upsert(
        &mut self,
        src: PageId,
        out_degree: u32,
        score: f64,
        targets: impl IntoIterator<Item = PageId>,
        combine: CombineMode,
    ) {
        let targets: Vec<PageId> = targets.into_iter().collect();
        let room = (1, targets.len());
        self.merge([(src, targets)], room, |slot, targets| {
            slot.upsert(out_degree, score, targets, combine);
        });
    }

    /// Authoritative structural update about external page `src` from a
    /// peer that holds it **locally** (and therefore knows its complete,
    /// current out-link list). Replaces any previously recorded out-degree,
    /// target set and dangling status — stale links from an older crawl of
    /// `src` are dropped, which is what keeps JXP adapting when the Web
    /// graph changes (§5.3). The *score* still combines per `combine`
    /// (freshness of authority estimates is a different matter from
    /// structural truth; see the module docs of [`crate::meeting`] for the
    /// TakeMax-under-shrinking-dynamics caveat).
    ///
    /// `targets` must be the (possibly empty) set of the *receiver's*
    /// local pages among `src`'s current successors; `out_degree` is
    /// `src`'s full current out-degree. If both are empty/zero the page is
    /// recorded as dangling.
    pub fn set_authoritative(
        &mut self,
        src: PageId,
        out_degree: u32,
        score: f64,
        targets: Vec<PageId>,
        combine: CombineMode,
    ) {
        let room = (1, targets.len());
        self.merge([(src, targets)], room, |slot, targets| {
            slot.set_authoritative(out_degree, score, targets, combine);
        });
    }

    /// Drop whatever is recorded about external page `src`: what
    /// [`set_authoritative`](WorldNode::set_authoritative) does for a
    /// page that has out-links, none of them into this fragment. A
    /// receiver-filtered payload's bare ids
    /// ([`MeetingPayload::unlinked`](crate::MeetingPayload::unlinked))
    /// land here, which is why they need neither score nor links.
    pub fn forget(&mut self, src: PageId) {
        self.merge([(src, ())], (0, 0), |slot, ()| slot.forget());
    }

    /// Record knowledge about an external **dangling** page (zero
    /// out-degree); its score combines per `combine` like any other
    /// external score.
    pub fn upsert_dangling(&mut self, page: PageId, score: f64, combine: CombineMode) {
        upsert_dangling(&mut self.dangling, page, score, combine);
    }

    /// Append an entry for `src`, which must lie above every source so
    /// far — how [`crate::snapshot::load`] rebuilds a world node it has
    /// checked.
    pub(crate) fn push(&mut self, src: PageId, out_degree: u32, score: f64, targets: &[PageId]) {
        debug_assert!(targets.is_sorted_by(|a, b| a < b));
        self.links.targets.extend_from_slice(targets);
        self.links.close(src, out_degree, score);
    }

    /// Number of known external dangling pages.
    pub fn num_dangling(&self) -> usize {
        self.dangling.len()
    }

    /// Total learned score mass of known external dangling pages. Their
    /// outflow is uniform: each local page receives `dangling_mass / N`
    /// per unit of world probability (folded into
    /// [`inflow`](WorldNode::inflow)).
    pub fn dangling_mass(&self) -> f64 {
        self.dangling.values().sum()
    }

    /// Iterate over known external dangling pages in ascending
    /// `PageId` order.
    pub fn dangling_iter(&self) -> impl Iterator<Item = (PageId, f64)> + '_ {
        self.dangling.iter().map(|(&p, &s)| (p, s))
    }

    /// Re-weight every stored score by `factor` — the paper's eq. (2)
    /// update `L(i) · PR(W) / L_M(W)` for external pages, used by the
    /// `Average` combine mode after a local PageRank run.
    pub fn scale_scores(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "bad scale factor {factor}"
        );
        for s in &mut self.links.scores {
            *s *= factor;
        }
        for s in self.dangling.values_mut() {
            *s *= factor;
        }
    }

    /// The authority mass each local page receives from the world node
    /// per unit of world-node probability — the numerators of eq. (8):
    /// `inflow[i] = Σ_{r → pages[i]} α(r) / out(r)` indexed by the dense
    /// local index of the target in `graph`, plus the uniform
    /// `dangling_mass / n_total` share every page receives from known
    /// external dangling pages. Targets not (or no longer) local are
    /// skipped.
    pub fn inflow(&self, graph: &Subgraph, n_total: f64) -> Vec<f64> {
        let dangling_share = self.dangling_mass() / n_total;
        let mut inflow = vec![dangling_share; graph.num_pages()];
        let links = &self.links;
        for (k, bounds) in links.offsets.windows(2).enumerate() {
            let per_link = links.scores[k] / links.degrees[k] as f64;
            for &t in &links.targets[bounds[0] as usize..bounds[1] as usize] {
                if let Some(i) = graph.local_index(t) {
                    inflow[i] += per_link;
                }
            }
        }
        inflow
    }

    /// Drop entries whose source became a local page (used after full
    /// merges: `T_M = (T_A ∪ T_B) − E_M`), and restrict targets to pages
    /// that are still local; entries left without targets are removed.
    /// Dangling knowledge about now-local pages is dropped likewise.
    pub fn retain_relevant(&mut self, graph: &Subgraph) {
        let old = std::mem::take(&mut self.links);
        let mut next = Links::with_capacity(old.srcs.len(), old.targets.len());
        for (k, &src) in old.srcs.iter().enumerate() {
            if graph.contains(src) {
                continue;
            }
            let kept = old.targets[old.range(k)]
                .iter()
                .filter(|&&t| graph.contains(t));
            next.targets.extend(kept);
            if next.targets.len() > next.open() {
                next.close(src, old.degrees[k], old.scores[k]);
            }
        }
        self.links = next;
        self.dangling.retain(|&p, _| !graph.contains(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_webgraph::{GraphBuilder, PageId};

    fn local_graph() -> Subgraph {
        // Global: 0→1, 1→0; local fragment = {0, 1}.
        let mut b = GraphBuilder::new();
        b.add_edge(PageId(0), PageId(1));
        b.add_edge(PageId(1), PageId(0));
        let g = b.build();
        Subgraph::from_pages(&g, [PageId(0), PageId(1)])
    }

    #[test]
    fn upsert_inserts_and_unions_targets() {
        let mut w = WorldNode::new();
        w.upsert(PageId(5), 3, 0.1, [PageId(0)], CombineMode::TakeMax);
        w.upsert(
            PageId(5),
            3,
            0.1,
            [PageId(1), PageId(0)],
            CombineMode::TakeMax,
        );
        assert_eq!(w.len(), 1);
        let e = w.entry(PageId(5)).unwrap();
        assert_eq!(e.targets, vec![PageId(0), PageId(1)]);
        assert_eq!(w.num_links(), 2);
    }

    #[test]
    fn take_max_keeps_bigger_score() {
        let mut w = WorldNode::new();
        w.upsert(PageId(5), 2, 0.10, [PageId(0)], CombineMode::TakeMax);
        w.upsert(PageId(5), 2, 0.05, [PageId(0)], CombineMode::TakeMax);
        assert_eq!(w.entry(PageId(5)).unwrap().score, 0.10);
        w.upsert(PageId(5), 2, 0.20, [PageId(0)], CombineMode::TakeMax);
        assert_eq!(w.entry(PageId(5)).unwrap().score, 0.20);
    }

    #[test]
    fn average_mode_averages_scores() {
        let mut w = WorldNode::new();
        w.upsert(PageId(5), 2, 0.10, [PageId(0)], CombineMode::Average);
        w.upsert(PageId(5), 2, 0.30, [PageId(0)], CombineMode::Average);
        assert!((w.entry(PageId(5)).unwrap().score - 0.20).abs() < 1e-12);
    }

    #[test]
    fn inflow_weights_by_score_over_outdegree() {
        let g = local_graph();
        let mut w = WorldNode::new();
        // Page 7: α = 0.2, out-degree 4, links to local 0 and 1.
        w.upsert(
            PageId(7),
            4,
            0.2,
            [PageId(0), PageId(1)],
            CombineMode::TakeMax,
        );
        // Page 9: α = 0.1, out-degree 2, links to local 1.
        w.upsert(PageId(9), 2, 0.1, [PageId(1)], CombineMode::TakeMax);
        let inflow = w.inflow(&g, 100.0);
        assert!((inflow[0] - 0.05).abs() < 1e-12); // 0.2/4
        assert!((inflow[1] - (0.05 + 0.05)).abs() < 1e-12); // 0.2/4 + 0.1/2
    }

    #[test]
    fn inflow_skips_non_local_targets() {
        let g = local_graph();
        let mut w = WorldNode::new();
        w.upsert(
            PageId(7),
            2,
            0.2,
            [PageId(0), PageId(42)],
            CombineMode::TakeMax,
        );
        let inflow = w.inflow(&g, 100.0);
        assert!((inflow[0] - 0.1).abs() < 1e-12);
        assert_eq!(inflow.len(), 2);
    }

    #[test]
    fn retain_relevant_prunes_local_sources_and_dead_targets() {
        let g = local_graph();
        let mut w = WorldNode::new();
        w.upsert(PageId(0), 2, 0.2, [PageId(1)], CombineMode::TakeMax); // now local
        w.upsert(PageId(7), 2, 0.1, [PageId(42)], CombineMode::TakeMax); // dead target
        w.upsert(
            PageId(8),
            2,
            0.1,
            [PageId(0), PageId(42)],
            CombineMode::TakeMax,
        );
        w.retain_relevant(&g);
        assert_eq!(w.len(), 1);
        assert_eq!(w.entry(PageId(8)).unwrap().targets, vec![PageId(0)]);
    }

    #[test]
    fn scale_scores() {
        let mut w = WorldNode::new();
        w.upsert(PageId(7), 2, 0.2, [PageId(0)], CombineMode::TakeMax);
        w.scale_scores(0.5);
        assert!((w.entry(PageId(7)).unwrap().score - 0.1).abs() < 1e-12);
    }

    #[test]
    fn set_authoritative_replaces_stale_links() {
        let mut w = WorldNode::new();
        w.upsert(
            PageId(7),
            5,
            0.1,
            [PageId(0), PageId(1)],
            CombineMode::TakeMax,
        );
        // Fresh crawl of page 7: it now has 2 out-links, only one into me.
        w.set_authoritative(PageId(7), 2, 0.05, vec![PageId(1)], CombineMode::TakeMax);
        let e = w.entry(PageId(7)).unwrap();
        assert_eq!(e.out_degree, 2);
        assert_eq!(e.targets, vec![PageId(1)]);
        // Score still combines (TakeMax keeps the bigger one).
        assert_eq!(e.score, 0.1);
    }

    #[test]
    fn set_authoritative_handles_dangling_transitions() {
        let mut w = WorldNode::new();
        // Page 7 links to me …
        w.set_authoritative(PageId(7), 1, 0.1, vec![PageId(0)], CombineMode::TakeMax);
        assert_eq!(w.len(), 1);
        assert_eq!(w.num_dangling(), 0);
        // … then loses all its out-links (becomes dangling) …
        w.set_authoritative(PageId(7), 0, 0.1, vec![], CombineMode::TakeMax);
        assert_eq!(w.len(), 0);
        assert_eq!(w.num_dangling(), 1);
        // … then gains links again, none into me.
        w.set_authoritative(PageId(7), 3, 0.1, vec![], CombineMode::TakeMax);
        assert_eq!(w.len(), 0);
        assert_eq!(w.num_dangling(), 0);
    }

    #[test]
    fn dangling_mass_feeds_uniform_inflow() {
        let g = local_graph();
        let mut w = WorldNode::new();
        w.upsert_dangling(PageId(9), 0.3, CombineMode::TakeMax);
        let inflow = w.inflow(&g, 10.0);
        // Each local page gets dangling_mass / N = 0.03.
        assert!((inflow[0] - 0.03).abs() < 1e-12);
        assert!((inflow[1] - 0.03).abs() < 1e-12);
        assert!((w.dangling_mass() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn dangling_scores_combine_per_mode() {
        let mut w = WorldNode::new();
        w.upsert_dangling(PageId(9), 0.2, CombineMode::TakeMax);
        w.upsert_dangling(PageId(9), 0.1, CombineMode::TakeMax);
        assert_eq!(w.dangling_iter().next().unwrap().1, 0.2);
        let mut w2 = WorldNode::new();
        w2.upsert_dangling(PageId(9), 0.2, CombineMode::Average);
        w2.upsert_dangling(PageId(9), 0.1, CombineMode::Average);
        assert!((w2.dangling_iter().next().unwrap().1 - 0.15).abs() < 1e-12);
    }

    #[test]
    fn iteration_order_is_ascending_regardless_of_insertion_order() {
        // Regression test for the determinism contract: however entries
        // arrive (meetings happen in arbitrary order), iter() and
        // dangling_iter() must yield ascending PageIds so payload
        // assembly, snapshots, and inflow accumulation are replayable.
        let mut w = WorldNode::new();
        for src in [97u32, 3, 55, 12, 88, 1, 42] {
            w.upsert(PageId(src), 2, 0.1, [PageId(0)], CombineMode::TakeMax);
        }
        for p in [66u32, 5, 31] {
            w.upsert_dangling(PageId(p), 0.1, CombineMode::TakeMax);
        }
        let order: Vec<PageId> = w.iter().map(|(s, _)| s).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert_eq!(order.len(), 7);
        let d_order: Vec<PageId> = w.dangling_iter().map(|(p, _)| p).collect();
        let mut d_sorted = d_order.clone();
        d_sorted.sort_unstable();
        assert_eq!(d_order, d_sorted);
    }

    #[test]
    fn inflow_is_bitwise_stable_across_insertion_orders() {
        // Float accumulation order must not depend on how knowledge was
        // learned: two peers that learned the same facts in different
        // meeting orders must compute bit-identical inflow vectors.
        let g = local_graph();
        let facts: Vec<(u32, u32, f64)> =
            vec![(7, 4, 0.2), (9, 2, 0.1), (13, 8, 0.05), (21, 3, 0.07)];
        let mut forward = WorldNode::new();
        for &(src, deg, score) in &facts {
            forward.upsert(
                PageId(src),
                deg,
                score,
                [PageId(0), PageId(1)],
                CombineMode::TakeMax,
            );
        }
        let mut reverse = WorldNode::new();
        for &(src, deg, score) in facts.iter().rev() {
            reverse.upsert(
                PageId(src),
                deg,
                score,
                [PageId(0), PageId(1)],
                CombineMode::TakeMax,
            );
        }
        let a = forward.inflow(&g, 100.0);
        let b = reverse.inflow(&g, 100.0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "inflow differs bitwise");
        }
    }

    #[test]
    #[should_panic(expected = "zero out-degree")]
    fn zero_out_degree_rejected() {
        let mut w = WorldNode::new();
        w.upsert(PageId(7), 0, 0.2, [PageId(0)], CombineMode::TakeMax);
    }

    #[test]
    #[should_panic(expected = "invalid score")]
    fn nan_score_rejected() {
        let mut w = WorldNode::new();
        w.upsert(PageId(7), 1, f64::NAN, [PageId(0)], CombineMode::TakeMax);
    }
}
