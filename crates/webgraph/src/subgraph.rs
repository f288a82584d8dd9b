//! Peer-local graph fragments.
//!
//! In JXP every peer holds a *fragment* of the global Web graph. A fragment
//! knows, for each local page, **all** of that page's out-links (a crawler
//! always sees the links embedded in a fetched page), including links whose
//! targets were never crawled. Targets outside the fragment are exactly the
//! links that the JXP world node absorbs.
//!
//! [`Subgraph`] therefore stores, per local page, the *full* successor list
//! in global ids, plus the set of local pages, and offers the
//! local-vs-external split that `jxp-core` needs.

use crate::csr::CsrGraph;
use crate::hash::FxHashMap;
use crate::id::PageId;
use crate::source::GraphSource;

/// A peer's local fragment of the global graph.
///
/// Pages are identified by their **global** [`PageId`]s. For every local
/// page the fragment records the complete out-link list of that page in the
/// global graph (a crawler sees all links of a fetched page), so
/// `out_degree` here equals the *true global* out-degree — the quantity
/// `out(p)` in the paper's equations.
#[derive(Debug, Clone, Default)]
pub struct Subgraph {
    /// Local pages in sorted order.
    pages: Vec<PageId>,
    /// Position of each local page in `pages`.
    index: FxHashMap<PageId, u32>,
    /// `succ_off[i]..succ_off[i+1]` indexes `succ` with the successors of
    /// `pages[i]` (global ids, sorted; may include non-local targets).
    succ_off: Vec<u32>,
    succ: Vec<PageId>,
}

impl Subgraph {
    /// Extract the fragment of `global` induced by `pages` (keeping all
    /// out-links, including those leaving the fragment).
    pub fn from_pages(global: &CsrGraph, pages: impl IntoIterator<Item = PageId>) -> Self {
        Subgraph::from_source(global, pages)
    }

    /// [`from_pages`](Subgraph::from_pages), but over any
    /// [`GraphSource`] — in particular a disk-backed `SegmentedGraph`,
    /// so a peer's fragment can be cut out of a graph that never fits
    /// in memory. Successor lists come out identical to the in-memory
    /// path (the trait's ordering contract), so everything built on the
    /// fragment stays bit-identical.
    pub fn from_source<G: GraphSource + ?Sized>(
        global: &G,
        pages: impl IntoIterator<Item = PageId>,
    ) -> Self {
        let mut pages: Vec<PageId> = pages.into_iter().collect();
        pages.sort_unstable();
        pages.dedup();
        let mut index = FxHashMap::default();
        for (i, &p) in pages.iter().enumerate() {
            index.insert(p, i as u32);
        }
        let mut succ_off = Vec::with_capacity(pages.len() + 1);
        succ_off.push(0u32);
        let mut succ = Vec::new();
        for &p in &pages {
            global.for_each_successor(p, |u| succ.push(u));
            succ_off.push(succ.len() as u32);
        }
        Subgraph {
            pages,
            index,
            succ_off,
            succ,
        }
    }

    /// Build directly from explicit adjacency: an iterator of
    /// `(page, successors)` pairs. Successor lists may reference non-local
    /// pages and will be sorted and deduplicated.
    pub fn from_adjacency(adj: impl IntoIterator<Item = (PageId, Vec<PageId>)>) -> Self {
        let mut entries: Vec<(PageId, Vec<PageId>)> = adj.into_iter().collect();
        entries.sort_unstable_by_key(|e| e.0);
        entries.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1.append(&mut a.1);
                true
            } else {
                false
            }
        });
        let mut pages = Vec::with_capacity(entries.len());
        let mut index = FxHashMap::default();
        let mut succ_off = vec![0u32];
        let mut succ = Vec::new();
        for (i, (p, mut s)) in entries.into_iter().enumerate() {
            s.sort_unstable();
            s.dedup();
            pages.push(p);
            index.insert(p, i as u32);
            succ.extend(s);
            succ_off.push(succ.len() as u32);
        }
        Subgraph {
            pages,
            index,
            succ_off,
            succ,
        }
    }

    /// Number of local pages (the paper's `n`).
    #[inline]
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// The local pages, sorted by global id.
    #[inline]
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Whether `p` is a local page of this fragment.
    #[inline]
    pub fn contains(&self, p: PageId) -> bool {
        self.index.contains_key(&p)
    }

    /// The dense local index of `p` (0..n), if local.
    #[inline]
    pub fn local_index(&self, p: PageId) -> Option<usize> {
        self.index.get(&p).map(|&i| i as usize)
    }

    /// The page at dense local index `i`.
    #[inline]
    pub fn page_at(&self, i: usize) -> PageId {
        self.pages[i]
    }

    /// Full successor list (global ids) of the local page with dense index
    /// `i` — includes targets outside the fragment.
    #[inline]
    pub fn successors_at(&self, i: usize) -> &[PageId] {
        &self.succ[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Full successor list of a local page, by global id.
    pub fn successors(&self, p: PageId) -> Option<&[PageId]> {
        self.local_index(p).map(|i| self.successors_at(i))
    }

    /// The true global out-degree of the local page at dense index `i`.
    #[inline]
    pub fn out_degree_at(&self, i: usize) -> usize {
        (self.succ_off[i + 1] - self.succ_off[i]) as usize
    }

    /// Total number of recorded out-links (local + leaving).
    pub fn num_links(&self) -> usize {
        self.succ.len()
    }

    /// Set of all successors of all local pages (the paper's
    /// `successors(A)` synopsis input), deduplicated. Returned as a
    /// `BTreeSet` so consumers iterate in a deterministic (sorted)
    /// order regardless of insertion history.
    pub fn successor_set(&self) -> std::collections::BTreeSet<PageId> {
        self.succ.iter().copied().collect()
    }

    /// Iterate over `(src, dst)` for every recorded out-link.
    pub fn links(&self) -> impl Iterator<Item = (PageId, PageId)> + '_ {
        (0..self.num_pages()).flat_map(move |i| {
            let src = self.pages[i];
            self.successors_at(i).iter().map(move |&d| (src, d))
        })
    }

    /// Merge two fragments into their union (used by the *full* merging
    /// baseline, Algorithm 2): pages `V_M = V_A ∪ V_B`, links
    /// `E_M = E_A ∪ E_B`.
    pub fn union(&self, other: &Subgraph) -> Subgraph {
        let mut adj: FxHashMap<PageId, Vec<PageId>> = FxHashMap::default();
        for (i, &p) in self.pages.iter().enumerate() {
            adj.entry(p).or_default().extend(self.successors_at(i));
        }
        for (i, &p) in other.pages.iter().enumerate() {
            adj.entry(p).or_default().extend(other.successors_at(i));
        }
        Subgraph::from_adjacency(adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn global() -> CsrGraph {
        // 0→1, 1→2, 2→0, 2→3, 3→4, 4→0
        let mut b = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)] {
            b.add_edge(PageId(s), PageId(d));
        }
        b.build()
    }

    #[test]
    fn from_pages_keeps_external_links() {
        let g = global();
        let f = Subgraph::from_pages(&g, [PageId(1), PageId(2)]);
        assert_eq!(f.num_pages(), 2);
        // Page 2 has links to 0 (external) and 3 (external): both kept.
        assert_eq!(f.successors(PageId(2)).unwrap(), &[PageId(0), PageId(3)]);
        // True out-degree preserved.
        assert_eq!(f.out_degree_at(f.local_index(PageId(2)).unwrap()), 2);
    }

    #[test]
    fn contains_and_local_index() {
        let g = global();
        let f = Subgraph::from_pages(&g, [PageId(4), PageId(0)]);
        assert!(f.contains(PageId(0)));
        assert!(!f.contains(PageId(2)));
        // Sorted: page 0 has local index 0, page 4 index 1.
        assert_eq!(f.local_index(PageId(0)), Some(0));
        assert_eq!(f.local_index(PageId(4)), Some(1));
        assert_eq!(f.page_at(1), PageId(4));
    }

    #[test]
    fn duplicate_pages_are_deduplicated() {
        let g = global();
        let f = Subgraph::from_pages(&g, [PageId(1), PageId(1), PageId(1)]);
        assert_eq!(f.num_pages(), 1);
    }

    #[test]
    fn union_merges_overlapping_fragments() {
        let g = global();
        let a = Subgraph::from_pages(&g, [PageId(0), PageId(1)]);
        let b = Subgraph::from_pages(&g, [PageId(1), PageId(2)]);
        let u = a.union(&b);
        assert_eq!(u.pages(), &[PageId(0), PageId(1), PageId(2)]);
        assert_eq!(u.successors(PageId(1)).unwrap(), &[PageId(2)]);
        // Union must not duplicate page 1's links.
        assert_eq!(u.num_links(), 4); // 0→1, 1→2, 2→0, 2→3
    }

    #[test]
    fn successor_set_dedups() {
        let g = global();
        let f = Subgraph::from_pages(&g, [PageId(2), PageId(4)]);
        let s = f.successor_set();
        // succ(2) = {0,3}, succ(4) = {0} → {0,3}
        assert_eq!(s.len(), 2);
        assert!(s.contains(&PageId(0)) && s.contains(&PageId(3)));
    }

    #[test]
    fn from_adjacency_merges_duplicate_entries() {
        let f = Subgraph::from_adjacency([
            (PageId(5), vec![PageId(1), PageId(2)]),
            (PageId(5), vec![PageId(2), PageId(3)]),
        ]);
        assert_eq!(f.num_pages(), 1);
        assert_eq!(
            f.successors(PageId(5)).unwrap(),
            &[PageId(1), PageId(2), PageId(3)]
        );
    }
}
