//! Property-based tests over the whole stack: random graphs, random
//! partitions, random meeting schedules — the invariants must always hold.

use jxp::core::invariants::{check_mass_conservation, check_safety_bound};
use jxp::core::{meeting, CombineMode, JxpConfig, JxpPeer, MergeMode};
use jxp::pagerank::{metrics, pagerank, PageRankConfig, Ranking};
use jxp::synopses::mips::{MipsPermutations, MipsVector};
use jxp::webgraph::{io, GraphBuilder, PageId, Subgraph};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy: a random directed graph as an edge list over `n` nodes.
fn arb_graph(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..=max_nodes).prop_flat_map(move |n| (Just(n), vec((0..n, 0..n), 1..=max_edges)))
}

fn build(n: u32, edges: &[(u32, u32)]) -> jxp::webgraph::CsrGraph {
    let mut b = GraphBuilder::new();
    b.ensure_nodes(n as usize);
    for &(s, d) in edges {
        b.add_edge(PageId(s), PageId(d));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pagerank_is_a_probability_distribution((n, edges) in arb_graph(40, 120)) {
        let g = build(n, &edges);
        let pr = pagerank(&g, &PageRankConfig::default());
        let total: f64 = pr.scores().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-8, "sum {total}");
        prop_assert!(pr.scores().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn csr_degrees_are_consistent((n, edges) in arb_graph(40, 120)) {
        let g = build(n, &edges);
        let out: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        let inn: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out, g.num_edges());
        prop_assert_eq!(inn, g.num_edges());
        // Every listed successor relation is mirrored in predecessors.
        for v in g.nodes() {
            for u in g.successors(v) {
                prop_assert!(g.predecessors(u).any(|w| w == v));
            }
        }
    }

    #[test]
    fn graph_io_round_trips((n, edges) in arb_graph(40, 120)) {
        let g = build(n, &edges);
        let mut text = Vec::new();
        io::write_edge_list(&g, &mut text).unwrap();
        let g2 = io::read_edge_list(&mut &text[..]).unwrap();
        prop_assert_eq!(&g, &g2);
    }

    #[test]
    fn jxp_invariants_hold_on_random_worlds(
        (n, edges) in arb_graph(24, 80),
        owners in vec(0..3usize, 24),
        schedule in vec((0..3usize, 0..3usize), 10..30),
    ) {
        let g = build(n, &edges);
        let truth = pagerank(&g, &PageRankConfig::default()).into_scores();
        // Partition pages over 3 peers (ensuring non-empty fragments).
        let mut pages: Vec<Vec<PageId>> = vec![Vec::new(); 3];
        for p in 0..n {
            pages[owners[p as usize % owners.len()] % 3].push(PageId(p));
        }
        for (i, ps) in pages.iter_mut().enumerate() {
            if ps.is_empty() {
                ps.push(PageId(i as u32 % n));
            }
        }
        let cfg = JxpConfig::optimized();
        let mut peers: Vec<JxpPeer> = pages
            .into_iter()
            .map(|ps| JxpPeer::new(Subgraph::from_pages(&g, ps), n as u64, cfg.clone()))
            .collect();
        for &(i, j) in &schedule {
            if i == j {
                continue;
            }
            let (lo, hi) = (i.min(j), i.max(j));
            let (l, r) = peers.split_at_mut(hi);
            meeting::meet(&mut l[lo], &mut r[0]);
        }
        for p in &peers {
            prop_assert!(check_mass_conservation(p).is_ok(), "{:?}", check_mass_conservation(p));
            prop_assert!(check_safety_bound(p, &truth, 1e-6).is_ok(), "{:?}", check_safety_bound(p, &truth, 1e-6));
        }
    }

    #[test]
    fn full_merge_respects_invariants_too(
        (n, edges) in arb_graph(20, 60),
        split in 1..19u32,
    ) {
        let g = build(n, &edges);
        let split = split % n.max(2);
        let truth = pagerank(&g, &PageRankConfig::default()).into_scores();
        let cfg = JxpConfig {
            merge: MergeMode::Full,
            combine: CombineMode::Average,
            ..JxpConfig::default()
        };
        // Two overlapping halves.
        let cut_a = (split + 1).min(n);
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, (0..cut_a).map(PageId)),
            n as u64,
            cfg.clone(),
        );
        let mut b = JxpPeer::new(
            Subgraph::from_pages(&g, (split.saturating_sub(1)..n).map(PageId)),
            n as u64,
            cfg,
        );
        for _ in 0..5 {
            meeting::meet(&mut a, &mut b);
            prop_assert!(check_mass_conservation(&a).is_ok());
            prop_assert!(check_mass_conservation(&b).is_ok());
            prop_assert!(check_safety_bound(&a, &truth, 1e-6).is_ok());
            prop_assert!(check_safety_bound(&b, &truth, 1e-6).is_ok());
        }
    }

    #[test]
    fn footrule_metric_axioms(
        scores_a in vec(0.0f64..1.0, 10),
        scores_b in vec(0.0f64..1.0, 10),
        k in 1..10usize,
    ) {
        let ra = Ranking::from_scores(
            scores_a.iter().enumerate().map(|(i, &s)| (PageId(i as u32), s + i as f64 * 1e-9)),
        );
        let rb = Ranking::from_scores(
            scores_b.iter().enumerate().map(|(i, &s)| (PageId(i as u32), s + i as f64 * 1e-9)),
        );
        let d_ab = metrics::footrule_distance(&ra, &rb, k);
        let d_ba = metrics::footrule_distance(&rb, &ra, k);
        prop_assert!((d_ab - d_ba).abs() < 1e-12, "not symmetric");
        prop_assert!((0.0..=1.0).contains(&d_ab), "out of range: {d_ab}");
        prop_assert_eq!(metrics::footrule_distance(&ra, &ra, k), 0.0);
    }

    #[test]
    fn mips_estimates_are_sane(
        a_start in 0u64..500,
        a_len in 1u64..400,
        b_start in 0u64..500,
        b_len in 1u64..400,
    ) {
        let perms = MipsPermutations::generate(128, 99);
        let a = MipsVector::from_elements(&perms, a_start..a_start + a_len);
        let b = MipsVector::from_elements(&perms, b_start..b_start + b_len);
        let r = a.resemblance(&b);
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!((r - b.resemblance(&a)).abs() < 1e-12, "not symmetric");
        let c = a.containment_of(&b);
        prop_assert!((0.0..=1.0).contains(&c));
        // The union vector's minima never exceed either input's.
        let u = a.union(&b);
        prop_assert_eq!(u.dims(), a.dims());
        // Self-resemblance is exactly 1.
        prop_assert_eq!(a.resemblance(&a), 1.0);
    }

    #[test]
    fn snapshot_round_trips_warmed_up_peers(
        (n, edges) in arb_graph(24, 80),
        cut in 1..23u32,
        meetings in 1..8usize,
    ) {
        let g = build(n, &edges);
        let cut = (cut % n).max(1);
        let cfg = JxpConfig::optimized();
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, (0..cut).map(PageId)),
            n as u64,
            cfg.clone(),
        );
        let mut b = JxpPeer::new(
            Subgraph::from_pages(&g, (cut.saturating_sub(1)..n).map(PageId)),
            n as u64,
            cfg,
        );
        for _ in 0..meetings {
            meeting::meet(&mut a, &mut b);
        }
        let restored = jxp::core::snapshot::load(&jxp::core::snapshot::save(&a)[..]).unwrap();
        prop_assert_eq!(restored.graph().pages(), a.graph().pages());
        prop_assert_eq!(restored.scores(), a.scores());
        prop_assert_eq!(restored.world_score(), a.world_score());
        prop_assert_eq!(restored.world().len(), a.world().len());
        prop_assert_eq!(restored.world().num_dangling(), a.world().num_dangling());
    }

    #[test]
    fn honest_payloads_always_validate(
        (n, edges) in arb_graph(24, 80),
        cut in 1..23u32,
        meetings in 0..6usize,
    ) {
        let g = build(n, &edges);
        let cut = (cut % n).max(1);
        let cfg = JxpConfig::optimized();
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, (0..cut).map(PageId)),
            n as u64,
            cfg.clone(),
        );
        let mut b = JxpPeer::new(
            Subgraph::from_pages(&g, (cut / 2..n).map(PageId)),
            n as u64,
            cfg,
        );
        for _ in 0..meetings {
            meeting::meet(&mut a, &mut b);
        }
        prop_assert!(a.payload().validate().is_ok());
        prop_assert!(b.payload().validate().is_ok());
    }

    #[test]
    fn ta_topk_equals_exhaustive_scoring(
        list_a in vec((0..60u32, 0.0f64..1.0), 1..60),
        list_b in vec((0..60u32, 0.0f64..1.0), 1..60),
        k in 1..12usize,
    ) {
        use jxp::minerva::topk::{ta_topk, ScoredList};
        let lists = [
            ScoredList::from_pairs(list_a.iter().map(|&(p, s)| (PageId(p), s))),
            ScoredList::from_pairs(list_b.iter().map(|&(p, s)| (PageId(p), s))),
        ];
        let r = ta_topk(&lists, k);
        // Exhaustive reference with the same max-dedup-then-sum semantics.
        let mut acc: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        let dedup = |list: &[(u32, f64)]| {
            let mut m: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
            for &(p, s) in list {
                let e = m.entry(p).or_insert(f64::NEG_INFINITY);
                *e = e.max(s);
            }
            m
        };
        for (p, s) in dedup(&list_a).into_iter().chain(dedup(&list_b)) {
            *acc.entry(p).or_insert(0.0) += s;
        }
        let mut expect: Vec<(u32, f64)> = acc.into_iter().collect();
        expect.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        expect.truncate(k);
        prop_assert_eq!(r.hits.len(), expect.len());
        // Compare score multisets (ties may order pages differently).
        for (hit, (_, s)) in r.hits.iter().zip(expect.iter()) {
            prop_assert!((hit.tfidf - s).abs() < 1e-9, "{} vs {}", hit.tfidf, s);
        }
    }

    #[test]
    fn subgraph_union_is_commutative_and_idempotent(
        (n, edges) in arb_graph(30, 80),
        cut in 1..29u32,
    ) {
        let g = build(n, &edges);
        let cut = (cut % n).max(1);
        let a = Subgraph::from_pages(&g, (0..cut).map(PageId));
        let b = Subgraph::from_pages(&g, (cut / 2..n).map(PageId));
        let ab = a.union(&b);
        let ba = b.union(&a);
        prop_assert_eq!(ab.pages(), ba.pages());
        prop_assert_eq!(ab.num_links(), ba.num_links());
        let aa = a.union(&a);
        prop_assert_eq!(aa.pages(), a.pages());
        prop_assert_eq!(aa.num_links(), a.num_links());
    }
}
