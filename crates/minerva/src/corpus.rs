//! Synthetic topical corpus over the pages of a categorized graph.
//!
//! Every page becomes a document whose tokens are drawn from a mixture of
//! its category's **topic vocabulary** and a shared **background
//! vocabulary**, both Zipf-distributed — the standard generative stand-in
//! for topical Web text. Queries are built from a category's most
//! distinctive topic terms, like the paper's 15 popular Web queries each
//! of which targets a theme.
//!
//! **Ground truth** (replacing the paper's manual assessment): a document
//! is relevant to a query iff it belongs to the query's category *and* is
//! among the authoritative pages of that category (top fraction by true
//! PageRank). This encodes the same judgment the paper's assessors made
//! implicitly — among on-topic pages, the authoritative ones are the good
//! answers — which is precisely the signal the JXP-fused ranking is
//! supposed to exploit.

use jxp_webgraph::generators::CategorizedGraph;
use jxp_webgraph::{FxHashMap, FxHashSet, PageId};
use rand::Rng;

/// Identifier of a vocabulary term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// Parameters of the corpus generator.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusParams {
    /// Distinct topic terms per category.
    pub topic_terms_per_category: usize,
    /// Distinct background terms shared by all categories.
    pub background_terms: usize,
    /// Tokens per document.
    pub doc_length: usize,
    /// Probability a token comes from the category's topic vocabulary.
    pub topic_mix: f64,
    /// Zipf skew for both vocabularies (1.0 = classic Zipf).
    pub zipf_exponent: f64,
    /// Fraction of each category (by true PageRank rank) considered
    /// relevant for queries against that category.
    pub relevant_fraction: f64,
}

impl Default for CorpusParams {
    fn default() -> Self {
        CorpusParams {
            topic_terms_per_category: 40,
            background_terms: 400,
            doc_length: 60,
            topic_mix: 0.45,
            zipf_exponent: 1.0,
            relevant_fraction: 0.15,
        }
    }
}

/// A query: a handful of topic terms targeting one category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Human-readable label (the paper lists queries like "basketball").
    pub name: String,
    /// Query terms.
    pub terms: Vec<TermId>,
    /// The category the query targets (drives the ground truth).
    pub category: usize,
}

/// A document: the bag of words of one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// The page this document lives at.
    pub page: PageId,
    /// `(term, frequency)` pairs, sorted by term.
    pub terms: Vec<(TermId, u32)>,
}

impl Document {
    /// Term frequency of `t` in this document.
    pub fn tf(&self, t: TermId) -> u32 {
        self.terms
            .binary_search_by_key(&t, |&(term, _)| term)
            .map(|i| self.terms[i].1)
            .unwrap_or(0)
    }

    /// Total token count.
    pub fn len(&self) -> u32 {
        self.terms.iter().map(|&(_, c)| c).sum()
    }

    /// Whether the document is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// The generated corpus: one document per page plus query machinery.
#[derive(Debug, Clone)]
pub struct Corpus {
    docs: Vec<Document>,
    params: CorpusParams,
    num_categories: usize,
    category_of: Vec<u16>,
    /// `topic_base[c]` = first term id of category `c`'s topic vocabulary.
    topic_base: Vec<u32>,
    /// Ground-truth relevant pages per category.
    relevant: Vec<FxHashSet<PageId>>,
}

/// Sample a Zipf-distributed rank in `0..n` (rank 0 most likely).
fn zipf_sample(n: usize, exponent: f64, rng: &mut impl Rng) -> usize {
    debug_assert!(n > 0);
    // Inverse-CDF on the harmonic weights; n is small (vocabulary sizes),
    // so a linear scan is fine and exact.
    let h: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(exponent)).sum();
    let mut u = rng.gen::<f64>() * h;
    for k in 1..=n {
        u -= 1.0 / (k as f64).powf(exponent);
        if u <= 0.0 {
            return k - 1;
        }
    }
    n - 1
}

impl Corpus {
    /// Generate the corpus for `cg`. `true_pagerank` is the centralized
    /// PageRank vector over the global graph (drives the ground truth).
    ///
    /// # Panics
    /// Panics if `true_pagerank.len()` differs from the graph size or the
    /// params are degenerate.
    pub fn generate(
        cg: &CategorizedGraph,
        true_pagerank: &[f64],
        params: CorpusParams,
        rng: &mut impl Rng,
    ) -> Self {
        let n = cg.graph.num_nodes();
        assert_eq!(true_pagerank.len(), n, "PageRank vector size mismatch");
        assert!(params.topic_terms_per_category > 0 && params.background_terms > 0);
        assert!((0.0..=1.0).contains(&params.topic_mix));
        assert!(params.relevant_fraction > 0.0 && params.relevant_fraction <= 1.0);

        // Term-id layout: background terms first, then per-category blocks.
        let topic_base: Vec<u32> = (0..cg.num_categories)
            .map(|c| (params.background_terms + c * params.topic_terms_per_category) as u32)
            .collect();

        let mut docs = Vec::with_capacity(n);
        for p in 0..n as u32 {
            let category = cg.category(PageId(p));
            let mut counts: FxHashMap<TermId, u32> = FxHashMap::default();
            for _ in 0..params.doc_length {
                let term = if rng.gen_bool(params.topic_mix) {
                    let r = zipf_sample(params.topic_terms_per_category, params.zipf_exponent, rng);
                    TermId(topic_base[category] + r as u32)
                } else {
                    let r = zipf_sample(params.background_terms, params.zipf_exponent, rng);
                    TermId(r as u32)
                };
                *counts.entry(term).or_insert(0) += 1;
            }
            let mut terms: Vec<(TermId, u32)> = counts.into_iter().collect();
            terms.sort_unstable_by_key(|&(t, _)| t);
            docs.push(Document {
                page: PageId(p),
                terms,
            });
        }

        // Ground truth: per category, the top `relevant_fraction` of pages
        // by true PageRank.
        let mut relevant = vec![FxHashSet::default(); cg.num_categories];
        for (c, rel) in relevant.iter_mut().enumerate() {
            let mut pages: Vec<PageId> = cg.pages_in_category(c).collect();
            pages.sort_unstable_by(|&a, &b| {
                true_pagerank[b.index()]
                    .partial_cmp(&true_pagerank[a.index()])
                    .unwrap()
                    .then(a.cmp(&b))
            });
            let keep = ((pages.len() as f64 * params.relevant_fraction).ceil() as usize).max(1);
            rel.extend(pages.into_iter().take(keep));
        }

        Corpus {
            docs,
            params,
            num_categories: cg.num_categories,
            category_of: cg.category_of.clone(),
            topic_base,
            relevant,
        }
    }

    /// The document of page `p`.
    pub fn document(&self, p: PageId) -> &Document {
        &self.docs[p.index()]
    }

    /// All documents, indexed by page id.
    pub fn documents(&self) -> &[Document] {
        &self.docs
    }

    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    /// Category of a page.
    pub fn category(&self, p: PageId) -> usize {
        self.category_of[p.index()] as usize
    }

    /// The `k` most frequent topic terms of category `c` (by construction,
    /// the lowest-ranked Zipf terms of the category block).
    pub fn top_topic_terms(&self, c: usize, k: usize) -> Vec<TermId> {
        let base = self.topic_base[c];
        (0..k.min(self.params.topic_terms_per_category) as u32)
            .map(|i| TermId(base + i))
            .collect()
    }

    /// Whether `page` is ground-truth relevant for `query`.
    pub fn is_relevant(&self, query: &Query, page: PageId) -> bool {
        self.relevant[query.category].contains(&page)
    }

    /// Build the Table 2-style query workload: `count` queries cycling
    /// through the categories, each using 1–3 high-frequency topic terms.
    pub fn make_queries(&self, count: usize, rng: &mut impl Rng) -> Vec<Query> {
        (0..count)
            .map(|i| {
                let category = i % self.num_categories;
                let num_terms = 1 + rng.gen_range(0..3usize);
                let pool = self.top_topic_terms(category, 8);
                let mut terms: Vec<TermId> = Vec::with_capacity(num_terms);
                while terms.len() < num_terms {
                    let t = pool[rng.gen_range(0..pool.len())];
                    if !terms.contains(&t) {
                        terms.push(t);
                    }
                }
                Query {
                    name: format!("q{:02}-cat{}", i, category),
                    terms,
                    category,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_pagerank::{pagerank, PageRankConfig};
    use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CategorizedGraph, Vec<f64>) {
        let cg = CategorizedGraph::generate(
            &CategorizedParams {
                num_categories: 3,
                nodes_per_category: 100,
                intra_out_per_node: 4,
                cross_fraction: 0.15,
            },
            &mut StdRng::seed_from_u64(1),
        );
        let pr = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
        (cg, pr)
    }

    #[test]
    fn every_page_gets_a_document() {
        let (cg, pr) = setup();
        let corpus = Corpus::generate(
            &cg,
            &pr,
            CorpusParams::default(),
            &mut StdRng::seed_from_u64(2),
        );
        assert_eq!(corpus.documents().len(), 300);
        for d in corpus.documents() {
            assert_eq!(d.len() as usize, CorpusParams::default().doc_length);
            assert!(!d.is_empty());
        }
    }

    #[test]
    fn documents_carry_their_category_topic_terms() {
        let (cg, pr) = setup();
        let corpus = Corpus::generate(
            &cg,
            &pr,
            CorpusParams::default(),
            &mut StdRng::seed_from_u64(3),
        );
        // Count how often a category's top topic term appears in docs of
        // that category vs other categories.
        let top = corpus.top_topic_terms(0, 1)[0];
        let in_cat: u32 = cg
            .pages_in_category(0)
            .map(|p| corpus.document(p).tf(top))
            .sum();
        let out_cat: u32 = cg
            .pages_in_category(1)
            .map(|p| corpus.document(p).tf(top))
            .sum();
        assert!(in_cat > 50, "topic term frequency {in_cat}");
        assert_eq!(out_cat, 0, "topic terms must not leak across categories");
    }

    #[test]
    fn ground_truth_is_authority_correlated() {
        let (cg, pr) = setup();
        let corpus = Corpus::generate(
            &cg,
            &pr,
            CorpusParams::default(),
            &mut StdRng::seed_from_u64(4),
        );
        let q = Query {
            name: "t".into(),
            terms: corpus.top_topic_terms(1, 2),
            category: 1,
        };
        let relevant: Vec<PageId> = cg
            .pages_in_category(1)
            .filter(|&p| corpus.is_relevant(&q, p))
            .collect();
        let irrelevant: Vec<PageId> = cg
            .pages_in_category(1)
            .filter(|&p| !corpus.is_relevant(&q, p))
            .collect();
        assert_eq!(relevant.len(), corpus.relevant[1].len());
        let mean =
            |v: &[PageId]| -> f64 { v.iter().map(|p| pr[p.index()]).sum::<f64>() / v.len() as f64 };
        assert!(
            mean(&relevant) > mean(&irrelevant),
            "relevant pages must be more authoritative"
        );
        // Off-category pages are never relevant.
        assert!(cg.pages_in_category(0).all(|p| !corpus.is_relevant(&q, p)));
    }

    #[test]
    fn queries_cycle_categories_and_use_topic_terms() {
        let (cg, pr) = setup();
        let corpus = Corpus::generate(
            &cg,
            &pr,
            CorpusParams::default(),
            &mut StdRng::seed_from_u64(5),
        );
        let queries = corpus.make_queries(7, &mut StdRng::seed_from_u64(6));
        assert_eq!(queries.len(), 7);
        assert_eq!(queries[0].category, 0);
        assert_eq!(queries[3].category, 0);
        assert_eq!(queries[4].category, 1);
        for q in &queries {
            assert!(!q.terms.is_empty() && q.terms.len() <= 3);
            let pool = corpus.top_topic_terms(q.category, 8);
            assert!(q.terms.iter().all(|t| pool.contains(t)));
        }
    }

    #[test]
    fn zipf_sampler_is_skewed() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[zipf_sample(10, 1.0, &mut rng)] += 1;
        }
        assert!(counts[0] > counts[4], "{counts:?}");
        assert!(counts[4] > counts[9], "{counts:?}");
        assert!(counts[9] > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let (cg, pr) = setup();
        let c1 = Corpus::generate(
            &cg,
            &pr,
            CorpusParams::default(),
            &mut StdRng::seed_from_u64(8),
        );
        let c2 = Corpus::generate(
            &cg,
            &pr,
            CorpusParams::default(),
            &mut StdRng::seed_from_u64(8),
        );
        assert_eq!(c1.documents(), c2.documents());
    }
}
