//! The message a peer sends when meeting another peer.
//!
//! §3: peers "exchange the information they currently have, namely the
//! extended local graph and the score list". The payload therefore carries
//! the sender's local pages with their out-links and current JXP scores,
//! the sender's world-node entries, and the sender's world-node score.
//! Crucially it carries **no page content** — the paper's bandwidth
//! argument (§6.2, Figures 11/12) rests on exactly this, and
//! [`MeetingPayload::wire_size`] is what those figures measure.
//!
//! **Receiver-filtered payloads.** Light-weight merging (§4.1) uses of a
//! met peer's knowledge only what touches the receiver's own pages, so a
//! receiver states what it holds — a Bloom filter over its local page ids,
//! [`JxpPeer::interest`](crate::JxpPeer::interest) — and the sender cuts
//! the payload to it ([`MeetingPayload::assemble`]'s `cut_to`). A Bloom
//! filter has no false negatives, so every record the receiver would have
//! acted on still arrives and absorbing the cut payload leaves the
//! receiver in exactly the state the uncut one would have; false
//! positives cost bytes only. The record rules:
//!
//! * a local page travels as a full [`PagePayload`] — id, score, true
//!   out-degree, `succs ∩ filter` — when its id or any successor hits the
//!   filter (the receiver may hold the page, or be linked from it), or
//!   when it is dangling (its score feeds the receiver's dangling mass);
//! * otherwise as a bare id in [`MeetingPayload::unlinked`]: the receiver
//!   holds neither the page nor any page it links to, and the only thing
//!   it can do with that fact is drop what an older crawl told it about
//!   the page (§5.3 stale links) — which needs no score and no links;
//! * a world entry travels with `targets ∩ filter`, and only when that is
//!   not empty.
//!
//! **Layout.** A payload is a flat table, laid out like the world node's
//! own arrays (see [`crate::world`]): every link list it carries — each
//! page's out-links, then each world record's targets — lives back to
//! back in one shared arena of ids, and a page or world record holds its
//! id, score, out-degree and the span of its list in that arena. So
//! assembling, decoding or merging a payload allocates a fixed handful of
//! vectors however many records it has. Readers get borrowed views,
//! [`PagePayload`] and [`WorldPayload`], from [`MeetingPayload::pages`]
//! and [`MeetingPayload::world`]; a payload built by hand (or by a
//! decoder) goes through [`MeetingPayload::push_page`] and
//! [`MeetingPayload::push_world`], which append a record together with
//! its list and keep the records and every list strictly ascending, so
//! every link in the arena belongs to exactly one record.
//!
//! **Encoding.** This module owns the one body format for peer state:
//! [`encode_meeting_payload`] writes it, [`decode_meeting_payload`]
//! reads it, and [`MeetingPayload::wire_size`] counts it. `jxp-wire`
//! frames it as the body of a `MeetRequest`/`MeetReply` (protocol 3),
//! and a `JXPP` peer snapshot ([`crate::snapshot`]) is a header plus the
//! body of the peer's uncut, filterless payload. With `v` a LEB128
//! varint and `Δid` an id written as its gap from the previous id of the
//! same section or list (the first verbatim):
//!
//! ```text
//! world_score f64 | cut_for u64 | filter (presence byte [+ filter])
//! pages    v × (Δid v | score f64 | out_degree v | n v | n × Δid v)
//! unlinked v × Δid v
//! world    v × (Δsrc v | out_degree v | score f64 | n v | n × Δid v)
//! dangling v × (Δid v | score f64)
//! ```
//!
//! Fixed-width fields are little-endian; varints and gaps are
//! [`jxp_webgraph::codec`]'s, the codec `JXPS` segments are written
//! with. The filter ([`encode_bloom`]) is a presence byte, then word
//! count u32, hash count u32, insert count u64 and the bit words. The
//! decoder is bounded and canonical: a count that the rest of the body
//! could not hold is refused before anything is allocated, a varint
//! must be the shortest encoding of its value, and every id list must
//! be strictly ascending, so a body decodes only if re-encoding its
//! payload gives back the same bytes.

use crate::local_pr::EXTERNAL;
use crate::world::WorldNode;
use bytes::BufMut;
use jxp_synopses::BloomFilter;
use jxp_webgraph::codec::{
    gaps_len, get_gap, get_varint, put_gap, put_gaps, put_varint, varint_len, CodecError,
};
use jxp_webgraph::{PageId, Subgraph};

/// Knowledge about one of the sender's local pages, as
/// [`MeetingPayload::pages`] reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PagePayload<'a> {
    /// The page's global id.
    pub page: PageId,
    /// The sender's current JXP score for it.
    pub score: f64,
    /// The page's true out-degree `out(page)`.
    pub out_degree: u32,
    /// The page's out-links (global ids, ascending): all `out_degree` of
    /// them in an uncut payload, those that hit the receiver's filter in
    /// a cut one.
    pub succs: &'a [PageId],
}

/// Knowledge about one external page relayed from the sender's world
/// node, as [`MeetingPayload::world`] reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldPayload<'a> {
    /// The external source page.
    pub src: PageId,
    /// Its true out-degree.
    pub out_degree: u32,
    /// The sender's learned score for it.
    pub score: f64,
    /// The link targets the sender knows (pages of the *sender's*
    /// fragment, ascending; relevant to the receiver when fragments
    /// overlap). A cut payload keeps those that hit the receiver's filter.
    pub targets: &'a [PageId],
}

/// One page or world record: its links are `links[start..end]` of the
/// payload's arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Record {
    pub(crate) id: PageId,
    pub(crate) score: f64,
    pub(crate) out_degree: u32,
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// Everything one peer sends to another in a meeting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeetingPayload {
    /// The sender's local pages, ascending: scores and out-link spans.
    pub(crate) pages: Vec<Record>,
    /// Ids (ascending) of the sender's local pages that neither are nor
    /// link to anything in the filter the payload was cut to. Always
    /// empty in an uncut payload.
    pub unlinked: Vec<PageId>,
    /// The sender's world-node entries, ascending.
    pub(crate) world: Vec<Record>,
    /// The arena: every page's out-links, then every world record's
    /// targets, back to back.
    pub(crate) links: Vec<PageId>,
    /// External dangling pages the sender knows about, with scores.
    /// (The sender's *local* dangling pages already appear in `pages`
    /// with out-degree zero.)
    pub world_dangling: Vec<(PageId, f64)>,
    /// The sender's current world-node score `α_w`.
    pub world_score: f64,
    /// The sender's own filter, so the receiver can cut what it sends
    /// back; `None` from a peer that merges in full and needs everything.
    pub interest: Option<BloomFilter>,
    /// [`BloomFilter::fingerprint`] of the filter this payload was cut
    /// to; `0` = uncut. A receiver whose filter has another fingerprint
    /// must not absorb the payload: records it needs may be missing.
    pub cut_for: u64,
}

/// An arena length as a span bound.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a payload holds < 2^32 links")
}

impl MeetingPayload {
    /// Assemble the payload from a peer's state: `interest` is the
    /// sender's own filter (it rides along), `cut_to` the receiver's —
    /// `None` ships everything. See the module docs for the record rules.
    /// `succ_local` is the fragment's
    /// [`successor_indices`](crate::local_pr::LocalTopology::successor_indices),
    /// which a cut reads instead of mapping ids. Only a cut reads it, so
    /// an uncut payload may pass `&[]`.
    ///
    /// # Panics
    /// Panics if `scores` does not hold one score per page of `graph`, or
    /// if `cut_to` is set and `succ_local` does not hold one index per
    /// link of `graph`.
    pub fn assemble(
        graph: &Subgraph,
        succ_local: &[u32],
        world: &WorldNode,
        scores: &[f64],
        world_score: f64,
        interest: Option<&BloomFilter>,
        cut_to: Option<&BloomFilter>,
    ) -> Self {
        let n = graph.num_pages();
        assert_eq!(n, scores.len(), "score list out of sync");
        if cut_to.is_some() {
            assert_eq!(
                succ_local.len(),
                graph.num_links(),
                "successor indices out of sync"
            );
        }
        // One probe per local page. Local successors and world-entry
        // targets — local indices into `graph`, as `succ_local` and
        // `crate::world` hold them — read this table; only external
        // successors probe the filter themselves.
        let local_hit: Vec<bool> = cut_to.map_or_else(Vec::new, |f| {
            graph.pages().iter().map(|&p| f.contains(key(p))).collect()
        });
        // The whole payload's links bound a cut one's, so every vector is
        // allocated once.
        let mut p = MeetingPayload {
            pages: Vec::with_capacity(n),
            unlinked: Vec::with_capacity(if cut_to.is_some() { n } else { 0 }),
            world: Vec::with_capacity(world.len()),
            links: Vec::with_capacity(graph.num_links() + world.num_links()),
            world_dangling: world.dangling_iter().collect(),
            world_score,
            interest: interest.cloned(),
            cut_for: cut_to.map_or(0, BloomFilter::fingerprint),
        };
        // The successors' local indices not yet passed.
        let mut rest = succ_local;
        for (i, &score) in scores.iter().enumerate() {
            let all = graph.successors_at(i);
            let start = p.links.len();
            // Append the successors `cut_to` keeps to the arena.
            if let Some(filter) = cut_to {
                let (local, tail) = rest.split_at(all.len());
                rest = tail;
                let hit = |(&t, &j): &(&PageId, &u32)| match j {
                    EXTERNAL => filter.contains(key(t)),
                    j => local_hit[j as usize],
                };
                p.links
                    .extend(all.iter().zip(local).filter(hit).map(|(&t, _)| t));
            } else {
                p.links.extend_from_slice(all);
            }
            let kept_none = p.links.len() == start;
            if cut_to.is_some() && !local_hit[i] && kept_none && !all.is_empty() {
                p.unlinked.push(graph.page_at(i));
            } else {
                p.pages.push(Record {
                    id: graph.page_at(i),
                    score,
                    out_degree: all.len() as u32,
                    start: offset(start),
                    end: offset(p.links.len()),
                });
            }
        }
        // WorldNode iterates in ascending PageId order (documented
        // contract), so the payload is deterministic without re-sorting.
        // A target is a local index, so it reads the hit table and the
        // page directly; index order is id order, so the ids ascend. A
        // cut entry travels only when some of its targets hit.
        let pages = graph.pages();
        for (src, e) in world.iter() {
            let start = p.links.len();
            if cut_to.is_some() {
                let hits = e.targets.iter().filter(|&&t| local_hit[t as usize]);
                p.links.extend(hits.map(|&t| pages[t as usize]));
                if p.links.len() == start {
                    continue;
                }
            } else {
                p.links.extend(e.targets.iter().map(|&t| pages[t as usize]));
            }
            p.world.push(Record {
                id: src,
                score: e.score,
                out_degree: e.out_degree,
                start: offset(start),
                end: offset(p.links.len()),
            });
        }
        p.shrink_to_fit();
        p
    }

    pub(crate) fn links_of(&self, r: &Record) -> &[PageId] {
        &self.links[r.start as usize..r.end as usize]
    }

    /// The page records, ascending by page.
    pub fn pages(&self) -> impl ExactSizeIterator<Item = PagePayload<'_>> + '_ {
        self.pages.iter().map(|r| PagePayload {
            page: r.id,
            score: r.score,
            out_degree: r.out_degree,
            succs: self.links_of(r),
        })
    }

    /// The world records, ascending by source.
    pub fn world(&self) -> impl ExactSizeIterator<Item = WorldPayload<'_>> + '_ {
        self.world.iter().map(|r| WorldPayload {
            src: r.id,
            out_degree: r.out_degree,
            score: r.score,
            targets: self.links_of(r),
        })
    }

    /// Make room for `pages` more page records, `world` more world
    /// records and `links` more links, so the pushes that follow do not
    /// reallocate.
    pub fn reserve(&mut self, pages: usize, world: usize, links: usize) {
        self.pages.reserve(pages);
        self.world.reserve(world);
        self.links.reserve(links);
    }

    /// Give back the arena capacity no link uses: what a decoder that
    /// [`reserve`](MeetingPayload::reserve)d for the worst case calls
    /// once it is done.
    pub fn shrink_to_fit(&mut self) {
        self.links.shrink_to_fit();
    }

    /// Append a page record whose out-links are `succs`.
    ///
    /// # Panics
    /// Panics unless `page` lies above every page so far and `succs` is
    /// strictly ascending, or if a world record was pushed already (pages
    /// come first).
    pub fn push_page(
        &mut self,
        page: PageId,
        score: f64,
        out_degree: u32,
        succs: impl IntoIterator<Item = PageId>,
    ) {
        assert!(self.world.is_empty(), "page {page:?} after a world record");
        assert!(
            self.pages.last().is_none_or(|r| r.id < page),
            "page {page:?} out of order"
        );
        let (start, end) = self.push_links(succs);
        self.pages.push(Record {
            id: page,
            score,
            out_degree,
            start,
            end,
        });
    }

    /// Append a world record whose targets are `targets`.
    ///
    /// # Panics
    /// Panics unless `src` lies above every world record so far and
    /// `targets` is strictly ascending.
    pub fn push_world(
        &mut self,
        src: PageId,
        out_degree: u32,
        score: f64,
        targets: impl IntoIterator<Item = PageId>,
    ) {
        assert!(
            self.world.last().is_none_or(|r| r.id < src),
            "world record {src:?} out of order"
        );
        let (start, end) = self.push_links(targets);
        self.world.push(Record {
            id: src,
            score,
            out_degree,
            start,
            end,
        });
    }

    /// Append `ids` to the arena; returns their span.
    fn push_links(&mut self, ids: impl IntoIterator<Item = PageId>) -> (u32, u32) {
        let start = self.links.len();
        for id in ids {
            assert!(
                self.links.len() == start || self.links.last() < Some(&id),
                "link {id:?} out of order"
            );
            self.links.push(id);
        }
        (offset(start), offset(self.links.len()))
    }

    /// Sanity-check a payload received from an untrusted peer.
    ///
    /// The paper closes with the open problem of "egoistic, cheating, and
    /// malicious peers" (§7). Full strategic-lying detection is out of
    /// scope there and here, but a peer can and should reject *malformed*
    /// payloads before absorbing them: non-finite or negative scores,
    /// scores that exceed the total PageRank mass, a local score list that
    /// claims more than the whole network's authority, more out-links than
    /// the stated out-degree, or an "uncut" payload with links missing.
    /// Page records, each page's out-links, bare ids, world records, each
    /// world record's targets and the dangling entries must be strictly
    /// ascending: light-weight merging walks them as sorted runs
    /// ([`WorldNode::absorb_light`]), so a duplicate or an out-of-order
    /// record would be misapplied, and the wire gap-codes every one of
    /// these lists, so it cannot carry anything else. Returns a
    /// description of the first violation. Whether a cut payload was cut
    /// for *this* receiver is
    /// [`JxpPeer::try_absorb`](crate::JxpPeer::try_absorb)'s check.
    pub fn validate(&self) -> Result<(), String> {
        let valid_score = |s: f64| s.is_finite() && (0.0..=1.0).contains(&s);
        if !valid_score(self.world_score) {
            return Err(format!("world score {} out of [0, 1]", self.world_score));
        }
        let mut total = 0.0;
        for pp in self.pages() {
            if !valid_score(pp.score) {
                return Err(format!("page {:?} has invalid score {}", pp.page, pp.score));
            }
            total += pp.score;
            let (links, degree) = (pp.succs.len(), pp.out_degree as usize);
            if links > degree || (self.cut_for == 0 && links != degree) {
                return Err(format!(
                    "page {:?} carries {links} out-links at out-degree {degree}",
                    pp.page
                ));
            }
            if !pp.succs.is_sorted_by(|a, b| a < b) {
                return Err(format!(
                    "page {:?} out-links not sorted / contain duplicates",
                    pp.page
                ));
            }
        }
        if !self.pages.is_sorted_by(|a, b| a.id < b.id) {
            return Err("page records not sorted / contain duplicates".into());
        }
        if !self.unlinked.is_sorted_by(|a, b| a < b) {
            return Err("unlinked ids not sorted / contain duplicates".into());
        }
        if self.cut_for == 0 && !self.unlinked.is_empty() {
            return Err("uncut payload with unlinked ids".into());
        }
        if total > 1.0 + 1e-6 {
            return Err(format!("local score list claims total mass {total} > 1"));
        }
        for wp in self.world() {
            if !valid_score(wp.score) {
                return Err(format!(
                    "world entry {:?} has invalid score {}",
                    wp.src, wp.score
                ));
            }
            if wp.out_degree == 0 {
                return Err(format!("world entry {:?} with zero out-degree", wp.src));
            }
            if wp.targets.len() > wp.out_degree as usize {
                return Err(format!(
                    "world entry {:?} claims more targets than out-degree",
                    wp.src
                ));
            }
            if !wp.targets.is_sorted_by(|a, b| a < b) {
                return Err(format!(
                    "world entry {:?} targets not sorted / contain duplicates",
                    wp.src
                ));
            }
        }
        if !self.world.is_sorted_by(|a, b| a.id < b.id) {
            return Err("world records not sorted / contain duplicates".into());
        }
        for &(p, s) in &self.world_dangling {
            if !valid_score(s) {
                return Err(format!("dangling entry {p:?} has invalid score {s}"));
            }
        }
        if !self.world_dangling.is_sorted_by(|a, b| a.0 < b.0) {
            return Err("dangling entries not sorted / contain duplicates".into());
        }
        Ok(())
    }

    /// Serialized size in bytes: the quantity plotted in Figures 11/12.
    ///
    /// This is exactly the length of [`encode_meeting_payload`]'s output,
    /// the body of a protocol-3 meeting frame, so Figures 11/12 report
    /// measured bytes; the frame's fixed 12-byte header is the only
    /// residual delta. It is counted with the length functions of the
    /// codec the encoder writes with
    /// ([`jxp_webgraph::codec`]): 8 bytes each for the world score and
    /// `cut_for`, a presence byte plus the sender's filter, then four
    /// sections, each a varint record count followed by its records. A
    /// record's id is a varint gap from the previous record's (the first
    /// verbatim), a score is 8 bytes, a degree a varint, and a link list
    /// a varint count followed by its gap-coded ids. Nothing is
    /// allocated.
    pub fn wire_size(&self) -> usize {
        let count = |n: usize| varint_len(n as u64);
        let list = |ids: &[PageId]| count(ids.len()) + gaps_len(ids.iter().map(|p| p.0));
        let records = |records: &[Record]| {
            count(records.len())
                + gaps_len(records.iter().map(|r| r.id.0))
                + records
                    .iter()
                    .map(|r| 8 + varint_len(u64::from(r.out_degree)) + list(self.links_of(r)))
                    .sum::<usize>()
        };
        let dangling = count(self.world_dangling.len())
            + gaps_len(self.world_dangling.iter().map(|(p, _)| p.0))
            + 8 * self.world_dangling.len();
        let interest = 1 + self.interest.as_ref().map_or(0, BloomFilter::wire_size);
        8 + 8
            + interest
            + records(&self.pages)
            + list(&self.unlinked)
            + records(&self.world)
            + dangling
    }

    /// Number of local pages described, bare ids included.
    pub fn num_pages(&self) -> usize {
        self.pages.len() + self.unlinked.len()
    }

    /// Total links carried (page out-links plus world-entry links).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }
}

/// A page id as a Bloom-filter key.
pub(crate) fn key(p: PageId) -> u64 {
    u64::from(p.0)
}

/// Most hash functions a decoded Bloom filter may claim (a filter at
/// one-in-a-billion false positives uses 30).
pub const MAX_BLOOM_HASHES: u32 = 64;

/// Append a filter: a presence byte, then — when present — word count,
/// hash count, insert count and the bit words: `1 +
/// BloomFilter::wire_size()` bytes.
pub fn encode_bloom(buf: &mut Vec<u8>, bloom: Option<&BloomFilter>) {
    let Some(b) = bloom else {
        buf.put_u8(0);
        return;
    };
    buf.put_u8(1);
    buf.put_u32_le(b.words().len() as u32);
    buf.put_u32_le(b.num_hashes());
    buf.put_u64_le(b.inserted());
    for &w in b.words() {
        buf.put_u64_le(w);
    }
}

/// Read an [`encode_bloom`] filter off the front of `body`.
///
/// # Errors
/// A field that overruns `body`, a bad presence byte, or a degenerate
/// filter: no words, no hashes, or more than [`MAX_BLOOM_HASHES`].
pub fn decode_bloom(body: &mut &[u8]) -> Result<Option<BloomFilter>, CodecError> {
    let mut at = Sections::new(body);
    let bloom = at.bloom()?;
    *body = &body[at.pos..];
    Ok(bloom)
}

/// Append `p`'s protocol-3 body (module docs): fixed-width scores,
/// `cut_for` and filter, then four sections of varint counts and
/// gap-coded ids. Exactly [`MeetingPayload::wire_size`] bytes.
pub fn encode_meeting_payload(buf: &mut Vec<u8>, p: &MeetingPayload) {
    buf.put_f64_le(p.world_score);
    buf.put_u64_le(p.cut_for);
    encode_bloom(buf, p.interest.as_ref());
    put_varint(buf, p.pages.len() as u64);
    let mut prev = None;
    for pp in p.pages() {
        put_gap(buf, prev, pp.page.0);
        prev = Some(pp.page.0);
        buf.put_f64_le(pp.score);
        put_varint(buf, u64::from(pp.out_degree));
        put_ids(buf, pp.succs);
    }
    put_ids(buf, &p.unlinked);
    put_varint(buf, p.world.len() as u64);
    let mut prev = None;
    for wp in p.world() {
        put_gap(buf, prev, wp.src.0);
        prev = Some(wp.src.0);
        put_varint(buf, u64::from(wp.out_degree));
        buf.put_f64_le(wp.score);
        put_ids(buf, wp.targets);
    }
    put_varint(buf, p.world_dangling.len() as u64);
    let mut prev = None;
    for &(page, score) in &p.world_dangling {
        put_gap(buf, prev, page.0);
        prev = Some(page.0);
        buf.put_f64_le(score);
    }
}

/// A varint count, then that many gap-coded ids.
fn put_ids(buf: &mut Vec<u8>, ids: &[PageId]) {
    put_varint(buf, ids.len() as u64);
    put_gaps(buf, ids.iter().map(|p| p.0));
}

/// Least bytes a page or world record takes: a one-byte id, an 8-byte
/// score, a one-byte degree and a one-byte (zero) link count.
const MIN_RECORD_LEN: usize = 1 + 8 + 1 + 1;
/// Least bytes a dangling entry takes: a one-byte id and a score.
const MIN_DANGLING_LEN: usize = 1 + 8;

/// Read an [`encode_meeting_payload`] body off the front of `body`,
/// into the payload's one id arena: a fixed handful of allocations
/// however many records the body holds. Structure only: whether the
/// scores and degrees make sense is [`MeetingPayload::validate`]'s.
///
/// # Errors
/// The first field that overruns `body`, a count the rest of `body`
/// could not hold, a non-canonical varint, an id or degree past `u32`,
/// a zero gap (an id list not strictly ascending), or a bad filter.
pub fn decode_meeting_payload(body: &mut &[u8]) -> Result<MeetingPayload, CodecError> {
    let mut p = MeetingPayload::default();
    let mut at = Sections::new(body);
    p.world_score = at.f64()?;
    p.cut_for = u64::from_le_bytes(at.fixed()?);
    p.interest = at.bloom()?;
    let num_pages = at.count(MIN_RECORD_LEN)?;
    // Every link takes a byte at least, and none is in a page record's
    // fixed part: the arena is reserved once, bounded by the body.
    p.reserve(num_pages, 0, at.left() - num_pages * MIN_RECORD_LEN);
    let mut prev = None;
    for _ in 0..num_pages {
        let page = at.id(&mut prev)?;
        let score = at.f64()?;
        let out_degree = at.degree()?;
        let mut succs = at.list()?;
        p.push_page(page, score, out_degree, &mut succs);
        succs.finish()?;
    }
    p.unlinked = at.ids()?;
    let num_world = at.count(MIN_RECORD_LEN)?;
    p.reserve(0, num_world, 0);
    let mut prev = None;
    for _ in 0..num_world {
        let src = at.id(&mut prev)?;
        let out_degree = at.degree()?;
        let score = at.f64()?;
        let mut targets = at.list()?;
        p.push_world(src, out_degree, score, &mut targets);
        targets.finish()?;
    }
    let num_dangling = at.count(MIN_DANGLING_LEN)?;
    p.world_dangling = Vec::with_capacity(num_dangling);
    let mut prev = None;
    for _ in 0..num_dangling {
        let page = at.id(&mut prev)?;
        p.world_dangling.push((page, at.f64()?));
    }
    p.shrink_to_fit();
    *body = &body[at.pos..];
    Ok(p)
}

/// A read position in a body. Every varint must be the shortest
/// encoding of its value, so a body decodes only if re-encoding its
/// payload gives back the same bytes.
struct Sections<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Sections<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Sections { bytes, pos: 0 }
    }

    /// The next `N` bytes, for a fixed-width field.
    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let field = self.bytes[self.pos..]
            .first_chunk::<N>()
            .ok_or(CodecError("field overruns body"))?;
        self.pos += N;
        Ok(*field)
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        self.fixed().map(f64::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        self.fixed().map(u32::from_le_bytes)
    }

    /// An [`encode_bloom`] filter.
    fn bloom(&mut self) -> Result<Option<BloomFilter>, CodecError> {
        match self.fixed::<1>()? {
            [0] => Ok(None),
            [1] => {
                let words = self.u32()? as usize;
                let num_hashes = self.u32()?;
                let inserted = u64::from_le_bytes(self.fixed()?);
                // The receiver probes this filter once per page and link
                // of its payload, `num_hashes` bit tests a probe: a
                // hostile count must not turn one meeting into billions.
                if words == 0 || num_hashes == 0 || num_hashes > MAX_BLOOM_HASHES {
                    return Err(CodecError("degenerate bloom filter"));
                }
                if self.left() / 8 < words {
                    return Err(CodecError("u64 array overruns body"));
                }
                let mut bits = Vec::with_capacity(words);
                for _ in 0..words {
                    bits.push(u64::from_le_bytes(self.fixed()?));
                }
                Ok(Some(BloomFilter::from_parts(bits, num_hashes, inserted)))
            }
            _ => Err(CodecError("bad bloom presence byte")),
        }
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let start = self.pos;
        let v = get_varint(self.bytes, &mut self.pos)?;
        canonical(self.pos - start, v)?;
        Ok(v)
    }

    /// Bytes not yet read.
    fn left(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A record count, refused before anything is allocated when that
    /// many records of at least `min_len` bytes cannot fit in the rest.
    fn count(&mut self, min_len: usize) -> Result<usize, CodecError> {
        let n = self.varint()?;
        if n > (self.left() / min_len) as u64 {
            return Err(CodecError("length field overruns body"));
        }
        Ok(n as usize)
    }

    fn degree(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.varint()?).map_err(|_| CodecError("degree exceeds u32"))
    }

    /// The next id of a gap-coded run whose last id was `*prev`.
    fn id(&mut self, prev: &mut Option<u32>) -> Result<PageId, CodecError> {
        let start = self.pos;
        let id = get_gap(self.bytes, &mut self.pos, *prev)?;
        canonical(self.pos - start, u64::from(id - prev.unwrap_or(0)))?;
        *prev = Some(id);
        Ok(PageId(id))
    }

    /// A varint count, then that many gap-coded ids.
    fn ids(&mut self) -> Result<Vec<PageId>, CodecError> {
        let mut list = self.list()?;
        let mut ids = Vec::with_capacity(list.left);
        ids.extend(&mut list);
        list.finish().map(|()| ids)
    }

    /// A varint count, then that many gap-coded ids, read as they are
    /// pulled: how a record's list goes straight into a payload's arena.
    fn list(&mut self) -> Result<IdList<'_, 'a>, CodecError> {
        let left = self.count(1)?;
        Ok(IdList {
            at: self,
            left,
            prev: None,
            bad: None,
        })
    }
}

/// The ids of one gap-coded list, strictly ascending, read as they are
/// pulled. The first bad id ends the list, and
/// [`finish`](IdList::finish) returns why.
struct IdList<'s, 'a> {
    at: &'s mut Sections<'a>,
    left: usize,
    prev: Option<u32>,
    bad: Option<CodecError>,
}

impl IdList<'_, '_> {
    fn finish(self) -> Result<(), CodecError> {
        self.bad.map_or(Ok(()), Err)
    }
}

impl Iterator for IdList<'_, '_> {
    type Item = PageId;

    fn next(&mut self) -> Option<PageId> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        match self.at.id(&mut self.prev) {
            Ok(id) => Some(id),
            Err(e) => {
                (self.left, self.bad) = (0, Some(e));
                None
            }
        }
    }
}

/// Refuse a varint of `len` bytes that a shorter encoding of `v` exists for.
fn canonical(len: usize, v: u64) -> Result<(), CodecError> {
    if len != varint_len(v) {
        return Err(CodecError("non-canonical varint"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CombineMode;
    use jxp_webgraph::GraphBuilder;

    fn fragment() -> Subgraph {
        let mut b = GraphBuilder::new();
        b.add_edge(PageId(0), PageId(1));
        b.add_edge(PageId(1), PageId(5)); // external target
        let g = b.build();
        Subgraph::from_pages(&g, [PageId(0), PageId(1)])
    }

    #[test]
    fn assemble_captures_pages_and_world() {
        let graph = fragment();
        let mut world = WorldNode::new();
        world.upsert(&graph, PageId(9), 3, 0.2, [PageId(0)], CombineMode::TakeMax);
        let p = MeetingPayload::assemble(&graph, &[], &world, &[0.4, 0.3], 0.3, None, None);
        assert_eq!(p.num_pages(), 2);
        let pages: Vec<_> = p.pages().collect();
        assert_eq!(pages[0].page, PageId(0));
        assert_eq!(pages[0].succs, [PageId(1)]);
        assert_eq!(pages[1].succs, [PageId(5)]);
        let world: Vec<_> = p.world().collect();
        assert_eq!(world.len(), 1);
        assert_eq!(world[0].src, PageId(9));
        assert_eq!(world[0].targets, [PageId(0)]);
        assert_eq!(p.world_score, 0.3);
        assert_eq!(p.num_links(), 3);
    }

    #[test]
    fn wire_size_matches_accounting() {
        let graph = fragment();
        let world = WorldNode::new();
        let p = MeetingPayload::assemble(&graph, &[], &world, &[0.4, 0.3], 0.3, None, None);
        // Two pages, one succ each. A record is a 1-byte id (page 0
        // verbatim, then page 1 as gap 1), an 8-byte score, a 1-byte
        // out-degree, a 1-byte link count and one 1-byte link: 2 × 12 =
        // 24. World score, cut_for, the filter's presence byte and four
        // 1-byte section counts: 8 + 8 + 1 + 4 = 21.
        assert_eq!(p.wire_size(), 21 + 24);
        // Far ids cost their varint length, near ones one byte a gap:
        // page 1 000 000 is 3 bytes, page 1 000 001 one; the links
        // 1 000 000 and 1 000 200 are 3 and 2.
        let mut q = MeetingPayload {
            world_score: 0.3,
            ..MeetingPayload::default()
        };
        q.push_page(PageId(1_000_000), 0.1, 0, []);
        q.push_page(
            PageId(1_000_001),
            0.1,
            2,
            [PageId(1_000_000), PageId(1_000_200)],
        );
        assert_eq!(
            q.wire_size(),
            21 + (3 + 8 + 1 + 1) + (1 + 8 + 1 + 1 + 3 + 2)
        );
        // The sender's own filter rides along at its wire size.
        let filter = BloomFilter::new(128, 3);
        let q =
            MeetingPayload::assemble(&graph, &[], &world, &[0.4, 0.3], 0.3, Some(&filter), None);
        assert_eq!(q.wire_size(), p.wire_size() + filter.wire_size());
    }

    fn filter_of(ids: &[u32]) -> BloomFilter {
        let mut f = BloomFilter::new(256, 4);
        for &id in ids {
            f.insert(u64::from(id));
        }
        f
    }

    #[test]
    fn cut_payload_follows_the_record_rules() {
        // Local pages 0 → {1, 5}, 1 → {6}, 2 dangling, 3 → {7}.
        let graph = Subgraph::from_adjacency(vec![
            (PageId(0), vec![PageId(1), PageId(5)]),
            (PageId(1), vec![PageId(6)]),
            (PageId(2), vec![]),
            (PageId(3), vec![PageId(7)]),
        ]);
        let mut world = WorldNode::new();
        world.upsert(
            &graph,
            PageId(8),
            3,
            0.01,
            [PageId(0), PageId(3)],
            CombineMode::TakeMax,
        );
        world.upsert(
            &graph,
            PageId(9),
            2,
            0.01,
            [PageId(3)],
            CombineMode::TakeMax,
        );
        let scores = [0.1, 0.1, 0.1, 0.1];
        // The receiver holds pages 0 and 6.
        let filter = filter_of(&[0, 6]);
        for absent in [1u32, 2, 3, 5, 7] {
            assert!(!filter.contains(u64::from(absent)), "pick another id");
        }
        let topo = crate::local_pr::LocalTopology::build(&graph);
        let succ_local = topo.successor_indices();
        let p = MeetingPayload::assemble(
            &graph,
            succ_local,
            &world,
            &scores,
            0.6,
            None,
            Some(&filter),
        );
        p.validate().unwrap();
        assert_eq!(p.cut_for, filter.fingerprint());
        let page = |id: u32| p.pages().find(|pp| pp.page == PageId(id));
        // 0: the id itself hits; no successor does.
        assert_eq!(page(0).unwrap().succs, []);
        assert_eq!(page(0).unwrap().out_degree, 2);
        // 1: linked to 6.
        assert_eq!(page(1).unwrap().succs, [PageId(6)]);
        // 2: dangling pages always travel whole.
        assert_eq!(page(2).unwrap().out_degree, 0);
        // 3: nothing of it concerns the receiver — a bare id.
        assert!(page(3).is_none());
        assert_eq!(p.unlinked, vec![PageId(3)]);
        assert_eq!(p.num_pages(), 4);
        // World entries keep the targets that hit; 9 → {3} has none.
        let relayed: Vec<_> = p.world().collect();
        assert_eq!(relayed.len(), 1);
        assert_eq!(relayed[0].src, PageId(8));
        assert_eq!(relayed[0].out_degree, 3);
        assert_eq!(relayed[0].targets, [PageId(0)]);
        assert_eq!(p.num_links(), 2);
        // The uncut payload has none of this.
        let whole = MeetingPayload::assemble(&graph, &[], &world, &scores, 0.6, None, None);
        assert_eq!((whole.cut_for, whole.unlinked.len()), (0, 0));
        assert_eq!((whole.pages().len(), whole.world().len()), (4, 2));
        assert!(p.wire_size() < whole.wire_size());
    }

    #[test]
    fn world_entries_are_sorted() {
        let graph = fragment();
        let mut world = WorldNode::new();
        for src in [9u32, 3, 7] {
            world.upsert(
                &graph,
                PageId(src),
                1,
                0.1,
                [PageId(0)],
                CombineMode::TakeMax,
            );
        }
        let p = MeetingPayload::assemble(&graph, &[], &world, &[0.4, 0.3], 0.3, None, None);
        let srcs: Vec<u32> = p.world().map(|w| w.src.0).collect();
        assert_eq!(srcs, vec![3, 7, 9]);
    }

    #[test]
    fn honest_payload_validates() {
        let graph = fragment();
        let mut world = WorldNode::new();
        world.upsert(&graph, PageId(9), 3, 0.2, [PageId(0)], CombineMode::TakeMax);
        world.upsert_dangling(PageId(11), 0.05, CombineMode::TakeMax);
        let p = MeetingPayload::assemble(&graph, &[], &world, &[0.4, 0.3], 0.3, None, None);
        p.validate().unwrap();
    }

    /// Point `record` at `ids`, appended to the arena as they are: how a
    /// test forges the lists the push methods refuse.
    fn forge(links: &mut Vec<PageId>, record: &mut Record, ids: &[u32]) {
        record.start = offset(links.len());
        links.extend(ids.iter().map(|&t| PageId(t)));
        record.end = offset(links.len());
    }

    #[test]
    fn malicious_payloads_are_rejected() {
        let graph = fragment();
        let world = WorldNode::new();
        let honest = MeetingPayload::assemble(&graph, &[], &world, &[0.4, 0.3], 0.3, None, None);

        // Inflated single score.
        let mut evil = honest.clone();
        evil.pages[0].score = 5.0;
        assert!(evil.validate().is_err());

        // NaN score.
        let mut evil = honest.clone();
        evil.pages[1].score = f64::NAN;
        assert!(evil.validate().is_err());

        // Claims more total mass than exists.
        let mut evil = honest.clone();
        evil.pages[0].score = 0.9;
        evil.pages[1].score = 0.9;
        assert!(evil.validate().is_err());

        // Duplicate page records.
        let mut evil = honest.clone();
        let dup = evil.pages[0];
        evil.pages.insert(1, dup);
        assert!(evil.validate().is_err());

        // Out-links must be strictly ascending.
        let mut evil = honest.clone();
        evil.pages[0].out_degree = 2;
        forge(&mut evil.links, &mut evil.pages[0], &[5, 1]);
        let why = evil.validate().unwrap_err();
        assert!(why.contains("not sorted"), "{why}");
        forge(&mut evil.links, &mut evil.pages[0], &[1, 1]);
        assert!(evil.validate().unwrap_err().contains("not sorted"));
        forge(&mut evil.links, &mut evil.pages[0], &[1, 5]);
        evil.validate().unwrap();

        // More out-links than the stated out-degree.
        let mut evil = honest.clone();
        forge(&mut evil.links, &mut evil.pages[0], &[1, 7]);
        assert!(evil.validate().is_err());

        // "Uncut", yet links or whole pages are missing.
        let mut evil = honest.clone();
        forge(&mut evil.links, &mut evil.pages[0], &[]);
        assert!(evil.validate().is_err());
        let mut evil = honest.clone();
        evil.unlinked.push(PageId(4));
        assert!(evil.validate().is_err());

        // Bare ids out of order.
        let mut evil = honest.clone();
        evil.cut_for = 9;
        evil.unlinked = vec![PageId(6), PageId(4)];
        assert!(evil.validate().is_err());
        evil.unlinked = vec![PageId(4), PageId(6)];
        evil.validate().unwrap();

        // World entry with impossible structure.
        let mut evil = honest.clone();
        evil.push_world(PageId(9), 1, 0.1, [PageId(0), PageId(1)]);
        assert!(evil.validate().is_err());

        // World records and their targets must be strictly ascending.
        let relayed = |links: &mut Vec<PageId>, &(src, ref targets): &(u32, Vec<u32>)| {
            let mut record = Record {
                id: PageId(src),
                score: 0.01,
                out_degree: 3,
                start: 0,
                end: 0,
            };
            forge(links, &mut record, targets);
            record
        };
        let mut evil = honest.clone();
        let forged = |evil: &mut MeetingPayload, records: &[(u32, Vec<u32>)]| {
            evil.world = records
                .iter()
                .map(|r| relayed(&mut evil.links, r))
                .collect();
        };
        forged(&mut evil, &[(8, vec![0]), (9, vec![0, 1])]);
        evil.validate().unwrap();
        for world in [
            vec![(9, vec![0]), (8, vec![0])],
            vec![(9, vec![0]), (9, vec![1])],
            vec![(9, vec![1, 0])],
            vec![(9, vec![1, 1])],
        ] {
            forged(&mut evil, &world);
            let why = evil.validate().unwrap_err();
            assert!(why.contains("not sorted"), "{why}");
        }

        // Dangling entries must be strictly ascending.
        let mut evil = honest.clone();
        let dangling = |ids: &[u32]| ids.iter().map(|&p| (PageId(p), 0.01)).collect::<Vec<_>>();
        evil.world_dangling = dangling(&[7, 11]);
        evil.validate().unwrap();
        for ids in [[11, 7], [7, 7]] {
            evil.world_dangling = dangling(&ids);
            let why = evil.validate().unwrap_err();
            assert!(why.contains("not sorted"), "{why}");
        }

        // Bad world score.
        let mut evil = honest.clone();
        evil.world_score = -0.2;
        assert!(evil.validate().is_err());
    }

    #[test]
    fn push_methods_keep_records_and_links_ascending() {
        let mut p = MeetingPayload::default();
        p.push_page(PageId(2), 0.1, 2, [PageId(3), PageId(8)]);
        // The next record's links start afresh.
        p.push_world(PageId(5), 4, 0.01, [PageId(1)]);
        p.push_world(PageId(6), 1, 0.01, []);
        let pages: Vec<_> = p.pages().collect();
        let world: Vec<_> = p.world().collect();
        assert_eq!(pages[0].succs, [PageId(3), PageId(8)]);
        assert_eq!(world[0].targets, [PageId(1)]);
        assert_eq!(world[1].targets, []);
        assert_eq!(p.num_links(), 3);
        p.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn push_refuses_a_record_out_of_order() {
        let mut p = MeetingPayload::default();
        p.push_world(PageId(6), 1, 0.01, []);
        p.push_world(PageId(6), 1, 0.01, []);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn push_refuses_a_link_out_of_order() {
        let mut p = MeetingPayload::default();
        p.push_page(PageId(0), 0.1, 2, [PageId(4), PageId(4)]);
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn mismatched_score_list_panics() {
        let graph = fragment();
        let world = WorldNode::new();
        let _ = MeetingPayload::assemble(&graph, &[], &world, &[0.4], 0.3, None, None);
    }
}
