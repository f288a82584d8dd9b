//! Property tests for the delta-varint adjacency codec and the segment
//! container: arbitrary sorted successor lists (including empty and
//! dangling nodes, single-node segments) must round-trip exactly, and
//! varints must survive any u64.

use jxp_segstore::codec::{get_adjacency, get_varint, put_adjacency, put_varint, skip_varints};
use jxp_segstore::segment::{decode_segment, encode_segment};
use jxp_segstore::Directions;
use proptest::collection::vec;
use proptest::prelude::*;

const ALL_SETS: [Directions; 4] = [
    Directions::NONE,
    Directions::FWD,
    Directions::REV,
    Directions::BOTH,
];

/// Strictly-increasing u32 lists, empty lists included.
fn sorted_lists() -> impl Strategy<Value = Vec<u32>> {
    vec(0u32..=u32::MAX, 0..64).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

/// A whole segment's worth of per-node lists: up to 16 nodes, each
/// with an arbitrary sorted list (some empty — dangling nodes — and
/// the one-node-segment case when the outer vec has length 1).
fn per_node_lists() -> impl Strategy<Value = Vec<Vec<u32>>> {
    vec(sorted_lists(), 1..17)
}

fn to_csr(lists: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32];
    let mut adj = Vec::new();
    for l in lists {
        adj.extend_from_slice(l);
        off.push(adj.len() as u32);
    }
    (off, adj)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn varint_round_trips(v in 0u64..u64::MAX) {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn adjacency_round_trips(list in sorted_lists()) {
        let mut buf = Vec::new();
        put_adjacency(&mut buf, &list);
        let mut pos = 0;
        let mut back = vec![0u32; list.len()];
        get_adjacency(&buf, &mut pos, &mut back).unwrap();
        prop_assert_eq!(back, list);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn adjacency_rejects_every_truncation(list in sorted_lists()) {
        // The shim has no prop_assume; skip the vacuous empty case inline.
        if !list.is_empty() {
            let mut buf = Vec::new();
            put_adjacency(&mut buf, &list);
            // Every proper prefix lacks at least the last terminator.
            let mut out = vec![0u32; list.len()];
            for cut in 0..buf.len() {
                prop_assert!(get_adjacency(&buf[..cut], &mut 0, &mut out).is_err(), "cut {cut}");
                prop_assert!(skip_varints(&buf[..cut], &mut 0, list.len()).is_err(), "skip cut {cut}");
            }
        }
    }

    #[test]
    fn segment_round_trips(fwd in per_node_lists(), rev_seed in per_node_lists(), start in 0u64..1_000_000) {
        // fwd and rev over the same node count; pad/trim rev to match.
        let n = fwd.len();
        let mut rev = rev_seed;
        rev.resize(n, Vec::new());
        let (fwd_off, fwd_adj) = to_csr(&fwd);
        let (rev_off, rev_adj) = to_csr(&rev);
        let bytes = encode_segment(7, start, &fwd_off, &fwd_adj, &rev_off, &rev_adj);
        let seg = decode_segment(&bytes, Directions::BOTH).unwrap();
        prop_assert_eq!(seg.num_nodes(), n);
        prop_assert_eq!(seg.start, start);
        for i in 0..n {
            prop_assert_eq!(seg.successors_at(i), &fwd[i][..]);
            prop_assert_eq!(seg.predecessors_at(i), &rev[i][..]);
        }
        // Each direction alone decodes to the same lists and degrees.
        let f = decode_segment(&bytes, Directions::FWD).unwrap();
        let r = decode_segment(&bytes, Directions::REV).unwrap();
        let d = decode_segment(&bytes, Directions::NONE).unwrap();
        prop_assert_eq!((&f.fwd_adj, &r.rev_adj), (&seg.fwd_adj, &seg.rev_adj));
        prop_assert!(f.rev_adj.is_empty() && r.fwd_adj.is_empty());
        prop_assert!(d.fwd_adj.is_empty() && d.rev_adj.is_empty());
        for part in [&f, &r, &d] {
            prop_assert_eq!((&part.fwd_off, &part.rev_off), (&seg.fwd_off, &seg.rev_off));
        }
    }

    #[test]
    fn segment_truncations_never_decode(fwd in per_node_lists(), rev in per_node_lists(), cut in 0usize..1_000_000) {
        let n = fwd.len().min(rev.len());
        let (fwd_off, fwd_adj) = to_csr(&fwd[..n]);
        let (rev_off, rev_adj) = to_csr(&rev[..n]);
        let bytes = encode_segment(0, 0, &fwd_off, &fwd_adj, &rev_off, &rev_adj);
        let cut = cut % bytes.len();
        for want in ALL_SETS {
            prop_assert!(decode_segment(&bytes[..cut], want).is_err(), "cut {cut} {want:?}");
        }
    }

    #[test]
    fn segment_byte_flips_never_decode(fwd in per_node_lists(), pos in 0usize..1_000_000, mask in 1u8..=255u8) {
        let (fwd_off, fwd_adj) = to_csr(&fwd);
        let rev_off = vec![0u32; fwd_off.len()];
        let bytes = encode_segment(0, 0, &fwd_off, &fwd_adj, &rev_off, &[]);
        let mut bad = bytes.clone();
        let i = pos % bad.len();
        bad[i] ^= mask;
        // Whether the flipped byte sits in a decoded or a skipped section.
        for want in ALL_SETS {
            prop_assert!(decode_segment(&bad, want).is_err(), "flip {mask:#x} at {i} {want:?}");
        }
    }
}
