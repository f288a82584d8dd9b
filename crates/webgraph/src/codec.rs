//! Varints and gap-coded id lists: the one integer codec of the repo.
//!
//! Counts and degrees are LEB128 varints. A strictly increasing id list
//! (a sorted, deduplicated adjacency list; a section of sorted page
//! records) is gap-coded: the first id is written verbatim, every later
//! id as the gap to its predecessor (always ≥ 1). Web-graph successor
//! lists cluster around their source node, so gaps are small and most
//! ids cost one byte instead of four.
//!
//! Two formats are written with these functions: `jxp-segstore`'s `JXPS`
//! segment adjacency and `jxp-wire`'s meeting body. Each writer has a
//! length function beside it ([`varint_len`], [`gaps_len`]) that counts
//! exactly the bytes the writer appends, so a size can be known without
//! encoding.
//!
//! Decoding validates everything it touches: overlong varints, values
//! that do not fit `u32`, zero gaps and truncated input are all a
//! [`CodecError`], never a panic, so a flipped byte that survives a CRC
//! by luck still cannot produce an out-of-contract list.

/// Why a byte string does not decode. The text names the violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for CodecError {}

/// Append `v` as a LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put_varint`] appends for `v`: one per started 7-bit group.
#[inline]
pub const fn varint_len(v: u64) -> usize {
    // ⌈bits / 7⌉ without a division: 9/64 is close enough to 1/7 that
    // `((bits − 1) · 9 + 73) / 64` is exact for every bit length 1..=64.
    let top_bit = 63 - (v | 1).leading_zeros() as usize;
    (top_bit * 9 + 73) >> 6
}

/// Read one LEB128 varint at `*pos`, advancing it.
///
/// Fast path: when eight bytes are in reach and the varint ends among
/// them (every id and degree the writers emit does), the length comes
/// from one bit scan and the 7-bit groups are squeezed together with
/// three mask-and-shift steps — no per-byte loop, no branch on the
/// length. Anything else (the last few bytes of a buffer, nine- and
/// ten-byte encodings, malformed input) takes [`get_varint_bytewise`],
/// which accepts and rejects exactly what this function always has.
#[inline]
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    if let Some(word) = bytes.get(*pos..).and_then(|tail| tail.first_chunk::<8>()) {
        let w = u64::from_le_bytes(*word);
        let stops = !w & 0x8080_8080_8080_8080;
        if stops != 0 {
            let bits = stops.trailing_zeros() + 1; // 8 × encoded length
            let w = w & (u64::MAX >> (64 - bits));
            let w = ((w & 0x7f00_7f00_7f00_7f00) >> 1) | (w & 0x007f_007f_007f_007f);
            let w = ((w & 0x3fff_0000_3fff_0000) >> 2) | (w & 0x0000_3fff_0000_3fff);
            let w = ((w & 0x0fff_ffff_0000_0000) >> 4) | (w & 0x0000_0000_0fff_ffff);
            *pos += (bits / 8) as usize;
            return Ok(w);
        }
    }
    get_varint_bytewise(bytes, pos)
}

/// The byte-at-a-time LEB128 reader: the definition of what decodes.
///
/// Kept out of line so [`get_varint`] stays small enough to inline into
/// other crates' decode loops (segment adjacency, the meeting body).
#[cold]
#[inline(never)]
fn get_varint_bytewise(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(CodecError("truncated varint"))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(CodecError("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError("varint too long"));
        }
    }
}

/// Advance `*pos` past `count` varints without decoding them, by
/// counting terminator bytes (high bit clear) a word at a time.
///
/// Nothing is validated beyond "`count` varints end inside `bytes`":
/// this is for sections a container CRC has already vouched for and
/// whose values the caller does not want.
pub fn skip_varints(bytes: &[u8], pos: &mut usize, count: usize) -> Result<(), CodecError> {
    let tail = bytes.get(*pos..).ok_or(CodecError("truncated varint"))?;
    let mut left = count;
    let mut at = 0usize;
    for word in tail.chunks_exact(8) {
        let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        let stops = (!w & 0x8080_8080_8080_8080).count_ones() as usize;
        if stops >= left {
            break; // the last wanted terminator is in this word
        }
        left -= stops;
        at += 8;
    }
    for &byte in &tail[at..] {
        if left == 0 {
            break;
        }
        at += 1;
        left -= usize::from(byte & 0x80 == 0);
    }
    if left != 0 {
        return Err(CodecError("truncated varint"));
    }
    *pos += at;
    Ok(())
}

/// Append a strictly increasing id list as first value + gaps.
///
/// # Panics
/// Debug-asserts the strict-increase invariant; the callers (segment
/// encoder, meeting-body encoder) always hold sorted, deduplicated ids.
pub fn put_gaps(out: &mut Vec<u8>, ids: impl IntoIterator<Item = u32>) {
    let mut ids = ids.into_iter();
    let Some(mut prev) = ids.next() else {
        return;
    };
    put_varint(out, u64::from(prev));
    for id in ids {
        put_gap(out, Some(prev), id);
        prev = id;
    }
}

/// Append one id of a gap-coded list: `prev` is the id before it,
/// `None` for the list's first. For lists whose ids are interleaved
/// with other fields (the records of a meeting-body section).
///
/// # Panics
/// Debug-asserts `prev < id`.
#[inline]
pub fn put_gap(out: &mut Vec<u8>, prev: Option<u32>, id: u32) {
    put_varint(out, u64::from(gap(prev, id)));
}

/// Bytes [`put_gaps`] appends for `ids`, and so the bytes a run of
/// [`put_gap`] calls over `ids` appends.
pub fn gaps_len(ids: impl IntoIterator<Item = u32>) -> usize {
    let mut ids = ids.into_iter();
    let Some(mut prev) = ids.next() else {
        return 0;
    };
    let mut len = varint_len(u64::from(prev));
    for id in ids {
        len += varint_len(u64::from(gap(Some(prev), id)));
        prev = id;
    }
    len
}

/// What a gap-coded list writes for `id` after `prev`: the id itself
/// first, then its distance from the id before it.
#[inline]
fn gap(prev: Option<u32>, id: u32) -> u32 {
    match prev {
        None => id,
        Some(prev) => {
            debug_assert!(prev < id, "id list not strictly increasing");
            id.wrapping_sub(prev)
        }
    }
}

/// [`put_gaps`] over a slice: how `JXPS` segments store adjacency.
pub fn put_adjacency(out: &mut Vec<u8>, list: &[u32]) {
    put_gaps(out, list.iter().copied());
}

/// Read one id of a gap-coded list: `prev` is the id before it, `None`
/// for the list's first (the only one whose gap may be zero).
#[inline]
pub fn get_gap(bytes: &[u8], pos: &mut usize, prev: Option<u32>) -> Result<u32, CodecError> {
    let raw = get_varint(bytes, pos)?;
    let base = match prev {
        None => 0,
        Some(_) if raw == 0 => return Err(CodecError("zero gap in id list")),
        Some(prev) => u64::from(prev),
    };
    if raw > u64::from(u32::MAX) - base {
        return Err(CodecError("id exceeds u32"));
    }
    Ok((base + raw) as u32)
}

/// Decode `out.len()` ids written by [`put_adjacency`] into `out`,
/// re-validating the strict-increase invariant.
#[inline]
pub fn get_adjacency(bytes: &[u8], pos: &mut usize, out: &mut [u32]) -> Result<(), CodecError> {
    // `prev` is the last id; the list's first value is a gap from
    // nothing, the only one allowed to be zero.
    let mut prev: u64 = 0;
    for (i, slot) in out.iter_mut().enumerate() {
        let raw = get_varint(bytes, pos)?;
        if raw == 0 && i > 0 {
            return Err(CodecError("zero gap in adjacency list"));
        }
        if raw > u64::from(u32::MAX) - prev {
            return Err(CodecError("adjacency id exceeds u32"));
        }
        prev += raw;
        *slot = prev as u32;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn roundtrip_one(v: u64) {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            roundtrip_one(v);
        }
    }

    #[test]
    fn varint_len_is_what_put_varint_writes_at_every_seven_bit_boundary() {
        let mut values = vec![0, u64::MAX];
        for k in 1..=9 {
            let edge = 1u64 << (7 * k);
            values.extend([edge - 1, edge]);
        }
        for v in values {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "v = {v:#x}");
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert!(get_varint(&[], &mut 0).is_err());
        assert!(get_varint(&[0x80], &mut 0).is_err());
        assert!(get_varint(&[0x80; 9], &mut 0).is_err());
        // 10 bytes with a final byte > 1 overflows u64.
        let mut overlong = vec![0xffu8; 9];
        overlong.push(0x02);
        assert!(get_varint(&overlong, &mut 0).is_err());
        // 11 bytes never terminate in time, however much input follows.
        assert!(get_varint(&[0x80; 32], &mut 0).is_err());
        // A position past the end is truncation, not a panic.
        assert!(get_varint(&[0x01], &mut 5).is_err());
    }

    #[test]
    fn word_path_and_bytewise_path_agree_on_every_length_and_padding() {
        // Every encoded length 1..=10, with 0..=9 bytes of padding
        // behind it: fewer than 8 bytes in reach forces the bytewise
        // path, more lets the word path run; 9- and 10-byte encodings
        // always fall through. Both must return the value and consume
        // exactly the encoding.
        for len in 1..=10u32 {
            let v = if len == 10 {
                u64::MAX
            } else {
                (1u64 << (7 * len)) - 1
            };
            for pad in 0..=9 {
                let mut buf = Vec::new();
                put_varint(&mut buf, v);
                assert_eq!(buf.len(), len as usize);
                buf.extend(std::iter::repeat_n(0xffu8, pad));
                let mut fast = 0;
                let mut slow = 0;
                assert_eq!(
                    get_varint(&buf, &mut fast).unwrap(),
                    v,
                    "len {len} pad {pad}"
                );
                assert_eq!(get_varint_bytewise(&buf, &mut slow).unwrap(), v);
                assert_eq!((fast, slow), (len as usize, len as usize));
            }
        }
        // Non-canonical (zero-padded) encodings decode alike on both paths.
        let padded = [0x85, 0x80, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff];
        let (mut fast, mut slow) = (0, 0);
        assert_eq!(get_varint(&padded, &mut fast).unwrap(), 5);
        assert_eq!(get_varint_bytewise(&padded, &mut slow).unwrap(), 5);
        assert_eq!((fast, slow), (3, 3));
    }

    #[test]
    fn skip_lands_where_decoding_would() {
        let values: Vec<u64> = (0..40u64).map(|i| (i * i * i * 977) % 3_000_000).collect();
        let mut buf = Vec::new();
        for &v in &values {
            put_varint(&mut buf, v);
        }
        for start in [0usize, 1, 7, 13] {
            for count in 0..=values.len() - start {
                let mut want = 0;
                for _ in 0..start {
                    get_varint(&buf, &mut want).unwrap();
                }
                let mut got = want;
                for _ in 0..count {
                    get_varint(&buf, &mut want).unwrap();
                }
                skip_varints(&buf, &mut got, count).unwrap();
                assert_eq!(got, want, "start {start} count {count}");
            }
        }
        // One more than the buffer holds is truncation; so is a
        // dangling continuation byte, and a position past the end.
        assert!(skip_varints(&buf, &mut 0, values.len() + 1).is_err());
        assert!(skip_varints(&[0x01, 0x80], &mut 0, 2).is_err());
        assert!(skip_varints(&[0x01], &mut 2, 0).is_err());
    }

    #[test]
    fn adjacency_round_trips() {
        for list in [
            vec![],
            vec![0],
            vec![7],
            vec![0, 1, 2, 3],
            vec![5, 1000, 1001, 1_000_000, u32::MAX],
        ] {
            let mut buf = Vec::new();
            put_adjacency(&mut buf, &list);
            assert_eq!(gaps_len(list.iter().copied()), buf.len());
            let mut pos = 0;
            let mut back = vec![0; list.len()];
            get_adjacency(&buf, &mut pos, &mut back).unwrap();
            assert_eq!(back, list);
            assert_eq!(pos, buf.len());
            // One id at a time reads the same list.
            let (mut pos, mut prev) = (0, None);
            for &want in &list {
                let id = get_gap(&buf, &mut pos, prev).unwrap();
                assert_eq!(id, want);
                prev = Some(id);
            }
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn adjacency_rejects_zero_gap_and_overflow() {
        // Hand-encode [3, 3]: first 3, gap 0.
        let mut buf = Vec::new();
        put_varint(&mut buf, 3);
        put_varint(&mut buf, 0);
        assert!(get_adjacency(&buf, &mut 0, &mut [0; 2]).is_err());
        assert_eq!(
            get_gap(&buf, &mut 1, Some(3)),
            Err(CodecError("zero gap in id list"))
        );
        // First value above u32.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::from(u32::MAX) + 1);
        assert!(get_adjacency(&buf, &mut 0, &mut [0; 1]).is_err());
        assert_eq!(
            get_gap(&buf, &mut 0, None),
            Err(CodecError("id exceeds u32"))
        );
        // Gap pushing past u32, by one and by a whole u64.
        for gap in [1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, u64::from(u32::MAX));
            put_varint(&mut buf, gap);
            assert!(get_adjacency(&buf, &mut 0, &mut [0; 2]).is_err());
            let mut pos = 0;
            let first = get_gap(&buf, &mut pos, None).unwrap();
            assert!(get_gap(&buf, &mut pos, Some(first)).is_err());
        }
    }

    #[test]
    fn nearby_ids_compress_to_single_bytes() {
        let list: Vec<u32> = (1_000_000..1_000_100).collect();
        let mut buf = Vec::new();
        put_adjacency(&mut buf, &list);
        // First id costs a few bytes, every gap of 1 costs exactly one.
        assert!(buf.len() <= 4 + (list.len() - 1), "len {}", buf.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn gap_length_is_what_the_writer_writes(raw in vec(0u32..=u32::MAX, 0..64), spread in 0u32..32) {
            // Sorted and deduplicated, then squeezed toward zero by a
            // random shift so small gaps (one-byte varints) are common.
            let mut list: Vec<u32> = raw.into_iter().map(|v| v >> spread).collect();
            list.sort_unstable();
            list.dedup();
            let mut buf = Vec::new();
            put_adjacency(&mut buf, &list);
            prop_assert_eq!(gaps_len(list.iter().copied()), buf.len());
            let mut by_iter = Vec::new();
            put_gaps(&mut by_iter, list.iter().copied());
            prop_assert_eq!(by_iter, buf);
        }
    }
}
