//! Varint and delta-varint encoding of adjacency lists.
//!
//! Degrees and adjacency are stored as LEB128 varints. An adjacency
//! list (strictly increasing node ids, the invariant every sorted
//! deduplicated CSR list satisfies) is delta-encoded: the first id is
//! written verbatim, every later id as the gap to its predecessor
//! (always ≥ 1). Web-graph successor lists cluster around their source
//! node, so gaps are small and most ids cost one byte instead of four.
//!
//! Decoding validates everything it touches: overlong varints, values
//! that do not fit `u32`, zero gaps and truncated input are all
//! [`SegStoreError::Corrupt`] — never a panic — so a flipped byte that
//! survives CRC by luck still cannot produce an out-of-contract list.

use crate::SegStoreError;

/// Append `v` as a LEB128 varint.
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

/// Read one LEB128 varint at `*pos`, advancing it.
///
/// Fast path: when eight bytes are in reach and the varint ends among
/// them (every id and degree the writer emits does), the length comes
/// from one bit scan and the 7-bit groups are squeezed together with
/// three mask-and-shift steps — no per-byte loop, no branch on the
/// length. Anything else (the last few bytes of a buffer, nine- and
/// ten-byte encodings, malformed input) takes [`get_varint_bytewise`],
/// which accepts and rejects exactly what this function always has.
#[inline]
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, SegStoreError> {
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
fn get_varint_bytewise(bytes: &[u8], pos: &mut usize) -> Result<u64, SegStoreError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = bytes
            .get(*pos)
            .ok_or_else(|| SegStoreError::corrupt("truncated varint"))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(SegStoreError::corrupt("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(SegStoreError::corrupt("varint too long"));
        }
    }
}

/// Advance `*pos` past `count` varints without decoding them, by
/// counting terminator bytes (high bit clear) a word at a time.
///
/// Nothing is validated beyond "`count` varints end inside `bytes`":
/// this is for sections a container CRC has already vouched for and
/// whose values the caller does not want.
pub fn skip_varints(bytes: &[u8], pos: &mut usize, count: usize) -> Result<(), SegStoreError> {
    let tail = bytes
        .get(*pos..)
        .ok_or_else(|| SegStoreError::corrupt("truncated varint"))?;
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
        return Err(SegStoreError::corrupt("truncated varint"));
    }
    *pos += at;
    Ok(())
}

/// Append a strictly-increasing id list as first-value + gaps.
///
/// # Panics
/// Debug-asserts the strict-increase invariant; the callers (segment
/// encoder) always sort and deduplicate first.
pub fn put_adjacency(out: &mut Vec<u8>, list: &[u32]) {
    debug_assert!(
        list.windows(2).all(|w| w[0] < w[1]),
        "adjacency not strictly increasing"
    );
    let mut prev = 0u32;
    for (i, &id) in list.iter().enumerate() {
        if i == 0 {
            put_varint(out, u64::from(id));
        } else {
            put_varint(out, u64::from(id - prev));
        }
        prev = id;
    }
}

/// Decode `out.len()` ids written by [`put_adjacency`] into `out`,
/// re-validating the strict-increase invariant.
#[inline]
pub fn get_adjacency(bytes: &[u8], pos: &mut usize, out: &mut [u32]) -> Result<(), SegStoreError> {
    // `prev` is the last id; the list's first value is a gap from
    // nothing, the only one allowed to be zero.
    let mut prev: u64 = 0;
    for (i, slot) in out.iter_mut().enumerate() {
        let raw = get_varint(bytes, pos)?;
        if raw == 0 && i > 0 {
            return Err(SegStoreError::corrupt("zero gap in adjacency list"));
        }
        if raw > u64::from(u32::MAX) - prev {
            return Err(SegStoreError::corrupt("adjacency id exceeds u32"));
        }
        prev += raw;
        *slot = prev as u32;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut pos = 0;
            let mut back = vec![0; list.len()];
            get_adjacency(&buf, &mut pos, &mut back).unwrap();
            assert_eq!(back, list);
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
        // First value above u32.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::from(u32::MAX) + 1);
        assert!(get_adjacency(&buf, &mut 0, &mut [0; 1]).is_err());
        // Gap pushing past u32, by one and by a whole u64.
        for gap in [1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, u64::from(u32::MAX));
            put_varint(&mut buf, gap);
            assert!(get_adjacency(&buf, &mut 0, &mut [0; 2]).is_err());
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
}
