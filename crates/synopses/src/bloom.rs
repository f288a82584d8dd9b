//! Bloom filters (Bloom 1970; cited by the paper as synopsis fundamentals).
//!
//! Used in this reproduction as an *alternative* overlap synopsis to MIPs:
//! peers could ship a Bloom filter of their local page set and estimate
//! intersections via bit-level statistics. The integration tests compare
//! its estimates against MIPs on identical inputs.

use crate::splitmix64;

/// A fixed-size Bloom filter over `u64` keys with `k` hash functions
/// derived by double hashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: u32,
    inserted: u64,
}

/// The bit positions of `key` in a filter of `num_bits` bits. Takes the
/// shape by value, not the filter, so [`BloomFilter::insert`] can set
/// bits while iterating.
#[inline]
fn positions(key: u64, num_bits: usize, num_hashes: u32) -> impl Iterator<Item = usize> {
    let h1 = splitmix64(key);
    let h2 = splitmix64(h1) | 1; // odd step, full-period double hashing
    let m = num_bits as u64;
    (0..num_hashes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
}

impl BloomFilter {
    /// Create a filter with `num_bits` bits (rounded up to a multiple of
    /// 64) and `num_hashes` hash functions.
    ///
    /// # Panics
    /// Panics if `num_bits == 0` or `num_hashes == 0`.
    pub fn new(num_bits: usize, num_hashes: u32) -> Self {
        assert!(num_bits > 0, "bloom filter needs at least one bit");
        assert!(num_hashes > 0, "bloom filter needs at least one hash");
        let words = num_bits.div_ceil(64);
        BloomFilter {
            bits: vec![0; words],
            num_bits: words * 64,
            num_hashes,
            inserted: 0,
        }
    }

    /// Create a filter sized for `expected` insertions at roughly the given
    /// false-positive rate, using the standard formulas
    /// `m = −n·ln(p)/ln(2)²` and `k = (m/n)·ln(2)`.
    pub fn with_capacity(expected: usize, fp_rate: f64) -> Self {
        assert!(
            fp_rate > 0.0 && fp_rate < 1.0,
            "false-positive rate must be in (0, 1)"
        );
        let n = expected.max(1) as f64;
        let m = (-n * fp_rate.ln() / (2f64.ln().powi(2))).ceil().max(64.0) as usize;
        let k = ((m as f64 / n) * 2f64.ln()).round().max(1.0) as u32;
        BloomFilter::new(m, k)
    }

    /// Insert `key`.
    pub fn insert(&mut self, key: u64) {
        let (num_bits, num_hashes) = (self.num_bits, self.num_hashes);
        for p in positions(key, num_bits, num_hashes) {
            self.bits[p / 64] |= 1u64 << (p % 64);
        }
        self.inserted += 1;
    }

    /// Whether `key` *may* be in the set (false positives possible, false
    /// negatives impossible).
    pub fn contains(&self, key: u64) -> bool {
        positions(key, self.num_bits, self.num_hashes)
            .all(|p| self.bits[p / 64] & (1u64 << (p % 64)) != 0)
    }

    /// Number of bits in the filter.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of set bits.
    pub fn ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of insert calls (may double-count duplicates).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Wire size in bytes: the bit words plus word-count, hash-count and
    /// insert-count fields — exactly the length of the `jxp-wire` encoding.
    pub fn wire_size(&self) -> usize {
        4 + 4 + 8 + self.bits.len() * 8
    }

    /// The bit words (the filter's wire representation, together with
    /// [`Self::num_hashes`] and [`Self::inserted`]).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }

    /// A 64-bit digest of the filter's shape and bits, never `0`: a
    /// meeting payload names by it the filter it was cut to, and `0`
    /// there means "uncut". Equal filters have equal fingerprints;
    /// [`Self::inserted`] does not enter it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix64(u64::from(self.num_hashes) ^ ((self.bits.len() as u64) << 32));
        for &w in &self.bits {
            h = splitmix64(h ^ w);
        }
        h.max(1)
    }

    /// Reassemble a filter from its wire representation. Used by
    /// `jxp-wire` when decoding.
    ///
    /// # Panics
    /// Panics if `bits` is empty or `num_hashes == 0`.
    pub fn from_parts(bits: Vec<u64>, num_hashes: u32, inserted: u64) -> Self {
        assert!(!bits.is_empty(), "bloom filter needs at least one bit");
        assert!(num_hashes > 0, "bloom filter needs at least one hash");
        let num_bits = bits.len() * 64;
        BloomFilter {
            bits,
            num_bits,
            num_hashes,
            inserted,
        }
    }

    /// Estimate the number of *distinct* inserted keys from the fill
    /// level: `n̂ = −(m/k)·ln(1 − X/m)` with `X` set bits.
    pub fn estimate_cardinality(&self) -> f64 {
        let x = self.ones() as f64;
        let m = self.num_bits as f64;
        if x >= m {
            return f64::INFINITY;
        }
        -(m / self.num_hashes as f64) * (1.0 - x / m).ln()
    }

    /// Union with a same-shaped filter (bitwise OR).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn union(&self, other: &BloomFilter) -> BloomFilter {
        assert_eq!(self.num_bits, other.num_bits, "bloom shape mismatch");
        assert_eq!(self.num_hashes, other.num_hashes, "bloom shape mismatch");
        BloomFilter {
            bits: self
                .bits
                .iter()
                .zip(other.bits.iter())
                .map(|(a, b)| a | b)
                .collect(),
            num_bits: self.num_bits,
            num_hashes: self.num_hashes,
            inserted: self.inserted + other.inserted,
        }
    }

    /// Estimate `|A ∩ B|` by inclusion–exclusion on the cardinality
    /// estimates: `|A| + |B| − |A ∪ B|`, clamped at 0.
    pub fn estimate_intersection(&self, other: &BloomFilter) -> f64 {
        let a = self.estimate_cardinality();
        let b = other.estimate_cardinality();
        let u = self.union(other).estimate_cardinality();
        (a + b - u).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for x in 0..1000u64 {
            f.insert(x);
        }
        assert!((0..1000u64).all(|x| f.contains(x)));
    }

    #[test]
    fn false_positive_rate_is_roughly_as_configured() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for x in 0..1000u64 {
            f.insert(x);
        }
        let fps = (10_000..30_000u64).filter(|&x| f.contains(x)).count();
        let rate = fps as f64 / 20_000.0;
        assert!(rate < 0.05, "false-positive rate {rate}");
    }

    #[test]
    fn cardinality_estimate() {
        let mut f = BloomFilter::with_capacity(5000, 0.01);
        for x in 0..3000u64 {
            f.insert(x);
        }
        let est = f.estimate_cardinality();
        assert!((est - 3000.0).abs() / 3000.0 < 0.1, "estimate {est}");
    }

    #[test]
    fn duplicates_do_not_inflate_cardinality_estimate() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for _ in 0..10 {
            for x in 0..500u64 {
                f.insert(x);
            }
        }
        let est = f.estimate_cardinality();
        assert!((est - 500.0).abs() / 500.0 < 0.1, "estimate {est}");
        assert_eq!(f.inserted(), 5000);
    }

    #[test]
    fn union_and_intersection_estimates() {
        let mut a = BloomFilter::with_capacity(2000, 0.01);
        let mut b = BloomFilter::with_capacity(2000, 0.01);
        for x in 0..1000u64 {
            a.insert(x);
        }
        for x in 500..1500u64 {
            b.insert(x);
        }
        let u = a.union(&b);
        let uc = u.estimate_cardinality();
        assert!((uc - 1500.0).abs() / 1500.0 < 0.1, "union estimate {uc}");
        let i = a.estimate_intersection(&b);
        assert!((i - 500.0).abs() < 150.0, "intersection estimate {i}");
    }

    #[test]
    fn insert_sets_exactly_the_double_hashing_positions() {
        // The positions written out longhand: the wire proptests and the
        // synopsis comparisons rely on these exact bits.
        let mut f = BloomFilter::new(1000, 5);
        let mut want = vec![0u64; f.words().len()];
        for key in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            f.insert(key);
            let h1 = splitmix64(key);
            let h2 = splitmix64(h1) | 1;
            for i in 0..5u64 {
                let p = (h1.wrapping_add(i.wrapping_mul(h2)) % f.num_bits() as u64) as usize;
                want[p / 64] |= 1 << (p % 64);
            }
        }
        assert_eq!(f.words(), &want[..]);
        assert_eq!(f.inserted(), 5);
    }

    #[test]
    fn fingerprint_follows_bits_and_shape_and_is_never_zero() {
        let mut a = BloomFilter::new(256, 4);
        let mut b = BloomFilter::new(256, 4);
        assert_ne!(a.fingerprint(), 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.insert(7);
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.insert(7);
        b.insert(7); // same bits, different insert count
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            BloomFilter::new(256, 4).fingerprint(),
            BloomFilter::new(256, 5).fingerprint()
        );
        assert_ne!(
            BloomFilter::new(256, 4).fingerprint(),
            BloomFilter::new(320, 4).fingerprint()
        );
    }

    #[test]
    fn empty_filter() {
        let f = BloomFilter::new(128, 3);
        assert!(!f.contains(42));
        assert_eq!(f.ones(), 0);
        assert_eq!(f.estimate_cardinality(), 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn union_shape_mismatch_panics() {
        let a = BloomFilter::new(64, 3);
        let b = BloomFilter::new(128, 3);
        let _ = a.union(&b);
    }

    #[test]
    fn saturated_filter_reports_infinity() {
        let mut f = BloomFilter::new(64, 1);
        for x in 0..10_000u64 {
            f.insert(x);
        }
        assert!(f.estimate_cardinality().is_infinite());
    }
}
