//! The [`BigUint`] type: little-endian `u64` limbs, normalized so the
//! most significant limb is non-zero (zero is the empty limb vector).

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Representation invariant: `limbs` is little-endian and has no trailing
/// zero limbs; the value zero is represented by an empty vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        Self { limbs: vec![1] }
    }

    /// From a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![v] }
        }
    }

    /// From a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut out = Self {
            limbs: vec![lo, hi],
        };
        out.normalize();
        out
    }

    /// From little-endian limbs (normalizes).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = Self { limbs };
        out.normalize();
        out
    }

    /// Expose the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Serialized size in bytes (8 per limb, plus a u32 length prefix),
    /// used by the transport layer's byte accounting.
    pub fn wire_size(&self) -> usize {
        4 + 8 * self.limbs.len()
    }

    pub(crate) fn normalize(&mut self) {
        while let Some(&0) = self.limbs.last() {
            self.limbs.pop();
        }
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|&l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => 64 * (self.limbs.len() - 1) + (64 - hi.leading_zeros() as usize),
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.limbs.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// The `i`-th bit (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Low 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Low 128 bits.
    pub fn low_u128(&self) -> u128 {
        let lo = self.limbs.first().copied().unwrap_or(0) as u128;
        let hi = self.limbs.get(1).copied().unwrap_or(0) as u128;
        lo | (hi << 64)
    }

    /// Lossy conversion to `f64` (correct to f64 precision; returns
    /// `f64::INFINITY` above the representable range). Used by the
    /// fixed-point decoder, whose magnitudes are far below `n`.
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &l in self.limbs.iter().rev() {
            acc = acc * 1.8446744073709552e19 + l as f64; // 2^64
        }
        acc
    }

    /// Exact conversion to `u64`, if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// In-place addition.
    pub fn add_assign(&mut self, other: &BigUint) {
        let mut carry = 0u64;
        let n = self.limbs.len().max(other.limbs.len());
        self.limbs.resize(n, 0);
        for i in 0..n {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = self.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Add a `u64`.
    pub fn add_u64(&self, v: u64) -> BigUint {
        self.add(&BigUint::from_u64(v))
    }

    /// In-place subtraction; panics if `other > self`.
    pub fn sub_assign(&mut self, other: &BigUint) {
        debug_assert!(*self >= *other, "BigUint underflow");
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        assert_eq!(borrow, 0, "BigUint underflow");
        self.normalize();
    }

    /// Subtraction; panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// Subtract a `u64`; panics on underflow.
    pub fn sub_u64(&self, v: u64) -> BigUint {
        self.sub(&BigUint::from_u64(v))
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        BigUint::from_limbs(limbs)
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 64;
        let mut limbs: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            let len = limbs.len();
            for i in 0..len {
                let hi = if i + 1 < len { limbs[i + 1] } else { 0 };
                limbs[i] = (limbs[i] >> bit_shift) | (hi << (64 - bit_shift));
            }
        }
        BigUint::from_limbs(limbs)
    }

    /// Big-endian byte encoding (minimal length; zero encodes to empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &l in self.limbs.iter().rev() {
            out.extend_from_slice(&l.to_be_bytes());
        }
        // Trim leading zero bytes.
        let first = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first);
        out
    }

    /// Parse big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        BigUint::from_limbs(limbs)
    }

    /// Lowercase hexadecimal rendering (no `0x` prefix).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = format!("{:x}", self.limbs.last().unwrap());
        for &l in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{:016x}", l));
        }
        s
    }

    /// Parse a hexadecimal string (no prefix). Returns `None` on invalid
    /// characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut limbs = Vec::with_capacity(s.len() / 16 + 1);
        let bytes = s.as_bytes();
        let mut i = bytes.len();
        while i > 0 {
            let start = i.saturating_sub(16);
            let chunk = std::str::from_utf8(&bytes[start..i]).ok()?;
            limbs.push(u64::from_str_radix(chunk, 16).ok()?);
            i = start;
        }
        Some(BigUint::from_limbs(limbs))
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = BigUint::from_u128(u128::MAX);
        let b = BigUint::from_u64(12345);
        let c = a.add(&b);
        assert_eq!(c.sub(&b), a);
        assert_eq!(c.sub(&a), b);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::one();
        let c = a.add(&b);
        assert_eq!(c.limbs(), &[0, 1]);
    }

    #[test]
    #[should_panic]
    fn sub_underflow_panics() {
        let _ = BigUint::one().sub(&BigUint::from_u64(2));
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_u64(0b1011);
        assert_eq!(a.shl(1).low_u64(), 0b10110);
        assert_eq!(a.shl(64).limbs(), &[0, 0b1011]);
        assert_eq!(a.shl(65).limbs(), &[0, 0b10110]);
        assert_eq!(a.shl(65).shr(65), a);
        assert_eq!(a.shr(100), BigUint::zero());
    }

    #[test]
    fn bit_access() {
        let a = BigUint::from_u64(0b101).shl(64);
        assert!(!a.bit(0));
        assert!(a.bit(64));
        assert!(!a.bit(65));
        assert!(a.bit(66));
        assert!(!a.bit(1000));
    }

    #[test]
    fn bytes_roundtrip() {
        let a = BigUint::from_u128(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        let bytes = a.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), a);
        assert_eq!(BigUint::from_bytes_be(&[]), BigUint::zero());
    }

    #[test]
    fn hex_roundtrip() {
        let a = BigUint::from_u128(0xdead_beef_0000_0001_ffff_ffff_ffff_fff7);
        assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u64(7);
        let c = BigUint::from_u64(1).shl(64);
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn u128_conversion() {
        let v = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        assert_eq!(BigUint::from_u128(v).low_u128(), v);
    }
}
