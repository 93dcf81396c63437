//! The one bounded little-endian codec under every byte format that
//! crosses a trust boundary: wire frames (`bf_mpc::wire`), BFMD model
//! blobs (`blindfl::persist`) and ciphertext tensors
//! (`bf_paillier::serial`). The rules are specified in
//! `docs/WIRE_PROTOCOL.md` § "Primitives".
//!
//! Every multi-byte integer is little-endian and an `f64` travels as its
//! IEEE-754 bits. A [`Reader`] never panics and never allocates more
//! than the bytes it was handed can hold:
//!
//! * a fixed-width vector ([`Reader::u32s`], [`Reader::u64s`],
//!   [`Reader::f64s`]) takes its bytes before it allocates, so the count
//!   in front of it needs no guard of its own;
//! * a count of variable-width elements goes through [`Reader::count`],
//!   which refuses a claim whose smallest encoding exceeds the bytes
//!   remaining — the one allocation guard;
//! * [`Reader::finish`] refuses trailing bytes, so every format is
//!   self-delimiting.

/// Why bytes failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes ended before the encoding said they would.
    Truncated,
    /// The encoding ended with this many bytes left over.
    Trailing(usize),
    /// A structurally invalid encoding (an overflowing length, a bad
    /// tag, inconsistent fields, …).
    Malformed(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated encoding"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
            DecodeError::Malformed(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Shorthand for decode-fallible results.
pub type DecodeResult<T> = Result<T, DecodeError>;

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer whose buffer holds `n` bytes before it reallocates.
    pub fn with_capacity(n: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u32`, 4 bytes LE.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u64`, 8 bytes LE.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its IEEE-754 bits, 8 bytes LE.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A length or count, as a `u64` ([`Reader::len`] / [`Reader::count`]).
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// A flag byte, `0` or `1` ([`Reader::flag`]).
    pub fn flag(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Raw bytes, verbatim.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// `u32`s, 4 bytes LE each (no count).
    pub fn u32s(&mut self, v: &[u32]) {
        v.iter().for_each(|&x| self.u32(x));
    }

    /// `u64`s, 8 bytes LE each (no count).
    pub fn u64s(&mut self, v: &[u64]) {
        v.iter().for_each(|&x| self.u64(x));
    }

    /// `f64`s, 8 bytes LE each (no count).
    pub fn f64s(&mut self, v: &[f64]) {
        v.iter().for_each(|&x| self.f64(x));
    }
}

/// Validating cursor over untrusted bytes. A clone is an independent
/// cursor at the same position: a way to look at a header before
/// reading it.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    /// The next `n` bytes, verbatim.
    pub fn bytes(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if n > self.rest.len() {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const W: usize>(&mut self) -> DecodeResult<[u8; W]> {
        Ok(self.bytes(W)?.try_into().expect("bytes(W) is W bytes long"))
    }

    /// One byte.
    pub fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// A `u32`, 4 bytes LE.
    pub fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`, 8 bytes LE.
    pub fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` from its IEEE-754 bits, 8 bytes LE.
    pub fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A `u64` length or dimension that must fit in `usize`. It bounds
    /// nothing by itself: use it for a value whose bytes are taken by a
    /// fixed-width vector read or checked by arithmetic that follows.
    #[allow(clippy::len_without_is_empty)] // reads a length field; not the reader's size
    pub fn len(&mut self) -> DecodeResult<usize> {
        usize::try_from(self.u64()?)
            .map_err(|_| DecodeError::Malformed("length field overflows usize".into()))
    }

    /// A flag byte: `0` is false, `1` true, anything else malformed.
    pub fn flag(&mut self) -> DecodeResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::Malformed(format!("bad flag byte {b}"))),
        }
    }

    /// A `u64` count of elements each at least `min_elem_bytes` long,
    /// refused as [`DecodeError::Truncated`] when that many elements
    /// cannot fit in the bytes remaining — before the caller allocates
    /// anything for them.
    pub fn count(&mut self, min_elem_bytes: usize) -> DecodeResult<usize> {
        debug_assert!(min_elem_bytes > 0, "a zero-byte element bounds nothing");
        let n = self.len()?;
        match n.checked_mul(min_elem_bytes) {
            Some(need) if need <= self.rest.len() => Ok(n),
            _ => Err(DecodeError::Truncated),
        }
    }

    // `f` is generic, not a `fn` pointer, so each element's conversion
    // inlines: a pointer call per element cut `Ct` import throughput
    // about 8× (≈ 35 → 4 GB/s on a 2-core x86-64 box).
    fn elems<T, const W: usize>(
        &mut self,
        n: usize,
        f: impl Fn([u8; W]) -> T,
    ) -> DecodeResult<Vec<T>> {
        let len = n.checked_mul(W).ok_or(DecodeError::Truncated)?;
        Ok(self
            .bytes(len)?
            .chunks_exact(W)
            .map(|c| f(c.try_into().expect("chunks_exact(W) yields W bytes")))
            .collect())
    }

    /// `n` `u32`s, 4 bytes LE each.
    pub fn u32s(&mut self, n: usize) -> DecodeResult<Vec<u32>> {
        self.elems(n, u32::from_le_bytes)
    }

    /// `n` `u64`s, 8 bytes LE each.
    pub fn u64s(&mut self, n: usize) -> DecodeResult<Vec<u64>> {
        self.elems(n, u64::from_le_bytes)
    }

    /// `n` `f64`s, 8 bytes LE each.
    pub fn f64s(&mut self, n: usize) -> DecodeResult<Vec<f64>> {
        self.elems(n, f64::from_le_bytes)
    }

    /// Error unless every byte has been read.
    pub fn finish(self) -> DecodeResult<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}
