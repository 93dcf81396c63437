//! The BlindFL binary wire format — byte-for-byte per
//! `docs/WIRE_PROTOCOL.md` at the repository root.
//!
//! Every [`Msg`] travels as one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       2     magic   0x42 0x46  ("BF")
//! 2       1     version 0x06
//! 3       1     kind    (see the KIND_* constants)
//! 4       4     payload length, u32 little-endian
//! 8       n     payload (per-kind encoding)
//! ```
//!
//! Every payload reads and writes through [`bf_util::codec`] (LE
//! integers, IEEE-754 `f64` bits, counts bounded before allocation, no
//! trailing bytes); the `Mat` and `Ct` layouts are
//! [`bf_paillier::serial`]'s. This module owns the frame header and
//! each kind's field order. It is pure bytes-in/bytes-out — the I/O
//! lives in [`crate::transport`] — so the codec can be golden-tested
//! and fuzzed without sockets.

use bf_paillier::{
    ctmat_len, export_public, import_public, read_ctmat, read_dense, write_ctmat, write_dense,
};
use bf_util::codec::{DecodeError, Reader, Writer};

use crate::transport::Msg;

/// Frame magic: ASCII `"BF"`.
pub const MAGIC: [u8; 2] = *b"BF";
/// Current protocol version. Decoders reject every other value.
/// History: v1 = kinds 1–6; v2 added kind 7 (`Hello`, multi-party
/// link identification); v3 added `Ct` body tag 2 (packed ciphertext
/// tensors); v4 added kind 8 (`Resume`, reconnect replay cursor);
/// v5 added kinds 9–10 (`GbSplit` / `GbBits`, federated tree split
/// bookkeeping and routing bitmaps); v6 added kinds 11–12
/// (`PsiOffer` / `PsiDigests`, the sample-alignment phase) — a new
/// kind or body tag is a version bump by rule.
pub const VERSION: u8 = 6;
/// Fixed frame-header length in bytes (magic + version + kind + length).
pub const HEADER_LEN: usize = 8;
/// Upper bound on a payload a decoder will accept (1 GiB). A malicious
/// or corrupted length field must not drive an allocation.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Frame kind byte for [`Msg::Ct`].
pub const KIND_CT: u8 = 1;
/// Frame kind byte for [`Msg::Mat`].
pub const KIND_MAT: u8 = 2;
/// Frame kind byte for [`Msg::Key`].
pub const KIND_KEY: u8 = 3;
/// Frame kind byte for [`Msg::Support`].
pub const KIND_SUPPORT: u8 = 4;
/// Frame kind byte for [`Msg::Scalar`].
pub const KIND_SCALAR: u8 = 5;
/// Frame kind byte for [`Msg::U64`].
pub const KIND_U64: u8 = 6;
/// Frame kind byte for [`Msg::Hello`].
pub const KIND_HELLO: u8 = 7;
/// Frame kind byte for [`Msg::Resume`].
pub const KIND_RESUME: u8 = 8;
/// Frame kind byte for [`Msg::GbSplit`].
pub const KIND_GB_SPLIT: u8 = 9;
/// Frame kind byte for [`Msg::GbBits`].
pub const KIND_GB_BITS: u8 = 10;
/// Frame kind byte for [`Msg::PsiOffer`].
pub const KIND_PSI_OFFER: u8 = 11;
/// Frame kind byte for [`Msg::PsiDigests`].
pub const KIND_PSI_DIGESTS: u8 = 12;
/// Name of each kind, indexed by its kind byte (0 is no kind).
pub const KIND_NAMES: [&str; KIND_PSI_DIGESTS as usize + 1] = [
    "",
    "Ct",
    "Mat",
    "Key",
    "Support",
    "Scalar",
    "U64",
    "Hello",
    "Resume",
    "GbSplit",
    "GbBits",
    "PsiOffer",
    "PsiDigests",
];

/// A frame- or payload-level decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The version byte is not [`VERSION`].
    UnsupportedVersion(u8),
    /// The kind byte names no known [`Msg`] variant.
    UnknownKind(u8),
    /// The length field exceeds [`MAX_PAYLOAD`].
    OversizedPayload(u32),
    /// The buffer ended before the encoding said it would.
    Truncated,
    /// A structurally invalid payload (bad lengths, bad key string, …).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::OversizedPayload(n) => write!(f, "payload length {n} exceeds limit"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A payload that ended early or ran on is the wrong length for its
/// kind: both are [`WireError::Truncated`] on the wire.
impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated | DecodeError::Trailing(_) => WireError::Truncated,
            DecodeError::Malformed(why) => WireError::Malformed(why),
        }
    }
}

/// The kind byte a message is framed with.
pub fn kind_byte(msg: &Msg) -> u8 {
    match msg {
        Msg::Ct(_) => KIND_CT,
        Msg::Mat(_) => KIND_MAT,
        Msg::Key(_) => KIND_KEY,
        Msg::Support(_) => KIND_SUPPORT,
        Msg::Scalar(_) => KIND_SCALAR,
        Msg::U64(_) => KIND_U64,
        Msg::Hello { .. } => KIND_HELLO,
        Msg::Resume { .. } => KIND_RESUME,
        Msg::GbSplit { .. } => KIND_GB_SPLIT,
        Msg::GbBits { .. } => KIND_GB_BITS,
        Msg::PsiOffer { .. } => KIND_PSI_OFFER,
        Msg::PsiDigests { .. } => KIND_PSI_DIGESTS,
    }
}

/// Bytes needed for an `nbits`-long bit vector (LSB-first packing).
pub fn bit_bytes(nbits: u64) -> usize {
    (nbits as usize).div_ceil(8)
}

/// Pack booleans LSB-first: bit `i` lands in `out[i / 8]` at position
/// `i % 8`. The canonical encoding [`Msg::GbBits`] carries.
pub fn pack_bits(bools: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bools.len().div_ceil(8)];
    for (i, &b) in bools.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Read bit `i` of an LSB-first packed bit vector.
pub fn bit_at(bits: &[u8], i: usize) -> bool {
    (bits[i / 8] >> (i % 8)) & 1 == 1
}

/// Encode the per-kind payload (frame header excluded).
pub fn encode_payload(msg: &Msg) -> Vec<u8> {
    let mut w = Writer::with_capacity(match msg {
        Msg::Ct(ct) => ctmat_len(ct),
        _ => msg.wire_size(),
    });
    match msg {
        Msg::Ct(ct) => write_ctmat(&mut w, ct),
        Msg::Mat(m) => write_dense(&mut w, m),
        Msg::Key(pk) => w.bytes(export_public(pk).as_bytes()),
        Msg::Support(s) => {
            w.len(s.len());
            w.u32s(s);
        }
        Msg::Scalar(v) => w.f64(*v),
        Msg::U64(v) | Msg::Resume { recv_seq: v } => w.u64(*v),
        Msg::Hello { index, total } => {
            w.u32(*index);
            w.u32(*total);
        }
        Msg::GbSplit { feature, bucket } => {
            w.u32(*feature);
            w.u32(*bucket);
        }
        Msg::GbBits {
            rows,
            records,
            bits,
        } => {
            debug_assert_eq!(
                bits.len(),
                bit_bytes(rows.checked_mul(*records).expect("bit count overflow")),
                "GbBits bit buffer is not canonical"
            );
            w.u64(*rows);
            w.u64(*records);
            w.bytes(bits);
        }
        Msg::PsiOffer { salt, count } => {
            w.u64(*salt);
            w.u64(*count);
        }
        Msg::PsiDigests { digests } => {
            debug_assert!(
                digests.windows(2).all(|w| w[0] < w[1]),
                "PsiDigests must be a strictly ascending set"
            );
            w.len(digests.len());
            w.u64s(digests);
        }
    }
    w.into_bytes()
}

/// Build the 8-byte frame header for a message whose payload has
/// already been encoded. The stream transport writes header and
/// payload separately so multi-megabyte `Ct` payloads are not copied
/// into a second contiguous buffer.
pub fn frame_header(msg: &Msg, payload: &[u8]) -> [u8; HEADER_LEN] {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "message payload exceeds the {MAX_PAYLOAD}-byte frame limit"
    );
    let len = (payload.len() as u32).to_le_bytes();
    [
        MAGIC[0],
        MAGIC[1],
        VERSION,
        kind_byte(msg),
        len[0],
        len[1],
        len[2],
        len[3],
    ]
}

/// Encode a complete frame (header + payload) into one buffer.
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let payload = encode_payload(msg);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&frame_header(msg, &payload));
    out.extend_from_slice(&payload);
    out
}

/// Validate a frame header, returning `(kind, payload_len)`.
pub fn decode_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u32), WireError> {
    if header[0..2] != MAGIC {
        return Err(WireError::BadMagic([header[0], header[1]]));
    }
    if header[2] != VERSION {
        return Err(WireError::UnsupportedVersion(header[2]));
    }
    let kind = header[3];
    if !(KIND_CT..=KIND_PSI_DIGESTS).contains(&kind) {
        return Err(WireError::UnknownKind(kind));
    }
    let len = Reader::new(&header[4..]).u32()?;
    if len > MAX_PAYLOAD {
        return Err(WireError::OversizedPayload(len));
    }
    Ok((kind, len))
}

/// Decode a per-kind payload into a [`Msg`]; the payload must be
/// exactly the kind's encoding.
pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Msg, WireError> {
    if kind == KIND_KEY {
        let s = std::str::from_utf8(payload)
            .map_err(|_| WireError::Malformed("key is not utf-8".into()))?;
        return import_public(s).map(Msg::Key).map_err(WireError::Malformed);
    }
    let mut r = Reader::new(payload);
    let msg = match kind {
        KIND_CT => Msg::Ct(read_ctmat(&mut r)?),
        KIND_MAT => Msg::Mat(read_dense(&mut r)?),
        KIND_SUPPORT => {
            let n = r.len()?;
            Msg::Support(r.u32s(n)?)
        }
        KIND_SCALAR => Msg::Scalar(r.f64()?),
        KIND_U64 => Msg::U64(r.u64()?),
        KIND_HELLO => Msg::Hello {
            index: r.u32()?,
            total: r.u32()?,
        },
        KIND_RESUME => Msg::Resume { recv_seq: r.u64()? },
        KIND_GB_SPLIT => Msg::GbSplit {
            feature: r.u32()?,
            bucket: r.u32()?,
        },
        KIND_GB_BITS => {
            let (rows, records) = (r.u64()?, r.u64()?);
            let nbits = rows
                .checked_mul(records)
                .filter(|&n| usize::try_from(n).is_ok())
                .ok_or_else(|| WireError::Malformed("bit count overflow".into()))?;
            let bits = r.bytes(bit_bytes(nbits))?.to_vec();
            // Canonical encoding: padding bits in the last byte are 0.
            let pad = (nbits % 8) as u32;
            if pad != 0 && bits.last().is_some_and(|&b| b >> pad != 0) {
                return Err(WireError::Malformed("nonzero padding bits".into()));
            }
            Msg::GbBits {
                rows,
                records,
                bits,
            }
        }
        KIND_PSI_OFFER => Msg::PsiOffer {
            salt: r.u64()?,
            count: r.u64()?,
        },
        KIND_PSI_DIGESTS => {
            let n = r.len()?;
            let digests = r.u64s(n)?;
            // Canonical encoding: a digest *set*, strictly ascending.
            // This both pins a unique byte form (row order can never
            // leak through frame bytes) and rejects duplicates.
            if !digests.windows(2).all(|w| w[0] < w[1]) {
                return Err(WireError::Malformed(
                    "digests not strictly ascending".into(),
                ));
            }
            Msg::PsiDigests { digests }
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(msg)
}

/// Decode one frame from the front of `buf`; returns the message and
/// the number of bytes consumed. Convenience wrapper used by tests —
/// the stream transport reads the header and payload separately.
pub fn decode_frame(buf: &[u8]) -> Result<(Msg, usize), WireError> {
    let mut r = Reader::new(buf);
    let header = r.bytes(HEADER_LEN)?.try_into().expect("HEADER_LEN bytes");
    let (kind, len) = decode_header(header)?;
    let msg = decode_payload(kind, r.bytes(len as usize)?)?;
    Ok((msg, HEADER_LEN + len as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_tensor::Dense;

    /// The golden-bytes contract: these frames are the documented wire
    /// format (`docs/WIRE_PROTOCOL.md`). Changing any byte here is a
    /// protocol break and requires a VERSION bump.
    #[test]
    fn golden_u64_frame() {
        let frame = encode_frame(&Msg::U64(0x0102030405060708));
        assert_eq!(
            frame,
            vec![
                0x42, 0x46, // "BF"
                0x06, // version
                0x06, // kind U64
                0x08, 0x00, 0x00, 0x00, // payload len 8
                0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // u64 LE
            ]
        );
    }

    #[test]
    fn golden_hello_frame() {
        let frame = encode_frame(&Msg::Hello {
            index: 2,
            total: 0x0304,
        });
        assert_eq!(
            frame,
            vec![
                0x42, 0x46, // "BF"
                0x06, // version
                0x07, // kind Hello
                0x08, 0x00, 0x00, 0x00, // payload len 8
                0x02, 0x00, 0x00, 0x00, // index 2, u32 LE
                0x04, 0x03, 0x00, 0x00, // total 0x0304, u32 LE
            ]
        );
    }

    #[test]
    fn golden_scalar_frame() {
        let frame = encode_frame(&Msg::Scalar(1.0));
        assert_eq!(
            frame,
            vec![
                0x42, 0x46, 0x06, 0x05, 0x08, 0x00, 0x00, 0x00, // header
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // 1.0f64 LE
            ]
        );
    }

    #[test]
    fn golden_support_frame() {
        let frame = encode_frame(&Msg::Support(vec![1, 0x0A0B]));
        assert_eq!(
            frame,
            vec![
                0x42, 0x46, 0x06, 0x04, 0x10, 0x00, 0x00, 0x00, // header, len 16
                0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count 2
                0x01, 0x00, 0x00, 0x00, // 1
                0x0B, 0x0A, 0x00, 0x00, // 0x0A0B
            ]
        );
    }

    #[test]
    fn golden_mat_frame() {
        let frame = encode_frame(&Msg::Mat(Dense::from_vec(1, 2, vec![0.0, -2.0])));
        assert_eq!(
            frame,
            vec![
                0x42, 0x46, 0x06, 0x02, 0x20, 0x00, 0x00, 0x00, // header, len 32
                0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rows 1
                0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // cols 2
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 0.0
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, // -2.0
            ]
        );
    }

    #[test]
    fn golden_plain_key_frame() {
        let frame = encode_frame(&Msg::Key(bf_paillier::PublicKey::Plain { frac_bits: 24 }));
        let mut want = vec![0x42, 0x46, 0x06, 0x03, 0x0B, 0x00, 0x00, 0x00];
        want.extend_from_slice(b"bfplain1:24");
        assert_eq!(frame, want);
    }

    #[test]
    fn golden_plain_ct_frame() {
        let (pk, _) = bf_paillier::keys::plain_keys(1);
        let obf = bf_paillier::Obfuscator::new(&pk, bf_paillier::ObfMode::Pool(2), 0);
        let ct = pk.encrypt(&Dense::from_vec(1, 1, vec![0.5]), &obf);
        let frame = encode_frame(&Msg::Ct(ct));
        assert_eq!(
            frame,
            vec![
                0x42, 0x46, 0x06, 0x01, 0x1A, 0x00, 0x00, 0x00, // header, len 26
                0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rows 1
                0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // cols 1
                0x01, // scale 1
                0x00, // body: plain
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // 0.5
            ]
        );
    }

    #[test]
    fn golden_resume_frame() {
        let frame = encode_frame(&Msg::Resume {
            recv_seq: 0x0102030405060708,
        });
        assert_eq!(
            frame,
            vec![
                0x42, 0x46, // "BF"
                0x06, // version
                0x08, // kind Resume
                0x08, 0x00, 0x00, 0x00, // payload len 8
                0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // recv_seq LE
            ]
        );
    }

    #[test]
    fn golden_gb_split_frame() {
        let frame = encode_frame(&Msg::GbSplit {
            feature: 3,
            bucket: 0x0102,
        });
        assert_eq!(
            frame,
            vec![
                0x42, 0x46, // "BF"
                0x06, // version
                0x09, // kind GbSplit
                0x08, 0x00, 0x00, 0x00, // payload len 8
                0x03, 0x00, 0x00, 0x00, // feature 3, u32 LE
                0x02, 0x01, 0x00, 0x00, // bucket 0x0102, u32 LE
            ]
        );
    }

    #[test]
    fn golden_gb_bits_frame() {
        // 3 rows × 3 records = 9 bits: rows 0 and 2 of record 0,
        // row 1 of record 1, row 0 of record 2 set.
        let bools = [
            true, false, true, // record 0
            false, true, false, // record 1
            true, false, false, // record 2
        ];
        let frame = encode_frame(&Msg::GbBits {
            rows: 3,
            records: 3,
            bits: pack_bits(&bools),
        });
        assert_eq!(
            frame,
            vec![
                0x42,
                0x46, // "BF"
                0x06, // version
                0x0A, // kind GbBits
                0x12,
                0x00,
                0x00,
                0x00, // payload len 18
                0x03,
                0x00,
                0x00,
                0x00,
                0x00,
                0x00,
                0x00,
                0x00, // rows 3
                0x03,
                0x00,
                0x00,
                0x00,
                0x00,
                0x00,
                0x00,
                0x00,        // records 3
                0b0101_0101, // bits 0..8 LSB-first
                0b0000_0000, // bit 8 (false), zero padding
            ]
        );
    }

    #[test]
    fn golden_psi_offer_frame() {
        let frame = encode_frame(&Msg::PsiOffer {
            salt: 0x0102030405060708,
            count: 3,
        });
        assert_eq!(
            frame,
            vec![
                0x42, 0x46, // "BF"
                0x06, // version
                0x0B, // kind PsiOffer
                0x10, 0x00, 0x00, 0x00, // payload len 16
                0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // salt LE
                0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count 3
            ]
        );
    }

    #[test]
    fn golden_psi_digests_frame() {
        let frame = encode_frame(&Msg::PsiDigests {
            digests: vec![1, 0x0A0B],
        });
        assert_eq!(
            frame,
            vec![
                0x42, 0x46, // "BF"
                0x06, // version
                0x0C, // kind PsiDigests
                0x18, 0x00, 0x00, 0x00, // payload len 24
                0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count 2
                0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 1
                0x0B, 0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 0x0A0B
            ]
        );
    }

    #[test]
    fn psi_digests_rejects_noncanonical() {
        let enc = |digests: &[u64]| -> Vec<u8> {
            let mut p = (digests.len() as u64).to_le_bytes().to_vec();
            for d in digests {
                p.extend_from_slice(&d.to_le_bytes());
            }
            p
        };
        // Descending order is not the canonical set encoding.
        assert!(matches!(
            decode_payload(KIND_PSI_DIGESTS, &enc(&[5, 2])),
            Err(WireError::Malformed(_))
        ));
        // A duplicate digest means the sender's ID column was not a set.
        assert!(matches!(
            decode_payload(KIND_PSI_DIGESTS, &enc(&[2, 2])),
            Err(WireError::Malformed(_))
        ));
        // Count claiming 4 digests but carrying 1.
        let mut p = 4u64.to_le_bytes().to_vec();
        p.extend_from_slice(&7u64.to_le_bytes());
        assert!(matches!(
            decode_payload(KIND_PSI_DIGESTS, &p),
            Err(WireError::Truncated)
        ));
        // Count overflow must not drive an allocation.
        let p = u64::MAX.to_le_bytes().to_vec();
        assert!(matches!(
            decode_payload(KIND_PSI_DIGESTS, &p),
            Err(WireError::Truncated) | Err(WireError::Malformed(_))
        ));
        // The empty set is canonical (disjoint parties are legal).
        let Msg::PsiDigests { digests } = decode_payload(KIND_PSI_DIGESTS, &enc(&[])).unwrap()
        else {
            panic!("kind changed");
        };
        assert!(digests.is_empty());
    }

    #[test]
    fn gb_bits_rejects_noncanonical() {
        // Wrong byte count for the claimed bit count.
        let mut p = Vec::new();
        p.extend_from_slice(&3u64.to_le_bytes());
        p.extend_from_slice(&3u64.to_le_bytes());
        p.extend_from_slice(&[0u8; 3]); // 9 bits need exactly 2 bytes
        assert!(matches!(
            decode_payload(KIND_GB_BITS, &p),
            Err(WireError::Truncated)
        ));
        // Nonzero padding bits.
        let mut p = Vec::new();
        p.extend_from_slice(&3u64.to_le_bytes());
        p.extend_from_slice(&3u64.to_le_bytes());
        p.extend_from_slice(&[0x00, 0x02]); // bit 9 set, beyond 9 bits
        assert!(matches!(
            decode_payload(KIND_GB_BITS, &p),
            Err(WireError::Malformed(_))
        ));
        // rows·records overflow must not drive an allocation.
        let mut p = Vec::new();
        p.extend_from_slice(&u64::MAX.to_le_bytes());
        p.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_payload(KIND_GB_BITS, &p),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn bit_packing_roundtrip() {
        let bools: Vec<bool> = (0..19).map(|i| i % 3 == 0).collect();
        let bits = pack_bits(&bools);
        assert_eq!(bits.len(), bit_bytes(19));
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!(bit_at(&bits, i), b, "bit {i}");
        }
    }

    #[test]
    fn header_rejections() {
        let ok = encode_frame(&Msg::U64(7));
        let hdr = |f: &[u8]| -> [u8; HEADER_LEN] { f[..HEADER_LEN].try_into().unwrap() };
        assert!(decode_header(&hdr(&ok)).is_ok());
        let mut bad = ok.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_header(&hdr(&bad)),
            Err(WireError::BadMagic(_))
        ));
        let mut bad = ok.clone();
        bad[2] = 9;
        assert!(matches!(
            decode_header(&hdr(&bad)),
            Err(WireError::UnsupportedVersion(9))
        ));
        let mut bad = ok.clone();
        bad[3] = 0;
        assert!(matches!(
            decode_header(&hdr(&bad)),
            Err(WireError::UnknownKind(0))
        ));
        let mut bad = ok.clone();
        bad[3] = KIND_PSI_DIGESTS + 1;
        assert!(matches!(
            decode_header(&hdr(&bad)),
            Err(WireError::UnknownKind(_))
        ));
        let mut bad = ok;
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_header(&hdr(&bad)),
            Err(WireError::OversizedPayload(_))
        ));
    }

    #[test]
    fn truncated_payloads_error() {
        let truncated =
            |kind: u8, p: &[u8]| matches!(decode_payload(kind, p), Err(WireError::Truncated));
        assert!(truncated(KIND_SCALAR, &[0; 7]));
        assert!(truncated(KIND_U64, &[0; 9]));
        assert!(truncated(KIND_HELLO, &[0; 7]));
        assert!(truncated(KIND_HELLO, &[0; 9]));
        assert!(truncated(KIND_RESUME, &[0; 7]));
        assert!(truncated(KIND_MAT, &[0; 15]));
        assert!(truncated(KIND_SUPPORT, &[0; 7]));
        assert!(truncated(KIND_GB_SPLIT, &[0; 7]));
        assert!(truncated(KIND_GB_SPLIT, &[0; 9]));
        assert!(truncated(KIND_GB_BITS, &[0; 15]));
        assert!(truncated(KIND_PSI_OFFER, &[0; 15]));
        assert!(truncated(KIND_PSI_OFFER, &[0; 17]));
        assert!(truncated(KIND_PSI_DIGESTS, &[0; 7]));
        // Support claiming 4 entries but carrying 1.
        let mut p = 4u64.to_le_bytes().to_vec();
        p.extend_from_slice(&[0; 4]);
        assert!(truncated(KIND_SUPPORT, &p));
    }

    #[test]
    fn frame_roundtrip_every_kind() {
        let msgs = vec![
            Msg::U64(u64::MAX),
            Msg::Scalar(-3.25),
            Msg::Support(vec![]),
            Msg::Support(vec![0, 1, u32::MAX]),
            Msg::Mat(Dense::zeros(0, 5)),
            Msg::Mat(Dense::from_vec(2, 2, vec![1.0, -1.0, 0.5, 1e300])),
            Msg::Key(bf_paillier::PublicKey::Plain { frac_bits: 7 }),
            Msg::Hello { index: 0, total: 1 },
            Msg::Hello {
                index: u32::MAX,
                total: u32::MAX,
            },
            Msg::Resume { recv_seq: 0 },
            Msg::Resume { recv_seq: u64::MAX },
            Msg::GbSplit {
                feature: 0,
                bucket: 0,
            },
            Msg::GbSplit {
                feature: u32::MAX,
                bucket: u32::MAX,
            },
            Msg::GbBits {
                rows: 0,
                records: 0,
                bits: vec![],
            },
            Msg::GbBits {
                rows: 5,
                records: 3,
                bits: pack_bits(&[true; 15]),
            },
            Msg::PsiOffer { salt: 0, count: 0 },
            Msg::PsiOffer {
                salt: u64::MAX,
                count: u64::MAX,
            },
            Msg::PsiDigests { digests: vec![] },
            Msg::PsiDigests {
                digests: vec![0, 7, u64::MAX],
            },
        ];
        for msg in msgs {
            let frame = encode_frame(&msg);
            let (got, used) = decode_frame(&frame).unwrap();
            assert_eq!(used, frame.len());
            match (&msg, &got) {
                (Msg::U64(a), Msg::U64(b)) => assert_eq!(a, b),
                (Msg::Scalar(a), Msg::Scalar(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (Msg::Support(a), Msg::Support(b)) => assert_eq!(a, b),
                (Msg::Mat(a), Msg::Mat(b)) => assert_eq!(a, b),
                (Msg::Key(a), Msg::Key(b)) => {
                    assert_eq!(bf_paillier::export_public(a), bf_paillier::export_public(b))
                }
                (Msg::Hello { index: a, total: b }, Msg::Hello { index: c, total: d }) => {
                    assert_eq!((a, b), (c, d))
                }
                (Msg::Resume { recv_seq: a }, Msg::Resume { recv_seq: b }) => assert_eq!(a, b),
                (
                    Msg::GbSplit {
                        feature: a,
                        bucket: b,
                    },
                    Msg::GbSplit {
                        feature: c,
                        bucket: d,
                    },
                ) => assert_eq!((a, b), (c, d)),
                (
                    Msg::GbBits {
                        rows: r1,
                        records: c1,
                        bits: b1,
                    },
                    Msg::GbBits {
                        rows: r2,
                        records: c2,
                        bits: b2,
                    },
                ) => assert_eq!((r1, c1, b1), (r2, c2, b2)),
                (
                    Msg::PsiOffer {
                        salt: s1,
                        count: n1,
                    },
                    Msg::PsiOffer {
                        salt: s2,
                        count: n2,
                    },
                ) => assert_eq!((s1, n1), (s2, n2)),
                (Msg::PsiDigests { digests: a }, Msg::PsiDigests { digests: b }) => {
                    assert_eq!(a, b)
                }
                other => panic!("kind changed in roundtrip: {other:?}"),
            }
        }
    }
}
