//! Serialization of key material, plaintext matrices and ciphertext
//! tensors.
//!
//! Three byte-level formats live here:
//!
//! * **Keys** — colon-separated lowercase hex fields with a
//!   version/type prefix, e.g. `bfpk1:<frac_bits>:<n>` and
//!   `bfsk1:<frac_bits>:<p>:<q>`. The paper's deployment exchanges
//!   public keys at initialisation; a production system also needs
//!   durable secret-key storage at each party.
//! * **`Dense`** — the `Mat` layout `rows u64 | cols u64 | rows·cols
//!   f64` ([`write_dense`] / [`read_dense`]): the wire's `Mat` payload
//!   and every plaintext matrix in a BFMD model blob.
//! * **[`CtMat`]** — the `Ct` layout ([`write_ctmat`] / [`read_ctmat`]):
//!   the wire's `Ct` payload and every ciphertext cache in a BFMD
//!   blob (see `docs/WIRE_PROTOCOL.md` at the
//!   repository root): header `rows u64 | cols u64 | scale u8 | body
//!   u8`, followed by `rows·cols` `f64` values (body `0`, Plain
//!   backend) or `k u64` plus `rows·cols·k` Montgomery-form limbs as
//!   `u64` (body `1`, Paillier backend). Ciphertext limbs travel
//!   verbatim: both parties interpret them against the same public
//!   modulus, so no Montgomery-domain conversion is needed. Body `2` is
//!   a *packed* Paillier tensor: the sub-header `k u64 | slot_bits u64 |
//!   slots u64 | seg u64` followed by `rows · chunks · k` limbs, where
//!   `chunks = (cols/seg) · ceil(seg/slots)` — one ciphertext per column
//!   chunk rather than per element (see `crate::pack`). In memory both
//!   are one Paillier body; tags 1 and 2 name its two lane layouts,
//!   whose sub-header the layout itself writes and validates
//!   (`LaneLayout::{to_wire, from_wire}`).
//!
//! The binary layouts read and write through [`bf_util::codec`], whose
//! `Reader` bounds every allocation by the bytes it was handed.

use std::sync::Arc;

use bf_bigint::BigUint;
use bf_tensor::Dense;
use bf_util::codec::{DecodeError, DecodeResult, Reader, Writer};

use crate::ctmat::BodyView;
use crate::keys::{PaillierPk, PublicKey, SecretKey};
use crate::pack::LaneLayout;
use crate::CtMat;

/// Serialize a public key.
pub fn export_public(pk: &PublicKey) -> String {
    match pk {
        PublicKey::Paillier(p) => format!("bfpk1:{}:{}", p.frac_bits, p.n.to_hex()),
        PublicKey::Plain { frac_bits } => format!("bfplain1:{frac_bits}"),
    }
}

/// Deserialize a public key.
pub fn import_public(s: &str) -> Result<PublicKey, String> {
    let mut parts = s.split(':');
    match parts.next() {
        Some("bfpk1") => {
            let frac_bits: u32 = parse_field(parts.next(), "frac_bits")?;
            let n = parse_hex(parts.next(), "n")?;
            if parts.next().is_some() {
                return Err("trailing fields".into());
            }
            Ok(PublicKey::Paillier(Arc::new(PaillierPk::new(
                n, frac_bits,
            )?)))
        }
        Some("bfplain1") => {
            let frac_bits: u32 = parse_field(parts.next(), "frac_bits")?;
            if parts.next().is_some() {
                return Err("trailing fields".into());
            }
            crate::keys::check_frac_bits(frac_bits)?;
            Ok(PublicKey::Plain { frac_bits })
        }
        other => Err(format!("unknown key type {other:?}")),
    }
}

/// Serialize a secret key. **Handle with care** — this string decrypts
/// everything encrypted under the matching public key.
pub fn export_secret(sk: &SecretKey) -> String {
    match sk {
        SecretKey::Paillier(s) => {
            let (p, q) = s.factors();
            format!("bfsk1:{}:{}:{}", s.pk().frac_bits, p.to_hex(), q.to_hex())
        }
        SecretKey::Plain => "bfplainsk1".to_string(),
    }
}

/// Deserialize a secret key (rebuilding all CRT precomputations).
pub fn import_secret(s: &str) -> Result<SecretKey, String> {
    let mut parts = s.split(':');
    match parts.next() {
        Some("bfsk1") => {
            let frac_bits: u32 = parse_field(parts.next(), "frac_bits")?;
            let p = parse_hex(parts.next(), "p")?;
            let q = parse_hex(parts.next(), "q")?;
            if parts.next().is_some() {
                return Err("trailing fields".into());
            }
            crate::keys::rebuild_secret(p, q, frac_bits).map(SecretKey::Paillier)
        }
        Some("bfplainsk1") => Ok(SecretKey::Plain),
        other => Err(format!("unknown key type {other:?}")),
    }
}

/// [`CtMat`] body tag: Plain backend (`f64` values follow). Paillier
/// bodies carry their lane layout's tag (1 or 2).
const CT_BODY_PLAIN: u8 = 0;

/// Write a matrix in the `Mat` layout: `rows u64 | cols u64 |
/// rows·cols f64`, row-major.
pub fn write_dense(w: &mut Writer, m: &Dense) {
    w.len(m.rows());
    w.len(m.cols());
    w.f64s(m.data());
}

/// Read a matrix in the `Mat` layout ([`write_dense`]).
pub fn read_dense(r: &mut Reader) -> DecodeResult<Dense> {
    let (rows, cols) = (r.len()?, r.len()?);
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| DecodeError::Malformed("rows*cols overflow".into()))?;
    Ok(Dense::from_vec(rows, cols, r.f64s(n)?))
}

/// Bytes [`write_ctmat`] writes for `ct`, exactly.
pub fn ctmat_len(ct: &CtMat) -> usize {
    17 + match ct.body_view() {
        BodyView::Plain(vals) => 1 + 8 * vals.len(),
        BodyView::Paillier { lanes, limbs, .. } => lanes.wire_len() + 8 * limbs.len(),
    }
}

/// Write a ciphertext tensor in the canonical `Ct` layout.
pub fn write_ctmat(w: &mut Writer, ct: &CtMat) {
    w.len(ct.rows());
    w.len(ct.cols());
    w.u8(ct.scale());
    match ct.body_view() {
        BodyView::Plain(vals) => {
            w.u8(CT_BODY_PLAIN);
            w.f64s(vals);
        }
        BodyView::Paillier { k, lanes, limbs } => {
            lanes.to_wire(k, w);
            w.u64s(limbs);
        }
    }
}

/// Read a ciphertext tensor in the `Ct` layout ([`write_ctmat`]),
/// validating every length and geometry field before allocating.
pub fn read_ctmat(r: &mut Reader) -> DecodeResult<CtMat> {
    let (rows, cols, scale, tag) = (r.len()?, r.len()?, r.u8()?, r.u8()?);
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| DecodeError::Malformed("rows*cols overflow".into()))?;
    if tag == CT_BODY_PLAIN {
        return Ok(CtMat::from_plain_parts(rows, cols, scale, r.f64s(n)?));
    }
    let (lanes, k) = LaneLayout::from_wire(tag, r)?;
    if !lanes.tiles(cols) {
        return Err(DecodeError::Malformed(format!(
            "{lanes:?} does not tile {cols} columns"
        )));
    }
    let limbs = rows
        .checked_mul(lanes.per_row(cols))
        .and_then(|t| t.checked_mul(k))
        .ok_or_else(|| DecodeError::Malformed("body length overflow".into()))?;
    Ok(CtMat::from_paillier_parts(
        rows,
        cols,
        scale,
        k,
        lanes,
        r.u64s(limbs)?,
    ))
}

/// Serialize a ciphertext tensor to the canonical byte layout (the
/// `Ct` wire payload), in a buffer of exactly its length.
pub fn export_ctmat(ct: &CtMat) -> Vec<u8> {
    let mut w = Writer::with_capacity(ctmat_len(ct));
    write_ctmat(&mut w, ct);
    w.into_bytes()
}

/// Deserialize a ciphertext tensor that is the whole of `bytes`
/// (malformed input yields `Err`, never a panic or over-allocation).
pub fn import_ctmat(bytes: &[u8]) -> DecodeResult<CtMat> {
    let mut r = Reader::new(bytes);
    let ct = read_ctmat(&mut r)?;
    r.finish()?;
    Ok(ct)
}

fn parse_field<T: std::str::FromStr>(f: Option<&str>, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    f.ok_or_else(|| format!("missing {name}"))?
        .parse()
        .map_err(|e| format!("bad {name}: {e}"))
}

fn parse_hex(f: Option<&str>, name: &str) -> Result<BigUint, String> {
    BigUint::from_hex(f.ok_or_else(|| format!("missing {name}"))?)
        .ok_or_else(|| format!("bad hex in {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::keygen;
    use crate::{ObfMode, Obfuscator};
    use rand::SeedableRng;

    #[test]
    fn public_key_roundtrip_interoperates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (pk, sk) = keygen(256, 24, &mut rng);
        let pk2 = import_public(&export_public(&pk)).unwrap();
        // Encrypt under the re-imported key; decrypt with the original sk.
        let obf = Obfuscator::new(&pk2, ObfMode::Pool(4), 2);
        let m = Dense::from_vec(1, 3, vec![1.5, -2.0, 10.25]);
        let ct = pk2.encrypt(&m, &obf);
        assert!(sk.decrypt(&ct).approx_eq(&m, 1e-5));
    }

    #[test]
    fn secret_key_roundtrip_decrypts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (pk, sk) = keygen(256, 24, &mut rng);
        let sk2 = import_secret(&export_secret(&sk)).unwrap();
        let obf = Obfuscator::new(&pk, ObfMode::Pool(4), 4);
        let m = Dense::from_vec(2, 2, vec![0.5, -0.5, 3.25, -7.0]);
        let ct = pk.encrypt(&m, &obf);
        assert!(sk2.decrypt(&ct).approx_eq(&m, 1e-5));
    }

    #[test]
    fn plain_keys_roundtrip() {
        let pk = PublicKey::Plain { frac_bits: 20 };
        let got = import_public(&export_public(&pk)).unwrap();
        assert!(matches!(got, PublicKey::Plain { frac_bits: 20 }));
        let sk = import_secret(&export_secret(&SecretKey::Plain)).unwrap();
        assert!(matches!(sk, SecretKey::Plain));
    }

    #[test]
    fn rejects_garbage() {
        assert!(import_public("nonsense").is_err());
        assert!(import_public("bfpk1:abc:xyz").is_err());
        assert!(import_secret("bfsk1:24:ff").is_err()); // missing q
        assert!(import_public("bfpk1:24:ff:extra").is_err());
    }

    #[test]
    fn refuses_moduli_and_scales_no_key_can_have() {
        // Each of these reached `MontCtx::new` (even moduli panicked) or
        // overflowed `SlotLayout::for_key` downstream.
        let ok = "c5".repeat(8); // a 64-bit odd modulus
        for bad in [
            "bfpk1:32:2".to_string(),
            "bfpk1:32:0".into(),
            "bfpk1:32:1".into(),
            "bfpk1:32:10".into(),
            "bfpk1:32:".into(),
            format!("bfpk1:32:{}", "c4".repeat(8)), // even
            format!("bfpk1:32:{}", "c5".repeat(7)), // 56 bits
            format!("bfpk1:4000000000:{ok}"),       // frac_bits
            format!("bfpk1:64:{ok}"),
            "bfplain1:64".into(),
            "bfplain1:24:extra".into(),
        ] {
            assert!(import_public(&bad).is_err(), "{bad}");
        }
        for good in [format!("bfpk1:63:{ok}"), "bfplain1:63".into()] {
            assert_eq!(export_public(&import_public(&good).unwrap()), good);
        }
        // The key floor is keygen's: its 64-bit keys may be 63 bits.
        assert!(import_public(&format!("bfpk1:32:{}", "7f".repeat(8))).is_ok());
        assert!(import_secret("bfsk1:64:fffb:fff1").is_err());
    }

    #[test]
    fn ctmat_paillier_roundtrip_decrypts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (pk, sk) = keygen(256, 24, &mut rng);
        let obf = Obfuscator::new(&pk, ObfMode::Pool(4), 6);
        let m = Dense::from_vec(2, 3, vec![1.0, -2.5, 0.0, 7.25, -0.125, 3.0]);
        let ct = pk.encrypt(&m, &obf);
        let bytes = export_ctmat(&ct);
        assert_eq!(bytes.capacity(), bytes.len(), "export reserves exactly");
        let ct2 = import_ctmat(&bytes).unwrap();
        assert_eq!(ct, ct2);
        assert!(sk.decrypt(&ct2).approx_eq(&m, 1e-5));
    }

    #[test]
    fn ctmat_plain_and_empty_roundtrip() {
        let (pk, _) = crate::keys::plain_keys(20);
        let obf = Obfuscator::new(&pk, ObfMode::Pool(2), 0);
        let m = Dense::from_vec(1, 2, vec![0.5, -4.0]);
        let ct = pk.encrypt(&m, &obf);
        let bytes = export_ctmat(&ct);
        assert_eq!(bytes.capacity(), bytes.len(), "export reserves exactly");
        assert_eq!(import_ctmat(&bytes).unwrap(), ct);
        // Empty matrix (0 rows) survives too.
        let empty = pk.encrypt(&Dense::zeros(0, 3), &obf);
        assert_eq!(import_ctmat(&export_ctmat(&empty)).unwrap(), empty);
    }

    #[test]
    fn ctmat_packed_roundtrip_decrypts() {
        use crate::pack::PaillierMode;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let (pk, sk) = keygen(256, 20, &mut rng);
        let obf = Obfuscator::new(&pk, ObfMode::Pool(4), 6);
        let m = Dense::from_vec(2, 4, vec![1.0, -2.5, 0.0, 7.25, -0.125, 3.0, 4.5, -6.0]);
        let ct = pk.encrypt_mode(&m, PaillierMode::Packed, &obf);
        assert!(ct.is_packed());
        let bytes = export_ctmat(&ct);
        assert_eq!(bytes.capacity(), bytes.len(), "export reserves exactly");
        let ct2 = import_ctmat(&bytes).unwrap();
        assert_eq!(ct, ct2);
        assert_eq!(sk.decrypt(&ct2), sk.decrypt(&ct));
    }

    #[test]
    fn ctmat_rejects_malformed_packed_bytes() {
        // A syntactically valid packed header template: 2×4, scale 1.
        let header = |k: u64, slot_bits: u64, slots: u64, seg: u64| {
            let mut b = Vec::new();
            b.extend_from_slice(&2u64.to_le_bytes());
            b.extend_from_slice(&4u64.to_le_bytes());
            b.push(1);
            b.push(2); // packed body
            b.extend_from_slice(&k.to_le_bytes());
            b.extend_from_slice(&slot_bits.to_le_bytes());
            b.extend_from_slice(&slots.to_le_bytes());
            b.extend_from_slice(&seg.to_le_bytes());
            b
        };
        // Zero slots / zero slot_bits / zero seg: must not divide by zero.
        assert!(import_ctmat(&header(8, 80, 0, 4)).is_err());
        assert!(import_ctmat(&header(8, 0, 3, 4)).is_err());
        assert!(import_ctmat(&header(8, 80, 3, 0)).is_err());
        assert!(import_ctmat(&header(0, 80, 3, 4)).is_err());
        // slot_bits beyond the digit-extraction limit.
        assert!(import_ctmat(&header(8, 500, 3, 4)).is_err());
        // seg does not divide cols.
        assert!(import_ctmat(&header(8, 80, 3, 3)).is_err());
        // Correct header but truncated limb data.
        let mut b = header(8, 80, 3, 4);
        b.extend_from_slice(&[0u8; 8]);
        assert!(import_ctmat(&b).is_err());
    }

    #[test]
    fn ctmat_rejects_malformed_bytes() {
        assert!(import_ctmat(&[]).is_err());
        assert!(import_ctmat(&[0; 17]).is_err());
        // Plausible header, wrong body length.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.push(1); // scale
        bytes.push(0); // plain body
        bytes.extend_from_slice(&[0u8; 8]); // 1 value instead of 4
        assert!(import_ctmat(&bytes).is_err());
        // Unknown body tag.
        let mut bytes = vec![0u8; 18];
        bytes[17] = 9;
        assert!(import_ctmat(&bytes).is_err());
        // Huge claimed dimensions must not allocate.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.push(1);
        bytes.push(0);
        assert!(import_ctmat(&bytes).is_err());
    }
}
