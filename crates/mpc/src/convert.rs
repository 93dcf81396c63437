//! HE ↔ SS conversion — the paper's Algorithm 1 and Algorithm 2.
//!
//! `HE2SS` turns a ciphertext `⟦v⟧` (held by the party *without* the
//! secret key) into an additive sharing `⟨φ, v − φ⟩`: the holder
//! subtracts a random mask homomorphically and ships the result to the
//! key owner for decryption. `SS2HE` turns a sharing into ciphertexts
//! of `v` under each party's key via one exchange of encrypted pieces.
//!
//! Decryption is the expensive half of Algorithm 1, so a
//! [`PaillierMode::Packed`] session packs before it decrypts: after the
//! mask is subtracted, a holder whose `⟦v − φ⟧` is still one value per
//! ciphertext folds every `slots` of them into one
//! ([`PublicKey::repack`]) and sends a `1 × N` packed row; the key owner
//! runs `⌈N/slots⌉` CRT decryptions instead of `N` and reads the same
//! `f64`s out of the slots, bit for bit. `PaillierMode::Scalar` sends
//! `⟦v − φ⟧` exactly as Algorithm 1 writes it. The mode is shared
//! session configuration, like the layout of every other upload. A
//! `⟦v − φ⟧` that is already packed ships as it is; `repack`'s second
//! case (narrow packed rows) belongs to the tree histograms
//! (`blindfl::trees`), whose replies are not masked.

use bf_paillier::{CtMat, Obfuscator, PaillierMode, PublicKey, SecretKey};
use bf_tensor::Dense;
use rand::Rng;

use crate::shares::random_mask;
use crate::transport::{Endpoint, Msg, TransportError, TransportResult};
use crate::wire::WireError;

/// Algorithm 1, holder side: given `⟦v⟧` under the *peer's* key,
/// generate a mask `φ`, send `⟦v − φ⟧` to the peer — repacked
/// `slots`-to-1 under [`PaillierMode::Packed`] when it is a scalar body
/// the key can pack — and return `φ`.
pub fn he2ss_holder<R: Rng + ?Sized>(
    ep: &Endpoint,
    peer_pk: &PublicKey,
    ct: &CtMat,
    mask: f64,
    mode: PaillierMode,
    rng: &mut R,
) -> TransportResult<Dense> {
    let phi = random_mask(rng, ct.rows(), ct.cols(), mask);
    let masked = peer_pk.sub_plain(ct, &phi);
    // Scalar bodies only: a masked product that is already packed ships
    // in its own layout, whatever else `repack` could fold.
    ep.send(Msg::Ct(match mode {
        PaillierMode::Packed if !masked.is_packed() => peer_pk.repack(masked),
        _ => masked,
    }))?;
    Ok(phi)
}

/// Algorithm 1, key-owner side: receive `⟦v − φ⟧` and decrypt it,
/// yielding this party's `rows × cols` piece `v − φ`
/// ([`decrypt_reply`] of the next ciphertext message).
pub fn he2ss_peer(
    ep: &Endpoint,
    sk: &SecretKey,
    rows: usize,
    cols: usize,
) -> TransportResult<Dense> {
    decrypt_reply(sk, &ep.recv_ct()?, rows, cols)
}

/// Decrypt a ciphertext body that came off the wire into the
/// `rows × cols` values the caller is about to use.
///
/// The body is the peer's bytes. It may arrive in the holder's shape or
/// as a repacked `1 × N` row; one with any other element count, or one
/// that is not a body under `sk` at all ([`SecretKey::conforms`]: a
/// Plain body in a Paillier session, another limb count, a slot
/// geometry the key does not have), is refused here as a malformed
/// payload, before `decrypt`, a kernel or `Dense::add` can panic on it.
pub fn decrypt_reply(
    sk: &SecretKey,
    ct: &CtMat,
    rows: usize,
    cols: usize,
) -> TransportResult<Dense> {
    let malformed = |why: String| TransportError::Wire(WireError::Malformed(why));
    if ct.rows() * ct.cols() != rows * cols {
        return Err(malformed(format!(
            "encrypted reply is {}×{}, expected {rows}×{cols} values",
            ct.rows(),
            ct.cols()
        )));
    }
    sk.conforms(ct)
        .map_err(|why| malformed(format!("encrypted reply carries {why}")))?;
    Ok(sk.decrypt(ct).reshaped(rows, cols))
}

/// Algorithm 2 (symmetric in both parties): given this party's piece
/// `v_mine` of a sharing of `v`, encrypt and send it under *this
/// party's own* key, receive the peer's encrypted piece (under the
/// peer's key), and return `⟦v⟧ = ⟦v_peer⟧ + v_mine` — a ciphertext of
/// the full value under the **peer's** key.
pub fn ss2he(
    ep: &Endpoint,
    own_pk: &PublicKey,
    own_obf: &Obfuscator,
    peer_pk: &PublicKey,
    v_mine: &Dense,
) -> TransportResult<CtMat> {
    ss2he_mode(ep, own_pk, own_obf, peer_pk, v_mine, PaillierMode::Scalar)
}

/// [`ss2he`] with an explicit ciphertext layout for the encrypted piece
/// this party sends. Both parties must pass the same `mode` (it is part
/// of the shared session config): the packed layout is derived only
/// from the key and shape, so the peer's `add_plain` sees a matching
/// body. Falls back to scalar when the shape or key cannot pack.
pub fn ss2he_mode(
    ep: &Endpoint,
    own_pk: &PublicKey,
    own_obf: &Obfuscator,
    peer_pk: &PublicKey,
    v_mine: &Dense,
    mode: PaillierMode,
) -> TransportResult<CtMat> {
    let enc_mine = own_pk.encrypt_mode(v_mine, mode, own_obf);
    ep.send(Msg::Ct(enc_mine))?;
    let enc_peer = ep.recv_ct()?;
    Ok(peer_pk.add_plain(&enc_peer, v_mine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel_pair;
    use bf_paillier::{keygen, ObfMode};
    use bf_tensor::Dense;
    use rand::SeedableRng;

    #[test]
    fn he2ss_reconstructs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (pk_b, sk_b) = keygen(256, 24, &mut rng);
        let obf_b = Obfuscator::new(&pk_b, ObfMode::Pool(4), 1);
        let v = Dense::from_vec(2, 2, vec![1.25, -3.5, 0.0, 42.0]);
        // B encrypts v under its key; A holds ⟦v⟧_B.
        let ct = pk_b.encrypt(&v, &obf_b);
        let (ep_a, ep_b) = channel_pair();
        let phi = he2ss_holder(&ep_a, &pk_b, &ct, 100.0, PaillierMode::Scalar, &mut rng).unwrap();
        let piece_b = he2ss_peer(&ep_b, &sk_b, 2, 2).unwrap();
        assert!(phi.add(&piece_b).approx_eq(&v, 1e-5));
    }

    #[test]
    fn he2ss_packed_reply_is_bit_identical_and_slots_times_fewer_ciphertexts() {
        // 256-bit/frac-24 keys pack 2 slots; a 5×1 scale-2 product is the
        // one-column shape no upload can pack.
        let run = |mode: PaillierMode| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            let (pk_b, sk_b) = keygen(256, 24, &mut rng);
            let obf_b = Obfuscator::new(&pk_b, ObfMode::Pool(4), 1);
            let v = Dense::from_vec(5, 1, vec![1.25, -3.5, 0.0, -42.0, 7.0]);
            let ct = pk_b.encrypt_at_scale(&v, 2, &obf_b);
            let (ep_a, ep_b) = channel_pair();
            let phi = he2ss_holder(&ep_a, &pk_b, &ct, 100.0, mode, &mut rng).unwrap();
            let piece = he2ss_peer(&ep_b, &sk_b, 5, 1).unwrap();
            let reference = Msg::Ct(pk_b.sub_plain(&ct, &phi)).wire_size() as u64;
            (phi, piece, ep_a.stats().bytes(), reference)
        };
        let bits = |m: &Dense| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (phi_s, piece_s, bytes_s, reference) = run(PaillierMode::Scalar);
        let (phi_p, piece_p, bytes_p, _) = run(PaillierMode::Packed);
        assert_eq!(piece_p.shape(), (5, 1));
        assert_eq!(bits(&phi_p), bits(&phi_s));
        assert_eq!(bits(&piece_p), bits(&piece_s));
        assert_eq!(bits(&phi_p.add(&piece_p)), bits(&phi_s.add(&piece_s)));
        // Scalar is Algorithm 1 as written: the bytes of ⟦v − φ⟧ itself.
        assert_eq!(bytes_s, reference);
        // Packed: ⌈5/2⌉ = 3 ciphertexts instead of 5, after the 16-byte
        // tensor header and the packed body's 32-byte geometry header.
        let ct_bytes = (reference - 16) / 5;
        assert_eq!(bytes_p, 16 + 32 + 3 * ct_bytes);
    }

    #[test]
    fn he2ss_holder_ships_a_packed_body_in_its_own_layout() {
        // 512-bit/frac-32 keys hold 4 slots, so `repack` could fold a
        // 3×2 packed body 2-to-1 — the holder must not: only scalar
        // bodies are folded on the HE2SS path.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (pk_b, sk_b) = keygen(512, 32, &mut rng);
        let obf_b = Obfuscator::new(&pk_b, ObfMode::Pool(4), 1);
        let v = Dense::from_vec(3, 2, vec![1.25, -3.5, 0.0, -42.0, 7.0, 0.5]);
        let ct = pk_b.encrypt_mode(&v, PaillierMode::Packed, &obf_b);
        assert!(ct.is_packed() && pk_b.repack(ct.clone()) != ct);
        let (ep_a, ep_b) = channel_pair();
        let phi = he2ss_holder(&ep_a, &pk_b, &ct, 100.0, PaillierMode::Packed, &mut rng).unwrap();
        assert_eq!(
            ep_a.stats().bytes(),
            Msg::Ct(pk_b.sub_plain(&ct, &phi)).wire_size() as u64
        );
        let piece = he2ss_peer(&ep_b, &sk_b, 3, 2).unwrap();
        assert!(phi.add(&piece).approx_eq(&v, 1e-5));
    }

    #[test]
    fn he2ss_reply_with_the_wrong_element_count_is_a_typed_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (pk_b, sk_b) = keygen(256, 24, &mut rng);
        let obf_b = Obfuscator::new(&pk_b, ObfMode::Pool(4), 1);
        let ct = pk_b.encrypt(&Dense::zeros(5, 1), &obf_b);
        for mode in [PaillierMode::Scalar, PaillierMode::Packed] {
            let (ep_a, ep_b) = channel_pair();
            he2ss_holder(&ep_a, &pk_b, &ct, 100.0, mode, &mut rng).unwrap();
            let err = he2ss_peer(&ep_b, &sk_b, 4, 1).unwrap_err();
            assert!(
                matches!(&err, TransportError::Wire(WireError::Malformed(_))),
                "{mode:?}: {err}"
            );
        }
    }

    #[test]
    fn he2ss_reply_that_is_no_body_under_the_key_is_a_typed_error() {
        // The right number of values every time; what is wrong is the
        // body. The key owner's key is 256-bit at 24 fractional bits:
        // 8-limb ciphertexts, 2 slots of 88 bits.
        use bf_paillier::keys::plain_keys;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (pk_b, sk_b) = keygen(256, 24, &mut rng);
        let (plain_pk, plain_sk) = plain_keys(24);
        let (half_pk, _) = keygen(128, 24, &mut rng); // 4-limb ciphertexts
        let (frac_pk, _) = keygen(256, 20, &mut rng); // 8 limbs, 3 slots of 80 bits
        let v = Dense::from_vec(2, 3, vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0]);
        let under = |pk: &PublicKey, mode| {
            pk.encrypt_mode(&v, mode, &Obfuscator::new(pk, ObfMode::Pool(2), 1))
        };
        let packed = under(&frac_pk, PaillierMode::Packed);
        assert!(packed.is_packed());
        let replies = [
            (under(&plain_pk, PaillierMode::Scalar), &sk_b),
            (under(&half_pk, PaillierMode::Scalar), &sk_b),
            (packed, &sk_b),
            (under(&pk_b, PaillierMode::Scalar), &plain_sk),
        ];
        for (i, (ct, sk)) in replies.iter().enumerate() {
            let (ep_a, ep_b) = channel_pair();
            ep_a.send(Msg::Ct(ct.clone())).unwrap();
            let err = he2ss_peer(&ep_b, sk, 2, 3).unwrap_err();
            assert!(
                matches!(&err, TransportError::Wire(WireError::Malformed(_))),
                "reply {i}: {err}"
            );
        }
        for mode in [PaillierMode::Scalar, PaillierMode::Packed] {
            let (ep_a, ep_b) = channel_pair();
            ep_a.send(Msg::Ct(under(&pk_b, mode))).unwrap();
            assert!(he2ss_peer(&ep_b, &sk_b, 2, 3).unwrap().approx_eq(&v, 1e-5));
        }
    }

    #[test]
    fn ss2he_reconstructs_under_both_keys() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let (pk_a, sk_a) = keygen(192, 20, &mut rng);
        let (pk_b, sk_b) = keygen(192, 20, &mut rng);
        let obf_a = Obfuscator::new(&pk_a, ObfMode::Pool(4), 2);
        let obf_b = Obfuscator::new(&pk_b, ObfMode::Pool(4), 3);
        let v = Dense::from_vec(1, 3, vec![5.0, -1.5, 2.25]);
        let (piece_a, piece_b) = crate::shares::share_dense(&mut rng, &v, 10.0);

        let (ep_a, ep_b) = channel_pair();
        let pk_a2 = pk_a.clone();
        let pk_b2 = pk_b.clone();
        let pa = piece_a.clone();
        let handle = std::thread::spawn(move || ss2he(&ep_a, &pk_a2, &obf_a, &pk_b2, &pa).unwrap());
        let ct_under_a = ss2he(&ep_b, &pk_b, &obf_b, &pk_a, &piece_b).unwrap();
        let ct_under_b = handle.join().unwrap();

        // A's output decrypts under B's key; B's under A's key.
        assert!(sk_b.decrypt(&ct_under_b).approx_eq(&v, 1e-5));
        assert!(sk_a.decrypt(&ct_under_a).approx_eq(&v, 1e-5));
    }

    #[test]
    fn ss2he_packed_bit_identical_to_scalar() {
        // 256-bit/frac-20 keys pack 3 slots; both parties run Packed and
        // the reconstruction must equal the scalar run bit-for-bit.
        let run = |mode: PaillierMode| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(17);
            let (pk_a, sk_a) = keygen(256, 20, &mut rng);
            let (pk_b, sk_b) = keygen(256, 20, &mut rng);
            let obf_a = Obfuscator::new(&pk_a, ObfMode::Pool(4), 2);
            let obf_b = Obfuscator::new(&pk_b, ObfMode::Pool(4), 3);
            let v = Dense::from_vec(2, 3, vec![5.0, -1.5, 2.25, 0.0, -7.125, 3.5]);
            let (piece_a, piece_b) = crate::shares::share_dense(&mut rng, &v, 10.0);

            let (ep_a, ep_b) = channel_pair();
            let pk_a2 = pk_a.clone();
            let pk_b2 = pk_b.clone();
            let handle = std::thread::spawn(move || {
                ss2he_mode(&ep_a, &pk_a2, &obf_a, &pk_b2, &piece_a, mode).unwrap()
            });
            let ct_under_a = ss2he_mode(&ep_b, &pk_b, &obf_b, &pk_a, &piece_b, mode).unwrap();
            let ct_under_b = handle.join().unwrap();
            (sk_a.decrypt(&ct_under_a), sk_b.decrypt(&ct_under_b))
        };
        let (sa, sb) = run(PaillierMode::Scalar);
        let (pa, pb) = run(PaillierMode::Packed);
        assert_eq!(pa.data(), sa.data());
        assert_eq!(pb.data(), sb.data());
    }
}
