//! HE ↔ SS conversion — the paper's Algorithm 1 and Algorithm 2.
//!
//! `HE2SS` turns a ciphertext `⟦v⟧` (held by the party *without* the
//! secret key) into an additive sharing `⟨φ, v − φ⟩`: the holder
//! subtracts a random mask homomorphically and ships the result to the
//! key owner for decryption. `SS2HE` turns a sharing into ciphertexts
//! of `v` under each party's key via one exchange of encrypted pieces.
//!
//! Decryption is the expensive half of Algorithm 1, so a
//! [`PaillierMode::Packed`] session packs before it decrypts: a holder
//! whose `⟦v − φ⟧` is still one value per ciphertext folds every `slots`
//! of them into one ([`PublicKey::repack`]) and sends a `1 × N` packed
//! row; the key owner runs `⌈N/slots⌉` CRT decryptions instead of `N`
//! and reads the same `f64`s out of the slots, bit for bit. A
//! plain×cipher product handed over as a [`Product`]
//! ([`he2ss_product_holder`]) is folded first when its coefficients are
//! all integers: fold, then rescale the folded ciphertexts to scale 2
//! ([`PublicKey::rescale`], the product's `2^frac_bits` power paid on
//! `⌈N/slots⌉` ciphertexts instead of `N`), then subtract `φ` packed as
//! a `1 × N` row — the same group element as subtracting first and
//! folding after, so the same reply bytes. Any other `⟦v⟧` is masked,
//! then folded. `PaillierMode::Scalar` sends `⟦v − φ⟧` exactly as
//! Algorithm 1 writes it. The mode is shared session configuration,
//! like the layout of every other upload. A `⟦v − φ⟧` that is already
//! packed ships as it is; `repack`'s second case (narrow packed rows)
//! belongs to the tree histograms (`blindfl::trees`), whose replies are
//! not masked.

use bf_paillier::{CtMat, Obfuscator, PaillierMode, PublicKey, SecretKey, MAX_HE_MASK};
use bf_tensor::{Dense, Features};
use rand::Rng;

use crate::shares::random_mask;
use crate::transport::{Endpoint, Msg, TransportError, TransportResult};
use crate::wire::WireError;

/// Algorithm 1, holder side: given `⟦v⟧` under the *peer's* key,
/// generate a mask `φ`, send `⟦v − φ⟧` to the peer — repacked
/// `slots`-to-1 under [`PaillierMode::Packed`] when it holds one value
/// per ciphertext and the key can pack — and return `φ`.
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

/// A plain×cipher product to split by [`he2ss_product_holder`]: the
/// kernel and its operands, so the holder chooses where the product's
/// `2^frac_bits` power is paid.
#[derive(Clone, Copy, Debug)]
pub enum Product<'a> {
    /// `X·⟦W⟧` ([`PublicKey::matmul`]).
    MatMul {
        /// The plaintext features.
        x: &'a Features,
        /// The encrypted weights.
        w: &'a CtMat,
    },
    /// `Xᵀ·⟦G⟧` on `support` ([`PublicKey::t_matmul_support`]).
    TMatMulSupport {
        /// The plaintext features.
        x: &'a Features,
        /// The encrypted gradient.
        g: &'a CtMat,
        /// The feature rows to materialise.
        support: &'a [u32],
    },
}

impl Product<'_> {
    /// The encrypted operand, whose lane layout the product keeps.
    fn operand(&self) -> &CtMat {
        match *self {
            Product::MatMul { w, .. } => w,
            Product::TMatMulSupport { g, .. } => g,
        }
    }

    /// The product at scale 2.
    fn scaled(&self, pk: &PublicKey) -> CtMat {
        match *self {
            Product::MatMul { x, w } => pk.matmul(x, w),
            Product::TMatMulSupport { x, g, support } => pk.t_matmul_support(x, g, support),
        }
    }

    /// The product at its operand's scale, if every coefficient is an
    /// integer.
    fn unscaled(&self, pk: &PublicKey) -> Option<CtMat> {
        match *self {
            Product::MatMul { x, w } => pk.matmul_unscaled(x, w),
            Product::TMatMulSupport { x, g, support } => {
                pk.t_matmul_support_unscaled(x, g, support)
            }
        }
    }
}

/// [`he2ss_holder`] of the scale-2 product `prod`: the same mask draw
/// and the same reply bytes, with the product's power paid where the
/// fewest ciphertexts carry it. Under [`PaillierMode::Packed`], a
/// product that is one value per ciphertext and whose coefficients are
/// all integers (0/1 indicators, counts) is folded first, then
/// rescaled ([`PublicKey::rescale`]: `⌈N/slots⌉` powers instead of
/// `N`), then masked by `φ` packed as a `1 × N` row. Subtracting `φ`
/// before or after the fold and the power gives the same group
/// element, so the key owner cannot tell the paths apart. Any other
/// product — a real-valued coefficient anywhere, a packed operand, a
/// Plain body, a `Scalar` session, a mask past [`MAX_HE_MASK`] (whose
/// packed `φ` would not fit its slots) — is the kernel's scale-2
/// result through [`he2ss_holder`].
pub fn he2ss_product_holder<R: Rng + ?Sized>(
    ep: &Endpoint,
    peer_pk: &PublicKey,
    prod: Product<'_>,
    mask: f64,
    mode: PaillierMode,
    rng: &mut R,
) -> TransportResult<Dense> {
    let unscaled = match mode {
        PaillierMode::Packed if !prod.operand().is_packed() && mask <= MAX_HE_MASK => {
            prod.unscaled(peer_pk)
        }
        _ => None,
    };
    let Some(unscaled) = unscaled else {
        return he2ss_holder(ep, peer_pk, &prod.scaled(peer_pk), mask, mode, rng);
    };
    let phi = random_mask(rng, unscaled.rows(), unscaled.cols(), mask);
    let folded = peer_pk.repack(unscaled);
    let packed_phi = phi.clone().reshaped(folded.rows(), folded.cols());
    let masked = peer_pk.sub_plain(&peer_pk.rescale(&folded, 2), &packed_phi);
    ep.send(Msg::Ct(masked))?;
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
/// party's own* key in ciphertext layout `mode`, receive the peer's
/// encrypted piece (under the peer's key), and return `⟦v⟧ = ⟦v_peer⟧ +
/// v_mine` — a ciphertext of the full value under the **peer's** key.
///
/// Both parties must pass the same `mode` (it is part of the shared
/// session config): the packed layout is derived only from the key and
/// shape, so the peer's `add_plain` sees a matching body. Falls back to
/// one value per ciphertext when the shape or key cannot pack.
pub fn ss2he(
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
    use bf_paillier::{export_ctmat, import_public, keygen, ObfMode};
    use bf_tensor::{Csr, Dense};
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
        let scalar = PaillierMode::Scalar;
        let handle =
            std::thread::spawn(move || ss2he(&ep_a, &pk_a2, &obf_a, &pk_b2, &pa, scalar).unwrap());
        let ct_under_a = ss2he(&ep_b, &pk_b, &obf_b, &pk_a, &piece_b, scalar).unwrap();
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
                ss2he(&ep_a, &pk_a2, &obf_a, &pk_b2, &piece_a, mode).unwrap()
            });
            let ct_under_a = ss2he(&ep_b, &pk_b, &obf_b, &pk_a, &piece_b, mode).unwrap();
            let ct_under_b = handle.join().unwrap();
            (sk_a.decrypt(&ct_under_a), sk_b.decrypt(&ct_under_b))
        };
        let (sa, sb) = run(PaillierMode::Scalar);
        let (pa, pb) = run(PaillierMode::Packed);
        assert_eq!(pa.data(), sa.data());
        assert_eq!(pb.data(), sb.data());
    }

    /// The public halves of `bf_paillier`'s fixed test keys: 512-,
    /// 1024- and 2048-bit moduli on fixed primes, 32 fractional bits
    /// (9 slots of 104 bits at 1024 bits, 4 at 512, 19 at 2048).
    const FIXED_KEYS: [&str; 3] = [
        "bfpk1:32:d8b5d164d6a72ef5d0562e38cbea1781f4152b78051cc56f41bcac4a9d8c0c29\
         66f6a26c43a170c8d990be6639a8c8943b0e896c35f2a42884c9092b7ec2411b",
        "bfpk1:32:745cbc3c22a2be8ece26cbd3dd7d4e0f3fb62fe2b781f26f7cd30ada1ccd701b\
         a31e19d483f5837a96a2d2923e7d0748f3dc25d448a337ad405f04f8ae969d78\
         41227a9f377b7ad22afd96c2eb8b9c461c9168256625d1fea97f8706694adfa0\
         550d6a7d7d7b5ba62eeb3adb3ea0f1d7d25c1ffd903e7efae5432fb3b38dff49",
        "bfpk1:32:c929f07a6614bb7dfcf39e2d1800f86f27de35e99b06bf3b2c6fbb840dfed4d0\
         a302ef56ec08dbd736a035d320f9287a81c7d64320d0c0e8be0ccb2a5a617374\
         e2f79a29578deb8de48ffd5c2cb535e8ab87ea296e2a79183ac3abd977146df2\
         9884447cde469719de9a412bea06a8d0360269c526a646080ad8b32bc93b4ba1\
         caa363ea641f40b17b6e2ca355f1dddc6da2320b4f1bc4889a41456d7b0ec43e\
         74b75ce391f37c14570c1f12bde8f6836e33dfc46aae61e1ba54f68461b855fa\
         c57ae0e4df77a051c344c0e5898245db249a1685b08a9dd12376f702b42ab640\
         ef95b7165dc7507b40fb2f61fdcf0527ad74972bca6beb1dd605a1dedc9d59ad",
    ];

    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    /// `rows × cols` with entries in {0, ±1, ±2}.
    fn small_ints(rows: usize, cols: usize, seed: u64) -> Dense {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-2i32..=2) as f64)
            .collect();
        Dense::from_vec(rows, cols, data)
    }

    fn uniform(rows: usize, cols: usize, seed: u64) -> Dense {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        bf_tensor::init::uniform(&mut rng, rows, cols, 3.0)
    }

    #[test]
    fn folded_product_replies_are_the_mask_then_fold_bytes() {
        // FNV-1a of `export_ctmat` of every reply, taken at the commit
        // before products could be folded ahead of their power, when
        // `he2ss_holder` masked the scale-2 product and then folded it.
        // Per key: integer `X·⟦W⟧`, integer `Xᵀ·⟦G⟧` (dense and CSR
        // `X` of 0, ±1, ±2 at 1, 2, 8, 9, 17 and 128 rows; both
        // operands one value per ciphertext, two columns), and both
        // products again with one coefficient of 0.5, which takes the
        // scale-2 path.
        let want: [[u64; 3]; 3] = [
            [
                0xe8c3_995a_e647_d66d,
                0xaf9c_ef1c_27f0_3d65,
                0x7065_6f37_81cc_f923,
            ],
            [
                0x29eb_681f_713e_01d5,
                0x1087_acf8_35b3_64c1,
                0x3cdc_b9c5_613f_9116,
            ],
            [
                0x6bf4_e074_3aeb_aea9,
                0x33a3_0d4a_4e3d_bcb9,
                0xdc6e_ba07_b943_c634,
            ],
        ];
        for (key, want) in FIXED_KEYS.iter().zip(want) {
            let pk = import_public(key).unwrap();
            let obf = Obfuscator::new(&pk, ObfMode::Pool(4), 9);
            let reply = |prod: Product, seed: u64| {
                let (a, b) = channel_pair();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mode = PaillierMode::Packed;
                let phi = he2ss_product_holder(&a, &pk, prod, 1000.0, mode, &mut rng).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                assert_eq!(phi, random_mask(&mut rng, phi.rows(), phi.cols(), 1000.0));
                export_ctmat(&b.recv_ct().unwrap())
            };
            let mut got = [0xcbf2_9ce4_8422_2325u64; 3];
            for rows in [1usize, 2, 8, 9, 17, 128] {
                let seed = rows as u64;
                let w = pk.encrypt(&uniform(5, 2, seed), &obf);
                let g = pk.encrypt(&uniform(rows, 2, seed + 1), &obf);
                let support: Vec<u32> = (0..5).collect();
                let mut xd = small_ints(rows, 5, seed + 2);
                let sparse = Features::Sparse(Csr::from_dense(&xd));
                assert!(pk.matmul_unscaled(&sparse, &w).is_some());
                for x in [&Features::Dense(xd.clone()), &sparse] {
                    got[0] = fnv1a(got[0], &reply(Product::MatMul { x, w: &w }, seed));
                    let prod = Product::TMatMulSupport {
                        x,
                        g: &g,
                        support: &support,
                    };
                    got[1] = fnv1a(got[1], &reply(prod, seed));
                }
                xd.set(rows - 1, 4, 0.5);
                let x = &Features::Dense(xd);
                assert!(pk.matmul_unscaled(x, &w).is_none());
                got[2] = fnv1a(got[2], &reply(Product::MatMul { x, w: &w }, seed));
                let prod = Product::TMatMulSupport {
                    x,
                    g: &g,
                    support: &support,
                };
                got[2] = fnv1a(got[2], &reply(prod, seed));
            }
            assert_eq!(got, want, "{}", &key[..24]);
        }
    }

    #[test]
    fn a_folded_product_reply_reconstructs_on_every_path() {
        // 256-bit/frac-24 keys pack 2 slots. An integer `X` folds ahead
        // of the power under `Packed`; a real one, a `Scalar` session and
        // a packed operand take the scale-2 kernel. Every path splits the
        // same plaintext product.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (pk, sk) = keygen(256, 24, &mut rng);
        let obf = Obfuscator::new(&pk, ObfMode::Pool(4), 1);
        let wd = uniform(4, 2, 2);
        let int = Features::Dense(small_ints(5, 4, 3));
        let real = Features::Dense(uniform(5, 4, 4));
        let scalar = pk.encrypt(&wd, &obf);
        let packed = pk.encrypt_mode(&wd, PaillierMode::Packed, &obf);
        assert!(packed.is_packed());
        assert!(pk.matmul_unscaled(&int, &scalar).is_some());
        for x in [&int, &real] {
            let want = x.to_dense().matmul(&wd);
            for (w, mode) in [
                (&scalar, PaillierMode::Packed),
                (&scalar, PaillierMode::Scalar),
                (&packed, PaillierMode::Packed),
            ] {
                let (a, b) = channel_pair();
                let prod = Product::MatMul { x, w };
                let phi = he2ss_product_holder(&a, &pk, prod, 100.0, mode, &mut rng).unwrap();
                let piece = he2ss_peer(&b, &sk, 5, 2).unwrap();
                let err = phi.add(&piece).sub(&want).max_abs();
                assert!(err < 1e-5, "{mode:?}: {err}");
            }
        }
    }
}
