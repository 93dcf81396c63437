//! Property tests for slot-wise packing: pack/unpack round-trips
//! across shapes (0-row, 1×1, max frac_bits), slot-overflow rejection,
//! the decrypt-only repack of scalar bodies and of narrow packed rows
//! (bit-identity with the unfolded decrypt, the mask envelope at its
//! boundary, and every folded ciphertext byte for byte the product of
//! its sources' powers, on either fold path), the width-aware CRT decryption (one half for plaintexts
//! below `p/2` ≡ both halves, ring element for ring element), the
//! batched decryption (the CRT halves of a call eight to a lane-kernel
//! group ≡ one ciphertext at a time), the key owner's conformance check
//! of a received body, the packed
//! ciphertext-tensor codec (golden bytes + corruption fuzz, mirroring
//! the wire_prop suite in bf-mpc), and the `g = n + 1` identity every
//! plaintext enters a ciphertext by (`x + n·(m·x mod n)`), byte for
//! byte against the textbook `to_mont(1 + m·n) ⊗ x`. Two set-up paths
//! are held against their references here too: the limb slot codec
//! against the `BigUint` one it replaced, and the key owner's obfuscator
//! (`Obfuscator::from_secret`, built on the CRT halves) against the
//! public-key `Obfuscator::new`.

use std::sync::OnceLock;

use bf_bigint::BigUint;
use bf_paillier::{
    decode, encode, encode_exponent, export_ctmat, import_ctmat, import_secret, keygen,
    keys::plain_keys, pack_values, unpack_values, CtMat, ObfMode, Obfuscator, PackError,
    PaillierMode, PaillierPk, PaillierSk, PublicKey, SecretKey, SlotLayout, MAX_HE_MASK,
};
use bf_tensor::{Csr, Dense, Features};
use proptest::prelude::*;
use rand::SeedableRng;

fn paillier(key_bits: usize, frac_bits: u32) -> (PublicKey, bf_paillier::SecretKey, Obfuscator) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF ^ key_bits as u64);
    let (pk, sk) = keygen(key_bits, frac_bits, &mut rng);
    let obf = Obfuscator::new(&pk, ObfMode::Pool(4), 3);
    (pk, sk, obf)
}

/// Fixed-point grid values that survive the codec exactly, so the
/// round-trip can assert bit-equality rather than a tolerance.
fn grid_vals(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (-(1i64 << 20)..(1i64 << 20)).prop_map(|q| q as f64 / 256.0),
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_unpack_roundtrips(vals in grid_vals(3), used in 1usize..=3) {
        let (pk, _, _) = paillier(256, 20);
        let PublicKey::Paillier(p) = &pk else { unreachable!() };
        let layout = SlotLayout::for_key(p.key_bits, p.frac_bits).unwrap();
        prop_assume!(used <= layout.slots);
        let chunk = &vals[..used];
        let m = pack_values(chunk, p.frac_bits, 1, layout, &p.n).unwrap();
        let mut out = vec![0.0; used];
        unpack_values(&m, p.frac_bits, 1, layout, &p.n, &p.half_n, &mut out);
        prop_assert_eq!(out, chunk.to_vec());
    }

    #[test]
    fn packed_tensor_roundtrips_any_shape(
        rows in 0usize..=4,
        cols in 2usize..=6,
        vals in grid_vals(24),
    ) {
        // Includes 0-row tensors; 1×1 and other unpackable shapes are
        // covered by the fallback test below.
        let (pk, sk, obf) = paillier(256, 20);
        let m = Dense::from_vec(rows, cols, vals[..rows * cols].to_vec());
        let cs = pk.encrypt(&m, &obf);
        let cp = pk.encrypt_mode(&m, PaillierMode::Packed, &obf);
        let (dp, ds) = (sk.decrypt(&cp), sk.decrypt(&cs));
        prop_assert_eq!(dp.data(), ds.data());
    }

    #[test]
    fn corrupted_packed_bytes_never_panic(flip in 0usize..256, bit in 0u8..8) {
        let (pk, _, obf) = paillier(256, 20);
        let m = Dense::from_vec(2, 4, vec![1.0, -2.0, 3.0, -4.0, 5.5, -6.5, 7.0, 0.0]);
        let mut bytes = export_ctmat(&pk.encrypt_mode(&m, PaillierMode::Packed, &obf));
        let idx = flip % bytes.len();
        bytes[idx] ^= 1 << bit;
        let _ = import_ctmat(&bytes);
    }
}

type Keys = (PublicKey, SecretKey, Obfuscator);

/// The two key shapes HE2SS replies are repacked under: the unit-test
/// key (256-bit, frac 24: 2 slots) and the benchmark's (1024-bit, frac
/// 32: 9 slots). Generated once per test binary.
fn repack_keys() -> &'static [Keys; 2] {
    static KEYS: OnceLock<[Keys; 2]> = OnceLock::new();
    KEYS.get_or_init(|| [paillier(256, 24), paillier(1024, 32)])
}

/// `(slots per ciphertext, bytes per ciphertext)` of a packing key.
fn geometry(pk: &PublicKey) -> (usize, usize) {
    let PublicKey::Paillier(p) = pk else {
        unreachable!()
    };
    let layout = SlotLayout::for_key(p.key_bits, p.frac_bits).unwrap();
    (layout.slots, p.ct_limbs() * 8)
}

fn bits(m: &Dense) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn repack_decrypts_bit_identically_to_the_scalar_body(vals in grid_vals(128)) {
        for (pk, sk, obf) in repack_keys() {
            let (slots, ct_bytes) = geometry(pk);
            // 128 elements are 64 (2 slots) / 15 (9 slots) groups: the
            // parallel branch of the repack and of the packed decrypt.
            for n in [0, 1, slots - 1, slots, slots + 1, 128] {
                // Several columns wherever `n` has a divisor, so the
                // row-major flattening is what gets checked.
                let cols = (2..n).find(|c| n % c == 0).unwrap_or(n.max(1));
                for (scale, all_negative) in [(1, false), (2, false), (2, true)] {
                    let data = vals[..n]
                        .iter()
                        .map(|&v| if all_negative { -v.abs() - 0.5 } else { v })
                        .collect();
                    let m = Dense::from_vec(n / cols, cols, data);
                    let ct = pk.encrypt_at_scale(&m, scale, obf);
                    let want = sk.decrypt(&ct);
                    let packed = pk.repack(ct);
                    prop_assert_eq!(packed.is_packed(), n >= 2);
                    prop_assert_eq!(packed.scale(), scale);
                    if n >= 2 {
                        prop_assert_eq!(packed.shape(), (1, n));
                        let body = packed.wire_size() - 16 - 32;
                        prop_assert_eq!(body, n.div_ceil(slots) * ct_bytes);
                    }
                    let got = sk.decrypt(&packed);
                    prop_assert_eq!(bits(&got), bits(&want));
                }
            }
        }
    }

    #[test]
    fn repack_roundtrips_at_the_mask_envelope(
        gaps in prop::collection::vec(1u32..=1024, 12),
        signs in prop::collection::vec(any::<bool>(), 24),
    ) {
        // The headroom rule at its edge: payloads just inside
        // ±MAX_HE_MASK under masks of exactly ±MAX_HE_MASK, at the scale
        // (2) whose slots are tightest. `v − φ` then reaches
        // 2·MAX_HE_MASK − gap, one fixed-point step short of wrapping.
        let signed = |neg: bool, v: f64| if neg { -v } else { v };
        for (pk, sk, obf) in repack_keys() {
            let v: Vec<f64> = (0..12)
                .map(|i| signed(signs[i], MAX_HE_MASK - gaps[i] as f64 / 1024.0))
                .collect();
            let phi: Vec<f64> = (0..12).map(|i| signed(signs[12 + i], MAX_HE_MASK)).collect();
            let (v, phi) = (Dense::from_vec(12, 1, v), Dense::from_vec(12, 1, phi));
            let masked = pk.sub_plain(&pk.encrypt_at_scale(&v, 2, obf), &phi);
            let want = sk.decrypt(&masked);
            prop_assert_eq!(bits(&want), bits(&v.sub(&phi)));
            prop_assert_eq!(bits(&sk.decrypt(&pk.repack(masked))), bits(&want));
        }
    }
}

/// The two key shapes narrow packed rows are folded under: 512-bit at
/// frac 16 (7 slots of 72 bits) and the benchmark's (9 slots of 104).
fn fold_keys() -> [&'static Keys; 2] {
    static SEVEN: OnceLock<Keys> = OnceLock::new();
    [SEVEN.get_or_init(|| paillier(512, 16)), &repack_keys()[1]]
}

/// A packed `rows × u` body at `scale`: a fresh packed encryption, put
/// through an identity `matmul` for scale 2 (what a histogram reply is).
fn packed_rows(keys: &Keys, m: &Dense, scale: u8) -> bf_paillier::CtMat {
    let (pk, _, obf) = keys;
    let ct = pk.encrypt_mode(m, PaillierMode::Packed, obf);
    if scale == 1 {
        return ct;
    }
    let eye = (0..m.rows()).map(|i| (i, i as u32, 1.0)).collect();
    pk.matmul(
        &Features::Sparse(Csr::from_triplets(m.rows(), m.rows(), eye)),
        &ct,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn repack_folds_narrow_packed_rows_bit_identically(vals in grid_vals(130 * 4)) {
        for keys in fold_keys() {
            let (pk, sk, _) = keys;
            let (slots, ct_bytes) = geometry(pk);
            for u in [2usize, 3, 4] {
                // Rows folded into one ciphertext; 1 means `u > slots/2`
                // (four columns under the 7-slot key): nothing to gain.
                let g = slots / u;
                // 130 rows are ≥ 32 groups: the parallel branch.
                for rows in [0, 1, g - 1, g, g + 1, 130] {
                    for (scale, all_negative) in [(1, false), (2, false), (2, true)] {
                        let data = vals[..rows * u]
                            .iter()
                            .map(|&v| if all_negative { -v.abs() - 0.5 } else { v })
                            .collect();
                        let ct = packed_rows(keys, &Dense::from_vec(rows, u, data), scale);
                        prop_assert!(ct.is_packed());
                        let want = sk.decrypt(&ct);
                        let folded = pk.repack(ct.clone());
                        if g < 2 || rows < 2 {
                            prop_assert_eq!(&folded, &ct);
                            continue;
                        }
                        prop_assert_eq!(folded.shape(), (1, rows * u));
                        prop_assert_eq!(folded.scale(), scale);
                        let body = folded.wire_size() - 16 - 32;
                        prop_assert_eq!(body, rows.div_ceil(g) * ct_bytes);
                        prop_assert_eq!(bits(&sk.decrypt(&folded)), bits(&want));
                        // Folded once is folded: `slots` is g·u now, not
                        // this key's, and nothing is left to gain.
                        prop_assert_eq!(&pk.repack(folded.clone()), &folded);
                    }
                }
            }
        }
    }
}

/// The raw halves of a Paillier key pair.
fn raw(keys: &Keys) -> (&PaillierPk, &PaillierSk) {
    let (PublicKey::Paillier(pk), SecretKey::Paillier(sk), _) = keys else {
        unreachable!()
    };
    (pk, sk)
}

/// A key whose primes are `p_bits` and `q_bits` long, through the
/// secret-key text format (keygen only makes balanced ones).
fn lopsided(p_bits: usize, q_bits: usize, frac_bits: u32) -> Keys {
    let mut rng = rand::rngs::StdRng::seed_from_u64((p_bits * 1000 + q_bits) as u64);
    let (p, q) = (
        bf_bigint::gen_prime(p_bits, &mut rng),
        bf_bigint::gen_prime(q_bits, &mut rng),
    );
    let text = format!("bfsk1:{frac_bits}:{}:{}", p.to_hex(), q.to_hex());
    let sk = import_secret(&text).expect("two random primes make a key");
    let pk = sk.public();
    let obf = Obfuscator::new(&pk, ObfMode::Pool(4), 3);
    (pk, sk, obf)
}

/// The keys the width-aware decryption is checked under: the two
/// `fold_keys`, the unit-test key, and one lopsided key either way
/// round (`p` is the half the narrow path keeps).
fn width_keys() -> Vec<&'static Keys> {
    static LOPSIDED: OnceLock<[Keys; 2]> = OnceLock::new();
    let lopsided = LOPSIDED.get_or_init(|| [lopsided(96, 224, 24), lopsided(224, 96, 24)]);
    let mut keys = vec![&repack_keys()[0]];
    keys.extend(fold_keys());
    keys.extend(lopsided);
    keys
}

/// `Σ_j ±mag_j · 2^(j·slot_bits)` as an element of `Z_n`.
fn ring_element(pk: &PaillierPk, slot_bits: u32, slots: &[(u128, bool)]) -> BigUint {
    let (mut pos, mut neg) = (BigUint::zero(), BigUint::zero());
    for (j, &(mag, negative)) in slots.iter().enumerate() {
        let term = BigUint::from_u128(mag).shl(j * slot_bits as usize);
        if negative {
            neg = neg.add(&term);
        } else {
            pos = pos.add(&term);
        }
    }
    if pos >= neg {
        pos.sub(&neg)
    } else {
        pk.n.sub(&neg.sub(&pos))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn narrow_decrypt_returns_the_ring_element_the_full_one_does(
        words in prop::collection::vec(any::<u64>(), 18),
        signs in prop::collection::vec(any::<bool>(), 9),
    ) {
        for keys in width_keys() {
            let (pk, sk) = raw(keys);
            let layout = keys.0.slot_layout().unwrap();
            let w = layout.slot_bits as usize;
            let top = layout.max_slot_mag() - 1;
            // Random slots; every slot at ±(2^(w−1) − 1), signs mixed;
            // the same with one sign throughout.
            let shapes: [&dyn Fn(usize) -> (u128, bool); 3] = [
                &|j| (((words[2 * j] as u128) << 64 | words[2 * j + 1] as u128) & top, signs[j]),
                &|j| (top, signs[j]),
                &|_| (top, signs[0]),
            ];
            for (used, shape) in (1..=layout.slots).flat_map(|u| shapes.iter().map(move |s| (u, s))) {
                let slots: Vec<(u128, bool)> = (0..used).map(shape).collect();
                let m = ring_element(pk, layout.slot_bits, &slots);
                let ct = pk.raw_encrypt(&m, &keys.2.next_rn(pk));
                prop_assert_eq!(&sk.raw_decrypt(&ct, Some(used * w)), &m);
                prop_assert_eq!(&sk.raw_decrypt(&ct, None), &m);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn packed_bodies_with_narrow_tails_decrypt_like_scalar_ones(
        vals in grid_vals(4 * 9),
        mask in grid_vals(3 * 9),
    ) {
        // Scalar bodies always pay both halves, so bit-equality with
        // them is bit-equality with the full decryption: through a fresh
        // packed encryption, a `matmul` product, `sub_plain`, and the
        // repack of the masked scalar product (its last chunk partial
        // whenever `3·used` is no multiple of `slots`).
        for keys in width_keys() {
            let (pk, sk, obf) = keys;
            let slots = pk.slot_layout().unwrap().slots;
            for used in 1..=slots {
                let w = Dense::from_vec(4, used, vals[..4 * used].to_vec());
                let phi = Dense::from_vec(3, used, mask[..3 * used].to_vec());
                let x = Features::Dense(Dense::from_vec(
                    3,
                    4,
                    (0..12).map(|i| ((i * 7) % 11) as f64 - 5.0).collect(),
                ));
                let (cs, cp) = (pk.encrypt(&w, obf), pk.encrypt_mode(&w, PaillierMode::Packed, obf));
                prop_assert_eq!(cp.is_packed(), used >= 2);
                prop_assert_eq!(bits(&sk.decrypt(&cp)), bits(&sk.decrypt(&cs)));
                let (zs, zp) = (pk.matmul(&x, &cs), pk.matmul(&x, &cp));
                let want = sk.decrypt(&zs);
                prop_assert_eq!(bits(&sk.decrypt(&zp)), bits(&want));
                let (ms, mp) = (pk.sub_plain(&zs, &phi), pk.sub_plain(&zp, &phi));
                let want = sk.decrypt(&ms);
                prop_assert_eq!(bits(&sk.decrypt(&mp)), bits(&want));
                prop_assert_eq!(bits(&sk.decrypt(&pk.repack(ms))), bits(&want));
            }
        }
    }
}

#[test]
fn narrow_decrypt_stops_at_the_last_bound_below_half_p() {
    // 2^bits ≤ p/2 ⟺ bits ≤ p.bits() − 2. One plaintext inside each
    // bound comes back whichever path ran; the plaintext `p` itself,
    // outside both, tells the paths apart: one half sees it as 0.
    for keys in width_keys() {
        let (pk, sk) = raw(keys);
        let p = sk.factors().0;
        let edge = p.bits() - 2;
        let enc = |m: &BigUint| pk.raw_encrypt(m, &keys.2.next_rn(pk));
        for bits in [edge, edge + 1] {
            let inside = BigUint::one().shl(bits).sub_u64(1);
            for m in [inside.clone(), pk.n.sub(&inside)] {
                assert_eq!(sk.raw_decrypt(&enc(&m), Some(bits)), m, "{bits} bits");
            }
        }
        let ct = enc(p);
        assert!(sk.raw_decrypt(&ct, Some(edge)).is_zero());
        assert_eq!(&sk.raw_decrypt(&ct, Some(edge + 1)), p);
        assert_eq!(&sk.raw_decrypt(&ct, None), p);
    }
}

#[test]
fn the_key_owner_refuses_bodies_that_are_not_its_own() {
    // The benchmark's key: 1024-bit, 32-limb ciphertexts, 9 slots of
    // 104 bits. Each body below is one the codec accepts.
    let (pk, sk, obf) = &repack_keys()[1];
    let m = Dense::from_vec(2, 4, vec![1.0, -2.0, 3.0, -4.0, 5.5, -6.5, 7.0, 0.0]);
    for honest in [
        pk.encrypt(&m, obf),
        pk.encrypt_mode(&m, PaillierMode::Packed, obf),
        pk.repack(pk.encrypt_mode_seg(&m, 2, PaillierMode::Packed, obf)),
    ] {
        assert_eq!(sk.conforms(&honest), Ok(()));
    }
    let body = |tag: u8, fields: &[u64], cts: usize| {
        let mut bytes = [1u64.to_le_bytes(), 12u64.to_le_bytes()].concat();
        bytes.extend_from_slice(&[2, tag]);
        for field in fields {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        bytes.resize(bytes.len() + cts * fields[0] as usize * 8, 0);
        import_ctmat(&bytes).expect("consistent in itself")
    };
    // k = 1, scalar and packed; 12 slots of 104 bits; 9 slots of 88.
    assert!(sk.conforms(&body(1, &[1], 12)).is_err());
    assert!(sk.conforms(&body(2, &[1, 104, 9, 12], 2)).is_err());
    assert!(sk.conforms(&body(2, &[32, 104, 12, 12], 1)).is_err());
    assert!(sk.conforms(&body(2, &[32, 88, 9, 12], 2)).is_err());
    assert_eq!(sk.conforms(&body(2, &[32, 104, 9, 12], 2)), Ok(()));
    // The other backend, both ways round.
    let (plain_pk, plain_sk) = plain_keys(32);
    let plain = plain_pk.encrypt(&m, &Obfuscator::new(&plain_pk, ObfMode::Pool(2), 0));
    assert!(sk.conforms(&plain).is_err());
    assert!(plain_sk.conforms(&pk.encrypt(&m, obf)).is_err());
    assert_eq!(plain_sk.conforms(&plain), Ok(()));
    // A key too small to pack refuses every packed body.
    let (_, small_sk, _) = paillier(128, 32);
    assert!(small_sk.conforms(&body(2, &[4, 104, 1, 12], 12)).is_err());
}

#[test]
fn repack_leaves_wide_and_multi_chunk_packed_rows_untouched() {
    for keys in fold_keys() {
        let (pk, _, _) = keys;
        let (slots, _) = geometry(pk);
        // One column past half the slots; exactly one chunk; two chunks.
        for cols in [slots / 2 + 1, slots, slots + 1] {
            let m = Dense::from_vec(6, cols, (0..6 * cols).map(|i| i as f64 - 7.0).collect());
            for scale in [1, 2] {
                let ct = packed_rows(keys, &m, scale);
                assert!(ct.is_packed());
                assert_eq!(pk.repack(ct.clone()), ct, "{cols} columns, scale {scale}");
            }
        }
    }
}

#[test]
fn one_step_past_the_mask_envelope_wraps_its_slot() {
    // Why the handshake refuses a larger mask instead of trusting the
    // decoder: a payload of MAX_HE_MASK under a mask of −MAX_HE_MASK is
    // exactly 2^(slot_bits−1) at scale 2, and comes back with its sign
    // flipped — silently, there is nothing to detect.
    let (pk, sk, obf) = &repack_keys()[0];
    let v = Dense::from_vec(2, 1, vec![MAX_HE_MASK, 1.0]);
    let phi = Dense::from_vec(2, 1, vec![-MAX_HE_MASK, 0.0]);
    let masked = pk.sub_plain(&pk.encrypt_at_scale(&v, 2, obf), &phi);
    assert_eq!(sk.decrypt(&masked).data(), [2.0 * MAX_HE_MASK, 1.0]);
    assert_eq!(sk.decrypt(&pk.repack(masked)).get(0, 0), -2.0 * MAX_HE_MASK);
}

#[test]
fn repack_returns_packed_plain_and_unpackable_inputs_untouched() {
    let (pk, _, obf) = &repack_keys()[0];
    let m = Dense::from_vec(2, 4, vec![1.0, -2.0, 3.0, -4.0, 5.5, -6.5, 7.0, 0.0]);
    let packed = pk.encrypt_mode(&m, PaillierMode::Packed, obf);
    assert!(packed.is_packed());
    assert_eq!(pk.repack(packed.clone()), packed);

    let (plain_pk, _) = plain_keys(24);
    let plain = plain_pk.encrypt(&m, &Obfuscator::new(&plain_pk, ObfMode::Pool(2), 0));
    assert_eq!(plain_pk.repack(plain.clone()), plain);

    // 128-bit key at frac 32: not even two slots.
    let (small_pk, _, small_obf) = paillier(128, 32);
    let scalar = small_pk.encrypt(&m, &small_obf);
    assert_eq!(small_pk.repack(scalar.clone()), scalar);
}

#[test]
fn max_frac_bits_layout_roundtrips() {
    // frac 40 → 120-bit slots, the digit-extraction ceiling; a 256-bit
    // key still fits 2 slots.
    let (pk, sk, obf) = paillier(256, 40);
    let PublicKey::Paillier(p) = &pk else {
        unreachable!()
    };
    let layout = SlotLayout::for_key(p.key_bits, p.frac_bits).unwrap();
    assert_eq!((layout.slot_bits, layout.slots), (120, 2));
    assert!(SlotLayout::for_key(256, 41).is_none(), "slot width > 120");

    let m = Dense::from_vec(1, 4, vec![0.5, -0.25, 3.75, -1.0]);
    let cp = pk.encrypt_mode(&m, PaillierMode::Packed, &obf);
    assert!(cp.is_packed());
    let cs = pk.encrypt(&m, &obf);
    assert_eq!(sk.decrypt(&cp).data(), sk.decrypt(&cs).data());
}

#[test]
fn one_by_one_falls_back_to_scalar() {
    let (pk, sk, obf) = paillier(256, 20);
    let m = Dense::from_vec(1, 1, vec![-7.5]);
    let ct = pk.encrypt_mode(&m, PaillierMode::Packed, &obf);
    assert!(!ct.is_packed());
    assert!(sk.decrypt(&ct).approx_eq(&m, 1e-4));
}

#[test]
fn slot_overflow_rejected_not_wrapped() {
    let (pk, _, _) = paillier(256, 20);
    let PublicKey::Paillier(p) = &pk else {
        unreachable!()
    };
    let layout = SlotLayout::for_key(p.key_bits, p.frac_bits).unwrap();
    // 80-bit slots at frac 20: magnitudes below 2^59 fit, 2^60 does not
    // (encoded magnitude reaches 2^80 > slot_bits − 1 sign headroom).
    let ok = (1u64 << 39) as f64;
    assert!(pack_values(&[ok, -ok], p.frac_bits, 1, layout, &p.n).is_ok());
    let too_big = (1u64 << 60) as f64;
    let err = pack_values(&[0.0, too_big], p.frac_bits, 1, layout, &p.n).unwrap_err();
    assert_eq!(err.slot, 1);
    assert_eq!(err.value, too_big);
}

#[test]
fn packed_codec_golden_bytes() {
    // The documented byte layout for a packed ciphertext tensor (wire
    // protocol v3, `Ct` body tag 2): changing any byte here is a
    // protocol break and requires a wire VERSION bump.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&1u64.to_le_bytes()); // rows
    bytes.extend_from_slice(&4u64.to_le_bytes()); // cols
    bytes.push(1); // scale
    bytes.push(2); // body tag: packed
    bytes.extend_from_slice(&2u64.to_le_bytes()); // k (limbs per ct)
    bytes.extend_from_slice(&80u64.to_le_bytes()); // slot_bits
    bytes.extend_from_slice(&3u64.to_le_bytes()); // slots
    bytes.extend_from_slice(&4u64.to_le_bytes()); // seg
                                                  // 1 row × ceil(4/3)=2 chunks × 2 limbs.
    for l in [
        0x0102030405060708u64,
        0x1112131415161718,
        0xA1A2A3A4A5A6A7A8,
        0,
    ] {
        bytes.extend_from_slice(&l.to_le_bytes());
    }
    let ct = import_ctmat(&bytes).expect("golden packed bytes decode");
    assert!(ct.is_packed());
    assert_eq!(ct.shape(), (1, 4));
    assert_eq!(ct.scale(), 1);
    assert_eq!(export_ctmat(&ct), bytes, "export is byte-identical");
}

/// The keys the plaintext-entry identity is held against: every width
/// above, plus a 160-bit key whose `n²` is one limb short of twice `n`'s.
fn identity_keys() -> Vec<&'static Keys> {
    static SHORT: OnceLock<Keys> = OnceLock::new();
    let mut keys = width_keys();
    keys.push(SHORT.get_or_init(|| paillier(160, 16)));
    keys
}

/// The textbook product the identity replaces: `to_mont(1 + m·n) ⊗ x`.
fn textbook(pk: &PaillierPk, m: &BigUint, x: &[u64]) -> Vec<u64> {
    let gm = BigUint::one().add(&m.mul(&pk.n));
    pk.mont.mont_mul(&pk.mont.to_mont(&gm), x)
}

/// `v`'s limbs, zero-padded to `k`.
fn padded(v: &BigUint, k: usize) -> Vec<u64> {
    let mut out = v.limbs().to_vec();
    out.resize(k, 0);
    out
}

/// Bytes before the limbs of a one-value-per-lane `Ct` payload.
const ONE_PER_LANE_HEADER: usize = 17 + 9;

/// The ciphertext limbs of a one-value-per-lane body, as the wire
/// carries them.
fn wire_limbs(ct: &CtMat) -> Vec<u64> {
    export_ctmat(ct)[ONE_PER_LANE_HEADER..]
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .collect()
}

/// `ct` with its limbs replaced, read back through the wire codec.
fn with_wire_limbs(ct: &CtMat, limbs: &[u64]) -> CtMat {
    let mut bytes = export_ctmat(ct);
    bytes.truncate(ONE_PER_LANE_HEADER);
    bytes.extend(limbs.iter().flat_map(|l| l.to_le_bytes()));
    import_ctmat(&bytes).expect("same geometry, other limbs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn plaintext_entry_identity_equals_the_textbook_product(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for keys in identity_keys() {
            let (pk, _) = raw(keys);
            let (k, kn) = (pk.ct_limbs(), pk.mont_n.limb_count());
            let ms = [
                BigUint::zero(),
                BigUint::one(),
                pk.n.sub_u64(1),
                bf_bigint::random_below(&mut rng, &pk.n),
            ];
            // R mod n² (the Montgomery form of 1), n² − 1, a random
            // ciphertext, and 2·R_n − 1, whose low k_n limbs read ≥ n:
            // x mod n is not x's low half.
            let xs = [
                pk.mont.one_mont(),
                padded(&pk.n2.sub_u64(1), k),
                padded(&bf_bigint::random_below(&mut rng, &pk.n2), k),
                padded(&BigUint::one().shl(64 * kn + 1).sub_u64(1), k),
            ];
            for m in &ms {
                for x in &xs {
                    let want = textbook(pk, m, x);
                    let mut got = vec![0u64; k];
                    pk.add_plain_into(x, m, None, &mut got);
                    prop_assert!(got == want, "{} bits, m = {m:?}", pk.key_bits);
                    let mut res = vec![0u64; kn];
                    pk.residue_into(x, &mut res);
                    got.fill(0);
                    pk.add_plain_into(x, m, Some(&res), &mut got);
                    prop_assert!(got == want, "{} bits, m = {m:?}, residue given", pk.key_bits);
                }
            }
        }
    }
}

#[test]
fn pooled_and_exact_encryptions_equal_the_textbook_product() {
    // Draw i of a second obfuscator with the same seed is the r^n the
    // first one's encryption i multiplied in. Pool(2) picks a == b on
    // half its draws, the case the old draw squared.
    let vals: Vec<f64> = (0..24).map(|i| (i as f64 - 11.5) * 0.375).collect();
    let m = Dense::from_vec(4, 6, vals.clone());
    for keys in identity_keys() {
        let (pk, _) = raw(keys);
        let k = pk.ct_limbs();
        for mode in [ObfMode::Pool(2), ObfMode::Exact] {
            let (enc, oracle) = (
                Obfuscator::new(&keys.0, mode, 17),
                Obfuscator::new(&keys.0, mode, 17),
            );
            let got = wire_limbs(&keys.0.encrypt(&m, &enc));
            for (i, &v) in vals.iter().enumerate() {
                let e = encode(v, pk.frac_bits, 1, &pk.n);
                let want = textbook(pk, &e, &oracle.next_rn(pk));
                assert_eq!(&got[i * k..(i + 1) * k], &want[..], "{mode:?} draw {i}");
            }
        }
    }
}

#[test]
fn add_plain_and_sub_plain_equal_the_textbook_product() {
    let a = Dense::from_vec(2, 3, vec![1.5, -2.0, 0.0, 4.25, -0.125, 3.0]);
    let q = Dense::from_vec(2, 3, vec![-7.0, 0.5, 0.0, 2.0, -3.75, 100.0]);
    for keys in identity_keys() {
        let (pk, _) = raw(keys);
        let k = pk.ct_limbs();
        let ct = keys.0.encrypt(&a, &keys.2);
        // A peer's ciphertexts need not be canonical: all-ones limbs,
        // n² itself and n² + 5 are ≥ n², and must neither panic nor
        // differ from what the textbook Montgomery product makes of them.
        let mut hostile = wire_limbs(&ct);
        hostile[..k].fill(u64::MAX);
        hostile[k..2 * k].copy_from_slice(&padded(&pk.n2, k));
        hostile[2 * k..3 * k].copy_from_slice(&padded(&pk.n2.add_u64(5), k));
        for ct in [ct.clone(), with_wire_limbs(&ct, &hostile)] {
            let x = wire_limbs(&ct);
            for (sign, got) in [
                (1.0, keys.0.add_plain(&ct, &q)),
                (-1.0, keys.0.sub_plain(&ct, &q)),
            ] {
                let got = wire_limbs(&got);
                for (i, &v) in q.data().iter().enumerate() {
                    let e = encode(sign * v, pk.frac_bits, 1, &pk.n);
                    let want = textbook(pk, &e, &x[i * k..(i + 1) * k]);
                    assert_eq!(
                        &got[i * k..(i + 1) * k],
                        &want[..],
                        "sign {sign}, entry {i}"
                    );
                }
            }
        }
    }
}

/// The `BigUint` slot packer the limb one replaced: each slot's
/// magnitude shifted into place and summed by sign.
fn reference_pack_values(
    vals: &[f64],
    frac_bits: u32,
    scale: u8,
    layout: SlotLayout,
    n: &BigUint,
) -> Result<BigUint, PackError> {
    assert!(vals.len() <= layout.slots, "chunk wider than the layout");
    let shift = frac_bits * scale as u32;
    let mut pos = BigUint::zero();
    let mut neg = BigUint::zero();
    for (j, &v) in vals.iter().enumerate() {
        let e = encode_exponent(v, shift);
        if e.mag.bits() >= layout.slot_bits as usize {
            return Err(PackError { slot: j, value: v });
        }
        if e.is_zero() {
            continue;
        }
        let shifted = e.mag.shl(j * layout.slot_bits as usize);
        if e.neg {
            neg = neg.add(&shifted);
        } else {
            pos = pos.add(&shifted);
        }
    }
    Ok(if pos >= neg {
        pos.sub(&neg)
    } else {
        n.sub(&neg.sub(&pos))
    })
}

/// The `BigUint` slot unpacker the limb one replaced: sign recovery,
/// a biased copy of the whole integer, one full-width shift per slot.
fn reference_unpack_values(
    m: &BigUint,
    frac_bits: u32,
    scale: u8,
    layout: SlotLayout,
    n: &BigUint,
    half_n: &BigUint,
    out: &mut [f64],
) {
    let w = layout.slot_bits as usize;
    let shift = (frac_bits * scale as u32) as f64;
    let (p_mag, p_neg) = if m > half_n {
        (n.sub(m), true)
    } else {
        (m.clone(), false)
    };
    let mut bias = BigUint::zero();
    for j in 0..out.len() {
        bias = bias.add(&BigUint::one().shl(w - 1 + j * w));
    }
    let s = if p_neg {
        let lift = BigUint::one().shl(n.bits().div_ceil(w) * w);
        bias.add(&lift).sub(&p_mag)
    } else {
        bias.add(&p_mag)
    };
    let mask = (1u128 << w) - 1;
    let half = 1i128 << (w - 1);
    for (j, o) in out.iter_mut().enumerate() {
        let d = (s.shr(j * w).low_u128() & mask) as i128;
        let v = d - half;
        let mag = BigUint::from_u128(v.unsigned_abs());
        let f = mag.to_f64() / shift.exp2();
        *o = if v < 0 { -f } else { f };
    }
}

/// The three layouts the slot codec is held against its reference
/// under: 256-bit keys (2 slots of 88 bits), 512 (7 of 72), 1024 (9 of
/// 104).
fn codec_keys() -> [&'static Keys; 3] {
    [&repack_keys()[0], fold_keys()[0], &repack_keys()[1]]
}

/// One slot's value from a drawn `(magnitude, width, sign, kind)`: zero,
/// negative zero, the largest magnitude a slot holds, the first it does
/// not, or a random magnitude of up to two bits past the slot.
fn slot_value(
    (mag, bits, neg, kind): (u128, u32, bool, u8),
    layout: SlotLayout,
    shift: u32,
) -> f64 {
    let unit = (shift as f64).exp2();
    let edge = layout.max_slot_mag() as f64 / unit;
    let v = match kind {
        0 => return 0.0,
        1 => return -0.0,
        2 => f64::from_bits(edge.to_bits() - 1),
        3 => edge,
        _ => match bits % (layout.slot_bits + 2) {
            0 => 0.0,
            b => (mag >> (128 - b)) as f64 / unit,
        },
    };
    if neg {
        -v
    } else {
        v
    }
}

fn f64_bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn limb_slot_codec_equals_the_biguint_reference(
        words in prop::collection::vec(any::<u64>(), 18),
        widths in prop::collection::vec(any::<u32>(), 9),
        signs in prop::collection::vec(any::<bool>(), 9),
        kinds in prop::collection::vec(0u8..10, 9),
        used in 1usize..=9,
        ring in prop::collection::vec(any::<u64>(), 17),
    ) {
        let draws: Vec<_> = (0..9)
            .map(|j| {
                let mag = (words[2 * j] as u128) << 64 | words[2 * j + 1] as u128;
                (mag, widths[j], signs[j], kinds[j])
            })
            .collect();
        for keys in codec_keys() {
            let (pk, _) = raw(keys);
            let layout = SlotLayout::for_key(pk.key_bits, pk.frac_bits).unwrap();
            let used = used.min(layout.slots);
            let ring = BigUint::from_limbs(ring.clone()).rem(&pk.n);
            let mut envelope = vec![
                BigUint::zero(),
                pk.half_n.clone(),
                pk.half_n.add_u64(1),
                pk.n.sub_u64(1),
                ring,
            ];
            for scale in [1u8, 2] {
                let shift = pk.frac_bits * scale as u32;
                let mixed: Vec<f64> = draws[..used]
                    .iter()
                    .map(|&d| slot_value(d, layout, shift))
                    .collect();
                let negative: Vec<f64> = mixed.iter().map(|v| -v.abs()).collect();
                for vals in [mixed, negative] {
                    let got = pack_values(&vals, pk.frac_bits, scale, layout, &pk.n);
                    let want = reference_pack_values(&vals, pk.frac_bits, scale, layout, &pk.n);
                    prop_assert!(got == want, "{} bits, {:?}", pk.key_bits, vals);
                    envelope.extend(got.ok());
                }
                // Two slots past the layout read above the 2^L the
                // decoder takes a negative element's complement below.
                for m in &envelope {
                    for len in 1..=layout.slots + 2 {
                        let (mut got, mut want) = (vec![0.0; len], vec![0.0; len]);
                        unpack_values(m, pk.frac_bits, scale, layout, &pk.n, &pk.half_n, &mut got);
                        reference_unpack_values(
                            m, pk.frac_bits, scale, layout, &pk.n, &pk.half_n, &mut want,
                        );
                        prop_assert!(
                            f64_bits(&got) == f64_bits(&want),
                            "{} bits, m = {:?}",
                            pk.key_bits,
                            m
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn limb_slot_codec_keeps_the_edges_of_the_reference() {
    // Named cells of the property above: the largest in-range magnitude
    // packs, the first one past it is the same `PackError`, zero and
    // negative zero pack to zero, and a non-finite value panics with the
    // scalar codec's message.
    for keys in codec_keys() {
        let (pk, _) = raw(keys);
        let layout = SlotLayout::for_key(pk.key_bits, pk.frac_bits).unwrap();
        for scale in [1u8, 2] {
            let shift = pk.frac_bits * scale as u32;
            let (top, over) = (
                slot_value((0, 0, true, 2), layout, shift),
                slot_value((0, 0, false, 3), layout, shift),
            );
            let mut vals = vec![-top; layout.slots];
            vals[0] = top;
            let packed = pack_values(&vals, pk.frac_bits, scale, layout, &pk.n).unwrap();
            let mut out = vec![0.0; layout.slots];
            unpack_values(
                &packed,
                pk.frac_bits,
                scale,
                layout,
                &pk.n,
                &pk.half_n,
                &mut out,
            );
            assert_eq!(out, vals);
            *vals.last_mut().unwrap() = over;
            let err = pack_values(&vals, pk.frac_bits, scale, layout, &pk.n).unwrap_err();
            let slot = layout.slots - 1;
            assert_eq!(err, PackError { slot, value: over });
            let zeros = pack_values(&[0.0, -0.0], pk.frac_bits, scale, layout, &pk.n).unwrap();
            assert!(zeros.is_zero());
        }
        let nan =
            std::panic::catch_unwind(|| pack_values(&[f64::NAN], pk.frac_bits, 1, layout, &pk.n));
        let msg = nan.unwrap_err();
        let msg = msg.downcast_ref::<String>().unwrap();
        assert_eq!(msg, "cannot encode non-finite value NaN");
    }
}

/// A 2048-bit key at the benchmark's `frac_bits`.
fn wide_key() -> &'static Keys {
    static WIDE: OnceLock<Keys> = OnceLock::new();
    WIDE.get_or_init(|| paillier(2048, 32))
}

/// The widths the key owner's obfuscator is held against the public one
/// at: the codec's three and a 2048-bit key.
fn obf_keys() -> Vec<&'static Keys> {
    let mut keys = codec_keys().to_vec();
    keys.push(wide_key());
    keys
}

#[test]
fn the_key_owners_pool_draws_and_encrypts_what_the_public_one_does() {
    // `from_secret` computes each entry on the CRT halves. Its draws —
    // the first four per entry, squares included — and its encryptions
    // in both layouts, which also read each entry's residue, are `new`'s
    // byte for byte, at every width, pool size and seed.
    let m = Dense::from_vec(3, 10, (0..30).map(|i| (i as f64 - 14.5) * 0.8125).collect());
    for keys in obf_keys() {
        let (pk, _) = raw(keys);
        for (size, seed) in [(2, 0u64), (5, 17), (64, u64::MAX)] {
            let public = Obfuscator::new(&keys.0, ObfMode::Pool(size), seed);
            let secret = Obfuscator::from_secret(&keys.1, ObfMode::Pool(size), seed);
            for i in 0..4 * size {
                assert_eq!(
                    secret.next_rn(pk),
                    public.next_rn(pk),
                    "{} bits, draw {i}",
                    pk.key_bits
                );
            }
            for mode in [PaillierMode::Scalar, PaillierMode::Packed] {
                let want = export_ctmat(&keys.0.encrypt_mode(&m, mode, &public));
                let got = export_ctmat(&keys.0.encrypt_mode(&m, mode, &secret));
                assert!(got == want, "{} bits, Pool({size}), {mode:?}", pk.key_bits);
            }
        }
    }
}

/// What `decrypt` reads off one ciphertext: its limbs and the bound its
/// lane states to `PaillierSk::raw_decrypt`.
type Lane = (Vec<u64>, Option<usize>);

/// `SecretKey::decrypt` one ciphertext at a time, read off the `Ct` wire
/// layout: every ciphertext through `PaillierSk::raw_decrypt` under the
/// bound its lane states (nothing for one value, `used · slot_bits` for
/// a chunk), and its values through the public codecs. Returns the
/// matrix, each lane, and the ring element each lane decrypts to.
fn decrypt_one_by_one(keys: &Keys, ct: &CtMat) -> (Dense, Vec<Lane>, Vec<BigUint>) {
    let (pk, sk) = raw(keys);
    let bytes = export_ctmat(ct);
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let (rows, cols, scale, k) = (word(0), word(8), bytes[16], word(18));
    // (slot layout, segment width, first limb byte); one value per lane
    // is a one-column chunk.
    let (layout, seg, at) = match bytes[17] {
        1 => (None, 1, ONE_PER_LANE_HEADER),
        2 => {
            let layout = SlotLayout {
                slot_bits: word(26) as u32,
                slots: word(34),
            };
            (Some(layout), word(42), ONE_PER_LANE_HEADER + 24)
        }
        tag => panic!("body tag {tag}"),
    };
    let slots = layout.map_or(1, |l| l.slots);
    // (first value, values) of every lane, row-major.
    let mut spans = Vec::new();
    for row in 0..rows {
        for s in (0..cols).step_by(seg) {
            for first in (0..seg).step_by(slots) {
                spans.push((row * cols + s + first, slots.min(seg - first)));
            }
        }
    }
    let limbs: Vec<u64> = bytes[at..]
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .collect();
    assert_eq!(limbs.len(), spans.len() * k);
    let lanes: Vec<Lane> = limbs
        .chunks_exact(k)
        .zip(&spans)
        .map(|(c, &(_, used))| (c.to_vec(), layout.map(|l| used * l.slot_bits as usize)))
        .collect();
    let ms: Vec<BigUint> = lanes.iter().map(|(c, b)| sk.raw_decrypt(c, *b)).collect();
    let mut vals = vec![0.0; rows * cols];
    for (m, &(first, used)) in ms.iter().zip(&spans) {
        let out = &mut vals[first..first + used];
        match layout {
            None => out[0] = decode(m, pk.frac_bits, scale, &pk.n, &pk.half_n),
            Some(l) => unpack_values(m, pk.frac_bits, scale, l, &pk.n, &pk.half_n, out),
        }
    }
    (Dense::from_vec(rows, cols, vals), lanes, ms)
}

/// `rows × cols` values on the fixed-point grid, both signs.
fn grid(rows: usize, cols: usize) -> Dense {
    let vals = (0..rows * cols).map(|i| ((i * 7919) % 2001) as f64 / 256.0 - 3.90625);
    Dense::from_vec(rows, cols, vals.collect())
}

#[test]
fn batched_decryption_equals_the_per_ciphertext_path() {
    // `decrypt` batches the CRT halves of its lane groups, eight to a
    // group where the CPU has the lane kernel, once a call has more
    // ciphertexts than worker threads; a lone ciphertext past the last
    // full group has its halves raised one at a time, as smaller calls
    // do.
    // Every body a key owner decrypts, at the key widths whose moduli
    // the lane kernel serves, equals the per-ciphertext path; counts
    // from 2 (lanes at one thread, per ciphertext at two) up.
    let min = 3;
    let keys = [fold_keys()[0], &repack_keys()[1], wide_key()];
    for keys in keys {
        let (pk, sk, obf) = keys;
        let (slots, _) = geometry(pk);
        // Rows of two values fold g to a ciphertext.
        let g = slots / 2;
        let bodies: Vec<(&str, CtMat, usize)> = vec![
            (
                "scalar",
                pk.encrypt_at_scale(&grid(1, min - 1), 1, obf),
                min - 1,
            ),
            ("scalar", pk.encrypt_at_scale(&grid(1, min), 1, obf), min),
            ("scalar", pk.encrypt_at_scale(&grid(3, 7), 2, obf), 21),
            (
                "full chunks",
                packed_rows(keys, &grid(min - 1, slots), 2),
                min - 1,
            ),
            (
                "full chunks",
                packed_rows(keys, &grid(min + 1, slots), 2),
                min + 1,
            ),
            (
                "narrow chunks",
                packed_rows(keys, &grid(min + 2, 2), 2),
                min + 2,
            ),
            // mlr_wide's reply rows: two full chunks and a two-slot tail.
            (
                "full, full, narrow",
                packed_rows(keys, &grid(6, 2 * slots + 2), 2),
                18,
            ),
            (
                "folded rows",
                pk.repack(packed_rows(keys, &grid(g * min + 1, 2), 2)),
                min + 1,
            ),
            (
                "folded scalar",
                pk.repack(pk.encrypt_at_scale(&grid(1, slots * (min - 1) + 3), 1, obf)),
                min,
            ),
            // Either side of two full lane groups: a group and seven live
            // lanes, two groups, and two groups and a lone ciphertext.
            ("scalar", pk.encrypt_at_scale(&grid(1, 15), 1, obf), 15),
            ("scalar", pk.encrypt_at_scale(&grid(1, 16), 1, obf), 16),
            ("full chunks", packed_rows(keys, &grid(15, slots), 2), 15),
            ("full chunks", packed_rows(keys, &grid(17, slots), 2), 17),
            (
                "folded rows",
                pk.repack(packed_rows(keys, &grid(g * 16 + 1, 2), 2)),
                17,
            ),
        ];
        for (name, ct, count) in bodies {
            let what = format!("{} bits, {name}, {count} ciphertexts", raw(keys).0.key_bits);
            let (want, lanes, ms) = decrypt_one_by_one(keys, &ct);
            assert_eq!(lanes.len(), count, "{what}");
            let batch: Vec<(&[u64], Option<usize>)> =
                lanes.iter().map(|(c, b)| (&c[..], *b)).collect();
            assert!(raw(keys).1.raw_decrypt_many(&batch) == ms, "{what}");
            assert_eq!(bits(&sk.decrypt(&ct)), bits(&want), "{what}");
        }
    }
}

/// The ciphertext limbs of a Paillier body as the wire carries them
/// (Montgomery form), after its one-value or packed header.
fn body_limbs(ct: &CtMat) -> Vec<u64> {
    let bytes = export_ctmat(ct);
    let at = match bytes[17] {
        1 => ONE_PER_LANE_HEADER,
        2 => ONE_PER_LANE_HEADER + 24,
        tag => panic!("body tag {tag}"),
    };
    bytes[at..]
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .collect()
}

#[test]
fn repack_bytes_equal_the_per_source_product() {
    // No ciphertext byte moves whichever chain folds: every folded
    // ciphertext is the canonical `Π_j c_j^(2^(j·u·slot_bits)) mod n²`
    // of its sources, built one `pow` per source. Output counts on both
    // sides of two worker threads and of a full lane group; the last
    // run is short wherever the count allows.
    let min = 3;
    for keys in [fold_keys()[0], &repack_keys()[1], wide_key()] {
        let (pk, _, obf) = keys;
        let (ppk, _) = raw(keys);
        let layout = SlotLayout::for_key(ppk.key_bits, ppk.frac_bits).unwrap();
        let (mont, k) = (&ppk.mont, ppk.ct_limbs());
        for u in [1usize, 2] {
            let fold = layout.slots / u;
            let shift = u * layout.slot_bits as usize;
            for outputs in [1, min - 1, min, 8, 9, 16, 17] {
                let sources = (outputs - 1) * fold + 1 + outputs % fold;
                let ct = match u {
                    1 => pk.encrypt_at_scale(&grid(1, sources), 1, obf),
                    _ => packed_rows(keys, &grid(sources, u), 2),
                };
                let (before, folded) = (body_limbs(&ct), body_limbs(&pk.repack(ct)));
                let want: Vec<u64> = before
                    .chunks(fold * k)
                    .flat_map(|run| {
                        let product =
                            run.chunks_exact(k)
                                .enumerate()
                                .fold(BigUint::one(), |acc, (j, c)| {
                                    let power = BigUint::one().shl(j * shift);
                                    mont.mul(&acc, &mont.pow(&mont.from_mont(c), &power))
                                });
                        padded(&BigUint::from_limbs(mont.to_mont(&product)), k)
                    })
                    .collect();
                let what = format!("{} bits, u = {u}, {outputs} outputs", ppk.key_bits);
                assert_eq!(folded.len(), outputs * k, "{what}");
                assert!(folded == want, "{what}");
            }
        }
    }
}
