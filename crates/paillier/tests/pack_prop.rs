//! Property tests for slot-wise packing: pack/unpack round-trips
//! across shapes (0-row, 1×1, max frac_bits), slot-overflow rejection,
//! the decrypt-only repack of scalar bodies and of narrow packed rows
//! (bit-identity with the unfolded decrypt, and the mask envelope at its
//! boundary), the width-aware CRT decryption (one half for plaintexts
//! below `p/2` ≡ both halves, ring element for ring element), the key
//! owner's conformance check of a received body, and the packed
//! ciphertext-tensor codec (golden bytes + corruption fuzz, mirroring
//! the wire_prop suite in bf-mpc).

use std::sync::OnceLock;

use bf_bigint::BigUint;
use bf_paillier::{
    export_ctmat, import_ctmat, import_secret, keygen, keys::plain_keys, pack_values,
    unpack_values, ObfMode, Obfuscator, PaillierMode, PaillierPk, PaillierSk, PublicKey, SecretKey,
    SlotLayout, MAX_HE_MASK,
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
