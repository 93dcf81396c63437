//! Cross-crate property tests of the cryptographic stack: Paillier over
//! the from-scratch bignum, HE↔SS conversions, and the CryptoTensor
//! kernels — the full pipeline the source layers stand on.

use bf_mpc::shares::share_dense;
use bf_paillier::{keygen, ObfMode, Obfuscator, PaillierMode, PublicKey, SecretKey};
use bf_tensor::{Csr, Dense, Features};
use proptest::prelude::*;
use rand::SeedableRng;

fn keys() -> (PublicKey, SecretKey, Obfuscator) {
    // One fixed key pair for the whole property suite (keygen is the
    // expensive part; ciphertext behaviour is what's under test).
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);
    let (pk, sk) = keygen(256, 20, &mut rng);
    let obf = Obfuscator::new(&pk, ObfMode::Pool(8), 7);
    (pk, sk, obf)
}

fn small_mat(rows: usize, cols: usize) -> impl Strategy<Value = Dense> {
    prop::collection::vec(-50.0f64..50.0, rows * cols)
        .prop_map(move |v| Dense::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn enc_dec_roundtrip(m in small_mat(3, 3)) {
        let (pk, sk, obf) = keys();
        let ct = pk.encrypt(&m, &obf);
        prop_assert!(sk.decrypt(&ct).approx_eq(&m, 1e-4));
    }

    #[test]
    fn homomorphic_addition(a in small_mat(2, 3), b in small_mat(2, 3)) {
        let (pk, sk, obf) = keys();
        let ca = pk.encrypt(&a, &obf);
        let cb = pk.encrypt(&b, &obf);
        prop_assert!(sk.decrypt(&pk.add(&ca, &cb)).approx_eq(&a.add(&b), 1e-4));
    }

    #[test]
    fn matmul_over_ciphertexts(x in small_mat(3, 4), w in small_mat(4, 2)) {
        let (pk, sk, obf) = keys();
        let cw = pk.encrypt(&w.scale(0.01), &obf);
        let cz = pk.matmul(&Features::Dense(x.clone()), &cw);
        prop_assert!(sk.decrypt(&cz).approx_eq(&x.matmul(&w.scale(0.01)), 1e-3));
    }

    #[test]
    fn sparse_matmul_equals_dense(x in small_mat(4, 5), w in small_mat(5, 2)) {
        let (pk, sk, obf) = keys();
        // Zero half the entries to exercise the sparse path.
        let mut xz = x.clone();
        for (i, v) in xz.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 { *v = 0.0; }
        }
        let cw = pk.encrypt(&w.scale(0.01), &obf);
        let dense_out = sk.decrypt(&pk.matmul(&Features::Dense(xz.clone()), &cw));
        let sparse_out =
            sk.decrypt(&pk.matmul(&Features::Sparse(Csr::from_dense(&xz)), &cw));
        prop_assert!(dense_out.approx_eq(&sparse_out, 1e-6));
    }

    #[test]
    fn he2ss_pieces_reconstruct(v in small_mat(2, 2)) {
        let (pk, sk, obf) = keys();
        let ct = pk.encrypt(&v, &obf);
        let (ep_a, ep_b) = bf_mpc::channel_pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mode = PaillierMode::Packed;
        let phi = bf_mpc::he2ss_holder(&ep_a, &pk, &ct, 100.0, mode, &mut rng).unwrap();
        let piece = bf_mpc::he2ss_peer(&ep_b, &sk, 2, 2).unwrap();
        prop_assert!(phi.add(&piece).approx_eq(&v, 1e-4));
    }

    #[test]
    fn secret_shares_reconstruct_and_hide(v in small_mat(3, 3)) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (s1, s2) = share_dense(&mut rng, &v, 1000.0);
        prop_assert!(s1.add(&s2).approx_eq(&v, 1e-9));
        // The kept piece is mask-dominated.
        prop_assert!(s1.max_abs() <= 1000.0);
    }

    #[test]
    fn transpose_commutes_with_decrypt(m in small_mat(3, 4)) {
        let (pk, sk, obf) = keys();
        let ct = pk.encrypt(&m, &obf);
        prop_assert!(sk.decrypt(&ct.transpose()).approx_eq(&m.transpose(), 1e-4));
    }

    #[test]
    fn packed_encrypt_decrypt_bit_identical(m in small_mat(3, 4)) {
        // 256-bit/frac-20: 80-bit slots, 3 per ciphertext. The packed
        // decode must equal the scalar decode exactly, not within eps.
        let (pk, sk, obf) = keys();
        let cs = pk.encrypt(&m, &obf);
        let cp = pk.encrypt_mode(&m, PaillierMode::Packed, &obf);
        prop_assert!(cp.is_packed());
        let (dp, ds) = (sk.decrypt(&cp), sk.decrypt(&cs));
        prop_assert_eq!(dp.data(), ds.data());
    }

    #[test]
    fn packed_matmul_bit_identical(x in small_mat(3, 4), w in small_mat(4, 3)) {
        let (pk, sk, obf) = keys();
        let w = w.scale(0.01);
        let cs = pk.matmul(&Features::Dense(x.clone()), &pk.encrypt(&w, &obf));
        let cp = pk.matmul(
            &Features::Dense(x),
            &pk.encrypt_mode(&w, PaillierMode::Packed, &obf),
        );
        let (dp, ds) = (sk.decrypt(&cp), sk.decrypt(&cs));
        prop_assert_eq!(dp.data(), ds.data());
    }

    #[test]
    fn packed_add_bit_identical(a in small_mat(2, 4), b in small_mat(2, 4)) {
        let (pk, sk, obf) = keys();
        let sum_s = pk.add(&pk.encrypt(&a, &obf), &pk.encrypt(&b, &obf));
        let sum_p = pk.add(
            &pk.encrypt_mode(&a, PaillierMode::Packed, &obf),
            &pk.encrypt_mode(&b, PaillierMode::Packed, &obf),
        );
        let (dp, ds) = (sk.decrypt(&sum_p), sk.decrypt(&sum_s));
        prop_assert_eq!(dp.data(), ds.data());
    }
}

#[test]
fn beaver_pipeline_end_to_end() {
    // dealer triplet → secret matmul → reconstruction, at several shapes.
    for (m, k, n) in [(2usize, 3usize, 2usize), (4, 8, 1), (1, 16, 4)] {
        let err = bf_baselines::secureml::secureml_forward_check(m, k, n);
        assert!(err < 1e-7, "({m},{k},{n}) err {err}");
    }
}
