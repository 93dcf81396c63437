//! Criterion micro-benchmarks for the cryptography substrate: bignum
//! exponentiation, Paillier encrypt/decrypt, and the CryptoTensor
//! matmul kernels that dominate every protocol (Table 5's inner loop).

use bf_bigint::{BigUint, MontCtx};
use bf_paillier::{keygen, ObfMode, Obfuscator, PaillierMode, PublicKey};
use bf_tensor::{Csr, Dense, Features};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use std::time::Duration;

fn bench_bigint(c: &mut Criterion) {
    let mut g = c.benchmark_group("bigint");
    g.measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    // 1024-bit odd modulus (the size of n² for a 512-bit key).
    let mut m = BigUint::from_u64(0xdead_beef_1234_5677);
    for i in 0..15u64 {
        m = m.shl(64).add_u64(0x9e3779b97f4a7c15 ^ i);
    }
    let m = if m.is_even() { m.add_u64(1) } else { m };
    let ctx = MontCtx::new(&m);
    let base = m.shr(1).sub_u64(12345);
    let small_exp = BigUint::from_u64(0x00ff_ffff_ffff); // 40-bit
    let big_exp = m.shr(2);

    g.bench_function("mont_mul_1024", |b| {
        let am = ctx.to_mont(&base);
        b.iter(|| ctx.mont_mul(&am, &am))
    });
    g.bench_function("pow_40bit_exp_1024", |b| {
        let am = ctx.to_mont(&base);
        b.iter(|| ctx.pow_mont(&am, &small_exp))
    });
    g.bench_function("pow_full_exp_1024", |b| {
        let am = ctx.to_mont(&base);
        b.iter(|| ctx.pow_mont(&am, &big_exp))
    });
    g.finish();
}

fn bench_paillier(c: &mut Criterion) {
    let mut g = c.benchmark_group("paillier_512");
    g.measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let (pk, sk) = keygen(512, 32, &mut rng);
    let obf_pool = Obfuscator::new(&pk, ObfMode::Pool(32), 2);
    let obf_exact = Obfuscator::new(&pk, ObfMode::Exact, 3);
    let m = bf_tensor::init::uniform(&mut rng, 8, 8, 1.0);

    g.bench_function("encrypt_64_pooled", |b| {
        b.iter(|| pk.encrypt(&m, &obf_pool))
    });
    g.bench_function("encrypt_64_exact", |b| {
        b.iter(|| pk.encrypt(&m, &obf_exact))
    });
    let ct = pk.encrypt(&m, &obf_pool);
    g.bench_function("decrypt_64_crt", |b| b.iter(|| sk.decrypt(&ct)));

    // The packed lane layout (4 slots per ciphertext at 512/32): these
    // rows keep its kernels visible in the bench-smoke timing table; the
    // end-to-end numbers are the ladder's (`bench/`).
    g.bench_function("encrypt_64_packed_pooled", |b| {
        b.iter(|| pk.encrypt_mode(&m, PaillierMode::Packed, &obf_pool))
    });
    let ctp = pk.encrypt_mode(&m, PaillierMode::Packed, &obf_pool);
    g.bench_function("decrypt_64_packed_crt", |b| b.iter(|| sk.decrypt(&ctp)));
    g.finish();
}

fn bench_ctmat(c: &mut Criterion) {
    let mut g = c.benchmark_group("cryptotensor");
    g.measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let (pk, _sk) = keygen(512, 32, &mut rng);
    let obf = Obfuscator::new(&pk, ObfMode::Pool(32), 5);

    // The Table 5 inner loop: sparse X (32×2000, ~16 nnz/row) times an
    // encrypted weight column.
    let mut triplets = Vec::new();
    for r in 0..32 {
        for k in 0..16u32 {
            triplets.push((r, (k * 125 + r as u32) % 2000, 1.0));
        }
    }
    let x_sparse = Features::Sparse(Csr::from_triplets(32, 2000, triplets));
    let w = bf_tensor::init::uniform(&mut rng, 2000, 1, 0.1);
    let cw = pk.encrypt(&w, &obf);
    g.bench_function("sparse_matmul_32x2000_nnz16", |b| {
        b.iter(|| pk.matmul(&x_sparse, &cw))
    });

    // Dense equivalent at the same nnz count (16 columns): what the
    // outsourcing baseline must pay is the full 2000 columns instead.
    let x_dense = Features::Dense(x_sparse.to_dense());
    g.bench_function("densified_matmul_32x2000", |b| {
        b.iter(|| pk.matmul(&x_dense, &cw))
    });

    // Gradient projection on the batch support.
    let gz = bf_tensor::init::uniform(&mut rng, 32, 1, 0.1);
    let cgz = pk.encrypt(&gz, &obf);
    let support = x_sparse.col_support();
    g.bench_function("t_matmul_support", |b| {
        b.iter(|| pk.t_matmul_support(&x_sparse, &cgz, &support))
    });

    // Multi-output weights (an MLP/MLR head) where packing engages:
    // the 16 columns ride in ceil(16/4) = 4 chunks per row.
    let w16 = bf_tensor::init::uniform(&mut rng, 2000, 16, 0.1);
    let cw16 = pk.encrypt_mode(&w16, PaillierMode::Packed, &obf);
    g.bench_function("sparse_matmul_packed_32x2000x16", |b| {
        b.iter(|| pk.matmul(&x_sparse, &cw16))
    });
    g.finish();
}

fn bench_plain_backend(c: &mut Criterion) {
    let mut g = c.benchmark_group("plain_backend");
    g.measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));
    let pk = PublicKey::Plain { frac_bits: 32 };
    let obf = Obfuscator::new(&pk, ObfMode::Pool(2), 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let x = Features::Dense(bf_tensor::init::uniform(&mut rng, 128, 256, 1.0));
    let w: Dense = bf_tensor::init::uniform(&mut rng, 256, 16, 0.1);
    let cw = pk.encrypt(&w, &obf);
    g.bench_function("matmul_128x256x16", |b| b.iter(|| pk.matmul(&x, &cw)));
    g.finish();
}

criterion_group!(
    benches,
    bench_bigint,
    bench_paillier,
    bench_ctmat,
    bench_plain_backend
);
criterion_main!(benches);
