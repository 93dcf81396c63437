//! Property-based tests for the bignum substrate: ring laws, division
//! reconstruction, Montgomery consistency, and modular-inverse
//! correctness over arbitrary inputs.

use bf_bigint::modular::lcm;
use bf_bigint::mont::{window_bits, KernelSet, LaneTerm, PowMany, PowTerm, LANES, LANE_WIDTHS};
use bf_bigint::{gcd, mod_inv, BigUint, MontCtx};
use proptest::prelude::*;

fn big(max_limbs: usize) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(BigUint::from_limbs)
}

/// An odd modulus with at least 2 bits.
fn odd_modulus(max_limbs: usize) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), 1..=max_limbs).prop_map(|mut limbs| {
        limbs[0] |= 1;
        let m = BigUint::from_limbs(limbs);
        if m.bits() < 2 {
            BigUint::from_u64(3)
        } else {
            m
        }
    })
}

/// The reference a multi-exponentiation must equal: one `pow_mont` per
/// term, folded with `mont_mul`.
fn fold_pow(ctx: &MontCtx, bases: &[Vec<u64>], exps: &[BigUint]) -> Vec<u64> {
    bases.iter().zip(exps).fold(ctx.one_mont(), |acc, (b, e)| {
        ctx.mont_mul(&acc, &ctx.pow_mont(b, e))
    })
}

fn multi_pow(ctx: &MontCtx, bases: &[Vec<u64>], exps: &[BigUint]) -> Vec<u64> {
    let terms: Vec<PowTerm> = bases
        .iter()
        .zip(exps)
        .map(|(base, exp)| PowTerm {
            base,
            exp,
            table: None,
        })
        .collect();
    let mut out = vec![0u64; ctx.limb_count()];
    ctx.multi_pow_into(&terms, &mut out);
    out
}

/// An odd modulus of exactly `limbs` limbs and a few bases below it.
fn fixture(limbs: usize, n_bases: u64) -> (MontCtx, Vec<Vec<u64>>) {
    let mut m = BigUint::from_u64(0xdead_beef_0000_0001);
    for i in 1..limbs as u64 {
        m = m.shl(64).add_u64(0x9e37_79b9_7f4a_7c15 ^ (i * 31) | 1);
    }
    let ctx = MontCtx::new(&m);
    let bases = (0..n_bases)
        .map(|i| ctx.to_mont(&m.shr(3 + i as usize).add_u64(12345 + i)))
        .collect();
    (ctx, bases)
}

/// Exponent shapes the `CtMat` kernels meet, picked by `kind`: zero, a
/// single set bit (a one-hot feature at any `frac_bits`), a draw from a
/// pool of three (so equal exponents recur), one word, and wider than
/// 64 bits.
fn exponent(kind: u64, word: u64) -> BigUint {
    match kind % 5 {
        0 => BigUint::zero(),
        1 => BigUint::one().shl((word % 130) as usize),
        2 => BigUint::from_u64([1u64 << 32, 0x1_2345_6789, 3][(word % 3) as usize]),
        3 => BigUint::from_u64(word),
        _ => BigUint::from_limbs(vec![word, word.rotate_left(17), word >> 40]),
    }
}

#[test]
fn multi_pow_fixed_shapes_match_the_fold() {
    for limbs in [1usize, 32] {
        let (ctx, bases) = fixture(limbs, 9);
        let e = |v: u64| BigUint::from_u64(v);
        let wide = BigUint::from_limbs(vec![0xfeed_face_cafe_beef, 0x1234_5678, 1]);
        let cases: Vec<(Vec<usize>, Vec<BigUint>)> = vec![
            (vec![], vec![]),
            (vec![0], vec![e(0)]),
            (vec![0], vec![e(1 << 32)]),
            (vec![0], vec![wide.clone()]),
            // All-equal exponents (a one-hot row), single-bit and not.
            ((0..9).collect(), vec![e(1 << 32); 9]),
            ((0..9).collect(), vec![e(0xabcd_ef01_2345); 9]),
            // All distinct, some wider than 64 bits, one zero.
            (
                (0..6).collect(),
                vec![
                    e(3),
                    wide.clone(),
                    e(0),
                    e(u64::MAX),
                    wide.shl(40),
                    e(1 << 20),
                ],
            ),
            // Repeated bases, under equal and under distinct exponents.
            (
                vec![2, 2, 2, 5, 5],
                vec![e(7), e(7), e(9), wide.clone(), wide],
            ),
        ];
        for (idx, exps) in cases {
            let bs: Vec<Vec<u64>> = idx.iter().map(|&i| bases[i].clone()).collect();
            assert_eq!(
                multi_pow(&ctx, &bs, &exps),
                fold_pow(&ctx, &bs, &exps),
                "{limbs} limbs, bases {idx:?}"
            );
        }
    }
}

#[test]
fn pow_mont_matches_repeated_multiplication() {
    // pow_mont is the one-term multi-exponentiation; pin it to plain
    // modular arithmetic so the fold above is an independent reference.
    let (ctx, bases) = fixture(3, 1);
    let a = ctx.from_mont(&bases[0]);
    let mut want = BigUint::one();
    for e in 0..200u64 {
        let got = ctx.from_mont(&ctx.pow_mont(&bases[0], &BigUint::from_u64(e)));
        assert_eq!(got, want, "exponent {e}");
        want = want.mod_mul(&a, &ctx.m);
    }
}

#[test]
fn lent_tables_of_any_width_give_the_same_product() {
    let (ctx, bases) = fixture(4, 3);
    let exps = [
        BigUint::from_u64(0x1_2345_6789),
        BigUint::from_u64(1 << 32),
        BigUint::from_u64(0x1_2345_6789),
    ];
    let want = fold_pow(&ctx, &bases, &exps);
    for w in 1..=6 {
        let tables: Vec<_> = bases.iter().map(|b| ctx.odd_powers(b, w)).collect();
        // Terms 0 and 2 share an exponent, so they are raised as one
        // product and their tables go unused; term 1 uses its own.
        let terms: Vec<PowTerm> = (0..3)
            .map(|t| PowTerm {
                base: &bases[t],
                exp: &exps[t],
                table: Some(&tables[t]),
            })
            .collect();
        let mut out = vec![0u64; ctx.limb_count()];
        ctx.multi_pow_into(&terms, &mut out);
        assert_eq!(out, want, "width {w}");
        ctx.multi_pow_into(&terms[..2], &mut out);
        assert_eq!(out, fold_pow(&ctx, &bases[..2], &exps[..2]), "width {w}");
    }
}

#[test]
fn window_width_follows_the_exponent() {
    // A single set bit (2^frac_bits, a one-hot feature) needs no table.
    assert_eq!(window_bits(33, 1, 1), 1);
    assert_eq!(window_bits(33, 2, 1), 1);
    // Dense exponents widen with length, and with reuse of the table.
    assert!(window_bits(33, 16, 1) > 1);
    assert!(window_bits(1024, 512, 1) > window_bits(33, 16, 1));
    assert!(window_bits(45, 22, 32) > window_bits(45, 22, 1));
}

#[test]
fn mont_sqr_into_matches_mont_mul_into_on_stack_and_heap_widths() {
    for limbs in [1usize, 16, 32, 64, 70] {
        let (ctx, bases) = fixture(limbs, 2);
        let k = ctx.limb_count();
        let (mut sq, mut mul) = (vec![0u64; k], vec![0u64; k]);
        let max = ctx.to_mont(&ctx.m.sub_u64(1));
        for a in bases.iter().chain([&max, &ctx.one_mont(), &vec![0u64; k]]) {
            ctx.mont_sqr_into(a, &mut sq);
            ctx.mont_mul_into(a, a, &mut mul);
            assert_eq!(sq, mul, "{limbs} limbs");
            assert_eq!(sq, ctx.mont_sqr(a));
        }
    }
}

/// A multiply and a squaring of `a` (and `a·b`) on both kernel sets.
fn assert_kernels_agree(picked: &MontCtx, portable: &MontCtx, a: &[u64], b: &[u64]) {
    let k = portable.limb_count();
    let (mut got, mut want) = (vec![0u64; k], vec![0u64; k]);
    picked.mont_mul_into(a, b, &mut got);
    portable.mont_mul_into(a, b, &mut want);
    assert_eq!(got, want, "{k}-limb multiply");
    picked.mont_sqr_into(a, &mut got);
    portable.mont_sqr_into(a, &mut want);
    assert_eq!(got, want, "{k}-limb squaring");
}

#[test]
fn picked_kernels_equal_the_portable_kernels_on_edge_operands() {
    // Every `k mod 4` tail of the four-limb row, the 8 / 16 / 32 limbs
    // of 512- and 1024-bit keys' p² and n², and both sides of the
    // 64-limb edge where the double-width intermediate leaves the stack.
    for limbs in [1usize, 4, 5, 8, 15, 16, 17, 32, 63, 64, 65, 70] {
        let (picked, bases) = fixture(limbs, 3);
        let portable = MontCtx::with_slice_kernels(&picked.m);
        let k = picked.limb_count();
        assert_eq!(k, limbs);
        // Zero, R mod m, m − 1 (the largest reduced operand), and an
        // all-ones modulus, whose products overflow the top limb.
        let mut edges = vec![
            vec![0u64; k],
            picked.one_mont(),
            picked.m.sub_u64(1).limbs().to_vec(),
        ];
        edges.extend(bases);
        for a in &edges {
            for b in &edges {
                assert_kernels_agree(&picked, &portable, a, b);
            }
        }
        let ones = BigUint::one().shl(64 * limbs).sub_u64(1);
        let (picked, portable) = (MontCtx::new(&ones), MontCtx::with_slice_kernels(&ones));
        let top = ones.sub_u64(1).limbs().to_vec();
        assert_kernels_agree(&picked, &portable, &top, &top);
        assert_kernels_agree(&picked, &portable, &top, &picked.one_mont());
    }
}

#[test]
fn new_picks_the_adx_kernels_exactly_when_the_cpu_has_bmi2_and_adx() {
    // A detection slip would not change a single output byte, only run
    // every exponentiation on the slower set.
    #[cfg(target_arch = "x86_64")]
    let adx = is_x86_feature_detected!("bmi2") && is_x86_feature_detected!("adx");
    #[cfg(not(target_arch = "x86_64"))]
    let adx = false;
    let want = if adx {
        KernelSet::Adx
    } else {
        KernelSet::Portable
    };
    for limbs in [1usize, 16, 32, 65] {
        let (ctx, _) = fixture(limbs, 0);
        assert_eq!(ctx.kernel_set(), want, "{limbs} limbs");
        let portable = MontCtx::with_slice_kernels(&ctx.m);
        assert_eq!(portable.kernel_set(), KernelSet::Portable);
    }
}

/// An odd modulus of exactly `bits` bits, its body read off `words`.
fn odd_of_bits(words: &[u64], bits: usize) -> BigUint {
    let mut limbs = words[..bits.div_ceil(64)].to_vec();
    let top = (bits - 1) % 64;
    let last = limbs.last_mut().unwrap();
    *last = (*last & (u64::MAX >> (63 - top))) | 1 << top;
    limbs[0] |= 1;
    BigUint::from_limbs(limbs)
}

/// The narrowest and the widest modulus of each width the lane kernel
/// serves: `l` 52-bit limbs hold moduli of `52(l − 1) − 1 ..= 52l − 2`
/// bits.
fn lane_moduli() -> Vec<BigUint> {
    let words: Vec<u64> = (1..=33u64)
        .map(|i| {
            0x9e37_79b9_7f4a_7c15u64
                .wrapping_mul(i)
                .rotate_left(i as u32)
        })
        .collect();
    LANE_WIDTHS
        .iter()
        .flat_map(|&l| [52 * (l - 1) - 1, 52 * l - 2].map(|bits| odd_of_bits(&words, bits)))
        .collect()
}

/// Whether this CPU runs the lane kernel: x86_64 with AVX-512F and IFMA.
fn has_ifma() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

#[test]
fn new_picks_the_lane_kernel_exactly_when_the_cpu_has_avx512f_and_ifma() {
    // A detection slip would not change a byte either: it would raise
    // every batch one base at a time, or fault on a CPU without IFMA.
    let want = if has_ifma() {
        PowMany::Lanes
    } else {
        PowMany::Scalar
    };
    for m in lane_moduli() {
        assert_eq!(MontCtx::new(&m).pow_many_path(), want, "{} bits", m.bits());
        let reference = MontCtx::with_slice_kernels(&m);
        assert_eq!(reference.pow_many_path(), PowMany::Scalar);
    }
    // Between and past the served widths: one base at a time.
    let words = vec![0x5555_5555_5555_5555u64; 41];
    for bits in [2, 64, 52 * 5 - 1, 52 * 10 - 1, 52 * 40 - 1, 2600] {
        let m = odd_of_bits(&words, bits);
        assert_eq!(
            MontCtx::new(&m).pow_many_path(),
            PowMany::Scalar,
            "{bits} bits"
        );
    }
}

/// Item counts for the whole-batch cells: every count up to two full
/// lane groups and a lone item past them, so at one and at two worker
/// threads each call meets scalar-only splits, every partial group, full
/// groups and a lone tail chain.
const ITEM_COUNTS: std::ops::RangeInclusive<usize> = 0..=2 * LANES + 1;

/// The whole-batch cells' contexts: [`MontCtx::new`] of every
/// [`lane_moduli`] modulus (the lane path on a CPU with AVX-512F and
/// IFMA), then [`MontCtx::with_slice_kernels`] of the two 5-limb ones —
/// the scalar path, whose split does not depend on the width.
fn both_paths() -> impl Iterator<Item = MontCtx> {
    let moduli = lane_moduli();
    let scalar: Vec<MontCtx> = moduli[..2]
        .iter()
        .map(MontCtx::with_slice_kernels)
        .collect();
    moduli.into_iter().map(|m| MontCtx::new(&m)).chain(scalar)
}

#[test]
fn the_lane_kernel_equals_pow_mont_at_every_width_and_lane_count() {
    for ctx in both_paths() {
        let m = ctx.m.clone();
        let (bits, path) = (m.bits(), ctx.pow_many_path());
        let mut x = m.shr(2);
        let mut random = || {
            x = x.mul(&x).add_u64(0x9e37).rem(&m);
            x.clone()
        };
        // Eight bases: the edges, four random values and one past m.
        let mut pool = vec![BigUint::zero(), BigUint::one(), m.sub_u64(1)];
        pool.extend((0..4).map(|_| random()));
        pool.push(m.add(&random()));
        // Every item count under the short exponents; two (a partial
        // group, and a full one with a lone tail at two threads) under
        // the full-width ones, whose squaring chains cost what a
        // decryption's do.
        let short = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::one().shl(64),
            random().rem(&BigUint::one().shl(64)),
        ];
        let full = [
            BigUint::one().shl(bits - 1),
            BigUint::one().shl(bits).sub_u64(1),
            random(),
        ];
        let cases = short.iter().flat_map(|e| ITEM_COUNTS.map(move |n| (e, n)));
        for (e, n) in cases.chain(full.iter().flat_map(|e| [(e, 3), (e, LANES + 1)])) {
            // The edges land in a different lane at each count.
            let bases: Vec<BigUint> = (0..n).map(|i| pool[(i + n) % 8].clone()).collect();
            let want: Vec<BigUint> = bases.iter().map(|b| ctx.pow(b, e)).collect();
            assert_eq!(
                ctx.pow_many(&bases, e),
                want,
                "{bits} bits, {n} bases, {path:?}"
            );
        }
    }
}

#[test]
fn the_lane_fold_equals_the_scalar_chain_at_every_width_and_lane_count() {
    for ctx in both_paths() {
        let m = ctx.m.clone();
        let (bits, k, path) = (m.bits(), ctx.limb_count(), ctx.pow_many_path());
        let limbs = |v: BigUint| {
            let mut l = v.limbs().to_vec();
            l.resize(k, 0);
            l
        };
        let mut x = m.shr(2);
        let mut random = || {
            x = x.mul(&x).add_u64(0x9e37).rem(&m);
            x.clone()
        };
        // Eight sources, in Montgomery form as the slab holds them:
        // the edges, four random values and one past m.
        let mut pool = vec![limbs(BigUint::zero()), limbs(BigUint::one())];
        pool.push(limbs(m.sub_u64(1)));
        pool.extend((0..4).map(|_| limbs(random())));
        pool.push(limbs(m.add_u64(1)));
        // Every output count at every shift; runs of two and of four,
        // the last run each length in turn, so a padded top meets
        // every lane count.
        for (fold, shift) in [2, 4]
            .into_iter()
            .flat_map(|f| [1, 52, 104, 208].map(|s| (f, s)))
        {
            for outputs in ITEM_COUNTS {
                let n = (outputs * fold).saturating_sub(fold - 1 - outputs % fold);
                // The edges land in a different lane at each count.
                let sources: Vec<u64> = (0..n)
                    .flat_map(|i| pool[(i + outputs) % 8].clone())
                    .collect();
                let want: Vec<u64> = sources
                    .chunks(fold * k)
                    .flat_map(|run| ctx.fold(run, shift))
                    .collect();
                let got = ctx.fold_many(&sources, fold, shift);
                assert_eq!(
                    got, want,
                    "{bits} bits, {outputs} outputs, fold {fold}, shift {shift}, {path:?}"
                );
            }
        }
    }
}

/// [`MontCtx::mont_mul_many`] of `a` and `b` against one
/// `mont_mul_into` per pair.
fn assert_lane_pairs(ctx: &MontCtx, a: &[&[u64]], b: &[&[u64]], what: &str) {
    let k = ctx.limb_count();
    let mut got = vec![0u64; a.len() * k];
    ctx.mont_mul_many(a, b, &mut got);
    for (i, ((a, b), got)) in a.iter().zip(b).zip(got.chunks(k)).enumerate() {
        assert_eq!(got, ctx.mont_mul(a, b), "{what}, pair {i}");
    }
}

#[test]
fn the_lane_product_equals_mont_mul_into_at_every_width_and_item_count() {
    if !has_ifma() {
        return;
    }
    // The narrowest modulus of each width enters its left factors by a
    // shift, the widest (whose 64k bits exceed 52l) by a multiply.
    for m in lane_moduli() {
        let ctx = MontCtx::new(&m);
        assert_eq!(ctx.pow_many_path(), PowMany::Lanes);
        let (bits, k) = (m.bits(), ctx.limb_count());
        let limbs = |v: BigUint| {
            let mut l = v.limbs().to_vec();
            l.resize(k, 0);
            l
        };
        let mut x = m.shr(2);
        let mut random = || {
            x = x.mul(&x).add_u64(0x9e37).rem(&m);
            x.clone()
        };
        // Ten operands below m: 0, 1, m − 1, R mod m (the Montgomery
        // form of 1) and six random values; then two that are not, m
        // and 2^(64k) − 1, which send their groups to the scalar kernel.
        let mut pool = vec![limbs(BigUint::zero()), limbs(BigUint::one())];
        pool.extend([limbs(m.sub_u64(1)), ctx.one_mont()]);
        pool.extend((0..6).map(|_| limbs(random())));
        pool.extend([limbs(m.clone()), vec![u64::MAX; k]]);
        for size in [10, 12] {
            // Empty, lone, partial and full groups, each with a tail; the
            // edges land in a different lane at each count.
            for n in 0..=17 {
                let a: Vec<&[u64]> = (0..n).map(|i| &pool[(i + n) % size][..]).collect();
                let b: Vec<&[u64]> = (0..n).map(|i| &pool[(3 * i + 1) % size][..]).collect();
                let what = format!("{bits} bits, {n} pairs of {size} operands");
                assert_lane_pairs(&ctx, &a, &b, &what);
            }
        }
    }
}

#[test]
fn batched_wide_reductions_equal_one_at_a_time() {
    // `reduce_wide_many` against one `reduce_wide_into` per value, at
    // every item count 0..=17 (lone, partial and full lane groups, each
    // with a tail) on the lane moduli, or the scalar path without IFMA:
    // 0, 1, m − 1, m, m² − 1, all-ones below m·R and random wide values.
    for m in lane_moduli() {
        let ctx = MontCtx::new(&m);
        let k = ctx.limb_count();
        let wide = |v: BigUint| {
            let mut l = v.limbs().to_vec();
            l.resize(2 * k, 0);
            l
        };
        let mut x = m.shr(2);
        let mut random = || {
            x = x.mul(&x).add_u64(0x9e37).rem(&m.sqr());
            x.clone()
        };
        let mut pool = vec![wide(BigUint::zero()), wide(BigUint::one())];
        pool.extend([
            wide(m.sub_u64(1)),
            wide(m.clone()),
            wide(m.sqr().sub_u64(1)),
        ]);
        pool.push(wide(BigUint::from_limbs(vec![u64::MAX; k]).mul(&m)));
        pool.extend((0..5).map(|_| wide(random())));
        for n in 0..=17 {
            let ts: Vec<&[u64]> = (0..n)
                .map(|i| &pool[(3 * i + n) % pool.len()][..])
                .collect();
            let mut got = vec![0u64; n * k];
            ctx.reduce_wide_many(&ts, &mut got);
            for (i, t) in ts.iter().enumerate() {
                let mut want = vec![0u64; k];
                ctx.reduce_wide_into(t, &mut want);
                assert_eq!(
                    &got[i * k..][..k],
                    &want[..],
                    "{} bits, {n} values, value {i}",
                    m.bits()
                );
            }
        }
    }
}

/// `products` (each a list of `(base index, exponent)`) in one
/// [`MontCtx::multi_pow_many`] over `bases`, each against one
/// `multi_pow_into` over `reference` (the bases' residues) with no tables.
fn assert_lane_products(
    ctx: &MontCtx,
    bases: &[&[u64]],
    reference: &[Vec<u64>],
    products: &[Vec<(usize, &BigUint)>],
    what: &str,
) {
    let k = ctx.limb_count();
    let terms: Vec<Vec<LaneTerm>> = products
        .iter()
        .map(|p| {
            p.iter()
                .map(|&(base, exp)| LaneTerm { base, exp })
                .collect()
        })
        .collect();
    let refs: Vec<&[LaneTerm]> = terms.iter().map(|t| &t[..]).collect();
    let mut got = vec![0u64; products.len() * k];
    ctx.multi_pow_many(bases, &refs, &mut got);
    for (i, (p, got)) in products.iter().zip(got.chunks(k)).enumerate() {
        let (bs, es): (Vec<Vec<u64>>, Vec<BigUint>) = p
            .iter()
            .map(|&(b, e)| (reference[b].clone(), e.clone()))
            .unzip();
        assert_eq!(got, multi_pow(ctx, &bs, &es), "{what}, product {i}");
    }
}

#[test]
fn the_lane_contraction_equals_multi_pow_into_at_every_width_and_lane_count() {
    for ctx in both_paths() {
        let m = ctx.m.clone();
        let (bits, k, path) = (m.bits(), ctx.limb_count(), ctx.pow_many_path());
        let limbs = |v: BigUint| {
            let mut l = v.limbs().to_vec();
            l.resize(k, 0);
            l
        };
        let mut x = m.shr(2);
        let mut random = || {
            x = x.mul(&x).add_u64(0x9e37).rem(&m);
            x.clone()
        };
        // Eight bases in Montgomery form: the edges, four random values
        // and one past m, which counts as its residue 1.
        let mut pool = vec![limbs(BigUint::zero()), limbs(BigUint::one())];
        pool.push(limbs(m.sub_u64(1)));
        pool.extend((0..4).map(|_| limbs(random())));
        let mut reference = pool.clone();
        reference.push(limbs(BigUint::one()));
        pool.push(limbs(m.add_u64(1)));
        let refs: Vec<&[u64]> = pool.iter().map(|b| &b[..]).collect();
        // Zero, one, single bits, equal values and random words; then
        // the full-width exponents a decryption's chain meets.
        let short = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::one().shl(32),
            BigUint::from_u64(0x1_2345_6789),
            BigUint::one().shl(32),
            random().rem(&BigUint::one().shl(64)),
        ];
        let full = [
            BigUint::one().shl(bits - 1),
            BigUint::one().shl(bits).sub_u64(1),
            random(),
        ];
        // A dense word per product, each raising one of bases 2..=6
        // alone: a base that two or more products raise to exponents
        // worth a table gets one shared by the call, in the radix of its
        // path (widths 3 to 5 here, 6 at full width below).
        let words: Vec<BigUint> = ITEM_COUNTS
            .map(|_| random().rem(&BigUint::one().shl(64)))
            .collect();
        for (shared, n) in [false, true]
            .into_iter()
            .flat_map(|s| ITEM_COUNTS.map(move |n| (s, n)))
        {
            // Product i holds (i + n) % 5 terms over shifting bases and
            // exponents, so counts differ product to product and
            // several bases share an exponent; product 0 adds a
            // one-hot run of three, and the last product raises one
            // base twice.
            let products: Vec<Vec<(usize, &BigUint)>> = (0..n)
                .map(|i| {
                    let mut p: Vec<(usize, &BigUint)> = (0..(i + n) % 5)
                        .map(|t| ((i + 3 * t + n) % 8, &short[(i + 2 * t) % 6]))
                        .collect();
                    if i == 0 {
                        p.extend((1..4).map(|b| (b + n % 4, &short[2])));
                    }
                    if i == n - 1 {
                        p.extend([(n % 8, &short[3]), (n % 8, &short[5])]);
                    }
                    if shared {
                        p.push((2 + i % 5, &words[i]));
                    }
                    p
                })
                .collect();
            let what = format!("{bits} bits, {n} products, shared {shared}, {path:?}");
            assert_lane_products(&ctx, &refs, &reference, &products, &what);
        }
        for (e, n) in full.iter().flat_map(|e| [(e, 3), (e, LANES + 1)]) {
            // Products i and i + 8 raise base i % 8 to the same
            // full-width exponent: a shared table of width 6.
            let products: Vec<Vec<(usize, &BigUint)>> = (0..n)
                .map(|i| vec![(i % 8, e), ((i + 5) % 8, &short[i % 6])])
                .collect();
            let what = format!("{bits} bits, full width, {n} products, {path:?}");
            assert_lane_products(&ctx, &refs, &reference, &products, &what);
        }
    }
}

/// The extended Euclid `mod_inv` ran on before the binary-GCD core,
/// kept here as the core's independent oracle: iterative, tracking only
/// the `t` coefficient with a sign flag.
fn reference_mod_inv(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    assert!(!m.is_zero(), "mod_inv: zero modulus");
    if m.is_one() {
        return Some(BigUint::zero());
    }
    let mut r0 = m.clone();
    let mut r1 = a.rem(m);
    // t coefficients with explicit signs: t0 = 0, t1 = 1.
    let mut t0 = BigUint::zero();
    let mut t1 = BigUint::one();
    let mut neg0 = false;
    let mut neg1 = false;

    while !r1.is_zero() {
        let (q, r2) = r0.div_rem(&r1);
        // t2 = t0 - q*t1 with sign tracking.
        let qt1 = q.mul(&t1);
        let (t2, neg2) = signed_sub(&t0, neg0, &qt1, neg1);
        r0 = std::mem::replace(&mut r1, r2);
        t0 = std::mem::replace(&mut t1, t2);
        neg0 = std::mem::replace(&mut neg1, neg2);
    }
    if !r0.is_one() {
        return None; // not coprime
    }
    let inv = if neg0 {
        m.sub(&t0.rem(m)).rem(m)
    } else {
        t0.rem(m)
    };
    Some(inv)
}

/// `(a, neg_a) - (b, neg_b)` in sign-magnitude form.
fn signed_sub(a: &BigUint, neg_a: bool, b: &BigUint, neg_b: bool) -> (BigUint, bool) {
    match (neg_a, neg_b) {
        // a - (-b) = a + b ; (-a) - b = -(a+b)
        (false, true) => (a.add(b), false),
        (true, false) => (a.add(b), true),
        // same sign: magnitude subtraction
        (sa, _) => {
            if a >= b {
                (a.sub(b), sa)
            } else {
                (b.sub(a), !sa)
            }
        }
    }
}

/// Euclid's `gcd`, the oracle for the core's.
fn reference_gcd(a: &BigUint, b: &BigUint) -> BigUint {
    let mut a = a.clone();
    let mut b = b.clone();
    while !b.is_zero() {
        let r = a.rem(&b);
        a = b;
        b = r;
    }
    a
}

/// `mod_inv` and `gcd` (both argument orders) against the Euclid.
fn assert_core_equals_the_euclid(y: &BigUint, m: &BigUint) {
    assert_eq!(mod_inv(y, m), reference_mod_inv(y, m), "{y:?}⁻¹ mod {m:?}");
    let want = reference_gcd(y, m);
    assert_eq!(gcd(y, m), want, "gcd({y:?}, {m:?})");
    assert_eq!(gcd(m, y), want, "gcd({m:?}, {y:?})");
}

/// A modulus of `limbs` limbs read off `words`: its top limb random,
/// all ones, or 1 (a long value one bit past a limb boundary); odd or
/// even as asked, and at least 1.
fn shaped_modulus(words: &[u64], limbs: usize, top: u8, odd: bool) -> BigUint {
    let mut l = words[..limbs].to_vec();
    l[limbs - 1] = match top {
        0 => l[limbs - 1] | 1 << 63,
        1 => u64::MAX,
        _ => 1,
    };
    if limbs > 1 && top == 1 {
        l[limbs - 2] = u64::MAX;
    }
    l[0] = if odd { l[0] | 1 } else { l[0] & !1 };
    let m = BigUint::from_limbs(l);
    if m.is_zero() {
        BigUint::from_u64(2)
    } else {
        m
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mod_inv_and_gcd_equal_the_euclid_at_every_width(
        limbs in 1usize..=33,
        words in prop::collection::vec(any::<u64>(), 68),
        top in 0u8..3,
        odd in any::<bool>(),
        kind in 0u8..7,
    ) {
        // Up to 33 limbs: the 2048-bit n² of a 1024-bit key, plus a limb.
        let m = shaped_modulus(&words, limbs, top, odd);
        let rand = |n: usize| BigUint::from_limbs(words[34..34 + n].to_vec());
        let (y, m) = match kind {
            // Reduced, and unreduced up to a limb past the modulus.
            0 => (rand(limbs).rem(&m), m),
            1 => (rand(limbs + 1), m),
            // 0, 1, m − 1.
            2 => ([BigUint::zero(), BigUint::one(), m.sub_u64(1)][words[33] as usize % 3].clone(), m),
            // A non-unit: y and m share the factor d, odd, or 2 for an even
            // m (so m·d keeps m's parity).
            3 => {
                let d = BigUint::from_u64(if odd { words[33] % 1000 * 2 + 3 } else { 2 });
                (rand(limbs).mul(&d), m.mul(&d))
            }
            // Equal length, top limbs (so the top 33 bits) equal to m's.
            4 => {
                let mut l = m.limbs().to_vec();
                let half = (l.len() / 2).max(1);
                l[..half].copy_from_slice(&words[34..34 + half]);
                (BigUint::from_limbs(l), m)
            }
            // All-ones top limbs.
            5 => {
                let mut l = words[34..34 + limbs].to_vec();
                l[limbs - 1] = u64::MAX;
                if limbs > 1 {
                    l[limbs - 2] = u64::MAX;
                }
                (BigUint::from_limbs(l), m)
            }
            // m minus a small value: the top bits agree, the low ones do not.
            _ => (m.sub(&BigUint::from_u64(words[33] % 1000).rem(&m)), m),
        };
        prop_assert!(kind != 3 || mod_inv(&y, &m).is_none());
        assert_core_equals_the_euclid(&y, &m);
    }

    #[test]
    fn gcd_and_lcm_equal_the_euclid_on_two_even_inputs(
        a in big(17),
        b in big(17),
        sa in 1usize..200,
        sb in 1usize..200,
        shared in big(2),
    ) {
        // keygen's lcm(p − 1, q − 1): two even inputs, here with a
        // random common factor and unequal powers of two.
        let common = shared.add_u64(1);
        let (a, b) = (a.add_u64(1).mul(&common).shl(sa), b.add_u64(1).mul(&common).shl(sb));
        let g = reference_gcd(&a, &b);
        prop_assert_eq!(gcd(&a, &b), g.clone());
        prop_assert_eq!(lcm(&a, &b), a.mul(&b).div_rem(&g).0);
    }
}

#[test]
fn mod_inv_and_gcd_meet_their_edges() {
    let big = BigUint::from_limbs(vec![0x9e37_79b9_7f4a_7c15, 0xdead_beef, 7]);
    let small = |v: u64| BigUint::from_u64(v);
    // m ∈ {1, 2, 3} against small, zero and wide inputs.
    for m in 1..=3 {
        for y in [0, 1, 2, 3, 4, 5, u64::MAX]
            .map(small)
            .into_iter()
            .chain([big.clone()])
        {
            assert_core_equals_the_euclid(&y, &small(m));
        }
    }
    // y ∈ {0, 1, m − 1, m, m + 1} for odd and even moduli.
    for m in [
        small(97),
        small(1 << 40),
        big.clone(),
        big.add_u64(1),
        BigUint::one().shl(2048),
    ] {
        for y in [
            BigUint::zero(),
            BigUint::one(),
            m.sub_u64(1),
            m.clone(),
            m.add_u64(1),
        ] {
            assert_core_equals_the_euclid(&y, &m);
        }
    }
    assert_eq!(gcd(&BigUint::zero(), &BigUint::zero()), BigUint::zero());
    assert_eq!(gcd(&big, &BigUint::zero()), big);
    assert_eq!(gcd(&big.shl(300), &big.shl(5)), big.shl(5));
}

#[test]
fn two_thousand_forty_eight_bit_inverses_equal_the_euclid() {
    // The width batch_inv_mont inverts at under a 1024-bit key: n², odd,
    // 2048 bits, and inputs below it and past it.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut words = |n: usize| -> Vec<u64> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    };
    let mut units = 0;
    for i in 0..24 {
        let m = odd_of_bits(&words(32), 2048);
        let y = BigUint::from_limbs(words(32 + i % 2));
        assert_core_equals_the_euclid(&y, &m);
        if let Some(inv) = mod_inv(&y, &m) {
            assert!(y.mod_mul(&inv, &m).is_one());
            units += 1;
        }
    }
    // Random odd moduli share a small factor with some draws.
    assert!(units >= 12, "{units} of 24 draws were units");
}

#[test]
fn batch_inv_mont_inverts_every_value() {
    for limbs in [1usize, 5] {
        // A prime modulus keeps every non-zero value a unit.
        let m = if limbs == 1 {
            BigUint::from_u64(0xffff_ffff_ffff_ffc5)
        } else {
            BigUint::one().shl(127).sub_u64(1)
        };
        let ctx = MontCtx::new(&m);
        let k = ctx.limb_count();
        for n in [0usize, 1, 2, 17] {
            let vals: Vec<u64> = (0..n as u64)
                .flat_map(|i| ctx.to_mont(&BigUint::from_u64(i * 7919 + 3)))
                .collect();
            let mut inv = vals.clone();
            ctx.batch_inv_mont(&mut inv);
            for (v, i) in vals.chunks(k).zip(inv.chunks(k)) {
                assert_eq!(ctx.mont_mul(v, i), ctx.one_mont());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn picked_kernels_equal_the_portable_kernels(
        limbs in prop::collection::vec(any::<u64>(), 70),
        a in big(70),
        b in big(70),
        e in big(1),
    ) {
        // At every width 1..=70 — each `k mod 4` tail, both sides of
        // the 64-limb stack/heap edge — a random odd modulus of exactly
        // that width, operands reduced below it, then a chain of
        // squarings so the values fed back are the kernels' own outputs.
        for k in 1..=70 {
            let mut m = limbs[..k].to_vec();
            m[0] |= 1;
            m[k - 1] |= 1 << 40;
            let m = BigUint::from_limbs(m);
            let (picked, portable) = (MontCtx::new(&m), MontCtx::with_slice_kernels(&m));
            let (mut x, y) = (picked.to_mont(&a.rem(&m)), portable.to_mont(&b.rem(&m)));
            // Each side carries the width, so a failure names it.
            for _ in 0..3 {
                prop_assert_eq!((k, picked.mont_mul(&x, &y)), (k, portable.mont_mul(&x, &y)));
                prop_assert_eq!((k, picked.mont_sqr(&x)), (k, portable.mont_sqr(&x)));
                x = picked.mont_sqr(&x);
            }
            prop_assert_eq!((k, picked.pow_mont(&x, &e)), (k, portable.pow_mont(&x, &e)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pow_many_matches_pow_at_every_lane_width(
        words in prop::collection::vec(any::<u64>(), 33),
        width in 0..LANE_WIDTHS.len(),
        widest in any::<bool>(),
        bases in prop::collection::vec(big(33), 1..=2 * LANES + 1),
        e in big(2),
    ) {
        // A random modulus at either end of a served width, bases of any
        // size (some past m), groups of eight and a partial last one.
        let l = LANE_WIDTHS[width];
        let m = odd_of_bits(&words, if widest { 52 * l - 2 } else { 52 * (l - 1) - 1 });
        let ctx = MontCtx::new(&m);
        let want: Vec<BigUint> = bases.iter().map(|b| ctx.pow(b, &e)).collect();
        prop_assert_eq!(ctx.pow_many(&bases, &e), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn mont_mul_many_matches_mont_mul_at_every_lane_width(
        words in prop::collection::vec(any::<u64>(), 33),
        width in 0..LANE_WIDTHS.len(),
        widest in any::<bool>(),
        lefts in prop::collection::vec(big(33), 0..=2 * LANES + 1),
        rights in prop::collection::vec(big(33), 2 * LANES + 1),
    ) {
        // A random modulus at either end of a served width, operands
        // reduced below it, groups of eight and a partial last one.
        let l = LANE_WIDTHS[width];
        let m = odd_of_bits(&words, if widest { 52 * l - 2 } else { 52 * (l - 1) - 1 });
        let ctx = MontCtx::new(&m);
        let k = ctx.limb_count();
        let limbs = |v: &BigUint| {
            let mut l = v.rem(&m).limbs().to_vec();
            l.resize(k, 0);
            l
        };
        let (a, b): (Vec<Vec<u64>>, Vec<Vec<u64>>) =
            lefts.iter().zip(&rights).map(|(a, b)| (limbs(a), limbs(b))).unzip();
        let (a, b): (Vec<&[u64]>, Vec<&[u64]>) =
            a.iter().zip(&b).map(|(a, b)| (&a[..], &b[..])).unzip();
        let mut got = vec![0u64; a.len() * k];
        ctx.mont_mul_many(&a, &b, &mut got);
        let want: Vec<u64> = a.iter().zip(&b).flat_map(|(a, b)| ctx.mont_mul(a, b)).collect();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fold_many_matches_fold_at_every_lane_width(
        words in prop::collection::vec(any::<u64>(), 33),
        width in 0..LANE_WIDTHS.len(),
        widest in any::<bool>(),
        values in prop::collection::vec(big(33), 1..=2 * LANES * 3 + 1),
        fold in 1usize..=3,
        shift in 0usize..=130,
    ) {
        // A random modulus at either end of a served width; sources of
        // any size (some past m) as Montgomery-form slabs, groups of
        // eight runs and a partial last one.
        let l = LANE_WIDTHS[width];
        let m = odd_of_bits(&words, if widest { 52 * l - 2 } else { 52 * (l - 1) - 1 });
        let ctx = MontCtx::new(&m);
        let k = ctx.limb_count();
        let sources: Vec<u64> = values
            .iter()
            .flat_map(|v| {
                let mut l = v.limbs().to_vec();
                l.resize(k, 0);
                l.truncate(k);
                l
            })
            .collect();
        let want: Vec<u64> = sources.chunks(fold * k).flat_map(|run| ctx.fold(run, shift)).collect();
        prop_assert_eq!(ctx.fold_many(&sources, fold, shift), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wide_reduction_and_product_accumulation_match_bigint(
        m in odd_modulus(5),
        t in big(10),
        x in big(5),
        a in big(5),
        b in big(5),
        wide in any::<bool>(),
    ) {
        // Past 64 limbs both helpers move their scratch to the heap.
        let m = if wide { m.shl(64 * 64).add_u64(1) } else { m };
        let ctx = MontCtx::new(&m);
        let k = ctx.limb_count();
        let pad = |v: &BigUint, len: usize| {
            let mut l = v.limbs().to_vec();
            l.resize(len, 0);
            l
        };
        let t = t.rem(&m.sqr());
        let mut got = vec![0u64; k];
        ctx.reduce_wide_into(&pad(&t, 2 * k), &mut got);
        prop_assert_eq!(&got, &ctx.to_mont(&t.rem(&m)));
        // x < m and a·b < m, a and b at most k + 1 limbs between them.
        let (x, a) = (x.rem(&m), a.rem(&m).shr(m.bits() / 2));
        let b = b.rem(&m.shr(a.bits()).add_u64(1));
        prop_assume!(a.mul(&b) < m);
        let (la, lb) = (a.limbs().len(), (b.limbs().len()).max(1));
        prop_assume!(la + lb <= k + 1);
        ctx.add_product_into(&pad(&x, k), &pad(&a, la), &pad(&b, lb), &mut got);
        prop_assert_eq!(BigUint::from_limbs(got), x.add(&a.mul(&b)).rem(&m));
        prop_assert!(ctx.is_reduced(&pad(&x, k)) && !ctx.is_reduced(&pad(&m, k)));
    }

    #[test]
    fn multi_pow_matches_the_fold(
        m in odd_modulus(4),
        seeds in prop::collection::vec(any::<u64>(), 0..=24),
    ) {
        // Two words per term: (base pick | exponent kind, exponent word).
        let ctx = MontCtx::new(&m);
        let pool: Vec<Vec<u64>> = (1..=4u64)
            .map(|i| ctx.to_mont(&BigUint::from_u64(i * 0x9e37_79b9).rem(&m)))
            .collect();
        let (mut bases, mut exps) = (Vec::new(), Vec::new());
        for pair in seeds.chunks_exact(2) {
            bases.push(pool[(pair[0] % 4) as usize].clone());
            exps.push(exponent(pair[0] >> 8, pair[1]));
        }
        prop_assert_eq!(multi_pow(&ctx, &bases, &exps), fold_pow(&ctx, &bases, &exps));
    }

    #[test]
    fn the_scalar_fold_is_the_product_of_pows(
        m in odd_modulus(5),
        values in prop::collection::vec(big(6), 0..=6),
        shift in 0usize..=130,
    ) {
        // Π_j v_j^(2^(j·shift)) mod m, one pow per source, against the
        // Horner chain on their Montgomery forms; v_j past m included.
        let ctx = MontCtx::new(&m);
        let k = ctx.limb_count();
        let run: Vec<u64> = values.iter().flat_map(|v| ctx.to_mont(&v.rem(&m))).collect();
        let want = values.iter().enumerate().fold(BigUint::one().rem(&m), |acc, (j, v)| {
            ctx.mul(&acc, &ctx.pow(v, &BigUint::one().shl(j * shift)))
        });
        let got = ctx.fold(&run, shift);
        prop_assert_eq!(got.len(), k);
        prop_assert_eq!(ctx.from_mont(&got), want);
    }

    #[test]
    fn add_commutes(a in big(8), b in big(8)) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_sub_roundtrip(a in big(8), b in big(8)) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn add_associates(a in big(6), b in big(6), c in big(6)) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn mul_commutes(a in big(6), b in big(6)) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_distributes(a in big(5), b in big(5), c in big(5)) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn sqr_is_self_mul(a in big(8)) {
        prop_assert_eq!(a.sqr(), a.mul(&a));
    }

    #[test]
    fn u128_mul_reference(x in any::<u64>(), y in any::<u64>()) {
        let got = BigUint::from_u64(x).mul(&BigUint::from_u64(y));
        prop_assert_eq!(got, BigUint::from_u128(x as u128 * y as u128));
    }

    #[test]
    fn div_rem_reconstructs(n in big(10), d in big(4)) {
        prop_assume!(!d.is_zero());
        let (q, r) = n.div_rem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(q.mul(&d).add(&r), n);
    }

    #[test]
    fn shl_shr_roundtrip(a in big(6), s in 0usize..300) {
        prop_assert_eq!(a.shl(s).shr(s), a);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in big(5), s in 0usize..120) {
        prop_assert_eq!(a.shl(s), a.mul(&BigUint::one().shl(s)));
    }

    #[test]
    fn bytes_roundtrip(a in big(8)) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn hex_roundtrip(a in big(8)) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn mont_mul_matches_mod_mul(m in odd_modulus(5), a in big(5), b in big(5)) {
        let ctx = MontCtx::new(&m);
        let ar = a.rem(&m);
        let br = b.rem(&m);
        prop_assert_eq!(ctx.mul(&ar, &br), ar.mod_mul(&br, &m));
    }

    #[test]
    fn mont_pow_matches_naive(m in odd_modulus(3), a in big(3), e in 0u64..500) {
        let ctx = MontCtx::new(&m);
        let ar = a.rem(&m);
        // Naive square-and-multiply reference.
        let mut want = BigUint::one().rem(&m);
        for _ in 0..e {
            want = want.mod_mul(&ar, &m);
        }
        prop_assert_eq!(ctx.pow(&ar, &BigUint::from_u64(e)), want);
    }

    #[test]
    fn mod_inv_correct_when_exists(m in odd_modulus(4), a in big(4)) {
        let ar = a.rem(&m);
        if let Some(inv) = mod_inv(&ar, &m) {
            prop_assert!(inv < m.clone());
            prop_assert!(ar.mod_mul(&inv, &m).is_one() || m.is_one());
        } else {
            prop_assert!(!bf_bigint::gcd(&ar, &m).is_one() || m.is_one());
        }
    }

    #[test]
    fn ordering_consistent_with_sub(a in big(6), b in big(6)) {
        if a >= b {
            let d = a.sub(&b);
            prop_assert_eq!(b.add(&d), a);
        } else {
            let d = b.sub(&a);
            prop_assert_eq!(a.add(&d), b);
        }
    }
}
