//! Property-based tests for the bignum substrate: ring laws, division
//! reconstruction, Montgomery consistency, and modular-inverse
//! correctness over arbitrary inputs.

use bf_bigint::mont::{
    window_bits, KernelSet, LaneBases, LaneTerm, PowMany, PowTerm, LANES, LANE_WIDTHS,
};
use bf_bigint::{mod_inv, BigUint, MontCtx};
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

#[test]
fn the_lane_kernel_equals_pow_mont_at_every_width_and_lane_count() {
    if !has_ifma() {
        return;
    }
    for m in lane_moduli() {
        let ctx = MontCtx::new(&m);
        assert_eq!(ctx.pow_many_path(), PowMany::Lanes);
        let bits = m.bits();
        let mut x = m.shr(2);
        let mut random = || {
            x = x.mul(&x).add_u64(0x9e37).rem(&m);
            x.clone()
        };
        // Eight bases: the edges, four random values and one past m.
        let mut pool = vec![BigUint::zero(), BigUint::one(), m.sub_u64(1)];
        pool.extend((0..4).map(|_| random()));
        pool.push(m.add(&random()));
        // Every lane count under the short exponents; two (a partial
        // group and a full one) under the full-width ones, whose
        // squaring chains cost what a decryption's do.
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
        let cases = short
            .iter()
            .flat_map(|e| (1..=LANES).map(move |live| (e, live)));
        for (e, live) in cases.chain(full.iter().flat_map(|e| [(e, 3), (e, LANES)])) {
            // The edges land in a different lane at each count.
            let bases: Vec<BigUint> = (0..live).map(|i| pool[(i + live) % 8].clone()).collect();
            let want: Vec<BigUint> = bases.iter().map(|b| ctx.pow(b, e)).collect();
            assert_eq!(ctx.pow_many(&bases, e), want, "{bits} bits, {live} lanes");
        }
    }
}

#[test]
fn the_lane_fold_equals_the_scalar_chain_at_every_width_and_lane_count() {
    if !has_ifma() {
        return;
    }
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
        // Eight sources, in Montgomery form as the slab holds them: the
        // edges, four random values and one past m.
        let mut pool = vec![limbs(BigUint::zero()), limbs(BigUint::one())];
        pool.push(limbs(m.sub_u64(1)));
        pool.extend((0..4).map(|_| limbs(random())));
        pool.push(limbs(m.add_u64(1)));
        // Every lane count at every shift; runs of two and of four, the
        // last run each length in turn, so a padded top meets every lane
        // count.
        for (fold, shift) in [2, 4]
            .into_iter()
            .flat_map(|f| [1, 52, 104, 208].map(|s| (f, s)))
        {
            for live in 1..=LANES {
                let n = (live - 1) * fold + live % fold + 1;
                // The edges land in a different lane at each count.
                let sources: Vec<u64> = (0..n).flat_map(|i| pool[(i + live) % 8].clone()).collect();
                let want: Vec<u64> = sources
                    .chunks(fold * k)
                    .flat_map(|run| ctx.fold(run, shift))
                    .collect();
                let got = ctx.fold_many(&sources, fold, shift);
                assert_eq!(
                    got, want,
                    "{bits} bits, {live} lanes, fold {fold}, shift {shift}"
                );
            }
        }
    }
}

/// `products` (each a list of `(base index, exponent)`) on the lanes,
/// each against one `multi_pow_into` over `reference` (the bases, each
/// below `m`).
fn assert_lane_products(
    ctx: &MontCtx,
    bases: &LaneBases,
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
    for (lane, (p, got)) in products.iter().zip(got.chunks(k)).enumerate() {
        let (bs, es): (Vec<Vec<u64>>, Vec<BigUint>) = p
            .iter()
            .map(|&(b, e)| (reference[b].clone(), e.clone()))
            .unzip();
        assert_eq!(got, multi_pow(ctx, &bs, &es), "{what}, lane {lane}");
    }
}

#[test]
fn the_lane_contraction_equals_multi_pow_into_at_every_width_and_lane_count() {
    if !has_ifma() {
        return;
    }
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
        // Eight bases in Montgomery form: the edges, four random values
        // and one past m, which counts as its residue 1.
        let mut pool = vec![limbs(BigUint::zero()), limbs(BigUint::one())];
        pool.push(limbs(m.sub_u64(1)));
        pool.extend((0..4).map(|_| limbs(random())));
        let mut reference = pool.clone();
        reference.push(limbs(BigUint::one()));
        pool.push(limbs(m.add_u64(1)));
        let refs: Vec<&[u64]> = pool.iter().map(|b| &b[..]).collect();
        // Zero, one, single bits, equal values and random words; then the
        // full-width exponents a decryption's chain meets.
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
        // No tables, then tables of every width lent to bases 2..=7.
        let lent: Vec<(usize, u32)> = (2..8).zip(1..=6).collect();
        for tables in [&[][..], &lent[..]] {
            let bases = ctx.lane_bases(&refs, tables).expect("the lane path");
            for live in 1..=LANES {
                // Lane i holds (i + live) % 5 terms over shifting bases
                // and exponents, so counts differ lane to lane and
                // several bases share an exponent; lane 0 adds a one-hot
                // run of three, and the last lane raises one base twice.
                let products: Vec<Vec<(usize, &BigUint)>> = (0..live)
                    .map(|i| {
                        let mut p: Vec<(usize, &BigUint)> = (0..(i + live) % 5)
                            .map(|t| ((i + 3 * t + live) % 8, &short[(i + 2 * t) % 6]))
                            .collect();
                        if i == 0 {
                            p.extend((1..4).map(|b| (b + live % 4, &short[2])));
                        }
                        if i == live - 1 {
                            p.extend([(live % 8, &short[3]), (live % 8, &short[5])]);
                        }
                        p
                    })
                    .collect();
                let what = format!("{bits} bits, {live} lanes, {} tables", tables.len());
                assert_lane_products(&ctx, &bases, &reference, &products, &what);
            }
            for (e, live) in full.iter().flat_map(|e| [(e, 3), (e, LANES)]) {
                let products: Vec<Vec<(usize, &BigUint)>> = (0..live)
                    .map(|i| vec![(i % 8, e), ((i + 5) % 8, &short[i % 6])])
                    .collect();
                let what = format!("{bits} bits, full width, {live} lanes");
                assert_lane_products(&ctx, &bases, &reference, &products, &what);
            }
        }
    }
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
