//! The eight-lane chains behind [`MontCtx::pow_many`] and
//! [`MontCtx::fold_many`] on x86_64 CPUs with AVX-512 IFMA.
//!
//! Eight bases raised to one exponent mod one modulus share everything
//! but their limbs: the modulus, the window digits, the table index. So
//! they run as one; so do eight folds `Π_j s_j^(2^(j·shift))` of one
//! shift, each lane's sources its table. Limb `j` of all eight values
//! sits in one 512-bit vector, a 64-bit lane per value, in radix `2^52`,
//! and every product is a `vpmadd52luq`/`vpmadd52huq` pair: the low and
//! the high 52 bits of eight 52×52-bit products, each added to its lane's
//! 64-bit accumulator. No lane reads another and no step gathers.
//!
//! Multiplication is almost-Montgomery (AMM): with `R = 2^(52·L) > 4m`,
//! operands below `2m` give a product `a·b·R⁻¹` below `2m`, so no step
//! compares with `m` and no lane branches; the one conditional
//! subtraction runs per lane, in scalar code, after the value leaves the
//! Montgomery domain. Inside a multiply the accumulators are not
//! normalised: a column meets at most `4(L + 1)` terms below `2^52`, far
//! below `2^64` at the widest `L = 40`, so the carries wait for one pass
//! at the end.
//!
//! [`MontCtx::pow_many`]: crate::MontCtx::pow_many
//! [`MontCtx::fold_many`]: crate::MontCtx::fold_many

use core::arch::x86_64::*;
use std::array::from_fn;

use crate::mont::{inv64, sliding_windows, window_bits, LANES, LANE_WIDTHS};
use crate::BigUint;

/// Bits per limb: what `vpmadd52{l,h}uq` multiply.
const RADIX: usize = 52;
const MASK: u64 = (1 << RADIX) - 1;

/// One modulus in the lane kernel's radix.
#[derive(Clone, Debug)]
pub(crate) struct LaneCtx {
    /// The modulus.
    m: BigUint,
    /// `m` in `l` 52-bit limbs.
    m52: Vec<u64>,
    /// `−m⁻¹ mod 2^52`.
    m_inv: u64,
    /// `R² mod m`, `R = 2^(52·l)`, in `l` 52-bit limbs.
    r2: Vec<u64>,
    /// `R²/R₆₄ mod m`, `R₆₄ = 2^(64k)` for the `k` 64-bit limbs of `m`:
    /// one lane multiply by it turns a value's 64-bit Montgomery form
    /// (what [`crate::MontCtx`] holds) into its lane form.
    enter: Vec<u64>,
    /// `R₆₄ mod m`: one lane multiply by it turns a lane form back into
    /// the 64-bit Montgomery form. It is also that form of 1, which pads
    /// a fold's missing sources.
    leave: Vec<u64>,
}

/// Dispatch to the instance of a kernel for `l` limbs.
macro_rules! on_width {
    ($l:expr, $kernel:ident($($arg:expr),*)) => {
        match $l {
            5 => $kernel::<5>($($arg),*),
            10 => $kernel::<10>($($arg),*),
            20 => $kernel::<20>($($arg),*),
            40 => $kernel::<40>($($arg),*),
            l => unreachable!("no kernel for {l} limbs"),
        }
    };
}

impl LaneCtx {
    /// The context for `m` (odd, > 1), if this CPU runs AVX-512F and
    /// IFMA and `m` has one of the [`LANE_WIDTHS`]: the only way to the
    /// kernels below.
    pub(crate) fn new(m: &BigUint) -> Option<Self> {
        let cpu = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma");
        let l = (m.bits() + 2).div_ceil(RADIX);
        // 2·52·l ≥ 2(bits + 2) ≥ bits + 64 > 64k at every served width
        // (moduli of 207 bits and more), so `enter` is a power of two.
        let (r, r64) = (RADIX * l, 64 * m.limbs().len());
        let power = |bits: usize| to_radix(BigUint::one().shl(bits).rem(m).limbs(), l);
        (cpu && LANE_WIDTHS.contains(&l)).then(|| LaneCtx {
            m: m.clone(),
            m52: to_radix(m.limbs(), l),
            m_inv: inv64(m.limbs()[0]).wrapping_neg() & MASK,
            r2: power(2 * r),
            enter: power(2 * r - r64),
            leave: power(r64),
        })
    }

    /// `b^exp mod m` for every `b` of `bases`, eight at a time.
    pub(crate) fn pow_many(&self, bases: &[BigUint], exp: &BigUint) -> Vec<BigUint> {
        let l = self.m52.len();
        let w = window_bits(exp.bits(), exp.count_ones(), 1);
        let mut windows = Vec::new();
        sliding_windows(exp, w, |pos, entry| windows.push((pos, entry)));
        let mut out = Vec::with_capacity(bases.len());
        let mut x = vec![0u64; l * LANES];
        for group in bases.chunks(LANES) {
            x.fill(0);
            for (lane, b) in group.iter().enumerate() {
                let b = if b < &self.m { b } else { &b.rem(&self.m) };
                put(&mut x, lane, &to_radix(b.limbs(), l));
            }
            // SAFETY: `new` built `self` only after the CPU reported
            // AVX-512F and IFMA, the two features the kernels enable.
            unsafe { on_width!(l, pow8(self, &windows, w, &mut x)) }
            out.extend((0..group.len()).map(|lane| self.take(&x, lane)));
        }
        out
    }

    /// The fold of every run of `fold` consecutive sources of the flat
    /// slab `sources` (`k` limbs each, 64-bit Montgomery forms below
    /// `m`; the last run may be shorter): `Π_j s_j^(2^(j·shift))`, in
    /// the same form, canonical, `k` limbs per run. Eight runs share one
    /// chain, each in its own lane: Horner from the top source down, a
    /// source's lane form the table entry at its index. A run's missing
    /// top sources, and the lanes past the last run, are 1.
    pub(crate) fn fold_many(
        &self,
        sources: &[u64],
        k: usize,
        fold: usize,
        shift: usize,
    ) -> Vec<u64> {
        let l = self.m52.len();
        let size = l * LANES;
        let windows: Vec<(usize, usize)> = (0..fold).rev().map(|j| (j * shift, j)).collect();
        let runs: Vec<&[u64]> = sources.chunks(fold * k).collect();
        let mut out = vec![0u64; runs.len() * k];
        let mut table = vec![0u64; fold * size];
        let mut x = vec![0u64; size];
        for (group, out) in runs.chunks(LANES).zip(out.chunks_mut(LANES * k)) {
            for (j, entry) in table.chunks_exact_mut(size).enumerate() {
                for lane in 0..LANES {
                    match group.get(lane).and_then(|run| run.get(j * k..(j + 1) * k)) {
                        Some(src) => put(entry, lane, &to_radix(src, l)),
                        None => put(entry, lane, &self.leave),
                    }
                }
            }
            // SAFETY: as in `pow_many`.
            unsafe { on_width!(l, fold8(self, &mut table, &windows, &mut x)) }
            for (lane, out) in out.chunks_exact_mut(k).enumerate() {
                let r = self.take(&x, lane);
                out.fill(0);
                out[..r.limbs().len()].copy_from_slice(r.limbs());
            }
        }
        out
    }

    /// Lane `lane` of the lane-interleaved `x` as a value below `m`.
    fn take(&self, x: &[u64], lane: usize) -> BigUint {
        let limbs: Vec<u64> = (0..self.m52.len()).map(|j| x[j * LANES + lane]).collect();
        let r = from_radix(&limbs);
        // Out of the domain, a lane is below 2m (module docs).
        if r < self.m {
            r
        } else {
            r.sub(&self.m)
        }
    }
}

/// Write the 52-bit limbs `limbs` into lane `lane` of the
/// lane-interleaved `x` (limb `j` at `8j + lane`).
fn put(x: &mut [u64], lane: usize, limbs: &[u64]) {
    for (j, &limb) in limbs.iter().enumerate() {
        x[j * LANES + lane] = limb;
    }
}

/// `a` (64-bit limbs) in `l` limbs of 52 bits, least significant first.
fn to_radix(a: &[u64], l: usize) -> Vec<u64> {
    let word = |i: usize| a.get(i).copied().unwrap_or(0);
    (0..l)
        .map(|j| {
            let (i, s) = (j * RADIX / 64, j * RADIX % 64);
            let hi = if s > 64 - RADIX {
                word(i + 1) << (64 - s)
            } else {
                0
            };
            (word(i) >> s | hi) & MASK
        })
        .collect()
}

/// The value of 52-bit limbs, least significant first.
fn from_radix(limbs: &[u64]) -> BigUint {
    let mut words = vec![0u64; (limbs.len() * RADIX).div_ceil(64)];
    for (j, &v) in limbs.iter().enumerate() {
        let (i, s) = (j * RADIX / 64, j * RADIX % 64);
        words[i] |= v << s;
        if s > 64 - RADIX {
            words[i + 1] |= v >> (64 - s);
        }
    }
    BigUint::from_limbs(words)
}

/// Eight `L`-limb values, lane-interleaved: vector `j` holds limb `j`.
type Vals<const L: usize> = [__m512i; L];

/// `v` in every lane.
#[target_feature(enable = "avx512f")]
#[inline]
fn splat<const L: usize>(v: &[u64]) -> Vals<L> {
    from_fn(|j| _mm512_set1_epi64(v[j] as i64))
}

/// `x ← x^e mod m` lane by lane, on the `L·8` lane-interleaved limbs
/// of `x` (limb `j` of lane `i` at `8j + i`, every lane below `m`),
/// for the exponent recoded into `windows` of width `w` (highest first,
/// as [`sliding_windows`] emits them). The empty product is 1.
#[target_feature(enable = "avx512f,avx512ifma")]
fn pow8<const L: usize>(ctx: &LaneCtx, windows: &[(usize, usize)], w: u32, x: &mut [u64]) {
    let mut one = [0u64; L];
    one[0] = 1;
    if windows.is_empty() {
        store(x, &splat::<L>(&one));
        return;
    }
    // The odd powers b, b³, …, b^(2^w − 1), flat, in Montgomery form.
    let (m, m_inv) = (splat::<L>(&ctx.m52), _mm512_set1_epi64(ctx.m_inv as i64));
    let base = amm(&load(x), &splat(&ctx.r2), &m, m_inv);
    let size = L * LANES;
    let mut table = vec![0u64; size << (w - 1)];
    store(&mut table, &base);
    if w > 1 {
        let sq = amm(&base, &base, &m, m_inv);
        let mut prev = base;
        for entry in 1..1 << (w - 1) {
            prev = amm(&prev, &sq, &m, m_inv);
            store(&mut table[entry * size..], &prev);
        }
    }
    walk8::<L>(ctx, &table, windows, &one, x);
}

/// The Horner chain of [`LaneCtx::fold_many`] on one lane group: the
/// `table` holds source `j` of every lane at entry `j`, in 64-bit
/// Montgomery form below `m`, and is moved into the lane form in place;
/// `x` receives the fold in 64-bit Montgomery form, below `2m`.
#[target_feature(enable = "avx512f,avx512ifma")]
fn fold8<const L: usize>(
    ctx: &LaneCtx,
    table: &mut [u64],
    windows: &[(usize, usize)],
    x: &mut [u64],
) {
    let (m, m_inv) = (splat::<L>(&ctx.m52), _mm512_set1_epi64(ctx.m_inv as i64));
    let enter = splat::<L>(&ctx.enter);
    for entry in table.chunks_exact_mut(L * LANES) {
        let v = amm(&load(entry), &enter, &m, m_inv);
        store(entry, &v);
    }
    walk8::<L>(ctx, table, windows, &ctx.leave, x);
}

/// The shared chain of [`pow8`] and [`fold8`]: walk `windows` (`(low
/// bit, table entry)`, highest first, at least one) over the flat
/// lane-form `table` — start from the first window's entry, square down
/// to each next window's bit and multiply its entry in, square down to
/// bit 0 — then leave the domain by one multiply by `out`, into `x`.
#[target_feature(enable = "avx512f,avx512ifma")]
fn walk8<const L: usize>(
    ctx: &LaneCtx,
    table: &[u64],
    windows: &[(usize, usize)],
    out: &[u64],
    x: &mut [u64],
) {
    let (m, m_inv) = (splat::<L>(&ctx.m52), _mm512_set1_epi64(ctx.m_inv as i64));
    let size = L * LANES;
    let (&(mut pos, first), rest) = windows.split_first().expect("at least one window");
    let mut acc: Vals<L> = load(&table[first * size..]);
    for &(next, entry) in rest {
        for _ in next..pos {
            acc = amm(&acc, &acc, &m, m_inv);
        }
        pos = next;
        acc = amm(&acc, &load(&table[entry * size..]), &m, m_inv);
    }
    for _ in 0..pos {
        acc = amm(&acc, &acc, &m, m_inv);
    }
    store(x, &amm(&acc, &splat(out), &m, m_inv));
}

/// `a·b·R⁻¹ mod m`, below `2m`, for `a, b < 2m` in normalised limbs
/// (the multiplier reads the low 52 bits of each): operand scanning, one
/// row `t ← (t + a_i·b + u·m) / 2^52` per limb of `a`, then one carry
/// pass.
#[target_feature(enable = "avx512f,avx512ifma")]
#[inline]
fn amm<const L: usize>(a: &Vals<L>, b: &Vals<L>, m: &Vals<L>, m_inv: __m512i) -> Vals<L> {
    let zero = _mm512_setzero_si512();
    let mut t: Vals<L> = [zero; L];
    for &ai in a {
        // u = t₀·(−m⁻¹) mod 2^52 clears the low 52 bits of t₀ + u·m₀;
        // the bits past them carry into the new t₀.
        let t0 = _mm512_madd52lo_epu64(t[0], ai, b[0]);
        let u = _mm512_madd52lo_epu64(zero, t0, m_inv);
        let carry = _mm512_srli_epi64::<52>(_mm512_madd52lo_epu64(t0, u, m[0]));
        // Limb j's low halves and limb j − 1's high halves land on t_j,
        // which becomes t_{j−1}: the products not waiting on u first.
        for j in 1..L {
            let x = _mm512_madd52lo_epu64(t[j], ai, b[j]);
            let x = _mm512_madd52hi_epu64(x, ai, b[j - 1]);
            let x = _mm512_madd52lo_epu64(x, u, m[j]);
            t[j - 1] = _mm512_madd52hi_epu64(x, u, m[j - 1]);
        }
        let top = _mm512_madd52hi_epu64(zero, ai, b[L - 1]);
        t[L - 1] = _mm512_madd52hi_epu64(top, u, m[L - 1]);
        t[0] = _mm512_add_epi64(t[0], carry);
    }
    let mask = _mm512_set1_epi64(MASK as i64);
    let mut carry = zero;
    for limb in &mut t {
        let v = _mm512_add_epi64(*limb, carry);
        carry = _mm512_srli_epi64::<52>(v);
        *limb = _mm512_and_si512(v, mask);
    }
    t
}

/// The `L` vectors at the front of `s`.
#[target_feature(enable = "avx512f")]
#[inline]
fn load<const L: usize>(s: &[u64]) -> Vals<L> {
    let s = &s[..L * LANES];
    // SAFETY: `s` holds `8L` limbs (the slice above is bounds-checked),
    // so each unaligned 64-byte read `8j .. 8j + 8` is inside it.
    from_fn(|j| unsafe { _mm512_loadu_epi64(s[j * LANES..].as_ptr().cast()) })
}

/// Store `v` to the front of `s`.
#[target_feature(enable = "avx512f")]
#[inline]
fn store<const L: usize>(s: &mut [u64], v: &Vals<L>) {
    let s = &mut s[..L * LANES];
    for (j, &vj) in v.iter().enumerate() {
        // SAFETY: as in `load`, each 64-byte write lands inside `s`.
        unsafe { _mm512_storeu_epi64(s[j * LANES..].as_mut_ptr().cast(), vj) }
    }
}
