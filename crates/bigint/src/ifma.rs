//! The eight-lane chains behind [`MontCtx::pow_many`],
//! [`MontCtx::fold_many`] and [`MontCtx::multi_pow_many`] on x86_64 CPUs
//! with AVX-512 IFMA.
//!
//! Eight bases raised to one exponent mod one modulus share everything
//! but their limbs: the modulus, the window digits, the table index. So
//! they run as one; so do eight folds `Π_j s_j^(2^(j·shift))` of one
//! shift, each lane's sources its table; and so do eight products
//! `Π_t b_t^(e_t)` whose windows sit at fixed bit positions, each lane
//! reading its own table entry. Limb `j` of all eight values sits in one
//! 512-bit vector, a 64-bit lane per value, in radix `2^52`, and every
//! product is a `vpmadd52luq`/`vpmadd52huq` pair: the low and the high
//! 52 bits of eight 52×52-bit products, each added to its lane's 64-bit
//! accumulator. No lane reads another. One chain, [`walk8`], serves all
//! three: it asks its caller for each window's operand, which the first
//! two load from an interleaved table and the third gathers lane by
//! lane, `8L` word moves against the `≈ 2L²` multiply-adds of the
//! multiply that reads them.
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
//! [`MontCtx::multi_pow_many`]: crate::MontCtx::multi_pow_many

use core::arch::x86_64::*;
use std::array::from_fn;

use crate::mont::{
    inv64, sliding_windows, window_bits, LaneBases, LaneTerm, LANES, LANE_WIDTHS, MAX_WINDOW,
};
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
    /// `R mod m`: the lane form of 1, which pads a product's missing
    /// factors and starts an empty chain.
    one: Vec<u64>,
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
            one: power(r),
        })
    }

    /// Limbs of the kernel's radix per value.
    pub(crate) fn limbs(&self) -> usize {
        self.m52.len()
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

    /// `bases` (`k`-limb 64-bit Montgomery forms below `m`) in the lane
    /// form, eight to a multiply by `enter`, each stored once; base `i`
    /// of each `(i, w)` of `tables` also gets its powers `b^1 …
    /// b^(2^w − 1)`, built eight bases at a time.
    pub(crate) fn enter_bases(&self, bases: &[&[u64]], tables: &[(usize, u32)]) -> LaneBases {
        let l = self.limbs();
        let mut x = vec![0u64; l * LANES];
        let mut entered = vec![0u64; bases.len() * l];
        for (group, dst) in bases.chunks(LANES).zip(entered.chunks_mut(LANES * l)) {
            x.fill(0);
            for (lane, b) in group.iter().enumerate() {
                put(&mut x, lane, &to_radix(b, l));
            }
            // SAFETY: as in `pow_many`.
            unsafe { on_width!(l, enter8(self, &mut x)) }
            for (lane, dst) in dst.chunks_exact_mut(l).enumerate() {
                gather_lane(&x, lane, dst);
            }
        }
        let mut by_width = tables.to_vec();
        by_width.sort_by_key(|&(_, w)| w);
        let mut table_of = vec![None; bases.len()];
        let (mut stored, mut entry) = (Vec::new(), vec![0u64; l]);
        for group in by_width.chunks(LANES) {
            let entries = (1usize << group[group.len() - 1].1) - 1;
            let mut table = vec![0u64; entries * l * LANES];
            for (lane, &(i, _)) in group.iter().enumerate() {
                put(&mut table, lane, &entered[i * l..(i + 1) * l]);
            }
            // SAFETY: as in `pow_many`.
            unsafe { on_width!(l, powers8(self, &mut table)) }
            for (lane, &(i, w)) in group.iter().enumerate() {
                table_of[i] = Some((w, stored.len()));
                for e in table.chunks_exact(l * LANES).take((1 << w) - 1) {
                    gather_lane(e, lane, &mut entry);
                    stored.extend_from_slice(&entry);
                }
            }
        }
        LaneBases {
            l,
            bases: entered,
            table_of,
            tables: stored,
        }
    }

    /// The product `Π_t b_t^(e_t)` of each of up to eight `products`
    /// over `bases` (entered by this context), in 64-bit Montgomery form,
    /// canonical, `k` limbs each into `out`: one chain, a product per
    /// lane (see [`Plan`]).
    pub(crate) fn multi_pow_many(
        &self,
        bases: &LaneBases,
        products: &[&[LaneTerm<'_>]],
        k: usize,
        out: &mut [u64],
    ) {
        let l = self.limbs();
        assert_eq!(bases.l, l, "bases entered at another width");
        let plan = Plan::new(bases, products);
        let mut x = vec![0u64; l * LANES];
        // SAFETY: as in `pow_many`.
        unsafe { on_width!(l, multi8(self, bases, &plan, &mut x)) }
        for (lane, out) in out.chunks_exact_mut(k).enumerate() {
            let r = self.take(&x, lane);
            out.fill(0);
            out[..r.limbs().len()].copy_from_slice(r.limbs());
        }
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

/// Read lane `lane` of the lane-interleaved `x` into `limbs`.
fn gather_lane(x: &[u64], lane: usize, limbs: &mut [u64]) {
    for (j, limb) in limbs.iter_mut().enumerate() {
        *limb = x[j * LANES + lane];
    }
}

/// Where a lane reads a slot's table: the powers its own chain builds
/// (`Built`), or the shared table of its one base (`Lent`).
#[derive(Clone, Copy, Debug)]
enum Source {
    Built,
    Lent(usize),
}

/// One rank of equal-exponent groups across the lanes: lane `i`'s
/// `j`-th smallest distinct exponent and the bases raised to it.
#[derive(Debug)]
struct Slot {
    /// The group product's factors, one step per multiply: step `s`
    /// holds each lane's `s`-th base, `None` (the factor 1) once a
    /// lane's group has run out.
    steps: Vec<[Option<usize>; LANES]>,
    /// How each lane with a group reads its table.
    source: [Source; LANES],
    /// Entries of the table the chain builds: `2^w − 1`, or 1 (the
    /// group product alone) when no lane needs more.
    built: usize,
}

/// The schedule of one lane group of [`LaneCtx::multi_pow_many`].
///
/// Each lane's terms are grouped by equal exponent, as
/// [`crate::MontCtx::multi_pow_into`] groups them, and the groups ranked
/// by exponent; rank `j` of every lane forms slot `j`. A slot's group
/// product is a run of lane multiplies on gathered bases, a shorter lane
/// padded by 1. Its exponents are cut into windows of one width `w` at
/// the fixed positions `0, w, 2w, …`, so every lane's digit sits at the
/// same bit and the lanes share one squaring chain; a window is
/// multiplied in where any lane's digit is non-zero, each lane reading
/// entry `digit` of its table (the factor 1 at digit 0). `w` minimises
/// table multiplies plus windows, at most the width of any table lent.
#[derive(Debug)]
struct Plan {
    slots: Vec<Slot>,
    /// `(low bit, slot, digit per lane)`, highest bit first.
    windows: Vec<(usize, usize, [usize; LANES])>,
}

impl Plan {
    fn new(bases: &LaneBases, products: &[&[LaneTerm<'_>]]) -> Plan {
        assert!(products.len() <= LANES, "at most {LANES} products");
        // Per lane, its (exponent, bases) groups in ascending exponent.
        let groups: Vec<Vec<(&BigUint, Vec<usize>)>> = products
            .iter()
            .map(|terms| {
                let mut terms: Vec<&LaneTerm> = terms.iter().filter(|t| !t.exp.is_zero()).collect();
                terms.sort_by(|a, b| a.exp.cmp(b.exp));
                terms
                    .chunk_by(|a, b| a.exp == b.exp)
                    .map(|run| (run[0].exp, run.iter().map(|t| t.base).collect()))
                    .collect()
            })
            .collect();
        let ranks = groups.iter().map(Vec::len).max().unwrap_or(0);
        let (mut slots, mut windows) = (Vec::with_capacity(ranks), Vec::new());
        for j in 0..ranks {
            let rank: Vec<Option<&(&BigUint, Vec<usize>)>> = (0..LANES)
                .map(|i| groups.get(i).and_then(|g| g.get(j)))
                .collect();
            let mut source = [Source::Built; LANES];
            let mut widest = MAX_WINDOW;
            for (i, group) in rank.iter().enumerate() {
                let lone = group.and_then(|(_, b)| if let [b] = b[..] { Some(b) } else { None });
                if let Some((w, at)) = lone.and_then(|b| bases.table_of[b]) {
                    source[i] = Source::Lent(at);
                    widest = widest.min(w);
                }
            }
            let builds = rank
                .iter()
                .zip(&source)
                .any(|(g, s)| g.is_some() && matches!(s, Source::Built));
            let exps: Vec<Option<&BigUint>> = rank.iter().map(|g| g.map(|(e, _)| *e)).collect();
            let bits = exps.iter().flatten().map(|e| e.bits()).max().unwrap_or(0);
            let digits = |w: u32, pos: usize| -> [usize; LANES] {
                from_fn(|i| exps[i].map_or(0, |e| digit(e, pos, w)))
            };
            let live = |w: u32| {
                (0..bits)
                    .step_by(w as usize)
                    .filter(move |&pos| digits(w, pos).iter().any(|&d| d != 0))
            };
            let table = |w: u32| if builds && w > 1 { (1 << w) - 2 } else { 0 };
            let w = (1..=widest)
                .min_by_key(|&w| table(w) + live(w).count())
                .expect("non-empty window range");
            windows.extend(live(w).map(|pos| (pos, j, digits(w, pos))));
            let len = rank
                .iter()
                .flatten()
                .map(|(_, b)| b.len())
                .max()
                .unwrap_or(0);
            slots.push(Slot {
                steps: (0..len)
                    .map(|s| from_fn(|i| rank[i].and_then(|(_, b)| b.get(s).copied())))
                    .collect(),
                source,
                built: if builds { (1 << w) - 1 } else { 1 },
            });
        }
        windows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        Plan { slots, windows }
    }
}

/// Bits `pos .. pos + w` of `e`.
fn digit(e: &BigUint, pos: usize, w: u32) -> usize {
    (pos..pos + w as usize)
        .rev()
        .fold(0, |d, b| d << 1 | e.bit(b) as usize)
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
    walk8::<L>(ctx, windows, |e| load(&table[e * size..]), &one, x);
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
    let size = L * LANES;
    walk8::<L>(ctx, windows, |e| load(&table[e * size..]), &ctx.leave, x);
}

/// `x ← x·(R²/R₆₄)·R⁻¹`: eight 64-bit Montgomery forms into the lane
/// form, in place.
#[target_feature(enable = "avx512f,avx512ifma")]
fn enter8<const L: usize>(ctx: &LaneCtx, x: &mut [u64]) {
    let (m, m_inv) = (splat::<L>(&ctx.m52), _mm512_set1_epi64(ctx.m_inv as i64));
    store(x, &amm(&load(x), &splat(&ctx.enter), &m, m_inv));
}

/// Entry `e ≥ 1` of the interleaved `table` ← entry 0 to the power
/// `e + 1`, lane by lane: `b, b², b³, …` in the lane form.
#[target_feature(enable = "avx512f,avx512ifma")]
fn powers8<const L: usize>(ctx: &LaneCtx, table: &mut [u64]) {
    let (m, m_inv) = (splat::<L>(&ctx.m52), _mm512_set1_epi64(ctx.m_inv as i64));
    let size = L * LANES;
    let base = load::<L>(table);
    let mut prev = base;
    for e in 1..table.len() / size {
        prev = if e == 1 {
            amm(&base, &base, &m, m_inv)
        } else {
            amm(&prev, &base, &m, m_inv)
        };
        store(&mut table[e * size..], &prev);
    }
}

/// One lane group of [`LaneCtx::multi_pow_many`] along `plan`: each
/// slot's group product and table, then the shared chain, leaving by a
/// multiply by `R₆₄`; `x` receives the products in 64-bit Montgomery
/// form, below `2m`.
#[target_feature(enable = "avx512f,avx512ifma")]
fn multi8<const L: usize>(ctx: &LaneCtx, bases: &LaneBases, plan: &Plan, x: &mut [u64]) {
    let (m, m_inv) = (splat::<L>(&ctx.m52), _mm512_set1_epi64(ctx.m_inv as i64));
    let size = L * LANES;
    let base = |b: Option<usize>| b.map_or(&ctx.one[..], |b| &bases.bases[b * L..(b + 1) * L]);
    let mut operand = vec![0u64; size];
    let mut tables = Vec::with_capacity(plan.slots.len());
    for slot in &plan.slots {
        let mut table = vec![0u64; slot.built * size];
        let mut steps = slot.steps.iter();
        let first = steps.next().map_or([None; LANES], |s| *s);
        gather(&mut operand, |lane| (base(first[lane]), 1));
        let mut acc = load::<L>(&operand);
        for step in steps {
            gather(&mut operand, |lane| (base(step[lane]), 1));
            acc = amm(&acc, &load(&operand), &m, m_inv);
        }
        store(&mut table, &acc);
        powers8::<L>(ctx, &mut table);
        tables.push(table);
    }
    let windows: Vec<(usize, usize)> = (0..plan.windows.len())
        .map(|i| (plan.windows[i].0, i))
        .collect();
    let entry = |i: usize| {
        let (_, j, digits) = &plan.windows[i];
        let (slot, table) = (&plan.slots[*j], &tables[*j]);
        gather(&mut operand, |lane| {
            match (digits[lane], slot.source[lane]) {
                (0, _) => (&ctx.one[..], 1),
                (d, Source::Built) => (&table[(d - 1) * size + lane..], LANES),
                (d, Source::Lent(at)) => (&bases.tables[at + (d - 1) * L..], 1),
            }
        });
        load(&operand)
    };
    walk8::<L>(ctx, &windows, entry, &ctx.leave, x);
}

/// Fill the lane-interleaved `x` lane by lane: limb `j` of lane `i` is
/// `src[j·stride]` for `(src, stride) = lane_src(i)`.
fn gather<'a>(x: &mut [u64], lane_src: impl Fn(usize) -> (&'a [u64], usize)) {
    for lane in 0..LANES {
        let (src, stride) = lane_src(lane);
        for (j, row) in x.chunks_exact_mut(LANES).enumerate() {
            row[lane] = src[j * stride];
        }
    }
}

/// The one chain of [`pow8`], [`fold8`] and [`multi8`]: walk `windows`
/// (`(low bit, operand)`, highest first) — start from the first
/// window's operand, or from 1 if there is none, square down to each
/// next window's bit and multiply its operand in, square down to bit 0
/// — then leave the domain by one multiply by `out`, into `x`. `entry`
/// produces an operand in the lane form below `2m`: a table entry every
/// lane shares, or one gathered lane by lane.
#[target_feature(enable = "avx512f,avx512ifma")]
fn walk8<const L: usize>(
    ctx: &LaneCtx,
    windows: &[(usize, usize)],
    mut entry: impl FnMut(usize) -> Vals<L>,
    out: &[u64],
    x: &mut [u64],
) {
    let (m, m_inv) = (splat::<L>(&ctx.m52), _mm512_set1_epi64(ctx.m_inv as i64));
    let (mut acc, mut pos, rest) = match windows.split_first() {
        Some((&(pos, first), rest)) => (entry(first), pos, rest),
        None => (splat(&ctx.one), 0, windows),
    };
    for &(next, id) in rest {
        for _ in next..pos {
            acc = amm(&acc, &acc, &m, m_inv);
        }
        pos = next;
        acc = amm(&acc, &entry(id), &m, m_inv);
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
