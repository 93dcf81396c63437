//! Montgomery multiplication and multi-exponentiation.
//!
//! Paillier is exponentiation modulo `n²`: encryption is dominated by
//! `r^n`, decryption by `c^(p−1)`, and every homomorphic dot product is
//! a product of powers `Π_t c_t^{e_t}`. All of them run through one
//! core, [`MontCtx::multi_pow_into`]: factors with equal exponents are
//! multiplied together first and raised once, the distinct exponents
//! that remain share a single squaring chain (interleaved sliding
//! windows), and the inner loops are the allocation-free
//! [`MontCtx::mont_mul_into`] / [`MontCtx::mont_sqr_into`].
//!
//! Those two come in two sets ([`KernelSet`]), picked once per modulus
//! by [`MontCtx::new`]: on x86_64 with BMI2 and ADX, a multiply and a
//! squaring built on one `mulx`/`adcx`/`adox` row `t += x·v` (an `asm!`
//! block), and everywhere else the portable `u128` bodies, which
//! [`MontCtx::with_slice_kernels`] keeps as the tests' reference.
//! Montgomery outputs are canonical, so both sets return the same limbs.
//!
//! Many bases raised to one exponent — the key owner's CRT halves —
//! take [`MontCtx::pow_many`]; many folds `Π_j s_j^(2^(j·shift))` of
//! one shift — a packed reply's slots laid end to end — take
//! [`MontCtx::fold_many`]; many products of powers over one set of
//! bases — the output rows of a `CtMat` contraction — take
//! [`MontCtx::multi_pow_many`]; and many independent products — fresh
//! ciphertexts, homomorphic sums — take [`MontCtx::mont_mul_many`].
//! `new` picks their path once per modulus: on x86_64 with AVX-512F and
//! IFMA, and a modulus of one of the [`LANE_WIDTHS`], eight chains (or
//! products) at a time in the lanes of one vector (`crate::ifma`); else
//! one [`MontCtx::pow`], [`MontCtx::fold`], [`MontCtx::multi_pow_into`]
//! or [`MontCtx::mont_mul_into`] at a time, which stay the reference.
//! The three chain calls take a whole batch of any size: each splits it
//! between lane groups and lone scalar chains by one rule and runs both
//! in one parallel section of `bf_util`'s pool, so no caller chooses a
//! path. The `asm!` row and the lane kernel are the crate's only
//! `unsafe`.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::ops::Range;

use bf_util::par::{workers, COARSE};
use bf_util::par_map_min;

use crate::BigUint;

/// Widest sliding window: tables hold at most `2^(MAX_WINDOW − 1)` odd
/// powers. Six is the optimum for the 1024-bit exponents of a 2048-bit
/// `n²`; wider only pays beyond ~2500-bit exponents.
pub(crate) const MAX_WINDOW: u32 = 6;

/// Operand widths up to this many limbs keep a kernel's double-width
/// intermediate on the stack (4096-bit `n²`, i.e. 2048-bit keys); wider
/// ones allocate.
const SQR_STACK_LIMBS: usize = 64;

/// Precomputed context for arithmetic modulo a fixed odd modulus.
#[derive(Clone, Debug)]
pub struct MontCtx {
    /// The modulus (odd, > 1).
    pub m: BigUint,
    /// Limb count of the modulus.
    k: usize,
    /// `-m^{-1} mod 2^64`.
    m_inv: u64,
    /// `R mod m` where `R = 2^{64k}` (the Montgomery form of 1).
    r1: Vec<u64>,
    /// `R^2 mod m`, used to convert into Montgomery form.
    r2: Vec<u64>,
    /// `R^3 mod m`: turns a reduced double-width value `t·R⁻¹` into
    /// the Montgomery form `t·R` with one multiply.
    r3: Vec<u64>,
    /// The multiply and square kernels, picked once in [`MontCtx::new`].
    kernels: Kernels,
    /// The eight-lane kernel of [`MontCtx::pow_many`],
    /// [`MontCtx::fold_many`], [`MontCtx::multi_pow_many`] and
    /// [`MontCtx::mont_mul_many`], if this CPU and this modulus have one;
    /// picked once in [`MontCtx::new`].
    lanes: Option<LaneCtx>,
}

/// How many chains or products the lane kernel runs at once: one per
/// 64-bit lane of a 512-bit vector. Callers of [`MontCtx::mont_mul_many`]
/// that split a batch between threads hand each a multiple of this.
pub const LANES: usize = 8;

/// How many of a call's `n` items the chain calls — [`MontCtx::pow_many`],
/// [`MontCtx::fold_many`], [`MontCtx::multi_pow_many`] — run in lane
/// groups when `threads` workers share its scalar items; the rest take
/// one scalar chain each. A group costs about one to one and a half
/// scalar chains whatever its live lanes, so the scalar path wins when
/// every item gets a worker of its own (`n ≤ threads`) and for a lone
/// item past the last full group of [`LANES`]; everything else rides the
/// lanes. Meaningful on [`PowMany::Lanes`] only.
///
/// Timed at a 1024-bit key on a 2-vCPU AMD EPYC VM with AVX-512 IFMA
/// (medians of 15, whole calls, scalar items split between the
/// threads; scalar / lanes):
///
/// | items, threads | fold (15 sources) | decryption (full width) | contraction (14 terms, `2^32`) |
/// |---|---|---|---|
/// | 1, 1 | 0.52 / 0.74 ms | 0.22 / 0.22 ms | 27 / 37 µs |
/// | 2, 1 | 1.03 / 0.75 | 0.44 / 0.22 | 53 / 37 |
/// | 2, 2 | 0.53 / 0.74 | 0.43 / 0.22 | 48 / 37 |
/// | 3, 2 | 1.06 / 0.98 | 0.44 / 0.22 | 55 / 38 |
/// | 8, 2 | 2.23 / 0.75 | 0.90 / 0.24 | 116 / 39 |
///
/// Two scalar decryptions at two threads read 0.22–0.32 ms in a later
/// probe of whole `SecretKey::decrypt` calls. An elementwise product
/// ([`MontCtx::mont_mul_many`]) is no chain: its callers hand each worker
/// a whole group, and it applies the rule at one thread — a 32-limb
/// product read 0.68 µs scalar against 0.76 µs for a lone lane, and two
/// 1.36–1.49 against 1.08–1.26 µs (eight: 5.4–6.0 against 1.46–1.85 µs). Past a full group the
/// tail decides: a `repack` of 9 sources an output read, at one thread,
/// 1.07–1.13 ms for 9 outputs as a group and a chain (1.23–1.25 as two
/// groups) and 1.25 ms for 10 as two groups (1.54 as a group and two
/// chains), and at two threads 0.64 ms for 10 as two groups (0.94 as a
/// group and two chains).
fn lane_items(n: usize, threads: usize) -> usize {
    if n <= threads {
        0
    } else if n % LANES == 1 {
        n - 1
    } else {
        n
    }
}

/// The moduli widths, in 52-bit limbs, the lane kernel serves: the
/// primes and squared primes of 512-, 1024- and 2048-bit keys. A modulus
/// of `b` bits is `⌈(b + 2)/52⌉` limbs wide (its kernel needs `4m <
/// 2^(52·limbs)`); other widths take [`PowMany::Scalar`].
pub const LANE_WIDTHS: [usize; 4] = [5, 10, 20, 40];

#[cfg(target_arch = "x86_64")]
use crate::ifma::LaneCtx;

/// No lane kernel off x86_64: the context cannot be built.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Debug)]
enum LaneCtx {}

#[cfg(not(target_arch = "x86_64"))]
impl LaneCtx {
    fn new(_: &BigUint) -> Option<Self> {
        None
    }

    fn pow_many(&self, _: &[BigUint], _: &BigUint) -> Vec<BigUint> {
        match *self {}
    }

    fn fold_many(&self, _: &[u64], _: usize, _: usize, _: usize) -> Vec<u64> {
        match *self {}
    }

    fn limbs(&self) -> usize {
        match *self {}
    }

    fn enter_bases(&self, _: &[&[u64]], _: &[(usize, u32)]) -> LaneBases {
        match *self {}
    }

    fn multi_pow_many(&self, _: &LaneBases, _: &[&[LaneTerm<'_>]], _: &mut [u64]) {
        match *self {}
    }

    fn mul_many(&self, _: &[&[u64]], _: &[&[u64]], _: &mut [u64]) {
        match *self {}
    }
}

/// Which chains [`MontCtx::pow_many`], [`MontCtx::fold_many`] and
/// [`MontCtx::multi_pow_many`] run, and which multiply
/// [`MontCtx::mont_mul_many`] does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PowMany {
    /// One [`MontCtx::pow`] per base, one [`MontCtx::fold`] per run,
    /// one [`MontCtx::multi_pow_into`] per product: every target and
    /// width, and the reference the lane kernel is tested against.
    Scalar,
    /// Eight bases, runs or products at a time in the lanes of AVX-512
    /// IFMA vectors (x86_64 with AVX-512F and IFMA, moduli of 5, 10, 20
    /// or 40 52-bit limbs).
    Lanes,
}

/// `(m, m_inv, a, b, out)`: `out = a·b·R⁻¹ mod m`, all `m.len()` limbs.
type MulFn = fn(&[u64], u64, &[u64], &[u64], &mut [u64]);
/// `(m, m_inv, a, out)`: `out = a²·R⁻¹ mod m`.
type SqrFn = fn(&[u64], u64, &[u64], &mut [u64]);

/// Which multiply and squaring a [`MontCtx`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelSet {
    /// The `u128` bodies: run on every target, and the reference the
    /// other set is tested against.
    Portable,
    /// Rows of `mulx`/`adcx`/`adox` (x86_64 with BMI2 and ADX).
    Adx,
}

/// One kernel set: its name and its two kernels.
#[derive(Clone, Copy, Debug)]
struct Kernels {
    set: KernelSet,
    mul: MulFn,
    sqr: SqrFn,
}

/// The kernels every target has: loop bounds are run-time values.
const PORTABLE: Kernels = Kernels {
    set: KernelSet::Portable,
    mul: mul_body,
    sqr: sqr_portable,
};

/// Sliding-window table of one Montgomery-form base: its odd powers
/// `b, b³, …, b^(2^w − 1)`, flat. Built by [`MontCtx::odd_powers`];
/// callers keep one when the same base meets several exponents.
#[derive(Debug)]
pub struct OddPowers {
    w: u32,
    limbs: Vec<u64>,
}

/// The bases of one [`MontCtx::multi_pow_many`] call in the lane
/// kernel's form, each stored once, with the window tables its products
/// share: what the lane groups gather their operands from.
#[derive(Debug)]
pub(crate) struct LaneBases {
    /// Limbs of the lane kernel's radix per value.
    pub(crate) l: usize,
    /// Base `i`'s lane form at `i·l`.
    pub(crate) bases: Vec<u64>,
    /// Base `i`'s table, if it has one, as its width `w` and the offset
    /// in `tables` of its powers `b^1 … b^(2^w − 1)`, `l` limbs each.
    pub(crate) table_of: Vec<Option<(u32, usize)>>,
    /// Every table's powers, each stored once.
    pub(crate) tables: Vec<u64>,
}

/// One factor `base^exp` of a [`MontCtx::multi_pow_many`] product.
#[derive(Clone, Copy, Debug)]
pub struct LaneTerm<'a> {
    /// The base's index in the call's `bases`.
    pub base: usize,
    /// The exponent (zero contributes the factor 1).
    pub exp: &'a BigUint,
}

/// One factor `base^exp` of a [`MontCtx::multi_pow_into`] product.
#[derive(Clone, Copy, Debug)]
pub struct PowTerm<'a> {
    /// The base, in Montgomery form.
    pub base: &'a [u64],
    /// The exponent (zero contributes the factor 1).
    pub exp: &'a BigUint,
    /// A prebuilt table of `base`, used when no other term shares this
    /// term's exponent (equal exponents are raised as one product).
    pub table: Option<&'a OddPowers>,
}

/// Sliding-window width for an exponent of `bits` bits, `ones` of them
/// set, whose table is built once and used by `uses` exponentiations:
/// minimises table multiplies plus `uses ×` window multiplies. Width 1
/// needs no table, so sparse exponents (`2^frac_bits`) never build one.
pub fn window_bits(bits: usize, ones: usize, uses: usize) -> u32 {
    (1..=MAX_WINDOW)
        .min_by_key(|&w| {
            let table = if w == 1 { 0 } else { 1usize << (w - 1) };
            table + uses * ones.min(bits.div_ceil(w as usize + 1))
        })
        .expect("non-empty window range")
}

/// Fixed-window width for a lane table of a base raised to `uses`
/// exponents of up to `bits` bits: minimises the table's `2^w − 2`
/// multiplies plus `uses × ⌈bits/w⌉` windows.
fn fixed_window_bits(bits: usize, uses: usize) -> u32 {
    (1..=MAX_WINDOW)
        .min_by_key(|&w| (1usize << w) - 2 + uses * bits.div_ceil(w as usize))
        .expect("non-empty window range")
}

/// Limb budget (32 MiB) for the window tables one
/// [`MontCtx::multi_pow_many`] call shares across its products; a call
/// that would need more builds them per product.
const SHARED_TABLE_LIMBS: usize = 1 << 22;

impl MontCtx {
    /// Build a context. Panics if `m` is even or < 3.
    ///
    /// Runs the [`KernelSet::Adx`] kernels when the CPU reports BMI2 and
    /// ADX, the [`KernelSet::Portable`] ones otherwise; and
    /// [`MontCtx::pow_many`] on [`PowMany::Lanes`] when the CPU reports
    /// AVX-512F and IFMA and the modulus has a lane kernel's width.
    pub fn new(m: &BigUint) -> Self {
        let mut ctx = Self::with_slice_kernels(m);
        #[cfg(target_arch = "x86_64")]
        if let Some(kernels) = adx::kernels() {
            ctx.kernels = kernels;
        }
        ctx.lanes = LaneCtx::new(m);
        ctx
    }

    /// [`MontCtx::new`] on the [`KernelSet::Portable`] kernels and the
    /// [`PowMany::Scalar`] path whatever the CPU: the reference the
    /// other kernels are tested against.
    pub fn with_slice_kernels(m: &BigUint) -> Self {
        assert!(!m.is_even() && m.bits() >= 2, "modulus must be odd and > 1");
        let k = m.limbs.len();
        let m_inv = inv64(m.limbs[0]).wrapping_neg();
        let r = BigUint::one().shl(64 * k);
        let r1 = pad(&r.rem(m), k);
        let r2 = r.mod_mul(&r, m);
        let r3 = pad(&r2.mod_mul(&r, m), k);
        let r2 = pad(&r2, k);
        Self {
            m: m.clone(),
            k,
            m_inv,
            r1,
            r2,
            r3,
            kernels: PORTABLE,
            lanes: None,
        }
    }

    /// The kernel set this context runs.
    pub fn kernel_set(&self) -> KernelSet {
        self.kernels.set
    }

    /// The path [`MontCtx::pow_many`], [`MontCtx::fold_many`] and
    /// [`MontCtx::multi_pow_many`] take.
    pub fn pow_many_path(&self) -> PowMany {
        match self.lanes {
            Some(_) => PowMany::Lanes,
            None => PowMany::Scalar,
        }
    }

    /// Convert to Montgomery form: `a*R mod m`. `a` must be `< m`.
    pub fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        debug_assert!(a < &self.m);
        self.mont_mul(&pad(a, self.k), &self.r2)
    }

    /// Convert out of Montgomery form.
    pub fn from_mont(&self, a: &[u64]) -> BigUint {
        let one = pad(&BigUint::one(), self.k);
        BigUint::from_limbs(self.mont_mul(a, &one))
    }

    /// Montgomery product `a*b*R^{-1} mod m` into `out`, with no
    /// allocation up to `SQR_STACK_LIMBS` limbs. The portable kernel is
    /// CIOS: the multiply and reduce passes of one operand limb fused
    /// into a single sweep with two carry chains, `out` itself the
    /// `k`-limb accumulator. The ADX kernel runs `k` product rows into a
    /// double-width intermediate, then the reduction as its own pass.
    pub fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        (self.kernels.mul)(&self.m.limbs[..self.k], self.m_inv, a, b, out)
    }

    /// Montgomery squaring `a*a*R^{-1} mod m` into `out`.
    ///
    /// Squares first — off-diagonal half products, doubled, plus the
    /// diagonal: `k(k+1)/2` limb multiplies instead of `k²` — then runs
    /// the `k²` reduction as its own pass over the double-width
    /// intermediate, which lives on the stack for every key size in use.
    /// Squarings are four fifths of an exponentiation.
    pub fn mont_sqr_into(&self, a: &[u64], out: &mut [u64]) {
        (self.kernels.sqr)(&self.m.limbs[..self.k], self.m_inv, a, out)
    }

    /// [`MontCtx::mont_mul_into`] returning a fresh vector.
    pub fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.k];
        self.mont_mul_into(a, b, &mut out);
        out
    }

    /// [`MontCtx::mont_sqr_into`] returning a fresh vector.
    pub fn mont_sqr(&self, a: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.k];
        self.mont_sqr_into(a, &mut out);
        out
    }

    /// True if the `k`-limb `a` is below `m` — every value this context
    /// produces is; limbs read off the wire need not be.
    pub fn is_reduced(&self, a: &[u64]) -> bool {
        cmp_limbs(a, &self.m.limbs[..self.k]) < 0
    }

    /// The Montgomery form of `t mod m`, into `out`, for a `t < m·R` of
    /// at most `2k` limbs (any value below `m²`): one Montgomery
    /// reduction, `t·R⁻¹`, and one multiply by `R³`. No allocation up
    /// to `SQR_STACK_LIMBS` limbs.
    pub fn reduce_wide_into(&self, t: &[u64], out: &mut [u64]) {
        let k = self.k;
        assert!(t.len() <= 2 * k && out.len() == k);
        let (mut stack, mut heap) = ([0u64; 3 * SQR_STACK_LIMBS], Vec::new());
        let (wide, reduced) = scratch(&mut stack, &mut heap, 3 * k).split_at_mut(2 * k);
        wide[..t.len()].copy_from_slice(t);
        redc_body(addmul, &self.m.limbs[..k], self.m_inv, wide, reduced);
        self.mont_mul_into(reduced, &self.r3, out);
    }

    /// [`MontCtx::reduce_wide_into`] of every value of `ts`, `k` limbs
    /// each into `out`, byte for byte: the reductions one at a time,
    /// the multiplies by `R³` one [`MontCtx::mont_mul_many`].
    pub fn reduce_wide_many(&self, ts: &[&[u64]], out: &mut [u64]) {
        let k = self.k;
        assert_eq!(out.len(), ts.len() * k);
        let mut reduced = vec![0u64; ts.len() * k];
        let mut wide = vec![0u64; 2 * k];
        for (t, r) in ts.iter().zip(reduced.chunks_exact_mut(k)) {
            assert!(t.len() <= 2 * k);
            wide.fill(0);
            wide[..t.len()].copy_from_slice(t);
            redc_body(addmul, &self.m.limbs[..k], self.m_inv, &mut wide, r);
        }
        let reduced: Vec<&[u64]> = reduced.chunks_exact(k).collect();
        let r3 = vec![&self.r3[..]; ts.len()];
        self.mont_mul_many(&reduced, &r3, out);
    }

    /// `out = (x + a·b) mod m` for `x < m` and `a·b < m`: a schoolbook
    /// product accumulated onto `x` and one conditional subtraction,
    /// with no allocation up to `SQR_STACK_LIMBS` limbs. `x` is `k` limbs;
    /// `a` and `b` are at most `k + 1` limbs between them.
    pub fn add_product_into(&self, x: &[u64], a: &[u64], b: &[u64], out: &mut [u64]) {
        let k = self.k;
        assert!(x.len() == k && out.len() == k && a.len() + b.len() <= k + 1);
        // x + a·b < 2m fits k + 1 limbs, and so does every partial sum.
        let (mut stack, mut heap) = ([0u64; SQR_STACK_LIMBS + 1], Vec::new());
        let acc = scratch(&mut stack, &mut heap, k + 1);
        acc[..k].copy_from_slice(x);
        for (i, &bi) in b.iter().enumerate() {
            let mut carry = addmul(&mut acc[i..i + a.len()], bi, a);
            for limb in &mut acc[i + a.len()..] {
                if carry == 0 {
                    break;
                }
                let (sum, c) = limb.overflowing_add(carry);
                (*limb, carry) = (sum, c as u64);
            }
            debug_assert_eq!(carry, 0, "x + a·b overflows k + 1 limbs");
        }
        out.copy_from_slice(&acc[..k]);
        if acc[k] != 0 || cmp_limbs(out, &self.m.limbs[..k]) >= 0 {
            sub_limbs(out, &self.m.limbs[..k]);
        }
    }

    /// Modular multiplication of reduced operands (`a, b < m`).
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// The Montgomery form of 1 (`R mod m`).
    pub fn one_mont(&self) -> Vec<u64> {
        self.r1.clone()
    }

    /// Limb width of operands in this context.
    pub fn limb_count(&self) -> usize {
        self.k
    }

    /// The width-`w` sliding-window table of `base` (Montgomery form):
    /// one squaring and `2^(w−1) − 1` multiplies; none for `w = 1`.
    pub fn odd_powers(&self, base: &[u64], w: u32) -> OddPowers {
        assert!((1..=MAX_WINDOW).contains(&w), "window width out of range");
        let k = self.k;
        let mut limbs = vec![0u64; k << (w - 1)];
        limbs[..k].copy_from_slice(base);
        if w > 1 {
            let mut sq = vec![0u64; k];
            self.mont_sqr_into(base, &mut sq);
            for i in 1..1 << (w - 1) {
                let (done, rest) = limbs.split_at_mut(i * k);
                self.mont_mul_into(&done[(i - 1) * k..], &sq, &mut rest[..k]);
            }
        }
        OddPowers { w, limbs }
    }

    /// `Π_t base_t^{exp_t}` in the Montgomery domain, into `out`; the
    /// empty product is 1.
    ///
    /// Terms with equal exponents are multiplied together and raised
    /// once; the distinct exponents then share one squaring chain, each
    /// recoded into sliding windows over its own table (Möller's
    /// interleaved exponentiation). A one-hot row — every exponent the
    /// same single bit — costs `terms − 1` multiplies plus `bits`
    /// squarings and builds no table.
    pub fn multi_pow_into(&self, terms: &[PowTerm<'_>], out: &mut [u64]) {
        let k = self.k;
        assert_eq!(out.len(), k);
        let mut order: Vec<usize> = (0..terms.len())
            .filter(|&t| !terms[t].exp.is_zero())
            .collect();
        order.sort_unstable_by(|&a, &b| terms[a].exp.cmp(terms[b].exp));
        let mut tmp = vec![0u64; k];

        // Groups of equal exponents, as (first term, product slot): a
        // group of several terms multiplies its bases into `prods`.
        let mut groups: Vec<(usize, Option<usize>)> = Vec::new();
        let mut prods: Vec<u64> = Vec::new();
        for run in order.chunk_by(|&a, &b| terms[a].exp == terms[b].exp) {
            let slot = (run.len() > 1).then(|| {
                let at = prods.len();
                prods.extend_from_slice(terms[run[0]].base);
                for &t in &run[1..] {
                    self.mont_mul_into(&prods[at..], terms[t].base, &mut tmp);
                    prods[at..].copy_from_slice(&tmp);
                }
                at
            });
            groups.push((run[0], slot));
        }

        // One table per group: the caller's (a lone term only), one
        // built here, or — at width 1 — the bare base.
        let base_of = |&(t, slot): &(usize, Option<usize>)| match slot {
            Some(at) => &prods[at..at + k],
            None => terms[t].base,
        };
        let lent = |&(t, slot): &(usize, Option<usize>)| terms[t].table.filter(|_| slot.is_none());
        let built: Vec<Option<OddPowers>> = groups
            .iter()
            .map(|g| {
                let exp = terms[g.0].exp;
                let w = window_bits(exp.bits(), exp.count_ones(), 1);
                (w > 1 && lent(g).is_none()).then(|| self.odd_powers(base_of(g), w))
            })
            .collect();
        let tables: Vec<(&[u64], u32)> = groups
            .iter()
            .zip(&built)
            .map(|(g, b)| match b.as_ref().or(lent(g)) {
                Some(p) => (&p.limbs[..], p.w),
                None => (base_of(g), 1),
            })
            .collect();

        // Every group's windows as (low bit, group, table entry), walked
        // from the highest position down along one squaring chain.
        let mut windows: Vec<(usize, usize, usize)> = Vec::new();
        for (g, (&(t, _), &(_, w))) in groups.iter().zip(&tables).enumerate() {
            sliding_windows(terms[t].exp, w, |pos, entry| windows.push((pos, g, entry)));
        }
        windows.sort_unstable_by(|a, b| b.cmp(a));
        let Some(&(mut pos, g, entry)) = windows.first() else {
            out.copy_from_slice(&self.r1);
            return;
        };
        let entry_of = |g: usize, entry: usize| &tables[g].0[entry * k..(entry + 1) * k];
        let mut acc = entry_of(g, entry).to_vec();
        for &(next, g, entry) in &windows[1..] {
            self.square_n(&mut acc, &mut tmp, pos - next);
            pos = next;
            self.mont_mul_into(&acc, entry_of(g, entry), &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        self.square_n(&mut acc, &mut tmp, pos);
        out.copy_from_slice(&acc);
    }

    /// `acc ← acc^(2^n)`, ping-ponging with `spare`.
    fn square_n(&self, acc: &mut Vec<u64>, spare: &mut Vec<u64>, n: usize) {
        for _ in 0..n {
            self.mont_sqr_into(acc, spare);
            std::mem::swap(acc, spare);
        }
    }

    /// Exponentiation entirely in the Montgomery domain: given
    /// `base_mont = aR mod m`, returns `a^exp · R mod m` — a
    /// [`MontCtx::multi_pow_into`] of one term.
    pub fn pow_mont(&self, base_mont: &[u64], exp: &BigUint) -> Vec<u64> {
        let mut out = vec![0u64; self.k];
        let term = PowTerm {
            base: base_mont,
            exp,
            table: None,
        };
        self.multi_pow_into(&[term], &mut out);
        out
    }

    /// [`MontCtx::multi_pow_into`] of every product of `products` over
    /// `bases` (`k`-limb Montgomery forms), `k` limbs each into `out`, in
    /// order and byte for byte. A base that several terms raise to
    /// exponents worth a table gets one window table for the whole call,
    /// in the radix of the path its products run on, unless the call's
    /// tables would pass a 32 MiB budget.
    ///
    /// On [`PowMany::Lanes`] the products, longest first, go eight to a
    /// lane group over the bases entered into the lane form once (a base
    /// not below `m` counting as its residue): each product's terms are
    /// grouped by equal exponent and a group's bases multiplied together,
    /// as `multi_pow_into` does, and the windows sit at fixed bit
    /// positions, so the lanes share one squaring chain while each reads
    /// its own table entry. A call of no more products than worker
    /// threads, and a lone product past the last full group, run one
    /// `multi_pow_into` each, with the shared tables only when they run
    /// the whole call; groups and lone products share one parallel
    /// section.
    pub fn multi_pow_many(&self, bases: &[&[u64]], products: &[&[LaneTerm<'_>]], out: &mut [u64]) {
        let k = self.k;
        assert_eq!(out.len(), products.len() * k);
        let on_lanes = self.on_lanes(products.len());
        let lanes = self.lanes.as_ref().filter(|_| on_lanes > 0);

        // Per base: how many terms raise it to an exponent that wants a
        // table, and the widest such exponent (bits, set bits).
        let mut meets = vec![(0usize, 0usize, 0usize); bases.len()];
        for t in products.iter().copied().flatten() {
            let (bits, ones) = (t.exp.bits(), t.exp.count_ones());
            if window_bits(bits, ones, 1) > 1 {
                let m = &mut meets[t.base];
                *m = (m.0 + 1, m.1.max(bits), m.2.max(ones));
            }
        }
        // A lane table holds every power below 2^w in the lane radix, a
        // scalar one the odd powers.
        let mut shared: Vec<(usize, u32)> = (0..bases.len())
            .filter(|&b| meets[b].0 > 1)
            .map(|b| match (lanes, meets[b]) {
                (Some(_), (uses, bits, _)) => (b, fixed_window_bits(bits, uses)),
                (None, (uses, bits, ones)) => (b, window_bits(bits, ones, uses)),
            })
            .collect();
        let table_limbs = |w: u32| match lanes {
            Some(lanes) => lanes.limbs() * ((1 << w) - 1),
            None => k << (w - 1),
        };
        if shared.iter().map(|&(_, w)| table_limbs(w)).sum::<usize>() > SHARED_TABLE_LIMBS {
            shared.clear();
        }

        // The lanes take the longest products first, the scalar chains
        // the rest.
        let mut order: Vec<usize> = (0..products.len()).collect();
        let entered = lanes.map(|lanes| {
            order.sort_by_key(|&i| Reverse(products[i].len()));
            let reduced: Vec<Cow<[u64]>> = bases.iter().map(|b| self.reduced(b)).collect();
            let reduced: Vec<&[u64]> = reduced.iter().map(|b| &b[..]).collect();
            lanes.enter_bases(&reduced, &shared)
        });
        let tables = match entered {
            Some(_) => Vec::new(),
            None => par_map_min(COARSE, shared.len(), |s| {
                self.odd_powers(bases[shared[s].0], shared[s].1)
            }),
        };
        let table = |b: usize| {
            let s = shared.binary_search_by_key(&b, |s| s.0).ok()?;
            tables.get(s)
        };
        let got = self.chains(
            on_lanes,
            products.len(),
            |lanes, group| {
                let group: Vec<&[LaneTerm]> = order[group].iter().map(|&i| products[i]).collect();
                let entered = entered.as_ref().expect("lane groups run on entered bases");
                let mut out = vec![0u64; group.len() * k];
                lanes.multi_pow_many(entered, &group, &mut out);
                out
            },
            |j| {
                let terms: Vec<PowTerm> = products[order[j]]
                    .iter()
                    .map(|t| PowTerm {
                        base: bases[t.base],
                        exp: t.exp,
                        table: table(t.base),
                    })
                    .collect();
                let mut out = vec![0u64; k];
                self.multi_pow_into(&terms, &mut out);
                out
            },
        );
        for (&i, product) in order.iter().zip(got.chunks_exact(k)) {
            out[i * k..][..k].copy_from_slice(product);
        }
    }

    /// [`MontCtx::mont_mul_into`] of every pair `(a_i, b_i)` of `k`-limb
    /// values, the products `k` limbs each into `out`, byte for byte. On
    /// [`PowMany::Lanes`] the pairs go [`LANES`] to one lane multiply, a
    /// lone pair past the last full group excepted (the chain calls' rule
    /// at one thread, and no parallel section: callers hand each worker a
    /// group); that pair, and a group with an operand not below `m`
    /// (limbs off the wire), take the scalar kernel.
    pub fn mont_mul_many(&self, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]) {
        let k = self.k;
        assert!(a.len() == b.len() && out.len() == a.len() * k);
        let scalar = |a: &[&[u64]], b: &[&[u64]], out: &mut [u64]| {
            for ((a, b), out) in a.iter().zip(b).zip(out.chunks_exact_mut(k)) {
                self.mont_mul_into(a, b, out);
            }
        };
        let on_lanes = self.lanes.as_ref().map_or(0, |_| lane_items(a.len(), 1));
        let (grouped, rest) = out.split_at_mut(on_lanes * k);
        for (g, out) in grouped.chunks_mut(LANES * k).enumerate() {
            let span = g * LANES..g * LANES + out.len() / k;
            let (a, b) = (&a[span.clone()], &b[span]);
            match &self.lanes {
                Some(lanes) if a.iter().chain(b).all(|v| self.is_reduced(v)) => {
                    lanes.mul_many(a, b, out)
                }
                _ => scalar(a, b, out),
            }
        }
        scalar(&a[on_lanes..], &b[on_lanes..], rest);
    }

    /// Modular exponentiation `base^exp mod m`.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.from_mont(&self.pow_mont(&self.to_mont(&base.rem(&self.m)), exp))
    }

    /// [`MontCtx::pow`] of every base to one exponent: `b^exp mod m` for
    /// each `b` of `bases`, in order. On [`PowMany::Lanes`] eight bases
    /// share one recoding, one squaring chain and one table index, each
    /// in its own lane, split from the lone scalar chains as
    /// [`MontCtx::multi_pow_many`] splits its products.
    pub fn pow_many(&self, bases: &[BigUint], exp: &BigUint) -> Vec<BigUint> {
        self.chains(
            self.on_lanes(bases.len()),
            bases.len(),
            |lanes, group| lanes.pow_many(&bases[group], exp),
            |i| vec![self.pow(&bases[i], exp)],
        )
    }

    /// `Π_j s_j^(2^(j·shift))` over the `k`-limb Montgomery-form
    /// values `s_0, s_1, …` of the flat slab `run`, in Montgomery form
    /// and canonical: Horner from the top value down, `shift` squarings
    /// and one multiply per value below it, on the row kernels. A value
    /// not below `m` counts as its residue; the empty run gives 1. The
    /// scalar path of [`MontCtx::fold_many`].
    pub fn fold(&self, run: &[u64], shift: usize) -> Vec<u64> {
        let k = self.k;
        let run = self.reduced(run);
        let mut values = run.chunks_exact(k).rev();
        let Some(top) = values.next() else {
            return self.one_mont();
        };
        let (mut acc, mut tmp) = (top.to_vec(), vec![0u64; k]);
        for value in values {
            self.square_n(&mut acc, &mut tmp, shift);
            self.mont_mul_into(&acc, value, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        acc
    }

    /// [`MontCtx::fold`] of every run of `fold` consecutive values of
    /// the flat slab `sources` (the last run may be shorter), the folds
    /// laid end to end. On [`PowMany::Lanes`] eight runs share one chain,
    /// each in its own lane, split from the lone scalar chains as
    /// [`MontCtx::multi_pow_many`] splits its products. Panics if `fold`
    /// is zero.
    pub fn fold_many(&self, sources: &[u64], fold: usize, shift: usize) -> Vec<u64> {
        assert!(fold > 0, "a fold of no sources");
        let (k, sources) = (self.k, self.reduced(sources));
        let runs: Vec<&[u64]> = sources.chunks(fold * k).collect();
        self.chains(
            self.on_lanes(runs.len()),
            runs.len(),
            |lanes, group| {
                let slab = group.start * fold * k..(group.end * fold * k).min(sources.len());
                lanes.fold_many(&sources[slab], k, fold, shift)
            },
            |i| self.fold(runs[i], shift),
        )
    }

    /// How many of a call's `n` chains run in lane groups: [`lane_items`]
    /// at the calling thread's worker count on [`PowMany::Lanes`], none on
    /// [`PowMany::Scalar`].
    fn on_lanes(&self, n: usize) -> usize {
        self.lanes.as_ref().map_or(0, |_| lane_items(n, workers()))
    }

    /// `n` chains in one parallel section: the first `on_lanes` of them
    /// [`LANES`] to a `group(lanes, items)`, the rest one `single(item)`
    /// each; their outputs laid end to end in item order.
    fn chains<T: Send>(
        &self,
        on_lanes: usize,
        n: usize,
        group: impl Fn(&LaneCtx, Range<usize>) -> Vec<T> + Sync,
        single: impl Fn(usize) -> Vec<T> + Sync,
    ) -> Vec<T> {
        let groups = on_lanes.div_ceil(LANES);
        let outs = par_map_min(COARSE, groups + n - on_lanes, |i| match &self.lanes {
            Some(lanes) if i < groups => group(lanes, i * LANES..on_lanes.min((i + 1) * LANES)),
            _ => single(on_lanes + i - groups),
        });
        outs.into_iter().flatten().collect()
    }

    /// The flat slab of `k`-limb values `vals`, each below `m`: borrowed
    /// when every value already is (everything this context produces).
    fn reduced<'a>(&self, vals: &'a [u64]) -> Cow<'a, [u64]> {
        let k = self.k;
        assert_eq!(vals.len() % k, 0, "a slab of {k}-limb values");
        if vals.chunks_exact(k).all(|v| self.is_reduced(v)) {
            return vals.into();
        }
        let residue = |v: &[u64]| pad(&BigUint::from_limbs(v.to_vec()).rem(&self.m), k);
        vals.chunks_exact(k)
            .flat_map(residue)
            .collect::<Vec<_>>()
            .into()
    }

    /// Invert every `k`-limb Montgomery-form value of the flat slab
    /// `vals` in place with one modular inversion (Montgomery's trick
    /// on `mont_mul` prefix products: `3(n − 1)` multiplies). The one
    /// inversion is [`crate::mod_inv`]'s binary GCD, ≈ 17.5 µs mod a
    /// 2048-bit `m` (module docs of [`crate::modular`]), so at that width
    /// the multiplies cost more than it from about nine values up.
    /// Panics if a value is not a unit.
    pub fn batch_inv_mont(&self, vals: &mut [u64]) {
        let k = self.k;
        assert_eq!(vals.len() % k, 0);
        let n = vals.len() / k;
        if n == 0 {
            return;
        }
        // prefix[i] = v_0 · … · v_i
        let mut prefix = vals.to_vec();
        for i in 1..n {
            let (done, rest) = prefix.split_at_mut(i * k);
            self.mont_mul_into(
                &done[(i - 1) * k..],
                &vals[i * k..(i + 1) * k],
                &mut rest[..k],
            );
        }
        let total = self.from_mont(&prefix[(n - 1) * k..]);
        let inv = crate::mod_inv(&total, &self.m).expect("batch_inv_mont: non-invertible element");
        // acc = (v_0 · … · v_i)^{-1}, peeled from the top down.
        let mut acc = self.to_mont(&inv);
        let mut tmp = vec![0u64; k];
        for i in (1..n).rev() {
            let v = &mut vals[i * k..(i + 1) * k];
            self.mont_mul_into(&acc, v, &mut tmp);
            self.mont_mul_into(&acc, &prefix[(i - 1) * k..i * k], v);
            std::mem::swap(&mut acc, &mut tmp);
        }
        vals[..k].copy_from_slice(&acc);
    }
}

/// `x·y + add + carry` as `(low, high)` limbs. `add` meets the product
/// first, so a loop that threads `carry` through waits two additions
/// per step, not three.
#[inline(always)]
fn mac(x: u64, y: u64, add: u64, carry: u64) -> (u64, u64) {
    let p = x as u128 * y as u128;
    let (lo, c) = (p as u64).overflowing_add(add);
    let hi = (p >> 64) as u64 + c as u64;
    let s = ((hi as u128) << 64 | lo as u128) + carry as u128;
    (s as u64, (s >> 64) as u64)
}

/// The portable row: `t += x·v` over equal-length limbs, four to a
/// step; returns the carry out of the top limb.
#[inline(always)]
pub(crate) fn addmul(t: &mut [u64], x: u64, v: &[u64]) -> u64 {
    assert_eq!(t.len(), v.len());
    let mut carry = 0;
    let mut tq = t.chunks_exact_mut(4);
    let mut vq = v.chunks_exact(4);
    for (tq, vq) in (&mut tq).zip(&mut vq) {
        (tq[0], carry) = mac(x, vq[0], tq[0], carry);
        (tq[1], carry) = mac(x, vq[1], tq[1], carry);
        (tq[2], carry) = mac(x, vq[2], tq[2], carry);
        (tq[3], carry) = mac(x, vq[3], tq[3], carry);
    }
    for (tj, &vj) in tq.into_remainder().iter_mut().zip(vq.remainder()) {
        (*tj, carry) = mac(x, vj, *tj, carry);
    }
    carry
}

/// The portable multiply (see [`MontCtx::mont_mul_into`]): fused CIOS.
fn mul_body(m: &[u64], m_inv: u64, a: &[u64], b: &[u64], out: &mut [u64]) {
    let k = m.len();
    assert!(a.len() == k && b.len() == k && out.len() == k);
    out.fill(0);
    let mut top = 0u64;
    for &ai in a {
        // Column 0 fixes u = t[0]·m' mod 2^64 and clears to zero.
        let (s, mut c1) = mac(ai, b[0], out[0], 0);
        let u = s.wrapping_mul(m_inv);
        let (_, mut c2) = mac(u, m[0], s, 0);
        for j in 1..k {
            let s;
            (s, c1) = mac(ai, b[j], out[j], c1);
            (out[j - 1], c2) = mac(u, m[j], s, c2);
        }
        let s = top as u128 + c1 as u128 + c2 as u128;
        out[k - 1] = s as u64;
        top = (s >> 64) as u64;
    }
    if top != 0 || cmp_limbs(out, m) >= 0 {
        sub_limbs(out, m);
    }
}

/// The squaring (see [`MontCtx::mont_sqr_into`]) on the row `row`
/// (`t += x·v`, carry out); `t` is the zeroed double-width intermediate.
#[inline(always)]
fn sqr_body(
    row: impl Fn(&mut [u64], u64, &[u64]) -> u64,
    m: &[u64],
    m_inv: u64,
    a: &[u64],
    out: &mut [u64],
    t: &mut [u64],
) {
    let k = m.len();
    assert!(a.len() == k && out.len() == k && t.len() == 2 * k);
    // Off-diagonal products a[i]·a[j], i < j: row i lands on limbs
    // 2i+1 .. i+k, and its carry on the still-untouched limb i+k.
    for i in 0..k.saturating_sub(1) {
        t[i + k] = row(&mut t[2 * i + 1..i + k], a[i], &a[i + 1..]);
    }
    // Double, and add the diagonal a[i]², two limbs at a time.
    let (mut shift, mut carry) = (0u64, 0u64);
    for (pair, &ai) in t.chunks_exact_mut(2).zip(a) {
        let (lo, hi) = (pair[0], pair[1]);
        let sq = ai as u128 * ai as u128;
        let s = ((lo << 1) | shift) as u128 + (sq as u64) as u128 + carry as u128;
        pair[0] = s as u64;
        let s = ((hi << 1) | (lo >> 63)) as u128 + (sq >> 64) + (s >> 64);
        pair[1] = s as u64;
        shift = hi >> 63;
        carry = (s >> 64) as u64;
    }
    debug_assert_eq!((shift, carry), (0, 0));
    redc_body(row, m, m_inv, t, out)
}

/// Montgomery reduction of the double-width `t < m·R` (clobbered) on the
/// row `row`: `out = t·R⁻¹ mod m`.
#[inline(always)]
fn redc_body(
    row: impl Fn(&mut [u64], u64, &[u64]) -> u64,
    m: &[u64],
    m_inv: u64,
    t: &mut [u64],
    out: &mut [u64],
) {
    let k = m.len();
    debug_assert!(t.len() == 2 * k && out.len() == k);
    // Clear one low limb per row (t += u·m << 64i); `top` carries the
    // overflow of limb i+k into the next row.
    let mut top = 0u64;
    for i in 0..k {
        let u = t[i].wrapping_mul(m_inv);
        let carry = row(&mut t[i..i + k], u, m);
        let s = t[i + k] as u128 + carry as u128 + top as u128;
        t[i + k] = s as u64;
        top = (s >> 64) as u64;
    }
    out.copy_from_slice(&t[k..]);
    if top != 0 || cmp_limbs(out, m) >= 0 {
        sub_limbs(out, m);
    }
}

/// The portable squaring: [`sqr_body`] on [`addmul`].
fn sqr_portable(m: &[u64], m_inv: u64, a: &[u64], out: &mut [u64]) {
    with_wide(m.len(), |t| sqr_body(addmul, m, m_inv, a, out, t))
}

/// `f` on a zeroed double-width (`2k`-limb) intermediate: on the stack
/// up to [`SQR_STACK_LIMBS`], allocated past that.
#[inline(always)]
fn with_wide(k: usize, f: impl FnOnce(&mut [u64])) {
    let (mut stack, mut heap) = ([0u64; 2 * SQR_STACK_LIMBS], Vec::new());
    f(scratch(&mut stack, &mut heap, 2 * k))
}

/// `len` zeroed limbs: the front of `stack` when it is long enough,
/// else `heap`, grown — per-call scratch that allocates only past the
/// widths a caller sized `stack` for.
pub fn scratch<'a>(stack: &'a mut [u64], heap: &'a mut Vec<u64>, len: usize) -> &'a mut [u64] {
    if len <= stack.len() {
        &mut stack[..len]
    } else {
        heap.resize(len, 0);
        heap
    }
}

/// The [`KernelSet::Adx`] kernels: the multiply (`k` product rows, then
/// [`redc_body`]) and the squaring ([`sqr_body`]) on one row, `t += x·v`
/// as a `mulx` per limb feeding two independent carry chains — `adox`
/// adds the previous limb's high half to this limb's low half, `adcx`
/// adds that to `t` — where the portable [`mac`] threads one carry
/// through two additions.
#[cfg(target_arch = "x86_64")]
mod adx {
    use super::{redc_body, sqr_body, with_wide, KernelSet, Kernels};
    use std::arch::asm;

    /// The set, if this CPU runs `mulx` (BMI2) and `adcx`/`adox` (ADX).
    /// The only way to reach [`row`] outside the tests below.
    pub(super) fn kernels() -> Option<Kernels> {
        let ok = std::is_x86_feature_detected!("bmi2") && std::is_x86_feature_detected!("adx");
        ok.then_some(Kernels {
            set: KernelSet::Adx,
            mul,
            sqr,
        })
    }

    fn mul(m: &[u64], m_inv: u64, a: &[u64], b: &[u64], out: &mut [u64]) {
        let k = m.len();
        assert!(a.len() == k && b.len() == k && out.len() == k);
        with_wide(k, |t| {
            // Row i lands on limbs i .. i+k−1 and its carry on the
            // still-untouched limb i+k.
            for (i, &ai) in a.iter().enumerate() {
                t[i + k] = row(&mut t[i..i + k], ai, b);
            }
            redc_body(row, m, m_inv, t, out)
        })
    }

    fn sqr(m: &[u64], m_inv: u64, a: &[u64], out: &mut [u64]) {
        with_wide(m.len(), |t| sqr_body(row, m, m_inv, a, out, t))
    }

    /// `t += x·v` over equal-length limbs, four to a step and then the
    /// `len mod 4` tail; returns the carry out of the top limb. Only
    /// called once [`kernels`] has seen BMI2 and ADX. Both loops start on
    /// a 64-byte boundary, so a change elsewhere in the crate that moves
    /// this code does not move their fetch alignment with it.
    fn row(t: &mut [u64], x: u64, v: &[u64]) -> u64 {
        assert_eq!(t.len(), v.len());
        let n = t.len();
        let carry: u64;
        // SAFETY: the loop reads `v[..n]` and reads and writes `t[..n]`,
        // both `n` limbs long (asserted above) and distinct (`&mut`
        // against `&`), advancing each pointer by 8 bytes per limb for
        // `4·(n / 4) + n mod 4 = n` limbs. It touches no other memory and
        // no stack, writes only the declared registers and the flags
        // (not declared preserved), and runs `mulx`/`adcx`/`adox` only
        // on a CPU that reported BMI2 and ADX: `row` is private to this
        // module and reached through the kernels `kernels()` returns
        // after detection. `lea`, `mov` and `jrcxz` leave CF and OF
        // alone, so the two carry chains survive the loop control; so do
        // the `nop`s the assembler pads each `.p2align 6` with.
        unsafe {
            asm!(
                // hi = 0, CF = OF = 0.
                "xor {hi:e}, {hi:e}",
                ".p2align 6",
                "2:",
                "jrcxz 3f",
                "mulx {h2}, {lo}, qword ptr [{v}]",
                "adox {lo}, {hi}",
                "adcx {lo}, qword ptr [{t}]",
                "mov qword ptr [{t}], {lo}",
                "mulx {hi}, {lo}, qword ptr [{v} + 8]",
                "adox {lo}, {h2}",
                "adcx {lo}, qword ptr [{t} + 8]",
                "mov qword ptr [{t} + 8], {lo}",
                "mulx {h2}, {lo}, qword ptr [{v} + 16]",
                "adox {lo}, {hi}",
                "adcx {lo}, qword ptr [{t} + 16]",
                "mov qword ptr [{t} + 16], {lo}",
                "mulx {hi}, {lo}, qword ptr [{v} + 24]",
                "adox {lo}, {h2}",
                "adcx {lo}, qword ptr [{t} + 24]",
                "mov qword ptr [{t} + 24], {lo}",
                "lea {t}, [{t} + 32]",
                "lea {v}, [{v} + 32]",
                "lea rcx, [rcx - 1]",
                "jmp 2b",
                // The n mod 4 tail, one limb a step.
                "3:",
                "mov rcx, {tail}",
                ".p2align 6",
                "4:",
                "jrcxz 5f",
                "mulx {h2}, {lo}, qword ptr [{v}]",
                "adox {lo}, {hi}",
                "adcx {lo}, qword ptr [{t}]",
                "mov qword ptr [{t}], {lo}",
                "mov {hi}, {h2}",
                "lea {t}, [{t} + 8]",
                "lea {v}, [{v} + 8]",
                "lea rcx, [rcx - 1]",
                "jmp 4b",
                // Carry out = last high half + CF + OF (t + x·v fits
                // n + 1 limbs, so this cannot overflow).
                "5:",
                "mov {lo:e}, 0",
                "adcx {hi}, {lo}",
                "adox {hi}, {lo}",
                t = inout(reg) t.as_mut_ptr() => _,
                v = inout(reg) v.as_ptr() => _,
                tail = in(reg) n % 4,
                hi = out(reg) carry,
                h2 = out(reg) _,
                lo = out(reg) _,
                inout("rcx") n / 4 => _,
                in("rdx") x,
                options(nostack),
            );
        }
        carry
    }

    #[cfg(test)]
    mod tests {
        use super::super::addmul;
        use super::*;

        #[test]
        fn the_row_equals_the_portable_row_at_every_length() {
            if kernels().is_none() {
                return;
            }
            let mut s = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for n in 0..=70 {
                let random = |next: &mut dyn FnMut() -> u64| (0..n).map(|_| next()).collect();
                let cases: [(Vec<u64>, u64, Vec<u64>); 4] = [
                    (random(&mut next), next(), random(&mut next)),
                    (vec![u64::MAX; n], u64::MAX, vec![u64::MAX; n]),
                    (vec![u64::MAX; n], next(), random(&mut next)),
                    (random(&mut next), u64::MAX, vec![u64::MAX; n]),
                ];
                for (t, x, v) in cases {
                    let (mut got, mut want) = (t.clone(), t);
                    let carry = row(&mut got, x, &v);
                    assert_eq!(carry, addmul(&mut want, x, &v), "carry, {n} limbs");
                    assert_eq!(got, want, "{n} limbs");
                }
                // All ones everywhere saturates the carry out.
                let mut t = vec![u64::MAX; n];
                let carry = row(&mut t, u64::MAX, &vec![u64::MAX; n]);
                assert_eq!(carry, if n == 0 { 0 } else { u64::MAX }, "{n} limbs");
            }
        }
    }
}

/// Recode `e` into sliding windows of at most `w` bits, highest first:
/// `emit(pos, entry)` for the odd digit `2·entry + 1` whose lowest bit
/// sits at bit `pos`.
pub(crate) fn sliding_windows(e: &BigUint, w: u32, mut emit: impl FnMut(usize, usize)) {
    let mut i = e.bits();
    while i > 0 {
        if !e.bit(i - 1) {
            i -= 1;
            continue;
        }
        let mut lo = i.saturating_sub(w as usize);
        while !e.bit(lo) {
            lo += 1;
        }
        let digit = (lo..i)
            .rev()
            .fold(0usize, |d, b| d << 1 | e.bit(b) as usize);
        emit(lo, digit >> 1);
        i = lo;
    }
}

/// Inverse of an odd u64 modulo 2^64 (Newton iteration).
pub(crate) fn inv64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct mod 2^3
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

fn pad(a: &BigUint, k: usize) -> Vec<u64> {
    let mut v = a.limbs.clone();
    v.resize(k, 0);
    v
}

pub(crate) fn cmp_limbs(a: &[u64], b: &[u64]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return if a[i] > b[i] { 1 } else { -1 };
        }
    }
    0
}

/// `a -= b` on equal-width limbs; a final borrow is dropped (it cancels
/// the caller's overflow limb).
pub(crate) fn sub_limbs(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (ai, &bi) in a.iter_mut().zip(b) {
        let (d1, b1) = ai.overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *ai = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_pow(base: u64, exp: u64, m: u64) -> u64 {
        let mut acc: u128 = 1;
        let mut b: u128 = base as u128 % m as u128;
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * b % m as u128;
            }
            b = b * b % m as u128;
            e >>= 1;
        }
        acc as u64
    }

    #[test]
    fn mont_mul_single_limb() {
        let m = BigUint::from_u64(0xffff_ffff_ffff_ffc5); // prime
        let ctx = MontCtx::new(&m);
        let a = BigUint::from_u64(0x1234_5678_9abc_def1);
        let b = BigUint::from_u64(0xfeed_face_cafe_beef);
        let want = a.mod_mul(&b, &m);
        assert_eq!(ctx.mul(&a, &b), want);
    }

    #[test]
    fn mont_mul_multi_limb() {
        // m = a large odd number spanning several limbs.
        let mut m = BigUint::from_u64(0xdead_beef);
        for i in 0..6u64 {
            m = m.shl(64).add_u64(0x1111_2222_3333_4444 ^ i);
        }
        m = if m.is_even() { m.add_u64(1) } else { m };
        let ctx = MontCtx::new(&m);
        let a = m.shr(3).add_u64(12345);
        let b = m.shr(5).add_u64(999);
        assert_eq!(ctx.mul(&a, &b), a.mod_mul(&b, &m));
    }

    #[test]
    fn pow_matches_naive_u64() {
        let m = BigUint::from_u64(1_000_000_007);
        let ctx = MontCtx::new(&m);
        for (b, e) in [(2u64, 10u64), (3, 100), (12345, 67890), (999999, 1)] {
            let got = ctx.pow(&BigUint::from_u64(b), &BigUint::from_u64(e));
            assert_eq!(got.low_u64(), naive_pow(b, e, 1_000_000_007));
        }
    }

    #[test]
    fn pow_edge_cases() {
        let m = BigUint::from_u64(97);
        let ctx = MontCtx::new(&m);
        assert_eq!(
            ctx.pow(&BigUint::from_u64(5), &BigUint::zero()).low_u64(),
            1
        );
        assert_eq!(
            ctx.pow(&BigUint::zero(), &BigUint::from_u64(5)).low_u64(),
            0
        );
        assert_eq!(
            ctx.pow(&BigUint::from_u64(96), &BigUint::from_u64(2))
                .low_u64(),
            1
        );
    }

    #[test]
    fn fermat_little_theorem_multi_limb() {
        // p = 2^127 - 1 (Mersenne prime), a^(p-1) = 1 mod p.
        let p = BigUint::one().shl(127).sub_u64(1);
        let ctx = MontCtx::new(&p);
        let a = BigUint::from_u64(0xabcdef0123456789);
        let e = p.sub_u64(1);
        assert!(ctx.pow(&a, &e).is_one());
    }

    #[test]
    fn pow_large_exponent_consistency() {
        // (a^e1)^e2 == a^(e1*e2) mod m
        let mut m = BigUint::from_u64(7);
        for _ in 0..4 {
            m = m.shl(64).add_u64(0x0123_4567_89ab_cdef);
        }
        let m = m.add_u64(if m.is_even() { 1 } else { 0 });
        let ctx = MontCtx::new(&m);
        let a = BigUint::from_u64(31337);
        let e1 = BigUint::from_u64(65537);
        let e2 = BigUint::from_u64(101);
        let lhs = ctx.pow(&ctx.pow(&a, &e1), &e2);
        let rhs = ctx.pow(&a, &e1.mul(&e2));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pow_mont_matches_pow() {
        let m = BigUint::one().shl(127).sub_u64(1);
        let ctx = MontCtx::new(&m);
        let a = BigUint::from_u64(123456789);
        let e = BigUint::from_u64(987654);
        let am = ctx.to_mont(&a);
        let got = ctx.from_mont(&ctx.pow_mont(&am, &e));
        assert_eq!(got, ctx.pow(&a, &e));
        // Zero exponent gives 1.
        assert_eq!(
            ctx.from_mont(&ctx.pow_mont(&am, &BigUint::zero()))
                .low_u64(),
            1
        );
    }

    #[test]
    fn mont_sqr_matches_mont_mul() {
        // Several widths, 2 to 40 limbs.
        for limbs in [1usize, 5, 15, 39] {
            let mut m = BigUint::from_u64(0xdead_beef);
            for i in 0..limbs as u64 {
                m = m.shl(64).add_u64(0x9e37_79b9_7f4a_7c15 ^ (i * 31));
            }
            let m = if m.is_even() { m.add_u64(1) } else { m };
            let ctx = MontCtx::new(&m);
            let mut a = ctx.to_mont(&m.shr(7).add_u64(12345));
            for _ in 0..4 {
                assert_eq!(ctx.mont_sqr(&a), ctx.mont_mul(&a, &a));
                a = ctx.mont_sqr(&a);
            }
            // Edge operands: zero and R (the Montgomery form of 1).
            let zero = vec![0u64; ctx.limb_count()];
            assert_eq!(ctx.mont_sqr(&zero), ctx.mont_mul(&zero, &zero));
            let one = ctx.one_mont();
            assert_eq!(ctx.mont_sqr(&one), ctx.mont_mul(&one, &one));
        }
    }

    #[test]
    fn inv64_works() {
        for x in [1u64, 3, 5, 0xffff_ffff_ffff_ffff, 0x1234_5679] {
            assert_eq!(x.wrapping_mul(inv64(x)), 1);
        }
    }
}
