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

use crate::BigUint;

/// Widest sliding window: tables hold at most `2^(MAX_WINDOW − 1)` odd
/// powers. Six is the optimum for the 1024-bit exponents of a 2048-bit
/// `n²`; wider only pays beyond ~2500-bit exponents.
const MAX_WINDOW: u32 = 6;

/// Operand widths up to this many limbs square through a stack buffer
/// (4096-bit `n²`, i.e. 2048-bit keys); wider ones allocate.
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
    /// The multiply and square kernels for this width, picked once in
    /// [`MontCtx::new`].
    kernels: Kernels,
}

/// `(m, m_inv, a, b, out)`: `out = a·b·R⁻¹ mod m`, all `m.len()` limbs.
type MulFn = fn(&[u64], u64, &[u64], &[u64], &mut [u64]);
/// `(m, m_inv, a, out)`: `out = a²·R⁻¹ mod m`.
type SqrFn = fn(&[u64], u64, &[u64], &mut [u64]);
type Kernels = (MulFn, SqrFn);

/// The kernels at any width: loop bounds are run-time values.
const SLICE_KERNELS: Kernels = (mul_body, sqr_slice);

/// The one width the kernel bodies are also compiled for exactly: a
/// CRT half `p²` of a 1024-bit key (a 512-bit key's `n²` is 16 limbs
/// too). Known trip counts are worth a tenth of a multiply or a squaring
/// there, and an eighth of `mlr_wide`'s throughput end to end. At the 32
/// limbs of a 1024-bit key's `n²` an instance measured 0.90× on
/// multiplies and 0.97× on squarings, and nothing past the run-to-run
/// spread end to end, so `n²` keeps the slice kernels; 8 limbs (a
/// 512-bit key's `p²`) is run by no measured workload, so it has none.
const FIXED_LIMBS: usize = 16;

/// Sliding-window table of one Montgomery-form base: its odd powers
/// `b, b³, …, b^(2^w − 1)`, flat. Built by [`MontCtx::odd_powers`];
/// callers keep one when the same base meets several exponents.
#[derive(Debug)]
pub struct OddPowers {
    w: u32,
    limbs: Vec<u64>,
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

impl MontCtx {
    /// Build a context. Panics if `m` is even or < 3.
    pub fn new(m: &BigUint) -> Self {
        let mut ctx = Self::with_slice_kernels(m);
        if ctx.k == FIXED_LIMBS {
            ctx.kernels = (mul_fixed::<FIXED_LIMBS>, sqr_fixed::<FIXED_LIMBS>);
        }
        ctx
    }

    /// [`MontCtx::new`] on the width-generic kernels whatever the width
    /// of `m`: the reference the fixed-width instance is tested
    /// against.
    pub fn with_slice_kernels(m: &BigUint) -> Self {
        assert!(!m.is_even() && m.bits() >= 2, "modulus must be odd and > 1");
        let k = m.limbs.len();
        let m_inv = inv64(m.limbs[0]).wrapping_neg();
        let r = BigUint::one().shl(64 * k);
        let r1 = pad(&r.rem(m), k);
        let r2 = pad(&r.mod_mul(&r, m), k);
        Self {
            m: m.clone(),
            k,
            m_inv,
            r1,
            r2,
            kernels: SLICE_KERNELS,
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

    /// CIOS Montgomery product `a*b*R^{-1} mod m` into `out`, with no
    /// allocation. The multiply and reduce passes of one operand limb
    /// are fused into a single sweep with two carry chains, so the
    /// running sum is loaded and stored once per limb, and `out` itself
    /// is the `k`-limb accumulator.
    pub fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        (self.kernels.0)(&self.m.limbs[..self.k], self.m_inv, a, b, out)
    }

    /// Montgomery squaring `a*a*R^{-1} mod m` into `out`.
    ///
    /// Squares first — off-diagonal half products, doubled, plus the
    /// diagonal: `k(k+1)/2` limb multiplies instead of `k²` — then runs
    /// the `k²` reduction as its own pass over the double-width
    /// intermediate, which lives on the stack for every key size in use.
    /// Squarings are four fifths of an exponentiation.
    pub fn mont_sqr_into(&self, a: &[u64], out: &mut [u64]) {
        (self.kernels.1)(&self.m.limbs[..self.k], self.m_inv, a, out)
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

    /// Modular exponentiation `base^exp mod m`.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.from_mont(&self.pow_mont(&self.to_mont(&base.rem(&self.m)), exp))
    }

    /// Invert every `k`-limb Montgomery-form value of the flat slab
    /// `vals` in place with one modular inversion (Montgomery's trick
    /// on `mont_mul` prefix products: `3(n − 1)` multiplies). Panics if
    /// a value is not a unit.
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

/// `t += x·v` over equal-length limbs, four to a step; returns the carry
/// out of the top limb.
#[inline(always)]
fn addmul(t: &mut [u64], x: u64, v: &[u64]) -> u64 {
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

/// The one multiply body (see [`MontCtx::mont_mul_into`]). Inlined into
/// [`mul_fixed`], where every length is a constant; called as it is for
/// every other width.
#[inline(always)]
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

/// The one squaring body (see [`MontCtx::mont_sqr_into`]); `t` is the
/// zeroed double-width intermediate.
#[inline(always)]
fn sqr_body(m: &[u64], m_inv: u64, a: &[u64], out: &mut [u64], t: &mut [u64]) {
    let k = m.len();
    assert!(a.len() == k && out.len() == k && t.len() == 2 * k);
    // Off-diagonal products a[i]·a[j], i < j: row i lands on limbs
    // 2i+1 .. i+k, and its carry on the still-untouched limb i+k.
    for i in 0..k.saturating_sub(1) {
        t[i + k] = addmul(&mut t[2 * i + 1..i + k], a[i], &a[i + 1..]);
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
    // Reduce: clear one low limb per row (t += u·m << 64i); `top`
    // carries the overflow of limb i+k into the next row.
    let mut top = 0u64;
    for i in 0..k {
        let u = t[i].wrapping_mul(m_inv);
        let carry = addmul(&mut t[i..i + k], u, m);
        let s = t[i + k] as u128 + carry as u128 + top as u128;
        t[i + k] = s as u64;
        top = (s >> 64) as u64;
    }
    out.copy_from_slice(&t[k..]);
    if top != 0 || cmp_limbs(out, m) >= 0 {
        sub_limbs(out, m);
    }
}

/// [`sqr_body`] at any width: the intermediate lives on the stack up to
/// [`SQR_STACK_LIMBS`] and is allocated past that.
fn sqr_slice(m: &[u64], m_inv: u64, a: &[u64], out: &mut [u64]) {
    let k = m.len();
    let mut stack = [0u64; 2 * SQR_STACK_LIMBS];
    let mut heap = Vec::new();
    let t: &mut [u64] = if k <= SQR_STACK_LIMBS {
        &mut stack[..2 * k]
    } else {
        heap.resize(2 * k, 0);
        &mut heap
    };
    sqr_body(m, m_inv, a, out, t)
}

/// What a `K`-limb kernel says to an operand of another width — the
/// slice kernels' length assert.
const WIDTH: &str = "operand width is the modulus's";

/// [`mul_body`] compiled for `K` limbs.
fn mul_fixed<const K: usize>(m: &[u64], m_inv: u64, a: &[u64], b: &[u64], out: &mut [u64]) {
    let (m, a, b): (&[u64; K], &[u64; K], &[u64; K]) = (
        m.try_into().expect(WIDTH),
        a.try_into().expect(WIDTH),
        b.try_into().expect(WIDTH),
    );
    let out: &mut [u64; K] = out.try_into().expect(WIDTH);
    mul_body(m, m_inv, a, b, out)
}

/// [`sqr_body`] compiled for `K` limbs, its intermediate `2K` on the
/// stack.
fn sqr_fixed<const K: usize>(m: &[u64], m_inv: u64, a: &[u64], out: &mut [u64]) {
    let (m, a): (&[u64; K], &[u64; K]) = (m.try_into().expect(WIDTH), a.try_into().expect(WIDTH));
    let out: &mut [u64; K] = out.try_into().expect(WIDTH);
    let mut t = [[0u64; K]; 2];
    sqr_body(m, m_inv, a, out, t.as_flattened_mut())
}

/// Recode `e` into sliding windows of at most `w` bits, highest first:
/// `emit(pos, entry)` for the odd digit `2·entry + 1` whose lowest bit
/// sits at bit `pos`.
fn sliding_windows(e: &BigUint, w: u32, mut emit: impl FnMut(usize, usize)) {
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
fn inv64(x: u64) -> u64 {
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

fn cmp_limbs(a: &[u64], b: &[u64]) -> i32 {
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
fn sub_limbs(a: &mut [u64], b: &[u64]) {
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
        // Several widths, including one past the Karatsuba threshold so
        // the squaring pass exercises both product kernels.
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
