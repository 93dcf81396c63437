//! Neural-network layers with explicit forward/backward passes.

use bf_tensor::{CatBlock, Dense, Features};
use rand::Rng;

use crate::optim::Sgd;

/// A linear layer over [`Features`] input (the *source* position in the
/// paper's architecture — this is what the federated MatMul layer
/// replaces). Does not propagate a gradient to its input.
///
/// Gradients are materialised only on the batch's feature support and
/// updated with lazy (support-sparse) momentum — the exact update rule
/// of the federated MatMul source layer, so federated and collocated
/// training are numerically comparable (see DESIGN.md §3).
#[derive(Clone, Debug)]
pub struct LinearF {
    /// Weights (`in × out`).
    pub w: Dense,
    vel_w: Dense,
    grad_rows: Dense,
    grad_support: Vec<usize>,
    cached_x: Option<Features>,
}

impl LinearF {
    /// Xavier-initialised layer.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, input: usize, output: usize) -> Self {
        let w = bf_tensor::init::xavier(rng, input, output);
        Self {
            vel_w: Dense::zeros(input, output),
            grad_rows: Dense::zeros(0, output),
            grad_support: Vec::new(),
            w,
            cached_x: None,
        }
    }

    /// Wrap an existing weight matrix (used by tests and by the
    /// split-learning baseline to control initialisation).
    pub fn from_weights(w: Dense) -> Self {
        let (r, c) = w.shape();
        Self {
            vel_w: Dense::zeros(r, c),
            grad_rows: Dense::zeros(0, c),
            grad_support: Vec::new(),
            w,
            cached_x: None,
        }
    }

    /// `Z = X·W`.
    pub fn forward(&mut self, x: &Features) -> Dense {
        let z = x.matmul(&self.w);
        self.cached_x = Some(x.clone());
        z
    }

    /// Inference-only forward (no cache).
    pub fn infer(&self, x: &Features) -> Dense {
        x.matmul(&self.w)
    }

    /// Compute `∇W = Xᵀ∇Z` restricted to the batch support.
    pub fn backward(&mut self, grad_z: &Dense) {
        let x = self.cached_x.take().expect("backward before forward");
        let support = x.col_support();
        self.grad_rows = x.t_matmul_support(grad_z, &support);
        self.grad_support = support.into_iter().map(|c| c as usize).collect();
    }

    /// Optimizer step (lazy momentum on the support rows).
    pub fn step(&mut self, opt: &Sgd) {
        opt.step_sparse_rows(
            &mut self.w,
            &self.grad_rows,
            &mut self.vel_w,
            &self.grad_support,
        );
    }

    /// Most recent gradient rows and their support (inspection/tests).
    pub fn last_grad(&self) -> (&Dense, &[usize]) {
        (&self.grad_rows, &self.grad_support)
    }
}

/// A linear layer over dense input, with bias.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weights (`in × out`).
    pub w: Dense,
    /// Bias (`1 × out`).
    pub b: Dense,
    grad_w: Dense,
    grad_b: Dense,
    vel_w: Dense,
    vel_b: Dense,
    cached_x: Option<Dense>,
}

impl Linear {
    /// Xavier-initialised layer with zero bias.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, input: usize, output: usize) -> Self {
        let w = bf_tensor::init::xavier(rng, input, output);
        Self {
            grad_w: Dense::zeros(input, output),
            vel_w: Dense::zeros(input, output),
            w,
            b: Dense::zeros(1, output),
            grad_b: Dense::zeros(1, output),
            vel_b: Dense::zeros(1, output),
            cached_x: None,
        }
    }

    /// `Z = X·W + b`.
    pub fn forward(&mut self, x: &Dense) -> Dense {
        let mut z = x.matmul(&self.w);
        for r in 0..z.rows() {
            let row = z.row_mut(r);
            for (v, &bias) in row.iter_mut().zip(self.b.row(0)) {
                *v += bias;
            }
        }
        self.cached_x = Some(x.clone());
        z
    }

    /// Inference-only forward.
    pub fn infer(&self, x: &Dense) -> Dense {
        let mut z = x.matmul(&self.w);
        for r in 0..z.rows() {
            let row = z.row_mut(r);
            for (v, &bias) in row.iter_mut().zip(self.b.row(0)) {
                *v += bias;
            }
        }
        z
    }

    /// Backward: stores `∇W`, `∇b`; returns `∇X = ∇Z·Wᵀ`.
    pub fn backward(&mut self, grad_z: &Dense) -> Dense {
        let x = self.cached_x.take().expect("backward before forward");
        self.grad_w = x.t_matmul(grad_z);
        let mut gb = Dense::zeros(1, grad_z.cols());
        for r in 0..grad_z.rows() {
            for (j, &g) in grad_z.row(r).iter().enumerate() {
                let cur = gb.get(0, j);
                gb.set(0, j, cur + g);
            }
        }
        self.grad_b = gb;
        grad_z.matmul_t(&self.w)
    }

    /// Optimizer step on weights and bias.
    pub fn step(&mut self, opt: &Sgd) {
        opt.step(&mut self.w, &self.grad_w, &mut self.vel_w);
        opt.step(&mut self.b, &self.grad_b, &mut self.vel_b);
    }
}

/// A standalone bias layer (`1 × out`, broadcast over rows). In the
/// BlindFL architecture the bias term belongs to the *top model* — the
/// federated source layer computes a pure matmul — so the bias is a
/// separate layer here too.
#[derive(Clone, Debug)]
pub struct Bias {
    /// The bias row.
    pub b: Dense,
    grad: Dense,
    vel: Dense,
}

impl Bias {
    /// Zero-initialised bias of the given width.
    pub fn new(out: usize) -> Self {
        Self {
            b: Dense::zeros(1, out),
            grad: Dense::zeros(1, out),
            vel: Dense::zeros(1, out),
        }
    }

    /// Rebuild a bias from persisted state (bias row + momentum
    /// buffer; shapes must match — asserted).
    pub fn from_state(b: Dense, vel: Dense) -> Self {
        assert_eq!(b.shape(), vel.shape(), "bias velocity shape mismatch");
        assert_eq!(b.rows(), 1, "bias must be a row vector");
        let grad = Dense::zeros(1, b.cols());
        Self { b, grad, vel }
    }

    /// The persisted state `[b, vel]`: the bias row and its momentum
    /// buffer (the gradient is transient).
    pub fn state(&self) -> [&Dense; 2] {
        [&self.b, &self.vel]
    }

    /// `Z + b` (broadcast).
    pub fn forward(&mut self, z: &Dense) -> Dense {
        self.infer(z)
    }

    /// Inference-only forward.
    pub fn infer(&self, z: &Dense) -> Dense {
        let mut out = z.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (v, &bias) in row.iter_mut().zip(self.b.row(0)) {
                *v += bias;
            }
        }
        out
    }

    /// Backward: `∇b = Σ_rows ∇Z`; the input gradient is `∇Z` itself.
    pub fn backward(&mut self, grad_z: &Dense) {
        let mut gb = Dense::zeros(1, grad_z.cols());
        for r in 0..grad_z.rows() {
            for (j, &g) in grad_z.row(r).iter().enumerate() {
                let cur = gb.get(0, j);
                gb.set(0, j, cur + g);
            }
        }
        self.grad = gb;
    }

    /// Optimizer step.
    pub fn step(&mut self, opt: &Sgd) {
        opt.step(&mut self.b, &self.grad, &mut self.vel);
    }
}

/// Pointwise activation kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActKind {
    Relu,
    Sigmoid,
    Tanh,
}

/// A pointwise activation layer.
#[derive(Clone, Debug)]
pub struct Activation {
    /// Which nonlinearity.
    pub kind: ActKind,
    cached_y: Option<Dense>,
}

impl Activation {
    /// Construct.
    pub fn new(kind: ActKind) -> Self {
        Self {
            kind,
            cached_y: None,
        }
    }

    fn apply(&self, x: &Dense) -> Dense {
        match self.kind {
            ActKind::Relu => x.map(|v| v.max(0.0)),
            ActKind::Sigmoid => x.map(sigmoid),
            ActKind::Tanh => x.map(f64::tanh),
        }
    }

    /// Forward (caches output for the backward pass).
    pub fn forward(&mut self, x: &Dense) -> Dense {
        let y = self.apply(x);
        self.cached_y = Some(y.clone());
        y
    }

    /// Inference-only forward.
    pub fn infer(&self, x: &Dense) -> Dense {
        self.apply(x)
    }

    /// Backward through the nonlinearity.
    pub fn backward(&mut self, grad_y: &Dense) -> Dense {
        let y = self.cached_y.take().expect("backward before forward");
        let dydx = match self.kind {
            ActKind::Relu => y.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
            ActKind::Sigmoid => y.map(|v| v * (1.0 - v)),
            ActKind::Tanh => y.map(|v| 1.0 - v * v),
        };
        grad_y.hadamard(&dydx)
    }
}

/// Numerically-stable logistic function.
pub fn sigmoid(v: f64) -> f64 {
    if v >= 0.0 {
        1.0 / (1.0 + (-v).exp())
    } else {
        let e = v.exp();
        e / (1.0 + e)
    }
}

/// An embedding layer over categorical inputs (shared table across
/// fields, as in WDL/DLRM). Output is `rows × fields·dim`.
#[derive(Clone, Debug)]
pub struct Embedding {
    /// Table (`vocab × dim`).
    pub table: Dense,
    dim: usize,
    grad_rows: Dense,
    grad_support: Vec<usize>,
    vel: Dense,
    cached_x: Option<CatBlock>,
}

impl Embedding {
    /// Uniform-initialised table.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, vocab: usize, dim: usize) -> Self {
        let table = bf_tensor::init::uniform(rng, vocab, dim, 0.05);
        Self {
            grad_rows: Dense::zeros(0, dim),
            grad_support: Vec::new(),
            vel: Dense::zeros(vocab, dim),
            table,
            dim,
            cached_x: None,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `E = lkup(Q, X)`.
    pub fn forward(&mut self, x: &CatBlock) -> Dense {
        let e = self.lookup(x);
        self.cached_x = Some(x.clone());
        e
    }

    /// Inference-only lookup.
    pub fn infer(&self, x: &CatBlock) -> Dense {
        self.lookup(x)
    }

    fn lookup(&self, x: &CatBlock) -> Dense {
        let mut e = Dense::zeros(x.rows(), x.fields() * self.dim);
        for r in 0..x.rows() {
            for (f, &g) in x.row(r).iter().enumerate() {
                let dst = &mut e.row_mut(r)[f * self.dim..(f + 1) * self.dim];
                dst.copy_from_slice(self.table.row(g as usize));
            }
        }
        e
    }

    /// `∇Q = lkup_bw(∇E, X)` (scatter-add), materialised only on the
    /// batch's embedding-row support.
    pub fn backward(&mut self, grad_e: &Dense) {
        let x = self.cached_x.take().expect("backward before forward");
        let support = x.support();
        let mut g = Dense::zeros(support.len(), self.dim);
        for r in 0..x.rows() {
            for (f, &idx) in x.row(r).iter().enumerate() {
                let s = support.binary_search(&idx).expect("index in support");
                let src = &grad_e.row(r)[f * self.dim..(f + 1) * self.dim];
                let dst = g.row_mut(s);
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d += v;
                }
            }
        }
        self.grad_rows = g;
        self.grad_support = support.into_iter().map(|c| c as usize).collect();
    }

    /// Optimizer step (lazy momentum on touched embedding rows).
    pub fn step(&mut self, opt: &Sgd) {
        opt.step_sparse_rows(
            &mut self.table,
            &self.grad_rows,
            &mut self.vel,
            &self.grad_support,
        );
    }

    /// Most recent gradient rows and their support (inspection/tests).
    pub fn last_grad(&self) -> (&Dense, &[usize]) {
        (&self.grad_rows, &self.grad_support)
    }
}

/// A stack of `Linear → ReLU` blocks with a final `Linear` (no terminal
/// activation) — the generic hidden tower used by MLP, WDL and DLRM.
#[derive(Clone, Debug)]
pub struct Mlp {
    blocks: Vec<(Linear, Option<Activation>)>,
}

impl Mlp {
    /// Build a tower with the given layer widths, e.g.
    /// `Mlp::new(rng, &[64, 32, 16, 1])` is three Linear layers with
    /// ReLU between them.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, widths: &[usize]) -> Self {
        assert!(
            widths.len() >= 2,
            "Mlp needs at least input and output widths"
        );
        let mut blocks = Vec::new();
        for i in 0..widths.len() - 1 {
            let lin = Linear::new(rng, widths[i], widths[i + 1]);
            let act = if i + 2 < widths.len() {
                Some(Activation::new(ActKind::Relu))
            } else {
                None
            };
            blocks.push((lin, act));
        }
        Self { blocks }
    }

    /// The persisted state: every layer's `[w, b, vel_w, vel_b]`, in
    /// order (gradients and input caches are transient; the ReLUs are
    /// [`Mlp::new`]'s, after every layer but the last).
    pub fn state(&self) -> impl Iterator<Item = &Dense> {
        self.blocks
            .iter()
            .flat_map(|(lin, _)| [&lin.w, &lin.b, &lin.vel_w, &lin.vel_b])
    }

    /// Rebuild a tower from persisted layers, each `[w, b, vel_w,
    /// vel_b]` in order, with [`Mlp::new`]'s ReLUs. The caller checks
    /// the shapes: every velocity matches its tensor, every bias is
    /// `1 × out` and consecutive layers chain.
    pub fn from_state(layers: Vec<[Dense; 4]>) -> Self {
        let depth = layers.len();
        let blocks = layers
            .into_iter()
            .enumerate()
            .map(|(i, [w, b, vel_w, vel_b])| {
                let lin = Linear {
                    grad_w: Dense::zeros(w.rows(), w.cols()),
                    grad_b: Dense::zeros(1, b.cols()),
                    w,
                    b,
                    vel_w,
                    vel_b,
                    cached_x: None,
                };
                (lin, (i + 1 < depth).then(|| Activation::new(ActKind::Relu)))
            })
            .collect();
        Self { blocks }
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Dense) -> Dense {
        let mut h = x.clone();
        for (lin, act) in &mut self.blocks {
            h = lin.forward(&h);
            if let Some(a) = act {
                h = a.forward(&h);
            }
        }
        h
    }

    /// Inference-only forward.
    pub fn infer(&self, x: &Dense) -> Dense {
        let mut h = x.clone();
        for (lin, act) in &self.blocks {
            h = lin.infer(&h);
            if let Some(a) = act {
                h = a.infer(&h);
            }
        }
        h
    }

    /// Backward pass; returns the gradient w.r.t. the input.
    pub fn backward(&mut self, grad_out: &Dense) -> Dense {
        let mut g = grad_out.clone();
        for (lin, act) in self.blocks.iter_mut().rev() {
            if let Some(a) = act {
                g = a.backward(&g);
            }
            g = lin.backward(&g);
        }
        g
    }

    /// Optimizer step on every layer.
    pub fn step(&mut self, opt: &Sgd) {
        for (lin, _) in &mut self.blocks {
            lin.step(opt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_forward_backward_shapes() {
        let mut r = rng();
        let mut lin = Linear::new(&mut r, 4, 3);
        let x = bf_tensor::init::uniform(&mut r, 5, 4, 1.0);
        let z = lin.forward(&x);
        assert_eq!(z.shape(), (5, 3));
        let dx = lin.backward(&bf_tensor::init::uniform(&mut r, 5, 3, 1.0));
        assert_eq!(dx.shape(), (5, 4));
    }

    #[test]
    fn linear_gradient_check() {
        // Finite-difference check of ∇W for f = sum(X·W + b).
        let mut r = rng();
        let mut lin = Linear::new(&mut r, 3, 2);
        let x = bf_tensor::init::uniform(&mut r, 4, 3, 1.0);
        let ones = Dense::from_vec(4, 2, vec![1.0; 8]);
        lin.forward(&x);
        lin.backward(&ones);
        let eps = 1e-6;
        for (i, j) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let orig = lin.w.get(i, j);
            lin.w.set(i, j, orig + eps);
            let fp: f64 = lin.infer(&x).data().iter().sum();
            lin.w.set(i, j, orig - eps);
            let fm: f64 = lin.infer(&x).data().iter().sum();
            lin.w.set(i, j, orig);
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - lin.grad_w.get(i, j)).abs() < 1e-5, "({i},{j})");
        }
    }

    #[test]
    fn relu_backward_masks() {
        let mut act = Activation::new(ActKind::Relu);
        let x = Dense::from_vec(1, 4, vec![-1.0, 2.0, -3.0, 4.0]);
        let y = act.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = act.backward(&Dense::from_vec(1, 4, vec![1.0; 4]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!((sigmoid(40.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-40.0) < 1e-12);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn embedding_lookup_and_scatter() {
        let mut r = rng();
        let mut emb = Embedding::new(&mut r, 5, 2);
        let x = CatBlock::from_local(2, &[3, 2], vec![1, 0, 2, 1]);
        let e = emb.forward(&x);
        assert_eq!(e.shape(), (2, 4));
        assert_eq!(e.row(0)[..2], *emb.table.row(1));
        assert_eq!(e.row(0)[2..], *emb.table.row(3));
        let g = Dense::from_vec(2, 4, vec![1.0; 8]);
        emb.backward(&g);
        // Support rows are {1,2,3,4}; untouched row 0 is absent.
        let (grad, support) = emb.last_grad();
        assert_eq!(support, &[1, 2, 3, 4]);
        assert_eq!(grad.row(0), &[1.0, 1.0]); // table row 1
        assert_eq!(grad.row(3), &[1.0, 1.0]); // table row 4
    }

    #[test]
    fn mlp_reduces_loss_on_toy_problem() {
        let mut r = rng();
        let mut mlp = Mlp::new(&mut r, &[2, 8, 1]);
        let opt = Sgd {
            lr: 0.1,
            momentum: 0.9,
        };
        // XOR-ish target.
        let x = Dense::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = [0.0, 1.0, 1.0, 0.0];
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..400 {
            let z = mlp.forward(&x);
            let (loss, grad) = crate::loss::bce_with_logits(&z, &y);
            first.get_or_insert(loss);
            last = loss;
            mlp.backward(&grad);
            mlp.step(&opt);
        }
        assert!(last < first.unwrap() * 0.3, "loss {first:?} -> {last}");
    }

    #[test]
    fn linearf_sparse_matches_dense() {
        let mut r = rng();
        let w_init = bf_tensor::init::xavier(&mut r, 4, 2);
        let xd = Dense::from_vec(
            3,
            4,
            vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0],
        );
        let xs = bf_tensor::Csr::from_dense(&xd);
        let mut la = LinearF::from_weights(w_init.clone());
        let mut lb = la.clone();
        let za = la.forward(&Features::Dense(xd));
        let zb = lb.forward(&Features::Sparse(xs));
        assert!(za.approx_eq(&zb, 1e-12));
        let g = Dense::from_vec(3, 2, vec![0.1; 6]);
        la.backward(&g);
        lb.backward(&g);
        // Dense support covers every column; sparse covers its nnz cols.
        let (ga, sa) = la.last_grad();
        let (gb, sb) = lb.last_grad();
        assert_eq!(sa, &[0, 1, 2, 3]);
        assert_eq!(sb, &[0, 1, 2, 3]); // all columns carry a non-zero here
        for (k, &r) in sb.iter().enumerate() {
            let pos = sa.iter().position(|&c| c == r).unwrap();
            assert_eq!(ga.row(pos), gb.row(k));
        }
    }
}
