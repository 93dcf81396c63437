//! The five model families of the paper's evaluation, in collocated
//! (non-federated) form: LR, MLR (multinomial LR), MLP, WDL (wide &
//! deep) and DLRM.
//!
//! Each model's *first* layer is structured exactly the way BlindFL
//! splits it: a bias-free matmul (or embedding+matmul) "source" stage
//! followed by a local "top" stage — so the federated variants in the
//! `blindfl` crate are drop-in replacements of the source stage.

use bf_tensor::Dense;
use rand::Rng;

use crate::data::{Dataset, Labels};
use crate::layers::{ActKind, Activation, Bias, Embedding, Linear, LinearF, Mlp};
use crate::loss::{bce_with_logits, softmax_ce};
use crate::optim::Sgd;

/// A trainable classification model over [`Dataset`] batches.
pub trait Model {
    /// One SGD step on a mini-batch; returns the batch loss.
    fn train_batch(&mut self, batch: &Dataset, opt: &Sgd) -> f64;
    /// Logits for a dataset (no caching side effects).
    fn predict(&self, data: &Dataset) -> Dense;
    /// Output width (1 = binary).
    fn out_dim(&self) -> usize;
}

/// Compute loss/gradient for either label kind.
pub fn loss_and_grad(logits: &Dense, labels: &Labels) -> (f64, Dense) {
    match labels {
        Labels::Binary(y) => bce_with_logits(logits, y),
        Labels::Multi { y, .. } => softmax_ce(logits, y),
    }
}

/// Generalised linear model: LR (`out = 1`) or MLR (`out = C`).
/// `logits = X·W + b` — matmul source stage plus a bias-only top.
#[derive(Clone, Debug)]
pub struct GlmModel {
    source: LinearF,
    bias: Bias,
    out: usize,
}

impl GlmModel {
    /// Construct for the given feature and output dimensionality.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, input: usize, out: usize) -> Self {
        Self {
            source: LinearF::new(rng, input, out),
            bias: Bias::new(out),
            out,
        }
    }

    /// The source-stage weights (inspection/tests).
    pub fn weights(&self) -> &Dense {
        &self.source.w
    }

    /// Construct from explicit source weights (zero bias). Used by the
    /// lossless-equivalence tests, which initialise the plaintext model
    /// with the reconstructed federated initialisation.
    pub fn from_weights(w: Dense) -> Self {
        let out = w.cols();
        Self {
            source: LinearF::from_weights(w),
            bias: Bias::new(out),
            out,
        }
    }
}

impl Model for GlmModel {
    fn train_batch(&mut self, batch: &Dataset, opt: &Sgd) -> f64 {
        let x = batch.num.as_ref().expect("GLM needs numerical features");
        let labels = batch.labels.as_ref().expect("training needs labels");
        let z = self.source.forward(x);
        let logits = self.bias.forward(&z);
        let (loss, grad) = loss_and_grad(&logits, labels);
        self.bias.backward(&grad);
        self.source.backward(&grad);
        self.bias.step(opt);
        self.source.step(opt);
        loss
    }

    fn predict(&self, data: &Dataset) -> Dense {
        let x = data.num.as_ref().expect("GLM needs numerical features");
        self.bias.infer(&self.source.infer(x))
    }

    fn out_dim(&self) -> usize {
        self.out
    }
}

/// Multi-layer perceptron: matmul source stage into a ReLU tower.
#[derive(Clone, Debug)]
pub struct MlpModel {
    source: LinearF,
    bias0: Bias,
    act0: Activation,
    top: Mlp,
    out: usize,
}

impl MlpModel {
    /// `widths` are the hidden widths plus the output width, e.g.
    /// `&[64, 16, 3]` builds `input→64 (source) → relu → 64→16 → relu →
    /// 16→3`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, input: usize, widths: &[usize]) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least one hidden and one output width"
        );
        let h0 = widths[0];
        Self {
            source: LinearF::new(rng, input, h0),
            bias0: Bias::new(h0),
            act0: Activation::new(ActKind::Relu),
            top: Mlp::new(rng, widths),
            out: *widths.last().unwrap(),
        }
    }
}

impl Model for MlpModel {
    fn train_batch(&mut self, batch: &Dataset, opt: &Sgd) -> f64 {
        let x = batch.num.as_ref().expect("MLP needs numerical features");
        let labels = batch.labels.as_ref().expect("training needs labels");
        let z = self.source.forward(x);
        let h = self.act0.forward(&self.bias0.forward(&z));
        let logits = self.top.forward(&h);
        let (loss, grad) = loss_and_grad(&logits, labels);
        let gh = self.top.backward(&grad);
        let gz = self.act0.backward(&gh);
        self.bias0.backward(&gz);
        self.source.backward(&gz);
        self.top.step(opt);
        self.bias0.step(opt);
        self.source.step(opt);
        loss
    }

    fn predict(&self, data: &Dataset) -> Dense {
        let x = data.num.as_ref().expect("MLP needs numerical features");
        let h = self.act0.infer(&self.bias0.infer(&self.source.infer(x)));
        self.top.infer(&h)
    }

    fn out_dim(&self) -> usize {
        self.out
    }
}

/// Wide & Deep (Figure 5 of the paper): a MatMul source over the
/// sparse numerical features (wide) plus an Embed-MatMul source over
/// the categorical fields feeding a hidden tower (deep); outputs sum.
#[derive(Clone, Debug)]
pub struct WdlModel {
    wide: LinearF,
    emb: Embedding,
    deep_proj: Linear,
    deep_tower: Mlp,
    bias: Bias,
    out: usize,
}

impl WdlModel {
    /// `hidden` are the deep-tower hidden widths (the paper's Figure 10
    /// varies their count).
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        num_input: usize,
        vocab: usize,
        fields: usize,
        emb_dim: usize,
        hidden: &[usize],
        out: usize,
    ) -> Self {
        let emb = Embedding::new(rng, vocab, emb_dim);
        let proj_in = fields * emb_dim;
        let proj_out = hidden.first().copied().unwrap_or(out);
        let mut widths: Vec<usize> = hidden.to_vec();
        widths.push(out);
        Self {
            wide: LinearF::new(rng, num_input, out),
            emb,
            deep_proj: Linear::new(rng, proj_in, proj_out),
            deep_tower: Mlp::new(rng, &widths),
            bias: Bias::new(out),
            out,
        }
    }
}

impl Model for WdlModel {
    fn train_batch(&mut self, batch: &Dataset, opt: &Sgd) -> f64 {
        let x_num = batch.num.as_ref().expect("WDL needs numerical features");
        let x_cat = batch.cat.as_ref().expect("WDL needs categorical features");
        let labels = batch.labels.as_ref().expect("training needs labels");

        let z_wide = self.wide.forward(x_num);
        let e = self.emb.forward(x_cat);
        let h = self.deep_proj.forward(&e).map(|v| v.max(0.0));
        let relu_mask = h.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let z_deep = self.deep_tower.forward(&h);
        let logits = self.bias.forward(&z_wide.add(&z_deep));

        let (loss, grad) = loss_and_grad(&logits, labels);
        self.bias.backward(&grad);
        // Wide path.
        self.wide.backward(&grad);
        // Deep path.
        let gh = self.deep_tower.backward(&grad).hadamard(&relu_mask);
        let ge = self.deep_proj.backward(&gh);
        self.emb.backward(&ge);

        self.bias.step(opt);
        self.wide.step(opt);
        self.deep_tower.step(opt);
        self.deep_proj.step(opt);
        self.emb.step(opt);
        loss
    }

    fn predict(&self, data: &Dataset) -> Dense {
        let x_num = data.num.as_ref().expect("WDL needs numerical features");
        let x_cat = data.cat.as_ref().expect("WDL needs categorical features");
        let z_wide = self.wide.infer(x_num);
        let e = self.emb.infer(x_cat);
        let h = self.deep_proj.infer(&e).map(|v| v.max(0.0));
        let z_deep = self.deep_tower.infer(&h);
        self.bias.infer(&z_wide.add(&z_deep))
    }

    fn out_dim(&self) -> usize {
        self.out
    }
}

/// DLRM-lite: per-field embeddings plus a bottom MLP over the dense
/// features; pairwise dot-product feature interactions feed a top MLP.
#[derive(Clone, Debug)]
pub struct DlrmModel {
    emb: Embedding,
    emb_dim: usize,
    fields: usize,
    bottom: Mlp,
    top: Mlp,
    out: usize,
    // caches for backward
    cached_vecs: Option<Vec<Dense>>,
}

impl DlrmModel {
    #[allow(clippy::too_many_arguments)]
    /// Construct. The bottom MLP maps `num_input → emb_dim`; the top
    /// MLP maps the interaction vector to `out` logits through
    /// `top_hidden`.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        num_input: usize,
        vocab: usize,
        fields: usize,
        emb_dim: usize,
        bottom_hidden: &[usize],
        top_hidden: &[usize],
        out: usize,
    ) -> Self {
        let mut bw = vec![num_input];
        bw.extend_from_slice(bottom_hidden);
        bw.push(emb_dim);
        let n_vec = fields + 1;
        let inter = n_vec * (n_vec - 1) / 2 + emb_dim;
        let mut tw = vec![inter];
        tw.extend_from_slice(top_hidden);
        tw.push(out);
        Self {
            emb: Embedding::new(rng, vocab, emb_dim),
            emb_dim,
            fields,
            bottom: Mlp::new(rng, &bw),
            top: Mlp::new(rng, &tw),
            out,
            cached_vecs: None,
        }
    }

    /// Split the flat embedding output plus bottom vector into the
    /// per-field vectors `v_0..v_F` (bottom last).
    fn gather_vecs(&self, e: &Dense, b: &Dense) -> Vec<Dense> {
        let bs = e.rows();
        let mut vecs = Vec::with_capacity(self.fields + 1);
        for f in 0..self.fields {
            let mut m = Dense::zeros(bs, self.emb_dim);
            for r in 0..bs {
                m.row_mut(r)
                    .copy_from_slice(&e.row(r)[f * self.emb_dim..(f + 1) * self.emb_dim]);
            }
            vecs.push(m);
        }
        vecs.push(b.clone());
        vecs
    }

    /// Interaction features: `[bottom | dot(v_i, v_j) for i<j]`.
    fn interact(vecs: &[Dense]) -> Dense {
        let n = vecs.len();
        let bs = vecs[0].rows();
        let dim = vecs[0].cols();
        let pairs = n * (n - 1) / 2;
        let mut out = Dense::zeros(bs, dim + pairs);
        let bottom = &vecs[n - 1];
        for r in 0..bs {
            out.row_mut(r)[..dim].copy_from_slice(bottom.row(r));
            let mut p = dim;
            for i in 0..n {
                for j in (i + 1)..n {
                    let dot: f64 = vecs[i]
                        .row(r)
                        .iter()
                        .zip(vecs[j].row(r))
                        .map(|(a, b)| a * b)
                        .sum();
                    out.row_mut(r)[p] = dot;
                    p += 1;
                }
            }
        }
        out
    }

    /// Backward through the interaction: given `∇out`, produce `∇v_k`.
    fn interact_backward(vecs: &[Dense], grad_out: &Dense) -> Vec<Dense> {
        let n = vecs.len();
        let bs = vecs[0].rows();
        let dim = vecs[0].cols();
        let mut grads: Vec<Dense> = (0..n).map(|_| Dense::zeros(bs, dim)).collect();
        for r in 0..bs {
            // Bottom passthrough.
            let (gb, gpairs) = grad_out.row(r).split_at(dim);
            for (d, &g) in grads[n - 1].row_mut(r).iter_mut().zip(gb) {
                *d += g;
            }
            let mut p = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    let g = gpairs[p];
                    p += 1;
                    if g == 0.0 {
                        continue;
                    }
                    for d in 0..dim {
                        let vi = vecs[i].get(r, d);
                        let vj = vecs[j].get(r, d);
                        let cur_i = grads[i].get(r, d);
                        grads[i].set(r, d, cur_i + g * vj);
                        let cur_j = grads[j].get(r, d);
                        grads[j].set(r, d, cur_j + g * vi);
                    }
                }
            }
        }
        grads
    }
}

impl Model for DlrmModel {
    fn train_batch(&mut self, batch: &Dataset, opt: &Sgd) -> f64 {
        let x_num = batch.num.as_ref().expect("DLRM needs numerical features");
        let x_cat = batch.cat.as_ref().expect("DLRM needs categorical features");
        let labels = batch.labels.as_ref().expect("training needs labels");
        let e = self.emb.forward(x_cat);
        let b = self.bottom.forward(&x_num.to_dense());
        let vecs = self.gather_vecs(&e, &b);
        let inter = Self::interact(&vecs);
        let logits = self.top.forward(&inter);
        let (loss, grad) = loss_and_grad(&logits, labels);

        let g_inter = self.top.backward(&grad);
        let g_vecs = Self::interact_backward(&vecs, &g_inter);
        self.cached_vecs = None;
        // Reassemble ∇E from the per-field gradients.
        let bs = e.rows();
        let mut ge = Dense::zeros(bs, self.fields * self.emb_dim);
        for f in 0..self.fields {
            for r in 0..bs {
                ge.row_mut(r)[f * self.emb_dim..(f + 1) * self.emb_dim]
                    .copy_from_slice(g_vecs[f].row(r));
            }
        }
        self.emb.backward(&ge);
        self.bottom.backward(&g_vecs[self.fields]);

        self.top.step(opt);
        self.emb.step(opt);
        self.bottom.step(opt);
        loss
    }

    fn predict(&self, data: &Dataset) -> Dense {
        let x_num = data.num.as_ref().expect("DLRM needs numerical features");
        let x_cat = data.cat.as_ref().expect("DLRM needs categorical features");
        let e = self.emb.infer(x_cat);
        let b = self.bottom.infer(&x_num.to_dense());
        let vecs = self.gather_vecs(&e, &b);
        let inter = Self::interact(&vecs);
        self.top.infer(&inter)
    }

    fn out_dim(&self) -> usize {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_tensor::{CatBlock, Features};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(9)
    }

    fn toy_binary(n: usize) -> Dataset {
        // y = 1 iff x0 + x1 > 0.
        let mut r = rng();
        let x = bf_tensor::init::uniform(&mut r, n, 4, 1.0);
        let y: Vec<f64> = (0..n)
            .map(|i| {
                if x.get(i, 0) + x.get(i, 1) > 0.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        Dataset {
            num: Some(Features::Dense(x)),
            cat: None,
            labels: Some(Labels::Binary(y)),
        }
    }

    fn toy_cat(n: usize) -> Dataset {
        // Categorical signal: label = field0 parity.
        let mut r = rng();
        let x = bf_tensor::init::uniform(&mut r, n, 3, 1.0);
        let local: Vec<u32> = (0..n * 2)
            .map(|i| ((i * 7919 + 13) % if i % 2 == 0 { 8 } else { 6 }) as u32)
            .collect();
        let cat = CatBlock::from_local(n, &[8, 6], local.clone());
        let y: Vec<f64> = (0..n).map(|i| (local[2 * i] % 2) as f64).collect();
        Dataset {
            num: Some(Features::Dense(x)),
            cat: Some(cat),
            labels: Some(Labels::Binary(y)),
        }
    }

    fn final_loss<M: Model>(model: &mut M, ds: &Dataset, iters: usize) -> (f64, f64) {
        let opt = Sgd {
            lr: 0.1,
            momentum: 0.9,
        };
        let idx: Vec<usize> = (0..ds.rows()).collect();
        let batch = ds.select(&idx);
        let first = model.train_batch(&batch, &opt);
        let mut last = first;
        for _ in 1..iters {
            last = model.train_batch(&batch, &opt);
        }
        (first, last)
    }

    #[test]
    fn lr_learns_linear_rule() {
        let ds = toy_binary(128);
        let mut m = GlmModel::new(&mut rng(), 4, 1);
        let (first, last) = final_loss(&mut m, &ds, 150);
        assert!(last < first * 0.5, "{first} -> {last}");
        let scores: Vec<f64> = m.predict(&ds).data().to_vec();
        let auc = crate::metrics::auc(&scores, ds.labels.as_ref().unwrap().as_binary());
        assert!(auc > 0.95, "auc={auc}");
    }

    #[test]
    fn mlr_learns_multiclass() {
        // 3 classes from argmax of first 3 features.
        let mut r = rng();
        let x = bf_tensor::init::uniform(&mut r, 150, 5, 1.0);
        let y: Vec<u32> = (0..150)
            .map(|i| {
                let row = [x.get(i, 0), x.get(i, 1), x.get(i, 2)];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0 as u32
            })
            .collect();
        let ds = Dataset {
            num: Some(Features::Dense(x)),
            cat: None,
            labels: Some(Labels::Multi { classes: 3, y }),
        };
        let mut m = GlmModel::new(&mut r, 5, 3);
        let (first, last) = final_loss(&mut m, &ds, 250);
        assert!(last < first * 0.6, "{first} -> {last}");
        let acc = crate::metrics::accuracy_multiclass(
            &m.predict(&ds),
            ds.labels.as_ref().unwrap().as_multi(),
        );
        assert!(acc > 0.8, "acc={acc}");
    }

    #[test]
    fn mlp_learns() {
        let ds = toy_binary(128);
        let mut m = MlpModel::new(&mut rng(), 4, &[16, 8, 1]);
        let (first, last) = final_loss(&mut m, &ds, 200);
        assert!(last < first * 0.5, "{first} -> {last}");
    }

    #[test]
    fn wdl_learns_categorical_signal() {
        let ds = toy_cat(128);
        let mut m = WdlModel::new(&mut rng(), 3, 14, 2, 4, &[8], 1);
        let (first, last) = final_loss(&mut m, &ds, 250);
        assert!(last < first * 0.6, "{first} -> {last}");
    }

    #[test]
    fn dlrm_learns() {
        let ds = toy_cat(128);
        let mut m = DlrmModel::new(&mut rng(), 3, 14, 2, 4, &[8], &[8], 1);
        let (first, last) = final_loss(&mut m, &ds, 250);
        assert!(last < first * 0.7, "{first} -> {last}");
    }

    #[test]
    fn dlrm_interaction_gradcheck() {
        // Finite-difference check of the interaction backward.
        let mut r = rng();
        let v0 = bf_tensor::init::uniform(&mut r, 2, 3, 1.0);
        let v1 = bf_tensor::init::uniform(&mut r, 2, 3, 1.0);
        let v2 = bf_tensor::init::uniform(&mut r, 2, 3, 1.0);
        let vecs = vec![v0, v1, v2];
        let out = DlrmModel::interact(&vecs);
        let g_out = Dense::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        let grads = DlrmModel::interact_backward(&vecs, &g_out);
        let eps = 1e-6;
        for k in 0..3 {
            for (r_i, d) in [(0usize, 0usize), (1, 2)] {
                let mut vp = vecs.clone();
                let cur = vp[k].get(r_i, d);
                vp[k].set(r_i, d, cur + eps);
                let fp: f64 = DlrmModel::interact(&vp).data().iter().sum();
                vp[k].set(r_i, d, cur - eps);
                let fm: f64 = DlrmModel::interact(&vp).data().iter().sum();
                let fd = (fp - fm) / (2.0 * eps);
                assert!(
                    (fd - grads[k].get(r_i, d)).abs() < 1e-5,
                    "k={k} r={r_i} d={d}"
                );
            }
        }
    }
}
