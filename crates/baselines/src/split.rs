//! Split-learning baselines (the insecure comparator of Figures 9/10).
//!
//! In split learning each party trains a *local bottom model* and
//! exchanges plaintext activations and derivatives. These
//! implementations deliberately expose exactly the intermediate values
//! the paper's attacks consume: Party A's `W_A` (and thus `X_A·W_A`)
//! for the activation attack, and the per-batch `∇E_A` stream for the
//! derivative attack. Since the information flow, not the wire
//! protocol, is what matters to the attacks, the two "parties" run in
//! one process.

use bf_ml::data::{Dataset, Labels};
use bf_ml::layers::{Bias, Embedding, LinearF, Mlp};
use bf_ml::models::loss_and_grad;
use bf_ml::optim::Sgd;
use bf_tensor::Dense;
use rand::Rng;

/// Split GLM (LR/MLR): Party A owns `W_A`, Party B owns `W_B` + bias +
/// labels; `Z_A = X_A·W_A` crosses in plaintext.
pub struct SplitGlm {
    /// Party A's bottom model (the leak).
    pub bottom_a: LinearF,
    bottom_b: LinearF,
    bias: Bias,
    out: usize,
}

impl SplitGlm {
    /// Construct for the two parties' feature widths.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_a: usize, in_b: usize, out: usize) -> Self {
        Self {
            bottom_a: LinearF::new(rng, in_a, out),
            bottom_b: LinearF::new(rng, in_b, out),
            bias: Bias::new(out),
            out,
        }
    }

    /// One mini-batch step; returns the loss.
    pub fn train_batch(&mut self, batch_a: &Dataset, batch_b: &Dataset, opt: &Sgd) -> f64 {
        let x_a = batch_a.num.as_ref().expect("party A features");
        let x_b = batch_b.num.as_ref().expect("party B features");
        let labels = batch_b.labels.as_ref().expect("labels at B");
        let z_a = self.bottom_a.forward(x_a); // plaintext to B
        let z_b = self.bottom_b.forward(x_b);
        let logits = self.bias.forward(&z_a.add(&z_b));
        let (loss, grad) = loss_and_grad(&logits, labels);
        // ∇Z_A = ∇Z_B = grad, both in plaintext.
        self.bias.backward(&grad);
        self.bottom_a.backward(&grad);
        self.bottom_b.backward(&grad);
        self.bias.step(opt);
        self.bottom_a.step(opt);
        self.bottom_b.step(opt);
        loss
    }

    /// Joint logits (Party B's view).
    pub fn predict(&self, data_a: &Dataset, data_b: &Dataset) -> Dense {
        let z_a = self.bottom_a.infer(data_a.num.as_ref().unwrap());
        let z_b = self.bottom_b.infer(data_b.num.as_ref().unwrap());
        self.bias.infer(&z_a.add(&z_b))
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out
    }
}

/// Split WDL for the Figure 10 derivative attack: Party A owns an
/// embedding table over its categorical fields; `E_A` flows to B in
/// plaintext, B runs the joint deep stack (with a configurable number
/// of hidden layers between the embeddings and the loss) and returns
/// `∇E_A` in plaintext — which A records.
pub struct SplitWdl {
    emb_a: Embedding,
    emb_b: Embedding,
    wide_b: LinearF,
    deep: Mlp,
    fields_a: usize,
    dim: usize,
    /// Party A's recorded `(∇E_A, batch labels)` stream — labels are
    /// kept only for attack evaluation, A never sees them.
    pub recorded: Vec<(Dense, Vec<f64>)>,
}

impl SplitWdl {
    /// Construct with `hidden_layers` ReLU layers between the embedding
    /// concat and the single output.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        vocab_a: usize,
        fields_a: usize,
        vocab_b: usize,
        fields_b: usize,
        in_b_num: usize,
        dim: usize,
        hidden_layers: usize,
    ) -> Self {
        #[allow(clippy::same_item_push)]
        let widths = {
            let mut widths = vec![(fields_a + fields_b) * dim];
            for _ in 0..hidden_layers {
                widths.push(16);
            }
            widths.push(1);
            widths
        };
        Self {
            emb_a: Embedding::new(rng, vocab_a, dim),
            emb_b: Embedding::new(rng, vocab_b, dim),
            wide_b: LinearF::new(rng, in_b_num, 1),
            deep: Mlp::new(rng, &widths),
            fields_a,
            dim,
            recorded: Vec::new(),
        }
    }

    /// One mini-batch step; records Party A's `∇E_A` alongside the true
    /// labels (for attack scoring only).
    pub fn train_batch(&mut self, batch_a: &Dataset, batch_b: &Dataset, opt: &Sgd) -> f64 {
        let cat_a = batch_a.cat.as_ref().expect("party A categorical");
        let cat_b = batch_b.cat.as_ref().expect("party B categorical");
        let x_b = batch_b.num.as_ref().expect("party B numerical");
        let labels = batch_b.labels.as_ref().expect("labels at B");

        let e_a = self.emb_a.forward(cat_a); // plaintext to B
        let e_b = self.emb_b.forward(cat_b);
        let e = e_a.hstack(&e_b);
        let deep_out = self.deep.forward(&e);
        let wide_out = self.wide_b.forward(x_b);
        let logits = deep_out.add(&wide_out);
        let (loss, grad) = loss_and_grad(&logits, labels);

        let g_e = self.deep.backward(&grad);
        // Split ∇E into the two parties' blocks; A's goes back in
        // plaintext — the Figure 10 leak.
        let d_a = self.fields_a * self.dim;
        let cols_a: Vec<usize> = (0..d_a).collect();
        let cols_b: Vec<usize> = (d_a..g_e.cols()).collect();
        let g_ea = g_e.select_cols(&cols_a);
        let g_eb = g_e.select_cols(&cols_b);
        if let Labels::Binary(y) = labels {
            self.recorded.push((g_ea.clone(), y.clone()));
        }
        self.emb_a.backward(&g_ea);
        self.emb_b.backward(&g_eb);
        self.wide_b.backward(&grad);
        self.emb_a.step(opt);
        self.emb_b.step(opt);
        self.wide_b.step(opt);
        self.deep.step(opt);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_datagen::{generate, spec, vsplit};
    use rand::SeedableRng;

    #[test]
    fn split_glm_trains() {
        let ds = spec("a9a").scaled(100, 1);
        let (train_ds, _) = generate(&ds, 1);
        let v = vsplit(&train_ds);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut m = SplitGlm::new(&mut rng, v.party_a.num_dim(), v.party_b.num_dim(), 1);
        let opt = Sgd::paper_default();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let idx: Vec<usize> = (0..128).collect();
            last = m.train_batch(&v.party_a.select(&idx), &v.party_b.select(&idx), &opt);
            first.get_or_insert(last);
        }
        assert!(last < first.unwrap(), "{first:?} -> {last}");
    }

    #[test]
    fn split_wdl_records_derivatives() {
        let ds = spec("a9a").scaled(200, 1);
        let (train_ds, _) = generate(&ds, 3);
        let v = vsplit(&train_ds);
        let cat_a = v.party_a.cat.as_ref().unwrap();
        let cat_b = v.party_b.cat.as_ref().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut m = SplitWdl::new(
            &mut rng,
            cat_a.vocab(),
            cat_a.fields(),
            cat_b.vocab(),
            cat_b.fields(),
            v.party_b.num_dim(),
            4,
            2,
        );
        let opt = Sgd::paper_default();
        for i in 0..3 {
            let idx: Vec<usize> = (i * 64..(i + 1) * 64).collect();
            m.train_batch(&v.party_a.select(&idx), &v.party_b.select(&idx), &opt);
        }
        assert_eq!(m.recorded.len(), 3);
        assert_eq!(m.recorded[0].0.rows(), 64);
    }
}
