//! Histogram-based gradient-boosted trees (XGBoost-style second order).
//!
//! This module is the *shared substrate* for both tree trainers in the
//! workspace: the collocated twin ([`CollocatedGbdt`]) used as the
//! ground truth in parity tests, and the federated SecureBoost-style
//! protocol in the `blindfl` crate. Every piece of split-search
//! arithmetic — bucketization, gradient/hessian quantization, histogram
//! accumulation, gain computation, leaf weights, tree growth order —
//! lives here and is executed identically by both paths, which is what
//! makes the federated forest *bit-identical* to the twin rather than
//! merely close.
//!
//! The exactness hinges on one invariant: all histogram sums are taken
//! over **i64 fixed-point** gradients/hessians on the `2^-frac_bits`
//! grid (the same grid the Paillier codec encodes onto). Integer sums
//! are exact; the federated path recovers the very same integers from
//! decrypted homomorphic aggregates, so gains, argmaxes and leaf
//! weights — all pure functions of those integers — agree bit for bit.

use crate::data::Dataset;
use crate::layers::sigmoid;
use bf_tensor::Features;

/// Hyper-parameters for gradient-boosted binary classification trees.
#[derive(Clone, Debug)]
pub struct GbdtParams {
    /// Number of boosting rounds (trees).
    pub trees: usize,
    /// Maximum tree depth; the root is depth 0, so a tree has at most
    /// `2^(max_depth+1) - 1` nodes.
    pub max_depth: usize,
    /// Shrinkage applied inside each leaf weight.
    pub lr: f64,
    /// L2 regularization on leaf weights (XGBoost `lambda`).
    pub lambda: f64,
    /// Minimum hessian sum on each side of a split (XGBoost
    /// `min_child_weight`), in real (un-quantized) units.
    pub min_child_weight: f64,
    /// Maximum histogram buckets per feature.
    pub max_bins: usize,
    /// Initial margin (logit) before any tree.
    pub base_score: f64,
    /// Fixed-point fractional bits for gradient/hessian quantization.
    /// Must match the federation's `FedConfig::frac_bits` for parity.
    pub frac_bits: u32,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            trees: 5,
            max_depth: 3,
            lr: 0.3,
            lambda: 1.0,
            min_child_weight: 1e-3,
            max_bins: 16,
            base_score: 0.0,
            frac_bits: 24,
        }
    }
}

/// Quantize onto the `2^-frac_bits` grid, rounding ties away from zero
/// — the same rounding the Paillier codec applies when encoding.
pub fn quantize_i64(v: f64, frac_bits: u32) -> i64 {
    (v * (frac_bits as f64).exp2()).round() as i64
}

/// Recover a real value from its grid representation.
pub fn grid_f64(q: i64, frac_bits: u32) -> f64 {
    q as f64 / (frac_bits as f64).exp2()
}

/// Per-feature quantile bucketization of one party's feature block.
#[derive(Clone, Debug)]
pub struct FeatureBuckets {
    /// Per feature: ascending candidate thresholds. A split at bucket
    /// `b` means "x ≤ edges\[b\]"; a feature with `k` edges has `k+1`
    /// buckets. Constant features have no edges (1 bucket, unsplittable).
    pub edges: Vec<Vec<f64>>,
    /// Per feature, per row: the bucket id (`#edges < x`).
    pub ids: Vec<Vec<u16>>,
}

impl FeatureBuckets {
    /// Bucket counts per feature (`edges.len() + 1`).
    pub fn nbuckets(&self) -> Vec<usize> {
        self.edges.iter().map(|e| e.len() + 1).collect()
    }
}

/// Deterministic quantile edges over the distinct values of a column.
fn edges_for(vals: &[f64], max_bins: usize) -> Vec<f64> {
    let mut v = vals.to_vec();
    v.sort_by(f64::total_cmp);
    v.dedup();
    if v.len() <= 1 {
        return Vec::new();
    }
    if v.len() <= max_bins {
        // One bucket per distinct value; the candidate thresholds are
        // every distinct value except the last.
        return v[..v.len() - 1].to_vec();
    }
    let mut out: Vec<f64> = Vec::new();
    for b in 1..max_bins {
        let idx = b * v.len() / max_bins; // 1 ≤ idx < len
        let e = v[idx - 1];
        if out.last().map(|&l| l < e).unwrap_or(true) {
            out.push(e);
        }
    }
    out
}

/// Bucket id of `x` against ascending `edges`: the number of edges
/// strictly below `x`, so `id ≤ b ⇔ x ≤ edges[b]`.
pub fn bucket_of(edges: &[f64], x: f64) -> usize {
    edges.partition_point(|&e| e < x)
}

/// Bucketize every column of a feature block with deterministic
/// quantile edges. Both federation parties and the collocated twin call
/// this same function, so bucket boundaries agree exactly.
pub fn bucketize(x: &Features, max_bins: usize) -> FeatureBuckets {
    assert!(max_bins >= 2, "need at least 2 histogram bins");
    let d = x.to_dense();
    let (n, c) = (d.rows(), d.cols());
    let mut edges = Vec::with_capacity(c);
    let mut ids = Vec::with_capacity(c);
    for j in 0..c {
        let col: Vec<f64> = (0..n).map(|i| d.get(i, j)).collect();
        let e = edges_for(&col, max_bins);
        assert!(e.len() < u16::MAX as usize, "too many buckets");
        let id: Vec<u16> = col.iter().map(|&v| bucket_of(&e, v) as u16).collect();
        edges.push(e);
        ids.push(id);
    }
    FeatureBuckets { edges, ids }
}

/// One node of a [`Tree`]. `feature` is a *global* feature index (the
/// concatenation order of all parties' columns); `bucket` is the split
/// candidate, meaning rows with bucket id ≤ `bucket` go left.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// Internal split node.
    Split {
        /// Global feature index.
        feature: u32,
        /// Split bucket: rows with id ≤ bucket go left.
        bucket: u32,
        /// Left child node index.
        left: u32,
        /// Right child node index.
        right: u32,
    },
    /// Terminal node carrying an additive margin contribution.
    Leaf {
        /// Leaf weight (already includes shrinkage).
        weight: f64,
    },
}

/// One regression tree; node 0 is the root, children were allocated in
/// BFS order so node indices encode the split-decision order.
#[derive(Clone, Debug, PartialEq)]
pub struct Tree {
    /// Flat node storage, root first.
    pub nodes: Vec<Node>,
}

/// A flat per-node histogram: one `(Σg, Σh)` grid-sum pair per bucket,
/// concatenated over features in global order.
pub type NodeHist = Vec<(i64, i64)>;

/// A grown tree plus the `(row, leaf_weight)` assignment of every
/// training row, so callers update margins identically.
pub type GrownTree = (Tree, Vec<(u32, f64)>);

/// Accumulate the histogram for `rows` over local bucket ids.
/// `offsets[f]` is the flat position of feature `f`'s bucket 0 and the
/// returned vector has `total` entries.
pub fn local_hist(
    ids: &[Vec<u16>],
    offsets: &[usize],
    total: usize,
    rows: &[u32],
    gq: &[i64],
    hq: &[i64],
) -> NodeHist {
    let mut hist = vec![(0i64, 0i64); total];
    for (f, col) in ids.iter().enumerate() {
        let off = offsets[f];
        for &r in rows {
            let slot = &mut hist[off + col[r as usize] as usize];
            slot.0 += gq[r as usize];
            slot.1 += hq[r as usize];
        }
    }
    hist
}

/// Flat bucket offsets for a list of per-feature bucket counts; returns
/// `(offsets, total)`.
pub fn bucket_offsets(nbuckets: &[usize]) -> (Vec<usize>, usize) {
    let mut offsets = Vec::with_capacity(nbuckets.len());
    let mut total = 0usize;
    for &nb in nbuckets {
        offsets.push(total);
        total += nb;
    }
    (offsets, total)
}

/// The winning split candidate for a node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitDecision {
    /// Global feature index.
    pub feature: u32,
    /// Split bucket (left = ids ≤ bucket).
    pub bucket: u32,
    /// Gain over keeping the node whole.
    pub gain: f64,
}

fn score(g: f64, h: f64, lambda: f64) -> f64 {
    g * g / (h + lambda)
}

/// Exact argmax split search over a node histogram. Candidates are
/// enumerated feature-ascending then bucket-ascending with a strict `>`
/// comparison, so the winner is deterministic. Returns `None` when no
/// candidate has positive gain (or none satisfies `min_child_weight`).
pub fn best_split(
    hist: &NodeHist,
    nbuckets: &[usize],
    totals: (i64, i64),
    p: &GbdtParams,
) -> Option<SplitDecision> {
    let fb = p.frac_bits;
    let (gt, ht) = (grid_f64(totals.0, fb), grid_f64(totals.1, fb));
    let base = score(gt, ht, p.lambda);
    let mut best: Option<SplitDecision> = None;
    let mut off = 0usize;
    for (f, &nb) in nbuckets.iter().enumerate() {
        let (mut gl, mut hl) = (0i64, 0i64);
        // The last bucket is not a candidate (nothing would go right).
        for b in 0..nb.saturating_sub(1) {
            let (g, h) = hist[off + b];
            gl += g;
            hl += h;
            let (gr, hr) = (totals.0 - gl, totals.1 - hl);
            let (glf, hlf) = (grid_f64(gl, fb), grid_f64(hl, fb));
            let (grf, hrf) = (grid_f64(gr, fb), grid_f64(hr, fb));
            if hlf < p.min_child_weight || hrf < p.min_child_weight {
                continue;
            }
            let gain = score(glf, hlf, p.lambda) + score(grf, hrf, p.lambda) - base;
            if gain > 0.0 && best.map(|s| gain > s.gain).unwrap_or(true) {
                best = Some(SplitDecision {
                    feature: f as u32,
                    bucket: b as u32,
                    gain,
                });
            }
        }
        off += nb;
    }
    best
}

/// Leaf weight `-lr · G / (H + λ)` from grid totals.
pub fn leaf_weight(totals: (i64, i64), p: &GbdtParams) -> f64 {
    let (g, h) = (
        grid_f64(totals.0, p.frac_bits),
        grid_f64(totals.1, p.frac_bits),
    );
    -p.lr * g / (h + p.lambda)
}

/// The data-access seam [`grow_tree`] is generic over: the collocated
/// twin answers from local bucket ids; the federated host answers by
/// dispatching to guests (or its own columns) over the wire.
pub trait SplitOracle {
    /// Transport-level error type (`Infallible` for local oracles).
    type Err;
    /// Histogram of `rows` over *all* global features.
    fn hist(&mut self, rows: &[u32]) -> Result<NodeHist, Self::Err>;
    /// The subset of `rows` (order-preserving) whose bucket id for
    /// `feature` is ≤ `bucket`.
    fn route_left(
        &mut self,
        feature: u32,
        bucket: u32,
        rows: &[u32],
    ) -> Result<Vec<u32>, Self::Err>;
}

/// Grow one tree by breadth-first exact split search. Returns the tree
/// plus the `(row, leaf_weight)` assignment of every training row, so
/// callers update margins identically. Node allocation order (and hence
/// node indices) is the BFS split-decision order on both paths.
///
/// **Sibling subtraction.** Only the root and, per split, the *smaller*
/// child (ties → left) are asked of the oracle; the sibling is
/// `hist(parent) − hist(child)` element-wise. Histograms are `i64` sums
/// on the `quantize_i64` grid, so the difference *is* the sibling's
/// histogram, not an approximation of it: a full depth-`d` tree costs
/// `2^(d−1)` oracle histograms instead of `2^d − 1`, each over the
/// smaller row set. A split whose children cannot split again (at
/// `max_depth`, or single rows) requests nothing.
pub fn grow_tree<O: SplitOracle>(
    p: &GbdtParams,
    nbuckets: &[usize],
    gq: &[i64],
    hq: &[i64],
    root_rows: Vec<u32>,
    oracle: &mut O,
) -> Result<GrownTree, O::Err> {
    let splittable = |rows: &[u32], depth: usize| depth < p.max_depth && rows.len() >= 2;
    let mut nodes: Vec<Node> = vec![Node::Leaf { weight: 0.0 }];
    let mut assign: Vec<(u32, f64)> = Vec::new();
    // (node index, rows, depth, histogram if the node may split).
    let mut queue: std::collections::VecDeque<(usize, Vec<u32>, usize, Option<NodeHist>)> =
        std::collections::VecDeque::new();
    let root_hist = if splittable(&root_rows, 0) {
        Some(oracle.hist(&root_rows)?)
    } else {
        None
    };
    queue.push_back((0, root_rows, 0, root_hist));
    while let Some((idx, rows, depth, hist)) = queue.pop_front() {
        let totals = rows.iter().fold((0i64, 0i64), |(g, h), &r| {
            (g + gq[r as usize], h + hq[r as usize])
        });
        let split = hist.and_then(|h| best_split(&h, nbuckets, totals, p).map(|s| (s, h)));
        match split {
            Some((s, hist)) => {
                let left_rows = oracle.route_left(s.feature, s.bucket, &rows)?;
                let right_rows = diff_sorted(&rows, &left_rows);
                assert!(
                    !left_rows.is_empty() && !right_rows.is_empty(),
                    "split with positive gain produced an empty child — \
                     histogram and routing disagree"
                );
                let d = depth + 1;
                let (want_l, want_r) = (splittable(&left_rows, d), splittable(&right_rows, d));
                let (left_hist, right_hist) = if want_l || want_r {
                    let left_small = left_rows.len() <= right_rows.len();
                    let small = oracle.hist(if left_small { &left_rows } else { &right_rows })?;
                    let sibling = hist_minus(hist, &small);
                    let (lh, rh) = if left_small {
                        (small, sibling)
                    } else {
                        (sibling, small)
                    };
                    (want_l.then_some(lh), want_r.then_some(rh))
                } else {
                    (None, None)
                };
                let (l, r) = (nodes.len() as u32, nodes.len() as u32 + 1);
                nodes[idx] = Node::Split {
                    feature: s.feature,
                    bucket: s.bucket,
                    left: l,
                    right: r,
                };
                nodes.push(Node::Leaf { weight: 0.0 });
                nodes.push(Node::Leaf { weight: 0.0 });
                queue.push_back((l as usize, left_rows, d, left_hist));
                queue.push_back((r as usize, right_rows, d, right_hist));
            }
            None => {
                let w = leaf_weight(totals, p);
                nodes[idx] = Node::Leaf { weight: w };
                for &r in &rows {
                    assign.push((r, w));
                }
            }
        }
    }
    Ok((Tree { nodes }, assign))
}

/// `parent − child`, cell by cell: the histogram of the rows of
/// `parent` that are not in `child`. Exact, because both are integer
/// sums over disjoint-union row sets.
fn hist_minus(mut parent: NodeHist, child: &NodeHist) -> NodeHist {
    assert_eq!(parent.len(), child.len(), "histogram widths disagree");
    for (p, c) in parent.iter_mut().zip(child) {
        p.0 -= c.0;
        p.1 -= c.1;
    }
    parent
}

/// `rows \ left` preserving order; both inputs are ascending subsets of
/// the training rows (BFS children of a sorted root stay sorted).
fn diff_sorted(rows: &[u32], left: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(rows.len() - left.len());
    let mut li = 0usize;
    for &r in rows {
        if li < left.len() && left[li] == r {
            li += 1;
        } else {
            out.push(r);
        }
    }
    out
}

/// First-order gradient and second-order hessian of binary logloss at
/// the current margins: `g = σ(z) − y`, `h = σ(z)(1 − σ(z))`.
pub fn grad_hess(margins: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut g = Vec::with_capacity(margins.len());
    let mut h = Vec::with_capacity(margins.len());
    for (&z, &t) in margins.iter().zip(y) {
        let p = sigmoid(z);
        g.push(p - t);
        h.push(p * (1.0 - p));
    }
    (g, h)
}

/// Numerically stable mean binary logloss over margins, summed in index
/// order (deterministic).
pub fn logloss_mean(margins: &[f64], y: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&z, &t) in margins.iter().zip(y) {
        // ln(1 + e^-|z|) + max(z, 0) − z·t
        acc += (-z.abs()).exp().ln_1p() + z.max(0.0) - z * t;
    }
    acc / margins.len() as f64
}

/// Local oracle answering from bucket ids (the collocated trainer and
/// the federated host's own-feature shard both reduce to this).
struct LocalOracle<'a> {
    ids: &'a [Vec<u16>],
    offsets: &'a [usize],
    total: usize,
    gq: &'a [i64],
    hq: &'a [i64],
}

impl SplitOracle for LocalOracle<'_> {
    type Err = std::convert::Infallible;
    fn hist(&mut self, rows: &[u32]) -> Result<NodeHist, Self::Err> {
        Ok(local_hist(
            self.ids,
            self.offsets,
            self.total,
            rows,
            self.gq,
            self.hq,
        ))
    }
    fn route_left(
        &mut self,
        feature: u32,
        bucket: u32,
        rows: &[u32],
    ) -> Result<Vec<u32>, Self::Err> {
        let col = &self.ids[feature as usize];
        Ok(rows
            .iter()
            .copied()
            .filter(|&r| col[r as usize] as u32 <= bucket)
            .collect())
    }
}

/// A collocated (single-process) gradient-boosted forest: the ground
/// truth every federated run is compared against.
#[derive(Clone, Debug)]
pub struct CollocatedGbdt {
    /// The boosted trees in training order.
    pub trees: Vec<Tree>,
    /// Per-feature split thresholds (bucket edges) used at inference.
    pub edges: Vec<Vec<f64>>,
    /// Hyper-parameters the forest was trained with.
    pub params: GbdtParams,
}

impl CollocatedGbdt {
    /// Train on a collocated dataset (numerical features + binary
    /// labels). Returns the model and the post-tree training losses.
    pub fn train(ds: &Dataset, params: &GbdtParams) -> (CollocatedGbdt, Vec<f64>) {
        let x = ds.num.as_ref().expect("gbdt needs numerical features");
        let y = ds.labels.as_ref().expect("gbdt needs labels").as_binary();
        let n = x.rows();
        assert_eq!(n, y.len());
        let buckets = bucketize(x, params.max_bins);
        let nbuckets = buckets.nbuckets();
        let (offsets, total) = bucket_offsets(&nbuckets);
        let mut margins = vec![params.base_score; n];
        let mut trees = Vec::with_capacity(params.trees);
        let mut losses = Vec::with_capacity(params.trees);
        for _ in 0..params.trees {
            let (g, h) = grad_hess(&margins, y);
            let gq: Vec<i64> = g
                .iter()
                .map(|&v| quantize_i64(v, params.frac_bits))
                .collect();
            let hq: Vec<i64> = h
                .iter()
                .map(|&v| quantize_i64(v, params.frac_bits))
                .collect();
            let mut oracle = LocalOracle {
                ids: &buckets.ids,
                offsets: &offsets,
                total,
                gq: &gq,
                hq: &hq,
            };
            let root: Vec<u32> = (0..n as u32).collect();
            let (tree, assign) = match grow_tree(params, &nbuckets, &gq, &hq, root, &mut oracle) {
                Ok(t) => t,
                Err(e) => match e {},
            };
            for (r, w) in assign {
                margins[r as usize] += w;
            }
            losses.push(logloss_mean(&margins, y));
            trees.push(tree);
        }
        (
            CollocatedGbdt {
                trees,
                edges: buckets.edges,
                params: params.clone(),
            },
            losses,
        )
    }

    /// Predict margins (logits) for a feature block by threshold
    /// comparison (`x ≤ edges[f][b]` goes left — equivalent to the
    /// bucket-id routing used during training).
    pub fn predict(&self, x: &Features) -> Vec<f64> {
        let d = x.to_dense();
        let n = d.rows();
        let mut out = vec![self.params.base_score; n];
        for tree in &self.trees {
            for (i, o) in out.iter_mut().enumerate() {
                let mut node = 0usize;
                loop {
                    match &tree.nodes[node] {
                        Node::Leaf { weight } => {
                            *o += weight;
                            break;
                        }
                        Node::Split {
                            feature,
                            bucket,
                            left,
                            right,
                        } => {
                            let e = &self.edges[*feature as usize];
                            let go_left = d.get(i, *feature as usize) <= e[*bucket as usize];
                            node = if go_left {
                                *left as usize
                            } else {
                                *right as usize
                            };
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Labels;
    use bf_tensor::Dense;

    fn xor_dataset(n: usize) -> Dataset {
        // Deterministic pseudo-random grid: labels are a noisy XOR of
        // two thresholded columns — linearly unseparable, easy for a
        // depth-2 tree.
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let cols = 4;
        let mut data = Vec::with_capacity(n * cols);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f64> = (0..cols).map(|_| next()).collect();
            let label = ((row[0] > 0.0) ^ (row[1] > 0.0)) as u8 as f64;
            data.extend_from_slice(&row);
            y.push(label);
        }
        Dataset {
            num: Some(Features::Dense(Dense::from_vec(n, cols, data))),
            cat: None,
            labels: Some(Labels::Binary(y)),
        }
    }

    #[test]
    fn bucket_id_matches_threshold_predicate() {
        let edges = [-0.5, 0.0, 1.25];
        for x in [-2.0, -0.5, -0.499, 0.0, 0.5, 1.25, 9.0] {
            let id = bucket_of(&edges, x);
            for (b, &e) in edges.iter().enumerate() {
                assert_eq!(id <= b, x <= e, "x={x} b={b}");
            }
        }
    }

    #[test]
    fn constant_feature_has_one_bucket() {
        let b = bucketize(&Features::Dense(Dense::from_vec(4, 1, vec![3.0; 4])), 8);
        assert!(b.edges[0].is_empty());
        assert_eq!(b.nbuckets(), vec![1]);
    }

    #[test]
    fn few_distinct_values_get_exact_edges() {
        let b = bucketize(
            &Features::Dense(Dense::from_vec(6, 1, vec![2.0, 1.0, 2.0, 3.0, 1.0, 3.0])),
            8,
        );
        assert_eq!(b.edges[0], vec![1.0, 2.0]);
        assert_eq!(b.ids[0], vec![1, 0, 1, 2, 0, 2]);
    }

    #[test]
    fn twin_learns_xor() {
        let ds = xor_dataset(256);
        let (model, losses) = CollocatedGbdt::train(&ds, &GbdtParams::default());
        assert_eq!(losses.len(), 5);
        assert!(losses.last().unwrap() < &0.4, "xor not learned: {losses:?}");
        // Training predictions must reproduce the training margins
        // (threshold routing ≡ bucket routing).
        let margins = model.predict(ds.num.as_ref().unwrap());
        let y = ds.labels.as_ref().unwrap().as_binary();
        let acc = margins
            .iter()
            .zip(y)
            .filter(|(&z, &t)| (z > 0.0) == (t > 0.5))
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.9, "train accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let ds = xor_dataset(128);
        let (m1, l1) = CollocatedGbdt::train(&ds, &GbdtParams::default());
        let (m2, l2) = CollocatedGbdt::train(&ds, &GbdtParams::default());
        assert_eq!(l1, l2);
        assert_eq!(m1.trees, m2.trees);
    }

    /// The grower before sibling subtraction: one oracle histogram per
    /// node that may split. Kept as the reference [`grow_tree`] must
    /// reproduce node for node.
    fn grow_tree_asking_every_node<O: SplitOracle>(
        p: &GbdtParams,
        nbuckets: &[usize],
        gq: &[i64],
        hq: &[i64],
        root_rows: Vec<u32>,
        oracle: &mut O,
    ) -> Result<GrownTree, O::Err> {
        let mut nodes: Vec<Node> = vec![Node::Leaf { weight: 0.0 }];
        let mut assign: Vec<(u32, f64)> = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((0usize, root_rows, 0usize));
        while let Some((idx, rows, depth)) = queue.pop_front() {
            let totals = rows.iter().fold((0i64, 0i64), |(g, h), &r| {
                (g + gq[r as usize], h + hq[r as usize])
            });
            let decision = if depth < p.max_depth && rows.len() >= 2 {
                best_split(&oracle.hist(&rows)?, nbuckets, totals, p)
            } else {
                None
            };
            match decision {
                Some(s) => {
                    let left_rows = oracle.route_left(s.feature, s.bucket, &rows)?;
                    let right_rows = diff_sorted(&rows, &left_rows);
                    let (l, r) = (nodes.len() as u32, nodes.len() as u32 + 1);
                    nodes[idx] = Node::Split {
                        feature: s.feature,
                        bucket: s.bucket,
                        left: l,
                        right: r,
                    };
                    nodes.push(Node::Leaf { weight: 0.0 });
                    nodes.push(Node::Leaf { weight: 0.0 });
                    queue.push_back((l as usize, left_rows, depth + 1));
                    queue.push_back((r as usize, right_rows, depth + 1));
                }
                None => {
                    let w = leaf_weight(totals, p);
                    nodes[idx] = Node::Leaf { weight: w };
                    assign.extend(rows.iter().map(|&r| (r, w)));
                }
            }
        }
        Ok((Tree { nodes }, assign))
    }

    /// A [`LocalOracle`] that logs the row count of every histogram it
    /// is asked for and checks, for each one that follows a split, that
    /// it is that split's smaller child (ties → left), asked once.
    struct CountingOracle<'a> {
        inner: LocalOracle<'a>,
        hist_rows: Vec<usize>,
        /// `(left, right)` of the last split, until a histogram uses it.
        children: Option<(Vec<u32>, Vec<u32>)>,
    }

    impl SplitOracle for CountingOracle<'_> {
        type Err = std::convert::Infallible;
        fn hist(&mut self, rows: &[u32]) -> Result<NodeHist, Self::Err> {
            if !self.hist_rows.is_empty() {
                let (left, right) = self
                    .children
                    .take()
                    .expect("a second histogram for one split");
                let small = if left.len() <= right.len() {
                    left
                } else {
                    right
                };
                assert_eq!(rows, small, "asked for the larger child");
            }
            self.hist_rows.push(rows.len());
            self.inner.hist(rows)
        }
        fn route_left(
            &mut self,
            feature: u32,
            bucket: u32,
            rows: &[u32],
        ) -> Result<Vec<u32>, Self::Err> {
            let left = self.inner.route_left(feature, bucket, rows)?;
            self.children = Some((left.clone(), diff_sorted(rows, &left)));
            Ok(left)
        }
    }

    /// Grow the first tree of `ds` both ways; returns the subtracting
    /// grower's result and the row counts of the histograms it asked for,
    /// after asserting it equals the ask-every-node reference.
    fn grow_both_ways(ds: &Dataset, p: &GbdtParams) -> (GrownTree, Vec<usize>) {
        let y = ds.labels.as_ref().unwrap().as_binary();
        let n = y.len();
        let buckets = bucketize(ds.num.as_ref().unwrap(), p.max_bins);
        let nbuckets = buckets.nbuckets();
        let (offsets, total) = bucket_offsets(&nbuckets);
        let (g, h) = grad_hess(&vec![p.base_score; n], y);
        let q =
            |v: &[f64]| -> Vec<i64> { v.iter().map(|&v| quantize_i64(v, p.frac_bits)).collect() };
        let (gq, hq) = (q(&g), q(&h));
        let local = || LocalOracle {
            ids: &buckets.ids,
            offsets: &offsets,
            total,
            gq: &gq,
            hq: &hq,
        };
        let root: Vec<u32> = (0..n as u32).collect();
        let mut counting = CountingOracle {
            inner: local(),
            hist_rows: Vec::new(),
            children: None,
        };
        let Ok(grown) = grow_tree(p, &nbuckets, &gq, &hq, root.clone(), &mut counting);
        let Ok(reference) = grow_tree_asking_every_node(p, &nbuckets, &gq, &hq, root, &mut local());
        assert_eq!(grown, reference, "sibling subtraction changed the tree");
        (grown, counting.hist_rows)
    }

    #[test]
    fn full_depth_three_tree_asks_for_four_histograms() {
        let ds = xor_dataset(256);
        let (grown, asked) = grow_both_ways(&ds, &GbdtParams::default());
        assert_eq!(grown.0.nodes.len(), 15, "tree is not full: {:?}", grown.0);
        // Root, then the smaller child of each of the three splits above
        // the last level (the oracle checked which child); the four
        // depth-2 splits have `max_depth` children and ask for nothing.
        assert_eq!(asked.len(), 4, "{asked:?}");
        assert_eq!(asked[0], 256);
        assert!(asked[1] <= 128 && asked[2] + asked[3] <= 128, "{asked:?}");
    }

    #[test]
    fn other_depths_equal_the_reference_within_the_request_bound() {
        let ds = xor_dataset(256);
        for max_depth in [1usize, 2, 5] {
            let p = GbdtParams {
                max_depth,
                ..GbdtParams::default()
            };
            // One request per pair of children above the last level, plus
            // the root: at most 2^(d−1), where asking every node is up to
            // 2^d − 1. A `max_depth` child is never asked for, so depth 1
            // is the root alone.
            let (_, asked) = grow_both_ways(&ds, &p);
            assert!(
                asked.len() <= 1 << (max_depth - 1),
                "{max_depth}: {asked:?}"
            );
            assert_eq!(asked[0], 256);
        }
    }

    #[test]
    fn single_row_children_ask_for_nothing_they_do_not_need() {
        let tiny = |x: &[f64], y: &[f64]| Dataset {
            num: Some(Features::Dense(Dense::from_vec(x.len(), 1, x.to_vec()))),
            cat: None,
            labels: Some(Labels::Binary(y.to_vec())),
        };
        let p = GbdtParams::default();
        // Two rows: the root splits into two single rows — leaves by
        // size, so the root's histogram is the only one.
        let (grown, asked) = grow_both_ways(&tiny(&[0.0, 1.0], &[0.0, 1.0]), &p);
        assert_eq!(grown.0.nodes.len(), 3);
        assert_eq!(asked, vec![2]);
        // Three rows, 1 | 2: the pair may split again, and its histogram
        // comes from the single row's, not from a request over the pair.
        let (grown, asked) = grow_both_ways(&tiny(&[0.0, 1.0, 2.0], &[1.0, 0.0, 1.0]), &p);
        assert_eq!(grown.0.nodes.len(), 5, "{:?}", grown.0);
        assert_eq!(asked, vec![3, 1]);
    }

    #[test]
    fn quantize_matches_codec_rounding() {
        // Ties away from zero, same as f64::round (and the Paillier
        // codec's encode path).
        assert_eq!(quantize_i64(1.5 / 16.0, 4), 2);
        assert_eq!(quantize_i64(-1.5 / 16.0, 4), -2);
        assert_eq!(quantize_i64(0.0, 24), 0);
    }
}
