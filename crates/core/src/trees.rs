//! Federated gradient boosting (SecureBoost-style label scattering).
//!
//! Party B (the host) owns the labels and drives an XGBoost-style
//! second-order boosting loop; each guest owns a vertical slice of the
//! features and never sees a label or a gradient in the clear:
//!
//! ```text
//! host (B, labels)                       guest link l (features)
//! ────────────────                       ───────────────────────
//!                 ←  Support(bucket counts)      (setup, once)
//! OP_NEW_TREE, Ct(⟦g|h⟧)  →                      (per tree)
//! OP_HIST, Support(all rows) →                   (the root)
//!                 ←  Ct(Σ⟦g|h⟧ per (feature, bucket))
//! OP_SPLIT, GbSplit(f, b), Support(rows) →       (per split, BFS order)
//!                 ←  Support(left rows)      (guest records f ≤ t)
//! OP_HIST, Support(smaller child's rows) →       (if a child may split)
//!                 ←  Ct(that child's sums; the sibling is parent − child)
//! OP_DONE →                                         (end of training)
//! ```
//!
//! The host encrypts per-row gradients/hessians under its own Paillier
//! key; guests compute per-(feature, bucket) aggregate sums
//! homomorphically (`t_matmul_support` over a 0/1 bucket-indicator
//! matrix) and return ciphertexts only the host can open. Winning
//! splits on guest features are named back to the guest by *local
//! feature index and bucket id* — the guest alone records the threshold
//! value, the host records only which guest and which record.
//!
//! **What the host opens.** Decryptions, not homomorphic arithmetic,
//! set a tree's run time, so the protocol spends two levers on their
//! count, both exact. The shared grower ([`bf_ml::gbdt::grow_tree`])
//! asks for the root and then only the *smaller* child of each split,
//! deriving the sibling as `hist(parent) − hist(child)` in `i64` — a
//! depth-3 tree is 4 `OP_HIST` rounds instead of 7. And a histogram row
//! is `(Σg, Σh)`: two slots of a ciphertext that holds `slots`, so under
//! [`PaillierMode::Packed`] the guest folds `⌊slots/2⌋` rows into one
//! ([`PublicKey::repack`]) and replies with a `1 × 2·cells` packed row;
//! the host checks the element count, decrypts `⌈cells/⌊slots/2⌋⌉`
//! ciphertexts and reshapes to `cells × 2`. Plain sessions, `Scalar`
//! sessions and keys with fewer than four slots send `cells × 2` as the
//! kernel produced it.
//!
//! **Numeric envelope.** Every sum is `Σ_rows round(v·2^fb)` with
//! `|g| < 1`, `h ≤ ¼` (logloss). It is exact end to end while
//! `rows < 2^(52−fb)` (the f64 the host re-quantizes through; the
//! binding bound, 2^20 rows at 32 fractional bits) and, when packed,
//! `rows < 2^(slot_bits−1−2·fb)` (its pack slot). `max_rows` computes
//! the bound from `frac_bits` and the session's [`SlotLayout`]; host
//! and guest refuse a taller store at set-up with a typed
//! [`TransportError::Setup`].
//!
//! **Equivalence contract** (`tests/trees_parity.rs`): every histogram
//! sum is recovered as an exact `i64` on the `2^-frac_bits` fixed-point
//! grid — the Paillier codec rounds onto that grid at encryption, the
//! plain backend quantizes onto it, and an indicator coefficient of 1.0
//! is exact — so the federated forest is *bit-identical* to the
//! collocated [`bf_ml::gbdt::CollocatedGbdt`] twin trained on the same
//! rows, for every backend and transport. No tolerance.
//!
//! Serving: the host resolves guest-owned split nodes through one
//! [`Msg::GbBits`] routing bitmap per guest per batch (one round trip,
//! all stored predicates × all batch rows), then walks the forest
//! locally. The batch rides the same [`crate::serve`] queue, coalescing
//! and accounting as the MLP-family servers.

use std::sync::Arc;
use std::time::Instant;

use bf_ml::data::Dataset;
use bf_ml::gbdt::{
    self, bucket_offsets, bucketize, grad_hess, logloss_mean, quantize_i64, FeatureBuckets,
    GbdtParams, Node, NodeHist, SplitOracle, Tree,
};
use bf_mpc::transport::{Msg, TransportError, TransportResult};
use bf_mpc::wire::{bit_at, bit_bytes, pack_bits};
use bf_mpc::{decrypt_reply, Endpoint};
use bf_paillier::{PaillierMode, PublicKey, SlotLayout};
use bf_tensor::{Csr, Dense, Features};

use crate::config::FedConfig;
use crate::engine::{Stage, StageTimes};
use crate::multiparty::{collect_guests, send_hello};
use crate::serve::{
    run_server_loop, RequestQueue, ServeConfig, ServeGuestReport, ServeReport, SERVE_SHUTDOWN,
};
use crate::session::{multi_party_seed, Role, Session};

/// Protocol op-codes (`U64` frames) for the boosting loop. Values are
/// outside the serve sentinel space so a mis-wired session fails with a
/// typed error instead of a silent misinterpretation.
pub const OP_NEW_TREE: u64 = 0x7E01;
/// Request a node histogram (follows: `Support` of node rows).
pub const OP_HIST: u64 = 0x7E02;
/// Commit a split (follows: `GbSplit`, `Support` of node rows).
pub const OP_SPLIT: u64 = 0x7E03;
/// End of training.
pub const OP_DONE: u64 = 0x7E04;

/// One guest-recorded split predicate: local feature index and the
/// threshold value (`x ≤ t` goes left). The host never sees this.
#[derive(Clone, Debug, PartialEq)]
pub struct GbRecord {
    /// Guest-local feature index.
    pub feature: u32,
    /// Threshold; rows with `x ≤ threshold` go left.
    pub threshold: f64,
}

/// A guest's share of a trained federated forest: its split predicates
/// in training order (the order the host replays at inference).
#[derive(Clone, Debug, PartialEq)]
pub struct GbdtGuestModel {
    /// Number of local features (bounds-checks `records`).
    pub width: usize,
    /// Recorded predicates, in host split-decision order.
    pub records: Vec<GbRecord>,
}

impl GbdtGuestModel {
    /// Answer a routing bitmap for `rows` of `vals` (the guest's
    /// feature store, dense): bit `record · rows.len() + p` says row
    /// `rows[p]` satisfies record's predicate.
    pub fn routing_bits(&self, vals: &Dense, rows: &[u32]) -> TransportResult<Msg> {
        let mut bools = Vec::with_capacity(self.records.len() * rows.len());
        for rec in &self.records {
            if rec.feature as usize >= vals.cols() {
                return Err(TransportError::Setup(format!(
                    "split record references feature {} of a {}-column store",
                    rec.feature,
                    vals.cols()
                )));
            }
            for &r in rows {
                if r as usize >= vals.rows() {
                    return Err(TransportError::Setup(format!(
                        "prediction request for row {r} of a {}-row store",
                        vals.rows()
                    )));
                }
                bools.push(vals.get(r as usize, rec.feature as usize) <= rec.threshold);
            }
        }
        Ok(Msg::GbBits {
            rows: rows.len() as u64,
            records: self.records.len() as u64,
            bits: pack_bits(&bools),
        })
    }
}

/// The host's share of a trained federated forest: tree topology with
/// global feature ids, its *own* feature thresholds, and the per-guest
/// feature widths that resolve global ids back to links. Thresholds of
/// guest-owned features are absent by design.
#[derive(Clone, Debug, PartialEq)]
pub struct GbdtHostModel {
    /// Boosted trees in training order (global feature indices).
    pub trees: Vec<Tree>,
    /// Features owned by each guest link, in link order.
    pub guest_widths: Vec<usize>,
    /// Host-feature bucket edges (local indexing); resolves thresholds
    /// for host-owned splits.
    pub host_edges: Vec<Vec<f64>>,
    /// Initial margin before any tree.
    pub base_score: f64,
}

/// Who owns a global feature index.
enum Owner {
    Guest { link: usize },
    Host { feature: usize },
}

/// `map[tree][node] = Some((link, record))` for guest-owned split
/// nodes (`None` otherwise), plus the per-link record totals.
type RecordMap = (Vec<Vec<Option<(usize, usize)>>>, Vec<usize>);

impl GbdtHostModel {
    fn owner(&self, global: u32) -> Owner {
        let mut f = global as usize;
        for (link, &w) in self.guest_widths.iter().enumerate() {
            if f < w {
                return Owner::Guest { link };
            }
            f -= w;
        }
        Owner::Host { feature: f }
    }

    /// Per-link record ids of every guest-owned split node, derived by
    /// walking trees and nodes in index order — the exact order the
    /// host committed splits during training, hence the order each
    /// guest appended to [`GbdtGuestModel::records`]. Returns, aligned
    /// with `trees`/`nodes`: `map[tree][node] = Some((link, record))`
    /// for guest splits, `None` otherwise; plus the per-link totals.
    fn record_map(&self) -> RecordMap {
        let mut counts = vec![0usize; self.guest_widths.len()];
        let mut map = Vec::with_capacity(self.trees.len());
        for tree in &self.trees {
            let mut per_node = Vec::with_capacity(tree.nodes.len());
            for node in &tree.nodes {
                per_node.push(match node {
                    Node::Split { feature, .. } => match self.owner(*feature) {
                        Owner::Guest { link, .. } => {
                            let id = counts[link];
                            counts[link] += 1;
                            Some((link, id))
                        }
                        Owner::Host { .. } => None,
                    },
                    Node::Leaf { .. } => None,
                });
            }
            map.push(per_node);
        }
        (map, counts)
    }

    /// Expected [`GbRecord`] count per guest link (for validating a
    /// loaded guest model or an inbound bitmap).
    pub fn records_per_link(&self) -> Vec<usize> {
        self.record_map().1
    }
}

/// Federated batch inference: broadcast the row set, collect one
/// routing bitmap per guest, then walk every tree locally. Returns the
/// served margins (logits) as an `n × 1` matrix. `host_vals` is the
/// host's own feature store as a dense block (possibly 0-column).
pub fn predict_gbdt_host(
    sessions: &[Session],
    model: &GbdtHostModel,
    host_vals: &Dense,
    rows: &[u32],
) -> TransportResult<Dense> {
    if sessions.len() != model.guest_widths.len() {
        return Err(TransportError::Setup(format!(
            "model spans {} guest links but {} sessions are connected",
            model.guest_widths.len(),
            sessions.len()
        )));
    }
    for sess in sessions {
        sess.ep.send(Msg::Support(rows.to_vec()))?;
    }
    let (map, want_records) = model.record_map();
    let mut link_bits: Vec<Vec<u8>> = Vec::with_capacity(sessions.len());
    for (l, sess) in sessions.iter().enumerate() {
        let (brows, brecords, bits) = sess.ep.recv_gb_bits()?;
        if brows != rows.len() as u64 || brecords != want_records[l] as u64 {
            return Err(TransportError::Setup(format!(
                "guest {l} answered a {brows}×{brecords} routing bitmap, \
                 expected {}×{}",
                rows.len(),
                want_records[l]
            )));
        }
        debug_assert_eq!(bits.len(), bit_bytes(brows * brecords));
        link_bits.push(bits);
    }
    let mut out = Dense::zeros(rows.len(), 1);
    for (p, &row) in rows.iter().enumerate() {
        let mut margin = model.base_score;
        for (t, tree) in model.trees.iter().enumerate() {
            let mut node = 0usize;
            loop {
                match &tree.nodes[node] {
                    Node::Leaf { weight } => {
                        margin += weight;
                        break;
                    }
                    Node::Split {
                        feature,
                        bucket,
                        left,
                        right,
                    } => {
                        let go_left = match map[t][node] {
                            Some((link, record)) => {
                                bit_at(&link_bits[link], record * rows.len() + p)
                            }
                            None => {
                                let Owner::Host { feature: hf } = model.owner(*feature) else {
                                    unreachable!("record map covers every guest split");
                                };
                                host_vals.get(row as usize, hf)
                                    <= model.host_edges[hf][*bucket as usize]
                            }
                        };
                        node = if go_left {
                            *left as usize
                        } else {
                            *right as usize
                        };
                    }
                }
            }
        }
        out.set(p, 0, margin);
    }
    Ok(out)
}

/// What the host's training run produced.
#[derive(Debug)]
pub struct GbdtHostRun {
    /// The host share of the forest.
    pub model: GbdtHostModel,
    /// Post-tree training logloss, one entry per boosting round.
    pub losses: Vec<f64>,
    /// Wall-clock seconds spent per tree (timing for the bench).
    pub tree_secs: Vec<f64>,
    /// Bytes the host sent per link over the whole training run.
    pub bytes_sent_per_link: Vec<u64>,
    /// Per-stage seconds inside the trees ([`crate::engine::StageTimes`]):
    /// `encrypt/upload` is the `⟦g|h⟧` upload, `decrypt/update` the
    /// histogram decryptions; the rest of `tree_secs` is split search
    /// and waiting for guests.
    pub stage_secs: Vec<(&'static str, f64)>,
}

/// What a guest's training run produced.
#[derive(Debug)]
pub struct GbdtGuestRun {
    /// The guest share of the forest.
    pub model: GbdtGuestModel,
    /// Bytes this guest sent over the whole training run.
    pub bytes_sent: u64,
    /// Per-stage seconds: `fed-matmul` is the histogram kernel (row
    /// gather, indicator contraction, fold).
    pub stage_secs: Vec<(&'static str, f64)>,
}

/// The oracle the host plugs into the shared grower: guest features are
/// answered over the wire, host features locally. Histogram regions are
/// assembled guests-first (link order) then host — the same global
/// feature order the collocated twin sees after `hstack`.
struct HostOracle<'a> {
    sessions: &'a [Session],
    stages: &'a Arc<StageTimes>,
    guest_totals: Vec<usize>,
    link_widths: Vec<usize>,
    host_buckets: &'a FeatureBuckets,
    host_offsets: Vec<usize>,
    host_total: usize,
    guest_width_sum: usize,
    gq: &'a [i64],
    hq: &'a [i64],
    frac_bits: u32,
}

impl HostOracle<'_> {
    /// Re-quantize a decrypted aggregate onto the i64 grid. The ring
    /// value is `Σ round(v·2^fb) · 2^fb` at scale 2, so the decoded
    /// f64 is `Σ round(v·2^fb) / 2^fb` — exact while the integer sum
    /// fits an f64 mantissa, which [`check_envelope`] guaranteed at
    /// set-up — and one rounding multiply recovers the integer.
    fn requantize(&self, v: f64) -> i64 {
        (v * (self.frac_bits as f64).exp2()).round() as i64
    }
}

impl SplitOracle for HostOracle<'_> {
    type Err = TransportError;

    fn hist(&mut self, rows: &[u32]) -> TransportResult<NodeHist> {
        for sess in self.sessions {
            sess.ep.send(Msg::U64(OP_HIST))?;
            sess.ep.send(Msg::Support(rows.to_vec()))?;
        }
        // Host region while the guests work.
        let host_hist = gbdt::local_hist(
            &self.host_buckets.ids,
            &self.host_offsets,
            self.host_total,
            rows,
            self.gq,
            self.hq,
        );
        let mut hist: NodeHist =
            Vec::with_capacity(self.guest_totals.iter().sum::<usize>() + self.host_total);
        for (l, sess) in self.sessions.iter().enumerate() {
            let ct = sess.ep.recv_ct()?;
            // The reply is `cells × 2` as the kernel produced it or one
            // folded `1 × 2·cells` row; anything else is refused.
            let cells = self.guest_totals[l];
            let _t = self.stages.timer(Stage::DecryptUpdate);
            let agg = decrypt_reply(&sess.own_sk, &ct, cells, 2)?;
            for b in 0..cells {
                hist.push((
                    self.requantize(agg.get(b, 0)),
                    self.requantize(agg.get(b, 1)),
                ));
            }
        }
        hist.extend_from_slice(&host_hist);
        Ok(hist)
    }

    fn route_left(&mut self, feature: u32, bucket: u32, rows: &[u32]) -> TransportResult<Vec<u32>> {
        let mut f = feature as usize;
        // Resolve ownership against the global feature layout
        // (guest links in order, host last).
        if f < self.guest_width_sum {
            let mut link = 0usize;
            let mut local = f;
            while local >= self.link_widths[link] {
                local -= self.link_widths[link];
                link += 1;
            }
            let sess = &self.sessions[link];
            sess.ep.send(Msg::U64(OP_SPLIT))?;
            sess.ep.send(Msg::GbSplit {
                feature: local as u32,
                bucket,
            })?;
            sess.ep.send(Msg::Support(rows.to_vec()))?;
            let left = sess.ep.recv_support()?;
            validate_subset(&left, rows).map_err(|why| {
                TransportError::Setup(format!("guest {link} routing reply {why}"))
            })?;
            Ok(left)
        } else {
            f -= self.guest_width_sum;
            let col = &self.host_buckets.ids[f];
            Ok(rows
                .iter()
                .copied()
                .filter(|&r| col[r as usize] as u32 <= bucket)
                .collect())
        }
    }
}

/// `left` must be an order-preserving subset of `rows`.
fn validate_subset(left: &[u32], rows: &[u32]) -> Result<(), String> {
    let mut it = rows.iter();
    for &l in left {
        if !it.any(|&r| r == l) {
            return Err(format!(
                "contains row {l} outside (or out of order of) the node"
            ));
        }
    }
    Ok(())
}

/// Exclusive bound on the rows a forest may train on — the GBDT half
/// of the numeric envelope. A histogram cell is `Σ_rows q` with
/// `q = round(v·2^fb)` and, for logloss, `|g| < 1`, `h ≤ ¼`, so
/// `|Σ q| ≤ rows·2^fb`. Two things must hold it:
///
/// - **the f64 the host decodes it through**: [`HostOracle::requantize`]
///   recovers the integer from `Σ q / 2^fb`, exact only below the
///   mantissa, `rows·max|g| < 2^(52−fb)` — the binding one (2^20 rows
///   at 32 fractional bits), on every backend;
/// - **its pack slot**, when `⟦g|h⟧` travels packed: the scale-2 sum
///   `Σ q·2^fb` must stay inside the slot's signed range,
///   `rows·max|g| < 2^(slot_bits−1−2·fb)` (`bf_paillier::pack`,
///   headroom rule), or it carries into the neighbouring `g`/`h` slot
///   undetected.
fn max_rows(frac_bits: u32, layout: Option<SlotLayout>) -> u64 {
    let mantissa = 52u32.saturating_sub(frac_bits);
    let slot = layout.map_or(u32::MAX, |l| l.slot_bits.saturating_sub(1 + 2 * frac_bits));
    1u64 << mantissa.min(slot)
}

/// Refuse, at forest set-up and on both roles, a store too tall for
/// [`max_rows`]. `gh_key` is the key `⟦g|h⟧` is encrypted under (the
/// host's own, the guest's peer).
fn check_envelope(
    cfg: &FedConfig,
    gh_key: &PublicKey,
    n: usize,
    frac_bits: u32,
) -> TransportResult<()> {
    let layout = gh_key
        .slot_layout()
        .filter(|_| cfg.paillier_mode == PaillierMode::Packed);
    let limit = max_rows(frac_bits, layout);
    if n as u64 >= limit {
        return Err(TransportError::Setup(format!(
            "{n} rows at {frac_bits} fractional bits overflow the histogram envelope \
             (fewer than {limit} rows keep every (feature, bucket) sum exact)"
        )));
    }
    Ok(())
}

/// Train the host side of a federated forest over already-handshaken
/// sessions (one per guest link, in link order). `store` holds the
/// host's labels and its own (possibly empty) feature slice.
pub fn run_gbdt_host(
    sessions: &mut [Session],
    store: &Dataset,
    params: &GbdtParams,
) -> TransportResult<GbdtHostRun> {
    let y = store
        .labels
        .as_ref()
        .ok_or_else(|| TransportError::Setup("gbdt host needs labels".into()))?
        .as_binary()
        .to_vec();
    let n = y.len();
    for sess in sessions.iter() {
        check_envelope(&sess.cfg, &sess.own_pk, n, params.frac_bits)?;
    }
    let bytes_base: Vec<u64> = sessions.iter().map(|s| s.ep.stats().bytes()).collect();
    // One accumulator for the host, as in the M-guest trainers.
    let stages = sessions
        .first()
        .map_or_else(Default::default, |s| Arc::clone(&s.stages));

    // Setup: per-link bucket counts announce each guest's feature grid.
    let mut guest_nbuckets: Vec<Vec<usize>> = Vec::with_capacity(sessions.len());
    for sess in sessions.iter() {
        let counts = sess.ep.recv_support()?;
        if counts.contains(&0) {
            return Err(TransportError::Setup(
                "guest announced a zero-bucket feature".into(),
            ));
        }
        guest_nbuckets.push(counts.into_iter().map(|c| c as usize).collect());
    }
    let link_widths: Vec<usize> = guest_nbuckets.iter().map(|c| c.len()).collect();
    let guest_width_sum: usize = link_widths.iter().sum();
    let guest_totals: Vec<usize> = guest_nbuckets.iter().map(|c| c.iter().sum()).collect();

    // Host's own feature grid (guests-first global order, host last).
    let empty = Features::Dense(Dense::zeros(n, 0));
    let host_feats = store.num.as_ref().unwrap_or(&empty);
    let host_buckets = bucketize_or_empty(host_feats, params.max_bins);
    let host_nbuckets = host_buckets.nbuckets();
    let (host_offsets, host_total) = bucket_offsets(&host_nbuckets);
    let nbuckets: Vec<usize> = guest_nbuckets
        .iter()
        .flatten()
        .copied()
        .chain(host_nbuckets.iter().copied())
        .collect();

    let mut margins = vec![params.base_score; n];
    let mut trees = Vec::with_capacity(params.trees);
    let mut losses = Vec::with_capacity(params.trees);
    let mut tree_secs = Vec::with_capacity(params.trees);
    for _ in 0..params.trees {
        let started = Instant::now();
        let (g, h) = grad_hess(&margins, &y);
        let gq: Vec<i64> = g
            .iter()
            .map(|&v| quantize_i64(v, params.frac_bits))
            .collect();
        let hq: Vec<i64> = h
            .iter()
            .map(|&v| quantize_i64(v, params.frac_bits))
            .collect();
        // ⟦g|h⟧ under the host's key, per link (independent
        // obfuscation streams).
        let mut gh = Dense::zeros(n, 2);
        for i in 0..n {
            gh.set(i, 0, g[i]);
            gh.set(i, 1, h[i]);
        }
        {
            let _t = stages.timer(Stage::EncryptUpload);
            for sess in sessions.iter() {
                sess.ep.send(Msg::U64(OP_NEW_TREE))?;
                sess.ep.send(Msg::Ct(sess.encrypt_upload(&gh)))?;
            }
        }
        let mut oracle = HostOracle {
            sessions,
            stages: &stages,
            guest_totals: guest_totals.clone(),
            link_widths: link_widths.clone(),
            host_buckets: &host_buckets,
            host_offsets: host_offsets.clone(),
            host_total,
            guest_width_sum,
            gq: &gq,
            hq: &hq,
            frac_bits: params.frac_bits,
        };
        let root: Vec<u32> = (0..n as u32).collect();
        let (tree, assign) = gbdt::grow_tree(params, &nbuckets, &gq, &hq, root, &mut oracle)?;
        for (r, w) in assign {
            margins[r as usize] += w;
        }
        losses.push(logloss_mean(&margins, &y));
        trees.push(tree);
        tree_secs.push(started.elapsed().as_secs_f64());
    }
    for sess in sessions.iter() {
        sess.ep.send(Msg::U64(OP_DONE))?;
    }
    Ok(GbdtHostRun {
        model: GbdtHostModel {
            trees,
            guest_widths: link_widths,
            host_edges: host_buckets.edges,
            base_score: params.base_score,
        },
        losses,
        tree_secs,
        bytes_sent_per_link: sessions
            .iter()
            .zip(&bytes_base)
            .map(|(s, &b)| s.ep.stats().bytes() - b)
            .collect(),
        stage_secs: stages.snapshot(),
    })
}

/// Bucketize, accepting the 0-column host store.
fn bucketize_or_empty(x: &Features, max_bins: usize) -> FeatureBuckets {
    if x.cols() == 0 {
        FeatureBuckets {
            edges: Vec::new(),
            ids: Vec::new(),
        }
    } else {
        bucketize(x, max_bins)
    }
}

/// Train the guest side of a federated forest: announce bucket counts,
/// then answer encrypted histogram and routing requests until
/// [`OP_DONE`].
pub fn run_gbdt_guest(
    sess: &mut Session,
    store: &Dataset,
    params: &GbdtParams,
) -> TransportResult<GbdtGuestRun> {
    let x = store
        .num
        .as_ref()
        .ok_or_else(|| TransportError::Setup("gbdt guest needs numerical features".into()))?;
    let n = x.rows();
    check_envelope(&sess.cfg, &sess.peer_pk, n, params.frac_bits)?;
    let bytes_base = sess.ep.stats().bytes();
    let buckets = bucketize(x, params.max_bins);
    let nbuckets = buckets.nbuckets();
    let (offsets, total) = bucket_offsets(&nbuckets);
    sess.ep
        .send(Msg::Support(nbuckets.iter().map(|&c| c as u32).collect()))?;

    // 0/1 bucket-indicator matrix: row r has a single 1.0 per feature,
    // at flat bucket column `offsets[f] + id`. `t_matmul_support` over
    // it contracts ⟦g|h⟧ into per-bucket aggregate sums.
    let mut triplets = Vec::with_capacity(n * nbuckets.len());
    for (f, col) in buckets.ids.iter().enumerate() {
        for (r, &id) in col.iter().enumerate() {
            triplets.push((r, (offsets[f] + id as usize) as u32, 1.0));
        }
    }
    let indicator = Features::Sparse(Csr::from_triplets(n, total, triplets));
    let support: Vec<u32> = (0..total as u32).collect();

    let mut gh: Option<bf_paillier::CtMat> = None;
    let mut records: Vec<GbRecord> = Vec::new();
    loop {
        match sess.ep.recv_u64()? {
            OP_NEW_TREE => {
                let ct = sess.ep.recv_ct()?;
                if ct.rows() != n || ct.cols() != 2 {
                    return Err(TransportError::Setup(format!(
                        "host uploaded a {}×{} gradient tensor for a {n}-row store",
                        ct.rows(),
                        ct.cols()
                    )));
                }
                gh = Some(ct);
            }
            OP_HIST => {
                let rows = sess.ep.recv_support()?;
                let idx = check_node_rows(&rows, n)?;
                let gh = gh.as_ref().ok_or_else(|| {
                    TransportError::Setup("OP_HIST before any OP_NEW_TREE".into())
                })?;
                let agg = {
                    let _t = sess.stages.timer(Stage::FedMatmul);
                    let agg = sess.peer_pk.t_matmul_support(
                        &indicator.select_rows(&idx),
                        &gh.select_rows(&idx),
                        &support,
                    );
                    // The host only decrypts this: fold the 2-slot rows
                    // so it opens ⌈cells/⌊slots/2⌋⌉ ciphertexts, not one
                    // per cell.
                    match sess.cfg.paillier_mode {
                        PaillierMode::Packed => sess.peer_pk.repack(agg),
                        PaillierMode::Scalar => agg,
                    }
                };
                sess.ep.send(Msg::Ct(agg))?;
            }
            OP_SPLIT => {
                let (feature, bucket) = sess.ep.recv_gb_split()?;
                let rows = sess.ep.recv_support()?;
                check_node_rows(&rows, n)?;
                let f = feature as usize;
                if f >= buckets.ids.len() || bucket as usize >= buckets.edges[f].len() {
                    return Err(TransportError::Setup(format!(
                        "host committed split ({feature}, {bucket}) outside \
                         this guest's announced grid"
                    )));
                }
                let col = &buckets.ids[f];
                let left: Vec<u32> = rows
                    .iter()
                    .copied()
                    .filter(|&r| col[r as usize] as u32 <= bucket)
                    .collect();
                sess.ep.send(Msg::Support(left))?;
                records.push(GbRecord {
                    feature,
                    threshold: buckets.edges[f][bucket as usize],
                });
            }
            OP_DONE => break,
            other => {
                return Err(TransportError::Setup(format!(
                    "unknown gbdt op-code {other:#x}"
                )))
            }
        }
    }
    Ok(GbdtGuestRun {
        model: GbdtGuestModel {
            width: x.cols(),
            records,
        },
        bytes_sent: sess.ep.stats().bytes() - bytes_base,
        stage_secs: sess.stages.snapshot(),
    })
}

/// Validate node-row indices against the store size.
fn check_node_rows(rows: &[u32], n: usize) -> TransportResult<Vec<usize>> {
    rows.iter()
        .map(|&r| {
            let i = r as usize;
            if i < n {
                Ok(i)
            } else {
                Err(TransportError::Setup(format!(
                    "node references row {i} of a {n}-row store"
                )))
            }
        })
        .collect()
}

/// Guest serving loop for a trained forest: answer routing bitmaps
/// against the local feature store until [`SERVE_SHUTDOWN`]. The tree
/// counterpart of [`crate::serve::serve_party_a`].
pub fn serve_gbdt_guest(
    sess: &mut Session,
    model: &GbdtGuestModel,
    store: &Dataset,
) -> TransportResult<ServeGuestReport> {
    let vals = store
        .num
        .as_ref()
        .ok_or_else(|| TransportError::Setup("gbdt guest needs numerical features".into()))?
        .to_dense();
    let bytes_base = sess.ep.stats().bytes();
    let mut batches = 0u64;
    let mut rows_served = 0u64;
    loop {
        match sess.ep.recv()? {
            Msg::Support(rows) => {
                let reply = model.routing_bits(&vals, &rows)?;
                sess.ep.send(reply)?;
                batches += 1;
                rows_served += rows.len() as u64;
            }
            Msg::U64(v) if v == SERVE_SHUTDOWN => break,
            Msg::U64(v) => {
                return Err(TransportError::Setup(format!(
                    "unexpected U64 {v:#x} in serve mode (not the shutdown sentinel)"
                )))
            }
            other => {
                return Err(TransportError::TypeMismatch {
                    expected: "Support",
                    got: other.kind(),
                })
            }
        }
    }
    Ok(ServeGuestReport {
        batches,
        rows: rows_served,
        bytes_sent: sess.ep.stats().bytes() - bytes_base,
    })
}

/// Host serving loop for a trained forest over the standard request
/// queue: identical coalescing, rejection and accounting semantics to
/// [`crate::serve::serve_party_b`], with the federated forward
/// replaced by [`predict_gbdt_host`].
pub fn serve_gbdt_host(
    sessions: &mut [Session],
    model: &GbdtHostModel,
    store: &Dataset,
    cfg: &ServeConfig,
    queue: RequestQueue,
) -> TransportResult<ServeReport> {
    let n = store.rows();
    let empty = Features::Dense(Dense::zeros(n, 0));
    let host_vals = store.num.as_ref().unwrap_or(&empty).to_dense();
    let stats: Vec<_> = sessions.iter().map(|s| Arc::clone(s.ep.stats())).collect();
    let bytes_base: u64 = stats.iter().map(|s| s.bytes()).sum();
    let loop_result = run_server_loop(
        cfg,
        n,
        queue,
        &mut || stats.iter().map(|s| s.bytes()).sum::<u64>() - bytes_base,
        &mut |rows| predict_gbdt_host(sessions, model, &host_vals, rows),
    );
    let mut report = match loop_result {
        Ok(r) => r,
        Err(e) => {
            for sess in sessions.iter() {
                let _ = sess.ep.send(Msg::U64(SERVE_SHUTDOWN));
            }
            return Err(e);
        }
    };
    for sess in sessions.iter() {
        sess.ep.send(Msg::U64(SERVE_SHUTDOWN))?;
    }
    report.bytes_sent = stats.iter().map(|s| s.bytes()).sum::<u64>() - bytes_base;
    Ok(report)
}

/// Everything a federated boosting run produced, both sides.
#[derive(Debug)]
pub struct GbdtFedOutcome {
    /// The host's run (model share, losses, timing, per-link traffic).
    pub host: GbdtHostRun,
    /// Guest runs in link order.
    pub guests: Vec<GbdtGuestRun>,
}

/// In-process federated training harness over channel transports: one
/// host thread (the caller) and one spawned thread per guest, wired
/// exactly like the MLP-family `train_federated_multi` (hello fan-in,
/// per-link seeds). `guests` are the guest feature slices in link
/// order; `host_store` has the labels (and the host's feature slice).
pub fn train_gbdt(
    cfg: &FedConfig,
    params: &GbdtParams,
    guests: Vec<Dataset>,
    host_store: &Dataset,
    seed: u64,
) -> GbdtFedOutcome {
    let m = guests.len();
    assert!(m >= 1, "train_gbdt needs at least one guest");
    let mut host_eps = Vec::with_capacity(m);
    let mut handles = Vec::with_capacity(m);
    for (i, store_a) in guests.into_iter().enumerate() {
        let (ep_a, ep_b) = bf_mpc::channel_pair();
        host_eps.push(ep_b);
        let cfg_a = cfg.clone();
        let params_a = params.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("gbdt-guest-{i}"))
                .stack_size(16 << 20)
                .spawn(move || {
                    send_hello(&ep_a, i, m).expect("guest hello");
                    let mut sess = Session::handshake(
                        ep_a,
                        cfg_a,
                        Role::A,
                        multi_party_seed(Role::A, i, seed),
                    )
                    .expect("guest handshake");
                    run_gbdt_guest(&mut sess, &store_a, &params_a).expect("guest transport")
                })
                .expect("spawn guest"),
        );
    }
    let ordered = collect_guests(host_eps, m).expect("guest fan-in");
    let mut sessions: Vec<Session> = ordered
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            Session::handshake(ep, cfg.clone(), Role::B, multi_party_seed(Role::B, i, seed))
                .expect("host handshake")
        })
        .collect();
    let host = run_gbdt_host(&mut sessions, host_store, params).expect("host transport");
    let guests = handles
        .into_iter()
        .map(|h| h.join().expect("guest panicked"))
        .collect();
    GbdtFedOutcome { host, guests }
}

/// Pre-handshaken guest runner for transports the caller sets up
/// (e.g. TCP): hello, handshake, train — the guest half of
/// [`train_gbdt`] as a standalone building block.
pub fn gbdt_guest_over(
    ep: Endpoint,
    cfg: FedConfig,
    params: &GbdtParams,
    link: usize,
    total: usize,
    store: &Dataset,
    seed: u64,
) -> TransportResult<GbdtGuestRun> {
    send_hello(&ep, link, total)?;
    let mut sess = Session::handshake(ep, cfg, Role::A, multi_party_seed(Role::A, link, seed))?;
    run_gbdt_guest(&mut sess, store, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Backend;
    use bf_datagen::{generate_tree, vsplit_multi};
    use bf_ml::gbdt::CollocatedGbdt;
    use bf_mpc::wire::WireError;

    /// 512-bit keys at 16 fractional bits hold 7 slots of 72 bits, so
    /// the guest folds its 2-slot histogram rows 3-to-1.
    fn folding_cfg() -> FedConfig {
        FedConfig {
            backend: Backend::Paillier { key_bits: 512 },
            frac_bits: 16,
            ..FedConfig::paillier_test()
        }
    }

    fn params(cfg: &FedConfig) -> GbdtParams {
        GbdtParams {
            trees: 2,
            max_bins: 8,
            frac_bits: cfg.frac_bits,
            ..GbdtParams::default()
        }
    }

    #[test]
    fn row_limit_is_the_tighter_of_mantissa_and_slot() {
        // The mantissa binds at every real configuration: 2^20 rows at
        // the benchmark's 32 fractional bits, with 2^39 to spare in the
        // 104-bit slot.
        let l = SlotLayout::for_key(1024, 32);
        assert_eq!(max_rows(32, l), 1 << 20);
        assert_eq!(max_rows(32, None), 1 << 20);
        assert_eq!(max_rows(24, SlotLayout::for_key(256, 24)), 1 << 28);
        // The slot binds once frac_bits is small: 40 headroom bits, one
        // of them the sign.
        assert_eq!(max_rows(8, SlotLayout::for_key(256, 8)), 1 << 39);
        assert_eq!(max_rows(8, None), 1 << 44);
        // A narrower slot than this crate lays out, to see the formula.
        let narrow = SlotLayout {
            slot_bits: 2 * 20 + 6,
            slots: 4,
        };
        assert_eq!(max_rows(20, Some(narrow)), 1 << 5);
        // No mantissa left at all: not even one row.
        assert_eq!(max_rows(52, None), 1);
        assert_eq!(max_rows(60, None), 1);
    }

    #[test]
    fn a_store_past_the_envelope_is_refused_on_both_roles() {
        // 50 fractional bits leave 2^(52−50) = 4: three rows train (and
        // equal the twin), four are refused before anything is sent.
        let cfg = FedConfig {
            frac_bits: 50,
            ..FedConfig::plain()
        };
        let p = params(&cfg);
        let ds = generate_tree(3, 4, 5);
        let split = vsplit_multi(&ds, 1);
        let fed = train_gbdt(&cfg, &p, split.guests, &split.party_b, 7);
        let (twin, losses) = CollocatedGbdt::train(&ds, &p);
        assert_eq!(fed.host.model.trees, twin.trees);
        assert_eq!(fed.host.losses, losses);

        let split = vsplit_multi(&generate_tree(4, 4, 5), 1);
        let (guest, host) = crate::session::run_pair(
            &cfg,
            7,
            {
                let (p, store) = (p.clone(), split.guests[0].clone());
                move |mut sess| run_gbdt_guest(&mut sess, &store, &p).map(|_| ())
            },
            |sess| run_gbdt_host(&mut [sess], &split.party_b, &p).map(|_| ()),
        );
        for (role, err) in [("guest", guest), ("host", host)] {
            let err = err.expect_err("four rows at 50 fractional bits");
            assert!(
                matches!(&err, TransportError::Setup(why) if why.contains("envelope")),
                "{role}: {err}"
            );
        }
    }

    #[test]
    fn stage_timers_stay_inside_the_trees_they_time() {
        let cfg = folding_cfg();
        let split = vsplit_multi(&generate_tree(48, 6, 13), 2);
        let fed = train_gbdt(&cfg, &params(&cfg), split.guests, &split.party_b, 41);
        let trees: f64 = fed.host.tree_secs.iter().sum();
        let of = |stages: &[(&str, f64)], stage: Stage| {
            let (_, secs) = stages.iter().find(|(l, _)| *l == stage.label()).unwrap();
            *secs
        };
        let upload = of(&fed.host.stage_secs, Stage::EncryptUpload);
        let decrypt = of(&fed.host.stage_secs, Stage::DecryptUpdate);
        assert!(upload > 0.0 && decrypt > 0.0);
        // Non-overlapping scopes on the host thread, all inside a tree.
        let booked: f64 = fed.host.stage_secs.iter().map(|(_, s)| s).sum();
        assert_eq!(booked, upload + decrypt, "{:?}", fed.host.stage_secs);
        assert!(
            booked <= trees,
            "{booked} s of stages in {trees} s of trees"
        );
        for g in &fed.guests {
            let kernel = of(&g.stage_secs, Stage::FedMatmul);
            assert!(kernel > 0.0 && kernel <= trees);
            assert_eq!(g.stage_secs.iter().map(|(_, s)| s).sum::<f64>(), kernel);
        }
    }

    #[test]
    fn a_histogram_reply_the_host_cannot_use_is_a_typed_error() {
        // A guest that follows the protocol up to the first histogram
        // request and then answers with the whole `n × 2` gradient
        // tensor instead of `cells × 2` sums — or with six cells, but
        // as a Plain body the host's Paillier key has nothing to do with.
        use bf_paillier::{CtMat, ObfMode, Obfuscator};
        let replies: [fn(CtMat) -> CtMat; 2] = [
            |gh| gh,
            |_| {
                let (pk, _) = bf_paillier::keys::plain_keys(16);
                let obf = Obfuscator::new(&pk, ObfMode::Pool(1), 1);
                pk.encrypt(&Dense::zeros(6, 2), &obf)
            },
        ];
        for reply in replies {
            let cfg = folding_cfg();
            let split = vsplit_multi(&generate_tree(16, 4, 3), 1);
            let p = params(&cfg);
            let (_, host) = crate::session::run_pair(
                &cfg,
                9,
                move |sess| {
                    sess.ep.send(Msg::Support(vec![3, 3])).unwrap();
                    assert_eq!(sess.ep.recv_u64().unwrap(), OP_NEW_TREE);
                    let gh = sess.ep.recv_ct().unwrap();
                    assert_eq!(sess.ep.recv_u64().unwrap(), OP_HIST);
                    sess.ep.recv_support().unwrap();
                    sess.ep.send(Msg::Ct(reply(gh))).unwrap();
                },
                |sess| run_gbdt_host(&mut [sess], &split.party_b, &p),
            );
            let err = host.expect_err("16×2 values, or a Plain body, for 6 cells");
            assert!(
                matches!(&err, TransportError::Wire(WireError::Malformed(_))),
                "{err}"
            );
        }
    }
}
