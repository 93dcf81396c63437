//! Shared runners of the reproduction harness.
//!
//! `bf-bench <artifact>` (see `src/main.rs`) prints one table or figure
//! of the paper, with the same rows/series the publication reports,
//! over the synthetic datasets of `bf-datagen` (scaling documented in
//! `docs/REPRODUCING.md`). Each artifact is a few lines over one of
//! these runners:
//!
//! * [`train_fed`] — one federated training run from a train and a
//!   test split;
//! * [`timing_row`] — a Table 5/6 row: BlindFL's source-layer matmul
//!   time per batch beside SecureML's and client-aided SecureML's;
//! * [`sweep`] — a Table 7/8 sweep: variant → relative time,
//!   validation accuracy;
//! * [`quality`] — a Figure 12/15 row: NonFed-Party B,
//!   NonFed-collocated, BlindFL.
//!
//! Wall-clock cost is measured under [`cfg_timing`] (real Paillier);
//! model quality under `FedConfig::plain()` (the protocols are
//! lossless, so convergence is identical; verified by `blindfl`'s
//! equivalence tests).

use bf_baselines::secureml::{
    batch_memory_bytes, secureml_batch_cost, SecuremlOutcome, TripletMode,
};
use bf_datagen::{generate, vsplit, DatasetSpec, Shape, VflData};
use bf_ml::data::Dataset;
use bf_ml::{DlrmModel, GlmModel, MlpModel, Model, TrainConfig, WdlModel};
use bf_paillier::ObfMode;
use bf_tensor::Dense;
use bf_util::{Stopwatch, Table};
use blindfl::config::{Backend, FedConfig};
use blindfl::models::FedSpec;
use blindfl::session::run_pair;
use blindfl::source::matmul::{aggregate_a, aggregate_b};
use blindfl::source::MatMulSource;
use blindfl::train::{train_federated, FedOutcome, FedTrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mini-batch size of every timing measurement.
pub const BATCH_SIZE: usize = 128;

/// Training epochs of a [`quality`] row.
pub const QUALITY_EPOCHS: usize = 10;

/// Memory budget for the SecureML baselines' dense state (the paper's
/// testbed had 375 GB of RAM; ours does not).
const MEM_LIMIT: usize = 8 << 30;

/// Paillier configuration for the timing experiments.
pub fn cfg_timing() -> FedConfig {
    FedConfig {
        backend: Backend::Paillier { key_bits: 512 },
        obf_mode: ObfMode::Pool(64),
        ..FedConfig::paillier_default()
    }
}

/// Row-scaled dataset specs for the quality experiments (Figure 12 et
/// al.): feature spaces shrunk for the ultra-high-dimensional sets,
/// row counts cut to laptop scale. Documented in `docs/REPRODUCING.md`.
pub fn quality_spec(name: &str) -> DatasetSpec {
    let s = bf_datagen::spec(name);
    match name {
        "a9a" | "w8a" | "connect-4" => s.scaled(10, 1),
        "news20" => s.scaled(5, 10),
        "higgs" => s.scaled(1000, 1),
        "avazu-app" => s.scaled(2000, 100),
        "industry" => s.scaled(20_000, 1000),
        "fmnist" => s.scaled(10, 1),
        other => panic!("no quality scaling for {other}"),
    }
}

/// Timing specs keep the **full feature dimensionality** (that is what
/// drives the Table 5 comparison) but only enough rows for a few
/// batches.
pub fn timing_spec(name: &str) -> DatasetSpec {
    let mut s = bf_datagen::spec(name);
    s.train_rows = 640;
    s.test_rows = 128;
    s
}

/// Measure the federated MatMul source layer's per-mini-batch cost
/// (forward + backward, exactly the "matrix multiplication" portion the
/// paper times): returns the median seconds of `batches` measured
/// batches after one warm-up.
pub fn matmul_source_batch_secs(
    cfg: &FedConfig,
    train_a: &Dataset,
    train_b: &Dataset,
    out: usize,
    batch_size: usize,
    batches: usize,
) -> f64 {
    let n = train_a.rows();
    let idxs: Vec<Vec<usize>> = (0..=batches)
        .map(|i| (0..batch_size).map(|j| (i * batch_size + j) % n).collect())
        .collect();
    let a_view = train_a.clone();
    let b_view = train_b.clone();
    let idx_a = idxs.clone();
    let grad_template = Dense::zeros(batch_size, out);
    let (_, secs) = run_pair(
        cfg,
        0xBEEF,
        move |mut sess| {
            let mut layer = MatMulSource::init(&mut sess, a_view.num_dim(), out).unwrap();
            for idx in &idx_a {
                let batch = a_view.select(idx);
                let x = batch.num.as_ref().unwrap();
                let z = layer.forward(&mut sess, x, true).unwrap();
                aggregate_a(&sess, z).unwrap();
                layer.backward_a(&mut sess).unwrap();
            }
        },
        move |mut sess| {
            let mut layer = MatMulSource::init(&mut sess, b_view.num_dim(), out).unwrap();
            let mut secs: Vec<f64> = idxs
                .iter()
                .map(|idx| {
                    let mut sw = Stopwatch::new();
                    sw.start();
                    let batch = b_view.select(idx);
                    let x = batch.num.as_ref().unwrap();
                    let z_own = layer.forward(&mut sess, x, true).unwrap();
                    let _z = aggregate_b(&sess, z_own).unwrap();
                    // A synthetic ∇Z of the right shape: the cost being
                    // measured is the protocol's, not the loss function's.
                    let g = grad_template.map(|_| 0.01);
                    layer.backward_b(&mut sess, &g).unwrap();
                    sw.stop();
                    sw.secs()
                })
                .skip(1) // the warm-up batch
                .collect();
            secs.sort_by(f64::total_cmp);
            let n = secs.len();
            (secs[(n - 1) / 2] + secs[n / 2]) / 2.0
        },
    );
    secs
}

/// Format seconds like the paper's Table 5 (three decimals, or `<1 ms`).
pub fn fmt_secs(s: f64) -> String {
    if s < 0.0005 {
        "<0.001".to_string()
    } else {
        format!("{s:.3}")
    }
}

/// Render a dataset's sparsity label like Table 5 ("88.72%" / "Dense").
pub fn sparsity_label(shape: &Shape) -> String {
    match shape {
        Shape::Dense { .. } | Shape::Image { .. } => "Dense".to_string(),
        s => format!("{:.2}%", s.sparsity() * 100.0),
    }
}

/// Train `spec` federatedly for `epochs` (the other [`TrainConfig`]
/// fields at their defaults) from a train and a test split.
pub fn train_fed(
    spec: &FedSpec,
    cfg: &FedConfig,
    epochs: usize,
    snapshot_u_a: bool,
    train: &VflData,
    test: &VflData,
    seed: u64,
) -> FedOutcome {
    let tc = FedTrainConfig {
        base: TrainConfig {
            epochs,
            ..Default::default()
        },
        snapshot_u_a,
        ..Default::default()
    };
    train_federated(
        spec,
        cfg,
        &tc,
        train.party_a.clone(),
        train.party_b.clone(),
        test.party_a.clone(),
        test.party_b.clone(),
        seed,
    )
}

/// A Table 5/6 timing table whose first column is headed `first`.
pub fn timing_table(first: &str) -> Table {
    Table::new(vec![
        first,
        "Model",
        "BlindFL",
        "SecureML",
        "SecureML (client-aided)",
    ])
}

/// One [`timing_table`] row: the per-mini-batch matmul time of dataset
/// `name` at its full feature dimension (`seed` draws the rows) under
/// BlindFL's source layer (mean of `batches`), SecureML
/// (HE-assisted triplets) and client-aided SecureML. A SecureML cell
/// that would exceed `budget_secs` is measured at a reduced dimension
/// and extrapolated linearly (marked `~`); one whose dense state
/// exceeds the memory budget reports OOM, as in the paper.
pub fn timing_row(
    name: &str,
    model: &str,
    out: usize,
    seed: u64,
    batches: usize,
    budget_secs: f64,
) -> Vec<String> {
    let spec = timing_spec(name);
    let d = spec.shape.features();
    eprintln!("[{name}] generating ({d} features)...");
    let (train_ds, _) = generate(&spec, seed);
    let v = vsplit(&train_ds);
    eprintln!("[{name}] BlindFL source layer...");
    let blindfl = matmul_source_batch_secs(
        &cfg_timing(),
        &v.party_a,
        &v.party_b,
        out,
        BATCH_SIZE,
        batches,
    );
    eprintln!("[{name}] SecureML (HE-assisted)...");
    let he = TripletMode::HeAssisted { key_bits: 512 };
    let sml = secureml_batch_cost(BATCH_SIZE, d, out, he, budget_secs, MEM_LIMIT);
    eprintln!("[{name}] SecureML (client-aided)...");
    vec![
        format!("{name} ({})", sparsity_label(&spec.shape)),
        model.to_string(),
        fmt_secs(blindfl),
        fmt_outcome(&sml),
        client_aided_cost(d, out, budget_secs),
    ]
}

/// Client-aided SecureML: when the dense state exceeds memory we
/// measure at the largest feasible dimension and extrapolate.
fn client_aided_cost(d: usize, out: usize, budget_secs: f64) -> String {
    let cost = |d| {
        let ca = TripletMode::ClientAided;
        secureml_batch_cost(BATCH_SIZE, d, out, ca, budget_secs, MEM_LIMIT)
    };
    if batch_memory_bytes(BATCH_SIZE, d, out) <= MEM_LIMIT {
        return fmt_outcome(&cost(d));
    }
    // Largest dimension whose dense state fits the budget (with margin
    // for the generated dataset).
    let fixed = batch_memory_bytes(BATCH_SIZE, 0, out);
    let per_d = batch_memory_bytes(BATCH_SIZE, 1, out) - fixed;
    let d_run = ((MEM_LIMIT * 9 / 10 - fixed) / per_d)
        .min(d / 2)
        .max(100_000);
    match cost(d_run) {
        SecuremlOutcome::Ok { secs, .. } => format!(
            "~{} (extrap {}x)",
            fmt_secs(secs * d as f64 / d_run as f64),
            d / d_run
        ),
        oom => fmt_outcome(&oom),
    }
}

/// Format a SecureML cell: seconds (`~` when extrapolated) or OOM.
fn fmt_outcome(o: &SecuremlOutcome) -> String {
    match o {
        SecuremlOutcome::Ok { secs, extrapolated } => {
            format!(
                "{}{}",
                if *extrapolated { "~" } else { "" },
                fmt_secs(*secs)
            )
        }
        SecuremlOutcome::Oom { bytes } => format!("OOM ({} GiB)", bytes >> 30),
    }
}

/// A scalability sweep over connect-4 MLPs (Tables 7 and 8), one row
/// per variant. Time: `secs(variant, train, test)` on the timing split
/// (full dimensionality), relative to the first variant's. Accuracy:
/// the MLP of hidden-then-output `widths(variant)` trained for five
/// epochs on the quality split. `seed` draws both splits and the runs.
pub fn sweep(
    column: &str,
    variants: &[usize],
    seed: u64,
    widths: impl Fn(usize) -> Vec<usize>,
    secs: impl Fn(usize, &VflData, &VflData) -> f64,
) -> Table {
    let split = |spec| {
        let (train, test) = generate(&spec, seed);
        (vsplit(&train), vsplit(&test))
    };
    let (train, test) = split(timing_spec("connect-4"));
    let secs: Vec<f64> = variants
        .iter()
        .map(|&v| {
            eprintln!("[{column} {v}] timing...");
            secs(v, &train, &test)
        })
        .collect();
    let (train, test) = split(quality_spec("connect-4"));
    let mut t = Table::new(vec![column, "Relative Time Cost", "Validation Accuracy"]);
    for (&v, s) in variants.iter().zip(&secs) {
        eprintln!("[{column} {v}] accuracy...");
        let spec = FedSpec::Mlp { widths: widths(v) };
        let plain = FedConfig::plain();
        let acc = train_fed(&spec, &plain, 5, false, &train, &test, seed)
            .report
            .test_metric;
        t.row(vec![
            v.to_string(),
            format!("{:.2}x", s / secs[0]),
            format!("{:.1}%", acc * 100.0),
        ]);
    }
    t
}

/// Headers of a [`Quality`] row's [`Quality::cells`].
pub const QUALITY_COLUMNS: [&str; 4] = [
    "NonFed-Party B",
    "NonFed-collocated",
    "BlindFL",
    "BlindFL vs Party B",
];

/// Test metrics of one model on one dataset, trained three ways.
pub struct Quality {
    /// The metric's name: AUC for a binary task, accuracy otherwise.
    pub metric: &'static str,
    /// Non-federated, on Party B's features alone.
    pub party_b: f64,
    /// Non-federated, on the collocated features.
    pub collocated: f64,
    /// Federated (BlindFL).
    pub blindfl: f64,
    /// BlindFL's training loss after each mini-batch.
    pub losses: Vec<f64>,
}

impl Quality {
    /// The [`QUALITY_COLUMNS`] cells.
    pub fn cells(&self) -> Vec<String> {
        vec![
            format!("{:.3}", self.party_b),
            format!("{:.3}", self.collocated),
            format!("{:.3}", self.blindfl),
            format!("{:+.3}", self.blindfl - self.party_b),
        ]
    }
}

/// A model family: its [`FedSpec`] at an output width.
pub type ModelAt = fn(usize) -> FedSpec;

/// Train `model(out)` (`out` = 1 for a binary task, else the class
/// count) on dataset `name` at quality scale for [`QUALITY_EPOCHS`]:
/// non-federated on Party B's half, non-federated collocated, and
/// BlindFL on the Plain backend. `seed` draws the data and the
/// federated run, `init_seed` the non-federated models' weights.
pub fn quality(name: &str, model: ModelAt, seed: u64, init_seed: u64) -> Quality {
    let spec = quality_spec(name);
    let (train_ds, test_ds) = generate(&spec, seed);
    let (train, test) = (vsplit(&train_ds), vsplit(&test_ds));
    let binary = spec.classes == 2;
    let fed_spec = model(if binary { 1 } else { spec.classes });
    let mut rng = StdRng::seed_from_u64(init_seed);
    let epochs = QUALITY_EPOCHS;
    let party_b = nonfed_metric(&fed_spec, &mut rng, &train.party_b, &test.party_b, epochs);
    let collocated = nonfed_metric(&fed_spec, &mut rng, &train_ds, &test_ds, epochs);
    let plain = FedConfig::plain();
    let report = train_fed(&fed_spec, &plain, epochs, false, &train, &test, seed).report;
    Quality {
        metric: if binary { "AUC" } else { "Accuracy" },
        party_b,
        collocated,
        blindfl: report.test_metric,
        losses: report.losses,
    }
}

/// Test metric of the non-federated counterpart of `spec`, initialised
/// from `rng` and trained on `train` for `epochs`.
pub fn nonfed_metric(
    spec: &FedSpec,
    rng: &mut StdRng,
    train: &Dataset,
    test: &Dataset,
    epochs: usize,
) -> f64 {
    fn run<M: Model>(mut m: M, train: &Dataset, test: &Dataset, epochs: usize) -> f64 {
        let tc = TrainConfig {
            epochs,
            ..Default::default()
        };
        bf_ml::train(&mut m, train, test, &tc).test_metric
    }
    let dim = train.num_dim();
    let cat = || train.cat.as_ref().expect("categorical features");
    match spec {
        FedSpec::Glm { out } => run(GlmModel::new(rng, dim, *out), train, test, epochs),
        FedSpec::Mlp { widths } => run(MlpModel::new(rng, dim, widths), train, test, epochs),
        FedSpec::Wdl {
            emb_dim,
            deep_hidden,
            out,
        } => {
            let (vocab, fields) = (cat().vocab(), cat().fields());
            let m = WdlModel::new(rng, dim, vocab, fields, *emb_dim, deep_hidden, *out);
            run(m, train, test, epochs)
        }
        FedSpec::Dlrm {
            emb_dim,
            vec_dim,
            top_hidden,
        } => {
            let (vocab, fields) = (cat().vocab(), cat().fields());
            let (bottom, out) = ([*vec_dim], spec.out_dim());
            let m = DlrmModel::new(rng, dim, vocab, fields, *emb_dim, &bottom, top_hidden, out);
            run(m, train, test, epochs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_datagen::{generate, vsplit};

    #[test]
    fn timing_spec_keeps_dims() {
        let s = timing_spec("news20");
        assert_eq!(s.shape.features(), 62_000);
        assert_eq!(s.train_rows, 640);
    }

    #[test]
    fn source_timer_runs() {
        let s = bf_datagen::spec("a9a").scaled(200, 1);
        let (train, _) = generate(&s, 1);
        let v = vsplit(&train);
        let secs = matmul_source_batch_secs(&FedConfig::plain(), &v.party_a, &v.party_b, 1, 32, 2);
        assert!(secs > 0.0 && secs < 5.0);
    }

    #[test]
    fn labels_and_formats() {
        assert_eq!(fmt_secs(0.0001), "<0.001");
        assert_eq!(fmt_secs(0.0191), "0.019");
        assert_eq!(sparsity_label(&Shape::Dense { features: 28 }), "Dense");
    }
}
