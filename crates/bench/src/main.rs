//! `bf-bench <artifact>` — reproduce one table or figure of the paper.
//!
//! Every artifact is registered once, in [`ARTIFACTS`]; the same table
//! drives dispatch and the usage text. No argument, or an unknown
//! name, prints the list to stderr and exits with code 2.

use bf_baselines::attacks::{
    activation_attack_accuracy, activation_attack_auc, derivative_attack_accuracy,
};
use bf_baselines::split::{SplitGlm, SplitWdl};
use bf_bench::{
    cfg_timing, matmul_source_batch_secs, nonfed_metric, quality, quality_spec, sweep, timing_row,
    timing_table, train_fed, ModelAt, BATCH_SIZE, QUALITY_COLUMNS, QUALITY_EPOCHS,
};
use bf_datagen::{catalog, generate, vsplit, DatasetSpec, VflData};
use bf_ml::data::{BatchIter, Labels};
use bf_ml::Sgd;
use bf_tensor::Dense;
use bf_util::{Stopwatch, Table};
use blindfl::config::{FedConfig, GradMode};
use blindfl::inspect::{embed_share_vs_table, matmul_share_vs_weight, share_informativeness};
use blindfl::models::FedSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every artifact: name (the command-line argument), what it prints,
/// and the function that prints it.
const ARTIFACTS: &[(&str, &str, fn())] = &[
    ("table4", "dataset statistics", table4),
    ("table5", "source-layer matmul time per batch", table5),
    (
        "table6_fig15",
        "fmnist MLP: matmul time and model quality",
        table6_fig15,
    ),
    ("table7", "scalability vs source-layer width", table7),
    ("table8", "scalability vs layer count", table8),
    ("fig9", "label leakage, forward activations", fig9),
    ("fig10", "label leakage, backward derivatives", fig10),
    ("fig11", "weights vs their share pieces", fig11),
    ("fig12", "model quality vs baselines", fig12),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.as_slice() {
        [name] => resolve(name),
        _ => Err(usage()),
    };
    match run {
        Ok(run) => run(),
        Err(msg) => {
            eprint!("{msg}");
            std::process::exit(2);
        }
    }
}

fn usage() -> String {
    let mut s = "usage: bf-bench <artifact>\n\nartifacts:\n".to_string();
    for (name, about, _) in ARTIFACTS {
        s += &format!("  {name:<14}{about}\n");
    }
    s
}

/// The function registered as `name`, or the usage text.
fn resolve(name: &str) -> Result<fn(), String> {
    ARTIFACTS
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(.., run)| run)
        .ok_or_else(|| format!("unknown artifact `{name}`\n{}", usage()))
}

/// Table 4 — dataset inventory: the paper-scale statistics and the
/// scaled variants this reproduction actually runs (see
/// `docs/REPRODUCING.md` for the substitution rationale).
fn table4() {
    println!("Table 4: datasets (paper-scale statistics)\n");
    inventory(catalog(), fmt_k).print();
    println!("\nScaled variants used by the quality harnesses:\n");
    let scaled = catalog().iter().map(|s| quality_spec(s.name)).collect();
    inventory(scaled, |n| n.to_string()).print();
}

fn inventory(specs: Vec<DatasetSpec>, count: fn(usize) -> String) -> Table {
    let mut t = Table::new(vec![
        "Dataset",
        "#Instances (train/test)",
        "#Features",
        "Avg #nnz",
        "#Classes",
    ]);
    for s in specs {
        t.row(vec![
            s.name.to_string(),
            format!("{}/{}", count(s.train_rows), count(s.test_rows)),
            count(s.shape.features()),
            s.shape.avg_nnz().to_string(),
            s.classes.to_string(),
        ]);
    }
    t
}

fn fmt_k(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{}M", n / 1_000_000)
    } else if n >= 1_000 {
        format!("{}K", n / 1_000)
    } else {
        n.to_string()
    }
}

/// Table 5 — per-mini-batch training time of the first-layer matrix
/// multiplication: BlindFL (federated MatMul source, real Paillier)
/// vs SecureML (HE-assisted triplets) vs client-aided SecureML.
///
/// The feature dimensionalities are the paper's; row counts are just
/// enough for a few batches (the per-batch cost is dimension- and
/// sparsity-driven).
fn table5() {
    println!("Table 5: per-mini-batch matmul time (seconds), batch size {BATCH_SIZE}\n");
    let mut t = timing_table("Dataset (sparsity)");
    for (name, model, out) in [
        ("a9a", "LR", 1),
        ("w8a", "LR", 1),
        ("connect-4", "MLP", 64),
        ("higgs", "LR", 1),
        ("news20", "MLR", 20),
        ("avazu-app", "LR", 1),
        ("industry", "LR", 1),
    ] {
        t.row(timing_row(name, model, out, 0x7AB5, 3, 8.0));
    }
    t.print();
    println!(
        "\nExpected shape (paper): BlindFL beats SecureML everywhere (≫10× on sparse data);\n\
         client-aided SecureML wins at low dimension but loses to BlindFL on the\n\
         very-high-dimensional sparse sets; plain SecureML OOMs/times out there."
    );
}

/// Width of the Fashion-MNIST MLP's source layer (Table 6, Figure 15).
const FMNIST_HIDDEN: usize = 64;

/// Table 6 + Figure 15 — Fashion-MNIST MLP (appendix D.1): each 28×28
/// image is split into two half-images (Party A: first half of the
/// pixels; Party B: second half plus the labels). Table 6 reports the
/// per-batch matmul time, Figure 15 the model quality.
fn table6_fig15() {
    println!("Table 6: fmnist MLP — per-mini-batch matmul time (seconds), batch {BATCH_SIZE}\n");
    let mut t = timing_table("Dataset");
    t.row(timing_row("fmnist", "MLP", FMNIST_HIDDEN, 0x7AB6, 2, 20.0));
    t.print();
    println!("\nExpected shape: BlindFL < SecureML, client-aided fastest (dense, low-dim).\n");

    println!("Figure 15: fmnist MLP — testing accuracy\n");
    let mlp = |out| FedSpec::Mlp {
        widths: vec![FMNIST_HIDDEN, 32, out],
    };
    let mut t = Table::new(QUALITY_COLUMNS.to_vec());
    t.row(quality("fmnist", mlp, 0xF15, 0xF15).cells());
    t.print();
    println!(
        "\nExpected shape (paper: 80.9% / 86.2% / 86.2%): BlindFL ≈ collocated > Party-B-only\n\
         (two class pairs are distinguishable only from Party A's half of the image)."
    );
}

/// Timed batches (after one warm-up) behind each Table 7 width; the
/// table divides median batches, so one slow batch moves no ratio.
const TABLE7_BATCHES: usize = 8;

/// Table 7 — scalability w.r.t. the source layer's output
/// dimensionality (connect-4, 3-layer MLP; first-layer width swept
/// over {32, 64, 128, 256}). The paper finds the training time grows
/// ≈linearly with the width (the cryptography is the bottleneck) while
/// validation accuracy moves only slightly.
fn table7() {
    println!("Table 7: scalability vs source-layer output width (connect-4, 3-layer MLP)\n");
    let widths = |w| vec![w, 16, 3];
    let secs = |w, train: &VflData, _: &VflData| {
        let (a, b) = (&train.party_a, &train.party_b);
        matmul_source_batch_secs(&cfg_timing(), a, b, w, BATCH_SIZE, TABLE7_BATCHES)
    };
    sweep("Hidden Dim", &[32, 64, 128, 256], 0x7AB7, widths, secs).print();
    println!("\nExpected shape: time ≈ width/32 (linear in OUT); accuracy changes little.");
}

/// Table 8 — scalability w.r.t. the number of layers (connect-4 MLP;
/// 32-unit layers inserted between a 64-wide source layer and a
/// 16-wide penultimate layer). The source layer dominates the cost, so
/// additional *local* hidden layers at Party B are nearly free. Time is
/// one Paillier epoch of full federated batches (source + local top).
fn table8() {
    println!("Table 8: scalability vs number of layers (connect-4, MLP)\n");
    // 3 layers: 64, 16, 3; k>3 inserts (k-3) 32-unit layers after 64.
    let widths = |k: usize| [vec![64], vec![32; k - 3], vec![16, 3]].concat();
    let secs = |k, train: &VflData, test: &VflData| {
        let spec = FedSpec::Mlp { widths: widths(k) };
        let mut sw = Stopwatch::new();
        sw.start();
        train_fed(&spec, &cfg_timing(), 1, false, train, test, 0x7AB8);
        sw.stop();
        sw.secs()
    };
    sweep("# Layers", &[3, 4, 5, 6], 0x7AB8, widths, secs).print();
    println!("\nExpected shape: ≈1.0x across layer counts (the source layer dominates).");
}

/// Training epochs of every Figure 9 curve.
const FIG9_EPOCHS: usize = 10;

/// Figure 9 — label leakage from forward activations.
///
/// Party A predicts the labels from its local view of the first layer:
/// `X_A·W_A` under split learning (it owns `W_A`), `X_A·U_A` under
/// BlindFL (it owns only the share `U_A`), and `X_A·U_A` under the
/// ModelSS-without-GradSS ablation (`U_A` updated with plaintext
/// gradients against a frozen `V_A` of varying magnitude). The paper's
/// finding: everything except full BlindFL leaks.
fn fig9() {
    fig9_dataset("w8a", 1, "Testing AUC");
    fig9_dataset("news20", 20, "Testing Accuracy");
}

fn fig9_dataset(name: &str, classes: usize, metric_name: &str) {
    let spec = quality_spec(name);
    let (train_ds, test_ds) = generate(&spec, 0xF19);
    let train_v = vsplit(&train_ds);
    let test_v = vsplit(&test_ds);
    let out = if classes == 2 { 1 } else { classes };

    println!("\nFigure 9: predicting labels from Party A's activations — {name} ({metric_name})\n");
    let mut table = Table::new(vec![
        "Epoch",
        "NonFed-collocated",
        "SplitLearning (X_A·W_A)",
        "BlindFL (X_A·U_A)",
        "noGradSS v=1",
        "noGradSS v=5",
        "noGradSS v=10",
    ]);

    // Reference: collocated model quality (flat line in the paper plot).
    let glm = FedSpec::Glm { out };
    let mut rng = StdRng::seed_from_u64(1);
    let collocated = nonfed_metric(&glm, &mut rng, &train_ds, &test_ds, FIG9_EPOCHS);
    let split_attack = split_attack_curve(&train_v, &test_v, out);
    // BlindFL per-epoch attack via U_A snapshots, then the ablation.
    let fed_attack_curve = |grad_mode| {
        let cfg = FedConfig::plain().with_grad_mode(grad_mode);
        let outcome = train_fed(&glm, &cfg, FIG9_EPOCHS, true, &train_v, &test_v, 9);
        let snapshots = outcome.report.u_a_snapshots.iter();
        snapshots
            .map(|u| attack_metric(&test_v, u))
            .collect::<Vec<_>>()
    };
    let blindfl_attack = fed_attack_curve(GradMode::SecretShared);
    let ablation: Vec<Vec<f64>> = [1.0, 5.0, 10.0]
        .iter()
        .map(|&v_scale| fed_attack_curve(GradMode::PlainGradToA { v_scale }))
        .collect();

    for e in 0..FIG9_EPOCHS {
        table.row(vec![
            (e + 1).to_string(),
            format!("{collocated:.3}"),
            format!("{:.3}", split_attack[e]),
            format!("{:.3}", blindfl_attack[e]),
            format!("{:.3}", ablation[0][e]),
            format!("{:.3}", ablation[1][e]),
            format!("{:.3}", ablation[2][e]),
        ]);
    }
    table.print();
    println!(
        "\nExpected shape: split learning and every no-GradSS ablation approach the collocated\n\
         metric (label leakage); BlindFL stays at chance ({}).",
        if out == 1 {
            "≈0.5 AUC"
        } else {
            "≈1/C accuracy"
        }
    );
}

/// Attack metric on the test split given Party A's visible matrix.
fn attack_metric(test_v: &VflData, m: &Dense) -> f64 {
    let x_a = test_v.party_a.num.as_ref().unwrap();
    match test_v.party_b.labels.as_ref().unwrap() {
        Labels::Binary(y) => activation_attack_auc(x_a, m, y),
        Labels::Multi { y, .. } => activation_attack_accuracy(x_a, m, y),
    }
}

fn split_attack_curve(train_v: &VflData, test_v: &VflData, out: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(2);
    let mut model = SplitGlm::new(
        &mut rng,
        train_v.party_a.num_dim(),
        train_v.party_b.num_dim(),
        out,
    );
    let opt = Sgd::paper_default();
    let mut curve = Vec::new();
    for epoch in 0..FIG9_EPOCHS {
        for idx in BatchIter::new(train_v.party_a.rows(), 128, 42 ^ epoch as u64) {
            model.train_batch(
                &train_v.party_a.select(&idx),
                &train_v.party_b.select(&idx),
                &opt,
            );
        }
        curve.push(attack_metric(test_v, &model.bottom_a.w));
    }
    curve
}

/// Figure 10 — label leakage from backward derivatives.
///
/// Split-learning WDL: Party A owns its embedding table and receives
/// `∇E_A` in plaintext every batch. The cosine-direction attack
/// recovers essentially all training labels, *regardless of how many
/// hidden layers separate the embeddings from the loss*. Under BlindFL
/// the attack input simply does not exist (A only ever sees `⟦∇E_A⟧`).
fn fig10() {
    println!("Figure 10: predicting training labels from ∇E_A (split-learning WDL)\n");
    let mut t = Table::new(vec![
        "Dataset",
        "#Hiddens = 2",
        "#Hiddens = 3",
        "#Hiddens = 4",
    ]);
    for name in ["a9a", "w8a"] {
        let mut cells = vec![name.to_string()];
        for hidden in [2usize, 3, 4] {
            cells.push(format!("{:.3}", derivative_attack(name, hidden)));
        }
        t.row(cells);
    }
    t.print();
    println!(
        "\nExpected shape: ≈1.0 across the board — the derivative directions leak the labels\n\
         no matter how deep the top model is. BlindFL (not shown): Party A only observes\n\
         ⟦∇E_A⟧ under Party B's key, so the attack has no plaintext input at all."
    );
}

fn derivative_attack(name: &str, hidden_layers: usize) -> f64 {
    let spec = quality_spec(name);
    let (train_ds, _) = generate(&spec, 0xF10);
    let v = vsplit(&train_ds);
    let cat_a = v.party_a.cat.as_ref().expect("categorical at A");
    let cat_b = v.party_b.cat.as_ref().expect("categorical at B");
    let mut rng = StdRng::seed_from_u64(7);
    let mut model = SplitWdl::new(
        &mut rng,
        cat_a.vocab(),
        cat_a.fields(),
        cat_b.vocab(),
        cat_b.fields(),
        v.party_b.num_dim(),
        8,
        hidden_layers,
    );
    let opt = Sgd::paper_default();
    for epoch in 0..3 {
        for idx in BatchIter::new(v.party_a.rows(), 128, epoch as u64) {
            model.train_batch(&v.party_a.select(&idx), &v.party_b.select(&idx), &opt);
        }
    }
    // Report the final epoch (the paper's Figure 10 plots accuracy vs
    // iteration, converging upward; the aggregate over early random-net
    // batches would understate the leak).
    let per_epoch = model.recorded.len() / 3;
    derivative_attack_accuracy(&model.recorded[model.recorded.len() - per_epoch..])
}

/// Figure 11 — model weights vs. their secret-share pieces.
///
/// After training, a party's share piece (`U_A` of the MatMul weights,
/// `S_A` of the embedding table) must reveal neither the sign nor the
/// magnitude of the true value on any coordinate. We print sample
/// coordinates plus the aggregate informativeness statistics (Pearson
/// correlation and sign-agreement rate — both ≈ chance for a
/// protective sharing).
fn fig11() {
    println!("Figure 11: true values vs. secret-share pieces (after training)\n");
    let lr = FedSpec::Glm { out: 1 };
    let pairs = trained_pairs("w8a", &lr, false);
    share_panel("w8a, LR — piece U_A vs weight W_A", &pairs);
    let wdl = FedSpec::Wdl {
        emb_dim: 8,
        deep_hidden: vec![16],
        out: 1,
    };
    let pairs = trained_pairs("a9a", &wdl, true);
    share_panel("a9a, W&D — piece S_A vs table Q_A", &pairs);
}

fn trained_pairs(name: &str, spec: &FedSpec, embed: bool) -> Vec<(f64, f64)> {
    let (train_ds, test_ds) = generate(&quality_spec(name), 0xF11);
    let (train, test) = (vsplit(&train_ds), vsplit(&test_ds));
    let outcome = train_fed(spec, &FedConfig::plain(), 5, false, &train, &test, 0xF11);
    if embed {
        embed_share_vs_table(&outcome.party_a, &outcome.party_b)
    } else {
        matmul_share_vs_weight(&outcome.party_a, &outcome.party_b)
    }
}

fn share_panel(title: &str, pairs: &[(f64, f64)]) {
    println!("{title}");
    let mut t = Table::new(vec!["coordinate", "share piece", "true value"]);
    let step = (pairs.len() / 10).max(1);
    for (i, (p, w)) in pairs.iter().step_by(step).take(10).enumerate() {
        t.row(vec![
            (i * step).to_string(),
            format!("{p:+.3}"),
            format!("{w:+.5}"),
        ]);
    }
    t.print();
    let (corr, sign) = share_informativeness(pairs);
    let piece_mag = pairs.iter().map(|p| p.0.abs()).fold(0.0f64, f64::max);
    let true_mag = pairs.iter().map(|p| p.1.abs()).fold(0.0f64, f64::max);
    println!(
        "pearson(piece, truth) = {corr:+.4}   sign agreement = {sign:.3}   \
         max|piece| = {piece_mag:.2}   max|truth| = {true_mag:.4}\n"
    );
}

/// Figure 12 — model quality: training-loss trajectory and test metric
/// for BlindFL vs NonFed-collocated vs NonFed-Party-B across the eight
/// dataset/model combinations of the paper. Runs the Plain backend:
/// the protocols are lossless (verified exactly by the `blindfl`
/// equivalence tests), so convergence matches the Paillier backend
/// while keeping this harness minutes-scale.
fn fig12() {
    let glm: ModelAt = |out| FedSpec::Glm { out };
    let cases: [(&str, &str, ModelAt); 8] = [
        ("a9a", "LR", glm),
        ("w8a", "LR", glm),
        ("connect-4", "MLP", |out| FedSpec::Mlp {
            widths: vec![64, 16, out],
        }),
        ("news20", "MLR", glm),
        ("higgs", "LR", glm),
        ("avazu-app", "LR", glm),
        ("avazu-app", "WDL", |out| FedSpec::Wdl {
            emb_dim: 8,
            deep_hidden: vec![16],
            out,
        }),
        ("industry", "DLRM", |_| FedSpec::Dlrm {
            emb_dim: 8,
            vec_dim: 16,
            top_hidden: vec![16],
        }),
    ];
    println!(
        "Figure 12: model quality — BlindFL vs non-federated baselines ({QUALITY_EPOCHS} epochs)\n"
    );
    let mut header = vec!["Dataset, Model", "Metric"];
    header.extend(QUALITY_COLUMNS);
    header.push("loss first→last (BlindFL)");
    let mut t = Table::new(header);
    for (name, model, spec) in cases {
        eprintln!("[fig12] {name} / {model} ...");
        let q = quality(name, spec, 0xF12, 0xC0FFEE);
        let mut row = vec![format!("{name}, {model}"), q.metric.to_string()];
        row.extend(q.cells());
        let loss = |l: Option<&f64>| l.copied().unwrap_or(f64::NAN);
        row.push(format!(
            "{:.3}→{:.3}",
            loss(q.losses.first()),
            loss(q.losses.last())
        ));
        t.row(row);
    }
    t.print();
    println!(
        "\nExpected shape (paper): BlindFL ≈ NonFed-collocated on every combination (lossless),\n\
         and strictly better than NonFed-Party B (Party A's features add signal)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_name_is_unique_and_resolves() {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(n, ..)| *n).collect();
        assert_eq!(
            names,
            [
                "table4",
                "table5",
                "table6_fig15",
                "table7",
                "table8",
                "fig9",
                "fig10",
                "fig11",
                "fig12"
            ]
        );
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} registered twice");
            assert!(resolve(name).is_ok(), "{name} does not resolve");
        }
        // Every name is in the usage text.
        let usage = usage();
        assert!(names.iter().all(|n| usage.contains(&format!("  {n} "))));
    }

    #[test]
    fn an_unknown_name_is_refused_with_the_list() {
        for bad in ["nope", "", "table", "Table4", "fig15"] {
            let msg = resolve(bad).unwrap_err();
            assert!(msg.starts_with(&format!("unknown artifact `{bad}`\n")));
            assert!(msg.ends_with(&usage()));
        }
    }
}
