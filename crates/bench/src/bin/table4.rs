//! Table 4 — dataset inventory: the paper-scale statistics and the
//! scaled variants this reproduction actually runs (see `docs/REPRODUCING.md`
//! for the substitution rationale).

use bf_bench::quality_spec;
use bf_datagen::catalog;
use bf_util::Table;

fn main() {
    println!("Table 4: datasets (paper-scale statistics)\n");
    let mut t = Table::new(vec![
        "Dataset",
        "#Instances (train/test)",
        "#Features",
        "Avg #nnz",
        "#Classes",
    ]);
    for s in catalog() {
        t.row(vec![
            s.name.to_string(),
            format!("{}/{}", fmt_k(s.train_rows), fmt_k(s.test_rows)),
            fmt_k(s.shape.features()),
            s.shape.avg_nnz().to_string(),
            s.classes.to_string(),
        ]);
    }
    t.print();

    println!("\nScaled variants used by the quality harnesses:\n");
    let mut t = Table::new(vec![
        "Dataset",
        "#Instances (train/test)",
        "#Features",
        "Avg #nnz",
        "#Classes",
    ]);
    for s in catalog() {
        let q = quality_spec(s.name);
        t.row(vec![
            q.name.to_string(),
            format!("{}/{}", q.train_rows, q.test_rows),
            q.shape.features().to_string(),
            q.shape.avg_nnz().to_string(),
            q.classes.to_string(),
        ]);
    }
    t.print();
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
