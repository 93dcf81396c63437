//! The six workloads: their sizes, how inputs are made from `--seed`,
//! the closed session loop that measures them, the correctness checks
//! that feed `failed`, and the traced variant that fills the per-layer
//! metrics. Every call into the product goes through [`crate::adapter`].

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, Crypto, FedConfig, FedSpec, GatewayJob, GbdtJob, GbdtParams, KernelKit, KernelSecs,
    NetworkProfile, PartySide, TrainJob, TrainMode, TrainRun, VflSplit,
};
use crate::metrics::{self, median, sorted, tail_percentile, Metrics, RunResult};
use crate::trace::{self, Recorder, Span};

/// Every workload name, in `BENCHMARK.json` order.
pub const NAMES: [&str; 6] = [
    "lr_sparse",
    "mlr_wide",
    "wdl_embed",
    "lr_wan",
    "gbdt_hist",
    "serve_gateway",
];

/// Rows of the fixed final evaluation every training session ends with
/// (part of set-up time, not of the timed region); capped at one
/// mini-batch so it stays a small part of a small-batch session.
const EVAL_ROWS: usize = 16;
/// Tolerance of the loss-curve check against the identity backend, the
/// bound `tests/lossless.rs` puts on backend divergence.
const LOSS_TOL: f64 = 1e-3;

pub struct Opts {
    pub seed: u64,
    /// Entry-point wall to measure, seconds.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the traced run writes its spans.
    pub trace_path: Option<PathBuf>,
}

impl Opts {
    fn crypto(&self) -> Crypto {
        if self.smoke {
            Crypto::SMOKE
        } else {
            Crypto::FULL
        }
    }
}

/// Protocol seed of session `i` of a run: each session regenerates keys
/// and masks, the data stays the run's.
fn session_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03))
        ^ 0x1adde5
}

/// A mini-batch training workload.
struct TrainWl {
    dataset: &'static str,
    spec: FedSpec,
    batch: usize,
    /// Mini-batches per session (one epoch).
    batches: usize,
    mode: TrainMode,
    net: Option<NetworkProfile>,
}

/// Sizes are set so one session's timed region is 1–2 s on a 2-core
/// box at the full key size (see `bench/README.md`, "Sizing").
fn train_workload(name: &str, smoke: bool) -> Option<TrainWl> {
    let glm = |dataset, out, batch, batches| TrainWl {
        dataset,
        spec: FedSpec::Glm { out },
        batch,
        batches,
        mode: TrainMode::Sync,
        net: None,
    };
    let wl = match name {
        "lr_sparse" => glm("a9a", 1, 128, 5),
        "mlr_wide" => glm("news20", 20, 8, 3),
        "wdl_embed" => TrainWl {
            spec: FedSpec::Wdl {
                emb_dim: 4,
                deep_hidden: vec![8],
                out: 1,
            },
            ..glm("a9a", 1, 8, 2)
        },
        "lr_wan" => TrainWl {
            mode: TrainMode::pipelined(),
            net: Some(NetworkProfile::wan_100mbps()),
            ..glm("a9a", 1, 32, 8)
        },
        _ => return None,
    };
    Some(if smoke {
        TrainWl { batches: 2, ..wl }
    } else {
        wl
    })
}

impl TrainWl {
    fn data(&self, seed: u64) -> VflSplit {
        adapter::tabular_split(
            self.dataset,
            self.batch * self.batches,
            EVAL_ROWS.min(self.batch),
            seed,
        )
    }

    fn job<'a>(
        &'a self,
        cfg: &'a FedConfig,
        data: &'a VflSplit,
        epochs: usize,
        seed: u64,
    ) -> TrainJob<'a> {
        TrainJob {
            spec: &self.spec,
            cfg,
            data,
            batch: self.batch,
            epochs,
            mode: self.mode,
            net: self.net,
            seed,
        }
    }
}

/// Same-seed run over the identity backend (no link model, lock-step):
/// the reference loss curve.
fn plain_losses(
    wl: &TrainWl,
    crypto: Crypto,
    data: &VflSplit,
    epochs: usize,
    seed: u64,
) -> Result<Vec<f64>, String> {
    let cfg = crypto.plain_config();
    let job = TrainJob {
        mode: TrainMode::Sync,
        net: None,
        ..wl.job(&cfg, data, epochs, seed)
    };
    Ok(adapter::train_entry(&job)?.losses)
}

fn losses_agree(got: &[f64], want: &[f64], tol: f64) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() <= tol && a.is_finite())
}

/// Attempted / failed operation counts of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[ladder] FAILED check: {what}");
        }
    }

    fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn result(self, metrics: Metrics) -> RunResult {
        RunResult {
            correct: self.failed == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}

/// Run sessions until `seconds` of entry-point wall have been measured
/// (at least one; a new session starts only while half of a mean
/// session still fits).
fn session_loop(seconds: f64, mut session: impl FnMut(u64) -> f64) {
    let mut measured = 0.0;
    let mut i = 0u64;
    loop {
        measured += session(i);
        i += 1;
        if measured + measured / i as f64 / 2.0 > seconds {
            return;
        }
    }
}

/// The traced run's tail of the unit-operation latency (mini-batch,
/// tree, request): the highest percentile the sample supports. Too
/// unsteady for a bound, so it is a per-layer metric.
fn set_op_tail(m: &mut Metrics, ops_ms: Vec<f64>) {
    m.set("op_ms_tail", tail_percentile(&sorted(ops_ms)).1);
}

/// Per-session samples of an untraced run; every end-to-end metric is
/// a median over them.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    rows_per_s: Vec<f64>,
    bytes_per_row: Vec<f64>,
    /// Latency of the unit operation: per-session mean mini-batch, or
    /// every tree / request of every session.
    op_ms: Vec<f64>,
}

impl Samples {
    fn session(&mut self, setup_s: f64, rows_per_s: f64, bytes_per_row: f64) {
        self.setup_s.push(setup_s);
        self.rows_per_s.push(rows_per_s);
        self.bytes_per_row.push(bytes_per_row);
    }

    fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.set("setup_s", median(&self.setup_s));
        m.set("rows_per_s", median(&self.rows_per_s));
        m.set("op_ms_p50", median(&self.op_ms));
        m.set("wire_bytes_per_row", median(&self.bytes_per_row));
        m.set("peak_rss_mb", metrics::peak_rss_mb());
        m
    }
}

// ------------------------------------------------------------ training

fn run_train(wl: &TrainWl, opts: &Opts) -> Result<RunResult, String> {
    let crypto = opts.crypto();
    let cfg = crypto.fed_config();
    let data = wl.data(opts.seed);
    let mut tally = Tally::default();

    // A zero-epoch session is set-up and nothing else: one more set-up
    // sample, and the fixed traffic (handshake, initial ⟦W⟧ exchange,
    // final eval) to take out of the per-row wire bytes.
    let base = adapter::train_entry(&wl.job(&cfg, &data, 0, session_seed(opts.seed, 0)))?;
    let base_bytes = base.guest.bytes + base.host.bytes;
    let mut s = Samples::default();
    s.setup_s.push(base.wall_s - base.train_s);
    session_loop(opts.seconds - base.wall_s, |i| {
        let seed = session_seed(opts.seed, i + 1);
        let t = Instant::now();
        match adapter::train_entry(&wl.job(&cfg, &data, 1, seed)) {
            Ok(run) => {
                tally.ops(run.batches as u64, 0);
                let bytes = run.guest.bytes + run.host.bytes - base_bytes;
                s.session(
                    run.wall_s - run.train_s,
                    run.rows as f64 / run.train_s,
                    bytes as f64 / run.rows as f64,
                );
                s.op_ms.push(per_batch_ms(run.train_s, run.batches));
                let ok = plain_losses(wl, crypto, &data, 1, seed)
                    .is_ok_and(|want| losses_agree(&run.losses, &want, LOSS_TOL));
                tally.check(ok, "loss curve equals the identity-backend run");
                eprintln!(
                    "[ladder] session {i}: set-up {:.3} s, {} batches in {:.3} s",
                    run.wall_s - run.train_s,
                    run.batches,
                    run.train_s
                );
                run.wall_s
            }
            Err(e) => {
                eprintln!("[ladder] session {i} failed: {e}");
                tally.ops(wl.batches as u64, wl.batches as u64);
                t.elapsed().as_secs_f64()
            }
        }
    });
    Ok(tally.result(s.end_to_end()))
}

fn per_batch_ms(secs: f64, batches: usize) -> f64 {
    secs / batches.max(1) as f64 * 1e3
}

fn set_engine(m: &mut Metrics, host: &PartySide, guest: &PartySide, batches: usize) {
    let ms = |s: f64| per_batch_ms(s, batches);
    m.set(
        "engine.host.encrypt_upload_ms",
        ms(host.stages.encrypt_upload),
    );
    m.set("engine.host.fed_matmul_ms", ms(host.stages.fed_matmul));
    m.set("engine.host.fed_embed_ms", ms(host.stages.fed_embed));
    m.set("engine.host.top_local_ms", ms(host.stages.top_local));
    m.set(
        "engine.host.decrypt_update_ms",
        ms(host.stages.decrypt_update),
    );
    m.set("engine.guest.fed_matmul_ms", ms(guest.stages.fed_matmul));
    m.set("engine.guest.fed_embed_ms", ms(guest.stages.fed_embed));
    m.set(
        "engine.guest.decrypt_update_ms",
        ms(guest.stages.decrypt_update),
    );
}

/// `bytes ⁄ bandwidth + messages × latency`, both directions summed: the
/// link model's share of a batch if nothing overlapped it.
fn wire_model_secs(net: Option<NetworkProfile>, bytes: f64, msgs: f64) -> f64 {
    net.map_or(0.0, |p| {
        let ser = if p.bytes_per_sec == 0 {
            0.0
        } else {
            bytes / p.bytes_per_sec as f64
        };
        ser + msgs * p.latency.as_secs_f64()
    })
}

fn set_mpc(
    m: &mut Metrics,
    net: Option<NetworkProfile>,
    guest: (u64, u64),
    host: (u64, u64),
    batches: usize,
) {
    let per = |v: u64| v as f64 / batches.max(1) as f64;
    m.set("mpc.bytes_guest_to_host_per_batch", per(guest.0));
    m.set("mpc.bytes_host_to_guest_per_batch", per(host.0));
    m.set("mpc.msgs_per_batch", per(guest.1 + host.1));
    m.set(
        "mpc.wire_model_s_per_batch",
        wire_model_secs(net, per(guest.0 + host.0), per(guest.1 + host.1)),
    );
}

/// Repeat a kernel replay until enough process CPU has been spent for
/// the 100 Hz CPU clock to resolve it; returns the mean per replay of
/// the kernel walls and of the CPU seconds.
fn replay(mut one: impl FnMut() -> KernelSecs) -> (KernelSecs, f64) {
    const MIN_CPU_SECS: f64 = 0.5;
    let cpu0 = metrics::process_cpu_secs();
    let mut sum = KernelSecs::default();
    let mut reps = 0;
    loop {
        sum = sum.plus(&one());
        reps += 1;
        let cpu = metrics::process_cpu_secs() - cpu0;
        if cpu >= MIN_CPU_SECS {
            return (sum.mean_of(reps), cpu / reps as f64);
        }
    }
}

/// `kernel_cpu` and `batch_cpu` are process CPU seconds per mini-batch:
/// of the replayed kernels, and of the federation itself. Their ratio
/// is the share of the batch's compute the listed kernels explain,
/// whatever the core count and however the parties overlapped.
fn set_kernels(m: &mut Metrics, k: &KernelSecs, kernel_cpu: f64, batch_cpu: f64) {
    m.set("paillier.matmul_ms_per_batch", k.matmul * 1e3);
    m.set("paillier.matmul_pows_per_batch", k.matmul_pows as f64);
    m.set(
        "paillier.t_matmul_support_ms_per_batch",
        k.t_matmul_support * 1e3,
    );
    m.set("paillier.lkup_ms_per_batch", k.lkup * 1e3);
    m.set("paillier.lkup_bw_ms_per_batch", k.lkup_bw * 1e3);
    m.set("paillier.matmul_ct_wt_ms_per_batch", k.matmul_ct_wt * 1e3);
    if batch_cpu > 0.0 {
        m.set("engine.kernel_closure", kernel_cpu / batch_cpu);
    }
}

fn cpu_util(cpu_s: f64, wall_s: f64) -> f64 {
    cpu_s / (wall_s * metrics::cores() as f64)
}

/// Rungs that do not depend on the workload's protocol: bigint,
/// per-ciphertext Paillier, transport round trips.
fn common_rungs(kit: &mut KernelKit, m: &mut Metrics) -> Result<(), String> {
    kit.micro_rungs(m);
    let (channel, tcp) = adapter::rtt_probes()?;
    m.set("mpc.channel_rtt_us", channel);
    m.set("mpc.tcp_rtt_us", tcp);
    Ok(())
}

/// Kernel replay of the first mini-batch's real inputs.
fn train_kernels(kit: &mut KernelKit, wl: &TrainWl, data: &VflSplit) -> (KernelSecs, f64) {
    let idx: Vec<usize> = (0..wl.batch).collect();
    let (a, b) = (data.train_a.select(&idx), data.train_b.select(&idx));
    let num = |d: &adapter::Dataset| d.num.clone().expect("numerical block");
    let out = match &wl.spec {
        FedSpec::Glm { out } | FedSpec::Wdl { out, .. } => *out,
        _ => 1,
    };
    let (x_a, x_b) = (num(&a), num(&b));
    let mut w = kit.matmul_weights(x_a.cols(), x_b.cols(), out);
    replay(|| {
        let k = kit.matmul_source_batch(&x_a, &x_b, &mut w, true);
        match &wl.spec {
            FedSpec::Wdl {
                emb_dim,
                deep_hidden,
                out,
            } => {
                let proj = deep_hidden.first().copied().unwrap_or(*out);
                let cat = |d: &adapter::Dataset| d.cat.clone().expect("categorical block");
                k.plus(&kit.embed_source_batch(&cat(&a), &cat(&b), *emb_dim, proj))
            }
            _ => k,
        }
    })
}

fn finish_trace(m: &mut Metrics, tally: &Tally, opts: &Opts, blocks: &[Vec<Span>]) {
    m.set(
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    if let Some(path) = &opts.trace_path {
        if let Err(e) = trace::write_jsonl(path, blocks) {
            eprintln!("[ladder] could not write {}: {e}", path.display());
        }
    }
}

fn trace_train(wl: &TrainWl, opts: &Opts) -> Result<RunResult, String> {
    let crypto = opts.crypto();
    let cfg = crypto.fed_config();
    let data = wl.data(opts.seed);
    let seed = session_seed(opts.seed, 1);
    let epochs = 1;
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let epoch0 = Instant::now();

    // A zero-epoch session first, as in the untraced run: it warms the
    // process up and measures the fixed part of a session (traffic,
    // stage time, CPU) that the entry-point-only trace subtracts.
    let base = adapter::train_entry(&wl.job(&cfg, &data, 0, seed))?;
    // The untraced reference: same inputs through the entry points.
    let reference = adapter::train_entry(&wl.job(&cfg, &data, epochs, seed))?;
    // Process CPU seconds one mini-batch of the federation costs.
    let batch_cpu;
    let (traced, blocks): (TrainRun, Vec<Vec<Span>>) = if wl.mode == TrainMode::Sync {
        let (run, extras, blocks) =
            adapter::train_traced(&wl.job(&cfg, &data, epochs, seed), epoch0)?;
        m.set("proc.cpu_util", cpu_util(extras.loop_cpu_s, run.train_s));
        batch_cpu = extras.loop_cpu_s / run.batches as f64;
        set_engine(&mut m, &extras.host_loop, &extras.guest_loop, run.batches);
        let batch_wall: f64 = extras.batch_secs.iter().sum();
        m.set(
            "engine.stage_closure",
            extras.host_loop.stages.total() / batch_wall,
        );
        set_mpc(
            &mut m,
            wl.net,
            (extras.guest_loop.bytes, extras.guest_loop.msgs),
            (extras.host_loop.bytes, extras.host_loop.msgs),
            run.batches,
        );
        m.set(
            "ml.batch_select_us",
            trace::mean_self_secs(&blocks[1], "select") * 1e6,
        );
        set_op_tail(&mut m, extras.batch_secs.iter().map(|s| s * 1e3).collect());
        let (mf, mb, ef, eb) = extras.source_secs;
        m.set("source.matmul_fwd_ms", mf * 1e3);
        m.set("source.matmul_bwd_ms", mb * 1e3);
        m.set("source.embed_fwd_ms", ef * 1e3);
        m.set("source.embed_bwd_ms", eb * 1e3);
        (run, blocks)
    } else {
        // The pipelined engine's prefetch thread cannot be reproduced
        // from outside: keep the entry point, one span per run, stage
        // totals from the sessions, less the zero-epoch session's.
        let mut rec = Recorder::new("host", epoch0);
        let run = rec.span("run", None, |_| {
            adapter::train_entry(&wl.job(&cfg, &data, epochs, seed))
        })?;
        m.set("proc.cpu_util", cpu_util(run.cpu_s, run.wall_s));
        batch_cpu = (run.cpu_s - base.cpu_s) / run.batches as f64;
        let in_loop = |run: &PartySide, base: &PartySide| PartySide {
            stages: run.stages.minus(&base.stages),
            ..*run
        };
        let (host, guest) = (
            in_loop(&run.host, &base.host),
            in_loop(&run.guest, &base.guest),
        );
        set_engine(&mut m, &host, &guest, run.batches);
        m.set("engine.stage_closure", host.stages.total() / run.train_s);
        set_mpc(
            &mut m,
            wl.net,
            (
                run.guest.bytes - base.guest.bytes,
                run.guest.msgs - base.guest.msgs,
            ),
            (
                run.host.bytes - base.host.bytes,
                run.host.msgs - base.host.msgs,
            ),
            run.batches,
        );
        set_op_tail(&mut m, vec![run.train_s / run.batches as f64 * 1e3]);
        (run, vec![rec.into_spans()])
    };
    tally.ops(traced.batches as u64, 0);
    tally.check(
        traced
            .losses
            .iter()
            .map(|v| v.to_bits())
            .eq(reference.losses.iter().map(|v| v.to_bits())),
        "traced loop reproduces the entry point's loss curve bit for bit",
    );
    let ok = plain_losses(wl, crypto, &data, epochs, seed)
        .is_ok_and(|want| losses_agree(&traced.losses, &want, LOSS_TOL));
    tally.check(ok, "loss curve equals the identity-backend run");
    // A second reference after the traced session: the mean of the two
    // cancels a drift of the host's speed across the three sessions.
    let reference_after = adapter::train_entry(&wl.job(&cfg, &data, epochs, seed))?;
    let untraced_secs = (reference.train_s + reference_after.train_s) / 2.0;
    m.set("trace.overhead_share", 1.0 - untraced_secs / traced.train_s);

    let mut kit = KernelKit::new(crypto, opts.seed, &mut m);
    let (k, kernel_cpu) = train_kernels(&mut kit, wl, &data);
    set_kernels(&mut m, &k, kernel_cpu, batch_cpu);
    common_rungs(&mut kit, &mut m)?;
    report_closure(&m);
    finish_trace(&mut m, &tally, opts, &blocks);
    Ok(tally.result(m))
}

/// A closure further than 20 % from 1 is a finding to print, not a
/// failure.
fn report_closure(m: &Metrics) {
    for name in ["engine.stage_closure", "engine.kernel_closure"] {
        if let Some(v) = m.get(name) {
            if (v - 1.0).abs() > 0.2 {
                eprintln!(
                    "[ladder] finding: {name} = {v:.3} (layers explain {:.0} % of the batch)",
                    v * 100.0
                );
            }
        }
    }
}

// --------------------------------------------------------------- trees

struct GbdtWl {
    rows: usize,
    features: usize,
    guests: usize,
    params: GbdtParams,
}

fn gbdt_workload(smoke: bool, frac_bits: u32) -> GbdtWl {
    let (rows, trees, max_depth) = if smoke { (128, 1, 2) } else { (512, 2, 3) };
    GbdtWl {
        rows,
        features: 16,
        guests: 2,
        params: GbdtParams {
            trees,
            max_depth,
            max_bins: 16,
            frac_bits,
            ..GbdtParams::default()
        },
    }
}

fn run_gbdt(opts: &Opts) -> Result<RunResult, String> {
    let crypto = opts.crypto();
    let cfg = crypto.fed_config();
    let wl = gbdt_workload(opts.smoke, crypto.frac_bits);
    let data = adapter::tree_data(wl.rows, wl.features, wl.guests, opts.seed);
    let twin = adapter::gbdt_twin(&data.collocated, &wl.params);
    let trees = wl.params.trees;
    let mut tally = Tally::default();
    let mut s = Samples::default();
    let mut last = None;
    let started = Instant::now();
    session_loop(opts.seconds, |i| {
        let t = Instant::now();
        let job = GbdtJob {
            cfg: &cfg,
            params: &wl.params,
            data: &data,
            seed: session_seed(opts.seed, i),
        };
        match adapter::gbdt_entry(&job) {
            Ok(run) => {
                tally.ops(trees as u64, 0);
                tally.check(
                    run.trees == twin.0 && run.losses == twin.1,
                    "forest and losses equal the collocated twin bit for bit",
                );
                let timed: f64 = run.tree_secs.iter().sum();
                let work = (wl.rows * trees) as f64;
                let bytes: u64 = run
                    .host_bytes_per_link
                    .iter()
                    .chain(&run.guest_bytes_per_link)
                    .sum();
                s.session(run.wall_s - timed, work / timed, bytes as f64 / work);
                s.op_ms.extend(run.tree_secs.iter().map(|t| t * 1e3));
                let wall = run.wall_s;
                last = Some(run);
                wall
            }
            Err(e) => {
                eprintln!("[ladder] boosting session {i} failed: {e}");
                tally.ops(trees as u64, trees as u64);
                t.elapsed().as_secs_f64()
            }
        }
    });
    if !opts.trace {
        return Ok(tally.result(s.end_to_end()));
    }
    let mut m = Metrics::default();
    let run = last.ok_or("no boosting session succeeded")?;
    m.set("trees.tree_s_p50", median(&s.op_ms) / 1e3);
    set_op_tail(&mut m, s.op_ms);
    let per_link: u64 = run
        .host_bytes_per_link
        .iter()
        .chain(&run.guest_bytes_per_link)
        .sum();
    m.set(
        "trees.bytes_per_link_per_tree",
        per_link as f64 / (wl.guests * trees) as f64,
    );
    set_mpc(
        &mut m,
        None,
        (run.guest_bytes_per_link.iter().sum(), 0),
        (run.host_bytes_per_link.iter().sum(), run.msgs),
        trees,
    );
    // Spans rebuilt from the run's `tree_secs` (the trees end the
    // session back to back); the boosting loop is not reproducible
    // per tree from outside.
    let mut rec = Recorder::new("host", started);
    let end = Instant::now();
    let mut at = end - Duration::from_secs_f64(run.tree_secs.iter().sum());
    for (t, &secs) in run.tree_secs.iter().enumerate() {
        let next = at + Duration::from_secs_f64(secs);
        rec.push_closed("tree", Some(t as u64), at, next);
        at = next;
    }
    let mut kit = KernelKit::new(crypto, opts.seed, &mut m);
    let cpu0 = metrics::process_cpu_secs();
    let (enc, mm, dec) = kit.gbdt_tree(&data.guests, &wl.params);
    let kernel_cpu = metrics::process_cpu_secs() - cpu0;
    m.set("trees.gh_encrypt_s_per_tree", enc);
    m.set("trees.hist_matmul_s_per_tree", mm);
    m.set("trees.hist_decrypt_s_per_tree", dec);
    m.set("paillier.t_matmul_support_ms_per_batch", mm * 1e3);
    m.set("proc.cpu_util", cpu_util(run.cpu_s, run.wall_s));
    // A zero-tree session is set-up only: its CPU is not the trees'.
    let no_trees = GbdtParams {
        trees: 0,
        ..wl.params.clone()
    };
    let base = adapter::gbdt_entry(&GbdtJob {
        cfg: &cfg,
        params: &no_trees,
        data: &data,
        seed: session_seed(opts.seed, 0),
    })?;
    m.set(
        "engine.kernel_closure",
        kernel_cpu / ((run.cpu_s - base.cpu_s) / trees as f64),
    );
    common_rungs(&mut kit, &mut m)?;
    report_closure(&m);
    finish_trace(&mut m, &tally, opts, &[rec.into_spans()]);
    Ok(tally.result(m))
}

// ------------------------------------------------------------- serving

struct ServeWl {
    store_rows: usize,
    train_batch: usize,
    train_batches: usize,
    replicas: usize,
    max_batch: usize,
    clients: usize,
    window: usize,
    /// Requests per gateway session.
    requests: usize,
    net: Option<NetworkProfile>,
}

fn serve_workload(smoke: bool) -> ServeWl {
    ServeWl {
        store_rows: if smoke { 128 } else { 1024 },
        train_batch: 64,
        train_batches: 2,
        replicas: 2,
        max_batch: 32,
        clients: 2,
        window: 32,
        requests: if smoke { 96 } else { 512 },
        // Same-city cross-enterprise guest link: 5 ms one-way, 1 Gbps.
        net: Some(NetworkProfile {
            latency: Duration::from_millis(5),
            bytes_per_sec: 125_000_000,
        }),
    }
}

/// Distinct store rows in a seed-determined order, dealt round-robin to
/// the client connections (distinct, so row → logit bits is
/// single-valued and the replay check applies to every reply).
fn request_plans(wl: &ServeWl, seed: u64) -> Vec<Vec<u64>> {
    let mut rows: Vec<u64> = (0..wl.store_rows as u64).collect();
    let mut state = seed ^ 0x5EED_F1EE7;
    for i in (1..rows.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rows.swap(i, ((state >> 33) % (i as u64 + 1)) as usize);
    }
    rows.truncate(wl.requests);
    (0..wl.clients)
        .map(|c| rows.iter().skip(c).step_by(wl.clients).copied().collect())
        .collect()
}

fn run_serve(opts: &Opts) -> Result<RunResult, String> {
    let crypto = opts.crypto();
    let cfg = crypto.fed_config();
    let wl = serve_workload(opts.smoke);
    let spec = FedSpec::Glm { out: 1 };
    // Inputs: an LR trained on the a9a shape under the benchmark's key
    // size, persisted; its test split is the serving feature store.
    let data = adapter::tabular_split(
        "a9a",
        wl.train_batch * wl.train_batches,
        wl.store_rows,
        opts.seed,
    );
    let trained = adapter::train_entry(&TrainJob {
        spec: &spec,
        cfg: &cfg,
        data: &data,
        batch: wl.train_batch,
        epochs: 1,
        mode: TrainMode::Sync,
        net: None,
        seed: session_seed(opts.seed, 0),
    })?;
    let model = adapter::persist(&trained);
    drop(trained);

    let mut tally = Tally::default();
    let mut s = Samples::default();
    let mut replica_ms = Vec::new();
    let mut last = None;
    let started = Instant::now();
    let mut rec = Recorder::new("client", started);
    session_loop(opts.seconds, |i| {
        let job = GatewayJob {
            cfg: &cfg,
            model: &model,
            store_a: &data.test_a,
            store_b: &data.test_b,
            replicas: wl.replicas,
            net: wl.net,
            max_batch: wl.max_batch,
            window: wl.window,
            plans: request_plans(&wl, session_seed(opts.seed, 100 + i)),
            seed: session_seed(opts.seed, 1 + i),
        };
        let t = Instant::now();
        let run = match adapter::gateway_entry(&job) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("[ladder] gateway session {i} failed: {e}");
                tally.ops(wl.requests as u64, wl.requests as u64);
                return t.elapsed().as_secs_f64();
            }
        };
        tally.ops(wl.requests as u64, run.failed);
        let host_bytes: u64 = run.report.replicas.iter().map(|r| r.bytes_sent).sum();
        s.session(
            run.wall_s - run.fleet_s,
            run.replies.len() as f64 / run.fleet_s,
            (host_bytes + run.guest_bytes) as f64 / run.replies.len().max(1) as f64,
        );
        for r in &run.replies {
            s.op_ms.push((r.answered - r.submitted).as_secs_f64() * 1e3);
            if opts.trace {
                rec.push_closed("request", Some(r.row), r.submitted, r.answered);
            }
        }
        for r in &run.report.replicas {
            replica_ms.extend(r.latencies_secs.iter().map(|s| s * 1e3));
        }
        // Every reply must be bit-equal to the direct forward replayed
        // on the partition its replica recorded.
        let mut replayed = std::collections::HashMap::new();
        let mut replay_msgs = 0;
        let mut replay_ok = run.report.replica_failures.is_empty();
        for (r, rep) in run.report.replicas.iter().enumerate() {
            match adapter::replay_replica(&job, r, &rep.batch_rows) {
                Ok((map, msgs)) => {
                    replayed.extend(map);
                    replay_msgs += msgs;
                }
                Err(e) => {
                    eprintln!("[ladder] replay of replica {r} failed: {e}");
                    replay_ok = false;
                }
            }
        }
        let mismatched = run
            .replies
            .iter()
            .filter(|r| replayed.get(&r.row) != Some(&r.bits))
            .count();
        tally.check(
            replay_ok && mismatched == 0,
            "every reply is bit-equal to the replayed direct forward",
        );
        let wall = run.wall_s;
        last = Some((run, replay_msgs));
        wall
    });
    if !opts.trace {
        return Ok(tally.result(s.end_to_end()));
    }
    let mut m = Metrics::default();
    let (run, replay_msgs) = last.ok_or("no gateway session succeeded")?;
    m.set("proc.cpu_util", cpu_util(run.fleet_cpu_s, run.fleet_s));
    let batches: u64 = run.report.replicas.iter().map(|r| r.batches).sum();
    let rows: usize = run
        .report
        .replicas
        .iter()
        .flat_map(|r| &r.batch_sizes)
        .sum();
    let replica_wall: f64 = run.report.replicas.iter().map(|r| r.wall_secs).sum();
    let (client_p50, replica_p50) = (median(&s.op_ms), median(&replica_ms));
    set_op_tail(&mut m, s.op_ms);
    m.set("serve.replica_ms_p50", replica_p50);
    m.set(
        "serve.forward_ms_per_batch",
        per_batch_ms(replica_wall, batches as usize),
    );
    m.set(
        "gateway.mean_batch_rows",
        rows as f64 / batches.max(1) as f64,
    );
    m.set("gateway.peak_in_flight", run.report.peak_in_flight as f64);
    m.set("gateway.overhead_ms_p50", client_p50 - replica_p50);
    m.set("persist.import_ms", run.import_s / wl.replicas as f64 * 1e3);
    m.set(
        "persist.model_bytes",
        (model.bytes_a.len() + model.bytes_b.len()) as f64,
    );
    let host_bytes: u64 = run.report.replicas.iter().map(|r| r.bytes_sent).sum();
    // The host sessions live inside `run_gateway`; the message
    // count is the replayed direct forwards' (the serve loop adds
    // one row-index frame per batch on top).
    set_mpc(
        &mut m,
        wl.net,
        (run.guest_bytes, 0),
        (host_bytes, replay_msgs),
        batches as usize,
    );
    let mut kit = KernelKit::new(crypto, opts.seed, &mut m);
    // Kernel replay, forward only, of a micro-batch of half the ceiling
    // (the closed loop settles near it): the first rows of the seed's
    // request plan, so the replay's counts repeat exactly.
    let part: Vec<usize> = request_plans(&wl, session_seed(opts.seed, 100))
        .concat()
        .iter()
        .take(wl.max_batch / 2)
        .map(|&r| r as usize)
        .collect();
    let num = |d: &adapter::Dataset| d.select(&part).num.expect("numerical block");
    let (x_a, x_b) = (num(&data.test_a), num(&data.test_b));
    let mut w = kit.matmul_weights(x_a.cols(), x_b.cols(), 1);
    let (k, kernel_cpu) = replay(|| kit.matmul_source_batch(&x_a, &x_b, &mut w, false));
    set_kernels(
        &mut m,
        &k,
        kernel_cpu,
        run.fleet_cpu_s / batches.max(1) as f64,
    );
    common_rungs(&mut kit, &mut m)?;
    finish_trace(&mut m, &tally, opts, &[rec.into_spans()]);
    Ok(tally.result(m))
}

/// Run one workload and return its result line's content.
pub fn run(name: &str, opts: &Opts) -> Result<RunResult, String> {
    if let Some(wl) = train_workload(name, opts.smoke) {
        return if opts.trace {
            trace_train(&wl, opts)
        } else {
            run_train(&wl, opts)
        };
    }
    match name {
        "gbdt_hist" => run_gbdt(opts),
        "serve_gateway" => run_serve(opts),
        other => Err(format!(
            "unknown workload {other:?}; choose one of {NAMES:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::dataset_fingerprint;

    fn smoke_opts(trace: bool) -> Opts {
        Opts {
            seed: 5,
            // One session per workload.
            seconds: 0.001,
            trace,
            smoke: true,
            trace_path: None,
        }
    }

    fn split_fingerprint(d: &VflSplit) -> [u64; 4] {
        [&d.train_a, &d.train_b, &d.test_a, &d.test_b].map(dataset_fingerprint)
    }

    #[test]
    fn workload_inputs_are_a_pure_function_of_the_seed() {
        for name in ["lr_sparse", "mlr_wide", "wdl_embed", "lr_wan"] {
            let wl = train_workload(name, true).expect("training workload");
            assert_eq!(
                split_fingerprint(&wl.data(7)),
                split_fingerprint(&wl.data(7)),
                "{name}"
            );
            assert_ne!(
                split_fingerprint(&wl.data(7)),
                split_fingerprint(&wl.data(8)),
                "{name}"
            );
        }
        let tree = |seed| {
            let d = adapter::tree_data(64, 16, 2, seed);
            (
                dataset_fingerprint(&d.collocated),
                dataset_fingerprint(&d.host),
                dataset_fingerprint(&d.guests[1]),
            )
        };
        assert_eq!(tree(7), tree(7));
        assert_ne!(tree(7), tree(8));
        let wl = serve_workload(true);
        assert_eq!(request_plans(&wl, 7), request_plans(&wl, 7));
        assert_ne!(request_plans(&wl, 7), request_plans(&wl, 8));
        assert_eq!(session_seed(7, 3), session_seed(7, 3));
        assert_ne!(session_seed(7, 3), session_seed(7, 4));
    }

    #[test]
    fn request_plans_cover_distinct_rows() {
        let wl = serve_workload(true);
        let plans = request_plans(&wl, 11);
        assert_eq!(plans.len(), wl.clients);
        let mut rows: Vec<u64> = plans.concat();
        assert_eq!(rows.len(), wl.requests);
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(
            rows.len(),
            wl.requests,
            "rows repeat: the replay check needs them distinct"
        );
        assert!(rows.iter().all(|&r| r < wl.store_rows as u64));
    }

    #[test]
    fn session_loop_runs_at_least_once_and_stops_at_the_budget() {
        let mut n = 0;
        session_loop(0.0, |_| {
            n += 1;
            1.0
        });
        assert_eq!(n, 1);
        let mut n = 0;
        session_loop(10.0, |_| {
            n += 1;
            3.0
        });
        // 3 + 1.5 ≤ 10, 6 + 1.5 ≤ 10, 9 + 1.5 > 10.
        assert_eq!(n, 3);
    }

    #[test]
    fn loss_check_is_strict_on_length_and_tolerance() {
        assert!(losses_agree(&[0.5, 0.25], &[0.5004, 0.2496], LOSS_TOL));
        assert!(!losses_agree(&[0.5, 0.25], &[0.502, 0.25], LOSS_TOL));
        assert!(!losses_agree(&[0.5], &[0.5, 0.25], LOSS_TOL));
        assert!(!losses_agree(&[f64::NAN], &[f64::NAN], LOSS_TOL));
    }

    #[test]
    fn wire_model_is_bytes_over_bandwidth_plus_latency_per_message() {
        let wan = NetworkProfile::wan_100mbps();
        let secs = wire_model_secs(Some(wan), 12_500_000.0, 7.0);
        assert!((secs - (1.0 + 7.0 * 0.020)).abs() < 1e-9, "{secs}");
        assert_eq!(wire_model_secs(None, 1e9, 100.0), 0.0);
    }

    /// Every workload, untraced and traced, at the smoke key size: all
    /// checks pass, every registered metric is present, and the whole
    /// sweep stays inside a CI-sized budget.
    #[test]
    fn smoke_run_of_all_six_workloads() {
        let started = Instant::now();
        for name in NAMES {
            for trace in [false, true] {
                let r = run(name, &smoke_opts(trace))
                    .unwrap_or_else(|e| panic!("{name} (trace {trace}): {e}"));
                assert!(
                    r.correct && r.failed == 0,
                    "{name} (trace {trace}) failed {} of {}",
                    r.failed,
                    r.attempted
                );
                assert!(r.attempted >= 1);
                if !trace {
                    for (metric, _) in metrics::END_TO_END {
                        let v = r
                            .metrics
                            .get(metric)
                            .unwrap_or_else(|| panic!("{name}: {metric} missing"));
                        assert!(v.is_finite() && v > 0.0, "{name}: {metric} = {v}");
                    }
                }
            }
        }
        let secs = started.elapsed().as_secs_f64();
        assert!(secs < 60.0, "smoke sweep took {secs:.1} s");
        assert!(run("no_such_workload", &smoke_opts(false)).is_err());
    }
}
