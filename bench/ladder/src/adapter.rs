//! Every call into the product lives in this file: data generation,
//! the per-party entry points (`Session::handshake`, `run_party_a/b`,
//! `run_gbdt_host/guest`, `run_gateway`), the per-batch model calls the
//! traced run drives (`init` / `forward` / `backward` / `predict_batch`,
//! `MatMulSource` / `EmbedSource`), persistence, and the `CtMat` /
//! `bigint` kernels the replay rungs time. The rest of the benchmark
//! sees only the plain structs returned here, so a change to the
//! product's entry points is a change to this file alone.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bf_datagen::{generate, generate_tree, vsplit, vsplit_multi};
use bf_ml::data::BatchIter;
use bf_ml::gbdt::CollocatedGbdt;
use bf_ml::models::loss_and_grad;
use bf_mpc::transport::{Endpoint, Msg};
use bf_paillier::{
    export_ctmat, export_public, export_secret, import_ctmat, import_public, import_secret, keygen,
    CtMat, ObfMode, Obfuscator, PaillierMode, PublicKey, SecretKey, SlotLayout,
};
use blindfl::config::{Backend, GradMode};
use blindfl::engine::{Stage, StageTimes};
use blindfl::gateway::{
    gateway_replica_seed, run_gateway, GatewayClient, GatewayConfig, GatewayReplica,
};
use blindfl::models::{PartyAModel, PartyBModel};
use blindfl::multiparty::{collect_guests, send_hello};
use blindfl::persist::{export_party_a, export_party_b, import_party_a, import_party_b};
use blindfl::serve::serve_party_a;
use blindfl::session::{multi_party_seed, party_seed, Role, Session};
use blindfl::source::matmul::{aggregate_a, aggregate_b};
use blindfl::source::{EmbedSource, MatMulSource};
use blindfl::train::{run_party_a, run_party_b, FedTrainConfig};
use blindfl::trees::{run_gbdt_guest, run_gbdt_host};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{process_cpu_secs, Metrics};
use crate::trace::{Recorder, Span};

pub use bf_ml::data::Dataset;
pub use bf_ml::gbdt::{GbdtParams, Tree};
pub use bf_mpc::transport::NetworkProfile;
pub use bf_tensor::{CatBlock, Dense, Features};
pub use blindfl::config::FedConfig;
pub use blindfl::engine::TrainMode;
pub use blindfl::gateway::GatewayReport;
pub use blindfl::models::FedSpec;

/// Party threads run deep protocol stacks; same size the product's own
/// harnesses use.
const PARTY_STACK: usize = 16 << 20;
/// Shuffle seed shared by both parties (the product's default).
const SCHEDULE_SEED: u64 = 42;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// The one cryptographic configuration every workload shares, so layer
/// numbers are comparable across workloads.
#[derive(Clone, Copy, Debug)]
pub struct Crypto {
    pub key_bits: usize,
    pub frac_bits: u32,
    pub pool: usize,
    pub he_mask: f64,
}

impl Crypto {
    /// Paillier-1024 (2048-bit `n²`), 32 fractional bits, packed
    /// uploads, a 64-entry obfuscation pool.
    pub const FULL: Crypto = Crypto {
        key_bits: 1024,
        frac_bits: 32,
        pool: 64,
        he_mask: 1e4,
    };
    /// The product's unit-test key size, for `--smoke` only.
    pub const SMOKE: Crypto = Crypto {
        key_bits: 256,
        frac_bits: 24,
        pool: 8,
        he_mask: 100.0,
    };

    pub fn fed_config(&self) -> FedConfig {
        FedConfig {
            backend: Backend::Paillier {
                key_bits: self.key_bits,
            },
            frac_bits: self.frac_bits,
            obf_mode: ObfMode::Pool(self.pool),
            paillier_mode: PaillierMode::Packed,
            he_mask: self.he_mask,
            grad_mode: GradMode::SecretShared,
            lr: 0.05,
            momentum: 0.9,
        }
    }

    /// The same protocol parameters over the identity backend: the
    /// reference the loss curves are checked against.
    pub fn plain_config(&self) -> FedConfig {
        FedConfig {
            backend: Backend::Plain,
            obf_mode: ObfMode::Pool(2),
            paillier_mode: PaillierMode::Scalar,
            ..self.fed_config()
        }
    }
}

// ---------------------------------------------------------------- data

/// A vertically split train/test pair.
#[derive(Clone)]
pub struct VflSplit {
    pub train_a: Dataset,
    pub train_b: Dataset,
    pub test_a: Dataset,
    pub test_b: Dataset,
}

/// A catalogue dataset shape (`a9a`, `news20`) at full feature
/// dimensionality with the given row counts; a pure function of `seed`.
pub fn tabular_split(name: &str, train_rows: usize, test_rows: usize, seed: u64) -> VflSplit {
    let mut spec = bf_datagen::spec(name);
    spec.train_rows = train_rows;
    spec.test_rows = test_rows;
    let (train, test) = generate(&spec, seed);
    let (train, test) = (vsplit(&train), vsplit(&test));
    VflSplit {
        train_a: train.party_a,
        train_b: train.party_b,
        test_a: test.party_a,
        test_b: test.party_b,
    }
}

/// The tree workload's data: collocated (for the twin), guest slices,
/// host slice with labels.
pub struct TreeData {
    pub collocated: Dataset,
    pub guests: Vec<Dataset>,
    pub host: Dataset,
}

pub fn tree_data(rows: usize, features: usize, guests: usize, seed: u64) -> TreeData {
    let ds = generate_tree(rows, features, seed);
    let split = vsplit_multi(&ds, guests);
    TreeData {
        collocated: ds,
        guests: split.guests,
        host: split.party_b,
    }
}

/// Cheap content fingerprint, for the "inputs are a pure function of
/// the seed" test.
#[cfg(test)]
pub fn dataset_fingerprint(ds: &Dataset) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
    if let Some(x) = &ds.num {
        mix(x.rows() as u64);
        mix(x.cols() as u64);
        mix(x.nnz() as u64);
        for c in x.col_support() {
            mix(c as u64);
        }
        let probe = Dense::from_vec(x.cols(), 1, (0..x.cols()).map(|c| c as f64 + 1.0).collect());
        for v in x.matmul(&probe).data() {
            mix(v.to_bits());
        }
    }
    if let Some(c) = &ds.cat {
        for &i in c.indices() {
            mix(i as u64);
        }
    }
    if let Some(l) = &ds.labels {
        mix(l.len() as u64);
    }
    h
}

// ------------------------------------------------------------ training

/// Seconds a party spent in each engine stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSecs {
    pub encrypt_upload: f64,
    pub fed_matmul: f64,
    pub fed_embed: f64,
    pub top_local: f64,
    pub decrypt_update: f64,
}

impl StageSecs {
    fn read(t: &StageTimes) -> StageSecs {
        StageSecs {
            encrypt_upload: t.secs(Stage::EncryptUpload),
            fed_matmul: t.secs(Stage::FedMatmul),
            fed_embed: t.secs(Stage::FedEmbed),
            top_local: t.secs(Stage::TopLocal),
            decrypt_update: t.secs(Stage::DecryptUpdate),
        }
    }

    pub fn minus(&self, o: &StageSecs) -> StageSecs {
        StageSecs {
            encrypt_upload: self.encrypt_upload - o.encrypt_upload,
            fed_matmul: self.fed_matmul - o.fed_matmul,
            fed_embed: self.fed_embed - o.fed_embed,
            top_local: self.top_local - o.top_local,
            decrypt_update: self.decrypt_update - o.decrypt_update,
        }
    }

    pub fn total(&self) -> f64 {
        self.encrypt_upload
            + self.fed_matmul
            + self.fed_embed
            + self.top_local
            + self.decrypt_update
    }
}

/// One party's counters over the training loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartySide {
    pub bytes: u64,
    pub msgs: u64,
    pub stages: StageSecs,
}

/// Key material in its persisted (string) form.
#[derive(Clone)]
pub struct KeyPair {
    pub public: String,
    pub secret: String,
}

impl KeyPair {
    fn of(sess: &Session) -> KeyPair {
        KeyPair {
            public: export_public(&sess.own_pk),
            secret: export_secret(&sess.own_sk),
        }
    }

    fn load(&self) -> Result<(PublicKey, SecretKey), String> {
        Ok((import_public(&self.public)?, import_secret(&self.secret)?))
    }
}

pub struct TrainJob<'a> {
    pub spec: &'a FedSpec,
    pub cfg: &'a FedConfig,
    pub data: &'a VflSplit,
    pub batch: usize,
    pub epochs: usize,
    pub mode: TrainMode,
    pub net: Option<NetworkProfile>,
    pub seed: u64,
}

impl TrainJob<'_> {
    fn train_config(&self) -> FedTrainConfig {
        FedTrainConfig {
            base: bf_ml::TrainConfig {
                epochs: self.epochs,
                batch_size: self.batch,
                seed: SCHEDULE_SEED,
                ..Default::default()
            },
            mode: self.mode,
            ..Default::default()
        }
    }

    fn endpoints(&self) -> (Endpoint, Endpoint) {
        match self.net {
            Some(p) => bf_mpc::channel_pair_with_network(p),
            None => bf_mpc::channel_pair(),
        }
    }
}

/// What a federated training run returns, both parties' views.
pub struct TrainRun {
    /// Handshake to the last party's return, seconds.
    pub wall_s: f64,
    /// The host's training loop (the timed region), seconds.
    pub train_s: f64,
    /// Process CPU seconds (all threads) spent between those two points.
    pub cpu_s: f64,
    pub batches: usize,
    pub rows: usize,
    pub losses: Vec<f64>,
    /// Whole-run counters (handshake, init and final eval included).
    pub guest: PartySide,
    pub host: PartySide,
    pub model_a: PartyAModel,
    pub model_b: PartyBModel,
    pub keys_a: KeyPair,
    pub keys_b: KeyPair,
}

fn side(sess: &Session) -> PartySide {
    PartySide {
        bytes: sess.ep.stats().bytes(),
        msgs: sess.ep.stats().msgs(),
        stages: StageSecs::read(&sess.stages),
    }
}

fn spawn_party<'scope, 'env, T: Send + 'scope>(
    s: &'scope std::thread::Scope<'scope, 'env>,
    name: String,
    f: impl FnOnce() -> T + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, T> {
    std::thread::Builder::new()
        .name(name)
        .stack_size(PARTY_STACK)
        .spawn_scoped(s, f)
        .expect("spawn party thread")
}

fn join<T>(h: std::thread::ScopedJoinHandle<'_, T>, who: &str) -> Result<T, String> {
    h.join().map_err(|_| format!("{who} thread panicked"))
}

/// The untraced run: both parties through the product's per-party
/// entry points, guest on its own thread, host on the caller's.
pub fn train_entry(job: &TrainJob) -> Result<TrainRun, String> {
    let tc = job.train_config();
    let started = Instant::now();
    let cpu0 = process_cpu_secs();
    let (ep_a, ep_b) = job.endpoints();
    std::thread::scope(|s| {
        let guest = spawn_party(s, "guest".into(), || {
            let mut sess = Session::handshake(
                ep_a,
                job.cfg.clone(),
                Role::A,
                party_seed(Role::A, job.seed),
            )
            .map_err(|e| format!("guest handshake: {e}"))?;
            let run = run_party_a(
                &mut sess,
                job.spec,
                &tc,
                &job.data.train_a,
                &job.data.test_a,
            )
            .map_err(|e| format!("guest run: {e}"))?;
            Ok::<_, String>((run.model, side(&sess), KeyPair::of(&sess)))
        });
        let host = (|| {
            let mut sess = Session::handshake(
                ep_b,
                job.cfg.clone(),
                Role::B,
                party_seed(Role::B, job.seed),
            )
            .map_err(|e| format!("host handshake: {e}"))?;
            let run = run_party_b(
                &mut sess,
                job.spec,
                &tc,
                &job.data.train_b,
                &job.data.test_b,
            )
            .map_err(|e| format!("host run: {e}"))?;
            Ok::<_, String>((run, side(&sess), KeyPair::of(&sess)))
        })();
        let guest = join(guest, "guest")?;
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = process_cpu_secs() - cpu0;
        let (run_b, host_side, keys_b) = host?;
        let (model_a, guest_side, keys_a) = guest?;
        Ok(TrainRun {
            wall_s,
            train_s: run_b.train_secs,
            cpu_s,
            batches: run_b.losses.len(),
            rows: run_b.losses.len() * job.batch,
            losses: run_b.losses,
            guest: guest_side,
            host: host_side,
            model_a,
            model_b: run_b.model,
            keys_a,
            keys_b,
        })
    })
}

/// Per-batch numbers only the traced loop can see.
#[derive(Default)]
pub struct TracedExtras {
    /// Host-view wall of every mini-batch, seconds.
    pub batch_secs: Vec<f64>,
    /// Process CPU seconds (both parties, all threads) over the host's
    /// training loop.
    pub loop_cpu_s: f64,
    /// Counters over the training loop only (init and eval excluded).
    pub guest_loop: PartySide,
    pub host_loop: PartySide,
    /// Per-batch wall of the bare source layers (host view), seconds:
    /// `(matmul_fwd, matmul_bwd, embed_fwd, embed_bwd)`.
    pub source_secs: (f64, f64, f64, f64),
}

/// Mini-batches the bare source layers are driven for after training.
const SOURCE_BATCHES: usize = 2;

fn delta(after: &PartySide, before: &PartySide) -> PartySide {
    PartySide {
        bytes: after.bytes - before.bytes,
        msgs: after.msgs - before.msgs,
        stages: after.stages.minus(&before.stages),
    }
}

fn source_dims(spec: &FedSpec) -> (usize, Option<(usize, usize)>) {
    match spec {
        FedSpec::Glm { out } => (*out, None),
        FedSpec::Mlp { widths } => (widths[0], None),
        FedSpec::Wdl {
            emb_dim,
            deep_hidden,
            out,
        } => (
            *out,
            Some((*emb_dim, deep_hidden.first().copied().unwrap_or(*out))),
        ),
        FedSpec::Dlrm {
            emb_dim, vec_dim, ..
        } => (*vec_dim, Some((*emb_dim, *vec_dim))),
    }
}

/// The traced run: the same inputs through the public per-batch calls
/// (`Session::handshake` → `Party{A,B}Model::init` → per batch
/// `Dataset::select`, `forward`, `backward`), one span per call, stage
/// and traffic counters read at span edges. After the final eval the
/// same sessions drive the bare source layers for a few batches.
/// Lock-step (`TrainMode::Sync`) only: the pipelined engine's prefetch
/// thread cannot be reproduced from outside.
pub fn train_traced(
    job: &TrainJob,
    epoch0: Instant,
) -> Result<(TrainRun, TracedExtras, Vec<Vec<Span>>), String> {
    assert_eq!(job.mode, TrainMode::Sync, "the traced loop is lock-step");
    let started = Instant::now();
    let cpu0 = process_cpu_secs();
    let (ep_a, ep_b) = job.endpoints();
    let schedule =
        |epoch: usize, rows: usize| BatchIter::new(rows, job.batch, SCHEDULE_SEED ^ epoch as u64);
    let eval_chunks = |rows: usize| -> Vec<Vec<usize>> {
        (0..rows)
            .collect::<Vec<_>>()
            .chunks(job.batch)
            .map(<[usize]>::to_vec)
            .collect()
    };
    let (mm_out, embed_dims) = source_dims(job.spec);
    let source_rows = |b: usize, rows: usize| -> Vec<usize> {
        (0..job.batch).map(|j| (b * job.batch + j) % rows).collect()
    };

    std::thread::scope(|s| {
        let guest = spawn_party(s, "guest".into(), || {
            let mut rec = Recorder::new("guest", epoch0);
            let train = &job.data.train_a;
            let out = rec.span("session", None, |rec| {
                let mut sess = rec
                    .span("handshake", None, |_| {
                        Session::handshake(
                            ep_a,
                            job.cfg.clone(),
                            Role::A,
                            party_seed(Role::A, job.seed),
                        )
                    })
                    .map_err(|e| format!("guest handshake: {e}"))?;
                let mut model = rec
                    .span("init", None, |_| {
                        PartyAModel::init(&mut sess, job.spec, train)
                    })
                    .map_err(|e| format!("guest init: {e}"))?;
                let before = side(&sess);
                let mut b = 0u64;
                for epoch in 0..job.epochs {
                    for idx in schedule(epoch, train.rows()) {
                        rec.span("batch", Some(b), |rec| {
                            let batch = rec.span("select", Some(b), |_| train.select(&idx));
                            rec.span("forward", Some(b), |_| {
                                model.forward(&mut sess, &batch, true)
                            })?;
                            rec.span("backward", Some(b), |_| model.backward(&mut sess))
                        })
                        .map_err(|e| format!("guest batch {b}: {e}"))?;
                        b += 1;
                    }
                }
                let loop_side = delta(&side(&sess), &before);
                rec.span("eval", None, |_| {
                    for idx in eval_chunks(job.data.test_a.rows()) {
                        model.predict_batch(&mut sess, &job.data.test_a.select(&idx))?;
                    }
                    Ok::<_, bf_mpc::TransportError>(())
                })
                .map_err(|e| format!("guest eval: {e}"))?;
                let whole = side(&sess);
                rec.span("source_layers", None, |rec| {
                    let mut mm = MatMulSource::init(&mut sess, train.num_dim(), mm_out)?;
                    let mut em = match (embed_dims, &train.cat) {
                        (Some((dim, proj)), Some(cat)) => Some(EmbedSource::init(
                            &mut sess,
                            cat.vocab(),
                            cat.fields(),
                            dim,
                            proj,
                        )?),
                        _ => None,
                    };
                    for b in 0..SOURCE_BATCHES {
                        let batch = train.select(&source_rows(b, train.rows()));
                        let id = Some(b as u64);
                        rec.span("source.matmul_fwd", id, |_| {
                            let z =
                                mm.forward(&mut sess, batch.num.as_ref().expect("num"), true)?;
                            aggregate_a(&sess, z)
                        })?;
                        rec.span("source.matmul_bwd", id, |_| mm.backward_a(&mut sess))?;
                        if let Some(em) = &mut em {
                            rec.span("source.embed_fwd", id, |_| {
                                let z =
                                    em.forward(&mut sess, batch.cat.as_ref().expect("cat"), true)?;
                                aggregate_a(&sess, z)
                            })?;
                            rec.span("source.embed_bwd", id, |_| em.backward_a(&mut sess))?;
                        }
                    }
                    Ok::<_, bf_mpc::TransportError>(())
                })
                .map_err(|e| format!("guest source layers: {e}"))?;
                Ok::<_, String>((model, whole, loop_side, KeyPair::of(&sess)))
            });
            out.map(|o| (o, rec.into_spans()))
        });

        let host = {
            let mut rec = Recorder::new("host", epoch0);
            let train = &job.data.train_b;
            let out = rec.span("session", None, |rec| {
                let mut sess = rec
                    .span("handshake", None, |_| {
                        Session::handshake(
                            ep_b,
                            job.cfg.clone(),
                            Role::B,
                            party_seed(Role::B, job.seed),
                        )
                    })
                    .map_err(|e| format!("host handshake: {e}"))?;
                let mut model = rec
                    .span("init", None, |_| {
                        PartyBModel::init(&mut sess, job.spec, train)
                    })
                    .map_err(|e| format!("host init: {e}"))?;
                let before = side(&sess);
                let loop_started = Instant::now();
                let loop_cpu0 = process_cpu_secs();
                let mut losses = Vec::new();
                let mut batch_secs = Vec::new();
                for epoch in 0..job.epochs {
                    for idx in schedule(epoch, train.rows()) {
                        let b = losses.len() as u64;
                        let t = Instant::now();
                        let loss = rec
                            .span("batch", Some(b), |rec| {
                                let batch = rec.span("select", Some(b), |_| train.select(&idx));
                                let labels = batch.labels.as_ref().expect("host holds the labels");
                                let (logits, cache) = rec.span("forward", Some(b), |_| {
                                    model.forward(&mut sess, &batch, true)
                                })?;
                                let (loss, grad) =
                                    rec.span("loss", Some(b), |_| loss_and_grad(&logits, labels));
                                rec.span("backward", Some(b), |_| {
                                    model.backward(&mut sess, &grad, &cache)
                                })?;
                                Ok::<_, bf_mpc::TransportError>(loss)
                            })
                            .map_err(|e| format!("host batch {b}: {e}"))?;
                        batch_secs.push(t.elapsed().as_secs_f64());
                        losses.push(loss);
                    }
                }
                let train_s = loop_started.elapsed().as_secs_f64();
                let loop_cpu_s = process_cpu_secs() - loop_cpu0;
                let loop_side = delta(&side(&sess), &before);
                rec.span("eval", None, |_| {
                    for idx in eval_chunks(job.data.test_b.rows()) {
                        model.predict_batch(&mut sess, &job.data.test_b.select(&idx))?;
                    }
                    Ok::<_, bf_mpc::TransportError>(())
                })
                .map_err(|e| format!("host eval: {e}"))?;
                let whole = side(&sess);
                let whole_s = started.elapsed().as_secs_f64();
                let whole_cpu_s = process_cpu_secs() - cpu0;
                let mut src = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
                rec.span("source_layers", None, |rec| {
                    let mut mm = MatMulSource::init(&mut sess, train.num_dim(), mm_out)?;
                    let mut em = match (embed_dims, &train.cat) {
                        (Some((dim, proj)), Some(cat)) => Some((
                            EmbedSource::init(&mut sess, cat.vocab(), cat.fields(), dim, proj)?,
                            Dense::from_vec(job.batch, proj, vec![0.01; job.batch * proj]),
                        )),
                        _ => None,
                    };
                    // A synthetic ∇Z of the right shape: the cost timed
                    // is the protocol's, not the loss function's.
                    let grad = Dense::from_vec(job.batch, mm_out, vec![0.01; job.batch * mm_out]);
                    for b in 0..SOURCE_BATCHES {
                        let batch = train.select(&source_rows(b, train.rows()));
                        let id = Some(b as u64);
                        let mut timed =
                            |slot: usize, t: Instant| src[slot].push(t.elapsed().as_secs_f64());
                        let t = Instant::now();
                        rec.span("source.matmul_fwd", id, |_| {
                            let z =
                                mm.forward(&mut sess, batch.num.as_ref().expect("num"), true)?;
                            aggregate_b(&sess, z)
                        })?;
                        timed(0, t);
                        let t = Instant::now();
                        rec.span("source.matmul_bwd", id, |_| mm.backward_b(&mut sess, &grad))?;
                        timed(1, t);
                        if let Some((em, grad_e)) = &mut em {
                            let t = Instant::now();
                            rec.span("source.embed_fwd", id, |_| {
                                let z =
                                    em.forward(&mut sess, batch.cat.as_ref().expect("cat"), true)?;
                                aggregate_b(&sess, z)
                            })?;
                            timed(2, t);
                            let t = Instant::now();
                            rec.span("source.embed_bwd", id, |_| em.backward_b(&mut sess, grad_e))?;
                            timed(3, t);
                        }
                    }
                    Ok::<_, bf_mpc::TransportError>(())
                })
                .map_err(|e| format!("host source layers: {e}"))?;
                let extras = TracedExtras {
                    batch_secs,
                    loop_cpu_s,
                    guest_loop: PartySide::default(),
                    host_loop: loop_side,
                    source_secs: (
                        bf_util::mean(&src[0]),
                        bf_util::mean(&src[1]),
                        bf_util::mean(&src[2]),
                        bf_util::mean(&src[3]),
                    ),
                };
                Ok::<_, String>((
                    model,
                    losses,
                    train_s,
                    whole,
                    (whole_s, whole_cpu_s),
                    extras,
                    KeyPair::of(&sess),
                ))
            });
            out.map(|o| (o, rec.into_spans()))
        };

        let guest = join(guest, "guest")?;
        let (
            (model_b, losses, train_s, host_side, (wall_s, cpu_s), mut extras, keys_b),
            host_spans,
        ) = host?;
        let ((model_a, guest_side, guest_loop, keys_a), guest_spans) = guest?;
        extras.guest_loop = guest_loop;
        let run = TrainRun {
            wall_s,
            train_s,
            cpu_s,
            batches: losses.len(),
            rows: losses.len() * job.batch,
            losses,
            guest: guest_side,
            host: host_side,
            model_a,
            model_b,
            keys_a,
            keys_b,
        };
        Ok((run, extras, vec![guest_spans, host_spans]))
    })
}

// --------------------------------------------------------------- trees

pub struct GbdtJob<'a> {
    pub cfg: &'a FedConfig,
    pub params: &'a GbdtParams,
    pub data: &'a TreeData,
    pub seed: u64,
}

pub struct GbdtRun {
    pub wall_s: f64,
    /// Process CPU seconds over the whole entry (set-up included).
    pub cpu_s: f64,
    pub tree_secs: Vec<f64>,
    pub losses: Vec<f64>,
    pub trees: Vec<Tree>,
    /// Training-phase bytes per link, host → guest and guest → host.
    pub host_bytes_per_link: Vec<u64>,
    pub guest_bytes_per_link: Vec<u64>,
    /// Messages over all links, both directions, handshake included.
    pub msgs: u64,
}

/// Federated boosting through `run_gbdt_host` / `run_gbdt_guest`, wired
/// like the product's in-process harness (hello fan-in, per-link seeds).
pub fn gbdt_entry(job: &GbdtJob) -> Result<GbdtRun, String> {
    let m = job.data.guests.len();
    let started = Instant::now();
    let cpu0 = process_cpu_secs();
    std::thread::scope(|s| {
        let mut host_eps = Vec::with_capacity(m);
        let mut handles = Vec::with_capacity(m);
        for (i, store) in job.data.guests.iter().enumerate() {
            let (ep_a, ep_b) = bf_mpc::channel_pair();
            host_eps.push(ep_b);
            handles.push(spawn_party(s, format!("gbdt-guest-{i}"), move || {
                send_hello(&ep_a, i, m).map_err(|e| format!("guest {i} hello: {e}"))?;
                let seed = multi_party_seed(Role::A, i, job.seed);
                let mut sess = Session::handshake(ep_a, job.cfg.clone(), Role::A, seed)
                    .map_err(|e| format!("guest {i} handshake: {e}"))?;
                let run = run_gbdt_guest(&mut sess, store, job.params)
                    .map_err(|e| format!("guest {i} run: {e}"))?;
                Ok::<_, String>((run.bytes_sent, sess.ep.stats().msgs()))
            }));
        }
        let host = (|| {
            let ordered = collect_guests(host_eps, m).map_err(|e| format!("guest fan-in: {e}"))?;
            let mut sessions = Vec::with_capacity(m);
            for (i, ep) in ordered.into_iter().enumerate() {
                let seed = multi_party_seed(Role::B, i, job.seed);
                sessions.push(
                    Session::handshake(ep, job.cfg.clone(), Role::B, seed)
                        .map_err(|e| format!("host handshake {i}: {e}"))?,
                );
            }
            let run = run_gbdt_host(&mut sessions, &job.data.host, job.params)
                .map_err(|e| format!("host run: {e}"))?;
            let msgs: u64 = sessions.iter().map(|s| s.ep.stats().msgs()).sum();
            Ok::<_, String>((run, msgs))
        })();
        let mut guest_bytes_per_link = Vec::with_capacity(m);
        let mut msgs = 0;
        let mut guest_err = None;
        for (i, h) in handles.into_iter().enumerate() {
            match join(h, &format!("guest {i}")).and_then(|r| r) {
                Ok((bytes, n)) => {
                    guest_bytes_per_link.push(bytes);
                    msgs += n;
                }
                Err(e) => guest_err = Some(e),
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        let (run, host_msgs) = host?;
        if let Some(e) = guest_err {
            return Err(e);
        }
        Ok(GbdtRun {
            wall_s,
            cpu_s: process_cpu_secs() - cpu0,
            tree_secs: run.tree_secs,
            losses: run.losses,
            trees: run.model.trees,
            host_bytes_per_link: run.bytes_sent_per_link,
            guest_bytes_per_link,
            msgs: msgs + host_msgs,
        })
    })
}

/// The collocated XGBoost twin: the federated forest must equal it bit
/// for bit.
pub fn gbdt_twin(collocated: &Dataset, params: &GbdtParams) -> (Vec<Tree>, Vec<f64>) {
    let (model, losses) = CollocatedGbdt::train(collocated, params);
    (model.trees, losses)
}

// ------------------------------------------------------------- serving

/// Both trained halves and both key pairs in persisted form.
pub struct PersistedModel {
    pub bytes_a: Vec<u8>,
    pub bytes_b: Vec<u8>,
    pub keys_a: KeyPair,
    pub keys_b: KeyPair,
}

pub fn persist(run: &TrainRun) -> PersistedModel {
    PersistedModel {
        bytes_a: export_party_a(&run.model_a),
        bytes_b: export_party_b(&run.model_b),
        keys_a: run.keys_a.clone(),
        keys_b: run.keys_b.clone(),
    }
}

pub struct GatewayJob<'a> {
    pub cfg: &'a FedConfig,
    pub model: &'a PersistedModel,
    pub store_a: &'a Dataset,
    pub store_b: &'a Dataset,
    pub replicas: usize,
    pub net: Option<NetworkProfile>,
    pub max_batch: usize,
    /// Requests each client connection keeps in flight (closed loop).
    pub window: usize,
    /// One row plan per client connection.
    pub plans: Vec<Vec<u64>>,
    pub seed: u64,
}

/// One answered request as its client saw it.
pub struct Reply {
    pub row: u64,
    pub bits: Vec<u64>,
    pub submitted: Instant,
    pub answered: Instant,
}

pub struct GatewayRun {
    /// Replica set-up to gateway drain, seconds.
    pub wall_s: f64,
    /// First client connect to last reply (the timed region), seconds.
    pub fleet_s: f64,
    /// Process CPU seconds over the timed region.
    pub fleet_cpu_s: f64,
    /// Key + model import, summed over replicas and parties, seconds.
    pub import_s: f64,
    pub replies: Vec<Reply>,
    /// Requests refused or lost (rejections, client transport errors).
    pub failed: u64,
    pub report: GatewayReport,
    /// Serve-phase bytes guest → host, summed over replicas.
    pub guest_bytes: u64,
}

/// The persisted halves re-imported into a replica session with the
/// training keys (the production serving shape).
fn serve_session(
    ep: Endpoint,
    cfg: &FedConfig,
    role: Role,
    keys: &KeyPair,
    seed: u64,
) -> Result<Session, String> {
    let (pk, sk) = keys.load()?;
    Session::handshake_with_keys(ep, cfg.clone(), role, pk, sk, party_seed(role, seed))
        .map_err(|e| format!("{role:?} serve handshake: {e}"))
}

/// Stand up `run_gateway` over in-process guest links and a loopback
/// TCP front door, then drive it from one closed-loop client thread per
/// plan.
pub fn gateway_entry(job: &GatewayJob) -> Result<GatewayRun, String> {
    let started = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("front-door addr: {e}"))?;
    let stop = AtomicBool::new(false);
    let gw_cfg = GatewayConfig {
        max_batch: job.max_batch,
        conn_window: job.window.max(1),
        ..GatewayConfig::default()
    };
    std::thread::scope(|s| {
        let mut replicas = Vec::new();
        let mut guests = Vec::new();
        let mut import_s = 0.0;
        for r in 0..job.replicas {
            let (ep_a, ep_b) = match job.net {
                Some(p) => bf_mpc::channel_pair_with_network(p),
                None => bf_mpc::channel_pair(),
            };
            let seed = gateway_replica_seed(job.seed, r);
            guests.push(spawn_party(s, format!("gw-guest-{r}"), move || {
                let t = Instant::now();
                let mut model =
                    import_party_a(&job.model.bytes_a).map_err(|e| format!("guest model: {e}"))?;
                let keys = job.model.keys_a.load();
                let import_s = t.elapsed().as_secs_f64();
                let (pk, sk) = keys?;
                let mut sess = Session::handshake_with_keys(
                    ep_a,
                    job.cfg.clone(),
                    Role::A,
                    pk,
                    sk,
                    party_seed(Role::A, seed),
                )
                .map_err(|e| format!("guest serve handshake: {e}"))?;
                let report = serve_party_a(&mut sess, &mut model, job.store_a)
                    .map_err(|e| format!("guest serve loop: {e}"))?;
                Ok::<_, String>((report.bytes_sent, import_s))
            }));
            let t = Instant::now();
            let model =
                import_party_b(&job.model.bytes_b).map_err(|e| format!("host model: {e}"))?;
            import_s += t.elapsed().as_secs_f64();
            let sess = serve_session(ep_b, job.cfg, Role::B, &job.model.keys_b, seed)?;
            replicas.push(GatewayReplica::TwoParty { sess, model });
        }
        let gw = spawn_party(s, "gateway".into(), || {
            run_gateway(listener, replicas, job.store_b, &gw_cfg, &stop)
                .map_err(|e| format!("gateway: {e}"))
        });

        let fleet_started = Instant::now();
        let fleet_cpu0 = process_cpu_secs();
        let clients: Vec<_> = job
            .plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                spawn_party(s, format!("gw-client-{c}"), move || {
                    let mut client = GatewayClient::connect(addr, CONNECT_TIMEOUT)
                        .map_err(|e| format!("connect: {e}"))?;
                    let mut sent: std::collections::VecDeque<Instant> = Default::default();
                    let mut replies = Vec::with_capacity(plan.len());
                    let mut failed = 0u64;
                    let mut next = 0usize;
                    while next < plan.len() || client.in_flight() > 0 {
                        // Closed loop: top the window up, then wait for
                        // the oldest reply before sending more.
                        while next < plan.len() && client.in_flight() < job.window {
                            sent.push_back(Instant::now());
                            client
                                .submit(plan[next])
                                .map_err(|e| format!("submit: {e}"))?;
                            next += 1;
                        }
                        let (row, reply) = client.recv().map_err(|e| format!("recv: {e}"))?;
                        let submitted = sent
                            .pop_front()
                            .expect("one timestamp per request in flight");
                        match reply {
                            Ok(logits) => replies.push(Reply {
                                row,
                                bits: logits.iter().map(|v| v.to_bits()).collect(),
                                submitted,
                                answered: Instant::now(),
                            }),
                            Err(_) => failed += 1,
                        }
                    }
                    Ok::<_, String>((replies, failed))
                })
            })
            .collect();
        let mut replies = Vec::new();
        let mut failed = 0u64;
        let mut client_err = None;
        for (c, h) in clients.into_iter().enumerate() {
            match join(h, &format!("client {c}")).and_then(|r| r) {
                Ok((r, f)) => {
                    replies.extend(r);
                    failed += f;
                }
                Err(e) => client_err = Some(e),
            }
        }
        let fleet_s = fleet_started.elapsed().as_secs_f64();
        let fleet_cpu_s = process_cpu_secs() - fleet_cpu0;
        stop.store(true, Ordering::Relaxed);
        let report = join(gw, "gateway").and_then(|r| r);
        let mut guest_bytes = 0;
        let mut guest_err = None;
        for (r, h) in guests.into_iter().enumerate() {
            match join(h, &format!("gateway guest {r}")).and_then(|r| r) {
                Ok((bytes, imp)) => {
                    guest_bytes += bytes;
                    import_s += imp;
                }
                Err(e) => guest_err = Some(e),
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        let report = report?;
        if let Some(e) = client_err.or(guest_err) {
            return Err(e);
        }
        // Every planned request that did not come back as logits.
        let planned: usize = job.plans.iter().map(Vec::len).sum();
        let failed = failed.max((planned - replies.len()) as u64);
        Ok(GatewayRun {
            wall_s,
            fleet_s,
            fleet_cpu_s,
            import_s,
            replies,
            failed,
            report,
            guest_bytes,
        })
    })
}

/// Replay one replica's recorded batch partitions through the direct
/// `predict_batch` forward on identically keyed and seeded sessions (no
/// simulated link: bits do not depend on the transport). Returns
/// row → logit bits (only plaintexts are compared, never ciphertexts)
/// and the messages the forwards exchanged, both directions.
pub fn replay_replica(
    job: &GatewayJob,
    replica: usize,
    partitions: &[Vec<u32>],
) -> Result<(HashMap<u64, Vec<u64>>, u64), String> {
    let parts: Vec<Vec<usize>> = partitions
        .iter()
        .map(|p| p.iter().map(|&r| r as usize).collect())
        .collect();
    let seed = gateway_replica_seed(job.seed, replica);
    let (ep_a, ep_b) = bf_mpc::channel_pair();
    std::thread::scope(|s| {
        let parts_ref = &parts;
        let guest = spawn_party(s, "replay-guest".into(), move || {
            let mut model = import_party_a(&job.model.bytes_a)
                .map_err(|e| format!("replay guest model: {e}"))?;
            let mut sess = serve_session(ep_a, job.cfg, Role::A, &job.model.keys_a, seed)?;
            let handshake_msgs = sess.ep.stats().msgs();
            for p in parts_ref {
                model
                    .predict_batch(&mut sess, &job.store_a.select(p))
                    .map_err(|e| format!("replay guest forward: {e}"))?;
            }
            Ok::<_, String>(sess.ep.stats().msgs() - handshake_msgs)
        });
        let host = (|| {
            let mut model = import_party_b(&job.model.bytes_b)
                .map_err(|e| format!("replay host model: {e}"))?;
            let mut sess = serve_session(ep_b, job.cfg, Role::B, &job.model.keys_b, seed)?;
            let handshake_msgs = sess.ep.stats().msgs();
            let mut map = HashMap::new();
            for p in &parts {
                let logits = model
                    .predict_batch(&mut sess, &job.store_b.select(p))
                    .map_err(|e| format!("replay host forward: {e}"))?;
                for (k, &row) in p.iter().enumerate() {
                    map.insert(
                        row as u64,
                        logits.row(k).iter().map(|v| v.to_bits()).collect(),
                    );
                }
            }
            Ok::<_, String>((map, sess.ep.stats().msgs() - handshake_msgs))
        })();
        let guest_msgs = join(guest, "replay guest")??;
        host.map(|(map, host_msgs)| (map, host_msgs + guest_msgs))
    })
}

// ------------------------------------------------- kernel replay rungs

/// A standalone key pair and obfuscator for the replay rungs (kernel
/// cost does not depend on whose key it is).
pub struct KernelKit {
    pk: PublicKey,
    sk: SecretKey,
    obf: Obfuscator,
    rng: StdRng,
    he_mask: f64,
}

fn time<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Seconds per call of `f`, repeated until at least `min_secs` have
/// been measured.
fn per_call_secs(min_secs: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let (mut calls, t) = (0u64, Instant::now());
    loop {
        f();
        calls += 1;
        let el = t.elapsed().as_secs_f64();
        if el >= min_secs {
            return el / calls as f64;
        }
    }
}

impl KernelKit {
    /// Key generation and pool build are themselves rungs
    /// (`paillier.keygen_s`, `paillier.obf_pool_build_s`).
    pub fn new(crypto: Crypto, seed: u64, m: &mut Metrics) -> KernelKit {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1adde5);
        let t = Instant::now();
        let (pk, sk) = keygen(crypto.key_bits, crypto.frac_bits, &mut rng);
        m.set("paillier.keygen_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let obf = Obfuscator::new(&pk, ObfMode::Pool(crypto.pool), seed ^ 0x0bf);
        m.set("paillier.obf_pool_build_s", t.elapsed().as_secs_f64());
        let slots = SlotLayout::for_key(crypto.key_bits, crypto.frac_bits).map_or(1, |l| l.slots);
        m.set("paillier.slots_per_ct", slots as f64);
        KernelKit {
            pk,
            sk,
            obf,
            rng,
            he_mask: crypto.he_mask,
        }
    }

    fn dense(&mut self, rows: usize, cols: usize, scale: f64) -> Dense {
        let data = (0..rows * cols)
            .map(|_| (self.rng.random::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Dense::from_vec(rows, cols, data)
    }

    fn enc(&self, m: &Dense) -> CtMat {
        self.pk.encrypt_mode(m, PaillierMode::Packed, &self.obf)
    }

    /// The bigint and per-ciphertext rungs, on a 32×8 matrix (scalar
    /// ciphertexts, 256 of them).
    pub fn micro_rungs(&mut self, m: &mut Metrics) {
        let PublicKey::Paillier(pk) = self.pk.clone() else {
            return;
        };
        let mont = &pk.mont;
        let a = mont.to_mont(&bf_bigint::random_below(&mut self.rng, &pk.n2));
        let b = mont.to_mont(&bf_bigint::random_below(&mut self.rng, &pk.n2));
        let short = bf_bigint::random_bits(&mut self.rng, 64);
        let full = bf_bigint::random_bits(&mut self.rng, pk.key_bits);
        let batch =
            |n: usize, f: &dyn Fn()| per_call_secs(0.05, || (0..n).for_each(|_| f())) / n as f64;
        m.set(
            "bigint.mont_mul_ns",
            batch(256, &|| drop(std::hint::black_box(mont.mont_mul(&a, &b)))) * 1e9,
        );
        m.set(
            "bigint.mont_sqr_ns",
            batch(256, &|| drop(std::hint::black_box(mont.mont_sqr(&a)))) * 1e9,
        );
        m.set(
            "bigint.pow_mont_short_us",
            per_call_secs(0.05, || {
                drop(std::hint::black_box(mont.pow_mont(&a, &short)))
            }) * 1e6,
        );
        m.set(
            "bigint.pow_mont_full_us",
            per_call_secs(0.1, || drop(std::hint::black_box(mont.pow_mont(&a, &full)))) * 1e6,
        );

        let (rows, cols) = (32, 8);
        let n = (rows * cols) as f64;
        let plain = self.dense(rows, cols, 1.0);
        let ct = self.pk.encrypt(&plain, &self.obf);
        m.set("paillier.ct_bytes", (ct.wire_size() - 16) as f64 / n);
        m.set(
            "paillier.encrypt_us_per_ct",
            per_call_secs(0.1, || {
                drop(std::hint::black_box(self.pk.encrypt(&plain, &self.obf)))
            }) / n
                * 1e6,
        );
        m.set(
            "paillier.decrypt_us_per_ct",
            per_call_secs(0.2, || drop(std::hint::black_box(self.sk.decrypt(&ct)))) / n * 1e6,
        );
        m.set(
            "paillier.add_us_per_ct",
            per_call_secs(0.05, || drop(std::hint::black_box(self.pk.add(&ct, &ct)))) / n * 1e6,
        );
        let bytes = export_ctmat(&ct);
        let mb = bytes.len() as f64 / 1e6;
        m.set(
            "paillier.export_mb_per_s",
            mb / per_call_secs(0.05, || drop(std::hint::black_box(export_ctmat(&ct)))),
        );
        m.set(
            "paillier.import_mb_per_s",
            mb / per_call_secs(0.05, || {
                drop(std::hint::black_box(
                    import_ctmat(&bytes).expect("own export"),
                ))
            }),
        );
    }
}

/// Seconds per mini-batch in each `CtMat` kernel class, both parties'
/// calls summed, from a replay of the batch's kernel sequence on its
/// real inputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelSecs {
    pub matmul: f64,
    /// `pow_mont` calls in the forward `CtMat::matmul`s (exact count).
    pub matmul_pows: u64,
    pub t_matmul_support: f64,
    pub lkup: f64,
    pub lkup_bw: f64,
    pub matmul_ct_wt: f64,
    pub encrypt: f64,
    pub decrypt: f64,
    pub add: f64,
}

impl KernelSecs {
    /// Every time divided by `reps` (the count is per replay already).
    pub fn mean_of(&self, reps: usize) -> KernelSecs {
        let d = |v: f64| v / reps as f64;
        KernelSecs {
            matmul: d(self.matmul),
            matmul_pows: self.matmul_pows / reps as u64,
            t_matmul_support: d(self.t_matmul_support),
            lkup: d(self.lkup),
            lkup_bw: d(self.lkup_bw),
            matmul_ct_wt: d(self.matmul_ct_wt),
            encrypt: d(self.encrypt),
            decrypt: d(self.decrypt),
            add: d(self.add),
        }
    }

    pub fn plus(&self, o: &KernelSecs) -> KernelSecs {
        KernelSecs {
            matmul: self.matmul + o.matmul,
            matmul_pows: self.matmul_pows + o.matmul_pows,
            t_matmul_support: self.t_matmul_support + o.t_matmul_support,
            lkup: self.lkup + o.lkup,
            lkup_bw: self.lkup_bw + o.lkup_bw,
            matmul_ct_wt: self.matmul_ct_wt + o.matmul_ct_wt,
            encrypt: self.encrypt + o.encrypt,
            decrypt: self.decrypt + o.decrypt,
            add: self.add + o.add,
        }
    }
}

/// The encrypted weight pieces a MatMul source replay contracts with.
pub struct MatMulWeights {
    guest: CtMat,
    host: CtMat,
}

/// Ciphertexts one weight row of `out` columns occupies.
fn chunks(w: &CtMat, slots: usize) -> u64 {
    if w.is_packed() {
        w.cols().div_ceil(slots) as u64
    } else {
        w.cols() as u64
    }
}

impl KernelKit {
    /// HE2SS as the protocol runs it: the holder masks (`sub_plain`),
    /// the key owner decrypts.
    fn he2ss(&mut self, ct: &CtMat, k: &mut KernelSecs) -> Dense {
        let phi = self.dense(ct.rows(), ct.cols(), self.he_mask);
        let masked = time(&mut k.add, || self.pk.sub_plain(ct, &phi));
        time(&mut k.decrypt, || self.sk.decrypt(&masked))
    }

    /// Both parties' encrypted weight pieces `⟦V⟧` for the MatMul source
    /// replay (set-up, kept out of the timed and CPU-counted region).
    pub fn matmul_weights(&mut self, in_guest: usize, in_host: usize, out: usize) -> MatMulWeights {
        let (g, h) = (
            self.dense(in_guest, out, 0.1),
            self.dense(in_host, out, 0.1),
        );
        MatMulWeights {
            guest: self.enc(&g),
            host: self.enc(&h),
        }
    }

    /// One mini-batch of the MatMul source layer (paper Figure 6), both
    /// parties: the forward, and with `train` the backward too.
    pub fn matmul_source_batch(
        &mut self,
        x_guest: &Features,
        x_host: &Features,
        w: &mut MatMulWeights,
        train: bool,
    ) -> KernelSecs {
        let mut k = KernelSecs::default();
        let slots =
            SlotLayout::for_key(self.key_bits(), self.pk.frac_bits()).map_or(1, |l| l.slots);
        for (x, w) in [(x_guest, &w.guest), (x_host, &w.host)] {
            k.matmul_pows += x.nnz() as u64 * chunks(w, slots);
            let prod = time(&mut k.matmul, || self.pk.matmul(x, w));
            self.he2ss(&prod, &mut k);
        }
        if !train {
            return k;
        }
        let grad = self.dense(x_host.rows(), w.host.cols(), 0.01);
        let ct_gz = time(&mut k.encrypt, || self.enc(&grad));
        let support = x_guest.col_support();
        let prod = time(&mut k.t_matmul_support, || {
            self.pk.t_matmul_support(x_guest, &ct_gz, &support)
        });
        let piece = self.he2ss(&prod, &mut k);
        let delta = time(&mut k.encrypt, || self.enc(&piece.scale(-0.05)));
        let rows: Vec<usize> = support.iter().map(|&c| c as usize).collect();
        time(&mut k.add, || {
            self.pk.rows_add_assign(&mut w.guest, &rows, &delta)
        });
        k
    }

    /// One training mini-batch of the Embed-MatMul source layer (paper
    /// Figure 7), forward and backward, both parties.
    pub fn embed_source_batch(
        &mut self,
        x_guest: &CatBlock,
        x_host: &CatBlock,
        dim: usize,
        proj: usize,
    ) -> KernelSecs {
        let mut k = KernelSecs::default();
        let rows = x_host.rows();
        let d = [x_guest.fields() * dim, x_host.fields() * dim];
        let grad_z = self.dense(rows, proj, 0.01);
        let ct_gz = time(&mut k.encrypt, || self.pk.encrypt(&grad_z, &self.obf));
        for (p, x) in [x_guest, x_host].into_iter().enumerate() {
            let (d_own, d_peer) = (d[p], d[1 - p]);
            let table = self.dense(x.vocab(), dim, 0.05);
            let mut enc_t = self
                .pk
                .encrypt_mode_seg(&table, dim, PaillierMode::Packed, &self.obf);
            let (v_own, u_peer) = (self.dense(d_own, proj, 0.1), self.dense(d_peer, proj, 0.1));
            let mut enc_v_own = self.pk.encrypt(&v_own, &self.obf);
            let mut enc_u_peer = self.pk.encrypt(&u_peer, &self.obf);

            // Forward: lookup over the encrypted table, then the two
            // shared matmuls over the embedding shares.
            let lk = time(&mut k.lkup, || self.pk.lkup(&enc_t, x));
            let psi = self.he2ss(&lk, &mut k);
            // The peer-embedding share `E − ψ` is mask-sized.
            let e_peer = self.dense(rows, d_peer, self.he_mask);
            for (share, w) in [(&psi, &enc_v_own), (&e_peer, &enc_u_peer)] {
                let prod = time(&mut k.matmul, || {
                    self.pk.matmul(&Features::Dense(share.clone()), w)
                });
                self.he2ss(&prod, &mut k);
            }

            // Backward: ⟦∇E⟧ (the host contracts plaintext ∇Z with the
            // transposed ⟦V⟧ cache, the guest contracts ⟦∇Z⟧ with its
            // plaintext U), the two ∇W pieces, four cache refreshes.
            let grad_e_ct = if p == 1 {
                let t1 = time(&mut k.matmul, || {
                    self.pk
                        .matmul(&Features::Dense(grad_z.clone()), &enc_v_own.transpose())
                });
                let local = self.dense(rows, d_own, 0.01);
                time(&mut k.add, || self.pk.add_plain(&t1, &local))
            } else {
                let gzva = self.dense(rows, d_own, 0.01);
                let ct_gzva = time(&mut k.encrypt, || {
                    self.pk.encrypt_at_scale(&gzva, 2, &self.obf)
                });
                let u_own = self.dense(d_own, proj, 0.1);
                let t1 = time(&mut k.matmul_ct_wt, || self.pk.matmul_ct_wt(&ct_gz, &u_own));
                time(&mut k.add, || self.pk.add(&t1, &ct_gzva))
            };
            if p == 0 {
                for (share, cols) in [(&psi, d_own), (&e_peer, d_peer)] {
                    let full: Vec<u32> = (0..cols as u32).collect();
                    let prod = time(&mut k.t_matmul_support, || {
                        self.pk
                            .t_matmul_support(&Features::Dense(share.clone()), &ct_gz, &full)
                    });
                    self.he2ss(&prod, &mut k);
                }
            }
            for cache in [&mut enc_v_own, &mut enc_u_peer] {
                let delta_plain = self.dense(cache.rows(), proj, 0.001);
                let delta = time(&mut k.encrypt, || self.pk.encrypt(&delta_plain, &self.obf));
                let all: Vec<usize> = (0..cache.rows()).collect();
                time(&mut k.add, || self.pk.rows_add_assign(cache, &all, &delta));
            }
            let support = x.support();
            let grad_q = time(&mut k.lkup_bw, || {
                self.pk.lkup_bw(&grad_e_ct, x, &support, dim)
            });
            let piece = self.he2ss(&grad_q, &mut k);
            let delta = time(&mut k.encrypt, || {
                self.pk
                    .encrypt_mode_seg(&piece.scale(-0.05), dim, PaillierMode::Packed, &self.obf)
            });
            let touched: Vec<usize> = support.iter().map(|&c| c as usize).collect();
            time(&mut k.add, || {
                self.pk.rows_add_assign(&mut enc_t, &touched, &delta)
            });
        }
        k
    }

    /// One full tree's ciphertext work, replayed on the guests' real
    /// features: the `⟦g|h⟧` upload per link; per level one indicator
    /// `t_matmul_support` per guest over all rows (a level's nodes
    /// partition the rows); per split node the host's decrypt of every
    /// guest's aggregates. Returns
    /// `(gh_encrypt_s, hist_matmul_s, hist_decrypt_s)` per tree.
    pub fn gbdt_tree(&mut self, guests: &[Dataset], params: &GbdtParams) -> (f64, f64, f64) {
        let (mut enc_s, mut mm_s, mut dec_s) = (0.0, 0.0, 0.0);
        let split_nodes = (1usize << params.max_depth) - 1;
        for store in guests {
            let x = store.num.as_ref().expect("guest features");
            let n = x.rows();
            let gh = self.dense(n, 2, 0.5);
            let ct = time(&mut enc_s, || self.enc(&gh));
            let buckets = bf_ml::gbdt::bucketize(x, params.max_bins);
            let (offsets, total) = bf_ml::gbdt::bucket_offsets(&buckets.nbuckets());
            let mut triplets = Vec::with_capacity(n * offsets.len());
            for (f, col) in buckets.ids.iter().enumerate() {
                for (r, &id) in col.iter().enumerate() {
                    triplets.push((r, (offsets[f] + id as usize) as u32, 1.0));
                }
            }
            let indicator = Features::Sparse(bf_tensor::Csr::from_triplets(n, total, triplets));
            let support: Vec<u32> = (0..total as u32).collect();
            let mut agg = None;
            for _level in 0..params.max_depth {
                agg = Some(time(&mut mm_s, || {
                    self.pk.t_matmul_support(&indicator, &ct, &support)
                }));
            }
            if let Some(agg) = &agg {
                for _node in 0..split_nodes {
                    time(&mut dec_s, || self.sk.decrypt(agg));
                }
            }
        }
        (enc_s, mm_s, dec_s)
    }

    fn key_bits(&self) -> usize {
        match &self.pk {
            PublicKey::Paillier(pk) => pk.key_bits,
            PublicKey::Plain { .. } => 0,
        }
    }
}

/// Round-trip time of one `U64` message over an in-process channel pair
/// and over loopback TCP, microseconds.
pub fn rtt_probes() -> Result<(f64, f64), String> {
    fn ping(a: Endpoint, b: Endpoint, rounds: usize) -> Result<f64, String> {
        std::thread::scope(|s| {
            let echo = s.spawn(move || {
                for _ in 0..rounds {
                    let v = b.recv_u64().map_err(|e| format!("echo recv: {e}"))?;
                    b.send(Msg::U64(v)).map_err(|e| format!("echo send: {e}"))?;
                }
                Ok::<_, String>(())
            });
            let t = Instant::now();
            for i in 0..rounds {
                a.send(Msg::U64(i as u64))
                    .map_err(|e| format!("ping send: {e}"))?;
                a.recv_u64().map_err(|e| format!("ping recv: {e}"))?;
            }
            let us = t.elapsed().as_secs_f64() / rounds as f64 * 1e6;
            echo.join()
                .map_err(|_| "echo thread panicked".to_string())??;
            Ok(us)
        })
    }
    let (a, b) = bf_mpc::channel_pair();
    let channel = ping(a, b, 2000)?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let (a, b) = std::thread::scope(|s| {
        let acc = s.spawn(|| Endpoint::tcp_accept(&listener));
        let a = Endpoint::tcp_connect(addr);
        (a, acc.join())
    });
    let a = a.map_err(|e| format!("tcp connect: {e}"))?;
    let b = b
        .map_err(|_| "accept thread panicked".to_string())?
        .map_err(|e| format!("tcp accept: {e}"))?;
    let tcp = ping(a, b, 2000)?;
    Ok((channel, tcp))
}
