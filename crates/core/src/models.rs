//! The federated model zoo: LR, MLR, MLP, WDL and DLRM with federated
//! source layers and a local (Party B) top model.
//!
//! A model is described by a [`FedSpec`]; every party instantiates
//! its half from the same spec ([`PartyAModel`] / [`PartyBModel`]) and
//! executes forward/backward in lock-step. The top model (bias,
//! activations, hidden towers, loss) lives entirely at Party B and
//! reuses the plaintext `bf-ml` layers — exactly the paper's
//! architecture (Figure 4).
//!
//! [`PartyBModel`] is the host model over its guest links (paper
//! Appendix C: "let all Party A's execute the same routines"): the
//! two-party model is its one-link instance, and every guest of an
//! `M`-guest job runs the unmodified [`PartyAModel`].
//!
//! The categorical block does not reuse Algorithm 3's additive split:
//! `lkup(Q_B)·W_B` is *bilinear* in `(Q_B, W_B)`, so pairwise runs over
//! one shared `W_B` would drop the `T_B(i)·V_B(j), i≠j` cross terms.
//! Instead the host trains one **independent pairwise Embed-MatMul
//! submodel per link** — `Q_B(i) = S_B(i) + T_B(i)`,
//! `W_B(i) = U_B(i) + V_B(i)` — and the layer output is the sum of the
//! per-link outputs. Every submodel is individually lossless and each
//! guest still runs the unmodified [`EmbedSource`] routines.

use bf_ml::data::Dataset;
use bf_ml::layers::{ActKind, Activation, Bias, Mlp};
use bf_ml::models::loss_and_grad;
use bf_mpc::transport::{TransportError, TransportResult};
use bf_tensor::{CatBlock, Dense};

use crate::engine::Stage;
use crate::persist::{read_mat, write_dense, PersistError, PersistResult, Reader, Writer};
use crate::session::{check_link_count, Role, Session};
use crate::source::matmul::{aggregate_a, aggregate_b};
use crate::source::{check_caches, EmbedSource, MatMulSource};

/// Architecture of a federated model (shared by both parties).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FedSpec {
    /// Logistic / multinomial logistic regression: MatMul source +
    /// bias top. `out = 1` for LR, `C` for MLR.
    Glm {
        /// Output width.
        out: usize,
    },
    /// MLP: MatMul source into a ReLU tower at Party B.
    Mlp {
        /// Hidden widths then output width (e.g. `[64, 16, 3]`).
        widths: Vec<usize>,
    },
    /// Wide & Deep (paper Figure 5): MatMul source (wide) + Embed-MatMul
    /// source (deep, projecting to `deep_hidden[0]`) + hidden tower.
    Wdl {
        /// Embedding dimension.
        emb_dim: usize,
        /// Deep-tower hidden widths.
        deep_hidden: Vec<usize>,
        /// Output width.
        out: usize,
    },
    /// DLRM-style: Embed-MatMul source producing a joint categorical
    /// vector, MatMul source producing a joint numerical vector, dot
    /// interaction, top tower at Party B.
    Dlrm {
        /// Embedding dimension.
        emb_dim: usize,
        /// Width of the two source vectors.
        vec_dim: usize,
        /// Top-tower hidden widths.
        top_hidden: Vec<usize>,
    },
}

impl FedSpec {
    /// Does this architecture use an Embed-MatMul source layer?
    pub fn uses_categorical(&self) -> bool {
        matches!(self, FedSpec::Wdl { .. } | FedSpec::Dlrm { .. })
    }

    /// Output width of a model built from this spec.
    pub fn out_dim(&self) -> usize {
        match self {
            FedSpec::Glm { out } | FedSpec::Wdl { out, .. } => *out,
            FedSpec::Mlp { widths } => *widths.last().unwrap(),
            FedSpec::Dlrm { .. } => 1,
        }
    }

    /// The widths this spec fixes for its source layers: the MatMul
    /// source's output width, and `(dim, proj)` of the Embed-MatMul
    /// source for the categorical specs. Model initialisation and both
    /// importers take the source layers' shapes from here.
    pub(crate) fn source_widths(&self) -> (usize, Option<(usize, usize)>) {
        match self {
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

    /// Persist the spec (tag byte + per-variant fields).
    pub(crate) fn write_state(&self, w: &mut Writer) {
        let widths = |w: &mut Writer, v: &[usize]| {
            w.u64(v.len() as u64);
            for &x in v {
                w.u64(x as u64);
            }
        };
        match self {
            FedSpec::Glm { out } => {
                w.u8(1);
                w.u64(*out as u64);
            }
            FedSpec::Mlp { widths: v } => {
                w.u8(2);
                widths(w, v);
            }
            FedSpec::Wdl {
                emb_dim,
                deep_hidden,
                out,
            } => {
                w.u8(3);
                w.u64(*emb_dim as u64);
                widths(w, deep_hidden);
                w.u64(*out as u64);
            }
            FedSpec::Dlrm {
                emb_dim,
                vec_dim,
                top_hidden,
            } => {
                w.u8(4);
                w.u64(*emb_dim as u64);
                w.u64(*vec_dim as u64);
                widths(w, top_hidden);
            }
        }
    }

    /// Rebuild the spec from persisted state.
    pub(crate) fn read_state(r: &mut Reader) -> PersistResult<FedSpec> {
        let widths = |r: &mut Reader| -> PersistResult<Vec<usize>> {
            let n = r.count(8)?;
            Ok((0..n).map(|_| r.len()).collect::<Result<_, _>>()?)
        };
        match r.u8()? {
            1 => Ok(FedSpec::Glm { out: r.len()? }),
            2 => {
                let v = widths(r)?;
                if v.len() < 2 {
                    return Err(PersistError::Malformed(
                        "Mlp spec needs at least input and output widths".into(),
                    ));
                }
                Ok(FedSpec::Mlp { widths: v })
            }
            3 => Ok(FedSpec::Wdl {
                emb_dim: r.len()?,
                deep_hidden: widths(r)?,
                out: r.len()?,
            }),
            4 => Ok(FedSpec::Dlrm {
                emb_dim: r.len()?,
                vec_dim: r.len()?,
                top_hidden: widths(r)?,
            }),
            tag => Err(PersistError::Malformed(format!("unknown spec tag {tag}"))),
        }
    }
}

/// Party A's half: the A-sides of the source layers plus the fixed
/// execution order.
pub struct PartyAModel {
    spec: FedSpec,
    matmul: MatMulSource,
    embed: Option<EmbedSource>,
}

impl PartyAModel {
    /// Initialise from the spec and Party A's data view.
    pub fn init(
        sess: &mut Session,
        spec: &FedSpec,
        data: &Dataset,
    ) -> TransportResult<PartyAModel> {
        let (matmul, mut embed) = init_sources(std::slice::from_mut(sess), spec, data)?;
        Ok(PartyAModel {
            spec: spec.clone(),
            matmul,
            embed: embed.pop(),
        })
    }

    /// One forward pass over a batch view (A's side of every source
    /// layer, in the canonical order: MatMul first, then Embed).
    pub fn forward(
        &mut self,
        sess: &mut Session,
        batch: &Dataset,
        train: bool,
    ) -> TransportResult<()> {
        let x = batch.num.as_ref().expect("missing numerical block");
        let z = self.matmul.forward(sess, x, train)?;
        aggregate_a(sess, z)?;
        if let Some(em) = &mut self.embed {
            let x = batch.cat.as_ref().expect("missing categorical block");
            let z = em.forward(sess, x, train)?;
            aggregate_a(sess, z)?;
        }
        Ok(())
    }

    /// One backward pass (reverse order: Embed first, then MatMul).
    pub fn backward(&mut self, sess: &mut Session) -> TransportResult<()> {
        if let Some(em) = &mut self.embed {
            em.backward_a(sess)?;
        }
        self.matmul.backward_a(sess)
    }

    /// The forward-only prediction path: one federated forward pass
    /// over a batch view with **no gradient caches** — the A-side
    /// counterpart of [`PartyBModel::predict_batch`]. This is what the
    /// serving loop ([`crate::serve::serve_party_a`]) drives for a
    /// model loaded via [`crate::persist`].
    pub fn predict_batch(&mut self, sess: &mut Session, batch: &Dataset) -> TransportResult<()> {
        self.forward(sess, batch, false)
    }

    /// The MatMul source half (inspection).
    pub fn matmul(&self) -> &MatMulSource {
        &self.matmul
    }

    /// The Embed source half (inspection).
    pub fn embed(&self) -> Option<&EmbedSource> {
        self.embed.as_ref()
    }

    /// Refuse a model half built elsewhere (a persisted blob) whose
    /// ciphertext caches are not in `sess`'s geometry under the peer's
    /// key ([`check_caches`]): a typed [`TransportError::Setup`] instead
    /// of a kernel panic mid-protocol.
    pub(crate) fn check_caches(&self, sess: &Session) -> TransportResult<()> {
        let embed = self.embed.iter().flat_map(EmbedSource::caches);
        check_caches(sess, std::iter::once(self.matmul.cache_of(0)).chain(embed))
    }

    /// Persist the model half: spec, then the source layers' state.
    pub(crate) fn write_state(&self, w: &mut Writer) {
        self.spec.write_state(w);
        self.matmul.write_state(w);
        self.embed.iter().for_each(|em| em.write_state(w));
    }

    /// Rebuild the model half from persisted state: the spec fixes
    /// which source layers follow and their widths.
    pub(crate) fn read_state(r: &mut Reader) -> PersistResult<PartyAModel> {
        let spec = FedSpec::read_state(r)?;
        let (mm_out, embed) = spec.source_widths();
        let matmul = MatMulSource::read_state(r, 1, mm_out)?;
        let embed = embed
            .map(|(dim, proj)| EmbedSource::read_state(r, Role::A, dim, proj))
            .transpose()?;
        Ok(PartyAModel {
            spec,
            matmul,
            embed,
        })
    }
}

/// Jointly initialise the source layers a spec calls for, over this
/// party's links (one for a guest, one per guest for the host), in the
/// canonical order: the MatMul source over every link, then one
/// pairwise Embed-MatMul source per link for the categorical specs.
fn init_sources(
    links: &mut [Session],
    spec: &FedSpec,
    data: &Dataset,
) -> TransportResult<(MatMulSource, Vec<EmbedSource>)> {
    let num_dim = data.num_dim();
    let (mm_out, embed_dims) = spec.source_widths();
    let matmul = MatMulSource::init(links, num_dim, mm_out)?;
    let embed = match embed_dims {
        None => Vec::new(),
        Some((dim, proj)) => {
            let cat = data
                .cat
                .as_ref()
                .expect("WDL / DLRM need categorical features");
            links
                .iter_mut()
                .map(|sess| EmbedSource::init(sess, cat.vocab(), cat.fields(), dim, proj))
                .collect::<TransportResult<_>>()?
        }
    };
    Ok((matmul, embed))
}

/// Party B's half — the host model over its `M ≥ 1` guest links: the
/// B-side of the MatMul source (one `U_B`, one peer piece per link),
/// one pairwise Embed-MatMul submodel per link for the categorical
/// specs (see the module docs), plus the local top model and loss.
/// Every method takes the links as `L: AsMut<[Session]>`, in link
/// order: `&mut sess` for a two-party host, `&mut sessions` for `M`
/// guests.
pub struct PartyBModel {
    spec: FedSpec,
    matmul: MatMulSource,
    /// One submodel per link; empty unless the spec has a categorical
    /// block.
    embed: Vec<EmbedSource>,
    top: Top,
}

/// Party B's local top model (purely local to B, whatever the number
/// of guests).
enum Top {
    /// Bias only (GLM).
    Bias(Bias),
    /// Bias + ReLU + tower (MLP).
    Tower {
        bias: Bias,
        act: Activation,
        tower: Mlp,
    },
    /// WDL: wide Z + deep(Z_cat → bias+relu+tower), summed, plus bias.
    Wdl {
        deep_bias: Bias,
        deep_act: Activation,
        deep_tower: Mlp,
        out_bias: Bias,
    },
    /// DLRM: interaction of the two source vectors + top tower.
    Dlrm { tower: Mlp },
}

impl Top {
    /// Build the top for a spec. Draws tower weights from `rng` (the
    /// first link's stream) after the source-layer initialisation.
    fn init(spec: &FedSpec, rng: &mut rand::rngs::StdRng) -> Top {
        let tower = tower_widths(spec);
        let relu = || Activation::new(ActKind::Relu);
        match spec {
            FedSpec::Glm { out } => Top::Bias(Bias::new(*out)),
            FedSpec::Mlp { .. } => Top::Tower {
                bias: Bias::new(tower[0]),
                act: relu(),
                tower: Mlp::new(rng, &tower),
            },
            FedSpec::Wdl { out, .. } => Top::Wdl {
                deep_bias: Bias::new(tower[0]),
                deep_act: relu(),
                deep_tower: Mlp::new(rng, &tower),
                out_bias: Bias::new(*out),
            },
            FedSpec::Dlrm { .. } => Top::Dlrm {
                tower: Mlp::new(rng, &tower),
            },
        }
    }

    /// Forward through the local top: aggregated source outputs in,
    /// logits out. Fills `cache` with whatever the matching backward
    /// needs.
    fn forward(&mut self, z_num: &Dense, z_cat: Option<&Dense>, cache: &mut FwdCache) -> Dense {
        match self {
            Top::Bias(bias) => bias.forward(z_num),
            Top::Tower { bias, act, tower } => {
                let h = act.forward(&bias.forward(z_num));
                tower.forward(&h)
            }
            Top::Wdl {
                deep_bias,
                deep_act,
                deep_tower,
                out_bias,
            } => {
                let h = deep_act.forward(&deep_bias.forward(z_cat.unwrap()));
                let deep = deep_tower.forward(&h);
                out_bias.forward(&z_num.add(&deep))
            }
            Top::Dlrm { tower } => {
                let zc = z_cat.unwrap();
                let inter = dlrm_interact(z_num, zc);
                cache.z_num = Some(z_num.clone());
                cache.z_cat = Some(zc.clone());
                tower.forward(&inter)
            }
        }
    }

    /// Backward through the local top (and apply its SGD step):
    /// returns `(∇Z_num, ∇Z_cat)` for the federated source layers.
    fn backward(
        &mut self,
        grad_logits: &Dense,
        cache: &FwdCache,
        opt: &bf_ml::Sgd,
    ) -> (Dense, Option<Dense>) {
        match self {
            Top::Bias(bias) => {
                bias.backward(grad_logits);
                bias.step(opt);
                (grad_logits.clone(), None)
            }
            Top::Tower { bias, act, tower } => {
                let gh = tower.backward(grad_logits);
                let gz = act.backward(&gh);
                bias.backward(&gz);
                tower.step(opt);
                bias.step(opt);
                (gz, None)
            }
            Top::Wdl {
                deep_bias,
                deep_act,
                deep_tower,
                out_bias,
            } => {
                out_bias.backward(grad_logits);
                let g_deep = deep_tower.backward(grad_logits);
                let gz_cat = deep_act.backward(&g_deep);
                deep_bias.backward(&gz_cat);
                out_bias.step(opt);
                deep_tower.step(opt);
                deep_bias.step(opt);
                (grad_logits.clone(), Some(gz_cat))
            }
            Top::Dlrm { tower } => {
                let g_inter = tower.backward(grad_logits);
                tower.step(opt);
                let zn = cache.z_num.as_ref().expect("DLRM cache");
                let zc = cache.z_cat.as_ref().expect("DLRM cache");
                let (gn, gc) = dlrm_interact_backward(zn, zc, &g_inter);
                (gn, Some(gc))
            }
        }
    }

    /// Persist the top model: every layer's state in order (the
    /// variant and every shape are the spec's).
    fn write_state(&self, w: &mut Writer) {
        let tensors: Vec<&Dense> = match self {
            Top::Bias(bias) => bias.state().to_vec(),
            Top::Tower { bias, tower, .. } => {
                bias.state().into_iter().chain(tower.state()).collect()
            }
            Top::Wdl {
                deep_bias,
                deep_tower,
                out_bias,
                ..
            } => deep_bias
                .state()
                .into_iter()
                .chain(deep_tower.state())
                .chain(out_bias.state())
                .collect(),
            Top::Dlrm { tower } => tower.state().collect(),
        };
        tensors.into_iter().for_each(|t| write_dense(w, t));
    }

    /// Rebuild the top model the spec calls for from persisted state,
    /// in [`Top::init`]'s shapes.
    fn read_state(r: &mut Reader, spec: &FedSpec) -> PersistResult<Top> {
        let tower = tower_widths(spec);
        let relu = || Activation::new(ActKind::Relu);
        Ok(match spec {
            FedSpec::Glm { out } => Top::Bias(read_bias(r, *out)?),
            FedSpec::Mlp { .. } => Top::Tower {
                bias: read_bias(r, tower[0])?,
                act: relu(),
                tower: read_mlp(r, &tower)?,
            },
            FedSpec::Wdl { out, .. } => Top::Wdl {
                deep_bias: read_bias(r, tower[0])?,
                deep_act: relu(),
                deep_tower: read_mlp(r, &tower)?,
                out_bias: read_bias(r, *out)?,
            },
            FedSpec::Dlrm { .. } => Top::Dlrm {
                tower: read_mlp(r, &tower)?,
            },
        })
    }
}

/// The widths of the top's tower, input first: an `Mlp` spec's own, a
/// WDL deep tower's from the Embed projection to the output, a DLRM
/// tower's from the interaction `[z_num | z_cat | dot]` to one logit;
/// none for `Glm`. Saturating, since an imported spec's widths are
/// untrusted: a saturated width is one no tensor in a blob can have.
fn tower_widths(spec: &FedSpec) -> Vec<usize> {
    match spec {
        FedSpec::Glm { .. } => Vec::new(),
        FedSpec::Mlp { widths } => widths.clone(),
        FedSpec::Wdl {
            deep_hidden, out, ..
        } => deep_hidden.iter().chain([out]).copied().collect(),
        FedSpec::Dlrm {
            vec_dim,
            top_hidden,
            ..
        } => std::iter::once(vec_dim.saturating_mul(2).saturating_add(1))
            .chain(top_hidden.iter().copied())
            .chain([1])
            .collect(),
    }
}

/// Decode a [`Bias`] layer of width `out`.
fn read_bias(r: &mut Reader, out: usize) -> PersistResult<Bias> {
    Ok(Bias::from_state(
        read_mat(r, "top bias", Some(1), out)?,
        read_mat(r, "top bias velocity", Some(1), out)?,
    ))
}

/// Decode an [`Mlp`] tower of the given widths, input first.
fn read_mlp(r: &mut Reader, widths: &[usize]) -> PersistResult<Mlp> {
    let mut layers = Vec::new();
    for (i, io) in widths.windows(2).enumerate() {
        let (w, b) = ((Some(io[0]), io[1]), (Some(1), io[1]));
        let mut read =
            |what: &str, (rows, cols)| read_mat(r, &format!("tower layer {i} {what}"), rows, cols);
        layers.push([
            read("W", w)?,
            read("b", b)?,
            read("W velocity", w)?,
            read("b velocity", b)?,
        ]);
    }
    Ok(Mlp::from_state(layers))
}

impl PartyBModel {
    /// Initialise from the spec and Party B's data view, against one
    /// `Role::B` session per guest (typed [`TransportError::Setup`] on
    /// an empty slice or a `Role::A` session).
    pub fn init<L: AsMut<[Session]> + ?Sized>(
        links: &mut L,
        spec: &FedSpec,
        data: &Dataset,
    ) -> TransportResult<PartyBModel> {
        let links = links.as_mut();
        if let Some(i) = links.iter().position(|s| s.role != Role::B) {
            return Err(TransportError::Setup(format!(
                "PartyBModel drives Role::B sessions, but session {i} is Role::A"
            )));
        }
        let (matmul, embed) = init_sources(links, spec, data)?;
        // Top init draws from the first link's session RNG, *after* the
        // source layers, preserving the session RNG stream layout.
        let top = Top::init(spec, &mut links[0].rng);
        Ok(PartyBModel {
            spec: spec.clone(),
            matmul,
            embed,
            top,
        })
    }

    /// Output width of the model.
    pub fn out_dim(&self) -> usize {
        self.spec.out_dim()
    }

    /// Number of guest links this model fans out over.
    pub fn num_links(&self) -> usize {
        self.matmul.parties()
    }

    /// Forward over a batch view: returns the logits plus the caches
    /// needed by the matching backward call.
    pub fn forward<L: AsMut<[Session]> + ?Sized>(
        &mut self,
        links: &mut L,
        batch: &Dataset,
        train: bool,
    ) -> TransportResult<(Dense, FwdCache)> {
        let links = links.as_mut();
        check_link_count(links.len(), self.num_links(), "PartyBModel")?;
        let x = batch.num.as_ref().expect("missing numerical block");
        let mut z_num = self.matmul.forward(links, x, train)?;
        for sess in links.iter() {
            z_num = aggregate_b(sess, z_num)?;
        }
        let z_cat = if self.embed.is_empty() {
            None
        } else {
            let x = batch.cat.as_ref().expect("missing categorical block");
            Some(embed_forward(&mut self.embed, links, x, train)?)
        };
        let mut cache = FwdCache::default();
        let _t = links[0].stages.timer(Stage::TopLocal);
        let logits = self.top.forward(&z_num, z_cat.as_ref(), &mut cache);
        Ok((logits, cache))
    }

    /// Backward from a loss gradient w.r.t. the logits; drives the
    /// federated source-layer updates (Embed first, then MatMul —
    /// mirroring every guest's [`PartyAModel::backward`]).
    pub fn backward<L: AsMut<[Session]> + ?Sized>(
        &mut self,
        links: &mut L,
        grad_logits: &Dense,
        cache: &FwdCache,
    ) -> TransportResult<()> {
        let links = links.as_mut();
        check_link_count(links.len(), self.num_links(), "PartyBModel")?;
        let top_timer = links[0].stages.timer(Stage::TopLocal);
        let (grad_z_num, grad_z_cat) = self.top.backward(grad_logits, cache, &links[0].sgd());
        drop(top_timer);
        // Every pairwise Embed submodel receives the same ∇Z_cat: the
        // per-link outputs add, so the gradient distributes.
        for (em, sess) in self.embed.iter_mut().zip(links.iter_mut()) {
            em.backward_b(sess, grad_z_cat.as_ref().expect("missing ∇Z_cat"))?;
        }
        self.matmul.backward_b(links, &grad_z_num)
    }

    /// One full training step: forward, loss, backward. Returns the
    /// batch loss.
    pub fn train_batch<L: AsMut<[Session]> + ?Sized>(
        &mut self,
        links: &mut L,
        batch: &Dataset,
    ) -> TransportResult<f64> {
        let labels = batch.labels.as_ref().expect("Party B holds the labels");
        let (logits, cache) = self.forward(links, batch, true)?;
        let (loss, grad) = loss_and_grad(&logits, labels);
        self.backward(links, &grad, &cache)?;
        Ok(loss)
    }

    /// Inference logits for a batch view.
    pub fn predict_batch<L: AsMut<[Session]> + ?Sized>(
        &mut self,
        links: &mut L,
        batch: &Dataset,
    ) -> TransportResult<Dense> {
        Ok(self.forward(links, batch, false)?.0)
    }

    /// The MatMul source half (inspection: `W_B = U_B + Σ_i V_B(i)` and
    /// every `W_A(i)` reconstruct through this).
    pub fn matmul(&self) -> &MatMulSource {
        &self.matmul
    }

    /// The first link's Embed source half (inspection; the only one of
    /// a two-party host).
    pub fn embed(&self) -> Option<&EmbedSource> {
        self.embed.first()
    }

    /// Every link's pairwise Embed source half, in link order
    /// (inspection: `Q_B(i) = S_B(i) + T_B(i)`, `W_B(i) = U_B(i) +
    /// V_B(i)` against the `i`-th guest's pieces).
    pub fn embed_links(&self) -> &[EmbedSource] {
        &self.embed
    }

    /// [`PartyAModel::check_caches`] over the host's links: the link
    /// count, then every link's caches against its own session.
    pub(crate) fn check_caches(&self, links: &[Session]) -> TransportResult<()> {
        check_link_count(links.len(), self.num_links(), "PartyBModel")?;
        for (i, sess) in links.iter().enumerate() {
            let embed = self.embed.get(i).into_iter().flat_map(EmbedSource::caches);
            check_caches(sess, std::iter::once(self.matmul.cache_of(i)).chain(embed))?;
        }
        Ok(())
    }

    /// Persist the model half: spec, link count, source layers (every
    /// link's pieces in link order), top model.
    pub(crate) fn write_state(&self, w: &mut Writer) {
        self.spec.write_state(w);
        w.len(self.num_links());
        self.matmul.write_state(w);
        self.embed.iter().for_each(|em| em.write_state(w));
        self.top.write_state(w);
    }

    /// Rebuild the model half from persisted state: the spec fixes
    /// which layers follow and their widths.
    pub(crate) fn read_state(r: &mut Reader) -> PersistResult<PartyBModel> {
        let spec = FedSpec::read_state(r)?;
        let (mm_out, embed) = spec.source_widths();
        // A link is at least its peer piece's `Mat` header.
        let m = r.count(16)?;
        if m == 0 {
            return Err(PersistError::Malformed(
                "a host model with no guest link".into(),
            ));
        }
        let matmul = MatMulSource::read_state(r, m, mm_out)?;
        let embed = match embed {
            None => Vec::new(),
            Some((dim, proj)) => (0..m)
                .map(|_| EmbedSource::read_state(r, Role::B, dim, proj))
                .collect::<PersistResult<_>>()?,
        };
        let top = Top::read_state(r, &spec)?;
        Ok(PartyBModel {
            spec,
            matmul,
            embed,
            top,
        })
    }
}

/// The host's categorical block over its links: run the pairwise
/// Embed-MatMul forward with every A(i), fold in each A(i)'s share, and
/// return `Z = Σ_i [E_A(i)·W_A(i) + lkup(Q_B(i), X_B)·W_B(i)]`.
fn embed_forward(
    embed: &mut [EmbedSource],
    links: &mut [Session],
    x: &CatBlock,
    train: bool,
) -> TransportResult<Dense> {
    let mut z: Option<Dense> = None;
    for (em, sess) in embed.iter_mut().zip(links.iter_mut()) {
        let z_own = em.forward(sess, x, train)?;
        // The wait for A(i)'s share belongs to the stage that waits.
        let _t = sess.stages.timer(Stage::FedEmbed);
        let z_link = aggregate_b(sess, z_own)?;
        z = Some(match z {
            None => z_link,
            Some(acc) => acc.add(&z_link),
        });
    }
    Ok(z.expect("at least one link"))
}

/// Forward-pass caches Party B's top model needs for backward.
#[derive(Default)]
pub struct FwdCache {
    z_num: Option<Dense>,
    z_cat: Option<Dense>,
}

/// DLRM-lite interaction: `[z_num | z_cat | rowwise dot]`.
fn dlrm_interact(zn: &Dense, zc: &Dense) -> Dense {
    let bs = zn.rows();
    let d = zn.cols();
    let mut out = Dense::zeros(bs, 2 * d + 1);
    for r in 0..bs {
        out.row_mut(r)[..d].copy_from_slice(zn.row(r));
        out.row_mut(r)[d..2 * d].copy_from_slice(zc.row(r));
        let dot: f64 = zn.row(r).iter().zip(zc.row(r)).map(|(a, b)| a * b).sum();
        out.row_mut(r)[2 * d] = dot;
    }
    out
}

/// Backward of [`dlrm_interact`].
fn dlrm_interact_backward(zn: &Dense, zc: &Dense, g: &Dense) -> (Dense, Dense) {
    let bs = zn.rows();
    let d = zn.cols();
    let mut gn = Dense::zeros(bs, d);
    let mut gc = Dense::zeros(bs, d);
    for r in 0..bs {
        let grow = g.row(r);
        let gdot = grow[2 * d];
        for k in 0..d {
            gn.set(r, k, grow[k] + gdot * zc.get(r, k));
            gc.set(r, k, grow[d + k] + gdot * zn.get(r, k));
        }
    }
    (gn, gc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FedConfig;
    use rand::SeedableRng;

    fn rand_dense(rows: usize, cols: usize, seed: u64) -> Dense {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        bf_tensor::init::uniform(&mut rng, rows, cols, 1.0)
    }

    #[test]
    fn interact_backward_finite_difference() {
        let zn = Dense::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        let zc = Dense::from_vec(2, 3, vec![1.0, 2.0, -1.0, 0.5, 1.0, 0.25]);
        let out = dlrm_interact(&zn, &zc);
        assert_eq!(out.cols(), 7);
        let g = Dense::from_vec(2, 7, vec![1.0; 14]);
        let (gn, gc) = dlrm_interact_backward(&zn, &zc, &g);
        let eps = 1e-6;
        for (r, k) in [(0usize, 0usize), (1, 2)] {
            let mut zp = zn.clone();
            zp.set(r, k, zn.get(r, k) + eps);
            let fp: f64 = dlrm_interact(&zp, &zc).data().iter().sum();
            zp.set(r, k, zn.get(r, k) - eps);
            let fm: f64 = dlrm_interact(&zp, &zc).data().iter().sum();
            assert!(((fp - fm) / (2.0 * eps) - gn.get(r, k)).abs() < 1e-5);
            let mut cp = zc.clone();
            cp.set(r, k, zc.get(r, k) + eps);
            let fp: f64 = dlrm_interact(&zn, &cp).data().iter().sum();
            cp.set(r, k, zc.get(r, k) - eps);
            let fm: f64 = dlrm_interact(&zn, &cp).data().iter().sum();
            assert!(((fp - fm) / (2.0 * eps) - gc.get(r, k)).abs() < 1e-5);
        }
    }

    #[test]
    fn spec_categorical_flag() {
        assert!(!FedSpec::Glm { out: 1 }.uses_categorical());
        assert!(FedSpec::Wdl {
            emb_dim: 8,
            deep_hidden: vec![16],
            out: 1
        }
        .uses_categorical());
    }

    #[test]
    fn wrong_role_session_is_a_typed_error_not_a_panic() {
        let cfg = FedConfig::plain();
        let (ep_a, ep_b) = bf_mpc::channel_pair();
        let cfg_b = cfg.clone();
        let peer = std::thread::spawn(move || {
            Session::handshake(ep_b, cfg_b, Role::B, 2).unwrap();
        });
        // A Role::A session handed to the host model must be refused
        // before any protocol message goes out.
        let mut sess = Session::handshake(ep_a, cfg, Role::A, 1).unwrap();
        let data = Dataset {
            num: Some(bf_tensor::Features::Dense(Dense::zeros(2, 3))),
            cat: None,
            labels: None,
        };
        match PartyBModel::init(&mut sess, &FedSpec::Glm { out: 1 }, &data) {
            Err(TransportError::Setup(why)) => assert!(why.contains("Role::A"), "{why}"),
            Err(other) => panic!("expected TransportError::Setup, got {other:?}"),
            Ok(_) => panic!("expected TransportError::Setup, got Ok"),
        }
        peer.join().unwrap();
    }

    // ---- the categorical block over M links ----

    fn cat_block(rows: usize, vocabs: &[u32], seed: u64) -> CatBlock {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let local: Vec<u32> = (0..rows * vocabs.len())
            .map(|i| rng.random_range(0..vocabs[i % vocabs.len()]))
            .collect();
        CatBlock::from_local(rows, vocabs, local)
    }

    /// Run an M-party Embed-MatMul training round: M Party-A threads
    /// (unmodified `EmbedSource`) + the host's per-link loop inline at B.
    fn run_multi_embed(
        cfg: &FedConfig,
        xs_a: Vec<CatBlock>,
        x_b: CatBlock,
        dim: usize,
        out: usize,
        grad_z: Option<Dense>,
        steps: usize,
    ) -> (Vec<EmbedSource>, Vec<EmbedSource>, Dense) {
        let (layers_a, (layer_b, z)) = crate::multiparty::run_star(
            cfg,
            3000,
            xs_a,
            |x_a, mut sess| {
                let mut layer =
                    EmbedSource::init(&mut sess, x_a.vocab(), x_a.fields(), dim, out).unwrap();
                for _ in 0..steps {
                    let z = layer.forward(&mut sess, &x_a, grad_z.is_some()).unwrap();
                    aggregate_a(&sess, z).unwrap();
                    if grad_z.is_some() {
                        layer.backward_a(&mut sess).unwrap();
                    }
                }
                let z = layer.forward(&mut sess, &x_a, false).unwrap();
                aggregate_a(&sess, z).unwrap();
                layer
            },
            |mut sessions| {
                let mut layer_b: Vec<EmbedSource> = sessions
                    .iter_mut()
                    .map(|sess| {
                        EmbedSource::init(sess, x_b.vocab(), x_b.fields(), dim, out).unwrap()
                    })
                    .collect();
                for _ in 0..steps {
                    embed_forward(&mut layer_b, &mut sessions, &x_b, grad_z.is_some()).unwrap();
                    if let Some(g) = &grad_z {
                        for (em, sess) in layer_b.iter_mut().zip(sessions.iter_mut()) {
                            em.backward_b(sess, g).unwrap();
                        }
                    }
                }
                let z = embed_forward(&mut layer_b, &mut sessions, &x_b, false).unwrap();
                (layer_b, z)
            },
        );
        (layers_a, layer_b, z)
    }

    /// Reference output under the documented per-link-sum semantics:
    /// `Σ_i [lkup(Q_A(i))·W_A(i) + lkup(Q_B(i))·W_B(i)]`.
    fn embed_reference(
        layers_a: &[EmbedSource],
        layer_b: &[EmbedSource],
        xs_a: &[CatBlock],
        x_b: &CatBlock,
        out: usize,
    ) -> Dense {
        use crate::source::embed::lookup;
        let mut want = Dense::zeros(x_b.rows(), out);
        for (i, la) in layers_a.iter().enumerate() {
            let lb = &layer_b[i];
            let q_a = la.s_own().add(lb.t_peer());
            let w_a = la.u_own().add(lb.v_peer());
            want.add_assign(&lookup(&q_a, &xs_a[i]).matmul(&w_a));
            let q_b = lb.s_own().add(la.t_peer());
            let w_b = lb.u_own().add(la.v_peer());
            want.add_assign(&lookup(&q_b, x_b).matmul(&w_b));
        }
        want
    }

    #[test]
    fn three_party_embed_forward_is_lossless() {
        let cfg = FedConfig::plain();
        let xs_a = vec![cat_block(4, &[5, 3], 50), cat_block(4, &[4], 51)];
        let x_b = cat_block(4, &[6], 52);
        let (layers_a, layer_b, z) =
            run_multi_embed(&cfg, xs_a.clone(), x_b.clone(), 2, 2, None, 1);
        assert_eq!(layer_b.len(), 2);
        let want = embed_reference(&layers_a, &layer_b, &xs_a, &x_b, 2);
        assert!(
            z.approx_eq(&want, 1e-4),
            "max err {}",
            z.sub(&want).max_abs()
        );
    }

    #[test]
    fn three_party_embed_backward_stays_synchronized() {
        // After training steps, a fresh forward must still equal the
        // reference on the reconstructed per-link parameters — i.e.
        // every link's six ciphertext caches track their plaintext
        // twins (exercised under real Paillier ciphertexts).
        let cfg = FedConfig::paillier_test();
        let xs_a = vec![cat_block(3, &[4], 53), cat_block(3, &[3, 3], 54)];
        let x_b = cat_block(3, &[5], 55);
        let grad_z = rand_dense(3, 2, 56).scale(0.1);
        let (layers_a, layer_b, z) =
            run_multi_embed(&cfg, xs_a.clone(), x_b.clone(), 2, 2, Some(grad_z), 2);
        let want = embed_reference(&layers_a, &layer_b, &xs_a, &x_b, 2);
        assert!(
            z.approx_eq(&want, 1e-2),
            "max err {}",
            z.sub(&want).max_abs()
        );
    }
}
