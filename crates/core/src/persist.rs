//! Model-state persistence: byte-exact export/import of the trained
//! party models, closing the paper's train → persist → serve life
//! cycle (a production VFL deployment trains once and serves many
//! predictions; see `docs/SERVING.md` for the full format spec).
//!
//! Every persisted model is one self-describing byte blob:
//!
//! ```text
//! offset  size  field
//! 0       4     magic   0x42 0x46 0x4D 0x44  ("BFMD")
//! 4       1     version 0x06
//! 5       1     kind    (1 = guest model, 2 = host model,
//!                        4 = checkpoint, 7 = GbdtHost, 8 = GbdtGuest)
//! 6       n     payload (per-kind encoding; see docs/SERVING.md)
//! ```
//!
//! One kind per role: the host model (kind 2) records how many guest
//! links it fans out over and carries every link's pieces, so a
//! two-party host is the blob with link count 1.
//!
//! Kind 4 is the **mid-epoch training checkpoint** of either role
//! ([`Checkpoint`]): the complete kind-1 or kind-2 model blob plus the
//! training cursor (epoch, batch), the loss curve so far (empty on a
//! guest) and one determinism cursor per peer link ([`LinkCursor`]:
//! mask-RNG state, obfuscation draws consumed, traffic counters).
//! Restoring one puts a fresh process back on the *bit-identical* loss
//! curve — see `docs/ARCHITECTURE.md` ("Fault tolerance") and
//! `tests/chaos_parity.rs`. A checkpoint taken
//! in a PSI-**aligned** run carries an optional [`AlignCursor`] section
//! (PSI salt plus the intersection's sample IDs) so a restarted process
//! can rebuild its aligned row selection from its local ID column with
//! **zero** wire traffic — re-running PSI on resume would double-count
//! PSI bytes in [`LinkCursor`]'s preloaded traffic totals.
//!
//! Every field reads and writes through [`bf_util::codec`] (LE
//! integers, IEEE-754 `f64` bits, counts bounded before allocation, no
//! trailing bytes; `docs/WIRE_PROTOCOL.md` § "Primitives"). Plaintext
//! matrices use the wire's `Mat` layout and ciphertext caches its `Ct`
//! layout (Montgomery limbs verbatim) — both owned by
//! [`bf_paillier::serial`]. This module owns the header, each kind's
//! field order and the shape check every tensor is read through: a
//! model half opens with its [`crate::models::FedSpec`], which fixes
//! every layer and width, so no layer records one. The versioning rule
//! mirrors `docs/WIRE_PROTOCOL.md`: **any** layout change bumps the version
//! byte, and decoders reject every version they do not know. Version 2
//! appended Party B's `⟦V_ownᵀ⟧` cache to the Embed-MatMul layer state;
//! version 3 folded the multi-guest kinds (3, 6) into the host kinds
//! (link count in the host model, one cursor per link in the host
//! checkpoint) and the aligned kinds (9–11) into an optional section
//! of kinds 4–5; version 4 appended Party B's `⟦U_peerᵀ⟧` cache to the
//! Embed-MatMul layer state, after `⟦V_ownᵀ⟧`; version 5 took every
//! shape from the spec, dropping each width, presence byte, top tag,
//! tower depth and ReLU flag, and each cache's length prefix; version 6
//! made kind 4 the one checkpoint of both roles, wrapping the whole
//! model blob, and retired kind 5. The retired kind bytes are never
//! reassigned: every importer answers them with
//! [`PersistError::WrongKind`].
//!
//! The contract is **byte-exact round-tripping**:
//! `export(import(export(m))) == export(m)` bit for bit, and a
//! reloaded model resumes training with a bit-identical loss curve —
//! so the momentum buffers and the encrypted peer-piece caches are
//! part of the persisted state, while per-batch caches (forward
//! activations, gradient supports) are transient and excluded.
//! `crates/core/tests/persist_prop.rs` enforces both properties.
//!
//! Key material is deliberately **not** part of a model file: the
//! ciphertext caches decrypt only under the training session's keys,
//! which travel separately (via [`bf_paillier::export_secret`] /
//! [`bf_paillier::export_public`], or by regenerating them
//! deterministically from the session seed — see
//! [`crate::session::Session::handshake`]).

use bf_paillier::{read_ctmat, read_dense, CtMat};
pub(crate) use bf_paillier::{write_ctmat, write_dense};
use bf_tensor::Dense;
use bf_util::codec::DecodeError;
pub(crate) use bf_util::codec::{Reader, Writer};

use crate::models::{PartyAModel, PartyBModel};
use crate::trees::{GbRecord, GbdtGuestModel, GbdtHostModel};
use bf_ml::gbdt::{Node, Tree};

/// Persistence magic: ASCII `"BFMD"` (BlindFL MoDel).
pub const MAGIC: [u8; 4] = *b"BFMD";
/// Current persistence-format version. Decoders reject every other
/// value (the versioning rule of `docs/WIRE_PROTOCOL.md`).
pub const VERSION: u8 = 6;
/// Kind byte for a [`PartyAModel`] blob.
pub const KIND_PARTY_A: u8 = 1;
/// Kind byte for a [`PartyBModel`] blob (the host model over its
/// guest links).
pub const KIND_PARTY_B: u8 = 2;
/// Kind byte for a mid-epoch training [`Checkpoint`] of either role.
pub const KIND_CHECKPOINT: u8 = 4;
/// Kind byte for a [`GbdtHostModel`] blob (federated forest, host
/// share).
pub const KIND_GBDT_HOST: u8 = 7;
/// Kind byte for a [`GbdtGuestModel`] blob (federated forest, guest
/// share).
pub const KIND_GBDT_GUEST: u8 = 8;
/// Fixed header length (magic + version + kind).
pub const HEADER_LEN: usize = 6;

/// A persistence decode failure. Malformed input yields an `Err`,
/// never a panic or an unbounded allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte is not [`VERSION`].
    UnsupportedVersion(u8),
    /// The kind byte does not match the requested model type.
    WrongKind {
        /// The kind the importer was asked for.
        expected: u8,
        /// The kind byte actually present.
        got: u8,
    },
    /// The buffer ended before the encoding said it would.
    Truncated,
    /// A structurally invalid payload (inconsistent shapes, bad
    /// enum tags, trailing bytes, …).
    Malformed(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic(m) => write!(f, "bad model magic {m:02x?}"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported model-format version {v}")
            }
            PersistError::WrongKind { expected, got } => {
                write!(f, "model kind {got} where kind {expected} was expected")
            }
            PersistError::Truncated => write!(f, "truncated model blob"),
            PersistError::Malformed(why) => write!(f, "malformed model blob: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Shorthand for persistence-fallible results.
pub type PersistResult<T> = Result<T, PersistError>;

/// A blob that ran on past its encoding has bytes no field accounts
/// for: [`PersistError::Malformed`], like every other inconsistency.
impl From<DecodeError> for PersistError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => PersistError::Truncated,
            DecodeError::Trailing(_) | DecodeError::Malformed(_) => {
                PersistError::Malformed(e.to_string())
            }
        }
    }
}

/// A writer holding the header of a `kind` blob.
fn header(kind: u8) -> Writer {
    let mut w = Writer::with_capacity(64);
    w.bytes(&MAGIC);
    w.u8(VERSION);
    w.u8(kind);
    w
}

/// A `kind` blob whose payload `body` writes.
fn encode(kind: u8, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = header(kind);
    body(&mut w);
    w.into_bytes()
}

/// Decode a whole blob of `kind`: check the header, read the payload
/// with `body`, and refuse trailing bytes.
fn decode<T>(
    bytes: &[u8],
    kind: u8,
    body: impl FnOnce(&mut Reader) -> PersistResult<T>,
) -> PersistResult<T> {
    let mut r = Reader::new(bytes);
    let head = r.bytes(HEADER_LEN)?;
    if head[..4] != MAGIC {
        return Err(PersistError::BadMagic([head[0], head[1], head[2], head[3]]));
    }
    if head[4] != VERSION {
        return Err(PersistError::UnsupportedVersion(head[4]));
    }
    if head[5] != kind {
        return Err(PersistError::WrongKind {
            expected: kind,
            got: head[5],
        });
    }
    let v = body(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Read one persisted tensor through `read`, checking its `rows ×
/// cols` header against the shape it must have before the payload is
/// read: `cols` and, unless this is the first tensor to carry a data
/// width (`rows: None`), `rows`. A wrong shape is
/// [`PersistError::Malformed`] naming `what`.
fn shaped<T>(
    r: &mut Reader,
    what: &str,
    rows: Option<usize>,
    cols: usize,
    read: impl FnOnce(&mut Reader) -> Result<T, DecodeError>,
) -> PersistResult<T> {
    let mut head = r.clone();
    let got = (head.len()?, head.len()?);
    if got.1 != cols || rows.is_some_and(|rows| rows != got.0) {
        let rows = rows.map_or_else(|| "n".into(), |rows| rows.to_string());
        return Err(PersistError::Malformed(format!(
            "{what} is {}×{} where {rows}×{cols} was expected",
            got.0, got.1
        )));
    }
    Ok(read(r)?)
}

/// A plaintext tensor in the `Mat` layout ([`write_dense`]), shaped
/// as [`shaped`] checks.
pub(crate) fn read_mat(
    r: &mut Reader,
    what: &str,
    rows: Option<usize>,
    cols: usize,
) -> PersistResult<Dense> {
    shaped(r, what, rows, cols, read_dense)
}

/// A ciphertext cache in the `Ct` layout ([`write_ctmat`]), which
/// must be `rows × cols`.
pub(crate) fn read_ct(
    r: &mut Reader,
    what: &str,
    rows: usize,
    cols: usize,
) -> PersistResult<CtMat> {
    shaped(r, what, Some(rows), cols, read_ctmat)
}

/// Serialize a trained [`PartyAModel`] (guest half) to bytes.
pub fn export_party_a(model: &PartyAModel) -> Vec<u8> {
    encode(KIND_PARTY_A, |w| model.write_state(w))
}

/// Deserialize a [`PartyAModel`], validating every field.
pub fn import_party_a(bytes: &[u8]) -> PersistResult<PartyAModel> {
    decode(bytes, KIND_PARTY_A, PartyAModel::read_state)
}

/// Serialize a trained [`PartyBModel`] (host half over all its guest
/// links, including the local top model) to bytes.
pub fn export_party_b(model: &PartyBModel) -> Vec<u8> {
    encode(KIND_PARTY_B, |w| model.write_state(w))
}

/// Deserialize a [`PartyBModel`], validating every field.
pub fn import_party_b(bytes: &[u8]) -> PersistResult<PartyBModel> {
    decode(bytes, KIND_PARTY_B, PartyBModel::read_state)
}

/// The per-link determinism cursor captured alongside a checkpoint:
/// everything a fresh process needs (beyond the model state) to rejoin
/// one peer link on the *bit-identical* instruction stream.
///
/// Captured by [`crate::session::Session::capture_cursor`] and applied
/// by [`crate::session::Session::restore_cursor`] *after* the resumed
/// session's handshake, so the re-handshake itself never perturbs the
/// logical traffic totals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkCursor {
    /// The session mask RNG's full internal state
    /// ([`rand::rngs::StdRng::state`]).
    pub rng: [u64; 4],
    /// Obfuscation-randomness draws consumed so far
    /// ([`bf_paillier::Obfuscator::drawn`]) — draw `i` is a pure
    /// function of `(seed, i)`, so this one counter pins the stream.
    pub obf_drawn: u64,
    /// Bytes this party had sent on the link at capture time.
    pub bytes_sent: u64,
    /// Messages this party had sent on the link at capture time.
    pub msgs_sent: u64,
}

/// `wire layout: rng[0..4] | obf_drawn | bytes_sent | msgs_sent`, all
/// `u64` LE (56 bytes).
const LINK_CURSOR_LEN: usize = 56;

fn write_cursor(w: &mut Writer, c: &LinkCursor) {
    w.u64s(&c.rng);
    w.u64(c.obf_drawn);
    w.u64(c.bytes_sent);
    w.u64(c.msgs_sent);
}

fn read_cursor(r: &mut Reader) -> PersistResult<LinkCursor> {
    Ok(LinkCursor {
        rng: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
        obf_drawn: r.u64()?,
        bytes_sent: r.u64()?,
        msgs_sent: r.u64()?,
    })
}

/// The alignment cursor persisted inside a PSI-aligned checkpoint:
/// everything a restarted party needs to rebuild its aligned row
/// selection from its *local* ID column without touching the wire.
///
/// `ids` is the intersection in canonical (ascending) order — the
/// same list on every party of a run, which is what
/// `tests/chaos_parity.rs`'s PSI cell asserts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlignCursor {
    /// The PSI salt of the aligned run.
    pub salt: u64,
    /// The intersection's sample IDs, strictly ascending.
    pub ids: Vec<u64>,
}

/// The optional alignment section that opens a checkpoint payload:
/// `flag u8 (0 | 1) | [salt u64 | n u64 | ids]`, all `u64` LE.
fn write_align(w: &mut Writer, a: Option<&AlignCursor>) {
    w.flag(a.is_some());
    let Some(a) = a else { return };
    debug_assert!(
        a.ids.windows(2).all(|x| x[0] < x[1]),
        "AlignCursor ids must be strictly ascending"
    );
    w.u64(a.salt);
    w.len(a.ids.len());
    w.u64s(&a.ids);
}

fn read_align(r: &mut Reader) -> PersistResult<Option<AlignCursor>> {
    if !r.flag()? {
        return Ok(None);
    }
    let salt = r.u64()?;
    let n = r.len()?;
    let ids = r.u64s(n)?;
    if !ids.windows(2).all(|x| x[0] < x[1]) {
        return Err(PersistError::Malformed(
            "aligned ids not strictly ascending".into(),
        ));
    }
    Ok(Some(AlignCursor { salt, ids }))
}

/// A mid-epoch training checkpoint (kind [`KIND_CHECKPOINT`]), one
/// shape for both roles: a guest's holds one cursor and no losses, the
/// host's one cursor per guest link and its loss curve so far.
#[derive(Clone, Debug, Default)]
pub struct Checkpoint {
    /// Epoch the cursor points into.
    pub epoch: u64,
    /// Batches already completed within that epoch.
    pub batch: u64,
    /// One determinism cursor per peer link, in link order.
    pub links: Vec<LinkCursor>,
    /// The PSI alignment cursor, when the run was aligned.
    pub aligned: Option<AlignCursor>,
    /// The loss curve accumulated so far (the label holder's; the
    /// resumed run appends to it, so the final curve is seamless).
    pub losses: Vec<f64>,
    /// The model half exactly as of `(epoch, batch)`: the complete
    /// [`export_party_a`] or [`export_party_b`] blob.
    pub model: Vec<u8>,
}

/// Serialize a checkpoint: `align section | epoch u64 | batch u64 |
/// n_links u64 | cursors | n_losses u64 | losses | n_model u64 | model
/// blob`.
pub fn export_checkpoint(cp: &Checkpoint) -> Vec<u8> {
    encode(KIND_CHECKPOINT, |w| {
        write_align(w, cp.aligned.as_ref());
        w.u64(cp.epoch);
        w.u64(cp.batch);
        w.len(cp.links.len());
        cp.links.iter().for_each(|c| write_cursor(w, c));
        w.len(cp.losses.len());
        w.f64s(&cp.losses);
        w.len(cp.model.len());
        w.bytes(&cp.model);
    })
}

/// Deserialize a [`Checkpoint`]. The model blob stays bytes: the
/// resuming trainer opens it with its role's importer.
pub fn import_checkpoint(bytes: &[u8]) -> PersistResult<Checkpoint> {
    decode(bytes, KIND_CHECKPOINT, |r| {
        Ok(Checkpoint {
            aligned: read_align(r)?,
            epoch: r.u64()?,
            batch: r.u64()?,
            links: (0..r.count(LINK_CURSOR_LEN)?)
                .map(|_| read_cursor(r))
                .collect::<PersistResult<_>>()?,
            losses: {
                let n = r.len()?;
                r.f64s(n)?
            },
            model: {
                let n = r.len()?;
                r.bytes(n)?.to_vec()
            },
        })
    })
}

const NODE_LEAF: u8 = 0;
const NODE_SPLIT: u8 = 1;

/// A `u64` field holding a `u32` id: a feature, bucket or node index.
fn read_id(r: &mut Reader) -> PersistResult<u32> {
    u32::try_from(r.u64()?).map_err(|_| PersistError::Malformed("id overflows u32".into()))
}

/// Serialize the host share of a federated forest. Guest-owned split
/// thresholds are not here (and never were on the host): only global
/// feature ids, buckets and the host's own edges.
pub fn export_gbdt_host(model: &GbdtHostModel) -> Vec<u8> {
    encode(KIND_GBDT_HOST, |w| {
        w.f64(model.base_score);
        w.len(model.guest_widths.len());
        model.guest_widths.iter().for_each(|&width| w.len(width));
        w.len(model.host_edges.len());
        for edges in &model.host_edges {
            w.len(edges.len());
            w.f64s(edges);
        }
        w.len(model.trees.len());
        for tree in &model.trees {
            w.len(tree.nodes.len());
            for node in &tree.nodes {
                match *node {
                    Node::Leaf { weight } => {
                        w.u8(NODE_LEAF);
                        w.f64(weight);
                    }
                    Node::Split {
                        feature,
                        bucket,
                        left,
                        right,
                    } => {
                        w.u8(NODE_SPLIT);
                        for field in [feature, bucket, left, right] {
                            w.u64(field.into());
                        }
                    }
                }
            }
        }
    })
}

/// Deserialize a [`GbdtHostModel`], validating tree topology (children
/// in bounds and forward-pointing, the BFS invariant), feature ids
/// against the recorded feature layout, and host-split buckets against
/// the host's edge lists.
pub fn import_gbdt_host(bytes: &[u8]) -> PersistResult<GbdtHostModel> {
    decode(bytes, KIND_GBDT_HOST, |r| {
        let base_score = r.f64()?;
        let n_links = r.count(8)?;
        let guest_widths = (0..n_links)
            .map(|_| r.len())
            .collect::<Result<Vec<_>, _>>()?;
        let guest_width_sum = guest_widths
            .iter()
            .try_fold(0usize, |sum, &width| sum.checked_add(width))
            .ok_or_else(|| PersistError::Malformed("guest width sum overflow".into()))?;
        let host_features = r.count(8)?;
        let host_edges = (0..host_features)
            .map(|_| {
                let n = r.len()?;
                r.f64s(n)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let total_features = guest_width_sum
            .checked_add(host_features)
            .ok_or_else(|| PersistError::Malformed("feature count overflow".into()))?;
        // A tree is at least its node count, a node at least a leaf.
        let n_trees = r.count(8)?;
        let mut trees = Vec::with_capacity(n_trees);
        for t in 0..n_trees {
            let n_nodes = r.count(9)?;
            if n_nodes == 0 {
                return Err(PersistError::Malformed(format!("tree {t} has no nodes")));
            }
            let mut nodes = Vec::with_capacity(n_nodes);
            for i in 0..n_nodes {
                match r.u8()? {
                    NODE_LEAF => nodes.push(Node::Leaf { weight: r.f64()? }),
                    NODE_SPLIT => {
                        let [feature, bucket, left, right] =
                            [read_id(r)?, read_id(r)?, read_id(r)?, read_id(r)?];
                        let f = feature as usize;
                        if f >= total_features {
                            return Err(PersistError::Malformed(format!(
                                "tree {t} node {i} splits feature {feature} of {total_features}"
                            )));
                        }
                        if f >= guest_width_sum
                            && bucket as usize >= host_edges[f - guest_width_sum].len()
                        {
                            return Err(PersistError::Malformed(format!(
                                "tree {t} node {i} references host bucket {bucket} out of range"
                            )));
                        }
                        // BFS growth means children always point forward.
                        if left as usize <= i
                            || right as usize <= i
                            || left.max(right) as usize >= n_nodes
                        {
                            return Err(PersistError::Malformed(format!(
                                "tree {t} node {i} has out-of-range children ({left}, {right})"
                            )));
                        }
                        nodes.push(Node::Split {
                            feature,
                            bucket,
                            left,
                            right,
                        });
                    }
                    tag => {
                        return Err(PersistError::Malformed(format!(
                            "unknown tree-node tag {tag}"
                        )))
                    }
                }
            }
            trees.push(Tree { nodes });
        }
        Ok(GbdtHostModel {
            trees,
            guest_widths,
            host_edges,
            base_score,
        })
    })
}

/// Serialize the guest share of a federated forest: its recorded split
/// predicates, in host split-decision order.
pub fn export_gbdt_guest(model: &GbdtGuestModel) -> Vec<u8> {
    encode(KIND_GBDT_GUEST, |w| {
        w.len(model.width);
        w.len(model.records.len());
        for rec in &model.records {
            w.u64(rec.feature.into());
            w.f64(rec.threshold);
        }
    })
}

/// Deserialize a [`GbdtGuestModel`], validating every record's feature
/// index against the recorded store width.
pub fn import_gbdt_guest(bytes: &[u8]) -> PersistResult<GbdtGuestModel> {
    decode(bytes, KIND_GBDT_GUEST, |r| {
        let width = r.len()?;
        let n_records = r.count(16)?;
        let mut records = Vec::with_capacity(n_records);
        for i in 0..n_records {
            let (feature, threshold) = (read_id(r)?, r.f64()?);
            if feature as usize >= width {
                return Err(PersistError::Malformed(format!(
                    "record {i} references feature {feature} of a {width}-feature store"
                )));
            }
            records.push(GbRecord { feature, threshold });
        }
        Ok(GbdtGuestModel { width, records })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::FedSpec;
    use crate::session::Role;

    fn sample_host_model() -> GbdtHostModel {
        GbdtHostModel {
            trees: vec![
                Tree {
                    nodes: vec![
                        Node::Split {
                            feature: 1, // guest link 1, local 0
                            bucket: 2,
                            left: 1,
                            right: 2,
                        },
                        Node::Leaf { weight: -0.25 },
                        Node::Split {
                            feature: 2, // host local 0
                            bucket: 1,
                            left: 3,
                            right: 4,
                        },
                        Node::Leaf { weight: 0.5 },
                        Node::Leaf { weight: 0.125 },
                    ],
                },
                Tree {
                    nodes: vec![Node::Leaf { weight: 1.5 }],
                },
            ],
            guest_widths: vec![1, 1],
            host_edges: vec![vec![-0.5, 0.0, 0.75]],
            base_score: 0.0,
        }
    }

    #[test]
    fn gbdt_host_roundtrips_byte_exact() {
        let model = sample_host_model();
        let blob = export_gbdt_host(&model);
        let back = import_gbdt_host(&blob).unwrap();
        assert_eq!(back, model);
        // Byte-exact: re-export of the import reproduces the blob.
        assert_eq!(export_gbdt_host(&back), blob);
    }

    #[test]
    fn gbdt_guest_roundtrips_byte_exact() {
        let model = GbdtGuestModel {
            width: 3,
            records: vec![
                GbRecord {
                    feature: 0,
                    threshold: -1.25,
                },
                GbRecord {
                    feature: 2,
                    threshold: 0.0,
                },
            ],
        };
        let blob = export_gbdt_guest(&model);
        let back = import_gbdt_guest(&blob).unwrap();
        assert_eq!(back, model);
        assert_eq!(export_gbdt_guest(&back), blob);
    }

    #[test]
    fn gbdt_blobs_reject_cross_kind() {
        let host_blob = export_gbdt_host(&sample_host_model());
        assert_eq!(
            import_gbdt_guest(&host_blob).err().unwrap(),
            PersistError::WrongKind {
                expected: KIND_GBDT_GUEST,
                got: KIND_GBDT_HOST
            }
        );
        let guest_blob = export_gbdt_guest(&GbdtGuestModel {
            width: 1,
            records: vec![],
        });
        assert_eq!(
            import_gbdt_host(&guest_blob).err().unwrap(),
            PersistError::WrongKind {
                expected: KIND_GBDT_HOST,
                got: KIND_GBDT_GUEST
            }
        );
        // An MLP-family importer refuses a forest blob (typed, no
        // panic) — the WrongKind seam old decoders rely on.
        assert!(matches!(
            import_party_b(&host_blob).err().unwrap(),
            PersistError::WrongKind { .. }
        ));
    }

    #[test]
    fn gbdt_host_rejects_malformed() {
        let model = sample_host_model();
        let blob = export_gbdt_host(&model);
        // Every strict prefix is Truncated or Malformed, never a panic.
        for cut in 0..blob.len() {
            assert!(import_gbdt_host(&blob[..cut]).is_err(), "prefix {cut}");
        }
        // Backward-pointing child (breaks the BFS invariant).
        let mut bad = sample_host_model();
        bad.trees[0].nodes[0] = Node::Split {
            feature: 1,
            bucket: 2,
            left: 0,
            right: 2,
        };
        assert!(matches!(
            import_gbdt_host(&export_gbdt_host(&bad)).err().unwrap(),
            PersistError::Malformed(_)
        ));
        // Feature id beyond the recorded layout.
        let mut bad = sample_host_model();
        bad.trees[0].nodes[2] = Node::Split {
            feature: 9,
            bucket: 0,
            left: 3,
            right: 4,
        };
        assert!(matches!(
            import_gbdt_host(&export_gbdt_host(&bad)).err().unwrap(),
            PersistError::Malformed(_)
        ));
        // Host bucket beyond the stored edge list.
        let mut bad = sample_host_model();
        bad.trees[0].nodes[2] = Node::Split {
            feature: 2,
            bucket: 3,
            left: 3,
            right: 4,
        };
        assert!(matches!(
            import_gbdt_host(&export_gbdt_host(&bad)).err().unwrap(),
            PersistError::Malformed(_)
        ));
        // Guest widths whose sum overflows.
        let mut bad = sample_host_model();
        bad.guest_widths = vec![usize::MAX, 2];
        assert!(matches!(
            import_gbdt_host(&export_gbdt_host(&bad)).err().unwrap(),
            PersistError::Malformed(_)
        ));
        // Unknown node tag.
        let mut corrupt = blob.clone();
        let tag_pos = blob.len() - 9; // last tree ends [tag:1][weight:8]
        assert_eq!(corrupt[tag_pos], NODE_LEAF);
        corrupt[tag_pos] = 7;
        assert!(matches!(
            import_gbdt_host(&corrupt).err().unwrap(),
            PersistError::Malformed(_)
        ));
        // Trailing bytes.
        let mut long = blob;
        long.push(0);
        assert!(matches!(
            import_gbdt_host(&long).err().unwrap(),
            PersistError::Malformed(_)
        ));
    }

    #[test]
    fn gbdt_guest_rejects_malformed() {
        let model = GbdtGuestModel {
            width: 2,
            records: vec![GbRecord {
                feature: 1,
                threshold: 0.5,
            }],
        };
        let blob = export_gbdt_guest(&model);
        for cut in 0..blob.len() {
            assert!(import_gbdt_guest(&blob[..cut]).is_err(), "prefix {cut}");
        }
        // Record referencing a feature outside the recorded width.
        let bad = GbdtGuestModel {
            width: 1,
            records: vec![GbRecord {
                feature: 1,
                threshold: 0.5,
            }],
        };
        assert!(matches!(
            import_gbdt_guest(&export_gbdt_guest(&bad)).err().unwrap(),
            PersistError::Malformed(_)
        ));
        // A fabricated record count larger than the blob must be
        // rejected before allocating.
        let mut huge = export_gbdt_guest(&model);
        let count_at = HEADER_LEN + 8;
        huge[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(import_gbdt_guest(&huge).is_err());
    }

    #[test]
    fn header_rejections() {
        // Too short.
        assert_eq!(import_party_a(&[]).err().unwrap(), PersistError::Truncated);
        // Bad magic.
        let mut blob = b"XXMD\x01\x01".to_vec();
        assert!(matches!(
            import_party_a(&blob).err().unwrap(),
            PersistError::BadMagic(_)
        ));
        // Bad version.
        blob[..4].copy_from_slice(&MAGIC);
        blob[4] = 9;
        assert_eq!(
            import_party_a(&blob).err().unwrap(),
            PersistError::UnsupportedVersion(9)
        );
        // Wrong kind: a Party B blob fed to the Party A importer.
        blob[4] = VERSION;
        blob[5] = KIND_PARTY_B;
        assert_eq!(
            import_party_a(&blob).err().unwrap(),
            PersistError::WrongKind {
                expected: KIND_PARTY_A,
                got: KIND_PARTY_B
            }
        );
    }

    /// Every importer of a model half refuses a blob of `version`,
    /// whatever follows its header.
    fn assert_version_refused(version: u8) {
        type Import = fn(&[u8]) -> Option<PersistError>;
        let importers: [(u8, Import); 3] = [
            (KIND_PARTY_A, |b| import_party_a(b).err()),
            (KIND_PARTY_B, |b| import_party_b(b).err()),
            (KIND_CHECKPOINT, |b| import_checkpoint(b).err()),
        ];
        for (kind, import) in importers {
            let mut old = MAGIC.to_vec();
            old.extend([version, kind]);
            assert_eq!(
                import(&old),
                Some(PersistError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn a_version_3_blob_is_refused() {
        // Version 4 appended Party B's ⟦U_peerᵀ⟧ cache, so a version-3
        // Embed state would read one cache short: every importer refuses
        // the old byte outright.
        assert_version_refused(3);
    }

    #[test]
    fn a_version_4_blob_is_refused() {
        // Version 5 dropped every width the spec fixes, so a version-4
        // layer would read its widths as tensor headers.
        assert_version_refused(4);
    }

    #[test]
    fn a_version_5_blob_is_refused_and_kind_5_is_retired() {
        // Version 6 wrapped the model blob in the one checkpoint kind, so
        // a version-5 checkpoint would read its model state as a length.
        assert_version_refused(5);
        let mut blob = export_checkpoint(&Checkpoint::default());
        assert!(import_checkpoint(&blob).is_ok());
        blob[5] = 5;
        assert_eq!(
            import_checkpoint(&blob).err(),
            Some(PersistError::WrongKind {
                expected: KIND_CHECKPOINT,
                got: 5
            })
        );
    }

    /// Hand-build a Party B blob prefix: a non-categorical spec, one
    /// guest link and a MatMul source of the given shape.
    fn party_b_prefix(spec: &FedSpec, mm_in: usize, mm_out: usize) -> Writer {
        use bf_paillier::{keys::plain_keys, ObfMode, Obfuscator};
        let (pk, _) = plain_keys(20);
        let obf = Obfuscator::new(&pk, ObfMode::Pool(2), 0);
        let mut w = header(KIND_PARTY_B);
        spec.write_state(&mut w);
        w.len(1); // one guest link
        let piece = Dense::zeros(mm_in, mm_out);
        for _ in 0..4 {
            write_dense(&mut w, &piece);
        }
        write_ctmat(&mut w, &pk.encrypt(&piece, &obf));
        w
    }

    /// `import_party_b`'s `Malformed` reason, or a panic naming what
    /// came back instead.
    fn malformed_b(w: Writer) -> String {
        match import_party_b(&w.into_bytes()).err() {
            Some(PersistError::Malformed(why)) => why,
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn cross_component_width_mismatch_is_rejected() {
        // Spec Glm{out: 1} and a MatMul source of width 1, but a width-3
        // bias: the spec fixes the bias width, so the bias header is
        // refused before its payload — without it, the blob imports and
        // the first forward pass panics mid-protocol.
        let mut w = party_b_prefix(&FedSpec::Glm { out: 1 }, 2, 1);
        let bad = Dense::zeros(1, 3);
        write_dense(&mut w, &bad);
        write_dense(&mut w, &bad);
        let why = malformed_b(w);
        assert!(why.contains("top bias is 1×3 where 1×1"), "{why}");
    }

    #[test]
    fn unchained_tower_layers_are_rejected() {
        // Spec Mlp[2, 3, 1], tower layers 2×3 then 4×1: each layer is
        // internally consistent but 3 → 4 do not chain, and the spec
        // says the second layer is 3×1.
        let mut w = party_b_prefix(
            &FedSpec::Mlp {
                widths: vec![2, 3, 1],
            },
            3,
            2,
        );
        let bias = Dense::zeros(1, 2);
        write_dense(&mut w, &bias);
        write_dense(&mut w, &bias);
        for (rows, cols) in [(2usize, 3usize), (4, 1)] {
            let (wt, b) = (Dense::zeros(rows, cols), Dense::zeros(1, cols));
            for t in [&wt, &b, &wt, &b] {
                write_dense(&mut w, t);
            }
        }
        let why = malformed_b(w);
        assert!(why.contains("tower layer 1 W is 4×1 where 3×1"), "{why}");
    }

    #[test]
    fn oversized_length_fields_do_not_allocate() {
        // A dense header claiming u64::MAX rows or columns must fail
        // before any allocation happens: the rows are the first data
        // width, so only the payload's length can refuse them; the
        // columns are the spec's, so the header check does.
        for (rows, cols) in [(u64::MAX, 1), (1, u64::MAX), (u64::MAX, u64::MAX)] {
            let mut w = header(KIND_PARTY_A);
            FedSpec::Glm { out: 1 }.write_state(&mut w);
            w.u64(rows);
            w.u64(cols);
            assert!(import_party_a(&w.into_bytes()).is_err(), "{rows}×{cols}");
        }
    }

    /// One cell of the header sweep: train `spec` for a batch on the
    /// Plain backend, then bump every persisted tensor header of
    /// `role`'s half by one row and by one column in turn. Each bump
    /// must come back a typed error, never an import.
    fn every_bumped_header_is_refused(spec: FedSpec, role: Role) {
        use crate::config::FedConfig;
        use crate::session::run_pair;
        use bf_ml::data::{Dataset, Labels};
        let data = |num_dim: usize, vocabs: &[u32], labelled: bool| {
            let num = Dense::from_vec(
                4,
                num_dim,
                (0..4 * num_dim).map(|i| i as f64 * 0.1).collect(),
            );
            let local = (0..4 * vocabs.len())
                .map(|i| i as u32 % vocabs[i % vocabs.len()])
                .collect();
            Dataset {
                num: Some(bf_tensor::Features::Dense(num)),
                cat: spec
                    .uses_categorical()
                    .then(|| bf_tensor::CatBlock::from_local(4, vocabs, local)),
                labels: labelled.then(|| match spec.out_dim() {
                    1 => Labels::Binary(vec![0.0, 1.0, 1.0, 0.0]),
                    classes => Labels::Multi {
                        classes,
                        y: (0..4).map(|r| r % classes as u32).collect(),
                    },
                }),
            }
        };
        let (data_a, data_b) = (data(3, &[3, 2], false), data(2, &[4], true));
        let (spec_a, spec_b) = (spec.clone(), spec.clone());
        let (blob_a, blob_b) = run_pair(
            &FedConfig::plain(),
            5,
            move |mut sess| {
                let mut model = PartyAModel::init(&mut sess, &spec_a, &data_a).unwrap();
                model.forward(&mut sess, &data_a, true).unwrap();
                model.backward(&mut sess).unwrap();
                export_party_a(&model)
            },
            move |mut sess| {
                let mut model = PartyBModel::init(&mut sess, &spec_b, &data_b).unwrap();
                model.train_batch(&mut sess, &data_b).unwrap();
                export_party_b(&model)
            },
        );
        type Import = fn(&[u8]) -> PersistResult<()>;
        let (blob, import): (_, Import) = match role {
            Role::A => (blob_a, |b| import_party_a(b).map(drop)),
            Role::B => (blob_b, |b| import_party_b(b).map(drop)),
        };
        import(&blob).expect("the valid blob imports");

        // The v5 layout after the spec (and B's link count): the MatMul
        // source, each Embed source, then B's top; `true` marks a
        // ciphertext cache.
        let mut layout = vec![false, false, false, false, true];
        if spec.uses_categorical() {
            layout.extend([false; 8]);
            layout.extend(vec![true; if role == Role::A { 3 } else { 5 }]);
        }
        if role == Role::B {
            let tower = |widths: usize| 4 * widths;
            layout.extend(vec![
                false;
                match &spec {
                    FedSpec::Glm { .. } => 2,
                    FedSpec::Mlp { widths } => 2 + tower(widths.len() - 1),
                    FedSpec::Wdl { deep_hidden, .. } => 4 + tower(deep_hidden.len()),
                    FedSpec::Dlrm { top_hidden, .. } => tower(top_hidden.len() + 1),
                }
            ]);
        }
        let mut spec_bytes = Writer::with_capacity(64);
        spec.write_state(&mut spec_bytes);
        let mut at = HEADER_LEN + spec_bytes.into_bytes().len() + 8 * usize::from(role == Role::B);
        for (i, is_ct) in layout.into_iter().enumerate() {
            let mut r = Reader::new(&blob[at..]);
            let len = if is_ct {
                bf_paillier::ctmat_len(&read_ctmat(&mut r).unwrap())
            } else {
                let t = read_dense(&mut r).unwrap();
                16 + 8 * t.data().len()
            };
            for field in [at, at + 8] {
                let mut bumped = blob.clone();
                let v = u64::from_le_bytes(bumped[field..field + 8].try_into().unwrap());
                bumped[field..field + 8].copy_from_slice(&(v + 1).to_le_bytes());
                assert!(
                    import(&bumped).is_err(),
                    "{spec:?} {role:?}: tensor {i}'s {} bumped, and the blob imported",
                    if field == at { "rows" } else { "cols" }
                );
            }
            at += len;
        }
        assert_eq!(
            at,
            blob.len(),
            "{spec:?} {role:?}: the layout covers the blob"
        );
    }

    #[test]
    fn glm_blobs_refuse_every_bumped_header() {
        for role in [Role::A, Role::B] {
            every_bumped_header_is_refused(FedSpec::Glm { out: 3 }, role);
        }
    }

    #[test]
    fn mlp_blobs_refuse_every_bumped_header() {
        for role in [Role::A, Role::B] {
            every_bumped_header_is_refused(
                FedSpec::Mlp {
                    widths: vec![3, 4, 1],
                },
                role,
            );
        }
    }

    #[test]
    fn wdl_blobs_refuse_every_bumped_header() {
        for role in [Role::A, Role::B] {
            let spec = FedSpec::Wdl {
                emb_dim: 2,
                deep_hidden: vec![3],
                out: 1,
            };
            every_bumped_header_is_refused(spec, role);
        }
    }

    #[test]
    fn dlrm_blobs_refuse_every_bumped_header() {
        for role in [Role::A, Role::B] {
            let spec = FedSpec::Dlrm {
                emb_dim: 2,
                vec_dim: 2,
                top_hidden: vec![3],
            };
            every_bumped_header_is_refused(spec, role);
        }
    }
}
