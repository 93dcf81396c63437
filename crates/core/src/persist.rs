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
//! 4       1     version 0x03
//! 5       1     kind    (1 = guest model, 2 = host model,
//!                        4 = guest checkpoint, 5 = host checkpoint,
//!                        7 = GbdtHost, 8 = GbdtGuest)
//! 6       n     payload (per-kind encoding; see docs/SERVING.md)
//! ```
//!
//! One kind per role: the host model (kind 2) records how many guest
//! links it fans out over and carries every link's pieces, so a
//! two-party host is the blob with link count 1.
//!
//! Kinds 4–5 are **mid-epoch training checkpoints**: a model blob plus
//! the training cursor (epoch, batch) and one determinism cursor per
//! peer link ([`LinkCursor`]: mask-RNG state, obfuscation draws
//! consumed, traffic counters). Restoring one puts a fresh process back
//! on the *bit-identical* loss curve — see `docs/ARCHITECTURE.md`
//! ("Fault tolerance") and `tests/chaos_parity.rs`. A checkpoint taken
//! in a PSI-**aligned** run carries an optional [`AlignCursor`] section
//! (PSI salt plus the intersection's sample IDs) so a restarted process
//! can rebuild its aligned row selection from its local ID column with
//! **zero** wire traffic — re-running PSI on resume would double-count
//! PSI bytes in [`LinkCursor`]'s preloaded traffic totals.
//!
//! All multi-byte integers are little-endian; `f64`s travel as
//! IEEE-754 bits; ciphertext caches reuse the canonical
//! [`bf_paillier::export_ctmat`] wire encoding (Montgomery limbs
//! verbatim), length-prefixed. The versioning rule mirrors
//! `docs/WIRE_PROTOCOL.md`: **any** layout change bumps the version
//! byte, and decoders reject every version they do not know. Version 2
//! appended Party B's `⟦V_ownᵀ⟧` cache to the Embed-MatMul layer state;
//! version 3 folded the multi-guest kinds (3, 6) into the host kinds
//! (link count in the host model, one cursor per link in the host
//! checkpoint) and the aligned kinds (9–11) into an optional section
//! of kinds 4–5. The retired kind bytes are never reassigned: every
//! importer answers them with [`PersistError::WrongKind`].
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

use bf_paillier::{export_ctmat, import_ctmat, CtMat};
use bf_tensor::Dense;

use crate::models::{PartyAModel, PartyBModel};
use crate::trees::{GbRecord, GbdtGuestModel, GbdtHostModel};
use bf_ml::gbdt::{Node, Tree};

/// Persistence magic: ASCII `"BFMD"` (BlindFL MoDel).
pub const MAGIC: [u8; 4] = *b"BFMD";
/// Current persistence-format version. Decoders reject every other
/// value (the versioning rule of `docs/WIRE_PROTOCOL.md`).
pub const VERSION: u8 = 3;
/// Kind byte for a [`PartyAModel`] blob.
pub const KIND_PARTY_A: u8 = 1;
/// Kind byte for a [`PartyBModel`] blob (the host model over its
/// guest links).
pub const KIND_PARTY_B: u8 = 2;
/// Kind byte for a Party A mid-epoch training checkpoint.
pub const KIND_CHECKPOINT_A: u8 = 4;
/// Kind byte for a Party B mid-epoch training checkpoint.
pub const KIND_CHECKPOINT_B: u8 = 5;
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

/// Append-only byte sink the model modules encode their state into.
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(kind: u8) -> Writer {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(kind);
        Writer { buf }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `rows u64 | cols u64 | rows·cols f64` — the `Mat` wire layout.
    pub(crate) fn dense(&mut self, m: &Dense) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for v in m.data() {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Length-prefixed canonical [`export_ctmat`] bytes.
    pub(crate) fn ctmat(&mut self, ct: &CtMat) {
        let bytes = export_ctmat(ct);
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(&bytes);
    }
}

/// Validating cursor over a persisted byte blob.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], expected_kind: u8) -> PersistResult<Reader<'a>> {
        if bytes.len() < HEADER_LEN {
            return Err(PersistError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(PersistError::BadMagic([
                bytes[0], bytes[1], bytes[2], bytes[3],
            ]));
        }
        if bytes[4] != VERSION {
            return Err(PersistError::UnsupportedVersion(bytes[4]));
        }
        if bytes[5] != expected_kind {
            return Err(PersistError::WrongKind {
                expected: expected_kind,
                got: bytes[5],
            });
        }
        Ok(Reader {
            bytes,
            pos: HEADER_LEN,
        })
    }

    fn take(&mut self, n: usize) -> PersistResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or(PersistError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> PersistResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u64(&mut self) -> PersistResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> PersistResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u64` that must fit in `usize` (length / dimension fields).
    pub(crate) fn len_u64(&mut self) -> PersistResult<usize> {
        usize::try_from(self.u64()?)
            .map_err(|_| PersistError::Malformed("length field overflows usize".into()))
    }

    /// A length-prefixed `f64` vector with the usual
    /// reject-before-allocating guard on the claimed length.
    pub(crate) fn f64_vec(&mut self) -> PersistResult<Vec<f64>> {
        let n = self.len_u64()?;
        let want = n
            .checked_mul(8)
            .ok_or_else(|| PersistError::Malformed("f64 vector byte length overflow".into()))?;
        if self.bytes.len() - self.pos < want {
            return Err(PersistError::Truncated);
        }
        Ok(self
            .take(want)?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    pub(crate) fn dense(&mut self) -> PersistResult<Dense> {
        let rows = self.len_u64()?;
        let cols = self.len_u64()?;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| PersistError::Malformed("rows*cols overflow".into()))?;
        let want = n
            .checked_mul(8)
            .ok_or_else(|| PersistError::Malformed("matrix byte length overflow".into()))?;
        // Reject the claimed size before allocating: a corrupted
        // length field must not drive an allocation larger than the
        // blob it arrived in.
        if self.bytes.len() - self.pos < want {
            return Err(PersistError::Truncated);
        }
        let data: Vec<f64> = self
            .take(want)?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Dense::from_vec(rows, cols, data))
    }

    pub(crate) fn ctmat(&mut self) -> PersistResult<CtMat> {
        let len = self.len_u64()?;
        if self.bytes.len() - self.pos < len {
            return Err(PersistError::Truncated);
        }
        import_ctmat(self.take(len)?).map_err(PersistError::Malformed)
    }

    /// Error unless every byte has been consumed.
    fn finish(self) -> PersistResult<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(PersistError::Malformed(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.pos
            )))
        }
    }
}

/// Check that a momentum buffer matches its weight matrix — every
/// persisted `(piece, velocity)` pair goes through this on import.
pub(crate) fn check_vel(w: &Dense, vel: &Dense, what: &str) -> PersistResult<()> {
    if w.shape() != vel.shape() {
        return Err(PersistError::Malformed(format!(
            "{what}: velocity shape {:?} does not match weight shape {:?}",
            vel.shape(),
            w.shape()
        )));
    }
    Ok(())
}

/// Serialize a trained [`PartyAModel`] (guest half) to bytes.
pub fn export_party_a(model: &PartyAModel) -> Vec<u8> {
    let mut w = Writer::new(KIND_PARTY_A);
    model.write_state(&mut w);
    w.buf
}

/// Deserialize a [`PartyAModel`], validating every field.
pub fn import_party_a(bytes: &[u8]) -> PersistResult<PartyAModel> {
    let mut r = Reader::new(bytes, KIND_PARTY_A)?;
    let model = PartyAModel::read_state(&mut r)?;
    r.finish()?;
    Ok(model)
}

/// Serialize a trained [`PartyBModel`] (host half over all its guest
/// links, including the local top model) to bytes.
pub fn export_party_b(model: &PartyBModel) -> Vec<u8> {
    let mut w = Writer::new(KIND_PARTY_B);
    model.write_state(&mut w);
    w.buf
}

/// Deserialize a [`PartyBModel`], validating every field.
pub fn import_party_b(bytes: &[u8]) -> PersistResult<PartyBModel> {
    let mut r = Reader::new(bytes, KIND_PARTY_B)?;
    let model = PartyBModel::read_state(&mut r)?;
    r.finish()?;
    Ok(model)
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
    for limb in c.rng {
        w.u64(limb);
    }
    w.u64(c.obf_drawn);
    w.u64(c.bytes_sent);
    w.u64(c.msgs_sent);
}

fn read_cursor(r: &mut Reader<'_>) -> PersistResult<LinkCursor> {
    let mut rng = [0u64; 4];
    for limb in &mut rng {
        *limb = r.u64()?;
    }
    Ok(LinkCursor {
        rng,
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
    let Some(a) = a else { return w.u8(0) };
    debug_assert!(
        a.ids.windows(2).all(|x| x[0] < x[1]),
        "AlignCursor ids must be strictly ascending"
    );
    w.u8(1);
    w.u64(a.salt);
    w.u64(a.ids.len() as u64);
    for &id in &a.ids {
        w.u64(id);
    }
}

fn read_align(r: &mut Reader<'_>) -> PersistResult<Option<AlignCursor>> {
    match r.u8()? {
        0 => return Ok(None),
        1 => {}
        tag => {
            return Err(PersistError::Malformed(format!(
                "bad alignment-section flag {tag}"
            )))
        }
    }
    let salt = r.u64()?;
    let n = r.len_u64()?;
    let want = n
        .checked_mul(8)
        .ok_or_else(|| PersistError::Malformed("aligned id count overflow".into()))?;
    if r.bytes.len() - r.pos < want {
        return Err(PersistError::Truncated);
    }
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(r.u64()?);
    }
    if !ids.windows(2).all(|x| x[0] < x[1]) {
        return Err(PersistError::Malformed(
            "aligned ids not strictly ascending".into(),
        ));
    }
    Ok(Some(AlignCursor { salt, ids }))
}

/// A Party A mid-epoch checkpoint (kind [`KIND_CHECKPOINT_A`]).
pub struct CheckpointA {
    /// Epoch the cursor points into.
    pub epoch: u64,
    /// Batches already completed within that epoch.
    pub batch: u64,
    /// The peer-link determinism cursor.
    pub link: LinkCursor,
    /// The PSI alignment cursor, when the run was aligned.
    pub aligned: Option<AlignCursor>,
    /// The model half exactly as of `(epoch, batch)`.
    pub model: PartyAModel,
}

/// A Party B mid-epoch checkpoint (kind [`KIND_CHECKPOINT_B`]): one
/// [`LinkCursor`] per guest link, in link order.
pub struct CheckpointB {
    /// Epoch the cursor points into.
    pub epoch: u64,
    /// Batches already completed within that epoch.
    pub batch: u64,
    /// One determinism cursor per guest link, in link order (as many
    /// as the model has links).
    pub links: Vec<LinkCursor>,
    /// The PSI alignment cursor, when the run was aligned.
    pub aligned: Option<AlignCursor>,
    /// The loss curve accumulated so far (B is the label holder; the
    /// resumed run appends to this so the final curve is seamless).
    pub losses: Vec<f64>,
    /// The model half exactly as of `(epoch, batch)`.
    pub model: PartyBModel,
}

/// Serialize a Party A checkpoint:
/// `align section | epoch u64 | batch u64 | cursor | model state`.
pub fn export_checkpoint_a(
    epoch: u64,
    batch: u64,
    link: &LinkCursor,
    aligned: Option<&AlignCursor>,
    model: &PartyAModel,
) -> Vec<u8> {
    let mut w = Writer::new(KIND_CHECKPOINT_A);
    write_align(&mut w, aligned);
    w.u64(epoch);
    w.u64(batch);
    write_cursor(&mut w, link);
    model.write_state(&mut w);
    w.buf
}

/// Deserialize a [`CheckpointA`], validating every field.
pub fn import_checkpoint_a(bytes: &[u8]) -> PersistResult<CheckpointA> {
    let mut r = Reader::new(bytes, KIND_CHECKPOINT_A)?;
    let aligned = read_align(&mut r)?;
    let epoch = r.u64()?;
    let batch = r.u64()?;
    let link = read_cursor(&mut r)?;
    let model = PartyAModel::read_state(&mut r)?;
    r.finish()?;
    Ok(CheckpointA {
        epoch,
        batch,
        link,
        aligned,
        model,
    })
}

/// Serialize a Party B checkpoint:
/// `align section | epoch u64 | batch u64 | n_links u64 | cursors |
/// n_losses u64 | losses | model`.
pub fn export_checkpoint_b(
    epoch: u64,
    batch: u64,
    links: &[LinkCursor],
    aligned: Option<&AlignCursor>,
    losses: &[f64],
    model: &PartyBModel,
) -> Vec<u8> {
    let mut w = Writer::new(KIND_CHECKPOINT_B);
    write_align(&mut w, aligned);
    w.u64(epoch);
    w.u64(batch);
    w.u64(links.len() as u64);
    for c in links {
        write_cursor(&mut w, c);
    }
    w.u64(losses.len() as u64);
    for &l in losses {
        w.f64(l);
    }
    model.write_state(&mut w);
    w.buf
}

/// Deserialize a [`CheckpointB`], validating every field — the cursor
/// count against the embedded model's link count included.
pub fn import_checkpoint_b(bytes: &[u8]) -> PersistResult<CheckpointB> {
    let mut r = Reader::new(bytes, KIND_CHECKPOINT_B)?;
    let aligned = read_align(&mut r)?;
    let epoch = r.u64()?;
    let batch = r.u64()?;
    let n_links = r.len_u64()?;
    let want = n_links
        .checked_mul(LINK_CURSOR_LEN)
        .ok_or_else(|| PersistError::Malformed("link count overflow".into()))?;
    if r.bytes.len() - r.pos < want {
        return Err(PersistError::Truncated);
    }
    let mut links = Vec::with_capacity(n_links);
    for _ in 0..n_links {
        links.push(read_cursor(&mut r)?);
    }
    let losses = r.f64_vec()?;
    let model = PartyBModel::read_state(&mut r)?;
    r.finish()?;
    if links.len() != model.num_links() {
        return Err(PersistError::Malformed(format!(
            "checkpoint has {} link cursors but the model has {} links",
            links.len(),
            model.num_links()
        )));
    }
    Ok(CheckpointB {
        epoch,
        batch,
        links,
        aligned,
        losses,
        model,
    })
}

const NODE_LEAF: u8 = 0;
const NODE_SPLIT: u8 = 1;

/// Serialize the host share of a federated forest. Guest-owned split
/// thresholds are not here (and never were on the host): only global
/// feature ids, buckets and the host's own edges.
pub fn export_gbdt_host(model: &GbdtHostModel) -> Vec<u8> {
    let mut w = Writer::new(KIND_GBDT_HOST);
    w.f64(model.base_score);
    w.u64(model.guest_widths.len() as u64);
    for &width in &model.guest_widths {
        w.u64(width as u64);
    }
    w.u64(model.host_edges.len() as u64);
    for edges in &model.host_edges {
        w.u64(edges.len() as u64);
        for &e in edges {
            w.f64(e);
        }
    }
    w.u64(model.trees.len() as u64);
    for tree in &model.trees {
        w.u64(tree.nodes.len() as u64);
        for node in &tree.nodes {
            match node {
                Node::Leaf { weight } => {
                    w.u8(NODE_LEAF);
                    w.f64(*weight);
                }
                Node::Split {
                    feature,
                    bucket,
                    left,
                    right,
                } => {
                    w.u8(NODE_SPLIT);
                    w.u64(*feature as u64);
                    w.u64(*bucket as u64);
                    w.u64(*left as u64);
                    w.u64(*right as u64);
                }
            }
        }
    }
    w.buf
}

/// Deserialize a [`GbdtHostModel`], validating tree topology (children
/// in bounds and forward-pointing, the BFS invariant), feature ids
/// against the recorded feature layout, and host-split buckets against
/// the host's edge lists.
pub fn import_gbdt_host(bytes: &[u8]) -> PersistResult<GbdtHostModel> {
    let mut r = Reader::new(bytes, KIND_GBDT_HOST)?;
    let base_score = r.f64()?;
    let n_links = r.len_u64()?;
    if r.bytes.len() - r.pos < n_links.saturating_mul(8) {
        return Err(PersistError::Truncated);
    }
    let mut guest_widths = Vec::with_capacity(n_links);
    for _ in 0..n_links {
        guest_widths.push(r.len_u64()?);
    }
    let guest_width_sum: usize = guest_widths.iter().sum();
    let host_features = r.len_u64()?;
    if r.bytes.len() - r.pos < host_features.saturating_mul(8) {
        return Err(PersistError::Truncated);
    }
    let mut host_edges = Vec::with_capacity(host_features);
    for _ in 0..host_features {
        host_edges.push(r.f64_vec()?);
    }
    let total_features = guest_width_sum
        .checked_add(host_features)
        .ok_or_else(|| PersistError::Malformed("feature count overflow".into()))?;
    let n_trees = r.len_u64()?;
    let mut trees = Vec::with_capacity(n_trees.min(1024));
    for t in 0..n_trees {
        let n_nodes = r.len_u64()?;
        // A node is at least 2 bytes (tag + smallest body is 8, but
        // guard cheaply): reject a fabricated count before allocating.
        if r.bytes.len() - r.pos < n_nodes.saturating_mul(9) {
            return Err(PersistError::Truncated);
        }
        if n_nodes == 0 {
            return Err(PersistError::Malformed(format!("tree {t} has no nodes")));
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            match r.u8()? {
                NODE_LEAF => nodes.push(Node::Leaf { weight: r.f64()? }),
                NODE_SPLIT => {
                    let feature = r.u64()?;
                    let bucket = r.u64()?;
                    let left = r.u64()?;
                    let right = r.u64()?;
                    if feature >= total_features as u64 {
                        return Err(PersistError::Malformed(format!(
                            "tree {t} node {i} splits feature {feature} of {total_features}"
                        )));
                    }
                    let hf = feature as usize;
                    if hf >= guest_width_sum
                        && bucket >= host_edges[hf - guest_width_sum].len() as u64
                    {
                        return Err(PersistError::Malformed(format!(
                            "tree {t} node {i} references host bucket {bucket} out of range"
                        )));
                    }
                    // BFS growth means children always point forward.
                    if left <= i as u64 || right <= i as u64 || left.max(right) >= n_nodes as u64 {
                        return Err(PersistError::Malformed(format!(
                            "tree {t} node {i} has out-of-range children ({left}, {right})"
                        )));
                    }
                    nodes.push(Node::Split {
                        feature: u32::try_from(feature).map_err(|_| {
                            PersistError::Malformed("feature id overflows u32".into())
                        })?,
                        bucket: u32::try_from(bucket).map_err(|_| {
                            PersistError::Malformed("bucket id overflows u32".into())
                        })?,
                        left: left as u32,
                        right: right as u32,
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
    r.finish()?;
    Ok(GbdtHostModel {
        trees,
        guest_widths,
        host_edges,
        base_score,
    })
}

/// Serialize the guest share of a federated forest: its recorded split
/// predicates, in host split-decision order.
pub fn export_gbdt_guest(model: &GbdtGuestModel) -> Vec<u8> {
    let mut w = Writer::new(KIND_GBDT_GUEST);
    w.u64(model.width as u64);
    w.u64(model.records.len() as u64);
    for rec in &model.records {
        w.u64(rec.feature as u64);
        w.f64(rec.threshold);
    }
    w.buf
}

/// Deserialize a [`GbdtGuestModel`], validating every record's feature
/// index against the recorded store width.
pub fn import_gbdt_guest(bytes: &[u8]) -> PersistResult<GbdtGuestModel> {
    let mut r = Reader::new(bytes, KIND_GBDT_GUEST)?;
    let width = r.len_u64()?;
    let n_records = r.len_u64()?;
    if r.bytes.len() - r.pos < n_records.saturating_mul(16) {
        return Err(PersistError::Truncated);
    }
    let mut records = Vec::with_capacity(n_records);
    for i in 0..n_records {
        let feature = r.u64()?;
        let threshold = r.f64()?;
        if feature >= width as u64 {
            return Err(PersistError::Malformed(format!(
                "record {i} references feature {feature} of a {width}-feature store"
            )));
        }
        records.push(GbRecord {
            feature: feature as u32,
            threshold,
        });
    }
    r.finish()?;
    Ok(GbdtGuestModel { width, records })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Hand-build a PartyB blob prefix: Glm/Mlp spec + a MatMul source
    /// of the given shape + no embed layer.
    fn party_b_prefix(spec_bytes: &[u8], mm_in: usize, mm_out: usize) -> Writer {
        use bf_paillier::{keys::plain_keys, ObfMode, Obfuscator};
        let (pk, _) = plain_keys(20);
        let obf = Obfuscator::new(&pk, ObfMode::Pool(2), 0);
        let mut w = Writer::new(KIND_PARTY_B);
        w.buf.extend_from_slice(spec_bytes);
        w.u64(1); // one guest link
        w.u8(1); // matmul present
        w.u64(mm_out as u64);
        let piece = Dense::zeros(mm_in, mm_out);
        for _ in 0..4 {
            w.dense(&piece);
        }
        w.ctmat(&pk.encrypt(&piece, &obf));
        w.u8(0); // no embed
        w
    }

    #[test]
    fn cross_component_width_mismatch_is_rejected() {
        // Spec Glm{out: 1} + MatMul out 1, but a width-3 bias top:
        // each component is internally consistent, so only the
        // cross-component check can catch it — without it, the blob
        // imports and the first forward pass panics mid-protocol.
        let mut spec = vec![1u8];
        spec.extend_from_slice(&1u64.to_le_bytes());
        let mut w = party_b_prefix(&spec, 2, 1);
        w.u8(1); // Top::Bias
        let bad = Dense::zeros(1, 3);
        w.dense(&bad);
        w.dense(&bad);
        match import_party_b(&w.buf).err() {
            Some(PersistError::Malformed(why)) => {
                assert!(why.contains("Glm widths disagree"), "{why}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn unchained_tower_layers_are_rejected() {
        // Spec Mlp[2, 1] + MatMul out 2, tower layers 2×3 then 4×1:
        // every layer is internally consistent but 3 → 4 do not chain.
        let mut spec = vec![2u8];
        for v in [2u64, 2, 1] {
            spec.extend_from_slice(&v.to_le_bytes());
        }
        let mut w = party_b_prefix(&spec, 3, 2);
        w.u8(2); // Top::Tower
        let bias = Dense::zeros(1, 2);
        w.dense(&bias);
        w.dense(&bias);
        w.u64(2); // tower depth
        for (rows, cols, act) in [(2usize, 3usize, 1u8), (4, 1, 0)] {
            let wt = Dense::zeros(rows, cols);
            let b = Dense::zeros(1, cols);
            w.dense(&wt);
            w.dense(&b);
            w.dense(&wt);
            w.dense(&b);
            w.u8(act);
        }
        match import_party_b(&w.buf).err() {
            Some(PersistError::Malformed(why)) => {
                assert!(why.contains("do not chain"), "{why}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_fields_do_not_allocate() {
        // A dense header claiming u64::MAX rows must fail before any
        // allocation happens.
        let mut blob = Vec::new();
        blob.extend_from_slice(&MAGIC);
        blob.push(VERSION);
        blob.push(KIND_PARTY_A);
        blob.push(1); // has_matmul
        blob.extend_from_slice(&1u64.to_le_bytes()); // out
        blob.extend_from_slice(&u64::MAX.to_le_bytes()); // rows
        blob.extend_from_slice(&u64::MAX.to_le_bytes()); // cols
        assert!(import_party_a(&blob).is_err());
    }
}
