//! Salted-digest private set intersection over sample-ID columns —
//! the **sample alignment** phase that VFL surveys place at the entry
//! point of the vertical-federated life cycle (PAPERS.md, Yu et al.).
//!
//! BlindFL's training and serving protocols assume both parties feed
//! row *i* of the same logical sample; this module is what makes that
//! assumption true. Each party holds a `u64` sample-ID column (think
//! hashed customer numbers). The host draws a salt, both parties
//! digest their IDs with it, digests are exchanged as canonical
//! strictly-ascending sets (wire kinds 11–12, protocol v6), and each
//! party ends with a [`PsiSelection`]: the common IDs plus the local
//! row index of each, **sorted by ID**. Because the common IDs are
//! equal on both sides, the ID-sorted order is the shared canonical
//! row order — both parties can feed `selection.rows` to
//! `Dataset::select` and be aligned, no matter how their local rows
//! were permuted.
//!
//! ## What this leaks (documented threat model)
//!
//! Digest-exchange PSI is the protocol BlindFL-class systems deploy
//! for its one-round simplicity, and it is *not* leak-free:
//!
//! * **Set sizes** — both parties learn each other's row counts.
//! * **Intersection membership** — both parties learn which of their
//!   own rows are common (that is the output).
//! * **Digest grinding** — a peer that can enumerate the ID space
//!   (low-entropy IDs) can test candidate IDs against the received
//!   digests, because the salt is shared. The salt defeats
//!   *precomputed* dictionaries only. For high-entropy IDs (the
//!   deployment assumption) grinding is vacuous: a digest match ⇔ an
//!   ID the peer already holds.
//!
//! The hardening path (ECDH-style PSI, where neither party can grind)
//! drops into the same two frame kinds; `docs/ARCHITECTURE.md`
//! §"Sample alignment" carries the full discussion.
//!
//! Everything here is deterministic: same salt + same ID multisets ⇒
//! identical frames, identical selections, identical
//! [`TrafficStats`](crate::TrafficStats) — which is what lets the
//! alignment-parity suite assert bit-identity end to end.

use std::collections::HashMap;

use crate::transport::{Endpoint, Msg, TransportError, TransportResult};

/// A PSI failure detected before any bad bytes hit the wire (or on
/// receipt of a structurally valid but semantically impossible set).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PsiError {
    /// The local ID column contains the same ID twice — row identity
    /// is ill-defined, alignment must refuse.
    DuplicateId(u64),
    /// Two *distinct* local IDs hash to the same salted digest. With a
    /// 64-bit digest this is a ~2⁻⁶⁴ event per pair; refusing (rather
    /// than silently mis-aligning a row) is the only sound move.
    DigestCollision(u64),
    /// The peer's digest set contains a digest that matches none of
    /// ours even though protocol state says it must (host echoed an
    /// intersection we cannot reproduce) — a protocol violation.
    UnknownDigest(u64),
}

impl std::fmt::Display for PsiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PsiError::DuplicateId(id) => write!(f, "duplicate sample id {id} in local column"),
            PsiError::DigestCollision(d) => {
                write!(
                    f,
                    "salted digest collision on {d:#018x} between distinct ids"
                )
            }
            PsiError::UnknownDigest(d) => {
                write!(f, "peer digest {d:#018x} matches no local id")
            }
        }
    }
}

impl std::error::Error for PsiError {}

impl From<PsiError> for TransportError {
    fn from(e: PsiError) -> TransportError {
        TransportError::Setup(format!("psi: {e}"))
    }
}

/// One party's alignment result: the intersection, in the shared
/// canonical order (ascending ID), with each ID's local row index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PsiSelection {
    /// Common sample IDs, ascending. Identical on every party.
    pub ids: Vec<u64>,
    /// `rows[i]` = local row index holding `ids[i]`. Party-specific;
    /// feeding it to `Dataset::select` yields the aligned dataset.
    pub rows: Vec<usize>,
}

impl PsiSelection {
    /// Number of common samples.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the intersection is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Salted ID digest: two rounds of the SplitMix64 finalizer over
/// `id ⊕ mix(salt)`. Fast, deterministic, and — like every practical
/// digest-exchange PSI — *not* a cryptographic commitment; see the
/// module docs for exactly what that trade-off leaks.
pub fn psi_digest(salt: u64, id: u64) -> u64 {
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    mix(mix(salt ^ 0x5A4D_9E3C_0B1F_7A22) ^ mix(id))
}

/// Digest a local ID column, refusing duplicate IDs and (astronomically
/// unlikely) digest collisions. Returns `digest → row index`.
fn digest_index(salt: u64, ids: &[u64]) -> Result<HashMap<u64, usize>, PsiError> {
    digest_index_with(|id| psi_digest(salt, id), ids)
}

/// The digest-parametric core of [`digest_index`] — split out so the
/// collision-refusal path can be exercised with a deliberately
/// colliding digest function (a real 64-bit collision is not
/// constructible in a test).
fn digest_index_with<F: Fn(u64) -> u64>(
    digest: F,
    ids: &[u64],
) -> Result<HashMap<u64, usize>, PsiError> {
    let mut seen_ids: HashMap<u64, usize> = HashMap::with_capacity(ids.len());
    let mut by_digest: HashMap<u64, usize> = HashMap::with_capacity(ids.len());
    for (row, &id) in ids.iter().enumerate() {
        if seen_ids.insert(id, row).is_some() {
            return Err(PsiError::DuplicateId(id));
        }
        let d = digest(id);
        if by_digest.insert(d, row).is_some() {
            // Distinct IDs (duplicates were just rejected) sharing a
            // digest: refuse rather than mis-align.
            return Err(PsiError::DigestCollision(d));
        }
    }
    Ok(by_digest)
}

/// A local ID column as the canonical wire set: salted digests,
/// strictly ascending. Errors on duplicate IDs / digest collisions.
pub fn salted_digests(salt: u64, ids: &[u64]) -> Result<Vec<u64>, PsiError> {
    let index = digest_index(salt, ids)?;
    let mut digests: Vec<u64> = index.into_keys().collect();
    digests.sort_unstable();
    Ok(digests)
}

/// The pure intersection core (oracle-tested in
/// `crates/mpc/tests/psi_prop.rs`): given the local ID column and a
/// peer digest set, select the common rows in canonical (ascending-ID)
/// order. The peer set may be the peer's full column or an
/// already-reduced intersection — any subset works.
pub fn select_common(
    salt: u64,
    my_ids: &[u64],
    peer_digests: &[u64],
) -> Result<PsiSelection, PsiError> {
    let by_digest = digest_index(salt, my_ids)?;
    let mut pairs: Vec<(u64, usize)> = Vec::new();
    for &d in peer_digests {
        if let Some(&row) = by_digest.get(&d) {
            pairs.push((my_ids[row], row));
        }
    }
    pairs.sort_unstable_by_key(|&(id, _)| id);
    Ok(PsiSelection {
        ids: pairs.iter().map(|&(id, _)| id).collect(),
        rows: pairs.iter().map(|&(_, row)| row).collect(),
    })
}

/// Like [`select_common`], but every peer digest **must** match a
/// local ID — used by the guest on the host's echoed intersection,
/// which by protocol is a subset of what the guest sent.
fn select_exact(salt: u64, my_ids: &[u64], peer_digests: &[u64]) -> Result<PsiSelection, PsiError> {
    let sel = select_common(salt, my_ids, peer_digests)?;
    if sel.ids.len() != peer_digests.len() {
        let mine = digest_index(salt, my_ids)?;
        let missing = peer_digests
            .iter()
            .find(|d| !mine.contains_key(d))
            .copied()
            .unwrap_or_default();
        return Err(PsiError::UnknownDigest(missing));
    }
    Ok(sel)
}

/// Host (Party B) side of the PSI phase over its guest links — one for
/// a two-party job, `M` for an Appendix C job. Sends every guest
/// `PsiOffer{salt, count}`, receives each guest's digest set, and
/// echoes the global intersection (host ∩ guest₀ ∩ … ∩ guest_{M−1}) to
/// all of them, so all `M+1` parties end aligned on one sample set —
/// the fan-out needs one shared intersection, not `M` pairwise ones.
/// Returns the host's selection; no links is a
/// [`TransportError::Setup`].
///
/// Every frame moves through [`Endpoint::send`], so PSI traffic lands
/// in [`TrafficStats`](crate::TrafficStats) exactly like protocol
/// traffic — and exactly once (reconnect replay bypasses accounting).
pub fn psi_host(eps: &[&Endpoint], salt: u64, ids: &[u64]) -> TransportResult<PsiSelection> {
    if eps.is_empty() {
        return Err(TransportError::Setup(
            "psi_host needs at least one guest link".into(),
        ));
    }
    // Validate the local column (and own digest map) before any bytes
    // move: a malformed host column must not half-run the phase.
    let by_digest = digest_index(salt, ids).map_err(TransportError::from)?;
    for ep in eps {
        ep.send(Msg::PsiOffer {
            salt,
            count: ids.len() as u64,
        })?;
    }
    // Intersect progressively: start from the host's digest set, keep
    // only digests every guest also sent. Link order cannot matter —
    // set intersection is commutative and the final sort is canonical.
    let mut common: Vec<u64> = by_digest.keys().copied().collect();
    for ep in eps {
        let guest = ep.recv_psi_digests()?;
        // The wire codec already enforced "strictly ascending set", so
        // membership is a binary search away.
        common.retain(|d| guest.binary_search(d).is_ok());
    }
    common.sort_unstable();
    for ep in eps {
        ep.send(Msg::PsiDigests {
            digests: common.clone(),
        })?;
    }
    select_common(salt, ids, &common).map_err(TransportError::from)
}

/// Guest (Party A) side of the PSI phase. Receives the host's offer,
/// answers with the full local digest set, receives the intersection,
/// returns `(salt, selection)` — the salt is surfaced so the caller
/// can persist it in an aligned checkpoint cursor.
pub fn psi_guest(ep: &Endpoint, ids: &[u64]) -> TransportResult<(u64, PsiSelection)> {
    let (salt, _host_count) = ep.recv_psi_offer()?;
    let digests = salted_digests(salt, ids).map_err(TransportError::from)?;
    ep.send(Msg::PsiDigests { digests })?;
    let common = ep.recv_psi_digests()?;
    let sel = select_exact(salt, ids, &common).map_err(TransportError::from)?;
    Ok((salt, sel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel_pair;

    #[test]
    fn digest_is_deterministic_and_salt_sensitive() {
        assert_eq!(psi_digest(7, 42), psi_digest(7, 42));
        assert_ne!(psi_digest(7, 42), psi_digest(8, 42));
        assert_ne!(psi_digest(7, 42), psi_digest(7, 43));
    }

    #[test]
    fn two_party_psi_selects_common_rows_in_id_order() {
        let (a, b) = channel_pair();
        // Guest rows are shuffled; host holds a superset.
        let guest_ids = vec![50, 10, 99, 30];
        let host_ids = vec![10, 20, 30, 40, 50];
        let guest = std::thread::spawn(move || psi_guest(&a, &guest_ids).unwrap());
        let host_sel = psi_host(&[&b], 0xBEEF, &host_ids).unwrap();
        let (salt, guest_sel) = guest.join().unwrap();
        assert_eq!(salt, 0xBEEF);
        assert_eq!(host_sel.ids, vec![10, 30, 50]);
        assert_eq!(guest_sel.ids, vec![10, 30, 50]);
        assert_eq!(host_sel.rows, vec![0, 2, 4]);
        assert_eq!(guest_sel.rows, vec![1, 3, 0]);
    }

    #[test]
    fn multi_guest_psi_takes_the_global_intersection() {
        let (a0, b0) = channel_pair();
        let (a1, b1) = channel_pair();
        let g0 = std::thread::spawn(move || psi_guest(&a0, &[1, 2, 3, 4]).unwrap());
        let g1 = std::thread::spawn(move || psi_guest(&a1, &[2, 4, 6]).unwrap());
        let host = psi_host(&[&b0, &b1], 1, &[4, 3, 2]).unwrap();
        assert_eq!(host.ids, vec![2, 4]);
        assert_eq!(host.rows, vec![2, 0]);
        assert_eq!(g0.join().unwrap().1.ids, vec![2, 4]);
        assert_eq!(g1.join().unwrap().1.ids, vec![2, 4]);
    }

    #[test]
    fn duplicate_ids_are_refused_before_any_bytes_move() {
        let (_a, b) = channel_pair();
        let err = psi_host(&[&b], 3, &[5, 6, 5]).unwrap_err();
        assert!(err.to_string().contains("duplicate sample id 5"));
        assert_eq!(b.stats().bytes(), 0, "refusal must precede traffic");
    }

    #[test]
    fn a_host_without_links_is_a_setup_error() {
        let err = psi_host(&[], 3, &[5, 6]).unwrap_err();
        assert!(matches!(err, TransportError::Setup(_)), "{err}");
    }

    #[test]
    fn digest_collisions_between_distinct_ids_are_refused() {
        // The public digest is collision-free in any reachable test
        // (64-bit SplitMix finalizer), so drive the refusal path with
        // a digest that collides by construction.
        let err = digest_index_with(|_id| 7, &[1, 2]).unwrap_err();
        assert_eq!(err, PsiError::DigestCollision(7));
        // One row alone never collides.
        assert!(digest_index_with(|_id| 7, &[1]).is_ok());
    }

    #[test]
    fn host_echoing_unknown_digests_is_a_protocol_violation() {
        let err = select_exact(3, &[1, 2], &[psi_digest(3, 1), psi_digest(3, 99)]).unwrap_err();
        assert_eq!(err, PsiError::UnknownDigest(psi_digest(3, 99)));
    }

    #[test]
    fn disjoint_parties_align_on_the_empty_set() {
        let (a, b) = channel_pair();
        let guest = std::thread::spawn(move || psi_guest(&a, &[1, 2]).unwrap());
        let host = psi_host(&[&b], 9, &[3, 4]).unwrap();
        assert!(host.is_empty());
        assert!(guest.join().unwrap().1.is_empty());
    }
}
