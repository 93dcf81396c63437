//! Sample alignment: the PSI phase between session handshake and
//! training.
//!
//! The paper assumes both parties feed row *i* of the same logical
//! sample ("PSI-aligned instances"); this module makes the assumption
//! true at runtime. After the cryptographic handshake, the host sends
//! a salted-digest PSI offer over the same [`Endpoint`] the protocol
//! uses ([`bf_mpc::psi`], wire kinds 11–12), both sides compute the
//! intersection of their sample-ID columns, and each feeds its
//! party-specific row selection to `Dataset::select`. Because the
//! canonical order is ascending sample ID — equal on the common rows
//! by construction — all parties end up on the same logical row
//! order without any further coordination.
//!
//! Three properties the alignment-parity suite
//! (`tests/alignment_parity.rs`) pins down:
//!
//! * **Bit-identity** — a PSI-aligned run on shuffled supersets equals
//!   the pre-aligned run on the bare intersection: same losses, same
//!   weights, and `total bytes − PSI bytes = pre-aligned bytes`.
//!   [`psi_salt`] is pure in the run seed (it never consumes the
//!   session mask RNG), so the mask streams of aligned and
//!   pre-aligned runs are identical.
//! * **Exact accounting** — PSI frames move through `Endpoint::send`
//!   and land in [`bf_mpc::TrafficStats`] exactly once;
//!   [`Alignment::from_cursor`] rebuilds a checkpointed selection with
//!   *zero* wire traffic, so resume never double-counts the phase.
//! * **Permutation invariance** — shuffling either party's local rows
//!   changes neither the wire bytes (digest sets are canonical
//!   ascending) nor the aligned datasets.
//!
//! Whether a run aligns is data on the run, not a different entry
//! point: set [`crate::train::FedTrainConfig::align`] to this party's
//! [`AlignInput`] and [`crate::train::run_party_a`] /
//! [`crate::train::run_party_b`] run the phase first and train on the
//! intersection. The limited-overlap regime of Sun et al. needs nothing
//! more from this module: the guest fits a `bf_ml::LocalEncoder`
//! (StandardScaler + PCA) on *all* of its rows — the unaligned
//! remainder included — encodes its train and test views, and runs the
//! aligned entry point on the encoded features
//! (`examples/psi_align.rs`).

use std::collections::HashMap;

use bf_ml::data::Dataset;
use bf_mpc::psi::{psi_guest, psi_host_multi};
use bf_mpc::transport::{Endpoint, TransportError, TransportResult};

use crate::persist::AlignCursor;
use crate::session::Session;

/// Derive the run's PSI salt from the shared run seed (SplitMix64
/// finalizer). Pure — it deliberately does **not** draw from the
/// session mask RNG, so an aligned run's mask stream is bit-identical
/// to a pre-aligned run's with the same seed.
pub fn psi_salt(seed: u64) -> u64 {
    let mut x = seed ^ 0x0A11_6E5A_17D1_6E57;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One party's completed alignment: the intersection (canonical
/// ascending-ID order), this party's row selection realising it, and
/// the PSI bytes this party sent to get it.
#[derive(Clone, Debug)]
pub struct Alignment {
    /// The salt of the PSI exchange (persisted in aligned checkpoints
    /// so a resumed run can prove it re-selected the same set).
    pub salt: u64,
    /// Common sample IDs, strictly ascending — identical on every
    /// party of the run.
    pub ids: Vec<u64>,
    /// `rows[i]` = this party's local row holding `ids[i]`.
    pub rows: Vec<usize>,
    /// Bytes this party sent during the PSI phase (0 when the
    /// selection was rebuilt from a checkpoint, which is wire-free).
    pub psi_bytes_sent: u64,
    /// [`Alignment::psi_bytes_sent`] per link, in link order: one entry
    /// at a guest, one per guest at the host, none after a wire-free
    /// rebuild.
    pub psi_bytes_per_link: Vec<u64>,
}

/// What one party brings to the alignment phase
/// ([`crate::train::FedTrainConfig::align`]).
#[derive(Clone, Debug)]
pub struct AlignInput {
    /// `ids[r]` = sample ID of local train row `r` (any order;
    /// duplicates are refused by the PSI layer).
    pub ids: Vec<u64>,
    /// The salt the host offers — derive it with [`psi_salt`] from the
    /// shared run seed. A guest learns the salt from the offer and
    /// ignores this field.
    pub salt: u64,
}

impl Alignment {
    /// Number of aligned samples.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the intersection is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The aligned view of a local dataset: rows reordered into the
    /// shared canonical order.
    pub fn select(&self, ds: &Dataset) -> Dataset {
        ds.select(&self.rows)
    }

    /// The persistable form: the optional section an aligned
    /// checkpoint carries (see `persist` kinds 4–5).
    pub fn cursor(&self) -> AlignCursor {
        AlignCursor {
            salt: self.salt,
            ids: self.ids.clone(),
        }
    }

    /// Rebuild a selection from a checkpointed cursor against the
    /// local ID column — **zero wire traffic**, which is load-bearing:
    /// `Session::restore_cursor` preloads traffic totals that already
    /// include the original run's PSI bytes exactly once, so a resumed
    /// run that re-ran PSI would double-count the phase.
    pub fn from_cursor(cur: &AlignCursor, local_ids: &[u64]) -> TransportResult<Alignment> {
        let mut index: HashMap<u64, usize> = HashMap::with_capacity(local_ids.len());
        for (row, &id) in local_ids.iter().enumerate() {
            if index.insert(id, row).is_some() {
                return Err(TransportError::Setup(format!(
                    "psi resume: duplicate sample id {id} in local column"
                )));
            }
        }
        let mut rows = Vec::with_capacity(cur.ids.len());
        for &id in &cur.ids {
            rows.push(*index.get(&id).ok_or_else(|| {
                TransportError::Setup(format!(
                    "psi resume: checkpointed id {id} missing from local column"
                ))
            })?);
        }
        Ok(Alignment {
            salt: cur.salt,
            ids: cur.ids.clone(),
            rows,
            psi_bytes_sent: 0,
            psi_bytes_per_link: Vec::new(),
        })
    }
}

/// Guest (Party A) side of the alignment phase over an established
/// session. Blocks for the host's offer, answers with the local digest
/// set, returns the selection with this link's PSI byte cost.
pub fn align_guest(sess: &Session, ids: &[u64]) -> TransportResult<Alignment> {
    let before = sess.ep.stats().bytes();
    let (salt, sel) = psi_guest(&sess.ep, ids)?;
    let sent = sess.ep.stats().bytes() - before;
    Ok(Alignment {
        salt,
        ids: sel.ids,
        rows: sel.rows,
        psi_bytes_sent: sent,
        psi_bytes_per_link: vec![sent],
    })
}

/// Host (Party B) side of the alignment phase across its guest links:
/// one global intersection (host ∩ every guest) echoed to all guests.
/// Derive `salt` with [`psi_salt`] from the shared run seed.
pub fn align_host(links: &[Session], salt: u64, ids: &[u64]) -> TransportResult<Alignment> {
    let before: Vec<u64> = links.iter().map(|s| s.ep.stats().bytes()).collect();
    let eps: Vec<&Endpoint> = links.iter().map(|s| &s.ep).collect();
    let sel = psi_host_multi(&eps, salt, ids)?;
    let per_link: Vec<u64> = links
        .iter()
        .zip(&before)
        .map(|(s, b)| s.ep.stats().bytes() - b)
        .collect();
    Ok(Alignment {
        salt,
        ids: sel.ids,
        rows: sel.rows,
        psi_bytes_sent: per_link.iter().sum(),
        psi_bytes_per_link: per_link,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salt_is_pure_and_seed_sensitive() {
        assert_eq!(psi_salt(7), psi_salt(7));
        assert_ne!(psi_salt(7), psi_salt(8));
    }

    #[test]
    fn from_cursor_rebuilds_the_selection_without_wire_traffic() {
        let cur = AlignCursor {
            salt: 99,
            ids: vec![10, 30, 50],
        };
        let local = vec![50, 10, 99, 30];
        let a = Alignment::from_cursor(&cur, &local).unwrap();
        assert_eq!(a.ids, vec![10, 30, 50]);
        assert_eq!(a.rows, vec![1, 3, 0]);
        assert_eq!(a.psi_bytes_sent, 0);
    }

    #[test]
    fn from_cursor_rejects_missing_and_duplicate_ids() {
        let cur = AlignCursor {
            salt: 1,
            ids: vec![10, 20],
        };
        let err = Alignment::from_cursor(&cur, &[10]).unwrap_err();
        assert!(err.to_string().contains("missing from local column"));
        let err = Alignment::from_cursor(&cur, &[10, 10, 20]).unwrap_err();
        assert!(err.to_string().contains("duplicate sample id"));
    }
}
