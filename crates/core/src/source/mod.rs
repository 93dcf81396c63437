//! Federated source layers — the paper's core contribution.
//!
//! A source layer is the first layer of a VFL model, computed *jointly*
//! so that neither party can evaluate it alone (unlike split learning's
//! local bottom models). Two kinds are provided, mirroring Figures 6
//! and 7:
//!
//! * [`matmul::MatMulSource`] for numerical (dense or sparse) features,
//! * [`embed::EmbedSource`] for categorical features (secret-shared
//!   embedding table + secret-shared projection).
//!
//! Both support the standard non-federated-top flow (Party B receives
//! the aggregated `Z` and supplies `∇Z`) and, via [`ss_top`], the
//! secret-shared-top flow of Appendix B where even `Z` and `∇Z` stay
//! shared.

pub mod embed;
pub mod matmul;
pub mod ss_top;

pub use embed::EmbedSource;
pub use matmul::MatMulSource;

use bf_mpc::transport::{TransportError, TransportResult};
use bf_mpc::wire::WireError;
use bf_paillier::CtMat;
use bf_tensor::Dense;

use crate::session::Session;

/// Apply one party's gradient piece to its weight piece with lazy
/// momentum on the given rows; returns the applied delta (`−η·vel`)
/// rows, which the caller freshly encrypts to refresh the peer's
/// cached ciphertext copy.
///
/// Momentum distributes over the secret sharing: with both parties
/// applying `v ← μv + g_piece; w ← w − ηv` to their pieces, the hidden
/// sum follows exact (lazy) momentum SGD.
pub(crate) fn step_piece(
    param: &mut Dense,
    vel: &mut Dense,
    piece_rows: &Dense,
    rows: &[usize],
    lr: f64,
    momentum: f64,
) -> Dense {
    debug_assert_eq!(piece_rows.rows(), rows.len());
    let cols = param.cols();
    let mut delta = Dense::zeros(rows.len(), cols);
    for (i, &r) in rows.iter().enumerate() {
        let g = piece_rows.row(i);
        let v = vel.row_mut(r);
        for (vv, &gg) in v.iter_mut().zip(g) {
            *vv = momentum * *vv + gg;
        }
        let v = vel.row(r);
        let p = param.row_mut(r);
        let d = delta.row_mut(i);
        for ((pp, dd), &vv) in p.iter_mut().zip(d.iter_mut()).zip(v) {
            *pp -= lr * vv;
            *dd = -lr * vv;
        }
    }
    delta
}

/// Receive a ciphertext upload the peer produced with
/// [`Session::encrypt_upload`] and is not about to be decrypted (so
/// `SecretKey::conforms` never sees it): `rows` rows in the geometry of
/// `like` — any matrix of the same width under the same key that
/// `encrypt_upload` laid out, which fixes the width, scale 1, backend,
/// limb count and the scalar-or-packed layout with its slot geometry.
///
/// The upload is the peer's bytes. One that differs is a malformed
/// payload, refused here before `matmul`, `t_matmul_support` or
/// `rows_add_assign` can assert on it.
pub(crate) fn recv_upload(sess: &Session, rows: usize, like: &CtMat) -> TransportResult<CtMat> {
    let ct = sess.ep.recv_ct()?;
    if ct.rows() != rows || !like.rows_conform(&ct) {
        return Err(TransportError::Wire(WireError::Malformed(format!(
            "upload is {}×{} at scale {} (packed: {}), expected {}×{} at scale {} (packed: {}) \
             in the session's own geometry",
            ct.rows(),
            ct.cols(),
            ct.scale(),
            ct.is_packed(),
            rows,
            like.cols(),
            like.scale(),
            like.is_packed(),
        ))));
    }
    Ok(ct)
}

/// The receiving end of [`step_piece`]'s delta (the `Recv and Update
/// ⟦V⟧` steps of Figures 6 and 7): take the peer's freshly encrypted
/// delta off the wire ([`recv_upload`], in the cache's own geometry)
/// and add it into `rows` of `cache`.
pub(crate) fn recv_refresh(
    sess: &Session,
    cache: &mut CtMat,
    rows: &[usize],
) -> TransportResult<()> {
    let delta = recv_upload(sess, rows.len(), cache)?;
    sess.peer_pk.rows_add_assign(cache, rows, &delta);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FedConfig;
    use crate::session::run_pair;
    use bf_mpc::transport::Msg;

    fn m(rows: usize) -> Dense {
        Dense::from_vec(rows, 2, vec![0.5; rows * 2])
    }

    /// An upload the sending session encrypts under its own key.
    type Upload = fn(&Session) -> CtMat;

    /// What a receiver holding `cache` (encrypted by the sender, whose
    /// key it is under) makes of each `(delta, rows)` the sender ships.
    fn refresh(
        cfg: &FedConfig,
        cache: Upload,
        deltas: Vec<(Upload, Vec<usize>)>,
    ) -> Vec<TransportResult<()>> {
        let row_sets: Vec<Vec<usize>> = deltas.iter().map(|(_, rows)| rows.clone()).collect();
        let (results, ()) = run_pair(
            cfg,
            5,
            move |sess| {
                let mut cache = sess.ep.recv_ct().unwrap();
                row_sets
                    .iter()
                    .map(|rows| recv_refresh(&sess, &mut cache, rows))
                    .collect()
            },
            move |sess| {
                sess.ep.send(Msg::Ct(cache(&sess))).unwrap();
                for (delta, _) in &deltas {
                    sess.ep.send(Msg::Ct(delta(&sess))).unwrap();
                }
            },
        );
        results
    }

    #[test]
    fn a_delta_that_does_not_fit_its_cache_is_a_typed_error() {
        // 256-bit / frac-24 keys pack two slots: a 4×2 cache is one
        // ciphertext per row.
        let results = refresh(
            &FedConfig::paillier_test(),
            |s| s.encrypt_upload(&m(4)),
            vec![
                (|s| s.encrypt_upload(&m(2)), vec![1, 3]),
                // A scalar delta for a packed cache.
                (|s| s.own_pk.encrypt(&m(2), &s.obf), vec![1, 3]),
                // One row too many, one too few; one column too many.
                (|s| s.encrypt_upload(&m(3)), vec![1, 3]),
                (|s| s.encrypt_upload(&m(1)), vec![1, 3]),
                (
                    |s| s.encrypt_upload(&Dense::from_vec(2, 3, vec![0.5; 6])),
                    vec![1, 3],
                ),
                // Another scale; then a well-formed delta still lands —
                // the refusals left the cache as it was.
                (|s| s.own_pk.encrypt_at_scale(&m(2), 2, &s.obf), vec![1, 3]),
                (|s| s.encrypt_upload(&m(2)), vec![0, 2]),
            ],
        );
        let ok: Vec<bool> = results.iter().map(Result::is_ok).collect();
        assert_eq!(ok, [true, false, false, false, false, false, true]);
        for r in results.iter().filter(|r| r.is_err()) {
            assert!(
                matches!(r, Err(TransportError::Wire(WireError::Malformed(_)))),
                "{r:?}"
            );
        }
        // The other way round: a packed delta for a scalar cache.
        let results = refresh(
            &FedConfig::paillier_test(),
            |s| s.own_pk.encrypt(&m(4), &s.obf),
            vec![
                (|s| s.encrypt_upload(&m(2)), vec![1, 3]),
                (|s| s.own_pk.encrypt(&m(2), &s.obf), vec![1, 3]),
            ],
        );
        assert!(matches!(
            results[0],
            Err(TransportError::Wire(WireError::Malformed(_)))
        ));
        assert!(results[1].is_ok());
    }
}
