//! Beaver matmul triplets for the SecureML baseline.
//!
//! SecureML performs secret-shared matrix multiplication `⟨X⟩·⟨Y⟩`
//! using one-time triplets `(A, B, C = A·B)`. Two generation modes are
//! reproduced from the paper's evaluation:
//!
//! * **client-aided** — a non-colluding third party (the "dealer")
//!   hands both parties triplet shares; the online phase then involves
//!   no cryptography at all (Table 5's fast column), and
//! * **HE-assisted** — the two parties generate the triplet themselves
//!   with Paillier (the expensive offline phase folded into SecureML's
//!   per-batch cost, Table 5's slow column).

use bf_paillier::{Obfuscator, PublicKey, SecretKey};
use bf_tensor::Dense;
use rand::Rng;

use crate::convert::he2ss_peer;
use crate::shares::{random_mask, share_dense};
use crate::transport::{Endpoint, Msg, TransportResult};

/// One party's share of a matmul triplet for shapes `(m×k)·(k×n)`.
#[derive(Clone, Debug)]
pub struct TripleShare {
    /// Share of `A` (`m×k`).
    pub a: Dense,
    /// Share of `B` (`k×n`).
    pub b: Dense,
    /// Share of `C = A·B` (`m×n`).
    pub c: Dense,
}

impl TripleShare {
    /// Approximate memory footprint in bytes, used by the Table 5
    /// harness to reproduce SecureML's OOM on high-dimensional data.
    pub fn estimated_bytes(m: usize, k: usize, n: usize) -> usize {
        8 * (m * k + k * n + m * n)
    }
}

/// Dealer-generated triplet shares (the client-aided variant): no
/// cryptography, just three random matrices and their exact product.
pub fn dealer_triple<R: Rng + ?Sized>(
    rng: &mut R,
    m: usize,
    k: usize,
    n: usize,
    mask: f64,
) -> (TripleShare, TripleShare) {
    let a = random_mask(rng, m, k, 1.0);
    let b = random_mask(rng, k, n, 1.0);
    let c = a.matmul(&b);
    let (a1, a2) = share_dense(rng, &a, mask);
    let (b1, b2) = share_dense(rng, &b, mask);
    let (c1, c2) = share_dense(rng, &c, mask);
    (
        TripleShare {
            a: a1,
            b: b1,
            c: c1,
        },
        TripleShare {
            a: a2,
            b: b2,
            c: c2,
        },
    )
}

/// HE-assisted triplet generation (symmetric two-party protocol).
///
/// Each party samples its own `A_i, B_i`; the cross terms `A_1·B_2`
/// and `A_2·B_1` are computed under Paillier and re-shared with random
/// masks, so neither party learns the other's factors.
pub fn he_gen_triple<R: Rng + ?Sized>(
    ep: &Endpoint,
    own_pk: &PublicKey,
    own_sk: &SecretKey,
    own_obf: &Obfuscator,
    peer_pk: &PublicKey,
    m: usize,
    k: usize,
    n: usize,
    rng: &mut R,
) -> TransportResult<TripleShare> {
    let a_own = random_mask(rng, m, k, 1.0);
    let b_own = random_mask(rng, k, n, 1.0);

    // 1. Exchange encrypted A factors (each under its owner's key).
    let enc_a = own_pk.encrypt(&a_own, own_obf);
    ep.send(Msg::Ct(enc_a))?;
    let enc_a_peer = ep.recv_ct()?;

    // 2. Compute ⟦A_peer · B_own⟧ under the peer's key, mask it with a
    //    fresh R, and return it.
    let cross = peer_pk.matmul_ct_wt(&enc_a_peer, &b_own.transpose());
    let r_own = random_mask(rng, m, n, 10.0);
    ep.send(Msg::Ct(peer_pk.sub_plain(&cross, &r_own)))?;

    // 3. Decrypt the peer's response: d = A_own · B_peer − R_peer.
    let d = he2ss_peer(ep, own_sk, m, n)?;

    // C_own = A_own·B_own + (A_own·B_peer − R_peer) + R_own.
    let mut c = a_own.matmul(&b_own);
    c.add_assign(&d);
    c.add_assign(&r_own);
    Ok(TripleShare {
        a: a_own,
        b: b_own,
        c,
    })
}

/// Online Beaver multiplication: both parties hold shares of `X` and
/// `Y` plus triplet shares; returns this party's share of `X·Y`.
///
/// `is_leader` selects which party adds the public `E·F` term.
pub fn beaver_matmul(
    ep: &Endpoint,
    is_leader: bool,
    x_share: &Dense,
    y_share: &Dense,
    ts: &TripleShare,
) -> TransportResult<Dense> {
    // Open E = X - A and F = Y - B.
    let e_share = x_share.sub(&ts.a);
    let f_share = y_share.sub(&ts.b);
    ep.send(Msg::Mat(e_share.clone()))?;
    ep.send(Msg::Mat(f_share.clone()))?;
    let e_peer = ep.recv_mat()?;
    let f_peer = ep.recv_mat()?;
    let e = e_share.add(&e_peer);
    let f = f_share.add(&f_peer);

    // Z_share = C + E·B_share + A_share·F (+ E·F for the leader).
    let mut z = ts.c.clone();
    z.add_assign(&e.matmul(&ts.b));
    z.add_assign(&ts.a.matmul(&f));
    if is_leader {
        z.add_assign(&e.matmul(&f));
    }
    Ok(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel_pair;
    use bf_paillier::{keygen, ObfMode};
    use rand::SeedableRng;

    #[test]
    fn dealer_triple_is_consistent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (t1, t2) = dealer_triple(&mut rng, 3, 4, 2, 50.0);
        let a = t1.a.add(&t2.a);
        let b = t1.b.add(&t2.b);
        let c = t1.c.add(&t2.c);
        assert!(c.approx_eq(&a.matmul(&b), 1e-9));
    }

    #[test]
    fn beaver_matmul_reconstructs_product() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let x = random_mask(&mut rng, 3, 4, 2.0);
        let y = random_mask(&mut rng, 4, 2, 2.0);
        let (x1, x2) = share_dense(&mut rng, &x, 10.0);
        let (y1, y2) = share_dense(&mut rng, &y, 10.0);
        let (t1, t2) = dealer_triple(&mut rng, 3, 4, 2, 10.0);
        let (ep1, ep2) = channel_pair();
        let h = std::thread::spawn(move || beaver_matmul(&ep1, true, &x1, &y1, &t1).unwrap());
        let z2 = beaver_matmul(&ep2, false, &x2, &y2, &t2).unwrap();
        let z1 = h.join().unwrap();
        assert!(z1.add(&z2).approx_eq(&x.matmul(&y), 1e-8));
    }

    #[test]
    fn he_generated_triple_is_consistent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (pk1, sk1) = keygen(192, 20, &mut rng);
        let (pk2, sk2) = keygen(192, 20, &mut rng);
        let obf1 = Obfuscator::new(&pk1, ObfMode::Pool(4), 4);
        let obf2 = Obfuscator::new(&pk2, ObfMode::Pool(4), 5);
        let (ep1, ep2) = channel_pair();
        let (m, k, n) = (2, 3, 2);
        let pk2c = pk2.clone();
        let pk1c = pk1.clone();
        let h = std::thread::spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            he_gen_triple(&ep1, &pk1c, &sk1, &obf1, &pk2c, m, k, n, &mut rng).unwrap()
        });
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(7);
        let t2 = he_gen_triple(&ep2, &pk2, &sk2, &obf2, &pk1, m, k, n, &mut rng2).unwrap();
        let t1 = h.join().unwrap();
        let a = t1.a.add(&t2.a);
        let b = t1.b.add(&t2.b);
        let c = t1.c.add(&t2.c);
        assert!(
            c.approx_eq(&a.matmul(&b), 1e-4),
            "C != A·B: max err {}",
            c.sub(&a.matmul(&b)).max_abs()
        );
    }

    #[test]
    fn estimated_bytes_matches_shapes() {
        assert_eq!(TripleShare::estimated_bytes(2, 3, 4), 8 * (6 + 12 + 8));
    }
}
