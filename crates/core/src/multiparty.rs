//! Multi-party source layers (paper Appendix C, Algorithm 3).
//!
//! With `M` Party A's ("guests"), Party B secret-shares its MatMul
//! weights into `M+1` pieces — `W_B = U_B + Σ_i V_B(i)` with `V_B(i)`
//! created by the `i`-th Party A — and runs the pairwise MatMul
//! routine with every A(i) using `U_B/M` as its local piece. Each
//! Party A's code path is **exactly** the two-party
//! [`MatMulSource`](crate::source::MatMulSource): "let all Party A's
//! execute the same routines". [`MultiMatMulB`] is Party B's side.
//!
//! [`MultiEmbedB`] extends the same fan-out to categorical features.
//! The embedding output `lkup(Q_B)·W_B` is *bilinear* in `(Q_B, W_B)`,
//! so Algorithm 3's additive split of a single `W_B` does not carry
//! over (pairwise runs would drop the `T_B(i)·V_B(j), i≠j` cross
//! terms). Instead Party B trains one **independent pairwise
//! Embed-MatMul submodel per link** — per-link parameters
//! `Q_B(i) = S_B(i) + T_B(i)`, `W_B(i) = U_B(i) + V_B(i)` — and the
//! layer output is the sum of the per-link outputs. Every submodel is
//! individually lossless, each guest still runs the unmodified
//! [`EmbedSource`] routines, and `M = 1` reduces bit-for-bit to the
//! two-party layer.
//!
//! Setup faults (zero guests, a session with the wrong role, a
//! mis-sized session slice, a bad [`Msg::Hello`]) surface as typed
//! [`TransportError::Setup`] errors, never panics — a host facing a
//! mis-configured guest refuses the link and stays up.

use std::sync::Arc;

use bf_mpc::convert::he2ss_peer;
use bf_mpc::transport::{Endpoint, Msg, TransportError, TransportResult};
use bf_paillier::CtMat;
use bf_tensor::{CatBlock, Dense, Features};

use crate::engine::Stage;
use crate::session::{Role, Session};
use crate::source::matmul::shared_matmul_fw;
use crate::source::{step_piece, EmbedSource};

/// Validate a Party-B session slice for multi-party layer setup.
fn check_roles(sessions: &[Session], layer: &str) -> TransportResult<()> {
    if sessions.is_empty() {
        return Err(TransportError::Setup(format!(
            "{layer} needs at least one guest session (M = 0)"
        )));
    }
    for (i, sess) in sessions.iter().enumerate() {
        if sess.role != Role::B {
            return Err(TransportError::Setup(format!(
                "{layer} drives Role::B sessions, but session {i} is Role::A"
            )));
        }
    }
    Ok(())
}

/// Validate that a call-site session slice matches the layer's links.
fn check_link_count(got: usize, want: usize, layer: &str) -> TransportResult<()> {
    if got != want {
        return Err(TransportError::Setup(format!(
            "{layer} was initialised with {want} guest links but called with {got} sessions"
        )));
    }
    Ok(())
}

/// Party B's half of a multi-party MatMul source layer, linked to `M`
/// Party A sessions.
pub struct MultiMatMulB {
    /// `U_B` (B's own piece of `W_B`).
    u_own: Dense,
    vel_u: Dense,
    links: Vec<Link>,
    out: usize,
    cached_x: Option<Features>,
    cached_support: Vec<u32>,
}

/// Per-Party-A state at B.
struct Link {
    /// `V_A(i)`: B's piece of A(i)'s weights.
    v_a: Dense,
    vel_v_a: Dense,
    /// `⟦V_B(i)⟧` under A(i)'s key.
    enc_v_b: CtMat,
}

impl MultiMatMulB {
    /// Initialise against `sessions` (one per Party A). Each session
    /// must be a `Role::B` session whose peer runs
    /// `MatMulSource::init`.
    pub fn init(
        sessions: &mut [Session],
        in_own: usize,
        out: usize,
    ) -> TransportResult<MultiMatMulB> {
        check_roles(sessions, "MultiMatMulB")?;
        let mut links = Vec::with_capacity(sessions.len());
        let mut u_own = None;
        for sess in sessions.iter_mut() {
            sess.ep.send(Msg::U64(in_own as u64))?;
            let in_a = sess.ep.recv_u64()? as usize;
            if u_own.is_none() {
                u_own = Some(bf_tensor::init::xavier(&mut sess.rng, in_own, out));
            }
            let bound = (6.0 / (in_a + out) as f64).sqrt() * 0.5;
            let v_a = bf_mpc::shares::random_mask(&mut sess.rng, in_a, out, bound);
            sess.ep
                .send(Msg::Ct(sess.own_pk.encrypt(&v_a, &sess.obf)))?;
            let enc_v_b = sess.ep.recv_ct()?;
            links.push(Link {
                vel_v_a: Dense::zeros(in_a, out),
                v_a,
                enc_v_b,
            });
        }
        let u_own = u_own.expect("at least one Party A");
        Ok(MultiMatMulB {
            vel_u: Dense::zeros(in_own, out),
            u_own,
            links,
            out,
            cached_x: None,
            cached_support: Vec::new(),
        })
    }

    /// Number of linked Party A's.
    pub fn parties(&self) -> usize {
        self.links.len()
    }

    /// `U_B` (inspection).
    pub fn u_own(&self) -> &Dense {
        &self.u_own
    }

    /// B's piece of A(i)'s weights (inspection).
    pub fn v_a(&self, i: usize) -> &Dense {
        &self.links[i].v_a
    }

    /// Forward: runs the pairwise shared matmul with every A(i) using
    /// `U_B/M` as the local piece (Algorithm 3, lines 12–16), receives
    /// each A(i)'s share, and returns the aggregated
    /// `Z = Σ_i X_A(i)·W_A(i) + X_B·W_B`.
    pub fn forward(
        &mut self,
        sessions: &mut [Session],
        x: &Features,
        train: bool,
    ) -> TransportResult<Dense> {
        check_link_count(sessions.len(), self.links.len(), "MultiMatMulB")?;
        let stages = Arc::clone(&sessions[0].stages);
        let _t = stages.timer(Stage::FedMatmul);
        let m = self.links.len() as f64;
        let u_frac = self.u_own.scale(1.0 / m);
        let mut z = Dense::zeros(x.rows(), self.out);
        for (link, sess) in self.links.iter().zip(sessions.iter_mut()) {
            let z_b = shared_matmul_fw(sess, x, &u_frac, &link.enc_v_b)?;
            let z_a = sess.ep.recv_mat()?;
            z.add_assign(&z_b);
            z.add_assign(&z_a);
        }
        if train {
            self.cached_support = x.col_support();
            self.cached_x = Some(x.clone());
        }
        Ok(z)
    }

    /// Persist the layer state: `U_B`, its momentum buffer, and every
    /// link's `(V_A(i), vel, ⟦V_B(i)⟧)` triple in link order.
    pub(crate) fn write_state(&self, w: &mut crate::persist::Writer) {
        w.u64(self.out as u64);
        w.dense(&self.u_own);
        w.dense(&self.vel_u);
        for link in &self.links {
            w.dense(&link.v_a);
            w.dense(&link.vel_v_a);
            w.ctmat(&link.enc_v_b);
        }
    }

    /// Rebuild the layer from persisted state for `m` links,
    /// validating shapes.
    pub(crate) fn read_state(
        r: &mut crate::persist::Reader,
        m: usize,
    ) -> crate::persist::PersistResult<MultiMatMulB> {
        use crate::persist::{check_vel, PersistError};
        let out = r.len_u64()?;
        let u_own = r.dense()?;
        let vel_u = r.dense()?;
        check_vel(&u_own, &vel_u, "MultiMatMulB U_B")?;
        if u_own.cols() != out {
            return Err(PersistError::Malformed(format!(
                "MultiMatMulB: U_B width {} does not match out = {out}",
                u_own.cols()
            )));
        }
        let mut links = Vec::with_capacity(m);
        for i in 0..m {
            let v_a = r.dense()?;
            let vel_v_a = r.dense()?;
            let enc_v_b = r.ctmat()?;
            check_vel(&v_a, &vel_v_a, "MultiMatMulB V_A")?;
            if v_a.cols() != out {
                return Err(PersistError::Malformed(format!(
                    "MultiMatMulB link {i}: V_A width {} does not match out = {out}",
                    v_a.cols()
                )));
            }
            if enc_v_b.shape() != u_own.shape() {
                return Err(PersistError::Malformed(format!(
                    "MultiMatMulB link {i}: ⟦V_B⟧ shape {:?} does not match U_B shape {:?}",
                    enc_v_b.shape(),
                    u_own.shape()
                )));
            }
            links.push(Link {
                v_a,
                vel_v_a,
                enc_v_b,
            });
        }
        Ok(MultiMatMulB {
            u_own,
            vel_u,
            links,
            out,
            cached_x: None,
            cached_support: Vec::new(),
        })
    }

    /// Backward (Algorithm 3, lines 20–31): update `U_B` locally, then
    /// assist every A(i) exactly as in the two-party protocol.
    pub fn backward(&mut self, sessions: &mut [Session], grad_z: &Dense) -> TransportResult<()> {
        check_link_count(sessions.len(), self.links.len(), "MultiMatMulB")?;
        let stages = Arc::clone(&sessions[0].stages);
        let x = self.cached_x.take().expect("backward before forward");
        let support = std::mem::take(&mut self.cached_support);
        let local_timer = stages.timer(Stage::DecryptUpdate);
        let g = x.t_matmul_support(grad_z, &support);
        let rows: Vec<usize> = support.iter().map(|&c| c as usize).collect();
        // Local ∇W_B (line 27). Use the first session's hyper-params.
        let (lr, mu) = (sessions[0].cfg.lr, sessions[0].cfg.momentum);
        let _ = step_piece(&mut self.u_own, &mut self.vel_u, &g, &rows, lr, mu);
        drop(local_timer);

        for (link, sess) in self.links.iter_mut().zip(sessions.iter_mut()) {
            // Lines 22–26 per Party A(i).
            let ct_gz = {
                let _t = stages.timer(Stage::EncryptUpload);
                sess.own_pk.encrypt(grad_z, &sess.obf)
            };
            sess.ep.send(Msg::Ct(ct_gz))?;
            let _t = stages.timer(Stage::DecryptUpdate);
            let support_a = sess.ep.recv_support()?;
            let rows_a: Vec<usize> = support_a.iter().map(|&c| c as usize).collect();
            let piece = he2ss_peer(&sess.ep, &sess.own_sk, rows_a.len(), self.out)?;
            let delta = step_piece(&mut link.v_a, &mut link.vel_v_a, &piece, &rows_a, lr, mu);
            sess.ep
                .send(Msg::Ct(sess.own_pk.encrypt(&delta, &sess.obf)))?;
        }
        Ok(())
    }
}

/// Party B's half of a multi-party Embed-MatMul source layer: one
/// independent pairwise [`EmbedSource`] submodel per linked Party A,
/// outputs summed (see the module docs for why the bilinear embedding
/// cannot reuse Algorithm 3's additive split, and the exact per-link
/// semantics). Every guest runs the unmodified two-party
/// [`EmbedSource`] routines; `M = 1` reduces bit-for-bit to the
/// two-party layer.
pub struct MultiEmbedB {
    links: Vec<EmbedSource>,
    out: usize,
}

impl MultiEmbedB {
    /// Initialise against `sessions` (one per Party A). Each session
    /// must be a `Role::B` session whose peer runs
    /// [`EmbedSource::init`] with the same `dim`/`out`.
    pub fn init(
        sessions: &mut [Session],
        vocab_own: usize,
        fields_own: usize,
        dim: usize,
        out: usize,
    ) -> TransportResult<MultiEmbedB> {
        check_roles(sessions, "MultiEmbedB")?;
        let links = sessions
            .iter_mut()
            .map(|sess| EmbedSource::init(sess, vocab_own, fields_own, dim, out))
            .collect::<TransportResult<Vec<_>>>()?;
        Ok(MultiEmbedB { links, out })
    }

    /// Number of linked Party A's.
    pub fn parties(&self) -> usize {
        self.links.len()
    }

    /// Party B's half of the `i`-th pairwise submodel (inspection: the
    /// per-link parameters reconstruct as `Q_B(i) = S_B(i) + T_B(i)`,
    /// `W_B(i) = U_B(i) + V_B(i)` against the `i`-th guest's pieces).
    pub fn link(&self, i: usize) -> &EmbedSource {
        &self.links[i]
    }

    /// Persist the layer state: the output width and every per-link
    /// pairwise [`EmbedSource`] submodel in link order.
    pub(crate) fn write_state(&self, w: &mut crate::persist::Writer) {
        w.u64(self.out as u64);
        for link in &self.links {
            link.write_state(w);
        }
    }

    /// Rebuild the layer from persisted state for `m` links.
    pub(crate) fn read_state(
        r: &mut crate::persist::Reader,
        m: usize,
    ) -> crate::persist::PersistResult<MultiEmbedB> {
        use crate::persist::PersistError;
        let out = r.len_u64()?;
        let links = (0..m)
            .map(|_| EmbedSource::read_state(r, Role::B))
            .collect::<crate::persist::PersistResult<Vec<_>>>()?;
        for (i, link) in links.iter().enumerate() {
            if link.out_dim() != out {
                return Err(PersistError::Malformed(format!(
                    "MultiEmbedB link {i}: submodel width {} does not match out = {out}",
                    link.out_dim()
                )));
            }
        }
        Ok(MultiEmbedB { links, out })
    }

    /// Forward: runs the pairwise Embed-MatMul forward with every
    /// A(i), receives each A(i)'s aggregated share, and returns
    /// `Z = Σ_i [E_A(i)·W_A(i) + lkup(Q_B(i), X_B)·W_B(i)]`.
    pub fn forward(
        &mut self,
        sessions: &mut [Session],
        x: &CatBlock,
        train: bool,
    ) -> TransportResult<Dense> {
        check_link_count(sessions.len(), self.links.len(), "MultiEmbedB")?;
        let mut z = Dense::zeros(x.rows(), self.out);
        for (link, sess) in self.links.iter_mut().zip(sessions.iter_mut()) {
            let z_b = link.forward(sess, x, train)?;
            // The wait for A(i)'s share belongs to the stage that waits.
            let _t = sess.stages.timer(Stage::FedEmbed);
            let z_a = sess.ep.recv_mat()?;
            z.add_assign(&z_b);
            z.add_assign(&z_a);
        }
        Ok(z)
    }

    /// Backward: every pairwise submodel receives the same `∇Z` (the
    /// outputs add, so the gradient distributes) and runs the
    /// unmodified two-party backward against its guest.
    pub fn backward(&mut self, sessions: &mut [Session], grad_z: &Dense) -> TransportResult<()> {
        check_link_count(sessions.len(), self.links.len(), "MultiEmbedB")?;
        for (link, sess) in self.links.iter_mut().zip(sessions.iter_mut()) {
            link.backward_b(sess, grad_z)?;
        }
        Ok(())
    }
}

/// Announce this guest's link slot to the host: the very first frame
/// on a fresh multi-guest connection, *before* the key handshake (see
/// `docs/WIRE_PROTOCOL.md`, kind 7). The in-process harness sends it
/// too, so per-link traffic accounting is backend-independent.
pub fn send_hello(ep: &Endpoint, index: usize, total: usize) -> TransportResult<()> {
    ep.send(Msg::Hello {
        index: index as u32,
        total: total as u32,
    })
}

/// Host-side fan-in: receive one [`Msg::Hello`] from each accepted
/// endpoint and permute the endpoints into link order. Rejects a
/// wrong-sized endpoint set and duplicate / out-of-range /
/// inconsistent-total hellos with [`TransportError::Setup`] — an
/// arbitrary TCP accept order maps back onto the deterministic link
/// order or the job refuses to start.
pub fn collect_guests(endpoints: Vec<Endpoint>, total: usize) -> TransportResult<Vec<Endpoint>> {
    if endpoints.len() != total {
        return Err(TransportError::Setup(format!(
            "expected {total} guest connections, got {}",
            endpoints.len()
        )));
    }
    let mut slots: Vec<Option<Endpoint>> = (0..total).map(|_| None).collect();
    for ep in endpoints {
        let (index, claimed_total) = ep.recv_hello()?;
        if claimed_total as usize != total {
            return Err(TransportError::Setup(format!(
                "guest {index} was configured for {claimed_total} guests, host expects {total}"
            )));
        }
        let i = index as usize;
        if i >= total {
            return Err(TransportError::Setup(format!(
                "guest index {index} out of range for {total} guests"
            )));
        }
        if slots[i].is_some() {
            return Err(TransportError::Setup(format!(
                "two guests both claimed link index {index}"
            )));
        }
        slots[i] = Some(ep);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FedConfig;
    use crate::session::{Role, Session};
    use crate::source::matmul::{aggregate_a, MatMulSource};
    use rand::SeedableRng;

    /// Run an M-party training round: M Party-A threads + B inline.
    fn run_multi(
        cfg: &FedConfig,
        xs_a: Vec<Features>,
        x_b: Features,
        out: usize,
        grad_z: Option<Dense>,
        steps: usize,
    ) -> (Vec<MatMulSource>, MultiMatMulB, Dense) {
        let m = xs_a.len();
        let mut eps_b = Vec::new();
        let mut handles = Vec::new();
        for (i, x_a) in xs_a.into_iter().enumerate() {
            let (ep_a, ep_b) = bf_mpc::channel_pair();
            eps_b.push(ep_b);
            let cfg_a = cfg.clone();
            let gz = grad_z.clone();
            handles.push(std::thread::spawn(move || {
                let mut sess = Session::handshake(ep_a, cfg_a, Role::A, 1000 + i as u64).unwrap();
                let mut layer = MatMulSource::init(&mut sess, x_a.cols(), out).unwrap();
                for _ in 0..steps {
                    let z = layer.forward(&mut sess, &x_a, gz.is_some()).unwrap();
                    aggregate_a(&sess, z).unwrap();
                    if gz.is_some() {
                        layer.backward_a(&mut sess).unwrap();
                    }
                }
                let z = layer.forward(&mut sess, &x_a, false).unwrap();
                aggregate_a(&sess, z).unwrap();
                layer
            }));
        }
        let mut sessions: Vec<Session> = eps_b
            .into_iter()
            .enumerate()
            .map(|(i, ep)| Session::handshake(ep, cfg.clone(), Role::B, 2000 + i as u64).unwrap())
            .collect();
        let mut layer_b = MultiMatMulB::init(&mut sessions, x_b.cols(), out).unwrap();
        for _ in 0..steps {
            let _z = layer_b
                .forward(&mut sessions, &x_b, grad_z.is_some())
                .unwrap();
            if let Some(g) = &grad_z {
                layer_b.backward(&mut sessions, g).unwrap();
            }
        }
        let z = layer_b.forward(&mut sessions, &x_b, false).unwrap();
        let layers_a: Vec<MatMulSource> = handles
            .into_iter()
            .map(|h| h.join().expect("party A panicked"))
            .collect();
        assert_eq!(layers_a.len(), m);
        (layers_a, layer_b, z)
    }

    fn rand_dense(rows: usize, cols: usize, seed: u64) -> Dense {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        bf_tensor::init::uniform(&mut rng, rows, cols, 1.0)
    }

    #[test]
    fn three_party_forward_is_lossless() {
        let cfg = FedConfig::plain();
        let xs_a = vec![
            Features::Dense(rand_dense(5, 3, 1)),
            Features::Dense(rand_dense(5, 4, 2)),
        ];
        let x_b = Features::Dense(rand_dense(5, 2, 3));
        let (layers_a, layer_b, z) = run_multi(&cfg, xs_a.clone(), x_b.clone(), 2, None, 1);
        // Reconstruct: W_A(i) = U_A(i) + V_A(i); W_B = U_B + Σ V_B(i).
        let mut want = Dense::zeros(5, 2);
        let mut w_b = layer_b.u_own().clone();
        for (i, la) in layers_a.iter().enumerate() {
            let w_a = la.u_own().add(layer_b.v_a(i));
            want.add_assign(&xs_a[i].matmul(&w_a));
            w_b.add_assign(la.v_peer());
        }
        want.add_assign(&x_b.matmul(&w_b));
        assert!(
            z.approx_eq(&want, 1e-4),
            "max err {}",
            z.sub(&want).max_abs()
        );
    }

    #[test]
    fn three_party_backward_stays_synchronized() {
        let cfg = FedConfig::paillier_test();
        let xs_a = vec![
            Features::Dense(rand_dense(4, 2, 4)),
            Features::Dense(rand_dense(4, 3, 5)),
        ];
        let x_b = Features::Dense(rand_dense(4, 2, 6));
        let grad_z = rand_dense(4, 1, 7).scale(0.1);
        let (layers_a, layer_b, z) = run_multi(&cfg, xs_a.clone(), x_b.clone(), 1, Some(grad_z), 2);
        let mut want = Dense::zeros(4, 1);
        let mut w_b = layer_b.u_own().clone();
        for (i, la) in layers_a.iter().enumerate() {
            let w_a = la.u_own().add(layer_b.v_a(i));
            want.add_assign(&xs_a[i].matmul(&w_a));
            w_b.add_assign(la.v_peer());
        }
        want.add_assign(&x_b.matmul(&w_b));
        assert!(
            z.approx_eq(&want, 1e-3),
            "max err {}",
            z.sub(&want).max_abs()
        );
    }

    #[test]
    fn single_party_reduces_to_two_party() {
        let cfg = FedConfig::plain();
        let xs_a = vec![Features::Dense(rand_dense(3, 2, 8))];
        let x_b = Features::Dense(rand_dense(3, 2, 9));
        let (layers_a, layer_b, z) = run_multi(&cfg, xs_a.clone(), x_b.clone(), 2, None, 1);
        let w_a = layers_a[0].u_own().add(layer_b.v_a(0));
        let w_b = layer_b.u_own().add(layers_a[0].v_peer());
        let want = xs_a[0].matmul(&w_a).add(&x_b.matmul(&w_b));
        assert!(z.approx_eq(&want, 1e-4));
    }

    // ---- typed setup-error regressions (the former panic paths) ----

    fn setup_err<T>(res: TransportResult<T>) -> String {
        match res {
            Err(TransportError::Setup(why)) => why,
            Err(other) => panic!("expected TransportError::Setup, got {other:?}"),
            Ok(_) => panic!("expected TransportError::Setup, got Ok"),
        }
    }

    #[test]
    fn zero_guests_is_a_typed_error_not_a_panic() {
        let why = setup_err(MultiMatMulB::init(&mut [], 3, 2));
        assert!(why.contains("M = 0"), "unexpected message: {why}");
        let why = setup_err(MultiEmbedB::init(&mut [], 4, 2, 2, 1));
        assert!(why.contains("M = 0"), "unexpected message: {why}");
    }

    #[test]
    fn wrong_role_session_is_a_typed_error_not_a_panic() {
        let cfg = FedConfig::plain();
        let (ep_a, ep_b) = bf_mpc::channel_pair();
        let cfg_b = cfg.clone();
        let peer = std::thread::spawn(move || {
            Session::handshake(ep_b, cfg_b, Role::B, 2).unwrap();
        });
        // A Role::A session handed to the B-side driver must be
        // refused before any protocol message goes out.
        let mut sessions = vec![Session::handshake(ep_a, cfg, Role::A, 1).unwrap()];
        let why = setup_err(MultiMatMulB::init(&mut sessions, 3, 2));
        assert!(why.contains("Role::A"), "unexpected message: {why}");
        let why = setup_err(MultiEmbedB::init(&mut sessions, 4, 2, 2, 1));
        assert!(why.contains("Role::A"), "unexpected message: {why}");
        peer.join().unwrap();
    }

    #[test]
    fn mismatched_session_slice_is_a_typed_error() {
        let cfg = FedConfig::plain();
        let xs_a = vec![Features::Dense(rand_dense(3, 2, 40))];
        let x_b = Features::Dense(rand_dense(3, 2, 41));
        let (_, mut layer_b, _) = run_multi(&cfg, xs_a, x_b.clone(), 2, None, 1);
        // The layer has one link; an empty session slice must refuse.
        let why = setup_err(layer_b.forward(&mut [], &x_b, false));
        assert!(why.contains("1 guest links"), "unexpected message: {why}");
        let why = setup_err(layer_b.backward(&mut [], &Dense::zeros(3, 2)));
        assert!(why.contains("1 guest links"), "unexpected message: {why}");
    }

    // ---- guest fan-in (hello) ----

    #[test]
    fn collect_guests_reorders_by_hello_index() {
        // Guests arrive in scrambled order; after collection, slot i
        // must be the guest that claimed index i (verified by a marker
        // message each guest sends after its hello).
        let m = 3;
        let mut host_eps = Vec::new();
        let mut guest_eps = Vec::new();
        for arrival in [2u64, 0, 1] {
            let (guest, host) = bf_mpc::channel_pair();
            send_hello(&guest, arrival as usize, m).unwrap();
            guest.send(Msg::U64(100 + arrival)).unwrap();
            host_eps.push(host);
            guest_eps.push(guest);
        }
        let ordered = collect_guests(host_eps, m).unwrap();
        for (i, ep) in ordered.iter().enumerate() {
            assert_eq!(ep.recv_u64().unwrap(), 100 + i as u64);
        }
    }

    #[test]
    fn collect_guests_rejects_bad_hellos() {
        let mut guest_eps = Vec::new();
        let mut pair_with_hello = |index: usize, total: usize| {
            let (guest, host) = bf_mpc::channel_pair();
            send_hello(&guest, index, total).unwrap();
            guest_eps.push(guest);
            host
        };
        // Duplicate index.
        let eps = vec![pair_with_hello(0, 2), pair_with_hello(0, 2)];
        let why = setup_err(collect_guests(eps, 2));
        assert!(why.contains("both claimed"), "unexpected message: {why}");
        // Out-of-range index.
        let eps = vec![pair_with_hello(5, 1)];
        let why = setup_err(collect_guests(eps, 1));
        assert!(why.contains("out of range"), "unexpected message: {why}");
        // Guest configured for a different job size.
        let eps = vec![pair_with_hello(0, 7)];
        let why = setup_err(collect_guests(eps, 1));
        assert!(why.contains("host expects 1"), "unexpected message: {why}");
        // Wrong connection count.
        let eps = vec![pair_with_hello(0, 2)];
        let why = setup_err(collect_guests(eps, 2));
        assert!(
            why.contains("expected 2 guest"),
            "unexpected message: {why}"
        );
    }

    // ---- MultiEmbedB ----

    fn cat_block(rows: usize, vocabs: &[u32], seed: u64) -> CatBlock {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let local: Vec<u32> = (0..rows * vocabs.len())
            .map(|i| rng.random_range(0..vocabs[i % vocabs.len()]))
            .collect();
        CatBlock::from_local(rows, vocabs, local)
    }

    /// Run an M-party Embed-MatMul training round: M Party-A threads
    /// (unmodified `EmbedSource`) + `MultiEmbedB` inline at B.
    fn run_multi_embed(
        cfg: &FedConfig,
        xs_a: Vec<CatBlock>,
        x_b: CatBlock,
        dim: usize,
        out: usize,
        grad_z: Option<Dense>,
        steps: usize,
    ) -> (Vec<EmbedSource>, MultiEmbedB, Dense) {
        let mut eps_b = Vec::new();
        let mut handles = Vec::new();
        for (i, x_a) in xs_a.into_iter().enumerate() {
            let (ep_a, ep_b) = bf_mpc::channel_pair();
            eps_b.push(ep_b);
            let cfg_a = cfg.clone();
            let gz = grad_z.clone();
            handles.push(std::thread::spawn(move || {
                let mut sess = Session::handshake(ep_a, cfg_a, Role::A, 3000 + i as u64).unwrap();
                let mut layer =
                    EmbedSource::init(&mut sess, x_a.vocab(), x_a.fields(), dim, out).unwrap();
                for _ in 0..steps {
                    let z = layer.forward(&mut sess, &x_a, gz.is_some()).unwrap();
                    aggregate_a(&sess, z).unwrap();
                    if gz.is_some() {
                        layer.backward_a(&mut sess).unwrap();
                    }
                }
                let z = layer.forward(&mut sess, &x_a, false).unwrap();
                aggregate_a(&sess, z).unwrap();
                layer
            }));
        }
        let mut sessions: Vec<Session> = eps_b
            .into_iter()
            .enumerate()
            .map(|(i, ep)| Session::handshake(ep, cfg.clone(), Role::B, 4000 + i as u64).unwrap())
            .collect();
        let mut layer_b =
            MultiEmbedB::init(&mut sessions, x_b.vocab(), x_b.fields(), dim, out).unwrap();
        for _ in 0..steps {
            let _z = layer_b
                .forward(&mut sessions, &x_b, grad_z.is_some())
                .unwrap();
            if let Some(g) = &grad_z {
                layer_b.backward(&mut sessions, g).unwrap();
            }
        }
        let z = layer_b.forward(&mut sessions, &x_b, false).unwrap();
        let layers_a: Vec<EmbedSource> = handles
            .into_iter()
            .map(|h| h.join().expect("party A panicked"))
            .collect();
        (layers_a, layer_b, z)
    }

    /// Reference output under the documented per-link-sum semantics:
    /// `Σ_i [lkup(Q_A(i))·W_A(i) + lkup(Q_B(i))·W_B(i)]`.
    fn embed_reference(
        layers_a: &[EmbedSource],
        layer_b: &MultiEmbedB,
        xs_a: &[CatBlock],
        x_b: &CatBlock,
        out: usize,
    ) -> Dense {
        use crate::source::embed::lookup;
        let mut want = Dense::zeros(x_b.rows(), out);
        for (i, la) in layers_a.iter().enumerate() {
            let lb = layer_b.link(i);
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
        assert_eq!(layer_b.parties(), 2);
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
