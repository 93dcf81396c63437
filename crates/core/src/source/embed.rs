//! The Embed-MatMul federated source layer (paper Figure 7).
//!
//! Categorical features require an embedding lookup — impossible over
//! outsourced data, and label/feature-leaking with local bottom tables.
//! BlindFL secret-shares both the embedding table (`Q_⋄ = S_⋄ + T_⋄`)
//! and the projection (`W_⋄ = U_⋄ + V_⋄`):
//!
//! * the owner performs the lookup over the **encrypted** peer piece
//!   `⟦T_⋄⟧` — categorical indices never leave their owner — and the
//!   result is HE2SS-split into `⟨ψ_⋄, E_⋄ − ψ_⋄⟩`,
//! * the projection runs as two invocations of the shared MatMul
//!   forward over the embedding *shares* (Figure 7, lines 8–11),
//! * the backward pass secret-shares `∇W_⋄ = E_⋄ᵀ∇Z` and scatters
//!   `⟦∇Q_⋄⟧ = lkup_bw(⟦∇E_⋄⟧, X_⋄)` over ciphertexts, touching only
//!   the batch's embedding-row support,
//! * all four weight caches (`⟦U_A⟧, ⟦V_A⟧, ⟦U_B⟧, ⟦V_B⟧`) and both
//!   table caches (`⟦T_A⟧, ⟦T_B⟧`) are refreshed with freshly encrypted
//!   deltas each step, keeping plaintext pieces and ciphertext copies
//!   in lock-step.
//!
//! # Operand layouts
//!
//! Every ciphertext operand arrives in the layout its kernel contracts
//! *against*, chosen by the key owner when it encrypts
//! ([`Session::encrypt_upload`] / [`Session::encrypt_upload_seg`]): a
//! slot shift is free at encryption and ≈ 100 squarings per slot on a
//! finished ciphertext, so nothing here transposes or repacks one. The
//! weight caches, their deltas and `⟦∇Z⟧` are packed a row to a
//! segment; the tables, Party B's transposed caches `⟦V_Bᵀ⟧` and
//! `⟦U_Aᵀ⟧`, and everything `lkup_bw` scatters by field (`seg = dim`).
//! Both `⟦∇E⟧`s are therefore computed by Party B as ordinary `matmul`s
//! against a transposed cache under A's key — no kernel contracts over
//! the axis slots run along. `⟦∇E_B⟧` stays with B; `⟦∇E_A⟧` reaches A
//! by HE2SS (Algorithm 1) plus one SS2HE half (Algorithm 2): A decrypts
//! `∇E_A − ε` and adds it to `⟦ε⟧` under B's key. The table of operands,
//! layouts and kernels is in `docs/ARCHITECTURE.md` ("Embed-MatMul
//! operand layouts"). Under [`bf_paillier::PaillierMode::Scalar`], or a
//! shape or key that cannot pack, the same calls yield scalar bodies and
//! the same decrypted values.

use bf_mpc::convert::{he2ss_holder, he2ss_peer};
use bf_mpc::shares::random_mask;
use bf_mpc::transport::{Msg, TransportError, TransportResult};
use bf_paillier::{masked_share_product_fits, CtMat, MAX_PACKED_WEIGHT};
use bf_tensor::{CatBlock, Dense, Features};

use crate::engine::Stage;
use crate::persist::{read_ct, read_mat, write_ctmat, write_dense, PersistResult, Reader, Writer};
use crate::session::{Role, Session};
use crate::source::matmul::shared_matmul_fw;
use crate::source::{peer_upload_like, recv_refresh, recv_upload, step_piece};

/// One party's half of an Embed-MatMul federated source layer.
pub struct EmbedSource {
    /// `S_own`: this party's piece of its own embedding table
    /// (`vocab_own × dim`).
    s_own: Dense,
    /// `T_peer`: this party's piece of the *peer's* table.
    t_peer: Dense,
    /// `⟦T_own⟧` under the peer's key (lookup target).
    enc_t_own: CtMat,
    /// `U_own`: this party's piece of its own projection
    /// (`fields_own·dim × out`).
    u_own: Dense,
    /// `V_peer`: this party's piece of the peer's projection.
    v_peer: Dense,
    /// `⟦V_own⟧` under the peer's key.
    enc_v_own: CtMat,
    /// `⟦V_ownᵀ⟧` (`out × fields_own·dim`, `seg = dim`), Party B only:
    /// `∇Z·⟦V_Bᵀ⟧` is then an ordinary `matmul` whose output `lkup_bw`
    /// scatters chunk-wise. A uploads it at init and refreshes it with a
    /// second `delta_vb` frame.
    enc_v_own_t: Option<CtMat>,
    /// `⟦U_peer⟧` under the peer's key — needed because the stage-2
    /// matmul runs over the *peer's* weights with *this* party holding
    /// the peer-embedding share.
    enc_u_peer: CtMat,
    /// `⟦U_peerᵀ⟧` (`out × fields_peer·dim`, `seg = dim`), Party B only:
    /// the homomorphic half of `⟦∇E_A⟧ = ∇Z·⟦U_Aᵀ⟧ + ∇Z·V_Aᵀ`, which B
    /// computes under A's key and HE2SS-splits. A uploads it at init and
    /// refreshes it with a second `delta_ua` frame.
    enc_u_peer_t: Option<CtMat>,
    vel_s: Dense,
    vel_t_peer: Dense,
    vel_u: Dense,
    vel_v_peer: Dense,
    dim: usize,
    out: usize,
    cached_x: Option<CatBlock>,
    /// `ψ_own` — this party's share of its own embeddings.
    cached_psi: Option<Dense>,
    /// `E_peer − ψ_peer` — this party's share of the peer's embeddings.
    cached_e_peer: Option<Dense>,
}

/// Plaintext embedding lookup: `rows × fields·dim`.
pub(crate) fn lookup(table: &Dense, x: &CatBlock) -> Dense {
    let dim = table.cols();
    let mut e = Dense::zeros(x.rows(), x.fields() * dim);
    for r in 0..x.rows() {
        for (f, &g) in x.row(r).iter().enumerate() {
            e.row_mut(r)[f * dim..(f + 1) * dim].copy_from_slice(table.row(g as usize));
        }
    }
    e
}

impl EmbedSource {
    /// Joint initialisation (Figure 7, lines 1–4).
    pub fn init(
        sess: &mut Session,
        vocab_own: usize,
        fields_own: usize,
        dim: usize,
        out: usize,
    ) -> TransportResult<EmbedSource> {
        // Exchange table dimensions.
        sess.ep.send(Msg::U64(vocab_own as u64))?;
        sess.ep.send(Msg::U64(fields_own as u64))?;
        let vocab_peer = sess.ep.recv_u64()? as usize;
        let fields_peer = sess.ep.recv_u64()? as usize;

        let d_own = fields_own * dim;
        let d_peer = fields_peer * dim;
        // The projection multiplies mask-sized embedding shares into
        // packed weight pieces (see `bf_paillier::pack`, the headroom
        // rule). Both parties compute the same answer from shared
        // values, so both refuse before either sends a ciphertext.
        let d = d_own.max(d_peer);
        if sess.packs() && !masked_share_product_fits(d, sess.cfg.he_mask, MAX_PACKED_WEIGHT) {
            return Err(TransportError::Setup(format!(
                "a {d}-row projection of shares masked to {} against packed weight pieces up \
                 to {MAX_PACKED_WEIGHT} can overflow a pack slot",
                sess.cfg.he_mask
            )));
        }
        let s_own = bf_tensor::init::uniform(&mut sess.rng, vocab_own, dim, 0.05);
        let t_peer = random_mask(&mut sess.rng, vocab_peer, dim, 0.025);
        let u_own = bf_tensor::init::xavier(&mut sess.rng, d_own, out);
        let vbound = (6.0 / (d_peer + out) as f64).sqrt() * 0.5;
        let v_peer = random_mask(&mut sess.rng, d_peer, out, vbound);

        // Send our encrypted pieces (⟦T_peer⟧ by field, ⟦V_peer⟧ and
        // ⟦U_own⟧ by row, all under our own key); receive the symmetric
        // three. A adds ⟦V_Bᵀ⟧ and ⟦U_Aᵀ⟧, by field, for B's backward.
        // Each upload is held against the geometry the peer's call lays
        // out.
        sess.ep
            .send(Msg::Ct(sess.encrypt_upload_seg(&t_peer, dim)))?;
        sess.ep.send(Msg::Ct(sess.encrypt_upload(&v_peer)))?;
        sess.ep.send(Msg::Ct(sess.encrypt_upload(&u_own)))?;
        if sess.role == Role::A {
            for w in [&v_peer, &u_own] {
                sess.ep
                    .send(Msg::Ct(sess.encrypt_upload_seg(&w.transpose(), dim)))?;
            }
        }
        let enc_t_own = recv_upload(sess, vocab_own, &peer_upload_like(sess, dim, dim))?;
        let enc_v_own = recv_upload(sess, d_own, &peer_upload_like(sess, out, out))?;
        let enc_u_peer = recv_upload(sess, d_peer, &enc_v_own)?;
        let (enc_v_own_t, enc_u_peer_t) = match sess.role {
            Role::A => (None, None),
            Role::B => {
                let v_own_t = recv_upload(sess, out, &peer_upload_like(sess, d_own, dim))?;
                let u_peer_t = recv_upload(sess, out, &peer_upload_like(sess, d_peer, dim))?;
                (Some(v_own_t), Some(u_peer_t))
            }
        };

        Ok(EmbedSource {
            vel_s: Dense::zeros(vocab_own, dim),
            vel_t_peer: Dense::zeros(vocab_peer, dim),
            vel_u: Dense::zeros(d_own, out),
            vel_v_peer: Dense::zeros(d_peer, out),
            s_own,
            t_peer,
            enc_t_own,
            u_own,
            v_peer,
            enc_v_own,
            enc_v_own_t,
            enc_u_peer,
            enc_u_peer_t,
            dim,
            out,
            cached_x: None,
            cached_psi: None,
            cached_e_peer: None,
        })
    }

    /// This party's `S` table piece (inspection — Figure 11 plots it).
    pub fn s_own(&self) -> &Dense {
        &self.s_own
    }

    /// This party's piece of the peer's table (inspection/tests).
    pub fn t_peer(&self) -> &Dense {
        &self.t_peer
    }

    /// This party's `U` projection piece (inspection/tests).
    pub fn u_own(&self) -> &Dense {
        &self.u_own
    }

    /// This party's piece of the peer's projection (inspection/tests).
    pub fn v_peer(&self) -> &Dense {
        &self.v_peer
    }

    /// Persist the layer state (see `docs/SERVING.md` §persistence):
    /// all four plaintext pieces and their momentum buffers, plus the
    /// ciphertext caches ([`EmbedSource::caches`]). `dim` and `out` are
    /// the spec's; per-batch caches are transient and excluded.
    pub(crate) fn write_state(&self, w: &mut Writer) {
        write_dense(w, &self.s_own);
        write_dense(w, &self.vel_s);
        write_dense(w, &self.t_peer);
        write_dense(w, &self.vel_t_peer);
        write_dense(w, &self.u_own);
        write_dense(w, &self.vel_u);
        write_dense(w, &self.v_peer);
        write_dense(w, &self.vel_v_peer);
        self.caches().for_each(|(ct, _)| write_ctmat(w, ct));
    }

    /// Every ciphertext cache, all under the peer's key, with the
    /// segment width the peer packed it at, in persisted order:
    /// `⟦T_own⟧`, `⟦V_own⟧`, `⟦U_peer⟧`, then Party B's `⟦V_ownᵀ⟧` and
    /// `⟦U_peerᵀ⟧`.
    pub(crate) fn caches(&self) -> impl Iterator<Item = (&CtMat, usize)> {
        let dim = self.dim;
        let transposed = [&self.enc_v_own_t, &self.enc_u_peer_t]
            .into_iter()
            .flatten();
        [
            (&self.enc_t_own, dim),
            (&self.enc_v_own, self.out),
            (&self.enc_u_peer, self.out),
        ]
        .into_iter()
        .chain(transposed.map(move |ct| (ct, dim)))
    }

    /// Rebuild `role`'s half of the layer from persisted state, with
    /// the spec's `dim` and `out`. Both vocabularies and both
    /// projection heights are read off the first tensor that carries
    /// them (`S_own`, `T_peer`, `U_own`, `V_peer`), and every later
    /// tensor must have the shape those fix.
    pub(crate) fn read_state(
        r: &mut Reader,
        role: Role,
        dim: usize,
        out: usize,
    ) -> PersistResult<EmbedSource> {
        let s_own = read_mat(r, "Embed S_own", None, dim)?;
        let vel_s = read_mat(r, "Embed S_own velocity", Some(s_own.rows()), dim)?;
        let t_peer = read_mat(r, "Embed T_peer", None, dim)?;
        let vel_t_peer = read_mat(r, "Embed T_peer velocity", Some(t_peer.rows()), dim)?;
        let u_own = read_mat(r, "Embed U_own", None, out)?;
        let vel_u = read_mat(r, "Embed U_own velocity", Some(u_own.rows()), out)?;
        let v_peer = read_mat(r, "Embed V_peer", None, out)?;
        let vel_v_peer = read_mat(r, "Embed V_peer velocity", Some(v_peer.rows()), out)?;
        let (d_own, d_peer) = (u_own.rows(), v_peer.rows());
        let enc_t_own = read_ct(r, "Embed ⟦T_own⟧", s_own.rows(), dim)?;
        let enc_v_own = read_ct(r, "Embed ⟦V_own⟧", d_own, out)?;
        let enc_u_peer = read_ct(r, "Embed ⟦U_peer⟧", d_peer, out)?;
        let (enc_v_own_t, enc_u_peer_t) = match role {
            Role::A => (None, None),
            Role::B => (
                Some(read_ct(r, "Embed ⟦V_ownᵀ⟧", out, d_own)?),
                Some(read_ct(r, "Embed ⟦U_peerᵀ⟧", out, d_peer)?),
            ),
        };
        Ok(EmbedSource {
            s_own,
            t_peer,
            enc_t_own,
            u_own,
            v_peer,
            enc_v_own,
            enc_v_own_t,
            enc_u_peer,
            enc_u_peer_t,
            vel_s,
            vel_t_peer,
            vel_u,
            vel_v_peer,
            dim,
            out,
            cached_x: None,
            cached_psi: None,
            cached_e_peer: None,
        })
    }

    /// Forward propagation (Figure 7, lines 5–11): returns this party's
    /// share `Z'_⋄ = Z'_{1,⋄} + Z'_{2,⋄}`.
    pub fn forward(
        &mut self,
        sess: &mut Session,
        x: &CatBlock,
        train: bool,
    ) -> TransportResult<Dense> {
        let _t = sess.stages.timer(Stage::FedEmbed);
        // Stage 1 — secret-shared embeddings (lines 5–7): lookup over
        // the encrypted peer piece, HE2SS, add the plaintext piece.
        let lk = sess.peer_pk.lkup(&self.enc_t_own, x);
        let eps = he2ss_holder(
            &sess.ep,
            &sess.peer_pk,
            &lk,
            sess.cfg.he_mask,
            sess.cfg.paillier_mode,
            &mut sess.rng,
        )?;
        // E_peer − ψ_peer: one row per instance, as wide as V_peer is tall.
        let e_peer = he2ss_peer(&sess.ep, &sess.own_sk, x.rows(), self.v_peer.rows())?;
        let psi = eps.add(&lookup(&self.s_own, x)); // ψ_own

        // Stage 2 — two shared matmuls (lines 8–9).
        let z1 = shared_matmul_fw(
            sess,
            &Features::Dense(psi.clone()),
            &self.u_own,
            &self.enc_v_own,
        )?;
        let z2 = shared_matmul_fw(
            sess,
            &Features::Dense(e_peer.clone()),
            &self.v_peer,
            &self.enc_u_peer,
        )?;
        let z_own = z1.add(&z2);

        if train {
            self.cached_x = Some(x.clone());
            self.cached_psi = Some(psi);
            self.cached_e_peer = Some(e_peer);
        }
        Ok(z_own)
    }

    /// Backward propagation, Party B side (Figure 7, lines 12–26).
    pub fn backward_b(&mut self, sess: &mut Session, grad_z: &Dense) -> TransportResult<()> {
        assert_eq!(sess.role, Role::B, "backward_b on Party A");
        let x = self.cached_x.take().expect("backward before forward");
        let psi = self.cached_psi.take().expect("backward before forward");
        let e_peer = self.cached_e_peer.take().expect("backward before forward");
        let (Some(enc_v_own_t), Some(enc_u_peer_t)) =
            (self.enc_v_own_t.as_mut(), self.enc_u_peer_t.as_mut())
        else {
            panic!("Party B's layer holds ⟦V_ownᵀ⟧ and ⟦U_peerᵀ⟧");
        };

        // Line 12: send ⟦∇Z⟧, packed for A's two ψᵀ⟦∇Z⟧ products.
        let ct_gz = {
            let _t = sess.stages.timer(Stage::EncryptUpload);
            sess.encrypt_upload(grad_z)
        };
        sess.ep.send(Msg::Ct(ct_gz))?;
        let mut stage = sess.stages.timer(Stage::FedEmbed);

        // Both ⟦∇E⟧s must use the *forward-pass* weights, so compute them
        // now, before any weight piece or cache is updated below. Each is
        // a plain part plus a homomorphic part under A's key, one
        // ciphertext chunk per field when packed:
        // ⟦∇E_B⟧_A = ∇Z·U_Bᵀ + ∇Z·⟦V_Bᵀ⟧ and ⟦∇E_A⟧_A = ∇Z·V_Aᵀ + ∇Z·⟦U_Aᵀ⟧
        // (V_A is our piece of A's W).
        let grad_e = |enc_wt: &CtMat, w: &Dense| {
            let t = sess
                .peer_pk
                .matmul(&Features::Dense(grad_z.clone()), enc_wt);
            sess.peer_pk.add_plain(&t, &grad_z.matmul_t(w))
        };
        let grad_e_a = grad_e(enc_u_peer_t, &self.v_peer);
        let grad_e_ct = grad_e(enc_v_own_t, &self.u_own);
        stage.switch(Stage::DecryptUpdate);

        // ⟦∇E_A⟧ goes to A, whose table it updates (line 20): HE2SS it,
        // then send ⟦ε⟧ under our key, the SS2HE half that lets A rebuild
        // ⟦∇E_A⟧_B from its decrypted ∇E_A − ε. Both frames ride the
        // reversal ⟦∇Z⟧ opened.
        let eps = he2ss_holder(
            &sess.ep,
            &sess.peer_pk,
            &grad_e_a,
            sess.cfg.he_mask,
            sess.cfg.paillier_mode,
            &mut sess.rng,
        )?;
        sess.ep
            .send(Msg::Ct(sess.encrypt_upload_seg(&eps, self.dim)))?;

        // ∇W_A (lines 13–14): receive A's HE2SS piece, add our local
        // part (E_A − ψ_A)ᵀ∇Z, update V_A, refresh ⟦V_A⟧ at A.
        let d_a = e_peer.cols();
        let piece1 = he2ss_peer(&sess.ep, &sess.own_sk, d_a, self.out)?; // ψ_Aᵀ∇Z − φ
        let own_part = e_peer.t_matmul(grad_z);
        let piece_wa = piece1.add(&own_part); // ∇W_A − φ
        let delta = step_projection(sess, &mut self.v_peer, &mut self.vel_v_peer, &piece_wa)?;
        sess.ep.send(Msg::Ct(sess.encrypt_upload(&delta)))?;

        // ∇W_B (lines 15–16): A supplies ⟨(E_B−ψ_B)ᵀ∇Z − ξ⟩; we add
        // ψ_Bᵀ∇Z, update U_B, refresh ⟦U_B⟧ at A.
        let piece2 = he2ss_peer(&sess.ep, &sess.own_sk, psi.cols(), self.out)?;
        let piece_wb = piece2.add(&psi.t_matmul(grad_z)); // ∇W_B − ξ
        let delta = step_projection(sess, &mut self.u_own, &mut self.vel_u, &piece_wb)?;
        sess.ep.send(Msg::Ct(sess.encrypt_upload(&delta)))?;

        // A's refreshes of our caches: ⟦V_B⟧ and ⟦V_Bᵀ⟧ (A updated V_B
        // by ξ), then ⟦U_A⟧ and ⟦U_Aᵀ⟧ (A updated U_A by φ).
        recv_refresh(sess, &mut self.enc_v_own, &all_rows(psi.cols()))?;
        recv_refresh(sess, enc_v_own_t, &all_rows(self.out))?;
        recv_refresh(sess, &mut self.enc_u_peer, &all_rows(d_a))?;
        recv_refresh(sess, enc_u_peer_t, &all_rows(self.out))?;

        // Embed part, own table (lines 21–26, B's half), using the
        // pre-update ⟦∇E_B⟧ computed above.
        let support_b = x.support();
        stage.switch(Stage::FedEmbed);
        let grad_q_ct = sess.peer_pk.lkup_bw(&grad_e_ct, &x, &support_b, self.dim);
        stage.switch(Stage::DecryptUpdate);
        sess.ep.send(Msg::Support(support_b.clone()))?;
        let rho = he2ss_holder(
            &sess.ep,
            &sess.peer_pk,
            &grad_q_ct,
            sess.cfg.he_mask,
            sess.cfg.paillier_mode,
            &mut sess.rng,
        )?;
        // Update S_B by ρ_B (lazy momentum on the support rows).
        let rows: Vec<usize> = support_b.iter().map(|&c| c as usize).collect();
        let _ = step_piece(
            &mut self.s_own,
            &mut self.vel_s,
            &rho,
            &rows,
            sess.cfg.lr,
            sess.cfg.momentum,
        );
        // A updates T_B and sends the encrypted delta for our ⟦T_B⟧.
        recv_refresh(sess, &mut self.enc_t_own, &rows)?;

        // Embed part, peer table: we hold T_A — receive A's support and
        // the HE2SS piece of ∇Q_A, update T_A, refresh A's ⟦T_A⟧.
        let support_a = sess.ep.recv_support()?;
        let rows_a: Vec<usize> = support_a.iter().map(|&c| c as usize).collect();
        let piece_qa = he2ss_peer(&sess.ep, &sess.own_sk, rows_a.len(), self.dim)?; // ∇Q_A − ρ_A
        let delta = step_piece(
            &mut self.t_peer,
            &mut self.vel_t_peer,
            &piece_qa,
            &rows_a,
            sess.cfg.lr,
            sess.cfg.momentum,
        );
        sess.ep
            .send(Msg::Ct(sess.encrypt_upload_seg(&delta, self.dim)))?;
        Ok(())
    }

    /// Backward propagation, Party A side (Figure 7, lines 12–26).
    pub fn backward_a(&mut self, sess: &mut Session) -> TransportResult<()> {
        assert_eq!(sess.role, Role::A, "backward_a on Party B");
        let mut stage = sess.stages.timer(Stage::DecryptUpdate);
        let x = self.cached_x.take().expect("backward before forward");
        let psi = self.cached_psi.take().expect("backward before forward");
        let e_peer = self.cached_e_peer.take().expect("backward before forward");

        // B's ⟦∇Z⟧, held against the geometry B lays it out in: like the
        // ⟦V_A⟧ cache (same key, same width).
        let (rows, d_a) = (x.rows(), psi.cols());
        let ct_gz = recv_upload(sess, rows, &self.enc_v_own)?;

        // ∇W_A (line 13): ⟦ψ_Aᵀ∇Z⟧ on the full projection rows, HE2SS.
        stage.switch(Stage::FedEmbed);
        let full_a: Vec<u32> = (0..d_a as u32).collect();
        let prod = sess
            .peer_pk
            .t_matmul_support(&Features::Dense(psi), &ct_gz, &full_a);
        stage.switch(Stage::DecryptUpdate);
        let phi = he2ss_holder(
            &sess.ep,
            &sess.peer_pk,
            &prod,
            sess.cfg.he_mask,
            sess.cfg.paillier_mode,
            &mut sess.rng,
        )?;
        // Update U_A by φ and remember the delta for B's ⟦U_A⟧ cache.
        let delta_ua = step_projection(sess, &mut self.u_own, &mut self.vel_u, &phi)?;

        // ∇W_B (line 15): ⟦(E_B−ψ_B)ᵀ∇Z⟧, HE2SS; update V_B by ξ.
        let d_b = e_peer.cols();
        let full_b: Vec<u32> = (0..d_b as u32).collect();
        stage.switch(Stage::FedEmbed);
        let prod = sess
            .peer_pk
            .t_matmul_support(&Features::Dense(e_peer), &ct_gz, &full_b);
        stage.switch(Stage::DecryptUpdate);
        let xi = he2ss_holder(
            &sess.ep,
            &sess.peer_pk,
            &prod,
            sess.cfg.he_mask,
            sess.cfg.paillier_mode,
            &mut sess.rng,
        )?;
        let delta_vb = step_projection(sess, &mut self.v_peer, &mut self.vel_v_peer, &xi)?;

        // ⟦∇E_A⟧ (line 20), which B computed on the forward-pass weights
        // and HE2SS-split: decrypt our piece ∇E_A − ε and add it to B's
        // ⟦ε⟧, giving ⟦∇E_A⟧ under B's key in the layout `lkup_bw`
        // scatters (seg = dim).
        let piece_ea = he2ss_peer(&sess.ep, &sess.own_sk, rows, d_a)?;
        let enc_eps = recv_upload(sess, rows, &peer_upload_like(sess, d_a, self.dim))?;
        let grad_e_ct = sess.peer_pk.add_plain(&enc_eps, &piece_ea);

        // Receive B's refreshes for our caches (⟦V_A⟧ then ⟦U_B⟧)...
        recv_refresh(sess, &mut self.enc_v_own, &all_rows(d_a))?;
        recv_refresh(sess, &mut self.enc_u_peer, &all_rows(d_b))?;
        // ...and send ours: ⟦V_B⟧, then ⟦U_A⟧, each in both of B's
        // layouts.
        for delta in [&delta_vb, &delta_ua] {
            sess.ep.send(Msg::Ct(sess.encrypt_upload(delta)))?;
            sess.ep.send(Msg::Ct(
                sess.encrypt_upload_seg(&delta.transpose(), self.dim),
            ))?;
        }

        // Embed part, peer table (B's table): receive support + piece,
        // update T_B, refresh B's ⟦T_B⟧.
        let support_b = sess.ep.recv_support()?;
        let rows: Vec<usize> = support_b.iter().map(|&c| c as usize).collect();
        let piece_qb = he2ss_peer(&sess.ep, &sess.own_sk, rows.len(), self.dim)?; // ∇Q_B − ρ_B
        let delta = step_piece(
            &mut self.t_peer,
            &mut self.vel_t_peer,
            &piece_qb,
            &rows,
            sess.cfg.lr,
            sess.cfg.momentum,
        );
        sess.ep
            .send(Msg::Ct(sess.encrypt_upload_seg(&delta, self.dim)))?;

        // Embed part, own table (line 21 for A), using the pre-update
        // ⟦∇E_A⟧ rebuilt above.
        let support_a = x.support();
        stage.switch(Stage::FedEmbed);
        let grad_q_ct = sess.peer_pk.lkup_bw(&grad_e_ct, &x, &support_a, self.dim);
        stage.switch(Stage::DecryptUpdate);
        sess.ep.send(Msg::Support(support_a.clone()))?;
        let rho = he2ss_holder(
            &sess.ep,
            &sess.peer_pk,
            &grad_q_ct,
            sess.cfg.he_mask,
            sess.cfg.paillier_mode,
            &mut sess.rng,
        )?;
        let rows: Vec<usize> = support_a.iter().map(|&c| c as usize).collect();
        let _ = step_piece(
            &mut self.s_own,
            &mut self.vel_s,
            &rho,
            &rows,
            sess.cfg.lr,
            sess.cfg.momentum,
        );
        // B updates T_A and refreshes our ⟦T_A⟧.
        recv_refresh(sess, &mut self.enc_t_own, &rows)
    }
}

fn all_rows(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// [`step_piece`] on every row of a projection weight piece, refused
/// once the piece leaves the envelope of its packed copy. The peer
/// multiplies mask-sized embedding shares into `⟦piece⟧`, one term per
/// row, and `init` sized that slot arithmetic for `|w| ≤
/// MAX_PACKED_WEIGHT`; pieces random-walk with every masked gradient
/// step, so each step holds the piece it produced to the same rule,
/// [`masked_share_product_fits`], at its own width and magnitude. The
/// error comes before the delta ships, so no packed product ever runs on
/// a piece that could carry into a neighbouring slot. Scalar and Plain
/// sessions have no slots to overflow.
fn step_projection(
    sess: &Session,
    piece: &mut Dense,
    vel: &mut Dense,
    grad: &Dense,
) -> TransportResult<Dense> {
    let (d, mask) = (piece.rows(), sess.cfg.he_mask);
    let delta = step_piece(
        piece,
        vel,
        grad,
        &all_rows(d),
        sess.cfg.lr,
        sess.cfg.momentum,
    );
    let w = piece.max_abs();
    if sess.packs() && !masked_share_product_fits(d, mask, w) {
        return Err(TransportError::Setup(format!(
            "a {d}-row projection weight piece reached |w| = {w:e}, past the packed \
             envelope for shares masked to {mask}: the next masked-share product could \
             carry into a neighbouring slot"
        )));
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FedConfig;
    use crate::session::run_pair;
    use crate::source::matmul::{aggregate_a, aggregate_b};
    use bf_ml::layers::Embedding;
    use bf_ml::Sgd;
    use rand::Rng;
    use rand::SeedableRng;

    fn cat_block(rows: usize, vocabs: &[u32], seed: u64) -> CatBlock {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let local: Vec<u32> = (0..rows * vocabs.len())
            .map(|i| rng.random_range(0..vocabs[i % vocabs.len()]))
            .collect();
        CatBlock::from_local(rows, vocabs, local)
    }

    fn roundtrip(
        cfg: &FedConfig,
        x_a: CatBlock,
        x_b: CatBlock,
        dim: usize,
        out: usize,
        grad_z: Option<Dense>,
        steps: usize,
    ) -> (EmbedSource, EmbedSource, Dense) {
        let gz_a = grad_z.clone();
        let xa2 = x_a.clone();
        let xb2 = x_b.clone();
        let (a, (b, z)) = run_pair(
            cfg,
            123,
            move |mut sess| {
                let mut layer =
                    EmbedSource::init(&mut sess, xa2.vocab(), xa2.fields(), dim, out).unwrap();
                for _ in 0..steps {
                    let z = layer.forward(&mut sess, &xa2, gz_a.is_some()).unwrap();
                    aggregate_a(&sess, z).unwrap();
                    if gz_a.is_some() {
                        layer.backward_a(&mut sess).unwrap();
                    }
                }
                let z = layer.forward(&mut sess, &xa2, false).unwrap();
                aggregate_a(&sess, z).unwrap();
                layer
            },
            move |mut sess| {
                let mut layer =
                    EmbedSource::init(&mut sess, xb2.vocab(), xb2.fields(), dim, out).unwrap();
                for _ in 0..steps {
                    let z_own = layer.forward(&mut sess, &xb2, grad_z.is_some()).unwrap();
                    let _ = aggregate_b(&sess, z_own).unwrap();
                    if let Some(g) = &grad_z {
                        layer.backward_b(&mut sess, g).unwrap();
                    }
                }
                let z_own = layer.forward(&mut sess, &xb2, false).unwrap();
                let z = aggregate_b(&sess, z_own).unwrap();
                (layer, z)
            },
        );
        (a, b, z)
    }

    /// Reference: plaintext embedding + matmul on the reconstructed
    /// tables/weights.
    fn reference_z(a: &EmbedSource, b: &EmbedSource, x_a: &CatBlock, x_b: &CatBlock) -> Dense {
        let q_a = a.s_own().add(b.t_peer());
        let q_b = b.s_own().add(a.t_peer());
        let w_a = a.u_own().add(b.v_peer());
        let w_b = b.u_own().add(a.v_peer());
        let e_a = lookup(&q_a, x_a);
        let e_b = lookup(&q_b, x_b);
        e_a.matmul(&w_a).add(&e_b.matmul(&w_b))
    }

    #[test]
    fn forward_is_lossless_paillier() {
        let cfg = FedConfig::paillier_test();
        let x_a = cat_block(3, &[4, 3], 1);
        let x_b = cat_block(3, &[5], 2);
        let (a, b, z) = roundtrip(&cfg, x_a.clone(), x_b.clone(), 2, 2, None, 1);
        let want = reference_z(&a, &b, &x_a, &x_b);
        assert!(
            z.approx_eq(&want, 1e-3),
            "max err {}",
            z.sub(&want).max_abs()
        );
    }

    #[test]
    fn forward_is_lossless_plain() {
        let cfg = FedConfig::plain();
        let x_a = cat_block(4, &[6, 4], 3);
        let x_b = cat_block(4, &[8, 3], 4);
        let (a, b, z) = roundtrip(&cfg, x_a.clone(), x_b.clone(), 3, 2, None, 1);
        let want = reference_z(&a, &b, &x_a, &x_b);
        assert!(
            z.approx_eq(&want, 1e-4),
            "max err {}",
            z.sub(&want).max_abs()
        );
    }

    #[test]
    fn init_refuses_a_mask_the_packed_projection_cannot_carry() {
        // d = max(2 fields · 2, 1 field · 2) = 4 projection rows: the
        // slot bound d·m·w_max + m = 2^39 sits at m = 2^39 / (4·w_max + 1).
        let init = |cfg: FedConfig| {
            run_pair(
                &cfg,
                5,
                |mut sess| EmbedSource::init(&mut sess, 7, 2, 2, 2).map(drop),
                |mut sess| EmbedSource::init(&mut sess, 5, 1, 2, 2).map(drop),
            )
        };
        let with_mask = |cfg: FedConfig, he_mask: f64| FedConfig { he_mask, ..cfg };
        let edge = 2.0 * bf_paillier::MAX_HE_MASK / (4.0 * MAX_PACKED_WEIGHT + 1.0);
        let (a, b) = init(with_mask(FedConfig::paillier_test(), edge * (1.0 - 1e-12)));
        assert!(a.is_ok() && b.is_ok());
        let past = edge * (1.0 + 1e-12);
        let (a, b) = init(with_mask(FedConfig::paillier_test(), past));
        for r in [a, b] {
            assert!(matches!(r, Err(TransportError::Setup(_))), "{r:?}");
        }
        // No slots, no envelope: scalar and Plain sessions take the mask.
        let scalar =
            FedConfig::paillier_test().with_paillier_mode(bf_paillier::PaillierMode::Scalar);
        for cfg in [scalar, FedConfig::plain()] {
            let (a, b) = init(with_mask(cfg, past));
            assert!(a.is_ok() && b.is_ok());
        }
    }

    #[test]
    fn a_projection_piece_past_the_packed_envelope_is_refused() {
        // paillier_test masks shares to 100, so A's 4-row U_A carries at
        // |w| ≈ 2^39 / (4 · 100) ≈ 1.4e9. One backward step moves every
        // projection piece by ≈ lr · a mask-sized piece. A steps U_A
        // right after its first HE2SS reply, before it waits on B, so its
        // error is the check's; B's is the check's or A's hang-up.
        let step = |cfg: FedConfig, lr: f64| {
            let (x_a, x_b) = (cat_block(3, &[4, 3], 1), cat_block(3, &[5], 2));
            let grad_z = Dense::from_vec(3, 2, vec![0.5, -0.25, 1.0, 0.75, -1.0, 0.1]);
            run_pair(
                &cfg.with_lr(lr),
                9,
                move |mut sess| {
                    let mut layer = EmbedSource::init(&mut sess, 7, 2, 2, 2)?;
                    let z = layer.forward(&mut sess, &x_a, true)?;
                    aggregate_a(&sess, z)?;
                    layer.backward_a(&mut sess)
                },
                move |mut sess| {
                    let mut layer = EmbedSource::init(&mut sess, 5, 1, 2, 2)?;
                    let z = layer.forward(&mut sess, &x_b, true)?;
                    aggregate_b(&sess, z)?;
                    layer.backward_b(&mut sess, &grad_z)
                },
            )
        };
        let (a, b) = step(FedConfig::paillier_test(), 1e9);
        assert!(
            matches!(&a, Err(TransportError::Setup(why)) if why.contains("packed envelope")),
            "{a:?}"
        );
        assert!(b.is_err());
        // Pieces of ≈ 1e8, far past MAX_PACKED_WEIGHT but inside this
        // width's slot, step on.
        let (a, b) = step(FedConfig::paillier_test(), 1e6);
        assert!(a.is_ok() && b.is_ok(), "{a:?} {b:?}");
        // No slots, no envelope: a Plain session takes the large step.
        let (a, b) = step(FedConfig::plain(), 1e9);
        assert!(a.is_ok() && b.is_ok(), "{a:?} {b:?}");
    }

    // ---- uploads a misbehaving peer spoils ----

    const DIM: usize = 2;
    const OUT: usize = 2;

    /// Whose key a frame is under: the sender's own (an upload or a
    /// refresh), the receiver's (an HE2SS reply), or none at all (a
    /// Plain body, a key geometry no Paillier session has).
    #[derive(Clone, Copy)]
    enum Key {
        Own,
        Peer,
        Plain,
    }

    /// One frame as its sender lays it out: `rows × cols` packed in
    /// `seg`-wide segments under the session's mode, or one value per
    /// ciphertext at `scale` when `seg` is 0, under `key`. The values do
    /// not matter.
    #[derive(Clone)]
    struct Upload {
        rows: usize,
        cols: usize,
        seg: usize,
        scale: u8,
        key: Key,
    }

    impl Upload {
        fn packed(rows: usize, cols: usize, seg: usize) -> Upload {
            Upload {
                rows,
                cols,
                seg,
                scale: 1,
                key: Key::Own,
            }
        }

        fn under(self, key: Key) -> Upload {
            Upload { key, ..self }
        }

        fn encrypt(&self, sess: &Session) -> CtMat {
            let m = Dense::zeros(self.rows, self.cols);
            let plain = bf_paillier::keys::plain_keys(sess.cfg.frac_bits).0;
            let pk = match self.key {
                Key::Own => &sess.own_pk,
                Key::Peer => &sess.peer_pk,
                Key::Plain => &plain,
            };
            let obf = bf_paillier::Obfuscator::new(pk, bf_paillier::ObfMode::Pool(2), 0);
            match self.seg {
                0 => pk.encrypt_at_scale(&m, self.scale, &obf),
                seg => pk.encrypt_mode_seg(&m, seg, sess.cfg.paillier_mode, &obf),
            }
        }

        /// `spoil`: 0 one more segment of width, 1 the other lane
        /// layout, 2 one row too many, 3 the other scale, 4 a Plain
        /// body; `None` as laid out.
        fn spoiled(&self, spoil: Option<usize>) -> Upload {
            let up = self.clone();
            match spoil {
                None => up,
                Some(0) => Upload {
                    cols: up.cols + up.seg.max(1),
                    ..up
                },
                Some(1) if up.seg == 0 => Upload {
                    seg: up.cols,
                    scale: 1,
                    ..up
                },
                Some(1) => Upload {
                    seg: 0,
                    scale: 1,
                    ..up
                },
                Some(2) => Upload {
                    rows: up.rows + 1,
                    ..up
                },
                Some(3) => Upload {
                    seg: 0,
                    scale: 3 - up.scale,
                    ..up
                },
                Some(_) => up.under(Key::Plain),
            }
        }
    }

    /// Send `uploads`, the `site`-th spoiled as `spoil` says. A victim
    /// that refuses one hangs up, so the rest may not land.
    fn ship(sess: &Session, uploads: &[Upload], site: usize, spoil: Option<usize>) {
        for (i, up) in uploads.iter().enumerate() {
            let up = if i == site {
                up.spoiled(spoil)
            } else {
                up.clone()
            };
            let _ = sess.ep.send(Msg::Ct(up.encrypt(sess)));
        }
    }

    /// `victim`'s `EmbedSource::init` (5-word vocabulary, two fields)
    /// against a peer (4 words, one field) that plays its half by hand.
    fn init_against(victim: Role, site: usize, spoil: Option<usize>) -> TransportResult<()> {
        let (vocab, d_own, d_peer) = (5, 2 * DIM, DIM);
        let mut uploads = vec![
            Upload::packed(vocab, DIM, DIM),
            Upload::packed(d_own, OUT, OUT),
            Upload::packed(d_peer, OUT, OUT),
        ];
        if victim == Role::B {
            uploads.push(Upload::packed(OUT, d_own, DIM));
            uploads.push(Upload::packed(OUT, d_peer, DIM));
        }
        let real =
            move |mut sess: Session| EmbedSource::init(&mut sess, vocab, 2, DIM, OUT).map(drop);
        let fake = move |sess: Session| {
            sess.ep.send(Msg::U64(4)).unwrap();
            sess.ep.send(Msg::U64(1)).unwrap();
            assert_eq!(sess.ep.recv_u64().unwrap(), vocab as u64);
            assert_eq!(sess.ep.recv_u64().unwrap(), 2);
            ship(&sess, &uploads, site, spoil);
            // Stay until the victim's own uploads are out, so its sends
            // never meet a closed link.
            let theirs = if victim == Role::A { 5 } else { 3 };
            for _ in 0..theirs {
                let _ = sess.ep.recv_ct();
            }
        };
        let cfg = FedConfig::paillier_test();
        match victim {
            Role::A => run_pair(&cfg, 5, real, fake).0,
            Role::B => run_pair(&cfg, 5, fake, real).1,
        }
    }

    /// The two halves of a layer after the genuine init and a training
    /// forward over a 3-row batch, each on its own session.
    fn forward_pair(
        a: impl FnOnce(Session, EmbedSource) -> TransportResult<()> + Send + 'static,
        b: impl FnOnce(Session, EmbedSource) -> TransportResult<()>,
    ) -> (TransportResult<()>, TransportResult<()>) {
        let (x_a, x_b) = (cat_block(3, &[4, 3], 1), cat_block(3, &[5], 2));
        run_pair(
            &FedConfig::paillier_test(),
            5,
            move |mut sess| {
                let mut layer =
                    EmbedSource::init(&mut sess, x_a.vocab(), x_a.fields(), DIM, OUT).unwrap();
                let z = layer.forward(&mut sess, &x_a, true).unwrap();
                aggregate_a(&sess, z).unwrap();
                a(sess, layer)
            },
            move |mut sess| {
                let mut layer =
                    EmbedSource::init(&mut sess, x_b.vocab(), x_b.fields(), DIM, OUT).unwrap();
                let z = layer.forward(&mut sess, &x_b, true).unwrap();
                aggregate_b(&sess, z).unwrap();
                b(sess, layer)
            },
        )
    }

    /// Party A's `backward_a` against a Party B that ships the frames of
    /// its backward reversal by hand — `⟦∇Z⟧`, the HE2SS reply
    /// `⟦∇E_A − ε⟧` under A's key, `⟦ε⟧` — and hangs up once A's `φ` and
    /// `ξ` replies are in, so A's sends never meet a closed link.
    fn backward_against(site: usize, spoil: Option<usize>) -> TransportResult<()> {
        forward_pair(
            |mut sess, mut layer| layer.backward_a(&mut sess),
            move |sess, layer| {
                let d_a = layer.v_peer().rows();
                let uploads = [
                    Upload::packed(3, OUT, OUT),
                    Upload::packed(3, d_a, DIM).under(Key::Peer),
                    Upload::packed(3, d_a, DIM),
                ];
                ship(&sess, &uploads, site, spoil);
                for _ in 0..2 {
                    let _ = sess.ep.recv_ct();
                }
                Ok(())
            },
        )
        .0
    }

    /// Party B's `backward_b` against a Party A that answers B's frames
    /// by hand — the `φ` and `ξ` replies under B's key, then its four
    /// refreshes (`ΔV_B`, `ΔV_Bᵀ`, `ΔU_A`, `ΔU_Aᵀ`) — and hangs up.
    fn refresh_against(site: usize, spoil: Option<usize>) -> TransportResult<()> {
        let grad_z = Dense::zeros(3, OUT);
        forward_pair(
            move |sess, layer| {
                let (d_a, d_b) = (layer.u_own().rows(), layer.v_peer().rows());
                for _ in 0..3 {
                    sess.ep.recv_ct()?; // ⟦∇Z⟧, ⟦∇E_A − ε⟧, ⟦ε⟧
                }
                let replies = [
                    Upload::packed(d_a, OUT, OUT).under(Key::Peer),
                    Upload::packed(d_b, OUT, OUT).under(Key::Peer),
                ];
                ship(&sess, &replies, usize::MAX, None);
                for _ in 0..2 {
                    sess.ep.recv_ct()?; // ΔV_A, ΔU_B
                }
                let refreshes = [
                    Upload::packed(d_b, OUT, OUT),
                    Upload::packed(OUT, d_b, DIM),
                    Upload::packed(d_a, OUT, OUT),
                    Upload::packed(OUT, d_a, DIM),
                ];
                ship(&sess, &refreshes, site, spoil);
                Ok(())
            },
            move |mut sess, mut layer| layer.backward_b(&mut sess, &grad_z),
        )
        .1
    }

    fn malformed(r: &TransportResult<()>) -> bool {
        matches!(
            r,
            Err(TransportError::Wire(bf_mpc::wire::WireError::Malformed(_)))
        )
    }

    /// Every spoiled upload is a malformed payload, refused before a
    /// kernel sees it; the honest one gets past.
    fn assert_refused(run: impl Fn(Option<usize>) -> TransportResult<()>) {
        let honest = run(None);
        assert!(!malformed(&honest), "honest upload refused: {honest:?}");
        for spoil in 0..4 {
            let got = run(Some(spoil));
            assert!(malformed(&got), "spoil {spoil}: {got:?}");
        }
    }

    #[test]
    fn init_refuses_a_misshapen_table_cache() {
        for victim in [Role::A, Role::B] {
            assert_refused(|spoil| init_against(victim, 0, spoil));
        }
    }

    #[test]
    fn init_refuses_a_misshapen_own_projection_cache() {
        for victim in [Role::A, Role::B] {
            assert_refused(|spoil| init_against(victim, 1, spoil));
        }
    }

    #[test]
    fn init_refuses_a_misshapen_peer_projection_cache() {
        for victim in [Role::A, Role::B] {
            assert_refused(|spoil| init_against(victim, 2, spoil));
        }
    }

    #[test]
    fn init_refuses_a_misshapen_transposed_projection_cache() {
        assert_refused(|spoil| init_against(Role::B, 3, spoil));
    }

    #[test]
    fn init_refuses_a_misshapen_transposed_peer_projection_cache() {
        assert_refused(|spoil| init_against(Role::B, 4, spoil));
    }

    #[test]
    fn backward_a_refuses_a_misshapen_packed_gradient() {
        assert_refused(|spoil| backward_against(0, spoil));
    }

    #[test]
    fn backward_a_refuses_a_misshapen_embedding_gradient_reply() {
        // An HE2SS reply is decrypted, not added to a cache: a wrong
        // element count (spoils 0, 2) or a body under no key of A's
        // (4) is refused; the other lane layout or scale (1, 3) decodes
        // to the same values, as every HE2SS reply does.
        for spoil in [0, 2, 4] {
            let got = backward_against(1, Some(spoil));
            assert!(malformed(&got), "spoil {spoil}: {got:?}");
        }
        for spoil in [None, Some(1), Some(3)] {
            let got = backward_against(1, spoil);
            assert!(!malformed(&got), "spoil {spoil:?}: {got:?}");
        }
    }

    #[test]
    fn backward_a_refuses_a_misshapen_embedding_gradient_mask() {
        assert_refused(|spoil| backward_against(2, spoil));
    }

    #[test]
    fn backward_b_refuses_a_misshapen_transposed_peer_projection_refresh() {
        assert_refused(|spoil| refresh_against(3, spoil));
    }

    #[test]
    fn party_a_piece_of_its_embedding_gradient_is_at_chance() {
        // What A decrypts of ⟦∇E_A⟧ is ∇E_A − ε: over 64 rows × 16
        // columns (1,024 elements) its Pearson correlation with the
        // ∇Z·W_Aᵀ it hides stays within 4/√n of zero.
        let (rows, fields_a, dim) = (64, 4, 4);
        let x_a = cat_block(rows, &[9; 4], 11);
        let x_b = cat_block(rows, &[7], 12);
        let grad_z = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(13);
            bf_tensor::init::uniform(&mut rng, rows, OUT, 0.5)
        };
        let gz = grad_z.clone();
        let ((piece, u_a), v_a) = run_pair(
            &FedConfig::paillier_test(),
            17,
            move |mut sess| {
                let mut layer =
                    EmbedSource::init(&mut sess, x_a.vocab(), x_a.fields(), dim, OUT).unwrap();
                let z = layer.forward(&mut sess, &x_a, true).unwrap();
                aggregate_a(&sess, z).unwrap();
                sess.ep.recv_ct().unwrap(); // ⟦∇Z⟧
                let d_a = fields_a * dim;
                let piece = he2ss_peer(&sess.ep, &sess.own_sk, rows, d_a).unwrap();
                (piece, layer.u_own().clone())
            },
            move |mut sess| {
                let mut layer =
                    EmbedSource::init(&mut sess, x_b.vocab(), x_b.fields(), dim, OUT).unwrap();
                let z = layer.forward(&mut sess, &x_b, true).unwrap();
                aggregate_b(&sess, z).unwrap();
                let v_a = layer.v_peer().clone();
                // A hangs up after the reply; the rest of B's pass fails.
                let _ = layer.backward_b(&mut sess, &gz);
                v_a
            },
        );
        let grad_e = grad_z.matmul_t(&u_a.add(&v_a));
        let n = grad_e.data().len();
        assert!(n >= 1024);
        let r = bf_util::stats::pearson(piece.data(), grad_e.data());
        assert!(r.abs() < 4.0 / (n as f64).sqrt(), "|r| = {}", r.abs());
    }

    #[test]
    fn backward_keeps_shares_synchronized() {
        // After training steps, a fresh forward must equal the
        // plaintext forward on the reconstructed parameters — i.e. all
        // six ciphertext caches track their plaintext twins.
        let cfg = FedConfig::paillier_test();
        let x_a = cat_block(3, &[4], 5);
        let x_b = cat_block(3, &[3, 3], 6);
        let grad_z = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            bf_tensor::init::uniform(&mut rng, 3, 2, 0.1)
        };
        let (a, b, z) = roundtrip(&cfg, x_a.clone(), x_b.clone(), 2, 2, Some(grad_z), 3);
        let want = reference_z(&a, &b, &x_a, &x_b);
        assert!(
            z.approx_eq(&want, 1e-2),
            "max err {}",
            z.sub(&want).max_abs()
        );
    }

    #[test]
    fn backward_matches_plaintext_embedding_update() {
        // One federated step equals plaintext Embedding/LinearF updates
        // on the reconstructed parameters (Party A's table and weights).
        let cfg = FedConfig::plain();
        let x_a = cat_block(4, &[5, 3], 8);
        let x_b = cat_block(4, &[4], 9);
        let grad_z = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(10);
            bf_tensor::init::uniform(&mut rng, 4, 2, 0.2)
        };

        let (a0, b0, _) = roundtrip(&cfg, x_a.clone(), x_b.clone(), 2, 2, None, 1);
        let (a1, b1, _) = roundtrip(
            &cfg,
            x_a.clone(),
            x_b.clone(),
            2,
            2,
            Some(grad_z.clone()),
            1,
        );

        let q_a0 = a0.s_own().add(b0.t_peer());
        let w_a0 = a0.u_own().add(b0.v_peer());
        let opt = Sgd {
            lr: cfg.lr,
            momentum: cfg.momentum,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut emb = Embedding::new(&mut rng, q_a0.rows(), 2);
        emb.table = q_a0.clone();
        let e_a = emb.forward(&x_a);
        let grad_e = grad_z.matmul_t(&w_a0); // ∇E_A = ∇Z · W_Aᵀ
        emb.backward(&grad_e);
        emb.step(&opt);
        let mut lin = bf_ml::layers::LinearF::from_weights(w_a0.clone());
        lin.forward(&Features::Dense(e_a));
        lin.backward(&grad_z);
        lin.step(&opt);

        let q_a1 = a1.s_own().add(b1.t_peer());
        let w_a1 = a1.u_own().add(b1.v_peer());
        assert!(
            q_a1.approx_eq(&emb.table, 1e-6),
            "Q_A err {}",
            q_a1.sub(&emb.table).max_abs()
        );
        assert!(
            w_a1.approx_eq(&lin.w, 1e-6),
            "W_A err {}",
            w_a1.sub(&lin.w).max_abs()
        );
    }
}
