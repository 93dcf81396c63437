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
//! weight caches, their deltas and one copy of `⟦∇Z⟧` are packed a row
//! to a segment; the tables, and Party B's second cache `⟦V_Bᵀ⟧`, by
//! field (`seg = dim`); `matmul_ct_wt` sums over the columns of `⟦∇Z⟧`
//! — the axis slots run along — so its operand and what is added to its
//! output are the one pair that stays scalar. The table of operands,
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
use crate::session::{Role, Session};
use crate::source::matmul::shared_matmul_fw;
use crate::source::{recv_refresh, step_piece};

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
        if sess.packs() && !masked_share_product_fits(d, sess.cfg.he_mask) {
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
        // three. A adds ⟦V_Bᵀ⟧, by field, for B's backward.
        sess.ep
            .send(Msg::Ct(sess.encrypt_upload_seg(&t_peer, dim)))?;
        sess.ep.send(Msg::Ct(sess.encrypt_upload(&v_peer)))?;
        sess.ep.send(Msg::Ct(sess.encrypt_upload(&u_own)))?;
        if sess.role == Role::A {
            sess.ep
                .send(Msg::Ct(sess.encrypt_upload_seg(&v_peer.transpose(), dim)))?;
        }
        let enc_t_own = sess.ep.recv_ct()?;
        let enc_v_own = sess.ep.recv_ct()?;
        let enc_u_peer = sess.ep.recv_ct()?;
        let enc_v_own_t = match sess.role {
            Role::A => None,
            Role::B => Some(sess.ep.recv_ct()?),
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
            dim,
            out,
            cached_x: None,
            cached_psi: None,
            cached_e_peer: None,
        })
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out
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
    /// ciphertext caches (`⟦T_own⟧`, `⟦V_own⟧`, `⟦U_peer⟧`, and Party
    /// B's `⟦V_ownᵀ⟧`). Per-batch caches are transient and excluded.
    pub(crate) fn write_state(&self, w: &mut crate::persist::Writer) {
        w.u64(self.dim as u64);
        w.u64(self.out as u64);
        w.dense(&self.s_own);
        w.dense(&self.vel_s);
        w.dense(&self.t_peer);
        w.dense(&self.vel_t_peer);
        w.dense(&self.u_own);
        w.dense(&self.vel_u);
        w.dense(&self.v_peer);
        w.dense(&self.vel_v_peer);
        w.ctmat(&self.enc_t_own);
        w.ctmat(&self.enc_v_own);
        w.ctmat(&self.enc_u_peer);
        if let Some(ct) = &self.enc_v_own_t {
            w.ctmat(ct);
        }
    }

    /// Rebuild `role`'s half of the layer from persisted state,
    /// validating shapes.
    pub(crate) fn read_state(
        r: &mut crate::persist::Reader,
        role: Role,
    ) -> crate::persist::PersistResult<EmbedSource> {
        use crate::persist::{check_vel, PersistError};
        let dim = r.len_u64()?;
        let out = r.len_u64()?;
        let s_own = r.dense()?;
        let vel_s = r.dense()?;
        let t_peer = r.dense()?;
        let vel_t_peer = r.dense()?;
        let u_own = r.dense()?;
        let vel_u = r.dense()?;
        let v_peer = r.dense()?;
        let vel_v_peer = r.dense()?;
        let enc_t_own = r.ctmat()?;
        let enc_v_own = r.ctmat()?;
        let enc_u_peer = r.ctmat()?;
        let enc_v_own_t = match role {
            Role::A => None,
            Role::B => Some(r.ctmat()?),
        };
        check_vel(&s_own, &vel_s, "EmbedSource S")?;
        check_vel(&t_peer, &vel_t_peer, "EmbedSource T")?;
        check_vel(&u_own, &vel_u, "EmbedSource U")?;
        check_vel(&v_peer, &vel_v_peer, "EmbedSource V")?;
        let malformed = |why: String| Err(PersistError::Malformed(why));
        if s_own.cols() != dim || t_peer.cols() != dim {
            return malformed(format!(
                "EmbedSource: table widths {} / {} do not match dim = {dim}",
                s_own.cols(),
                t_peer.cols()
            ));
        }
        if u_own.cols() != out || v_peer.cols() != out {
            return malformed(format!(
                "EmbedSource: projection widths {} / {} do not match out = {out}",
                u_own.cols(),
                v_peer.cols()
            ));
        }
        if enc_t_own.shape() != s_own.shape() {
            return malformed(format!(
                "EmbedSource: ⟦T_own⟧ shape {:?} does not match S_own shape {:?}",
                enc_t_own.shape(),
                s_own.shape()
            ));
        }
        if enc_v_own.shape() != u_own.shape() {
            return malformed(format!(
                "EmbedSource: ⟦V_own⟧ shape {:?} does not match U_own shape {:?}",
                enc_v_own.shape(),
                u_own.shape()
            ));
        }
        if enc_u_peer.shape() != v_peer.shape() {
            return malformed(format!(
                "EmbedSource: ⟦U_peer⟧ shape {:?} does not match V_peer shape {:?}",
                enc_u_peer.shape(),
                v_peer.shape()
            ));
        }
        if let Some(ct) = &enc_v_own_t {
            if ct.shape() != (u_own.cols(), u_own.rows()) {
                return malformed(format!(
                    "EmbedSource: ⟦V_ownᵀ⟧ shape {:?} is not U_own's {:?} transposed",
                    ct.shape(),
                    u_own.shape()
                ));
            }
        }
        Ok(EmbedSource {
            s_own,
            t_peer,
            enc_t_own,
            u_own,
            v_peer,
            enc_v_own,
            enc_v_own_t,
            enc_u_peer,
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
        let enc_v_own_t = self
            .enc_v_own_t
            .as_mut()
            .expect("Party B's layer holds ⟦V_ownᵀ⟧");

        // Line 12: send ⟦∇Z⟧ — packed for A's two ψᵀ⟦∇Z⟧ products — and,
        // for A's ⟦∇E_A⟧, ⟦∇Z⟧ again with ⟦∇Z·V_Aᵀ⟧ (V_A is B's piece
        // of A's W).
        let (ct_gz, ct_gz_scalar, ct_gzva) = {
            let _t = sess.stages.timer(Stage::EncryptUpload);
            let gzva = grad_z.matmul_t(&self.v_peer);
            (
                sess.encrypt_upload(grad_z),
                // Scalar by necessity: `matmul_ct_wt` contracts over the
                // columns of ⟦∇Z⟧, the axis a packed body's slots run
                // along...
                sess.own_pk.encrypt(grad_z, &sess.obf),
                // ...and this is added to its scalar output.
                sess.own_pk.encrypt_at_scale(&gzva, 2, &sess.obf),
            )
        };
        sess.ep.send(Msg::Ct(ct_gz))?;
        sess.ep.send(Msg::Ct(ct_gz_scalar))?;
        sess.ep.send(Msg::Ct(ct_gzva))?;
        let mut stage = sess.stages.timer(Stage::FedEmbed);

        // ⟦∇E_B⟧ must use the *forward-pass* weights, so compute it now,
        // before any weight piece or cache is updated below:
        // ⟦∇E_B⟧_A = ∇Z·U_Bᵀ (plain) + ∇Z·⟦V_Bᵀ⟧ (homomorphic), one
        // ciphertext chunk per field when packed.
        let t1 = sess
            .peer_pk
            .matmul(&Features::Dense(grad_z.clone()), enc_v_own_t);
        let grad_e_ct = sess.peer_pk.add_plain(&t1, &grad_z.matmul_t(&self.u_own));
        stage.switch(Stage::DecryptUpdate);

        // ∇W_A (lines 13–14): receive A's HE2SS piece, add our local
        // part (E_A − ψ_A)ᵀ∇Z, update V_A, refresh ⟦V_A⟧ at A.
        let d_a = e_peer.cols();
        let piece1 = he2ss_peer(&sess.ep, &sess.own_sk, d_a, self.out)?; // ψ_Aᵀ∇Z − φ
        let own_part = e_peer.t_matmul(grad_z);
        let piece_wa = piece1.add(&own_part); // ∇W_A − φ
        let delta = step_piece(
            &mut self.v_peer,
            &mut self.vel_v_peer,
            &piece_wa,
            &all_rows(d_a),
            sess.cfg.lr,
            sess.cfg.momentum,
        );
        sess.ep.send(Msg::Ct(sess.encrypt_upload(&delta)))?;

        // ∇W_B (lines 15–16): A supplies ⟨(E_B−ψ_B)ᵀ∇Z − ξ⟩; we add
        // ψ_Bᵀ∇Z, update U_B, refresh ⟦U_B⟧ at A.
        let piece2 = he2ss_peer(&sess.ep, &sess.own_sk, psi.cols(), self.out)?;
        let piece_wb = piece2.add(&psi.t_matmul(grad_z)); // ∇W_B − ξ
        let delta = step_piece(
            &mut self.u_own,
            &mut self.vel_u,
            &piece_wb,
            &all_rows(piece_wb.rows()),
            sess.cfg.lr,
            sess.cfg.momentum,
        );
        sess.ep.send(Msg::Ct(sess.encrypt_upload(&delta)))?;

        // A's refreshes of our caches: ⟦V_B⟧ and ⟦V_Bᵀ⟧ (A updated V_B
        // by ξ), then ⟦U_A⟧ (A updated U_A by φ).
        recv_refresh(sess, &mut self.enc_v_own, &all_rows(psi.cols()))?;
        recv_refresh(sess, enc_v_own_t, &all_rows(self.out))?;
        recv_refresh(sess, &mut self.enc_u_peer, &all_rows(d_a))?;

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

        let ct_gz = sess.ep.recv_ct()?;
        let ct_gz_scalar = sess.ep.recv_ct()?;
        let ct_gzva = sess.ep.recv_ct()?;

        // ⟦∇E_A⟧ must use the forward-pass weights: compute the U_A
        // part now, before φ updates U_A below.
        // ⟦∇E_A⟧_B = ⟦∇Z⟧·U_Aᵀ + ⟦∇Z·V_Aᵀ⟧ (both under B's key).
        stage.switch(Stage::FedEmbed);
        let t1 = sess.peer_pk.matmul_ct_wt(&ct_gz_scalar, &self.u_own);
        let grad_e_ct = sess.peer_pk.add(&t1, &ct_gzva);

        // ∇W_A (line 13): ⟦ψ_Aᵀ∇Z⟧ on the full projection rows, HE2SS.
        let d_a = psi.cols();
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
        let delta_ua = step_piece(
            &mut self.u_own,
            &mut self.vel_u,
            &phi,
            &all_rows(d_a),
            sess.cfg.lr,
            sess.cfg.momentum,
        );

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
        let delta_vb = step_piece(
            &mut self.v_peer,
            &mut self.vel_v_peer,
            &xi,
            &all_rows(d_b),
            sess.cfg.lr,
            sess.cfg.momentum,
        );

        // Receive B's refreshes for our caches (⟦V_A⟧ then ⟦U_B⟧)...
        recv_refresh(sess, &mut self.enc_v_own, &all_rows(d_a))?;
        recv_refresh(sess, &mut self.enc_u_peer, &all_rows(d_b))?;
        // ...and send ours: ⟦V_B⟧ in both of B's layouts, then ⟦U_A⟧.
        sess.ep.send(Msg::Ct(sess.encrypt_upload(&delta_vb)))?;
        sess.ep.send(Msg::Ct(
            sess.encrypt_upload_seg(&delta_vb.transpose(), self.dim),
        ))?;
        sess.ep.send(Msg::Ct(sess.encrypt_upload(&delta_ua)))?;

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
        // ⟦∇E_A⟧ computed above — scalar, like the operands it came from.
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
