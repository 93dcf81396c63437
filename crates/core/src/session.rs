//! Per-party cryptographic session: own key pair, the peer's public
//! key, encryption randomness, the transport endpoint, and a seeded RNG
//! for the secret-sharing masks.
//!
//! A [`Session`] is transport-agnostic: hand [`Session::handshake`] an
//! in-process endpoint (via [`run_pair`]) for single-machine runs, or a
//! TCP endpoint ([`bf_mpc::Endpoint::tcp_connect`] /
//! [`bf_mpc::Endpoint::tcp_accept`]) to run the party as its own
//! process — see `examples/tcp_federated_lr.rs`.

use std::sync::Arc;

use bf_mpc::transport::{Endpoint, Msg, TransportError, TransportResult};
use bf_paillier::{
    keygen, keys::plain_keys, Obfuscator, PaillierMode, PublicKey, SecretKey, SlotLayout,
    MAX_HE_MASK,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{Backend, FedConfig};
use crate::engine::StageTimes;

/// Which role this party plays. Party B holds the labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Feature-only party.
    A,
    /// Label-holding party.
    B,
}

/// Derive a party's private seed from the shared run seed.
///
/// Both the in-process harness ([`run_pair`]) and any cross-process
/// runner must use this exact derivation: it is what makes a TCP run
/// reproduce an in-process run coordinate for coordinate (each party's
/// mask RNG stream depends only on `(role, seed)`).
pub fn party_seed(role: Role, seed: u64) -> u64 {
    match role {
        Role::A => seed.wrapping_mul(2).wrapping_add(1),
        Role::B => seed.wrapping_mul(2).wrapping_add(2),
    }
}

/// Derive the private seed for one end of the `link`-th guest link in
/// a multi-guest run (paper Appendix C).
///
/// Like [`party_seed`], this derivation is part of the determinism
/// contract: an M-guest TCP deployment (one process per guest) and the
/// in-process harness must both use it so their runs are bit-identical.
/// Link 0 reduces to `party_seed(role, seed)` — an `M = 1` multi-guest
/// run reproduces the two-party run exactly.
pub fn multi_party_seed(role: Role, link: usize, seed: u64) -> u64 {
    party_seed(
        role,
        seed ^ (link as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// One party's protocol session.
pub struct Session {
    /// Protocol configuration (identical on both sides).
    pub cfg: FedConfig,
    /// This party's role.
    pub role: Role,
    /// Own public key.
    pub own_pk: PublicKey,
    /// Own secret key.
    pub own_sk: SecretKey,
    /// Encryption randomness for the own key.
    pub obf: Obfuscator,
    /// The peer's public key (received in the handshake).
    pub peer_pk: PublicKey,
    /// Duplex channel to the peer.
    pub ep: Endpoint,
    /// Mask RNG (each party's masks must be private to it, so the two
    /// sessions use independent seeds).
    pub rng: StdRng,
    /// Per-stage wall-clock attribution (see [`crate::engine`]); the
    /// source layers time themselves into this, the trainers report it.
    pub stages: Arc<StageTimes>,
}

impl Session {
    /// Generate keys and exchange public keys with the peer. `seed` is
    /// this party's *private* seed — derive it with [`party_seed`].
    pub fn handshake(
        ep: Endpoint,
        cfg: FedConfig,
        role: Role,
        seed: u64,
    ) -> TransportResult<Session> {
        // Key generation uses a *separate* RNG stream so the protocol
        // RNG (mask/initialisation draws) is identical across crypto
        // backends — this is what makes the Plain and Paillier runs
        // coordinate-for-coordinate comparable in the lossless tests.
        // It also means the key pair is a pure function of
        // `(backend, frac_bits, seed)`: a later session with the same
        // inputs regenerates the identical keys, which is what lets a
        // persisted model's ciphertext caches (`crate::persist`) be
        // served without shipping key material alongside the model.
        let mut key_rng = StdRng::seed_from_u64(seed ^ 0x5EED_07E7);
        let (own_pk, own_sk) = match cfg.backend {
            Backend::Paillier { key_bits } => keygen(key_bits, cfg.frac_bits, &mut key_rng),
            Backend::Plain => plain_keys(cfg.frac_bits),
        };
        Session::handshake_with_keys(ep, cfg, role, own_pk, own_sk, seed)
    }

    /// [`Session::handshake`] with externally supplied key material —
    /// the production serving path, where the training keys were
    /// persisted ([`bf_paillier::export_secret`] /
    /// [`bf_paillier::export_public`]) instead of being regenerated
    /// from the seed. `seed` still drives the mask RNG and the
    /// encryption-randomness stream, so two runs with the same keys
    /// and seed are bit-identical.
    ///
    /// A packed session whose `he_mask` exceeds the slot headroom rule
    /// ([`MAX_HE_MASK`]) is refused here with a `Setup` error, before
    /// anything is sent: its HE2SS replies could overflow a slot, which
    /// the decoder cannot detect. A peer key that differs from the own
    /// one in backend, `frac_bits`, ciphertext width or slot layout is
    /// refused the same way, at both ends: every upload template and
    /// [`Session::packs`] assume the two agree. So is an `own_pk` that
    /// is not `own_sk`'s public half: its replies would decrypt to
    /// garbage, and the obfuscator, built on `own_sk`'s CRT halves
    /// ([`Obfuscator::from_secret`]), would draw randomness for another
    /// key. Both checks run before the `Key` frame goes out.
    pub fn handshake_with_keys(
        ep: Endpoint,
        cfg: FedConfig,
        role: Role,
        own_pk: PublicKey,
        own_sk: SecretKey,
        seed: u64,
    ) -> TransportResult<Session> {
        // False for a NaN mask too.
        let fits = cfg.he_mask.abs() <= MAX_HE_MASK;
        if packs(&cfg, &own_pk) && !fits {
            return Err(TransportError::Setup(format!(
                "he_mask {} leaves the masked payload less than half a pack slot \
                 (packed sessions accept at most {MAX_HE_MASK})",
                cfg.he_mask
            )));
        }
        if !own_sk.pairs_with(&own_pk) {
            return Err(TransportError::Setup(
                "the own public key is not the own secret key's public half".into(),
            ));
        }
        let rng = StdRng::seed_from_u64(seed);
        let obf = Obfuscator::from_secret(&own_sk, cfg.obf_mode, seed ^ 0x0bf);
        ep.send(Msg::Key(own_pk.clone()))?;
        let peer_pk = ep.recv_key()?;
        if key_shape(&peer_pk) != key_shape(&own_pk) {
            return Err(TransportError::Setup(format!(
                "the peer's key (backend, frac_bits, ciphertext limbs, slot layout) is {:?}; \
                 this party's is {:?}",
                key_shape(&peer_pk),
                key_shape(&own_pk)
            )));
        }
        Ok(Session {
            cfg,
            role,
            own_pk,
            own_sk,
            obf,
            peer_pk,
            ep,
            rng,
            stages: Arc::new(StageTimes::default()),
        })
    }

    /// Capture this link's determinism cursor for a mid-epoch
    /// checkpoint: mask-RNG state, obfuscation draws consumed, and the
    /// traffic counters (see [`crate::persist::LinkCursor`]).
    pub fn capture_cursor(&self) -> crate::persist::LinkCursor {
        crate::persist::LinkCursor {
            rng: self.rng.state(),
            obf_drawn: self.obf.drawn(),
            bytes_sent: self.ep.stats().bytes(),
            msgs_sent: self.ep.stats().msgs(),
        }
    }

    /// Restore a captured cursor into this (freshly handshaken)
    /// session: the mask RNG resumes its exact stream, the obfuscator
    /// fast-forwards to the captured draw position, and the traffic
    /// counters are preloaded so post-resume totals equal an
    /// uninterrupted run's (the re-handshake bytes are deliberately
    /// discarded — they are recovery overhead, not protocol traffic).
    pub fn restore_cursor(&mut self, c: &crate::persist::LinkCursor) {
        self.rng = StdRng::from_state(c.rng);
        self.obf.set_drawn(c.obf_drawn);
        self.ep.stats().preload(c.bytes_sent, c.msgs_sent);
    }

    /// The learning rate as an [`bf_ml::Sgd`] for piecewise updates.
    pub fn sgd(&self) -> bf_ml::Sgd {
        bf_ml::Sgd {
            lr: self.cfg.lr,
            momentum: self.cfg.momentum,
        }
    }

    /// True if this session runs the Plain (identity) backend.
    pub fn is_plain(&self) -> bool {
        matches!(self.cfg.backend, Backend::Plain)
    }

    /// True if this session's uploads pack: the configured layout is
    /// [`PaillierMode::Packed`] and the key holds at least two slots
    /// (the handshake refuses a peer key of another slot layout, so the
    /// peer's answer is the same). The slot-overflow envelopes apply to
    /// exactly these sessions.
    pub fn packs(&self) -> bool {
        packs(&self.cfg, &self.own_pk)
    }

    /// Encrypt an upload under this party's own key in the session's
    /// configured ciphertext layout ([`FedConfig::paillier_mode`]).
    /// Packed layouts fall back to scalar per shape/key, so every
    /// upload site can route through here unconditionally.
    pub fn encrypt_upload(&self, m: &bf_tensor::Dense) -> bf_paillier::CtMat {
        self.own_pk
            .encrypt_mode(m, self.cfg.paillier_mode, &self.obf)
    }

    /// [`Session::encrypt_upload`] with an explicit segment width —
    /// embedding tables pack with `seg = dim` so gathered rows stay
    /// chunk-aligned after concatenation.
    pub fn encrypt_upload_seg(&self, m: &bf_tensor::Dense, seg: usize) -> bf_paillier::CtMat {
        self.own_pk
            .encrypt_mode_seg(m, seg, self.cfg.paillier_mode, &self.obf)
    }
}

/// What the two keys of a session must share: backend, `frac_bits`,
/// ciphertext limbs and slot layout.
type KeyShape = (bool, u32, usize, Option<SlotLayout>);

fn key_shape(pk: &PublicKey) -> KeyShape {
    let limbs = match pk {
        PublicKey::Paillier(p) => p.ct_limbs(),
        PublicKey::Plain { .. } => 0,
    };
    (pk.is_plain(), pk.frac_bits(), limbs, pk.slot_layout())
}

fn packs(cfg: &FedConfig, own_pk: &PublicKey) -> bool {
    cfg.paillier_mode == PaillierMode::Packed && own_pk.slot_layout().is_some()
}

/// The links bound of the host stack: every host-side entry point takes
/// its guest links as `L: AsMut<[Session]>`, and a lone session is the
/// one-link slice — so a two-party host passes `&mut sess` and an
/// `M`-guest host passes `&mut sessions` to the same function.
impl AsMut<[Session]> for Session {
    fn as_mut(&mut self) -> &mut [Session] {
        std::slice::from_mut(self)
    }
}

/// Refuse a host-side call whose session slice is not the `want` links
/// the model or layer was built over (`who` names it). Every such layer
/// has at least one link, so an empty slice is refused here too.
pub(crate) fn check_link_count(got: usize, want: usize, who: &str) -> TransportResult<()> {
    if got != want {
        return Err(TransportError::Setup(format!(
            "{who} was initialised with {want} guest links but called with {got} sessions"
        )));
    }
    Ok(())
}

/// Spawn a Party A thread and run `f_b` as Party B on the current
/// thread; returns `(A's result, B's result)`. The standard in-process
/// harness for every two-party protocol in this crate; transport
/// failures are impossible here by construction, so they surface as
/// panics rather than `Result`s.
pub fn run_pair<RA, RB>(
    cfg: &FedConfig,
    seed: u64,
    f_a: impl FnOnce(Session) -> RA + Send + 'static,
    f_b: impl FnOnce(Session) -> RB,
) -> (RA, RB)
where
    RA: Send + 'static,
{
    let (ep_a, ep_b) = bf_mpc::channel_pair();
    let cfg_a = cfg.clone();
    let handle = std::thread::Builder::new()
        .name("party-a".into())
        .stack_size(16 << 20)
        .spawn(move || {
            let sess = Session::handshake(ep_a, cfg_a, Role::A, party_seed(Role::A, seed))
                .expect("in-process handshake");
            f_a(sess)
        })
        .expect("spawn party A");
    let sess_b = Session::handshake(ep_b, cfg.clone(), Role::B, party_seed(Role::B, seed))
        .expect("in-process handshake");
    let rb = f_b(sess_b);
    let ra = handle.join().expect("party A panicked");
    (ra, rb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_paillier::CtMat;
    use bf_tensor::Dense;

    #[test]
    fn handshake_exchanges_keys() {
        // B encrypts under its own key; A operates homomorphically on
        // the ciphertext (no secret key needed) and returns it; B
        // decrypts the masked value — a miniature HE2SS round.
        let cfg = FedConfig::paillier_test();
        run_pair(
            &cfg,
            7,
            |sess| {
                let ct: CtMat = sess.ep.recv_ct().unwrap();
                let phi = Dense::from_vec(1, 2, vec![10.0, -20.0]);
                sess.ep
                    .send(bf_mpc::Msg::Ct(sess.peer_pk.sub_plain(&ct, &phi)))
                    .unwrap();
            },
            |sess| {
                let m = Dense::from_vec(1, 2, vec![1.5, -2.5]);
                sess.ep
                    .send(bf_mpc::Msg::Ct(sess.own_pk.encrypt(&m, &sess.obf)))
                    .unwrap();
                let masked = sess.own_sk.decrypt(&sess.ep.recv_ct().unwrap());
                let want = Dense::from_vec(1, 2, vec![1.5 - 10.0, -2.5 + 20.0]);
                assert!(masked.approx_eq(&want, 1e-5));
            },
        );
    }

    #[test]
    fn handshake_with_persisted_keys_interoperates() {
        // Round-trip the key material through the serialized form (the
        // production persistence path) and handshake with it: the
        // session must decrypt what the peer encrypts under its pk.
        use bf_paillier::{export_public, export_secret, import_public, import_secret};
        let cfg = FedConfig::paillier_test();
        let mut key_rng = StdRng::seed_from_u64(7 ^ 0x5EED_07E7);
        let (pk, sk) = bf_paillier::keygen(256, cfg.frac_bits, &mut key_rng);
        let pk = import_public(&export_public(&pk)).unwrap();
        let sk = import_secret(&export_secret(&sk)).unwrap();
        let (ep_a, ep_b) = bf_mpc::channel_pair();
        let cfg_a = cfg.clone();
        let peer = std::thread::spawn(move || {
            let sess = Session::handshake(ep_a, cfg_a, Role::A, party_seed(Role::A, 7)).unwrap();
            // What the peer observes of B's identity: the key B loaded.
            export_public(&sess.peer_pk)
        });
        let want_pk = export_public(&pk);
        let sess = Session::handshake_with_keys(ep_b, cfg, Role::B, pk, sk, party_seed(Role::B, 7))
            .unwrap();
        // The reloaded pair must still work as a pair (the session obf
        // stream was rebuilt for the imported public key).
        let m = Dense::from_vec(1, 2, vec![2.5, -4.0]);
        let ct = sess.own_pk.encrypt(&m, &sess.obf);
        assert!(sess.own_sk.decrypt(&ct).approx_eq(&m, 1e-5));
        assert_eq!(peer.join().unwrap(), want_pk);
    }

    #[test]
    fn packed_session_refuses_a_mask_past_the_slot_headroom() {
        // At the bound both parties shake hands; one ulp past it a
        // packed Paillier session is a typed setup error on each side,
        // while scalar and Plain sessions have no slots to overflow.
        let shake = |cfg: FedConfig| {
            let (ep_a, ep_b) = bf_mpc::channel_pair();
            let cfg_a = cfg.clone();
            let a = std::thread::spawn(move || {
                Session::handshake(ep_a, cfg_a, Role::A, party_seed(Role::A, 3)).map(drop)
            });
            let b = Session::handshake(ep_b, cfg, Role::B, party_seed(Role::B, 3)).map(drop);
            (a.join().unwrap(), b)
        };
        let with_mask = |cfg: FedConfig, he_mask: f64| FedConfig { he_mask, ..cfg };
        let past = MAX_HE_MASK * (1.0 + f64::EPSILON);

        let (a, b) = shake(with_mask(FedConfig::paillier_test(), MAX_HE_MASK));
        assert!(a.is_ok() && b.is_ok());
        for bad in [past, -past, f64::NAN] {
            let (a, b) = shake(with_mask(FedConfig::paillier_test(), bad));
            for r in [a, b] {
                assert!(matches!(r, Err(TransportError::Setup(_))), "{bad}: {r:?}");
            }
        }
        let scalar = FedConfig::paillier_test().with_paillier_mode(PaillierMode::Scalar);
        for cfg in [scalar, FedConfig::plain()] {
            let (a, b) = shake(with_mask(cfg, past));
            assert!(a.is_ok() && b.is_ok());
        }
    }

    #[test]
    fn handshake_refuses_a_peer_key_of_another_shape() {
        // Backend, frac_bits, ciphertext width and slot layout must all
        // agree; each mismatch is a typed setup error at both ends.
        let shake = |(cfg_a, pk_a, sk_a): (FedConfig, PublicKey, SecretKey),
                     (cfg_b, pk_b, sk_b): (FedConfig, PublicKey, SecretKey)| {
            let (ep_a, ep_b) = bf_mpc::channel_pair();
            let a = std::thread::spawn(move || {
                Session::handshake_with_keys(ep_a, cfg_a, Role::A, pk_a, sk_a, 1).map(drop)
            });
            let b = Session::handshake_with_keys(ep_b, cfg_b, Role::B, pk_b, sk_b, 2).map(drop);
            (a.join().unwrap(), b)
        };
        let cfg = FedConfig::paillier_test();
        let key = |bits: usize, frac_bits: u32, seed: u64| {
            let (pk, sk) = keygen(bits, frac_bits, &mut StdRng::seed_from_u64(seed));
            let cfg = FedConfig {
                frac_bits,
                ..cfg.clone()
            };
            (cfg, pk, sk)
        };
        // Two 242-bit requests whose moduli came out 241 and 242 bits:
        // the same 8-limb ciphertexts, 2 and 3 slots of 80 bits.
        let of_bits = |bits: usize| {
            (0..)
                .map(|seed| key(242, 20, seed))
                .find(|(_, pk, _)| matches!(pk, PublicKey::Paillier(p) if p.key_bits == bits))
                .unwrap()
        };
        let (short, long) = (of_bits(241), of_bits(242));
        assert_ne!(short.1.slot_layout(), long.1.slot_layout());
        let (plain_pk, plain_sk) = plain_keys(24);
        let plain = (FedConfig::plain(), plain_pk, plain_sk);
        let base = || key(256, 24, 1);
        for (name, other) in [
            ("frac_bits", key(256, 20, 2)),
            ("ciphertext limbs", key(320, 24, 3)),
            ("backend", plain),
        ] {
            let (a, b) = shake(base(), other);
            for r in [a, b] {
                assert!(matches!(r, Err(TransportError::Setup(_))), "{name}: {r:?}");
            }
        }
        let (a, b) = shake(short, long);
        for r in [a, b] {
            assert!(
                matches!(r, Err(TransportError::Setup(_))),
                "slot layout: {r:?}"
            );
        }
        let (a, b) = shake(base(), key(256, 24, 4));
        assert!(a.is_ok() && b.is_ok());
    }

    #[test]
    fn handshake_refuses_a_key_pair_that_is_not_a_pair() {
        // The persisted-keys path takes the two halves separately. The
        // public half of another key, of this key at another frac_bits,
        // or of another backend is a setup error, and no `Key` frame has
        // gone out: the peer, whose own key is already on the link, sees
        // the link close instead.
        let cfg = FedConfig::paillier_test();
        let key =
            |seed: u64, frac_bits: u32| keygen(256, frac_bits, &mut StdRng::seed_from_u64(seed));
        let ((pk, sk), (other_pk, _)) = (key(1, cfg.frac_bits), key(2, cfg.frac_bits));
        let (wide_pk, _) = key(1, cfg.frac_bits + 4);
        let (plain_pk, plain_sk) = plain_keys(cfg.frac_bits);
        let (peer_pk, _) = key(3, cfg.frac_bits);
        for (name, pk, sk) in [
            ("another key", other_pk, sk.clone()),
            ("another frac_bits", wide_pk, sk.clone()),
            ("a Plain public half", plain_pk, sk.clone()),
            ("a Plain secret half", pk, plain_sk),
        ] {
            let (ep_a, ep_b) = bf_mpc::channel_pair();
            ep_a.send(Msg::Key(peer_pk.clone())).unwrap();
            let r = Session::handshake_with_keys(ep_b, cfg.clone(), Role::B, pk, sk, 3);
            assert!(matches!(r, Err(TransportError::Setup(_))), "{name}");
            assert!(ep_a.recv_key().is_err(), "{name}: a key frame went out");
        }
    }

    #[test]
    fn handshaken_draws_are_the_public_reference_draws() {
        // A session builds its obfuscator on its own secret key; draw for
        // draw it is `Obfuscator::new` on its public key and seed.
        let seed = 4;
        let draws = move |sess: Session| {
            let PublicKey::Paillier(p) = &sess.own_pk else {
                unreachable!()
            };
            let obf_seed = party_seed(sess.role, seed) ^ 0x0bf;
            let reference = Obfuscator::new(&sess.own_pk, sess.cfg.obf_mode, obf_seed);
            for i in 0..64 {
                assert_eq!(sess.obf.next_rn(p), reference.next_rn(p), "draw {i}");
            }
        };
        run_pair(&FedConfig::paillier_test(), seed, draws, draws);
    }

    #[test]
    fn plain_backend_handshake() {
        let cfg = FedConfig::plain();
        run_pair(
            &cfg,
            1,
            |sess| {
                assert!(sess.is_plain());
                assert!(sess.peer_pk.is_plain());
            },
            |sess| assert!(sess.is_plain()),
        );
    }

    #[test]
    fn party_seeds_are_distinct_and_stable() {
        assert_ne!(party_seed(Role::A, 9), party_seed(Role::B, 9));
        assert_eq!(party_seed(Role::A, 9), 19);
        assert_eq!(party_seed(Role::B, 9), 20);
    }

    #[test]
    fn multi_party_seed_link0_matches_two_party() {
        for seed in [0u64, 9, u64::MAX] {
            for role in [Role::A, Role::B] {
                assert_eq!(multi_party_seed(role, 0, seed), party_seed(role, seed));
            }
        }
        // Distinct links get distinct streams for both roles.
        let mut seen = std::collections::HashSet::new();
        for link in 0..8 {
            for role in [Role::A, Role::B] {
                assert!(seen.insert(multi_party_seed(role, link, 9)));
            }
        }
    }
}
