//! Property tests for the multi-party MatMul source layer (paper
//! Appendix C, Algorithm 3): for *arbitrary* guest counts, shapes and
//! gradient streams — including `M = 1`, 0-row batches and 1×1
//! matrices — the reconstruction `W_B = U_B + Σ_i V_B(i)`,
//! `W_A(i) = U_A(i) + V_A(i)` must match a reference dense matmul, and
//! `forward ∘ backward` must keep every share pair consistent after
//! SGD steps (verified by re-running a forward against the
//! reconstructed post-update weights).

use bf_tensor::{Dense, Features};
use blindfl::config::{FedConfig, GradMode};
use blindfl::multiparty::run_star;
use blindfl::session::Session;
use blindfl::source::matmul::{aggregate_a, aggregate_b, MatMulSource};
use proptest::prelude::*;

/// Drive `steps` train rounds (forward + backward) and one eval
/// forward through the real M-thread runtime; returns every trained
/// half plus the final aggregated output.
fn multi_roundtrip(
    xs_a: Vec<Features>,
    x_b: Features,
    out: usize,
    grads: Vec<Dense>,
) -> (Vec<MatMulSource>, MatMulSource, Dense) {
    multi_roundtrip_cfg(&FedConfig::plain(), xs_a, x_b, out, grads)
}

/// [`multi_roundtrip`] under any Plain-backend protocol configuration.
fn multi_roundtrip_cfg(
    cfg: &FedConfig,
    xs_a: Vec<Features>,
    x_b: Features,
    out: usize,
    grads: Vec<Dense>,
) -> (Vec<MatMulSource>, MatMulSource, Dense) {
    let steps = grads.len();
    let (layers_a, (layer_b, z)) = run_star(
        cfg,
        500,
        xs_a,
        |x_a, mut sess| {
            let mut layer = MatMulSource::init(&mut sess, x_a.cols(), out).unwrap();
            for _ in 0..steps {
                let z = layer.forward(&mut sess, &x_a, true).unwrap();
                aggregate_a(&sess, z).unwrap();
                layer.backward_a(&mut sess).unwrap();
            }
            let z = layer.forward(&mut sess, &x_a, false).unwrap();
            aggregate_a(&sess, z).unwrap();
            layer
        },
        |mut sessions| {
            let mut layer_b = MatMulSource::init(&mut sessions, x_b.cols(), out).unwrap();
            // The host's share, then every guest's folded in.
            let forward = |layer_b: &mut MatMulSource, sessions: &mut Vec<Session>, train: bool| {
                let mut z = layer_b.forward(sessions, &x_b, train).unwrap();
                for sess in sessions.iter() {
                    z = aggregate_b(sess, z).unwrap();
                }
                z
            };
            for g in &grads {
                let _ = forward(&mut layer_b, &mut sessions, true);
                layer_b.backward_b(&mut sessions, g).unwrap();
            }
            let z = forward(&mut layer_b, &mut sessions, false);
            (layer_b, z)
        },
    );
    (layers_a, layer_b, z)
}

/// Reference: plain dense matmul over the reconstructed weights.
fn reference(
    layers_a: &[MatMulSource],
    layer_b: &MatMulSource,
    xs_a: &[Features],
    x_b: &Features,
    rows: usize,
    out: usize,
) -> Dense {
    let mut want = Dense::zeros(rows, out);
    let mut w_b = layer_b.u_own().clone();
    for (i, la) in layers_a.iter().enumerate() {
        let w_a = la.u_own().add(layer_b.v_peer_of(i));
        want.add_assign(&xs_a[i].matmul(&w_a));
        w_b.add_assign(la.v_peer());
    }
    want.add_assign(&x_b.matmul(&w_b));
    want
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Forward reconstruction across random shapes: `M ∈ {1, 2, 3}`
    /// guests, batch rows down to 0, dims down to 1×1.
    #[test]
    fn forward_matches_reference_matmul(
        ins in prop::collection::vec(1usize..=3, 1..=3),
        in_b in 1usize..=3,
        rows in 0usize..=4,
        out in 1usize..=2,
        seed in 0u64..1000,
    ) {
        let m = ins.len();
        let xs_a: Vec<Features> = (0..m)
            .map(|i| {
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                    seed * 31 + i as u64,
                );
                Features::Dense(bf_tensor::init::uniform(&mut rng, rows, ins[i], 1.5))
            })
            .collect();
        let mut rng =
            <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed * 31 + 97);
        let x_b = Features::Dense(bf_tensor::init::uniform(&mut rng, rows, in_b, 1.5));
        let (layers_a, layer_b, z) = multi_roundtrip(xs_a.clone(), x_b.clone(), out, vec![]);
        prop_assert_eq!(layer_b.parties(), m);
        let want = reference(&layers_a, &layer_b, &xs_a, &x_b, rows, out);
        prop_assert!(
            z.approx_eq(&want, 1e-6),
            "forward err {} (m={}, rows={})", z.sub(&want).max_abs(), m, rows
        );
    }

    /// `forward ∘ backward` keeps shares consistent: after 1–2 SGD
    /// steps (including over 0-row batches), a fresh forward still
    /// equals the reference on the reconstructed *post-update* weights
    /// — i.e. every guest's encrypted cache tracked B's plaintext
    /// piece and vice versa.
    #[test]
    fn backward_keeps_shares_consistent(
        ins in prop::collection::vec(1usize..=3, 1..=3),
        in_b in 1usize..=3,
        rows in 0usize..=4,
        out in 1usize..=2,
        steps in 1usize..=2,
        seed in 0u64..1000,
    ) {
        let m = ins.len();
        let xs_a: Vec<Features> = (0..m)
            .map(|i| {
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                    seed * 37 + i as u64,
                );
                Features::Dense(bf_tensor::init::uniform(&mut rng, rows, ins[i], 1.5))
            })
            .collect();
        let mut rng =
            <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed * 37 + 91);
        let x_b = Features::Dense(bf_tensor::init::uniform(&mut rng, rows, in_b, 1.5));
        let grads: Vec<Dense> = (0..steps)
            .map(|_| bf_tensor::init::uniform(&mut rng, rows, out, 0.2))
            .collect();
        let (layers_a, layer_b, z) = multi_roundtrip(xs_a.clone(), x_b.clone(), out, grads);
        let want = reference(&layers_a, &layer_b, &xs_a, &x_b, rows, out);
        prop_assert!(
            z.approx_eq(&want, 1e-6),
            "post-update forward err {} (m={}, rows={}, steps={})",
            z.sub(&want).max_abs(), m, rows, steps
        );
    }

    /// The Figure 9 ablation applies on every link of an M = 2 host:
    /// each guest receives its gradient piece as a plaintext `Mat`
    /// (a host that ignored the mode would ship a `Ct` into the
    /// guest's `recv_mat`), applies the reconstructed `∇W_A(i)` to
    /// `U_A(i)` alone, and the host's amplified `V_A(i)` stays frozen —
    /// so the shares still reconstruct the post-update weights.
    #[test]
    fn plain_grad_ablation_applies_on_every_link(
        rows in 1usize..=4,
        out in 1usize..=2,
        seed in 0u64..1000,
    ) {
        let cfg = FedConfig::plain().with_grad_mode(GradMode::PlainGradToA { v_scale: 5.0 });
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed * 41 + 7);
        let xs_a: Vec<Features> = [2usize, 3]
            .iter()
            .map(|&d| Features::Dense(bf_tensor::init::uniform(&mut rng, rows, d, 1.5)))
            .collect();
        let x_b = Features::Dense(bf_tensor::init::uniform(&mut rng, rows, 2, 1.5));
        let grads = vec![bf_tensor::init::uniform(&mut rng, rows, out, 0.2)];
        let (_, frozen_b, _) = multi_roundtrip_cfg(&cfg, xs_a.clone(), x_b.clone(), out, vec![]);
        let (layers_a, layer_b, z) =
            multi_roundtrip_cfg(&cfg, xs_a.clone(), x_b.clone(), out, grads);
        for i in 0..2 {
            prop_assert_eq!(layer_b.v_peer_of(i).data(), frozen_b.v_peer_of(i).data());
        }
        let want = reference(&layers_a, &layer_b, &xs_a, &x_b, rows, out);
        prop_assert!(
            z.approx_eq(&want, 1e-6),
            "post-update forward err {} (rows={})", z.sub(&want).max_abs(), rows
        );
    }
}
