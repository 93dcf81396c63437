//! Persistence contracts (see `docs/SERVING.md` §persistence):
//!
//! 1. **Byte-exact round trip** — for arbitrary model shapes (dims
//!    down to 1×1 and 0-width feature blocks, trained over batches
//!    including 0-row ones), `export(import(export(m))) == export(m)`
//!    bit for bit, for the guest half and the host half over `M ≥ 1`
//!    links, under the Plain and Paillier backends.
//! 2. **Bit-identical resume** — a training run that round-trips both
//!    model halves through bytes mid-run produces the *exact* loss
//!    curve of the uninterrupted run: the blobs capture every piece,
//!    momentum buffer and ciphertext cache the optimizer needs.
//! 3. **One kind per role** (format `VERSION` 3) and one checkpoint
//!    kind for both (`VERSION` 6) — `M ∈ {1, 2}`, with and without the
//!    alignment section, go through the same host kinds; the retired
//!    kind bytes (3, 5, 6, 9, 10, 11) and `VERSION` 2 are typed errors
//!    at every importer.

use bf_ml::data::{BatchIter, Dataset, Labels};
use bf_tensor::Features;
use blindfl::config::FedConfig;
use blindfl::models::{FedSpec, PartyAModel, PartyBModel};
use blindfl::multiparty::run_star;
use blindfl::persist::{
    export_checkpoint, export_party_a, export_party_b, import_checkpoint, import_party_a,
    import_party_b, AlignCursor, Checkpoint, LinkCursor, PersistError,
};
use blindfl::session::run_pair;
use proptest::prelude::*;
use rand::SeedableRng;

/// `label_classes`: 0 = unlabelled (a Party A view), 1 = binary,
/// `n > 1` = n-class (matches a width-`n` model output).
fn toy_data(
    rows: usize,
    num_dim: usize,
    cat_vocabs: &[u32],
    seed: u64,
    label_classes: usize,
) -> Dataset {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let num = Some(Features::Dense(bf_tensor::init::uniform(
        &mut rng, rows, num_dim, 1.0,
    )));
    let cat = (!cat_vocabs.is_empty()).then(|| {
        let local: Vec<u32> = (0..rows * cat_vocabs.len())
            .map(|i| rng.random_range(0..cat_vocabs[i % cat_vocabs.len()]))
            .collect();
        bf_tensor::CatBlock::from_local(rows, cat_vocabs, local)
    });
    let labels = match label_classes {
        0 => None,
        1 => Some(Labels::Binary((0..rows).map(|r| (r % 2) as f64).collect())),
        classes => Some(Labels::Multi {
            classes,
            y: (0..rows).map(|r| (r % classes) as u32).collect(),
        }),
    };
    Dataset { num, cat, labels }
}

/// Train a two-party model for `steps` mini-batches (so velocities,
/// piece updates and ciphertext-cache refreshes are all non-trivial),
/// then export both halves.
fn train_and_export(
    cfg: &FedConfig,
    spec: &FedSpec,
    data_a: Dataset,
    data_b: Dataset,
    batches: Vec<Vec<usize>>,
    seed: u64,
) -> (Vec<u8>, Vec<u8>) {
    let spec_a = spec.clone();
    let spec_b = spec.clone();
    let batches_a = batches.clone();
    run_pair(
        cfg,
        seed,
        move |mut sess| {
            let mut model = PartyAModel::init(&mut sess, &spec_a, &data_a).unwrap();
            for idx in &batches_a {
                model.forward(&mut sess, &data_a.select(idx), true).unwrap();
                model.backward(&mut sess).unwrap();
            }
            export_party_a(&model)
        },
        move |mut sess| {
            let mut model = PartyBModel::init(&mut sess, &spec_b, &data_b).unwrap();
            for idx in &batches {
                model.train_batch(&mut sess, &data_b.select(idx)).unwrap();
            }
            export_party_b(&model)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Byte-exact round trip across random GLM shapes (Plain backend;
    /// dims down to 1×1, batches down to 0 rows).
    #[test]
    fn glm_roundtrip_is_byte_exact(
        in_a in 1usize..=4,
        in_b in 1usize..=4,
        out in 1usize..=2,
        rows in 1usize..=6,
        steps in 0usize..=2,
        zero_row_batch in 0u8..=1,
        seed in 0u64..1000,
    ) {
        let cfg = FedConfig::plain();
        let spec = FedSpec::Glm { out };
        let data_a = toy_data(rows, in_a, &[], seed * 3 + 1, 0);
        let data_b = toy_data(rows, in_b, &[], seed * 3 + 2, out);
        let mut batches: Vec<Vec<usize>> = (0..steps).map(|_| (0..rows).collect()).collect();
        if zero_row_batch == 1 {
            // A 0-row mini-batch must neither corrupt state nor leave
            // residue in the exported blob.
            batches.push(Vec::new());
        }
        let (bytes_a, bytes_b) = train_and_export(&cfg, &spec, data_a, data_b, batches, seed);
        let model_a = import_party_a(&bytes_a).unwrap();
        let model_b = import_party_b(&bytes_b).unwrap();
        prop_assert_eq!(export_party_a(&model_a), bytes_a);
        prop_assert_eq!(export_party_b(&model_b), bytes_b);
    }
}

#[test]
fn paillier_wdl_roundtrip_is_byte_exact() {
    // The densest state any model carries: a WDL half holds both
    // source layers (nine plaintext pieces + eight momentum buffers +
    // four real-Paillier ciphertext caches, five at Party B) plus the
    // deep-tower top.
    let cfg = FedConfig::paillier_test();
    let spec = FedSpec::Wdl {
        emb_dim: 2,
        deep_hidden: vec![3],
        out: 1,
    };
    let data_a = toy_data(6, 3, &[4, 3], 11, 0);
    let data_b = toy_data(6, 2, &[5], 12, 1);
    let batches = vec![(0..6).collect::<Vec<_>>(), (0..3).collect()];
    let (bytes_a, bytes_b) = train_and_export(&cfg, &spec, data_a, data_b, batches, 21);
    let model_a = import_party_a(&bytes_a).unwrap();
    let model_b = import_party_b(&bytes_b).unwrap();
    assert_eq!(export_party_a(&model_a), bytes_a);
    assert_eq!(export_party_b(&model_b), bytes_b);
    // The plaintext pieces survived verbatim too (spot check through
    // the inspection accessors).
    let m2 = import_party_a(&bytes_a).unwrap();
    assert_eq!(m2.matmul().u_own().data(), model_a.matmul().u_own().data());
    assert_eq!(
        m2.embed().unwrap().s_own().data(),
        model_a.embed().unwrap().s_own().data()
    );
}

#[test]
fn mlp_and_dlrm_tops_roundtrip() {
    // Cover the remaining Top variants (hidden towers with their
    // per-layer momentum buffers).
    for (spec, cat) in [
        (
            FedSpec::Mlp {
                widths: vec![4, 3, 1],
            },
            Vec::new(),
        ),
        (
            FedSpec::Dlrm {
                emb_dim: 2,
                vec_dim: 3,
                top_hidden: vec![4],
            },
            vec![3u32, 4],
        ),
    ] {
        let cfg = FedConfig::plain();
        let data_a = toy_data(5, 3, &cat, 31, 0);
        let data_b = toy_data(5, 4, &cat, 32, 1);
        let batches = vec![(0..5).collect::<Vec<_>>()];
        let (bytes_a, bytes_b) = train_and_export(&cfg, &spec, data_a, data_b, batches, 33);
        assert_eq!(
            export_party_a(&import_party_a(&bytes_a).unwrap()),
            bytes_a,
            "spec {spec:?}"
        );
        assert_eq!(
            export_party_b(&import_party_b(&bytes_b).unwrap()),
            bytes_b,
            "spec {spec:?}"
        );
    }
}

#[test]
fn multi_party_b_roundtrip_is_byte_exact() {
    // M = 2 guests, WDL spec: exercises the host MatMul layer's
    // per-link pieces and the per-link pairwise Embed submodels.
    let m = 2usize;
    let cfg = FedConfig::plain();
    let spec = FedSpec::Wdl {
        emb_dim: 2,
        deep_hidden: vec![3],
        out: 1,
    };
    let rows = 6;
    let guests: Vec<Dataset> = (0..m)
        .map(|i| toy_data(rows, 2 + i, &[3], 40 + i as u64, 0))
        .collect();
    let data_b = toy_data(rows, 3, &[4], 50, 1);

    let (blobs_a, bytes_b) = run_star(
        &cfg,
        60,
        guests,
        |data_a, mut sess| {
            let mut model = PartyAModel::init(&mut sess, &spec, &data_a).unwrap();
            for _ in 0..2 {
                let batch = data_a.select(&(0..rows).collect::<Vec<_>>());
                model.forward(&mut sess, &batch, true).unwrap();
                model.backward(&mut sess).unwrap();
            }
            export_party_a(&model)
        },
        |mut sessions| {
            let mut model_b = PartyBModel::init(&mut sessions, &spec, &data_b).unwrap();
            for _ in 0..2 {
                let batch = data_b.select(&(0..rows).collect::<Vec<_>>());
                model_b.train_batch(&mut sessions, &batch).unwrap();
            }
            export_party_b(&model_b)
        },
    );
    let reloaded = import_party_b(&bytes_b).unwrap();
    assert_eq!(export_party_b(&reloaded), bytes_b);
    assert_eq!(reloaded.matmul().parties(), m);
    assert_eq!(reloaded.embed_links().len(), m);
    for bytes_a in blobs_a {
        assert_eq!(export_party_a(&import_party_a(&bytes_a).unwrap()), bytes_a);
    }
}

/// Loss curve of a 4-epoch run; when `reload_after` is set, both model
/// halves are torn down to bytes and rebuilt at that epoch boundary
/// mid-run (sessions stay, exactly like a serving node reloading its
/// model). Bit-identical curves ⇔ the blobs are complete.
fn losses_with_optional_reload(cfg: &FedConfig, reload_after: Option<usize>) -> Vec<u64> {
    losses_of(cfg, FedSpec::Glm { out: 1 }, [&[], &[]], reload_after)
}

/// [`losses_with_optional_reload`] for any architecture; `vocabs` are
/// the two parties' categorical fields.
fn losses_of(
    cfg: &FedConfig,
    spec: FedSpec,
    vocabs: [&[u32]; 2],
    reload_after: Option<usize>,
) -> Vec<u64> {
    let rows = 24;
    let bs = 8;
    let epochs = 4;
    let data_a = toy_data(rows, 5, vocabs[0], 71, 0);
    let data_b = toy_data(rows, 4, vocabs[1], 72, 1);
    let spec_a = spec.clone();
    let data_a2 = data_a.clone();
    let (_, losses) = run_pair(
        cfg,
        77,
        move |mut sess| {
            let mut model = PartyAModel::init(&mut sess, &spec_a, &data_a2).unwrap();
            for epoch in 0..epochs {
                if reload_after == Some(epoch) {
                    model = import_party_a(&export_party_a(&model)).unwrap();
                }
                for idx in BatchIter::new(rows, bs, 7 ^ epoch as u64) {
                    model
                        .forward(&mut sess, &data_a2.select(&idx), true)
                        .unwrap();
                    model.backward(&mut sess).unwrap();
                }
            }
        },
        move |mut sess| {
            let mut model = PartyBModel::init(&mut sess, &spec, &data_b).unwrap();
            let mut losses = Vec::new();
            for epoch in 0..epochs {
                if reload_after == Some(epoch) {
                    model = import_party_b(&export_party_b(&model)).unwrap();
                }
                for idx in BatchIter::new(rows, bs, 7 ^ epoch as u64) {
                    let loss = model.train_batch(&mut sess, &data_b.select(&idx)).unwrap();
                    losses.push(loss.to_bits());
                }
            }
            losses
        },
    );
    losses
}

#[test]
fn reloaded_model_resumes_training_bit_identically_plain() {
    let cfg = FedConfig::plain();
    let unbroken = losses_with_optional_reload(&cfg, None);
    let resumed = losses_with_optional_reload(&cfg, Some(2));
    assert_eq!(unbroken, resumed);
    // The curve actually moved (the equality above is not vacuous).
    assert_ne!(unbroken.first(), unbroken.last());
}

#[test]
fn reloaded_model_resumes_training_bit_identically_paillier() {
    // Same contract under real ciphertext caches: if the export missed
    // (or re-encrypted) any ⟦V⟧ cache, the resumed run would diverge.
    let cfg = FedConfig::paillier_test();
    let unbroken = losses_with_optional_reload(&cfg, None);
    let resumed = losses_with_optional_reload(&cfg, Some(2));
    assert_eq!(unbroken, resumed);
}

#[test]
fn reloaded_wdl_resumes_training_bit_identically_paillier() {
    // The Embed-MatMul layer's caches, Party B's ⟦V_Bᵀ⟧ included: B's
    // backward reads it and A refreshes it every step, so a blob that
    // dropped or mislaid it would leave the curve at the reload.
    let cfg = FedConfig::paillier_test();
    let wdl = || FedSpec::Wdl {
        emb_dim: 2,
        deep_hidden: vec![4],
        out: 1,
    };
    let vocabs: [&[u32]; 2] = [&[4, 3], &[5]];
    let unbroken = losses_of(&cfg, wdl(), vocabs, None);
    let resumed = losses_of(&cfg, wdl(), vocabs, Some(2));
    assert_eq!(unbroken, resumed);
    assert_ne!(unbroken.first(), unbroken.last());
}

#[test]
fn truncated_and_corrupted_blobs_are_rejected() {
    let cfg = FedConfig::plain();
    let spec = FedSpec::Glm { out: 1 };
    let data_a = toy_data(4, 3, &[], 81, 0);
    let data_b = toy_data(4, 2, &[], 82, 1);
    let (bytes_a, bytes_b) =
        train_and_export(&cfg, &spec, data_a, data_b, vec![vec![0, 1, 2, 3]], 83);
    // Every proper prefix fails with a typed error, never a panic.
    for cut in 0..bytes_a.len() {
        assert!(import_party_a(&bytes_a[..cut]).is_err(), "prefix {cut}");
    }
    // Trailing garbage is rejected too (the payload is self-delimiting).
    let mut padded = bytes_b.clone();
    padded.push(0);
    assert!(import_party_b(&padded).is_err());
    // Cross-kind confusion is a typed error — the retired multi-guest
    // host kind included.
    assert!(import_party_b(&bytes_a).is_err());
    assert!(import_party_b(&with_kind(&bytes_b, 3)).is_err());
}

/// `blob` with its kind byte overwritten.
fn with_kind(blob: &[u8], kind: u8) -> Vec<u8> {
    let mut out = blob.to_vec();
    out[5] = kind;
    out
}

/// Mid-epoch checkpoint blobs (BFMD kind 4, either role) obey the same
/// contracts as the model kinds: byte-exact round trip over arbitrary
/// shapes and cursors, typed rejection of truncation, trailing
/// garbage, header corruption, and cross-kind confusion.
mod checkpoints {
    use super::*;
    use proptest::collection::vec as pvec;

    /// Expand one seed into a full-entropy cursor (the vendored
    /// proptest has no tuple strategies; the cursor is still arbitrary
    /// through the expansion).
    fn cursor_from(seed: u64) -> LinkCursor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        LinkCursor {
            rng: [rng.random(), rng.random(), rng.random(), rng.random()],
            obf_drawn: rng.random(),
            bytes_sent: rng.random(),
            msgs_sent: rng.random(),
        }
    }

    /// A checkpoint at `(epoch, batch)` wrapping the model blob `model`.
    fn record(
        epoch: u64,
        batch: u64,
        links: &[LinkCursor],
        aligned: Option<&AlignCursor>,
        losses: &[f64],
        model: &[u8],
    ) -> Checkpoint {
        Checkpoint {
            epoch,
            batch,
            links: links.to_vec(),
            aligned: aligned.cloned(),
            losses: losses.to_vec(),
            model: model.to_vec(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

        /// Round trip + rejection sweep over random GLM shapes, batch
        /// cursors, loss prefixes, and link cursors.
        #[test]
        fn checkpoint_roundtrip_is_byte_exact(
            in_a in 1usize..=4,
            in_b in 1usize..=4,
            rows in 1usize..=6,
            epoch in 0u64..=3,
            batch in 0u64..=5,
            cur_seed in any::<u64>(),
            losses in pvec(any::<f64>(), 0..8),
            seed in 0u64..1000,
        ) {
            let cur = cursor_from(cur_seed);
            let cfg = FedConfig::plain();
            let spec = FedSpec::Glm { out: 1 };
            let data_a = toy_data(rows, in_a, &[], seed * 3 + 1, 0);
            let data_b = toy_data(rows, in_b, &[], seed * 3 + 2, 1);
            let (bytes_a, bytes_b) =
                train_and_export(&cfg, &spec, data_a, data_b, vec![(0..rows).collect()], seed);

            // A guest's record: one cursor, no losses; the host's: its curve.
            let cp_a = export_checkpoint(&record(epoch, batch, &[cur], None, &[], &bytes_a));
            let cp_b = export_checkpoint(&record(epoch, batch, &[cur], None, &losses, &bytes_b));

            // Byte-exact round trip, cursor and wrapped model included.
            let back_a = import_checkpoint(&cp_a).unwrap();
            prop_assert_eq!((back_a.epoch, back_a.batch, back_a.links.clone()), (epoch, batch, vec![cur]));
            prop_assert_eq!(export_party_a(&import_party_a(&back_a.model).unwrap()), bytes_a.clone());
            prop_assert_eq!(export_checkpoint(&back_a), cp_a.clone());
            let back_b = import_checkpoint(&cp_b).unwrap();
            prop_assert_eq!((back_b.epoch, back_b.batch, back_b.links.clone()), (epoch, batch, vec![cur]));
            prop_assert_eq!(back_b.losses.len(), losses.len());
            prop_assert_eq!(export_checkpoint(&back_b), cp_b.clone());

            // Every proper prefix is a typed error, never a panic.
            for cut in 0..cp_a.len() {
                prop_assert!(import_checkpoint(&cp_a[..cut]).is_err(), "prefix {}", cut);
            }
            // Trailing garbage is rejected (self-delimiting payload).
            let mut padded = cp_b.clone();
            padded.push(0);
            prop_assert!(import_checkpoint(&padded).is_err());

            // Cross-kind confusion is a typed error in every direction:
            // the retired host-checkpoint kind, the model kinds, and a
            // role's importer on the other role's wrapped model.
            prop_assert!(import_checkpoint(&with_kind(&cp_b, 5)).is_err());
            prop_assert!(import_checkpoint(&with_kind(&cp_b, 6)).is_err());
            prop_assert!(import_party_a(&cp_a).is_err());
            prop_assert!(import_party_b(&cp_b).is_err());
            prop_assert!(import_checkpoint(&bytes_a).is_err());
            prop_assert!(import_checkpoint(&bytes_b).is_err());
            prop_assert!(import_party_b(&back_a.model).is_err());
            prop_assert!(import_party_a(&back_b.model).is_err());

            // Header corruption: a flipped magic or version byte fails.
            for byte in 0..2 {
                let mut bad = cp_a.clone();
                bad[byte] ^= 0xFF;
                prop_assert!(import_checkpoint(&bad).is_err(), "header byte {}", byte);
            }
        }
    }

    /// A host checkpoint over M = 2 links round-trips; its cursor count
    /// is held against the sessions at resume, not against the wrapped
    /// model at import
    /// (`a_checkpoint_over_other_links_than_supplied_is_a_setup_error`).
    #[test]
    fn multi_checkpoint_roundtrip_and_link_count_guard() {
        let m = 2usize;
        let model = export_party_b(&train_multi_model(m, 5, 91));
        let links: Vec<LinkCursor> = (0..m as u64)
            .map(|i| LinkCursor {
                rng: [i, i + 1, i + 2, i + 3],
                obf_drawn: 10 * i,
                bytes_sent: 100 * i,
                msgs_sent: i,
            })
            .collect();
        let losses = vec![0.7, 0.65, f64::NAN];
        let cp = export_checkpoint(&record(1, 2, &links, None, &losses, &model));
        let back = import_checkpoint(&cp).unwrap();
        assert_eq!((back.epoch, back.batch), (1, 2));
        assert_eq!(back.links, links);
        assert_eq!(import_party_b(&back.model).unwrap().num_links(), m);
        assert_eq!(export_checkpoint(&back), cp);

        // The importer reads a cursor count that disagrees with the
        // wrapped model: the record does not open the model.
        let short = export_checkpoint(&record(1, 2, &links[..1], None, &losses, &model));
        assert_eq!(import_checkpoint(&short).unwrap().links.len(), 1);
        // Truncation sweep and cross-kind rejection hold here too.
        for cut in (0..cp.len()).step_by(7) {
            assert!(import_checkpoint(&cp[..cut]).is_err(), "prefix {cut}");
        }
        assert!(import_checkpoint(&with_kind(&cp, 6)).is_err());
        assert!(import_party_b(&cp).is_err());
    }

    proptest! {
        /// PSI-aligned checkpoints: the optional alignment section
        /// round-trips byte-exactly, an `aligned: None` blob differs
        /// from it by exactly that section, truncation anywhere is a
        /// typed error, and non-canonical (unsorted / duplicated) ID
        /// lists are rejected on import.
        #[test]
        fn aligned_checkpoint_roundtrip_and_canonical_ids(
            salt in any::<u64>(),
            raw_ids in pvec(any::<u64>(), 0..12),
            epoch in 0u64..=3,
            batch in 0u64..=5,
            cur_seed in any::<u64>(),
            losses in pvec(any::<f64>(), 0..6),
            seed in 0u64..1000,
        ) {
            let mut ids = raw_ids;
            ids.sort_unstable();
            ids.dedup();
            let align = AlignCursor { salt, ids };
            let cur = cursor_from(cur_seed);
            let cfg = FedConfig::plain();
            let spec = FedSpec::Glm { out: 1 };
            let rows = 4;
            let data_a = toy_data(rows, 2, &[], seed * 3 + 1, 0);
            let data_b = toy_data(rows, 3, &[], seed * 3 + 2, 1);
            let (bytes_a, bytes_b) =
                train_and_export(&cfg, &spec, data_a, data_b, vec![(0..rows).collect()], seed);

            let plain_a = export_checkpoint(&record(epoch, batch, &[cur], None, &[], &bytes_a));
            let cp_a = export_checkpoint(&record(epoch, batch, &[cur], Some(&align), &[], &bytes_a));
            let cp_b = export_checkpoint(&record(epoch, batch, &[cur], Some(&align), &losses, &bytes_b));

            // Same kind; the section flag flips and the payload grows
            // by exactly the section.
            prop_assert_eq!(cp_a.len(), plain_a.len() + 16 + 8 * align.ids.len());
            prop_assert_eq!((cp_a[5], plain_a[6], cp_a[6]), (plain_a[5], 0, 1));
            prop_assert_eq!(&cp_a[7..], {
                let mut want = Vec::new();
                want.extend_from_slice(&align.salt.to_le_bytes());
                want.extend_from_slice(&(align.ids.len() as u64).to_le_bytes());
                for id in &align.ids {
                    want.extend_from_slice(&id.to_le_bytes());
                }
                want.extend_from_slice(&plain_a[7..]);
                want
            });

            let back_a = import_checkpoint(&cp_a).unwrap();
            prop_assert_eq!(back_a.aligned.as_ref(), Some(&align));
            prop_assert_eq!((back_a.epoch, back_a.batch, back_a.links.clone()), (epoch, batch, vec![cur]));
            prop_assert_eq!(export_checkpoint(&back_a), cp_a.clone());
            let back_b = import_checkpoint(&cp_b).unwrap();
            prop_assert_eq!(back_b.aligned.as_ref(), Some(&align));
            prop_assert_eq!(export_checkpoint(&back_b), cp_b.clone());

            // Truncation sweep never panics, and cross-kind confusion
            // (aligned vs model kinds, the retired aligned kinds) fails.
            for cut in 0..cp_a.len() {
                prop_assert!(import_checkpoint(&cp_a[..cut]).is_err(), "prefix {}", cut);
            }
            prop_assert!(import_checkpoint(&with_kind(&cp_a, 9)).is_err());
            prop_assert!(import_checkpoint(&with_kind(&cp_b, 10)).is_err());
            prop_assert!(import_party_a(&cp_a).is_err());

            // Non-canonical ID lists are malformed: descending order
            // and duplicates both fail on import.
            if align.ids.len() >= 2 {
                let mut swapped = align.clone();
                swapped.ids.reverse();
                let bad = export_with_raw_ids(epoch, batch, &cur, &swapped, &bytes_a);
                prop_assert!(import_checkpoint(&bad).is_err());
                let mut dup = align.clone();
                dup.ids[0] = dup.ids[1];
                let bad = export_with_raw_ids(epoch, batch, &cur, &dup, &bytes_a);
                prop_assert!(import_checkpoint(&bad).is_err());
            }
        }
    }

    /// Re-encode an aligned guest checkpoint with an arbitrary
    /// (possibly non-canonical) ID list by splicing raw bytes — the
    /// exporter itself debug-asserts canonical order, so malformed
    /// blobs have to be built by hand.
    fn export_with_raw_ids(
        epoch: u64,
        batch: u64,
        cur: &LinkCursor,
        align: &AlignCursor,
        model: &[u8],
    ) -> Vec<u8> {
        let canon = AlignCursor {
            salt: align.salt,
            ids: {
                let mut ids = align.ids.clone();
                ids.sort_unstable();
                ids.dedup();
                ids
            },
        };
        let good = export_checkpoint(&record(epoch, batch, &[*cur], Some(&canon), &[], model));
        let body_at = 7 + 16 + 8 * canon.ids.len();
        let mut out = good[..7].to_vec();
        out.extend_from_slice(&align.salt.to_le_bytes());
        out.extend_from_slice(&(align.ids.len() as u64).to_le_bytes());
        for id in &align.ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.extend_from_slice(&good[body_at..]);
        out
    }

    /// Train a tiny `m`-guest model over in-process channels and return
    /// Party B's half (enough structure for checkpoint tests).
    fn train_multi_model(m: usize, rows: usize, seed: u64) -> PartyBModel {
        let spec = FedSpec::Glm { out: 1 };
        let data_b = toy_data(rows, 3, &[], seed, 1);
        let batch = |data: &Dataset| data.select(&(0..rows).collect::<Vec<_>>());
        run_star(
            &FedConfig::plain(),
            seed,
            (0..m).collect(),
            |i, mut sess| {
                let data_a = toy_data(rows, 2 + i, &[], seed + 1 + i as u64, 0);
                let mut model = PartyAModel::init(&mut sess, &spec, &data_a).unwrap();
                model.forward(&mut sess, &batch(&data_a), true).unwrap();
                model.backward(&mut sess).unwrap();
            },
            |mut sessions| {
                let mut model = PartyBModel::init(&mut sessions, &spec, &data_b).unwrap();
                model.train_batch(&mut sessions, &batch(&data_b)).unwrap();
                model
            },
        )
        .1
    }

    /// A host checkpoint over two links carries the same section.
    #[test]
    fn aligned_multi_checkpoint_roundtrips() {
        let align = AlignCursor {
            salt: 0xD1CE,
            ids: vec![3, 9, 27],
        };
        let links: Vec<LinkCursor> = (0..2u64)
            .map(|i| LinkCursor {
                rng: [i; 4],
                obf_drawn: i,
                bytes_sent: i,
                msgs_sent: i,
            })
            .collect();
        // Tiny two-guest run, then checkpoint with the align prefix.
        let model = export_party_b(&train_multi_model(2, 4, 95));
        let cp = export_checkpoint(&record(0, 1, &links, Some(&align), &[0.5], &model));
        let back = import_checkpoint(&cp).unwrap();
        assert_eq!(back.aligned, Some(align));
        assert_eq!(back.links, links);
        assert!(import_checkpoint(&cp[..cp.len() - 1]).is_err());
        assert!(import_checkpoint(&with_kind(&cp, 11)).is_err());
    }

    /// `VERSION` 2 and the kind bytes `VERSION` 3 and 6 retired are
    /// typed errors at every importer, whatever follows the header.
    #[test]
    fn retired_kinds_and_versions_are_typed_errors() {
        let model = export_party_b(&train_multi_model(1, 4, 97));
        let cur = cursor_from(5);
        let blobs = [
            model.clone(),
            export_checkpoint(&record(0, 1, &[cur], None, &[0.5], &model)),
        ];
        type Import = fn(&[u8]) -> Option<PersistError>;
        let importers: [Import; 3] = [
            |b| import_party_a(b).err(),
            |b| import_party_b(b).err(),
            |b| import_checkpoint(b).err(),
        ];
        for blob in &blobs {
            let mut old = blob.clone();
            old[4] = 2;
            for import in importers {
                assert_eq!(import(&old), Some(PersistError::UnsupportedVersion(2)));
                for kind in [3u8, 5, 6, 9, 10, 11] {
                    assert!(
                        matches!(
                            import(&with_kind(blob, kind)),
                            Some(PersistError::WrongKind { got, .. }) if got == kind
                        ),
                        "kind {kind}"
                    );
                }
            }
        }
    }
}

/// The format change end to end: one generator drives `M ∈ {1, 2}`,
/// with and without the alignment section, through the two training
/// entry points and the one host checkpoint kind.
mod one_host_kind {
    use super::*;
    use bf_mpc::transport::TransportError;
    use blindfl::train::{run_party_a, run_party_b, CheckpointCadence, FedTrainConfig};
    use blindfl::train::{PartyARun, PartyBRun};
    use blindfl::{psi_salt, AlignInput};

    const ROWS: usize = 13;
    const SEED: u64 = 61;

    fn spec() -> FedSpec {
        FedSpec::Glm { out: 1 }
    }

    fn host_data() -> Dataset {
        toy_data(ROWS, 3, &[], 299, 1)
    }

    /// Party `p`'s sample-ID column (`p = 0` is the host): every party
    /// holds ids `1..ROWS` in its own order plus one private id.
    fn ids(p: u64) -> Vec<u64> {
        let mut ids: Vec<u64> = (1..ROWS as u64).collect();
        ids.rotate_left(p as usize + 1);
        ids.push(1000 + p);
        ids
    }

    /// The `m` guests' private data (`i` = link).
    fn guest_data(i: usize) -> Dataset {
        toy_data(ROWS, 2 + i, &[], 300 + i as u64, 0)
    }

    /// One `m`-guest job; `tc(p)` is party `p`'s config (0 = host).
    fn run_job(m: usize, tc: impl Fn(u64) -> FedTrainConfig + Sync) -> (Vec<PartyARun>, PartyBRun) {
        let data = host_data();
        run_star(
            &FedConfig::plain(),
            SEED,
            (0..m).collect(),
            |i, mut sess| {
                let data = guest_data(i);
                run_party_a(&mut sess, &spec(), &tc(i as u64 + 1), &data, &data).unwrap()
            },
            |mut sessions| run_party_b(&mut sessions, &spec(), &tc(0), &data, &data).unwrap(),
        )
    }

    #[test]
    fn resume_lands_on_the_loss_curve_for_every_m_and_alignment() {
        for (m, aligned) in [(1, false), (1, true), (2, false), (2, true)] {
            let path = move |p: u64| {
                std::env::temp_dir().join(format!(
                    "bf_persist_{}_{m}_{aligned}_{p}.ckpt",
                    std::process::id()
                ))
            };
            let tc = move |p: u64| FedTrainConfig {
                base: bf_ml::TrainConfig {
                    epochs: 3,
                    batch_size: 4,
                    ..Default::default()
                },
                checkpoint: Some(CheckpointCadence {
                    every_batches: 4,
                    path: path(p),
                }),
                align: aligned.then(|| AlignInput {
                    ids: ids(p),
                    salt: psi_salt(SEED),
                }),
                ..Default::default()
            };
            let (guests, host) = run_job(m, tc);
            assert_eq!(host.alignment.is_some(), aligned);

            // The host's latest checkpoint: mid-run, one cursor per
            // link, the alignment section iff the run aligned, and
            // byte-exact through the one checkpoint kind.
            let blob = std::fs::read(path(0)).unwrap();
            let cp = import_checkpoint(&blob).unwrap();
            assert!(cp.losses.len() < host.losses.len(), "checkpoint at the end");
            assert_eq!(cp.links.len(), m);
            assert_eq!(import_party_b(&cp.model).unwrap().num_links(), m);
            assert_eq!(cp.aligned.is_some(), aligned);
            assert_eq!(export_checkpoint(&cp), blob);

            // Every party resumes from its own file and lands on the
            // uninterrupted run: curve, models, traffic totals.
            let (re_guests, re_host) = run_job(m, move |p| FedTrainConfig {
                resume: Some(std::fs::read(path(p)).unwrap()),
                ..tc(p)
            });
            assert_eq!(re_host.losses, host.losses, "M={m} aligned={aligned}");
            assert_eq!(export_party_b(&re_host.model), export_party_b(&host.model));
            assert_eq!(re_host.bytes_sent_per_link, host.bytes_sent_per_link);
            for (re, g) in re_guests.iter().zip(&guests) {
                assert_eq!(export_party_a(&re.model), export_party_a(&g.model));
                assert_eq!(re.bytes_sent, g.bytes_sent);
            }
            for p in 0..=m as u64 {
                let _ = std::fs::remove_file(path(p));
            }
        }
    }

    #[test]
    fn a_checkpoint_over_other_links_than_supplied_is_a_setup_error() {
        // Two-cursor checkpoints: the host's offered one session and
        // none, a guest's offered its one session.
        let (guests, model) = run_star(
            &FedConfig::plain(),
            SEED,
            vec![0, 1],
            |i, mut sess| PartyAModel::init(&mut sess, &spec(), &guest_data(i)).unwrap(),
            |mut sessions| PartyBModel::init(&mut sessions, &spec(), &host_data()).unwrap(),
        );
        let cursors = vec![
            LinkCursor {
                rng: [1; 4],
                obf_drawn: 0,
                bytes_sent: 0,
                msgs_sent: 0,
            };
            2
        ];
        let resume = |model: Vec<u8>| FedTrainConfig {
            resume: Some(export_checkpoint(&Checkpoint {
                links: cursors.clone(),
                model,
                ..Default::default()
            })),
            ..Default::default()
        };
        let tc = resume(export_party_b(&model));
        let tc_guest = resume(export_party_a(&guests[0]));
        let data = host_data();
        run_star(
            &FedConfig::plain(),
            SEED,
            vec![()],
            |(), mut sess| {
                let data = guest_data(0);
                let run = run_party_a(&mut sess, &spec(), &tc_guest, &data, &data);
                assert!(
                    matches!(run, Err(TransportError::Setup(_))),
                    "guest: {:?}",
                    run.err()
                );
            },
            |mut sessions| {
                for offered in [1, 0] {
                    let run = run_party_b(&mut sessions[..offered], &spec(), &tc, &data, &data);
                    assert!(
                        matches!(run, Err(TransportError::Setup(_))),
                        "{offered} sessions: {:?}",
                        run.err()
                    );
                }
            },
        );
    }
}
