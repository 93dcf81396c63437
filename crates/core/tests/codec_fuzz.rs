//! One fuzz battery over every decoder of untrusted bytes: the
//! `bf_util::codec::Reader` primitives, every binary wire kind, the
//! text `Key` (under a contract of its own, see `key_wire`) and every
//! BFMD kind (1, 2, 4, 5, 7, 8).
//!
//! Each kind starts from one valid encoding. Every truncation, a flip of
//! every byte, and an extreme `u64` written at every offset must end in
//! one of two ways: a typed `Err`, or an `Ok` whose re-encoding
//! reproduces the input bytes exactly (the encodings are canonical).
//! Neither may panic, and no single allocation made while decoding may
//! exceed a small multiple of the input: a count is refused before
//! anything is allocated for it.
//!
//! The sweeps are deterministic and name the mutation that failed. The
//! vendored proptest cannot shrink; its cases report the seed, and a
//! decoder panic inside one is turned into an assertion so that seed
//! is printed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bf_ml::data::{Dataset, Labels};
use bf_ml::gbdt::{Node, Tree};
use bf_mpc::wire::{decode_frame, encode_frame, pack_bits};
use bf_mpc::Msg;
use bf_paillier::{keygen, keys::plain_keys, ObfMode, Obfuscator, PaillierMode};
use bf_tensor::{Dense, Features};
use bf_util::codec::{DecodeError, Reader};
use blindfl::config::FedConfig;
use blindfl::models::{FedSpec, PartyAModel, PartyBModel};
use blindfl::persist::*;
use blindfl::session::run_pair;
use blindfl::trees::{GbRecord, GbdtGuestModel, GbdtHostModel};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// The system allocator, recording the largest single request the
/// current thread makes.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations during thread teardown go unrecorded.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the
// recording touches only a const-initialised thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Run `f`, returning its result (or `None` if it panicked) and the
/// largest single allocation it made.
fn watched<T>(f: impl FnOnce() -> T) -> (Option<T>, usize) {
    PEAK.with(|p| p.set(0));
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    (out, PEAK.with(Cell::get))
}

/// Decode `bytes`; on success, re-encode the value and say how many
/// input bytes it consumed.
type Reencode = fn(&[u8]) -> Result<(Vec<u8>, usize), String>;

/// One valid encoding of one kind.
struct Target {
    name: &'static str,
    bytes: Vec<u8>,
    reencode: Reencode,
}

fn wire(b: &[u8]) -> Result<(Vec<u8>, usize), String> {
    let (msg, used) = decode_frame(b).map_err(|e| e.to_string())?;
    Ok((encode_frame(&msg), used))
}

/// The text `Key` kind. Its fields parse as leniently as Rust's number
/// parsers (`+24`, `024`, upper-case hex), so an accepted input need not
/// be the canonical spelling of its key. It passes when its canonical
/// re-encoding decodes to a key that re-encodes to it again; otherwise
/// that re-encoding is returned, and `check` reports it.
fn key_wire(b: &[u8]) -> Result<(Vec<u8>, usize), String> {
    let (again, used) = wire(b)?;
    match wire(&again) {
        Ok((twice, _)) if twice == again => Ok((b[..used].to_vec(), used)),
        _ => Ok((again, used)),
    }
}

/// A BFMD kind's re-encoder: the whole blob is its encoding.
macro_rules! bfmd {
    ($import:expr, $export:expr) => {
        |b: &[u8]| -> Result<(Vec<u8>, usize), String> {
            let v = $import(b).map_err(|e| e.to_string())?;
            Ok(($export(&v), b.len()))
        }
    };
}

/// Why decoding `input` as `t`'s kind broke the contract, if it did.
fn check(t: &Target, input: &[u8]) -> Option<String> {
    let (out, peak) = watched(|| (t.reencode)(input));
    let limit = 8 * input.len() + 4096;
    match out {
        None => Some("decoder panicked".into()),
        Some(Ok((again, used))) if again != input[..used] => {
            Some("decoded, but re-encodes to other bytes".into())
        }
        _ if peak > limit => Some(format!(
            "allocated {peak} bytes at once from {} input bytes",
            input.len()
        )),
        _ => None,
    }
}

/// Values written over every 8-byte window: length and count fields
/// that overflow, claim more than remains, or vanish.
const EXTREMES: [u64; 5] = [0, 1 << 16, 1 << 32, 1 << 62, u64::MAX];

/// Every truncation, byte flip and extreme-`u64` overwrite of each
/// target; panics naming the first few that break the contract.
fn sweep(targets: &[Target]) {
    let mut failures = Vec::new();
    for t in targets {
        let base = &t.bytes;
        assert_eq!(check(t, base), None, "{}: the valid encoding", t.name);
        let mut run = |what: String, input: &[u8]| {
            if let Some(why) = check(t, input) {
                failures.push(format!("{}: {what}: {why}", t.name));
            }
        };
        for cut in 0..base.len() {
            run(format!("truncated to {cut}"), &base[..cut]);
        }
        for i in 0..base.len() {
            for x in [0x01, 0x80, 0xff] {
                let mut m = base.clone();
                m[i] ^= x;
                run(format!("byte {i} ^= {x:#04x}"), &m);
            }
        }
        for i in 0..base.len().saturating_sub(7) {
            for v in EXTREMES {
                let mut m = base.clone();
                m[i..i + 8].copy_from_slice(&v.to_le_bytes());
                run(format!("{v:#x} at {i}"), &m);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failing mutations, first: {:#?}",
        failures.len(),
        &failures[..failures.len().min(8)]
    );
}

fn wire_targets() -> Vec<Target> {
    let m = Dense::from_vec(2, 3, vec![1.5, -2.0, 0.0, 4.25, -0.125, 3.0]);
    let (plain, _) = plain_keys(20);
    let plain_obf = Obfuscator::new(&plain, ObfMode::Pool(2), 0);
    let (pk, _) = keygen(256, 20, &mut rand::rngs::StdRng::seed_from_u64(7));
    let obf = Obfuscator::new(&pk, ObfMode::Pool(2), 1);
    let bits = pack_bits(&[true, false, true, false, true, false, true, false, false]);
    [
        ("Ct (Plain)", Msg::Ct(plain.encrypt(&m, &plain_obf))),
        ("Ct (one per lane)", Msg::Ct(pk.encrypt(&m, &obf))),
        (
            "Ct (packed)",
            Msg::Ct(pk.encrypt_mode(&m, PaillierMode::Packed, &obf)),
        ),
        ("Mat", Msg::Mat(m)),
        ("Support", Msg::Support(vec![1, 5, 9])),
        ("Scalar", Msg::Scalar(-0.75)),
        ("U64", Msg::U64(0x0102_0304)),
        ("Hello", Msg::Hello { index: 1, total: 3 }),
        ("Resume", Msg::Resume { recv_seq: 42 }),
        (
            "GbSplit",
            Msg::GbSplit {
                feature: 2,
                bucket: 7,
            },
        ),
        (
            "GbBits",
            Msg::GbBits {
                rows: 3,
                records: 3,
                bits,
            },
        ),
        ("PsiOffer", Msg::PsiOffer { salt: 9, count: 4 }),
        (
            "PsiDigests",
            Msg::PsiDigests {
                digests: vec![2, 7, 11],
            },
        ),
    ]
    .map(|(name, msg)| Target {
        name,
        bytes: encode_frame(&msg),
        reencode: wire,
    })
    .into()
}

/// `Key` frames of both backends, at the unit-test key size.
fn key_targets() -> Vec<Target> {
    let (pk, _) = keygen(256, 20, &mut rand::rngs::StdRng::seed_from_u64(7));
    [("Key (Paillier)", pk), ("Key (Plain)", plain_keys(20).0)]
        .map(|(name, key)| Target {
            name,
            bytes: encode_frame(&Msg::Key(key)),
            reencode: key_wire,
        })
        .into()
}

fn toy_data(rows: usize, num_dim: usize, vocabs: &[u32], seed: u64, labelled: bool) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let num = bf_tensor::init::uniform(&mut rng, rows, num_dim, 1.0);
    let local = (0..rows * vocabs.len())
        .map(|i| rng.random_range(0..vocabs[i % vocabs.len()]))
        .collect();
    Dataset {
        num: Some(Features::Dense(num)),
        cat: Some(bf_tensor::CatBlock::from_local(rows, vocabs, local)),
        labels: labelled.then(|| Labels::Binary((0..rows).map(|r| (r % 2) as f64).collect())),
    }
}

/// BFMD kinds 1, 2, 4 and 5 from a trained WDL pair (both source
/// layers and a deep tower), kinds 7 and 8 from a hand-built forest.
fn bfmd_targets() -> Vec<Target> {
    let spec = FedSpec::Wdl {
        emb_dim: 2,
        deep_hidden: vec![2],
        out: 1,
    };
    let spec_b = spec.clone();
    let cursor = LinkCursor {
        rng: [1, 2, 3, 4],
        obf_drawn: 5,
        bytes_sent: 6,
        msgs_sent: 7,
    };
    let aligned = AlignCursor {
        salt: 8,
        ids: vec![3, 10, 12],
    };
    let (a, b) = run_pair(
        &FedConfig::plain(),
        3,
        move |mut sess| {
            let data = toy_data(4, 2, &[3, 2], 1, false);
            let mut model = PartyAModel::init(&mut sess, &spec, &data).unwrap();
            model.forward(&mut sess, &data, true).unwrap();
            model.backward(&mut sess).unwrap();
            (
                export_party_a(&model),
                export_checkpoint_a(1, 2, &cursor, Some(&aligned), &model),
            )
        },
        move |mut sess| {
            let data = toy_data(4, 1, &[2], 2, true);
            let mut model = PartyBModel::init(&mut sess, &spec_b, &data).unwrap();
            model.train_batch(&mut sess, &data).unwrap();
            (
                export_party_b(&model),
                export_checkpoint_b(0, 1, &[cursor], None, &[0.5, 0.25], &model),
            )
        },
    );
    let host = GbdtHostModel {
        trees: vec![
            Tree {
                nodes: vec![
                    Node::Split {
                        feature: 1,
                        bucket: 0,
                        left: 1,
                        right: 2,
                    },
                    Node::Leaf { weight: -0.5 },
                    Node::Split {
                        feature: 2,
                        bucket: 1,
                        left: 3,
                        right: 4,
                    },
                    Node::Leaf { weight: 0.25 },
                    Node::Leaf { weight: 0.75 },
                ],
            },
            Tree {
                nodes: vec![Node::Leaf { weight: 1.0 }],
            },
        ],
        guest_widths: vec![1, 1],
        host_edges: vec![vec![-0.5, 0.5]],
        base_score: 0.125,
    };
    let guest = GbdtGuestModel {
        width: 3,
        records: vec![
            GbRecord {
                feature: 0,
                threshold: -1.5,
            },
            GbRecord {
                feature: 2,
                threshold: 0.5,
            },
        ],
    };
    let ckpt_a: Reencode = bfmd!(import_checkpoint_a, |c: &CheckpointA| {
        export_checkpoint_a(c.epoch, c.batch, &c.link, c.aligned.as_ref(), &c.model)
    });
    let ckpt_b: Reencode = bfmd!(import_checkpoint_b, |c: &CheckpointB| {
        let CheckpointB {
            epoch,
            batch,
            links,
            aligned,
            losses,
            model,
        } = c;
        export_checkpoint_b(*epoch, *batch, links, aligned.as_ref(), losses, model)
    });
    vec![
        Target {
            name: "BFMD 1 (guest model)",
            bytes: a.0,
            reencode: bfmd!(import_party_a, export_party_a),
        },
        Target {
            name: "BFMD 2 (host model)",
            bytes: b.0,
            reencode: bfmd!(import_party_b, export_party_b),
        },
        Target {
            name: "BFMD 4 (guest checkpoint)",
            bytes: a.1,
            reencode: ckpt_a,
        },
        Target {
            name: "BFMD 5 (host checkpoint)",
            bytes: b.1,
            reencode: ckpt_b,
        },
        Target {
            name: "BFMD 7 (GBDT host)",
            bytes: export_gbdt_host(&host),
            reencode: bfmd!(import_gbdt_host, export_gbdt_host),
        },
        Target {
            name: "BFMD 8 (GBDT guest)",
            bytes: export_gbdt_guest(&guest),
            reencode: bfmd!(import_gbdt_guest, export_gbdt_guest),
        },
    ]
}

#[test]
fn every_binary_wire_kind_fails_typed_or_reencodes_exactly() {
    sweep(&wire_targets());
}

#[test]
fn key_frames_fail_typed_or_name_one_key() {
    // A modulus that is even, below the key floor, or a frac_bits past
    // the codec's, panicked in `MontCtx::new` or overflowed downstream.
    sweep(&key_targets());
}

#[test]
fn every_bfmd_kind_fails_typed_or_reencodes_exactly() {
    sweep(&bfmd_targets());
}

/// Apply reader operation `op` (one byte of the fuzz program).
fn step(r: &mut Reader, op: u8) -> Result<(), DecodeError> {
    let n = usize::from(op >> 3);
    match op % 8 {
        0 => r.u8().map(drop),
        1 => r.u32().map(drop),
        2 => r.u64().map(drop),
        3 => r.f64().map(drop),
        4 => r.len().map(drop),
        5 => r.flag().map(drop),
        6 => r.count(n.max(1)).map(drop),
        _ => match op % 3 {
            0 => r.u32s(n).map(drop),
            1 => r.u64s(n).map(drop),
            _ => r.f64s(n).map(drop),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any program of reader operations over any bytes ends in values
    /// or typed errors, and allocates no more than the bytes hold (plus
    /// an error message).
    #[test]
    fn reader_primitives_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
        program in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        let (out, peak) = watched(|| {
            let mut r = Reader::new(&bytes);
            for &op in &program {
                let _ = step(&mut r, op);
            }
            r.finish()
        });
        prop_assert!(out.is_some(), "reader panicked on {bytes:?} running {program:?}");
        prop_assert!(peak <= bytes.len() + 64, "allocated {peak} from {} bytes", bytes.len());
    }

    /// `count` refuses exactly the claims whose smallest encoding does
    /// not fit in what remains — `u64::MAX` and overflowing products
    /// included — and consumes only the count itself.
    #[test]
    fn count_refuses_claims_the_bytes_cannot_hold(
        claim in prop_oneof![0u64..64, Just(u64::MAX), Just(1u64 << 61), any::<u64>()],
        min in 1usize..=64,
        rest in 0usize..256,
    ) {
        let mut bytes = claim.to_le_bytes().to_vec();
        bytes.resize(8 + rest, 0);
        let mut r = Reader::new(&bytes);
        let fits = usize::try_from(claim)
            .ok()
            .and_then(|n| n.checked_mul(min))
            .is_some_and(|need| need <= rest);
        match r.count(min) {
            Ok(n) => {
                prop_assert!(fits, "accepted {claim} × {min} bytes from {rest}");
                prop_assert_eq!(n as u64, claim);
                prop_assert_eq!(r.bytes(rest).map(<[u8]>::len), Ok(rest));
            }
            Err(e) => {
                prop_assert!(!fits, "refused {claim} × {min} bytes from {rest}: {e}");
                prop_assert_eq!(e, DecodeError::Truncated);
            }
        }
    }

    /// Several random flips at once, over every target: the sweeps
    /// above flip one byte at a time.
    #[test]
    fn multi_byte_corruption_fails_typed_or_reencodes_exactly(
        which in any::<usize>(),
        flips in prop::collection::vec(any::<u64>(), 2..6),
    ) {
        let targets = targets();
        let t = &targets[which % targets.len()];
        let mut m = t.bytes.clone();
        for f in flips {
            // Low byte: the (nonzero) mask; the rest: the position.
            let at = (f >> 8) as usize % m.len();
            m[at] ^= (f as u8).max(1);
        }
        let why = check(t, &m);
        prop_assert!(why.is_none(), "{}: {why:?}", t.name);
    }
}

/// Every target, built once per test binary.
fn targets() -> &'static [Target] {
    static TARGETS: std::sync::OnceLock<Vec<Target>> = std::sync::OnceLock::new();
    TARGETS.get_or_init(|| {
        let wire = wire_targets().into_iter().chain(key_targets());
        wire.chain(bfmd_targets()).collect()
    })
}
