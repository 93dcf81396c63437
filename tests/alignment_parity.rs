//! The alignment-parity suite: PSI-aligned training must be **exactly**
//! pre-aligned training.
//!
//! Each cell of the matrix
//! `{two-party, M = 2 multi-guest} × {Plain, Paillier/Packed} ×
//! {in-process, TCP}` does the same experiment:
//!
//! 1. build a *misaligned* split ([`vsplit_misaligned`]): each party
//!    holds a locally-shuffled superset of a common sample set, plus a
//!    sample-ID column;
//! 2. run the **pre-aligned baseline** — the vanilla entry points over
//!    `mis.aligned`, the ground-truth `vsplit` of exactly the overlap
//!    rows in canonical (ascending-ID) order;
//! 3. run the **PSI-aligned** entry points over the shuffled supersets
//!    and the raw ID columns;
//! 4. assert the aligned run is **bit-identical** to the baseline —
//!    the full per-batch loss curve, the test metric, the exported
//!    model bytes of every party — and that its traffic is *exactly*
//!    `baseline + PSI`: subtracting each link's measured
//!    `psi_bytes_sent` from the aligned totals reproduces the
//!    baseline totals to the byte, in both directions.
//!
//! Two more contracts ride along:
//!
//! * **Permutation invariance** (proptest) — shuffling any party's
//!   local rows (features and ID column together) changes nothing:
//!   not the losses, not the models, and not even the wire byte
//!   totals, because the PSI digest sets are canonical ascending on
//!   the wire.
//! * **Reconnect accounting** — severing the link right after the PSI
//!   offer forces the transport's resume/replay machinery to carry
//!   PSI frames across a reconnect; [`bf_mpc::TrafficStats`] must
//!   count them exactly once (replay bypasses stats), so a severed
//!   run's totals equal an unsevered run's.
//!
//! The PSI core (digests, intersection, wire frames) is
//! property-tested against a `HashSet` oracle in `bf-mpc`; the
//! misaligned data generator against its own oracle in `bf-datagen`;
//! checkpoint/resume *through* an aligned run in
//! `tests/chaos_parity.rs`.

use std::net::TcpListener;
use std::sync::{mpsc, Arc, OnceLock};

use bf_datagen::{
    generate, sample_id, spec as dataset_spec, vsplit, vsplit_misaligned, vsplit_misaligned_multi,
    vsplit_multi, MisalignedParty,
};
use bf_ml::data::Dataset;
use bf_mpc::psi::{psi_guest, salted_digests, select_common};
use bf_mpc::transport::{Msg, Redial, RetryPolicy};
use bf_mpc::Endpoint;
use proptest::prelude::*;

use blindfl::config::FedConfig;
use blindfl::models::FedSpec;
use blindfl::multiparty::{collect_guests, send_hello};
use blindfl::persist::{export_party_a, export_party_b};
use blindfl::session::{multi_party_seed, party_seed, Role, Session};
use blindfl::train::{run_party_a, run_party_b, FedTrainConfig};
use blindfl::{psi_salt, AlignInput, Alignment};

const SEED: u64 = 31;
const DATA_SEED: u64 = 23;
const EPOCHS: usize = 2;
/// Overlap fraction of the misaligned splits: half the rows are
/// common, the rest are dealt out as disjoint private remainders.
const OVERLAP: f64 = 0.5;

/// `tc` with the PSI phase switched on over `ids`.
fn aligning(tc: &FedTrainConfig, ids: &[u64]) -> FedTrainConfig {
    FedTrainConfig {
        align: Some(AlignInput {
            ids: ids.to_vec(),
            salt: psi_salt(SEED),
        }),
        ..tc.clone()
    }
}

fn base_tc(bs: usize) -> FedTrainConfig {
    FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs: EPOCHS,
            batch_size: bs,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    }
}

/// Everything a completed run produces, reduced to the bit-comparable
/// facts (same shape as the chaos suite's).
#[derive(PartialEq, Debug)]
struct CellRun {
    losses: Vec<f64>,
    metric: f64,
    /// A→B bytes per link (one entry in the two-party cells).
    bytes_a: Vec<u64>,
    /// B→A bytes per link.
    bytes_b: Vec<u64>,
    /// Exported model bytes per guest, in link order.
    models_a: Vec<Vec<u8>>,
    /// Exported Party B model bytes.
    model_b: Vec<u8>,
}

impl CellRun {
    /// The run with each link's PSI bytes subtracted from its traffic
    /// totals — what must equal the pre-aligned baseline to the byte.
    fn minus_psi(mut self, psi_a: &[u64], psi_b: &[u64]) -> CellRun {
        assert_eq!(self.bytes_a.len(), psi_a.len());
        assert_eq!(self.bytes_b.len(), psi_b.len());
        for (total, psi) in self.bytes_a.iter_mut().zip(psi_a) {
            *total -= psi;
        }
        for (total, psi) in self.bytes_b.iter_mut().zip(psi_b) {
            *total -= psi;
        }
        self
    }
}

/// Duplex endpoints for one link over the chosen transport.
fn endpoints(tcp: bool) -> (Endpoint, Endpoint) {
    if !tcp {
        return bf_mpc::channel_pair();
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap();
    let t = std::thread::spawn(move || Endpoint::tcp_connect(addr).expect("connect"));
    let b = Endpoint::tcp_accept(&listener).expect("accept");
    (t.join().expect("connect thread"), b)
}

/// One two-party run: Party A's closure on a 16 MB-stack thread,
/// Party B's on the caller's. Both sessions handshake from the same
/// `(cfg, role, SEED)` the baseline uses, so mask streams match.
fn run_pair_over<RA, RB>(
    cfg: &FedConfig,
    tcp: bool,
    fa: impl FnOnce(&mut Session) -> RA + Send + 'static,
    fb: impl FnOnce(&mut Session) -> RB,
) -> (RA, RB)
where
    RA: Send + 'static,
{
    let (ep_a, ep_b) = endpoints(tcp);
    let cfg_a = cfg.clone();
    let guest = std::thread::Builder::new()
        .name("parity-party-a".into())
        .stack_size(16 << 20)
        .spawn(move || {
            let mut sess = Session::handshake(ep_a, cfg_a, Role::A, party_seed(Role::A, SEED))
                .expect("A handshake");
            fa(&mut sess)
        })
        .expect("spawn party A");
    let mut sess_b = Session::handshake(ep_b, cfg.clone(), Role::B, party_seed(Role::B, SEED))
        .expect("B handshake");
    let rb = fb(&mut sess_b);
    (guest.join().expect("party A panicked"), rb)
}

fn two_party_baseline(
    cfg: &FedConfig,
    tcp: bool,
    tc: &FedTrainConfig,
    train_a: Dataset,
    train_b: &Dataset,
    test_a: Dataset,
    test_b: &Dataset,
) -> CellRun {
    let fed = FedSpec::Glm { out: 1 };
    let (fed_a, tc_a) = (fed.clone(), tc.clone());
    let (a, b) = run_pair_over(
        cfg,
        tcp,
        move |sess| run_party_a(sess, &fed_a, &tc_a, &train_a, &test_a).expect("baseline A"),
        |sess| run_party_b(sess, &fed, tc, train_b, test_b).expect("baseline B"),
    );
    CellRun {
        losses: b.losses,
        metric: b.test_metric,
        bytes_a: vec![a.bytes_sent],
        bytes_b: b.bytes_sent_per_link,
        models_a: vec![export_party_a(&a.model)],
        model_b: export_party_b(&b.model),
    }
}

fn two_party_aligned(
    cfg: &FedConfig,
    tcp: bool,
    tc: &FedTrainConfig,
    party_a: MisalignedParty,
    party_b: &MisalignedParty,
    test_a: Dataset,
    test_b: &Dataset,
) -> (CellRun, Alignment, Alignment) {
    let fed = FedSpec::Glm { out: 1 };
    let (fed_a, tc_a) = (fed.clone(), aligning(tc, &party_a.ids));
    let tc_b = aligning(tc, &party_b.ids);
    let (a, b) = run_pair_over(
        cfg,
        tcp,
        move |sess| run_party_a(sess, &fed_a, &tc_a, &party_a.data, &test_a).expect("aligned A"),
        |sess| run_party_b(sess, &fed, &tc_b, &party_b.data, test_b).expect("aligned B"),
    );
    let run = CellRun {
        losses: b.losses,
        metric: b.test_metric,
        bytes_a: vec![a.bytes_sent],
        bytes_b: b.bytes_sent_per_link,
        models_a: vec![export_party_a(&a.model)],
        model_b: export_party_b(&b.model),
    };
    (
        run,
        a.alignment.expect("A ran unaligned"),
        b.alignment.expect("B ran unaligned"),
    )
}

/// The full parity experiment for one two-party cell at [`OVERLAP`].
fn assert_two_party_parity(cfg: FedConfig, row_div: usize, bs: usize, tcp: bool) {
    assert_two_party_parity_at(OVERLAP, cfg, row_div, bs, tcp);
}

/// The full parity experiment for one two-party cell; at `overlap`
/// 1.0 every row is common and PSI only has to undo the shuffles.
fn assert_two_party_parity_at(overlap: f64, cfg: FedConfig, row_div: usize, bs: usize, tcp: bool) {
    let ds = dataset_spec("a9a").scaled(row_div, 1);
    let (train, test) = generate(&ds, DATA_SEED);
    let mis = vsplit_misaligned(&train, overlap, DATA_SEED);
    let test_v = vsplit(&test);
    let tc = base_tc(bs);

    let baseline = two_party_baseline(
        &cfg,
        tcp,
        &tc,
        mis.aligned.party_a.clone(),
        &mis.aligned.party_b,
        test_v.party_a.clone(),
        &test_v.party_b,
    );
    let (aligned, align_a, align_b) = two_party_aligned(
        &cfg,
        tcp,
        &tc,
        mis.party_a.clone(),
        &mis.party_b,
        test_v.party_a.clone(),
        &test_v.party_b,
    );

    // PSI found exactly the planted overlap, in canonical order, on
    // both sides — and it cost real bytes in both directions.
    let want_ids: Vec<u64> = mis.overlap_rows.iter().map(|&r| sample_id(r)).collect();
    assert_eq!(align_a.ids, want_ids, "guest intersection");
    assert_eq!(align_b.ids, want_ids, "host intersection");
    assert!(align_a.psi_bytes_sent > 0 && align_b.psi_bytes_sent > 0);

    // Bit-identity: same losses, metric, models; traffic is exactly
    // baseline + PSI per direction.
    let net = aligned.minus_psi(&[align_a.psi_bytes_sent], &[align_b.psi_bytes_sent]);
    assert_eq!(net, baseline, "PSI-aligned run diverged from pre-aligned");
}

#[test]
fn two_party_plain_in_process_psi_matches_pre_aligned() {
    assert_two_party_parity(FedConfig::plain(), 256, 16, false);
}

#[test]
fn two_party_plain_in_process_full_overlap_psi_matches_pre_aligned() {
    assert_two_party_parity_at(1.0, FedConfig::plain(), 256, 16, false);
}

#[test]
fn two_party_plain_tcp_psi_matches_pre_aligned() {
    assert_two_party_parity(FedConfig::plain(), 256, 16, true);
}

#[test]
fn two_party_paillier_packed_in_process_psi_matches_pre_aligned() {
    assert_two_party_parity(FedConfig::paillier_test(), 1024, 4, false);
}

#[test]
fn two_party_paillier_packed_tcp_psi_matches_pre_aligned() {
    assert_two_party_parity(FedConfig::paillier_test(), 1024, 4, true);
}

/// One M-guest run: guests on threads, Party B via the supplied
/// closure on the caller's thread.
fn run_multi_over<RA, RB, FA>(
    cfg: &FedConfig,
    m: usize,
    tcp: bool,
    fas: Vec<FA>,
    fb: impl FnOnce(&mut [Session]) -> RB,
) -> (Vec<RA>, RB)
where
    RA: Send + 'static,
    FA: FnOnce(&mut Session) -> RA + Send + 'static,
{
    assert_eq!(fas.len(), m);
    let listener = tcp.then(|| TcpListener::bind("127.0.0.1:0").expect("bind localhost"));
    let addr = listener.as_ref().map(|l| l.local_addr().unwrap());
    let mut host_eps = Vec::with_capacity(m);
    let mut handles = Vec::with_capacity(m);
    for (i, fa) in fas.into_iter().enumerate() {
        let ep_a = match addr {
            Some(addr) => Endpoint::tcp_connect(addr).expect("guest connect"),
            None => {
                let (ea, eb) = bf_mpc::channel_pair();
                host_eps.push(eb);
                ea
            }
        };
        let cfg_a = cfg.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("parity-guest-{i}"))
                .stack_size(16 << 20)
                .spawn(move || {
                    send_hello(&ep_a, i, m).expect("guest hello");
                    let mut sess = Session::handshake(
                        ep_a,
                        cfg_a,
                        Role::A,
                        multi_party_seed(Role::A, i, SEED),
                    )
                    .expect("guest handshake");
                    fa(&mut sess)
                })
                .expect("spawn guest"),
        );
    }
    if let Some(listener) = &listener {
        host_eps = (0..m)
            .map(|_| Endpoint::tcp_accept(listener).expect("accept"))
            .collect();
    }
    let ordered = collect_guests(host_eps, m).expect("guest fan-in");
    let mut sessions: Vec<Session> = ordered
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            Session::handshake(ep, cfg.clone(), Role::B, multi_party_seed(Role::B, i, SEED))
                .expect("host handshake")
        })
        .collect();
    let rb = fb(&mut sessions);
    drop(sessions);
    let ras = handles
        .into_iter()
        .map(|h| h.join().expect("guest panicked"))
        .collect();
    (ras, rb)
}

/// The full parity experiment for one M = 2 multi-guest cell.
fn assert_multi_parity(cfg: FedConfig, row_div: usize, bs: usize, tcp: bool) {
    const M: usize = 2;
    let ds = dataset_spec("a9a").scaled(row_div, 1);
    let (train, test) = generate(&ds, DATA_SEED);
    let mis = vsplit_misaligned_multi(&train, M, OVERLAP, DATA_SEED);
    let test_v = vsplit_multi(&test, M);
    let fed = FedSpec::Glm { out: 1 };
    let tc = base_tc(bs);

    // Pre-aligned baseline over the ground-truth overlap views.
    let fas: Vec<_> = mis
        .aligned
        .guests
        .iter()
        .cloned()
        .zip(test_v.guests.iter().cloned())
        .map(|(train_a, test_a)| {
            let (fed_a, tc_a) = (fed.clone(), tc.clone());
            move |sess: &mut Session| {
                run_party_a(sess, &fed_a, &tc_a, &train_a, &test_a).expect("baseline guest")
            }
        })
        .collect();
    let (guests, b) = run_multi_over(&cfg, M, tcp, fas, |sessions| {
        run_party_b(sessions, &fed, &tc, &mis.aligned.party_b, &test_v.party_b).expect("baseline B")
    });
    let baseline = CellRun {
        losses: b.losses,
        metric: b.test_metric,
        bytes_a: guests.iter().map(|g| g.bytes_sent).collect(),
        bytes_b: b.bytes_sent_per_link.clone(),
        models_a: guests.iter().map(|g| export_party_a(&g.model)).collect(),
        model_b: export_party_b(&b.model),
    };

    // PSI-aligned run over the shuffled supersets.
    let fas: Vec<_> = mis
        .guests
        .iter()
        .cloned()
        .zip(test_v.guests.iter().cloned())
        .map(|(party, test_a)| {
            let (fed_a, tc_a) = (fed.clone(), aligning(&tc, &party.ids));
            move |sess: &mut Session| {
                run_party_a(sess, &fed_a, &tc_a, &party.data, &test_a).expect("aligned guest")
            }
        })
        .collect();
    let tc_b = aligning(&tc, &mis.party_b.ids);
    let (guests, b) = run_multi_over(&cfg, M, tcp, fas, |sessions| {
        run_party_b(sessions, &fed, &tc_b, &mis.party_b.data, &test_v.party_b).expect("aligned B")
    });
    let guest_aligns: Vec<Alignment> = guests
        .iter()
        .map(|g| g.alignment.clone().expect("guest ran unaligned"))
        .collect();
    let align_b = b.alignment.clone().expect("B ran unaligned");
    let psi_b_per_link = align_b.psi_bytes_per_link.clone();
    let aligned = CellRun {
        losses: b.losses,
        metric: b.test_metric,
        bytes_a: guests.iter().map(|g| g.bytes_sent).collect(),
        bytes_b: b.bytes_sent_per_link.clone(),
        models_a: guests.iter().map(|g| export_party_a(&g.model)).collect(),
        model_b: export_party_b(&b.model),
    };

    // The global intersection (host ∩ every guest) is the planted
    // overlap, identical on all M + 1 parties.
    let want_ids: Vec<u64> = mis.overlap_rows.iter().map(|&r| sample_id(r)).collect();
    assert_eq!(align_b.ids, want_ids, "host intersection");
    for (i, a) in guest_aligns.iter().enumerate() {
        assert_eq!(a.ids, want_ids, "guest {i} intersection");
        assert!(a.psi_bytes_sent > 0, "guest {i} PSI cost");
    }
    // The host's total PSI cost is the sum of its per-link costs.
    assert_eq!(align_b.psi_bytes_sent, psi_b_per_link.iter().sum::<u64>());

    let psi_a: Vec<u64> = guest_aligns.iter().map(|a| a.psi_bytes_sent).collect();
    let net = aligned.minus_psi(&psi_a, &psi_b_per_link);
    assert_eq!(net, baseline, "PSI-aligned run diverged from pre-aligned");
}

#[test]
fn multi_guest_plain_in_process_psi_matches_pre_aligned() {
    assert_multi_parity(FedConfig::plain(), 256, 16, false);
}

#[test]
fn multi_guest_plain_tcp_psi_matches_pre_aligned() {
    assert_multi_parity(FedConfig::plain(), 256, 16, true);
}

#[test]
fn multi_guest_paillier_packed_in_process_psi_matches_pre_aligned() {
    assert_multi_parity(FedConfig::paillier_test(), 1024, 4, false);
}

#[test]
fn multi_guest_paillier_packed_tcp_psi_matches_pre_aligned() {
    assert_multi_parity(FedConfig::paillier_test(), 1024, 4, true);
}

/// Re-shuffle one party's local view: permute its feature rows and its
/// ID column with the *same* permutation (row identity is preserved;
/// only the local storage order changes). Seeded Fisher–Yates over an
/// LCG — the vendored proptest has no permutation strategy.
fn permuted(p: &MisalignedParty, seed: u64) -> MisalignedParty {
    let n = p.ids.len();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        perm.swap(i, (s >> 33) as usize % (i + 1));
    }
    MisalignedParty {
        data: p.data.select(&perm),
        ids: perm.iter().map(|&i| p.ids[i]).collect(),
    }
}

/// The aligned run every permuted case must reproduce exactly. Plain
/// backend, in-process, tiny data — each proptest case is a full
/// federated run.
fn permutation_canon() -> &'static (CellRun, Alignment, Alignment) {
    static CANON: OnceLock<(CellRun, Alignment, Alignment)> = OnceLock::new();
    CANON.get_or_init(|| {
        let ds = dataset_spec("a9a").scaled(1024, 1);
        let (train, test) = generate(&ds, DATA_SEED);
        let mis = vsplit_misaligned(&train, OVERLAP, DATA_SEED);
        let test_v = vsplit(&test);
        two_party_aligned(
            &FedConfig::plain(),
            false,
            &base_tc(4),
            mis.party_a.clone(),
            &mis.party_b,
            test_v.party_a.clone(),
            &test_v.party_b,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, .. ProptestConfig::default() })]

    /// Shuffling both parties' local rows changes nothing observable:
    /// losses, models, traffic totals (the digest sets are canonical
    /// ascending on the wire), intersection, and PSI byte costs all
    /// match the unpermuted run bit-for-bit. Only the private local
    /// row indices differ.
    #[test]
    fn aligned_runs_are_invariant_to_local_row_permutations(seed in any::<u64>()) {
        let (canon, canon_a, canon_b) = permutation_canon();
        let ds = dataset_spec("a9a").scaled(1024, 1);
        let (train, test) = generate(&ds, DATA_SEED);
        let mis = vsplit_misaligned(&train, OVERLAP, DATA_SEED);
        let test_v = vsplit(&test);
        let (run, align_a, align_b) = two_party_aligned(
            &FedConfig::plain(),
            false,
            &base_tc(4),
            permuted(&mis.party_a, seed ^ 0xA),
            &permuted(&mis.party_b, seed ^ 0xB),
            test_v.party_a.clone(),
            &test_v.party_b,
        );
        prop_assert_eq!(&run, canon);
        prop_assert_eq!(&align_a.ids, &canon_a.ids);
        prop_assert_eq!(&align_b.ids, &canon_b.ids);
        prop_assert_eq!(align_a.psi_bytes_sent, canon_a.psi_bytes_sent);
        prop_assert_eq!(align_b.psi_bytes_sent, canon_b.psi_bytes_sent);
    }
}

/// A reconnect-enabled TCP pair (the transport suite's idiom): the
/// accept side keeps its listener for re-accepts, the connect side
/// redials the address.
fn reconnecting_tcp_pair(window: usize, policy: RetryPolicy) -> (Endpoint, Endpoint) {
    let listener = Arc::new(TcpListener::bind("127.0.0.1:0").unwrap());
    let addr = listener.local_addr().unwrap();
    let t = std::thread::spawn(move || {
        Endpoint::tcp_connect(addr)
            .unwrap()
            .with_reconnect(Redial::Connect(addr), policy, window)
    });
    let host = Endpoint::tcp_accept(&listener).unwrap().with_reconnect(
        Redial::Accept(listener),
        policy,
        window,
    );
    (t.join().unwrap(), host)
}

/// PSI bytes land in [`bf_mpc::TrafficStats`] exactly once, even when
/// the link dies mid-phase and the transport replays frames across the
/// reconnect: a run severed right after the PSI offer reports the same
/// byte totals (and the same intersection) as an unsevered run,
/// because replayed frames bypass the stats counters by design.
#[test]
fn reconnect_replay_counts_psi_bytes_exactly_once() {
    let ids_host: Vec<u64> = (0..32).map(|i| 1_000 + 7 * i).collect();
    let ids_guest: Vec<u64> = (0..32).map(|i| 1_000 + 14 * i).collect();
    let salt = psi_salt(SEED);

    // The host side is driven frame-by-frame (the `psi_host` protocol,
    // unrolled) so the sever can land between the offer and the rest
    // of the phase; the guest side runs the real `psi_guest`.
    let run = |sever: bool| -> (Vec<u64>, u64, u64) {
        let (host, guest) = reconnecting_tcp_pair(8, RetryPolicy::default());
        let (tx, rx) = mpsc::channel::<()>();
        let ids_g = ids_guest.clone();
        let t = std::thread::spawn(move || {
            rx.recv().unwrap(); // hold until the sever (if any) happened
            let (got_salt, sel) = psi_guest(&guest, &ids_g).expect("guest PSI");
            (got_salt, sel, guest.stats().bytes())
        });
        host.send(Msg::PsiOffer {
            salt,
            count: ids_host.len() as u64,
        })
        .expect("offer");
        if sever {
            host.sever();
        }
        tx.send(()).unwrap();
        let theirs = host.recv_psi_digests().expect("guest digests");
        let mine = salted_digests(salt, &ids_host).expect("host digests");
        let common: Vec<u64> = mine
            .into_iter()
            .filter(|d| theirs.binary_search(d).is_ok())
            .collect();
        host.send(Msg::PsiDigests {
            digests: common.clone(),
        })
        .expect("echo common");
        let sel = select_common(salt, &ids_host, &common).expect("host selection");
        let (got_salt, guest_sel, guest_bytes) = t.join().expect("guest panicked");
        assert_eq!(got_salt, salt);
        assert_eq!(guest_sel.ids, sel.ids, "parties disagree on the set");
        (sel.ids, host.stats().bytes(), guest_bytes)
    };

    let (ids_clean, host_clean, guest_clean) = run(false);
    let (ids_severed, host_severed, guest_severed) = run(true);
    // Both parties really intersected something.
    assert_eq!(ids_clean.len(), 16);
    assert_eq!(ids_clean, ids_severed);
    // The severed run's reconnect + replay added zero counted bytes.
    assert_eq!(host_severed, host_clean, "host PSI bytes double-counted");
    assert_eq!(guest_severed, guest_clean, "guest PSI bytes double-counted");
}
