//! The `M`-guest link prologue (paper Appendix C deployments with one
//! process per guest): how a guest link is opened, written once.
//!
//! The protocol stack itself has no multi-guest half: the host model
//! ([`crate::models::PartyBModel`]) and the host MatMul layer
//! ([`crate::source::MatMulSource`]) run over a slice of guest links,
//! and every guest runs the two-party routines. What an `M`-guest
//! *deployment* adds is the prologue of each link:
//!
//! 1. the guest announces its slot with one [`Msg::Hello`] before the
//!    key handshake ([`send_hello`]);
//! 2. the host permutes its accepted endpoints by those hellos
//!    ([`collect_guests`]) — an arbitrary TCP accept order maps back
//!    onto the deterministic link order;
//! 3. both ends of link `i` handshake at the link's private seed
//!    ([`multi_party_seed`]), so an `M`-guest TCP deployment and the
//!    in-process harness are bit-identical.
//!
//! [`join_host`] is the guest half of that prologue and
//! [`accept_guests`] the host half; [`run_star`] runs both over channel
//! pairs, one scoped thread per guest — the `M`-guest sibling of
//! [`crate::session::run_pair`]. The hello belongs to this prologue,
//! not to the model stack: a host handed pre-ordered links never sees
//! one, so a two-party link ([`crate::session::run_pair`]) carries
//! none.
//!
//! Setup faults (a mis-sized endpoint set, a bad [`Msg::Hello`])
//! surface as typed [`TransportError::Setup`] errors, never panics — a
//! host facing a mis-configured guest refuses the link and stays up.

use bf_mpc::transport::{Endpoint, Msg, TransportError, TransportResult};

use crate::config::FedConfig;
use crate::session::{multi_party_seed, Role, Session};

/// Announce this guest's link slot to the host: the very first frame
/// on a fresh multi-guest connection, *before* the key handshake (see
/// `docs/WIRE_PROTOCOL.md`, kind 7). [`join_host`] sends it.
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
/// order or the job refuses to start. [`accept_guests`] runs it.
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

/// The guest half of the prologue: announce link `link` of `total`,
/// then handshake as Party A at the link's seed. `seed` is the shared
/// run seed, the one the host passes to [`accept_guests`].
pub fn join_host(
    ep: Endpoint,
    cfg: &FedConfig,
    link: usize,
    total: usize,
    seed: u64,
) -> TransportResult<Session> {
    send_hello(&ep, link, total)?;
    Session::handshake(
        ep,
        cfg.clone(),
        Role::A,
        multi_party_seed(Role::A, link, seed),
    )
}

/// The host half of the prologue over one accepted endpoint per guest,
/// in any order: put them into link order by their hellos, then
/// handshake each link as Party B at its seed, in link order. An empty
/// endpoint set is a [`TransportError::Setup`]. On any error the
/// endpoints are dropped, so every guest sees its link close.
pub fn accept_guests(
    endpoints: Vec<Endpoint>,
    cfg: &FedConfig,
    seed: u64,
) -> TransportResult<Vec<Session>> {
    if endpoints.is_empty() {
        return Err(TransportError::Setup(
            "an M-guest host needs at least one guest connection".into(),
        ));
    }
    let total = endpoints.len();
    collect_guests(endpoints, total)?
        .into_iter()
        .enumerate()
        .map(|(link, ep)| {
            Session::handshake(
                ep,
                cfg.clone(),
                Role::B,
                multi_party_seed(Role::B, link, seed),
            )
        })
        .collect()
}

/// The in-process `M`-guest harness: one scoped thread (16 MiB stack)
/// per entry of `guests`, each running [`join_host`] over its own
/// channel pair and then `guest_fn(guest, session)`, while the host
/// runs [`accept_guests`] and then `host_fn(sessions)` on the caller's
/// thread. Returns every guest's result in link order, and the
/// host's.
///
/// Each closure owns its links, so a party that fails or returns early
/// closes them and its peers see [`TransportError::Disconnected`]
/// instead of blocking — unless it hands its sessions back in its
/// result.
///
/// # Panics
///
/// If `guests` is empty, if a prologue fails (in-process channels
/// cannot), or if a guest panics.
pub fn run_star<G, RA, RB>(
    cfg: &FedConfig,
    seed: u64,
    guests: Vec<G>,
    guest_fn: impl Fn(G, Session) -> RA + Sync,
    host_fn: impl FnOnce(Vec<Session>) -> RB,
) -> (Vec<RA>, RB)
where
    G: Send,
    RA: Send,
{
    let total = guests.len();
    let guest_fn = &guest_fn;
    std::thread::scope(|s| {
        let (handles, host_eps): (Vec<_>, Vec<_>) = (guests.into_iter().enumerate())
            .map(|(link, guest)| {
                let (ep_a, ep_b) = bf_mpc::channel_pair();
                let handle = std::thread::Builder::new()
                    .name(format!("guest-{link}"))
                    .stack_size(16 << 20)
                    .spawn_scoped(s, move || {
                        let sess = join_host(ep_a, cfg, link, total, seed)
                            .expect("in-process guest prologue");
                        guest_fn(guest, sess)
                    })
                    .expect("spawn guest");
                (handle, ep_b)
            })
            .unzip();
        let sessions = accept_guests(host_eps, cfg, seed).expect("in-process host prologue");
        let host = host_fn(sessions);
        let guests = handles
            .into_iter()
            .map(|h| h.join().expect("guest panicked"))
            .collect();
        (guests, host)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    fn setup_err<T>(res: TransportResult<T>) -> String {
        match res {
            Err(TransportError::Setup(why)) => why,
            Err(other) => panic!("expected TransportError::Setup, got {other:?}"),
            Ok(_) => panic!("expected TransportError::Setup, got Ok"),
        }
    }

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
        // No connection at all.
        let why = setup_err(accept_guests(Vec::new(), &FedConfig::plain(), 1));
        assert!(why.contains("at least one"), "unexpected message: {why}");
    }

    #[test]
    fn a_host_that_returns_early_disconnects_every_guest() {
        // Every guest finishes its prologue and blocks in `recv`; the
        // host returns without sending. Its links close with it, so each
        // guest's `recv` fails and `run_star` returns.
        let (done, outcome) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let ready = Barrier::new(4);
            let (guests, ()) = run_star(
                &FedConfig::plain(),
                5,
                vec![(); 3],
                |(), sess| {
                    ready.wait();
                    sess.ep.recv_u64()
                },
                |_sessions| {
                    ready.wait();
                },
            );
            done.send(guests).unwrap();
        });
        let guests = outcome
            .recv_timeout(Duration::from_secs(60))
            .expect("run_star hung on a host that returned early");
        runner.join().unwrap();
        assert_eq!(guests.len(), 3);
        for got in guests {
            assert!(matches!(got, Err(TransportError::Disconnected)), "{got:?}");
        }
    }

    #[test]
    fn tcp_links_in_any_accept_order_get_run_stars_keys() {
        // Three guests connect over TCP in reverse link order; after the
        // prologue, link i holds the key pairs link i of `run_star`
        // holds at the same seed: a deployment and the in-process
        // harness derive every link's seed alike.
        let (cfg, m, seed) = (FedConfig::paillier_test(), 3, 17);
        let keys = |sess: &Session| {
            (
                bf_paillier::export_public(&sess.own_pk),
                bf_paillier::export_public(&sess.peer_pk),
            )
        };
        let (star_guests, star_host) = run_star(
            &cfg,
            seed,
            (0..m).collect(),
            |_, sess| keys(&sess),
            |sessions| sessions.iter().map(keys).collect::<Vec<_>>(),
        );

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tcp_guests, tcp_host) = std::thread::scope(|s| {
            let (cfg, listener) = (&cfg, &listener);
            let handles: Vec<_> = (0..m)
                .rev()
                .map(|link| {
                    let ep = Endpoint::tcp_connect(addr).unwrap();
                    let handle = s.spawn(move || keys(&join_host(ep, cfg, link, m, seed).unwrap()));
                    (link, handle)
                })
                .collect();
            let accepted = (0..m)
                .map(|_| Endpoint::tcp_accept(listener).unwrap())
                .collect();
            let sessions = accept_guests(accepted, cfg, seed).unwrap();
            let mut guests: Vec<_> = handles
                .into_iter()
                .map(|(link, h)| (link, h.join().unwrap()))
                .collect();
            guests.sort_by_key(|&(link, _)| link);
            let guests: Vec<_> = guests.into_iter().map(|(_, k)| k).collect();
            (guests, sessions.iter().map(keys).collect::<Vec<_>>())
        });
        assert_eq!(tcp_guests, star_guests);
        assert_eq!(tcp_host, star_host);
        // Each link's two ends agree, and no two links share a key.
        for (link, (guest, (h_own, h_peer))) in tcp_guests.iter().zip(&tcp_host).enumerate() {
            assert_eq!(guest, &(h_peer.clone(), h_own.clone()), "link {link}");
        }
        let owns: std::collections::HashSet<_> = tcp_host.iter().map(|(own, _)| own).collect();
        assert_eq!(owns.len(), m);
    }
}
