//! The multi-guest connection fan-in (paper Appendix C deployments
//! with one process per guest).
//!
//! The protocol stack itself has no multi-guest half: the host model
//! ([`crate::models::PartyBModel`]) and the host MatMul layer
//! ([`crate::source::MatMulSource`]) run over a slice of guest links,
//! and every guest runs the two-party routines. What an `M`-guest
//! *deployment* adds is an arbitrary TCP accept order, and this module
//! maps it back onto the deterministic link order: each guest announces
//! its slot with one [`Msg::Hello`] before the key handshake
//! ([`send_hello`]), and the host permutes the accepted endpoints by it
//! ([`collect_guests`]). The hello belongs to this fan-in, not to the
//! model stack — a host handed pre-ordered links never sees one, so a
//! two-party link carries none.
//!
//! Setup faults (a mis-sized endpoint set, a bad [`Msg::Hello`])
//! surface as typed [`TransportError::Setup`] errors, never panics — a
//! host facing a mis-configured guest refuses the link and stays up.

use bf_mpc::transport::{Endpoint, Msg, TransportError, TransportResult};

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
    }
}
