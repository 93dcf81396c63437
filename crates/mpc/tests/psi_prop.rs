//! Property tests for the PSI core against a `HashSet` oracle: over
//! random ID universes — including the empty, disjoint and
//! full-overlap corners — the salted-digest protocol must select
//! exactly the oracle intersection, in deterministic ascending-ID
//! order, invariantly under any permutation of either party's rows.

use std::collections::HashSet;

use bf_mpc::psi::{psi_digest, psi_guest, psi_host, salted_digests, select_common};
use bf_mpc::transport::channel_pair;
use bf_mpc::PsiSelection;
use proptest::prelude::*;

/// Distinct IDs drawn from a small universe (so overlap is common),
/// in ascending order — tests that need permuted rows apply
/// [`permute`] with a seed drawn as a separate strategy argument.
fn id_column(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..60, 0..=max_len).prop_map(|raw| {
        let mut v = raw;
        v.sort_unstable();
        v.dedup();
        v
    })
}

/// Cheap deterministic Fisher–Yates driven by an LCG.
fn permute(mut v: Vec<u64>, mut s: u64) -> Vec<u64> {
    for i in (1..v.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.swap(i, (s >> 33) as usize % (i + 1));
    }
    v
}

/// Run the real two-party protocol over an in-process pair.
fn run_psi(salt: u64, guest_ids: Vec<u64>, host_ids: Vec<u64>) -> (PsiSelection, PsiSelection) {
    let (a, b) = channel_pair();
    let guest = std::thread::spawn(move || psi_guest(&a, &guest_ids).unwrap().1);
    let host_sel = psi_host(&[&b], salt, &host_ids).unwrap();
    (guest.join().unwrap(), host_sel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn psi_matches_hashset_oracle(
        guest in id_column(40),
        host in id_column(40),
        salt in any::<u64>(),
        gs in any::<u64>(),
        hs in any::<u64>(),
    ) {
        let guest = permute(guest, gs);
        let host = permute(host, hs);
        let oracle: HashSet<u64> = guest
            .iter()
            .copied()
            .collect::<HashSet<u64>>()
            .intersection(&host.iter().copied().collect())
            .copied()
            .collect();
        let mut want: Vec<u64> = oracle.into_iter().collect();
        want.sort_unstable();

        let (gsel, hsel) = run_psi(salt, guest.clone(), host.clone());
        // Both parties agree with the oracle — and with each other.
        prop_assert_eq!(&gsel.ids, &want);
        prop_assert_eq!(&hsel.ids, &want);
        // The row maps point back at the right local rows.
        for (i, &row) in gsel.rows.iter().enumerate() {
            prop_assert_eq!(guest[row], gsel.ids[i]);
        }
        for (i, &row) in hsel.rows.iter().enumerate() {
            prop_assert_eq!(host[row], hsel.ids[i]);
        }
    }

    #[test]
    fn intersections_are_permutation_invariant(
        guest in id_column(30),
        host in id_column(30),
        salt in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // Re-permute both columns and re-run the protocol: the shared
        // ID list must not move. (The guest's *frames* cannot move
        // either — the wire form is a sorted set — so this pins the
        // whole phase, bytes included, as row-order independent.)
        let (g1, h1) = run_psi(salt, guest.clone(), host.clone());
        let (g2, h2) = run_psi(salt, permute(guest, seed), permute(host, !seed));
        prop_assert_eq!(g1.ids, g2.ids);
        prop_assert_eq!(h1.ids, h2.ids);
    }

    #[test]
    fn select_common_is_deterministic_and_sorted(
        ids in id_column(30),
        peer in id_column(30),
        salt in any::<u64>(),
    ) {
        let peer_digests = salted_digests(salt, &peer).unwrap();
        let a = select_common(salt, &ids, &peer_digests).unwrap();
        let b = select_common(salt, &ids, &peer_digests).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert!(a.ids.windows(2).all(|w| w[0] < w[1]), "ascending, no dups");
        prop_assert_eq!(a.ids.len(), a.rows.len());
    }

    #[test]
    fn digests_never_collide_over_the_test_universe(salt in any::<u64>()) {
        // Sanity floor under the collision-refusal contract: the
        // SplitMix64-based digest is injective over small universes.
        let ids: Vec<u64> = (0..512).collect();
        let digests: HashSet<u64> = ids.iter().map(|&id| psi_digest(salt, id)).collect();
        prop_assert_eq!(digests.len(), ids.len());
    }

    #[test]
    fn duplicate_ids_are_rejected(ids in id_column(20), dup_at in any::<usize>()) {
        prop_assume!(!ids.is_empty());
        let mut bad = ids.clone();
        bad.push(ids[dup_at % ids.len()]);
        prop_assert!(salted_digests(1, &bad).is_err());
    }
}

#[test]
fn degenerate_shapes() {
    // Empty vs empty, empty vs full, full overlap.
    let (g, h) = run_psi(5, vec![], vec![]);
    assert!(g.ids.is_empty() && h.ids.is_empty());
    let (g, h) = run_psi(5, vec![], vec![1, 2, 3]);
    assert!(g.ids.is_empty() && h.ids.is_empty());
    let (g, h) = run_psi(5, vec![3, 1, 2], vec![1, 2, 3]);
    assert_eq!(g.ids, vec![1, 2, 3]);
    assert_eq!(h.ids, vec![1, 2, 3]);
    assert_eq!(g.rows, vec![1, 2, 0]);
    assert_eq!(h.rows, vec![0, 1, 2]);
}
