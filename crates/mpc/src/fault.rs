//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] scripts exactly one failure into a training run:
//! *what* happens ([`FaultAction`]) and *when* (after batch
//! `at_batch` completes, counting batches from 0 across the whole
//! run). The trainer checks the plan at its per-batch boundary, so an
//! injected fault lands at the same instruction-stream position on
//! every backend and transport — which is what lets the chaos harness
//! (`tests/chaos_parity.rs`) assert *bit-identical* recovery rather
//! than approximate recovery.
//!
//! Plans are built in code (`tests/chaos_parity.rs` scripts one per
//! cell).

use std::time::Duration;

/// What the injected failure does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Abort the party's run with a typed error — simulates a process
    /// kill. Recovery is checkpoint resume, not reconnection.
    Kill,
    /// Sever the transport link ([`crate::Endpoint::sever`]) while the
    /// party stays up — simulates a dropped connection. Recovery is
    /// transparent reconnect + replay.
    Drop,
    /// Stall the party for the given duration — simulates a GC pause /
    /// network brown-out. Nothing to recover; the run must simply
    /// tolerate it without changing a byte.
    Delay(Duration),
}

/// One scripted failure: do `action` once the batch with this 0-based
/// run-wide index has completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Run-wide batch index (counted across epochs) after which the
    /// fault fires.
    pub at_batch: u64,
    /// The failure to inject.
    pub action: FaultAction,
}

impl FaultPlan {
    /// True if the fault fires after the batch with this run-wide
    /// index.
    pub fn fires_after(&self, batch: u64) -> bool {
        self.at_batch == batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once() {
        let plan = FaultPlan {
            at_batch: 2,
            action: FaultAction::Kill,
        };
        let fired: Vec<u64> = (0..5).filter(|&b| plan.fires_after(b)).collect();
        assert_eq!(fired, vec![2]);
    }
}
