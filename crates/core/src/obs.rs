//! Per-instruction pipeline event observation.
//!
//! The [`Processor`](crate::Processor) is generic over an [`Observer`]
//! whose hooks fire on the pipeline events of every in-flight
//! instruction: fetch (ROB insertion), issue (with the known completion
//! cycle), commit, and squash. The default [`NullObserver`] sets
//! [`Observer::ENABLED`] to `false`; every hook call in the processor is
//! guarded by that associated constant, so the no-observer instantiation
//! monomorphizes the hooks away entirely — tracing-off runs are
//! bit-identical to the pre-observer simulator, and a live observer
//! never moves simulated time (both pinned by the `golden_stats` and
//! `cycle_accounting` integration tests). No gate on a live observer's
//! wall-clock overhead exists yet.
//!
//! Concrete sinks (the Konata pipeline-trace writer) live in the
//! dependency-free `sfetch-obs` crate; the adapter implementing this
//! trait over them lives with the harness (`sfetch-bench`), keeping the
//! core ↛ obs dependency direction clean.

use sfetch_isa::Addr;

/// Receiver for per-instruction pipeline events.
///
/// Sequence numbers are the processor's fetch-order sequence (monotone,
/// never reused; wrong-path instructions included). All hooks have empty
/// defaults so sinks implement only what they need.
pub trait Observer {
    /// Whether this observer's hooks should be invoked at all. Hook call
    /// sites are guarded by `if O::ENABLED`, so a `false` observer
    /// compiles to nothing.
    const ENABLED: bool;

    /// An instruction entered the pipeline (ROB insertion at fetch
    /// verification). `wrong_path` marks instructions fetched past an
    /// unresolved mispredicted branch — they will be squashed, never
    /// committed.
    fn fetched(&mut self, now: u64, seq: u64, pc: Addr, wrong_path: bool) {
        let _ = (now, seq, pc, wrong_path);
    }

    /// An instruction issued to execute; its completion cycle is known.
    fn issued(&mut self, now: u64, seq: u64, done_at: u64) {
        let _ = (now, seq, done_at);
    }

    /// An instruction retired.
    fn committed(&mut self, now: u64, seq: u64) {
        let _ = (now, seq);
    }

    /// An instruction was squashed by a misprediction recovery or a
    /// watchdog resynchronization.
    fn squashed(&mut self, now: u64, seq: u64) {
        let _ = (now, seq);
    }
}

/// The disabled observer: every hook compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled<O: Observer>(_o: &O) -> bool {
        O::ENABLED
    }

    #[test]
    fn null_observer_is_disabled() {
        assert!(!enabled(&NullObserver));
        // The default hooks are callable no-ops.
        let mut o = NullObserver;
        o.fetched(0, 0, Addr::new(0), false);
        o.issued(1, 0, 2);
        o.committed(2, 0);
        o.squashed(2, 0);
    }
}
