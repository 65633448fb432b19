//! Deterministic fault injection: time-ordered schedules of hardware faults.
//!
//! Robustness experiments drive the simulated machine through PCIe link
//! flaps, physical-function failures, and lost interrupts. All faults are
//! declared up front in a [`FaultPlan`] — a time-ordered list of
//! [`FaultEvent`]s installed at experiment build time — so a run is exactly
//! as deterministic with faults as without: same seed + same plan ⇒
//! identical event sequence and identical counters.
//!
//! The plan speaks in raw PF indices (`usize`) rather than `pcie::PfId`
//! because `simcore` sits below the device crates; the experiment layer maps
//! indices to concrete endpoints when it applies each event.

use crate::time::Time;

/// What goes wrong (or comes back) at a fault instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The PCIe link behind the PF drops entirely: every in-flight and
    /// future transaction on it is lost until the link recovers.
    LinkDown,
    /// The link retrains to `lanes` lanes at generation `gen` (3 or 4):
    /// DMA transparently slows down, nothing is lost.
    LinkDegrade {
        /// Post-retrain lane count (1, 2, 4, 8, 16).
        lanes: u8,
        /// Post-retrain PCIe generation: 3 or 4.
        gen: u8,
    },
    /// The link retrains back to its configured width and speed.
    LinkRecover,
    /// The physical function fails: its queues die, in-flight descriptors
    /// complete with error status, and flows must fail over to a surviving
    /// PF.
    PfFail,
    /// The physical function comes back after a function-level reset.
    PfRecover,
    /// One interrupt from this PF's queues is silently lost; the driver's
    /// watchdog must notice and recover.
    IrqLoss,
    /// NVMe media fault: the drive's flash array returns uncorrectable
    /// errors for the next `errors` commands. The host sees command
    /// timeouts and must retry with bounded exponential backoff. For this
    /// kind the `pf` index names a *drive*, not a NIC PF; NIC-only hosts
    /// absorb it as a no-op.
    MediaFault {
        /// Consecutive commands that fail before the media heals.
        errors: u8,
    },
    /// Surprise hot-removal: the endpoint vanishes from the fabric without
    /// warning. Its device epoch is retired — completions and interrupts
    /// stamped with the old epoch are *fenced* (counted, never delivered) —
    /// and the driver must quiesce, drain, and rebind onto a surviving PF
    /// (legacy NUDMA mode when only one remains).
    SurpriseRemove,
    /// The removed endpoint re-enumerates: slot power-up plus link retrain
    /// latency, then a fresh device epoch. The driver rebinds rings and
    /// reinstalls steering behind the same fence, restoring uniform
    /// IOctopus mode.
    Reenumerate,
}

/// One scheduled fault: `kind` applied to PF index `pf` at time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: Time,
    /// Which physical function (raw index into the experiment's PF list).
    pub pf: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, time-ordered schedule of fault events.
///
/// Events inserted out of order are sorted on insertion (stable for equal
/// times: insertion order is preserved), so [`events`](FaultPlan::events)
/// always lists them in firing order regardless of how the plan was built.
///
/// # Example
/// ```
/// use simcore::{FaultKind, FaultPlan, Time};
///
/// let mut plan = FaultPlan::new();
/// plan.push(Time::from_ms(7), 0, FaultKind::PfRecover);
/// plan.push(Time::from_ms(4), 0, FaultKind::PfFail);
/// assert_eq!(plan.len(), 2);
/// let kinds: Vec<_> = plan.events().iter().map(|e| e.kind).collect();
/// assert_eq!(kinds, [FaultKind::PfFail, FaultKind::PfRecover]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan (no faults: the baseline healthy run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` on PF `pf` at `at`, keeping the plan time-sorted.
    pub fn push(&mut self, at: Time, pf: usize, kind: FaultKind) {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, FaultEvent { at, pf, kind });
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, at: Time, pf: usize, kind: FaultKind) -> Self {
        self.push(at, pf, kind);
        self
    }

    /// A PF outage window: `PfFail` at `fail_at`, `PfRecover` at
    /// `recover_at`.
    ///
    /// # Panics
    /// Panics if `recover_at <= fail_at`.
    pub fn pf_outage(pf: usize, fail_at: Time, recover_at: Time) -> Self {
        assert!(recover_at > fail_at, "recovery must follow the failure");
        Self::new()
            .with(fail_at, pf, FaultKind::PfFail)
            .with(recover_at, pf, FaultKind::PfRecover)
    }

    /// Total number of events in the plan.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan has no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_keeps_time_order() {
        let mut p = FaultPlan::new();
        p.push(Time::from_ms(5), 0, FaultKind::LinkRecover);
        p.push(Time::from_ms(1), 1, FaultKind::LinkDown);
        p.push(Time::from_ms(3), 0, FaultKind::IrqLoss);
        let ats: Vec<_> = p.events().iter().map(|e| e.at).collect();
        assert_eq!(
            ats,
            vec![Time::from_ms(1), Time::from_ms(3), Time::from_ms(5)]
        );
    }

    #[test]
    fn equal_times_preserve_insertion_order() {
        let mut p = FaultPlan::new();
        p.push(Time::from_ms(2), 0, FaultKind::PfFail);
        p.push(Time::from_ms(2), 1, FaultKind::PfFail);
        assert_eq!(p.events()[0].pf, 0);
        assert_eq!(p.events()[1].pf, 1);
    }

    #[test]
    fn overlapping_faults_on_same_pf_keep_insertion_order() {
        // Two outage windows on PF 0 that overlap (the second fail lands
        // while the first is still unrecovered) plus a link fault inside
        // the window: the plan must keep all of them, time-sorted, with
        // same-instant events in insertion order.
        let mut p = FaultPlan::new();
        p.push(Time::from_ms(1), 0, FaultKind::PfFail);
        p.push(Time::from_ms(3), 0, FaultKind::PfRecover);
        p.push(Time::from_ms(2), 0, FaultKind::PfFail); // overlaps the outage
        p.push(Time::from_ms(2), 0, FaultKind::LinkDown); // same instant, same PF
        assert_eq!(p.len(), 4);
        let due = p.events();
        assert_eq!(due[0].kind, FaultKind::PfFail);
        assert_eq!(due[1].kind, FaultKind::PfFail);
        assert_eq!(due[2].kind, FaultKind::LinkDown);
        assert_eq!(due[3].kind, FaultKind::PfRecover);
    }

    #[test]
    fn zero_gap_fail_recover_pair_fires_in_order() {
        // Fail and recover at the *same instant*: both fire at one time,
        // fail first (FIFO on equal times), so the applied state is
        // "recovered" — a flap of zero duration, not a stuck-dead PF.
        let t = Time::from_ms(4);
        let p = FaultPlan::new()
            .with(t, 1, FaultKind::PfFail)
            .with(t, 1, FaultKind::PfRecover);
        let due = p.events();
        assert_eq!(due.len(), 2);
        assert!(due.iter().all(|e| e.at == t));
        assert_eq!(due[0].kind, FaultKind::PfFail);
        assert_eq!(due[1].kind, FaultKind::PfRecover);
    }
}
