//! Structured simulation events and the pluggable sink interface.
//!
//! The paper's whole argument is a ledger of *which events happen when*:
//! VM exits, `TSC_DEADLINE` writes, tick injections, idle entries and
//! exits (§3.1–§3.3). [`SimEvent`] is that ledger as a typed stream. The
//! engine emits one event per interesting transition; any number of
//! [`EventSink`]s consume them — the legacy string trace, the Perfetto
//! timeline exporter, time-series samplers, test collectors.
//!
//! Emission is never free: the engine's always-on invariant auditor
//! consumes every event, whether or not a sink is attached.
//!
//! Events carry only `Copy` data (ids, reasons, nanosecond counts), so a
//! sink can buffer them without lifetimes and two identically-seeded
//! runs produce byte-identical streams (`Debug`/`PartialEq` derived).

use crate::exit::ExitReason;
use crate::fault::FaultKind;
use crate::host_sched::PcpuId;
use crate::vcpu::VcpuId;
use paratick_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// One structured simulation event.
///
/// The timestamp is *not* part of the event: sinks receive it alongside
/// (`EventSink::on_event`), because the same event value can be rendered
/// against different clocks (sim time, track-relative time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimEvent {
    /// A vCPU left guest mode. `pollution_ns` is the vCPU's outstanding
    /// indirect-cost debt (µarch pollution) after this exit.
    VmExit {
        vcpu: VcpuId,
        reason: ExitReason,
        pollution_ns: u64,
    },
    /// The guest armed its `TSC_DEADLINE` timer for `deadline`.
    TimerProgram { vcpu: VcpuId, deadline: SimTime },
    /// The guest disarmed its `TSC_DEADLINE` timer.
    TimerCancel { vcpu: VcpuId },
    /// The host injected an interrupt batch into a vCPU.
    /// `virtual_tick` marks paratick's vector-235 tick injections.
    Inject { vcpu: VcpuId, virtual_tick: bool },
    /// A vCPU executed HLT and blocked.
    IdleEnter { vcpu: VcpuId, pcpu: PcpuId },
    /// A halted vCPU woke up after `idle_ns` nanoseconds (the paper's
    /// `T_idle` sample).
    IdleExit {
        vcpu: VcpuId,
        pcpu: PcpuId,
        idle_ns: u64,
    },
    /// The host scheduler put a vCPU on a pCPU. `run_queue` is the
    /// number of vCPUs still waiting on that pCPU.
    Dispatch {
        vcpu: VcpuId,
        pcpu: PcpuId,
        run_queue: u32,
    },
    /// The host scheduler preempted a vCPU at slice expiry.
    Preempt {
        vcpu: VcpuId,
        pcpu: PcpuId,
        run_queue: u32,
    },
    /// The host scheduler tick fired on a busy pCPU.
    HostTick { pcpu: PcpuId },
    /// The guest declared its tick frequency via hypercall (§4.1).
    Hypercall {
        vcpu: VcpuId,
        tick_hz: u64,
        rate_adapted: bool,
    },
    /// Halt-polling verdict for a wake: `hit` means the wake landed
    /// inside the poll window and the vCPU never truly blocked.
    HaltPoll { vcpu: VcpuId, hit: bool },
    /// §5.2.1 staged boot: the vCPU switched from the boot-time periodic
    /// tick to its configured mode.
    BootSwitch { vcpu: VcpuId },
    /// Every thread of a VM's workload finished.
    WorkloadDone { vm: u32 },
    /// A programmed oneshot timer expired and its interrupt was raised
    /// (closes the `TimerProgram` lifecycle for the auditor).
    TimerFire { vcpu: VcpuId },
    /// The fault layer injected a disturbance. `vcpu` is set when the
    /// fault targets exactly one vCPU (lost/coalesced IRQs, drift).
    FaultInjected {
        kind: FaultKind,
        vcpu: Option<VcpuId>,
    },
    /// The soft-lockup watchdog re-delivered a lost timer expiration.
    WatchdogRecovery { vcpu: VcpuId },
    /// Degradation ladder: the vCPU fell back from TSC-deadline to the
    /// LAPIC oneshot timer backend.
    TimerFallback { vcpu: VcpuId },
    /// Degradation ladder: the vCPU abandoned paratick for dynticks
    /// after exhausting the declare-hypercall retry budget.
    ParavirtFallback { vcpu: VcpuId },
    /// The declare-tick-freq hypercall failed (attempt is 1-based).
    HypercallFailed { vcpu: VcpuId, attempt: u32 },
}

/// The kind of a [`SimEvent`], for per-kind counters and filtering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum EventKind {
    VmExit,
    TimerProgram,
    TimerCancel,
    Inject,
    IdleEnter,
    IdleExit,
    Dispatch,
    Preempt,
    HostTick,
    Hypercall,
    HaltPoll,
    BootSwitch,
    WorkloadDone,
    TimerFire,
    FaultInjected,
    WatchdogRecovery,
    TimerFallback,
    ParavirtFallback,
    HypercallFailed,
}

impl EventKind {
    pub const COUNT: usize = 19;

    pub const ALL: [EventKind; Self::COUNT] = [
        EventKind::VmExit,
        EventKind::TimerProgram,
        EventKind::TimerCancel,
        EventKind::Inject,
        EventKind::IdleEnter,
        EventKind::IdleExit,
        EventKind::Dispatch,
        EventKind::Preempt,
        EventKind::HostTick,
        EventKind::Hypercall,
        EventKind::HaltPoll,
        EventKind::BootSwitch,
        EventKind::WorkloadDone,
        EventKind::TimerFire,
        EventKind::FaultInjected,
        EventKind::WatchdogRecovery,
        EventKind::TimerFallback,
        EventKind::ParavirtFallback,
        EventKind::HypercallFailed,
    ];

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            EventKind::VmExit => "vm_exit",
            EventKind::TimerProgram => "timer_program",
            EventKind::TimerCancel => "timer_cancel",
            EventKind::Inject => "inject",
            EventKind::IdleEnter => "idle_enter",
            EventKind::IdleExit => "idle_exit",
            EventKind::Dispatch => "dispatch",
            EventKind::Preempt => "preempt",
            EventKind::HostTick => "host_tick",
            EventKind::Hypercall => "hypercall",
            EventKind::HaltPoll => "halt_poll",
            EventKind::BootSwitch => "boot_switch",
            EventKind::WorkloadDone => "workload_done",
            EventKind::TimerFire => "timer_fire",
            EventKind::FaultInjected => "fault_injected",
            EventKind::WatchdogRecovery => "watchdog_recovery",
            EventKind::TimerFallback => "timer_fallback",
            EventKind::ParavirtFallback => "paravirt_fallback",
            EventKind::HypercallFailed => "hypercall_failed",
        }
    }
}

impl SimEvent {
    pub fn kind(&self) -> EventKind {
        match self {
            SimEvent::VmExit { .. } => EventKind::VmExit,
            SimEvent::TimerProgram { .. } => EventKind::TimerProgram,
            SimEvent::TimerCancel { .. } => EventKind::TimerCancel,
            SimEvent::Inject { .. } => EventKind::Inject,
            SimEvent::IdleEnter { .. } => EventKind::IdleEnter,
            SimEvent::IdleExit { .. } => EventKind::IdleExit,
            SimEvent::Dispatch { .. } => EventKind::Dispatch,
            SimEvent::Preempt { .. } => EventKind::Preempt,
            SimEvent::HostTick { .. } => EventKind::HostTick,
            SimEvent::Hypercall { .. } => EventKind::Hypercall,
            SimEvent::HaltPoll { .. } => EventKind::HaltPoll,
            SimEvent::BootSwitch { .. } => EventKind::BootSwitch,
            SimEvent::WorkloadDone { .. } => EventKind::WorkloadDone,
            SimEvent::TimerFire { .. } => EventKind::TimerFire,
            SimEvent::FaultInjected { .. } => EventKind::FaultInjected,
            SimEvent::WatchdogRecovery { .. } => EventKind::WatchdogRecovery,
            SimEvent::TimerFallback { .. } => EventKind::TimerFallback,
            SimEvent::ParavirtFallback { .. } => EventKind::ParavirtFallback,
            SimEvent::HypercallFailed { .. } => EventKind::HypercallFailed,
        }
    }

    /// The vCPU this event concerns, when it concerns exactly one.
    pub fn vcpu(&self) -> Option<VcpuId> {
        match *self {
            SimEvent::VmExit { vcpu, .. }
            | SimEvent::TimerProgram { vcpu, .. }
            | SimEvent::TimerCancel { vcpu }
            | SimEvent::Inject { vcpu, .. }
            | SimEvent::IdleEnter { vcpu, .. }
            | SimEvent::IdleExit { vcpu, .. }
            | SimEvent::Dispatch { vcpu, .. }
            | SimEvent::Preempt { vcpu, .. }
            | SimEvent::Hypercall { vcpu, .. }
            | SimEvent::HaltPoll { vcpu, .. }
            | SimEvent::BootSwitch { vcpu }
            | SimEvent::TimerFire { vcpu }
            | SimEvent::WatchdogRecovery { vcpu }
            | SimEvent::TimerFallback { vcpu }
            | SimEvent::ParavirtFallback { vcpu }
            | SimEvent::HypercallFailed { vcpu, .. } => Some(vcpu),
            SimEvent::FaultInjected { vcpu, .. } => vcpu,
            SimEvent::HostTick { .. } | SimEvent::WorkloadDone { .. } => None,
        }
    }
}

/// Consumer of the structured event stream.
///
/// Sinks are attached to the engine before a run and receive every event
/// in dispatch order; `finish` fires once, at the simulated end time, so
/// span-building sinks can close whatever is still open.
pub trait EventSink {
    fn on_event(&mut self, t: SimTime, ev: &SimEvent);
    fn finish(&mut self, _end: SimTime) {}
}

/// Shared handle to events captured by a [`CollectSink`].
pub type CollectedEvents = Rc<RefCell<Vec<(SimTime, SimEvent)>>>;

/// Test/debug sink: buffers every event. The engine owns the sink, so
/// the captured stream is read through the shared handle after the run.
pub struct CollectSink {
    events: CollectedEvents,
}

impl CollectSink {
    pub fn new() -> (Self, CollectedEvents) {
        let events: CollectedEvents = Rc::new(RefCell::new(Vec::new()));
        (
            CollectSink {
                events: events.clone(),
            },
            events,
        )
    }
}

impl EventSink for CollectSink {
    fn on_event(&mut self, t: SimTime, ev: &SimEvent) {
        self.events.borrow_mut().push((t, *ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_match_all_order() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::COUNT);
    }

    #[test]
    fn event_kind_mapping() {
        let v = VcpuId::new(0, 0);
        assert_eq!(
            SimEvent::TimerCancel { vcpu: v }.kind(),
            EventKind::TimerCancel
        );
        assert_eq!(
            SimEvent::WorkloadDone { vm: 3 }.kind(),
            EventKind::WorkloadDone
        );
        assert_eq!(SimEvent::WorkloadDone { vm: 3 }.vcpu(), None);
        assert_eq!(SimEvent::HaltPoll { vcpu: v, hit: true }.vcpu(), Some(v));
    }

    #[test]
    fn collect_sink_buffers_in_order() {
        let (mut sink, events) = CollectSink::new();
        let v = VcpuId::new(1, 0);
        sink.on_event(SimTime::from_nanos(5), &SimEvent::TimerCancel { vcpu: v });
        sink.on_event(
            SimTime::from_nanos(9),
            &SimEvent::Inject {
                vcpu: v,
                virtual_tick: true,
            },
        );
        sink.finish(SimTime::from_nanos(10));
        let ev = events.borrow();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].0, SimTime::from_nanos(5));
        assert_eq!(ev[1].1.kind(), EventKind::Inject);
    }
}
