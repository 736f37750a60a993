//! # paratick-vmm — KVM-like hypervisor model
//!
//! Models the hypervisor half of the system the paper modifies:
//!
//! * [`exit`] — the VM-exit taxonomy with the per-reason classification
//!   the paper's metrics depend on (timer-related vs other exits).
//! * [`cost`] — the calibrated cost model: direct cycles spent in root
//!   mode per exit reason plus indirect cycles (TLB/µarch pollution paid
//!   by the guest after re-entry), injection and wakeup costs.
//! * [`vcpu`] — per-vCPU state: the run-state machine, the virtual LAPIC,
//!   the trapped `TSC_DEADLINE` register, the LAPIC oneshot fallback
//!   timer, and the paratick `last_tick` field (paper §5.1).
//! * [`pcpu`] — per-physical-CPU cycle accounting with exact (nanosecond)
//!   conservation.
//! * [`host_sched`] — time-sliced fair sharing of pCPUs among vCPUs, with
//!   per-vCPU affinity (the paper pins VMs to sockets).
//! * [`paratick_host`] — the host side of paratick: the VM-entry
//!   injection decision of Figure 2.
//! * [`halt_poll`] — KVM-style adaptive halt polling (disabled in the
//!   paper's evaluation; kept for ablation).
//! * [`ple`] — pause-loop-exiting model (likewise disabled/ablatable).
//! * [`hypercall`] — the guest→host call used by paratick to declare the
//!   guest tick frequency at boot (paper §4.1).
//! * [`event`] — the structured [`event::SimEvent`] stream and the
//!   pluggable [`event::EventSink`] observability interface.
//! * [`accounting`] — system-wide exit and cycle aggregation.
//! * [`error`] — the typed [`error::SimError`] returned by fallible
//!   engine entry points instead of panicking.
//! * [`fault`] — deterministic fault injection: seeded [`fault::FaultPlan`]
//!   schedules, the `PARATICK_FAULTS` spec, retry/backoff policy and the
//!   TSC-deadline → LAPIC-oneshot degradation ladder.
//!
//! Everything here is pure state + decision logic; the event loop that
//! drives it lives in the `paratick` core crate's engine.

pub mod accounting;
pub mod cost;
pub mod error;
pub mod event;
pub mod exit;
pub mod fault;
pub mod halt_poll;
pub mod host_sched;
pub mod hypercall;
pub mod paratick_host;
pub mod pcpu;
pub mod ple;
pub mod vcpu;

pub use accounting::SystemStats;
pub use cost::CostModel;
pub use error::SimError;
pub use event::{CollectSink, CollectedEvents, EventKind, EventSink, SimEvent};
pub use exit::{ExitCounts, ExitReason};
pub use fault::{FaultConfig, FaultKind, FaultPlan, FaultStats, RetryPolicy, TimerBackend};
pub use halt_poll::{HaltPoll, PollOutcome};
pub use host_sched::{HostScheduler, PcpuId, SchedDecision};
pub use hypercall::{Hypercall, HypercallResult};
pub use paratick_host::{InjectDecision, ParatickHost};
pub use pcpu::{CycleCategory, PCpu};
pub use vcpu::{KvmVcpu, VcpuId, VcpuRunState};
