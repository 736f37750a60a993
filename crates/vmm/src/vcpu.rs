//! Per-vCPU hypervisor state.
//!
//! `KvmVcpu` corresponds to KVM's `struct kvm_vcpu` plus the pieces of
//! VMCS state this study depends on. The paratick patch adds exactly one
//! field here — `last_tick`, "the time of the last virtual tick
//! injection" (paper §5.1) — and we keep it in the same place.
//!
//! The run-state machine:
//!
//! ```text
//!            schedule               HLT (guest idle)
//! Runnable ───────────▶ Running ───────────────────▶ Halted
//!    ▲  ▲                  │                            │
//!    │  └──────────────────┘ preempt / slice end        │
//!    └──────────────────────────────────────────────────┘
//!                     wake (irq / timer)
//! ```
//!
//! Illegal transitions return a typed [`SimError`]: a simulation that
//! mis-drives the state machine must fail loudly — but as a value the
//! caller can surface, not a panic that aborts a whole campaign.

use crate::error::SimError;
use crate::exit::{ExitCounts, ExitReason};
use crate::fault::TimerBackend;
use crate::host_sched::PcpuId;
use paratick_hw::{Lapic, LapicOneshot, Tsc, TscDeadline};
use paratick_sim::{Freq, SimDuration, SimTime};
use std::fmt;

/// Identifies a vCPU: VM index plus vCPU index within the VM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VcpuId {
    pub vm: u32,
    pub vcpu: u32,
}

impl VcpuId {
    pub fn new(vm: u32, vcpu: u32) -> Self {
        VcpuId { vm, vcpu }
    }
}

impl fmt::Debug for VcpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}:vcpu{}", self.vm, self.vcpu)
    }
}

impl fmt::Display for VcpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Scheduling state of a vCPU as seen by the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcpuRunState {
    /// Waiting for a pCPU.
    Runnable,
    /// Executing guest code on a pCPU.
    Running,
    /// Executed HLT; waiting for an interrupt.
    Halted,
}

/// Per-vCPU statistics.
#[derive(Clone, Debug, Default)]
pub struct VcpuStats {
    pub exits: ExitCounts,
    /// VM entries (== exits unless the simulation ends mid-exit).
    pub entries: u64,
    /// Interrupts injected on entry.
    pub injections: u64,
    /// Paratick virtual ticks injected (subset of `injections`).
    pub virtual_ticks: u64,
    /// Wakeups from Halted.
    pub wakeups: u64,
    /// Time spent Halted.
    pub halted_time: SimDuration,
    /// Number of idle (halted) periods, for mean-idle-period metrics.
    pub idle_periods: u64,
}

impl VcpuStats {
    /// Mean halted period (the paper's `T_idle`).
    pub fn mean_idle_period(&self) -> Option<SimDuration> {
        if self.idle_periods == 0 {
            None
        } else {
            Some(self.halted_time / self.idle_periods)
        }
    }
}

/// Hypervisor-side state of one vCPU.
#[derive(Clone, Debug)]
pub struct KvmVcpu {
    pub id: VcpuId,
    state: VcpuRunState,
    /// pCPU this vCPU has affinity to (the paper pins VMs to sockets).
    pub affinity: PcpuId,
    /// Guest-visible TSC (with KVM's per-VM offset folded in).
    pub guest_tsc: Tsc,
    /// Virtual LAPIC pending-interrupt state.
    pub lapic: Lapic,
    /// The trapped guest `TSC_DEADLINE` register.
    pub deadline: TscDeadline,
    /// LAPIC initial-count oneshot timer — the fallback backend when
    /// the deadline path proves unreliable under fault injection.
    pub oneshot: LapicOneshot,
    /// Which rung of the timer degradation ladder this vCPU is on.
    pub timer_backend: TimerBackend,
    /// Deadline-timer faults observed (lost expirations); drives the
    /// TSC-deadline → LAPIC-oneshot demotion decision.
    pub timer_fault_score: u32,
    /// Paratick: time of the last (virtual) tick injection (§5.1).
    pub last_tick: SimTime,
    /// Paratick: tick period declared by the guest via hypercall (§4.1);
    /// `None` until declared (paratick disabled for this vCPU until then).
    pub declared_tick_period: Option<SimDuration>,
    /// When the current Halted period began (valid while Halted).
    halted_since: Option<SimTime>,
    pub stats: VcpuStats,
}

impl KvmVcpu {
    pub fn new(id: VcpuId, affinity: PcpuId, tsc_freq: Freq, guest_boot: SimTime) -> Self {
        KvmVcpu {
            id,
            state: VcpuRunState::Runnable,
            affinity,
            guest_tsc: Tsc::for_guest(tsc_freq, guest_boot),
            lapic: Lapic::new(),
            deadline: TscDeadline::new(),
            oneshot: LapicOneshot::default(),
            timer_backend: TimerBackend::TscDeadline,
            timer_fault_score: 0,
            last_tick: guest_boot,
            declared_tick_period: None,
            halted_since: None,
            stats: VcpuStats::default(),
        }
    }

    pub fn state(&self) -> VcpuRunState {
        self.state
    }

    pub fn is_running(&self) -> bool {
        self.state == VcpuRunState::Running
    }

    pub fn is_halted(&self) -> bool {
        self.state == VcpuRunState::Halted
    }

    fn illegal(&self, to: &'static str) -> SimError {
        SimError::IllegalTransition {
            vcpu: self.id,
            from: self.state,
            to,
        }
    }

    /// Host scheduler dispatched this vCPU onto a pCPU.
    pub fn set_running(&mut self) -> Result<(), SimError> {
        match self.state {
            VcpuRunState::Runnable => {
                self.state = VcpuRunState::Running;
                self.stats.entries += 1;
                Ok(())
            }
            _ => Err(self.illegal("Running")),
        }
    }

    /// The vCPU was descheduled (slice end / preemption) but remains
    /// runnable.
    pub fn set_preempted(&mut self) -> Result<(), SimError> {
        match self.state {
            VcpuRunState::Running => {
                self.state = VcpuRunState::Runnable;
                Ok(())
            }
            _ => Err(self.illegal("Runnable")),
        }
    }

    /// The guest executed HLT.
    pub fn set_halted(&mut self, now: SimTime) -> Result<(), SimError> {
        match self.state {
            VcpuRunState::Running => {
                self.state = VcpuRunState::Halted;
                self.halted_since = Some(now);
                self.stats.idle_periods += 1;
                Ok(())
            }
            _ => Err(self.illegal("Halted")),
        }
    }

    /// An interrupt (or timer) woke the halted vCPU.
    pub fn wake(&mut self, now: SimTime) -> Result<(), SimError> {
        match self.state {
            VcpuRunState::Halted => {
                self.state = VcpuRunState::Runnable;
                self.stats.wakeups += 1;
                if let Some(since) = self.halted_since.take() {
                    self.stats.halted_time += now.since(since);
                }
                Ok(())
            }
            _ => Err(self.illegal("wake")),
        }
    }

    /// Expiry of whichever timer backend is currently armed, if any.
    pub fn armed_timer_expiry(&self) -> Option<SimTime> {
        match self.timer_backend {
            TimerBackend::TscDeadline => self.deadline.expiry(),
            TimerBackend::LapicOneshot => self.oneshot.expiry(),
        }
    }

    /// Demote this vCPU one rung down the timer degradation ladder
    /// (TSC-deadline → LAPIC oneshot). Returns `true` if a demotion
    /// actually happened.
    pub fn demote_timer_backend(&mut self) -> bool {
        if self.timer_backend == TimerBackend::TscDeadline {
            self.timer_backend = TimerBackend::LapicOneshot;
            true
        } else {
            false
        }
    }

    /// When the current Halted period began (None unless Halted).
    pub fn halted_since(&self) -> Option<SimTime> {
        self.halted_since
    }

    /// Record a VM exit for this vCPU.
    pub fn record_exit(&mut self, reason: ExitReason) {
        debug_assert_eq!(
            self.state,
            VcpuRunState::Running,
            "{}: exit while not running",
            self.id
        );
        self.stats.exits.record(reason);
    }

    /// Record an interrupt injection on VM entry.
    pub fn record_injection(&mut self, virtual_tick: bool) {
        self.stats.injections += 1;
        if virtual_tick {
            self.stats.virtual_ticks += 1;
        }
    }

    /// Whether paratick is active for this vCPU (the guest has declared
    /// its tick frequency via hypercall, §4.1).
    pub fn paratick_enabled(&self) -> bool {
        self.declared_tick_period.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vcpu() -> KvmVcpu {
        KvmVcpu::new(
            VcpuId::new(0, 0),
            PcpuId(0),
            Freq::ghz(2),
            SimTime::from_millis(1),
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn lifecycle_runnable_running_halted_wake() {
        let mut v = vcpu();
        assert_eq!(v.state(), VcpuRunState::Runnable);
        v.set_running().unwrap();
        assert!(v.is_running());
        v.set_halted(t(5)).unwrap();
        assert!(v.is_halted());
        v.wake(t(9)).unwrap();
        assert_eq!(v.state(), VcpuRunState::Runnable);
        assert_eq!(v.stats.wakeups, 1);
        assert_eq!(v.stats.halted_time, SimDuration::from_millis(4));
        assert_eq!(v.stats.idle_periods, 1);
    }

    #[test]
    fn preemption_keeps_runnable() {
        let mut v = vcpu();
        v.set_running().unwrap();
        v.set_preempted().unwrap();
        assert_eq!(v.state(), VcpuRunState::Runnable);
        v.set_running().unwrap();
        assert!(v.is_running());
        assert_eq!(v.stats.entries, 2);
    }

    #[test]
    fn double_running_is_error() {
        let mut v = vcpu();
        v.set_running().unwrap();
        let err = v.set_running().unwrap_err();
        assert!(matches!(
            err,
            SimError::IllegalTransition {
                from: VcpuRunState::Running,
                to: "Running",
                ..
            }
        ));
        // The failed transition left the state untouched.
        assert!(v.is_running());
        assert_eq!(v.stats.entries, 1);
    }

    #[test]
    fn wake_when_running_is_error() {
        let mut v = vcpu();
        v.set_running().unwrap();
        let err = v.wake(t(3)).unwrap_err();
        assert!(err.to_string().contains("illegal transition"));
        assert_eq!(v.stats.wakeups, 0);
    }

    #[test]
    fn halt_when_runnable_is_error() {
        let mut v = vcpu();
        assert!(v.set_halted(t(2)).is_err());
        assert_eq!(v.state(), VcpuRunState::Runnable);
        assert_eq!(v.stats.idle_periods, 0);
    }

    #[test]
    fn timer_backend_demotion_ladder() {
        let mut v = vcpu();
        assert_eq!(v.timer_backend, crate::fault::TimerBackend::TscDeadline);
        assert!(v.demote_timer_backend());
        assert_eq!(v.timer_backend, crate::fault::TimerBackend::LapicOneshot);
        assert!(!v.demote_timer_backend(), "already at the bottom rung");
    }

    #[test]
    fn armed_timer_expiry_follows_backend() {
        let mut v = vcpu();
        assert_eq!(v.armed_timer_expiry(), None);
        let when = t(5);
        v.deadline.arm_at(&v.guest_tsc.clone(), t(2), when);
        assert_eq!(v.armed_timer_expiry(), Some(when));
        v.demote_timer_backend();
        assert_eq!(v.armed_timer_expiry(), None, "oneshot not armed yet");
        let actual = v.oneshot.arm_at(t(2), when);
        assert_eq!(v.armed_timer_expiry(), Some(actual));
    }

    #[test]
    fn mean_idle_period() {
        let mut v = vcpu();
        assert_eq!(v.stats.mean_idle_period(), None);
        v.set_running().unwrap();
        v.set_halted(t(3)).unwrap();
        v.wake(t(5)).unwrap(); // 2 ms idle
        v.set_running().unwrap();
        v.set_halted(t(6)).unwrap();
        v.wake(t(12)).unwrap(); // 6 ms idle
        assert_eq!(
            v.stats.mean_idle_period(),
            Some(SimDuration::from_millis(4))
        );
    }

    #[test]
    fn exit_recording() {
        let mut v = vcpu();
        v.set_running().unwrap();
        v.record_exit(ExitReason::Hlt);
        v.record_exit(ExitReason::MsrWriteTscDeadline);
        assert_eq!(v.stats.exits.total(), 2);
        assert_eq!(v.stats.exits.timer_related(), 1);
    }

    #[test]
    fn injection_recording() {
        let mut v = vcpu();
        v.record_injection(false);
        v.record_injection(true);
        assert_eq!(v.stats.injections, 2);
        assert_eq!(v.stats.virtual_ticks, 1);
    }

    #[test]
    fn paratick_enablement_via_declaration() {
        let mut v = vcpu();
        assert!(!v.paratick_enabled());
        v.declared_tick_period = Some(SimDuration::from_millis(4));
        assert!(v.paratick_enabled());
    }

    #[test]
    fn guest_tsc_zero_at_boot() {
        let v = vcpu();
        assert_eq!(v.guest_tsc.read(t(1)), 0);
    }
}
