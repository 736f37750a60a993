//! Run metrics: the three quantities the paper reports, per VM and
//! system-wide.

use paratick_guest::TickMode;
use paratick_sim::{Cycles, Freq, Histogram, SimDuration, SimTime};
use paratick_vmm::{ExitCounts, KvmVcpu, SystemStats};

/// Per-VM metrics for one run.
#[derive(Clone, Debug)]
pub struct VmMetrics {
    pub name: String,
    pub mode: TickMode,
    /// Exit counters summed over the VM's vCPUs.
    pub exits: ExitCounts,
    /// When the VM's workload finished (None for idle VMs / horizon runs
    /// where it never does).
    pub finished_at: Option<SimTime>,
    pub injections: u64,
    pub virtual_ticks: u64,
    pub wakeups: u64,
    pub idle_periods: u64,
    pub halted_time: SimDuration,
    /// Distribution of idle-period lengths (the paper's `T_idle`):
    /// §3.3's crossover analysis is about exactly this quantity.
    pub idle_periods_hist: Histogram,
    /// Paratick guests: idle entries where the §4.1 keep-armed heuristic
    /// reused an already-armed sooner timer (a saved VM exit each).
    pub paratick_timer_reuse: u64,
    /// Paratick guests: idle entries that actually programmed a wakeup
    /// timer.
    pub paratick_timers_programmed: u64,
}

impl VmMetrics {
    pub fn collect(
        name: &str,
        mode: TickMode,
        vcpus: &[KvmVcpu],
        finished_at: Option<SimTime>,
    ) -> Self {
        let mut m = VmMetrics {
            name: name.to_string(),
            mode,
            exits: ExitCounts::new(),
            finished_at,
            injections: 0,
            virtual_ticks: 0,
            wakeups: 0,
            idle_periods: 0,
            halted_time: SimDuration::ZERO,
            idle_periods_hist: Histogram::new(),
            paratick_timer_reuse: 0,
            paratick_timers_programmed: 0,
        };
        for v in vcpus {
            m.exits.merge(&v.stats.exits);
            m.injections += v.stats.injections;
            m.virtual_ticks += v.stats.virtual_ticks;
            m.wakeups += v.stats.wakeups;
            m.idle_periods += v.stats.idle_periods;
            m.halted_time += v.stats.halted_time;
        }
        m
    }

    /// Mean idle period — the paper's `T_idle`.
    pub fn mean_idle_period(&self) -> Option<SimDuration> {
        (self.idle_periods > 0).then(|| self.halted_time / self.idle_periods)
    }

    /// Median idle period.
    pub fn p50_idle_period(&self) -> Option<SimDuration> {
        self.idle_periods_hist.p50().map(SimDuration::from_nanos)
    }

    /// 99th-percentile idle period.
    pub fn p99_idle_period(&self) -> Option<SimDuration> {
        self.idle_periods_hist.p99().map(SimDuration::from_nanos)
    }

    /// Workload execution time (None if it never finished).
    pub fn execution_time(&self) -> Option<SimDuration> {
        self.finished_at.map(|t| t.since(SimTime::ZERO))
    }
}

/// Wall-clock cost of one engine event kind (self-profiling).
#[derive(Clone, Debug, Default)]
pub struct KindProfile {
    pub kind: String,
    /// Events of this kind dispatched (deterministic).
    pub count: u64,
    /// Wall-clock nanoseconds spent in this kind's handler. Zero unless
    /// the run had `PARATICK_PROF=1` (per-event timing costs two clock
    /// reads per event).
    pub wall_nanos: u64,
}

/// Engine self-profiling: where the *simulator's* time goes, as opposed
/// to where simulated time goes. Wall-clock fields vary run to run; the
/// counts and the queue high-water mark are deterministic.
#[derive(Clone, Debug, Default)]
pub struct EngineProfile {
    /// Wall-clock nanoseconds for the whole run (bootstrap + main loop).
    pub wall_nanos: u64,
    /// Were per-kind handlers individually timed (`PARATICK_PROF=1`)?
    pub wall_timed_kinds: bool,
    /// Most events ever pending in the queue at once.
    pub queue_depth_high_water: u64,
    /// Per-event-kind dispatch counts and (optional) wall time.
    pub per_kind: Vec<KindProfile>,
}

impl EngineProfile {
    /// Total events dispatched, summed over kinds.
    pub fn events_total(&self) -> u64 {
        self.per_kind.iter().map(|k| k.count).sum()
    }

    /// Events dispatched per wall-clock second.
    pub fn events_per_sec(&self) -> Option<f64> {
        (self.wall_nanos > 0).then(|| self.events_total() as f64 * 1e9 / self.wall_nanos as f64)
    }
}

/// Metrics for one whole simulation run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Simulated end time of the run.
    pub duration: SimTime,
    /// pCPU clock used for cycle conversions.
    pub freq: Freq,
    pub per_vm: Vec<VmMetrics>,
    pub system: SystemStats,
    /// Number of DES events processed (engine diagnostics).
    pub events_dispatched: u64,
    /// Engine self-profiling (absent in pre-profile dumps).
    pub profile: EngineProfile,
    /// Invariant-audit report (absent in pre-audit dumps).
    pub audit: crate::audit::AuditReport,
    /// Fault-injection and recovery counters (all zero unless the run
    /// had a fault plan).
    pub faults: paratick_vmm::FaultStats,
}

impl RunMetrics {
    /// Total VM exits (the paper's first metric).
    pub fn total_exits(&self) -> u64 {
        self.system.exits.total()
    }

    /// Timer-related VM exits.
    pub fn timer_exits(&self) -> u64 {
        self.system.exits.timer_related()
    }

    /// Busy CPU cycles (the paper's throughput proxy, §6.1).
    pub fn busy_cycles(&self) -> Cycles {
        self.system.busy_cycles(self.freq)
    }

    /// Wall-clock execution time of the slowest VM's workload, falling
    /// back to the horizon for steady-state runs (idle VMs "finish" at
    /// t=0 and are ignored).
    pub fn execution_time(&self) -> SimDuration {
        self.per_vm
            .iter()
            .filter_map(|v| v.execution_time())
            .filter(|d| !d.is_zero())
            .max()
            .unwrap_or_else(|| self.duration.since(SimTime::ZERO))
    }

    /// Fraction of busy time that is virtualization overhead.
    pub fn overhead_fraction(&self) -> f64 {
        self.system.overhead_fraction()
    }

    pub fn vm(&self, name: &str) -> Option<&VmMetrics> {
        self.per_vm.iter().find(|v| v.name == name)
    }
}

// ---------------------------------------------------------------------
// JSON codecs (run-cache persistence, artifact files)
// ---------------------------------------------------------------------

use paratick_sim::{json, FromJson, Json, JsonError, ToJson};

impl ToJson for VmMetrics {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("mode", self.mode.to_json()),
            ("exits", self.exits.to_json()),
            ("finished_at", self.finished_at.to_json()),
            ("injections", self.injections.to_json()),
            ("virtual_ticks", self.virtual_ticks.to_json()),
            ("wakeups", self.wakeups.to_json()),
            ("idle_periods", self.idle_periods.to_json()),
            ("halted_time", self.halted_time.to_json()),
            ("idle_periods_hist", self.idle_periods_hist.to_json()),
            ("paratick_timer_reuse", self.paratick_timer_reuse.to_json()),
            (
                "paratick_timers_programmed",
                self.paratick_timers_programmed.to_json(),
            ),
        ])
    }
}

impl FromJson for VmMetrics {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(VmMetrics {
            name: json::field(v, "name")?,
            mode: json::field(v, "mode")?,
            exits: json::field(v, "exits")?,
            finished_at: json::field(v, "finished_at")?,
            injections: json::field(v, "injections")?,
            virtual_ticks: json::field(v, "virtual_ticks")?,
            wakeups: json::field(v, "wakeups")?,
            idle_periods: json::field(v, "idle_periods")?,
            halted_time: json::field(v, "halted_time")?,
            idle_periods_hist: json::field(v, "idle_periods_hist")?,
            paratick_timer_reuse: json::field(v, "paratick_timer_reuse")?,
            paratick_timers_programmed: json::field(v, "paratick_timers_programmed")?,
        })
    }
}

impl ToJson for KindProfile {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", self.kind.to_json()),
            ("count", self.count.to_json()),
            ("wall_nanos", self.wall_nanos.to_json()),
        ])
    }
}

impl FromJson for KindProfile {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(KindProfile {
            kind: json::field(v, "kind")?,
            count: json::field(v, "count")?,
            wall_nanos: json::field(v, "wall_nanos")?,
        })
    }
}

impl ToJson for EngineProfile {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("wall_nanos", self.wall_nanos.to_json()),
            ("wall_timed_kinds", self.wall_timed_kinds.to_json()),
            (
                "queue_depth_high_water",
                self.queue_depth_high_water.to_json(),
            ),
            ("per_kind", self.per_kind.to_json()),
        ])
    }
}

impl FromJson for EngineProfile {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(EngineProfile {
            wall_nanos: json::field(v, "wall_nanos")?,
            wall_timed_kinds: json::field(v, "wall_timed_kinds")?,
            queue_depth_high_water: json::field(v, "queue_depth_high_water")?,
            per_kind: json::field(v, "per_kind")?,
        })
    }
}

impl ToJson for RunMetrics {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("duration", self.duration.to_json()),
            ("freq", self.freq.to_json()),
            ("per_vm", self.per_vm.to_json()),
            ("system", self.system.to_json()),
            ("events_dispatched", self.events_dispatched.to_json()),
            ("profile", self.profile.to_json()),
            ("audit", self.audit.to_json()),
            ("faults", self.faults.to_json()),
        ])
    }
}

impl FromJson for RunMetrics {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(RunMetrics {
            duration: json::field(v, "duration")?,
            freq: json::field(v, "freq")?,
            per_vm: json::field(v, "per_vm")?,
            system: json::field(v, "system")?,
            events_dispatched: json::field(v, "events_dispatched")?,
            // Tolerate pre-profile/pre-audit dumps, like the serde
            // `#[serde(default)]` attributes did.
            profile: match v.opt_field("profile") {
                Some(p) => EngineProfile::from_json(p)?,
                None => EngineProfile::default(),
            },
            audit: match v.opt_field("audit") {
                Some(a) => crate::audit::AuditReport::from_json(a)?,
                None => Default::default(),
            },
            faults: match v.opt_field("faults") {
                Some(f) => paratick_vmm::FaultStats::from_json(f)?,
                None => Default::default(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratick_sim::SimTime;
    use paratick_vmm::{PcpuId, VcpuId};

    #[test]
    fn vm_metrics_aggregation() {
        let freq = Freq::ghz(2);
        let mut a = KvmVcpu::new(VcpuId::new(0, 0), PcpuId(0), freq, SimTime::ZERO);
        let mut b = KvmVcpu::new(VcpuId::new(0, 1), PcpuId(1), freq, SimTime::ZERO);
        a.set_running().unwrap();
        a.record_exit(paratick_vmm::ExitReason::Hlt);
        a.record_injection(true);
        b.set_running().unwrap();
        b.set_halted(SimTime::from_millis(1)).unwrap();
        b.wake(SimTime::from_millis(5)).unwrap();
        let m = VmMetrics::collect(
            "test",
            TickMode::Paratick,
            &[a, b],
            Some(SimTime::from_millis(10)),
        );
        assert_eq!(m.exits.total(), 1);
        assert_eq!(m.virtual_ticks, 1);
        assert_eq!(m.wakeups, 1);
        assert_eq!(m.mean_idle_period(), Some(SimDuration::from_millis(4)));
        assert_eq!(m.execution_time(), Some(SimDuration::from_millis(10)));
    }

    #[test]
    fn run_metrics_fallback_duration() {
        let rm = RunMetrics {
            duration: SimTime::from_secs(10),
            freq: Freq::ghz(2),
            per_vm: vec![],
            system: SystemStats::default(),
            events_dispatched: 0,
            profile: EngineProfile::default(),
            audit: Default::default(),
            faults: Default::default(),
        };
        assert_eq!(rm.execution_time(), SimDuration::from_secs(10));
        assert_eq!(rm.total_exits(), 0);
    }

    #[test]
    fn engine_profile_rates() {
        let p = EngineProfile {
            wall_nanos: 2_000_000_000,
            wall_timed_kinds: false,
            queue_depth_high_water: 5,
            per_kind: vec![
                KindProfile {
                    kind: "a".into(),
                    count: 300,
                    wall_nanos: 0,
                },
                KindProfile {
                    kind: "b".into(),
                    count: 700,
                    wall_nanos: 0,
                },
            ],
        };
        assert_eq!(p.events_total(), 1_000);
        assert_eq!(p.events_per_sec(), Some(500.0));
        assert_eq!(EngineProfile::default().events_per_sec(), None);
    }
}
