//! System-wide metric aggregation.
//!
//! Collects the per-vCPU exit counters and per-pCPU cycle ledgers into
//! the three quantities the paper's evaluation reports (§6): VM exits,
//! system throughput (busy CPU cycles) and execution time.

use crate::exit::ExitCounts;
use crate::pcpu::{CycleLedger, PCpu};
use crate::vcpu::KvmVcpu;
use paratick_sim::{Cycles, Freq, SimDuration};

/// Aggregated statistics for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SystemStats {
    /// Exit counters summed over all vCPUs.
    pub exits: ExitCounts,
    /// Cycle ledger summed over all pCPUs.
    pub cycles: CycleLedger,
    /// Total VM entries.
    pub entries: u64,
    /// Total interrupt injections.
    pub injections: u64,
    /// Total paratick virtual ticks injected.
    pub virtual_ticks: u64,
    /// Total vCPU wakeups from Halted.
    pub wakeups: u64,
    /// Total idle (halted) periods across vCPUs.
    pub idle_periods: u64,
    /// Total halted time across vCPUs.
    pub halted_time: SimDuration,
}

impl SystemStats {
    /// Build from the final state of all vCPUs and pCPUs.
    pub fn collect<'a, 'b>(
        vcpus: impl Iterator<Item = &'a KvmVcpu>,
        pcpus: impl Iterator<Item = &'b PCpu>,
    ) -> SystemStats {
        let mut s = SystemStats::default();
        for v in vcpus {
            s.exits.merge(&v.stats.exits);
            s.entries += v.stats.entries;
            s.injections += v.stats.injections;
            s.virtual_ticks += v.stats.virtual_ticks;
            s.wakeups += v.stats.wakeups;
            s.idle_periods += v.stats.idle_periods;
            s.halted_time += v.stats.halted_time;
        }
        // Conservation is no longer asserted here: the engine's
        // invariant auditor checks it per pCPU and reports violations
        // in the run's audit report instead of aborting the process.
        for p in pcpus {
            s.cycles.merge(p.ledger());
        }
        s
    }

    /// Busy CPU cycles — the paper's throughput proxy ("we use CPU
    /// cycles as a measure for system throughput", §6.1).
    pub fn busy_cycles(&self, freq: Freq) -> Cycles {
        self.cycles.busy_cycles(freq)
    }

    /// Pure virtualization overhead cycles.
    pub fn overhead_cycles(&self, freq: Freq) -> Cycles {
        freq.duration_to_cycles(self.cycles.overhead())
    }

    /// Mean idle period across all vCPUs (the paper's `T_idle`).
    pub fn mean_idle_period(&self) -> Option<SimDuration> {
        if self.idle_periods == 0 {
            None
        } else {
            Some(self.halted_time / self.idle_periods)
        }
    }

    /// Fraction of busy time that is virtualization overhead.
    pub fn overhead_fraction(&self) -> f64 {
        let busy = self.cycles.busy().as_nanos();
        if busy == 0 {
            0.0
        } else {
            self.cycles.overhead().as_nanos() as f64 / busy as f64
        }
    }
}

use paratick_sim::json::{self, FromJson, Json, JsonError, ToJson};

impl ToJson for SystemStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("exits", self.exits.to_json()),
            ("cycles", self.cycles.to_json()),
            ("entries", Json::U64(self.entries)),
            ("injections", Json::U64(self.injections)),
            ("virtual_ticks", Json::U64(self.virtual_ticks)),
            ("wakeups", Json::U64(self.wakeups)),
            ("idle_periods", Json::U64(self.idle_periods)),
            ("halted_time", self.halted_time.to_json()),
        ])
    }
}

impl FromJson for SystemStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(SystemStats {
            exits: json::field(v, "exits")?,
            cycles: json::field(v, "cycles")?,
            entries: json::field(v, "entries")?,
            injections: json::field(v, "injections")?,
            virtual_ticks: json::field(v, "virtual_ticks")?,
            wakeups: json::field(v, "wakeups")?,
            idle_periods: json::field(v, "idle_periods")?,
            halted_time: json::field(v, "halted_time")?,
        })
    }
}

/// Relative change helpers used throughout the reports: the paper states
/// improvements as percentages relative to the vanilla baseline.
pub mod delta {
    /// Percent change from `baseline` to `treated`: negative means the
    /// treated value is smaller (e.g. "-50% VM exits").
    pub fn percent(baseline: f64, treated: f64) -> f64 {
        if baseline == 0.0 {
            if treated == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (treated - baseline) / baseline * 100.0
        }
    }

    /// Throughput improvement in percent when cycle consumption drops
    /// from `baseline_cycles` to `treated_cycles` for the same work: the
    /// freed capacity relative to the treated consumption.
    pub fn throughput_gain(baseline_cycles: f64, treated_cycles: f64) -> f64 {
        if treated_cycles == 0.0 {
            return 0.0;
        }
        (baseline_cycles - treated_cycles) / treated_cycles * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exit::ExitReason;
    use crate::pcpu::CycleCategory;
    use crate::host_sched::PcpuId;
    use crate::vcpu::VcpuId;
    use paratick_sim::SimTime;

    #[test]
    fn collect_aggregates_vcpus_and_pcpus() {
        let freq = Freq::ghz(2);
        let mut v0 = KvmVcpu::new(VcpuId::new(0, 0), PcpuId(0), freq, SimTime::ZERO);
        let mut v1 = KvmVcpu::new(VcpuId::new(0, 1), PcpuId(1), freq, SimTime::ZERO);
        v0.set_running().unwrap();
        v0.record_exit(ExitReason::Hlt);
        v0.record_injection(true);
        v1.set_running().unwrap();
        v1.record_exit(ExitReason::MsrWriteTscDeadline);
        v1.set_halted(SimTime::from_millis(1)).unwrap();
        v1.wake(SimTime::from_millis(3)).unwrap();

        let mut p0 = PCpu::new(PcpuId(0), 0, freq);
        p0.account(CycleCategory::GuestWork, SimDuration::from_micros(100));
        let mut p1 = PCpu::new(PcpuId(1), 0, freq);
        p1.account(CycleCategory::Idle, SimDuration::from_micros(50));

        let s = SystemStats::collect([&v0, &v1].into_iter(), [&p0, &p1].into_iter());
        assert_eq!(s.exits.total(), 2);
        assert_eq!(s.exits.timer_related(), 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.injections, 1);
        assert_eq!(s.virtual_ticks, 1);
        assert_eq!(s.wakeups, 1);
        assert_eq!(s.idle_periods, 1);
        assert_eq!(s.halted_time, SimDuration::from_millis(2));
        assert_eq!(s.mean_idle_period(), Some(SimDuration::from_millis(2)));
        assert_eq!(s.busy_cycles(freq), Cycles::new(200_000));
    }

    #[test]
    fn overhead_fraction() {
        let mut s = SystemStats::default();
        s.cycles.add(CycleCategory::GuestWork, SimDuration::from_micros(80));
        s.cycles
            .add(CycleCategory::ExitHandling, SimDuration::from_micros(20));
        assert!((s.overhead_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn overhead_fraction_empty_is_zero() {
        assert_eq!(SystemStats::default().overhead_fraction(), 0.0);
    }

    #[test]
    fn delta_percent() {
        assert_eq!(delta::percent(100.0, 50.0), -50.0);
        assert_eq!(delta::percent(100.0, 120.0), 20.0);
        assert_eq!(delta::percent(0.0, 0.0), 0.0);
        assert!(delta::percent(0.0, 5.0).is_infinite());
    }

    #[test]
    fn delta_throughput_gain() {
        // Work that took 120 cycles now takes 100: 20% more capacity.
        assert!((delta::throughput_gain(120.0, 100.0) - 20.0).abs() < 1e-12);
        assert_eq!(delta::throughput_gain(100.0, 0.0), 0.0);
    }
}
