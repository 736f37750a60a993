//! Public-API edge cases for the hypervisor models.

use paratick_sim::{Freq, FromJson, Json, SimDuration, SimTime, ToJson};
use paratick_vmm::{
    accounting::delta, CostModel, CycleCategory, ExitCounts, ExitReason, HaltPoll, HostScheduler,
    InjectDecision, KvmVcpu, PCpu, ParatickHost, PcpuId, SchedDecision, VcpuId,
};

#[test]
fn cost_model_serde_round_trip() {
    let m = CostModel::default();
    let json = m.to_json().to_string_pretty();
    let back = CostModel::from_json(&Json::parse(&json).expect("parse")).expect("deserialize");
    for r in ExitReason::ALL {
        assert_eq!(m.direct[r.index()], back.direct[r.index()]);
        assert_eq!(m.indirect[r.index()], back.indirect[r.index()]);
    }
    assert_eq!(m.wakeup_latency, back.wakeup_latency);
    // The codec is byte-stable: re-serializing reproduces the input.
    assert_eq!(back.to_json().to_string_pretty(), json);
}

#[test]
fn exit_counts_serde_round_trip() {
    let mut c = ExitCounts::new();
    c.record(ExitReason::Hlt);
    c.record(ExitReason::EoiWrite);
    let json = c.to_json().to_string_pretty();
    let back = ExitCounts::from_json(&Json::parse(&json).unwrap()).unwrap();
    assert_eq!(c, back);
}

#[test]
fn paratick_host_period_boundary_cases() {
    let h = ParatickHost::default();
    let period = SimDuration::from_millis(4);
    // One nanosecond short: no injection.
    assert_eq!(
        h.on_vm_entry(
            SimTime::from_nanos(3_999_999),
            SimTime::ZERO,
            Some(period),
            false
        ),
        InjectDecision::Nothing
    );
    // Exactly the period: inject.
    assert_eq!(
        h.on_vm_entry(
            SimTime::from_nanos(4_000_000),
            SimTime::ZERO,
            Some(period),
            false
        ),
        InjectDecision::InjectVirtualTick
    );
    // Far overdue (descheduled for seconds): still exactly one tick per
    // entry — no burst catch-up.
    assert_eq!(
        h.on_vm_entry(SimTime::from_secs(5), SimTime::ZERO, Some(period), false),
        InjectDecision::InjectVirtualTick
    );
}

#[test]
fn scheduler_many_queues_independent_rotation() {
    let mut s = HostScheduler::new(4, SimDuration::from_millis(3));
    for p in 0..4u32 {
        for v in 0..3u32 {
            s.enqueue(VcpuId::new(p, v), PcpuId(p));
        }
    }
    // Rotate each pCPU twice; each must cycle through its own vCPUs.
    for p in 0..4u32 {
        let first = match s.pick_next(PcpuId(p)) {
            SchedDecision::Run(v) => v,
            other => panic!("{other:?}"),
        };
        s.deschedule(PcpuId(p), true);
        let second = match s.pick_next(PcpuId(p)) {
            SchedDecision::Run(v) => v,
            other => panic!("{other:?}"),
        };
        assert_ne!(first, second);
        assert_eq!(first.vm, p, "vCPUs stay on their pCPU");
        assert_eq!(s.load(PcpuId(p)), 3);
    }
}

#[test]
fn pcpu_ledger_cycles_at_odd_frequency() {
    // A non-round frequency must still conserve exactly in nanoseconds.
    let mut p = PCpu::new(PcpuId(0), 0, Freq::hz(2_299_999_999));
    p.account(CycleCategory::GuestWork, SimDuration::from_nanos(333));
    p.account(CycleCategory::HostOs, SimDuration::from_nanos(667));
    p.account(CycleCategory::Idle, SimDuration::from_nanos(1));
    p.verify_conservation();
    assert_eq!(p.ledger().total(), SimDuration::from_nanos(1001));
}

#[test]
fn vcpu_stats_idle_accounting_over_many_periods() {
    let mut v = KvmVcpu::new(VcpuId::new(0, 0), PcpuId(0), Freq::ghz(2), SimTime::ZERO);
    let mut t = SimTime::from_millis(1);
    for i in 1..=20u64 {
        v.set_running().unwrap();
        t += SimDuration::from_micros(100);
        v.set_halted(t).unwrap();
        assert_eq!(v.halted_since(), Some(t));
        t += SimDuration::from_micros(i * 10);
        v.wake(t).unwrap();
        assert_eq!(v.halted_since(), None);
    }
    assert_eq!(v.stats.idle_periods, 20);
    // Sum of 10..=200 us in steps of 10.
    assert_eq!(v.stats.halted_time, SimDuration::from_micros(2100));
    assert_eq!(v.stats.mean_idle_period(), Some(SimDuration::from_micros(105)));
}

#[test]
fn halt_poll_adaptive_window_trajectory() {
    let mut hp = HaltPoll::kvm_default();
    let w0 = hp.window();
    // Alternating near misses and long sleeps keep the window bounded.
    let mut t = SimTime::from_millis(1);
    for i in 0..50u64 {
        let wake = if i % 2 == 0 {
            t + hp.window() + SimDuration::from_nanos(10) // near miss
        } else {
            t + SimDuration::from_millis(50) // long sleep
        };
        hp.on_halt(t, Some(wake));
        t += SimDuration::from_millis(1);
        assert!(hp.window() <= hp.max_window);
        assert!(hp.window() >= SimDuration::ZERO);
    }
    assert!(hp.failures == 50);
    let _ = w0;
}

#[test]
fn delta_helpers_symmetry() {
    // A 50% exit reduction and the corresponding throughput gain.
    assert_eq!(delta::percent(200.0, 100.0), -50.0);
    assert_eq!(delta::throughput_gain(200.0, 100.0), 100.0);
    // No change.
    assert_eq!(delta::percent(5.0, 5.0), 0.0);
    assert_eq!(delta::throughput_gain(5.0, 5.0), 0.0);
}

#[test]
fn timer_related_classification_is_stable() {
    // The paper's metric: deadline writes + preemption-timer exits,
    // plus the LAPIC-oneshot programming exits of the degraded timer
    // backend (zero in every fault-free reproduction run). A change
    // here silently redefines every reproduced number, so pin it.
    let timer: Vec<ExitReason> = ExitReason::ALL
        .into_iter()
        .filter(|r| r.is_timer_related())
        .collect();
    assert_eq!(
        timer,
        vec![
            ExitReason::MsrWriteTscDeadline,
            ExitReason::PreemptionTimer,
            ExitReason::ApicTimerWrite
        ]
    );
}
