//! Public-API edge cases for the hardware models.

use paratick_hw::{
    BlockDevice, DeadlineWriteEffect, DeviceKind, IoOp, IoRequest, Lapic, Tsc, TscDeadline,
    Vector,
};
use paratick_sim::{Freq, SimDuration, SimRng, SimTime};

#[test]
fn deadline_sequence_mirrors_linux_tick_pattern() {
    // The exact write pattern a dynticks guest produces over one
    // busy-idle-busy cycle, checked against architectural semantics.
    let tsc = Tsc::new(Freq::hz(2_500_000_000));
    let mut dl = TscDeadline::new();
    let t0 = SimTime::from_millis(4);
    // Busy tick rearm.
    assert!(matches!(
        dl.arm_at(&tsc, t0, SimTime::from_millis(8)),
        DeadlineWriteEffect::Armed(_)
    ));
    // Idle entry: defer to a soft timer at 50 ms.
    assert!(matches!(
        dl.arm_at(&tsc, t0, SimTime::from_millis(50)),
        DeadlineWriteEffect::Armed(_)
    ));
    assert_eq!(dl.expiry(), Some(SimTime::from_millis(50)));
    // Wakeup at 20 ms: restart the tick.
    let t1 = SimTime::from_millis(20);
    assert!(matches!(
        dl.arm_at(&tsc, t1, SimTime::from_millis(24)),
        DeadlineWriteEffect::Armed(_)
    ));
    assert_eq!(dl.write_count, 3);
    dl.fire(SimTime::from_millis(24));
    assert_eq!(dl.read_msr(), 0);
}

#[test]
fn deadline_expire_tolerates_late_delivery() {
    let tsc = Tsc::new(Freq::ghz(1));
    let mut dl = TscDeadline::new();
    dl.arm_at(&tsc, SimTime::from_millis(1), SimTime::from_millis(2));
    // Delivery delayed past the armed instant (handler was running).
    dl.expire();
    assert!(!dl.is_armed());
}

#[test]
fn lapic_full_vector_space() {
    let mut apic = Lapic::new();
    for v in 32..=255u8 {
        assert!(apic.request(Vector(v)));
    }
    assert_eq!(apic.pending_count(), 224);
    // Drain order: strictly decreasing.
    let mut last = 256u16;
    while let Some(Vector(v)) = apic.ack_highest() {
        assert!((v as u16) < last);
        last = v as u16;
    }
    assert_eq!(apic.acked, 224);
}

#[test]
fn device_profiles_are_internally_consistent() {
    for kind in [
        DeviceKind::Hdd,
        DeviceKind::SataSsd,
        DeviceKind::NvmeSsd,
        DeviceKind::VirtioCached,
        DeviceKind::Nic10G,
        DeviceKind::NicFast,
    ] {
        let p = kind.profile();
        assert!(p.read_latency_ns > 0, "{kind:?}");
        assert!(p.bandwidth_bps > 0, "{kind:?}");
        assert!(p.parallelism >= 1, "{kind:?}");
        assert!(
            p.write_cache_ack_ns <= p.write_latency_ns,
            "{kind:?}: cache ack must be cheaper than media"
        );
    }
    // NIC round trips are faster than disk media paths.
    assert!(
        DeviceKind::NicFast.profile().read_latency_ns
            < DeviceKind::SataSsd.profile().read_latency_ns
    );
}

#[test]
fn nic_round_trips_have_no_seek_penalty() {
    let mut nic = BlockDevice::new(DeviceKind::Nic10G);
    let mut rng = SimRng::new(1);
    let mut now = SimTime::from_millis(1);
    let mut seq = SimDuration::ZERO;
    let mut rnd = SimDuration::ZERO;
    for i in 0..50u64 {
        let d1 = nic.submit(
            now,
            IoRequest {
                op: IoOp::Read,
                offset: i * 4096,
                bytes: 4096,
            },
            &mut rng,
        );
        seq += d1.since(now);
        now = d1 + SimDuration::from_millis(1);
        let d2 = nic.submit(
            now,
            IoRequest {
                op: IoOp::Read,
                offset: (i * 7919) % (1 << 30),
                bytes: 4096,
            },
            &mut rng,
        );
        rnd += d2.since(now);
        now = d2 + SimDuration::from_millis(1);
    }
    let ratio = rnd.as_secs_f64() / seq.as_secs_f64();
    assert!(
        (0.8..1.25).contains(&ratio),
        "random vs sequential RPC must be equal-cost: {ratio}"
    );
}

#[test]
fn guest_tsc_independent_of_host_epoch() {
    // Two guests booted at different times read identical values for
    // identical uptimes.
    let f = Freq::hz(2_500_000_000);
    let g1 = Tsc::for_guest(f, SimTime::from_millis(10));
    let g2 = Tsc::for_guest(f, SimTime::from_secs(99));
    let up = SimDuration::from_micros(1234);
    assert_eq!(
        g1.read(SimTime::from_millis(10) + up),
        g2.read(SimTime::from_secs(99) + up)
    );
}
