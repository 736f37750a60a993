//! Quickstart: run one workload under vanilla dynticks and paratick and
//! compare the paper's three metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Runs go through the run cache, so the `PARATICK_*` knobs apply
//! (e.g. `PARATICK_FAULTS=campaign` for a fault campaign).

use paratick::cache::run_cached;
use paratick::prelude::*;
use paratick_workloads::parsec;

fn main() {
    // A 1-vCPU VM on the paper's 4-socket/80-CPU host, running a small
    // sequential PARSEC-like benchmark.
    let profile = parsec::profile("dedup").expect("known benchmark");
    let build = |mode: TickMode| {
        Scenario::new(HostConfig::default())
            .vm(
                VmConfig::with_vcpus(1).mode(mode).spanning(1),
                parsec::workload(profile, 1, 0.25),
            )
            .seed(42)
    };

    println!("running dedup (sequential) under dynticks ...");
    let vanilla = run_cached(build(TickMode::DynticksIdle)).unwrap();
    println!("running dedup (sequential) under paratick ...");
    let para = run_cached(build(TickMode::Paratick)).unwrap();

    for (name, m) in [("dynticks", &vanilla), ("paratick", &para)] {
        println!();
        println!("--- {name} ---");
        println!("  VM exits:        {:>8}", m.total_exits());
        println!("  timer-related:   {:>8}", m.timer_exits());
        println!("  busy CPU cycles: {:>8} M", m.busy_cycles().get() / 1_000_000);
        println!("  execution time:  {:>8}", m.execution_time());
        for (reason, count) in m.system.exits.nonzero() {
            println!("    {reason:<24} {count}");
        }
    }

    println!();
    println!("paratick vs dynticks:");
    println!(
        "  VM exits   {:+.1}%",
        (para.total_exits() as f64 - vanilla.total_exits() as f64)
            / vanilla.total_exits() as f64
            * 100.0
    );
    println!(
        "  throughput {:+.1}%  (cycles freed for other work)",
        (vanilla.busy_cycles().get() as f64 - para.busy_cycles().get() as f64)
            / para.busy_cycles().get() as f64
            * 100.0
    );
    println!(
        "  exec time  {:+.1}%",
        (para.execution_time().as_secs_f64() - vanilla.execution_time().as_secs_f64())
            / vanilla.execution_time().as_secs_f64()
            * 100.0
    );
    assert!(
        para.timer_exits() < vanilla.timer_exits(),
        "paratick must reduce timer-related exits"
    );
}
