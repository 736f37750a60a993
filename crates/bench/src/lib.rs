//! Shared harness for the `paratick` CLI, which regenerates every
//! table and figure of the paper (`paratick help` lists the commands;
//! `docs/CLI.md` documents them).
//!
//! Scale knobs come from the environment so CI can run quick passes:
//! `PARATICK_SCALE` (workload scale factor, default 0.25) and
//! `PARATICK_ITERS` (max iterations per configuration, default 3).
//!
//! Every run goes through the run cache ([`run_or_exit`] and
//! `Experiment::run` both call `paratick::cache::run_cached`), which
//! applies the environment to it, so every command gets these knobs
//! for free:
//!
//! * `PARATICK_FAULTS` / `PARATICK_NO_RCU` — folded into each run's
//!   scenario before it is keyed or simulated.
//! * `PARATICK_TRACE=<path>` — write a Chrome-trace/Perfetto JSON
//!   timeline of the first run submitted (open in
//!   <https://ui.perfetto.dev> or `chrome://tracing`).
//! * `PARATICK_TIMESERIES=<path>` — windowed counters over sim time
//!   (exits/s, busy fraction, …) of the same run as CSV, or JSON for
//!   `.json` paths; `PARATICK_TIMESERIES_WINDOW_US` sets the window
//!   (default 1000).
//! * `PARATICK_PROF=1` — per-event-kind wall-clock self-profiling,
//!   surfaced in `RunMetrics::profile` and the `PARATICK_JSON` dumps.

use paratick::prelude::*;
use paratick::experiment::{aggregate, Comparison, Experiment};
use paratick_sim::{Json, ToJson};
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod cmd;

/// Workload scale factor (1.0 ≈ the paper's simsmall-like runs) — a
/// view over the typed [`EnvConfig`] loader (`PARATICK_SCALE`).
pub fn scale() -> f64 {
    EnvConfig::get_or_exit().scale
}

/// Iteration cap per configuration (`PARATICK_ITERS`).
pub fn iters() -> u32 {
    EnvConfig::get_or_exit().iters
}

/// Experiment cells that failed in [`run_all`] batches so far; the
/// `paratick` CLI turns a nonzero count into a nonzero exit code after
/// all artifacts are printed.
static BATCH_FAILURES: AtomicUsize = AtomicUsize::new(0);

pub fn batch_failures() -> usize {
    BATCH_FAILURES.load(Ordering::SeqCst)
}

/// Run a batch of experiments on the work-stealing [`Sweep`] scheduler
/// (cached, parallel, live progress on stderr).
///
/// Unlike the old behaviour — abort the whole batch on the first
/// `SimError` — every cell runs: failures are all reported to stderr,
/// the completed comparisons are still returned (and still feed the
/// tables and `PARATICK_JSON` artifacts), and the process only exits
/// immediately when *nothing* completed.
pub fn run_all(experiments: Vec<Experiment>) -> Vec<Comparison> {
    let report = Sweep::new("batch").add_all(experiments).run();
    for (cell, err) in &report.failed {
        eprintln!("simulation error in {cell}: {err}");
    }
    BATCH_FAILURES.fetch_add(report.failed.len(), Ordering::SeqCst);
    if report.completed.is_empty() {
        if let Some((_, e)) = report.failed.first() {
            std::process::exit(e.exit_code());
        }
    }
    report.completed
}

/// Run one scenario through the content-addressed run cache, mapping a
/// simulation error to the process exit code the error family defines
/// (config=2, deadlock=3, invariant=4).
pub fn run_or_exit(s: Scenario) -> RunMetrics {
    paratick::cache::run_cached(s).unwrap_or_else(|e| {
        eprintln!("simulation error: {e}");
        std::process::exit(e.exit_code());
    })
}

/// If `PARATICK_JSON=<dir>` is set, persist a comparison batch as
/// `<dir>/<label>.json` so EXPERIMENTS.md regeneration (or external
/// plotting) can consume machine-readable results. The writer is the
/// in-repo canonical JSON codec, so identical results are
/// byte-identical files — the property the warm-cache check asserts.
pub fn maybe_dump_json(label: &str, comparisons: &[Comparison]) {
    let Some(dir) = EnvConfig::get_or_exit().json_dir.clone() else {
        return;
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("PARATICK_JSON: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{}.json", label.replace('/', "_")));
    let json = Json::Arr(comparisons.iter().map(ToJson::to_json).collect()).to_string_pretty();
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("PARATICK_JSON: write {} failed: {e}", path.display());
    }
}

/// Print a paper-style aggregate line.
pub fn print_aggregate(label: &str, comparisons: &[Comparison]) -> Comparison {
    let agg = aggregate(label, comparisons);
    println!(
        "  {:<28} exits {:>6}  throughput {:>6}  exec time {:>6}",
        label,
        paratick::report::pct(agg.exits_pct),
        paratick::report::pct(agg.throughput_pct),
        paratick::report::pct(agg.exec_time_pct),
    );
    agg
}

/// Banner for a reproduced artefact.
pub fn banner(title: &str, paper_expectation: &str) {
    println!();
    println!("=== {title} ===");
    println!("paper: {paper_expectation}");
    println!();
}

/// A sequential-PARSEC experiment (Figure 4 / Table 2 rows).
pub fn seq_parsec_experiment(name: &'static str) -> Experiment {
    let profile = *paratick_workloads::parsec::profile(name).expect("unknown benchmark");
    let s = scale();
    Experiment::new(name, move |mode, seed| {
        Scenario::new(HostConfig::default())
            .vm(
                VmConfig::with_vcpus(1).mode(mode).spanning(1),
                paratick_workloads::parsec::workload(&profile, 1, s),
            )
            .seed(seed)
    })
    .iterations(iters().min(3), iters())
}

/// A parallel-PARSEC experiment in one of the paper's VM sizes
/// (Figure 5 / Table 3 rows).
pub fn par_parsec_experiment(name: &'static str, vm: VmSize) -> Experiment {
    let profile = *paratick_workloads::parsec::profile(name).expect("unknown benchmark");
    let s = scale();
    let label = format!("{}/{}", name, vm.label());
    Experiment::new(label, move |mode, seed| {
        let cfg = vm.config().mode(mode);
        let threads = cfg.vcpus as usize;
        Scenario::new(HostConfig::default())
            .vm(
                cfg,
                paratick_workloads::parsec::workload(&profile, threads, s),
            )
            .seed(seed)
    })
    .iterations(iters().min(3), iters())
}

/// The paper's three VM sizes (§6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmSize {
    Small,
    Medium,
    Large,
}

impl VmSize {
    pub const ALL: [VmSize; 3] = [VmSize::Small, VmSize::Medium, VmSize::Large];

    pub fn label(self) -> &'static str {
        match self {
            VmSize::Small => "small",
            VmSize::Medium => "medium",
            VmSize::Large => "large",
        }
    }

    pub fn config(self) -> VmConfig {
        match self {
            VmSize::Small => VmConfig::small_vm(),
            VmSize::Medium => VmConfig::medium_vm(),
            VmSize::Large => VmConfig::large_vm(),
        }
    }
}

/// A fio experiment (Figure 6 / Table 4 cells). The backing device is
/// the host-page-cache-backed virtio disk the paper's runs effectively
/// hit (guest buffering disabled, host caching on).
pub fn fio_experiment(spec: paratick_workloads::FioSpec) -> Experiment {
    Experiment::new(spec.job_name(), move |mode, seed| {
        let mut cfg = VmConfig::with_vcpus(1).mode(mode).spanning(1);
        cfg.device = DeviceKind::VirtioCached;
        Scenario::new(HostConfig::default())
            .vm(cfg, paratick_workloads::fio::workload(&spec))
            .seed(seed)
    })
    .iterations(iters().min(3), iters())
}

/// Bytes per fio job, scaled.
pub fn fio_bytes() -> u64 {
    ((48u64 << 20) as f64 * scale()) as u64
}
