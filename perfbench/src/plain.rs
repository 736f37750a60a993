//! The untraced run: the end-to-end metrics.
//!
//! Set-up is repeated and its median reported. The timed part repeats
//! the whole job set until `--seconds` have passed and at least
//! [`stats::samples_needed`] scenarios are timed. Each scenario is timed
//! from its first call into the program to its result; building
//! scenarios and emptying the cold cache between repeats are not timed.

use crate::catalog::{JobSet, Workload};
use crate::check::Verifier;
use crate::stats::{self, TAIL_PERCENTILE};
use crate::{PhaseOut, WorkDir};
use paratick::prelude::*;
use std::time::{Duration, Instant};

/// Set-up repeats: building scenarios takes well under a millisecond,
/// while filling the warm cache simulates a whole round.
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::GridWarm => 3,
        Workload::GridCold | Workload::Table1Ticks => 9,
    }
}

/// The cold path of `RunCache::run`: key, a lookup that must miss,
/// simulate, store.
fn cold(cache: &RunCache, s: Scenario) -> Result<RunMetrics, String> {
    let key = RunCache::key(&s);
    if cache.lookup(&key).is_some() {
        return Err("a cold cache served a hit".into());
    }
    let m = Engine::new(s)
        .and_then(|e| e.run_to_completion())
        .map_err(|e| e.to_string())?;
    if !cache.store(&key, &m) {
        return Err("cache store failed".into());
    }
    Ok(m)
}

/// The warm path: key, then a lookup that must hit.
fn warm(cache: &RunCache, s: &Scenario) -> Result<RunMetrics, String> {
    cache
        .lookup(&RunCache::key(s))
        .ok_or_else(|| "a warm cache missed".to_string())
}

fn simulate(s: Scenario) -> Result<RunMetrics, String> {
    Engine::new(s)
        .and_then(|e| e.run_to_completion())
        .map_err(|e| e.to_string())
}

/// Host-time samples of the timed part.
#[derive(Default)]
struct Samples {
    ms: Vec<f64>,
    busy_s: f64,
    sim_s: f64,
}

impl Samples {
    fn record(&mut self, dt: Duration, m: &RunMetrics) {
        self.ms.push(dt.as_secs_f64() * 1e3);
        self.busy_s += dt.as_secs_f64();
        self.sim_s += m.duration.as_secs_f64();
    }
}

pub fn run(w: Workload, seed: u64, seconds: u64, dir: &WorkDir) -> PhaseOut {
    let set = JobSet::new(w, seed);
    let mut v = Verifier::new(w.family(), seed);
    let cache = RunCache::new(dir.cache());
    let name = |i: usize| set.jobs[i].name.as_str();

    let mut setup_s = Vec::new();
    let mut scenarios = Vec::new();
    for _ in 0..setup_reps(w) {
        let t0 = Instant::now();
        dir.reset_cache();
        scenarios = set.build_all();
        if w == Workload::GridWarm {
            for i in 0..set.len() {
                if let Err(e) = cold(&cache, set.build(i)).map(|m| v.check(name(i), &m)) {
                    v.fail(name(i), e);
                }
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let mut samples = Samples::default();
    let need = stats::samples_needed(TAIL_PERCENTILE);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut first = true;
    while samples.ms.len() < need || start.elapsed() < budget {
        if !first && w != Workload::GridWarm {
            if w == Workload::GridCold {
                dir.reset_cache();
            }
            scenarios = set.build_all();
        }
        first = false;
        let batch: Vec<(usize, Duration, Result<RunMetrics, String>)> = if w == Workload::GridWarm {
            scenarios
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let t0 = Instant::now();
                    let r = warm(&cache, s);
                    (i, t0.elapsed(), r)
                })
                .collect()
        } else {
            std::mem::take(&mut scenarios)
                .into_iter()
                .enumerate()
                .map(|(i, s)| {
                    let t0 = Instant::now();
                    let r = if w == Workload::GridCold {
                        cold(&cache, s)
                    } else {
                        simulate(s)
                    };
                    (i, t0.elapsed(), r)
                })
                .collect()
        };
        if batch.iter().all(|(_, _, r)| r.is_err()) {
            // Nothing can succeed; stop rather than spin to the deadline.
            for (i, _, r) in batch {
                v.fail(name(i), r.err().unwrap_or_default());
            }
            break;
        }
        for (i, dt, r) in batch {
            match r {
                Ok(m) => {
                    v.check(name(i), &m);
                    samples.record(dt, &m);
                }
                Err(e) => v.fail(name(i), e),
            }
        }
    }

    let mut sorted = samples.ms.clone();
    sorted.sort_by(f64::total_cmp);
    let p50 = stats::percentile(&sorted, 0.5);
    let p90 = stats::percentile(&sorted, TAIL_PERCENTILE);
    if p50.is_none() || p90.is_none() {
        v.fail("run", format!("only {} samples timed", sorted.len()));
    }
    let ok_frac = (v.attempted - v.failed) as f64 / v.attempted.max(1) as f64;
    let per_busy_s = |x: f64| {
        if samples.busy_s > 0.0 {
            x / samples.busy_s
        } else {
            0.0
        }
    };
    let metrics = vec![
        ("runs_per_s".to_string(), per_busy_s(sorted.len() as f64)),
        ("sim_s_per_s".to_string(), per_busy_s(samples.sim_s)),
        ("run_ms_p50".to_string(), p50.unwrap_or(0.0)),
        ("run_ms_p90".to_string(), p90.unwrap_or(0.0)),
        (
            "setup_s".to_string(),
            stats::median(&setup_s).unwrap_or(0.0),
        ),
        ("peak_rss_mb".to_string(), peak_rss_mb()),
        ("ok_frac".to_string(), ok_frac),
    ];
    PhaseOut {
        attempted: v.attempted,
        failed: v.failed,
        samples: sorted.len(),
        metrics,
        errors: v.errors,
    }
}

/// `VmHWM` from `/proc/self/status`, in MiB (0 where unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
