//! `paratick bench` / `paratick compare`: the engine perf regression
//! gate.
//!
//! Measures the *simulator's own* speed — DES events per wall-clock
//! second and wall time per run, from the engine's always-on
//! self-profiling ([`paratick::metrics::EngineProfile`]) — over a fixed
//! basket of scenarios, and persists the result as a schema-versioned
//! `BENCH_<label>.json`. Two such files compare with CI-backed
//! verdicts: a metric only counts as regressed when the candidate's
//! 95 % interval is disjoint from the baseline's *and* the mean moved
//! more than [`REGRESSION_THRESHOLD_PCT`] in the bad direction. The
//! simulated results themselves are checked for drift too
//! (`events_dispatched` is deterministic per scenario, so a difference
//! means the engines simulate different things — flagged, not failed).
//!
//! Runs deliberately bypass the run cache ([`Engine::run`] directly):
//! the point is *this* engine's wall clock, never a replay. Since the
//! cache is also where `PARATICK_FAULTS` / `PARATICK_NO_RCU` are
//! applied, the basket always simulates exactly its own scenarios.

use paratick::prelude::*;
use paratick_sim::stats::Samples;
use paratick_sim::{Json, JsonError};
use paratick_workloads::fio::{self, FioPattern, FioSpec};
use paratick_workloads::{parsec, VmWorkload};

/// Bench file schema version; bump on layout changes so `compare`
/// rejects files it would misread.
pub const BENCH_SCHEMA: u64 = 1;

/// Fixed workload scale of the basket — independent of `PARATICK_SCALE`
/// so bench files are comparable across environments.
pub const BENCH_SCALE: f64 = 0.25;

/// Mean shift (in percent, in the bad direction) below which a
/// statistically significant difference is still ignored — wall-clock
/// measurement noise on shared machines easily reaches a few percent.
pub const REGRESSION_THRESHOLD_PCT: f64 = 5.0;

/// Scenario seed for every bench run: identical seeds make
/// `events_dispatched` a deterministic per-scenario constant, so
/// run-to-run variance isolates *engine* speed, not workload draw.
const BENCH_SEED: u64 = 0xBE7C_0001;

/// A named, repeatable scenario builder in the bench basket.
type BasketCell = (&'static str, Box<dyn Fn() -> Scenario>);

/// The fixed scenario basket: one cell per engine regime (sequential
/// compute, multithreaded sync-heavy, I/O-driven, idle/timer-dominated)
/// so a regression in any subsystem moves at least one entry.
fn basket() -> Vec<BasketCell> {
    let seq = |name: &'static str, mode: TickMode| -> Box<dyn Fn() -> Scenario> {
        let profile = *parsec::profile(name).expect("unknown benchmark");
        Box::new(move || {
            Scenario::new(HostConfig::default())
                .vm(
                    VmConfig::with_vcpus(1).mode(mode).spanning(1),
                    parsec::workload(&profile, 1, BENCH_SCALE),
                )
                .seed(BENCH_SEED)
        })
    };
    let par = |name: &'static str, mode: TickMode| -> Box<dyn Fn() -> Scenario> {
        let profile = *parsec::profile(name).expect("unknown benchmark");
        Box::new(move || {
            let cfg = VmConfig::small_vm().mode(mode);
            let threads = cfg.vcpus as usize;
            Scenario::new(HostConfig::default())
                .vm(cfg, parsec::workload(&profile, threads, BENCH_SCALE))
                .seed(BENCH_SEED)
        })
    };
    let io = || -> Box<dyn Fn() -> Scenario> {
        Box::new(|| {
            let bytes = ((48u64 << 20) as f64 * BENCH_SCALE) as u64;
            let spec = FioSpec::new(FioPattern::SeqRead, 4 << 10, bytes);
            let mut cfg = VmConfig::with_vcpus(1).mode(TickMode::Paratick).spanning(1);
            cfg.device = DeviceKind::VirtioCached;
            Scenario::new(HostConfig::default())
                .vm(cfg, fio::workload(&spec))
                .seed(BENCH_SEED)
        })
    };
    let idle = || -> Box<dyn Fn() -> Scenario> {
        Box::new(|| {
            Scenario::new(HostConfig::small(4))
                .vm(
                    VmConfig::with_vcpus(4).mode(TickMode::Periodic),
                    VmWorkload::idle("bench-idle"),
                )
                .seed(BENCH_SEED)
                .until(RunUntil::Time(SimTime::from_secs(2)))
        })
    };
    vec![
        ("seq/swaptions/paratick", seq("swaptions", TickMode::Paratick)),
        ("par/dedup-small/dynticks", par("dedup", TickMode::DynticksIdle)),
        ("io/seqr-4k/paratick", io()),
        ("idle/4vcpu/periodic", idle()),
    ]
}

/// Summary statistics of one measured metric, as persisted.
#[derive(Clone, Debug)]
pub struct BenchSummary {
    pub n: u64,
    pub mean: f64,
    pub stddev: f64,
    pub ci95: (f64, f64),
}

impl BenchSummary {
    fn of(s: &Samples) -> BenchSummary {
        BenchSummary {
            n: s.len() as u64,
            mean: s.mean(),
            stddev: s.stddev(),
            ci95: s.ci95_t(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("n", Json::U64(self.n)),
            ("mean", Json::F64(self.mean)),
            ("stddev", Json::F64(self.stddev)),
            (
                "ci95",
                Json::Arr(vec![Json::F64(self.ci95.0), Json::F64(self.ci95.1)]),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<BenchSummary, JsonError> {
        let ci = v.field("ci95")?.as_arr()?;
        let bad = || JsonError::Decode {
            msg: "ci95 must be a 2-array".into(),
        };
        Ok(BenchSummary {
            n: v.field("n")?.as_u64()?,
            mean: v.field("mean")?.as_f64()?,
            stddev: v.field("stddev")?.as_f64()?,
            ci95: (
                ci.first().ok_or_else(bad)?.as_f64()?,
                ci.get(1).ok_or_else(bad)?.as_f64()?,
            ),
        })
    }
}

/// One basket entry's measurements.
#[derive(Clone, Debug)]
pub struct BenchEntry {
    pub scenario: String,
    /// Deterministic per-scenario event count (drift ⇒ the engines
    /// simulate different things).
    pub events_dispatched: u64,
    /// DES events per wall-clock second (higher is better).
    pub events_per_sec: BenchSummary,
    /// Wall milliseconds per run (lower is better).
    pub wall_millis: BenchSummary,
}

/// A persisted `paratick bench` result.
#[derive(Clone, Debug)]
pub struct BenchReport {
    pub label: String,
    pub engine_version: String,
    /// Runs per basket entry.
    pub runs: u32,
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// `BENCH_<label>.json`, with the label made filename-safe.
    pub fn file_name(label: &str) -> String {
        format!("BENCH_{}.json", paratick::sweep::sanitize(label))
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::U64(BENCH_SCHEMA)),
            ("label", Json::Str(self.label.clone())),
            ("engine_version", Json::Str(self.engine_version.clone())),
            ("runs", Json::U64(u64::from(self.runs))),
            ("scale", Json::F64(BENCH_SCALE)),
            (
                "entries",
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("scenario", Json::Str(e.scenario.clone())),
                                ("events_dispatched", Json::U64(e.events_dispatched)),
                                ("events_per_sec", e.events_per_sec.to_json()),
                                ("wall_millis", e.wall_millis.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<BenchReport, JsonError> {
        let schema = v.field("schema")?.as_u64()?;
        if schema != BENCH_SCHEMA {
            return Err(JsonError::Decode {
                msg: format!("bench schema {schema} unsupported (expected {BENCH_SCHEMA})"),
            });
        }
        let entries = v
            .field("entries")?
            .as_arr()?
            .iter()
            .map(|e| {
                Ok(BenchEntry {
                    scenario: e.field("scenario")?.as_str()?.to_string(),
                    events_dispatched: e.field("events_dispatched")?.as_u64()?,
                    events_per_sec: BenchSummary::from_json(e.field("events_per_sec")?)?,
                    wall_millis: BenchSummary::from_json(e.field("wall_millis")?)?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(BenchReport {
            label: v.field("label")?.as_str()?.to_string(),
            engine_version: v.field("engine_version")?.as_str()?.to_string(),
            runs: v.field("runs")?.as_u64()? as u32,
            entries,
        })
    }

    /// Load a bench file from disk.
    pub fn load(path: &std::path::Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchReport::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Human summary table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "bench {} (engine {}, {} runs/entry, scale {}):\n",
            self.label, self.engine_version, self.runs, BENCH_SCALE
        );
        for e in &self.entries {
            out.push_str(&format!(
                "  {:<26} {:>12.0} ev/s (sd {:>6.0})  {:>8.1} ms/run  {:>9} events\n",
                e.scenario,
                e.events_per_sec.mean,
                e.events_per_sec.stddev,
                e.wall_millis.mean,
                e.events_dispatched,
            ));
        }
        out
    }
}

/// Measure the basket: `runs` timed engine executions per entry (plus
/// one untimed warm-up to fault in code and allocator pools).
pub fn run_bench(label: &str, runs: u32) -> Result<BenchReport, SimError> {
    assert!(runs >= 1, "bench needs at least one run");
    let mut entries = Vec::new();
    for (name, build) in basket() {
        let _warmup = Engine::run(build())?;
        let mut eps = Samples::new();
        let mut wall = Samples::new();
        let mut events = 0;
        for _ in 0..runs {
            let m = Engine::run(build())?;
            events = m.events_dispatched;
            wall.record(m.profile.wall_nanos as f64 / 1e6);
            if let Some(rate) = m.profile.events_per_sec() {
                eps.record(rate);
            }
        }
        entries.push(BenchEntry {
            scenario: name.to_string(),
            events_dispatched: events,
            events_per_sec: BenchSummary::of(&eps),
            wall_millis: BenchSummary::of(&wall),
        });
    }
    Ok(BenchReport {
        label: label.to_string(),
        engine_version: paratick::cache::ENGINE_VERSION.to_string(),
        runs,
        entries,
    })
}

/// Per-metric verdict of a comparison row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateVerdict {
    /// No significant change.
    Ok,
    /// Significantly better.
    Improved,
    /// Significantly worse — fails the gate.
    Regressed,
}

impl GateVerdict {
    pub fn label(self) -> &'static str {
        match self {
            GateVerdict::Ok => "ok",
            GateVerdict::Improved => "improved",
            GateVerdict::Regressed => "REGRESSED",
        }
    }
}

/// One `(scenario, metric)` comparison row.
#[derive(Clone, Debug)]
pub struct CompareRow {
    pub scenario: String,
    pub metric: &'static str,
    pub baseline: f64,
    pub candidate: f64,
    /// Mean shift in percent (sign follows the raw metric).
    pub change_pct: f64,
    pub verdict: GateVerdict,
}

/// The outcome of `paratick compare`.
#[derive(Clone, Debug)]
pub struct CompareReport {
    pub baseline_label: String,
    pub candidate_label: String,
    /// Engine versions differ: expected when comparing across commits,
    /// worth a note when comparing within one.
    pub version_differs: bool,
    pub rows: Vec<CompareRow>,
    /// Scenarios present in exactly one file — the baskets diverged,
    /// which fails the gate (a silently shrunk basket is not a pass).
    pub missing: Vec<String>,
    /// Scenarios whose deterministic event counts differ (engines
    /// simulate different things; informational).
    pub drifted: Vec<String>,
}

impl CompareReport {
    pub fn regressions(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == GateVerdict::Regressed)
            .count()
    }

    /// Nonzero on any regression or basket mismatch.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.regressions() > 0 || !self.missing.is_empty())
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "compare {} -> {}{}:\n",
            self.baseline_label,
            self.candidate_label,
            if self.version_differs {
                " (engine versions differ)"
            } else {
                ""
            }
        );
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<26} {:<14} {:>12.1} -> {:>12.1}  {:>+7.1}%  {}\n",
                r.scenario, r.metric, r.baseline, r.candidate, r.change_pct, r.verdict.label(),
            ));
        }
        for s in &self.drifted {
            out.push_str(&format!(
                "  note: {s}: events_dispatched differs (engines simulate different things)\n"
            ));
        }
        for s in &self.missing {
            out.push_str(&format!("  MISSING {s}: present in only one file\n"));
        }
        out.push_str(&format!(
            "verdict: {} regression(s), {} missing scenario(s)\n",
            self.regressions(),
            self.missing.len()
        ));
        out
    }
}

/// Do two 95 % intervals overlap? Non-finite bounds compare as
/// overlapping (can't prove separation).
fn overlap(a: (f64, f64), b: (f64, f64)) -> bool {
    if !(a.0.is_finite() && a.1.is_finite() && b.0.is_finite() && b.1.is_finite()) {
        return true;
    }
    a.0 <= b.1 && b.0 <= a.1
}

/// Judge one metric: `sign` is +1 when higher is better, -1 when lower
/// is better.
fn judge_metric(base: &BenchSummary, cand: &BenchSummary, sign: f64) -> (f64, GateVerdict) {
    if base.mean == 0.0 || !base.mean.is_finite() || !cand.mean.is_finite() {
        return (f64::NAN, GateVerdict::Ok);
    }
    let change_pct = (cand.mean - base.mean) / base.mean.abs() * 100.0;
    let significant = !overlap(base.ci95, cand.ci95) && change_pct.abs() > REGRESSION_THRESHOLD_PCT;
    let verdict = if !significant {
        GateVerdict::Ok
    } else if change_pct * sign > 0.0 {
        GateVerdict::Improved
    } else {
        GateVerdict::Regressed
    };
    (change_pct, verdict)
}

/// Compare two bench reports metric by metric.
pub fn compare(base: &BenchReport, cand: &BenchReport) -> CompareReport {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    let mut drifted = Vec::new();
    for b in &base.entries {
        let Some(c) = cand.entries.iter().find(|c| c.scenario == b.scenario) else {
            missing.push(b.scenario.clone());
            continue;
        };
        if b.events_dispatched != c.events_dispatched {
            drifted.push(b.scenario.clone());
        }
        let (change, verdict) = judge_metric(&b.events_per_sec, &c.events_per_sec, 1.0);
        rows.push(CompareRow {
            scenario: b.scenario.clone(),
            metric: "events_per_sec",
            baseline: b.events_per_sec.mean,
            candidate: c.events_per_sec.mean,
            change_pct: change,
            verdict,
        });
        let (change, verdict) = judge_metric(&b.wall_millis, &c.wall_millis, -1.0);
        rows.push(CompareRow {
            scenario: b.scenario.clone(),
            metric: "wall_millis",
            baseline: b.wall_millis.mean,
            candidate: c.wall_millis.mean,
            change_pct: change,
            verdict,
        });
    }
    for c in &cand.entries {
        if !base.entries.iter().any(|b| b.scenario == c.scenario) {
            missing.push(c.scenario.clone());
        }
    }
    CompareReport {
        baseline_label: base.label.clone(),
        candidate_label: cand.label.clone(),
        version_differs: base.engine_version != cand.engine_version,
        rows,
        missing,
        drifted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(mean: f64, hw: f64) -> BenchSummary {
        BenchSummary {
            n: 5,
            mean,
            stddev: hw / 2.0,
            ci95: (mean - hw, mean + hw),
        }
    }

    fn report(label: &str, eps: f64, wall: f64) -> BenchReport {
        BenchReport {
            label: label.to_string(),
            engine_version: "test-engine".to_string(),
            runs: 5,
            entries: vec![BenchEntry {
                scenario: "seq/x".to_string(),
                events_dispatched: 1000,
                events_per_sec: summary(eps, eps * 0.01),
                wall_millis: summary(wall, wall * 0.01),
            }],
        }
    }

    #[test]
    fn self_compare_is_clean() {
        let r = report("a", 1e6, 50.0);
        let cmp = compare(&r, &r);
        assert_eq!(cmp.regressions(), 0);
        assert_eq!(cmp.exit_code(), 0);
        assert!(cmp.rows.iter().all(|row| row.verdict == GateVerdict::Ok));
    }

    #[test]
    fn clear_slowdown_regresses() {
        let base = report("base", 1e6, 50.0);
        let cand = report("cand", 5e5, 100.0);
        let cmp = compare(&base, &cand);
        assert_eq!(cmp.regressions(), 2, "{cmp:?}");
        assert_eq!(cmp.exit_code(), 1);
        assert!(cmp.render().contains("REGRESSED"));
    }

    #[test]
    fn speedup_improves_not_fails() {
        let base = report("base", 1e6, 50.0);
        let cand = report("cand", 2e6, 25.0);
        let cmp = compare(&base, &cand);
        assert_eq!(cmp.regressions(), 0);
        assert!(cmp
            .rows
            .iter()
            .all(|row| row.verdict == GateVerdict::Improved));
    }

    #[test]
    fn small_shift_within_threshold_is_ok() {
        // 3% slower with tiny CIs: significant separation but under the
        // noise threshold — not a regression.
        let base = report("base", 1e6, 50.0);
        let cand = report("cand", 0.97e6, 51.5);
        let cmp = compare(&base, &cand);
        assert_eq!(cmp.regressions(), 0, "{cmp:?}");
    }

    #[test]
    fn overlapping_cis_never_significant() {
        let mut base = report("base", 1e6, 50.0);
        let mut cand = report("cand", 0.8e6, 60.0);
        // Widen both intervals until they overlap.
        base.entries[0].events_per_sec.ci95 = (0.5e6, 1.5e6);
        cand.entries[0].events_per_sec.ci95 = (0.4e6, 1.2e6);
        base.entries[0].wall_millis.ci95 = (30.0, 70.0);
        cand.entries[0].wall_millis.ci95 = (40.0, 80.0);
        let cmp = compare(&base, &cand);
        assert_eq!(cmp.regressions(), 0, "{cmp:?}");
    }

    #[test]
    fn missing_scenarios_fail_the_gate() {
        let base = report("base", 1e6, 50.0);
        let mut cand = report("cand", 1e6, 50.0);
        cand.entries[0].scenario = "other/scenario".to_string();
        let cmp = compare(&base, &cand);
        assert_eq!(cmp.missing.len(), 2, "both directions reported");
        assert_eq!(cmp.exit_code(), 1);
    }

    #[test]
    fn json_round_trip() {
        let r = report("round-trip", 1.25e6, 48.5);
        let text = r.to_json().to_string_pretty();
        let back = BenchReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.label, r.label);
        assert_eq!(back.engine_version, r.engine_version);
        assert_eq!(back.runs, r.runs);
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[0].scenario, "seq/x");
        assert_eq!(back.entries[0].events_dispatched, 1000);
        assert_eq!(back.entries[0].events_per_sec.mean, 1.25e6);
        assert_eq!(back.entries[0].wall_millis.ci95, r.entries[0].wall_millis.ci95);
        // Re-serialization is byte-stable.
        assert_eq!(back.to_json().to_string_pretty(), text);
    }

    #[test]
    fn wrong_schema_rejected() {
        let mut doc = report("x", 1.0, 1.0).to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "schema" {
                    *v = Json::U64(999);
                }
            }
        }
        let err = BenchReport::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("schema 999"));
    }

    #[test]
    fn file_names_are_safe() {
        assert_eq!(BenchReport::file_name("local"), "BENCH_local.json");
        assert_eq!(BenchReport::file_name("pr/42"), "BENCH_pr_42.json");
    }
}
