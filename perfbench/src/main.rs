//! The repository benchmark: host time per unit of simulated work, end
//! to end and layer by layer. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each phase runs in a child process of its own, because
//! `PARATICK_PROF` is read once per process: `--trace 0` runs the
//! untraced phase and prints the end-to-end metrics; `--trace 1` runs it
//! and then the traced phase, and prints the per-layer metrics. The last
//! line of standard output is the result as one JSON object.
//! `--repin` re-records the pinned digests of the default seed.

mod catalog;
mod check;
mod plain;
mod stats;
mod traced;

use catalog::{JobSet, Workload};
use check::{Pins, Verifier, DEFAULT_SEED, PROF_VAR};
use paratick::cache::ENGINE_VERSION;
use paratick::Engine;
use paratick_sim::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: traced::CountingAlloc = traced::CountingAlloc;

/// End-to-end metrics, reported by `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("runs_per_s", "1/s"),
    ("sim_s_per_s", "s/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics, reported by `--trace 1`, with their units; the
/// per-kind engine metrics follow `engine.ns_per_event`.
const PER_LAYER: [(&str, &str); 29] = [
    ("engine.new_us", "us"),
    ("engine.run_ms", "ms"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.loop_self_ms", "ms"),
    ("engine.queue_hwm", "count"),
    ("engine.allocs_per_event", "1/event"),
    ("emit.events", "count"),
    ("emit.per_event", "1/event"),
    ("audit.ns_per_emit", "ns"),
    ("audit.ms", "ms"),
    ("workloads.next_calls", "count"),
    ("workloads.ns_per_next", "ns"),
    ("workloads.build_ms", "ms"),
    ("cache.key_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.read_us", "us"),
    ("json.parse_us", "us"),
    ("json.decode_us", "us"),
    ("cache.store_us", "us"),
    ("json.encode_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.entry_kb", "KiB"),
    ("vmm.exits", "count"),
    ("vmm.timer_exits", "count"),
    ("vmm.injections", "count"),
    ("guest.idle_periods", "count"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric with its unit, in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    let named = |(n, u): &(&str, &'static str)| (n.to_string(), *u);
    let mut all: Vec<(String, &'static str)> = PER_LAYER[..4].iter().map(named).collect();
    all.extend(traced::KINDS.map(|k| (format!("engine.events.{k}"), "count")));
    all.extend(traced::KINDS.map(|k| (format!("engine.handler_ms.{k}"), "ms")));
    all.extend(PER_LAYER[4..].iter().map(named));
    all
}

/// What one phase reports to the parent process.
pub struct PhaseOut {
    pub attempted: u64,
    pub failed: u64,
    /// Scenarios timed on the workload's own path.
    pub samples: usize,
    pub metrics: Vec<(String, f64)>,
    pub errors: Vec<String>,
}

impl PhaseOut {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("samples", Json::U64(self.samples as u64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::F64(*v)))
                        .collect(),
                ),
            ),
            (
                "errors",
                Json::Arr(self.errors.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Result<PhaseOut, String> {
        let e = |err: paratick_sim::JsonError| err.to_string();
        let Json::Obj(metrics) = doc.field("metrics").map_err(e)? else {
            return Err("metrics is not an object".into());
        };
        Ok(PhaseOut {
            attempted: doc.field("attempted").and_then(Json::as_u64).map_err(e)?,
            failed: doc.field("failed").and_then(Json::as_u64).map_err(e)?,
            samples: doc.field("samples").and_then(Json::as_u64).map_err(e)? as usize,
            metrics: metrics
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_f64().map_err(e)?)))
                .collect::<Result<_, String>>()?,
            errors: doc
                .field("errors")
                .and_then(Json::as_arr)
                .map_err(e)?
                .iter()
                .filter_map(|x| x.as_str().ok().map(String::from))
                .collect(),
        })
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// Where the benchmark keeps its files: `.perfbench/` under the
/// directory it runs from.
fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// A per-process scratch directory, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = out_dir().join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The run cache's directory.
    pub fn cache(&self) -> PathBuf {
        self.0.join("cache")
    }

    /// Empty the run cache.
    pub fn reset_cache(&self) {
        if let Err(e) = std::fs::remove_dir_all(self.cache()) {
            if e.kind() != std::io::ErrorKind::NotFound {
                eprintln!("perfbench: cannot empty {}: {e}", self.cache().display());
            }
        }
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    phase: Option<String>,
    repin: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::GridCold,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        phase: None,
        repin: false,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        if flag == "--repin" {
            a.repin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("a whole number"))?;
                if a.seconds == 0 {
                    return Err(bad("at least 1"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--phase" => a.phase = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match workload {
        Some(w) => a.workload = w,
        None if a.repin => {}
        None => return Err("--workload is required".into()),
    }
    Ok(a)
}

fn main() -> ExitCode {
    let usage = "usage: perfbench --workload <paper-grid-cold|table1-ticks|paper-grid-warm> \
                 --seed <n> --seconds <n> --trace <0|1>  |  perfbench --repin";
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{usage}");
            return ExitCode::from(2);
        }
    };
    let foreign = check::foreign_env_vars(std::env::vars().map(|(k, _)| k));
    if !foreign.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; only {PROF_VAR} is allowed",
            foreign.join(", ")
        );
        return ExitCode::from(2);
    }
    let result = match (&args.phase, args.repin) {
        (_, true) => repin(),
        (Some(phase), _) => run_phase(phase, &args),
        (None, _) => run_parent(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Child process: run one phase and print its [`PhaseOut`] as the last
/// line.
fn run_phase(phase: &str, a: &Args) -> Result<(), String> {
    let traced = phase == "traced";
    if phase != "plain" && !traced {
        return Err(format!("unknown phase {phase}"));
    }
    if paratick::obs::prof_wall_enabled() != traced {
        return Err(format!(
            "{PROF_VAR} must be set exactly for the traced phase"
        ));
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let dir = WorkDir::create().map_err(|e| format!("cannot create work dir: {e}"))?;
    let out = if traced {
        let spans = out_dir().join(format!("spans-{}-seed{}.json", a.workload.name(), a.seed));
        traced::run(a.workload, a.seed, &dir, &spans)
    } else {
        plain::run(a.workload, a.seed, a.seconds, &dir)
    };
    println!("{}", out.to_json().to_string_compact());
    Ok(())
}

fn spawn_phase(phase: &str, a: &Args) -> Result<PhaseOut, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--phase", phase, "--workload", a.workload.name()])
        .args([
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if phase == "traced" {
        cmd.env(PROF_VAR, "1");
    } else {
        cmd.env_remove(PROF_VAR);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {phase} phase: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {phase} phase failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let doc = Json::parse(last).map_err(|e| format!("{phase} phase output: {e}"))?;
    PhaseOut::from_json(&doc)
}

fn run_parent(a: &Args) -> Result<(), String> {
    let context = context(a);
    println!("perfbench context: {}", context.to_string_compact());
    let plain = spawn_phase("plain", a)?;
    let traced = match a.trace {
        true => Some(spawn_phase("traced", a)?),
        false => None,
    };
    let mut reported: Vec<(String, &str, f64)> = match &traced {
        Some(t) => {
            let base = plain.get("runs_per_s").unwrap_or(0.0);
            let slowed = t.get("runs_per_s").unwrap_or(0.0);
            let overhead = if base > 0.0 {
                100.0 * (base - slowed) / base
            } else {
                0.0
            };
            per_layer()
                .into_iter()
                .map(|(name, unit)| {
                    let v = match name.as_str() {
                        "trace.overhead_pct" => Some(overhead),
                        n => t.get(n),
                    };
                    v.map(|v| (name, unit, v))
                        .ok_or("traced phase is missing a metric")
                })
                .collect::<Result<_, _>>()?
        }
        None => END_TO_END
            .iter()
            .map(|&(name, unit)| {
                plain
                    .get(name)
                    .map(|v| (name.to_string(), unit, v))
                    .ok_or("untraced phase is missing a metric")
            })
            .collect::<Result<_, _>>()?,
    };
    let phases: Vec<&PhaseOut> = std::iter::once(&plain).chain(&traced).collect();
    if let Some((name, unit, _)) = reported
        .iter()
        .find(|(n, u, _)| !stats::valid_metric_name(n) || !stats::valid_unit(u))
    {
        return Err(format!("invalid metric name or unit: {name} {unit}"));
    }
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = phases.iter().map(|p| p.failed).sum();
    for (name, _, v) in &mut reported {
        if !v.is_finite() {
            eprintln!("perfbench: {name} is not finite");
            *v = 0.0;
            failed += 1;
        }
    }
    for e in phases.iter().flat_map(|p| &p.errors) {
        eprintln!("perfbench: failed: {e}");
    }
    println!("timed scenarios: {} (untraced)", plain.samples);
    for (name, unit, v) in &reported {
        println!("{name:<32} {v:>16.6} {unit}");
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(attempted.max(1))),
        ("failed", Json::U64(failed)),
        (
            "metrics",
            Json::Obj(
                reported
                    .iter()
                    .map(|(n, u, v)| {
                        (
                            n.clone(),
                            Json::obj(vec![
                                ("value", Json::F64(*v)),
                                ("unit", Json::Str(u.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let record = Json::obj(vec![
        ("context", context),
        ("samples", Json::U64(plain.samples as u64)),
        ("result", result.clone()),
    ]);
    let path = out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    ));
    if let Err(e) = std::fs::write(&path, record.to_string_pretty()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{}", result.to_string_compact());
    Ok(())
}

/// The host context recorded with every result.
fn context(a: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("workload", Json::Str(a.workload.name().into())),
        ("seed", Json::U64(a.seed)),
        ("seconds", Json::U64(a.seconds)),
        ("trace", Json::Bool(a.trace)),
        ("nproc", Json::U64(nproc as u64)),
        ("engine_version", Json::Str(ENGINE_VERSION.into())),
        ("git_rev", Json::Str(git_rev())),
    ])
}

fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Re-record the default seed's digests for every job family.
fn repin() -> Result<(), String> {
    let digests = Path::new(env!("CARGO_MANIFEST_DIR")).join("digests");
    for w in [Workload::GridCold, Workload::Table1Ticks] {
        let set = JobSet::new(w, DEFAULT_SEED);
        let mut v = Verifier::learning();
        for i in 0..set.len() {
            match Engine::run(set.build(i)) {
                Ok(m) => {
                    v.check(&set.jobs[i].name, &m);
                }
                Err(e) => v.fail(&set.jobs[i].name, e),
            }
        }
        if v.failed > 0 {
            return Err(format!(
                "cannot pin {}: {}",
                w.family(),
                v.errors.join("; ")
            ));
        }
        let path = digests.join(format!("{}.txt", w.family()));
        std::fs::write(&path, Pins::render(v.expected())).map_err(|e| e.to_string())?;
        println!(
            "pinned {} digests under {ENGINE_VERSION} in {}",
            set.len(),
            path.display()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        for (n, u) in END_TO_END {
            assert!(stats::valid_unit(u), "{n}: {u}");
        }
        for (n, u) in per_layer() {
            assert!(stats::valid_unit(u), "{n}: {u}");
            names.push(n);
        }
        for n in &names {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "names are unique");
    }

    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |f: &str| m.field(f).unwrap().as_str().unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<String> = doc
            .field("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn args_parse_and_refuse() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload table1-ticks --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Table1Ticks);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse("--seed 7").is_err(), "workload required");
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload table1-ticks --trace 2").is_err());
        assert!(parse("--workload table1-ticks --seconds 0").is_err());
        assert!(parse("--repin").unwrap().repin);
    }

    #[test]
    fn phase_output_round_trips() {
        let p = PhaseOut {
            attempted: 10,
            failed: 1,
            samples: 9,
            metrics: vec![("runs_per_s".into(), 12.5)],
            errors: vec!["x: broke".into()],
        };
        let back =
            PhaseOut::from_json(&Json::parse(&p.to_json().to_string_compact()).unwrap()).unwrap();
        assert_eq!((back.attempted, back.failed, back.samples), (10, 1, 9));
        assert_eq!(back.get("runs_per_s"), Some(12.5));
        assert_eq!(back.errors, p.errors);
    }
}
