//! Golden digests pin what "the same engine" means, and purity tests
//! prove the engine reads nothing but its scenario.
//!
//! The run cache keys results on `ENGINE_VERSION ∥ scenario`, so a
//! change that moves simulated results without a version bump would
//! make the cache serve stale metrics. `golden_digests_match_engine_version`
//! turns that into a tier-1 failure.

use paratick::cache::{run_cached, ENGINE_VERSION, GOLDEN_DIGESTS, GOLDEN_VERSION};
use paratick::prelude::*;
use paratick_sim::hash::{hex, Sha256};
use paratick_sim::{Json, ToJson};
use paratick_suite::{idle_vms, tiny_fio, tiny_parsec};
use paratick_workloads::parsec;

/// The golden scenario pinned under `name` in `GOLDEN_DIGESTS`.
fn golden(name: &str) -> Scenario {
    match name {
        "parsec/periodic" => tiny_parsec("swaptions", 2, TickMode::Periodic, 1),
        "parsec/dynticks" => tiny_parsec("swaptions", 2, TickMode::DynticksIdle, 1),
        "parsec/paratick" => tiny_parsec("swaptions", 2, TickMode::Paratick, 1),
        "parsec/paratick+faults" => {
            tiny_parsec("canneal", 2, TickMode::Paratick, 1).faults(FaultConfig::campaign())
        }
        // Long enough (64 ms) for background RCU callbacks to arrive,
        // which the tiny scenarios finish before.
        "parsec/dynticks+rcu" => {
            let dedup = parsec::profile("dedup").unwrap();
            Scenario::new(HostConfig::small(2))
                .vm(VmConfig::with_vcpus(2), parsec::workload(dedup, 2, 0.1))
                .seed(1)
        }
        "fio/dynticks" => tiny_fio(TickMode::DynticksIdle, 1),
        "fio/paratick" => tiny_fio(TickMode::Paratick, 1),
        "idle/periodic" => idle_vms(2, 2, TickMode::Periodic, 1),
        "idle/paratick" => idle_vms(2, 2, TickMode::Paratick, 1),
        _ => panic!("no golden scenario named {name}"),
    }
}

/// SHA-256 of the metrics' canonical JSON without `profile`, the only
/// field that holds wall-clock values.
fn digest(m: &RunMetrics) -> String {
    let Json::Obj(fields) = m.to_json() else {
        unreachable!("RunMetrics encodes as a JSON object");
    };
    let kept = fields.into_iter().filter(|(k, _)| k != "profile").collect();
    let mut h = Sha256::new();
    h.update(Json::Obj(kept).to_string_compact().as_bytes());
    hex(&h.finalize())
}

/// `(name, pinned digest)` for every golden scenario.
fn pins() -> Vec<(&'static str, &'static str)> {
    GOLDEN_DIGESTS
        .lines()
        .map(|l| l.split_once(' ').expect("`<name> <digest>` pin line"))
        .collect()
}

/// Digests of the golden scenarios, each run straight on the engine.
fn engine_digests() -> Vec<(&'static str, String)> {
    pins()
        .into_iter()
        .map(|(name, _)| (name, digest(&Engine::run(golden(name)).unwrap())))
        .collect()
}

#[test]
fn golden_digests_match_engine_version() {
    let actual = engine_digests();
    let repin: String = actual.iter().map(|(n, d)| format!("{n} {d}\n")).collect();
    assert_eq!(
        GOLDEN_VERSION, ENGINE_VERSION,
        "ENGINE_VERSION changed: re-pin GOLDEN_VERSION and GOLDEN_DIGESTS \
         in crates/core/src/cache.rs to\n{repin}"
    );
    let moved: Vec<&str> = actual
        .iter()
        .zip(pins())
        .filter(|((_, d), (_, pin))| d != pin)
        .map(|((n, _), _)| *n)
        .collect();
    assert!(
        moved.is_empty(),
        "simulated results of {moved:?} changed under {ENGINE_VERSION}: \
         bump ENGINE_VERSION and re-pin GOLDEN_VERSION and GOLDEN_DIGESTS \
         in crates/core/src/cache.rs to\n{repin}"
    );
}

/// With `PARATICK_FAULTS=campaign PARATICK_NO_RCU=1` set, the engine
/// still reproduces the pinned digests (it reads only its scenario),
/// while the runner folds both knobs in exactly as
/// `EnvConfig::apply` does. A subprocess, because the environment
/// snapshot is process-global.
#[test]
fn result_knobs_reach_runs_only_through_the_runner() {
    if std::env::var_os("PARATICK_OBS_CHILD").is_some() {
        let env = EnvConfig::get().unwrap();
        assert!(
            env.faults.is_some() && env.no_rcu,
            "child environment not set"
        );
        for ((name, d), (_, pin)) in engine_digests().into_iter().zip(pins()) {
            assert_eq!(d, pin, "{name}: Engine::run read the environment");
            let via_runner = run_cached(golden(name)).unwrap();
            let direct = Engine::run(env.apply(golden(name))).unwrap();
            assert_eq!(digest(&via_runner), digest(&direct), "{name}");
            assert!(
                via_runner.faults.total_injected() > 0,
                "{name}: faults not applied"
            );
        }
        // Background RCU shapes this run, so an unchanged digest would
        // mean the runner dropped PARATICK_NO_RCU.
        let rcu = "parsec/dynticks+rcu";
        assert_ne!(
            digest(&run_cached(golden(rcu)).unwrap()),
            digest(&Engine::run(golden(rcu).faults(FaultConfig::campaign())).unwrap()),
            "PARATICK_NO_RCU not applied"
        );
        return;
    }
    let cache_dir = std::env::temp_dir().join(format!("paratick-golden-{}", std::process::id()));
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .arg("result_knobs_reach_runs_only_through_the_runner")
        .arg("--exact")
        .env("PARATICK_OBS_CHILD", "1")
        .env("PARATICK_FAULTS", "campaign")
        .env("PARATICK_NO_RCU", "1")
        .env("PARATICK_CACHE_DIR", &cache_dir)
        .status()
        .expect("re-exec test binary");
    let _ = std::fs::remove_dir_all(&cache_dir);
    assert!(status.success(), "child run failed");
}
