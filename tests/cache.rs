//! Integration tests of the content-addressed run cache: hit/miss
//! byte-identity, key invalidation, and the never-cached classes
//! (faulted, traced, disabled).

use paratick::cache::{run_cached, CacheOutcome, RunCache, ENGINE_VERSION};
use paratick::prelude::*;
use paratick_sim::ToJson;
use paratick_suite::tiny_fio;
use paratick_vmm::{FaultConfig, FaultKind};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paratick-cache-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every `.json` entry under a cache directory (two-level shard layout).
fn entries(dir: &PathBuf) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(shards) = std::fs::read_dir(dir) else {
        return out;
    };
    for shard in shards.flatten() {
        if let Ok(files) = std::fs::read_dir(shard.path()) {
            for f in files.flatten() {
                if f.path().extension().is_some_and(|e| e == "json") {
                    out.push(f.path());
                }
            }
        }
    }
    out
}

/// A warm hit deserializes to metrics byte-identical to the cold miss
/// that stored them — the property the artifact-diff check relies on.
#[test]
fn warm_hit_is_byte_identical_to_cold_miss() {
    let dir = temp_dir("roundtrip");
    let cache = RunCache::new(&dir);

    let (cold, outcome) = cache.run(tiny_fio(TickMode::Paratick, 21)).unwrap();
    assert_eq!(outcome, CacheOutcome::Miss, "cold store must miss");
    assert_eq!(entries(&dir).len(), 1, "miss persists one entry");

    let (warm, outcome) = cache.run(tiny_fio(TickMode::Paratick, 21)).unwrap();
    assert_eq!(outcome, CacheOutcome::Hit, "second run must hit");
    assert_eq!(
        warm.to_json().to_string_pretty(),
        cold.to_json().to_string_pretty(),
        "warm metrics must serialize byte-identically to the cold run"
    );
    assert_eq!(warm.total_exits(), cold.total_exits());
    assert_eq!(warm.events_dispatched, cold.events_dispatched);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Changing the engine version or any scenario ingredient (seed, tick
/// mode, workload) produces a different key, so stale entries are
/// unreachable rather than served.
#[test]
fn key_invalidates_on_version_and_scenario_changes() {
    let base = RunCache::key(&tiny_fio(TickMode::Paratick, 5));
    assert_eq!(base.len(), 64);
    assert_eq!(
        base,
        RunCache::key(&tiny_fio(TickMode::Paratick, 5)),
        "key is deterministic"
    );
    assert_ne!(
        base,
        RunCache::key(&tiny_fio(TickMode::Paratick, 6)),
        "seed is part of the key"
    );
    assert_ne!(
        base,
        RunCache::key(&tiny_fio(TickMode::DynticksIdle, 5)),
        "tick mode is part of the key"
    );
    assert_ne!(
        base,
        RunCache::key_versioned("paratick-9.9.9+simX", &tiny_fio(TickMode::Paratick, 5)),
        "engine version is part of the key"
    );
    let mut no_rcu = tiny_fio(TickMode::Paratick, 5);
    no_rcu.host.rcu_background = false;
    assert_ne!(
        base,
        RunCache::key(&no_rcu),
        "the RCU toggle is part of the key (it gates RCU event generation)"
    );
    assert_ne!(
        base,
        RunCache::key(&tiny_fio(TickMode::Paratick, 5).faults(FaultConfig::campaign())),
        "the fault plan is part of the key"
    );
    assert_eq!(
        RunCache::key_versioned(ENGINE_VERSION, &tiny_fio(TickMode::Paratick, 5)),
        base,
        "explicit current version matches the default key"
    );

    // A warm cache under one version never answers for another: store
    // under a fake version's key, then look the real key up.
    let dir = temp_dir("versions");
    let cache = RunCache::new(&dir);
    let m = Engine::run(tiny_fio(TickMode::Paratick, 5)).unwrap();
    let old_key = RunCache::key_versioned("paratick-0.0.0+sim0", &tiny_fio(TickMode::Paratick, 5));
    cache.store(&old_key, &m);
    assert!(
        cache.lookup(&base).is_none(),
        "entry stored under a different engine version must not hit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault-injected runs bypass the cache in both directions: nothing is
/// stored, and a prior clean entry for the same scenario is not served.
#[test]
fn faulted_runs_bypass_cache() {
    let dir = temp_dir("faults");
    let cache = RunCache::new(&dir);
    let faulted = || {
        tiny_fio(TickMode::Paratick, 22)
            .faults(FaultConfig::off().with(FaultKind::LostTimerIrq, 200.0))
    };
    let (_, outcome) = cache.run(faulted()).unwrap();
    assert_eq!(outcome, CacheOutcome::Bypass, "faulted run must bypass");
    assert!(entries(&dir).is_empty(), "faulted run must not be stored");
    // And again: still a bypass, never a hit.
    let (_, outcome) = cache.run(faulted()).unwrap();
    assert_eq!(outcome, CacheOutcome::Bypass);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Traced runs (`PARATICK_TRACE`) bypass the cache: the simulation must
/// actually execute so the trace file appears. Uses a subprocess
/// because the sink claim and the env snapshot are process-global.
#[test]
fn traced_runs_bypass_cache() {
    if std::env::var_os("PARATICK_OBS_CHILD").is_some() {
        let m = run_cached(tiny_fio(TickMode::Paratick, 23)).unwrap();
        assert!(m.per_vm[0].finished_at.is_some());
        return;
    }
    let trace = std::env::temp_dir().join(format!("paratick-cache-it-trace-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&trace);
    let cache_dir = temp_dir("traced");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .arg("traced_runs_bypass_cache")
        .arg("--exact")
        .env("PARATICK_OBS_CHILD", "1")
        .env("PARATICK_TRACE", &trace)
        .env("PARATICK_CACHE_DIR", &cache_dir)
        .status()
        .expect("re-exec test binary");
    assert!(status.success(), "child run failed");
    assert!(
        std::fs::metadata(&trace).is_ok(),
        "traced run must still simulate and write the trace"
    );
    assert!(
        entries(&cache_dir).is_empty(),
        "traced run must not populate the cache"
    );
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// `PARATICK_CACHE=0` restores the always-simulate behaviour: nothing
/// is read or written even with a cache directory configured.
#[test]
fn cache_opt_out_disables_storage() {
    if std::env::var_os("PARATICK_OBS_CHILD").is_some() {
        let m = run_cached(tiny_fio(TickMode::Paratick, 24)).unwrap();
        assert!(m.per_vm[0].finished_at.is_some());
        return;
    }
    let cache_dir = temp_dir("optout");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .arg("cache_opt_out_disables_storage")
        .arg("--exact")
        .env("PARATICK_OBS_CHILD", "1")
        .env("PARATICK_CACHE", "0")
        .env("PARATICK_CACHE_DIR", &cache_dir)
        .status()
        .expect("re-exec test binary");
    assert!(status.success(), "child run failed");
    assert!(
        entries(&cache_dir).is_empty(),
        "PARATICK_CACHE=0 must not write cache entries"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}
