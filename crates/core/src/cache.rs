//! Content-addressed run cache: skip simulations whose results are
//! already known.
//!
//! Every simulation in this repository is a pure function of its
//! [`Scenario`] (which embeds the seed, the tick modes, the fault plan
//! and the RCU toggle) and the engine's code. The cache exploits that:
//! a run's [`RunMetrics`] are stored on disk under
//! `SHA-256(ENGINE_VERSION ∥ scenario canonical hash)`, and
//! [`run_cached`] consults the store before simulating. A warm cache
//! makes `paratick all` re-emit every artifact byte-identically without
//! running a single simulation.
//!
//! [`run_cached_outcome`] is also the one place the environment meets
//! a run: it folds `PARATICK_FAULTS` / `PARATICK_NO_RCU` into the
//! scenario ([`EnvConfig::apply`]) *before* keying it, so the key
//! hashes exactly what will run, and it attaches the
//! `PARATICK_TRACE` / `PARATICK_TIMESERIES` sinks
//! ([`obs::claim_env_sinks`]).
//!
//! ## What is never cached
//!
//! * **Faulted runs** — fault plans model environmental weather; see
//!   [`paratick_vmm::FaultConfig::cache_safe`]. (They would be
//!   *correct* to cache — the plans are deterministic — but a transient
//!   `PARATICK_FAULTS` campaign polluting the long-lived store buys
//!   nothing.)
//! * **Observed runs** — the run that claims the `PARATICK_TRACE` /
//!   `PARATICK_TIMESERIES` sinks: a cache hit would skip the
//!   simulation and the requested file would silently not appear.
//! * **Profiled runs** (`PARATICK_PROF=1`) — the point of profiling is
//!   *this* run's wall clock, not a replay of an old one.
//! * Anything when `PARATICK_CACHE=0` (or `off`/`false`) is set.
//!
//! ## Layout
//!
//! `<dir>/<k0k1>/<key>.json` where `<dir>` is `PARATICK_CACHE_DIR` or
//! `$TMPDIR/paratick-cache`, `<key>` is the 64-hex-digit SHA-256 and
//! `<k0k1>` its first two digits (fan-out, like `.git/objects`). Files
//! are written to a temporary sibling and atomically renamed, so
//! concurrent sweep workers never observe torn entries. Corrupt or
//! unreadable entries are treated as misses and rewritten.

use crate::config::{EnvConfig, Scenario};
use crate::engine::Engine;
use crate::metrics::RunMetrics;
use crate::obs;
use paratick_sim::{FromJson, Json, StableHash, StableHasher, ToJson};
use paratick_vmm::{EventSink, SimError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Engine content version, folded into every cache key. **Bump the
/// suffix whenever a change can alter simulation results** — new event
/// orderings, cost-model changes, workload-generation tweaks. Stale
/// entries then simply never match again; no invalidation pass needed.
pub const ENGINE_VERSION: &str = concat!("paratick-", env!("CARGO_PKG_VERSION"), "+sim1");

/// The [`ENGINE_VERSION`] that [`GOLDEN_DIGESTS`] were pinned under.
pub const GOLDEN_VERSION: &str = "paratick-0.1.0+sim1";

/// SHA-256 of each golden scenario's `RunMetrics` JSON without the
/// wall-clock `profile`, one `<name> <digest>` per line (the scenarios
/// are built in `tests/golden.rs`). A digest that moves while
/// [`ENGINE_VERSION`] stays put means the cache would serve stale
/// metrics: bump the version, then re-pin these and [`GOLDEN_VERSION`]
/// from the test's failure message.
pub const GOLDEN_DIGESTS: &str = "\
parsec/periodic 76355f0cf6d98e3b07a11ecc53a61f9b04fea826b74bd70dc5c0dbc712f7d65b
parsec/dynticks 079e7d411ae8aa4c563de5577f257c814a45daaf2a18c44c22481c19d9c8626c
parsec/paratick 5acdce52f2c88d7f1072a8581ff0ec77b7d7ddb0303ef7041faf1e24c09d42f4
parsec/dynticks+rcu f0a77521e003d6c2ea4e91ee95a478940a30b8808a895e36c1a7f853c6c4ef3d
fio/dynticks 35f4a480cfad9c4f28f45affe3335d6116e882282ba6e9ff0e15681bddafdb51
fio/paratick 836953e7ae31150361ef7fd1cc15008681ddf6d5dd32d76c0d2805568d7a6cef
idle/periodic 41f3c034fe0ad8328693191e06ae2670fb878b51687d491aa2d139809f4fa4a0
idle/paratick c81f7cbba318ce9cbd23d56be9868fccf66a0b56034c2321232bf6890b5964da
parsec/paratick+faults 3399e7678fa3abc0d0ed49a4fedc80566a229b24a0ab9ca80bd7b303f534ce5e
";

// Process-wide outcome counters, reported by the CLI summary. The
// acceptance check "warm `paratick all` skips every simulation" is
// literally `hits == hits + misses + bypasses`.
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);
static BYPASSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Misses that were successfully persisted afterwards.
    pub stores: u64,
    /// Runs that skipped the cache entirely (faulted / observed /
    /// profiled / disabled).
    pub bypasses: u64,
}

impl CacheStats {
    pub fn snapshot() -> CacheStats {
        CacheStats {
            hits: HITS.load(Ordering::SeqCst),
            misses: MISSES.load(Ordering::SeqCst),
            stores: STORES.load(Ordering::SeqCst),
            bypasses: BYPASSES.load(Ordering::SeqCst),
        }
    }

    /// Counter movement since an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            stores: self.stores - earlier.stores,
            bypasses: self.bypasses - earlier.bypasses,
        }
    }

    /// Total simulations requested through [`run_cached`].
    pub fn runs(&self) -> u64 {
        self.hits + self.misses + self.bypasses
    }

    /// One-line human summary, e.g. `12 hits / 0 misses / 0 bypasses of
    /// 12 runs`.
    pub fn summary(&self) -> String {
        format!(
            "{} hits / {} misses / {} bypasses of {} runs",
            self.hits,
            self.misses,
            self.bypasses,
            self.runs()
        )
    }

    /// Attribute one [`run_cached_outcome`] result to this (local)
    /// tally. A miss is counted as a store too: per-call accounting
    /// cannot see the rare store failure, which only the process-wide
    /// counters report.
    pub fn record(&mut self, outcome: CacheOutcome) {
        match outcome {
            CacheOutcome::Hit => self.hits += 1,
            CacheOutcome::Miss => {
                self.misses += 1;
                self.stores += 1;
            }
            CacheOutcome::Bypass => self.bypasses += 1,
        }
    }

    /// Sum of two tallies (for aggregating per-cell stats).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.stores += other.stores;
        self.bypasses += other.bypasses;
    }
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hits", Json::U64(self.hits)),
            ("misses", Json::U64(self.misses)),
            ("bypasses", Json::U64(self.bypasses)),
        ])
    }
}

/// How one [`run_cached`] call was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Deserialized from the store; no simulation ran.
    Hit,
    /// Simulated, then persisted.
    Miss,
    /// Simulated without consulting the store (see module docs).
    Bypass,
}

/// A content-addressed store of [`RunMetrics`] keyed by scenario hash.
#[derive(Clone, Debug)]
pub struct RunCache {
    dir: PathBuf,
}

impl RunCache {
    /// Cache over an explicit directory (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> RunCache {
        RunCache { dir: dir.into() }
    }

    /// `$TMPDIR/paratick-cache` — shared by every invocation on the
    /// machine, safely: keys are content hashes.
    pub fn default_dir() -> PathBuf {
        std::env::temp_dir().join("paratick-cache")
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cache key for a scenario under the current engine version.
    pub fn key(scenario: &Scenario) -> String {
        Self::key_versioned(ENGINE_VERSION, scenario)
    }

    /// `SHA-256(version ∥ scenario canonical hash)`. The explicit
    /// version lets tests prove a version bump invalidates.
    pub fn key_versioned(version: &str, scenario: &Scenario) -> String {
        let mut h = StableHasher::new();
        h.write_str(version);
        scenario.stable_hash(&mut h);
        h.finish_hex()
    }

    fn path_of(&self, key: &str) -> PathBuf {
        self.dir.join(&key[..2]).join(format!("{key}.json"))
    }

    /// Fetch a stored run. Corrupt entries read as `None`.
    pub fn lookup(&self, key: &str) -> Option<RunMetrics> {
        let text = std::fs::read_to_string(self.path_of(key)).ok()?;
        let doc = Json::parse(&text).ok()?;
        let entry_version = doc.opt_field("engine_version")?.as_str().ok()?;
        if entry_version != ENGINE_VERSION {
            // Unreachable through `key()` (the version is hashed into
            // the key) but guards hand-edited or collided entries.
            return None;
        }
        RunMetrics::from_json(doc.opt_field("metrics")?).ok()
    }

    /// Persist a run under `key`: write a temporary sibling, fsync-free
    /// atomic rename. Failures are reported but non-fatal — the cache
    /// is an accelerator, never a correctness dependency.
    pub fn store(&self, key: &str, metrics: &RunMetrics) -> bool {
        let path = self.path_of(key);
        let parent = path.parent().expect("cache entry has a shard dir");
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("run-cache: cannot create {}: {e}", parent.display());
            return false;
        }
        let doc = Json::obj(vec![
            ("engine_version", Json::Str(ENGINE_VERSION.to_string())),
            ("key", Json::Str(key.to_string())),
            ("metrics", metrics.to_json()),
        ]);
        let tmp = parent.join(format!(".{key}.tmp.{}", std::process::id()));
        let body = doc.to_string_pretty();
        if let Err(e) = std::fs::write(&tmp, body) {
            eprintln!("run-cache: write {} failed: {e}", tmp.display());
            return false;
        }
        if let Err(e) = std::fs::rename(&tmp, &path) {
            eprintln!("run-cache: rename to {} failed: {e}", path.display());
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        true
    }

    /// Run a scenario, as given, through this cache. The explicit-cache
    /// form backs the module-level [`run_cached`] (which applies the
    /// environment first) and lets tests point at a temporary
    /// directory.
    pub fn run(&self, scenario: Scenario) -> Result<(RunMetrics, CacheOutcome), SimError> {
        if !scenario.host.faults.cache_safe() || obs::prof_wall_enabled() {
            return bypass(scenario, Vec::new());
        }
        let key = Self::key(&scenario);
        if let Some(m) = self.lookup(&key) {
            HITS.fetch_add(1, Ordering::SeqCst);
            return Ok((m, CacheOutcome::Hit));
        }
        MISSES.fetch_add(1, Ordering::SeqCst);
        let m = Engine::run(scenario)?;
        if self.store(&key, &m) {
            STORES.fetch_add(1, Ordering::SeqCst);
        }
        Ok((m, CacheOutcome::Miss))
    }
}

/// Simulate without consulting the store, feeding `sinks`.
fn bypass(
    scenario: Scenario,
    sinks: Vec<Box<dyn EventSink>>,
) -> Result<(RunMetrics, CacheOutcome), SimError> {
    BYPASSES.fetch_add(1, Ordering::SeqCst);
    let mut engine = Engine::new(scenario)?;
    for sink in sinks {
        engine.attach_sink(sink);
    }
    engine
        .run_to_completion()
        .map(|m| (m, CacheOutcome::Bypass))
}

/// Run a scenario through the environment-selected cache: serve a hit
/// if one exists, otherwise simulate and persist. This is the arrow
/// every experiment goes through; `PARATICK_CACHE=0` restores the old
/// always-simulate behaviour exactly.
pub fn run_cached(scenario: Scenario) -> Result<RunMetrics, SimError> {
    run_cached_outcome(scenario).map(|(m, _)| m)
}

/// Like [`run_cached`], but reports how the call was satisfied; the
/// experiment runner and sweep scheduler attribute cache traffic per
/// cell with it.
///
/// In order: resolve the environment (a malformed one is a
/// [`SimError::Config`]), fold it into the scenario
/// ([`EnvConfig::apply`]), and claim the env sinks — the run that gets
/// them bypasses the store so its files appear.
pub fn run_cached_outcome(scenario: Scenario) -> Result<(RunMetrics, CacheOutcome), SimError> {
    let env = EnvConfig::get().map_err(|e| SimError::Config(e.to_string()))?;
    let scenario = env.apply(scenario);
    let sinks = obs::claim_env_sinks(env, scenario.host.num_pcpus() as usize);
    if !env.cache || !sinks.is_empty() {
        return bypass(scenario, sinks);
    }
    let dir = env.cache_dir.clone().unwrap_or_else(RunCache::default_dir);
    RunCache::new(dir).run(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HostConfig, VmConfig};
    use paratick_vmm::FaultConfig;
    use paratick_workloads::VmWorkload;

    fn scenario(seed: u64) -> Scenario {
        Scenario::new(HostConfig::small(1))
            .vm(VmConfig::with_vcpus(1), VmWorkload::idle("cachetest"))
            .seed(seed)
            .until(crate::config::RunUntil::Time(
                paratick_sim::SimTime::from_millis(5),
            ))
    }

    #[test]
    fn key_depends_on_scenario_and_version() {
        let base = RunCache::key(&scenario(1));
        assert_eq!(base.len(), 64);
        assert_eq!(base, RunCache::key(&scenario(1)), "deterministic");
        assert_ne!(base, RunCache::key(&scenario(2)), "seed discriminates");
        assert_ne!(
            base,
            RunCache::key_versioned("other-version", &scenario(1)),
            "engine version discriminates"
        );
        let mut no_rcu = scenario(1);
        no_rcu.host.rcu_background = false;
        assert_ne!(base, RunCache::key(&no_rcu), "RCU toggle discriminates");
        assert_ne!(
            base,
            RunCache::key(&scenario(1).faults(FaultConfig::campaign())),
            "fault plan discriminates"
        );
    }

    #[test]
    fn store_lookup_round_trip() {
        let dir = std::env::temp_dir().join(format!("paratick-cache-ut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::new(&dir);
        let m = Engine::run(scenario(3)).unwrap();
        let key = RunCache::key(&scenario(3));
        assert!(cache.lookup(&key).is_none(), "cold store");
        assert!(cache.store(&key, &m));
        let back = cache.lookup(&key).expect("warm store");
        assert_eq!(back.total_exits(), m.total_exits());
        assert_eq!(back.events_dispatched, m.events_dispatched);
        assert_eq!(
            back.to_json().to_string_pretty(),
            m.to_json().to_string_pretty(),
            "stored metrics re-serialize byte-identically"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_reads_as_miss() {
        let dir = std::env::temp_dir().join(format!("paratick-cache-ut2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::new(&dir);
        let key = RunCache::key(&scenario(4));
        let shard = dir.join(&key[..2]);
        std::fs::create_dir_all(&shard).unwrap();
        std::fs::write(shard.join(format!("{key}.json")), "{ not json").unwrap();
        assert!(cache.lookup(&key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
