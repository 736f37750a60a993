//! The output check: every scenario result must carry a clean audit and
//! the simulated statistics its job is known to produce.
//!
//! A result's *digest* is the SHA-256 of its `RunMetrics` JSON without
//! `profile` (host wall times) and `events_dispatched` (an engine
//! internal that a change which stops dispatching stale events may
//! lower), so a pure speed-up keeps every digest. For [`DEFAULT_SEED`]
//! the expected digests are pinned in `digests/<family>.txt`; for any
//! other seed the first result of each job sets the expectation and
//! every repeat must match it.

use paratick::cache::ENGINE_VERSION;
use paratick::RunMetrics;
use paratick_sim::hash::{hex, Sha256};
use paratick_sim::{Json, ToJson};
use std::collections::BTreeMap;

/// The seed whose digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// The only `PARATICK_*` variable allowed in the benchmark's
/// environment; the benchmark sets it itself for the traced run.
pub const PROF_VAR: &str = "PARATICK_PROF";

const PAPER_GRID_PINS: &str = include_str!("../digests/paper-grid.txt");
const TABLE1_PINS: &str = include_str!("../digests/table1-ticks.txt");

/// `PARATICK_*` variables that would change what the program does.
pub fn foreign_env_vars(vars: impl Iterator<Item = String>) -> Vec<String> {
    let mut found: Vec<String> = vars
        .filter(|k| k.starts_with("PARATICK_") && k != PROF_VAR)
        .collect();
    found.sort();
    found
}

/// Digest of a result's simulated statistics.
pub fn digest(m: &RunMetrics) -> String {
    let Json::Obj(fields) = m.to_json() else {
        unreachable!("RunMetrics encodes as a JSON object");
    };
    let kept = fields
        .into_iter()
        .filter(|(k, _)| k != "profile" && k != "events_dispatched")
        .collect();
    let mut h = Sha256::new();
    h.update(Json::Obj(kept).to_string_compact().as_bytes());
    hex(&h.finalize())
}

/// Digests pinned for one job family at [`DEFAULT_SEED`].
#[derive(Debug)]
pub struct Pins {
    pub engine_version: String,
    pub digests: BTreeMap<String, String>,
}

impl Pins {
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut engine_version = None;
        let mut digests = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed pin line {line:?}"))?;
            match k {
                "engine_version" => engine_version = Some(v.to_string()),
                "seed" if v == DEFAULT_SEED.to_string() => {}
                "seed" => return Err(format!("pins are for seed {v}, not {DEFAULT_SEED}")),
                _ => {
                    digests.insert(k.to_string(), v.to_string());
                }
            }
        }
        Ok(Pins {
            engine_version: engine_version.ok_or("pins name no engine_version")?,
            digests,
        })
    }

    /// The pin-file text for `digests`, recorded under the current
    /// [`ENGINE_VERSION`].
    pub fn render(digests: &BTreeMap<String, String>) -> String {
        let mut out = String::from(
            "# Digests of each job's simulated statistics at the default seed.\n\
             # Regenerate deliberately with `--repin`.\n",
        );
        out.push_str(&format!(
            "engine_version {ENGINE_VERSION}\nseed {DEFAULT_SEED}\n"
        ));
        for (job, d) in digests {
            out.push_str(&format!("{job} {d}\n"));
        }
        out
    }
}

/// The compiled-in pins of a job family.
pub fn pinned(family: &str) -> Result<Pins, String> {
    match family {
        "paper-grid" => Pins::parse(PAPER_GRID_PINS),
        "table1-ticks" => Pins::parse(TABLE1_PINS),
        other => Err(format!("no pins for {other}")),
    }
}

/// Checks results against the expected digests and counts failures.
pub struct Verifier {
    expected: BTreeMap<String, String>,
    /// Expectations are fixed (pinned) rather than learned.
    pinned: bool,
    /// When set, every check fails with this reason (stale pins).
    broken: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Failure messages kept for the report; the rest are only counted.
const MAX_ERRORS: usize = 8;

impl Verifier {
    /// A verifier for `family` at `seed`: pinned at the default seed,
    /// learning otherwise.
    pub fn new(family: &str, seed: u64) -> Verifier {
        let mut v = Verifier::learning();
        if seed == DEFAULT_SEED {
            v.pinned = true;
            match pinned(family) {
                Ok(p) if p.engine_version == ENGINE_VERSION => v.expected = p.digests,
                Ok(p) => {
                    v.broken = Some(format!(
                        "digests pinned under {} but the engine is {ENGINE_VERSION}; re-pin with --repin",
                        p.engine_version
                    ))
                }
                Err(e) => v.broken = Some(e),
            }
        }
        v
    }

    /// A verifier that learns every expectation from the first result.
    pub fn learning() -> Verifier {
        Verifier {
            expected: BTreeMap::new(),
            pinned: false,
            broken: None,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Count one attempt that failed before producing a checkable
    /// result.
    pub fn fail(&mut self, job: &str, why: impl std::fmt::Display) {
        self.attempted += 1;
        self.record_failure(format!("{job}: {why}"));
    }

    fn record_failure(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Check one result; `true` when it passes.
    pub fn check(&mut self, job: &str, m: &RunMetrics) -> bool {
        self.attempted += 1;
        let d = digest(m);
        let problem = if let Some(why) = &self.broken {
            Some(why.clone())
        } else if !m.audit.is_clean() {
            Some(format!("{} audit violations", m.audit.total_violations))
        } else {
            match self.expected.get(job) {
                Some(want) if *want != d => Some(format!("digest {d} != expected {want}")),
                Some(_) => None,
                None if self.pinned => Some("job has no pinned digest".to_string()),
                None => {
                    self.expected.insert(job.to_string(), d);
                    None
                }
            }
        };
        match problem {
            Some(why) => {
                self.record_failure(format!("{job}: {why}"));
                false
            }
            None => true,
        }
    }

    /// The expectations pinned or learned so far.
    pub fn expected(&self) -> &BTreeMap<String, String> {
        &self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{JobSet, Workload};
    use paratick::prelude::*;
    use paratick_workloads::synthetic;

    fn sync_run(seed: u64) -> RunMetrics {
        let mut s = Scenario::new(HostConfig::small(4))
            .seed(seed)
            .until(RunUntil::Time(SimTime::from_millis(20)));
        for w in synthetic::w3(SimDuration::from_millis(20)) {
            s = s.vm(VmConfig::with_vcpus(4), w);
        }
        Engine::run(s).unwrap()
    }

    #[test]
    fn digest_is_stable_and_ignores_host_time() {
        let a = sync_run(1);
        assert_eq!(
            digest(&a),
            digest(&sync_run(1)),
            "same scenario, same digest"
        );
        assert_ne!(digest(&a), digest(&sync_run(2)), "the seed shows");
        let mut b = a.clone();
        b.profile.wall_nanos += 12_345;
        b.events_dispatched += 7;
        assert_eq!(
            digest(&a),
            digest(&b),
            "host time and dispatch count are excluded"
        );
    }

    #[test]
    fn a_perturbed_result_counts_as_failed() {
        let a = sync_run(3);
        let mut v = Verifier::learning();
        assert!(v.check("job", &a));
        assert!(v.check("job", &a.clone()));
        let mut perturbed = a.clone();
        perturbed.per_vm[0].injections += 1;
        assert!(!v.check("job", &perturbed));
        let mut dirty = a.clone();
        dirty.audit.total_violations = 1;
        assert!(
            !v.check("other", &dirty),
            "a dirty audit fails even when first"
        );
        v.fail("third", "engine error");
        assert_eq!((v.attempted, v.failed), (5, 3));
        assert_eq!(v.errors.len(), 3);
    }

    #[test]
    fn pins_match_the_engine_and_reproduce() {
        for family in ["paper-grid", "table1-ticks"] {
            let pins = pinned(family).unwrap();
            assert_eq!(
                pins.engine_version, ENGINE_VERSION,
                "{family}: re-pin with --repin"
            );
        }
        // Cheap jobs: the idle W2 VMs under the tickless modes.
        let set = JobSet::new(Workload::Table1Ticks, DEFAULT_SEED);
        let mut v = Verifier::new("table1-ticks", DEFAULT_SEED);
        for (i, job) in set
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.name.contains("W2/paratick"))
        {
            assert!(
                v.check(&job.name, &Engine::run(set.build(i)).unwrap()),
                "{:?}",
                v.errors
            );
        }
        assert!(v.attempted > 0);
    }

    #[test]
    fn pins_round_trip_and_refuse_other_seeds() {
        let digests: BTreeMap<String, String> = [("r0/a".to_string(), "ab".to_string())]
            .into_iter()
            .collect();
        let back = Pins::parse(&Pins::render(&digests)).unwrap();
        assert_eq!(back.digests, digests);
        assert_eq!(back.engine_version, ENGINE_VERSION);
        assert!(Pins::parse("engine_version x\nseed 2\n").is_err());
        assert!(Pins::parse("seed 1\n").is_err(), "engine version required");
    }

    #[test]
    fn only_the_prof_variable_is_allowed() {
        let vars = ["PARATICK_PROF", "PARATICK_SCALE", "HOME", "PARATICK_CACHE"].map(String::from);
        assert_eq!(
            foreign_env_vars(vars.into_iter()),
            ["PARATICK_CACHE", "PARATICK_SCALE"]
        );
    }
}
