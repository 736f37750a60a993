//! The three workloads and the scenarios each one runs.
//!
//! A workload's *job set* is a fixed list of named scenarios derived
//! from the run's `--seed`: `rounds` seed rounds, each holding every
//! scenario shape once. Scenario seeds come from
//! [`seed_stream`]`(seed_stream(seed, round), index)`, so the same seed
//! always yields the same scenarios and the program itself only ever
//! sees the generated [`Scenario`]s.

use paratick::experiment::Experiment;
use paratick::prelude::*;
use paratick_lab::suite::{paper_suite, VALIDATE_SCALE};
use paratick_sim::rng::seed_stream;
use paratick_workloads::synthetic;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The validation grid, simulated into an empty run cache.
    GridCold,
    /// Table 1's W2 and W4 under every tick mode, no cache.
    Table1Ticks,
    /// The validation grid, served from a run cache set-up filled.
    GridWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GridCold,
        Workload::Table1Ticks,
        Workload::GridWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "paper-grid-cold",
            Workload::Table1Ticks => "table1-ticks",
            Workload::GridWarm => "paper-grid-warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seed rounds in the job set. More rounds average the seed's
    /// influence on run time away; the warm set stays one round because
    /// set-up must simulate all of it, several times over.
    fn rounds(self) -> u64 {
        match self {
            Workload::GridCold => 8,
            Workload::Table1Ticks => 4,
            Workload::GridWarm => 1,
        }
    }

    /// Name of the pinned-digest family this workload's jobs belong to.
    pub fn family(self) -> &'static str {
        match self {
            Workload::GridCold | Workload::GridWarm => "paper-grid",
            Workload::Table1Ticks => "table1-ticks",
        }
    }
}

/// Which Table 1 workload a `table1-ticks` job runs.
#[derive(Clone, Copy, Debug)]
enum Synthetic {
    /// Four idle 16-vCPU VMs.
    W2,
    /// Four 16-vCPU VMs, each with 16 threads synchronizing 1000/s.
    W4,
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `cells[cell]` of the validation suite under `mode`.
    Grid { cell: usize, mode: TickMode },
    Table1 {
        which: Synthetic,
        mode: TickMode,
        guest_hz: u64,
    },
}

/// Table 1's scenarios: W2 and W4 under each tick mode, plus W4 under
/// paratick with a 1000 Hz guest on the 250 Hz host, so that §4.1 rate
/// adaptation fires.
const TABLE1: [(Synthetic, TickMode, u64); 7] = [
    (Synthetic::W2, TickMode::Periodic, 250),
    (Synthetic::W2, TickMode::DynticksIdle, 250),
    (Synthetic::W2, TickMode::Paratick, 250),
    (Synthetic::W4, TickMode::Periodic, 250),
    (Synthetic::W4, TickMode::DynticksIdle, 250),
    (Synthetic::W4, TickMode::Paratick, 250),
    (Synthetic::W4, TickMode::Paratick, 1000),
];

/// Table 1's simulated horizon.
const TABLE1_HORIZON_S: u64 = 10;

/// One named scenario of a job set.
#[derive(Clone, Debug)]
pub struct Job {
    pub name: String,
    shape: Shape,
    seed: u64,
}

/// A workload's jobs for one `--seed`, able to build each scenario any
/// number of times (the engine consumes its scenario).
pub struct JobSet {
    pub jobs: Vec<Job>,
    cells: Vec<(String, Experiment)>,
}

impl JobSet {
    pub fn new(workload: Workload, seed: u64) -> JobSet {
        let cells: Vec<(String, Experiment)> = match workload.family() {
            "paper-grid" => paper_suite(VALIDATE_SCALE, false)
                .into_iter()
                .flat_map(|f| {
                    f.cells
                        .into_iter()
                        .map(move |c| (format!("{}/{}", f.figure, c.name), c))
                })
                .collect(),
            _ => Vec::new(),
        };
        let mut shapes: Vec<(String, Shape)> = Vec::new();
        for (cell, (name, exp)) in cells.iter().enumerate() {
            for mode in [exp.baseline, exp.treatment] {
                shapes.push((format!("{name}/{mode}"), Shape::Grid { cell, mode }));
            }
        }
        if workload == Workload::Table1Ticks {
            for (which, mode, guest_hz) in TABLE1 {
                shapes.push((
                    format!("{which:?}/{mode}/{guest_hz}Hz"),
                    Shape::Table1 {
                        which,
                        mode,
                        guest_hz,
                    },
                ));
            }
        }
        let mut jobs = Vec::new();
        for round in 0..workload.rounds() {
            let round_seed = seed_stream(seed, round);
            for (i, (name, shape)) in shapes.iter().enumerate() {
                jobs.push(Job {
                    name: format!("r{round}/{name}"),
                    shape: *shape,
                    seed: seed_stream(round_seed, i as u64),
                });
            }
        }
        JobSet { jobs, cells }
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Build job `i`'s scenario.
    pub fn build(&self, i: usize) -> Scenario {
        let job = &self.jobs[i];
        match job.shape {
            Shape::Grid { cell, mode } => self.cells[cell].1.scenario(mode, job.seed),
            Shape::Table1 {
                which,
                mode,
                guest_hz,
            } => table1_scenario(which, mode, guest_hz, job.seed),
        }
    }

    /// Build every job's scenario, in job order.
    pub fn build_all(&self) -> Vec<Scenario> {
        (0..self.len()).map(|i| self.build(i)).collect()
    }
}

fn table1_scenario(which: Synthetic, mode: TickMode, guest_hz: u64, seed: u64) -> Scenario {
    let horizon = SimDuration::from_secs(TABLE1_HORIZON_S);
    let vms = match which {
        Synthetic::W2 => synthetic::w2(),
        Synthetic::W4 => synthetic::w4(horizon),
    };
    let host = HostConfig {
        sockets: 1,
        pcpus_per_socket: 16,
        ..Default::default()
    };
    let mut s = Scenario::new(host)
        .until(RunUntil::Time(SimTime::ZERO + horizon))
        .seed(seed);
    for w in vms {
        let mut cfg = VmConfig::with_vcpus(synthetic::W_VCPUS as u32)
            .mode(mode)
            .spanning(1);
        cfg.guest_hz = Freq::hz(guest_hz);
        s = s.vm(cfg, w);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_sets_have_the_documented_shape() {
        let cold = JobSet::new(Workload::GridCold, 1);
        assert_eq!(cold.len(), 8 * 78, "39 cells x 2 modes x 8 rounds");
        let warm = JobSet::new(Workload::GridWarm, 1);
        assert_eq!(warm.len(), 78);
        let ticks = JobSet::new(Workload::Table1Ticks, 1);
        assert_eq!(ticks.len(), 4 * TABLE1.len());
        // The warm set is the cold set's first round: same names, seeds.
        for (w, c) in warm.jobs.iter().zip(&cold.jobs) {
            assert_eq!(w.name, c.name);
            assert_eq!(w.seed, c.seed);
        }
        let mut names: Vec<&str> = cold.jobs.iter().map(|j| j.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cold.len(), "job names are unique");
    }

    #[test]
    fn seeds_derive_from_the_run_seed() {
        let a = JobSet::new(Workload::Table1Ticks, 7);
        let b = JobSet::new(Workload::Table1Ticks, 7);
        let c = JobSet::new(Workload::Table1Ticks, 8);
        let seeds = |s: &JobSet| s.jobs.iter().map(|j| j.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&b));
        assert_ne!(seeds(&a), seeds(&c));
        assert_eq!(a.build(0).seed, a.jobs[0].seed);
    }

    #[test]
    fn names_parse_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
