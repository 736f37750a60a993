//! Scenario configuration: host shape, VM shapes, workloads.
//!
//! Defaults mirror the paper's test system (§6): a 4-socket NUMA server
//! with 20 CPUs per socket, Linux/KVM with PLE and halt polling
//! disabled, guests at HZ=250 in dynticks-idle mode, VMs pinned to
//! sockets (small VM on one socket, medium across two, large across
//! four).

use paratick_guest::TickMode;
use paratick_hw::DeviceKind;
use paratick_sim::{Freq, SimDuration, SimTime, StableHash, StableHasher};
use paratick_vmm::{CostModel, FaultConfig};
use paratick_workloads::VmWorkload;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Host (hypervisor machine) configuration.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// NUMA socket count.
    pub sockets: u32,
    /// Physical CPUs per socket.
    pub pcpus_per_socket: u32,
    /// Host scheduler tick frequency.
    pub host_hz: Freq,
    /// Host scheduler time slice for contended pCPUs.
    pub slice: SimDuration,
    /// KVM adaptive halt polling (paper: disabled).
    pub halt_poll: bool,
    /// Pause-loop exiting (paper: disabled).
    pub ple: bool,
    /// Host-side paratick support compiled in.
    pub paratick_host: bool,
    /// §4.1 tick-rate adaptation: when the host tick rate cannot carry a
    /// guest's declared rate, drive injections with a preemption-timer
    /// cadence at the guest period. The paper's artifact leaves this as
    /// future work (§5.1); we implement it (disable to reproduce the
    /// paper's exact behaviour).
    pub paratick_rate_adapt: bool,
    /// APIC virtualization (APICv): when false (the paper's machine
    /// class), every guest EOI write takes a VM exit.
    pub apicv: bool,
    /// The virtualization cost model (includes the pCPU frequency).
    pub cost: CostModel,
    /// Deterministic fault-injection plan (default: no faults). The
    /// runner folds a `PARATICK_FAULTS` campaign in here before the
    /// scenario is keyed or simulated ([`EnvConfig::apply`]).
    pub faults: FaultConfig,
    /// Background RCU-callback generation in every guest (default on;
    /// calibration probes turn it off via `PARATICK_NO_RCU`, which the
    /// runner folds in here through [`EnvConfig::apply`]).
    pub rcu_background: bool,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            sockets: 4,
            pcpus_per_socket: 20,
            host_hz: Freq::hz(250),
            slice: SimDuration::from_millis(3),
            halt_poll: false,
            ple: false,
            paratick_host: true,
            paratick_rate_adapt: true,
            apicv: false,
            cost: CostModel::default(),
            faults: FaultConfig::off(),
            rcu_background: true,
        }
    }
}

impl HostConfig {
    pub fn num_pcpus(&self) -> u32 {
        self.sockets * self.pcpus_per_socket
    }

    /// A small host for fast tests: one socket, `n` pCPUs.
    pub fn small(n: u32) -> Self {
        HostConfig {
            sockets: 1,
            pcpus_per_socket: n,
            ..Default::default()
        }
    }

    pub fn socket_of(&self, pcpu: u32) -> u32 {
        pcpu / self.pcpus_per_socket
    }
}

/// One VM's configuration.
#[derive(Clone, Debug)]
pub struct VmConfig {
    pub vcpus: u32,
    pub tick_mode: TickMode,
    pub guest_hz: Freq,
    /// Block device backing this VM's virtual disk.
    pub device: DeviceKind,
    /// Sockets this VM's vCPUs are pinned across (paper §6.2: small=1,
    /// medium=2, large=4). `None` = spread over the whole host.
    pub socket_span: Option<u32>,
    /// Ablation: paratick disables its wakeup timer at idle exit instead
    /// of leaving it armed (the paper's §4.1 heuristic argues against
    /// this; the ablation bench measures the argument).
    pub paratick_naive_idle_exit: bool,
    /// Boot realism (§5.2.1): high-resolution timers come up this long
    /// after boot; until then every CPU runs a classic periodic tick,
    /// and only at the switch does the configured mode take over (with
    /// paratick's declaration hypercall). Zero = steady-state runs.
    pub hres_boot_delay: SimDuration,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            vcpus: 1,
            tick_mode: TickMode::DynticksIdle,
            guest_hz: Freq::hz(250),
            // The paper's VM disks are qcow2 files on a shared disk;
            // repeatedly-read data lands in the host page cache.
            device: DeviceKind::VirtioCached,
            socket_span: None,
            paratick_naive_idle_exit: false,
            hres_boot_delay: SimDuration::ZERO,
        }
    }
}

impl VmConfig {
    pub fn with_vcpus(vcpus: u32) -> Self {
        VmConfig {
            vcpus,
            ..Default::default()
        }
    }

    pub fn mode(mut self, mode: TickMode) -> Self {
        self.tick_mode = mode;
        self
    }

    pub fn spanning(mut self, sockets: u32) -> Self {
        self.socket_span = Some(sockets);
        self
    }

    /// The paper's "small" VM: 4 vCPUs on one socket.
    pub fn small_vm() -> Self {
        Self::with_vcpus(4).spanning(1)
    }

    /// The paper's "medium" VM: 16 vCPUs across two sockets.
    pub fn medium_vm() -> Self {
        Self::with_vcpus(16).spanning(2)
    }

    /// The paper's "large" VM: 64 vCPUs across four sockets.
    pub fn large_vm() -> Self {
        Self::with_vcpus(64).spanning(4)
    }
}

/// When the simulation stops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunUntil {
    /// Every VM's workload has finished (execution-time experiments).
    AllWorkloadsDone,
    /// A fixed horizon (idle / steady-state experiments).
    Time(SimTime),
}

/// A complete simulation scenario.
#[derive(Debug)]
pub struct Scenario {
    pub host: HostConfig,
    pub vms: Vec<(VmConfig, VmWorkload)>,
    pub seed: u64,
    pub run_until: RunUntil,
}

impl Scenario {
    pub fn new(host: HostConfig) -> Self {
        Scenario {
            host,
            vms: Vec::new(),
            seed: 0x9a7a71c4,
            run_until: RunUntil::AllWorkloadsDone,
        }
    }

    pub fn vm(mut self, cfg: VmConfig, workload: VmWorkload) -> Self {
        self.vms.push((cfg, workload));
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn until(mut self, until: RunUntil) -> Self {
        self.run_until = until;
        self
    }

    /// Attach a fault-injection plan to the host.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.host.faults = faults;
        self
    }

    /// Switch every VM to the given tick mode (the vanilla-vs-paratick
    /// comparison re-runs the same scenario with a different mode).
    pub fn with_mode(mut self, mode: TickMode) -> Self {
        for (cfg, _) in &mut self.vms {
            cfg.tick_mode = mode;
        }
        self
    }

    /// Compute the pCPU affinity for vCPU `v` of the `vm_index`-th VM:
    /// round-robin across the pCPUs of the VM's socket span, with VMs
    /// offset so co-resident VMs interleave instead of stacking.
    pub fn affinity(&self, vm_index: usize, vcpu: u32) -> u32 {
        let (cfg, _) = &self.vms[vm_index];
        let span = cfg
            .socket_span
            .unwrap_or(self.host.sockets)
            .min(self.host.sockets);
        let pool = span * self.host.pcpus_per_socket;
        let base = (vm_index as u32 * cfg.vcpus) % pool;
        (base + vcpu) % pool
    }
}

// ---------------------------------------------------------------------
// Content hashing (run-cache keys)
// ---------------------------------------------------------------------

impl StableHash for HostConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.sockets as u64);
        h.write_u64(self.pcpus_per_socket as u64);
        self.host_hz.stable_hash(h);
        self.slice.stable_hash(h);
        h.write_bool(self.halt_poll);
        h.write_bool(self.ple);
        h.write_bool(self.paratick_host);
        h.write_bool(self.paratick_rate_adapt);
        h.write_bool(self.apicv);
        self.cost.stable_hash(h);
        self.faults.stable_hash(h);
        h.write_bool(self.rcu_background);
    }
}

impl StableHash for VmConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.vcpus as u64);
        self.tick_mode.stable_hash(h);
        self.guest_hz.stable_hash(h);
        self.device.stable_hash(h);
        self.socket_span.stable_hash(h);
        h.write_bool(self.paratick_naive_idle_exit);
        self.hres_boot_delay.stable_hash(h);
    }
}

impl StableHash for RunUntil {
    fn stable_hash(&self, h: &mut StableHasher) {
        match *self {
            RunUntil::AllWorkloadsDone => h.write_discriminant(0),
            RunUntil::Time(t) => {
                h.write_discriminant(1);
                t.stable_hash(h);
            }
        }
    }
}

impl StableHash for Scenario {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.host.stable_hash(h);
        h.write_u64(self.seed);
        self.run_until.stable_hash(h);
        h.write_len(self.vms.len());
        for (cfg, workload) in &self.vms {
            cfg.stable_hash(h);
            workload.stable_hash(h);
        }
    }
}

// ---------------------------------------------------------------------
// Typed environment configuration
// ---------------------------------------------------------------------

/// A malformed `PARATICK_*` environment variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    pub var: &'static str,
    pub value: String,
    pub reason: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?}: {}", self.var, self.value, self.reason)
    }
}

impl std::error::Error for EnvError {}

/// All `PARATICK_*` knobs, parsed once per process.
///
/// [`EnvConfig::get`] is the single parse point: malformed values
/// produce one typed [`EnvError`] instead of a scatter of
/// silently-ignored `parse().ok()`s, and unrecognized
/// `PARATICK_*` variables earn a one-time stderr warning (catching the
/// classic `PARATICK_SCLAE=1` typo that silently runs the default).
#[derive(Clone, Debug, PartialEq)]
pub struct EnvConfig {
    /// `PARATICK_SCALE`: workload scale factor (default 0.25).
    pub scale: f64,
    /// `PARATICK_ITERS`: iteration cap per configuration (default 3).
    pub iters: u32,
    /// `PARATICK_JSON`: directory for machine-readable artifacts.
    pub json_dir: Option<PathBuf>,
    /// `PARATICK_TRACE`: Perfetto/Chrome-trace timeline output path.
    pub trace: Option<PathBuf>,
    /// `PARATICK_TIMESERIES`: windowed-counters output path.
    pub timeseries: Option<PathBuf>,
    /// `PARATICK_TIMESERIES_WINDOW_US`: sampling window (default 1000).
    pub timeseries_window_us: u64,
    /// `PARATICK_PROF`: per-event-kind wall-clock self-profiling.
    pub prof: bool,
    /// `PARATICK_FAULTS`: fault campaign overriding `HostConfig::faults`
    /// (see [`Self::apply`]).
    pub faults: Option<FaultConfig>,
    /// `PARATICK_NO_RCU`: disable background RCU-callback generation
    /// (calibration probes; clears `HostConfig::rcu_background`).
    pub no_rcu: bool,
    /// `PARATICK_CACHE`: run cache on/off (default on; `0`/`off`/`false`
    /// disables).
    pub cache: bool,
    /// `PARATICK_CACHE_DIR`: cache directory override.
    pub cache_dir: Option<PathBuf>,
    /// `PARATICK_JOBS`: sweep-scheduler worker count override.
    pub jobs: Option<usize>,
    /// `PARATICK_INDIRECT_MULT`: calibration multiplier on the indirect
    /// exit-cost table (`inspect` only).
    pub indirect_mult: Option<f64>,
    /// `PARATICK_WAKEUP_US`: calibration override of the wakeup latency
    /// (`inspect` only).
    pub wakeup_us: Option<u64>,
    /// `PARATICK_PROP_SEED`: base seed for the propcheck property-test
    /// framework (hex with `0x` prefix or decimal). Read directly by
    /// `paratick_sim::propcheck` — `paratick-sim` sits below this crate
    /// — but declared here so the loader recognizes and documents it.
    pub prop_seed: Option<u64>,
    /// `PARATICK_PROP_CASES`: propcheck case budget per property
    /// (overrides each suite's compiled-in `Config::cases`).
    pub prop_cases: Option<u32>,
}

impl Default for EnvConfig {
    /// The compiled-in defaults — what an empty environment yields.
    fn default() -> Self {
        EnvConfig {
            scale: 0.25,
            iters: 3,
            json_dir: None,
            trace: None,
            timeseries: None,
            timeseries_window_us: 1_000,
            prof: false,
            faults: None,
            no_rcu: false,
            cache: true,
            cache_dir: None,
            jobs: None,
            indirect_mult: None,
            wakeup_us: None,
            prop_seed: None,
            prop_cases: None,
        }
    }
}

impl EnvConfig {
    /// Every variable the loader understands. `PARATICK_OBS_CHILD` is a
    /// subprocess marker used by the integration tests; it carries no
    /// configuration but must not trip the unrecognized-variable warning.
    pub const KNOWN_VARS: [&'static str; 17] = [
        "PARATICK_SCALE",
        "PARATICK_ITERS",
        "PARATICK_JSON",
        "PARATICK_TRACE",
        "PARATICK_TIMESERIES",
        "PARATICK_TIMESERIES_WINDOW_US",
        "PARATICK_PROF",
        "PARATICK_FAULTS",
        "PARATICK_NO_RCU",
        "PARATICK_CACHE",
        "PARATICK_CACHE_DIR",
        "PARATICK_JOBS",
        "PARATICK_INDIRECT_MULT",
        "PARATICK_WAKEUP_US",
        "PARATICK_PROP_SEED",
        "PARATICK_PROP_CASES",
        "PARATICK_OBS_CHILD",
    ];

    /// Parse the process environment (no caching — see [`Self::get`]).
    pub fn from_env() -> Result<EnvConfig, EnvError> {
        Self::from_lookup(|var| std::env::var(var).ok())
    }

    /// Parse from an arbitrary lookup function (tests inject maps here;
    /// real callers go through [`Self::from_env`]).
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<EnvConfig, EnvError> {
        let mut cfg = EnvConfig::default();
        if let Some(v) = get("PARATICK_SCALE") {
            cfg.scale = parse_num("PARATICK_SCALE", &v)?;
            if !cfg.scale.is_finite() || cfg.scale <= 0.0 {
                return Err(invalid("PARATICK_SCALE", &v, "must be a positive finite number"));
            }
        }
        if let Some(v) = get("PARATICK_ITERS") {
            cfg.iters = parse_num("PARATICK_ITERS", &v)?;
            if cfg.iters == 0 {
                return Err(invalid("PARATICK_ITERS", &v, "must be at least 1"));
            }
        }
        cfg.json_dir = get("PARATICK_JSON").map(PathBuf::from);
        cfg.trace = get("PARATICK_TRACE").map(PathBuf::from);
        cfg.timeseries = get("PARATICK_TIMESERIES").map(PathBuf::from);
        if let Some(v) = get("PARATICK_TIMESERIES_WINDOW_US") {
            cfg.timeseries_window_us = parse_num("PARATICK_TIMESERIES_WINDOW_US", &v)?;
            if cfg.timeseries_window_us == 0 {
                return Err(invalid(
                    "PARATICK_TIMESERIES_WINDOW_US",
                    &v,
                    "must be at least 1",
                ));
            }
        }
        cfg.prof = get("PARATICK_PROF").is_some_and(|v| flag_on(&v));
        if let Some(spec) = get("PARATICK_FAULTS") {
            match FaultConfig::from_spec(&spec) {
                Ok(f) => cfg.faults = Some(f),
                Err(e) => return Err(invalid("PARATICK_FAULTS", &spec, &e)),
            }
        }
        cfg.no_rcu = get("PARATICK_NO_RCU").is_some_and(|v| flag_on(&v));
        if let Some(v) = get("PARATICK_CACHE") {
            cfg.cache = flag_on(&v);
        }
        cfg.cache_dir = get("PARATICK_CACHE_DIR").map(PathBuf::from);
        if let Some(v) = get("PARATICK_JOBS") {
            let jobs: usize = parse_num("PARATICK_JOBS", &v)?;
            if jobs == 0 {
                return Err(invalid("PARATICK_JOBS", &v, "must be at least 1"));
            }
            cfg.jobs = Some(jobs);
        }
        if let Some(v) = get("PARATICK_INDIRECT_MULT") {
            let m: f64 = parse_num("PARATICK_INDIRECT_MULT", &v)?;
            if !m.is_finite() || m <= 0.0 {
                return Err(invalid(
                    "PARATICK_INDIRECT_MULT",
                    &v,
                    "must be a positive finite number",
                ));
            }
            cfg.indirect_mult = Some(m);
        }
        if let Some(v) = get("PARATICK_WAKEUP_US") {
            cfg.wakeup_us = Some(parse_num("PARATICK_WAKEUP_US", &v)?);
        }
        if let Some(v) = get("PARATICK_PROP_SEED") {
            // Same convention as propcheck's own parser: `0x`-prefixed
            // hex (what failure reports print) or plain decimal.
            let t = v.trim();
            let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => t.parse().ok(),
            };
            match parsed {
                Some(s) => cfg.prop_seed = Some(s),
                None => return Err(invalid("PARATICK_PROP_SEED", &v, "not a u64 (decimal or 0x-hex)")),
            }
        }
        if let Some(v) = get("PARATICK_PROP_CASES") {
            let cases: u32 = parse_num("PARATICK_PROP_CASES", &v)?;
            if cases == 0 {
                return Err(invalid("PARATICK_PROP_CASES", &v, "must be at least 1"));
            }
            cfg.prop_cases = Some(cases);
        }
        Ok(cfg)
    }

    /// The process-wide configuration, parsed exactly once. A malformed
    /// variable is sticky: every caller sees the same [`EnvError`].
    pub fn get() -> Result<&'static EnvConfig, &'static EnvError> {
        static CONFIG: OnceLock<Result<EnvConfig, EnvError>> = OnceLock::new();
        CONFIG
            .get_or_init(|| {
                warn_unrecognized();
                EnvConfig::from_env()
            })
            .as_ref()
    }

    /// Fold the knobs that change simulated results into the scenario:
    /// `PARATICK_FAULTS` replaces `host.faults` and `PARATICK_NO_RCU`
    /// clears `host.rcu_background`. The run cache calls this once per
    /// run, before keying, so the key hashes exactly what will run.
    pub fn apply(&self, mut scenario: Scenario) -> Scenario {
        if let Some(faults) = &self.faults {
            scenario.host.faults = faults.clone();
        }
        if self.no_rcu {
            scenario.host.rcu_background = false;
        }
        scenario
    }

    /// [`Self::get`], mapping a malformed variable to the configuration
    /// exit code (2) — what a CLI entry point wants.
    pub fn get_or_exit() -> &'static EnvConfig {
        EnvConfig::get().unwrap_or_else(|e| {
            eprintln!("error: bad environment: {e}");
            std::process::exit(2);
        })
    }
}

fn invalid(var: &'static str, value: &str, reason: &str) -> EnvError {
    EnvError {
        var,
        value: value.to_string(),
        reason: reason.to_string(),
    }
}

fn parse_num<T: std::str::FromStr>(var: &'static str, value: &str) -> Result<T, EnvError> {
    value
        .trim()
        .parse()
        .map_err(|_| invalid(var, value, &format!("not a valid {}", std::any::type_name::<T>())))
}

/// Flag convention, uniform across every boolean knob: set and not one
/// of `0` / `off` / `false` (case-insensitive) means on.
fn flag_on(v: &str) -> bool {
    !matches!(
        v.trim().to_ascii_lowercase().as_str(),
        "0" | "off" | "false"
    )
}

/// Warn (once, via [`EnvConfig::get`]) about `PARATICK_*` variables the
/// loader does not understand — typos otherwise silently run defaults.
fn warn_unrecognized() {
    for (key, _) in std::env::vars() {
        if key.starts_with("PARATICK_") && !EnvConfig::KNOWN_VARS.contains(&key.as_str()) {
            eprintln!("warning: unrecognized environment variable {key} (ignored)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_host_matches_paper() {
        let h = HostConfig::default();
        assert_eq!(h.num_pcpus(), 80);
        assert_eq!(h.host_hz.as_hz(), 250);
        assert!(!h.halt_poll, "paper disables halt polling");
        assert!(!h.ple, "paper disables PLE");
        assert_eq!(h.socket_of(0), 0);
        assert_eq!(h.socket_of(19), 0);
        assert_eq!(h.socket_of(20), 1);
        assert_eq!(h.socket_of(79), 3);
    }

    #[test]
    fn paper_vm_shapes() {
        assert_eq!(VmConfig::small_vm().vcpus, 4);
        assert_eq!(VmConfig::small_vm().socket_span, Some(1));
        assert_eq!(VmConfig::medium_vm().vcpus, 16);
        assert_eq!(VmConfig::medium_vm().socket_span, Some(2));
        assert_eq!(VmConfig::large_vm().vcpus, 64);
        assert_eq!(VmConfig::large_vm().socket_span, Some(4));
    }

    #[test]
    fn affinity_spreads_within_span() {
        let s = Scenario::new(HostConfig::default()).vm(
            VmConfig::small_vm(),
            VmWorkload::idle("x"),
        );
        // 4 vCPUs on socket 0 (pcpus 0..20).
        let cpus: Vec<u32> = (0..4).map(|v| s.affinity(0, v)).collect();
        assert_eq!(cpus, vec![0, 1, 2, 3]);
        assert!(cpus.iter().all(|&c| c < 20));
    }

    #[test]
    fn affinity_interleaves_multiple_vms() {
        let mut s = Scenario::new(HostConfig::small(16));
        for i in 0..4 {
            s = s.vm(
                VmConfig::with_vcpus(16).spanning(1),
                VmWorkload::idle(format!("vm{i}")),
            );
        }
        // 4x16 vCPUs on 16 pCPUs: each pCPU hosts 4 vCPUs.
        let mut load = vec![0u32; 16];
        for vm in 0..4 {
            for v in 0..16 {
                load[s.affinity(vm, v) as usize] += 1;
            }
        }
        assert!(load.iter().all(|&l| l == 4), "even overcommit: {load:?}");
    }

    #[test]
    fn with_mode_rewrites_all_vms() {
        let s = Scenario::new(HostConfig::small(2))
            .vm(VmConfig::default(), VmWorkload::idle("a"))
            .vm(VmConfig::default(), VmWorkload::idle("b"))
            .with_mode(TickMode::Paratick);
        assert!(s.vms.iter().all(|(c, _)| c.tick_mode == TickMode::Paratick));
    }

    #[test]
    fn scenario_builder() {
        let s = Scenario::new(HostConfig::small(1))
            .seed(42)
            .until(RunUntil::Time(SimTime::from_secs(1)));
        assert_eq!(s.seed, 42);
        assert_eq!(s.run_until, RunUntil::Time(SimTime::from_secs(1)));
    }

    fn digest(s: &Scenario) -> String {
        paratick_sim::stable_digest_hex(s)
    }

    #[test]
    fn scenario_hash_is_stable_and_discriminating() {
        let mk = || {
            Scenario::new(HostConfig::small(2))
                .vm(VmConfig::with_vcpus(1), VmWorkload::idle("a"))
                .seed(7)
        };
        assert_eq!(digest(&mk()), digest(&mk()), "same scenario, same hash");
        assert_ne!(digest(&mk()), digest(&mk().seed(8)), "seed changes hash");
        assert_ne!(
            digest(&mk()),
            digest(&mk().with_mode(TickMode::Paratick)),
            "tick mode changes hash"
        );
        assert_ne!(
            digest(&mk()),
            digest(&mk().until(RunUntil::Time(SimTime::from_secs(1)))),
            "horizon changes hash"
        );
        assert_ne!(
            digest(&mk()),
            digest(&mk().faults(FaultConfig::from_spec("campaign").unwrap())),
            "fault plan changes hash"
        );
        let mut no_rcu = mk();
        no_rcu.host.rcu_background = false;
        assert_ne!(digest(&mk()), digest(&no_rcu), "RCU toggle changes hash");
    }

    #[test]
    fn env_apply_folds_result_knobs_into_the_scenario() {
        let mk = || Scenario::new(HostConfig::small(1)).faults(FaultConfig::campaign());
        let quiet = EnvConfig::default().apply(mk());
        assert!(
            quiet.host.rcu_background,
            "empty environment changes nothing"
        );
        assert_eq!(digest(&quiet), digest(&mk()));

        let env = EnvConfig::from_lookup(|var| match var {
            "PARATICK_FAULTS" => Some("off".into()),
            "PARATICK_NO_RCU" => Some("1".into()),
            _ => None,
        })
        .unwrap();
        let s = env.apply(mk());
        assert!(
            !s.host.faults.any_enabled(),
            "PARATICK_FAULTS replaces the plan"
        );
        assert!(!s.host.rcu_background, "PARATICK_NO_RCU clears the toggle");
    }

    #[test]
    fn env_config_defaults_from_empty_environment() {
        let cfg = EnvConfig::from_lookup(|_| None).unwrap();
        assert_eq!(cfg, EnvConfig::default());
        assert_eq!(cfg.scale, 0.25);
        assert_eq!(cfg.iters, 3);
        assert!(cfg.cache, "cache defaults on");
        assert!(!cfg.prof);
    }

    #[test]
    fn env_config_parses_typed_values() {
        let cfg = EnvConfig::from_lookup(|var| match var {
            "PARATICK_SCALE" => Some("0.5".into()),
            "PARATICK_ITERS" => Some("7".into()),
            "PARATICK_JSON" => Some("/tmp/out".into()),
            "PARATICK_PROF" => Some("1".into()),
            "PARATICK_CACHE" => Some("off".into()),
            "PARATICK_JOBS" => Some("4".into()),
            "PARATICK_FAULTS" => Some("campaign".into()),
            "PARATICK_PROP_SEED" => Some("0xDEAD_BEEF".replace('_', "")),
            "PARATICK_PROP_CASES" => Some("128".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.iters, 7);
        assert_eq!(cfg.json_dir, Some(PathBuf::from("/tmp/out")));
        assert!(cfg.prof);
        assert!(!cfg.cache);
        assert_eq!(cfg.jobs, Some(4));
        assert!(cfg.faults.as_ref().is_some_and(FaultConfig::any_enabled));
        assert_eq!(cfg.prop_seed, Some(0xDEAD_BEEF));
        assert_eq!(cfg.prop_cases, Some(128));
    }

    #[test]
    fn env_config_rejects_malformed_values() {
        let err = EnvConfig::from_lookup(|var| {
            (var == "PARATICK_SCALE").then(|| "fast".to_string())
        })
        .unwrap_err();
        assert_eq!(err.var, "PARATICK_SCALE");
        assert!(err.to_string().contains("PARATICK_SCALE"), "{err}");

        let err = EnvConfig::from_lookup(|var| {
            (var == "PARATICK_ITERS").then(|| "0".to_string())
        })
        .unwrap_err();
        assert_eq!(err.var, "PARATICK_ITERS");

        let err = EnvConfig::from_lookup(|var| {
            (var == "PARATICK_FAULTS").then(|| "bogus-kind:1".to_string())
        })
        .unwrap_err();
        assert_eq!(err.var, "PARATICK_FAULTS");

        let err = EnvConfig::from_lookup(|var| {
            (var == "PARATICK_PROP_SEED").then(|| "0xZZ".to_string())
        })
        .unwrap_err();
        assert_eq!(err.var, "PARATICK_PROP_SEED");

        let err = EnvConfig::from_lookup(|var| {
            (var == "PARATICK_PROP_CASES").then(|| "0".to_string())
        })
        .unwrap_err();
        assert_eq!(err.var, "PARATICK_PROP_CASES");
    }

    #[test]
    fn env_config_prop_seed_accepts_both_radixes() {
        let hex = EnvConfig::from_lookup(|var| {
            (var == "PARATICK_PROP_SEED").then(|| "0x5EED".to_string())
        })
        .unwrap();
        let dec = EnvConfig::from_lookup(|var| {
            (var == "PARATICK_PROP_SEED").then(|| "24301".to_string())
        })
        .unwrap();
        assert_eq!(hex.prop_seed, Some(0x5EED));
        assert_eq!(hex.prop_seed, dec.prop_seed);
    }

    #[test]
    fn flag_convention_uniform() {
        for off in ["0", "off", "OFF", "false", " False "] {
            assert!(!flag_on(off), "{off:?} should be off");
        }
        for on in ["1", "yes", "on", "anything"] {
            assert!(flag_on(on), "{on:?} should be on");
        }
    }
}
