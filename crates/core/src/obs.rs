//! Observability sinks over the engine's structured event stream.
//!
//! The engine emits typed [`SimEvent`]s (see `paratick_vmm::event`) to
//! any attached [`EventSink`]. This module provides the built-in sinks:
//!
//! * [`TraceSink`] — renders events into the legacy string
//!   [`TraceBuffer`] ring; backs [`crate::engine::Engine::run_traced`].
//! * [`PerfettoSink`] — streams a Chrome trace-event JSON file (loadable
//!   in Perfetto / `chrome://tracing`): one track per pCPU with vCPU
//!   running spans, instant events for exits/injections/ticks, and
//!   counter tracks for run-queue depth, running-vCPU count and
//!   pollution debt.
//! * [`TimeSeriesSink`] — windows counters over sim time (exits/s,
//!   timer exits/s, busy/idle fraction, …) and writes CSV or JSON.
//!
//! Environment knobs (claimed by the first run the run cache
//! simulates, see [`claim_env_sinks`]):
//!
//! * `PARATICK_TRACE=<path>` — attach a [`PerfettoSink`] writing there.
//! * `PARATICK_TIMESERIES=<path>` — attach a [`TimeSeriesSink`]
//!   (`.json` extension selects JSON, anything else CSV);
//!   `PARATICK_TIMESERIES_WINDOW_US` overrides the 1000 µs window.
//! * `PARATICK_PROF=1` — per-event-kind wall-clock self-profiling.

use crate::config::EnvConfig;
use paratick_sim::{SimTime, TraceBuffer};
use paratick_vmm::{EventSink, PcpuId, SimEvent, VcpuId};
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

// ---------------------------------------------------------------------
// Legacy string trace
// ---------------------------------------------------------------------

/// Renders the event stream into the legacy [`TraceBuffer`] ring.
///
/// The rendered lines are a superset of what the engine used to record
/// directly ("… exit hlt", "… wake", "… dispatch on pcpu0"), so
/// existing post-mortem tooling keeps working.
pub struct TraceSink {
    buf: Rc<RefCell<TraceBuffer>>,
}

impl TraceSink {
    /// A sink over a fresh ring of `capacity` records; the returned
    /// handle reads the buffer after the engine (which owns the sink)
    /// is gone.
    pub fn new(capacity: usize) -> (Self, Rc<RefCell<TraceBuffer>>) {
        let buf = Rc::new(RefCell::new(TraceBuffer::with_capacity(capacity)));
        (Self { buf: buf.clone() }, buf)
    }

    /// The legacy one-line rendering of an event.
    pub fn render(ev: &SimEvent) -> String {
        match *ev {
            SimEvent::VmExit { vcpu, reason, .. } => format!("{vcpu} exit {reason}"),
            SimEvent::TimerProgram { vcpu, deadline } => {
                format!("{vcpu} timer program @{deadline}")
            }
            SimEvent::TimerCancel { vcpu } => format!("{vcpu} timer cancel"),
            SimEvent::Inject { vcpu, virtual_tick } => {
                if virtual_tick {
                    format!("{vcpu} inject virtual tick")
                } else {
                    format!("{vcpu} inject irq")
                }
            }
            SimEvent::IdleEnter { vcpu, .. } => format!("{vcpu} idle enter"),
            SimEvent::IdleExit { vcpu, .. } => format!("{vcpu} wake"),
            SimEvent::Dispatch { vcpu, pcpu, .. } => {
                format!("{vcpu} dispatch on {pcpu:?}")
            }
            SimEvent::Preempt { vcpu, pcpu, .. } => format!("{vcpu} preempted off {pcpu:?}"),
            SimEvent::HostTick { pcpu } => format!("{pcpu:?} host tick"),
            SimEvent::Hypercall { vcpu, tick_hz, .. } => {
                format!("{vcpu} hypercall declare {tick_hz}Hz")
            }
            SimEvent::HaltPoll { vcpu, hit } => {
                format!("{vcpu} halt-poll {}", if hit { "hit" } else { "miss" })
            }
            SimEvent::BootSwitch { vcpu } => format!("{vcpu} boot switch"),
            SimEvent::WorkloadDone { vm } => format!("vm{vm} workload done"),
            SimEvent::TimerFire { vcpu } => format!("{vcpu} timer fire"),
            SimEvent::FaultInjected { kind, vcpu } => match vcpu {
                Some(v) => format!("{v} fault {}", kind.name()),
                None => format!("fault {}", kind.name()),
            },
            SimEvent::WatchdogRecovery { vcpu } => format!("{vcpu} watchdog recovery"),
            SimEvent::TimerFallback { vcpu } => format!("{vcpu} timer fallback lapic-oneshot"),
            SimEvent::ParavirtFallback { vcpu } => format!("{vcpu} paravirt fallback dynticks"),
            SimEvent::HypercallFailed { vcpu, attempt } => {
                format!("{vcpu} hypercall failed (attempt {attempt})")
            }
        }
    }
}

impl EventSink for TraceSink {
    fn on_event(&mut self, t: SimTime, ev: &SimEvent) {
        self.buf.borrow_mut().record_with(t, || Self::render(ev));
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event / Perfetto exporter
// ---------------------------------------------------------------------

/// Streams the run as Chrome trace-event JSON.
///
/// Layout: pid 0 is the simulated machine; each pCPU is a thread (tid =
/// pCPU index) whose duration spans are the vCPUs running there. Exits,
/// injections and host ticks are instant events on the owning track;
/// `runq`, `running_vcpus` and `pollution_ns` are counter tracks.
/// Timestamps are simulated microseconds.
pub struct PerfettoSink {
    out: Option<BufWriter<File>>,
    path: PathBuf,
    first: bool,
    /// Open running-span per pCPU: which vCPU, since when.
    open: Vec<Option<(VcpuId, SimTime)>>,
    announced: Vec<bool>,
}

/// Timestamp in fractional microseconds, fixed precision so identical
/// runs serialize identically.
fn us(t: SimTime) -> String {
    format!("{:.3}", t.as_nanos() as f64 / 1000.0)
}

impl PerfettoSink {
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        let mut out = BufWriter::new(File::create(&path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        let mut s = PerfettoSink {
            out: Some(out),
            path,
            first: true,
            open: Vec::new(),
            announced: Vec::new(),
        };
        s.write_raw("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"paratick-sim\"}}".to_string());
        Ok(s)
    }

    fn write_raw(&mut self, ev: String) {
        let Some(out) = self.out.as_mut() else {
            return;
        };
        let sep = if self.first { "" } else { ",\n" };
        self.first = false;
        if let Err(e) = write!(out, "{sep}{ev}") {
            eprintln!("PARATICK_TRACE: write {} failed: {e}", self.path.display());
            self.out = None;
        }
    }

    fn ensure_pcpu(&mut self, p: PcpuId) {
        let i = p.0 as usize;
        if self.open.len() <= i {
            self.open.resize(i + 1, None);
            self.announced.resize(i + 1, false);
        }
        if !self.announced[i] {
            self.announced[i] = true;
            self.write_raw(format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"thread_name\",\"args\":{{\"name\":\"pcpu{i}\"}}}}"
            ));
            self.write_raw(format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{i}}}}}"
            ));
        }
    }

    /// Track (tid) a vCPU currently runs on, if any.
    fn tid_of(&self, vcpu: VcpuId) -> Option<usize> {
        self.open
            .iter()
            .position(|s| matches!(s, Some((v, _)) if *v == vcpu))
    }

    fn running_count(&self) -> usize {
        self.open.iter().flatten().count()
    }

    fn counter(&mut self, t: SimTime, name: &str, series: &str, value: u64) {
        self.write_raw(format!(
            "{{\"ph\":\"C\",\"pid\":0,\"ts\":{},\"name\":\"{name}\",\"args\":{{\"{series}\":{value}}}}}",
            us(t)
        ));
    }

    fn instant(&mut self, t: SimTime, tid: usize, name: &str, args: &str) {
        self.write_raw(format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"name\":\"{name}\",\"args\":{{{args}}}}}",
            us(t)
        ));
    }

    fn close_span(&mut self, p: PcpuId, t: SimTime) {
        let i = p.0 as usize;
        if self.open.get(i).is_some_and(|s| s.is_some()) {
            self.open[i] = None;
            self.write_raw(format!(
                "{{\"ph\":\"E\",\"pid\":0,\"tid\":{i},\"ts\":{}}}",
                us(t)
            ));
        }
    }
}

impl EventSink for PerfettoSink {
    fn on_event(&mut self, t: SimTime, ev: &SimEvent) {
        match *ev {
            SimEvent::Dispatch {
                vcpu,
                pcpu,
                run_queue,
            } => {
                self.ensure_pcpu(pcpu);
                let i = pcpu.0 as usize;
                self.close_span(pcpu, t); // defensive: never nest spans
                self.open[i] = Some((vcpu, t));
                self.write_raw(format!(
                    "{{\"ph\":\"B\",\"pid\":0,\"tid\":{i},\"ts\":{},\"name\":\"{vcpu}\",\"cat\":\"vcpu\",\"args\":{{\"runq\":{run_queue}}}}}",
                    us(t)
                ));
                self.counter(t, "runq", &format!("pcpu{i}"), u64::from(run_queue));
                let n = self.running_count() as u64;
                self.counter(t, "running_vcpus", "running", n);
            }
            SimEvent::Preempt {
                pcpu, run_queue, ..
            } => {
                self.ensure_pcpu(pcpu);
                self.close_span(pcpu, t);
                self.counter(t, "runq", &format!("pcpu{}", pcpu.0), u64::from(run_queue));
                let n = self.running_count() as u64;
                self.counter(t, "running_vcpus", "running", n);
            }
            SimEvent::IdleEnter { pcpu, .. } => {
                self.ensure_pcpu(pcpu);
                self.close_span(pcpu, t);
                let n = self.running_count() as u64;
                self.counter(t, "running_vcpus", "running", n);
            }
            SimEvent::IdleExit {
                vcpu,
                pcpu,
                idle_ns,
            } => {
                self.ensure_pcpu(pcpu);
                self.instant(
                    t,
                    pcpu.0 as usize,
                    "wake",
                    &format!("\"vcpu\":\"{vcpu}\",\"idle_ns\":{idle_ns}"),
                );
            }
            SimEvent::VmExit {
                vcpu,
                reason,
                pollution_ns,
            } => {
                let tid = self.tid_of(vcpu).unwrap_or(99);
                self.instant(t, tid, reason.name(), &format!("\"vcpu\":\"{vcpu}\""));
                self.counter(t, "pollution_ns", &vcpu.to_string(), pollution_ns);
            }
            SimEvent::Inject { vcpu, virtual_tick } => {
                let tid = self.tid_of(vcpu).unwrap_or(99);
                let name = if virtual_tick {
                    "virtual_tick"
                } else {
                    "inject"
                };
                self.instant(t, tid, name, &format!("\"vcpu\":\"{vcpu}\""));
            }
            SimEvent::HostTick { pcpu } => {
                self.ensure_pcpu(pcpu);
                self.instant(t, pcpu.0 as usize, "host_tick", "");
            }
            SimEvent::TimerProgram { vcpu, deadline } => {
                let tid = self.tid_of(vcpu).unwrap_or(99);
                self.instant(
                    t,
                    tid,
                    "timer_program",
                    &format!("\"vcpu\":\"{vcpu}\",\"deadline_us\":{}", us(deadline)),
                );
            }
            SimEvent::TimerCancel { vcpu } => {
                let tid = self.tid_of(vcpu).unwrap_or(99);
                self.instant(t, tid, "timer_cancel", &format!("\"vcpu\":\"{vcpu}\""));
            }
            SimEvent::Hypercall {
                vcpu,
                tick_hz,
                rate_adapted,
            } => {
                let tid = self.tid_of(vcpu).unwrap_or(99);
                self.instant(
                    t,
                    tid,
                    "hypercall",
                    &format!(
                        "\"vcpu\":\"{vcpu}\",\"tick_hz\":{tick_hz},\"rate_adapted\":{rate_adapted}"
                    ),
                );
            }
            SimEvent::HaltPoll { vcpu, hit } => {
                let tid = self.tid_of(vcpu).unwrap_or(99);
                self.instant(
                    t,
                    tid,
                    "halt_poll",
                    &format!("\"vcpu\":\"{vcpu}\",\"hit\":{hit}"),
                );
            }
            SimEvent::BootSwitch { vcpu } => {
                let tid = self.tid_of(vcpu).unwrap_or(99);
                self.instant(t, tid, "boot_switch", &format!("\"vcpu\":\"{vcpu}\""));
            }
            SimEvent::WorkloadDone { vm } => {
                self.instant(t, 0, "workload_done", &format!("\"vm\":{vm}"));
            }
            SimEvent::TimerFire { vcpu } => {
                let tid = self.tid_of(vcpu).unwrap_or(99);
                self.instant(t, tid, "timer_fire", &format!("\"vcpu\":\"{vcpu}\""));
            }
            SimEvent::FaultInjected { kind, vcpu } => {
                let tid = vcpu.and_then(|v| self.tid_of(v)).unwrap_or(0);
                let args = match vcpu {
                    Some(v) => format!("\"kind\":\"{}\",\"vcpu\":\"{v}\"", kind.name()),
                    None => format!("\"kind\":\"{}\"", kind.name()),
                };
                self.instant(t, tid, "fault", &args);
            }
            SimEvent::WatchdogRecovery { vcpu } => {
                let tid = self.tid_of(vcpu).unwrap_or(99);
                self.instant(t, tid, "watchdog_recovery", &format!("\"vcpu\":\"{vcpu}\""));
            }
            SimEvent::TimerFallback { vcpu } => {
                let tid = self.tid_of(vcpu).unwrap_or(99);
                self.instant(t, tid, "timer_fallback", &format!("\"vcpu\":\"{vcpu}\""));
            }
            SimEvent::ParavirtFallback { vcpu } => {
                let tid = self.tid_of(vcpu).unwrap_or(99);
                self.instant(t, tid, "paravirt_fallback", &format!("\"vcpu\":\"{vcpu}\""));
            }
            SimEvent::HypercallFailed { vcpu, attempt } => {
                let tid = self.tid_of(vcpu).unwrap_or(99);
                self.instant(
                    t,
                    tid,
                    "hypercall_failed",
                    &format!("\"vcpu\":\"{vcpu}\",\"attempt\":{attempt}"),
                );
            }
        }
    }

    fn finish(&mut self, end: SimTime) {
        for i in 0..self.open.len() {
            self.close_span(PcpuId(i as u32), end);
        }
        if let Some(mut out) = self.out.take() {
            let res = out.write_all(b"\n]}\n").and_then(|()| out.flush());
            if let Err(e) = res {
                eprintln!("PARATICK_TRACE: finish {} failed: {e}", self.path.display());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Windowed time series
// ---------------------------------------------------------------------

#[derive(Clone, Default)]
struct Bucket {
    exits: u64,
    timer_exits: u64,
    injections: u64,
    virtual_ticks: u64,
    dispatches: u64,
    preempts: u64,
    wakeups: u64,
    host_ticks: u64,
    busy_ns: u64,
}

/// Windows counters over sim time and writes one row per window at the
/// end of the run — CSV by default, JSON when the path ends in `.json`.
pub struct TimeSeriesSink {
    path: PathBuf,
    window_ns: u64,
    n_pcpus: usize,
    rows: Vec<Bucket>,
    /// Running-span start per pCPU, for busy-fraction integration.
    open: Vec<Option<u64>>,
}

impl TimeSeriesSink {
    pub fn new(path: PathBuf, window_us: u64, n_pcpus: usize) -> Self {
        TimeSeriesSink {
            path,
            window_ns: window_us.max(1) * 1_000,
            n_pcpus: n_pcpus.max(1),
            rows: Vec::new(),
            open: vec![None; n_pcpus.max(1)],
        }
    }

    fn bucket(&mut self, t: SimTime) -> &mut Bucket {
        let idx = (t.as_nanos() / self.window_ns) as usize;
        if self.rows.len() <= idx {
            self.rows.resize(idx + 1, Bucket::default());
        }
        &mut self.rows[idx]
    }

    /// Attribute a busy span to every window it overlaps.
    fn add_busy(&mut self, start_ns: u64, end_ns: u64) {
        let w = self.window_ns;
        let mut at = start_ns;
        while at < end_ns {
            let window_end = (at / w + 1) * w;
            let upto = window_end.min(end_ns);
            self.bucket(SimTime::from_nanos(at)).busy_ns += upto - at;
            at = upto;
        }
    }

    fn close_pcpu(&mut self, p: PcpuId, t: SimTime) {
        let i = p.0 as usize;
        if let Some(start) = self.open.get_mut(i).and_then(Option::take) {
            self.add_busy(start, t.as_nanos());
        }
    }

    fn render(&self) -> String {
        let json = self.path.extension().is_some_and(|e| e == "json");
        let window_s = self.window_ns as f64 / 1e9;
        let capacity_ns = self.window_ns.saturating_mul(self.n_pcpus as u64).max(1);
        let mut out = String::new();
        if json {
            out.push_str("[\n");
        } else {
            out.push_str(
                "window_start_us,exits,timer_exits,exits_per_sec,timer_exits_per_sec,\
                 injections,virtual_ticks,dispatches,preempts,wakeups,host_ticks,\
                 busy_frac,idle_frac\n",
            );
        }
        for (i, b) in self.rows.iter().enumerate() {
            let start_us = i as u64 * self.window_ns / 1_000;
            let busy = (b.busy_ns as f64 / capacity_ns as f64).min(1.0);
            if json {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&format!(
                    "{{\"window_start_us\":{start_us},\"exits\":{},\"timer_exits\":{},\
                     \"exits_per_sec\":{:.1},\"timer_exits_per_sec\":{:.1},\
                     \"injections\":{},\"virtual_ticks\":{},\"dispatches\":{},\
                     \"preempts\":{},\"wakeups\":{},\"host_ticks\":{},\
                     \"busy_frac\":{:.6},\"idle_frac\":{:.6}}}",
                    b.exits,
                    b.timer_exits,
                    b.exits as f64 / window_s,
                    b.timer_exits as f64 / window_s,
                    b.injections,
                    b.virtual_ticks,
                    b.dispatches,
                    b.preempts,
                    b.wakeups,
                    b.host_ticks,
                    busy,
                    1.0 - busy,
                ));
            } else {
                out.push_str(&format!(
                    "{start_us},{},{},{:.1},{:.1},{},{},{},{},{},{},{:.6},{:.6}\n",
                    b.exits,
                    b.timer_exits,
                    b.exits as f64 / window_s,
                    b.timer_exits as f64 / window_s,
                    b.injections,
                    b.virtual_ticks,
                    b.dispatches,
                    b.preempts,
                    b.wakeups,
                    b.host_ticks,
                    busy,
                    1.0 - busy,
                ));
            }
        }
        if json {
            out.push_str("\n]\n");
        }
        out
    }
}

impl EventSink for TimeSeriesSink {
    fn on_event(&mut self, t: SimTime, ev: &SimEvent) {
        match *ev {
            SimEvent::VmExit { reason, .. } => {
                let b = self.bucket(t);
                b.exits += 1;
                if reason.is_timer_related() {
                    b.timer_exits += 1;
                }
            }
            SimEvent::Inject { virtual_tick, .. } => {
                let b = self.bucket(t);
                b.injections += 1;
                if virtual_tick {
                    b.virtual_ticks += 1;
                }
            }
            SimEvent::Dispatch { pcpu, .. } => {
                self.bucket(t).dispatches += 1;
                let i = pcpu.0 as usize;
                if self.open.len() <= i {
                    self.open.resize(i + 1, None);
                }
                self.n_pcpus = self.n_pcpus.max(i + 1);
                self.open[i] = Some(t.as_nanos());
            }
            SimEvent::Preempt { pcpu, .. } => {
                self.bucket(t).preempts += 1;
                self.close_pcpu(pcpu, t);
            }
            SimEvent::IdleEnter { pcpu, .. } => {
                self.close_pcpu(pcpu, t);
            }
            SimEvent::IdleExit { .. } => {
                self.bucket(t).wakeups += 1;
            }
            SimEvent::HostTick { .. } => {
                self.bucket(t).host_ticks += 1;
            }
            _ => {}
        }
    }

    fn finish(&mut self, end: SimTime) {
        for i in 0..self.open.len() {
            self.close_pcpu(PcpuId(i as u32), end);
        }
        let body = self.render();
        if let Err(e) = std::fs::write(&self.path, body) {
            eprintln!(
                "PARATICK_TIMESERIES: write {} failed: {e}",
                self.path.display()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Environment wiring
// ---------------------------------------------------------------------

// A process may run many simulations (experiments iterate, sweeps fan
// out across workers); only the first run that asks claims the output
// paths, so parallel runs don't clobber one file.
static ENV_SINK_CLAIM: AtomicBool = AtomicBool::new(false);

/// The sinks `PARATICK_TRACE` / `PARATICK_TIMESERIES` request, for the
/// first caller in the process only; every later call (and any call
/// when neither is set) returns none. The run cache attaches them to
/// the run it is about to simulate.
pub fn claim_env_sinks(env: &EnvConfig, n_pcpus: usize) -> Vec<Box<dyn EventSink>> {
    let mut sinks: Vec<Box<dyn EventSink>> = Vec::new();
    if (env.trace.is_none() && env.timeseries.is_none())
        || ENV_SINK_CLAIM.swap(true, Ordering::SeqCst)
    {
        return sinks;
    }
    if let Some(path) = &env.trace {
        match PerfettoSink::create(path.clone()) {
            Ok(s) => sinks.push(Box::new(s)),
            Err(e) => eprintln!("PARATICK_TRACE: cannot create {}: {e}", path.display()),
        }
    }
    if let Some(path) = &env.timeseries {
        sinks.push(Box::new(TimeSeriesSink::new(
            path.clone(),
            env.timeseries_window_us,
            n_pcpus,
        )));
    }
    sinks
}

/// `PARATICK_PROF=1`: time each event kind with the wall clock.
pub fn prof_wall_enabled() -> bool {
    EnvConfig::get().map(|e| e.prof).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratick_vmm::ExitReason;

    fn v(vm: u32, vcpu: u32) -> VcpuId {
        VcpuId::new(vm, vcpu)
    }

    #[test]
    fn trace_sink_renders_legacy_formats() {
        assert_eq!(
            TraceSink::render(&SimEvent::VmExit {
                vcpu: v(0, 1),
                reason: ExitReason::Hlt,
                pollution_ns: 12,
            }),
            "vm0:vcpu1 exit hlt"
        );
        assert_eq!(
            TraceSink::render(&SimEvent::Dispatch {
                vcpu: v(0, 0),
                pcpu: PcpuId(0),
                run_queue: 3,
            }),
            "vm0:vcpu0 dispatch on pcpu0"
        );
        assert_eq!(
            TraceSink::render(&SimEvent::IdleExit {
                vcpu: v(1, 2),
                pcpu: PcpuId(4),
                idle_ns: 100,
            }),
            "vm1:vcpu2 wake"
        );
        assert_eq!(
            TraceSink::render(&SimEvent::WorkloadDone { vm: 7 }),
            "vm7 workload done"
        );
    }

    #[test]
    fn trace_sink_records_into_shared_buffer() {
        let (mut sink, buf) = TraceSink::new(16);
        sink.on_event(
            SimTime::from_micros(2),
            &SimEvent::TimerCancel { vcpu: v(0, 0) },
        );
        let dump = buf.borrow().dump();
        assert!(dump.contains("vm0:vcpu0 timer cancel"), "got: {dump}");
    }

    #[test]
    fn timeseries_windows_and_busy_fraction() {
        let mut ts = TimeSeriesSink::new(PathBuf::from("unused.csv"), 1_000, 1);
        let t0 = SimTime::ZERO;
        ts.on_event(
            t0,
            &SimEvent::Dispatch {
                vcpu: v(0, 0),
                pcpu: PcpuId(0),
                run_queue: 0,
            },
        );
        ts.on_event(
            SimTime::from_micros(500),
            &SimEvent::VmExit {
                vcpu: v(0, 0),
                reason: ExitReason::MsrWriteTscDeadline,
                pollution_ns: 0,
            },
        );
        // Span crosses the first window boundary: 1000 µs busy in w0,
        // 500 µs in w1.
        ts.on_event(
            SimTime::from_micros(1_500),
            &SimEvent::IdleEnter {
                vcpu: v(0, 0),
                pcpu: PcpuId(0),
            },
        );
        assert_eq!(ts.rows[0].exits, 1);
        assert_eq!(ts.rows[0].timer_exits, 1);
        assert_eq!(ts.rows[0].busy_ns, 1_000_000);
        assert_eq!(ts.rows[1].busy_ns, 500_000);
        let csv = ts.render();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("window_start_us,exits,timer_exits"));
        assert!(lines[1].starts_with("0,1,1,1000.0,1000.0,"));
        assert!(lines[1].ends_with("1.000000,0.000000"));
    }

    #[test]
    fn prof_flag_defaults_off() {
        // The test harness does not set PARATICK_PROF.
        assert!(!prof_wall_enabled());
    }
}
