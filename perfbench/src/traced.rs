//! The traced run: per-layer numbers, timed from outside the program.
//!
//! Every public call into a layer is wrapped in a span (name, parent,
//! job, start, duration) kept in memory and written out at the end.
//! Layers that the engine calls internally are reached without touching
//! the program: `PARATICK_PROF=1` times each event handler, a forwarding
//! [`ThreadModel`] wrapper times the workload models, a counting global
//! allocator counts the engine's allocations, and each run's event stream
//! is captured with a [`CollectSink`] and replayed through a fresh
//! [`InvariantAuditor`].
//!
//! The traced run makes one pass over the job set (the warm workload:
//! [`WARM_PASSES`] passes), so every count repeats exactly for a seed.
//! Where a workload never calls a layer on its own path — the cache on
//! `table1-ticks`, hit lookups on `paper-grid-cold` — each result is
//! stored and looked up again after its own path ends, so every layer
//! has a figure on every workload; `cache.hits` and `cache.misses`
//! count only the workload's own lookups.

use crate::catalog::{JobSet, Workload};
use crate::check::{digest, Verifier};
use crate::{PhaseOut, WorkDir};
use paratick::audit::InvariantAuditor;
use paratick::prelude::*;
use paratick_sim::{FromJson, Json, ToJson};
use paratick_sim::{SimRng, StableHasher};
use paratick_vmm::CollectSink;
use paratick_workloads::{Action, ThreadModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Timed passes over the warm set (one pass is only ~2 ms of lookups).
const WARM_PASSES: usize = 20;

/// The engine event kinds reported one by one.
pub const KINDS: [&str; 7] = [
    "vcpu_stop",
    "guest_timer",
    "host_tick",
    "io_done",
    "kick",
    "adapt_tick",
    "boot_switch",
];

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations while [`COUNTING`] is on.
/// The statics are plain statistics and publish no other data, hence
/// `Relaxed`.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// update allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System` underneath; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn count_alloc() {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

// ---------------------------------------------------------------------
// Workload-model wrapper
// ---------------------------------------------------------------------

static NEXT_CALLS: AtomicU64 = AtomicU64::new(0);
static NEXT_NS: AtomicU64 = AtomicU64::new(0);

/// Forwards every call to the wrapped model and times `next`. `label`
/// and `fingerprint` are delegated, so cache keys and results are
/// unchanged (the traced run checks both).
struct TimedModel(Box<dyn ThreadModel>);

impl ThreadModel for TimedModel {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        let t0 = Instant::now();
        let action = self.0.next(rng);
        NEXT_NS.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        NEXT_CALLS.fetch_add(1, Relaxed);
        action
    }

    fn label(&self) -> &str {
        self.0.label()
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        self.0.fingerprint(h)
    }
}

fn wrap_models(s: &mut Scenario) {
    for (_, w) in &mut s.vms {
        w.threads = std::mem::take(&mut w.threads)
            .into_iter()
            .map(|t| Box::new(TimedModel(t)) as Box<dyn ThreadModel>)
            .collect();
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// Job index of spans that belong to no job.
const NO_JOB: u32 = u32::MAX;

struct Span {
    parent: Option<u32>,
    job: u32,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span log. A span's id is its index.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, parent: Option<u32>, job: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            parent,
            job,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        id
    }

    /// End span `id`; returns its duration in ns.
    fn close(&mut self, id: u32) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id as usize];
        s.dur_ns = now - s.start_ns;
        s.dur_ns
    }

    /// Total duration and count of the spans called `name`.
    fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns, n + 1))
    }

    /// Mean duration of the spans called `name`, in µs.
    fn mean_us(&self, name: &str) -> f64 {
        let (ns, n) = self.total(name);
        ns as f64 / 1e3 / n.max(1) as f64
    }

    fn write(&self, path: &Path, jobs: &JobSet) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::U64(id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p.into())),
                    ),
                    (
                        "job",
                        match jobs.jobs.get(s.job as usize) {
                            Some(j) => Json::Str(j.name.clone()),
                            None => Json::Null,
                        },
                    ),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("dur_ns", Json::U64(s.dur_ns)),
                ])
            })
            .collect();
        std::fs::write(path, Json::Arr(spans).to_string_compact())
    }
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

struct Run<'a> {
    set: &'a JobSet,
    cache: RunCache,
    tr: Tracer,
    v: Verifier,
    /// Sums over the runs: counts and nanoseconds by metric name.
    sum: BTreeMap<String, f64>,
    queue_hwm: u64,
    /// Own-path host time and scenario count (for the overhead figure).
    own_ns: u64,
    own_runs: u64,
}

impl Run<'_> {
    fn add(&mut self, name: &str, v: f64) {
        *self.sum.entry(name.to_string()).or_default() += v;
    }

    fn get(&self, name: &str) -> f64 {
        self.sum.get(name).copied().unwrap_or(0.0)
    }

    fn name(&self, job: usize) -> &str {
        &self.set.jobs[job].name
    }

    /// Build job `i` wrapped for timing; fails if wrapping moved its key.
    fn build_wrapped(&mut self, i: usize) -> Option<Scenario> {
        let mut s = self.set.build(i);
        let key = RunCache::key(&s);
        wrap_models(&mut s);
        if RunCache::key(&s) != key {
            let name = self.name(i).to_string();
            self.v
                .fail(&name, "the model wrapper changed the cache key");
            return None;
        }
        Some(s)
    }

    /// `Engine::new` + `run_to_completion` under spans, with the
    /// engine's own counters folded into the sums.
    fn engine(&mut self, root: u32, i: usize, s: Scenario) -> Option<RunMetrics> {
        let j = i as u32;
        let n = self.tr.open(Some(root), j, "engine.new");
        let engine = Engine::new(s);
        self.tr.close(n);
        let r = self.tr.open(Some(root), j, "engine.run");
        let allocs0 = ALLOCS.load(Relaxed);
        COUNTING.store(true, Relaxed);
        let result = engine.and_then(|e| e.run_to_completion());
        COUNTING.store(false, Relaxed);
        let allocs = ALLOCS.load(Relaxed) - allocs0;
        self.tr.close(r);
        let m = match result {
            Ok(m) => m,
            Err(e) => {
                let name = self.name(i).to_string();
                self.v.fail(&name, e);
                return None;
            }
        };
        let p = &m.profile;
        self.add("engine.allocs", allocs as f64);
        self.add("engine.events", p.events_total() as f64);
        self.add("engine.loop_ns", p.wall_nanos as f64);
        for k in &p.per_kind {
            self.add(&format!("engine.events.{}", k.kind), k.count as f64);
            self.add(
                &format!("engine.handler_ns.{}", k.kind),
                k.wall_nanos as f64,
            );
            self.add("engine.handler_ns", k.wall_nanos as f64);
        }
        self.queue_hwm = self.queue_hwm.max(p.queue_depth_high_water);
        self.add("emit.events", m.audit.events_checked as f64);
        self.add("vmm.exits", m.total_exits() as f64);
        self.add("vmm.timer_exits", m.timer_exits() as f64);
        for vm in &m.per_vm {
            self.add("vmm.injections", vm.injections as f64);
            self.add("guest.idle_periods", vm.idle_periods as f64);
        }
        Some(m)
    }

    /// `RunCache::store` under a span; returns the span.
    fn store(&mut self, parent: Option<u32>, i: usize, key: &str, m: &RunMetrics) -> u32 {
        let st = self.tr.open(parent, i as u32, "cache.store");
        let ok = self.cache.store(key, m);
        self.tr.close(st);
        if let Ok(meta) = std::fs::metadata(entry_path(self.cache.dir(), key)) {
            self.add("cache.entry_bytes", meta.len() as f64);
            self.add("cache.entries", 1.0);
        }
        if !ok {
            let name = self.name(i).to_string();
            self.v.fail(&name, "cache store failed");
        }
        st
    }

    /// Replay the JSON encoding inside store span `st`.
    fn replay_encode(&mut self, st: u32, i: usize, m: &RunMetrics) {
        let en = self.tr.open(Some(st), i as u32, "json.encode");
        black_box(m.to_json().to_string_pretty());
        self.tr.close(en);
    }

    /// `RunCache::lookup` of a stored entry under a span; returns the
    /// result and the span.
    fn lookup(&mut self, parent: Option<u32>, i: usize, key: &str) -> (Option<RunMetrics>, u32) {
        let l = self.tr.open(parent, i as u32, "cache.lookup");
        let got = self.cache.lookup(key);
        self.tr.close(l);
        if got.is_none() {
            let name = self.name(i).to_string();
            self.v.fail(&name, "lookup of a stored entry missed");
        }
        (got, l)
    }

    /// Replay the parse and decode inside lookup span `l` on the same
    /// bytes; the lookup's self time is then its read.
    fn replay_decode(&mut self, l: u32, i: usize, key: &str) {
        let j = i as u32;
        let text = std::fs::read_to_string(entry_path(self.cache.dir(), key)).unwrap_or_default();
        let p = self.tr.open(Some(l), j, "json.parse");
        let doc = Json::parse(&text);
        self.tr.close(p);
        let d = self.tr.open(Some(l), j, "json.decode");
        let decoded = doc
            .ok()
            .and_then(|doc| doc.opt_field("metrics").map(RunMetrics::from_json));
        self.tr.close(d);
        if !matches!(decoded, Some(Ok(_))) {
            let name = self.name(i).to_string();
            self.v.fail(&name, "stored entry does not decode");
        }
    }

    /// Look stored `m` up again and require the same result back.
    fn read_back(&mut self, i: usize, key: &str, m: &RunMetrics) {
        let (back, l) = self.lookup(None, i, key);
        self.replay_decode(l, i, key);
        if back.is_some_and(|b| digest(&b) != digest(m)) {
            let name = self.name(i).to_string();
            self.v.fail(&name, "stored entry reads back different");
        }
    }

    /// The cold path of `RunCache::run`: key, a lookup that must miss,
    /// simulate, store. Returns the result and its key.
    fn cold(&mut self, i: usize) -> Option<(RunMetrics, String)> {
        let s = self.build_wrapped(i)?;
        let j = i as u32;
        let root = self.tr.open(None, j, "job");
        let k = self.tr.open(Some(root), j, "cache.key");
        let key = RunCache::key(&s);
        self.tr.close(k);
        let l = self.tr.open(Some(root), j, "cache.lookup_miss");
        let stale = self.cache.lookup(&key);
        self.tr.close(l);
        self.add("cache.misses", 1.0);
        let m = self.engine(root, i, s);
        let st = m.as_ref().map(|m| self.store(Some(root), i, &key, m));
        let ns = self.tr.close(root);
        let (m, st) = (m?, st?);
        self.own(ns);
        self.replay_encode(st, i, &m);
        if stale.is_some() {
            let name = self.name(i).to_string();
            self.v.fail(&name, "a cold cache served a hit");
            return None;
        }
        Some((m, key))
    }

    fn own(&mut self, ns: u64) {
        self.own_ns += ns;
        self.own_runs += 1;
    }

    /// Capture job `i`'s event stream in an untimed second run, then
    /// time a fresh auditor over it. The capture must not change the
    /// result.
    fn audit_replay(&mut self, i: usize, m: &RunMetrics) {
        let name = self.name(i).to_string();
        let (sink, events) = CollectSink::new();
        let captured = Engine::new(self.set.build(i)).and_then(|mut e| {
            e.attach_sink(Box::new(sink));
            e.run_to_completion()
        });
        match captured {
            Ok(m2) if digest(&m2) == digest(m) => {}
            Ok(_) => return self.v.fail(&name, "attaching a sink changed the result"),
            Err(e) => return self.v.fail(&name, e),
        }
        let events = events.borrow();
        if events.len() as u64 != m.audit.events_checked {
            return self
                .v
                .fail(&name, "captured stream differs from the audited one");
        }
        let a = self.tr.open(None, i as u32, "audit.replay");
        let mut auditor = InvariantAuditor::new();
        for (t, ev) in events.iter() {
            auditor.on_event(*t, ev);
        }
        black_box(&auditor);
        self.tr.close(a);
        self.add("audit.emits", events.len() as f64);
    }

    fn check(&mut self, i: usize, m: &RunMetrics) {
        let name = self.name(i).to_string();
        self.v.check(&name, m);
    }
}

/// `<dir>/<k0k1>/<key>.json`, the run cache's documented layout.
fn entry_path(dir: &Path, key: &str) -> std::path::PathBuf {
    dir.join(&key[..2]).join(format!("{key}.json"))
}

pub fn run(w: Workload, seed: u64, dir: &WorkDir, spans_out: &Path) -> PhaseOut {
    let set = JobSet::new(w, seed);
    let mut run = Run {
        set: &set,
        cache: RunCache::new(dir.cache()),
        tr: Tracer::new(),
        v: Verifier::new(w.family(), seed),
        sum: BTreeMap::new(),
        queue_hwm: 0,
        own_ns: 0,
        own_runs: 0,
    };
    dir.reset_cache();
    NEXT_CALLS.store(0, Relaxed);
    NEXT_NS.store(0, Relaxed);

    let b = run.tr.open(None, NO_JOB, "workloads.build");
    black_box(set.build_all());
    run.tr.close(b);

    match w {
        Workload::GridCold => {
            for i in 0..set.len() {
                let Some((m, key)) = run.cold(i) else {
                    continue;
                };
                run.check(i, &m);
                run.read_back(i, &key, &m);
                run.audit_replay(i, &m);
            }
        }
        Workload::Table1Ticks => {
            for i in 0..set.len() {
                let Some(s) = run.build_wrapped(i) else {
                    continue;
                };
                let k = run.tr.open(None, i as u32, "cache.key");
                let key = RunCache::key(&s);
                run.tr.close(k);
                let root = run.tr.open(None, i as u32, "job");
                let m = run.engine(root, i, s);
                let ns = run.tr.close(root);
                let Some(m) = m else { continue };
                run.own(ns);
                run.check(i, &m);
                let st = run.store(None, i, &key, &m);
                run.replay_encode(st, i, &m);
                run.read_back(i, &key, &m);
                run.audit_replay(i, &m);
            }
        }
        Workload::GridWarm => {
            // Set-up: fill the cache on the cold path.
            for i in 0..set.len() {
                let Some((m, _)) = run.cold(i) else { continue };
                run.check(i, &m);
                run.audit_replay(i, &m);
            }
            run.own_ns = 0;
            run.own_runs = 0;
            let scenarios = set.build_all();
            for _ in 0..WARM_PASSES {
                for (i, s) in scenarios.iter().enumerate() {
                    let root = run.tr.open(None, i as u32, "job");
                    let k = run.tr.open(Some(root), i as u32, "cache.key");
                    let key = RunCache::key(s);
                    run.tr.close(k);
                    let (got, l) = run.lookup(Some(root), i, &key);
                    let ns = run.tr.close(root);
                    run.own(ns);
                    run.add("cache.hits", 1.0);
                    run.replay_decode(l, i, &key);
                    if let Some(m) = got {
                        run.check(i, &m);
                    }
                }
            }
        }
    }

    if let Err(e) = run.tr.write(spans_out, &set) {
        eprintln!("perfbench: cannot write {}: {e}", spans_out.display());
    }
    metrics(run)
}

fn metrics(run: Run<'_>) -> PhaseOut {
    let ms = |ns: f64| ns / 1e6;
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let tr = &run.tr;
    let events = run.get("engine.events");
    let (run_ns, _) = tr.total("engine.run");
    let (audit_ns, _) = tr.total("audit.replay");
    let (build_ns, _) = tr.total("workloads.build");
    let emits = run.get("emit.events");
    let next_calls = NEXT_CALLS.load(Relaxed) as f64;
    let lookup_us = tr.mean_us("cache.lookup");
    let parse_us = tr.mean_us("json.parse");
    let decode_us = tr.mean_us("json.decode");

    let mut m: Vec<(String, f64)> = vec![
        ("engine.new_us".into(), tr.mean_us("engine.new")),
        ("engine.run_ms".into(), ms(run_ns as f64)),
        ("engine.events".into(), events),
        ("engine.ns_per_event".into(), per(run_ns as f64, events)),
    ];
    for k in KINDS {
        m.push((
            format!("engine.events.{k}"),
            run.get(&format!("engine.events.{k}")),
        ));
    }
    for k in KINDS {
        let ns = run.get(&format!("engine.handler_ns.{k}"));
        m.push((format!("engine.handler_ms.{k}"), ms(ns)));
    }
    let loop_self = run.get("engine.loop_ns") - run.get("engine.handler_ns");
    m.extend([
        ("engine.loop_self_ms".into(), ms(loop_self)),
        ("engine.queue_hwm".into(), run.queue_hwm as f64),
        (
            "engine.allocs_per_event".into(),
            per(run.get("engine.allocs"), events),
        ),
        ("emit.events".into(), emits),
        ("emit.per_event".into(), per(emits, events)),
        (
            "audit.ns_per_emit".into(),
            per(audit_ns as f64, run.get("audit.emits")),
        ),
        ("audit.ms".into(), ms(audit_ns as f64)),
        ("workloads.next_calls".into(), next_calls),
        (
            "workloads.ns_per_next".into(),
            per(NEXT_NS.load(Relaxed) as f64, next_calls),
        ),
        ("workloads.build_ms".into(), ms(build_ns as f64)),
        ("cache.key_us".into(), tr.mean_us("cache.key")),
        ("cache.lookup_us".into(), lookup_us),
        ("cache.read_us".into(), lookup_us - parse_us - decode_us),
        ("json.parse_us".into(), parse_us),
        ("json.decode_us".into(), decode_us),
        ("cache.store_us".into(), tr.mean_us("cache.store")),
        ("json.encode_us".into(), tr.mean_us("json.encode")),
        ("cache.hits".into(), run.get("cache.hits")),
        ("cache.misses".into(), run.get("cache.misses")),
        (
            "cache.entry_kb".into(),
            per(run.get("cache.entry_bytes"), run.get("cache.entries")) / 1024.0,
        ),
        ("vmm.exits".into(), run.get("vmm.exits")),
        ("vmm.timer_exits".into(), run.get("vmm.timer_exits")),
        ("vmm.injections".into(), run.get("vmm.injections")),
        ("guest.idle_periods".into(), run.get("guest.idle_periods")),
        (
            "runs_per_s".into(),
            per(run.own_runs as f64, run.own_ns as f64 / 1e9),
        ),
    ]);
    PhaseOut {
        attempted: run.v.attempted,
        failed: run.v.failed,
        samples: run.own_runs as usize,
        metrics: m,
        errors: run.v.errors,
    }
}
