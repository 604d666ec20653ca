//! The traced run's span recorder and allocation counters.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself is not instrumented). Each span has a name, start,
//! end, parent and run id; they are kept in memory and written out as
//! JSON lines when the run ends. A span's layer is its name up to the
//! first `.`.
//!
//! Calls made once per row (`entry_name`, `collect_raw`, `RawRow::intern`,
//! `Row::pack`) are far too many to keep one span each, so they are timed
//! one by one and summed into a *busy* record under the enclosing span:
//! name, total nanoseconds, call count, and whether the calls ran on the
//! benchmark's own thread or on the worker threads of a parallel map.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Call name, `layer.call`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started (0 while open).
    pub end_ns: u64,
}

/// Per-row calls summed under one span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    /// Summed nanoseconds.
    pub ns: u64,
    /// Calls summed.
    pub calls: u64,
    /// True if the calls ran on the recording thread (they then count
    /// against the enclosing span's self time).
    pub on_main: bool,
}

/// In-memory span recorder for one traced run (single-threaded: spans are
/// opened and closed on the benchmark's own thread).
pub struct Tracer {
    run_id: u64,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    busy: RefCell<BTreeMap<(Option<usize>, &'static str), Busy>>,
}

/// Closes its span when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    index: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        if let Some(span) = self.tracer.spans.borrow_mut().get_mut(self.index) {
            span.end_ns = end;
        }
        let mut stack = self.tracer.stack.borrow_mut();
        if stack.last() == Some(&self.index) {
            stack.pop();
        }
    }
}

impl Tracer {
    /// A recorder whose spans carry `run_id`.
    pub fn new(run_id: u64) -> Self {
        Self {
            run_id,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            busy: RefCell::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span.
    pub fn span(&self, name: impl Into<String>) -> Guard<'_> {
        let parent = self.stack.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.into(),
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        let index = spans.len() - 1;
        self.stack.borrow_mut().push(index);
        Guard {
            tracer: self,
            index,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name);
        f()
    }

    /// Adds summed per-row call time under the innermost open span.
    pub fn add_busy(&self, name: &'static str, ns: u64, calls: u64, on_main: bool) {
        let parent = self.stack.borrow().last().copied();
        let mut busy = self.busy.borrow_mut();
        let b = busy.entry((parent, name)).or_default();
        b.ns += ns;
        b.calls += calls;
        b.on_main = on_main;
    }

    /// Summed seconds of every span named `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9)
            .fold(0.0, |a, b| a + b)
    }

    /// Number of spans named `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .count() as u64
    }

    /// Summed seconds and calls of every busy record named `name`.
    pub fn busy(&self, name: &str) -> (f64, u64) {
        self.busy
            .borrow()
            .iter()
            .filter(|((_, n), _)| *n == name)
            .fold((0.0, 0), |(s, c), (_, b)| {
                (s + b.ns as f64 / 1e9, c + b.calls)
            })
    }

    /// Self time per layer, in seconds: each span's duration minus its
    /// child spans and the on-thread busy records under it, plus on-thread
    /// busy records credited to their own layer. Worker-thread busy time
    /// overlaps the caller's wait and is not self time of anything.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.borrow();
        let busy = self.busy.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for ((parent, name), b) in busy.iter() {
            if !b.on_main {
                continue;
            }
            if let Some(p) = parent {
                child_ns[*p] += b.ns;
            }
            *out.entry(layer_of(name).to_string()).or_default() += b.ns as f64 / 1e9;
        }
        for (i, s) in spans.iter().enumerate() {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
            *out.entry(layer_of(&s.name).to_string()).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Every span and busy record as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\": {}, \"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            );
        }
        for ((parent, name), b) in self.busy.borrow().iter() {
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\": {}, \"parent\": {parent}, \"busy\": \"{name}\", \"ns\": {}, \
                 \"calls\": {}, \"on_main\": {}}}",
                self.run_id, b.ns, b.calls, b.on_main
            );
        }
        out
    }
}

/// The layer of a span name: everything before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split_once('.').map_or(name, |(layer, _)| layer)
}

/// Times one call, returning its result and elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let v = f();
    (v, u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Heap counters the traced binary's counting allocator feeds. The
/// untraced binary has no such allocator, so there they stay at zero and
/// [`AllocCounters::active`] is false.
pub struct AllocCounters {
    /// Set by the counting allocator's binary at start-up.
    pub installed: AtomicBool,
    /// Allocations (including reallocations).
    pub allocs: AtomicU64,
    /// Bytes requested by those allocations.
    pub bytes: AtomicU64,
    /// Bytes live right now.
    pub live: AtomicU64,
    /// Highest `live` since the last [`AllocCounters::reset_peak`].
    pub peak_live: AtomicU64,
}

/// The process-wide allocation counters.
pub static ALLOC: AllocCounters = AllocCounters {
    installed: AtomicBool::new(false),
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    live: AtomicU64::new(0),
    peak_live: AtomicU64::new(0),
};

impl AllocCounters {
    /// True when a counting allocator feeds these counters.
    pub fn active(&self) -> bool {
        self.installed.load(Ordering::Relaxed)
    }

    /// Records an allocation of `size` bytes.
    pub fn on_alloc(&self, size: usize) {
        let size = size as u64;
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size, Ordering::Relaxed);
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak_live.fetch_max(live, Ordering::Relaxed);
    }

    /// Records a free of `size` bytes.
    pub fn on_free(&self, size: usize) {
        self.live.fetch_sub(size as u64, Ordering::Relaxed);
    }

    /// `(allocations, bytes)` so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.allocs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    /// Restarts the peak from the bytes live now.
    pub fn reset_peak(&self) {
        self.peak_live
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Peak live bytes since the last reset.
    pub fn peak_live(&self) -> u64 {
        self.peak_live.load(Ordering::Relaxed)
    }
}
