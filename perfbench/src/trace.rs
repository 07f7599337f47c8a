//! The traced run's recorder: spans and counters kept in memory, written
//! out once at the end, and parsed back for the per-layer metrics.
//!
//! A span is one timed call into a layer: a name, start and end (ns since
//! the tracer was made), the span that caused it (`parent`), the request it
//! serves (`req`), and a work count `n` (items, bytes, oracle calls or probe
//! iterations, depending on the name). Spans are recorded from the
//! benchmark's own code around calls into the program's public API; the
//! program itself is not instrumented.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Every span name the benchmark records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Name {
    /// The timed phase of a workload (`n` = operations completed).
    Phase,
    /// One set-up repetition.
    Setup,
    /// Client send → reply read of a mutating request (`n` = items).
    RequestWrite,
    /// Client send → reply read of a query.
    RequestRead,
    /// `ApplyService::apply` of a mutating command, under the core lock.
    ApplyWrite,
    /// `ApplyService::apply` of a query.
    ApplyRead,
    /// `StorageFile::append` (`n` = bytes).
    DurableAppend,
    /// `StorageFile::sync`.
    DurableFsync,
    /// `Storage::read` / `read_range` (`n` = bytes).
    DurableRead,
    /// Any other storage operation (create, rename, list, truncate, ...).
    DurableMeta,
    /// A storage operation that returned an error (zero length).
    DurableError,
    /// One `DurableSketchService::open_with` after shutdown.
    DurableOpen,
    /// `proto::decode_request` over the workload's request lines.
    ProbeDecode,
    /// `proto::encode_line` over the workload's reply lines.
    ProbeEncode,
    /// `TenantDirectory::admit` + `scope_command` over its commands.
    ProbeAdmit,
    /// In-process `SketchService::ingest` over its batches (`n` = requests).
    ProbeServiceIngest,
    /// Single-threaded `SessionSketch::ingest` over them (`n` = items).
    ProbeSketchIngest,
    /// `SessionSketch::folded` + estimate on a directly built copy
    /// (`n` = reads).
    ProbeSketchFold,
    /// The same reads through `SketchService` (`n` = reads).
    ProbeServiceRead,
    /// One `approx_mc_on_oracle` call (one formula).
    Count,
    /// One oracle `exists`/`enumerate` (`n` = oracle calls it counted).
    Oracle,
    /// One hash draw of the counting sampler.
    Draw,
}

impl Name {
    /// All names, in dump order.
    pub const ALL: [Name; 22] = [
        Name::Phase,
        Name::Setup,
        Name::RequestWrite,
        Name::RequestRead,
        Name::ApplyWrite,
        Name::ApplyRead,
        Name::DurableAppend,
        Name::DurableFsync,
        Name::DurableRead,
        Name::DurableMeta,
        Name::DurableError,
        Name::DurableOpen,
        Name::ProbeDecode,
        Name::ProbeEncode,
        Name::ProbeAdmit,
        Name::ProbeServiceIngest,
        Name::ProbeSketchIngest,
        Name::ProbeSketchFold,
        Name::ProbeServiceRead,
        Name::Count,
        Name::Oracle,
        Name::Draw,
    ];

    /// The name as written in the dump.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Phase => "phase",
            Name::Setup => "setup",
            Name::RequestWrite => "net.request_write",
            Name::RequestRead => "net.request_read",
            Name::ApplyWrite => "service.apply_write",
            Name::ApplyRead => "service.apply_read",
            Name::DurableAppend => "durable.append",
            Name::DurableFsync => "durable.fsync",
            Name::DurableRead => "durable.read",
            Name::DurableMeta => "durable.meta",
            Name::DurableError => "durable.error",
            Name::DurableOpen => "durable.open",
            Name::ProbeDecode => "probe.net.decode",
            Name::ProbeEncode => "probe.net.encode",
            Name::ProbeAdmit => "probe.net.admit",
            Name::ProbeServiceIngest => "probe.service.ingest",
            Name::ProbeSketchIngest => "probe.sketch.ingest",
            Name::ProbeSketchFold => "probe.sketch.fold",
            Name::ProbeServiceRead => "probe.service.read",
            Name::Count => "counting.count",
            Name::Oracle => "sat.oracle",
            Name::Draw => "hashing.draw",
        }
    }

    /// Inverse of [`Name::as_str`].
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.iter().copied().find(|n| n.as_str() == s)
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The causing span's id, 0 for none.
    pub parent: u64,
    /// The request this span serves, 0 for none.
    pub req: u64,
    /// What was timed.
    pub name: Name,
    /// Start, ns since the tracer was made.
    pub start: u64,
    /// End, ns since the tracer was made.
    pub end: u64,
    /// Work count (see [`Name`]).
    pub n: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Request ids: connection in the high bits, the request's position on its
/// connection in the low bits. Connections are FIFO, so the k-th request of
/// a connection is the k-th command its tenant applies.
pub fn request_id(conn: usize, k: u64) -> u64 {
    ((conn as u64 + 1) << 40) | k
}

/// The span id of a request's client-side span. Request spans take ids in
/// their own range (top bit set) so the apply wrapper can name its parent
/// without asking the client.
pub fn request_span_id(req: u64) -> u64 {
    (1 << 63) | req
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// The span currently open on this thread (0 for none): storage calls made
/// inside an apply nest under it.
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// Runs `f` with `id` as this thread's current span.
pub fn with_current<T>(id: u64, f: impl FnOnce() -> T) -> T {
    let saved = CURRENT.with(|c| c.replace(id));
    let out = f();
    CURRENT.with(|c| c.set(saved));
    out
}

/// The in-memory recorder shared by every traced thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<Vec<(String, f64)>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(Vec::new()),
        }
    }

    /// ns since the tracer was made.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` as ns since the tracer was made.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("tracer lock").push(span);
    }

    /// Records many spans at once.
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans.lock().expect("tracer lock").extend(spans);
    }

    /// Times `f` as one span named `name` under the current span.
    pub fn time<T>(&self, name: Name, n: u64, f: impl FnOnce() -> T) -> T {
        let id = self.next_id();
        let parent = current();
        let start = self.now();
        let out = with_current(id, f);
        let end = self.now();
        self.push(Span {
            id,
            parent,
            req: 0,
            name,
            start,
            end,
            n,
        });
        out
    }

    /// Records a named value.
    pub fn counter(&self, name: &str, value: f64) {
        self.counters
            .lock()
            .expect("tracer lock")
            .push((name.to_string(), value));
    }

    /// Everything recorded so far, spans ordered by start.
    pub fn take(&self) -> Trace {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("tracer lock"));
        spans.sort_by_key(|s| (s.start, s.id));
        let counters = std::mem::take(&mut *self.counters.lock().expect("tracer lock"));
        Trace { spans, counters }
    }
}

/// A finished recording.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Spans, ordered by start.
    pub spans: Vec<Span>,
    /// Named values, in recording order.
    pub counters: Vec<(String, f64)>,
}

impl Trace {
    /// The dump format: one record a line,
    /// `S <id> <parent> <req> <name> <start> <end> <n>` for spans and
    /// `C <name> <value>` for counters.
    pub fn dump(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 48);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "S {} {} {} {} {} {} {}",
                s.id,
                s.parent,
                s.req,
                s.name.as_str(),
                s.start,
                s.end,
                s.n
            );
        }
        for (name, value) in &self.counters {
            // `{:?}` writes the shortest text that parses back to the same f64.
            let _ = writeln!(out, "C {name} {value:?}");
        }
        out
    }

    /// Inverse of [`Trace::dump`].
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut trace = Trace::default();
        for (i, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split(' ').collect();
            let bad = || format!("span dump line {}: `{line}`", i + 1);
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match fields.as_slice() {
                ["S", id, parent, req, name, start, end, n] => trace.spans.push(Span {
                    id: num(id)?,
                    parent: num(parent)?,
                    req: num(req)?,
                    name: Name::parse(name).ok_or_else(bad)?,
                    start: num(start)?,
                    end: num(end)?,
                    n: num(n)?,
                }),
                ["C", name, value] => trace
                    .counters
                    .push((name.to_string(), value.parse().map_err(|_| bad())?)),
                _ => return Err(bad()),
            }
        }
        Ok(trace)
    }

    /// The last value recorded under `name`.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Spans named `name`.
    pub fn named(&self, name: Name) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// A span's self time: its duration minus the part of it that its
    /// children cover.
    pub fn self_time(span: &Span, children: &[&Span]) -> u64 {
        let mut kids: Vec<(u64, u64)> = children
            .iter()
            .map(|c| (c.start.max(span.start), c.end.min(span.end)))
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, span.start);
        for (s, e) in kids {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        span.dur().saturating_sub(covered)
    }
}
