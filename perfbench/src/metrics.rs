//! Metric names and units, the end-to-end summary of a pass, the per-layer
//! derivation from a trace, and readings from `/proc`.

use crate::trace::{Name, Span, Trace};
use std::collections::HashMap;

/// Every end-to-end figure a pass can report. An "operation" is one
/// request for the server workloads and one counted formula for
/// `count_cnf`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    /// Median CPU time of the process over one set-up repetition.
    SetupS,
    /// Median wall time of one set-up repetition.
    SetupWallS,
    /// Operations per second.
    OpsPerS,
    /// Items acknowledged per second.
    IngestItemsPerS,
    /// Median send→reply latency of every operation.
    OpP50Ms,
    /// Process CPU per operation.
    CpuMsPerOp,
    /// Send→reply latency of mutating requests.
    WriteP50Ms,
    /// The same, p99.
    WriteP99Ms,
    /// Send→reply latency of queries.
    ReadP50Ms,
    /// The same, p99.
    ReadP99Ms,
    /// Reopen after shutdown.
    RecoverS,
    /// Wall time per counted formula.
    CountS,
    /// Peak resident memory of the timed phase, less [`Figure::HarnessRssMb`].
    PeakRssMb,
    /// Resident memory before the first set-up: the benchmark's own
    /// inputs, with nothing served or counted yet.
    HarnessRssMb,
    /// Steal-free windows the rates were taken over.
    WindowsKept,
}

impl Figure {
    /// Name and unit as printed.
    pub fn label(self) -> (&'static str, &'static str) {
        match self {
            Figure::SetupS => ("setup_s", "s"),
            Figure::SetupWallS => ("setup_wall_s", "s"),
            Figure::OpsPerS => ("ops_per_s", "1/s"),
            Figure::IngestItemsPerS => ("ingest_items_per_s", "1/s"),
            Figure::OpP50Ms => ("op_p50_ms", "ms"),
            Figure::CpuMsPerOp => ("cpu_ms_per_op", "ms"),
            Figure::WriteP50Ms => ("write_p50_ms", "ms"),
            Figure::WriteP99Ms => ("write_p99_ms", "ms"),
            Figure::ReadP50Ms => ("read_p50_ms", "ms"),
            Figure::ReadP99Ms => ("read_p99_ms", "ms"),
            Figure::RecoverS => ("recover_s", "s"),
            Figure::CountS => ("count_s", "s"),
            Figure::PeakRssMb => ("peak_rss_mb", "MB"),
            Figure::HarnessRssMb => ("harness_rss_mb", "MB"),
            Figure::WindowsKept => ("windows_kept", "count"),
        }
    }
}

/// The end-to-end metrics every run prints with `--trace 0`, in order: the
/// ones `BENCHMARK.json` bounds. Each applies to every workload. The loops
/// are closed, so a latency regression shows as lost throughput; latencies
/// themselves are in the report.
pub const END_TO_END: [Figure; 3] = [Figure::SetupS, Figure::OpsPerS, Figure::PeakRssMb];

/// The figures whose traced-minus-untraced difference is reported, as
/// `trace_overhead.<name>`.
pub const OVERHEAD_BASIS: [Figure; 9] = [
    Figure::SetupS,
    Figure::OpsPerS,
    Figure::OpP50Ms,
    Figure::CpuMsPerOp,
    Figure::PeakRssMb,
    Figure::WriteP50Ms,
    Figure::ReadP50Ms,
    Figure::RecoverS,
    Figure::CountS,
];

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind it (0 when not a sampled statistic).
    pub samples: usize,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            samples,
        }
    }
}

/// Linear-interpolated quantile of sorted values (0 for none).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.iter().copied()), 0.5)
}

fn ns_quantile_ms(ns: &[u64], q: f64) -> f64 {
    quantile(&sorted(ns.iter().map(|&x| x as f64 / 1e6)), q)
}

/// What one pass measured, client-side, with or without tracing.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Process CPU seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each set-up repetition.
    pub setup_wall_s: Vec<f64>,
    /// Send→reply of mutating requests, ns.
    pub write_ns: Vec<u64>,
    /// Send→reply of queries, ns.
    pub read_ns: Vec<u64>,
    /// Wall time of each counted formula, ns.
    pub count_ns: Vec<u64>,
    /// Operations completed in the timed phase.
    pub ops: u64,
    /// Items acknowledged in the timed phase.
    pub items: u64,
    /// Timed phase, seconds.
    pub elapsed_s: f64,
    /// Operations completed in each full window of the timed phase (server
    /// workloads).
    pub window_ops: Vec<u64>,
    /// Window length, seconds.
    pub window_s: f64,
    /// (windows kept, full windows) of the timed phase; see
    /// `wire::WINDOW_S`.
    pub windows: (usize, usize),
    /// Reopen-after-shutdown times, seconds.
    pub recover_s: Vec<f64>,
    /// Peak resident memory of the process over the timed phase, MB.
    pub peak_rss_mb: f64,
    /// Resident memory before the first set-up, MB.
    pub harness_rss_mb: f64,
    /// Process CPU seconds over the timed phase's full windows (server
    /// workloads) or the whole phase (`count_cnf`).
    pub cpu_s: f64,
    /// Operations completed over the same span.
    pub cpu_ops: u64,
}

impl Pass {
    fn op_ns(&self) -> Vec<u64> {
        let mut all = Vec::with_capacity(self.write_ns.len() + self.read_ns.len());
        all.extend_from_slice(&self.write_ns);
        all.extend_from_slice(&self.read_ns);
        all.extend_from_slice(&self.count_ns);
        all
    }

    /// One figure, with its sample count.
    pub fn metric(&self, figure: Figure) -> Metric {
        let (value, samples) = match figure {
            Figure::SetupS => (median(&self.setup_s), self.setup_s.len()),
            Figure::SetupWallS => (median(&self.setup_wall_s), self.setup_wall_s.len()),
            Figure::OpsPerS => {
                let rate = if self.window_ops.is_empty() {
                    self.ops as f64 / self.elapsed_s
                } else {
                    let per_window = sorted(self.window_ops.iter().map(|&n| n as f64));
                    quantile(&per_window, 0.5) / self.window_s
                };
                (rate, self.ops as usize)
            }
            Figure::IngestItemsPerS => {
                let span = if self.window_ops.is_empty() {
                    self.elapsed_s
                } else {
                    self.window_ops.len() as f64 * self.window_s
                };
                (self.items as f64 / span, self.items as usize)
            }
            Figure::OpP50Ms => {
                let all = self.op_ns();
                (ns_quantile_ms(&all, 0.5), all.len())
            }
            Figure::CpuMsPerOp => (
                self.cpu_s * 1e3 / self.cpu_ops as f64,
                self.cpu_ops as usize,
            ),
            Figure::WriteP50Ms => (ns_quantile_ms(&self.write_ns, 0.5), self.write_ns.len()),
            Figure::WriteP99Ms => (ns_quantile_ms(&self.write_ns, 0.99), self.write_ns.len()),
            Figure::ReadP50Ms => (ns_quantile_ms(&self.read_ns, 0.5), self.read_ns.len()),
            Figure::ReadP99Ms => (ns_quantile_ms(&self.read_ns, 0.99), self.read_ns.len()),
            Figure::RecoverS => (median(&self.recover_s), self.recover_s.len()),
            Figure::CountS => (
                self.count_ns.iter().sum::<u64>() as f64 / 1e9 / self.count_ns.len().max(1) as f64,
                self.count_ns.len(),
            ),
            Figure::PeakRssMb => (self.peak_rss_mb - self.harness_rss_mb, 1),
            Figure::HarnessRssMb => (self.harness_rss_mb, 1),
            Figure::WindowsKept => (self.windows.0 as f64, self.windows.1),
        };
        let (name, unit) = figure.label();
        Metric::new(name, unit, value, samples)
    }

    /// The gated end-to-end metrics ([`END_TO_END`]).
    pub fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END.iter().map(|&f| self.metric(f)).collect()
    }

    /// Every end-to-end figure the workload has, gated or not, for the
    /// human report: latencies split by writes and reads with their p99,
    /// recovery and per-formula count time.
    pub fn report(&self) -> Vec<Metric> {
        let mut figures = vec![Figure::SetupS, Figure::SetupWallS, Figure::OpsPerS];
        if self.items > 0 {
            figures.push(Figure::IngestItemsPerS);
        }
        figures.extend([Figure::OpP50Ms, Figure::CpuMsPerOp]);
        if !self.write_ns.is_empty() {
            figures.extend([Figure::WriteP50Ms, Figure::WriteP99Ms]);
        }
        if !self.read_ns.is_empty() {
            figures.extend([Figure::ReadP50Ms, Figure::ReadP99Ms]);
        }
        if !self.recover_s.is_empty() {
            figures.push(Figure::RecoverS);
        }
        if !self.count_ns.is_empty() {
            figures.push(Figure::CountS);
        }
        figures.extend([Figure::PeakRssMb, Figure::HarnessRssMb]);
        if self.windows.1 > 0 {
            figures.push(Figure::WindowsKept);
        }
        figures.into_iter().map(|f| self.metric(f)).collect()
    }

    /// Records the [`OVERHEAD_BASIS`] figures as trace counters named
    /// `<prefix>.<figure>`, for [`per_layer`] to difference.
    pub fn record_overhead_basis(&self, tracer: &crate::trace::Tracer, prefix: &str) {
        for f in OVERHEAD_BASIS {
            tracer.counter(&format!("{prefix}.{}", f.label().0), self.metric(f).value);
        }
    }
}

fn us_quantiles(ns: &[u64]) -> (f64, f64) {
    let v = sorted(ns.iter().map(|&x| x as f64 / 1e3));
    (quantile(&v, 0.5), quantile(&v, 0.99))
}

/// Derives every per-layer metric from a trace (spans plus the counters
/// the run recorded), in the order `BENCHMARK.json` declares them. Works
/// the same on a parsed dump. A layer the workload does not exercise
/// reads 0.
pub fn per_layer(trace: &Trace) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name: &str, unit: &'static str, v: f64| out.push(Metric::new(name, unit, v, 0));
    let phase = trace.named(Name::Phase).next().copied();
    let in_phase = |s: &Span| phase.is_some_and(|p| s.start >= p.start && s.start <= p.end);
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in &trace.spans {
        children.entry(s.parent).or_default().push(s);
    }
    let kids = |s: &Span| children.get(&s.id).map_or(&[][..], Vec::as_slice);

    // net: request spans against the apply spans they caused.
    let requests: HashMap<u64, &Span> = trace
        .spans
        .iter()
        .filter(|s| matches!(s.name, Name::RequestWrite | Name::RequestRead))
        .map(|s| (s.id, s))
        .collect();
    let applies: Vec<&Span> = trace
        .spans
        .iter()
        .filter(|s| matches!(s.name, Name::ApplyWrite | Name::ApplyRead) && in_phase(s))
        .collect();
    let (mut wire_in, mut wire_out) = (Vec::new(), Vec::new());
    for a in &applies {
        if let Some(r) = requests.get(&a.parent) {
            wire_in.push(a.start.saturating_sub(r.start));
            wire_out.push(r.end.saturating_sub(a.end));
        }
    }
    let (p50, p99) = us_quantiles(&wire_in);
    put("net.wire_in_us_p50", "us", p50);
    put("net.wire_in_us_p99", "us", p99);
    let (p50, p99) = us_quantiles(&wire_out);
    put("net.wire_out_us_p50", "us", p50);
    put("net.wire_out_us_p99", "us", p99);
    let per = |name: Name, scale: f64| {
        trace
            .named(name)
            .next()
            .map_or(0.0, |s| s.dur() as f64 / s.n.max(1) as f64 / scale)
    };
    put("net.decode_ns_per_req", "ns", per(Name::ProbeDecode, 1.0));
    put("net.encode_ns_per_reply", "ns", per(Name::ProbeEncode, 1.0));
    put("net.admit_ns_per_req", "ns", per(Name::ProbeAdmit, 1.0));

    // service: apply under the core lock, and the in-process probes.
    let busy: u64 = applies.iter().map(|a| a.dur()).sum();
    put(
        "service.core_busy_frac",
        "frac",
        phase.map_or(0.0, |p| busy as f64 / p.dur().max(1) as f64),
    );
    let durs = |name: Name| -> Vec<u64> {
        applies
            .iter()
            .filter(|a| a.name == name)
            .map(|a| a.dur())
            .collect()
    };
    let writes = durs(Name::ApplyWrite);
    let (p50, p99) = us_quantiles(&writes);
    put("service.apply_write_us_p50", "us", p50);
    put("service.apply_write_us_p99", "us", p99);
    let (p50, p99) = us_quantiles(&durs(Name::ApplyRead));
    put("service.apply_read_us_p50", "us", p50);
    put("service.apply_read_us_p99", "us", p99);
    put(
        "service.ingest_us_per_req",
        "us",
        per(Name::ProbeServiceIngest, 1e3),
    );
    let fold_us = per(Name::ProbeSketchFold, 1e3);
    let read_us = per(Name::ProbeServiceRead, 1e3);
    put(
        "service.read_extract_us",
        "us",
        if read_us > 0.0 {
            read_us - fold_us
        } else {
            0.0
        },
    );

    // sketch.
    put(
        "sketch.ingest_ns_per_item",
        "ns",
        per(Name::ProbeSketchIngest, 1.0),
    );
    put("sketch.fold_us", "us", fold_us);

    // durable: storage calls nested in the timed applies, and the reopens.
    // Per-command figures divide by the mutating applies, each of which
    // the store logs once; appends that compaction adds are charged to
    // the commands that caused them.
    let storage = |name: Name| -> Vec<&Span> {
        trace
            .named(name)
            .filter(|s| in_phase(s) && s.parent != 0)
            .collect()
    };
    let appends = storage(Name::DurableAppend);
    let fsyncs = storage(Name::DurableFsync);
    let (p50, p99) = us_quantiles(&appends.iter().map(|s| s.dur()).collect::<Vec<_>>());
    put("durable.append_us_p50", "us", p50);
    put("durable.append_us_p99", "us", p99);
    let (p50, p99) = us_quantiles(&fsyncs.iter().map(|s| s.dur()).collect::<Vec<_>>());
    put("durable.fsync_us_p50", "us", p50);
    put("durable.fsync_us_p99", "us", p99);
    put("durable.fsyncs", "count", fsyncs.len() as f64);
    let logged = writes.len() as f64;
    put(
        "durable.wal_bytes_per_cmd",
        "bytes",
        if appends.is_empty() {
            0.0
        } else {
            appends.iter().map(|s| s.n).sum::<u64>() as f64 / logged
        },
    );
    put(
        "durable.cmds_per_fsync",
        "ratio",
        if fsyncs.is_empty() {
            0.0
        } else {
            logged / fsyncs.len() as f64
        },
    );
    put(
        "durable.storage_errors",
        "count",
        trace.named(Name::DurableError).count() as f64,
    );
    let (mut reads, mut replays) = (Vec::new(), Vec::new());
    for open in trace.named(Name::DurableOpen) {
        let read: u64 = kids(open)
            .iter()
            .filter(|c| c.name == Name::DurableRead)
            .map(|c| c.dur())
            .sum();
        reads.push(read as f64 / 1e9);
        replays.push(open.dur().saturating_sub(read) as f64 / 1e9);
    }
    put("durable.recover_read_s", "s", median(&reads));
    put("durable.replay_s", "s", median(&replays));

    // sat / hashing / counting, per counted formula.
    let counts: Vec<&Span> = trace.named(Name::Count).collect();
    let formulas = counts.len().max(1) as f64;
    let oracle: Vec<&Span> = trace.named(Name::Oracle).collect();
    put(
        "sat.oracle_calls",
        "count",
        oracle.iter().map(|s| s.n).sum::<u64>() as f64 / formulas,
    );
    put(
        "sat.oracle_s",
        "s",
        oracle.iter().map(|s| s.dur()).sum::<u64>() as f64 / 1e9 / formulas,
    );
    put(
        "sat.conflicts",
        "count",
        trace.counter("sat.conflicts").unwrap_or(0.0) / formulas,
    );
    put(
        "sat.propagations",
        "count",
        trace.counter("sat.propagations").unwrap_or(0.0) / formulas,
    );
    let draws: Vec<&Span> = trace.named(Name::Draw).collect();
    put(
        "hashing.draw_us",
        "us",
        draws.iter().map(|s| s.dur()).sum::<u64>() as f64 / 1e3 / draws.len().max(1) as f64,
    );
    put(
        "counting.self_s",
        "s",
        counts
            .iter()
            .map(|c| Trace::self_time(c, kids(c)))
            .sum::<u64>() as f64
            / 1e9
            / formulas,
    );

    // Tracing overhead.
    for f in OVERHEAD_BASIS {
        let (name, unit) = f.label();
        let traced = trace.counter(&format!("traced.{name}")).unwrap_or(0.0);
        let untraced = trace.counter(&format!("untraced.{name}")).unwrap_or(0.0);
        put(&format!("trace_overhead.{name}"), unit, traced - untraced);
    }
    out
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// This process's peak resident memory (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// This process's resident memory now (VmRSS), MB.
pub fn rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmRSS:").unwrap_or(0.0) / 1024.0
}

/// Resets the peak-RSS mark to the current resident set, so a later
/// [`peak_rss_mb`] reads the peak since now (best effort:
/// `/proc/self/clear_refs` value 5).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Clock ticks per second of `/proc` CPU counters (USER_HZ on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Host steal time so far, `/proc/stat` ticks summed over CPUs.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| t.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Steal allowed in a calm half second, in ticks summed over CPUs (5% of
/// two CPUs).
const CALM_TICKS_MAX: u64 = 5;
/// Longest wait for a calm host before a pass.
const CALM_WAIT_MAX: std::time::Duration = std::time::Duration::from_secs(12);

/// Waits, up to [`CALM_WAIT_MAX`], until the host steals at most
/// [`CALM_TICKS_MAX`] ticks in half a second, and returns the seconds
/// waited. Host steal comes in bursts of tens of seconds on a shared VM;
/// a pass started inside one measures the neighbours, not the program.
pub fn wait_for_calm() -> f64 {
    let start = std::time::Instant::now();
    loop {
        let before = steal_ticks();
        std::thread::sleep(std::time::Duration::from_millis(500));
        if steal_ticks().saturating_sub(before) <= CALM_TICKS_MAX
            || start.elapsed() >= CALM_WAIT_MAX
        {
            return start.elapsed().as_secs_f64() - 0.5;
        }
    }
}

/// Host steal time so far, seconds.
pub fn steal_s() -> f64 {
    steal_ticks() as f64 / TICKS_PER_S
}

/// This process's CPU time so far (user + system), seconds.
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = t.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of every thread of this process so far, exited ones included,
/// at nanosecond resolution. On a paravirtualised guest with steal-time
/// accounting this excludes the time the host ran other guests.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel accepts.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 / 1e9
}
