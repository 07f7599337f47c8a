//! The repository benchmark: four seeded workloads run against the public
//! API, every output checked, end-to-end metrics from untraced runs and a
//! per-layer breakdown from a separate traced run. See `README.md` beside
//! this crate for the workloads, the metrics and how to compare runs.

pub mod count;
pub mod layers;
pub mod metrics;
pub mod trace;
pub mod wire;

use metrics::{cpu_s, per_layer, rss_mb, steal_s, wait_for_calm, Metric, Pass};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 61;
/// Pause between set-up repetitions, so the previous repetition's
/// shutdown has settled.
pub const SETUP_GAP: Duration = Duration::from_millis(10);

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 1000-item `Ingest` batches, 4 in flight per connection.
    IngestBulk,
    /// 8-item `Ingest` batches, 16 in flight per connection.
    IngestSmall,
    /// Durable store, ~9 writes to 1 read, strict request/response.
    QueryMix,
    /// ApproxMC over seeded random 3-CNFs.
    CountCnf,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::IngestBulk,
        Workload::IngestSmall,
        Workload::QueryMix,
        Workload::CountCnf,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestBulk => "ingest_bulk",
            Workload::IngestSmall => "ingest_small",
            Workload::QueryMix => "query_mix",
            Workload::CountCnf => "count_cnf",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: full for measurement, tiny for the self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small inputs that finish in about a second.
    Tiny,
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Also make the traced run and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where the span dump, the run log and scratch stores go.
    pub out_dir: PathBuf,
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Every reply and count passed the gate.
    pub correct: bool,
    /// The first gate failure, if any.
    pub mismatch: Option<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or out of bound.
    pub failed: u64,
    /// The metrics of the last line: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// The untraced run's full end-to-end report.
    pub report: Vec<Metric>,
    /// Host steal seconds during the run (diagnostic, never compared).
    pub steal_s: f64,
    /// Process CPU seconds during the run (diagnostic, never compared).
    pub cpu_s: f64,
    /// Seconds spent waiting for a calm host before the passes.
    pub calm_wait_s: f64,
    /// Where the traced run's span dump was written.
    pub spans: Option<PathBuf>,
}

/// One pass of any workload: its client-side figures and its gate result.
struct Checked {
    pass: Pass,
    attempted: u64,
    failed: u64,
    mismatch: Option<String>,
}

enum Inputs {
    Wire(wire::WireSpec),
    Count(count::CountSpec),
}

fn run_checked(
    inputs: &Inputs,
    opts: &Options,
    harness_rss_mb: f64,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Checked, String> {
    let (mut pass, gate) = match inputs {
        Inputs::Wire(spec) => {
            let data = opts.out_dir.join(format!("data-{}", std::process::id()));
            let (pass, run) = wire::run_pass(spec, opts.seconds, &data, tracer)?;
            let _ = std::fs::remove_dir_all(&data);
            if let Some(t) = tracer {
                wire::probes(spec, &run, t)?;
            }
            (
                pass,
                wire::check(spec, &run).map(|g| (g.attempted, g.failed)),
            )
        }
        Inputs::Count(spec) => {
            let (pass, run) = count::run_pass(spec, opts.seconds, tracer.map(|t| &**t))?;
            (pass, count::check(spec, &run))
        }
    };
    pass.harness_rss_mb = harness_rss_mb;
    Ok(match gate {
        Ok((attempted, failed)) => Checked {
            attempted,
            failed,
            mismatch: None,
            pass,
        },
        Err(m) => Checked {
            attempted: pass.ops.max(1),
            failed: pass.ops.max(1),
            mismatch: Some(m),
            pass,
        },
    })
}

/// Generates the inputs, runs the workload untraced (and, with `trace`,
/// again traced), checks every output, and derives the metrics.
pub fn run(opts: &Options) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let inputs = match opts.workload {
        Workload::CountCnf => Inputs::Count(count::count_spec(opts.seed, opts.scale, opts.seconds)),
        w => Inputs::Wire(wire::spec_for(w, opts.seed, opts.scale)),
    };
    // Measured once, so both passes net out the same inputs and the traced
    // pass's figure also carries what the untraced pass left allocated.
    let harness_rss_mb = rss_mb();
    let (steal0, cpu0) = (steal_s(), cpu_s());
    let mut calm_wait_s = wait_for_calm();
    let untraced = run_checked(&inputs, opts, harness_rss_mb, None)?;
    let mut out = RunOutput {
        correct: untraced.mismatch.is_none(),
        mismatch: untraced.mismatch.clone(),
        attempted: untraced.attempted,
        failed: untraced.failed,
        metrics: untraced.pass.end_to_end(),
        report: untraced.pass.report(),
        steal_s: 0.0,
        cpu_s: 0.0,
        calm_wait_s: 0.0,
        spans: None,
    };
    if opts.trace {
        calm_wait_s += wait_for_calm();
        let tracer = Arc::new(Tracer::new());
        let traced = run_checked(&inputs, opts, harness_rss_mb, Some(&tracer))?;
        out.correct &= traced.mismatch.is_none();
        out.mismatch = out.mismatch.or(traced.mismatch);
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        untraced.pass.record_overhead_basis(&tracer, "untraced");
        traced.pass.record_overhead_basis(&tracer, "traced");
        let recorded = tracer.take();
        let path = opts
            .out_dir
            .join(format!("spans-{}.txt", opts.workload.name()));
        std::fs::write(&path, recorded.dump()).map_err(|e| e.to_string())?;
        out.metrics = per_layer(&recorded);
        out.spans = Some(path);
    }
    out.steal_s = steal_s() - steal0;
    out.cpu_s = cpu_s() - cpu0;
    out.calm_wait_s = calm_wait_s;
    Ok(out)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl RunOutput {
    /// The last line of standard output.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// The run-log record: the last line's content plus the full report
    /// and the disturbance diagnostics.
    pub fn record(&self, opts: &Options) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
             \"report\": {}, \"diag\": {{\"steal_s\": {}, \"cpu_s\": {}, \"calm_wait_s\": {}}}}}",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics),
            metrics_json(&self.report),
            self.steal_s,
            self.cpu_s,
            self.calm_wait_s
        )
    }

    /// The human-readable report printed before the last line.
    pub fn text(&self, opts: &Options) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "perfbench {} seed={} seconds={} trace={}",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        );
        let _ = writeln!(s, "end to end (untraced):");
        for m in &self.report {
            let _ = writeln!(
                s,
                "  {:<22} {:>14.6} {:<5} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "  {:<22} {:>14.6} {:<5} ({} of {} operations)",
            "failed_frac", failed_frac, "frac", self.failed, self.attempted
        );
        if opts.trace {
            let _ = writeln!(s, "per layer (traced):");
            for m in &self.metrics {
                let _ = writeln!(s, "  {:<30} {:>14.6} {}", m.name, m.value, m.unit);
            }
        }
        let _ = writeln!(
            s,
            "diagnostics: steal_s={:.3} cpu_s={:.3} calm_wait_s={:.1}",
            self.steal_s, self.cpu_s, self.calm_wait_s
        );
        if let Some(p) = &self.spans {
            let _ = writeln!(s, "span dump: {}", p.display());
        }
        if let Some(m) = &self.mismatch {
            let _ = writeln!(s, "CORRECTNESS GATE FAILED: {m}");
        }
        s
    }
}
