//! Self-tests at tiny sizes: every workload finishes and prints every
//! declared metric with its unit, a corrupted reply or count trips the gate,
//! and the per-layer metrics parse back from the span dump.

use perfbench::metrics::per_layer;
use perfbench::trace::Trace;
use perfbench::{count, run, wire, Options, Scale, Workload};
use serde_json::Value;
use std::path::PathBuf;

fn declared(kind: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let spec = serde_json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(kind)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn opts(workload: Workload, trace: bool, tag: &str) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}")),
    }
}

/// The metrics of the last output line, as (name, unit), after checking the
/// line's shape.
fn last_line_metrics(line: &str) -> Vec<(String, String)> {
    let v = serde_json::parse(line).expect("last line is JSON");
    assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
    assert!(
        v.get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        panic!("metrics object in `{line}`");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has a value"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    for w in Workload::ALL {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let o = opts(w, trace, &format!("metrics-{}-{trace}", w.name()));
            let out = run(&o).expect("run completes");
            assert!(out.correct, "{}: {:?}", w.name(), out.mismatch);
            assert_eq!(&last_line_metrics(&out.json_line()), want, "{}", w.name());
            let text = out.text(&o);
            for m in &out.report {
                assert!(
                    text.contains(&m.name),
                    "{} report names {}",
                    w.name(),
                    m.name
                );
            }
        }
    }
}

#[test]
fn a_corrupted_reply_trips_the_gate() {
    let dir = opts(Workload::QueryMix, false, "gate-wire").out_dir;
    let spec = wire::spec_for(Workload::QueryMix, 3, Scale::Tiny);
    let (_, mut run) = wire::run_pass(&spec, 0.3, &dir, None).expect("pass");
    assert!(wire::check(&spec, &run).is_ok());
    run.corrupt_reply();
    let err = wire::check(&spec, &run).expect_err("corrupted reply must fail the gate");
    assert!(err.contains("differs from the reference"), "{err}");
}

#[test]
fn a_corrupted_count_trips_the_gate() {
    let spec = count::count_spec(3, Scale::Tiny, 0.1);
    let (_, mut run) = count::run_pass(&spec, 0.1, None).expect("pass");
    assert!(count::check(&spec, &run).is_ok());
    run.corrupt_first();
    assert!(count::check(&spec, &run).is_err());
}

#[test]
fn per_layer_metrics_parse_back_from_the_span_dump() {
    for w in [Workload::QueryMix, Workload::CountCnf] {
        let out = run(&opts(w, true, &format!("dump-{}", w.name()))).expect("run completes");
        let dump = std::fs::read_to_string(out.spans.as_ref().expect("a span dump")).expect("dump");
        let parsed = Trace::parse(&dump).expect("dump parses");
        assert!(!parsed.spans.is_empty());
        assert_eq!(per_layer(&parsed), out.metrics, "{}", w.name());
        assert_eq!(Trace::parse(&parsed.dump()), Ok(parsed));
    }
}
