//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out <dir>]`
//!
//! Prints a human-readable report, then one JSON line with `correct`,
//! `attempted`, `failed` and the metrics. Exits 1 when a reply or a count
//! fails the correctness gate, 2 on bad arguments or a run that could not
//! complete.

use perfbench::{run, Options, Scale, Workload};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out_dir = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let out_dir = match out_dir {
        Some(d) => d,
        // Beside the build: `<target>/release/perfbench` → `<target>/perfbench-out`.
        None => std::env::current_exe()
            .ok()
            .and_then(|exe| Some(exe.parent()?.parent()?.join("perfbench-out")))
            .ok_or("cannot locate the build directory; pass --out")?,
    };
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        out_dir,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} did not complete: {e}", opts.workload.name());
            return ExitCode::from(2);
        }
    };
    let log = opts.out_dir.join("runs.jsonl");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
    {
        let _ = writeln!(f, "{}", out.record(&opts));
    }
    print!("{}", out.text(&opts));
    println!("{}", out.json_line());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
