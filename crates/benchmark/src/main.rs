//! `vf2-benchmark`: one harness, four workloads, five end-to-end metrics,
//! every layer timed from outside. See `README.md` in this crate.
//!
//! ```text
//! vf2-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! vf2-benchmark all [--seed <n>] [--smoke] [--out <file>]
//! vf2-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is the driver's: it measures one workload for about
//! `--seconds` seconds and prints one JSON object as its last line, with
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). `all` runs every workload, prints every metric by name
//! and writes a results file; `compare` applies the bounds to two such
//! files. (`sample` is the child process the harness starts per sample.)

mod compare;
mod harness;
mod layers;
mod metrics;
mod provenance;
mod report;
mod sample;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{default_out_dir, sample_for, spawn, Child, Context, WorkloadResult};
use workloads::{find, workloads, Preset};

/// Renders a number for JSON with every digit it was measured with
/// (`null` for NaN and infinities, which JSON cannot carry).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Whether `name` is a legal workload or metric name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Command-line arguments after the subcommand: `--key value` pairs,
/// bare `--flags`, and positionals.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

const FLAGS: [&str; 2] = ["--smoke", "--traced"];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args { pairs: Vec::new(), flags: Vec::new(), positional: Vec::new() };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if FLAGS.contains(&a.as_str()) {
                args.flags.push(a.clone());
            } else if a.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.pairs.push((a.clone(), value.clone()));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match (self.value(key), default) {
            (Some(v), _) => v.parse().map_err(|_| format!("{key}: cannot read {v:?}")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("{key} is required")),
        }
    }

    fn preset(&self) -> Preset {
        if self.flags.iter().any(|f| f == "--smoke") {
            Preset::Smoke
        } else {
            Preset::Full
        }
    }

    fn context(&self, seed: u64) -> Context {
        let out_dir = self.value("--out-dir").map_or_else(default_out_dir, PathBuf::from);
        Context { preset: self.preset(), seed, out_dir }
    }
}

/// The fewest untraced samples behind the medians of a `--trace 0` run,
/// however short `--seconds` is.
const DRIVER_SAMPLES: usize = 3;

/// The driver's form: one workload, about `--seconds` of measuring, one
/// JSON line. With `--trace 1` half the time goes to untraced samples (the
/// `train.*` numbers and the base of the tracing overhead) and the traced
/// process follows.
fn run_driver(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let seed: u64 = args.number("--seed", None)?;
    let seconds: f64 = args.number("--seconds", None)?;
    let trace: u8 = args.number("--trace", None)?;
    let ctx = args.context(seed);
    let w = find(ctx.preset, name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut result = WorkloadResult::new(w);
    let traced = trace != 0;
    if traced {
        sample_for(&ctx, seconds / 2.0, 1, &mut result);
        result.traced = Some(spawn(&ctx, &w, Child::Traced));
    } else {
        sample_for(&ctx, seconds, DRIVER_SAMPLES, &mut result);
    }
    result.verify();
    for f in &result.failures() {
        eprintln!("FAILED {f}");
    }
    // A printed result carries its own verdict (`correct`, `failed`), so
    // the exit code only says that there is a result.
    println!("{}", report::driver_line(&result, traced));
    Ok(ExitCode::SUCCESS)
}

/// `all`: every workload, samples interleaved round-robin so that a burst
/// of noise on a shared box cannot land on one workload only; then one
/// traced process per workload; then every metric by name and the results
/// file. Exits non-zero if any sample failed, after writing the results.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let started = Instant::now();
    let seed: u64 = args.number("--seed", Some(7))?;
    let ctx = args.context(seed);
    let mut results: Vec<WorkloadResult> =
        workloads(ctx.preset).into_iter().map(WorkloadResult::new).collect();
    let rounds = results.iter().map(|r| r.workload.samples).max().unwrap_or(0);
    for round in 0..rounds {
        for r in results.iter_mut().filter(|r| round < r.workload.samples) {
            eprintln!("sample {} of {} ...", round + 1, r.workload.name);
            r.samples.push(spawn(&ctx, &r.workload, Child::Sample));
        }
    }
    for r in &mut results {
        eprintln!("traced run of {} ...", r.workload.name);
        r.traced = Some(spawn(&ctx, &r.workload, Child::Traced));
        r.verify();
    }
    let provenance = provenance::Provenance::collect();
    println!(
        "vf2-benchmark  seed {seed}  preset {}  commit {}  {} x {}  {}",
        ctx.preset.name(),
        provenance.git_sha,
        provenance.nproc,
        provenance.cpu_model,
        provenance.rustc
    );
    results.iter().for_each(report::print_workload);
    let wall_s = started.elapsed().as_secs_f64();
    let default_name = format!("results-seed{seed}-{}.json", ctx.preset.name());
    let path = args.value("--out").map_or_else(|| ctx.out_dir.join(default_name), PathBuf::from);
    let doc = report::results_json(&provenance, seed, ctx.preset.name(), wall_s, &results);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    let failed: usize = results.iter().map(WorkloadResult::failed).sum();
    println!(
        "\nwhole benchmark: {wall_s:.1} s, {failed} failed samples; results in {}; spans in {}",
        path.display(),
        ctx.out_dir.display()
    );
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `compare a b`: exit code 1 if any row is `worse`.
fn run_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes exactly two results files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let rows = compare::compare(&read(a)?, &read(b)?)?;
    Ok(if compare::print(&rows) == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `sample`: the child process. Prints its record as the last line.
fn run_sample(args: &Args, entered: Instant) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let seed: u64 = args.number("--seed", None)?;
    let ctx = args.context(seed);
    let w = find(ctx.preset, name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let rec = if args.flags.iter().any(|f| f == "--traced") {
        sample::run_traced(&w, seed, &ctx.out_dir.join(format!("trace-{}.json", w.name)))
    } else {
        sample::run_sample(&w, seed, entered)
    };
    println!("{}", rec.to_json_line());
    Ok(if rec.error.is_none() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let entered = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c @ ("all" | "compare" | "sample")) => (c, &raw[1..]),
        _ => ("driver", &raw[..]),
    };
    let outcome = Args::parse(rest).and_then(|args| match command {
        "all" => run_all(&args),
        "compare" => run_compare(&args),
        "sample" => run_sample(&args, entered),
        _ => run_driver(&args),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("vf2-benchmark: {e}");
        eprintln!(
            "usage: vf2-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
             vf2-benchmark all [--seed <n>] [--smoke] [--out <file>]\n       \
             vf2-benchmark compare <a.json> <b.json>"
        );
        ExitCode::from(2)
    })
}
