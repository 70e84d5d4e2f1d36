//! Drives the built binary end to end at the `--smoke` preset: all four
//! workloads, the traced replay, the driver form in both trace modes, and
//! `compare`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use vf2boost_core::json::{parse, Json};

const BIN: &str = env!("CARGO_BIN_EXE_vf2-benchmark");
const WORKLOADS: [&str; 4] = ["p2048-2party", "wide-host-512", "wan-4host-512", "mock-400k"];

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().unwrap()
}

fn last_line_json(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse(stdout.lines().last().expect("the command printed nothing")).unwrap()
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|j| j.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// `all --smoke` verifies every sample, prints every metric, writes a
/// results file and a span file per workload; `compare` then finds the
/// file no worse than itself, and a doctored copy worse.
#[test]
fn all_then_compare() {
    let dir = scratch("all");
    let dir_s = dir.to_str().unwrap();
    let a = dir.join("a.json");
    let out =
        run(&["all", "--smoke", "--seed", "7", "--out-dir", dir_s, "--out", a.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("train.explained_encrypt") && stdout.contains("unexplained s"));
    assert!(stdout.contains("crypto.* and train.explained_* are skipped"));

    let doc = parse(&std::fs::read_to_string(&a).unwrap()).unwrap();
    assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(7.0));
    let provenance = doc.get("provenance").unwrap();
    for key in ["git_sha", "cpu_model", "rustc"] {
        assert!(provenance.get(key).and_then(Json::as_str).is_some(), "{key}");
    }
    assert!(provenance.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(names(doc.get("workloads").unwrap()), WORKLOADS);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(w.get("samples_attempted").and_then(Json::as_f64), Some(4.0), "{name}");
        assert_eq!(w.get("samples_failed").and_then(Json::as_f64), Some(0.0), "{name}");
        assert!(w.get("sizes").and_then(|s| s.get("rows")).is_some());
        let end_to_end = w.get("end_to_end").unwrap();
        assert_eq!(
            names(end_to_end),
            ["setup_s", "train_wall_s", "tree_s", "wan_bytes", "peak_rss_mb"]
        );
        for m in end_to_end.as_arr().unwrap() {
            assert!(m.get("median").and_then(Json::as_f64).unwrap() > 0.0, "{name}");
            assert_eq!(m.get("samples").and_then(Json::as_arr).unwrap().len(), 3, "{name}");
        }
        // Without keys there is no `crypto.*` and nothing to explain.
        let keyless = name == "mock-400k";
        let per_layer = w.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(per_layer.len(), if keyless { 53 - 14 } else { 53 }, "{name}");
        for m in per_layer {
            let metric = m.get("name").and_then(Json::as_str).unwrap();
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}: {metric} is missing");
            let skipped = metric.starts_with("crypto.") || metric.starts_with("train.explained_");
            assert!(!(keyless && skipped), "{name} reports {metric}");
        }
        let explained = w.get("explained").and_then(Json::as_arr).unwrap().len();
        assert_eq!(explained, if keyless { 0 } else { 4 }, "{name}");

        // The span file: every span closed, rounds share an id, and the
        // replay's layer self times add up to its root span.
        let trace = std::fs::read_to_string(dir.join(format!("trace-{name}.json"))).unwrap();
        let trace = parse(&trace).unwrap();
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).unwrap();
        let root = spans.iter().find(|s| s.get("name").and_then(Json::as_str) == Some("round"));
        let root = root.expect("no replay root span");
        let children: Vec<&Json> = spans
            .iter()
            .filter(|s| s.get("parent").and_then(Json::as_f64) == Some(field(root, "id")))
            .collect();
        assert!(children.len() >= 12, "{name}: the replay recorded {} spans", children.len());
        assert!(children.iter().all(|s| field(s, "round") == field(root, "round")));
        assert!(spans.iter().all(|s| field(s, "end_ns") >= field(s, "start_ns")));
        let covered: f64 = children.iter().map(|s| field(s, "end_ns") - field(s, "start_ns")).sum();
        let whole = field(root, "end_ns") - field(root, "start_ns");
        assert!(covered <= whole && covered > 0.5 * whole, "{name}: {covered} of {whole} ns");
    }

    // A result set against itself: nothing may be `worse`. (At smoke sizes
    // a sample lasts milliseconds, so time rows may well be `unresolved`.)
    let out = run(&["compare", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(out.status.success());
    let table = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(table.lines().filter(|l| l.starts_with("p2048-2party")).count(), 5, "{table}");
    assert!(table.lines().any(|l| l.contains("wan_bytes") && l.ends_with("ok")), "{table}");

    // A candidate that ships a tenth more bytes is worse, and says so.
    let mut text = std::fs::read_to_string(&a).unwrap();
    let bytes = &workloads[0].get("end_to_end").and_then(Json::as_arr).unwrap()[3];
    for key in ["median", "q1", "q3"] {
        let value = bytes.get(key).and_then(Json::as_f64).unwrap();
        let field = format!("\"{key}\": {value},");
        assert!(text.contains(&field), "the results file changed shape");
        text = text.replace(&field, &format!("\"{key}\": {},", value * 1.1));
    }
    let worse = dir.join("worse.json");
    std::fs::write(&worse, text).unwrap();
    let out = run(&["compare", a.to_str().unwrap(), worse.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("worse"));
}

/// The driver's form: one JSON object last, with exactly the contract's
/// keys and every metric of the requested kind — as a number even where
/// the workload skips the metric.
#[test]
fn driver_form_prints_the_contract() {
    let dir = scratch("driver");
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let manifest = parse(&std::fs::read_to_string(manifest).unwrap()).unwrap();
    for (workload, trace, list) in [
        ("wan-4host-512", "0", "end_to_end"),
        ("wan-4host-512", "1", "per_layer"),
        ("mock-400k", "1", "per_layer"),
    ] {
        let out = run(&[
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
            "--out-dir",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let line = last_line_json(&out);
        let Json::Obj(fields) = &line else { panic!("not an object") };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("no metrics") };
        let mut expected = names(manifest.get(list).unwrap());
        expected.sort();
        assert_eq!(metrics.keys().cloned().collect::<Vec<_>>(), expected);
        for (name, m) in metrics {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has no value");
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name} has no unit");
        }
    }
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..], &[]]
    {
        let out = run(args);
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
