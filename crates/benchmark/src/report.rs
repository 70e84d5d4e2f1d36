//! Rendering results: the driver's one-line answer, the results file, and
//! the tables a person reads.

use vf2boost_core::json::{escape, render_array, JsonObj};

use crate::harness::WorkloadResult;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::num;
use crate::provenance::Provenance;
use crate::workloads::DATA_SEED;

/// Schema tag of the results file.
pub const RESULTS_SCHEMA: &str = "vf2-benchmark-results/v1";

/// The last line the driver reads: `correct`, `attempted`, `failed`, and
/// either every end-to-end metric (`per_layer == false`), as the median
/// over the samples that passed, or every per-layer metric.
///
/// The driver wants a number for every listed metric on every workload, so
/// a per-layer metric the workload skips (null in the results file) reads
/// 0 on this line.
pub fn driver_line(result: &WorkloadResult, per_layer: bool) -> String {
    let metrics: Vec<String> = if per_layer {
        result
            .per_layer()
            .into_iter()
            .zip(&PER_LAYER)
            .map(|((name, value), m)| {
                metric_json(name, value.filter(|v| v.is_finite()).unwrap_or(0.0), m.unit)
            })
            .collect()
    } else {
        END_TO_END.iter().map(|m| metric_json(m.name, result.median_of(m.name), m.unit)).collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed() == 0,
        result.attempted().max(1),
        result.failed(),
        metrics.join(", ")
    )
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", escape(name), num(value), escape(unit))
}

/// One workload's section of the results file.
fn workload_json(result: &WorkloadResult) -> String {
    let w = &result.workload;
    let mut o = JsonObj::new();
    o.str("name", w.name)
        .str("why", w.why)
        .raw("sizes", w.sizes_json())
        .raw("correct", (result.failed() == 0).to_string())
        .u64("samples_attempted", result.attempted() as u64)
        .u64("samples_failed", result.failed() as u64)
        .raw("oracle_loss", num(result.oracle_loss))
        .raw("federated_loss", num(result.median_of("final_loss")));
    let failures: Vec<String> =
        result.failures().iter().map(|f| format!("\"{}\"", escape(f))).collect();
    o.raw("failures", render_array(&failures, 6));

    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let s = result.summary(m.name);
            let mut e = JsonObj::new();
            e.str("name", m.name)
                .str("unit", m.unit)
                .str("better", "lower")
                .raw("bound", num(m.bound))
                .raw("spread", num(s.spread()))
                .str("status", if s.spread() > m.bound { "unresolved" } else { "resolved" });
            s.write(&mut e);
            e.render(8)
        })
        .collect();
    o.raw("end_to_end", render_array(&end_to_end, 6));

    let per_layer: Vec<String> = result
        .per_layer()
        .into_iter()
        .zip(&PER_LAYER)
        .filter_map(|((name, value), m)| {
            let mut e = JsonObj::new();
            e.str("name", name).str("unit", m.unit).str("better", m.better.word());
            e.raw("value", num(value?));
            Some(e.render(8))
        })
        .collect();
    o.raw("per_layer", render_array(&per_layer, 6));

    let explained: Vec<String> = result
        .explained()
        .iter()
        .map(|x| {
            let mut e = JsonObj::new();
            e.str("phase", x.phase)
                .raw("phase_s", num(x.phase_s))
                .raw("model_s", num(x.model_s))
                .raw("unexplained_s", num(x.unexplained_s()))
                .raw("fraction", num(x.fraction()));
            e.render(8)
        })
        .collect();
    o.raw("explained", render_array(&explained, 6));

    let samples: Vec<String> = result.samples.iter().map(|s| s.to_json_line()).collect();
    o.raw("samples", render_array(&samples, 6));
    if let Some(t) = &result.traced {
        o.raw("traced", t.to_json_line());
    }
    o.render(4)
}

/// The whole results file.
pub fn results_json(
    provenance: &Provenance,
    seed: u64,
    preset: &str,
    wall_s: f64,
    results: &[WorkloadResult],
) -> String {
    let mut o = JsonObj::new();
    o.str("schema", RESULTS_SCHEMA)
        .raw("provenance", provenance.to_json(2))
        .u64("seed", seed)
        .u64("data_seed", DATA_SEED)
        .str("preset", preset)
        .raw("wall_s", num(wall_s));
    let workloads: Vec<String> = results.iter().map(workload_json).collect();
    o.raw("workloads", render_array(&workloads, 2));
    o.render(0) + "\n"
}

/// Prints one workload: every metric by name with its unit, the
/// explained-fraction table, and the cost-ordering check.
pub fn print_workload(result: &WorkloadResult) {
    let w = &result.workload;
    println!("\n=== {} ===", w.name);
    println!("{}", w.why);
    println!(
        "samples_attempted = {}  samples_failed = {}  federated loss = {:.6}  oracle loss = {:.6}",
        result.attempted(),
        result.failed(),
        result.median_of("final_loss"),
        result.oracle_loss
    );
    for f in &result.failures() {
        println!("  FAILED {f}");
    }
    println!(
        "\n{:<14} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3} {:>8} {:>6}",
        "end to end", "unit", "median", "q1", "q3", "min", "max", "n", "spread", "bound"
    );
    for m in &END_TO_END {
        let s = result.summary(m.name);
        let status = if s.spread() > m.bound { "  unresolved" } else { "" };
        println!(
            "{:<14} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3} {:>7.2}% {:>5.0}%{status}",
            m.name,
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.samples.len(),
            s.spread() * 100.0,
            m.bound * 100.0
        );
    }
    println!(
        "attribution: dirty_nodes = {}  aborted_tasks = {}  (medians; every sample is in the results file)",
        result.median_of("dirty_nodes"),
        result.median_of("train.aborted_tasks")
    );
    let layers = result.per_layer();
    if layers.is_empty() {
        return;
    }
    println!("\n{:<30} {:>16} {:<8}", "per layer", "value", "unit");
    for ((name, value), m) in layers.iter().zip(&PER_LAYER) {
        if let Some(value) = value {
            println!("{name:<30} {value:>16.6} {:<8}", m.unit);
        }
    }
    let get = |name: &str| {
        layers.iter().find(|(n, _)| *n == name).and_then(|(_, v)| *v).unwrap_or(f64::NAN)
    };
    if w.key_bits.is_some() {
        println!(
            "\n{:<10} {:>12} {:>16} {:>16} {:>10}",
            "explained", "phase s", "sum ops*cost s", "unexplained s", "fraction"
        );
        for x in result.explained() {
            println!(
                "{:<10} {:>12.4} {:>16.4} {:>16.4} {:>9.1}%",
                x.phase,
                x.phase_s,
                x.model_s,
                x.unexplained_s(),
                x.fraction() * 100.0
            );
        }
        let (dec, enc, hadd, scaled) = (
            get("crypto.dec_us"),
            get("crypto.enc_us"),
            get("crypto.hadd_us"),
            get("crypto.hadd_scaled_us"),
        );
        let cmp = |a: f64, b: f64| if a > b { ">" } else { "<" };
        println!(
            "cost ordering (paper: Dec >> Enc >> scaled HAdd >> HAdd): Dec {dec:.1} us {} Enc {enc:.1} us \
             {} scaled HAdd {scaled:.1} us {} HAdd {hadd:.1} us",
            cmp(dec, enc),
            cmp(enc, scaled),
            cmp(scaled, hadd)
        );
    } else {
        println!("no Paillier here: crypto.* and train.explained_* are skipped");
    }
    println!(
        "replay: layer self times cover {:.2}% of its root span; instant-link wall {:.3} s vs {:.3} s",
        100.0
            * result
                .traced
                .as_ref()
                .map_or(f64::NAN, |t| t.get("replay.layers_s") / t.get("replay.root_s")),
        get("trace.instant_wall_s"),
        result.median_of("train_wall_s")
    );
}
