//! One sample: set up, train once, read everything back.
//!
//! A sample runs in a process of its own so that `setup_s` and
//! `peak_rss_mb` belong to exactly one training job. The process prints a
//! single-line JSON [`Record`] as the last line of its standard output;
//! the harness that spawned it parses the line back.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use vf2boost_core::json::{escape, Json, JsonObj};
use vf2boost_core::telemetry::{PartyTelemetry, TrainReport};
use vf2boost_core::train::train_federated;

use crate::layers::LayerRun;
use crate::num;
use crate::workloads::{Wan, Workload};

/// A flat bag of named numbers: one sample's measurements, or one traced
/// process's layer timings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// The measurements, by name.
    pub values: BTreeMap<String, f64>,
    /// Why the sample failed, if it did.
    pub error: Option<String>,
}

impl Record {
    /// Stores `value` under `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The value under `name` (NaN when absent, so a missing measurement
    /// can never pass for a real one).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }

    /// Renders the record as one line of JSON.
    pub fn to_json_line(&self) -> String {
        let mut fields: Vec<String> =
            self.values.iter().map(|(k, v)| format!("\"{}\": {}", escape(k), num(*v))).collect();
        if let Some(e) = &self.error {
            fields.push(format!("\"error\": \"{}\"", escape(e)));
        }
        format!("{{{}}}", fields.join(", "))
    }

    /// Reads a record back from parsed JSON.
    pub fn from_json(json: &Json) -> Result<Record, String> {
        let Json::Obj(map) = json else { return Err("a record is a JSON object".into()) };
        let mut rec = Record::default();
        for (k, v) in map {
            match (k.as_str(), v) {
                ("error", Json::Str(s)) => rec.error = Some(s.clone()),
                (_, Json::Num(n)) => rec.set(k, *n),
                (_, Json::Null) => rec.set(k, f64::NAN),
                _ => return Err(format!("record field {k} is neither a number nor an error")),
            }
        }
        Ok(rec)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The host that spent longest in `phase` (the one the guest waits for).
fn slowest_host(report: &TrainReport, phase: impl Fn(&PartyTelemetry) -> Duration) -> f64 {
    report.hosts.iter().map(|h| secs(phase(h))).fold(0.0, f64::max)
}

/// Copies the `train.*` layer's numbers out of the report the program
/// returns. Host phase times are the maximum over hosts; host operation
/// counts are sums, except the `slow_host.*` set, which is the operation
/// mix of the host with the largest build + pack time (what the explained
/// fractions are computed from).
pub fn read_report(report: &TrainReport, rec: &mut Record) {
    let g = &report.guest;
    rec.set("train.guest_encrypt_s", secs(g.phases.encrypt));
    rec.set("train.guest_decrypt_find_s", secs(g.phases.decrypt_find));
    rec.set("train.guest_hist_plain_s", secs(g.phases.build_hist_plain));
    rec.set("train.guest_split_nodes_s", secs(g.phases.split_nodes));
    rec.set("train.guest_idle_s", secs(g.phases.idle));
    rec.set("train.host_hist_enc_s", slowest_host(report, |h| h.phases.build_hist_enc));
    rec.set("train.host_pack_s", slowest_host(report, |h| h.phases.pack));
    rec.set("train.host_idle_s", slowest_host(report, |h| h.phases.idle));

    let hosts = |f: &dyn Fn(&PartyTelemetry) -> u64| report.hosts.iter().map(f).sum::<u64>() as f64;
    rec.set("train.ops_enc", g.ops.enc as f64);
    rec.set("train.ops_dec", g.ops.dec as f64);
    rec.set("train.ops_hadd", hosts(&|h| h.ops.hadd));
    rec.set("train.ops_scaling", hosts(&|h| h.ops.scalings));
    rec.set("train.ops_pack", hosts(&|h| h.ops.packs));
    rec.set("train.msgs_sent", g.messages_sent as f64 + hosts(&|h| h.messages_sent));
    rec.set("train.bytes_guest_to_host", g.bytes_sent as f64);
    rec.set("train.bytes_host_to_guest", hosts(&|h| h.bytes_sent));

    let optimistic = g.events.optimistic_splits as f64;
    let dirty = g.events.dirty_nodes as f64;
    rec.set("optimistic_splits", optimistic);
    rec.set("dirty_nodes", dirty);
    rec.set("train.dirty_frac", if optimistic > 0.0 { dirty / optimistic } else { 0.0 });
    rec.set("train.aborted_tasks", hosts(&|h| h.events.aborted_tasks));
    let hits = hosts(&|h| h.events.hist_cache_hits);
    let lookups = hits + hosts(&|h| h.events.hist_cache_misses);
    rec.set("train.hist_cache_hit_rate", if lookups > 0.0 { hits / lookups } else { 0.0 });
    rec.set("train.retransmissions", report.link_events().retransmissions as f64);

    let slow = report
        .hosts
        .iter()
        .max_by_key(|h| h.phases.build_hist_enc + h.phases.pack)
        .map(|h| h.ops)
        .unwrap_or_default();
    rec.set("slow_host.hadd", slow.hadd as f64);
    rec.set("slow_host.smul", slow.smul as f64);
    rec.set("slow_host.scalings", slow.scalings as f64);
    rec.set("slow_host.packs", slow.packs as f64);
    rec.set("slow_host.negs", slow.negs as f64);
}

/// Trains once and records the end-to-end numbers and the report.
///
/// Returns `Err` with the reason when the output fails a check that needs
/// no second sample: the run errored, trees are missing, or a margin is
/// not finite. Loss identity across samples and agreement with the
/// centralized oracle are the harness's checks.
pub fn train_once(
    w: &Workload,
    hosts: &[vf2_gbdt::data::Dataset],
    guest: &vf2_gbdt::data::Dataset,
    cfg: &vf2boost_core::TrainConfig,
    rec: &mut Record,
) -> Result<(), String> {
    let started = Instant::now();
    let out = train_federated(hosts, guest, cfg).map_err(|f| format!("train_federated: {f}"))?;
    rec.set("train_wall_s", secs(started.elapsed()));
    let trees = &out.report.tree_records;
    if trees.len() < w.trees {
        return Err(format!("{} of {} trees came back", trees.len(), w.trees));
    }
    if out.train_margins.iter().any(|m| !m.is_finite()) {
        return Err("a training margin is not finite".into());
    }
    let (first, last) = (&trees[0], &trees[trees.len() - 1]);
    rec.set("tree_s", secs(last.completed_at - first.completed_at) / (trees.len() - 1) as f64);
    rec.set("final_loss", last.train_loss);
    rec.set("wan_bytes", out.report.total_bytes() as f64);
    read_report(&out.report, rec);
    Ok(())
}

/// The body of a sample process: set up, train, report.
///
/// `setup_s` runs from `entered` — the first statement of `main` — to the
/// call of `train_federated`: data generation and the vertical split.
pub fn run_sample(w: &Workload, seed: u64, entered: Instant) -> Record {
    let mut rec = Record::default();
    let scenario = w.split(&w.generate());
    let cfg = w.train_config(seed, false, false);
    rec.set("setup_s", secs(entered.elapsed()));
    if let Err(e) = train_once(w, &scenario.hosts, &scenario.guest, &cfg, &mut rec) {
        rec.error = Some(e);
    }
    rec.set("peak_rss_mb", peak_rss_mb());
    rec
}

/// The body of the traced process: one training run with the program's
/// own tracing on, one on an instant link when the workload's link is not,
/// then every layer timed from outside (see [`crate::layers`]). The spans
/// are written to `trace_path` before returning, whatever happened.
pub fn run_traced(w: &Workload, seed: u64, trace_path: &Path) -> Record {
    let mut run = LayerRun::new(w, seed);
    let mut rec = Record::default();
    let outcome = (|| -> Result<(), String> {
        let (joined, suite) = run.setup()?;
        let scenario = w.split(&joined);
        let mut traced = Record::default();
        let cfg = w.train_config(seed, true, false);
        train_once(w, &scenario.hosts, &scenario.guest, &cfg, &mut traced)?;
        rec.set("traced_wall_s", traced.get("train_wall_s"));
        rec.set("traced_loss", traced.get("final_loss"));
        if w.wan != Wan::Instant {
            let mut instant = Record::default();
            let cfg = w.train_config(seed, false, true);
            train_once(w, &scenario.hosts, &scenario.guest, &cfg, &mut instant)?;
            rec.set("trace.instant_wall_s", instant.get("train_wall_s"));
        }
        rec.set("central_loss", run.layers(&joined, &suite)?);
        Ok(())
    })();
    rec.values.append(&mut run.rec.values);
    rec.error = outcome.err();
    let mut doc = JsonObj::new();
    doc.str("workload", w.name)
        .u64("seed", seed)
        .raw("sizes", w.sizes_json())
        .raw("spans", run.tracer.to_json(2));
    let written = trace_path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(trace_path, doc.render(0) + "\n"));
    if let (Err(e), None) = (written, &rec.error) {
        rec.error = Some(format!("cannot write {}: {e}", trace_path.display()));
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf2boost_core::json::parse;

    #[test]
    fn records_round_trip_through_the_strict_parser() {
        let mut rec = Record::default();
        rec.set("train_wall_s", 3.25);
        rec.set("train.ops_enc", 1200.0);
        rec.set("tiny", 1.5e-7);
        rec.set("missing", f64::NAN);
        rec.error = Some("a \"quoted\"\nreason".into());
        let line = rec.to_json_line();
        assert!(!line.contains('\n'));
        let back = Record::from_json(&parse(&line).unwrap()).unwrap();
        assert_eq!(back.error, rec.error);
        assert_eq!(back.get("train_wall_s"), 3.25);
        assert_eq!(back.get("tiny"), 1.5e-7);
        assert!(back.get("missing").is_nan() && back.get("absent").is_nan());
    }

    #[test]
    fn peak_rss_reads_as_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
