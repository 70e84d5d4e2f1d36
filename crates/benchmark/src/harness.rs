//! Spawning samples, checking their output, and folding them into one
//! workload's result.
//!
//! The harness is single-threaded: it starts one sample process, waits for
//! it, and starts the next. The program under test spawns its own party
//! threads inside each sample.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use vf2_gbdt::train::Trainer;
use vf2boost_core::json::parse;

use crate::metrics::PER_LAYER;
use crate::sample::Record;
use crate::stats::{median, Summary};
use crate::workloads::{Preset, Wan, Workload};

/// Largest gap tolerated between a sample's final training loss and the
/// centralized oracle's.
pub const ORACLE_TOLERANCE: f64 = 1e-4;
/// Largest gap tolerated between two samples of one workload and seed.
/// The protocol is lossless, but the mock suite sums `f64`s in an order
/// that depends on which histograms were built and which were derived.
pub const IDENTITY_TOLERANCE: f64 = 1e-9;

/// Where and at what size a harness run executes.
#[derive(Debug, Clone)]
pub struct Context {
    /// Size table.
    pub preset: Preset,
    /// Workload seed.
    pub seed: u64,
    /// Directory for trace files and results.
    pub out_dir: PathBuf,
}

/// `<target dir>/vf2-benchmark`, next to the running executable's profile
/// directory, so everything the benchmark writes stays under the build
/// directory of the checkout it runs in.
pub fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().and_then(Path::parent).map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("vf2-benchmark")
}

/// The centralized oracle: `vf2_gbdt::Trainer::fit` on the joined table
/// (see [`Workload::oracle_table`]) with the workload's `GbdtParams`;
/// returns its final training loss.
pub fn oracle_loss(w: &Workload) -> f64 {
    let table = w.oracle_table(&w.generate());
    let gbdt = w.gbdt();
    let model = Trainer::new(gbdt).fit(&table);
    let labels = table.labels().unwrap_or_default();
    gbdt.loss.mean_loss(labels, &model.predict_margin(&table))
}

/// What a child process is started for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Child {
    /// One untraced sample.
    Sample,
    /// The traced process.
    Traced,
}

/// Runs one child process and parses the record it prints. A child that
/// dies, or prints something else, yields a failed record — never a panic
/// here.
pub fn spawn(ctx: &Context, w: &Workload, child: Child) -> Record {
    let fail = |why: String| Record { error: Some(why), ..Record::default() };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(format!("cannot find this executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("sample").args(["--workload", w.name]).args(["--seed", &ctx.seed.to_string()]);
    cmd.arg("--out-dir").arg(&ctx.out_dir);
    if ctx.preset == Preset::Smoke {
        cmd.arg("--smoke");
    }
    if child == Child::Traced {
        cmd.arg("--traced");
    }
    let out = match cmd.output() {
        Ok(out) => out,
        Err(e) => return fail(format!("cannot start the sample process: {e}")),
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    match parse(last).and_then(|j| Record::from_json(&j)) {
        Ok(mut rec) => {
            if !out.status.success() && rec.error.is_none() {
                rec.error = Some(format!("the sample process exited with {}", out.status));
            }
            rec
        }
        Err(e) => fail(format!(
            "the sample process ({}) printed no record: {e}; stderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// All samples of one workload and what was concluded from them.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Untraced samples, in the order taken. Nothing is discarded.
    pub samples: Vec<Record>,
    /// The traced process's record, when one ran.
    pub traced: Option<Record>,
    /// Final training loss of the centralized oracle.
    pub oracle_loss: f64,
}

impl WorkloadResult {
    /// An empty result for `w`.
    pub fn new(w: Workload) -> WorkloadResult {
        WorkloadResult { workload: w, samples: Vec::new(), traced: None, oracle_loss: f64::NAN }
    }

    /// Checks every sample: the run returned, all trees came back with
    /// finite margins (both checked in the sample process), its final loss
    /// equals the other samples' and the centralized oracle's. The traced
    /// process is held to the same, plus the replay's histogram check. A
    /// record that fails gets the reason as its `error`.
    pub fn verify(&mut self) {
        if self.oracle_loss.is_nan() {
            let from_traced = self.traced.as_ref().map_or(f64::NAN, |t| t.get("central_loss"));
            self.oracle_loss =
                if from_traced.is_nan() { oracle_loss(&self.workload) } else { from_traced };
        }
        let losses: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.error.is_none())
            .map(|s| s.get("final_loss"))
            .collect();
        let consensus = median(&losses);
        let oracle = self.oracle_loss;
        let check = |rec: &Record, loss_key: &str| -> Option<String> {
            if rec.error.is_some() {
                return None;
            }
            let loss = rec.get(loss_key);
            if consensus.is_finite() && (loss - consensus).abs() > IDENTITY_TOLERANCE {
                return Some(format!("final loss {loss} differs from its peers' {consensus}"));
            }
            if (loss - oracle).abs() > ORACLE_TOLERANCE || !loss.is_finite() {
                return Some(format!("final loss {loss} differs from the oracle's {oracle}"));
            }
            None
        };
        for s in &mut self.samples {
            if let Some(why) = check(s, "final_loss") {
                s.error = Some(why);
            }
        }
        if let Some(t) = &mut self.traced {
            if let Some(why) = check(t, "traced_loss") {
                t.error = Some(why);
            }
        }
    }

    /// One line per failed sample: which one and why.
    pub fn failures(&self) -> Vec<String> {
        let samples = self.samples.iter().enumerate().map(|(i, s)| (format!("sample {i}"), s));
        let traced = self.traced.iter().map(|t| ("traced run".to_string(), t));
        samples
            .chain(traced)
            .filter_map(|(what, rec)| rec.error.as_ref().map(|e| format!("{what}: {e}")))
            .collect()
    }

    /// Samples plus the traced process, if any.
    pub fn attempted(&self) -> usize {
        self.samples.len() + usize::from(self.traced.is_some())
    }

    /// How many of them failed a check.
    pub fn failed(&self) -> usize {
        self.failures().len()
    }

    /// The order statistics of one recorded value over the samples that
    /// passed (a failed sample contributes no timing).
    pub fn summary(&self, key: &str) -> Summary {
        let good = self.samples.iter().filter(|s| s.error.is_none());
        Summary::of(&good.map(|s| s.get(key)).collect::<Vec<f64>>())
    }

    /// The median of one recorded value over the samples that passed.
    pub fn median_of(&self, key: &str) -> f64 {
        self.summary(key).median
    }

    /// The explained fractions: per phase, its measured time, the time a
    /// cost model explains (operation counts × this run's micro costs),
    /// and their ratio.
    ///
    /// * encrypt: `ops_enc × enc`
    /// * decrypt + find: `ops_dec × unpack_dec` (`× dec` when nothing was
    ///   packed)
    /// * pack: with `slots = smul + packs` of the slowest host,
    ///   `slots × pack_slot` (the pack itself) `+ slots × hadd` (one prefix
    ///   sum per packed slot) `+ scalings × hadd_scaled` (workspace merges)
    /// * encrypted histogram build: every remaining HAdd of that host
    ///   `× hadd`, `+ negs × neg` (subtraction)
    ///
    /// Empty on a workload without keys: there is no crypto cost to
    /// explain a phase with.
    pub fn explained(&self) -> Vec<Explained> {
        let (Some(t), Some(_)) = (&self.traced, self.workload.key_bits) else { return Vec::new() };
        let m = |key: &str| self.median_of(key);
        let cost = |key: &str| t.get(key) * 1e-6;
        let slots = m("slow_host.smul") + m("slow_host.packs");
        let scalings = m("slow_host.scalings");
        let build_hadds = (m("slow_host.hadd") - m("slow_host.smul") - slots - scalings).max(0.0);
        let dec = if m("slow_host.packs") > 0.0 { "crypto.unpack_dec_us" } else { "crypto.dec_us" };
        let row = |phase, phase_key: &str, model_s: f64| Explained {
            phase,
            phase_s: m(phase_key),
            model_s,
        };
        vec![
            row("encrypt", "train.guest_encrypt_s", m("train.ops_enc") * cost("crypto.enc_us")),
            row(
                "hist_enc",
                "train.host_hist_enc_s",
                build_hadds * cost("crypto.hadd_us") + m("slow_host.negs") * cost("crypto.neg_us"),
            ),
            row(
                "pack",
                "train.host_pack_s",
                slots * (cost("crypto.pack_slot_us") + cost("crypto.hadd_us"))
                    + scalings * cost("crypto.hadd_scaled_us"),
            ),
            row("decrypt", "train.guest_decrypt_find_s", m("train.ops_dec") * cost(dec)),
        ]
    }

    /// Every per-layer metric, in table order; `None` for one this
    /// workload skips (`crypto.*` and `train.explained_*` where no key
    /// exists). Needs the traced record; `train.*` values are medians over
    /// the untraced samples that passed.
    pub fn per_layer(&self) -> Vec<(&'static str, Option<f64>)> {
        let Some(t) = &self.traced else { return Vec::new() };
        let explained = self.explained();
        let wall = self.median_of("train_wall_s");
        let keyless = self.workload.key_bits.is_none();
        PER_LAYER
            .iter()
            .map(|metric| {
                let name = metric.name;
                let value = if let Some(phase) = name.strip_prefix("train.explained_") {
                    explained.iter().find(|e| e.phase == phase).map(Explained::fraction)
                } else if name.starts_with("crypto.") && keyless {
                    None
                } else if name.starts_with("train.") {
                    Some(self.median_of(name))
                } else if name == "trace.overhead_frac" {
                    Some((t.get("traced_wall_s") - wall) / wall)
                } else if name == "trace.instant_wall_s" && self.workload.wan == Wan::Instant {
                    Some(wall)
                } else {
                    Some(t.get(name))
                };
                (name, value)
            })
            .collect()
    }
}

/// One row of the explained-fraction table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Explained {
    /// Phase name (`encrypt`, `hist_enc`, `pack`, `decrypt`).
    pub phase: &'static str,
    /// The phase's measured time (median over samples), in seconds.
    pub phase_s: f64,
    /// Σ operation count × micro cost, in seconds.
    pub model_s: f64,
}

impl Explained {
    /// The share of the phase the model explains.
    pub fn fraction(&self) -> f64 {
        self.model_s / self.phase_s
    }

    /// Seconds the model does not account for.
    pub fn unexplained_s(&self) -> f64 {
        self.phase_s - self.model_s
    }
}

/// Takes untraced samples, one process each, back to back: at least
/// `at_least`, and further ones while half of one still fits into
/// `seconds`.
pub fn sample_for(ctx: &Context, seconds: f64, at_least: usize, result: &mut WorkloadResult) {
    let started = Instant::now();
    let mut durations = Vec::new();
    loop {
        let t0 = Instant::now();
        result.samples.push(spawn(ctx, &result.workload, Child::Sample));
        durations.push(t0.elapsed().as_secs_f64());
        let full = started.elapsed().as_secs_f64() + 0.5 * median(&durations) > seconds;
        if full && durations.len() >= at_least {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    fn sample(loss: f64, wall: f64) -> Record {
        let mut rec = Record::default();
        rec.set("final_loss", loss);
        rec.set("train_wall_s", wall);
        rec
    }

    #[test]
    fn a_failed_sample_is_counted_and_contributes_no_timing() {
        let mut result = WorkloadResult::new(find(Preset::Smoke, "mock-400k").unwrap());
        result.oracle_loss = 0.5;
        result.samples = vec![sample(0.5, 1.0), sample(0.5, 2.0), sample(0.5, 3.0)];
        // One sample off its peers, one off the oracle by construction of
        // the peers, one that errored in its own process, one non-finite.
        result.samples.push(sample(0.5 + 1e-6, 100.0));
        result.samples.push(Record { error: Some("boom".into()), ..sample(0.5, 100.0) });
        result.samples.push(sample(f64::NAN, 100.0));
        result.verify();
        assert_eq!((result.attempted(), result.failed()), (6, 3));
        assert_eq!(result.summary("train_wall_s").samples, [1.0, 2.0, 3.0]);
        let failures = result.failures();
        assert!(failures[0].starts_with("sample 3: final loss") && failures[0].contains("peers"));
        assert_eq!(failures[1], "sample 4: boom");

        // Peers that agree with each other but not with the oracle all fail.
        result.samples.truncate(3);
        result.oracle_loss = 0.6;
        result.verify();
        assert_eq!(result.failed(), 3);
        assert!(result.failures()[0].contains("oracle"));
        assert!(result.median_of("train_wall_s").is_nan());
    }
}
