//! **Table 5** — scalability with the number of workers per party.
//!
//! Paper: speedups over 4 workers on susy/epsilon/rcv1/synthesis — 8
//! workers give 1.40–1.65×, 16 workers 1.85–2.23× (sub-linear because
//! histogram aggregation and cipher transfer don't parallelize).
//!
//! Scaled here to worker counts {1, 2, 4}. The pool behind `workers` runs
//! on real threads, so the **measured** wall ratio is the result wherever
//! the machine has at least as many cores as workers (the header prints
//! the core count; beyond it the wall cannot improve). Next to it the table
//! prints the **modeled** speedup `busy(1) / ((busy(1) − serial(1))/W +
//! serial(1))` — `busy(1)` and `serial(1)` being both parties' phase
//! totals and their node-splitting time in the one-worker run, wall-clock
//! spans like every other number here — and the model's error against the
//! measurement it predicts.

use vf2_bench::{base_config, header, scale};
use vf2_datagen::presets::preset;
use vf2_gbdt::train::GbdtParams;
use vf2boost_core::train::train_federated;
use vf2boost_core::TrainConfig;

fn main() {
    header(
        "Table 5: scalability w.r.t. #workers (speedup over 1 worker)",
        "paper (over 4 workers): 8w 1.40-1.65x, 16w 1.85-2.23x — sub-linear from aggregation",
    );
    let factors = [("susy", 0.0006), ("epsilon", 0.003), ("rcv1", 0.0015), ("synthesis", 0.0003)];
    for (name, factor) in factors {
        let p = preset(name).unwrap().scaled((factor * scale()).min(1.0));
        let data = p.generate(11);
        let s = vf2_datagen::vertical::split_vertical(&data, &[p.features_a]);
        println!("-- {name}-like: N = {}, D = {}/{} --", p.rows, p.features_a, p.features_b);
        // (busy, serial, wall) of the one-worker run, which the model and
        // the measured ratio are both taken against.
        let mut base = None;
        for workers in [1usize, 2, 4] {
            let cfg = TrainConfig {
                gbdt: GbdtParams { num_trees: 1, max_layers: 6, ..Default::default() },
                workers,
                ..base_config()
            };
            let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
            let (guest, host) = (&out.report.guest.phases, &out.report.hosts[0].phases);
            let wall = out.report.wall_time.as_secs_f64();
            // Aggregation/sync that does not parallelize: node splitting
            // (placement bitmaps are inherently sequential per node).
            let serial = (guest.split_nodes + host.split_nodes).as_secs_f64();
            let busy = (guest.busy() + host.busy()).as_secs_f64();
            let (b1, s1, w1) = *base.get_or_insert((busy, serial, wall));
            let modeled = (b1 - s1).max(0.0) / workers as f64 + s1;
            let measured_x = w1 / wall.max(1e-9);
            let modeled_x = b1 / modeled.max(1e-9);
            println!(
                "  {workers} workers: wall {wall:8.3} ({measured_x:.2}x)   modeled {modeled:8.3}s ({modeled_x:.2}x, model error {:+.0}%)",
                (modeled_x / measured_x - 1.0) * 100.0,
            );
        }
        println!();
    }
}
