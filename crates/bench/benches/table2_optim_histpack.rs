//! **Table 2** — breakdown of the optimistic node-splitting strategy
//! (OptimSplit) and the polynomial-based histogram packing method
//! (HistPack): time to build **one decision tree**, varying the feature
//! split between the parties.
//!
//! Paper setup: N = 10M, features (A/B) ∈ {40K/10K, 25K/25K, 10K/40K},
//! reporting the ratio of splits won by Party B. Paper results:
//! OptimSplit 1.28–1.45× (better when B owns more features), HistPack
//! 1.24–1.67× (better when A owns more features), both 1.90–2.21×.
//! §6.2 also reports packing cutting per-tree network transfer 3.2 GB →
//! 1.1 GB; the `A->B bytes` column (histogram traffic, where packing acts)
//! reproduces that ratio.
//!
//! Scaled here: N = 5K × `VF2_SCALE`, features {40/10, 25/25, 10/40},
//! one tree of 6 layers, over `WanConfig::paper_public_network()` (300 Mbps,
//! 10 ms): the round trips optimistic splitting hides and the bytes packing
//! saves are inside the measured wall, and the speedup column is a ratio of
//! walls.

use std::time::Duration;

use vf2_bench::{base_config, header, scaled_rows, secs, speedup};
use vf2_channel::WanConfig;
use vf2_datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2_datagen::vertical::split_vertical;
use vf2_gbdt::train::GbdtParams;
use vf2boost_core::protocol::ProtocolConfig;
use vf2boost_core::train::train_federated;
use vf2boost_core::TrainConfig;

struct Row {
    label: &'static str,
    wall: Duration,
    bytes: u64,
    dirty: u64,
    guest_ratio: f64,
}

fn run(n: usize, feats_a: usize, feats_b: usize, protocol: ProtocolConfig) -> Row {
    let data = generate_classification(&SyntheticConfig {
        rows: n,
        features: feats_a + feats_b,
        density: 0.2,
        informative_frac: 0.4,
        label_noise: 0.05,
        seed: 4242,
    });
    let s = split_vertical(&data, &[feats_a]);
    let cfg = TrainConfig {
        gbdt: GbdtParams { num_trees: 1, max_layers: 6, ..Default::default() },
        protocol,
        wan: WanConfig::paper_public_network(),
        ..base_config()
    };
    let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    let r = &out.report;
    Row {
        label: "",
        wall: r.wall_time,
        bytes: r.hosts.iter().map(|h| h.bytes_sent).sum(),
        dirty: r.guest.events.dirty_nodes,
        guest_ratio: r.guest_split_ratio(),
    }
}

fn main() {
    header(
        "Table 2: optimistic node-splitting + histogram packing (one tree)",
        "paper: +OptimSplit 1.28-1.45x | +HistPack 1.24-1.67x | both 1.90-2.21x; packing cuts bytes ~3x",
    );
    let base = ProtocolConfig::baseline();
    let optim = ProtocolConfig { optimistic: true, ..base };
    let pack = ProtocolConfig { pack_histograms: true, ..base };
    let both = ProtocolConfig { optimistic: true, pack_histograms: true, ..base };

    let n = scaled_rows(5_000);
    for (fa, fb, paper) in [(40usize, 10usize, "40K/10K"), (25, 25, "25K/25K"), (10, 40, "10K/40K")]
    {
        println!("-- features A/B = {fa}/{fb} (paper: {paper}) --");
        let mut rows = Vec::new();
        for (label, protocol) in [
            ("Baseline", base),
            ("+OptimSplit", optim),
            ("+HistPack", pack),
            ("+Optim+HistPack", both),
        ] {
            let mut r = run(n, fa, fb, protocol);
            r.label = label;
            rows.push(r);
        }
        println!(
            "{:<18}{:>10}{:>9}{:>12}{:>8}{:>9}",
            "variant", "wall", "", "A->B bytes", "dirty", "B-ratio"
        );
        let bw = rows[0].wall;
        for r in &rows {
            println!(
                "{:<18}{} {:>7}{:>12}{:>8}{:>8.1}%",
                r.label,
                secs(r.wall),
                speedup(bw, r.wall),
                r.bytes,
                r.dirty,
                r.guest_ratio * 100.0,
            );
        }
        let byte_ratio = rows[0].bytes as f64 / rows[3].bytes as f64;
        println!("packing byte reduction: {byte_ratio:.2}x (paper: ~2.9x)\n");
    }
}
