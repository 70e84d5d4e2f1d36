//! **Table 1** — breakdown of the blaster-style encryption scheme
//! (BlasterEnc) and the re-ordered histogram accumulation technique
//! (Re-ordered) on the *root node*: time to encrypt the gradient
//! statistics, ship them, and build the root histograms, for varying `N`.
//!
//! Paper setup: 25K features per party, N ∈ {2.5M, 5M, 10M}, S = 2048,
//! dissecting the baseline into Enc / Comm / HAdd. Paper results:
//! BlasterEnc 1.52–1.58×, Re-ordered alone 1.17–1.27×, both 2.22–2.32×.
//!
//! Scaled setup here: N ∈ {2.5K, 5K, 10K} × `VF2_SCALE`, 50 sparse
//! features per party, over `WanConfig::paper_public_network()` (300 Mbps,
//! 10 ms) so the wire the blaster scheme overlaps is inside the measured
//! wall. The table prints the guest's Enc and the host's HAdd phase totals
//! (wall-clock spans) and the run's wall time with its ratio to the
//! baseline's; Enc + HAdd exceeding the wall is the overlap of the paper's
//! Fig. 4, seen directly.

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
    enc: Duration,
    hadd: Duration,
    wall: Duration,
}

fn run(n: usize, label: &'static str, protocol: ProtocolConfig) -> Row {
    let data = generate_classification(&SyntheticConfig {
        rows: n,
        features: 100,
        density: 0.2,
        informative_frac: 0.2,
        label_noise: 0.05,
        seed: 42,
    });
    let s = split_vertical(&data, &[50]);
    let cfg = TrainConfig {
        // max_layers = 2: one split, i.e. exactly the root-node histogram
        // work the table measures.
        gbdt: GbdtParams { num_trees: 1, max_layers: 2, ..Default::default() },
        protocol,
        wan: WanConfig::paper_public_network(),
        ..base_config()
    };
    let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    let r = &out.report;
    Row {
        label,
        enc: r.guest.phases.encrypt,
        hadd: r.hosts[0].phases.build_hist_enc,
        wall: r.wall_time,
    }
}

fn main() {
    header(
        "Table 1: blaster-style encryption + re-ordered accumulation (root node)",
        "paper: +BlasterEnc 1.52-1.58x | +Re-ordered 1.17-1.27x | both 2.22-2.32x",
    );
    let base = ProtocolConfig::baseline();
    let blaster = ProtocolConfig { blaster_batch: Some(512), ..base };
    let reordered = ProtocolConfig { reordered_accumulation: true, ..base };
    let both = ProtocolConfig { blaster_batch: Some(512), reordered_accumulation: true, ..base };

    for base_n in [2_500usize, 5_000, 10_000] {
        let n = scaled_rows(base_n);
        println!("-- N = {n} (paper: N = {}M) --", base_n as f64 / 1000.0);
        let rows = [
            ("Baseline", base),
            ("+BlasterEnc", blaster),
            ("+Re-ordered", reordered),
            ("+Blaster+Re-ordered", both),
        ]
        .map(|(label, protocol)| run(n, label, protocol));
        println!("{:<22}{:>9}{:>9}{:>9}", "variant", "Enc", "HAdd", "wall");
        let baseline_wall = rows[0].wall;
        for r in &rows {
            println!(
                "{:<22}{}{}{} {:>7}",
                r.label,
                secs(r.enc),
                secs(r.hadd),
                secs(r.wall),
                speedup(baseline_wall, r.wall),
            );
        }
        println!();
    }
}
