//! **Table 6** — scalability with the number of parties, plus validation
//! AUC.
//!
//! Paper setup (epsilon, rcv1): features divided into four equal subsets;
//! with `k` parties, `k` subsets participate (`k−1` hosts + the guest).
//! Results: AUC climbs with every added party (epsilon 0.769 B-only →
//! 0.825 / 0.837 / 0.856 at 2/3/4 parties); training slows by < 10%
//! (speedup 1.00× → 0.96×/0.93× → 0.90×/0.93×).
//!
//! Beyond the paper's table this bench also runs 8- and 16-party rows:
//! the full feature set split evenly over heterogeneous per-host WAN
//! links (the last host gets ¼ bandwidth at 4× latency).
//!
//! Every party is a thread of this process, so a row with more parties
//! than the machine has cores is *timeshared*: its wall adds the parties'
//! work up instead of overlapping it, and it is tagged as such and not
//! comparable to the paper's one-cluster-per-party ratio.

use std::time::Duration;

use vf2_bench::{base_config, cores, header, scale, secs};
use vf2_channel::WanConfig;
use vf2_datagen::presets::preset;
use vf2_datagen::vertical::split_even;
use vf2_gbdt::data::Dataset;
use vf2_gbdt::metrics::auc;
use vf2_gbdt::train::{GbdtParams, Trainer};
use vf2boost_core::config::WanSpread;
use vf2boost_core::train::train_federated;
use vf2boost_core::TrainConfig;

/// Paper shape (`k ≤ 4`): first `k` of the four feature quarters, split
/// evenly over `k` parties. Scale-out shape (`k > 4`, beyond the paper's
/// table): the full feature set split evenly over `k` parties, so adding
/// parties shrinks each host's slice instead of growing the dataset.
fn take_parties(data: &Dataset, k: usize) -> vf2_datagen::vertical::VerticalScenario {
    if k <= 4 {
        let quarter = data.num_features() / 4;
        let feats: Vec<usize> = (0..k * quarter).collect();
        split_even(&data.select_features(&feats, true), k)
    } else {
        split_even(data, k)
    }
}

/// The heterogeneous WAN the many-party rows train over: host 0 gets a
/// 300 Mbps / 500 µs link, the last host a quarter of the bandwidth at
/// four times the latency, everyone in between interpolated.
fn many_party_wan(cfg: TrainConfig) -> TrainConfig {
    TrainConfig {
        wan: WanConfig {
            bandwidth_bytes_per_sec: 300.0e6 / 8.0,
            latency: Duration::from_micros(500),
            per_message_overhead_bytes: 32,
        },
        wan_spread: Some(WanSpread { slowest_bandwidth_frac: 0.25, latency_mult: 4.0 }),
        ..cfg
    }
}

fn main() {
    header(
        "Table 6: scalability w.r.t. #parties (speedup over 2 parties) + AUC",
        "paper: AUC climbs with each party (epsilon 0.825/0.837/0.856); time cost within ~10%",
    );
    let trees: usize = std::env::var("VF2_TREES").ok().and_then(|s| s.parse().ok()).unwrap_or(2);
    for (name, factor) in [("epsilon", 0.004), ("rcv1", 0.002)] {
        let p = preset(name).unwrap().scaled((factor * scale()).min(1.0));
        let data = p.generate(13);
        let split_at = (p.rows * 4) / 5;
        let (train, valid) = data.split_rows(split_at);
        println!("-- {name}-like: N = {}, D = {} --", p.rows, p.features_a + p.features_b);

        // Party-B-only reference: the guest's quarter.
        let gbdt = GbdtParams { num_trees: trees, max_layers: 7, ..Default::default() };
        let quarter = train.num_features() / 4;
        let solo_feats: Vec<usize> = (0..quarter).collect();
        let solo = Trainer::new(gbdt).fit(&train.select_features(&solo_feats, true));
        let solo_auc = auc(
            valid.labels().unwrap(),
            &solo.predict_margin(&valid.select_features(&solo_feats, false)),
        );
        println!("  Party B only: AUC {solo_auc:.4}");

        let mut base_wall = None;
        for parties in [2usize, 3, 4, 8, 16] {
            if parties > train.num_features() {
                println!("  {parties} parties: skipped (only {} features)", train.num_features());
                continue;
            }
            let s = take_parties(&train, parties);
            let v = take_parties(&valid, parties);
            // Beyond the paper's four-party table the links turn
            // heterogeneous; the guest's tree loop drains one answer per
            // live host, so the slowest link does not serialize it.
            let cfg = if parties <= 4 {
                TrainConfig { gbdt, ..base_config() }
            } else {
                many_party_wan(TrainConfig { gbdt, workers: 4, ..base_config() })
            };
            let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
            let wall = out.report.wall_time;
            let w2 = *base_wall.get_or_insert(wall);
            let host_refs: Vec<&Dataset> = v.hosts.iter().collect();
            let margins = out.model.predict_margin(&host_refs, &v.guest);
            let a = auc(v.guest.labels().unwrap(), &margins);
            let wan = if parties <= 4 { "" } else { " [heterogeneous WAN]" };
            let shared = if parties > cores() { " [timeshared]" } else { "" };
            println!(
                "  {parties} parties: wall {} ({:.2}x, paper 1.00/0.93-0.96/0.90-0.93)  AUC {:.4}{wan}{shared}",
                secs(wall),
                w2.as_secs_f64() / wall.as_secs_f64().max(1e-9),
                a
            );
        }
        println!();
    }
}
