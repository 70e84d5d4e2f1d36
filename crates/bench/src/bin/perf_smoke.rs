//! Release-mode perf smoke, writing trajectory artifacts at the repo root:
//!
//! * `BENCH_PR2.json` — the ciphertext histogram-subtraction path (PR 2):
//!   a depth-2 node's direct build vs. `parent ⊖ sibling` derivation, and
//!   end-to-end training with subtraction on vs. off.
//! * `BENCH_PR9.json` — in-run host failure survival (PR 9): an
//!   uninterrupted run vs. one where the host is killed mid-node-loop
//!   and live-rejoins under `AwaitRejoin` — the wall-clock catch-up cost
//!   of the quarantine/rewind/re-execute cycle, with the final models
//!   verified bitwise identical.
//!
//! Run with `cargo run --release -p vf2-bench --bin perf_smoke`.
//!
//! With `--report <path>` it instead runs one small end-to-end federated
//! training and writes the machine-readable run report
//! (`vf2boost-run-report/v1`, see `vf2boost_core::telemetry`) to `path` —
//! the artifact ci.sh schema-checks with `jq`.

use std::time::{Duration, Instant};

use vf2_bench::{base_config, key_bits};
use vf2_crypto::encoding::EncodingConfig;
use vf2_crypto::suite::Suite;
use vf2_datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2_datagen::vertical::split_vertical;
use vf2_gbdt::binning::{BinnedDataset, BinningConfig};
use vf2_gbdt::train::GbdtParams;
use vf2boost_core::config::HostLossPolicy;
use vf2boost_core::hist_enc::EncHistBuilder;
use vf2boost_core::protocol::ProtocolConfig;
use vf2boost_core::rows::RowMajorBins;
use vf2boost_core::train::{train_federated, train_federated_session};
use vf2boost_core::{SessionConfig, TrainConfig};

const MICRO_ROWS: usize = 2048;
const MICRO_BINS: usize = 16;
const MICRO_FEATURES: usize = 5;
const E2E_ROWS: usize = 1200;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--report") {
        let path = args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("usage: perf_smoke --report <path>");
            std::process::exit(2);
        });
        run_report(path);
        return;
    }
    let micro = micro_bench();
    let e2e = end_to_end();
    let json = format!(
        "{{\n  \"bench\": \"PR2 encrypted histogram subtraction\",\n  \"key_bits\": {},\n{}{}}}\n",
        key_bits(),
        micro,
        e2e
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR2.json");
    std::fs::write(path, &json).expect("write BENCH_PR2.json");
    println!("\nwrote {path}");

    let json = pr9_rejoin();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR9.json");
    std::fs::write(path, &json).expect("write BENCH_PR9.json");
    println!("\nwrote {path}");
}

/// PR 9: the wall-clock cost of surviving a host kill in-run. The host
/// dies inside tree 2's node loop; under `AwaitRejoin` a fresh
/// incarnation replays the session handshake, every party rewinds to the
/// last mutually durable tree, and the aborted work is re-executed. The
/// catch-up cost is the chaos run's wall clock minus the uninterrupted
/// run's — the price of the quarantine, respawn handshake, rewind
/// barrier, and re-executed trees. Models must match bitwise.
fn pr9_rejoin() -> String {
    let s = split_vertical(
        &generate_classification(&SyntheticConfig {
            rows: 600,
            features: 8,
            density: 1.0,
            informative_frac: 0.5,
            label_noise: 0.0,
            seed: 9,
        }),
        &[4],
    );
    let cfg = TrainConfig {
        gbdt: GbdtParams {
            num_trees: 4,
            max_layers: 4,
            binning: BinningConfig { num_bins: MICRO_BINS, max_samples: 1 << 16 },
            ..Default::default()
        },
        protocol: ProtocolConfig::vf2boost(),
        ..base_config()
    };

    let t0 = Instant::now();
    let clean = train_federated(&s.hosts, &s.guest, &cfg).expect("clean run succeeds");
    let wall_clean = t0.elapsed();

    let dir = std::env::temp_dir().join(format!("vf2_bench_pr9_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = SessionConfig::new(0x0009, &dir);
    let chaos_cfg = TrainConfig {
        crash_host_on_node_task: Some((2, 0)),
        on_host_loss: HostLossPolicy::AwaitRejoin { deadline: Duration::from_secs(60) },
        ..cfg
    };
    let t0 = Instant::now();
    let chaos = train_federated_session(&s.hosts, &s.guest, &chaos_cfg, Some(&session))
        .expect("the kill-and-rejoin run must survive");
    let wall_chaos = t0.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    let cm = clean.model.predict_margin(&[&s.hosts[0]], &s.guest);
    let xm = chaos.model.predict_margin(&[&s.hosts[0]], &s.guest);
    for (a, b) in cm.iter().zip(&xm) {
        assert_eq!(a.to_bits(), b.to_bits(), "rejoined model diverged: {a} vs {b}");
    }

    let ev = &chaos.report.guest.events;
    let catchup = wall_chaos.saturating_sub(wall_clean);
    println!("\nPR9 in-run host kill + live rejoin (600 rows, 4 trees, key_bits={}):", key_bits());
    println!(
        "  wall   clean {:>8.3} s   kill+rejoin {:>8.3} s   catch-up {:>8.3} s",
        wall_clean.as_secs_f64(),
        wall_chaos.as_secs_f64(),
        catchup.as_secs_f64()
    );
    println!(
        "  quarantines {}  rejoins {}  transfer_retries {}  (models bitwise identical)",
        ev.quarantines, ev.rejoins, ev.transfer_retries
    );
    format!(
        "{{\n  \"bench\": \"PR9 in-run host kill and live rejoin\",\n  \"rows\": 600,\n  \"trees\": 4,\n  \"key_bits\": {},\n  \"crash_at\": [2, 0],\n  \"clean_wall_s\": {:.3},\n  \"rejoin_wall_s\": {:.3},\n  \"catchup_cost_s\": {:.3},\n  \"quarantines\": {},\n  \"rejoins\": {},\n  \"transfer_retries\": {},\n  \"bitwise_identical\": true\n}}\n",
        key_bits(),
        wall_clean.as_secs_f64(),
        wall_chaos.as_secs_f64(),
        catchup.as_secs_f64(),
        ev.quarantines,
        ev.rejoins,
        ev.transfer_retries
    )
}

/// Runs one small federated training and writes the structured run report
/// (phase durations, op counts, link fault counters, cache hit rates,
/// modeled makespans) as `vf2boost-run-report/v1` JSON.
fn run_report(path: &str) {
    let s = split_vertical(
        &generate_classification(&SyntheticConfig {
            rows: 600,
            features: 8,
            density: 1.0,
            informative_frac: 0.5,
            label_noise: 0.0,
            seed: 9,
        }),
        &[4],
    );
    let cfg = TrainConfig {
        gbdt: GbdtParams {
            num_trees: 2,
            max_layers: 4,
            binning: BinningConfig { num_bins: MICRO_BINS, max_samples: 1 << 16 },
            ..Default::default()
        },
        protocol: ProtocolConfig::vf2boost(),
        ..base_config()
    };
    let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    let json = out.report.to_json();
    std::fs::write(path, &json).expect("write run report");
    println!(
        "wrote {path} (wall {:.3} s, {} bytes on the wire)",
        out.report.wall_time.as_secs_f64(),
        out.report.total_bytes()
    );
}

/// Times one depth-2 node's histogram production both ways.
///
/// The "parent" holds half the dataset (a depth-1 node), split 1:3 into a
/// small and a large child; the large child is what the host would derive.
fn micro_bench() -> String {
    let enc = EncodingConfig { base: 16, base_exp: 8, jitter: 4 };
    let suite = Suite::paillier_seeded(key_bits(), 42, enc).expect("keygen");
    let data = generate_classification(&SyntheticConfig {
        rows: MICRO_ROWS,
        features: MICRO_FEATURES,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed: 7,
    });
    let binned =
        BinnedDataset::bin(&data, &BinningConfig { num_bins: MICRO_BINS, max_samples: 1 << 16 });
    let csr = RowMajorBins::from_binned(&binned);
    let g_vals: Vec<f64> = (0..MICRO_ROWS).map(|i| (i as f64 * 0.37).sin() * 0.5).collect();
    let h_vals: Vec<f64> = (0..MICRO_ROWS).map(|i| 0.25 - (i as f64 * 0.11).cos() * 0.05).collect();
    let enc_g = suite.encrypt_batch(&g_vals, 1).expect("encrypt g");
    let enc_h = suite.encrypt_batch(&h_vals, 2).expect("encrypt h");

    // A depth-1 parent: the first half of the rows, split 1:3.
    let parent_rows: Vec<usize> = (0..MICRO_ROWS / 2).collect();
    let split_at = parent_rows.len() / 4;
    let (small_rows, large_rows) = parent_rows.split_at(split_at);

    let build = |rows: &[usize]| -> (EncHistBuilder, EncHistBuilder) {
        let mut g = EncHistBuilder::new(&csr.col_meta, &enc, true);
        let mut h = EncHistBuilder::new(&csr.col_meta, &enc, true);
        for &row in rows {
            for &(f, bin) in csr.row(row) {
                g.add(&suite, f as usize, bin as usize, &enc_g[row]).expect("add g");
                h.add(&suite, f as usize, bin as usize, &enc_h[row]).expect("add h");
            }
        }
        (g, h)
    };

    let (parent_g, parent_h) = build(&parent_rows);
    let (small_g, small_h) = build(small_rows);

    let t0 = Instant::now();
    let (direct_g, _direct_h) = build(large_rows);
    let direct = t0.elapsed();

    let t0 = Instant::now();
    let derived_g = parent_g.subtract(&suite, &small_g).expect("derive g");
    let _derived_h = parent_h.subtract(&suite, &small_h).expect("derive h");
    let derive = t0.elapsed();

    // Sanity: the derived histogram decrypts to the direct one.
    let db = derived_g.finalize_feature(&suite, 0, None).expect("finalize");
    let xb = direct_g.finalize_feature(&suite, 0, None).expect("finalize");
    for (d, x) in db.iter().zip(&xb) {
        let dv = suite.decrypt(d).expect("decrypt");
        let xv = suite.decrypt(x).expect("decrypt");
        assert_eq!(dv.to_bits(), xv.to_bits(), "derived {dv} != direct {xv}");
    }

    let speedup = direct.as_secs_f64() / derive.as_secs_f64().max(1e-9);
    println!(
        "micro (depth-2 node, {} rows large child, {MICRO_BINS} bins x {MICRO_FEATURES} feats):",
        large_rows.len()
    );
    println!("  direct build : {:>9.3} ms", direct.as_secs_f64() * 1e3);
    println!("  subtraction  : {:>9.3} ms  ({speedup:.2}x)", derive.as_secs_f64() * 1e3);
    format!(
        "  \"depth2_node_micro\": {{\n    \"rows_parent\": {},\n    \"rows_large_child\": {},\n    \"num_bins\": {MICRO_BINS},\n    \"features\": {MICRO_FEATURES},\n    \"direct_build_ms\": {:.3},\n    \"subtraction_derive_ms\": {:.3},\n    \"speedup\": {:.2}\n  }},\n",
        parent_rows.len(),
        large_rows.len(),
        direct.as_secs_f64() * 1e3,
        derive.as_secs_f64() * 1e3,
        speedup
    )
}

/// End-to-end federated training, subtraction on vs. off.
fn end_to_end() -> String {
    let s = split_vertical(
        &generate_classification(&SyntheticConfig {
            rows: E2E_ROWS,
            features: 10,
            density: 1.0,
            informative_frac: 0.5,
            label_noise: 0.0,
            seed: 8,
        }),
        &[5],
    );
    let cfg = TrainConfig {
        gbdt: GbdtParams {
            num_trees: 2,
            max_layers: 5,
            binning: BinningConfig { num_bins: MICRO_BINS, max_samples: 1 << 16 },
            ..Default::default()
        },
        protocol: ProtocolConfig::vf2boost(),
        ..base_config()
    };
    let run = |sub: bool| {
        let cfg = TrainConfig {
            protocol: ProtocolConfig { hist_subtraction: sub, ..cfg.protocol },
            ..cfg
        };
        let t0 = Instant::now();
        let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
        (t0.elapsed(), out)
    };
    let (wall_on, on) = run(true);
    let (wall_off, off) = run(false);
    let host_on = &on.report.hosts[0];
    let host_off = &off.report.hosts[0];
    let build_on = host_on.phases.build_hist_enc;
    let build_off = host_off.phases.build_hist_enc;
    println!("end-to-end ({E2E_ROWS} rows, 2 trees, 5 layers, key_bits={}):", key_bits());
    println!(
        "  wall        on {:>8.3} s   off {:>8.3} s",
        wall_on.as_secs_f64(),
        wall_off.as_secs_f64()
    );
    println!(
        "  host build  on {:>8.3} s   off {:>8.3} s  ({:.2}x)",
        build_on.as_secs_f64(),
        build_off.as_secs_f64(),
        build_off.as_secs_f64() / build_on.as_secs_f64().max(1e-9)
    );
    println!(
        "  subtractions {}  cache hit rate {:.2}  hadds saved {}",
        host_on.events.hist_subtractions,
        host_on.events.hist_cache_hit_rate(),
        host_on.events.hadds_saved
    );
    format!(
        "  \"end_to_end\": {{\n    \"rows\": {E2E_ROWS},\n    \"trees\": 2,\n    \"max_layers\": 5,\n    \"num_bins\": {MICRO_BINS},\n    \"wall_on_s\": {:.3},\n    \"wall_off_s\": {:.3},\n    \"host_build_hist_on_s\": {:.3},\n    \"host_build_hist_off_s\": {:.3},\n    \"host_hadds_on\": {},\n    \"host_hadds_off\": {},\n    \"hist_subtractions\": {},\n    \"cache_hit_rate\": {:.3},\n    \"hadds_saved\": {}\n  }}\n",
        wall_on.as_secs_f64(),
        wall_off.as_secs_f64(),
        build_on.as_secs_f64(),
        build_off.as_secs_f64(),
        host_on.ops.hadd,
        host_off.ops.hadd,
        host_on.events.hist_subtractions,
        host_on.events.hist_cache_hit_rate(),
        host_on.events.hadds_saved
    )
}
