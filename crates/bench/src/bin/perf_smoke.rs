//! Release-mode perf smoke, writing trajectory artifacts at the repo root:
//!
//! * `BENCH_PR2.json` — the ciphertext histogram-subtraction path (PR 2):
//!   a depth-2 node's direct build vs. `parent ⊖ sibling` derivation, and
//!   end-to-end training with subtraction on vs. off.
//! * `BENCH_PR7.json` — the fixed-limb Montgomery crypto core (PR 7):
//!   Enc/Dec/HAdd micro timings at 1024-bit keys for both bignum backends
//!   (fixed-limb vs. vendored num-bigint), the per-op speedups, the
//!   Dec ≫ Enc ≫ HAdd cost ordering on the steady-state (pool-backed)
//!   encryption path, and end-to-end training makespan per backend.
//! * `BENCH_PR9.json` — in-run host failure survival (PR 9): an
//!   uninterrupted run vs. one where the host is killed mid-node-loop
//!   and live-rejoins under `AwaitRejoin` — the wall-clock catch-up cost
//!   of the quarantine/rewind/re-execute cycle, with the final models
//!   verified bitwise identical.
//! * `BENCH_PR10.json` — the event-driven per-party scheduler (PR 10):
//!   eight hosts behind a heterogeneous WAN trained under the lockstep
//!   and pipelined schedulers — wall clock for both, the makespan ratio
//!   (target ≤ 0.8), the slowest-link-bound modeled makespans, and a
//!   bitwise model-identity check across every protocol mode.
//!
//! Run with `cargo run --release -p vf2-bench --bin perf_smoke`.
//!
//! With `--report <path>` it instead runs one small end-to-end federated
//! training and writes the machine-readable run report
//! (`vf2boost-run-report/v1`, see `vf2boost_core::telemetry`) to `path` —
//! the artifact ci.sh schema-checks with `jq`. `--report-pipelined <path>`
//! does the same for an 8-host run under the pipelined scheduler — the
//! artifact ci.sh's transfer/decrypt overlap gate inspects.

use std::time::{Duration, Instant};

use num_bigint::BigUint;
use vf2_bench::{base_config, key_bits};
use vf2_channel::WanConfig;
use vf2_crypto::encoding::EncodingConfig;
use vf2_crypto::montgomery::CryptoBackend;
use vf2_crypto::suite::Suite;
use vf2_crypto::{KeyPair, RandomnessPool};
use vf2_datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2_datagen::vertical::{split_even, split_vertical, VerticalScenario};
use vf2_gbdt::binning::{BinnedDataset, BinningConfig};
use vf2_gbdt::data::Dataset;
use vf2_gbdt::train::GbdtParams;
use vf2boost_core::config::{CryptoConfig, HostLossPolicy, Scheduler, WanSpread};
use vf2boost_core::hist_enc::EncHistBuilder;
use vf2boost_core::protocol::ProtocolConfig;
use vf2boost_core::rows::RowMajorBins;
use vf2boost_core::train::{train_federated, train_federated_session};
use vf2boost_core::{SessionConfig, TrainConfig};

const MICRO_ROWS: usize = 2048;
const MICRO_BINS: usize = 16;
const MICRO_FEATURES: usize = 5;
const E2E_ROWS: usize = 1200;
/// Key size for the PR 7 backend micro — the issue's acceptance point.
const PR7_KEY_BITS: u64 = 1024;

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
    if let Some(i) = args.iter().position(|a| a == "--report-pipelined") {
        let path = args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("usage: perf_smoke --report-pipelined <path>");
            std::process::exit(2);
        });
        run_report_pipelined(path);
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

    let json = pr7_backends();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR7.json");
    std::fs::write(path, &json).expect("write BENCH_PR7.json");
    println!("\nwrote {path}");

    let json = pr9_rejoin();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR9.json");
    std::fs::write(path, &json).expect("write BENCH_PR9.json");
    println!("\nwrote {path}");

    let json = pr10_scheduler();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR10.json");
    std::fs::write(path, &json).expect("write BENCH_PR10.json");
    println!("\nwrote {path}");
}

/// Hosts in the PR 10 scheduler bench (nine parties with the guest).
const PR10_HOSTS: usize = 8;

/// The eight-host scenario the PR 10 comparison trains: eighteen features
/// split evenly over nine parties, so each host holds a narrow two-feature
/// slice whose histogram answer decrypts in a couple of ciphertexts.
fn pr10_scenario(rows: usize, seed: u64) -> VerticalScenario {
    split_even(
        &generate_classification(&SyntheticConfig {
            rows,
            features: 18,
            density: 1.0,
            informative_frac: 0.5,
            label_noise: 0.0,
            seed,
        }),
        PR10_HOSTS + 1,
    )
}

/// Heterogeneous WAN for the PR 10 runs: host 0 at 300 Mbps / 500 µs,
/// the last host at a quarter of the bandwidth and four times the
/// latency, the roster interpolated in between.
fn pr10_wan(cfg: TrainConfig) -> TrainConfig {
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

/// PR 10: the event-driven per-party scheduler. Eight hosts behind a
/// heterogeneous WAN train the identical model under both schedulers; the
/// pipelined one overlaps a slow party's transfer with another's
/// decryption and batch-decrypts already-arrived answers across the
/// worker pool, so the guest's decrypt wall shrinks from per-payload
/// width (two features) to the pool width.
///
/// Like Table 5, this machine may have fewer cores than workers (the
/// reproduction environment has one), in which case the measured wall
/// cannot show the pool fan-out. The headline ratio is therefore a
/// **modeled** makespan at `workers` cores, built from measured phases
/// and the measured batch-width counters: the guest's decrypt shrinks by
/// its parallel width — `min(workers, features-per-host)` under lockstep
/// (per-feature fan-out inside one payload), `Σ⌈batch/workers⌉ / Σbatch`
/// under pipelined (cross-payload fan-out over the drained batches) —
/// and the makespan is the busiest party. The JSON records measured
/// walls, modeled makespans, the ratio (acceptance: ≤ 0.8), and a
/// bitwise identity sweep over every protocol mode.
fn pr10_scheduler() -> String {
    const PR10_WORKERS: usize = 4;
    const FEATS_PER_HOST: usize = 18 / (PR10_HOSTS + 1);
    let s = pr10_scenario(480, 10);
    // The decrypt-bound shape (raw bin ciphers, the paper's Dec ≫ HAdd
    // ordering): transfers are big, hosts are HAdd-heavy, and the guest's
    // decrypt dominates — the regime the scheduler's overlap targets.
    let timed_cfg = |scheduler: Scheduler| {
        pr10_wan(TrainConfig {
            gbdt: GbdtParams {
                num_trees: 2,
                max_layers: 5,
                binning: BinningConfig { num_bins: MICRO_BINS, max_samples: 1 << 16 },
                ..Default::default()
            },
            protocol: ProtocolConfig { pack_histograms: false, ..ProtocolConfig::vf2boost() },
            workers: PR10_WORKERS,
            scheduler,
            pipeline_depth: PR10_HOSTS,
            ..base_config()
        })
    };

    let timed = |scheduler: Scheduler| {
        let t0 = Instant::now();
        let out = train_federated(&s.hosts, &s.guest, &timed_cfg(scheduler))
            .expect("scheduler bench run succeeds");
        (t0.elapsed(), out)
    };
    let (wall_lockstep, lockstep) = timed(Scheduler::Lockstep);
    let (wall_pipelined, pipelined) = timed(Scheduler::Pipelined);

    let refs: Vec<&Dataset> = s.hosts.iter().collect();
    let lm = lockstep.model.predict_margin(&refs, &s.guest);
    let pm = pipelined.model.predict_margin(&refs, &s.guest);
    for (a, b) in lm.iter().zip(&pm) {
        assert_eq!(a.to_bits(), b.to_bits(), "schedulers trained different models: {a} vs {b}");
    }

    // Modeled makespan at `workers` cores: replace the guest's serial
    // decrypt with its pool-parallel wall, keep every other phase and
    // every host as measured, then take the busiest party.
    let modeled_makespan = |out: &vf2boost_core::train::TrainOutput, dec_scale: f64| -> f64 {
        let g = &out.report.guest.phases;
        let guest = g.busy().as_secs_f64() - g.decrypt_find.as_secs_f64() * (1.0 - dec_scale);
        out.report.hosts.iter().map(|h| h.phases.busy().as_secs_f64()).fold(guest, f64::max)
    };
    let lockstep_scale = 1.0 / PR10_WORKERS.min(FEATS_PER_HOST) as f64;
    let ev = &pipelined.report.guest.events;
    let pipelined_scale = if ev.sched_batch_hists == 0 {
        1.0
    } else {
        ev.sched_batch_rounds as f64 / ev.sched_batch_hists as f64
    };
    let modeled_lockstep = modeled_makespan(&lockstep, lockstep_scale);
    let modeled_pipelined = modeled_makespan(&pipelined, pipelined_scale);

    // Bitwise identity across every protocol mode (fast, mock crypto).
    let modes = [
        ("seq-raw", ProtocolConfig::baseline()),
        ("seq-packed", ProtocolConfig { pack_histograms: true, ..ProtocolConfig::baseline() }),
        ("opt-raw", ProtocolConfig { pack_histograms: false, ..ProtocolConfig::vf2boost() }),
        ("opt-packed", ProtocolConfig::vf2boost()),
    ];
    let ms = pr10_scenario(240, 11);
    let mrefs: Vec<&Dataset> = ms.hosts.iter().collect();
    for (name, protocol) in modes {
        let mode_cfg = |scheduler: Scheduler| {
            pr10_wan(TrainConfig {
                gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
                crypto: CryptoConfig::Mock,
                protocol,
                scheduler,
                pipeline_depth: 8,
                ..base_config()
            })
        };
        let run = |scheduler: Scheduler| {
            train_federated(&ms.hosts, &ms.guest, &mode_cfg(scheduler))
                .unwrap_or_else(|f| panic!("[{name}] mode sweep failed: {}", f.error))
                .model
                .predict_margin(&mrefs, &ms.guest)
        };
        let (a, b) = (run(Scheduler::Lockstep), run(Scheduler::Pipelined));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "[{name}] schedulers diverged: {x} vs {y}");
        }
    }

    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let wall_ratio = wall_pipelined.as_secs_f64() / wall_lockstep.as_secs_f64().max(1e-9);
    let ratio = modeled_pipelined / modeled_lockstep.max(1e-9);
    let dec_lockstep = lockstep.report.guest.phases.decrypt_find.as_secs_f64();
    let dec_pipelined = pipelined.report.guest.phases.decrypt_find.as_secs_f64();
    println!(
        "\nPR10 event-driven scheduler ({PR10_HOSTS} hosts, 480 rows, key_bits={}, workers={PR10_WORKERS}, heterogeneous WAN, machine cores {cores}):",
        key_bits()
    );
    println!(
        "  wall (measured)  lockstep {:>8.3} s   pipelined {:>8.3} s  ({wall_ratio:.2}; flat when cores < workers)",
        wall_lockstep.as_secs_f64(),
        wall_pipelined.as_secs_f64()
    );
    println!(
        "  guest dec+find   lockstep {:>8.3} s   pipelined {:>8.3} s",
        dec_lockstep, dec_pipelined
    );
    println!(
        "  batches: {} committed, {} answers, {} pool rounds (decrypt scale lockstep {lockstep_scale:.2} vs pipelined {pipelined_scale:.2})",
        ev.sched_batches, ev.sched_batch_hists, ev.sched_batch_rounds
    );
    println!(
        "  modeled makespan lockstep {modeled_lockstep:>8.3} s   pipelined {modeled_pipelined:>8.3} s  (ratio {ratio:.2}, target <= 0.80; bitwise identical in all {} modes)",
        modes.len()
    );
    format!(
        "{{\n  \"bench\": \"PR10 event-driven per-party scheduler\",\n  \"hosts\": {PR10_HOSTS},\n  \"rows\": 480,\n  \"trees\": 2,\n  \"key_bits\": {},\n  \"workers\": {PR10_WORKERS},\n  \"machine_cores\": {cores},\n  \"wan\": {{ \"base_bandwidth_bytes_per_sec\": 37.5e6, \"base_latency_us\": 500, \"slowest_bandwidth_frac\": 0.25, \"latency_mult\": 4.0 }},\n  \"measured\": {{ \"lockstep_wall_s\": {:.3}, \"pipelined_wall_s\": {:.3}, \"wall_ratio\": {wall_ratio:.3} }},\n  \"modeled\": {{\n    \"note\": \"makespan at `workers` cores from measured phases: guest decrypt scaled by its parallel width (lockstep: per-feature fan-out; pipelined: measured batch rounds), busiest party wins\",\n    \"lockstep_makespan_s\": {modeled_lockstep:.3},\n    \"pipelined_makespan_s\": {modeled_pipelined:.3},\n    \"lockstep_decrypt_scale\": {lockstep_scale:.3},\n    \"pipelined_decrypt_scale\": {pipelined_scale:.3}\n  }},\n  \"pipelined_over_lockstep\": {ratio:.3},\n  \"guest_decrypt_find_lockstep_s\": {dec_lockstep:.3},\n  \"guest_decrypt_find_pipelined_s\": {dec_pipelined:.3},\n  \"sched_batches\": {},\n  \"sched_batch_hists\": {},\n  \"sched_batch_rounds\": {},\n  \"modes_bitwise_identical\": [\"seq-raw\", \"seq-packed\", \"opt-raw\", \"opt-packed\"]\n}}\n",
        key_bits(),
        wall_lockstep.as_secs_f64(),
        wall_pipelined.as_secs_f64(),
        ev.sched_batches,
        ev.sched_batch_hists,
        ev.sched_batch_rounds
    )
}

/// Runs the 8-host pipelined smoke and writes its structured run report —
/// the artifact ci.sh's overlap gate (`busy > max single phase` per
/// party) inspects.
fn run_report_pipelined(path: &str) {
    let s = pr10_scenario(360, 12);
    let cfg = pr10_wan(TrainConfig {
        gbdt: GbdtParams {
            num_trees: 2,
            max_layers: 4,
            binning: BinningConfig { num_bins: MICRO_BINS, max_samples: 1 << 16 },
            ..Default::default()
        },
        protocol: ProtocolConfig::vf2boost(),
        workers: 4,
        scheduler: Scheduler::Pipelined,
        pipeline_depth: 8,
        ..base_config()
    });
    let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    let json = out.report.to_json();
    std::fs::write(path, &json).expect("write run report");
    println!(
        "wrote {path} ({} parties, wall {:.3} s, {} bytes on the wire)",
        out.report.hosts.len() + 1,
        out.report.wall_time.as_secs_f64(),
        out.report.total_bytes()
    );
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

/// Per-backend Paillier primitive timings at [`PR7_KEY_BITS`].
struct BackendMicro {
    label: String,
    /// Fresh encryption: CRT `r^n` obfuscation + `g^m` (the modpow-bound
    /// primitive the fixed-limb core targets).
    enc_fresh_ms: f64,
    /// Steady-state encryption: `g^m` combined with a recombined factor
    /// from a combine-mode [`RandomnessPool`] — two modular multiplies,
    /// no modpow. This is the path the protocol's obfuscation pool buys,
    /// and the one the paper's Dec ≫ Enc ≫ HAdd ordering describes.
    enc_pooled_us: f64,
    /// CRT decryption.
    dec_ms: f64,
    /// Homomorphic addition (one `mod n²` multiply).
    hadd_us: f64,
}

fn backend_micro(keys: &KeyPair, backend: CryptoBackend) -> BackendMicro {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let kp = keys.with_backend(backend);
    let mut rng = StdRng::seed_from_u64(5);
    let v = BigUint::from(0x1234_5678_9abcu64);
    let c = kp.private.encrypt_raw(&v, &mut rng);
    let c2 = kp.private.encrypt_raw(&v, &mut rng);

    let n_enc = 16;
    let t0 = Instant::now();
    for _ in 0..n_enc {
        let _ = kp.private.encrypt_raw(&v, &mut rng);
    }
    let enc_fresh_ms = t0.elapsed().as_secs_f64() * 1e3 / n_enc as f64;

    // Pool built outside the timed window: combine mode recombines pooled
    // factors pairwise without consuming them, so refills never trigger
    // and each draw is one multiply.
    let pool = RandomnessPool::new(&kp.private, 16, true, 99);
    let n_pooled = 512;
    let t0 = Instant::now();
    for _ in 0..n_pooled {
        let rn = pool.next_rn().expect("combine pool never drains");
        let _ = kp.public.encrypt_raw_with_rn(&v, &rn);
    }
    let enc_pooled_us = t0.elapsed().as_secs_f64() * 1e6 / n_pooled as f64;

    let n_dec = 48;
    let t0 = Instant::now();
    for _ in 0..n_dec {
        let _ = kp.private.decrypt_raw(&c);
    }
    let dec_ms = t0.elapsed().as_secs_f64() * 1e3 / n_dec as f64;

    let n_hadd = 4096;
    let t0 = Instant::now();
    let mut acc = c.clone();
    for _ in 0..n_hadd {
        acc = kp.public.add_raw(&acc, &c2);
    }
    let hadd_us = t0.elapsed().as_secs_f64() * 1e6 / n_hadd as f64;

    BackendMicro { label: kp.public.backend_label(), enc_fresh_ms, enc_pooled_us, dec_ms, hadd_us }
}

/// PR 7: both bignum backends over the same 1024-bit key — micro
/// primitives, speedups, cost ordering, and end-to-end makespan.
fn pr7_backends() -> String {
    println!("\nPR7 crypto backends ({PR7_KEY_BITS}-bit key micro):");
    let keys = KeyPair::generate_seeded(PR7_KEY_BITS, 42).expect("keygen");
    let fixed = backend_micro(&keys, CryptoBackend::Fixed);
    let nb = backend_micro(&keys, CryptoBackend::NumBigint);
    for m in [&fixed, &nb] {
        println!(
            "  {:<14} enc {:>8.3} ms   enc(pool) {:>7.2} us   dec {:>8.3} ms   hadd {:>6.2} us",
            m.label, m.enc_fresh_ms, m.enc_pooled_us, m.dec_ms, m.hadd_us
        );
    }
    let enc_speedup = nb.enc_fresh_ms / fixed.enc_fresh_ms.max(1e-9);
    let dec_speedup = nb.dec_ms / fixed.dec_ms.max(1e-9);
    // The paper's cost ordering, on the steady-state encryption path.
    let ordering = fixed.dec_ms * 1e3 > fixed.enc_pooled_us && fixed.enc_pooled_us > fixed.hadd_us;
    println!("  speedup        enc {enc_speedup:.2}x   dec {dec_speedup:.2}x   Dec>Enc(pool)>HAdd: {ordering}");

    // End-to-end makespan per backend at the default experiment key size.
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
    let e2e = |backend: CryptoBackend| {
        let cfg = TrainConfig {
            gbdt: GbdtParams {
                num_trees: 2,
                max_layers: 4,
                binning: BinningConfig { num_bins: MICRO_BINS, max_samples: 1 << 16 },
                ..Default::default()
            },
            crypto_backend: backend,
            ..base_config()
        };
        let t0 = Instant::now();
        let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
        (t0.elapsed().as_secs_f64(), out.report.guest.ops.modmul)
    };
    let (wall_fixed, modmul_fixed) = e2e(CryptoBackend::Fixed);
    let (wall_nb, modmul_nb) = e2e(CryptoBackend::NumBigint);
    let e2e_speedup = wall_nb / wall_fixed.max(1e-9);
    println!(
        "  end-to-end ({} rows, key_bits={}): fixed {wall_fixed:.3} s   num-bigint {wall_nb:.3} s  ({e2e_speedup:.2}x)",
        600,
        key_bits()
    );

    format!(
        "{{\n  \"bench\": \"PR7 fixed-limb Montgomery crypto core\",\n  \"micro_key_bits\": {PR7_KEY_BITS},\n  \"micro\": {{\n    \"fixed\": {{ \"label\": \"{}\", \"enc_fresh_ms\": {:.3}, \"enc_pooled_us\": {:.2}, \"dec_ms\": {:.3}, \"hadd_us\": {:.2} }},\n    \"num_bigint\": {{ \"label\": \"{}\", \"enc_fresh_ms\": {:.3}, \"enc_pooled_us\": {:.2}, \"dec_ms\": {:.3}, \"hadd_us\": {:.2} }},\n    \"enc_speedup\": {:.2},\n    \"dec_speedup\": {:.2},\n    \"ordering_dec_enc_hadd\": {}\n  }},\n  \"end_to_end\": {{\n    \"rows\": 600,\n    \"trees\": 2,\n    \"key_bits\": {},\n    \"fixed_wall_s\": {:.3},\n    \"num_bigint_wall_s\": {:.3},\n    \"speedup\": {:.2},\n    \"guest_modmuls_fixed\": {},\n    \"guest_modmuls_num_bigint\": {}\n  }}\n}}\n",
        fixed.label,
        fixed.enc_fresh_ms,
        fixed.enc_pooled_us,
        fixed.dec_ms,
        fixed.hadd_us,
        nb.label,
        nb.enc_fresh_ms,
        nb.enc_pooled_us,
        nb.dec_ms,
        nb.hadd_us,
        enc_speedup,
        dec_speedup,
        ordering,
        key_bits(),
        wall_fixed,
        wall_nb,
        e2e_speedup,
        modmul_fixed,
        modmul_nb
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
