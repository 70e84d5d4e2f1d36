//! Every layer timed from outside: the root-round replay and the micro
//! loops of the traced process.
//!
//! Nothing here reads a timer inside the program. The benchmark calls each
//! layer's public functions itself, at the workload's key size, bin count
//! and shapes, and records a span and a count around every call:
//!
//! * round `setup`: data generation, binning, key generation and the limb
//!   kernels (the last two only where the workload has a key);
//! * round `round`: one root-node round driven in protocol order —
//!   gradients → `encrypt_batch` → `wire::encode` → link → `wire::decode`
//!   → the host storing the ciphers → `EncHistBuilder::add` over all rows
//!   → `finalize_feature` / `pack_feature_hist` → encode → link → decode →
//!   `unpack_feature_hist` → `find_best_split` — whose decrypted histograms
//!   are checked against the plaintext ones;
//! * round `micro`: the operations a root round does not reach in
//!   isolation (Dec, HAdd, scaled HAdd, negation, pack — skipped without a
//!   key — histogram subtraction, the centralized fit, the bare link).
//!
//! A workload without a key runs the same rounds through `Suite::plain`
//! and reports no `crypto.*` number.
//!
//! Beyond the functions timed, the replay has to name their argument
//! types: `Msg::{GradBatch, NodeHistograms}` and `HistPayload::Packed`
//! (what `wire::encode` takes), `PackingPlan` and the
//! `PackedCiphertext::Paillier` it is read from (what `Suite::pack`
//! takes), and `max_exponent` (the exponent `pack_feature_hist` requires
//! of `finalize_feature`'s output).
//!
//! The replay follows the two-stream `GradBatch` / packed-prefix-sum path
//! that `ProtocolConfig::default()` selects at the commit that added this
//! benchmark. It is frozen on purpose: if a later commit changes what the
//! program does by default, `train_wall_s` moves and these do not, and
//! the explained fractions say so.

use std::time::{Duration, Instant};

use bytes::Bytes;
use num_bigint::BigUint;
use vf2_channel::{duplex, Endpoint, WanConfig};
use vf2_crypto::encoding::EncodingConfig;
use vf2_crypto::packing::PackingPlan;
use vf2_crypto::suite::{Ciphertext, PackedCiphertext, Suite};
use vf2_crypto::MontExp;
use vf2_gbdt::binning::BinnedDataset;
use vf2_gbdt::data::Dataset;
use vf2_gbdt::histogram::{build_layer_histograms, GradPair, Histogram};
use vf2_gbdt::split::find_best_split;
use vf2_gbdt::train::Trainer;
use vf2boost_core::hist_enc::{
    max_exponent, pack_feature_hist, unpack_feature_hist, EncHistBuilder,
};
use vf2boost_core::messages::{HistPayload, Msg, PackedFeatureHist};
use vf2boost_core::rows::RowMajorBins;
use vf2boost_core::wire;
use vf2boost_core::TrainConfig;

use crate::sample::Record;
use crate::spans::{LayerTotal, Tracer};
use crate::workloads::Workload;

/// Rows per `GradBatch` message (the protocol's default blaster batch).
const BATCH_ROWS: usize = 4096;
/// Target slot width handed to `pack_feature_hist` (the protocol default).
const TARGET_SLOT_BITS: u32 = 64;
/// Largest gap tolerated between a decrypted and a plaintext histogram
/// bin (fixed-point precision is 2⁻⁴⁰ per addend).
const HIST_TOLERANCE: f64 = 1e-5;

/// Repeats `op` inside one span until `budget` is spent (checking the
/// clock every `batch` calls) or it fails; the span's count is `units`
/// per call.
fn repeat<T, E>(
    t: &mut Tracer,
    name: &'static str,
    budget: Duration,
    batch: usize,
    units: u64,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<(), E> {
    t.time(name, || {
        let started = Instant::now();
        let mut calls = 0u64;
        loop {
            for _ in 0..batch {
                match op() {
                    Ok(out) => drop(std::hint::black_box(out)),
                    Err(e) => return (Err(e), calls * units),
                }
                calls += 1;
            }
            if started.elapsed() >= budget {
                return (Ok(()), calls * units);
            }
        }
    })
}

/// [`repeat`] for an operation that cannot fail.
fn repeat_ok<T>(
    t: &mut Tracer,
    name: &'static str,
    budget: Duration,
    batch: usize,
    units: u64,
    mut op: impl FnMut() -> T,
) {
    let done: Result<(), std::convert::Infallible> =
        repeat(t, name, budget, batch, units, || Ok(op()));
    let Ok(()) = done;
}

/// A deterministic integer below `modulus` with the same bit length.
fn operand(modulus: &BigUint, salt: u64) -> BigUint {
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let bytes: Vec<u8> = (0..modulus.bits().div_ceil(8))
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect();
    BigUint::from_bytes_le(&bytes) % modulus
}

/// A message body of `len` bytes.
fn payload(len: usize) -> Bytes {
    Bytes::from(vec![0xa5u8; len])
}

/// Carries `msg` across the link as the protocol does — `wire::encode`,
/// `Endpoint::send`, `Endpoint::recv`, `wire::decode` — one span per step,
/// each counting bytes.
fn ship(t: &mut Tracer, from: &Endpoint, to: &Endpoint, msg: &Msg) -> Result<Msg, String> {
    let bytes = t
        .time("wire.encode", || {
            let bytes = wire::encode(msg);
            let len = bytes.as_ref().map_or(0, |b| b.len() as u64);
            (bytes, len)
        })
        .map_err(|e| format!("replay wire: {e:?}"))?;
    let env = t
        .time("channel.transfer", || {
            let len = bytes.len() as u64;
            from.send(msg.kind(), bytes);
            (to.recv(), len)
        })
        .map_err(|e| format!("replay link: {e:?}"))?;
    t.time("wire.decode", || {
        let len = env.payload.len() as u64;
        (wire::decode(env.kind, env.payload), len)
    })
    .map_err(|e| format!("replay wire: {e:?}"))
}

/// What the replay leaves behind for the micro loops.
struct ReplayArtifacts {
    csr: RowMajorBins,
    grads: Vec<GradPair>,
    total: GradPair,
    enc_g: Vec<Ciphertext>,
    builder_g: EncHistBuilder,
    bins_h: Vec<Ciphertext>,
    packed: PackedFeatureHist,
}

/// `vf2-crypto` through the suite, on ciphers the round produced.
fn crypto_micro(
    t: &mut Tracer,
    suite: &Suite,
    art: &ReplayArtifacts,
    budget: Duration,
) -> Result<(), String> {
    let crypto = |e| format!("micro crypto: {e}");
    let first = &art.enc_g[0];
    let same = art.enc_g[1..].iter().find(|c| c.exponent() == first.exponent());
    let other = art.enc_g[1..].iter().find(|c| c.exponent() != first.exponent());
    let (same, other) = (same.unwrap_or(first), other.unwrap_or(first));
    repeat(t, "crypto.decrypt", budget, 1, 1, || suite.decrypt(first)).map_err(crypto)?;
    repeat(t, "crypto.hadd", budget, 16, 1, || suite.add(first, same)).map_err(crypto)?;
    repeat(t, "crypto.hadd_scaled", budget, 4, 1, || suite.add(first, other)).map_err(crypto)?;
    let to_negate: Vec<&Ciphertext> = art.enc_g.iter().take(64).collect();
    repeat(t, "crypto.neg_batch", budget, 1, to_negate.len() as u64, || {
        suite.neg_batch(&to_negate)
    })
    .map_err(crypto)?;
    // Pack exactly what the round packed: feature 0's finalized hessian
    // bins, at the slot layout the round chose (`Suite::pack` takes the
    // layout as a `PackingPlan`).
    let Some(first_packed @ PackedCiphertext::Paillier { count, slot_bits, .. }) =
        art.packed.h.first()
    else {
        return Err("micro: the round packed no Paillier cipher".into());
    };
    let plan = PackingPlan { slot_bits: *slot_bits, slots: *count };
    let slots = &art.bins_h[..plan.slots.min(art.bins_h.len())];
    repeat(t, "crypto.pack", budget, 1, slots.len() as u64, || suite.pack(slots, &plan))
        .map_err(crypto)?;
    repeat(t, "crypto.unpack_decrypt", budget, 1, 1, || suite.unpack_decrypt(first_packed))
        .map_err(crypto)
}

/// Everything the traced process measures outside `train_federated`.
pub struct LayerRun<'a> {
    w: &'a Workload,
    seed: u64,
    encoding: EncodingConfig,
    /// The span recorder (written out by the caller).
    pub tracer: Tracer,
    /// The measurements, by metric name.
    pub rec: Record,
}

impl<'a> LayerRun<'a> {
    /// A run for `w` at `seed`, using the library's default encoding.
    pub fn new(w: &'a Workload, seed: u64) -> LayerRun<'a> {
        LayerRun {
            w,
            seed,
            encoding: TrainConfig::default().encoding,
            tracer: Tracer::new(),
            rec: Record::default(),
        }
    }

    /// Round `setup`: generates the joined table and the workload's suite.
    /// A workload without keys gets the plain suite and no `crypto.*`
    /// number.
    pub fn setup(&mut self) -> Result<(Dataset, Suite), String> {
        let (w, seed, encoding) = (self.w, self.seed, self.encoding);
        let root = self.tracer.open("setup");
        let joined = self.tracer.time("datagen.generate", || (w.generate(), w.rows as u64));
        let binning = w.gbdt().binning;
        repeat_ok(&mut self.tracer, "gbdt.bin", w.micro_budget, 1, w.rows as u64, || {
            BinnedDataset::bin(&joined, &binning)
        });
        let suite = match w.key_bits {
            Some(bits) => {
                let keyed = self
                    .tracer
                    .time("crypto.keygen", || (Suite::paillier_seeded(bits, seed, encoding), 1))
                    .map_err(|e| format!("key generation: {e}"))?;
                self.kernels(&keyed);
                keyed
            }
            None => Suite::plain(encoding),
        };
        self.tracer.close(root, 1);
        let totals = self.tracer.totals_under(root);
        self.rec.set("datagen.gen_mrows_s", totals["datagen.generate"].units_per_sec() / 1e6);
        self.rec.set("gbdt.bin_mrows_s", totals["gbdt.bin"].units_per_sec() / 1e6);
        for (metric, span, scale) in [
            ("crypto.keygen_s", "crypto.keygen", 1.0),
            ("crypto.modmul_ns", "crypto.modmul", 1e9),
            ("crypto.modpow_us", "crypto.modpow", 1e6),
        ] {
            if let Some(total) = totals.get(span) {
                self.rec.set(metric, total.secs_per_unit() * scale);
            }
        }
        Ok((joined, suite))
    }

    /// Limb kernels at the key's `n²` width: one Montgomery product, and
    /// one exponentiation by an `n`-sized exponent (the `rⁿ` of every
    /// encryption).
    fn kernels(&mut self, keyed: &Suite) {
        let Some(pk) = keyed.public_key() else { return };
        let Some(mont) = MontExp::new(pk.nn()) else { return };
        let (a, b) = (operand(pk.nn(), self.seed), operand(pk.nn(), self.seed ^ 0xff));
        let budget = self.w.micro_budget;
        repeat_ok(&mut self.tracer, "crypto.modmul", budget, 64, 1, || mont.modmul(&a, &b));
        repeat_ok(&mut self.tracer, "crypto.modpow", budget, 1, 1, || mont.modpow(&a, pk.n()));
    }

    /// Round `round`: the root-node round in protocol order, over host 0's
    /// slice. Returns the pieces the micro loops reuse.
    fn replay(
        &mut self,
        suite: &Suite,
        host: &Dataset,
        labels: &[f32],
    ) -> Result<ReplayArtifacts, String> {
        let (w, seed, encoding) = (self.w, self.seed, self.encoding);
        let gbdt = w.gbdt();
        let (grad_bound, hess_bound) = (gbdt.loss.grad_bound(), gbdt.loss.hess_bound());
        let rows = labels.len();
        let link = w.wan_config();
        let t = &mut self.tracer;
        let crypto = |e| format!("replay crypto: {e}");

        // The host's binned view exists before the round starts (parties
        // bin once per run), so it is prepared outside the root span.
        let binned = BinnedDataset::bin(host, &gbdt.binning);
        let csr = RowMajorBins::from_binned(&binned);
        let (guest_ep, host_ep) = duplex(link);

        let root = t.open("round");
        let (grads, g, h, total) = t.time("gbdt.gradients", || {
            let base = vec![gbdt.loss.base_score(); rows];
            let grads = gbdt.loss.grad_hess_all(labels, &base);
            let g: Vec<f64> = grads.iter().map(|p| p.g).collect();
            let h: Vec<f64> = grads.iter().map(|p| p.h).collect();
            let total = grads.iter().fold(GradPair::ZERO, |acc, &p| acc + p);
            ((grads, g, h, total), rows as u64)
        });

        // guest → host: blaster batches of encrypted gradient statistics.
        let (mut enc_g, mut enc_h) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
        let mut ciphers_carried = 2 * rows as u64;
        let batches = rows.div_ceil(BATCH_ROWS);
        for (b, start) in (0..rows).step_by(BATCH_ROWS).enumerate() {
            let end = (start + BATCH_ROWS).min(rows);
            let batch_seed = seed.wrapping_add((b as u64) << 32);
            let msg = t
                .time("crypto.encrypt_batch", || {
                    let g = suite.encrypt_batch(&g[start..end], batch_seed);
                    let h = suite.encrypt_batch(&h[start..end], batch_seed ^ 0x5555_5555);
                    (g.and_then(|g| h.map(|h| (g, h))), 2 * (end - start) as u64)
                })
                .map(|(g, h)| Msg::GradBatch {
                    tree: 0,
                    start_row: start as u32,
                    g,
                    h,
                    last: b + 1 == batches,
                })
                .map_err(crypto)?;
            let decoded = ship(t, &guest_ep, &host_ep, &msg)?;
            let Msg::GradBatch { g, h, .. } = decoded else {
                return Err("replay: a gradient batch decoded as another message".into());
            };
            // The host keeps every row's ciphers for the whole tree.
            t.time("host.store", || {
                let stored = (g.len() + h.len()) as u64;
                enc_g.extend(g);
                enc_h.extend(h);
                drop(msg);
                ((), stored)
            });
        }

        // host: BuildHistA over every row of the root node.
        let mut builder_g = EncHistBuilder::new(&csr.col_meta, &encoding, true);
        let mut builder_h = EncHistBuilder::new(&csr.col_meta, &encoding, true);
        t.time("hist_enc.add", || {
            let mut adds = 0u64;
            let mut result = Ok(());
            'rows: for row in 0..rows {
                for &(f, bin) in csr.row(row) {
                    let (f, bin) = (f as usize, bin as usize);
                    result = builder_g
                        .add(suite, f, bin, &enc_g[row])
                        .and_then(|()| builder_h.add(suite, f, bin, &enc_h[row]));
                    if result.is_err() {
                        break 'rows;
                    }
                    adds += 2;
                }
            }
            (result, adds)
        })
        .map_err(crypto)?;

        // host: finalize, shift, prefix-sum and pack each feature.
        let target = Some(max_exponent(&encoding));
        let mut features = Vec::with_capacity(csr.num_features());
        let mut kept_bins_h = Vec::new();
        for f in 0..csr.num_features() {
            let bins = csr.col_meta[f].num_bins as u64;
            let (bins_g, bins_h) = t
                .time("hist_enc.finalize", || {
                    let g = builder_g.finalize_feature(suite, f, target);
                    let h = builder_h.finalize_feature(suite, f, target);
                    (g.and_then(|g| h.map(|h| (g, h))), 2 * bins)
                })
                .map_err(crypto)?;
            let packed = t
                .time("hist_enc.pack", || {
                    let packed = pack_feature_hist(
                        suite,
                        &bins_g,
                        &bins_h,
                        rows,
                        grad_bound,
                        hess_bound,
                        TARGET_SLOT_BITS,
                        &encoding,
                    );
                    (packed, 1)
                })
                .map_err(crypto)?;
            features.push(packed);
            if f == 0 {
                kept_bins_h = bins_h;
            }
        }
        ciphers_carried += features.iter().map(|p| (p.g.len() + p.h.len()) as u64).sum::<u64>();

        // host → guest: the node's packed histograms.
        let msg = Msg::NodeHistograms {
            tree: 0,
            node: 0,
            epoch: 0,
            payload: HistPayload::Packed(features),
        };
        let decoded = ship(t, &host_ep, &guest_ep, &msg)?;
        let Msg::NodeHistograms { payload: HistPayload::Packed(features), .. } = decoded else {
            return Err("replay: a histogram message decoded as another message".into());
        };

        // guest: FindSplitA — one decryption per packed cipher, then the
        // split search over the recovered bins.
        let mut unpacked = Vec::with_capacity(features.len());
        for (f, feat) in features.iter().enumerate() {
            let bins = t
                .time("hist_enc.unpack", || {
                    (unpack_feature_hist(suite, feat, rows, grad_bound, hess_bound), 1)
                })
                .map_err(crypto)?;
            let hist = Histogram { bins };
            t.time("gbdt.find_best_split", || {
                (std::hint::black_box(find_best_split(f, &hist, total, &gbdt.split)), 1)
            });
            unpacked.push(hist);
        }
        t.close(root, 1);

        // The round's output must be the plaintext histogram of the same
        // rows: that is what makes the protocol lossless.
        let plain = build_layer_histograms(&binned, &grads, &vec![0i32; rows], &[total]);
        let worst = unpacked
            .iter()
            .enumerate()
            .flat_map(|(f, hist)| hist.bins.iter().zip(&plain.hist(f, 0).bins))
            .map(|(a, b)| (a.g - b.g).abs().max((a.h - b.h).abs()))
            .fold(0.0, f64::max);
        if unpacked.len() != csr.num_features() || worst.is_nan() || worst > HIST_TOLERANCE {
            return Err(format!("replay: decrypted root histograms are off by {worst}"));
        }

        let totals = t.totals_under(root);
        let layers_s: f64 = totals.values().map(|l| l.self_s).sum();
        self.rec.set("replay.root_s", t.duration_s(root));
        self.rec.set("replay.layers_s", layers_s);
        let us = |l: &LayerTotal| l.secs_per_unit() * 1e6;
        self.rec.set("crypto.enc_us", us(&totals["crypto.encrypt_batch"]));
        self.rec.set("hist_enc.add_per_s", totals["hist_enc.add"].units_per_sec());
        self.rec.set("hist_enc.finalize_bin_us", us(&totals["hist_enc.finalize"]));
        self.rec.set("hist_enc.pack_feature_us", us(&totals["hist_enc.pack"]));
        self.rec.set("hist_enc.unpack_feature_us", us(&totals["hist_enc.unpack"]));
        self.rec.set("gbdt.split_find_us", us(&totals["gbdt.find_best_split"]));
        self.rec.set("wire.encode_mb_s", totals["wire.encode"].units_per_sec() / 1e6);
        self.rec.set("wire.decode_mb_s", totals["wire.decode"].units_per_sec() / 1e6);
        self.rec.set(
            "wire.bytes_per_cipher",
            totals["wire.encode"].count as f64 / ciphers_carried as f64,
        );
        let packed = features.into_iter().next().ok_or("replay: the host has no feature")?;
        Ok(ReplayArtifacts { csr, grads, total, enc_g, builder_g, bins_h: kept_bins_h, packed })
    }

    /// Rounds `round` and `micro`, plus the centralized fit. Returns the
    /// centralized model's final training loss (the oracle's number).
    pub fn layers(&mut self, joined: &Dataset, suite: &Suite) -> Result<f64, String> {
        let w = self.w;
        let scenario = w.split(joined);
        let labels = joined.labels().ok_or("the joined table has no labels")?;
        let art = self.replay(suite, &scenario.hosts[0], labels)?;
        let gbdt = w.gbdt();
        let crypto = |e| format!("micro crypto: {e}");

        let root = self.tracer.open("micro");
        let t = &mut self.tracer;
        let budget = w.micro_budget;

        if w.key_bits.is_some() {
            crypto_micro(t, suite, &art, budget)?;
        }

        // hist_enc: derive the larger child as parent ⊖ smaller child.
        let mut child = EncHistBuilder::new(&art.csr.col_meta, &self.encoding, true);
        for row in 0..w.rows / 2 {
            for &(f, bin) in art.csr.row(row) {
                child.add(suite, f as usize, bin as usize, &art.enc_g[row]).map_err(crypto)?;
            }
        }
        let bins: u64 = art.csr.col_meta.iter().map(|m| u64::from(m.num_bins)).sum();
        repeat(t, "hist_enc.subtract", budget, 1, bins, || art.builder_g.subtract(suite, &child))
            .map_err(crypto)?;

        // vf2-gbdt in the clear, over the joined table.
        let binned = BinnedDataset::bin(joined, &gbdt.binning);
        let root_slot = vec![0i32; w.rows];
        repeat_ok(t, "gbdt.layer_hist", budget, 1, w.rows as u64, || {
            build_layer_histograms(&binned, &art.grads, &root_slot, &[art.total])
        });
        let table = w.oracle_table(joined);
        let model = t.time("gbdt.central_fit", || (Trainer::new(gbdt).fit(&table), 1));
        let central_loss = gbdt.loss.mean_loss(labels, &model.predict_margin(&table));

        // vf2-channel on its own: first with no delay at all (what CRC,
        // acks and sequencing cost), then on the workload's link (or the
        // paper's, when the workload's is instant).
        let (a, b) = duplex(WanConfig::instant());
        let small = payload(64);
        t.time("channel.instant_small", || {
            let n = 20_000u64;
            (0..n).for_each(|_| a.send(0, small.clone()));
            ((0..n).for_each(|_| drop(b.recv())), n)
        });
        let large = payload(1 << 20);
        t.time("channel.instant_large", || {
            let n = 32u64;
            (0..n).for_each(|_| a.send(0, large.clone()));
            ((0..n).for_each(|_| drop(b.recv())), n * large.len() as u64)
        });
        let mut link = w.wan_config();
        if !link.bandwidth_bytes_per_sec.is_finite() {
            link = WanConfig::paper_public_network();
        }
        let (a, b) = duplex(link);
        t.time("channel.ping_pong", || {
            let n = 5u64;
            for _ in 0..n {
                a.send(0, small.clone());
                drop(b.recv());
                b.send(0, small.clone());
                drop(a.recv());
            }
            ((), n)
        });
        let bulk = payload((link.bandwidth_bytes_per_sec * 0.2) as usize);
        t.time("channel.bulk", || {
            a.send(0, bulk.clone());
            (drop(b.recv()), bulk.len() as u64)
        });
        t.close(root, 1);

        let totals = t.totals_under(root);
        for (metric, span) in [
            ("crypto.dec_us", "crypto.decrypt"),
            ("crypto.hadd_us", "crypto.hadd"),
            ("crypto.hadd_scaled_us", "crypto.hadd_scaled"),
            ("crypto.neg_us", "crypto.neg_batch"),
            ("crypto.pack_slot_us", "crypto.pack"),
            ("crypto.unpack_dec_us", "crypto.unpack_decrypt"),
            ("hist_enc.subtract_bin_us", "hist_enc.subtract"),
        ] {
            if let Some(total) = totals.get(span) {
                self.rec.set(metric, total.secs_per_unit() * 1e6);
            }
        }
        self.rec.set("gbdt.hist_mrows_s", totals["gbdt.layer_hist"].units_per_sec() / 1e6);
        self.rec.set("gbdt.central_fit_s", totals["gbdt.central_fit"].self_s);
        self.rec.set("channel.instant_msgs_s", totals["channel.instant_small"].units_per_sec());
        self.rec.set("channel.instant_mb_s", totals["channel.instant_large"].units_per_sec() / 1e6);
        self.rec.set(
            "channel.goodput_frac",
            totals["channel.bulk"].units_per_sec() / link.bandwidth_bytes_per_sec,
        );
        self.rec.set(
            "channel.rtt_over_cfg",
            totals["channel.ping_pong"].secs_per_unit() / (2.0 * link.latency.as_secs_f64()),
        );
        Ok(central_loss)
    }
}
