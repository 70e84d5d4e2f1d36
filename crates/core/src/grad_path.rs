//! The run's gradient path, decided once from shared knowledge, so nothing
//! about it is negotiated: **Raw** (two cipher streams forward, raw bins
//! back), **Prefix** (two streams, packed prefix sums back: the mock with
//! packing) or **Paired** (one `(g, h)` cipher per row, packed pair bins
//! back: every Paillier run with packing). No other code branches on it.
//! Its cipher bounds are plain data, so either role's core admits with no
//! suite, ciphers before any phase, heap, handshake or ledger check; the
//! checks are structural, since histogram *values* cannot be checked.

use std::ops::{Range, RangeInclusive};

use num_bigint::BigUint;
use vf2_crypto::encoding::EncodingConfig;
use vf2_crypto::error::CryptoError;
use vf2_crypto::packing::GhPlan;
use vf2_crypto::split_seed;
use vf2_crypto::suite::{Ciphertext, PackedCiphertext, Suite};
use vf2_gbdt::histogram::GradPair;

use crate::config::TrainConfig;
use crate::error::{PartyId, ProtocolError, TrainError};
use crate::hist_enc::{
    decrypt_feature_hist, max_exponent, pack_feature_hist, unpack_feature_hist,
    unpack_gh_feature_hist, CipherStream, DecodedBins, EncHistBuilder, TARGET_SLOT_BITS,
};
use crate::messages::{FeatureMeta, HistPayload, Msg, RawFeatureHist};
use crate::pool::Pool;
use crate::rows::ColMeta;
use crate::serve::BuilderPair;

/// One run's gradient path and the bounds every cipher on it keeps.
pub(crate) struct GradPath {
    form: Form,
    /// `n²` of the run's key; `None` under the mock (values only finite).
    nn: Option<BigUint>,
    /// The encoding's jitter window.
    window: RangeInclusive<i32>,
    /// The largest honest `|Σg|` or `Σh` of a raw bin (the mock has none).
    max_int: BigUint,
    /// The loss's `(gradient, hessian)` bounds, which size prefix sums.
    loss: (f64, f64),
}

/// The path's forms; a paired cipher carries `per_cipher` bins.
enum Form {
    Raw,
    Prefix,
    Paired { plan: GhPlan, per_cipher: usize },
}

impl GradPath {
    /// The path a run of `rows` rows under `suite` takes.
    pub fn of(cfg: &TrainConfig, suite: &Suite, rows: usize) -> Result<GradPath, TrainError> {
        let plan = cfg.gh_plan(suite, rows).map_err(TrainError::crypto("gh plan derivation"))?;
        let pk = suite.public_key();
        let form = match plan.zip(pk) {
            Some((plan, pk)) => Form::Paired { plan, per_cipher: plan.bins_per_cipher(pk) },
            None if cfg.protocol.pack_histograms => Form::Prefix,
            None => Form::Raw,
        };
        let (enc, loss) = (suite.encoding(), &cfg.gbdt.loss);
        Ok(GradPath {
            form,
            nn: pk.map(|pk| pk.nn().clone()),
            window: enc.base_exp..=max_exponent(enc),
            max_int: pk.map(|pk| pk.max_int().clone()).unwrap_or_default(),
            loss: (loss.grad_bound(), loss.hess_bound()),
        })
    }

    /// The guest's forward message of a batch from `start_row`. Streams 0/1
    /// (g, h) and 2 (pairs) of `seed` are disjoint. A Paillier batch fans
    /// out in ranges ([`encrypt_cut`]); a mock one, drawn from one stream, not.
    pub fn encrypt(
        &self,
        suite: &Suite,
        pool: &Pool,
        grads: &[GradPair],
        seed: u64,
        (tree, start_row, last): (u32, u32, bool),
    ) -> Result<Msg, CryptoError> {
        let g: Vec<f64> = grads.iter().map(|p| p.g).collect();
        let h: Vec<f64> = grads.iter().map(|p| p.h).collect();
        let cut = (if self.nn.is_some() { pool.width() } else { 1 }, g.len());
        match &self.form {
            Form::Paired { plan, .. } => encrypt_cut(pool, cut, split_seed(seed, 2), |r, s| {
                suite.encrypt_gh_batch(&g[r.clone()], &h[r], plan, s)
            })
            .map(|gh| Msg::PackedGradBatch { tree, start_row, gh, last }),
            Form::Raw | Form::Prefix => {
                let (s0, s1) = (split_seed(seed, 0), split_seed(seed, 1));
                let g = encrypt_cut(pool, cut, s0, |r, s| suite.encrypt_batch(&g[r], s))?;
                let h = encrypt_cut(pool, cut, s1, |r, s| suite.encrypt_batch(&h[r], s))?;
                Ok(Msg::GradBatch { tree, start_row, g, h, last })
            }
        }
    }

    /// The host's first check of a gradient batch: the path's forward form,
    /// every cipher in bounds, each pair at the plan's exponent.
    pub fn admit_batch(&self, msg: &Msg) -> Result<(), &'static str> {
        let (g, h, pair_exponent) = match (msg, &self.form) {
            (Msg::GradBatch { g, h, .. }, Form::Raw | Form::Prefix) => (g, &h[..], None),
            (Msg::PackedGradBatch { gh, .. }, Form::Paired { plan, .. }) => {
                (gh, &[][..], Some(plan.exponent()))
            }
            (Msg::GradBatch { .. }, _) => return Err("two-stream gradients on a paired run"),
            (Msg::PackedGradBatch { .. }, _) => return Err("paired gradients on a two-stream run"),
            _ => return Ok(()),
        };
        g.iter().chain(h).try_for_each(|c| {
            self.cipher(c)?;
            let off = pair_exponent.is_some_and(|e| c.exponent() != e);
            ensure(!off, "gradient pair off the plan's exponent")
        })
    }

    /// The guest's first check of a histogram: every cipher in bounds.
    pub fn admit_hist_ciphers(&self, msg: &Msg) -> Result<(), &'static str> {
        let Msg::NodeHistograms { payload, .. } = msg else { return Ok(()) };
        match payload {
            HistPayload::Raw(feats) => {
                feats.iter().flat_map(|f| f.g.iter().chain(&f.h)).try_for_each(|c| self.cipher(c))
            }
            HistPayload::Packed(feats) => {
                feats.iter().flat_map(|f| f.g.iter().chain(&f.h)).try_for_each(|p| self.packed(p))
            }
            HistPayload::GhPacked(feats) => {
                feats.iter().flat_map(|f| &f.packed).try_for_each(|p| self.packed(p))
            }
        }
    }

    /// A histogram's shape against its host's `metas` and the path: each run
    /// admits only the return form its hosts build ([`GradPath::payload`]),
    /// and a paired run only pair bins laid out as this party's plan (so
    /// another layout costs no decryption).
    pub fn admit_hist_shape(
        &self,
        payload: &HistPayload,
        metas: &[FeatureMeta],
    ) -> Result<(), &'static str> {
        let features = match payload {
            HistPayload::Raw(feats) => feats.len(),
            HistPayload::Packed(feats) => feats.len(),
            HistPayload::GhPacked(feats) => feats.len(),
        };
        let why = "histogram feature count disagrees with the negotiated metadata";
        ensure(features == metas.len(), why)?;
        // A packed feature's declared bins and slot total against its metadata.
        let slots = |bins: u16, runs: &[PackedCiphertext], m: &FeatureMeta| {
            let why = "packed bin declaration disagrees with the negotiated metadata";
            ensure(bins == m.num_bins, why)?;
            let total = runs.iter().map(PackedCiphertext::count).sum::<usize>();
            ensure(
                total == usize::from(bins),
                "packed slot total disagrees with the declared bin count",
            )
        };
        match (payload, &self.form) {
            (HistPayload::Raw(feats), Form::Raw) => {
                let bins = |(f, m): (&RawFeatureHist, &FeatureMeta)| {
                    f.g.len() == usize::from(m.num_bins) && f.h.len() == usize::from(m.num_bins)
                };
                let why = "histogram bin count disagrees with the negotiated metadata";
                ensure(feats.iter().zip(metas).all(bins), why)
            }
            (HistPayload::Packed(feats), Form::Prefix) => {
                feats.iter().zip(metas).try_for_each(|(f, m)| {
                    slots(f.bins, &f.g, m)?;
                    slots(f.bins, &f.h, m)
                })
            }
            (HistPayload::GhPacked(feats), Form::Paired { plan, per_cipher }) => {
                let derived = |p: &PackedCiphertext| match p {
                    PackedCiphertext::Paillier { exponent, count, slot_bits, .. } => {
                        *slot_bits == plan.pair_bits()
                            && *exponent == plan.exponent()
                            && count <= per_cipher
                    }
                    PackedCiphertext::Plain(_) => false,
                };
                feats.iter().zip(metas).try_for_each(|(f, m)| {
                    slots(f.bins, &f.packed, m)?;
                    ensure(
                        f.packed.iter().all(derived),
                        "packed pair layout differs from the derived plan",
                    )
                })
            }
            _ => Err("histogram wire form of the other gradient path"),
        }
    }

    /// An empty host builder pair shaped by `meta`, each bin as wide as
    /// `reordered` asks — but one workspace wide on the paired path, whose
    /// ciphers all sit at the plan's exponent (admission enforces it): the
    /// same walk, and a parked builder stays small.
    pub fn builders(&self, meta: &[ColMeta], enc: &EncodingConfig, reordered: bool) -> BuilderPair {
        let reordered = reordered && !matches!(self.form, Form::Paired { .. });
        let blank = || EncHistBuilder::new(meta, enc, reordered);
        (blank(), blank())
    }

    /// The host's histogram of a node of `rows` rows in the return form
    /// (paired: all in `g`), one feature at a time across `pool`.
    pub fn payload(
        &self,
        suite: &Suite,
        pool: &Pool,
        (g, h): (&EncHistBuilder, &EncHistBuilder),
        rows: usize,
    ) -> Result<HistPayload, CryptoError> {
        let features = g.num_features();
        Ok(match &self.form {
            Form::Paired { plan, .. } => HistPayload::GhPacked(per_feature(pool, features, |f| {
                g.pack_gh_feature(suite, f, plan)
            })?),
            Form::Prefix => HistPayload::Packed(per_feature(pool, features, |f| {
                let (target, (grad_bound, hess_bound)) = (Some(*self.window.end()), self.loss);
                let bins_g = g.finalize_feature(suite, f, target)?;
                let bins_h = h.finalize_feature(suite, f, target)?;
                let (enc, slot_bits) = (suite.encoding(), TARGET_SLOT_BITS);
                pack_feature_hist(
                    suite, &bins_g, &bins_h, rows, grad_bound, hess_bound, slot_bits, enc,
                )
            })?),
            Form::Raw => HistPayload::Raw(per_feature(pool, features, |f| {
                let g = g.finalize_feature(suite, f, None)?;
                Ok(RawFeatureHist { g, h: h.finalize_feature(suite, f, None)? })
            })?),
        })
    }

    /// The hessian stream a host's walk reads: none when paired.
    pub fn hessians<'a>(&self, enc_h: &'a CipherStream) -> Option<&'a CipherStream> {
        (!matches!(self.form, Form::Paired { .. })).then_some(enc_h)
    }

    /// Decrypts feature `f` of an admitted histogram of a `rows`-row node.
    pub fn decode(
        &self,
        suite: &Suite,
        payload: &HistPayload,
        f: usize,
        rows: usize,
    ) -> Result<DecodedBins, TrainError> {
        match (payload, &self.form) {
            (HistPayload::Raw(feats), Form::Raw) => decrypt_feature_hist(suite, &feats[f])
                .map_err(TrainError::crypto("histogram decryption")),
            (HistPayload::Packed(feats), Form::Prefix) => {
                let (grad_bound, hess_bound) = self.loss;
                unpack_feature_hist(suite, &feats[f], rows, grad_bound, hess_bound)
                    .map(DecodedBins::Float)
                    .map_err(TrainError::crypto("histogram unpacking"))
            }
            (HistPayload::GhPacked(feats), Form::Paired { plan, .. }) => {
                unpack_gh_feature_hist(suite, &feats[f], plan)
                    .map_err(TrainError::crypto("gh histogram unpacking"))
            }
            _ => {
                let context = "a histogram of the other gradient path past admission";
                Err(ProtocolError::InvariantViolated { party: PartyId::Guest, context }.into())
            }
        }
    }

    /// The largest honest `(|Σg|, Σh)` of a bin of a `rows`-row node.
    pub fn field_limits(&self, rows: usize) -> (BigUint, BigUint) {
        match &self.form {
            Form::Paired { plan, .. } => plan.field_limits(rows as u64),
            Form::Raw | Form::Prefix => (self.max_int.clone(), self.max_int.clone()),
        }
    }

    /// One cipher against the bounds.
    fn cipher(&self, c: &Ciphertext) -> Result<(), &'static str> {
        match (&self.nn, c) {
            (Some(nn), Ciphertext::Paillier(e)) if &e.cipher >= nn => {
                Err("ciphertext outside [0, n^2)")
            }
            (None, Ciphertext::Plain(p)) if !p.value.is_finite() => {
                Err("non-finite plaintext mock value")
            }
            (Some(_), Ciphertext::Paillier(_)) | (None, Ciphertext::Plain(_)) => ensure(
                self.window.contains(&c.exponent()),
                "cipher exponent outside the jitter window",
            ),
            _ => Err("cipher variant does not match the negotiated suite"),
        }
    }

    /// One packed cipher against the bounds (its layout is the shape's).
    fn packed(&self, p: &PackedCiphertext) -> Result<(), &'static str> {
        match (&self.nn, p) {
            (Some(nn), PackedCiphertext::Paillier { cipher, .. }) if cipher >= nn => {
                Err("packed ciphertext outside [0, n^2)")
            }
            (
                Some(_),
                PackedCiphertext::Paillier { count: 0, .. }
                | PackedCiphertext::Paillier { slot_bits: 0, .. },
            ) => Err("packed cipher declares an empty layout"),
            (Some(_), PackedCiphertext::Paillier { exponent, .. }) => {
                ensure(self.window.contains(exponent), "packed exponent outside the jitter window")
            }
            (None, PackedCiphertext::Plain(values)) => {
                ensure(values.iter().all(|v| v.is_finite()), "non-finite packed mock value")
            }
            _ => Err("packed variant does not match the negotiated suite"),
        }
    }
}

/// `Ok` when a check holds, else the refusal's context `why`.
fn ensure(holds: bool, why: &'static str) -> Result<(), &'static str> {
    holds.then_some(()).ok_or(why)
}

/// `encrypt(range, seed + range.start)` over `rows` rows cut into `m =
/// min(ranges, rows)` contiguous ranges across `pool` (range `k` is
/// `[k·rows/m, (k+1)·rows/m)`), concatenated: element `i` draws from `seed
/// + i` wherever the cuts fall, so every width gives the same ciphers.
fn encrypt_cut(
    pool: &Pool,
    (ranges, rows): (usize, usize),
    seed: u64,
    encrypt: impl Fn(Range<usize>, u64) -> Result<Vec<Ciphertext>, CryptoError> + Sync,
) -> Result<Vec<Ciphertext>, CryptoError> {
    let m = ranges.min(rows).max(1);
    let cuts = (0..m).map(|k| k * rows / m..(k + 1) * rows / m).collect();
    let parts =
        pool.map(cuts, |r: Range<usize>| encrypt(r.clone(), seed.wrapping_add(r.start as u64)));
    Ok(parts.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter().flatten().collect())
}

/// `one(f)` for each feature across `pool`; the first error wins.
fn per_feature<T: Send>(
    pool: &Pool,
    features: usize,
    one: impl Fn(usize) -> Result<T, CryptoError> + Sync,
) -> Result<Vec<T>, CryptoError> {
    pool.map((0..features).collect(), one).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::BigUint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vf2_crypto::suite::PlainNumber;
    use vf2_crypto::EncryptedNumber;

    use crate::messages::{GhPackedFeatureHist, PackedFeatureHist};
    use crate::protocol::ProtocolConfig;

    impl GradPath {
        /// This path with its pair layout replaced: a plan sized for other
        /// rows, or a key that carries `per_cipher` bins.
        pub(crate) fn with_pairs(self, plan: GhPlan, per_cipher: usize) -> GradPath {
            GradPath { form: Form::Paired { plan, per_cipher }, ..self }
        }
    }

    fn paillier() -> Suite {
        Suite::paillier_seeded(256, 7, TrainConfig::for_tests().encoding).unwrap()
    }

    /// The path a 5-row run under `suite` takes, packing on or off.
    fn path(suite: &Suite, pack_histograms: bool) -> GradPath {
        let cfg = TrainConfig::for_tests();
        let protocol = ProtocolConfig { pack_histograms, ..cfg.protocol };
        GradPath::of(&TrainConfig { protocol, ..cfg }, suite, 5).unwrap()
    }

    fn cipher(s: &Suite, v: f64) -> Ciphertext {
        let mut rng = StdRng::seed_from_u64(11);
        s.encrypt(v, &mut rng).unwrap()
    }

    fn assert_refused(r: Result<(), &'static str>, want: &str) {
        match r {
            Err(context) => assert!(context.contains(want), "context {context:?} lacks {want:?}"),
            Ok(()) => panic!("expected a refusal ({want})"),
        }
    }

    /// A two-stream batch; its rows are the host core's to check.
    fn two(g: Vec<Ciphertext>, h: Vec<Ciphertext>) -> Msg {
        Msg::GradBatch { tree: 0, start_row: 3, g, h, last: false }
    }

    /// A Paillier batch is cut across the pool, each range at `seed +
    /// start`, so every width sends the bytes width 1 sends, on both forward
    /// forms. A mock batch, whose exponents come from one stream, is never
    /// cut: it too matches width 1.
    #[test]
    fn every_pool_width_encrypts_the_bytes_of_width_1() {
        let (s, mock) = (paillier(), Suite::plain(TrainConfig::for_tests().encoding));
        let grads: Vec<GradPair> = (0..10)
            .map(|i| GradPair { g: f64::from(i) / 10.0 - 0.5, h: 0.25 - f64::from(i) * 0.01 })
            .collect();
        for (suite, pack) in [(&s, true), (&s, false), (&mock, true), (&mock, false)] {
            let path = path(suite, pack);
            let bytes = |width| {
                let pool = Pool::new(width, "test");
                let msg = path.encrypt(suite, &pool, &grads, 77, (0, 0, true)).unwrap();
                crate::wire::encode(&msg).unwrap()
            };
            let one = bytes(1);
            for width in [2, 3, 16] {
                assert!(bytes(width) == one, "{:?} pack {pack}: width {width} moved", suite.kind());
            }
        }
    }

    /// Paillier with packing pairs gradients; without packing, or under the
    /// mock, the two streams travel, and the mock packs prefix sums back.
    #[test]
    fn the_suite_and_the_packing_toggle_pick_the_form() {
        let (s, mock) = (paillier(), Suite::plain(TrainConfig::for_tests().encoding));
        let plan = TrainConfig::for_tests().gh_plan(&s, 5).unwrap().expect("a paired run");
        let per_cipher = plan.bins_per_cipher(s.public_key().unwrap());
        let form = |s: &Suite, pack| path(s, pack).form;
        assert!(matches!(form(&s, true), Form::Paired { plan: p, per_cipher: n }
            if p == plan && n == per_cipher));
        assert!(matches!(form(&s, false), Form::Raw));
        assert!(matches!(form(&mock, true), Form::Prefix));
        assert!(matches!(form(&mock, false), Form::Raw));
        // The host's public half derives the same path.
        assert!(matches!(form(&s.public_half(), true), Form::Paired { plan: p, .. } if p == plan));
    }

    /// A paired run's builders keep one workspace per bin whatever the
    /// toggle asks; the two-stream paths keep the width it asks for.
    #[test]
    fn only_the_paired_path_narrows_its_builders() {
        let (s, mock) = (paillier(), Suite::plain(TrainConfig::for_tests().encoding));
        let meta = [ColMeta { num_bins: 3, zero_bin: 0, dense: true }];
        let enc = TrainConfig::for_tests().encoding;
        let built = |path: GradPath, reordered| path.builders(&meta, &enc, reordered).0;
        let width = |reordered| EncHistBuilder::new(&meta, &enc, reordered);
        assert_eq!(built(path(&s, true), true), width(false));
        assert_eq!(built(path(&s, false), true), width(true));
        assert_eq!(built(path(&mock, true), true), width(true));
        assert_eq!(built(path(&mock, true), false), width(false));
    }

    #[test]
    fn honest_grad_batch_passes() {
        let s = paillier();
        let g = vec![cipher(&s, 0.5), cipher(&s, -0.25)];
        let h = vec![cipher(&s, 0.25), cipher(&s, 0.25)];
        path(&s, false).admit_batch(&two(g, h)).unwrap();
    }

    #[test]
    fn out_of_range_cipher_is_inadmissible() {
        let s = paillier();
        let nn = s.public_key().unwrap().nn().clone();
        let hostile = Ciphertext::Paillier(EncryptedNumber { cipher: nn, exponent: 8 });
        let ok = cipher(&s, 0.0);
        let refused = path(&s, false).admit_batch(&two(vec![hostile], vec![ok]));
        assert_refused(refused, "outside [0, n^2)");
    }

    #[test]
    fn exponent_outside_jitter_window_is_inadmissible() {
        let s = paillier();
        let mut rng = StdRng::seed_from_u64(3);
        // Window is [8, 11]; 12 and 7 both fall outside.
        for exp in [12, 7] {
            let c = s.encrypt_at(1.0, exp, &mut rng).unwrap();
            let ok = cipher(&s, 0.0);
            assert_refused(path(&s, false).admit_batch(&two(vec![c], vec![ok])), "jitter window");
        }
    }

    #[test]
    fn wrong_suite_variant_and_nan_are_inadmissible() {
        let s = paillier();
        let plain = Ciphertext::Plain(PlainNumber { value: 0.0, exponent: 8 });
        let ok = cipher(&s, 0.0);
        let refused = path(&s, false).admit_batch(&two(vec![plain], vec![ok]));
        assert_refused(refused, "negotiated suite");
        let mock = Suite::plain(TrainConfig::for_tests().encoding);
        let nan = Ciphertext::Plain(PlainNumber { value: f64::NAN, exponent: 8 });
        let ok = cipher(&mock, 0.0);
        assert_refused(path(&mock, true).admit_batch(&two(vec![nan], vec![ok])), "non-finite");
    }

    #[test]
    fn packed_grad_batch_is_admissible_only_on_a_paired_run() {
        let s = paillier();
        let (paired, two_stream) = (path(&s, true), path(&s, false));
        let Form::Paired { plan, .. } = paired.form else { panic!("a paired run") };
        let mut rng = StdRng::seed_from_u64(5);
        let pair = |rng: &mut StdRng| s.encrypt_at(0.5, plan.exponent(), rng).unwrap();
        let gh = vec![pair(&mut rng), pair(&mut rng)];
        let packed = |gh| Msg::PackedGradBatch { tree: 0, start_row: 3, gh, last: true };
        paired.admit_batch(&packed(gh.clone())).unwrap();
        assert_refused(two_stream.admit_batch(&packed(gh.clone())), "two-stream run");
        // Inside the jitter window but off the plan's exponent: rescaling a
        // pair would scale its offset too.
        let low = vec![s.encrypt_at(0.5, plan.exponent() - 1, &mut rng).unwrap()];
        assert_refused(paired.admit_batch(&packed(low)), "off the plan's exponent");
        // Each path refuses the other's batches.
        let two = two(gh.clone(), gh);
        two_stream.admit_batch(&two).unwrap();
        assert_refused(paired.admit_batch(&two), "paired run");
    }

    /// Every cipher of a histogram is checked, in every wire form; its
    /// shape is checked apart, so a payload refused for its shape passes
    /// here.
    #[test]
    fn every_histogram_cipher_is_checked_in_every_wire_form() {
        let s = paillier();
        let checks = path(&s, true);
        let hist = |payload| Msg::NodeHistograms { tree: 0, node: 0, epoch: 1, payload };
        let raw = |g: Vec<Ciphertext>| {
            HistPayload::Raw(vec![RawFeatureHist { g, h: vec![cipher(&s, 1.0)] }; 2])
        };
        // One feature too many and bins of uneven length: still admissible.
        checks.admit_hist_ciphers(&hist(raw(vec![cipher(&s, 1.0); 3]))).unwrap();
        let nn = s.public_key().unwrap().nn().clone();
        let hostile = Ciphertext::Paillier(EncryptedNumber { cipher: nn.clone(), exponent: 8 });
        assert_refused(checks.admit_hist_ciphers(&hist(raw(vec![hostile]))), "[0, n^2)");
        let mut rng = StdRng::seed_from_u64(3);
        let late = s.encrypt_at(1.0, 12, &mut rng).unwrap();
        assert_refused(checks.admit_hist_ciphers(&hist(raw(vec![late]))), "jitter window");
        let run = |cipher: BigUint, count| PackedCiphertext::Paillier {
            cipher,
            exponent: 8,
            count,
            slot_bits: 16,
        };
        let packed = |g| HistPayload::Packed(vec![PackedFeatureHist { g, h: vec![], bins: 1 }]);
        checks.admit_hist_ciphers(&hist(packed(vec![run(BigUint::from(7u32), 1)]))).unwrap();
        for (bad, want) in
            [(run(nn.clone(), 1), "[0, n^2)"), (run(BigUint::from(7u32), 0), "empty")]
        {
            assert_refused(checks.admit_hist_ciphers(&hist(packed(vec![bad]))), want);
        }
        let paired =
            |p| HistPayload::GhPacked(vec![GhPackedFeatureHist { packed: vec![p], bins: 1 }]);
        let mock = PackedCiphertext::Plain(vec![1.0]);
        let refused = checks.admit_hist_ciphers(&hist(paired(mock)));
        assert_refused(refused, "packed variant does not match");
        // Under the mock, a NaN anywhere is refused; other kinds pass.
        let m = Suite::plain(TrainConfig::for_tests().encoding);
        let nan = Ciphertext::Plain(PlainNumber { value: f64::NAN, exponent: 8 });
        let payload =
            HistPayload::Raw(vec![RawFeatureHist { g: vec![cipher(&m, 1.0)], h: vec![nan] }]);
        assert_refused(path(&m, true).admit_hist_ciphers(&hist(payload)), "non-finite");
        let placement = Msg::Placement { tree: 0, node: 99, placement: vec![] };
        path(&m, true).admit_hist_ciphers(&placement).unwrap();
    }
}
