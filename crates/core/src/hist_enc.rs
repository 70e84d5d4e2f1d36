//! Encrypted histogram construction — the host's BuildHistA phase.
//!
//! [`EncHistBuilder`] accumulates encrypted gradient statistics into
//! per-feature, per-bin cipher sums under two strategies:
//!
//! * **Naive** (the baseline): one accumulator per bin; adding a cipher
//!   whose exponent differs triggers a *scaling* (`SMul` by `B^Δe`), the
//!   cost the paper measures as `O(N·(E−1)/E)` extra operations.
//! * **Re-ordered** (§5.1): one workspace per distinct exponent; additions
//!   always hit the matching workspace (no scaling), and the `E` workspaces
//!   are merged with at most `E−1` scalings per bin at finalization.
//!
//! [`pack_feature_hist`] implements §5.2's "integration with histograms":
//! shift the first gradient bin by `count × Bound + 1`, prefix-sum the
//! bins, and pack the prefix ciphers so the guest needs one decryption per
//! `t` bins. Hessians are non-negative and need no shift.
//!
//! On the paired path (`TrainConfig::gh_plan`) a row's single cipher holds
//! `(g, h)` in the offset layout of [`GhPlan`], one builder accumulates
//! both statistics, and [`EncHistBuilder::pack_gh_feature`] replaces the
//! shift and the prefix sums: every bin is topped up to the constant
//! offset `N·B_g` from the plain row count kept beside its cipher, and
//! bins pack directly.
//!
//! A builder is one flat arena: every bin of every feature, each with
//! `width` workspaces (the jitter window when re-ordered; one when naive)
//! and a row count, behind per-feature bin offsets. The workspaces are one
//! store typed by the suite kind of the first add the builder accepts
//! (`EncHistBuilder::new` takes no suite, and a refused add fixes nothing).
//! Under Paillier they hold [`ResidentCiphertext`]s: a cipher stays in its
//! key's Montgomery form from the moment the host admits it
//! ([`Suite::enter`]) to the moment a bin leaves — once per bin on the
//! two-stream [`EncHistBuilder::finalize_feature`], once per packed cipher
//! on the paired path. A HAdd in between is one stack limb product
//! ([`Suite::add_resident`]), tallied per worker and published once per
//! [`EncHistBuilder::add_rows`] call. Under the mock they hold plain values
//! with their occupancy, 24 bytes where a resident cipher slot takes 32.
//! The host's per-row streams are typed the same way ([`CipherStream`]): a
//! mock row is a 16-byte plain value. A walk takes its kind from the stream
//! once and runs one walk body instantiated per kind, so the mock's HAdd is
//! an inlined float add ([`PlainNumber::hadd`]) into a plain value, at
//! plaintext cost.
//!
//! The guest's half is [`DecodedBins`], a feature's bins as they decrypt:
//! hosts ship each split's smaller child only; the guest derives the larger
//! as `parent − smaller` ([`DecodedBins::checked_sub`]).

use std::borrow::Cow;
use std::ops::Range;

use num_bigint::{BigUint, Sign};
use vf2_crypto::counters::OpSnapshot;
use vf2_crypto::encoding::{EncodingConfig, FixedPoint};
use vf2_crypto::error::{CryptoError, Result};
use vf2_crypto::packing::{GhPlan, PackingPlan};
use vf2_crypto::suite::{Ciphertext, PlainNumber, ResidentCiphertext, Suite, SuiteKind};
use vf2_gbdt::histogram::{GradPair, Histogram};

use rayon::prelude::*;

use crate::messages::{GhPackedFeatureHist, PackedFeatureHist, RawFeatureHist};
use crate::rows::{ColMeta, RowMajorBins};

/// An encrypted histogram over every feature of one node, for one
/// statistic (gradients or hessians) — or, on the paired path, for both.
///
/// One flat arena holds every bin of every feature: feature `f`'s bins are
/// arena bins `offsets[f]..offsets[f + 1]`, and arena bin `i` keeps its
/// `width` workspaces at `store[i·width..(i + 1)·width]` and the number of
/// rows folded into it at `rows[i]`. The count is the host's own plaintext
/// knowledge (it placed every row); the paired path's top-up is computed
/// from it. The default builder holds no feature.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EncHistBuilder {
    /// Arena bin offsets: one per feature, then the end.
    offsets: Vec<usize>,
    /// Every bin's workspaces, `width` per bin.
    store: Workspaces,
    /// Every bin's row count.
    rows: Vec<u32>,
    /// Workspaces per bin: the jitter window when re-ordered (slot `s`
    /// holds exponent `base_exp + s`), one when naive (it holds any
    /// exponent; [`Suite::add_resident`] scales a mismatch in).
    width: usize,
    reordered: bool,
    base_exp: i32,
}

/// An arena's workspaces, typed by the suite kind of the first add the
/// builder accepted: none before it, so a builder that refused every add
/// is still a fresh one.
#[derive(Debug, Clone, Default, PartialEq)]
enum Workspaces {
    /// No add accepted yet: every workspace is empty.
    #[default]
    Unfixed,
    /// Paillier ciphers in their key's resident form.
    Paillier(Vec<Option<ResidentCiphertext>>),
    /// The mock's values, each with its occupancy.
    Plain(Vec<Option<PlainNumber>>),
}

impl Workspaces {
    /// Workspace `k`'s cipher, `None` while it is empty.
    fn get(&self, k: usize) -> Option<Cow<'_, ResidentCiphertext>> {
        match self {
            Workspaces::Unfixed => None,
            Workspaces::Paillier(slots) => slots[k].as_ref().map(Cow::Borrowed),
            Workspaces::Plain(slots) => slots[k].map(|p| Cow::Owned(ResidentCiphertext::Plain(p))),
        }
    }
}

/// One statistic's ciphers by row, as a host keeps them for a whole tree,
/// typed by the suite kind of the first batch it took in: Paillier ciphers
/// in their key's resident form, or the mock's plain values at 16 bytes a
/// row where a resident cipher takes 32. A histogram walk takes its kind
/// from the stream ([`EncHistBuilder::add_rows`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub enum CipherStream {
    /// Nothing taken in yet.
    #[default]
    Unfixed,
    /// Paillier ciphers in their key's resident form.
    Paillier(Vec<ResidentCiphertext>),
    /// The mock's values.
    Plain(Vec<PlainNumber>),
}

// A mock stream's row is a value and its exponent: 16 bytes, half a
// resident cipher's.
const _: () = assert!(std::mem::size_of::<PlainNumber>() == 16);

impl CipherStream {
    /// Enters each of `ciphers` into its key's resident form and appends
    /// it. The first non-empty batch fixes the stream's kind to `suite`'s
    /// and reserves room for `rows` rows in all; a cipher of the other
    /// kind is [`CryptoError::SuiteMismatch`].
    pub fn extend(&mut self, suite: &Suite, ciphers: &[Ciphertext], rows: usize) -> Result<()> {
        if *self == CipherStream::Unfixed && !ciphers.is_empty() {
            *self = match suite.kind() {
                SuiteKind::Paillier => CipherStream::Paillier(Vec::with_capacity(rows)),
                SuiteKind::Plain => CipherStream::Plain(Vec::with_capacity(rows)),
            };
        }
        for c in ciphers {
            match (&mut *self, suite.enter(c)?) {
                (CipherStream::Paillier(stream), c @ ResidentCiphertext::Paillier { .. }) => {
                    stream.push(c)
                }
                (CipherStream::Plain(stream), ResidentCiphertext::Plain(p)) => stream.push(p),
                _ => return Err(CryptoError::SuiteMismatch),
            }
        }
        Ok(())
    }
}

/// One suite kind's workspace: the element type of its [`Workspaces`]
/// store, the cipher its [`CipherStream`] holds, and the kind's HAdd of
/// one into the other.
trait Workspace: Sized + Send {
    /// The kind's cipher, as its stream holds it.
    type Cipher: Sync;

    /// This kind's workspaces in `store`, an unfixed store first fixed to
    /// `len` empty ones; a store of the other kind is
    /// [`CryptoError::SuiteMismatch`].
    fn typed(store: &mut Workspaces, len: usize) -> Result<&mut [Self]>;

    /// This kind's ciphers in `stream` (none in an unfixed one); a stream
    /// of the other kind is [`CryptoError::SuiteMismatch`].
    fn stream(stream: &CipherStream) -> Result<&[Self::Cipher]>;

    /// The fixed-point exponent `c` carries.
    fn exponent(c: &Self::Cipher) -> i32;

    /// Folds `c` in: an occupied workspace adds it, an empty one takes a
    /// copy, a cipher of the other kind is [`CryptoError::SuiteMismatch`]
    /// and changes nothing. The work is tallied into `tally`.
    fn fold(&mut self, suite: &Suite, c: &Self::Cipher, tally: &mut OpSnapshot) -> Result<()>;
}

/// Paillier: HAdds on the limb core ([`Suite::add_resident`]).
impl Workspace for Option<ResidentCiphertext> {
    type Cipher = ResidentCiphertext;

    fn typed(store: &mut Workspaces, len: usize) -> Result<&mut [Self]> {
        if *store == Workspaces::Unfixed {
            *store = Workspaces::Paillier(vec![None; len]);
        }
        match store {
            Workspaces::Paillier(slots) => Ok(slots),
            _ => Err(CryptoError::SuiteMismatch),
        }
    }

    fn stream(stream: &CipherStream) -> Result<&[ResidentCiphertext]> {
        match stream {
            CipherStream::Unfixed => Ok(&[]),
            CipherStream::Paillier(ciphers) => Ok(ciphers),
            CipherStream::Plain(_) => Err(CryptoError::SuiteMismatch),
        }
    }

    fn exponent(c: &ResidentCiphertext) -> i32 {
        c.exponent()
    }

    #[inline]
    fn fold(
        &mut self,
        suite: &Suite,
        c: &ResidentCiphertext,
        tally: &mut OpSnapshot,
    ) -> Result<()> {
        match self {
            Some(acc) => suite.add_resident(acc, c, tally),
            None if matches!(c, ResidentCiphertext::Paillier { .. }) => {
                *self = Some(c.clone());
                Ok(())
            }
            None => Err(CryptoError::SuiteMismatch),
        }
    }
}

/// The mock: [`PlainNumber::hadd`], the float add [`Suite::add_resident`]'s
/// mock arm runs too, inlined into the walk.
impl Workspace for Option<PlainNumber> {
    type Cipher = PlainNumber;

    fn typed(store: &mut Workspaces, len: usize) -> Result<&mut [Self]> {
        if *store == Workspaces::Unfixed {
            *store = Workspaces::Plain(vec![None; len]);
        }
        match store {
            Workspaces::Plain(slots) => Ok(slots),
            _ => Err(CryptoError::SuiteMismatch),
        }
    }

    fn stream(stream: &CipherStream) -> Result<&[PlainNumber]> {
        match stream {
            CipherStream::Unfixed => Ok(&[]),
            CipherStream::Plain(values) => Ok(values),
            CipherStream::Paillier(_) => Err(CryptoError::SuiteMismatch),
        }
    }

    fn exponent(c: &PlainNumber) -> i32 {
        c.exponent
    }

    #[inline]
    fn fold(&mut self, _: &Suite, y: &PlainNumber, tally: &mut OpSnapshot) -> Result<()> {
        match self {
            Some(x) => x.hadd(y, tally),
            None => *self = Some(*y),
        }
        Ok(())
    }
}

impl EncHistBuilder {
    /// An empty builder shaped by the column metadata: two allocations,
    /// whatever the feature and bin counts. The workspaces are allocated by
    /// the first accepted add, in its suite kind's form.
    pub fn new(col_meta: &[ColMeta], encoding: &EncodingConfig, reordered: bool) -> Self {
        let width = if reordered { encoding.jitter.max(1) as usize } else { 1 };
        let mut offsets = Vec::with_capacity(col_meta.len() + 1);
        offsets.push(0);
        for m in col_meta {
            offsets.push(offsets[offsets.len() - 1] + usize::from(m.num_bins));
        }
        let bins = offsets[col_meta.len()];
        EncHistBuilder {
            offsets,
            store: Workspaces::Unfixed,
            rows: vec![0; bins],
            width,
            reordered,
            base_exp: encoding.base_exp,
        }
    }

    /// Accumulates one cipher into `(feature, bin)`, entering it into its
    /// key's resident form first.
    ///
    /// The cipher may come off the wire, so its exponent is untrusted: a
    /// value outside the negotiated jitter window is a typed error, never
    /// an out-of-bounds slot index. A refused add leaves the builder as it
    /// was, and a builder holding one suite kind refuses the other's.
    pub fn add(&mut self, suite: &Suite, feature: usize, bin: usize, c: &Ciphertext) -> Result<()> {
        self.bins_of(feature, "EncHistBuilder::add feature index")?;
        let c = suite.enter(c)?;
        let mut tally = OpSnapshot::default();
        let done = self.fixing(|b| match &c {
            ResidentCiphertext::Paillier { .. } => {
                b.add_one::<Option<ResidentCiphertext>>(suite, feature, bin, &c, &mut tally)
            }
            ResidentCiphertext::Plain(p) => {
                b.add_one::<Option<PlainNumber>>(suite, feature, bin, p, &mut tally)
            }
        });
        suite.counters().publish(&tally);
        done
    }

    /// [`EncHistBuilder::add`]'s fold, into the store of kind `S`.
    fn add_one<S: Workspace>(
        &mut self,
        suite: &Suite,
        feature: usize,
        bin: usize,
        c: &S::Cipher,
        tally: &mut OpSnapshot,
    ) -> Result<()> {
        let mut columns = self.columns::<S>()?;
        let slot = columns.slot_of(S::exponent(c));
        let at = locate(columns.offsets, feature, bin)?;
        fold_at(&mut columns.arena(), at, (c, &slot), suite, tally)
    }

    /// Accumulates the stored `(feature, bin)` entries of every row in
    /// `rows` into a node's builder pair in one walk: `enc_g[row]` into
    /// `g` and, when given, `enc_h[row]` into `h` (on the packed forward
    /// path a row's single cipher carries both statistics and only `g` is
    /// fed; a fed `h` must be shaped like `g`). Cipher for cipher what the
    /// per-entry [`EncHistBuilder::add`] loop over `rows` produces, on
    /// ciphers the host entered once.
    ///
    /// The walk's kind is the `g` stream's (the suite's while it holds
    /// nothing), resolved once, here: the walk below is instantiated per
    /// kind, so the mock's walk reads 16-byte plain values and its HAdd
    /// inlines to a float add into a plain workspace. A stream or a builder
    /// of the other kind is [`CryptoError::SuiteMismatch`] before any bin
    /// changes. Inside a `rayon::ThreadPool::install` of
    /// width `w` the features are cut into contiguous ranges of
    /// `⌈features / w⌉` columns, one worker each. Every worker walks `rows`
    /// in list order and touches only its own columns (one contiguous range
    /// of the row's block cells; its tail entries are feature-sorted:
    /// binary-search to the range's start, stop at its end), so each bin
    /// receives its ciphers in the same order at every
    /// width: no shard copies, no merge, and ciphers and op counts that do
    /// not depend on the width. Each worker tallies its HAdds locally; the
    /// call publishes them once.
    pub fn add_rows(
        suite: &Suite,
        csr: &RowMajorBins,
        rows: &[u32],
        (g, enc_g): (&mut EncHistBuilder, &CipherStream),
        (h, enc_h): (&mut EncHistBuilder, Option<&CipherStream>),
    ) -> Result<()> {
        for builder in [&*g, &*h] {
            if csr.num_features() != builder.num_features() {
                return Err(CryptoError::ShapeMismatch {
                    context: "EncHistBuilder::add_rows feature count",
                    left: csr.num_features(),
                    right: builder.num_features(),
                });
            }
        }
        // The walk locates a bin once for both builders.
        if enc_h.is_some() {
            g.check_same_shape(h, "EncHistBuilder::add_rows gradient vs hessian")?;
        }
        let per_worker = g.num_features().div_ceil(rayon::current_num_threads()).max(1);
        let job = (suite, csr, rows, per_worker);
        let walk_kind = |g: &mut EncHistBuilder, h: Option<&mut EncHistBuilder>| {
            let (g, h) = ((g, enc_g), (h, enc_h));
            match (enc_g, suite.kind()) {
                (CipherStream::Paillier(_), _) | (CipherStream::Unfixed, SuiteKind::Paillier) => {
                    walk::<Option<ResidentCiphertext>>(job, g, h)
                }
                _ => walk::<Option<PlainNumber>>(job, g, h),
            }
        };
        // An unfed `h` is left as it is.
        let shards = g.fixing(|g| match enc_h {
            Some(_) => h.fixing(|h| walk_kind(g, Some(h))),
            None => walk_kind(g, None),
        })?;
        for (tally, _) in &shards {
            suite.counters().publish(tally);
        }
        shards.into_iter().try_for_each(|(_, done)| done)
    }

    /// Runs `accumulate` on the builder. A builder that held no suite kind
    /// before holds none after unless an add was accepted: the kind is
    /// fixed by the first accepted add, never by a refused one.
    fn fixing<T>(&mut self, accumulate: impl FnOnce(&mut Self) -> T) -> T {
        let unfixed = self.store == Workspaces::Unfixed;
        let out = accumulate(self);
        // Every accepted add counts a row.
        if unfixed && self.rows.iter().all(|&r| r == 0) {
            self.store = Workspaces::Unfixed;
        }
        out
    }

    /// Feature `feature`'s arena bins, or a typed error naming `context`
    /// for a feature the builder does not have.
    fn bins_of(&self, feature: usize, context: &'static str) -> Result<Range<usize>> {
        match self.offsets.get(feature..).unwrap_or_default() {
            [start, end, ..] => Ok(*start..*end),
            _ => Err(CryptoError::ShapeMismatch {
                context,
                left: feature,
                right: self.num_features(),
            }),
        }
    }

    /// Arena bin `i`'s occupied workspaces, in exponent order.
    fn occupied(&self, i: usize) -> impl Iterator<Item = Cow<'_, ResidentCiphertext>> {
        (i * self.width..(i + 1) * self.width).filter_map(|k| self.store.get(k))
    }

    /// Every feature's workspaces of kind `S`, borrowed for writing.
    fn columns<S: Workspace>(&mut self) -> Result<Columns<'_, S>> {
        let len = self.rows.len() * self.width;
        Ok(Columns {
            first: 0,
            offsets: &self.offsets,
            slots: S::typed(&mut self.store, len)?,
            rows: &mut self.rows,
            width: self.width,
            reordered: self.reordered,
            base_exp: self.base_exp,
        })
    }

    /// The features cut into runs of `per_run` (the last may be shorter),
    /// each borrowed for writing; none for a builder without features.
    fn runs<S: Workspace>(&mut self, per_run: usize) -> Result<Vec<Columns<'_, S>>> {
        let mut runs = Vec::new();
        let mut rest = self.columns()?;
        while rest.features() > 0 {
            let features = per_run.min(rest.features());
            let (run, tail) = rest.split(features);
            runs.push(run);
            rest = tail;
        }
        Ok(runs)
    }

    /// Rejects operand pairs whose strategy, feature count, per-feature
    /// bin counts or workspace width disagree. Binary builder operations
    /// zip the two arenas, so a mismatch would otherwise silently pair
    /// unrelated bins — at a trust boundary that must be a typed error.
    fn check_same_shape(&self, other: &EncHistBuilder, context: &'static str) -> Result<()> {
        let mismatch = |left, right| Err(CryptoError::ShapeMismatch { context, left, right });
        if self.reordered != other.reordered {
            return mismatch(usize::from(self.reordered), usize::from(other.reordered));
        }
        if self.num_features() != other.num_features() {
            return mismatch(self.num_features(), other.num_features());
        }
        for (mine, theirs) in self.offsets.windows(2).zip(other.offsets.windows(2)) {
            if mine[1] - mine[0] != theirs[1] - theirs[0] {
                return mismatch(mine[1] - mine[0], theirs[1] - theirs[0]);
            }
        }
        if self.width != other.width {
            return mismatch(self.width, other.width);
        }
        Ok(())
    }

    /// Arena bin `i`'s workspaces, each leaving the resident form, merged
    /// into a single cipher (at most `E−1` scalings under re-ordered
    /// accumulation); `None` for an empty bin.
    fn merged(&self, suite: &Suite, i: usize) -> Result<Option<Ciphertext>> {
        let mut out: Option<Ciphertext> = None;
        for s in self.occupied(i) {
            let s = suite.leave(&s)?;
            out = Some(match out {
                None => s,
                Some(prev) => suite.add(&prev, &s)?,
            });
        }
        Ok(out)
    }

    /// Finalizes one feature's bins into ciphers.
    ///
    /// With `target_exp = Some(e)`, every bin is normalized to exponent `e`
    /// (required before packing); re-ordered workspaces merge with at most
    /// `E−1` scalings per bin. With `None`, bins keep their natural
    /// exponents (the raw-wire baseline).
    pub fn finalize_feature(
        &self,
        suite: &Suite,
        feature: usize,
        target_exp: Option<i32>,
    ) -> Result<Vec<Ciphertext>> {
        self.bins_of(feature, "EncHistBuilder::finalize_feature feature index")?
            .map(|i| {
                Ok(match (self.merged(suite, i)?, target_exp) {
                    (Some(c), Some(t)) => suite.rescale_to(&c, t.max(c.exponent()))?,
                    (Some(c), None) => c,
                    // Empty bins ship as full-size zero ciphers so that the
                    // wire sizes (and the WAN model built on them) stay
                    // honest — see Suite::zero_obfuscated.
                    (None, t) => suite.zero_obfuscated(t.unwrap_or(self.base_exp)),
                })
            })
            .collect()
    }

    /// Packs one feature's GH-pair bins for the return path, one
    /// [`Suite::pack_gh`] per run of `t` bins: each bin is topped up by the
    /// public [`GhPlan::top_up`] of its row count, so every bin leaves at
    /// the constant offset `N·B_g` and its plaintext says nothing about how
    /// many rows fell into it; an empty bin packs the suite's obfuscated
    /// zero. The bins' resident ciphers pack as they are — one Horner pass
    /// per packed cipher, whose top-ups fold into one plaintext factor —
    /// and leave the resident form once per packed cipher.
    ///
    /// Unlike [`pack_feature_hist`] there is no shift and no prefix sum:
    /// each topped-up bin is a non-negative integer below `2^pair_bits`,
    /// so bins pack into slots of exactly that width — no byte rounding,
    /// no [`TARGET_SLOT_BITS`] floor. Pair ciphers all live at the plan's
    /// exponent (admission enforces it; a bin holding another is a typed
    /// error), so nothing is rescaled. Paired bins only exist under
    /// Paillier.
    pub fn pack_gh_feature(
        &self,
        suite: &Suite,
        feature: usize,
        plan: &GhPlan,
    ) -> Result<GhPackedFeatureHist> {
        let bins = self.bins_of(feature, "EncHistBuilder::pack_gh_feature feature index")?;
        if bins.is_empty() {
            return Err(CryptoError::ShapeMismatch {
                context: "pack_gh_feature needs at least one bin",
                left: 0,
                right: 1,
            });
        }
        let pk = suite.public_key().ok_or(CryptoError::SuiteMismatch)?;
        let per_cipher = plan.bins_per_cipher(pk).clamp(1, bins.len());
        let packed = bins
            .clone()
            .step_by(per_cipher)
            .map(|start| {
                let slots = (start..bins.end.min(start + per_cipher))
                    .map(|i| {
                        let mut occupied = self.occupied(i);
                        let first = occupied.next();
                        if let (Some(a), Some(b)) = (&first, occupied.next()) {
                            return Err(CryptoError::ShapeMismatch {
                                context: "gh bin holding ciphers at two exponents",
                                left: a.exponent().unsigned_abs() as usize,
                                right: b.exponent().unsigned_abs() as usize,
                            });
                        }
                        Ok((first, u64::from(self.rows[i])))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let slots: Vec<_> = slots.iter().map(|(c, rows)| (c.as_deref(), *rows)).collect();
                suite.pack_gh(&slots, plan)
            })
            .collect::<Result<_>>()?;
        Ok(GhPackedFeatureHist { packed, bins: bins.len() as u16 })
    }

    /// Derives `self ⊖ other` bin-wise: the histogram-subtraction trick in
    /// the ciphertext domain (`self` = parent, `other` = the directly built
    /// sibling, result = the larger child). No party runs this: it is the
    /// reference [`DecodedBins::checked_sub`] is tested against (and timed).
    ///
    /// Costs one negation plus one HAdd per bin *occupied in `other`*,
    /// instead of one HAdd per (row, feature) entry of the larger child —
    /// and all the negations of one derivation share a single modular
    /// inverse ([`Suite::neg_batch`], Montgomery's trick), without which
    /// the per-bin inverse would dwarf the saved HAdds. In re-ordered
    /// builders the subtraction runs per exponent workspace: matching
    /// slots share an exponent by construction, so no scaling is ever
    /// triggered and the result is again a well-formed re-ordered builder
    /// (finalize/pack apply downstream unchanged — the packing shift
    /// depends on row count, so packing must happen *after* derivation).
    pub fn subtract(&self, suite: &Suite, other: &EncHistBuilder) -> Result<EncHistBuilder> {
        self.check_same_shape(other, "EncHistBuilder::subtract")?;
        // Every cipher occupied in `other`, in arena order, negated as one
        // batch.
        let (at, occupied): (Vec<usize>, Vec<Ciphertext>) = (0..other.rows.len() * other.width)
            .filter_map(|k| other.store.get(k).map(|c| Ok((k, suite.leave(&c)?))))
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        let negated = suite.neg_batch(&occupied.iter().collect::<Vec<_>>())?;
        let rows = self.rows.iter().zip(&other.rows).map(|(&a, &b)| {
            // The sibling's rows are a subset of the parent's.
            a.checked_sub(b).ok_or(CryptoError::ShapeMismatch {
                context: "EncHistBuilder::subtract row counts",
                left: a as usize,
                right: b as usize,
            })
        });
        let mut derived = EncHistBuilder {
            offsets: self.offsets.clone(),
            store: self.store.clone(),
            rows: rows.collect::<Result<_>>()?,
            width: self.width,
            reordered: self.reordered,
            base_exp: self.base_exp,
        };
        // Each negation folds into the parent's matching workspace.
        let mut negations = CipherStream::Unfixed;
        negations.extend(suite, &negated, negated.len())?;
        let mut tally = OpSnapshot::default();
        let done = match suite.kind() {
            SuiteKind::Paillier => {
                derived.fold_in::<Option<ResidentCiphertext>>(suite, &at, &negations, &mut tally)
            }
            SuiteKind::Plain => {
                derived.fold_in::<Option<PlainNumber>>(suite, &at, &negations, &mut tally)
            }
        };
        suite.counters().publish(&tally);
        done?;
        Ok(derived)
    }

    /// Folds the `i`-th cipher of `ciphers` into workspace `at[i]` of the
    /// store of kind `S`; no fold leaves the store as it is.
    fn fold_in<S: Workspace>(
        &mut self,
        suite: &Suite,
        at: &[usize],
        ciphers: &CipherStream,
        tally: &mut OpSnapshot,
    ) -> Result<()> {
        let ciphers = S::stream(ciphers)?;
        if ciphers.is_empty() {
            return Ok(());
        }
        let slots = S::typed(&mut self.store, self.rows.len() * self.width)?;
        for (&k, c) in at.iter().zip(ciphers) {
            slots[k].fold(suite, c, tally)?;
        }
        Ok(())
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Consecutive features of one builder, their workspaces of kind `S`
/// borrowed for writing: the whole builder under [`EncHistBuilder::add`],
/// one worker's share under [`EncHistBuilder::add_rows`].
struct Columns<'a, S> {
    /// The builder's index of the run's first feature.
    first: usize,
    /// The run's arena offsets (the builder's own): one per feature, then
    /// the end.
    offsets: &'a [usize],
    /// The run's workspaces and row counts, from its first bin on.
    slots: &'a mut [S],
    rows: &'a mut [u32],
    width: usize,
    reordered: bool,
    base_exp: i32,
}

impl<'a, S: Workspace> Columns<'a, S> {
    /// Number of features in the run.
    fn features(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The run cut after its first `features` features.
    fn split(self, features: usize) -> (Columns<'a, S>, Columns<'a, S>) {
        let bins = self.offsets[features] - self.offsets[0];
        let (slots, rest_slots) = self.slots.split_at_mut(bins * self.width);
        let (rows, rest_rows) = self.rows.split_at_mut(bins);
        let tail = Columns {
            first: self.first + features,
            offsets: &self.offsets[features..],
            slots: rest_slots,
            rows: rest_rows,
            ..self
        };
        (Columns { offsets: &self.offsets[..=features], slots, rows, ..self }, tail)
    }

    /// The workspace a cipher of exponent `exponent` takes in any bin: its
    /// place in the jitter window when re-ordered (a typed error outside
    /// it), the one slot when naive.
    fn slot_of(&self, exponent: i32) -> Result<usize> {
        if !self.reordered {
            return Ok(0);
        }
        let delta = i64::from(exponent) - i64::from(self.base_exp);
        usize::try_from(delta).ok().filter(|&s| s < self.width).ok_or(CryptoError::ShapeMismatch {
            context: "cipher exponent outside the jitter window",
            left: delta.unsigned_abs() as usize,
            right: self.width,
        })
    }

    /// The run's workspaces and row counts, borrowed for folding.
    fn arena(&mut self) -> Arena<'_, S> {
        (&mut *self.slots, &mut *self.rows, self.width)
    }
}

/// A run's workspaces (`width` per arena bin) and each bin's row count.
type Arena<'a, S> = (&'a mut [S], &'a mut [u32], usize);

/// The arena bin (counted from the run's first, whose arena `offsets`
/// these are) of bin `bin` of the run's `column`-th feature, which the
/// caller knows the run holds; a bin past the feature's is a typed error.
#[inline(always)]
fn locate(offsets: &[usize], column: usize, bin: usize) -> Result<usize> {
    let start = offsets[column];
    let num_bins = offsets[column + 1] - start;
    if bin >= num_bins {
        let context = "EncHistBuilder::add bin index";
        return Err(CryptoError::ShapeMismatch { context, left: bin, right: num_bins });
    }
    Ok(start - offsets[0] + bin)
}

/// Folds `c`, whose [`Columns::slot_of`] is `slot`, into arena bin `at`
/// with the kind's [`Workspace::fold`], its work tallied into `tally` —
/// the kernel behind [`EncHistBuilder::add`] and
/// [`EncHistBuilder::add_rows`]. Every check runs before the bin changes,
/// so a refused cipher leaves the bin's sum and row count as they were.
/// Always inlined: the walk then keeps the kernel's state in registers
/// instead of calling out once per entry.
#[inline(always)]
fn fold_at<S: Workspace>(
    (slots, counts, width): &mut Arena<'_, S>,
    at: usize,
    (c, slot): (&S::Cipher, &Result<usize>),
    suite: &Suite,
    tally: &mut OpSnapshot,
) -> Result<()> {
    let slot = slot.as_ref().map_err(Clone::clone)?;
    slots[at * *width + slot].fold(suite, c, tally)?;
    counts[at] = counts[at].saturating_add(1);
    Ok(())
}

/// The one walk body of [`EncHistBuilder::add_rows`], instantiated per
/// suite kind `S`: `g` and, when fed, `h` (shaped alike) cut into runs of
/// `per_run` features, each `(g, h)` run on its own worker, every row of
/// `rows` in order. A run's features are one range of the row's block cells
/// and one of its tail entries: the walk visits the cells, then the
/// entries, and locates each bin once for both builders. Returns each
/// worker's tally and outcome, in run order.
fn walk<S: Workspace>(
    (suite, csr, rows, per_run): (&Suite, &RowMajorBins, &[u32], usize),
    (g, enc_g): (&mut EncHistBuilder, &CipherStream),
    (h, enc_h): (Option<&mut EncHistBuilder>, Option<&CipherStream>),
) -> Result<Vec<(OpSnapshot, Result<()>)>> {
    let enc_g = S::stream(enc_g)?;
    let enc_h = enc_h.map(S::stream).transpose()?;
    let mut h_runs = h.map(|h| h.runs::<S>(per_run)).transpose()?.map(Vec::into_iter);
    let mut runs: Vec<_> = g
        .runs::<S>(per_run)?
        .into_iter()
        .map(|g| (g, h_runs.as_mut().and_then(Iterator::next).zip(enc_h)))
        .collect();
    let block_features = &csr.block_features;
    Ok(runs
        .par_chunks_mut(1)
        .map(|run| {
            let (g, h) = &mut run[0];
            let (first, features) = (g.first, g.features());
            let within = |end: usize| block_features.partition_point(|&f| usize::from(f) < end);
            let cells = within(first)..within(first + features);
            let offsets = g.offsets;
            let mut tally = OpSnapshot::default();
            let mut walk_rows = || -> Result<()> {
                for &row in rows {
                    let cg = cipher_of(enc_g, row)?;
                    let cg = (cg, &g.slot_of(S::exponent(cg)));
                    let mut h = match h {
                        Some((h, enc_h)) => {
                            let ch = cipher_of(enc_h, row)?;
                            let slot = h.slot_of(S::exponent(ch));
                            Some((h.arena(), ch, slot))
                        }
                        None => None,
                    };
                    let mut g = g.arena();
                    let mut visit = |column: usize, bin: u16| -> Result<()> {
                        let at = locate(offsets, column, usize::from(bin))?;
                        fold_at(&mut g, at, cg, suite, &mut tally)?;
                        if let Some((h, ch, slot)) = h.as_mut() {
                            fold_at(h, at, (*ch, &*slot), suite, &mut tally)?;
                        }
                        Ok(())
                    };
                    let (row_cells, tail) = csr.parts(row as usize);
                    let row_cells = &row_cells[cells.clone()];
                    for (&f, &bin) in block_features[cells.clone()].iter().zip(row_cells) {
                        visit(usize::from(f) - first, bin)?;
                    }
                    let skip = match first {
                        0 => 0,
                        _ => tail.partition_point(|&(f, _)| usize::from(f) < first),
                    };
                    for &(f, bin) in &tail[skip..] {
                        let column = usize::from(f) - first;
                        if column >= features {
                            break;
                        }
                        visit(column, bin)?;
                    }
                }
                Ok(())
            };
            let done = walk_rows();
            (tally, done)
        })
        .collect())
}

/// The cipher a row contributes, or a typed error when the stream is too
/// short to cover it.
fn cipher_of<C>(ciphers: &[C], row: u32) -> Result<&C> {
    ciphers.get(row as usize).ok_or(CryptoError::ShapeMismatch {
        context: "EncHistBuilder::add_rows row without a cipher",
        left: row as usize,
        right: ciphers.len(),
    })
}

/// The packing shift applied to the first gradient bin: guarantees every
/// prefix sum is positive since `Σg ≥ −count × bound` (§5.2). Both sides
/// compute it from shared knowledge (node size and the loss's bounds).
///
/// Takes both bounds explicitly — the shift and the slot sizing must agree
/// on `max(grad_bound, hess_bound)`, and a single-bound signature invited
/// callers to pass the gradient bound alone, undersizing hessian slots.
pub fn packing_shift(count: usize, grad_bound: f64, hess_bound: f64) -> f64 {
    count as f64 * grad_bound.max(hess_bound) + 1.0
}

/// The slot width in bits needed to hold any shifted prefix value at the
/// common exponent, rounded up to a byte multiple and at least
/// `target_bits`. Sized from `max(grad_bound, hess_bound)` — hessian
/// prefixes share the slots, so both bounds are taken explicitly.
pub fn required_slot_bits(
    count: usize,
    grad_bound: f64,
    hess_bound: f64,
    encoding: &EncodingConfig,
    target_bits: u32,
) -> u32 {
    let bound = grad_bound.max(hess_bound);
    let emax = max_exponent(encoding);
    let max_value = (2.0 * count as f64 * bound + 2.0) * encoding.base_pow_f64(emax);
    let bits = max_value.log2().ceil() as u32 + 1;
    bits.max(target_bits).div_ceil(8) * 8
}

/// The largest exponent the jitter window can produce — the normalization
/// target before packing.
pub fn max_exponent(encoding: &EncodingConfig) -> i32 {
    encoding.base_exp + encoding.jitter.max(1) as i32 - 1
}

/// The slot width `M` in bits the protocol hands [`pack_feature_hist`] for
/// prefix sums. Only a floor: [`required_slot_bits`] raises it whenever the
/// value range needs more. (GH-pair bins pack at exactly the pair width.)
pub const TARGET_SLOT_BITS: u32 = 64;

/// Shifts, prefix-sums, and packs one feature's finalized bins (§5.2).
///
/// `bins_g` / `bins_h` must already share the exponent `max_exponent`;
/// slots are at least `min_slot_bits` wide. Returns the wire-ready packed
/// feature histogram.
#[allow(clippy::too_many_arguments)]
pub fn pack_feature_hist(
    suite: &Suite,
    bins_g: &[Ciphertext],
    bins_h: &[Ciphertext],
    count: usize,
    grad_bound: f64,
    hess_bound: f64,
    min_slot_bits: u32,
    encoding: &EncodingConfig,
) -> Result<PackedFeatureHist> {
    if bins_g.len() != bins_h.len() {
        return Err(CryptoError::ShapeMismatch {
            context: "pack_feature_hist gradient vs hessian bins",
            left: bins_g.len(),
            right: bins_h.len(),
        });
    }
    if bins_g.is_empty() {
        return Err(CryptoError::ShapeMismatch {
            context: "pack_feature_hist needs at least one bin",
            left: 0,
            right: 1,
        });
    }
    let slot_bits = required_slot_bits(count, grad_bound, hess_bound, encoding, min_slot_bits);
    let plan = match suite.kind() {
        SuiteKind::Paillier => {
            // Infallible: `public_key()` is `None` only for the plain mock
            // suite, and this arm is reached only when `kind()` is Paillier.
            #[allow(clippy::expect_used)]
            let pk = suite.public_key().expect("paillier suite has a public key");
            let max = PackingPlan::max_slots(pk, slot_bits);
            if max == 0 {
                return Err(CryptoError::PackingCapacity { requested: 1, max: 0 });
            }
            PackingPlan::new(pk, slot_bits, max.min(bins_g.len()))?
        }
        SuiteKind::Plain => PackingPlan { slot_bits, slots: bins_g.len().max(1) },
    };

    // Shift the first gradient bin so every prefix is non-negative; one
    // cheap plaintext addition per feature (O(D·T_HADD) per node overall).
    let shift = packing_shift(count, grad_bound, hess_bound);
    let mut prefix_g = Vec::with_capacity(bins_g.len());
    let mut acc_g = suite.add_plain(&bins_g[0], shift)?;
    prefix_g.push(acc_g.clone());
    for b in &bins_g[1..] {
        acc_g = suite.add(&acc_g, b)?;
        prefix_g.push(acc_g.clone());
    }
    let mut prefix_h = Vec::with_capacity(bins_h.len());
    let mut acc_h = bins_h[0].clone();
    prefix_h.push(acc_h.clone());
    for b in &bins_h[1..] {
        acc_h = suite.add(&acc_h, b)?;
        prefix_h.push(acc_h.clone());
    }

    let pack_all = |prefix: &[Ciphertext]| -> Result<Vec<_>> {
        prefix.chunks(plan.slots).map(|chunk| suite.pack(chunk, &plan)).collect()
    };
    Ok(PackedFeatureHist {
        g: pack_all(&prefix_g)?,
        h: pack_all(&prefix_h)?,
        bins: bins_g.len() as u16,
    })
}

/// Decrypts a packed feature histogram back into per-bin gradient pairs
/// (guest side). Inverts the shift and the prefix sums.
pub fn unpack_feature_hist(
    suite: &Suite,
    packed: &PackedFeatureHist,
    count: usize,
    grad_bound: f64,
    hess_bound: f64,
) -> Result<Vec<GradPair>> {
    let shift = packing_shift(count, grad_bound, hess_bound);
    let mut prefix_g = Vec::with_capacity(packed.bins as usize);
    for p in &packed.g {
        prefix_g.extend(suite.unpack_decrypt(p)?);
    }
    let mut prefix_h = Vec::with_capacity(packed.bins as usize);
    for p in &packed.h {
        prefix_h.extend(suite.unpack_decrypt(p)?);
    }
    // `packed.bins` is a peer declaration: the unpacked slot counts must
    // match it exactly, or the prefix-difference below would silently
    // truncate against a hostile histogram.
    if prefix_g.len() != packed.bins as usize || prefix_h.len() != packed.bins as usize {
        return Err(CryptoError::ShapeMismatch {
            context: "unpack_feature_hist unpacked slots vs declared bins",
            left: prefix_g.len().min(prefix_h.len()),
            right: packed.bins as usize,
        });
    }
    let mut out = Vec::with_capacity(packed.bins as usize);
    let (mut prev_g, mut prev_h) = (shift, 0.0);
    for (pg, ph) in prefix_g.iter().zip(&prefix_h) {
        out.push(GradPair { g: pg - prev_g, h: ph - prev_h });
        prev_g = *pg;
        prev_h = *ph;
    }
    Ok(out)
}

/// Decrypts a return-path-packed GH feature histogram back into per-bin
/// `(Σg, Σh)` fixed-point pairs (guest side): one decryption per packed
/// cipher, then a GH-pair field split per slot.
pub fn unpack_gh_feature_hist(
    suite: &Suite,
    packed: &GhPackedFeatureHist,
    gh: &GhPlan,
) -> Result<DecodedBins> {
    let mut out = Vec::with_capacity(usize::from(packed.bins));
    for p in &packed.packed {
        out.extend(suite.unpack_decrypt_gh(p, gh)?);
    }
    // `packed.bins` is a peer declaration: the unpacked slot total must
    // match it exactly (the wire-admission layer enforces the same, but
    // this path is also reachable without it).
    if out.len() != usize::from(packed.bins) {
        return Err(CryptoError::ShapeMismatch {
            context: "unpack_gh_feature_hist unpacked slots vs declared bins",
            left: out.len(),
            right: usize::from(packed.bins),
        });
    }
    Ok(DecodedBins::Fixed(out))
}

/// Decrypts one raw per-bin feature histogram (guest side): to fixed-point
/// integers under Paillier, to the floats they already are under the mock.
pub fn decrypt_feature_hist(suite: &Suite, raw: &RawFeatureHist) -> Result<DecodedBins> {
    let bins = raw.g.iter().zip(&raw.h);
    match suite.kind() {
        SuiteKind::Paillier => bins
            .map(|(g, h)| Ok((suite.decrypt_fixed(g)?, suite.decrypt_fixed(h)?)))
            .collect::<Result<_>>()
            .map(DecodedBins::Fixed),
        SuiteKind::Plain => bins
            .map(|(g, h)| Ok(GradPair { g: suite.decrypt(g)?, h: suite.decrypt(h)? }))
            .collect::<Result<_>>()
            .map(DecodedBins::Float),
    }
}

/// One feature's decrypted bins as the guest retains them per node and
/// host: the stored-entry sums before the float decode and the zero-mass
/// fold, so that `parent − smaller child` is the larger child's exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedBins {
    /// Paillier: each bin's `(Σg, Σh)` as signed fixed-point integers.
    Fixed(Vec<(FixedPoint, FixedPoint)>),
    /// The mock's floats (and prefix-packed sums, which unpack to floats).
    Float(Vec<GradPair>),
}

impl DecodedBins {
    /// The histogram split finding reads: the float decode, then the mass
    /// of the node's implicit zeros (`total − Σ stored bins`) added into the
    /// feature's zero bin. `None` when `zero_bin` is no bin of it.
    pub fn to_histogram(
        &self,
        encoding: &EncodingConfig,
        zero_bin: u16,
        total: GradPair,
    ) -> Option<Histogram> {
        let mut bins = self.to_pairs(encoding);
        let stored = bins.iter().fold(GradPair::ZERO, |a, &b| a + b);
        *bins.get_mut(usize::from(zero_bin))? += total - stored;
        Some(Histogram { bins })
    }

    fn to_pairs(&self, encoding: &EncodingConfig) -> Vec<GradPair> {
        match self {
            DecodedBins::Fixed(bins) => bins
                .iter()
                .map(|(g, h)| GradPair { g: g.to_f64(encoding), h: h.to_f64(encoding) })
                .collect(),
            DecodedBins::Float(bins) => bins.clone(),
        }
    }

    /// The larger child's bins, `self − smaller`, `self` being the parent's.
    /// Fixed-point bins subtract exactly; `None` is a difference no honest
    /// split produces: a child bin at a larger exponent than its parent's,
    /// a negative `Σh`, a magnitude past `limits` (the largest `(|Σg|, Σh)`
    /// the larger child's row count admits), a child shaped unlike its
    /// parent. Floats just subtract: the mock has no bound to break.
    pub fn checked_sub(
        &self,
        smaller: &DecodedBins,
        encoding: &EncodingConfig,
        (g_limit, h_limit): (&BigUint, &BigUint),
    ) -> Option<DecodedBins> {
        match (self, smaller) {
            (DecodedBins::Fixed(parent), DecodedBins::Fixed(child))
                if parent.len() == child.len() =>
            {
                let bins = parent.iter().zip(child).map(|((pg, ph), (cg, ch))| {
                    let g = pg.checked_sub(cg, encoding)?;
                    let h = ph.checked_sub(ch, encoding)?;
                    let honest = g.mantissa.magnitude() <= g_limit
                        && h.mantissa.magnitude() <= h_limit
                        && h.mantissa.sign() != Sign::Minus;
                    honest.then_some((g, h))
                });
                bins.collect::<Option<_>>().map(DecodedBins::Fixed)
            }
            (DecodedBins::Float(parent), DecodedBins::Float(child))
                if parent.len() == child.len() =>
            {
                Some(DecodedBins::Float(parent.iter().zip(child).map(|(&p, &c)| p - c).collect()))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Occupied cipher slots across every feature and bin.
    fn cipher_count(b: &EncHistBuilder) -> usize {
        (0..b.rows.len()).flat_map(|i| b.occupied(i)).count()
    }

    fn encoding() -> EncodingConfig {
        EncodingConfig { base: 16, base_exp: 8, jitter: 4 }
    }

    fn suite() -> Suite {
        Suite::paillier_seeded(384, 42, encoding()).unwrap()
    }

    fn meta(bins: u16) -> Vec<ColMeta> {
        vec![ColMeta { num_bins: bins, zero_bin: 0, dense: true }]
    }

    /// Accumulates the same ciphers naive vs re-ordered; sums must agree
    /// while the re-ordered path performs no scalings until finalize.
    #[test]
    fn reordered_matches_naive_with_fewer_scalings() {
        let s = suite();
        let enc = encoding();
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<f64> = (0..40).map(|i| (i as f64) * 0.01 - 0.2).collect();
        let cts: Vec<Ciphertext> =
            values.iter().map(|&v| s.encrypt(v, &mut rng).unwrap()).collect();

        let naive_suite = s.clone();
        let mut naive = EncHistBuilder::new(&meta(1), &enc, false);
        for c in &cts {
            naive.add(&naive_suite, 0, 0, c).unwrap();
        }
        let naive_scalings = naive_suite.counters().snapshot().scalings;

        let re_suite = s.public_half(); // fresh counters
        let mut re = EncHistBuilder::new(&meta(1), &enc, true);
        for c in &cts {
            re.add(&re_suite, 0, 0, c).unwrap();
        }
        let accumulation_scalings = re_suite.counters().snapshot().scalings;
        assert_eq!(accumulation_scalings, 0, "re-ordered accumulation never scales");
        assert!(naive_scalings > 10, "naive should scale often, got {naive_scalings}");

        let target = max_exponent(&enc);
        let nb = naive.finalize_feature(&s, 0, Some(target)).unwrap();
        let rb = re.finalize_feature(&re_suite, 0, Some(target)).unwrap();
        let finalize_scalings = re_suite.counters().snapshot().scalings;
        assert!(finalize_scalings <= (enc.jitter as u64), "merge needs ≤ E−1 scalings + normalize");

        let expected: f64 = values.iter().sum();
        assert!((s.decrypt(&nb[0]).unwrap() - expected).abs() < 1e-6);
        assert!((s.decrypt(&rb[0]).unwrap() - expected).abs() < 1e-6);
    }

    #[test]
    fn empty_bins_finalize_to_zero() {
        let s = suite();
        let enc = encoding();
        let b = EncHistBuilder::new(&meta(3), &enc, true);
        let bins = b.finalize_feature(&s, 0, Some(max_exponent(&enc))).unwrap();
        for bin in &bins {
            assert_eq!(s.decrypt(bin).unwrap(), 0.0);
        }
    }

    /// 12 rows × 7 columns: dense and sparse columns, rows that miss
    /// features, and one column (index 4) that no row stores.
    fn csr_fixture() -> RowMajorBins {
        csr_of(fixture_columns())
    }

    fn fixture_columns() -> Vec<vf2_gbdt::data::FeatureColumn> {
        use vf2_gbdt::data::FeatureColumn;
        let dense = |k: u32| FeatureColumn::Dense((0..12).map(|r| ((r * k) % 5) as f32).collect());
        let sparse = |rows: &[u32]| FeatureColumn::Sparse {
            rows: rows.to_vec(),
            values: rows.iter().map(|&r| r as f32 - 4.5).collect(),
        };
        vec![
            dense(1),
            sparse(&[1, 4, 9]),
            dense(3),
            sparse(&[0, 2, 3, 5, 7, 11]),
            sparse(&[]),
            dense(7),
            sparse(&[6]),
        ]
    }

    fn csr_of(columns: Vec<vf2_gbdt::data::FeatureColumn>) -> RowMajorBins {
        use vf2_gbdt::binning::{BinnedDataset, BinningConfig};
        let data = vf2_gbdt::data::Dataset::new(12, columns, None);
        let binned =
            BinnedDataset::bin(&data, &BinningConfig { num_bins: 4, max_samples: 1 << 16 });
        RowMajorBins::from_binned(&binned)
    }

    /// The reference `add_rows` must reproduce: one `add` per stored entry,
    /// rows in list order.
    fn per_entry(
        s: &Suite,
        csr: &RowMajorBins,
        rows: &[u32],
        ciphers: &[Ciphertext],
        reordered: bool,
    ) -> Result<EncHistBuilder> {
        let mut b = EncHistBuilder::new(&csr.col_meta, &encoding(), reordered);
        for &row in rows {
            for &(f, bin) in csr.row(row as usize) {
                b.add(s, f as usize, bin as usize, &ciphers[row as usize])?;
            }
        }
        Ok(b)
    }

    /// Ciphers as the host stores them: entered once, into a stream of
    /// `s`'s kind. A Paillier stream can still meet a mock cipher (it
    /// enters as a mock host would have entered it), so that a walk does;
    /// a mock stream holds plain values only, and refuses a Paillier cipher
    /// as it takes it in.
    fn entered(s: &Suite, ciphers: &[Ciphertext]) -> Result<CipherStream> {
        if s.kind() == SuiteKind::Plain {
            let mut stream = CipherStream::Unfixed;
            stream.extend(s, ciphers, ciphers.len())?;
            return Ok(stream);
        }
        let foreign = |c: &Ciphertext| match c {
            Ciphertext::Plain(p) => ResidentCiphertext::Plain(*p),
            Ciphertext::Paillier(_) => suite().enter(c).unwrap(),
        };
        Ok(CipherStream::Paillier(
            ciphers.iter().map(|c| s.enter(c).unwrap_or_else(|_| foreign(c))).collect(),
        ))
    }

    /// `add_rows` into a fresh `(g, h)` pair under a pool of `width`.
    fn bulk(
        s: &Suite,
        csr: &RowMajorBins,
        rows: &[u32],
        (enc_g, enc_h): (&[Ciphertext], Option<&[Ciphertext]>),
        reordered: bool,
        width: usize,
    ) -> Result<(EncHistBuilder, EncHistBuilder)> {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
        let mut g = EncHistBuilder::new(&csr.col_meta, &encoding(), reordered);
        let mut h = g.clone();
        let (enc_g, enc_h) = (entered(s, enc_g)?, enc_h.map(|c| entered(s, c)).transpose()?);
        let (g_stream, h_stream) = ((&mut g, &enc_g), (&mut h, enc_h.as_ref()));
        pool.install(|| EncHistBuilder::add_rows(s, csr, rows, g_stream, h_stream))?;
        Ok((g, h))
    }

    /// Parties of every layout over 12 rows: all dense, all sparse, dense
    /// columns first, dense columns last, the fixture's interleaved ones
    /// (with a column no row stores), and no column at all.
    fn layouts() -> Vec<Vec<vf2_gbdt::data::FeatureColumn>> {
        use vf2_gbdt::data::FeatureColumn;
        let dense = |k: u32| FeatureColumn::Dense((0..12).map(|r| ((r * k) % 5) as f32).collect());
        let sparse = |rows: &[u32]| FeatureColumn::Sparse {
            rows: rows.to_vec(),
            values: rows.iter().map(|&r| r as f32 - 4.5).collect(),
        };
        vec![
            vec![dense(1), dense(3), dense(7), dense(2)],
            vec![sparse(&[1, 4, 9]), sparse(&[0, 2, 3, 5, 7, 11]), sparse(&[6])],
            vec![dense(1), dense(3), sparse(&[1, 4, 9]), sparse(&[0, 5, 11])],
            vec![sparse(&[1, 4, 9]), sparse(&[2, 3]), dense(3), dense(7)],
            fixture_columns(),
            vec![],
        ]
    }

    /// On every layout, at widths 1 to 4, `add_rows` equals one `add` per
    /// stored entry of the column-major form, rows in list order, cipher
    /// for cipher. Past width 1 the all-dense party's feature runs start
    /// inside the block, and the mixed parties' runs cut it and the tail.
    #[test]
    fn add_rows_equals_the_column_major_add_loop_on_every_layout() {
        use vf2_gbdt::binning::{BinnedDataset, BinnedEntries, BinningConfig};
        let rows = [9u32, 2, 11, 0, 5, 7, 3, 6, 1];
        let grads: Vec<f64> = (0..12).map(|i| (i as f64) * 0.07 - 0.4).collect();
        let hess: Vec<f64> = (0..12).map(|i| 0.25 - (i as f64) * 0.01).collect();
        let binning = BinningConfig { num_bins: 4, max_samples: 1 << 16 };
        for keyed in [suite(), Suite::plain(encoding())] {
            let enc_g = keyed.encrypt_batch(&grads, 17).unwrap();
            let enc_h = keyed.encrypt_batch(&hess, 29).unwrap();
            for (party, columns) in layouts().into_iter().enumerate() {
                let data = vf2_gbdt::data::Dataset::new(12, columns, None);
                let binned = BinnedDataset::bin(&data, &binning);
                let csr = RowMajorBins::bin(&data, &binning);
                for reordered in [false, true] {
                    let reference = |ciphers: &[Ciphertext]| {
                        let mut b = EncHistBuilder::new(&csr.col_meta, &encoding(), reordered);
                        for &row in &rows {
                            for (f, col) in binned.columns().iter().enumerate() {
                                let stored = match &col.entries {
                                    BinnedEntries::Dense(_) => true,
                                    BinnedEntries::Sparse { rows, .. } => {
                                        rows.binary_search(&row).is_ok()
                                    }
                                };
                                if stored {
                                    let bin = usize::from(col.bin_of_row(row as usize));
                                    b.add(&keyed, f, bin, &ciphers[row as usize]).unwrap();
                                }
                            }
                        }
                        b
                    };
                    let (want_g, want_h) = (reference(&enc_g), reference(&enc_h));
                    assert_eq!(cipher_count(&want_g) > 0, party != 5, "party {party}");
                    for width in 1..=4 {
                        let what = format!("{:?} party {party} width {width}", keyed.kind());
                        let streams = (&enc_g[..], Some(&enc_h[..]));
                        let (g, h) = bulk(&keyed, &csr, &rows, streams, reordered, width).unwrap();
                        assert!(g == want_g && h == want_h, "{what}: ciphers differ");
                    }
                }
            }
        }
    }

    #[test]
    fn add_rows_equals_the_add_loop_cipher_for_cipher_at_every_width() {
        let csr = csr_fixture();
        let rows = [9u32, 2, 11, 0, 5, 7, 3, 6];
        let grads: Vec<f64> = (0..12).map(|i| (i as f64) * 0.07 - 0.4).collect();
        let hess: Vec<f64> = (0..12).map(|i| 0.25 - (i as f64) * 0.01).collect();
        for keyed in [suite(), Suite::plain(encoding())] {
            let enc_g = keyed.encrypt_batch(&grads, 17).unwrap();
            let enc_h = keyed.encrypt_batch(&hess, 29).unwrap();
            for reordered in [false, true] {
                let reference_suite = keyed.public_half(); // fresh counters
                let want_g = per_entry(&reference_suite, &csr, &rows, &enc_g, reordered).unwrap();
                let want_h = per_entry(&reference_suite, &csr, &rows, &enc_h, reordered).unwrap();
                let want_ops = reference_suite.counters().snapshot();
                assert!(cipher_count(&want_g) > 0 && want_g != want_h);
                // 9 > 7 columns: more workers than features.
                for width in [1, 2, 4, 7, 9] {
                    let what = format!("{:?} reordered={reordered} width={width}", keyed.kind());
                    let s = keyed.public_half();
                    let (g, h) =
                        bulk(&s, &csr, &rows, (&enc_g, Some(&enc_h)), reordered, width).unwrap();
                    assert!(g == want_g && h == want_h, "{what}: ciphers differ");
                    let ops = s.counters().snapshot();
                    assert_eq!(
                        (ops.hadd, ops.scalings),
                        (want_ops.hadd, want_ops.scalings),
                        "{what}: op counts moved"
                    );
                    // Without a hessian stream only `g` is fed.
                    let (g, h) = bulk(&s, &csr, &rows, (&enc_g, None), reordered, width).unwrap();
                    assert!(g == want_g && cipher_count(&h) == 0, "{what}: g-only walk");
                    if keyed.kind() == SuiteKind::Plain {
                        // The mock's plain workspaces read back as the
                        // add loop's: every bin finalized, and a child
                        // subtracted.
                        for f in 0..csr.num_features() {
                            for target in [None, Some(max_exponent(&encoding()))] {
                                assert_eq!(
                                    g.finalize_feature(&s, f, target),
                                    want_g.finalize_feature(&s, f, target),
                                    "{what}: feature {f} finalized at {target:?}"
                                );
                            }
                        }
                        let child = &rows[..3];
                        let want_child = per_entry(&s, &csr, child, &enc_g, reordered).unwrap();
                        let (bulk_child, _) =
                            bulk(&s, &csr, child, (&enc_g, None), reordered, width).unwrap();
                        assert_eq!(
                            g.subtract(&s, &bulk_child),
                            want_g.subtract(&s, &want_child),
                            "{what}: subtract"
                        );
                    }
                }
            }
        }
    }

    /// Every typed error `add` reports, `add_rows` reports too — the same
    /// value, inline and from a worker, through either stream of the pair
    /// — under Paillier and the mock, re-ordered and naive: a hostile
    /// exponent (which the naive arm scales in instead), a cipher of the
    /// other suite kind (the walk resolves its own kind once, and still
    /// checks every cipher against it), a stream too short for the rows,
    /// and a builder shaped for other columns.
    #[test]
    fn add_rows_reports_the_same_typed_errors_as_add() {
        let enc = encoding();
        let csr = csr_fixture();
        let rows: Vec<u32> = (0..12).collect();
        let (p, m) = (suite(), Suite::plain(enc));
        for (s, foreign) in [(&p, &m), (&m, &p)] {
            let mut rng = StdRng::seed_from_u64(13);
            let clean: Vec<Ciphertext> =
                (0..12).map(|_| s.encrypt_at(1.0, enc.base_exp, &mut rng).unwrap()).collect();
            let hostile = s.encrypt_at(1.0, enc.base_exp + enc.jitter as i32 + 7, &mut rng);
            let other_kind = foreign.encrypt_at(1.0, enc.base_exp, &mut rng);
            for reordered in [false, true] {
                for (bad, label) in
                    [(hostile.clone(), "hostile exponent"), (other_kind.clone(), "other kind")]
                {
                    let what = format!("{:?} reordered={reordered} {label}", s.kind());
                    // The bad cipher on row 5.
                    let mut ciphers = clean.clone();
                    ciphers[5] = bad.unwrap();
                    let via_add = per_entry(s, &csr, &rows, &ciphers, reordered);
                    match (label, reordered, &via_add) {
                        ("hostile exponent", false, Ok(_)) => {}
                        ("hostile exponent", true, Err(CryptoError::ShapeMismatch { .. })) => {}
                        ("other kind", _, Err(CryptoError::SuiteMismatch)) => {}
                        (_, _, got) => panic!("{what}: add gave {got:?}"),
                    }
                    for width in [1, 3] {
                        let via_g = bulk(s, &csr, &rows, (&ciphers, None), reordered, width);
                        let via_h =
                            bulk(s, &csr, &rows, (&clean, Some(&ciphers)), reordered, width);
                        match &via_add {
                            Err(e) => {
                                assert_eq!(via_g.unwrap_err(), *e, "{what} width {width}: g");
                                assert_eq!(via_h.unwrap_err(), *e, "{what} width {width}: h");
                            }
                            Ok(b) => {
                                assert!(via_g.unwrap().0 == *b, "{what} width {width}: g");
                                assert!(via_h.unwrap().1 == *b, "{what} width {width}: h");
                            }
                        }
                    }
                }
                // A row the cipher stream does not cover is a typed error too.
                let what = format!("{:?} reordered={reordered}", s.kind());
                let err = bulk(s, &csr, &rows, (&clean[..8], None), reordered, 2).unwrap_err();
                let short = matches!(err, CryptoError::ShapeMismatch { left: 8, right: 8, .. });
                assert!(short, "{what}: {err}");
                // And so is a builder shaped for other columns: too few of
                // them, or too few bins in one.
                let ciphers = entered(s, &clean).unwrap();
                let mut g = EncHistBuilder::new(&csr.col_meta, &enc, reordered);
                let mut narrow = EncHistBuilder::new(&meta(1), &enc, reordered);
                let err = EncHistBuilder::add_rows(
                    s,
                    &csr,
                    &rows,
                    (&mut g, &ciphers),
                    (&mut narrow, None),
                );
                let err = err.unwrap_err();
                let narrow = matches!(err, CryptoError::ShapeMismatch { left: 7, right: 1, .. });
                assert!(narrow, "{what}: {err}");
                let one_bin: Vec<ColMeta> =
                    csr.col_meta.iter().map(|m| ColMeta { num_bins: 1, ..*m }).collect();
                let mut shallow = EncHistBuilder::new(&one_bin, &enc, reordered);
                let err = EncHistBuilder::add_rows(
                    s,
                    &csr,
                    &rows,
                    (&mut shallow, &ciphers),
                    (&mut g, None),
                );
                let err = err.unwrap_err();
                assert!(
                    matches!(err, CryptoError::ShapeMismatch { right: 1, .. }),
                    "{what}: {err}"
                );
                // A fed `h` shaped unlike `g`: the walk locates each bin
                // once for both, so it is refused before any bin changes.
                let fresh = g.clone();
                let err = EncHistBuilder::add_rows(
                    s,
                    &csr,
                    &rows,
                    (&mut g, &ciphers),
                    (&mut shallow, Some(&ciphers)),
                );
                let unlike = "EncHistBuilder::add_rows gradient vs hessian";
                let err = err.unwrap_err();
                assert!(
                    matches!(err, CryptoError::ShapeMismatch { context, .. } if context == unlike),
                    "{what}: {err}"
                );
                assert!(g == fresh, "{what}: a refused walk changed a bin");
            }
        }
    }

    /// A feature the builder does not have is a typed error on every read
    /// path, as it is on `add`.
    #[test]
    fn finalize_feature_refuses_a_feature_it_does_not_have() {
        let enc = encoding();
        for s in [suite(), Suite::plain(enc)] {
            for reordered in [false, true] {
                let b = EncHistBuilder::new(&meta(3), &enc, reordered);
                let past = b.num_features();
                for target in [None, Some(max_exponent(&enc))] {
                    let err = b.finalize_feature(&s, past, target).unwrap_err();
                    assert_eq!(
                        err,
                        CryptoError::ShapeMismatch {
                            context: "EncHistBuilder::finalize_feature feature index",
                            left: 1,
                            right: 1,
                        }
                    );
                }
                assert!(b.finalize_feature(&s, usize::MAX, None).is_err());
            }
        }
    }

    #[test]
    fn pack_unpack_round_trips_bins() {
        let s = suite();
        let enc = encoding();
        let mut rng = StdRng::seed_from_u64(3);
        let g_values = [-0.4, 0.3, -0.1, 0.25, 0.0];
        let h_values = [0.1, 0.2, 0.05, 0.15, 0.0];
        let count = 100;
        let target = max_exponent(&enc);
        let bins_g: Vec<Ciphertext> =
            g_values.iter().map(|&v| s.encrypt_at(v, target, &mut rng).unwrap()).collect();
        let bins_h: Vec<Ciphertext> =
            h_values.iter().map(|&v| s.encrypt_at(v, target, &mut rng).unwrap()).collect();
        let packed = pack_feature_hist(&s, &bins_g, &bins_h, count, 1.0, 1.0, 64, &enc).unwrap();
        let pairs = unpack_feature_hist(&s, &packed, count, 1.0, 1.0).unwrap();
        assert_eq!(pairs.len(), 5);
        for (got, (wg, wh)) in pairs.iter().zip(g_values.iter().zip(&h_values)) {
            assert!((got.g - wg).abs() < 1e-4, "g {} vs {wg}", got.g);
            assert!((got.h - wh).abs() < 1e-4, "h {} vs {wh}", got.h);
        }
    }

    #[test]
    fn packing_reduces_decryptions() {
        let s = suite();
        let enc = encoding();
        let mut rng = StdRng::seed_from_u64(4);
        let target = max_exponent(&enc);
        let bins: Vec<Ciphertext> =
            (0..6).map(|i| s.encrypt_at(i as f64 * 0.01, target, &mut rng).unwrap()).collect();
        let before = s.counters().snapshot();
        let packed = pack_feature_hist(&s, &bins, &bins, 50, 1.0, 1.0, 64, &enc).unwrap();
        unpack_feature_hist(&s, &packed, 50, 1.0, 1.0).unwrap();
        let delta = s.counters().snapshot().since(&before);
        // 12 raw bins would need 12 decryptions; packed needs ≤ 4 here
        // (384-bit key, 64-bit slots ⇒ up to 5 slots per cipher).
        assert!(delta.dec <= 4, "decryptions {}", delta.dec);
        assert!(delta.packs >= 2);
    }

    #[test]
    fn required_slot_bits_grows_with_count() {
        let enc = encoding();
        let small = required_slot_bits(100, 1.0, 1.0, &enc, 32);
        let big = required_slot_bits(10_000_000, 1.0, 1.0, &enc, 32);
        assert!(big > small);
        assert_eq!(small % 8, 0);
    }

    #[test]
    fn slot_sizing_and_shift_account_for_the_hessian_bound() {
        let enc = encoding();
        // A hessian bound dominating the gradient bound must widen the
        // slots exactly as if the bounds were swapped — the old
        // single-bound signature silently ignored it.
        let sym = required_slot_bits(1000, 4.0, 4.0, &enc, 32);
        assert_eq!(required_slot_bits(1000, 0.25, 4.0, &enc, 32), sym);
        assert_eq!(required_slot_bits(1000, 4.0, 0.25, &enc, 32), sym);
        assert!(
            required_slot_bits(1000, 0.25, 4.0, &enc, 32)
                > required_slot_bits(1000, 0.25, 0.25, &enc, 32)
        );
        assert_eq!(packing_shift(10, 0.25, 4.0), packing_shift(10, 4.0, 0.25));
        assert_eq!(packing_shift(10, 0.25, 4.0), 41.0);
    }

    /// Thirty rows over three bins (the third stays empty) as paired
    /// ciphers, with the plaintext per-bin sums and each row's bin.
    fn gh_fixture(s: &Suite, plan: &GhPlan) -> (Vec<Ciphertext>, Vec<usize>, Vec<GradPair>) {
        let mut plain = vec![GradPair::ZERO; 3];
        let (mut gs, mut hs, mut bins_of) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..30 {
            let bin = i % 2;
            let (g, h) = ((i as f64) * 0.03125 - 0.5, 0.125);
            plain[bin].g += g;
            plain[bin].h += h;
            gs.push(g);
            hs.push(h);
            bins_of.push(bin);
        }
        (s.encrypt_gh_batch(&gs, &hs, plan, 99).unwrap(), bins_of, plain)
    }

    #[test]
    fn gh_bins_accumulate_top_up_and_round_trip_the_return_path() {
        // The paired path end to end through the histogram layer: encrypt
        // (g, h) pairs, accumulate them into one builder (one HAdd covers
        // both statistics), top every bin up from its row count, pack, and
        // read all three bins back with one decryption.
        let s = suite();
        let enc = encoding();
        let plan = GhPlan::new(1.0, 0.25, 30, &enc).unwrap();
        assert_eq!(max_exponent(&enc), plan.exponent(), "pairs live at the normalization target");
        let (ciphers, bins_of, plain) = gh_fixture(&s, &plan);
        let mut builder = EncHistBuilder::new(&meta(3), &enc, true);
        for (c, &bin) in ciphers.iter().zip(&bins_of) {
            builder.add(&s, 0, bin, c).unwrap();
        }
        let host = s.public_half();
        let packed = builder.pack_gh_feature(&host, 0, &plan).unwrap();
        let spent = host.counters().snapshot();
        // Three bins in one packed cipher: two Horner steps and one folded
        // top-up, nothing rescaled.
        assert_eq!((spent.hadd, spent.smul, spent.packs, spent.scalings), (3, 2, 1, 0));
        assert_eq!((usize::from(packed.bins), packed.packed.len()), (3, 1));
        let before = s.counters().snapshot();
        let pairs = unpack_gh_feature_hist(&s, &packed, &plan).unwrap().to_pairs(&enc);
        assert_eq!(s.counters().snapshot().since(&before).dec, 1);
        // Dyadic inputs: the integer sums are exact, so is the decode.
        assert_eq!(pairs, plain);
        assert_eq!(pairs[2], GradPair::ZERO, "the empty bin decodes to zero");
    }

    #[test]
    fn gh_subtraction_derives_the_sibling_with_consistent_offsets() {
        let s = suite();
        let enc = encoding();
        let plan = GhPlan::new(1.0, 0.25, 30, &enc).unwrap();
        let (ciphers, bins_of, _) = gh_fixture(&s, &plan);
        let mut parent = EncHistBuilder::new(&meta(3), &enc, true);
        let mut small = parent.clone();
        let mut direct = parent.clone();
        for (i, (c, &bin)) in ciphers.iter().zip(&bins_of).enumerate() {
            parent.add(&s, 0, bin, c).unwrap();
            // The small child takes only even rows: bin 1 (odd rows) gets
            // none of them, bin 2 is empty in all three builders.
            let child = if i % 2 == 0 && i < 12 { &mut small } else { &mut direct };
            child.add(&s, 0, bin, c).unwrap();
        }
        let derived = parent.subtract(&s, &small).unwrap();
        let read = |b: &EncHistBuilder| {
            let packed = b.pack_gh_feature(&s, 0, &plan).unwrap();
            unpack_gh_feature_hist(&s, &packed, &plan).unwrap().to_pairs(&enc)
        };
        assert_eq!(read(&derived), read(&direct));
        // A "sibling" holding rows its parent never saw is a typed error,
        // not a wrapped count.
        let err = small.subtract(&s, &parent).unwrap_err();
        assert!(matches!(err, CryptoError::ShapeMismatch { left: 6, right: 15, .. }), "{err}");
        // And a bin claiming more rows than the plan allows cannot be
        // topped up.
        let tight = GhPlan::new(1.0, 0.25, 10, &enc).unwrap();
        let err = parent.pack_gh_feature(&s, 0, &tight).unwrap_err();
        assert_eq!(err, CryptoError::PackingCapacity { requested: 15, max: 10 });
    }

    #[test]
    fn gh_pack_rejects_empty_bins_mock_suites_and_hostile_declarations() {
        let s = suite();
        let enc = encoding();
        let plan = GhPlan::new(1.0, 0.25, 10, &enc).unwrap();
        let binless = EncHistBuilder::new(&meta(0), &enc, true);
        for feature in [0, 1] {
            let err = binless.pack_gh_feature(&s, feature, &plan).unwrap_err();
            assert!(matches!(err, CryptoError::ShapeMismatch { .. }), "{err}");
        }
        let mock = Suite::plain(enc);
        let mut rng = StdRng::seed_from_u64(21);
        let mut mocked = EncHistBuilder::new(&meta(2), &enc, true);
        mocked.add(&mock, 0, 1, &mock.encrypt(0.5, &mut rng).unwrap()).unwrap();
        assert_eq!(mocked.pack_gh_feature(&mock, 0, &plan), Err(CryptoError::SuiteMismatch));
        // A bin holding a cipher off the plan's exponent is refused, not
        // rescaled into the pack.
        let mut off = EncHistBuilder::new(&meta(2), &enc, true);
        off.add(&s, 0, 0, &s.encrypt_at(0.5, plan.exponent() - 1, &mut rng).unwrap()).unwrap();
        let err = off.pack_gh_feature(&s, 0, &plan).unwrap_err();
        assert!(matches!(err, CryptoError::ShapeMismatch { .. }), "{err}");
        // A bins declaration that disagrees with the packed slot total.
        let ciphers = s.encrypt_gh_batch(&[0.5, -0.5], &[0.125, 0.25], &plan, 3).unwrap();
        let mut honest = EncHistBuilder::new(&meta(2), &enc, true);
        for (bin, c) in ciphers.iter().enumerate() {
            honest.add(&s, 0, bin, c).unwrap();
        }
        let mut packed = honest.pack_gh_feature(&s, 0, &plan).unwrap();
        packed.bins = 7;
        let err = unpack_gh_feature_hist(&s, &packed, &plan).unwrap_err();
        assert!(matches!(err, CryptoError::ShapeMismatch { right: 7, .. }), "{err}");
    }

    /// A refused add — a hostile exponent, a cipher of the other suite —
    /// changes nothing: not the bin's sum, not its row count (from which
    /// the paired path's top-up is computed). In both arms and both
    /// suites, through `add` and through `add_rows`. (The naive arm has no
    /// window to leave: it scales any exponent up.)
    #[test]
    fn a_refused_add_leaves_the_builder_as_it_was() {
        let enc = encoding();
        let csr = csr_fixture();
        let mut rng = StdRng::seed_from_u64(31);
        let (p, m) = (suite(), Suite::plain(enc));
        for (s, foreign) in [(&p, &m), (&m, &p)] {
            for reordered in [false, true] {
                let what = format!("{:?} reordered={reordered}", s.kind());
                let mut b = EncHistBuilder::new(&csr.col_meta, &enc, reordered);
                // Feature 0: bin 0 holds two exponents, every other bin is
                // empty.
                b.add(s, 0, 0, &s.encrypt_at(0.5, enc.base_exp, &mut rng).unwrap()).unwrap();
                b.add(s, 0, 0, &s.encrypt_at(0.25, enc.base_exp + 1, &mut rng).unwrap()).unwrap();
                let kept = b.clone();
                let mut refused = vec![foreign.encrypt_at(1.0, enc.base_exp, &mut rng).unwrap()];
                if reordered {
                    refused.push(
                        s.encrypt_at(1.0, enc.base_exp + enc.jitter as i32, &mut rng).unwrap(),
                    );
                    refused.push(s.encrypt_at(1.0, enc.base_exp - 1, &mut rng).unwrap());
                }
                for c in &refused {
                    for bin in [0, 1] {
                        assert!(b.add(s, 0, bin, c).is_err(), "{what}: bin {bin} took {c:?}");
                        assert!(b == kept, "{what}: a refused add into bin {bin} changed it");
                    }
                }
                // A foreign stream through the bulk walk, at two widths.
                let stream = entered(foreign, &vec![refused[0].clone(); 12]).unwrap();
                let mut h = b.clone();
                for width in [1, 2] {
                    let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
                    let streams = ((&mut b, &stream), (&mut h, None));
                    let err = pool.install(|| {
                        EncHistBuilder::add_rows(s, &csr, &[0, 3], streams.0, streams.1)
                    });
                    assert_eq!(err, Err(CryptoError::SuiteMismatch), "{what}");
                    assert!(b == kept, "{what}: a refused bulk walk changed the builder");
                }
            }
        }
    }

    /// A walk takes its kind from the stream: a mock stream into a builder
    /// fixed to Paillier is refused, and so is a Paillier stream into one
    /// fixed to the mock — as either stream of the pair, under either
    /// suite — and a refusal leaves both builders as they were. A stream
    /// refuses a batch of the other kind as it takes it in.
    #[test]
    fn a_stream_of_the_other_kind_is_refused_and_changes_nothing() {
        let enc = encoding();
        let csr = csr_fixture();
        let (p, m) = (suite(), Suite::plain(enc));
        let stream = |s: &Suite| entered(s, &s.encrypt_batch(&[0.5; 12], 3).unwrap()).unwrap();
        let (paillier, plain) = (stream(&p), stream(&m));
        assert!(matches!(paillier, CipherStream::Paillier(_)));
        assert!(matches!(plain, CipherStream::Plain(_)));
        for (s, own, foreign) in [(&p, &paillier, &plain), (&m, &plain, &paillier)] {
            let what = format!("{:?}", s.kind());
            let mut g = EncHistBuilder::new(&csr.col_meta, &enc, true);
            let mut h = g.clone();
            EncHistBuilder::add_rows(s, &csr, &[0, 1], (&mut g, own), (&mut h, Some(own))).unwrap();
            let kept = (g.clone(), h.clone());
            for walk_suite in [&p, &m] {
                for (g_stream, h_stream) in [(foreign, foreign), (own, foreign), (foreign, own)] {
                    let err = EncHistBuilder::add_rows(
                        walk_suite,
                        &csr,
                        &[2, 5],
                        (&mut g, g_stream),
                        (&mut h, Some(h_stream)),
                    );
                    assert_eq!(err, Err(CryptoError::SuiteMismatch), "{what}");
                    assert!((&g, &h) == (&kept.0, &kept.1), "{what}: a refused walk changed it");
                }
            }
            let other = if s.kind() == SuiteKind::Paillier { &m } else { &p };
            let mut grown = own.clone();
            let batch = other.encrypt_batch(&[0.5], 9).unwrap();
            assert_eq!(grown.extend(other, &batch, 13), Err(CryptoError::SuiteMismatch), "{what}");
        }
    }

    /// The arena's kind is fixed by an accepted add only: a builder whose
    /// first add was refused — a mock cipher off the jitter window, a
    /// stream too short for its rows — is still a fresh builder, through
    /// `add` and through `add_rows`, and still takes a Paillier cipher.
    #[test]
    fn a_refused_first_add_fixes_no_kind() {
        let enc = encoding();
        let csr = csr_fixture();
        let (p, m) = (suite(), Suite::plain(enc));
        let mut rng = StdRng::seed_from_u64(41);
        let fresh = EncHistBuilder::new(&csr.col_meta, &enc, true);
        let mut b = fresh.clone();
        let hostile = m.encrypt_at(1.0, enc.base_exp + enc.jitter as i32 + 7, &mut rng).unwrap();
        assert!(b.add(&m, 0, 0, &hostile).is_err());
        assert!(b == fresh, "a refused add fixed the kind");
        let clean = entered(&m, &m.encrypt_batch(&[0.5; 8], 3).unwrap()).unwrap();
        let hostile = entered(&m, &vec![hostile; 12]).unwrap();
        // Row 11 first: the short stream refuses before any add.
        for stream in [&hostile, &clean] {
            let mut h = fresh.clone();
            for width in [1, 2] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
                let streams = ((&mut b, stream), (&mut h, Some(stream)));
                let err = pool
                    .install(|| EncHistBuilder::add_rows(&m, &csr, &[11, 0], streams.0, streams.1));
                assert!(err.is_err(), "width {width}: {err:?}");
                assert!(b == fresh && h == fresh, "width {width}: a refused walk fixed the kind");
            }
        }
        let c = p.encrypt_at(0.5, enc.base_exp, &mut rng).unwrap();
        b.add(&p, 0, 0, &c).unwrap();
        assert_eq!(cipher_count(&b), 1);
        let bins = b.finalize_feature(&p, 0, None).unwrap();
        assert!((p.decrypt(&bins[0]).unwrap() - 0.5).abs() < 1e-9);
        // Once fixed, the other kind is refused.
        assert_eq!(
            b.add(&m, 0, 0, &m.encrypt(0.5, &mut rng).unwrap()),
            Err(CryptoError::SuiteMismatch)
        );
    }

    #[test]
    fn plain_suite_pack_path_round_trips() {
        let s = Suite::plain(encoding());
        let mut rng = StdRng::seed_from_u64(5);
        let target = max_exponent(&encoding());
        let bins: Vec<Ciphertext> =
            [-0.5, 0.5, 0.1].iter().map(|&v| s.encrypt_at(v, target, &mut rng).unwrap()).collect();
        let packed = pack_feature_hist(&s, &bins, &bins, 10, 1.0, 1.0, 64, &encoding()).unwrap();
        let pairs = unpack_feature_hist(&s, &packed, 10, 1.0, 1.0).unwrap();
        assert!((pairs[0].g + 0.5).abs() < 1e-9);
        assert!((pairs[1].g - 0.5).abs() < 1e-9);
        assert!((pairs[2].g - 0.1).abs() < 1e-9);
    }

    /// Shared harness: accumulate all rows into a parent and a small-child
    /// builder, derive the large child as `parent ⊖ small`, and build the
    /// large child directly for comparison.
    fn subtraction_fixture(
        s: &Suite,
        enc: &EncodingConfig,
        reordered: bool,
    ) -> (EncHistBuilder, EncHistBuilder) {
        let mut rng = StdRng::seed_from_u64(7);
        let m = meta(3);
        let mut parent = EncHistBuilder::new(&m, enc, reordered);
        let mut small = EncHistBuilder::new(&m, enc, reordered);
        let mut direct = EncHistBuilder::new(&m, enc, reordered);
        for i in 0..36 {
            let bin = i % 3;
            let v = (i as f64) * 0.01 - 0.17;
            let c = s.encrypt(v, &mut rng).unwrap();
            parent.add(s, 0, bin, &c).unwrap();
            // Rows 0..12 go to the small child, the rest to the large one.
            if i < 12 {
                small.add(s, 0, bin, &c).unwrap();
            } else {
                direct.add(s, 0, bin, &c).unwrap();
            }
        }
        let derived = parent.subtract(s, &small).unwrap();
        (derived, direct)
    }

    #[test]
    fn subtraction_derived_matches_direct_naive_raw() {
        let s = suite();
        let enc = encoding();
        let (derived, direct) = subtraction_fixture(&s, &enc, false);
        let db = derived.finalize_feature(&s, 0, None).unwrap();
        let xb = direct.finalize_feature(&s, 0, None).unwrap();
        for (d, x) in db.iter().zip(&xb) {
            let dv = s.decrypt(d).unwrap();
            let xv = s.decrypt(x).unwrap();
            assert_eq!(dv.to_bits(), xv.to_bits(), "{dv} vs {xv}");
        }
    }

    #[test]
    fn subtraction_derived_matches_direct_reordered_and_never_scales() {
        let s = suite();
        let enc = encoding();
        let before = s.counters().snapshot();
        let (derived, direct) = subtraction_fixture(&s, &enc, true);
        let spent = s.counters().snapshot().since(&before);
        assert!(spent.negs > 0, "subtraction must negate occupied bins");
        assert_eq!(spent.scalings, 0, "re-ordered slots share exponents: no scaling");
        let target = max_exponent(&enc);
        let db = derived.finalize_feature(&s, 0, Some(target)).unwrap();
        let xb = direct.finalize_feature(&s, 0, Some(target)).unwrap();
        for (d, x) in db.iter().zip(&xb) {
            let dv = s.decrypt(d).unwrap();
            let xv = s.decrypt(x).unwrap();
            assert_eq!(dv.to_bits(), xv.to_bits(), "{dv} vs {xv}");
        }
    }

    #[test]
    fn subtraction_derived_matches_direct_through_packed_wire() {
        let s = suite();
        let enc = encoding();
        let (derived, direct) = subtraction_fixture(&s, &enc, true);
        let target = max_exponent(&enc);
        // 24 rows landed in the large child; pack with that count.
        let count = 24;
        let db = derived.finalize_feature(&s, 0, Some(target)).unwrap();
        let xb = direct.finalize_feature(&s, 0, Some(target)).unwrap();
        let dp = pack_feature_hist(&s, &db, &db, count, 1.0, 1.0, 64, &enc).unwrap();
        let xp = pack_feature_hist(&s, &xb, &xb, count, 1.0, 1.0, 64, &enc).unwrap();
        let dv = unpack_feature_hist(&s, &dp, count, 1.0, 1.0).unwrap();
        let xv = unpack_feature_hist(&s, &xp, count, 1.0, 1.0).unwrap();
        for (d, x) in dv.iter().zip(&xv) {
            assert_eq!(d.g.to_bits(), x.g.to_bits(), "{} vs {}", d.g, x.g);
            assert_eq!(d.h.to_bits(), x.h.to_bits(), "{} vs {}", d.h, x.h);
        }
    }

    #[test]
    fn subtraction_against_empty_passes_through_or_refuses() {
        let s = suite();
        let enc = encoding();
        let mut rng = StdRng::seed_from_u64(8);
        let mut parent = EncHistBuilder::new(&meta(1), &enc, true);
        let mut other = EncHistBuilder::new(&meta(1), &enc, true);
        parent.add(&s, 0, 0, &s.encrypt_at(2.5, enc.base_exp, &mut rng).unwrap()).unwrap();
        other.add(&s, 0, 0, &s.encrypt_at(4.0, enc.base_exp, &mut rng).unwrap()).unwrap();
        // Parent empty in this bin, other occupied: `other` cannot be the
        // sibling of a split of `parent` — a typed error.
        let empty = EncHistBuilder::new(&meta(1), &enc, true);
        let err = empty.subtract(&s, &other).unwrap_err();
        assert!(matches!(err, CryptoError::ShapeMismatch { left: 0, right: 1, .. }), "{err}");
        // Other empty ⇒ parent passes through untouched (cipher_count 1).
        let through = parent.subtract(&s, &empty).unwrap();
        assert_eq!(cipher_count(&through), 1);
        let bins = through.finalize_feature(&s, 0, None).unwrap();
        assert!((s.decrypt(&bins[0]).unwrap() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn cipher_count_counts_occupied_slots() {
        let s = suite();
        let enc = encoding();
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = EncHistBuilder::new(&meta(4), &enc, true);
        assert_eq!(cipher_count(&b), 0);
        b.add(&s, 0, 0, &s.encrypt_at(1.0, enc.base_exp, &mut rng).unwrap()).unwrap();
        b.add(&s, 0, 0, &s.encrypt_at(1.0, enc.base_exp, &mut rng).unwrap()).unwrap();
        b.add(&s, 0, 2, &s.encrypt_at(1.0, enc.base_exp + 1, &mut rng).unwrap()).unwrap();
        assert_eq!(cipher_count(&b), 2);
    }

    #[test]
    fn hostile_exponent_is_a_typed_error_not_a_slot_panic() {
        let s = suite();
        let enc = encoding();
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = EncHistBuilder::new(&meta(1), &enc, true);
        // An exponent far past the jitter window: must reject, not index
        // out of bounds.
        let c = s.encrypt_at(1.0, enc.base_exp + enc.jitter as i32 + 7, &mut rng).unwrap();
        let err = b.add(&s, 0, 0, &c).unwrap_err();
        assert!(matches!(err, CryptoError::ShapeMismatch { .. }), "{err}");
        // Below the window too (negative delta must not wrap).
        let c = s.encrypt_at(1.0, enc.base_exp - 3, &mut rng).unwrap();
        let err = b.add(&s, 0, 0, &c).unwrap_err();
        assert!(matches!(err, CryptoError::ShapeMismatch { .. }), "{err}");
        // Out-of-range feature / bin indices are typed errors as well.
        let c = s.encrypt(1.0, &mut rng).unwrap();
        assert!(b.add(&s, 9, 0, &c).is_err());
        assert!(b.add(&s, 0, 9, &c).is_err());
    }

    #[test]
    fn mismatched_operands_are_typed_errors_in_release_too() {
        let s = suite();
        let enc = encoding();
        let a = EncHistBuilder::new(&meta(2), &enc, true);
        let b = EncHistBuilder::new(&meta(3), &enc, true);
        assert!(matches!(a.subtract(&s, &b), Err(CryptoError::ShapeMismatch { .. })));
        let naive = EncHistBuilder::new(&meta(2), &enc, false);
        assert!(matches!(a.subtract(&s, &naive), Err(CryptoError::ShapeMismatch { .. })));
    }

    #[test]
    fn pack_rejects_mismatched_or_empty_bins() {
        let s = suite();
        let enc = encoding();
        let mut rng = StdRng::seed_from_u64(12);
        let target = max_exponent(&enc);
        let bins: Vec<Ciphertext> =
            (0..3).map(|i| s.encrypt_at(i as f64, target, &mut rng).unwrap()).collect();
        let err = pack_feature_hist(&s, &bins, &bins[..2], 10, 1.0, 1.0, 64, &enc).unwrap_err();
        assert!(matches!(err, CryptoError::ShapeMismatch { left: 3, right: 2, .. }), "{err}");
        let err = pack_feature_hist(&s, &[], &[], 10, 1.0, 1.0, 64, &enc).unwrap_err();
        assert!(matches!(err, CryptoError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn unpack_rejects_bins_declaration_that_disagrees_with_slots() {
        let s = suite();
        let enc = encoding();
        let mut rng = StdRng::seed_from_u64(13);
        let target = max_exponent(&enc);
        let bins: Vec<Ciphertext> =
            (0..4).map(|i| s.encrypt_at(i as f64 * 0.1, target, &mut rng).unwrap()).collect();
        let mut packed = pack_feature_hist(&s, &bins, &bins, 10, 1.0, 1.0, 64, &enc).unwrap();
        packed.bins = 7; // hostile declaration
        let err = unpack_feature_hist(&s, &packed, 10, 1.0, 1.0).unwrap_err();
        assert!(matches!(err, CryptoError::ShapeMismatch { right: 7, .. }), "{err}");
    }

    #[test]
    fn accumulated_then_packed_matches_plaintext_totals() {
        // End-to-end: accumulate ciphers into bins, pack, unpack, compare
        // against a plaintext histogram.
        let s = suite();
        let enc = encoding();
        let mut rng = StdRng::seed_from_u64(6);
        let mut builder_g = EncHistBuilder::new(&meta(3), &enc, true);
        let mut builder_h = EncHistBuilder::new(&meta(3), &enc, true);
        let mut plain = vec![GradPair::ZERO; 3];
        for i in 0..30 {
            let bin = i % 3;
            let g = (i as f64) * 0.01 - 0.15;
            let h = 0.1;
            plain[bin].g += g;
            plain[bin].h += h;
            builder_g.add(&s, 0, bin, &s.encrypt(g, &mut rng).unwrap()).unwrap();
            builder_h.add(&s, 0, bin, &s.encrypt(h, &mut rng).unwrap()).unwrap();
        }
        let target = max_exponent(&enc);
        let bg = builder_g.finalize_feature(&s, 0, Some(target)).unwrap();
        let bh = builder_h.finalize_feature(&s, 0, Some(target)).unwrap();
        let packed = pack_feature_hist(&s, &bg, &bh, 30, 1.0, 1.0, 64, &enc).unwrap();
        let pairs = unpack_feature_hist(&s, &packed, 30, 1.0, 1.0).unwrap();
        for (got, want) in pairs.iter().zip(&plain) {
            assert!((got.g - want.g).abs() < 1e-5, "{} vs {}", got.g, want.g);
            assert!((got.h - want.h).abs() < 1e-5, "{} vs {}", got.h, want.h);
        }
    }

    /// The wire a node's builders leave on: GH-pair bins packed at the pair
    /// width, or raw per-bin ciphers of two streams.
    #[derive(Debug, Clone, Copy)]
    enum Wire {
        Paired,
        Raw { reordered: bool },
    }

    /// Builds `rows`' histogram at the host, packs it the way the host's
    /// `ship` does on `wire` (`GradPath::payload`), and decodes it the way
    /// the guest does: one [`DecodedBins`] per feature.
    fn through_the_wire(
        guest: &Suite,
        csr: &RowMajorBins,
        wire: Wire,
        plan: &GhPlan,
        (g, h): &(EncHistBuilder, EncHistBuilder),
    ) -> Vec<DecodedBins> {
        let host = guest.public_half();
        (0..csr.num_features())
            .map(|f| match wire {
                Wire::Paired => {
                    let packed = g.pack_gh_feature(&host, f, plan).unwrap();
                    unpack_gh_feature_hist(guest, &packed, plan).unwrap()
                }
                Wire::Raw { .. } => {
                    let raw = RawFeatureHist {
                        g: g.finalize_feature(&host, f, None).unwrap(),
                        h: h.finalize_feature(&host, f, None).unwrap(),
                    };
                    decrypt_feature_hist(guest, &raw).unwrap()
                }
            })
            .collect()
    }

    /// The guest's `parent − smaller` on decrypted integers against the
    /// ciphertext `parent ⊖ smaller` it replaced, through both Paillier
    /// wires at two key sizes, over dense and sparse columns (so the
    /// zero-mass fold has work to do), at the edges: a smaller child with
    /// no row and with every row, and gradients pinned at ±bound on every
    /// row so that a constant column's one bin sits at exactly
    /// `count × bound`. Same integers at the same exponents, hence the same
    /// floats to the last bit.
    #[test]
    fn plaintext_derivation_is_bitwise_the_ciphertext_one() {
        let enc = encoding();
        let mut columns = fixture_columns();
        columns.push(vf2_gbdt::data::FeatureColumn::Dense(vec![2.5; 12]));
        let csr = csr_of(columns);
        let parent_rows: Vec<u32> = vec![10, 1, 4, 9, 0, 7, 2, 11, 5, 3];
        let mut rng = StdRng::seed_from_u64(77);
        let random: Vec<GradPair> = (0..12)
            .map(|_| GradPair { g: rng.gen_range(-1.0..1.0), h: rng.gen_range(0.0..0.25) })
            .collect();
        let pinned = |g: f64| vec![GradPair { g, h: 0.25 }; 12];
        let splits: [&[u32]; 4] = [&[4, 9, 2], &[], &parent_rows, &[1, 0, 7, 11, 3]];
        for key_bits in [256, 512] {
            let guest = Suite::paillier_seeded(key_bits, 42, enc).unwrap();
            let host = guest.public_half();
            let pk = guest.public_key().unwrap();
            let plan = GhPlan::new(1.0, 0.25, 12, &enc).unwrap();
            plan.validate_capacity(pk).unwrap();
            for wire in
                [Wire::Paired, Wire::Raw { reordered: true }, Wire::Raw { reordered: false }]
            {
                for grads in [random.clone(), pinned(1.0), pinned(-1.0)] {
                    let (g, h): (Vec<f64>, Vec<f64>) = grads.iter().map(|p| (p.g, p.h)).unzip();
                    let (enc_g, enc_h, reordered): (_, Option<Vec<_>>, _) = match wire {
                        Wire::Paired => {
                            (guest.encrypt_gh_batch(&g, &h, &plan, 5).unwrap(), None, true)
                        }
                        Wire::Raw { reordered } => (
                            guest.encrypt_batch(&g, 5).unwrap(),
                            Some(guest.encrypt_batch(&h, 6).unwrap()),
                            reordered,
                        ),
                    };
                    let enc_g = entered(&host, &enc_g).unwrap();
                    let enc_h = enc_h.map(|c| entered(&host, &c).unwrap());
                    let build = |rows: &[u32]| {
                        let mut g = EncHistBuilder::new(&csr.col_meta, &enc, reordered);
                        let mut h = g.clone();
                        let streams = ((&mut g, &enc_g), (&mut h, enc_h.as_ref()));
                        EncHistBuilder::add_rows(&host, &csr, rows, streams.0, streams.1).unwrap();
                        (g, h)
                    };
                    let parent = build(&parent_rows);
                    for smaller_rows in splits {
                        let what = format!("{key_bits} {wire:?} smaller={smaller_rows:?}");
                        let smaller = build(smaller_rows);
                        let reference = (
                            parent.0.subtract(&host, &smaller.0).unwrap(),
                            parent.1.subtract(&host, &smaller.1).unwrap(),
                        );
                        let larger_rows: Vec<u32> = parent_rows
                            .iter()
                            .copied()
                            .filter(|r| !smaller_rows.contains(r))
                            .collect();
                        let limits = match wire {
                            Wire::Paired => plan.field_limits(larger_rows.len() as u64),
                            Wire::Raw { .. } => (pk.max_int().clone(), pk.max_int().clone()),
                        };
                        let decode = |pair| through_the_wire(&guest, &csr, wire, &plan, pair);
                        let derived: Vec<DecodedBins> = decode(&parent)
                            .iter()
                            .zip(decode(&smaller))
                            .map(|(p, c)| p.checked_sub(&c, &enc, (&limits.0, &limits.1)).unwrap())
                            .collect();
                        let reference = decode(&reference);
                        assert_eq!(derived, reference, "{what}: integers or exponents moved");
                        let total = RowMajorBins::rows_total(&larger_rows, &grads);
                        for (f, meta) in csr.col_meta.iter().enumerate() {
                            let bits = |bins: &DecodedBins| -> Vec<(u64, u64)> {
                                let hist = bins.to_histogram(&enc, meta.zero_bin, total).unwrap();
                                hist.bins.iter().map(|b| (b.g.to_bits(), b.h.to_bits())).collect()
                            };
                            assert_eq!(
                                bits(&derived[f]),
                                bits(&reference[f]),
                                "{what} feature {f}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every way a smaller child can contradict its parent is a refusal
    /// with a reason, never a wrapped field or a borrow past zero.
    #[test]
    fn a_child_that_contradicts_its_parent_is_refused() {
        use num_bigint::BigInt;
        let enc = encoding();
        let at = |g: i64, h: i64, exponent| {
            let fixed = |v: i64| {
                let sign = if v < 0 { Sign::Minus } else { Sign::Plus };
                FixedPoint {
                    mantissa: BigInt::from_biguint(sign, BigUint::from(v.unsigned_abs())),
                    exponent,
                }
            };
            DecodedBins::Fixed(vec![(fixed(g), fixed(h))])
        };
        let limits = (BigUint::from(100u32), BigUint::from(50u32));
        let sub = |parent: &DecodedBins, child: &DecodedBins| {
            parent.checked_sub(child, &enc, (&limits.0, &limits.1))
        };
        // Honest: signs may flip in `g`, a lower child exponent scales up
        // (1 at exponent 8 is 16 at exponent 9), limits are inclusive.
        assert_eq!(sub(&at(-60, 50, 9), &at(40, 0, 9)), Some(at(-100, 50, 9)));
        assert_eq!(sub(&at(20, 40, 9), &at(1, 2, 8)), Some(at(4, 8, 9)));
        // More hessian mass than the parent held; a field past its limit,
        // either sign; aligning up cannot wrap (7 at exponent 8 is 112 at
        // exponent 9); a child exponent above the parent's.
        for child in [at(0, 6, 9), at(41, 0, 9), at(0, -46, 9), at(7, 0, 8)] {
            assert_eq!(sub(&at(-60, 5, 9), &child), None, "{child:?}");
        }
        assert_eq!(sub(&at(10, 5, 8), &at(1, 1, 9)), None);
        // A child shaped unlike its parent.
        let DecodedBins::Fixed(one) = at(1, 1, 9) else { unreachable!() };
        assert_eq!(sub(&at(10, 5, 9), &DecodedBins::Fixed([one.clone(), one].concat())), None);
        assert_eq!(sub(&at(10, 5, 9), &DecodedBins::Float(vec![GradPair::ZERO])), None);
        // The mock's floats subtract and nothing more.
        let float = |g, h| DecodedBins::Float(vec![GradPair { g, h }]);
        assert_eq!(sub(&float(1.5, 0.5), &float(2.0, 0.75)), Some(float(-0.5, -0.25)));
    }
}
