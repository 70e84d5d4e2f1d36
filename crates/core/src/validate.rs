//! Semantic message admission: payload-level checks on decoded messages.
//!
//! The wire layer ([`crate::wire`]) guarantees a message is *well-formed*
//! (parseable, collection counts within protocol maxima). This module
//! checks that the payload *makes sense* against the negotiated run before
//! any of it is dispatched or allocated against:
//!
//! * at the host, only what needs the key: every gradient cipher lies in
//!   the ciphertext space `[0, n²)` (a mock value is finite — a NaN would
//!   silently poison every aggregate it touches) with its exponent inside
//!   the jitter window, and a `(g, h)` pair sits at the pair plan's
//!   exponent. Its rows, indices and phase are checked once, after these,
//!   by the host's core (`serve.rs`);
//! * at the guest, a host's feature metadata, and its histograms against
//!   that metadata — feature and bin counts, every cipher, the packed
//!   layout the guest derived — and node indices inside the tree heap; the
//!   guest's handshake machine ([`crate::fsm`]) and its tree's core judge
//!   the phase.
//!
//! Everything here is *structural*. A peer lying about histogram *values*
//! is undetectable in principle — those sums are computed over the host's
//! private rows — so value-level trust is out of scope by construction.
//!
//! All violations are reported as [`ProtocolError::Inadmissible`] and are
//! charged against the peer's misbehavior budget by the callers.

use vf2_crypto::packing::GhPlan;
use vf2_crypto::suite::{Ciphertext, PackedCiphertext, Suite, SuiteKind};

use crate::error::{PartyId, ProtocolError};
use crate::hist_enc::max_exponent;
use crate::messages::{FeatureMeta, HistPayload, Msg};

fn inadmissible(from: PartyId, kind: u16, context: &'static str) -> ProtocolError {
    ProtocolError::Inadmissible { from, kind, context }
}

/// Checks one scalar cipher against the negotiated suite: the variant
/// must match the suite kind, Paillier ciphers must lie in `[0, n²)`,
/// plaintext mocks must be finite, and the exponent must sit inside the
/// jitter window `[base_exp, max_exponent]`.
fn check_cipher(
    c: &Ciphertext,
    suite: &Suite,
    from: PartyId,
    kind: u16,
) -> Result<(), ProtocolError> {
    match (suite.kind(), c) {
        (SuiteKind::Paillier, Ciphertext::Paillier(e)) => {
            if let Some(pk) = suite.public_key() {
                if &e.cipher >= pk.nn() {
                    return Err(inadmissible(from, kind, "ciphertext outside [0, n^2)"));
                }
            }
        }
        (SuiteKind::Plain, Ciphertext::Plain(p)) => {
            if !p.value.is_finite() {
                return Err(inadmissible(from, kind, "non-finite plaintext mock value"));
            }
        }
        _ => {
            return Err(inadmissible(
                from,
                kind,
                "cipher variant does not match the negotiated suite",
            ));
        }
    }
    let enc = suite.encoding();
    let exp = c.exponent();
    if exp < enc.base_exp || exp > max_exponent(enc) {
        return Err(inadmissible(from, kind, "cipher exponent outside the jitter window"));
    }
    Ok(())
}

/// Checks one packed cipher (prefix-sum histogram slot run).
fn check_packed(
    p: &PackedCiphertext,
    suite: &Suite,
    from: PartyId,
    kind: u16,
) -> Result<(), ProtocolError> {
    match (suite.kind(), p) {
        (
            SuiteKind::Paillier,
            PackedCiphertext::Paillier { cipher, exponent, count, slot_bits },
        ) => {
            if let Some(pk) = suite.public_key() {
                if cipher >= pk.nn() {
                    return Err(inadmissible(from, kind, "packed ciphertext outside [0, n^2)"));
                }
            }
            if *count == 0 || *slot_bits == 0 {
                return Err(inadmissible(from, kind, "packed cipher declares an empty layout"));
            }
            let enc = suite.encoding();
            if *exponent < enc.base_exp || *exponent > max_exponent(enc) {
                return Err(inadmissible(from, kind, "packed exponent outside the jitter window"));
            }
            Ok(())
        }
        (SuiteKind::Plain, PackedCiphertext::Plain(values)) => {
            if values.iter().any(|v| !v.is_finite()) {
                return Err(inadmissible(from, kind, "non-finite packed mock value"));
            }
            Ok(())
        }
        _ => Err(inadmissible(from, kind, "packed variant does not match the negotiated suite")),
    }
}

/// The key's checks of a gradient batch at the host: it takes the run's
/// gradient path (`plan` is the host's own [`crate::config::TrainConfig::
/// gh_plan`] — an unsolicited packed batch is a violation, not a fallback),
/// every cipher is admissible for the suite, and each `(g, h)` pair sits at
/// the plan's exponent. Any other message passes.
pub fn check_grad_batch(
    msg: &Msg,
    suite: &Suite,
    plan: Option<&GhPlan>,
) -> Result<(), ProtocolError> {
    let (from, kind) = (PartyId::Guest, msg.kind());
    let (g, h, pair_exponent) = match (msg, plan) {
        (Msg::GradBatch { g, h, .. }, None) => (g, &h[..], None),
        (Msg::PackedGradBatch { gh, .. }, Some(plan)) => (gh, &[][..], Some(plan.exponent())),
        (Msg::GradBatch { .. }, Some(_)) => {
            return Err(inadmissible(from, kind, "two-stream gradients on a paired run"))
        }
        (Msg::PackedGradBatch { .. }, None) => {
            return Err(inadmissible(from, kind, "paired gradients on a two-stream run"))
        }
        _ => return Ok(()),
    };
    for c in g.iter().chain(h) {
        check_cipher(c, suite, from, kind)?;
        if pair_exponent.is_some_and(|e| c.exponent() != e) {
            return Err(inadmissible(from, kind, "gradient pair off the plan's exponent"));
        }
    }
    Ok(())
}

/// Checks the feature metadata a host declares at startup: every feature
/// needs at least one bin and a zero bin inside its bin range.
pub fn check_feature_meta(from: PartyId, metas: &[FeatureMeta]) -> Result<(), ProtocolError> {
    const KIND: u16 = 1;
    for m in metas {
        if m.num_bins == 0 {
            return Err(inadmissible(from, KIND, "feature declares zero bins"));
        }
        if m.zero_bin >= m.num_bins {
            return Err(inadmissible(from, KIND, "zero bin outside the feature's bin range"));
        }
    }
    Ok(())
}

/// Checks a histogram payload against the metadata the same host
/// negotiated at startup — the feature count, every per-feature bin count
/// (raw bins or packed slot totals), every cipher — and against the run's
/// gradient path: a paired run (`gh` is the guest's own pair plan) admits
/// only [`HistPayload::GhPacked`] laid out exactly as that plan derives,
/// a two-stream run only the other two forms.
pub fn check_hist_payload(
    from: PartyId,
    payload: &HistPayload,
    metas: &[FeatureMeta],
    suite: &Suite,
    gh: Option<&GhPlan>,
) -> Result<(), ProtocolError> {
    const KIND: u16 = 4;
    let features = match payload {
        HistPayload::Raw(feats) => feats.len(),
        HistPayload::Packed(feats) => feats.len(),
        HistPayload::GhPacked(feats) => feats.len(),
    };
    if features != metas.len() {
        return Err(inadmissible(
            from,
            KIND,
            "histogram feature count disagrees with the negotiated metadata",
        ));
    }
    // A packed feature's declared bins and slot total against its metadata.
    let check_slots = |bins: u16, slots: usize, m: &FeatureMeta| {
        if bins != m.num_bins {
            return Err(inadmissible(
                from,
                KIND,
                "packed bin declaration disagrees with the negotiated metadata",
            ));
        }
        if slots != usize::from(bins) {
            return Err(inadmissible(
                from,
                KIND,
                "packed slot total disagrees with the declared bin count",
            ));
        }
        Ok(())
    };
    match (payload, gh) {
        (HistPayload::Raw(feats), None) => {
            for (f, m) in feats.iter().zip(metas) {
                if f.g.len() != usize::from(m.num_bins) || f.h.len() != usize::from(m.num_bins) {
                    return Err(inadmissible(
                        from,
                        KIND,
                        "histogram bin count disagrees with the negotiated metadata",
                    ));
                }
                for c in f.g.iter().chain(&f.h) {
                    check_cipher(c, suite, from, KIND)?;
                }
            }
            Ok(())
        }
        (HistPayload::Packed(feats), None) => {
            for (f, m) in feats.iter().zip(metas) {
                for stream in [&f.g, &f.h] {
                    check_slots(f.bins, stream.iter().map(PackedCiphertext::count).sum(), m)?;
                }
                for p in f.g.iter().chain(&f.h) {
                    check_packed(p, suite, from, KIND)?;
                }
            }
            Ok(())
        }
        (HistPayload::GhPacked(feats), Some(plan)) => {
            let per_cipher = suite.public_key().map_or(0, |pk| plan.bins_per_cipher(pk));
            for (f, m) in feats.iter().zip(metas) {
                check_slots(f.bins, f.packed.iter().map(PackedCiphertext::count).sum(), m)?;
                for p in &f.packed {
                    check_packed(p, suite, from, KIND)?;
                    // The guest slices by the width it derived; a peer
                    // declaring another layout is refused here, before a
                    // decryption is spent on it.
                    let derived = match p {
                        PackedCiphertext::Paillier { exponent, count, slot_bits, .. } => {
                            *slot_bits == plan.pair_bits()
                                && *exponent == plan.exponent()
                                && *count <= per_cipher
                        }
                        PackedCiphertext::Plain(_) => false,
                    };
                    if !derived {
                        return Err(inadmissible(
                            from,
                            KIND,
                            "packed pair layout differs from the derived plan",
                        ));
                    }
                }
            }
            Ok(())
        }
        _ => Err(inadmissible(from, KIND, "histogram wire form of the other gradient path")),
    }
}

/// Checks a heap node index against the configured tree depth.
fn check_node_index(
    from: PartyId,
    kind: u16,
    node: u32,
    max_layers: u32,
) -> Result<(), ProtocolError> {
    // A tree of `max_layers` layers stores at most 2^max_layers - 1 heap
    // nodes; anything past that would index memory never allocated.
    let heap = (1u64 << max_layers.min(63)) - 1;
    if u64::from(node) >= heap {
        return Err(inadmissible(from, kind, "node index outside the tree heap"));
    }
    Ok(())
}

/// Semantic admission for every message the guest may receive from host
/// `host`. `metas` is that host's negotiated feature metadata (`None`
/// until the handshake delivers it), `gh` the pair plan of a paired run.
pub fn check_guest_inbound(
    host: usize,
    msg: &Msg,
    metas: Option<&[FeatureMeta]>,
    max_layers: u32,
    suite: &Suite,
    gh: Option<&GhPlan>,
) -> Result<(), ProtocolError> {
    let from = PartyId::Host(host);
    match msg {
        Msg::FeatureMeta(m) => check_feature_meta(from, m),
        Msg::NodeHistograms { node, payload, .. } => {
            check_node_index(from, msg.kind(), *node, max_layers)?;
            match metas {
                Some(metas) => check_hist_payload(from, payload, metas, suite, gh),
                None => Ok(()),
            }
        }
        Msg::Placement { node, .. } => check_node_index(from, msg.kind(), *node, max_layers),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::BigUint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vf2_crypto::encoding::EncodingConfig;
    use vf2_crypto::suite::PlainNumber;
    use vf2_crypto::EncryptedNumber;

    use crate::messages::{GhPackedFeatureHist, PackedFeatureHist, RawFeatureHist};

    fn enc() -> EncodingConfig {
        EncodingConfig { base: 16, base_exp: 8, jitter: 4 }
    }

    fn paillier() -> Suite {
        Suite::paillier_seeded(256, 7, enc()).unwrap()
    }

    fn cipher(s: &Suite, v: f64) -> Ciphertext {
        let mut rng = StdRng::seed_from_u64(11);
        s.encrypt(v, &mut rng).unwrap()
    }

    fn assert_inadmissible(r: Result<(), ProtocolError>, want: &str) {
        match r {
            Err(ProtocolError::Inadmissible { context, .. }) => {
                assert!(context.contains(want), "context {context:?} lacks {want:?}")
            }
            other => panic!("expected inadmissible({want}), got {other:?}"),
        }
    }

    /// A two-stream batch; its rows are the host core's to check.
    fn two(g: Vec<Ciphertext>, h: Vec<Ciphertext>) -> Msg {
        Msg::GradBatch { tree: 0, start_row: 3, g, h, last: false }
    }

    #[test]
    fn honest_grad_batch_passes() {
        let s = paillier();
        let g = vec![cipher(&s, 0.5), cipher(&s, -0.25)];
        let h = vec![cipher(&s, 0.25), cipher(&s, 0.25)];
        check_grad_batch(&two(g, h), &s, None).unwrap();
    }

    #[test]
    fn out_of_range_cipher_is_inadmissible() {
        let s = paillier();
        let nn = s.public_key().unwrap().nn().clone();
        let hostile = Ciphertext::Paillier(EncryptedNumber { cipher: nn, exponent: 8 });
        let ok = cipher(&s, 0.0);
        assert_inadmissible(
            check_grad_batch(&two(vec![hostile], vec![ok]), &s, None),
            "outside [0, n^2)",
        );
    }

    #[test]
    fn exponent_outside_jitter_window_is_inadmissible() {
        let s = paillier();
        let mut rng = StdRng::seed_from_u64(3);
        // Window is [8, 11]; 12 and 7 both fall outside.
        for exp in [12, 7] {
            let c = s.encrypt_at(1.0, exp, &mut rng).unwrap();
            let ok = cipher(&s, 0.0);
            assert_inadmissible(
                check_grad_batch(&two(vec![c], vec![ok]), &s, None),
                "jitter window",
            );
        }
    }

    #[test]
    fn wrong_suite_variant_and_nan_are_inadmissible() {
        let s = paillier();
        let plain = Ciphertext::Plain(PlainNumber { value: 0.0, exponent: 8 });
        let ok = cipher(&s, 0.0);
        assert_inadmissible(
            check_grad_batch(&two(vec![plain], vec![ok]), &s, None),
            "negotiated suite",
        );
        let mock = Suite::plain(enc());
        let nan = Ciphertext::Plain(PlainNumber { value: f64::NAN, exponent: 8 });
        let ok = cipher(&mock, 0.0);
        assert_inadmissible(check_grad_batch(&two(vec![nan], vec![ok]), &mock, None), "non-finite");
    }

    #[test]
    fn feature_meta_bounds_are_checked() {
        let from = PartyId::Host(0);
        check_feature_meta(from, &[FeatureMeta { num_bins: 4, zero_bin: 3 }]).unwrap();
        assert_inadmissible(
            check_feature_meta(from, &[FeatureMeta { num_bins: 0, zero_bin: 0 }]),
            "zero bins",
        );
        assert_inadmissible(
            check_feature_meta(from, &[FeatureMeta { num_bins: 4, zero_bin: 4 }]),
            "zero bin outside",
        );
    }

    #[test]
    fn raw_hist_shape_must_match_negotiated_metas() {
        let s = paillier();
        let from = PartyId::Host(0);
        let metas = vec![FeatureMeta { num_bins: 2, zero_bin: 0 }];
        let feat = |bins: usize| RawFeatureHist {
            g: (0..bins).map(|_| cipher(&s, 1.0)).collect(),
            h: (0..bins).map(|_| cipher(&s, 1.0)).collect(),
        };
        check_hist_payload(from, &HistPayload::Raw(vec![feat(2)]), &metas, &s, None).unwrap();
        assert_inadmissible(
            check_hist_payload(from, &HistPayload::Raw(vec![feat(3)]), &metas, &s, None),
            "bin count disagrees",
        );
        assert_inadmissible(
            check_hist_payload(from, &HistPayload::Raw(vec![feat(2), feat(2)]), &metas, &s, None),
            "feature count disagrees",
        );
    }

    #[test]
    fn packed_hist_slot_totals_must_match_declared_bins() {
        let s = Suite::plain(enc());
        let from = PartyId::Host(1);
        let metas = vec![FeatureMeta { num_bins: 3, zero_bin: 0 }];
        let packed = |slots: usize, bins: u16| PackedFeatureHist {
            g: vec![PackedCiphertext::Plain(vec![1.0; slots])],
            h: vec![PackedCiphertext::Plain(vec![1.0; slots])],
            bins,
        };
        check_hist_payload(from, &HistPayload::Packed(vec![packed(3, 3)]), &metas, &s, None)
            .unwrap();
        assert_inadmissible(
            check_hist_payload(from, &HistPayload::Packed(vec![packed(3, 4)]), &metas, &s, None),
            "disagrees with the negotiated metadata",
        );
        assert_inadmissible(
            check_hist_payload(from, &HistPayload::Packed(vec![packed(2, 3)]), &metas, &s, None),
            "slot total disagrees",
        );
    }

    /// The host's node indices are its core's to bound (`serve.rs`); the
    /// guest bounds a host's placement here.
    #[test]
    fn a_placement_past_the_heap_is_inadmissible_at_the_guest() {
        let s = Suite::plain(enc());
        // 4 layers => heap of 15 nodes (0..=14).
        let placement = |node| Msg::Placement { tree: 0, node, placement: vec![] };
        check_guest_inbound(0, &placement(14), None, 4, &s, None).unwrap();
        assert_inadmissible(
            check_guest_inbound(0, &placement(99), None, 4, &s, None),
            "outside the tree heap",
        );
    }

    /// The pair plan a 5-row run under `paillier()` derives.
    fn pair_plan(s: &Suite) -> GhPlan {
        let plan = GhPlan::new(1.0, 0.25, 5, s.encoding()).unwrap();
        plan.validate_capacity(s.public_key().unwrap()).unwrap();
        plan
    }

    #[test]
    fn packed_grad_batch_is_admissible_only_on_a_paired_run() {
        let s = paillier();
        let plan = pair_plan(&s);
        let mut rng = StdRng::seed_from_u64(5);
        let pair = |rng: &mut StdRng| s.encrypt_at(0.5, plan.exponent(), rng).unwrap();
        let gh = vec![pair(&mut rng), pair(&mut rng)];
        let packed = |gh| Msg::PackedGradBatch { tree: 0, start_row: 3, gh, last: true };
        check_grad_batch(&packed(gh.clone()), &s, Some(&plan)).unwrap();
        assert_inadmissible(check_grad_batch(&packed(gh.clone()), &s, None), "two-stream run");
        // Inside the jitter window but off the plan's exponent: rescaling a
        // pair would scale its offset too.
        let low = vec![s.encrypt_at(0.5, plan.exponent() - 1, &mut rng).unwrap()];
        assert_inadmissible(
            check_grad_batch(&packed(low), &s, Some(&plan)),
            "off the plan's exponent",
        );
        // Each path refuses the other's batches.
        let two = two(gh.clone(), gh);
        check_grad_batch(&two, &s, None).unwrap();
        assert_inadmissible(check_grad_batch(&two, &s, Some(&plan)), "paired run");
    }

    #[test]
    fn gh_hist_payloads_must_match_the_derived_plan() {
        let s = paillier();
        let plan = pair_plan(&s);
        let from = PartyId::Host(0);
        let metas = vec![FeatureMeta { num_bins: 3, zero_bin: 0 }];
        let per_cipher = plan.bins_per_cipher(s.public_key().unwrap());
        assert_eq!(per_cipher, 2);
        let run = |count: usize, slot_bits: u32, exponent: i32| PackedCiphertext::Paillier {
            cipher: BigUint::from(7u32),
            exponent,
            count,
            slot_bits,
        };
        let honest = |count: usize| run(count, plan.pair_bits(), plan.exponent());
        let payload = |packed: Vec<PackedCiphertext>, bins: u16| {
            HistPayload::GhPacked(vec![GhPackedFeatureHist { packed, bins }])
        };
        let ok = payload(vec![honest(2), honest(1)], 3);
        check_hist_payload(from, &ok, &metas, &s, Some(&plan)).unwrap();
        // Each gradient path admits only its own wire forms.
        assert_inadmissible(check_hist_payload(from, &ok, &metas, &s, None), "other gradient path");
        let two_stream = HistPayload::Raw(vec![RawFeatureHist {
            g: (0..3).map(|_| cipher(&s, 1.0)).collect(),
            h: (0..3).map(|_| cipher(&s, 1.0)).collect(),
        }]);
        check_hist_payload(from, &two_stream, &metas, &s, None).unwrap();
        assert_inadmissible(
            check_hist_payload(from, &two_stream, &metas, &s, Some(&plan)),
            "other gradient path",
        );
        // Shape against the negotiated metadata.
        for (bad, want) in [
            (payload(vec![honest(2), honest(2)], 3), "slot total disagrees"),
            (payload(vec![honest(2), honest(2)], 4), "bin declaration disagrees"),
            (
                HistPayload::GhPacked(vec![
                    GhPackedFeatureHist {
                        packed: vec![honest(2), honest(1)],
                        bins: 3
                    };
                    2
                ]),
                "feature count disagrees",
            ),
            // Layout against the plan this party derived: another width,
            // another exponent, more slots than the key carries.
            (
                payload(vec![run(2, plan.pair_bits() + 1, plan.exponent()), honest(1)], 3),
                "differs from the derived plan",
            ),
            (
                payload(vec![run(2, plan.pair_bits(), plan.exponent() - 1), honest(1)], 3),
                "differs from the derived plan",
            ),
            (payload(vec![honest(3)], 3), "differs from the derived plan"),
        ] {
            assert_inadmissible(check_hist_payload(from, &bad, &metas, &s, Some(&plan)), want);
        }
    }
}
