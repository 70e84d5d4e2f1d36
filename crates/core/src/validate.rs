//! The key's checks of a peer's ciphers: what only the cipher suite can
//! judge, made on a decoded message before either role's core admits it.
//!
//! The wire layer ([`crate::wire`]) guarantees a message is *well-formed*
//! (parseable, collection counts within protocol maxima). This module
//! checks that every cipher it carries is one the negotiated suite could
//! have produced: Paillier ciphers lie in `[0, n²)`, a mock value is finite
//! (a NaN would silently poison every aggregate it touches), the variant
//! matches the suite, and the exponent sits inside the jitter window.
//!
//! * At the host ([`check_grad_batch`]): a gradient batch takes the run's
//!   gradient path, and a `(g, h)` pair sits at the pair plan's exponent.
//!   Its rows, indices and phase are checked once, after these, by the
//!   host's core (`serve.rs`).
//! * At the guest ([`check_hist_ciphers`]): every cipher of a histogram.
//!   Its shape, the host's handshake and what the tree owes the host are
//!   checked once, after these, by the guest's core (`grow.rs`).
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
use crate::messages::{HistPayload, Msg};

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

/// The key's checks of a histogram at the guest: every cipher of its
/// payload, in any wire form, is admissible for the suite. Any other
/// message passes.
pub fn check_hist_ciphers(host: usize, msg: &Msg, suite: &Suite) -> Result<(), ProtocolError> {
    let Msg::NodeHistograms { payload, .. } = msg else { return Ok(()) };
    let (from, kind) = (PartyId::Host(host), msg.kind());
    match payload {
        HistPayload::Raw(feats) => feats
            .iter()
            .flat_map(|f| f.g.iter().chain(&f.h))
            .try_for_each(|c| check_cipher(c, suite, from, kind)),
        HistPayload::Packed(feats) => feats
            .iter()
            .flat_map(|f| f.g.iter().chain(&f.h))
            .try_for_each(|p| check_packed(p, suite, from, kind)),
        HistPayload::GhPacked(feats) => feats
            .iter()
            .flat_map(|f| &f.packed)
            .try_for_each(|p| check_packed(p, suite, from, kind)),
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

    /// Every cipher of a histogram is checked, in every wire form; its
    /// shape is the guest's core's to judge (`grow.rs`), so a payload the
    /// core would refuse for its shape passes here.
    #[test]
    fn every_histogram_cipher_is_checked_in_every_wire_form() {
        let s = paillier();
        let hist = |payload| Msg::NodeHistograms { tree: 0, node: 0, epoch: 1, payload };
        let raw = |g: Vec<Ciphertext>| {
            HistPayload::Raw(vec![RawFeatureHist { g, h: vec![cipher(&s, 1.0)] }; 2])
        };
        // One feature too many and bins of uneven length: still admissible.
        check_hist_ciphers(0, &hist(raw(vec![cipher(&s, 1.0); 3])), &s).unwrap();
        let nn = s.public_key().unwrap().nn().clone();
        let hostile = Ciphertext::Paillier(EncryptedNumber { cipher: nn.clone(), exponent: 8 });
        assert_inadmissible(check_hist_ciphers(0, &hist(raw(vec![hostile])), &s), "[0, n^2)");
        let mut rng = StdRng::seed_from_u64(3);
        let late = s.encrypt_at(1.0, 12, &mut rng).unwrap();
        assert_inadmissible(check_hist_ciphers(0, &hist(raw(vec![late])), &s), "jitter window");
        let run = |cipher: BigUint, count| PackedCiphertext::Paillier {
            cipher,
            exponent: 8,
            count,
            slot_bits: 16,
        };
        let packed = |g| HistPayload::Packed(vec![PackedFeatureHist { g, h: vec![], bins: 1 }]);
        check_hist_ciphers(0, &hist(packed(vec![run(BigUint::from(7u32), 1)])), &s).unwrap();
        for (bad, want) in
            [(run(nn.clone(), 1), "[0, n^2)"), (run(BigUint::from(7u32), 0), "empty")]
        {
            assert_inadmissible(check_hist_ciphers(0, &hist(packed(vec![bad])), &s), want);
        }
        let paired =
            |p| HistPayload::GhPacked(vec![GhPackedFeatureHist { packed: vec![p], bins: 1 }]);
        let mock = PackedCiphertext::Plain(vec![1.0]);
        assert_inadmissible(
            check_hist_ciphers(0, &hist(paired(mock)), &s),
            "packed variant does not match",
        );
        // Under the mock, a NaN anywhere is refused; other kinds pass.
        let m = Suite::plain(enc());
        let nan = Ciphertext::Plain(PlainNumber { value: f64::NAN, exponent: 8 });
        let payload =
            HistPayload::Raw(vec![RawFeatureHist { g: vec![cipher(&m, 1.0)], h: vec![nan] }]);
        assert_inadmissible(check_hist_ciphers(1, &hist(payload), &m), "non-finite");
        check_hist_ciphers(1, &Msg::Placement { tree: 0, node: 99, placement: vec![] }, &m)
            .unwrap();
    }
}
