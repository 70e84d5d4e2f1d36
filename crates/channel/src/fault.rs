//! Deterministic fault plans for the simulated WAN.
//!
//! Cross-enterprise links in the paper's deployment traverse the public
//! internet between two data centers; packets get dropped, duplicated,
//! reordered, corrupted and occasionally the link blacks out entirely.
//! A [`FaultConfig`] describes one direction's misbehaviour as a seeded,
//! reproducible plan: every fault decision is drawn from a deterministic
//! RNG stream, so a failing run can be replayed bit-for-bit.
//!
//! Faults are injected inside the gateway pump thread (see
//! [`crate::link`]), *below* the reliable-delivery sublayer — the
//! protocol above only ever observes in-order, exactly-once, checksummed
//! envelopes (or a dead link).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A timed full outage of one link direction: the wire transmits nothing
/// between `after` and `after + duration` (measured from link creation).
/// Frames queued during the window serialize once it lifts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallWindow {
    /// Outage start, relative to link creation.
    pub after: Duration,
    /// Outage length.
    pub duration: Duration,
}

/// Seeded fault plan for one link direction.
///
/// All probabilities are per transmitted frame (data and ack frames
/// alike, except corruption which only targets data payloads) and drawn
/// from an RNG stream seeded with `seed` — the same seed and traffic
/// pattern reproduce the same faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault decision stream.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop_prob: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a frame is held back and overtaken by later frames.
    pub reorder_prob: f64,
    /// Maximum number of later frames that overtake a held-back frame.
    pub reorder_depth: usize,
    /// Probability a data frame has one payload bit flipped in flight.
    pub corrupt_prob: f64,
    /// Optional timed blackout window.
    pub stall: Option<StallWindow>,
    /// Scripted one-shot disconnect: after this many frames have entered
    /// the pump, the direction blackholes everything forever (the peer
    /// appears to die mid-protocol).
    pub disconnect_after_frames: Option<u64>,
}

impl FaultConfig {
    /// A fault-free link (the default).
    pub fn none() -> FaultConfig {
        FaultConfig {
            seed: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_depth: 0,
            corrupt_prob: 0.0,
            stall: None,
            disconnect_after_frames: None,
        }
    }

    /// A moderately hostile public-internet preset: 2% drop, 1% duplicate,
    /// 2% reorder (depth 3), 1% payload corruption.
    pub fn lossy(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_prob: 0.02,
            duplicate_prob: 0.01,
            reorder_prob: 0.02,
            reorder_depth: 3,
            corrupt_prob: 0.01,
            stall: None,
            disconnect_after_frames: None,
        }
    }

    /// True if any fault can actually fire.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || (self.reorder_prob > 0.0 && self.reorder_depth > 0)
            || self.corrupt_prob > 0.0
            || self.stall.is_some()
            || self.disconnect_after_frames.is_some()
    }
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::none()
    }
}

/// The fault decisions for one frame, drawn from the plan's seeded
/// stream in a fixed order (drop, corrupt, reorder, duplicate) so the
/// stream depends only on the seed and the frame index — never on frame
/// contents or wall-clock timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAction {
    /// Silently drop the frame.
    pub drop: bool,
    /// Flip one payload bit (only meaningful for data frames).
    pub corrupt: bool,
    /// Hold the frame back until this many later frames overtake it
    /// (0 = deliver in order).
    pub hold_depth: usize,
    /// Deliver the frame twice.
    pub duplicate: bool,
}

impl FaultAction {
    /// A clean pass-through decision.
    pub fn deliver() -> FaultAction {
        FaultAction { drop: false, corrupt: false, hold_depth: 0, duplicate: false }
    }
}

/// The live, seeded instantiation of a [`FaultConfig`]: a deterministic
/// stream of per-frame [`FaultAction`]s. The gateway pump asks it what
/// to do with each frame; tests can replay the stream offline.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: StdRng,
    frames_seen: u64,
}

impl FaultPlan {
    /// Instantiates the plan's decision stream from its seed.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan { cfg, rng: StdRng::seed_from_u64(cfg.seed), frames_seen: 0 }
    }

    /// The plan this stream was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True once the scripted disconnect has fired: the direction drops
    /// everything, forever.
    pub fn blackholed(&self) -> bool {
        matches!(self.cfg.disconnect_after_frames, Some(n) if self.frames_seen > n)
    }

    /// Draws the decisions for the next frame.
    pub fn next_frame(&mut self) -> FaultAction {
        self.frames_seen += 1;
        let drop = self.rng.gen_bool(self.cfg.drop_prob);
        let corrupt = self.rng.gen_bool(self.cfg.corrupt_prob);
        let reorder = self.cfg.reorder_depth > 0 && self.rng.gen_bool(self.cfg.reorder_prob);
        let hold_depth = if reorder { self.rng.gen_range(1..=self.cfg.reorder_depth) } else { 0 };
        let duplicate = self.rng.gen_bool(self.cfg.duplicate_prob);
        if self.blackholed() {
            return FaultAction { drop: true, ..FaultAction::deliver() };
        }
        FaultAction { drop, corrupt, hold_depth, duplicate }
    }

    /// The plan's RNG, for auxiliary draws (which payload bit to flip).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive() {
        assert!(!FaultConfig::none().is_active());
        assert!(!FaultConfig::default().is_active());
    }

    #[test]
    fn same_seed_replays_the_same_fault_stream() {
        let cfg = FaultConfig::lossy(0xFAB);
        let mut p1 = FaultPlan::new(cfg);
        let mut p2 = FaultPlan::new(cfg);
        let s1: Vec<FaultAction> = (0..2000).map(|_| p1.next_frame()).collect();
        let s2: Vec<FaultAction> = (0..2000).map(|_| p2.next_frame()).collect();
        assert_eq!(s1, s2);
        // Every configured fault class fires somewhere in 2000 frames.
        assert!(s1.iter().any(|a| a.drop));
        assert!(s1.iter().any(|a| a.corrupt));
        assert!(s1.iter().any(|a| a.hold_depth > 0));
        assert!(s1.iter().any(|a| a.duplicate));
        // A different seed diverges.
        let mut p3 = FaultPlan::new(FaultConfig::lossy(0xFAC));
        let s3: Vec<FaultAction> = (0..2000).map(|_| p3.next_frame()).collect();
        assert_ne!(s1, s3);
    }

    #[test]
    fn inactive_plan_always_delivers() {
        let mut plan = FaultPlan::new(FaultConfig::none());
        for _ in 0..100 {
            assert_eq!(plan.next_frame(), FaultAction::deliver());
        }
        assert!(!plan.blackholed());
    }

    #[test]
    fn scripted_disconnect_blackholes_from_the_cutoff() {
        let cfg = FaultConfig { disconnect_after_frames: Some(3), ..FaultConfig::none() };
        let mut plan = FaultPlan::new(cfg);
        for _ in 0..3 {
            assert!(!plan.next_frame().drop);
        }
        for _ in 0..10 {
            assert!(plan.next_frame().drop);
            assert!(plan.blackholed());
        }
    }

    #[test]
    fn reorder_depth_is_bounded() {
        let cfg =
            FaultConfig { seed: 5, reorder_prob: 1.0, reorder_depth: 3, ..FaultConfig::none() };
        let mut plan = FaultPlan::new(cfg);
        for _ in 0..200 {
            let a = plan.next_frame();
            assert!((1..=3).contains(&a.hold_depth));
        }
    }

    #[test]
    fn presets_are_active() {
        assert!(FaultConfig::lossy(1).is_active());
        let disconnect = FaultConfig { disconnect_after_frames: Some(10), ..FaultConfig::none() };
        assert!(disconnect.is_active());
        let stalled = FaultConfig {
            stall: Some(StallWindow {
                after: Duration::from_millis(1),
                duration: Duration::from_millis(5),
            }),
            ..FaultConfig::none()
        };
        assert!(stalled.is_active());
    }
}
