//! Per-operation counters backing the paper's cost model (§5).
//!
//! The paper reasons about training time through the unit costs
//! `T_ENC`, `T_DEC`, `T_HADD`, `T_SMUL`, `T_COMM`. The [`OpCounters`]
//! struct counts how many of each operation a run performs, so experiments
//! can report both wall times and operation counts (e.g. the number of
//! cipher *scalings* avoided by re-ordered accumulation).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::montgomery::MontCost;

/// Thread-safe counters for every cryptography-related operation.
#[derive(Debug, Default)]
pub struct OpCounters {
    /// Encryptions performed (`T_ENC`).
    pub enc: AtomicU64,
    /// Decryptions performed (`T_DEC`). A packed decryption counts once.
    pub dec: AtomicU64,
    /// Homomorphic additions (`T_HADD`).
    pub hadd: AtomicU64,
    /// Scalar multiplications (`T_SMUL`), excluding scalings.
    pub smul: AtomicU64,
    /// Homomorphic negations: one modular inverse modulo `n²` each, the
    /// per-bin cost of ciphertext histogram subtraction.
    pub negs: AtomicU64,
    /// Cipher scalings: `SMul` by a power of the encoding base performed to
    /// align exponents before an addition. Re-ordered accumulation (§5.1)
    /// exists to minimize this counter.
    pub scalings: AtomicU64,
    /// Cipher packing operations (§5.2): each counts the construction of one
    /// packed cipher from `t` slot ciphers.
    pub packs: AtomicU64,
    /// Montgomery modular multiplications performed by the fixed-limb
    /// core: a key's exponentiations, resident HAdds and Horner steps.
    /// The mock suite performs none.
    pub modmul: AtomicU64,
    /// Limb-level REDC work: each Montgomery multiplication contributes
    /// its limb width `N`, making totals comparable across the `mod n²`
    /// and half-size CRT domains.
    pub redc: AtomicU64,
}

impl OpCounters {
    /// A fresh, shareable counter set.
    pub fn new_shared() -> Arc<OpCounters> {
        Arc::new(OpCounters::default())
    }

    /// Records `n` encryptions.
    pub fn add_enc(&self, n: u64) {
        self.enc.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` decryptions.
    pub fn add_dec(&self, n: u64) {
        self.dec.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` homomorphic additions.
    pub fn add_hadd(&self, n: u64) {
        self.hadd.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` scalar multiplications.
    pub fn add_smul(&self, n: u64) {
        self.smul.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` homomorphic negations.
    pub fn add_neg(&self, n: u64) {
        self.negs.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` exponent-alignment scalings.
    pub fn add_scaling(&self, n: u64) {
        self.scalings.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` packing operations.
    pub fn add_pack(&self, n: u64) {
        self.packs.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` Montgomery modular multiplications.
    pub fn add_modmul(&self, n: u64) {
        self.modmul.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` limbs of REDC work.
    pub fn add_redc(&self, n: u64) {
        self.redc.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one Montgomery call's work (`modmul` and `redc`).
    pub fn add_cost(&self, cost: MontCost) {
        self.add_modmul(cost.modmuls);
        self.add_redc(cost.redc_limbs);
    }

    /// Publishes a worker's local tally (see [`OpSnapshot::add_cost`]):
    /// one atomic per non-zero counter, however many operations it holds.
    pub fn publish(&self, tally: &OpSnapshot) {
        let fields = [
            (&self.enc, tally.enc),
            (&self.dec, tally.dec),
            (&self.hadd, tally.hadd),
            (&self.smul, tally.smul),
            (&self.negs, tally.negs),
            (&self.scalings, tally.scalings),
            (&self.packs, tally.packs),
            (&self.modmul, tally.modmul),
            (&self.redc, tally.redc),
        ];
        for (counter, n) in fields.into_iter().filter(|&(_, n)| n != 0) {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Takes a point-in-time snapshot.
    pub fn snapshot(&self) -> OpSnapshot {
        OpSnapshot {
            enc: self.enc.load(Ordering::Relaxed),
            dec: self.dec.load(Ordering::Relaxed),
            hadd: self.hadd.load(Ordering::Relaxed),
            smul: self.smul.load(Ordering::Relaxed),
            negs: self.negs.load(Ordering::Relaxed),
            scalings: self.scalings.load(Ordering::Relaxed),
            packs: self.packs.load(Ordering::Relaxed),
            modmul: self.modmul.load(Ordering::Relaxed),
            redc: self.redc.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.enc.store(0, Ordering::Relaxed);
        self.dec.store(0, Ordering::Relaxed);
        self.hadd.store(0, Ordering::Relaxed);
        self.smul.store(0, Ordering::Relaxed);
        self.negs.store(0, Ordering::Relaxed);
        self.scalings.store(0, Ordering::Relaxed);
        self.packs.store(0, Ordering::Relaxed);
        self.modmul.store(0, Ordering::Relaxed);
        self.redc.store(0, Ordering::Relaxed);
    }
}

/// A snapshot of [`OpCounters`] — or a worker's local tally of the same
/// operations, published in one go by [`OpCounters::publish`] so a hot
/// loop pays no contended atomic per operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Encryptions.
    pub enc: u64,
    /// Decryptions.
    pub dec: u64,
    /// Homomorphic additions.
    pub hadd: u64,
    /// Scalar multiplications.
    pub smul: u64,
    /// Homomorphic negations.
    pub negs: u64,
    /// Exponent-alignment scalings.
    pub scalings: u64,
    /// Packing operations.
    pub packs: u64,
    /// Montgomery modular multiplications.
    pub modmul: u64,
    /// Limb-level REDC work.
    pub redc: u64,
}

impl OpSnapshot {
    /// Tallies one Montgomery call's work into `modmul` / `redc`.
    pub fn add_cost(&mut self, cost: MontCost) {
        self.modmul += cost.modmuls;
        self.redc += cost.redc_limbs;
    }

    /// Component-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &OpSnapshot) -> OpSnapshot {
        OpSnapshot {
            enc: self.enc.saturating_sub(earlier.enc),
            dec: self.dec.saturating_sub(earlier.dec),
            hadd: self.hadd.saturating_sub(earlier.hadd),
            smul: self.smul.saturating_sub(earlier.smul),
            negs: self.negs.saturating_sub(earlier.negs),
            scalings: self.scalings.saturating_sub(earlier.scalings),
            packs: self.packs.saturating_sub(earlier.packs),
            modmul: self.modmul.saturating_sub(earlier.modmul),
            redc: self.redc.saturating_sub(earlier.redc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = OpCounters::default();
        c.add_enc(3);
        c.add_dec(1);
        c.add_hadd(10);
        c.add_neg(6);
        c.add_scaling(4);
        let s = c.snapshot();
        assert_eq!(s.enc, 3);
        assert_eq!(s.dec, 1);
        assert_eq!(s.hadd, 10);
        assert_eq!(s.negs, 6);
        assert_eq!(s.scalings, 4);
    }

    #[test]
    fn since_subtracts_componentwise() {
        let c = OpCounters::default();
        c.add_hadd(5);
        let before = c.snapshot();
        c.add_hadd(7);
        c.add_pack(2);
        let delta = c.snapshot().since(&before);
        assert_eq!(delta.hadd, 7);
        assert_eq!(delta.packs, 2);
        assert_eq!(delta.enc, 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = OpCounters::default();
        c.add_smul(9);
        c.reset();
        assert_eq!(c.snapshot(), OpSnapshot::default());
    }
}
