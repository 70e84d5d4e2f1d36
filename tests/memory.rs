//! What a party holds: the peak live heap of a 20 000-row, 20+20-feature
//! mock `train_federated`, counted by a global allocator, above the level
//! live when the run starts.
//!
//! The run holds the caller's two tables (3.2 MB of `f32`) outside the
//! count. Inside it, each party keeps one binned form (4-byte row-major
//! entries plus its cut points), the host keeps two 16-byte-per-row mock
//! streams, and the guest its gradients and row lists. A party that
//! cloned its table (+1.6 MB per party) or kept a column-major binned copy
//! beside its row-major one (+0.8 MB per party) crosses the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use vf2boost::core::config::{CryptoConfig, TrainConfig};
use vf2boost::core::train_federated;
use vf2boost::datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2boost::datagen::vertical::split_vertical;

/// Bytes live now, and the most live since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting what it hands out.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
            }
        }
        q
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bound on the run's peak above its entry level. Holding each table
/// once peaks at 5.45–5.49 MB; the per-party dataset clone, the
/// column-major binned copy and the 32-byte mock streams it replaced
/// peaked at 7.89–7.95 MB. Putting back the clone alone reads 8.73 MB, the
/// column-major copy alone 7.06 MB.
const PEAK_BOUND: usize = 6_400_000;

#[test]
fn a_mock_run_holds_each_table_once() {
    let data = generate_classification(&SyntheticConfig {
        rows: 20_000,
        features: 40,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.05,
        seed: 11,
    });
    let s = split_vertical(&data, &[20]);
    drop(data);
    let cfg = TrainConfig { crypto: CryptoConfig::Mock, workers: 1, ..TrainConfig::for_tests() };
    let entry = LIVE.load(Ordering::SeqCst);
    PEAK.store(entry, Ordering::SeqCst);
    let out = train_federated(&s.hosts, &s.guest, &cfg).expect("the mock run trains");
    let peak = PEAK.load(Ordering::SeqCst) - entry;
    drop(out);
    eprintln!("peak live heap above entry: {peak} bytes");
    assert!(peak < PEAK_BOUND, "the run peaked {peak} bytes above entry (bound {PEAK_BOUND})");
}
