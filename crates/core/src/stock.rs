//! The guest's stock: the next tree's encryption draws, made while it
//! waits during this one.
//!
//! A Paillier encryption is a *draw* — what its element seed's rng yields
//! before the value is needed: the jittered exponent on the two-stream
//! path, then the obfuscator `rⁿ`, nearly all of the work — and a cheap
//! *seal* ([`vf2_crypto::Suite::draw`] / [`vf2_crypto::Suite::seal`]).
//! Only the gradients are unknown before a tree starts, so after tree t's
//! gradients are sent the guest opens a stock of tree t+1's draws, at the
//! element seeds the inline path would draw at ([`GradPath::draw`]), and
//! [`crate::peer::wait`] makes them a slice at a time whenever no frame is
//! queued. Tree t+1 seals what was stocked and makes the rest, so ciphers,
//! models and op counts are the inline path's whatever the stock holds.
//!
//! The stock holds one tree's draws at most, each as exactly `n²`'s limbs,
//! up to [`STOCK_BYTES`]; the draws past the cap are made at use. A
//! batch's draws leave the stock when it is sealed.

use std::mem;

use vf2_crypto::suite::{Draw, Suite};

use crate::error::TrainError;
use crate::grad_path::GradPath;
use crate::peer::Background;
use crate::pool::Pool;
use crate::trace::TracePhase;

/// The most a stock holds, in bytes (its draws' limbs and slots).
const STOCK_BYTES: usize = 4 << 20;

/// One forward batch of the stocked tree: where its draws come from, how
/// many of them the stock makes, and those made so far, in draw order.
struct Batch {
    seed: u64,
    rows: usize,
    planned: usize,
    draws: Vec<Option<Draw>>,
}

/// The draws of one tree's forward batches, made in send order.
pub(crate) struct Stock {
    tree: u32,
    batches: Vec<Batch>,
    /// The first batch with a planned draw not yet made.
    next: usize,
}

impl Stock {
    /// The stock of tree `tree`, whose forward batches are `batches` —
    /// `(seed, rows)` in send order — or `None` when the path makes no
    /// draws (the mock).
    pub fn open(
        path: &GradPath,
        suite: &Suite,
        tree: u32,
        batches: impl Iterator<Item = (u64, usize)>,
    ) -> Option<Stock> {
        let limbs = suite.public_key().map_or(0, |pk| pk.nn().bits().div_ceil(64) as usize);
        let mut room = STOCK_BYTES / (mem::size_of::<Option<Draw>>() + 8 * limbs);
        let batches: Vec<Batch> = batches
            .map(|(seed, rows)| {
                let planned = path.draws(rows).min(room);
                room -= planned;
                Batch { seed, rows, planned, draws: Vec::with_capacity(planned) }
            })
            .collect();
        batches.iter().any(|b| b.planned > 0).then_some(Stock { tree, batches, next: 0 })
    }

    /// Whether a planned draw is left to make.
    pub fn pending(&self) -> bool {
        self.next < self.batches.len()
    }

    /// Makes the next planned draws, one per worker of `pool`.
    fn slice(&mut self, path: &GradPath, suite: &Suite, pool: &Pool) -> Result<(), TrainError> {
        let batches = &self.batches;
        let todo: Vec<(usize, usize)> = (self.next..batches.len())
            .flat_map(|b| (batches[b].draws.len()..batches[b].planned).map(move |j| (b, j)))
            .take(pool.width())
            .collect();
        let draws = pool.map(todo, |(b, j)| {
            let Batch { seed, rows, .. } = batches[b];
            path.draw(suite, seed, rows, j).map(|draw| (b, draw))
        });
        for made in draws {
            let (b, draw) = made.map_err(TrainError::crypto("stocked encryption draw"))?;
            self.batches[b].draws.push(Some(draw));
        }
        while self.batches.get(self.next).is_some_and(|b| b.draws.len() == b.planned) {
            self.next += 1;
        }
        Ok(())
    }

    /// The draws made for batch `k` of tree `tree`, in draw order (a
    /// prefix of the batch's), handed out once — no more are made for it —
    /// and nothing for another tree.
    pub fn take(&mut self, tree: u32, k: usize) -> Vec<Option<Draw>> {
        match self.batches.get_mut(k).filter(|_| tree == self.tree) {
            Some(batch) => {
                batch.planned = 0;
                mem::take(&mut batch.draws)
            }
            None => Vec::new(),
        }
    }
}

/// A stock's production as the guest's background work in its waits: one
/// slice makes about one draw per worker of the guest's pool, billed to
/// the stocked tree's `Encrypt` span.
pub(crate) struct Production<'a> {
    pub stock: &'a mut Stock,
    pub path: &'a GradPath,
    pub suite: &'a Suite,
    pub pool: &'a Pool,
}

impl Background for Production<'_> {
    fn pending(&self) -> bool {
        self.stock.pending()
    }

    fn span(&self) -> (TracePhase, u32) {
        (TracePhase::Encrypt, self.stock.tree)
    }

    fn slice(&mut self) -> Result<(), TrainError> {
        self.stock.slice(self.path, self.suite, self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf2_gbdt::histogram::GradPair;

    use crate::config::TrainConfig;
    use crate::guest::batch_seed;
    use crate::protocol::ProtocolConfig;

    /// Tree 2 (index 1) of a 10-row run, in forward batches of 4.
    const ROWS: usize = 10;
    const TREE: u32 = 1;
    const CUTS: [(usize, usize); 3] = [(0, 4), (4, 8), (8, 10)];

    fn forward(seed: u64) -> impl Iterator<Item = (u64, usize)> {
        CUTS.into_iter().map(move |(start, end)| (batch_seed(seed, TREE, start), end - start))
    }

    /// Runs `slices` slices of `stock`'s production on `pool`.
    fn produce(stock: &mut Stock, path: &GradPath, suite: &Suite, pool: &Pool, slices: usize) {
        let mut work = Production { stock, path, suite, pool };
        for _ in 0..slices {
            work.slice().unwrap();
        }
    }

    /// Tree 2's forward messages are the inline path's bytes whatever the
    /// stock holds — nothing, a prefix, a prefix with a gap in the middle,
    /// or every draw — on the paired and the two-stream Paillier paths, at
    /// pool widths 1, 2 and 3: each draw is made at the seed the inline
    /// path draws at and sealed into its own row.
    #[test]
    fn ciphers_do_not_depend_on_the_stock() {
        let cfg = TrainConfig::for_tests();
        let suite = Suite::paillier_seeded(256, 7, cfg.encoding).unwrap();
        let grads: Vec<GradPair> = (0..ROWS)
            .map(|i| GradPair { g: i as f64 / 10.0 - 0.45, h: 0.25 - i as f64 * 0.01 })
            .collect();
        for pack_histograms in [true, false] {
            let protocol = ProtocolConfig { pack_histograms, ..cfg.protocol };
            let path = GradPath::of(&TrainConfig { protocol, ..cfg }, &suite, ROWS).unwrap();
            let open = || Stock::open(&path, &suite, TREE, forward(cfg.seed)).unwrap();
            let messages = |pool: &Pool, mut stock: Stock| -> Vec<Vec<u8>> {
                let cuts = CUTS.into_iter().zip(forward(cfg.seed)).enumerate();
                cuts.map(|(k, ((start, end), (seed, _)))| {
                    let at = (TREE, start as u32, end == ROWS);
                    let stocked = stock.take(TREE, k);
                    let msg = path.encrypt(&suite, pool, &grads[start..end], seed, at, stocked);
                    crate::wire::encode(&msg.unwrap()).unwrap().to_vec()
                })
                .collect()
            };
            let inline = messages(&Pool::new(1, "test"), open());
            let all = 2 * path.draws(ROWS);
            for width in [1, 2, 3] {
                let pool = Pool::new(width, "test");
                let filled = |slices| {
                    let mut stock = open();
                    produce(&mut stock, &path, &suite, &pool, slices);
                    stock
                };
                let prefix = filled(2);
                assert!(
                    prefix.pending()
                        && prefix.batches[0].draws.len() == (2 * width).min(path.draws(4))
                );
                let mut gap = filled(all);
                assert!(!gap.pending(), "the stock did not fill");
                gap.batches[1].draws[1] = None;
                gap.batches[1].draws[2] = None;
                for (name, stock) in [("empty", open()), ("prefix", prefix), ("gap", gap)]
                    .into_iter()
                    .chain([("full", filled(all))])
                {
                    let sent = messages(&pool, stock);
                    assert!(sent == inline, "pack {pack_histograms} width {width}: {name} moved");
                }
            }
        }
    }

    /// The mock makes no draws, so it opens no stock; and a stock hands a
    /// batch's draws out once, and none for another tree.
    #[test]
    fn the_mock_opens_no_stock_and_draws_are_handed_out_once() {
        let cfg = TrainConfig::for_tests();
        let mock = Suite::plain(cfg.encoding);
        let path = GradPath::of(&cfg, &mock, ROWS).unwrap();
        assert!(Stock::open(&path, &mock, TREE, forward(cfg.seed)).is_none());

        let suite = Suite::paillier_seeded(256, 7, cfg.encoding).unwrap();
        let path = GradPath::of(&cfg, &suite, ROWS).unwrap();
        let mut stock = Stock::open(&path, &suite, TREE, forward(cfg.seed)).unwrap();
        produce(&mut stock, &path, &suite, &Pool::new(2, "test"), 2);
        assert!(stock.take(TREE + 1, 0).is_empty(), "another tree's batch");
        assert_eq!(stock.take(TREE, 0).len(), 4);
        assert!(stock.take(TREE, 0).is_empty(), "handed out twice");
        produce(&mut stock, &path, &suite, &Pool::new(2, "test"), 1);
        assert_eq!(stock.batches[1].draws.len(), 2, "a taken batch is made no more");
    }
}
