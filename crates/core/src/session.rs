//! Resumable training sessions: durable per-party checkpoints plus the
//! bookkeeping both parties need to agree on a common resume point.
//!
//! A session is a directory each party can write to (in a real
//! deployment each party has its own storage; the simulation shares one
//! directory with per-role file names). At every tree boundary a party
//! atomically persists its private state (see [`crate::persist`]); when a
//! restarted run connects, the parties exchange their durable tree counts
//! and resume from the last *mutually* durable tree. Checkpoints are bound to a
//! session id, the master seed and a config digest, so stale or
//! mismatched snapshots are detected instead of silently corrupting the
//! model.

use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::config::TrainConfig;
use crate::error::{PartyId, TrainError};
use crate::model::HostSplitTable;
use crate::persist::{
    atomic_write, decode_guest_checkpoint, decode_host_checkpoint, encode_guest_checkpoint,
    encode_host_checkpoint, GuestCheckpoint, HostCheckpoint,
};
use crate::telemetry::PartyTelemetry;
use crate::trace::write_flight_record;

/// File extension of checkpoint snapshots.
const CK_EXT: &str = "vf2ck";

/// Caller-facing description of a resumable session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Stable identifier both parties must share; a resumed run must
    /// present the same id it trained under.
    pub session_id: u64,
    /// Directory holding every party's checkpoints and flight records.
    pub dir: PathBuf,
    /// Whether to scan for prior checkpoints and resume from the last
    /// mutually durable tree (`false` trains from scratch but still
    /// writes checkpoints).
    pub resume: bool,
}

impl SessionConfig {
    /// A fresh session writing checkpoints under `dir`.
    pub fn new(session_id: u64, dir: impl Into<PathBuf>) -> SessionConfig {
        SessionConfig { session_id, dir: dir.into(), resume: false }
    }

    /// The same session, flagged to resume from durable checkpoints.
    pub fn resuming(mut self) -> SessionConfig {
        self.resume = true;
        self
    }
}

/// Digest of the configuration axes that determine the trained model.
///
/// Only model-determining fields participate: hyper-parameters, protocol
/// mode, cipher suite, encoding and the master seed. WAN shape, fault
/// plans and liveness knobs are excluded — the determinism invariant
/// guarantees they do not change the model, so resuming under (say) a
/// different peer deadline is legal.
pub fn config_digest(cfg: &TrainConfig) -> u64 {
    let repr = format!(
        "{:?}|{:?}|{:?}|{:?}|{}",
        cfg.gbdt, cfg.protocol, cfg.crypto, cfg.encoding, cfg.seed
    );
    // FNV-1a, 64-bit.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in repr.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One party's handle on a session: where its checkpoints live and what
/// identity they must carry. Built by the trainer from a
/// [`SessionConfig`]; cheap to clone into party threads.
#[derive(Debug, Clone)]
pub struct PartySession {
    session_id: u64,
    dir: PathBuf,
    resume: bool,
    role: String,
    seed: u64,
    digest: u64,
}

impl PartySession {
    /// The guest's view of a session.
    pub fn guest(sc: &SessionConfig, cfg: &TrainConfig) -> PartySession {
        PartySession::for_role(sc, cfg, "guest".to_string())
    }

    /// Host `party`'s view of a session.
    pub fn host(sc: &SessionConfig, cfg: &TrainConfig, party: usize) -> PartySession {
        PartySession::for_role(sc, cfg, format!("host{party}"))
    }

    fn for_role(sc: &SessionConfig, cfg: &TrainConfig, role: String) -> PartySession {
        PartySession {
            session_id: sc.session_id,
            dir: sc.dir.clone(),
            resume: sc.resume,
            role,
            seed: cfg.seed,
            digest: config_digest(cfg),
        }
    }

    /// The session identifier this party presents in the handshake.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Whether the run should scan for and resume from checkpoints.
    pub fn resume(&self) -> bool {
        self.resume
    }

    /// Where this party's failure-time flight record is dumped
    /// (see [`Self::dump_flight_record`]).
    pub fn flight_path(&self) -> PathBuf {
        self.dir.join(format!("{}.flight.json", self.role))
    }

    /// Failure-time flight recorder, shared by both parties: dumps the
    /// party's last trace events and this session's identity next to its
    /// checkpoints. Best-effort — a failing dump must not mask the error
    /// that brought the run down, but it must not vanish either: it is
    /// counted and leaves a trace note for the post-mortem.
    pub fn dump_flight_record(&self, error: &TrainError, telemetry: &mut PartyTelemetry) {
        if let Err(why) = write_flight_record(
            &self.flight_path(),
            self.session_id,
            self.digest,
            &error.to_string(),
            telemetry,
        ) {
            telemetry.events.flight_record_failed += 1;
            telemetry.trace.note(format!("flight record dump failed: {why}"));
        }
    }

    /// Path of this party's checkpoint after `tree_count` trees.
    fn checkpoint_path(&self, tree_count: u32) -> PathBuf {
        self.dir.join(format!("{}-{tree_count:05}.{CK_EXT}", self.role))
    }

    /// Scans the session directory for this party's *valid* durable
    /// checkpoints and returns their tree counts, ascending. A candidate
    /// only counts if it fully decodes and matches the session id, seed,
    /// config digest and the tree count named in the file — anything
    /// else (torn file, stale session, different config) is skipped, so
    /// a changed configuration resumes as a clean fresh start.
    pub fn durable(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return out;
        };
        let prefix = format!("{}-", self.role);
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(&format!(".{CK_EXT}")) else { continue };
            let Some(count) = stem.strip_prefix(&prefix) else { continue };
            let Ok(k) = count.parse::<u32>() else { continue };
            if self.validate_checkpoint(&entry.path(), k) {
                out.push(k);
            }
        }
        out.sort_unstable();
        out
    }

    /// Fully decodes the checkpoint at `path` and checks its header
    /// against this session.
    fn validate_checkpoint(&self, path: &Path, k: u32) -> bool {
        let Ok(bytes) = std::fs::read(path) else { return false };
        let bytes = Bytes::from(bytes);
        let (sid, seed, digest, trees) = if self.role == "guest" {
            match decode_guest_checkpoint(bytes) {
                Ok(ck) => (ck.session_id, ck.seed, ck.config_digest, ck.tree_count),
                Err(_) => return false,
            }
        } else {
            match decode_host_checkpoint(bytes) {
                Ok(ck) => (ck.session_id, ck.seed, ck.config_digest, ck.tree_count),
                Err(_) => return false,
            }
        };
        sid == self.session_id && seed == self.seed && digest == self.digest && trees == k
    }

    /// Durably writes the guest's snapshot after `tree_count` trees.
    pub fn save_guest(
        &self,
        tree_count: u32,
        trees: Vec<crate::model::FedTree>,
        preds: Vec<f64>,
    ) -> Result<(), TrainError> {
        let ck = GuestCheckpoint {
            session_id: self.session_id,
            seed: self.seed,
            config_digest: self.digest,
            tree_count,
            trees,
            preds,
        };
        atomic_write(self.checkpoint_path(tree_count), &encode_guest_checkpoint(&ck))
            .map_err(|e| TrainError::Checkpoint { party: PartyId::Guest, detail: e.to_string() })
    }

    /// Loads the guest's snapshot at exactly `tree_count` trees.
    pub fn load_guest(&self, tree_count: u32) -> Result<GuestCheckpoint, TrainError> {
        let path = self.checkpoint_path(tree_count);
        let mismatch =
            |detail: String| TrainError::ResumeMismatch { party: PartyId::Guest, detail };
        let bytes = std::fs::read(&path)
            .map_err(|e| mismatch(format!("guest checkpoint {tree_count} unreadable: {e}")))?;
        let ck = decode_guest_checkpoint(Bytes::from(bytes))
            .map_err(|e| mismatch(format!("guest checkpoint {tree_count} undecodable: {e}")))?;
        if ck.session_id != self.session_id
            || ck.seed != self.seed
            || ck.config_digest != self.digest
        {
            return Err(mismatch(format!(
                "guest checkpoint {tree_count} belongs to another session/config"
            )));
        }
        Ok(ck)
    }

    /// Durably writes host `party`'s snapshot after `tree_count` trees.
    pub fn save_host(
        &self,
        tree_count: u32,
        party: u32,
        table: HostSplitTable,
    ) -> Result<(), TrainError> {
        let ck = HostCheckpoint {
            session_id: self.session_id,
            seed: self.seed,
            config_digest: self.digest,
            tree_count,
            party,
            table,
        };
        atomic_write(self.checkpoint_path(tree_count), &encode_host_checkpoint(&ck)).map_err(|e| {
            TrainError::Checkpoint { party: PartyId::Host(party as usize), detail: e.to_string() }
        })
    }

    /// Loads this host's snapshot at exactly `tree_count` trees.
    pub fn load_host(&self, tree_count: u32, party: u32) -> Result<HostCheckpoint, TrainError> {
        let path = self.checkpoint_path(tree_count);
        let mismatch = |detail: String| TrainError::ResumeMismatch {
            party: PartyId::Host(party as usize),
            detail,
        };
        let bytes = std::fs::read(&path)
            .map_err(|e| mismatch(format!("host checkpoint {tree_count} unreadable: {e}")))?;
        let ck = decode_host_checkpoint(Bytes::from(bytes))
            .map_err(|e| mismatch(format!("host checkpoint {tree_count} undecodable: {e}")))?;
        if ck.session_id != self.session_id
            || ck.seed != self.seed
            || ck.config_digest != self.digest
        {
            return Err(mismatch(format!(
                "host checkpoint {tree_count} belongs to another session/config"
            )));
        }
        Ok(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FedNode, FedTree};
    use std::time::Duration;

    fn temp_session(tag: &str) -> SessionConfig {
        let dir = std::env::temp_dir().join(format!("vf2_session_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        SessionConfig::new(99, dir)
    }

    fn sample_trees() -> Vec<FedTree> {
        let mut t = FedTree::new(2);
        t.nodes[0] = FedNode::Leaf(0.5);
        vec![t]
    }

    #[test]
    fn digest_tracks_model_determining_fields_only() {
        let a = TrainConfig::for_tests();
        let mut b = a;
        b.seed += 1;
        assert_ne!(config_digest(&a), config_digest(&b), "seed must change the digest");
        let mut c = a;
        c.peer_dead_after = Duration::from_millis(999);
        c.peer_timeout = Duration::from_secs(1);
        assert_eq!(config_digest(&a), config_digest(&c), "liveness knobs must not");
    }

    #[test]
    fn durable_reports_only_valid_matching_checkpoints() {
        let sc = temp_session("durable");
        let cfg = TrainConfig::for_tests();
        let s = PartySession::guest(&sc, &cfg);
        assert!(s.durable().is_empty());
        s.save_guest(1, sample_trees(), vec![0.1]).unwrap();
        s.save_guest(2, sample_trees(), vec![0.2]).unwrap();
        // A torn file and a foreign file must both be ignored.
        std::fs::write(sc.dir.join("guest-00003.vf2ck"), b"torn").unwrap();
        std::fs::write(sc.dir.join("junk.txt"), b"noise").unwrap();
        // A checkpoint from a different seed must be ignored too.
        let other = PartySession::guest(&sc, &TrainConfig { seed: 7, ..cfg });
        other.save_guest(4, sample_trees(), vec![0.4]).unwrap();
        // So must a matching header followed by a garbage count, which
        // once aborted the scan instead: an empty checkpoint's two zero
        // counts are replaced by `counts`.
        let garbage = |k: u32, counts: &[u64]| {
            let header = encode_guest_checkpoint(&GuestCheckpoint {
                session_id: s.session_id,
                seed: s.seed,
                config_digest: s.digest,
                tree_count: k,
                trees: Vec::new(),
                preds: Vec::new(),
            });
            let mut e = vf2_channel::codec::Encoder::new();
            counts.iter().for_each(|&c| e.put_varint(c));
            let file = [&header[..header.len() - 2], &e.finish()[..]].concat();
            std::fs::write(s.checkpoint_path(k), file).unwrap();
        };
        garbage(5, &[u64::MAX]); // trees
        garbage(6, &[1, 3, 1 << 40]); // one tree, three layers, 2^40 nodes
        assert_eq!(s.durable(), vec![1, 2]);
        let _ = std::fs::remove_dir_all(&sc.dir);
    }

    #[test]
    fn load_rejects_a_foreign_checkpoint() {
        let sc = temp_session("foreign");
        let cfg = TrainConfig::for_tests();
        let s = PartySession::guest(&sc, &cfg);
        let other = PartySession::guest(&sc, &TrainConfig { seed: 7, ..cfg });
        other.save_guest(1, sample_trees(), vec![0.5]).unwrap();
        let err = s.load_guest(1).unwrap_err();
        assert!(matches!(err, TrainError::ResumeMismatch { party: PartyId::Guest, .. }));
        let _ = std::fs::remove_dir_all(&sc.dir);
    }

    #[test]
    fn guest_and_host_checkpoints_round_trip_through_files() {
        let sc = temp_session("roundtrip");
        let cfg = TrainConfig::for_tests();
        let g = PartySession::guest(&sc, &cfg);
        let preds = vec![0.25, -1.5, std::f64::consts::E];
        g.save_guest(2, sample_trees(), preds.clone()).unwrap();
        let back = g.load_guest(2).unwrap();
        assert_eq!(back.trees, sample_trees());
        for (a, b) in back.preds.iter().zip(&preds) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let h = PartySession::host(&sc, &cfg, 0);
        let table = HostSplitTable::default();
        h.save_host(2, 0, table.clone()).unwrap();
        assert_eq!(h.load_host(2, 0).unwrap().table, table);
        // The two roles' files coexist in one directory.
        assert_eq!(g.durable(), vec![2]);
        assert_eq!(h.durable(), vec![2]);
        let _ = std::fs::remove_dir_all(&sc.dir);
    }

    #[test]
    fn flight_path_is_per_role_and_digest_is_shared() {
        let sc = temp_session("flight");
        let cfg = TrainConfig::for_tests();
        let g = PartySession::guest(&sc, &cfg);
        let h = PartySession::host(&sc, &cfg, 1);
        assert!(g.flight_path().ends_with("guest.flight.json"));
        assert!(h.flight_path().ends_with("host1.flight.json"));
        assert_eq!(g.role, "guest");
        assert_eq!(h.role, "host1");
        assert_eq!(g.digest, h.digest);
        assert_eq!(g.digest, config_digest(&cfg));
        let _ = std::fs::remove_dir_all(&sc.dir);
    }
}
