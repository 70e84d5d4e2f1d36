//! Model persistence: a compact, versioned binary format for trained
//! models.
//!
//! The paper's deployment stores models on HDFS between the training and
//! serving pipelines (§3.3). Here each party can persist its own view —
//! the guest's trees plus, per host, that host's private split table —
//! and reload it later for federated inference. The format reuses the
//! wire codec, so it is deterministic and has no external schema
//! dependencies.

use std::path::Path;

use bytes::Bytes;
use vf2_channel::codec::{DecodeError, Decoder, Encoder};
use vf2_gbdt::loss::LossKind;
use vf2_gbdt::tree::NodeSplit;

use crate::model::{FedNode, FedTree, FederatedModel, HostSplitTable};

/// Magic bytes + format version.
const MAGIC: &[u8; 4] = b"VF2B";
const VERSION: u16 = 1;

/// Magic bytes + format version of checkpoint files.
const CK_MAGIC: &[u8; 4] = b"VF2K";
const CK_VERSION: u16 = 1;

/// Persistence failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Underlying codec failure.
    Codec(DecodeError),
    /// Not a VF²Boost model file.
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// Unknown enum tag while decoding.
    BadTag(&'static str, u8),
    /// A model that decodes but could not be predicted with: a tree whose
    /// node list is not its heap, or a host split no host table holds
    /// ([`FederatedModel::validate`] says which).
    InvalidModel(String),
    /// Filesystem failure.
    Io(String),
}

impl From<DecodeError> for PersistError {
    fn from(e: DecodeError) -> Self {
        PersistError::Codec(e)
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Codec(e) => write!(f, "codec: {e}"),
            PersistError::BadMagic => write!(f, "not a VF2Boost model file"),
            PersistError::BadVersion(v) => write!(f, "unsupported model format version {v}"),
            PersistError::BadTag(what, t) => write!(f, "bad {what} tag {t}"),
            PersistError::InvalidModel(why) => write!(f, "invalid model: {why}"),
            PersistError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn put_loss(e: &mut Encoder, loss: &LossKind) {
    match loss {
        LossKind::Logistic => e.put_u8(0),
        LossKind::Squared { grad_bound } => {
            e.put_u8(1);
            e.put_f64(*grad_bound);
        }
    }
}

fn get_loss(d: &mut Decoder) -> Result<LossKind, PersistError> {
    match d.get_u8()? {
        0 => Ok(LossKind::Logistic),
        1 => Ok(LossKind::Squared { grad_bound: d.get_f64()? }),
        t => Err(PersistError::BadTag("loss", t)),
    }
}

fn put_split(e: &mut Encoder, s: &NodeSplit) {
    e.put_u32(s.feature as u32);
    e.put_u16(s.bin);
    e.put_f32(s.threshold);
}

fn get_split(d: &mut Decoder) -> Result<NodeSplit, PersistError> {
    Ok(NodeSplit { feature: d.get_u32()? as usize, bin: d.get_u16()?, threshold: d.get_f32()? })
}

fn put_tree(e: &mut Encoder, t: &FedTree) {
    e.put_varint(t.max_layers as u64);
    e.put_varint(t.nodes.len() as u64);
    for n in &t.nodes {
        match n {
            FedNode::Absent => e.put_u8(0),
            FedNode::Leaf(w) => {
                e.put_u8(1);
                e.put_f64(*w);
            }
            FedNode::GuestSplit(s) => {
                e.put_u8(2);
                put_split(e, s);
            }
            FedNode::HostSplit { party } => {
                e.put_u8(3);
                e.put_u16(*party);
            }
        }
    }
}

/// Reads an element count and bounds it by the bytes actually left: each
/// element occupies at least `min_elem_bytes`, so a larger count is a torn
/// or garbage file, rejected *before* a `Vec` is reserved for it (the rule
/// `wire.rs::bounded_len` applies to peers).
fn get_count(d: &mut Decoder, min_elem_bytes: usize) -> Result<usize, PersistError> {
    let len = d.get_varint()?;
    if len > (d.remaining() / min_elem_bytes) as u64 {
        return Err(DecodeError::Truncated.into());
    }
    Ok(len as usize)
}

/// The smallest encoded tree: a layer count and a node count, no node.
const MIN_TREE_BYTES: usize = 2;

fn get_tree(d: &mut Decoder) -> Result<FedTree, PersistError> {
    let max_layers = d.get_varint()? as usize;
    // The smallest node is a bare `Absent` tag.
    let len = get_count(d, 1)?;
    let mut nodes = Vec::with_capacity(len);
    for _ in 0..len {
        nodes.push(match d.get_u8()? {
            0 => FedNode::Absent,
            1 => FedNode::Leaf(d.get_f64()?),
            2 => FedNode::GuestSplit(get_split(d)?),
            3 => FedNode::HostSplit { party: d.get_u16()? },
            t => return Err(PersistError::BadTag("node", t)),
        });
    }
    Ok(FedTree { max_layers, nodes })
}

/// Serializes a complete federated model (guest view + every host's split
/// table — suitable for co-located evaluation harnesses; real deployments
/// persist each party's part separately, a host's table in its checkpoint,
/// [`encode_host_checkpoint`]).
pub fn encode_model(model: &FederatedModel) -> Bytes {
    let mut e = Encoder::new();
    e.put_bytes(MAGIC);
    e.put_u16(VERSION);
    e.put_f64(model.learning_rate);
    e.put_f64(model.base_score);
    put_loss(&mut e, &model.loss);
    e.put_varint(model.trees.len() as u64);
    for t in &model.trees {
        put_tree(&mut e, t);
    }
    e.put_varint(model.host_tables.len() as u64);
    for table in &model.host_tables {
        put_host_table(&mut e, table);
    }
    e.finish()
}

/// Deserializes a model produced by [`encode_model`]. A model that decodes
/// but fails [`FederatedModel::validate`] is [`PersistError::InvalidModel`],
/// so a loaded model never panics at prediction.
pub fn decode_model(bytes: Bytes) -> Result<FederatedModel, PersistError> {
    let mut d = Decoder::new(bytes);
    let magic = d.get_bytes()?;
    if magic.as_ref() != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = d.get_u16()?;
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let learning_rate = d.get_f64()?;
    let base_score = d.get_f64()?;
    let loss = get_loss(&mut d)?;
    let num_trees = get_count(&mut d, MIN_TREE_BYTES)?;
    let mut trees = Vec::with_capacity(num_trees);
    for _ in 0..num_trees {
        trees.push(get_tree(&mut d)?);
    }
    // The smallest host table is its entry count alone.
    let num_hosts = get_count(&mut d, 1)?;
    let mut host_tables = Vec::with_capacity(num_hosts);
    for _ in 0..num_hosts {
        host_tables.push(get_host_table(&mut d)?);
    }
    let model = FederatedModel { trees, learning_rate, base_score, loss, host_tables };
    model.validate().map_err(PersistError::InvalidModel)?;
    Ok(model)
}

fn put_host_table(e: &mut Encoder, table: &HostSplitTable) {
    // Deterministic output: entries sorted by key.
    let mut keys: Vec<&(u32, u32)> = table.splits.keys().collect();
    keys.sort();
    e.put_varint(keys.len() as u64);
    for k in keys {
        e.put_u32(k.0);
        e.put_u32(k.1);
        put_split(e, &table.splits[k]);
    }
}

fn get_host_table(d: &mut Decoder) -> Result<HostSplitTable, PersistError> {
    let len = d.get_varint()? as usize;
    let mut table = HostSplitTable::default();
    for _ in 0..len {
        let tree = d.get_u32()?;
        let node = d.get_u32()?;
        table.splits.insert((tree, node), get_split(d)?);
    }
    Ok(table)
}

/// Writes `bytes` to `path` atomically: the data goes to a same-directory
/// `.tmp` sibling first, is fsynced, and is then renamed into place. A
/// crash mid-save can therefore never leave a torn file at `path` — the
/// old content (or nothing) survives instead.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), PersistError> {
    let path = path.as_ref();
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Writes a model to disk (atomically — see [`atomic_write`]).
pub fn save_model(model: &FederatedModel, path: impl AsRef<Path>) -> Result<(), PersistError> {
    atomic_write(path, &encode_model(model))
}

/// Reads a model from disk.
pub fn load_model(path: impl AsRef<Path>) -> Result<FederatedModel, PersistError> {
    let bytes = std::fs::read(path)?;
    decode_model(Bytes::from(bytes))
}

// ---- checkpoint format (magic `VF2K`) ----
//
// Checkpoints snapshot one party's *private* training state at a tree
// boundary. The header binds the snapshot to a session, a master seed and
// a config digest so a resume can detect mismatched state before
// trusting it.

/// The guest's durable state after `tree_count` completed trees: the
/// model-so-far plus the prediction margins (bitwise, so resumed gradient
/// computation is exact).
#[derive(Debug, Clone, PartialEq)]
pub struct GuestCheckpoint {
    /// Session this snapshot belongs to.
    pub session_id: u64,
    /// Master seed of the run (keys and encryption randomness derive
    /// from it — resuming under a different seed would diverge).
    pub seed: u64,
    /// Digest of the training configuration (see
    /// [`crate::session::config_digest`]).
    pub config_digest: u64,
    /// Trees completed when the snapshot was taken.
    pub tree_count: u32,
    /// The federated trees grown so far (guest view).
    pub trees: Vec<FedTree>,
    /// Per-row prediction margins after `tree_count` trees, bit-exact.
    pub preds: Vec<f64>,
}

/// A host's durable state after `tree_count` completed trees: its private
/// split table. All other host state (row placements, retained histograms) is
/// rebuilt per tree from the message stream, so nothing else survives a
/// tree boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct HostCheckpoint {
    /// Session this snapshot belongs to.
    pub session_id: u64,
    /// Master seed of the run.
    pub seed: u64,
    /// Digest of the training configuration.
    pub config_digest: u64,
    /// Trees completed when the snapshot was taken.
    pub tree_count: u32,
    /// Which host party wrote the snapshot.
    pub party: u32,
    /// The host's private split table.
    pub table: HostSplitTable,
}

/// Checkpoint kind tags inside the `VF2K` header.
const CK_KIND_GUEST: u8 = 0;
const CK_KIND_HOST: u8 = 1;

fn put_ck_header(e: &mut Encoder, kind: u8, sid: u64, seed: u64, digest: u64, trees: u32) {
    e.put_bytes(CK_MAGIC);
    e.put_u16(CK_VERSION);
    e.put_u8(kind);
    e.put_u64(sid);
    e.put_u64(seed);
    e.put_u64(digest);
    e.put_u32(trees);
}

fn get_ck_header(d: &mut Decoder, kind: u8) -> Result<(u64, u64, u64, u32), PersistError> {
    if d.get_bytes()?.as_ref() != CK_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = d.get_u16()?;
    if version != CK_VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let got = d.get_u8()?;
    if got != kind {
        return Err(PersistError::BadTag("checkpoint kind", got));
    }
    Ok((d.get_u64()?, d.get_u64()?, d.get_u64()?, d.get_u32()?))
}

/// Serializes a guest checkpoint.
pub fn encode_guest_checkpoint(ck: &GuestCheckpoint) -> Bytes {
    let mut e = Encoder::new();
    put_ck_header(&mut e, CK_KIND_GUEST, ck.session_id, ck.seed, ck.config_digest, ck.tree_count);
    e.put_varint(ck.trees.len() as u64);
    for t in &ck.trees {
        put_tree(&mut e, t);
    }
    e.put_f64_slice(&ck.preds);
    e.finish()
}

/// Deserializes a guest checkpoint produced by [`encode_guest_checkpoint`].
pub fn decode_guest_checkpoint(bytes: Bytes) -> Result<GuestCheckpoint, PersistError> {
    let mut d = Decoder::new(bytes);
    let (session_id, seed, config_digest, tree_count) = get_ck_header(&mut d, CK_KIND_GUEST)?;
    let num_trees = get_count(&mut d, MIN_TREE_BYTES)?;
    let mut trees = Vec::with_capacity(num_trees);
    for _ in 0..num_trees {
        trees.push(get_tree(&mut d)?);
    }
    let preds = d.get_f64_slice()?;
    Ok(GuestCheckpoint { session_id, seed, config_digest, tree_count, trees, preds })
}

/// Serializes a host checkpoint.
pub fn encode_host_checkpoint(ck: &HostCheckpoint) -> Bytes {
    let mut e = Encoder::new();
    put_ck_header(&mut e, CK_KIND_HOST, ck.session_id, ck.seed, ck.config_digest, ck.tree_count);
    e.put_u32(ck.party);
    put_host_table(&mut e, &ck.table);
    e.finish()
}

/// Deserializes a host checkpoint produced by [`encode_host_checkpoint`].
pub fn decode_host_checkpoint(bytes: Bytes) -> Result<HostCheckpoint, PersistError> {
    let mut d = Decoder::new(bytes);
    let (session_id, seed, config_digest, tree_count) = get_ck_header(&mut d, CK_KIND_HOST)?;
    let party = d.get_u32()?;
    let table = get_host_table(&mut d)?;
    Ok(HostCheckpoint { session_id, seed, config_digest, tree_count, party, table })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> FederatedModel {
        let mut tree = FedTree::new(3);
        tree.nodes[0] = FedNode::HostSplit { party: 0 };
        tree.nodes[1] = FedNode::GuestSplit(NodeSplit { feature: 3, bin: 7, threshold: 0.25 });
        tree.nodes[2] = FedNode::Leaf(-0.5);
        tree.nodes[3] = FedNode::Leaf(1.5);
        tree.nodes[4] = FedNode::Leaf(0.125);
        let mut table = HostSplitTable::default();
        table.splits.insert((0, 0), NodeSplit { feature: 1, bin: 2, threshold: -3.5 });
        FederatedModel {
            trees: vec![tree],
            learning_rate: 0.1,
            base_score: 0.0,
            loss: LossKind::Logistic,
            host_tables: vec![table],
        }
    }

    #[test]
    fn model_round_trips() {
        let m = sample_model();
        let decoded = decode_model(encode_model(&m)).unwrap();
        assert_eq!(decoded.trees, m.trees);
        assert_eq!(decoded.host_tables, m.host_tables);
        assert_eq!(decoded.learning_rate, m.learning_rate);
        assert_eq!(decoded.loss, m.loss);
    }

    #[test]
    fn decoded_model_predicts_identically() {
        let m = sample_model();
        let decoded = decode_model(encode_model(&m)).unwrap();
        for (host_v, guest_v) in [(-4.0f32, 0.0f32), (-3.0, 0.2), (5.0, 0.3)] {
            let a = m.predict_margin_row(&[vec![host_v, host_v]], &[0.0, 0.0, 0.0, guest_v]);
            let b = decoded.predict_margin_row(&[vec![host_v, host_v]], &[0.0, 0.0, 0.0, guest_v]);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn squared_loss_round_trips() {
        let mut m = sample_model();
        m.loss = LossKind::Squared { grad_bound: 42.0 };
        let decoded = decode_model(encode_model(&m)).unwrap();
        assert_eq!(decoded.loss, m.loss);
    }

    #[test]
    fn encoding_is_deterministic() {
        let m = sample_model();
        assert_eq!(encode_model(&m), encode_model(&m));
    }

    /// Each of these decoded `Ok` once and then panicked at prediction.
    #[test]
    fn a_model_that_prediction_cannot_route_is_rejected_at_decode() {
        let rejected = |name: &str, edit: fn(&mut FederatedModel)| {
            let mut m = sample_model();
            edit(&mut m);
            match decode_model(encode_model(&m)) {
                Err(PersistError::InvalidModel(why)) => assert!(why.contains("tree 0"), "{why}"),
                other => panic!("{name}: expected InvalidModel, got {other:?}"),
            }
        };
        // A 3-layer tree of one split: routing would read `nodes[1]`.
        rejected("one-node tree", |m| m.trees[0].nodes.truncate(1));
        // A split of host 9 in a one-host model.
        rejected("unknown party", |m| m.trees[0].nodes[0] = FedNode::HostSplit { party: 9 });
        // Host 0's split at the root, missing from its table.
        rejected("missing entry", |m| m.host_tables[0].splits.clear());
    }

    #[test]
    fn a_trained_model_round_trips() {
        use crate::config::{CryptoConfig, TrainConfig};
        use vf2_datagen::synthetic::{generate_classification, SyntheticConfig};
        use vf2_datagen::vertical::split_vertical;

        let data = generate_classification(&SyntheticConfig {
            rows: 120,
            features: 6,
            density: 1.0,
            informative_frac: 0.5,
            label_noise: 0.0,
            seed: 3,
        });
        let s = split_vertical(&data, &[3]);
        let cfg = TrainConfig { crypto: CryptoConfig::Mock, ..TrainConfig::for_tests() };
        let trained = crate::train::train_federated(&s.hosts, &s.guest, &cfg).unwrap().model;
        assert!(trained.total_host_splits() > 0, "the host table is exercised");
        let decoded = decode_model(encode_model(&trained)).expect("a trained model decodes");
        assert_eq!(decoded.trees, trained.trees);
        assert_eq!(decoded.host_tables, trained.host_tables);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(decode_model(Bytes::from_static(b"\x04nope\x01\x00")).is_err());
        let mut e = Encoder::new();
        e.put_bytes(MAGIC);
        e.put_u16(99);
        assert!(matches!(decode_model(e.finish()), Err(PersistError::BadVersion(99))));
    }

    #[test]
    fn file_round_trip() {
        let m = sample_model();
        let path = std::env::temp_dir().join("vf2boost_model_test.bin");
        save_model(&m, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.trees, m.trees);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn atomic_save_leaves_no_tmp_sibling() {
        let m = sample_model();
        let dir = std::env::temp_dir().join(format!("vf2_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        save_model(&m, &path).unwrap();
        // Overwrite with new content: still atomic, still no residue.
        save_model(&m, &path).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["model.bin"], "temp files must not survive a save");
        assert_eq!(load_model(&path).unwrap().trees, m.trees);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn atomic_write_into_missing_directory_errors_cleanly() {
        let path = std::env::temp_dir().join("vf2_no_such_dir").join("model.bin");
        let err = atomic_write(&path, b"data").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    fn sample_guest_checkpoint() -> GuestCheckpoint {
        GuestCheckpoint {
            session_id: 7,
            seed: 42,
            config_digest: 0xDEAD_BEEF_CAFE_F00D,
            tree_count: 2,
            trees: sample_model().trees,
            preds: vec![0.125, -3.5, std::f64::consts::PI, 0.0, -0.0],
        }
    }

    fn sample_host_checkpoint() -> HostCheckpoint {
        HostCheckpoint {
            session_id: 7,
            seed: 42,
            config_digest: 1,
            tree_count: 2,
            party: 0,
            table: sample_model().host_tables.remove(0),
        }
    }

    #[test]
    fn guest_checkpoint_round_trips_bitwise() {
        let ck = sample_guest_checkpoint();
        let decoded = decode_guest_checkpoint(encode_guest_checkpoint(&ck)).unwrap();
        assert_eq!(decoded.session_id, ck.session_id);
        assert_eq!(decoded.seed, ck.seed);
        assert_eq!(decoded.config_digest, ck.config_digest);
        assert_eq!(decoded.tree_count, ck.tree_count);
        assert_eq!(decoded.trees, ck.trees);
        assert_eq!(decoded.preds.len(), ck.preds.len());
        for (a, b) in decoded.preds.iter().zip(&ck.preds) {
            assert_eq!(a.to_bits(), b.to_bits(), "preds must round-trip bitwise");
        }
    }

    #[test]
    fn host_checkpoint_round_trips() {
        let ck = sample_host_checkpoint();
        let decoded = decode_host_checkpoint(encode_host_checkpoint(&ck)).unwrap();
        assert_eq!(decoded, ck);
    }

    #[test]
    fn checkpoint_kinds_do_not_cross_decode() {
        let g = encode_guest_checkpoint(&sample_guest_checkpoint());
        let h = encode_host_checkpoint(&sample_host_checkpoint());
        assert!(matches!(
            decode_host_checkpoint(g),
            Err(PersistError::BadTag("checkpoint kind", CK_KIND_GUEST))
        ));
        assert!(matches!(
            decode_guest_checkpoint(h),
            Err(PersistError::BadTag("checkpoint kind", CK_KIND_HOST))
        ));
    }

    #[test]
    fn every_truncated_model_prefix_errors_without_panicking() {
        let bytes = encode_model(&sample_model());
        for len in 0..bytes.len() {
            let prefix = bytes.slice(0..len);
            assert!(decode_model(prefix).is_err(), "prefix of {len} bytes must not decode");
        }
    }

    #[test]
    fn every_truncated_checkpoint_prefix_errors_without_panicking() {
        let bytes = encode_guest_checkpoint(&sample_guest_checkpoint());
        for len in 0..bytes.len() {
            assert!(decode_guest_checkpoint(bytes.slice(0..len)).is_err());
        }
        let bytes = encode_host_checkpoint(&sample_host_checkpoint());
        for len in 0..bytes.len() {
            assert!(decode_host_checkpoint(bytes.slice(0..len)).is_err());
        }
    }

    /// `header()` followed by a tree count of `u64::MAX`, and by one tree
    /// announcing 2^40 nodes.
    fn with_garbage_counts(header: impl Fn() -> Encoder) -> [Bytes; 2] {
        let mut trees = header();
        trees.put_varint(u64::MAX);
        let mut nodes = header();
        nodes.put_varint(1); // one tree...
        nodes.put_varint(3); // ...of three layers...
        nodes.put_varint(1 << 40); // ...and 2^40 nodes.
        [trees.finish(), nodes.finish()]
    }

    /// A count read from disk is never trusted with an allocation: these
    /// were a capacity-overflow panic and an allocation abort.
    #[test]
    fn garbage_counts_are_typed_errors_not_allocations() {
        let truncated = Some(PersistError::Codec(DecodeError::Truncated));
        let checkpoint_header = || {
            let mut e = Encoder::new();
            put_ck_header(&mut e, CK_KIND_GUEST, 7, 42, 1, 2);
            e
        };
        for file in with_garbage_counts(checkpoint_header) {
            assert_eq!(decode_guest_checkpoint(file).err(), truncated);
        }
        let model_header = || {
            let mut e = Encoder::new();
            e.put_bytes(MAGIC);
            e.put_u16(VERSION);
            e.put_f64(0.1);
            e.put_f64(0.0);
            put_loss(&mut e, &LossKind::Logistic);
            e
        };
        for file in with_garbage_counts(model_header) {
            assert_eq!(decode_model(file).err(), truncated);
        }
    }

    #[test]
    fn bit_flips_in_header_bytes_are_rejected() {
        // Flipping any single bit of the magic, the version, or the first
        // node tag must produce an error, never a panic or silent
        // misdecode into an equal model.
        let m = sample_model();
        let clean = encode_model(&m);
        // Bytes 0..=4 cover the length-prefixed magic; 5..=6 the version.
        for byte in 0..7usize {
            for bit in 0..8u8 {
                let mut corrupt = clean.to_vec();
                corrupt[byte] ^= 1 << bit;
                match decode_model(Bytes::from(corrupt)) {
                    Err(_) => {}
                    Ok(decoded) => panic!(
                        "flip byte {byte} bit {bit} decoded silently: \
                         trees_eq={}",
                        decoded.trees == m.trees
                    ),
                }
            }
        }
    }

    #[test]
    fn whole_file_bit_flips_never_panic() {
        // Any single-bit flip anywhere in the file must either fail to
        // decode or decode into *something* — it must never panic. (Flips
        // in payload values legitimately decode to different numbers.)
        let clean = encode_guest_checkpoint(&sample_guest_checkpoint());
        for byte in 0..clean.len() {
            let mut corrupt = clean.to_vec();
            corrupt[byte] ^= 0x10;
            let _ = decode_guest_checkpoint(Bytes::from(corrupt));
        }
    }

    #[test]
    fn checkpoint_round_trip_property_over_seeds() {
        // Pseudo-random checkpoints of varying shapes must round-trip
        // exactly; a cheap LCG keeps the test deterministic.
        let mut state: u64 = 0x1234_5678_9ABC_DEF0;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..25 {
            let layers = 1 + (next() % 4) as usize;
            let mut tree = FedTree::new(layers);
            for i in 0..tree.nodes.len() {
                tree.nodes[i] = match next() % 4 {
                    0 => FedNode::Absent,
                    1 => FedNode::Leaf((next() as i64) as f64 / 1e6),
                    2 => FedNode::GuestSplit(NodeSplit {
                        feature: (next() % 100) as usize,
                        bin: (next() % 256) as u16,
                        threshold: (next() % 1000) as f32 / 7.0,
                    }),
                    _ => FedNode::HostSplit { party: (next() % 4) as u16 },
                };
            }
            let preds: Vec<f64> =
                (0..(next() % 50)).map(|_| (next() as i64) as f64 / 1e9).collect();
            let ck = GuestCheckpoint {
                session_id: next(),
                seed: next(),
                config_digest: next(),
                tree_count: (next() % 100) as u32,
                trees: vec![tree],
                preds,
            };
            let decoded = decode_guest_checkpoint(encode_guest_checkpoint(&ck)).unwrap();
            assert_eq!(decoded, ck);
        }
    }
}
