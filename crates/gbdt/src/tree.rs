//! Decision trees in heap layout, grown layer by layer.
//!
//! Nodes are stored in a complete-binary-tree array: node `i` has children
//! `2i+1` and `2i+2`; layer `l` occupies indices `[2ˡ−1, 2ˡ⁺¹−1)`. The
//! paper trains layer-wise (§7: histograms of a whole layer are aggregated
//! and shipped across parties together), and the heap layout makes the
//! layer structure explicit.

/// Index of a node in the heap array.
pub type NodeId = usize;

/// The split recorded at an internal node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSplit {
    /// Feature index.
    pub feature: usize,
    /// Split bin (instances with `bin ≤ this` go left).
    pub bin: u16,
    /// Raw-value threshold: `value ≤ threshold` goes left. Equivalent to
    /// the bin comparison by construction of the cuts.
    pub threshold: f32,
}

/// One tree node.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Node {
    /// Not part of the tree (below a leaf).
    #[default]
    Absent,
    /// An internal node with a split.
    Internal(NodeSplit),
    /// A leaf with its weight `ω*`.
    Leaf(f64),
}

/// A decision tree with at most `max_layers` layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    /// Maximum number of layers `L` (the root alone is one layer).
    pub max_layers: usize,
    /// Heap-layout nodes, length `2^L − 1`.
    pub nodes: Vec<Node>,
}

/// First node id of layer `l`.
pub fn layer_start(l: usize) -> NodeId {
    (1 << l) - 1
}

/// Left child of `id`.
pub fn left_child(id: NodeId) -> NodeId {
    2 * id + 1
}

/// Right child of `id`.
pub fn right_child(id: NodeId) -> NodeId {
    2 * id + 2
}

/// Parent of `id` (root has none).
pub fn parent(id: NodeId) -> Option<NodeId> {
    if id == 0 {
        None
    } else {
        Some((id - 1) / 2)
    }
}

/// The layer containing node `id`.
pub fn layer_of(id: NodeId) -> usize {
    (usize::BITS - (id + 1).leading_zeros() - 1) as usize
}

/// The most layers a tree may have: every holder of per-tree state sizes
/// it as `2^max_layers − 1` heap slots.
pub const MAX_LAYERS: usize = 24;

impl Tree {
    /// An empty tree with room for `max_layers` layers.
    pub fn new(max_layers: usize) -> Tree {
        assert!((1..=MAX_LAYERS).contains(&max_layers), "unreasonable layer count");
        Tree { max_layers, nodes: vec![Node::Absent; (1 << max_layers) - 1] }
    }

    /// Records a split at `id`.
    pub fn set_split(&mut self, id: NodeId, split: NodeSplit) {
        assert!(layer_of(id) + 1 < self.max_layers, "cannot split on the final layer (node {id})");
        self.nodes[id] = Node::Internal(split);
    }

    /// Finalizes `id` as a leaf of weight `w`.
    pub fn set_leaf(&mut self, id: NodeId, w: f64) {
        self.nodes[id] = Node::Leaf(w);
    }

    /// The node at `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Routes a dense feature vector to its leaf and returns the weight.
    ///
    /// A tree that passes [`Tree::validate`] (every tree `grow_tree` grows
    /// does) routes every row to a leaf. Only a hand-assembled tree that
    /// skipped it can route into an absent node; that subtree then adds
    /// 0.0 rather than panicking.
    pub fn predict_row(&self, row: &[f32]) -> f64 {
        let mut id = 0;
        loop {
            match &self.nodes[id] {
                Node::Leaf(w) => return *w,
                Node::Internal(s) => {
                    id = if row[s.feature] <= s.threshold {
                        left_child(id)
                    } else {
                        right_child(id)
                    };
                }
                Node::Absent => return 0.0,
            }
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf(_))).count()
    }

    /// Number of internal (split) nodes.
    pub fn num_splits(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Internal(_))).count()
    }

    /// Structural sanity check: every internal node has both children
    /// present, every leaf has none, and the root exists.
    pub fn validate(&self) -> Result<(), String> {
        if matches!(self.nodes[0], Node::Absent) {
            return Err("root is absent".into());
        }
        for id in 0..self.nodes.len() {
            match &self.nodes[id] {
                Node::Internal(_) => {
                    let (l, r) = (left_child(id), right_child(id));
                    if l >= self.nodes.len()
                        || matches!(self.nodes[l], Node::Absent)
                        || matches!(self.nodes[r], Node::Absent)
                    {
                        return Err(format!("internal node {id} lacks children"));
                    }
                }
                Node::Leaf(_) => {
                    let l = left_child(id);
                    if l < self.nodes.len() && !matches!(self.nodes[l], Node::Absent) {
                        return Err(format!("leaf {id} has a child"));
                    }
                }
                Node::Absent => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stump() -> Tree {
        let mut t = Tree::new(2);
        t.set_split(0, NodeSplit { feature: 0, bin: 0, threshold: 1.5 });
        t.set_leaf(1, -1.0);
        t.set_leaf(2, 1.0);
        t
    }

    #[test]
    fn heap_arithmetic() {
        assert_eq!(layer_start(0), 0);
        assert_eq!(layer_start(3), 7);
        assert_eq!(layer_start(4) - layer_start(3), 8);
        assert_eq!(left_child(2), 5);
        assert_eq!(right_child(2), 6);
        assert_eq!(parent(5), Some(2));
        assert_eq!(parent(0), None);
        assert_eq!(layer_of(0), 0);
        assert_eq!(layer_of(1), 1);
        assert_eq!(layer_of(2), 1);
        assert_eq!(layer_of(6), 2);
    }

    #[test]
    fn stump_routes_by_threshold() {
        let t = stump();
        assert_eq!(t.predict_row(&[1.0]), -1.0);
        assert_eq!(t.predict_row(&[1.5]), -1.0); // ≤ goes left
        assert_eq!(t.predict_row(&[2.0]), 1.0);
    }

    #[test]
    fn deep_tree_routing() {
        let mut t = Tree::new(3);
        t.set_split(0, NodeSplit { feature: 0, bin: 0, threshold: 0.0 });
        t.set_split(1, NodeSplit { feature: 1, bin: 0, threshold: 0.0 });
        t.set_leaf(2, 9.0);
        t.set_leaf(3, 1.0);
        t.set_leaf(4, 2.0);
        assert_eq!(t.predict_row(&[-1.0, -1.0]), 1.0);
        assert_eq!(t.predict_row(&[-1.0, 1.0]), 2.0);
        assert_eq!(t.predict_row(&[1.0, 0.0]), 9.0);
    }

    #[test]
    fn validate_accepts_complete_trees() {
        assert!(stump().validate().is_ok());
    }

    #[test]
    fn validate_rejects_dangling_internal() {
        let mut t = Tree::new(2);
        t.set_split(0, NodeSplit { feature: 0, bin: 0, threshold: 0.0 });
        t.set_leaf(1, 0.0);
        // child 2 missing
        assert!(t.validate().is_err());
        // ... and the unvalidated tree still predicts: 0.0 past the gap.
        assert_eq!(t.predict_row(&[1.0]), 0.0);
        assert_eq!(Tree::new(2).predict_row(&[1.0]), 0.0);
    }

    #[test]
    fn counts() {
        let t = stump();
        assert_eq!(t.num_leaves(), 2);
        assert_eq!(t.num_splits(), 1);
    }

    #[test]
    #[should_panic(expected = "final layer")]
    fn cannot_split_last_layer() {
        let mut t = Tree::new(2);
        t.set_split(1, NodeSplit { feature: 0, bin: 0, threshold: 0.0 });
    }
}
