//! The federated model: a tree ensemble whose split information is
//! partitioned across parties.
//!
//! The paper's protocol guarantees that *only the owner party knows the
//! actual split information* (§3.2): the guest's tree records, for every
//! internal node, either its own full split or just *which host* owns it;
//! each host keeps a private table mapping `(tree, node)` to the concrete
//! feature/threshold it recovered from the winning bin index.
//!
//! Prediction is therefore a joint operation: routing a row through the
//! ensemble consults the guest for guest-owned splits and the owning host
//! for host-owned ones. [`FederatedModel::predict_margin`] performs that
//! joint routing given every party's feature matrix (the evaluation-time
//! equivalent of the paper's federated inference).

use std::collections::HashMap;

use vf2_gbdt::data::Dataset;
use vf2_gbdt::loss::LossKind;
use vf2_gbdt::tree::{left_child, right_child, NodeSplit};

/// A node of the guest's view of one federated tree.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FedNode {
    /// Not part of the tree.
    #[default]
    Absent,
    /// A leaf and its weight.
    Leaf(f64),
    /// An internal node whose split the guest owns (full information).
    GuestSplit(NodeSplit),
    /// An internal node owned by host `party`; the guest knows nothing but
    /// the owner.
    HostSplit {
        /// Owning host index.
        party: u16,
    },
}

/// One federated tree in heap layout.
#[derive(Debug, Clone, PartialEq)]
pub struct FedTree {
    /// Maximum layers.
    pub max_layers: usize,
    /// Heap-layout nodes.
    pub nodes: Vec<FedNode>,
}

impl FedTree {
    /// An empty tree shell.
    pub fn new(max_layers: usize) -> FedTree {
        FedTree { max_layers, nodes: vec![FedNode::Absent; (1 << max_layers) - 1] }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, FedNode::Leaf(_))).count()
    }

    /// Splits owned by the guest.
    pub fn guest_splits(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, FedNode::GuestSplit(_))).count()
    }

    /// Splits owned by any host.
    pub fn host_splits(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, FedNode::HostSplit { .. })).count()
    }

    /// Structural check: internal nodes have children, leaves do not. Any
    /// node list is answered, never indexed past its end.
    pub fn validate(&self) -> Result<(), String> {
        let present = |id: usize| self.nodes.get(id).is_some_and(|n| *n != FedNode::Absent);
        if !present(0) {
            return Err("root absent".into());
        }
        for (id, node) in self.nodes.iter().enumerate() {
            let children = [left_child(id), right_child(id)].map(present);
            match node {
                FedNode::GuestSplit(_) | FedNode::HostSplit { .. } if children != [true; 2] => {
                    return Err(format!("internal node {id} lacks children"));
                }
                FedNode::Leaf(_) if children[0] => return Err(format!("leaf {id} has a child")),
                _ => {}
            }
        }
        Ok(())
    }
}

/// A host's private split table: `(tree, node) → split`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostSplitTable {
    /// The recovered splits.
    pub splits: HashMap<(u32, u32), NodeSplit>,
}

/// The jointly trained federated GBDT model.
#[derive(Debug, Clone)]
pub struct FederatedModel {
    /// Guest-view trees, in boosting order.
    pub trees: Vec<FedTree>,
    /// Learning rate applied to leaf weights.
    pub learning_rate: f64,
    /// Initial margin.
    pub base_score: f64,
    /// Training loss (fixes the output transform).
    pub loss: LossKind,
    /// Per-host private split tables (index = host party).
    pub host_tables: Vec<HostSplitTable>,
}

impl FederatedModel {
    /// Checks that prediction can route through every tree: its node list
    /// is the whole heap of its `max_layers` (`2^max_layers − 1` slots, the
    /// shape every party sizes its per-tree state by); its structure holds
    /// ([`FedTree::validate`]); and every
    /// [`FedNode::HostSplit`] names a host of this model whose table holds
    /// that `(tree, node)`. A trained model always passes, and so must a
    /// decoded one ([`crate::persist::decode_model`]).
    pub fn validate(&self) -> Result<(), String> {
        for (t, tree) in self.trees.iter().enumerate() {
            let heap = u32::try_from(tree.max_layers).ok().and_then(|l| 1usize.checked_shl(l));
            if heap.map(|slots| slots - 1) != Some(tree.nodes.len()) {
                return Err(format!(
                    "tree {t} holds {} nodes, not the 2^{} - 1 of its layers",
                    tree.nodes.len(),
                    tree.max_layers
                ));
            }
            tree.validate().map_err(|why| format!("tree {t}: {why}"))?;
            for (node, &n) in tree.nodes.iter().enumerate() {
                let FedNode::HostSplit { party } = n else { continue };
                let Some(table) = self.host_tables.get(party as usize) else {
                    let hosts = self.host_tables.len();
                    return Err(format!("tree {t} node {node}: host {party} of {hosts} hosts"));
                };
                if !table.splits.contains_key(&(t as u32, node as u32)) {
                    return Err(format!("tree {t} node {node}: host {party} holds no such split"));
                }
            }
        }
        Ok(())
    }

    /// Joint routing of one instance. `host_rows[p]` is the dense feature
    /// vector the instance has at host `p`; `guest_row` at the guest.
    pub fn predict_margin_row(&self, host_rows: &[Vec<f32>], guest_row: &[f32]) -> f64 {
        self.base_score
            + (0..self.trees.len())
                .map(|t| self.learning_rate * self.tree_leaf_weight(t, host_rows, guest_row))
                .sum::<f64>()
    }

    /// Routes one instance through tree `t` alone and returns the leaf
    /// weight (without learning rate). Useful for per-tree convergence
    /// curves.
    pub fn tree_leaf_weight(&self, t: usize, host_rows: &[Vec<f32>], guest_row: &[f32]) -> f64 {
        let tree = &self.trees[t];
        let mut id = 0usize;
        loop {
            match tree.nodes[id] {
                FedNode::Leaf(w) => return w,
                FedNode::GuestSplit(s) => {
                    id = if guest_row[s.feature] <= s.threshold {
                        left_child(id)
                    } else {
                        right_child(id)
                    };
                }
                FedNode::HostSplit { party } => {
                    // Unreachable for a trained or decoded model, which
                    // `validate` has checked; only a hand-assembled model
                    // can name a split no host table holds. Its subtree
                    // then adds 0.0 rather than panicking.
                    let table = self.host_tables.get(party as usize);
                    let Some(s) = table.and_then(|h| h.splits.get(&(t as u32, id as u32))) else {
                        return 0.0;
                    };
                    id = if host_rows[party as usize][s.feature] <= s.threshold {
                        left_child(id)
                    } else {
                        right_child(id)
                    };
                }
                // As above: only a hand-assembled model that skipped
                // `validate` routes into an absent node.
                FedNode::Absent => return 0.0,
            }
        }
    }

    /// Joint margins for aligned datasets (`hosts[p]` row `i` is the same
    /// instance as `guest` row `i` — the PSI alignment assumption).
    pub fn predict_margin(&self, hosts: &[&Dataset], guest: &Dataset) -> Vec<f64> {
        assert_eq!(hosts.len(), self.host_tables.len(), "one dataset per host");
        for h in hosts {
            assert_eq!(h.num_rows(), guest.num_rows(), "instances must be aligned");
        }
        (0..guest.num_rows())
            .map(|r| {
                let host_rows: Vec<Vec<f32>> = hosts.iter().map(|h| h.row_dense(r)).collect();
                self.predict_margin_row(&host_rows, &guest.row_dense(r))
            })
            .collect()
    }

    /// Transformed predictions (probabilities for logistic loss).
    pub fn predict(&self, hosts: &[&Dataset], guest: &Dataset) -> Vec<f64> {
        self.predict_margin(hosts, guest).into_iter().map(|m| self.loss.transform(m)).collect()
    }

    /// Total splits owned by the guest across all trees.
    pub fn total_guest_splits(&self) -> usize {
        self.trees.iter().map(FedTree::guest_splits).sum()
    }

    /// Total splits owned by hosts across all trees.
    pub fn total_host_splits(&self) -> usize {
        self.trees.iter().map(FedTree::host_splits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf2_gbdt::data::FeatureColumn;

    fn model() -> FederatedModel {
        // Root: host split (x_A <= 0). Left child: guest split (x_B <= 0).
        let mut tree = FedTree::new(3);
        tree.nodes[0] = FedNode::HostSplit { party: 0 };
        tree.nodes[1] = FedNode::GuestSplit(NodeSplit { feature: 0, bin: 0, threshold: 0.0 });
        tree.nodes[2] = FedNode::Leaf(3.0);
        tree.nodes[3] = FedNode::Leaf(1.0);
        tree.nodes[4] = FedNode::Leaf(2.0);
        let mut table = HostSplitTable::default();
        table.splits.insert((0, 0), NodeSplit { feature: 0, bin: 0, threshold: 0.0 });
        FederatedModel {
            trees: vec![tree],
            learning_rate: 1.0,
            base_score: 0.0,
            loss: LossKind::squared(),
            host_tables: vec![table],
        }
    }

    #[test]
    fn joint_routing_consults_both_parties() {
        let m = model();
        assert_eq!(m.predict_margin_row(&[vec![-1.0]], &[-1.0]), 1.0);
        assert_eq!(m.predict_margin_row(&[vec![-1.0]], &[1.0]), 2.0);
        assert_eq!(m.predict_margin_row(&[vec![1.0]], &[0.0]), 3.0);
    }

    #[test]
    fn predict_margin_over_datasets() {
        let m = model();
        let host = Dataset::new(3, vec![FeatureColumn::Dense(vec![-1.0, -1.0, 1.0])], None);
        let guest =
            Dataset::new(3, vec![FeatureColumn::Dense(vec![-1.0, 1.0, 0.0])], Some(vec![0.0; 3]));
        assert_eq!(m.predict_margin(&[&host], &guest), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn split_ownership_counts() {
        let m = model();
        assert_eq!(m.total_guest_splits(), 1);
        assert_eq!(m.total_host_splits(), 1);
        assert_eq!(m.trees[0].num_leaves(), 3);
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert!(model().trees[0].validate().is_ok());
    }

    #[test]
    fn validate_rejects_missing_children() {
        let mut t = FedTree::new(2);
        t.nodes[0] = FedNode::HostSplit { party: 0 };
        t.nodes[1] = FedNode::Leaf(0.0);
        assert!(t.validate().is_err());
    }

    #[test]
    fn tree_validate_answers_any_node_list() {
        let split = FedNode::GuestSplit(NodeSplit { feature: 0, bin: 0, threshold: 0.0 });
        let leaf = FedNode::Leaf(1.0);
        // Empty, and two lists that end inside the root's children.
        for nodes in [vec![], vec![split], vec![split, leaf], vec![split, leaf, leaf]] {
            let len = nodes.len();
            let verdict = FedTree { max_layers: 2, nodes }.validate();
            assert_eq!(verdict.is_ok(), len == 3, "{len} nodes: {verdict:?}");
        }
    }

    #[test]
    fn model_validate_checks_heap_size_and_host_tables() {
        assert_eq!(model().validate(), Ok(()));
        let mut short = model();
        short.trees[0].nodes.pop();
        assert!(short.validate().is_err());
        let mut unknown = model();
        unknown.trees[0].nodes[0] = FedNode::HostSplit { party: 1 };
        assert!(unknown.validate().is_err());
        let mut missing = model();
        missing.host_tables[0].splits.clear();
        assert!(missing.validate().is_err());
        // A hand-assembled model that skipped the check still predicts.
        assert_eq!(missing.predict_margin_row(&[vec![0.0]], &[0.0]), 0.0);
    }
}
