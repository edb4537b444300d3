use crate::space::{CVal, Configuration, SearchSpace};
use crate::{Error, Result};
use rand::Rng;

/// One tree of the chain: the feasible partial configurations of a
/// co-dependent parameter group.
///
/// Level `i` of the tree assigns `params()[i]`; each root-to-leaf path is a
/// feasible partial configuration.
#[derive(Debug, Clone)]
pub struct Tree {
    params: Vec<usize>,
    nodes: Vec<Node>,
    root_children: Vec<u32>,
    root_leaf_count: u64,
}

#[derive(Debug, Clone)]
struct Node {
    /// Domain index assigned to the level's parameter.
    value: u64,
    children: Vec<u32>,
    /// Number of leaves under (and including) this node.
    leaf_count: u64,
}

/// Summary statistics of one tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Number of parameters (levels).
    pub depth: usize,
    /// Total enumerated nodes.
    pub nodes: usize,
    /// Number of leaves (feasible partial configurations).
    pub leaves: u64,
}

impl Tree {
    /// Enumerates the feasible partial configurations of `params` under the
    /// given constraint indices (into `space.known_constraints()`).
    ///
    /// Constraint-evaluation errors on a partial configuration mark the path
    /// infeasible rather than aborting: an undefined schedule (division by
    /// zero in a derived quantity, say) is a schedule the compiler rejects.
    ///
    /// # Errors
    /// [`Error::FeasibleSetTooLarge`] if more than `node_limit` nodes would
    /// be created.
    pub(crate) fn enumerate(
        space: &SearchSpace,
        params: &[usize],
        constraint_idxs: &[usize],
        node_limit: usize,
    ) -> Result<Self> {
        // For each level, the constraints that become fully assigned there.
        let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); params.len()];
        for &ci in constraint_idxs {
            let c = &space.known_constraints()[ci];
            let level = c
                .params()
                .iter()
                .map(|p| {
                    params
                        .iter()
                        .position(|q| q == p)
                        .expect("constraint param must be in group")
                })
                .max()
                .expect("constraints in a tree reference at least one param");
            by_level[level].push(ci);
        }

        let mut scratch = space.default_configuration();
        let mut nodes: Vec<Node> = Vec::new();
        let mut root_children = Vec::new();

        // Iterative DFS to avoid recursion limits on deep groups.
        struct Frame {
            level: usize,
            node: Option<u32>, // None = virtual root
            next_value: u64,
        }
        let mut stack = vec![Frame {
            level: 0,
            node: None,
            next_value: 0,
        }];

        while let Some(top) = stack.last_mut() {
            let level = top.level;
            if level == params.len() {
                // Leaf registered on creation; pop.
                stack.pop();
                continue;
            }
            let p = params[level];
            let size = space
                .param(p)
                .domain_size()
                .expect("tree parameters are discrete");
            if top.next_value >= size {
                // Exhausted this level; compute leaf_count bottom-up on pop.
                let node = top.node;
                stack.pop();
                if let Some(ni) = node {
                    let count: u64 = if level == params.len() {
                        1
                    } else {
                        nodes[ni as usize]
                            .children
                            .iter()
                            .map(|&c| nodes[c as usize].leaf_count)
                            .sum()
                    };
                    nodes[ni as usize].leaf_count = count;
                }
                continue;
            }
            let v = top.next_value;
            top.next_value += 1;
            let parent = top.node;

            scratch.set_cval(p, CVal::Idx(v));
            // Evaluate constraints that became decidable at this level.
            let feasible = by_level[level].iter().all(|&ci| {
                space.known_constraints()[ci]
                    .eval(&scratch)
                    .unwrap_or(false)
            });
            if !feasible {
                continue;
            }
            if nodes.len() >= node_limit {
                return Err(Error::FeasibleSetTooLarge { limit: node_limit });
            }
            let id = nodes.len() as u32;
            nodes.push(Node {
                value: v,
                children: Vec::new(),
                leaf_count: if level + 1 == params.len() { 1 } else { 0 },
            });
            match parent {
                Some(pi) => nodes[pi as usize].children.push(id),
                None => root_children.push(id),
            }
            if level + 1 < params.len() {
                stack.push(Frame {
                    level: level + 1,
                    node: Some(id),
                    next_value: 0,
                });
            }
        }

        // Interior nodes with no surviving children are dead paths; prune
        // them (iteratively, bottom-up effect achieved by repeated passes).
        // The DFS above already assigned leaf_count bottom-up, but interior
        // nodes whose subtree died have leaf_count == 0.
        let root_leaf_count = root_children
            .iter()
            .map(|&c| nodes[c as usize].leaf_count)
            .sum();

        Ok(Tree {
            params: params.to_vec(),
            nodes,
            root_children,
            root_leaf_count,
        })
    }

    /// The group's parameter indices, in level order.
    pub fn params(&self) -> &[usize] {
        &self.params
    }

    /// Number of feasible partial configurations (leaves).
    pub fn leaf_count(&self) -> u64 {
        self.root_leaf_count
    }

    /// Total enumerated nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Summary statistics.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            depth: self.params.len(),
            nodes: self.nodes.len(),
            leaves: self.leaf_count(),
        }
    }

    /// Whether `cfg`'s values for this group trace a feasible path.
    pub fn contains(&self, cfg: &Configuration) -> bool {
        let mut children = &self.root_children;
        for (level, &p) in self.params.iter().enumerate() {
            let want = cfg.cval(p).idx();
            let Some(&next) = children
                .iter()
                .find(|&&c| self.nodes[c as usize].value == want)
            else {
                return false;
            };
            // Dead interior paths have leaf_count 0.
            if self.nodes[next as usize].leaf_count == 0 {
                return false;
            }
            if level + 1 == self.params.len() {
                return true;
            }
            children = &self.nodes[next as usize].children;
        }
        // Zero-parameter tree cannot occur (groups are nonempty).
        true
    }

    /// Samples a root-to-leaf path and writes it into `vals`.
    ///
    /// With `uniform == true` children are weighted by their leaf counts
    /// (bias-free leaf sampling); otherwise each child is equally likely
    /// (Rasch et al.'s biased walk).
    pub(crate) fn sample_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        uniform: bool,
        vals: &mut [CVal],
    ) {
        let mut children: Vec<u32> = self
            .root_children
            .iter()
            .copied()
            .filter(|&c| self.nodes[c as usize].leaf_count > 0)
            .collect();
        for &p in &self.params {
            debug_assert!(!children.is_empty(), "sample_into on empty tree");
            let chosen = if uniform {
                let total: u64 = children
                    .iter()
                    .map(|&c| self.nodes[c as usize].leaf_count)
                    .sum();
                let mut r = rng.gen_range(0..total);
                let mut pick = children[0];
                for &c in &children {
                    let lc = self.nodes[c as usize].leaf_count;
                    if r < lc {
                        pick = c;
                        break;
                    }
                    r -= lc;
                }
                pick
            } else {
                children[rng.gen_range(0..children.len())]
            };
            vals[p] = CVal::Idx(self.nodes[chosen as usize].value);
            children = self.nodes[chosen as usize]
                .children
                .iter()
                .copied()
                .filter(|&c| self.nodes[c as usize].leaf_count > 0)
                .collect();
        }
    }

    /// All root-to-leaf paths as value-index vectors (level order).
    /// Intended for tests and exhaustive enumeration of small trees.
    pub fn all_leaf_paths(&self) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        let mut path = Vec::new();
        self.walk(&self.root_children, &mut path, &mut out);
        out
    }

    fn walk(&self, children: &[u32], path: &mut Vec<u64>, out: &mut Vec<Vec<u64>>) {
        for &c in children {
            let node = &self.nodes[c as usize];
            if node.leaf_count == 0 {
                continue;
            }
            path.push(node.value);
            if path.len() == self.params.len() {
                out.push(path.clone());
            } else {
                self.walk(&node.children, path, out);
            }
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::space::SearchSpace;

    #[test]
    fn dead_interior_paths_are_pruned_from_membership() {
        // b has no feasible value when a == 2 (2*b must equal 5 — impossible),
        // so the a=2 interior node exists but has leaf_count 0.
        let space = SearchSpace::builder()
            .integer("a", 1, 2)
            .integer("b", 1, 4)
            .known_constraint("a * b == 2 || (a == 1 && b == 3)")
            .build()
            .unwrap();
        let cot = crate::cot::ChainOfTrees::build(&space).unwrap();
        // Feasible: (1,2), (2,1), (1,3).
        assert_eq!(cot.feasible_size(), 3.0);
        let listed = cot.enumerate(100).unwrap();
        assert_eq!(listed.len(), 3);
    }

    #[test]
    fn leaf_paths_cover_leaf_count() {
        let space = SearchSpace::builder()
            .integer("a", 0, 4)
            .integer("b", 0, 4)
            .known_constraint("a >= b")
            .build()
            .unwrap();
        let cot = crate::cot::ChainOfTrees::build(&space).unwrap();
        let t = &cot.trees()[0];
        assert_eq!(t.all_leaf_paths().len() as u64, t.leaf_count());
        assert_eq!(t.leaf_count(), 15); // 5+4+3+2+1
        assert_eq!(t.stats().depth, 2);
    }
}
