//! Chain-of-Trees (CoT): precomputed feasible sets for known constraints
//! (Sec. 4.2 of the paper, after Rasch et al.).
//!
//! Parameters are grouped into *co-dependent groups* (connected components of
//! the "shares a constraint" relation). Each group's feasible partial
//! configurations are enumerated into a tree whose levels correspond to the
//! group's parameters; any combination of root-to-leaf paths across groups is
//! a feasible configuration. The CoT supports
//!
//! * **bias-free sampling** ([`ChainOfTrees::sample_uniform`]) — uniform over
//!   leaves, BaCO's improvement over top-down sampling;
//! * **biased sampling** ([`ChainOfTrees::sample_biased`]) — Rasch et al.'s
//!   top-down uniform-child walk, kept as the `CoT sampling` baseline;
//! * **fast membership tests** ([`ChainOfTrees::contains`]) used instead of
//!   re-evaluating constraint expressions during local search.
//!
//! ```
//! use baco::cot::ChainOfTrees;
//! use baco::space::SearchSpace;
//! use rand::SeedableRng;
//!
//! let space = SearchSpace::builder()
//!     .integer("a", 0, 7)
//!     .integer("b", 0, 7)
//!     .known_constraint("a >= b")
//!     .build()?;
//! let cot = ChainOfTrees::build(&space)?;
//! // 36 of the 64 grid points satisfy a >= b.
//! assert_eq!(cot.feasible_size(), 36.0);
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let cfg = cot.sample_uniform(&mut rng);
//! assert!(cot.contains(&cfg));
//! # Ok::<(), baco::Error>(())
//! ```

mod tree;

pub use tree::{Tree, TreeStats};

use crate::space::{CVal, Configuration, SearchSpace};
use crate::{Error, Result};
use rand::Rng;

/// Default cap on enumerated tree nodes across all groups.
pub const DEFAULT_NODE_LIMIT: usize = 20_000_000;

/// The Chain-of-Trees over a (fully discrete) search space.
#[derive(Debug, Clone)]
pub struct ChainOfTrees {
    space: SearchSpace,
    trees: Vec<Tree>,
    /// Discrete parameters not referenced by any constraint.
    free_params: Vec<usize>,
    /// Real (continuous) parameters; sampled independently, never
    /// constrained.
    real_params: Vec<usize>,
}

impl ChainOfTrees {
    /// Builds the CoT with the [`DEFAULT_NODE_LIMIT`].
    ///
    /// # Errors
    /// See [`ChainOfTrees::build_with_limit`].
    pub fn build(space: &SearchSpace) -> Result<Self> {
        Self::build_with_limit(space, DEFAULT_NODE_LIMIT)
    }

    /// Builds the CoT, enumerating at most `node_limit` tree nodes.
    ///
    /// # Errors
    /// * [`Error::InvalidSpace`] if a known constraint references a
    ///   continuous parameter (the CoT requires finite domains).
    /// * [`Error::EmptyFeasibleSet`] if the constraints admit no
    ///   configuration.
    /// * [`Error::FeasibleSetTooLarge`] if enumeration exceeds `node_limit`.
    /// * Constraint-evaluation errors are treated as *infeasible* paths,
    ///   matching how a compiler rejects undefined schedules.
    pub fn build_with_limit(space: &SearchSpace, node_limit: usize) -> Result<Self> {
        // Constraints on continuous parameters are unsupported.
        for c in space.known_constraints() {
            for &p in c.params() {
                if !space.param(p).is_discrete() {
                    return Err(Error::InvalidSpace(format!(
                        "constraint `{}` references continuous parameter `{}`; \
                         the Chain-of-Trees requires discrete parameters",
                        c.name(),
                        space.param(p).name()
                    )));
                }
            }
        }

        // Constant constraints (no parameters) must hold.
        let default_cfg = space.default_configuration();
        for c in space.known_constraints() {
            if c.params().is_empty() && !c.eval(&default_cfg)? {
                return Err(Error::EmptyFeasibleSet);
            }
        }

        // Union-find over parameters sharing a constraint.
        let n = space.len();
        let mut uf = UnionFind::new(n);
        for c in space.known_constraints() {
            for w in c.params().windows(2) {
                uf.union(w[0], w[1]);
            }
        }

        // Collect groups (only discrete params that appear in ≥1 constraint).
        let mut group_of_root: std::collections::HashMap<usize, Vec<usize>> = Default::default();
        let mut constrained = vec![false; n];
        for c in space.known_constraints() {
            for &p in c.params() {
                constrained[p] = true;
            }
        }
        for (p, is_constrained) in constrained.iter().enumerate().take(n) {
            if *is_constrained {
                group_of_root.entry(uf.find(p)).or_default().push(p);
            }
        }

        let mut groups: Vec<Vec<usize>> = group_of_root.into_values().collect();
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort();

        let mut trees = Vec::with_capacity(groups.len());
        let mut budget = node_limit;
        for params in groups {
            // Constraints fully contained in this group.
            let constraints: Vec<usize> = space
                .known_constraints()
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    !c.params().is_empty() && c.params().iter().all(|p| params.contains(p))
                })
                .map(|(i, _)| i)
                .collect();
            let tree = Tree::enumerate(space, &params, &constraints, budget)?;
            budget = budget.saturating_sub(tree.node_count());
            if tree.leaf_count() == 0 {
                return Err(Error::EmptyFeasibleSet);
            }
            trees.push(tree);
        }

        let free_params = (0..n)
            .filter(|&p| !constrained[p] && space.param(p).is_discrete())
            .collect();
        let real_params = (0..n).filter(|&p| !space.param(p).is_discrete()).collect();

        Ok(ChainOfTrees {
            space: space.clone(),
            trees,
            free_params,
            real_params,
        })
    }

    /// The underlying search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The trees of the chain, one per co-dependent parameter group.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Discrete parameters unconstrained by any known constraint.
    pub fn free_params(&self) -> &[usize] {
        &self.free_params
    }

    /// Number of feasible configurations w.r.t. known constraints
    /// (continuous parameters excluded).
    ///
    /// Reported as `f64` because sizes can be astronomically large.
    pub fn feasible_size(&self) -> f64 {
        let mut s = 1.0f64;
        for t in &self.trees {
            s *= t.leaf_count() as f64;
        }
        for &p in &self.free_params {
            s *= self
                .space
                .param(p)
                .domain_size()
                .expect("free params are discrete") as f64;
        }
        s
    }

    /// Whether `cfg` satisfies all known constraints, via tree membership
    /// (no constraint expressions are re-evaluated).
    pub fn contains(&self, cfg: &Configuration) -> bool {
        self.trees.iter().all(|t| t.contains(cfg))
    }

    /// Samples uniformly over the feasible set (bias-free leaf sampling).
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Configuration {
        self.sample_with(rng, true)
    }

    /// Samples with Rasch et al.'s top-down walk (uniform child at each
    /// node), which is biased towards sparse subtrees. Kept as a baseline.
    pub fn sample_biased<R: Rng + ?Sized>(&self, rng: &mut R) -> Configuration {
        self.sample_with(rng, false)
    }

    fn sample_with<R: Rng + ?Sized>(&self, rng: &mut R, uniform: bool) -> Configuration {
        let mut vals: Vec<CVal> = self.space.default_configuration().cvals().to_vec();
        for t in &self.trees {
            t.sample_into(rng, uniform, &mut vals);
        }
        for &p in &self.free_params {
            let size = self.space.param(p).domain_size().expect("discrete");
            vals[p] = CVal::Idx(rng.gen_range(0..size));
        }
        for &p in &self.real_params {
            if let crate::space::ParamKind::Real { lo, hi } = self.space.param(p).kind() {
                vals[p] = CVal::Real(rng.gen_range(*lo..=*hi));
            }
        }
        self.space.config_from_cvals(vals)
    }

    /// Enumerates up to `max` feasible configurations (free/continuous
    /// parameters fixed at their defaults for the purpose of this listing
    /// unless fully enumerable).
    ///
    /// Intended for tests and small spaces; returns `None` if the feasible
    /// set (including free discrete parameters) exceeds `max`.
    pub fn enumerate(&self, max: usize) -> Option<Vec<Configuration>> {
        if !self.real_params.is_empty() {
            return None;
        }
        if self.feasible_size() > max as f64 {
            return None;
        }
        let base = self.space.default_configuration().cvals().to_vec();
        let mut acc: Vec<Vec<CVal>> = vec![base];
        for t in &self.trees {
            let paths = t.all_leaf_paths();
            let mut next = Vec::with_capacity(acc.len() * paths.len());
            for a in &acc {
                for path in &paths {
                    let mut v = a.clone();
                    for (p, val) in t.params().iter().zip(path) {
                        v[*p] = CVal::Idx(*val);
                    }
                    next.push(v);
                }
            }
            acc = next;
        }
        for &p in &self.free_params {
            let size = self.space.param(p).domain_size().expect("discrete");
            let mut next = Vec::with_capacity(acc.len() * size as usize);
            for a in &acc {
                for v in 0..size {
                    let mut x = a.clone();
                    x[p] = CVal::Idx(v);
                    next.push(x);
                }
            }
            acc = next;
        }
        Some(
            acc.into_iter()
                .map(|v| self.space.config_from_cvals(v))
                .collect(),
        )
    }

    /// Per-tree statistics (for diagnostics and the Table 3 harness).
    pub fn stats(&self) -> Vec<TreeStats> {
        self.trees.iter().map(Tree::stats).collect()
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let r = self.find(self.parent[x]);
            self.parent[x] = r;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ParamValue;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    /// The example space from Fig. 4 of the paper.
    fn paper_space() -> SearchSpace {
        SearchSpace::builder()
            .ordinal("p1", vec![2.0, 4.0])
            .ordinal("p2", vec![2.0, 4.0])
            .ordinal("p3", vec![1.0, 4.0])
            .ordinal("p4", vec![1.0, 2.0, 4.0])
            .ordinal("p5", vec![2.0, 4.0, 8.0])
            .known_constraint("p1 >= p2")
            .known_constraint("p4 >= p3")
            .known_constraint("p5 >= 2 * p4")
            .build()
            .unwrap()
    }

    #[test]
    fn paper_example_groups_and_counts() {
        let cot = ChainOfTrees::build(&paper_space()).unwrap();
        // Two trees: {p1,p2} and {p3,p4,p5}.
        assert_eq!(cot.trees().len(), 2);
        // Tree 1 leaves: (2,2),(4,2),(4,4) = 3.
        assert_eq!(cot.trees()[0].leaf_count(), 3);
        // Tree 2 leaves: p3=1: p4∈{1,2,4} with p5≥2p4 → 1:{2,4,8}=3, 2:{4,8}=2,
        // 4:{8}=1 → 6; p3=4: p4=4, p5=8 → 1. Total 7.
        assert_eq!(cot.trees()[1].leaf_count(), 7);
        assert_eq!(cot.feasible_size(), 21.0);
    }

    #[test]
    fn enumeration_matches_brute_force() {
        let space = paper_space();
        let cot = ChainOfTrees::build(&space).unwrap();
        let listed: HashSet<Configuration> = cot.enumerate(10_000).unwrap().into_iter().collect();
        // Brute force over the dense space.
        let mut brute = HashSet::new();
        for &p1 in &[2.0, 4.0] {
            for &p2 in &[2.0, 4.0] {
                for &p3 in &[1.0, 4.0] {
                    for &p4 in &[1.0, 2.0, 4.0] {
                        for &p5 in &[2.0, 4.0, 8.0] {
                            let cfg = space
                                .configuration(&[
                                    ("p1", ParamValue::Ordinal(p1)),
                                    ("p2", ParamValue::Ordinal(p2)),
                                    ("p3", ParamValue::Ordinal(p3)),
                                    ("p4", ParamValue::Ordinal(p4)),
                                    ("p5", ParamValue::Ordinal(p5)),
                                ])
                                .unwrap();
                            if space.satisfies_known(&cfg).unwrap() {
                                brute.insert(cfg);
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(listed, brute);
    }

    #[test]
    fn membership_agrees_with_constraints() {
        let space = paper_space();
        let cot = ChainOfTrees::build(&space).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let cfg = space.sample_dense(&mut rng);
            assert_eq!(
                cot.contains(&cfg),
                space.satisfies_known(&cfg).unwrap(),
                "{cfg}"
            );
        }
    }

    #[test]
    fn uniform_sampling_covers_all_leaves_uniformly() {
        let space = paper_space();
        let cot = ChainOfTrees::build(&space).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts: std::collections::HashMap<Configuration, usize> = Default::default();
        let n = 21_000;
        for _ in 0..n {
            let cfg = cot.sample_uniform(&mut rng);
            assert!(cot.contains(&cfg));
            *counts.entry(cfg).or_default() += 1;
        }
        assert_eq!(counts.len(), 21, "all feasible configs should be hit");
        // Uniformity: each expected 1000, allow generous tolerance.
        for (cfg, c) in counts {
            assert!((600..1500).contains(&c), "count {c} for {cfg}");
        }
    }

    #[test]
    fn biased_sampling_is_feasible_but_nonuniform() {
        // A deliberately unbalanced tree: a=0 admits 1 leaf, a=1 admits 8.
        let space = SearchSpace::builder()
            .integer("a", 0, 1)
            .integer("b", 0, 7)
            .known_constraint("a == 1 || b == 0")
            .build()
            .unwrap();
        let cot = ChainOfTrees::build(&space).unwrap();
        assert_eq!(cot.feasible_size(), 9.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut a0 = 0usize;
        let n = 4000;
        for _ in 0..n {
            let cfg = cot.sample_biased(&mut rng);
            assert!(cot.contains(&cfg));
            if cfg.value("a").as_i64() == 0 {
                a0 += 1;
            }
        }
        // Top-down: P(a=0) = 1/2 ≫ 1/9 (uniform). Expect near 2000, not ~444.
        assert!(
            a0 > 1400,
            "biased sampler should over-sample sparse branch: {a0}"
        );
        let mut u0 = 0usize;
        for _ in 0..n {
            if cot.sample_uniform(&mut rng).value("a").as_i64() == 0 {
                u0 += 1;
            }
        }
        assert!(
            u0 < 800,
            "uniform sampler should be leaf-proportional: {u0}"
        );
    }

    #[test]
    fn empty_feasible_set_detected() {
        let space = SearchSpace::builder()
            .integer("a", 0, 3)
            .known_constraint("a > 5")
            .build()
            .unwrap();
        assert!(matches!(
            ChainOfTrees::build(&space),
            Err(Error::EmptyFeasibleSet)
        ));
    }

    #[test]
    fn node_limit_respected() {
        let space = SearchSpace::builder()
            .integer("a", 0, 99)
            .integer("b", 0, 99)
            .known_constraint("a + b >= 0")
            .build()
            .unwrap();
        assert!(matches!(
            ChainOfTrees::build_with_limit(&space, 50),
            Err(Error::FeasibleSetTooLarge { .. })
        ));
    }

    #[test]
    fn continuous_constraint_rejected() {
        let space = SearchSpace::builder()
            .real("x", 0.0, 1.0)
            .known_constraint("x > 0.5")
            .build()
            .unwrap();
        assert!(matches!(
            ChainOfTrees::build(&space),
            Err(Error::InvalidSpace(_))
        ));
    }

    #[test]
    fn free_and_real_params_sampled() {
        let space = SearchSpace::builder()
            .integer("a", 0, 3)
            .integer("b", 0, 3)
            .real("x", 0.0, 1.0)
            .categorical("c", vec!["u", "v"])
            .known_constraint("a >= b")
            .build()
            .unwrap();
        let cot = ChainOfTrees::build(&space).unwrap();
        assert_eq!(cot.free_params(), &[3]); // c (x is continuous)
        assert_eq!(cot.feasible_size(), 10.0 * 2.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let cfg = cot.sample_uniform(&mut rng);
            assert!(space.satisfies_known(&cfg).unwrap());
            let x = cfg.value("x").as_f64();
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn permutation_constraints_via_pos() {
        let space = SearchSpace::builder()
            .permutation("ord", 4)
            .known_constraint("pos(ord, 0) < pos(ord, 1)")
            .build()
            .unwrap();
        let cot = ChainOfTrees::build(&space).unwrap();
        // Exactly half of the 24 permutations keep 0 before 1.
        assert_eq!(cot.feasible_size(), 12.0);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..40 {
            let cfg = cot.sample_uniform(&mut rng);
            let p = cfg.value("ord");
            let p = p.as_permutation();
            let pos0 = p.iter().position(|&e| e == 0).unwrap();
            let pos1 = p.iter().position(|&e| e == 1).unwrap();
            assert!(pos0 < pos1);
        }
    }

    #[test]
    fn unconstrained_space_has_no_trees() {
        let space = SearchSpace::builder().integer("a", 0, 9).build().unwrap();
        let cot = ChainOfTrees::build(&space).unwrap();
        assert!(cot.trees().is_empty());
        assert_eq!(cot.feasible_size(), 10.0);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = cot.sample_uniform(&mut rng);
        assert!(cot.contains(&cfg));
    }
}
