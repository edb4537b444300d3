//! Cross-iteration distance tables for GP refits.
//!
//! The tuner refits its surrogate once per iteration on a history that grows
//! by exactly one observation. Every NLL evaluation of the hyperparameter
//! multistart reads the **per-dimension squared distances** between the
//! training points, and those depend only on the inputs and the distance
//! options, not on the targets or the fitted model. [`GpCache`] keeps them
//! across iterations and extends them by the new observations instead of
//! rebuilding them. It holds nothing else: fitted models share no
//! prediction buffers through it. Because the tables ignore the targets, the
//! per-objective models of a multi-objective round, all fitted on the same
//! points, share one set.
//!
//! The tables are **level-coded**. BaCO's spaces are ordinal, categorical
//! and permutation parameters, so along any one dimension the cached points
//! take only a handful of distinct feature values. Each distinct value is a
//! *level*; every point stores one `u32` level code per dimension, and each
//! dimension keeps an `L × L` table of squared distances between its levels
//! (the per-dimension distance of the kernel). A repeated value only
//! appends its code; a real dimension gets one level per distinct value, so
//! one representation covers every parameter kind. A cache over `n` points
//! holds `O(n·d + Σ_k L_k²)` numbers instead of `d` full `n × n` tables.
//! That is small only where values repeat: along a real or wide integer
//! dimension whose points all differ `L_k = n`, and its table is as large
//! as the `n × n` table it replaces. The
//! tables cover exactly the points of the last fit; a budgeted tuner never
//! fits more than its `surrogate_budget` `b`, which bounds them to codes for
//! `b` points and `min(b, |dom_k|)` levels per dimension.
//!
//! The cache is defensive: if the data it sees is not an extension of what it
//! remembers (restarted tuner, different options, shuffled history), it
//! silently resets and rebuilds the tables from scratch. The prefix check
//! compares each point's features with the values its levels keep, so the
//! cache stores no copy of the inputs.
//! This is what lets the batched engine report results *out of order*: new
//! observations land as appended points in whatever order they complete, and
//! the level tables extend accordingly.
//!
//! The cache is an *exact* optimization — cached and uncached fits of the
//! same history are bit-identical (guarded by
//! `cached_batched_run_matches_uncached_reference`), and the level tables,
//! expanded through the codes, equal the `n × n` tables entry for entry
//! because every distance is symmetric to the bit. Crash-safe resume
//! ([`crate::journal`]) leans on exactly this property: a resumed run starts
//! from an **empty** cache, the first refit rebuilds the distance
//! tables from the replayed history, and the continued trajectory still
//! matches the uninterrupted run to the last bit, so no surrogate state ever
//! needs to be serialized.
//!
//! ```
//! use baco::space::{ParamValue, SearchSpace};
//! use baco::surrogate::{GaussianProcess, GpCache, GpOptions};
//! use rand::SeedableRng;
//!
//! let space = SearchSpace::builder().integer("x", 0, 20).build()?;
//! let cfg = |x: i64| space.configuration(&[("x", ParamValue::Int(x))]).unwrap();
//! let all: Vec<_> = (0..8).map(|i| cfg(i * 2)).collect();
//! let y: Vec<f64> = all.iter().map(|c| c.value("x").as_f64().sqrt()).collect();
//!
//! // Growing-history refits share one cache; the result is bit-identical
//! // to fitting from scratch each time.
//! let mut cache = GpCache::new();
//! let opts = GpOptions::default();
//! for n in 2..=all.len() {
//!     let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!     let gp = GaussianProcess::fit_with_cache(&space, &all[..n], &y[..n], &opts, &mut rng, &mut cache)?;
//!     assert_eq!(gp.train_len(), n);
//! }
//! # Ok::<(), baco::Error>(())
//! ```
//!
//! [`GaussianProcess::fit_with_cache`]: super::GaussianProcess::fit_with_cache

use super::features::{Feature, ModelInput};
use crate::space::PermMetric;

/// One dimension's distances, level-coded: the distinct feature values among
/// the cached points, the `L × L` table of squared distances between them,
/// and each point's level.
#[derive(Debug, Clone, Default)]
pub(crate) struct LevelTable {
    /// Each level's feature value, in order of first appearance.
    values: Vec<Feature>,
    /// Squared distances between levels, row-major `L × L`.
    dist2: Vec<f64>,
    /// Each cached point's level.
    codes: Vec<u32>,
}

impl LevelTable {
    /// Number of levels `L`.
    pub(crate) fn levels(&self) -> usize {
        self.values.len()
    }

    /// Each cached point's level, in history order.
    pub(crate) fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Whether every cached point holds its own level. Levels are numbered
    /// in order of first appearance, so the codes are then `0..n`.
    pub(crate) fn all_distinct(&self) -> bool {
        self.levels() == self.codes.len()
    }

    /// Squared distances from level `a` to every level.
    pub(crate) fn row(&self, a: usize) -> &[f64] {
        let l = self.levels();
        &self.dist2[a * l..(a + 1) * l]
    }

    /// Appends one point per feature of `feats`: a value seen before reuses
    /// its level, a new value becomes a new level. The table grows once per
    /// call, computing only the entries that involve a new level; each
    /// distance is computed once, from the later level to the earlier one,
    /// and mirrored.
    fn extend<'f>(&mut self, feats: impl Iterator<Item = &'f Feature>, metric: PermMetric) {
        let old_l = self.levels();
        for f in feats {
            let code = match self.values.iter().position(|v| v == f) {
                Some(a) => a,
                None => {
                    self.values.push(f.clone());
                    self.values.len() - 1
                }
            };
            self.codes.push(code as u32);
        }
        let l = self.levels();
        if l == old_l {
            return;
        }
        let mut dist2 = vec![0.0; l * l];
        for a in 0..old_l {
            dist2[a * l..a * l + old_l].copy_from_slice(&self.dist2[a * old_l..(a + 1) * old_l]);
        }
        for a in old_l..l {
            for b in 0..=a {
                let v = self.values[a].dist2(&self.values[b], metric);
                dist2[a * l + b] = v;
                dist2[b * l + a] = v;
            }
        }
        self.dist2 = dist2;
    }

    /// Heap bytes of the levels' values, the table and the codes.
    fn memory_bytes(&self) -> usize {
        let values: usize = self
            .values
            .iter()
            .map(|v| match v {
                Feature::Perm(p) => std::mem::size_of::<Feature>() + p.capacity(),
                Feature::Num(_) | Feature::Cat(_) => std::mem::size_of::<Feature>(),
            })
            .sum();
        values
            + self.dist2.len() * std::mem::size_of::<f64>()
            + self.codes.len() * std::mem::size_of::<u32>()
    }
}

/// Persistent state for [`GaussianProcess::fit_with_cache`]; see the module
/// docs.
///
/// [`GaussianProcess::fit_with_cache`]: super::GaussianProcess::fit_with_cache
#[derive(Debug, Clone)]
pub struct GpCache {
    /// Distance-table fingerprint: (dims, permutation metric, transforms).
    fingerprint: Option<(usize, PermMetric, bool)>,
    /// Number of cached points.
    n: usize,
    /// One level table per dimension.
    dims: Vec<LevelTable>,
}

impl Default for GpCache {
    fn default() -> Self {
        Self::new()
    }
}

impl GpCache {
    /// An empty cache; the first fit through it builds the tables.
    pub fn new() -> Self {
        GpCache {
            fingerprint: None,
            n: 0,
            dims: Vec::new(),
        }
    }

    /// Drops the cached tables.
    pub fn reset(&mut self) {
        *self = GpCache::new();
    }

    /// Number of training points the distance tables currently cover.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the cache holds no tables.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The per-dimension level tables.
    pub(crate) fn levels(&self) -> &[LevelTable] {
        &self.dims
    }

    /// Brings the distance tables in sync with `inputs`, reusing every cached
    /// level when `inputs` extends the cached history and resetting
    /// otherwise. Exact: the extended tables, expanded through the codes, are
    /// entry-for-entry identical to a from-scratch `n × n` rebuild.
    pub(crate) fn sync_distances(
        &mut self,
        inputs: &[ModelInput],
        d: usize,
        metric: PermMetric,
        transforms: bool,
    ) {
        let fp = (d, metric, transforms);
        let prefix_ok = self.fingerprint == Some(fp)
            && self.n <= inputs.len()
            && self.dims.iter().enumerate().all(|(k, t)| {
                t.codes
                    .iter()
                    .zip(inputs)
                    .all(|(&c, x)| t.values[c as usize] == x.feats[k])
            });
        if !prefix_ok {
            self.reset();
            self.fingerprint = Some(fp);
            self.dims = vec![LevelTable::default(); d];
        }
        let new = &inputs[self.n..];
        for (k, t) in self.dims.iter_mut().enumerate() {
            t.extend(new.iter().map(|x| &x.feats[k]), metric);
        }
        self.n = inputs.len();
    }

    /// Heap footprint of the cached tables (level values, `L × L` tables and
    /// level codes), for memory-bound tests and diagnostics.
    pub fn memory_bytes(&self) -> usize {
        self.dims.iter().map(LevelTable::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use crate::space::{Configuration, SearchSpace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const METRICS: [PermMetric; 4] = [
        PermMetric::Spearman,
        PermMetric::Kendall,
        PermMetric::Hamming,
        PermMetric::Naive,
    ];

    /// Every parameter kind: real, linear and log integer, ordinal,
    /// categorical and permutation.
    fn mixed_space() -> SearchSpace {
        SearchSpace::builder()
            .real("r", 0.0, 1.0)
            .integer("i", 0, 6)
            .integer_log("il", 1, 64)
            .ordinal("o", vec![1.0, 2.0, 4.0, 8.0])
            .categorical("c", vec!["a", "b", "c"])
            .permutation("p", 4)
            .build()
            .unwrap()
    }

    /// `n` sampled configurations; every fifth repeats an earlier one, so
    /// the real dimension sees repeated values too.
    fn history(s: &SearchSpace, n: usize, seed: u64) -> Vec<Configuration> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out: Vec<Configuration> = Vec::with_capacity(n);
        for t in 0..n {
            let c = if t % 5 == 4 {
                out[t / 2].clone()
            } else {
                s.sample_dense(&mut rng)
            };
            out.push(c);
        }
        out
    }

    fn featurize(s: &SearchSpace, cfgs: &[Configuration], transforms: bool) -> Vec<ModelInput> {
        cfgs.iter()
            .map(|c| ModelInput::from_config(s, c, transforms))
            .collect()
    }

    /// The `n × n` tables the level tables replace: every ordered pair
    /// computed directly, zero diagonal.
    fn reference_d2(inputs: &[ModelInput], metric: PermMetric) -> Vec<Matrix> {
        let n = inputs.len();
        let d = inputs.first().map_or(0, ModelInput::len);
        let mut d2 = vec![Matrix::zeros(n, n); d];
        for (k, m) in d2.iter_mut().enumerate() {
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        m[(i, j)] = inputs[i].dim_dist2(&inputs[j], k, metric);
                    }
                }
            }
        }
        d2
    }

    /// The level tables expanded through the codes into `n × n` tables.
    fn expand(cache: &GpCache) -> Vec<Matrix> {
        let n = cache.len();
        cache
            .levels()
            .iter()
            .map(|t| {
                assert_eq!(t.codes().len(), n);
                let mut m = Matrix::zeros(n, n);
                for (i, &ci) in t.codes().iter().enumerate() {
                    for (j, &cj) in t.codes().iter().enumerate() {
                        if i != j {
                            m[(i, j)] = t.row(ci as usize)[cj as usize];
                        }
                    }
                }
                m
            })
            .collect()
    }

    fn assert_tables(cache: &GpCache, want: &[Matrix], what: &str) {
        let got = expand(cache);
        assert_eq!(got.len(), want.len(), "{what}");
        for (k, (got, want)) in got.iter().zip(want).enumerate() {
            for i in 0..want.rows() {
                let bits = |m: &Matrix| m.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(want), "{what}: table {k}, row {i}");
            }
        }
    }

    /// Distinct feature values of dimension `k` among `inputs`.
    fn distinct(inputs: &[ModelInput], k: usize) -> usize {
        let mut vals: Vec<&Feature> = Vec::new();
        for x in inputs {
            if !vals.contains(&&x.feats[k]) {
                vals.push(&x.feats[k]);
            }
        }
        vals.len()
    }

    #[test]
    fn incremental_tables_match_rebuild() {
        let s = mixed_space();
        let d = s.len();
        let inputs = featurize(&s, &history(&s, 24, 3), true);
        for metric in METRICS {
            let mut cache = GpCache::new();
            for n in 1..=inputs.len() {
                cache.sync_distances(&inputs[..n], d, metric, true);
                assert_eq!(cache.len(), n);
                let what = format!("{metric:?} growth to n={n}");
                assert_tables(&cache, &reference_d2(&inputs[..n], metric), &what);
                for (k, t) in cache.levels().iter().enumerate() {
                    assert_eq!(t.levels(), distinct(&inputs[..n], k), "{what}: dim {k}");
                }
            }
            // The real dimension gets one level per distinct value; the
            // repeats in the history keep it below one per point.
            assert!(cache.levels()[0].levels() < inputs.len(), "{metric:?}");
        }
    }

    #[test]
    fn non_prefix_history_resets() {
        let s = mixed_space();
        let d = s.len();
        let inputs = featurize(&s, &history(&s, 12, 4), true);
        for metric in METRICS {
            let mut cache = GpCache::new();
            cache.sync_distances(&inputs, d, metric, true);

            // Same points, different order: not a prefix → reset.
            let mut shuffled = inputs.clone();
            shuffled.swap(0, 5);
            cache.sync_distances(&shuffled, d, metric, true);
            assert_eq!(cache.len(), shuffled.len());
            assert_tables(
                &cache,
                &reference_d2(&shuffled, metric),
                &format!("{metric:?}"),
            );
        }
    }

    #[test]
    fn option_change_resets() {
        let s = mixed_space();
        let d = s.len();
        let cfgs = history(&s, 12, 5);
        let inputs = featurize(&s, &cfgs, true);
        let perm = d - 1;
        let mut cache = GpCache::new();
        let mut tables: Vec<Matrix> = Vec::new();
        for metric in METRICS {
            cache.sync_distances(&inputs, d, metric, true);
            assert_eq!(cache.len(), inputs.len());
            let want = reference_d2(&inputs, metric);
            assert_tables(&cache, &want, &format!("{metric:?}"));
            for prev in &tables {
                assert!(
                    prev.max_abs_diff(&want[perm]) > 0.0,
                    "the metrics must disagree on these permutations"
                );
            }
            tables.push(want[perm].clone());
        }
        // Switching transforms off changes the log integer's features.
        let linear = featurize(&s, &cfgs, false);
        cache.sync_distances(&linear, d, PermMetric::Naive, false);
        assert_tables(&cache, &reference_d2(&linear, PermMetric::Naive), "linear");
    }

    #[test]
    fn repeated_values_add_no_level() {
        let s = mixed_space();
        let d = s.len();
        let mut cfgs = history(&s, 9, 6);
        let mut cache = GpCache::new();
        cache.sync_distances(&featurize(&s, &cfgs, true), d, PermMetric::Spearman, true);
        let before: Vec<usize> = cache.levels().iter().map(LevelTable::levels).collect();
        let bytes = cache.memory_bytes();
        // A point that repeats an earlier one appends one code per dimension
        // and nothing else.
        cfgs.push(cfgs[3].clone());
        cache.sync_distances(&featurize(&s, &cfgs, true), d, PermMetric::Spearman, true);
        let after: Vec<usize> = cache.levels().iter().map(LevelTable::levels).collect();
        assert_eq!(before, after);
        for t in cache.levels() {
            assert_eq!(t.codes()[9], t.codes()[3]);
        }
        assert_eq!(cache.memory_bytes(), bytes + d * std::mem::size_of::<u32>());
    }

    /// An exact cache of an MM_GPU-sized history (10 power-of-two ordinals,
    /// n = 120) is more than 20× smaller than the ten `120 × 120` tables it
    /// replaces.
    #[test]
    fn level_tables_are_small_for_discrete_spaces() {
        let po2 =
            |lo: u32, hi: u32| -> Vec<f64> { (lo..=hi).map(|e| f64::from(1u32 << e)).collect() };
        let domains = [
            (4, 8),
            (4, 8),
            (2, 6),
            (0, 4),
            (0, 4),
            (0, 8),
            (0, 8),
            (0, 3),
            (0, 3),
            (0, 3),
        ];
        let mut b = SearchSpace::builder();
        for (k, &(lo, hi)) in domains.iter().enumerate() {
            b = b.ordinal_log(&format!("p{k}"), po2(lo, hi));
        }
        let s = b.build().unwrap();
        let n = 120;
        let inputs = featurize(&s, &history(&s, n, 7), true);
        let mut cache = GpCache::new();
        cache.sync_distances(&inputs, s.len(), PermMetric::Spearman, true);
        let dense = s.len() * n * n * std::mem::size_of::<f64>();
        let bytes = cache.memory_bytes();
        assert!(
            bytes * 20 <= dense,
            "{bytes} bytes vs {dense} for n × n tables"
        );
    }
}
