//! Cross-iteration distance tables for GP refits.
//!
//! The tuner refits its surrogate once per iteration on a history that grows
//! by exactly one observation. Every NLL evaluation of the hyperparameter
//! multistart reads the **per-dimension squared-distance matrices** (the
//! `O(n²·d)` featurized-distance tables), and those depend only on the
//! inputs and the distance options, not on the targets or the fitted model.
//! [`GpCache`] keeps them across iterations and extends them by one
//! row/column per new observation instead of rebuilding them.
//!
//! The cache is defensive: if the data it sees is not an extension of what it
//! remembers (restarted tuner, different options, shuffled history), it
//! silently resets and rebuilds the tables from scratch.
//! This is what lets the batched engine report results *out of order*: new
//! observations land as appended rows in whatever order they complete, and
//! the distance tables extend accordingly.
//!
//! The cache is an *exact* optimization — cached and uncached fits of the
//! same history are bit-identical (guarded by
//! `cached_batched_run_matches_uncached_reference`). Crash-safe resume
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

use super::features::ModelInput;
use super::gp::PredictScratch;
use crate::linalg::Matrix;
use crate::space::PermMetric;
use std::sync::{Arc, Mutex};

/// Persistent state for [`GaussianProcess::fit_with_cache`]; see the module
/// docs.
///
/// [`GaussianProcess::fit_with_cache`]: super::GaussianProcess::fit_with_cache
#[derive(Debug, Clone)]
pub struct GpCache {
    /// Distance-table fingerprint: (dims, permutation metric, transforms).
    fingerprint: Option<(usize, PermMetric, bool)>,
    /// Featurized training inputs the tables were built from.
    inputs: Vec<ModelInput>,
    /// Per-dimension squared distances, each `n × n`.
    d2: Vec<Matrix>,
    /// Sub-caches for the value models of objectives 1… of a multi-objective
    /// run (this cache itself serves objective 0), created on demand by
    /// [`GpCache::for_objective`]. Always empty for single-objective runs.
    extra: Vec<GpCache>,
    /// Hard cap on how many training points the distance tables may cover —
    /// the tuner sets it to its `surrogate_budget` so a long-lived session
    /// can never accumulate O(n²·d) table memory. `None` = unbounded.
    max_points: Option<usize>,
    /// Cross-round prediction workspace, installed into every GP fitted
    /// through this cache so the n×m cross-kernel buffers are allocated once
    /// per session instead of once per round. Shared (not cloned) between
    /// sub-caches and cache clones; never serialized.
    scratch: Arc<Mutex<PredictScratch>>,
}

impl Default for GpCache {
    fn default() -> Self {
        Self::new()
    }
}

impl GpCache {
    /// An empty cache; the first fit through it builds the tables.
    pub fn new() -> Self {
        Self::with_budget(None)
    }

    /// An empty cache whose distance tables are clamped to `budget` training
    /// points (see [`GpCache::max_points`]). `None` is [`GpCache::new`].
    pub fn with_budget(budget: Option<usize>) -> Self {
        GpCache {
            fingerprint: None,
            inputs: Vec::new(),
            d2: Vec::new(),
            extra: Vec::new(),
            max_points: budget,
            scratch: Arc::new(Mutex::new(PredictScratch::default())),
        }
    }

    /// The table cap this cache enforces, if any.
    pub fn max_points(&self) -> Option<usize> {
        self.max_points
    }

    /// The shared prediction workspace fitted GPs borrow (an `Arc` clone).
    pub(crate) fn shared_scratch(&self) -> Arc<Mutex<PredictScratch>> {
        Arc::clone(&self.scratch)
    }

    /// The sub-cache serving objective `k` of a multi-objective run: `0` is
    /// this cache itself; higher indices are created (empty) on first use.
    /// Lets the per-iteration loops keep holding **one** `GpCache` while the
    /// tuner maintains one incrementally-refitted GP per objective.
    /// Sub-caches inherit the table cap and share the prediction workspace.
    pub fn for_objective(&mut self, k: usize) -> &mut GpCache {
        if k == 0 {
            return self;
        }
        while self.extra.len() < k {
            let mut sub = GpCache::with_budget(self.max_points);
            sub.scratch = Arc::clone(&self.scratch);
            self.extra.push(sub);
        }
        &mut self.extra[k - 1]
    }

    /// Drops the cached tables. The table cap and the (already-sized)
    /// prediction workspace survive — a reset must not reintroduce either
    /// unbounded growth or cold-start reallocations.
    pub fn reset(&mut self) {
        let max_points = self.max_points;
        let scratch = Arc::clone(&self.scratch);
        *self = GpCache::with_budget(max_points);
        self.scratch = scratch;
    }

    /// Number of training points the distance tables currently cover.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the cache holds no tables.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// The per-dimension squared-distance matrices.
    pub(crate) fn d2(&self) -> &[Matrix] {
        &self.d2
    }

    /// Brings the distance tables in sync with `inputs`, reusing every cached
    /// entry when `inputs` extends the cached history and resetting
    /// otherwise. Exact: the extended tables are entry-for-entry identical to
    /// a from-scratch rebuild.
    pub(crate) fn sync_distances(
        &mut self,
        inputs: &[ModelInput],
        d: usize,
        metric: PermMetric,
        transforms: bool,
    ) {
        let fp = (d, metric, transforms);
        let prefix_ok = self.fingerprint == Some(fp)
            && self.inputs.len() <= inputs.len()
            && self.inputs.iter().zip(inputs).all(|(a, b)| a == b);
        if !prefix_ok {
            self.reset();
            self.fingerprint = Some(fp);
        }

        let old_n = self.inputs.len();
        let n = inputs.len();
        if old_n == n {
            return;
        }
        // Grow each per-dimension table, copying the old block and computing
        // only rows/columns involving a new point.
        if self.d2.len() != d {
            self.d2 = vec![Matrix::zeros(0, 0); d];
        }
        for (k, old) in self.d2.iter_mut().enumerate() {
            let mut m = Matrix::zeros(n, n);
            for i in 0..old_n {
                m.row_mut(i)[..old_n].copy_from_slice(&old.row(i)[..old_n]);
            }
            for i in old_n..n {
                for j in 0..i {
                    let v = inputs[i].dim_dist2(&inputs[j], k, metric);
                    m[(i, j)] = v;
                    m[(j, i)] = v;
                }
            }
            *old = m;
        }
        self.inputs = inputs.to_vec();
    }

    /// Drops over-budget tables after a fit. The budgeted tuner never feeds
    /// more than `max_points` inputs (the active-set selector caps them), but
    /// a direct `fit_with_cache` caller might. The fit itself is allowed to
    /// run over-budget; the over-sized tables are just not retained, so
    /// steady-state memory stays bounded.
    pub(crate) fn clamp_to_budget(&mut self) {
        if self.max_points.is_some_and(|cap| self.inputs.len() > cap) {
            self.reset();
        }
    }

    /// Rough heap footprint of the cached tables (this cache plus its
    /// per-objective sub-caches), for memory-bound tests and diagnostics.
    /// Excludes the shared prediction workspace.
    pub fn memory_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let n = self.inputs.len();
        let tables: usize = self.d2.iter().map(|_| n * n * f).sum();
        tables + self.extra.iter().map(GpCache::memory_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamValue, SearchSpace};

    /// Permutations the test points cycle through; Spearman and Kendall
    /// distances between them differ, so a metric switch changes the tables.
    const PERMS: [[u8; 4]; 4] = [[0, 1, 2, 3], [1, 0, 2, 3], [3, 2, 1, 0], [0, 2, 3, 1]];

    fn inputs_for(xs: &[i64]) -> Vec<ModelInput> {
        let s = SearchSpace::builder()
            .integer("x", 0, 30)
            .integer("y", 0, 30)
            .permutation("p", 4)
            .build()
            .unwrap();
        xs.iter()
            .map(|&x| {
                let c = s
                    .configuration(&[
                        ("x", ParamValue::Int(x)),
                        ("y", ParamValue::Int(30 - x)),
                        ("p", ParamValue::Permutation(PERMS[x as usize % 4].to_vec())),
                    ])
                    .unwrap();
                ModelInput::from_config(&s, &c, true)
            })
            .collect()
    }

    fn reference_d2(inputs: &[ModelInput], d: usize, metric: PermMetric) -> Vec<Matrix> {
        let n = inputs.len();
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

    fn assert_tables(cache: &GpCache, want: &[Matrix]) {
        assert_eq!(cache.d2().len(), want.len());
        for (k, (got, want)) in cache.d2().iter().zip(want).enumerate() {
            assert!(got.max_abs_diff(want) == 0.0, "table {k}");
        }
    }

    #[test]
    fn incremental_tables_match_rebuild() {
        let inputs = inputs_for(&[0, 5, 9, 14, 20, 26, 30]);
        let mut cache = GpCache::new();
        for n in 1..=inputs.len() {
            cache.sync_distances(&inputs[..n], 3, PermMetric::Spearman, true);
            assert_eq!(cache.len(), n);
            assert_tables(&cache, &reference_d2(&inputs[..n], 3, PermMetric::Spearman));
        }
    }

    #[test]
    fn non_prefix_history_resets() {
        let inputs = inputs_for(&[0, 5, 9, 14]);
        let mut cache = GpCache::new();
        cache.sync_distances(&inputs, 3, PermMetric::Spearman, true);

        // Same points, different order: not a prefix → reset.
        let shuffled = inputs_for(&[5, 0, 9, 14]);
        cache.sync_distances(&shuffled, 3, PermMetric::Spearman, true);
        assert_eq!(cache.len(), 4);
        assert_tables(&cache, &reference_d2(&shuffled, 3, PermMetric::Spearman));
    }

    #[test]
    fn option_change_resets() {
        let inputs = inputs_for(&[0, 5, 9, 14]);
        let spearman = reference_d2(&inputs, 3, PermMetric::Spearman);
        let kendall = reference_d2(&inputs, 3, PermMetric::Kendall);
        assert!(
            spearman[2].max_abs_diff(&kendall[2]) > 0.0,
            "the metrics must disagree on these permutations"
        );

        let mut cache = GpCache::new();
        cache.sync_distances(&inputs, 3, PermMetric::Spearman, true);
        assert_tables(&cache, &spearman);
        cache.sync_distances(&inputs, 3, PermMetric::Kendall, true);
        assert_eq!(cache.len(), 4);
        assert_tables(&cache, &kendall);
    }
}
