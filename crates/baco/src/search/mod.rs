//! Search procedures: the initial design-of-experiments phase and the
//! multi-start local search that optimizes the acquisition function
//! (Sec. 3.3: "Neighbours are defined as all configurations that can be
//! reached by modifying a single parameter").
//!
//! All searches score candidates through *batched* closures
//! (`FnMut(&[Configuration]) -> Vec<f64>`) so surrogates with a bulk
//! posterior path amortize their triangular solves, and all of them sample
//! from a [`FeasibleSampler`] — the CoT for fully discrete spaces — so every
//! candidate is known-constraint-feasible by construction.
//!
//! ```
//! use baco::search::{local_search_in, scalar_score, FeasibleSampler, LocalSearchOptions};
//! use baco::space::SearchSpace;
//! use rand::SeedableRng;
//! use std::collections::HashSet;
//!
//! let space = SearchSpace::builder()
//!     .integer("a", 0, 15)
//!     .integer("b", 0, 15)
//!     .known_constraint("a >= b")
//!     .build()?;
//! let sampler = FeasibleSampler::new(&space)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let best = local_search_in(
//!     &sampler,
//!     &mut rng,
//!     scalar_score(|c| -(c.value("a").as_f64() - 12.0).powi(2)),
//!     &LocalSearchOptions::default(),
//!     &HashSet::new(),
//!     None, // no candidate region
//! )
//! .unwrap();
//! assert_eq!(best.value("a").as_i64(), 12);
//! # Ok::<(), baco::Error>(())
//! ```

mod neighbors;

pub use neighbors::neighbors;

use crate::cot::ChainOfTrees;
use crate::space::{Configuration, SearchSpace};
use rand::Rng;
use std::collections::HashSet;

/// A feasible-configuration source: the CoT when the space is fully
/// discrete, otherwise rejection sampling against the known constraints.
#[derive(Debug)]
pub enum FeasibleSampler {
    /// Sampling / membership via the Chain-of-Trees.
    Cot(ChainOfTrees),
    /// Rejection sampling for spaces with continuous parameters.
    Rejection(SearchSpace),
}

impl FeasibleSampler {
    /// Builds the appropriate sampler for `space`.
    ///
    /// # Errors
    /// Propagates CoT construction failures (empty feasible set, blow-up).
    pub fn new(space: &SearchSpace) -> crate::Result<Self> {
        if space.is_fully_discrete() {
            Ok(FeasibleSampler::Cot(ChainOfTrees::build(space)?))
        } else {
            Ok(FeasibleSampler::Rejection(space.clone()))
        }
    }

    /// The underlying space.
    pub fn space(&self) -> &SearchSpace {
        match self {
            FeasibleSampler::Cot(c) => c.space(),
            FeasibleSampler::Rejection(s) => s,
        }
    }

    /// The CoT, when one was built.
    pub fn cot(&self) -> Option<&ChainOfTrees> {
        match self {
            FeasibleSampler::Cot(c) => Some(c),
            FeasibleSampler::Rejection(_) => None,
        }
    }

    /// Samples one feasible configuration (uniform over leaves for the CoT).
    ///
    /// # Panics
    /// Panics if rejection sampling fails 10 000 times in a row (degenerate
    /// constraint set on a continuous space).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Configuration {
        match self {
            FeasibleSampler::Cot(c) => c.sample_uniform(rng),
            FeasibleSampler::Rejection(s) => {
                for _ in 0..10_000 {
                    let cfg = s.sample_dense(rng);
                    if s.satisfies_known(&cfg).unwrap_or(false) {
                        return cfg;
                    }
                }
                panic!("rejection sampling failed: feasible set too sparse");
            }
        }
    }

    /// Whether `cfg` satisfies the known constraints.
    pub fn contains(&self, cfg: &Configuration) -> bool {
        match self {
            FeasibleSampler::Cot(c) => c.contains(cfg),
            FeasibleSampler::Rejection(s) => s.satisfies_known(cfg).unwrap_or(false),
        }
    }

    /// Draws up to `n` **distinct** feasible configurations, excluding
    /// anything in `excluded` — the batch-aware de-duplicating sampler behind
    /// the DoE phase and every proposal round's random fallback (a round of
    /// `q` proposals must be `q` *different* feasible points). Gives up after
    /// `200 · n` draws, so it may return fewer than `n` when the unexcluded
    /// feasible set is nearly exhausted.
    pub fn sample_batch<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        excluded: &HashSet<Configuration>,
    ) -> Vec<Configuration> {
        let mut out = Vec::with_capacity(n);
        let mut local: HashSet<Configuration> = HashSet::new();
        let mut attempts = 0usize;
        while out.len() < n && attempts < 200 * n.max(1) {
            attempts += 1;
            let cfg = self.sample(rng);
            if excluded.contains(&cfg) || local.contains(&cfg) {
                continue;
            }
            local.insert(cfg.clone());
            out.push(cfg);
        }
        out
    }
}

/// Options for [`local_search_in`].
#[derive(Debug, Clone, Copy)]
pub struct LocalSearchOptions {
    /// Random candidates scored before the climb.
    pub n_candidates: usize,
    /// How many of the best candidates seed hill climbs.
    pub n_starts: usize,
    /// Maximum climb steps per start.
    pub max_steps: usize,
}

impl Default for LocalSearchOptions {
    fn default() -> Self {
        LocalSearchOptions {
            n_candidates: 500,
            n_starts: 8,
            max_steps: 60,
        }
    }
}

/// How many draws a region-restricted pool slot may spend looking for an
/// in-region candidate before settling for the best out-of-region draw —
/// bounded so a tiny or empty region can never starve proposal generation.
const REGION_ATTEMPTS: usize = 8;

/// Multi-start local search maximizing a *batched* score, excluding
/// configurations in `seen` and, when `region` is set, preferring
/// candidates inside it. Returns the best configuration found, or `None`
/// when every candidate was already evaluated or scored `-∞`.
///
/// `score_batch` receives whole candidate slices — the initial random pool in
/// one call, then every feasible unseen neighborhood of a hill climb in one
/// call — and must return one score per candidate, in order. Surrogates with
/// a bulk prediction path (the GP's blocked posterior solve) make this
/// dramatically cheaper than per-candidate scoring; see
/// [`GaussianProcess::predict_batch_configs`](crate::surrogate::GaussianProcess::predict_batch_configs).
///
/// Candidates are sampled from the RNG *before* any scoring happens, and the
/// climb accepts exactly the neighbor the sequential scan would accept, so
/// the picked configuration is identical to the historical one-at-a-time
/// implementation whenever `score_batch` agrees with the scalar score.
///
/// With a `region`, pool sampling retries a few times per slot for a
/// configuration inside the region (falling back to a global draw, so
/// search never starves), and hill climbs only traverse in-region
/// neighbors. `None` searches the whole feasible set. This is the
/// trust-region hook of the budget-bounded surrogate mode (see
/// [`crate::surrogate::TrustRegion`]).
pub fn local_search_in<R, F>(
    sampler: &FeasibleSampler,
    rng: &mut R,
    mut score_batch: F,
    opts: &LocalSearchOptions,
    seen: &HashSet<Configuration>,
    region: Option<&dyn Fn(&Configuration) -> bool>,
) -> Option<Configuration>
where
    R: Rng + ?Sized,
    F: FnMut(&[Configuration]) -> Vec<f64>,
{
    let space = sampler.space().clone();
    let pool = sample_pool(sampler, rng, opts.n_candidates, seen, region);
    let mut scored: Vec<(f64, Configuration)> = score_batch(&pool)
        .into_iter()
        .zip(pool)
        .filter(|(s, _)| *s > f64::NEG_INFINITY)
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    scored.truncate(opts.n_starts.max(1));

    let mut best: Option<(f64, Configuration)> = None;
    let mut nbs: Vec<Configuration> = Vec::new();
    for (s0, start) in scored {
        let mut cur = start;
        let mut cur_score = s0;
        for _ in 0..opts.max_steps {
            nbs.clear();
            nbs.extend(neighbors(&space, &cur).into_iter().filter(|nb| {
                sampler.contains(nb) && !seen.contains(nb) && region.is_none_or(|inside| inside(nb))
            }));
            if nbs.is_empty() {
                break;
            }
            // Sequential accept sweep over the batch scores: keeps the climb
            // step-for-step identical to the unbatched implementation.
            let mut improved = false;
            let mut accepted: Option<usize> = None;
            for (i, s) in score_batch(&nbs).into_iter().enumerate() {
                if s > cur_score {
                    accepted = Some(i);
                    cur_score = s;
                    improved = true;
                }
            }
            if let Some(i) = accepted {
                cur = nbs.swap_remove(i);
            }
            if !improved {
                break;
            }
        }
        if best.as_ref().is_none_or(|(b, _)| cur_score > *b) {
            best = Some((cur_score, cur));
        }
    }
    best.map(|(_, c)| c)
}

/// Draws the random candidate pool shared by [`local_search_in`] and
/// [`random_search_in`]: `n` slots, each filled by an unseen feasible draw.
///
/// Without a region this is exactly the historical loop — one RNG draw per
/// slot, dropped when already seen — so unbudgeted runs keep their bitwise
/// trajectories. With a region, each slot retries up to [`REGION_ATTEMPTS`]
/// times for an unseen in-region candidate and otherwise keeps its first
/// unseen draw, so a shrunken trust region biases the pool without ever
/// starving it.
fn sample_pool<R: Rng + ?Sized>(
    sampler: &FeasibleSampler,
    rng: &mut R,
    n: usize,
    seen: &HashSet<Configuration>,
    region: Option<&dyn Fn(&Configuration) -> bool>,
) -> Vec<Configuration> {
    let mut pool: Vec<Configuration> = Vec::with_capacity(n);
    match region {
        None => {
            for _ in 0..n {
                let cfg = sampler.sample(rng);
                if !seen.contains(&cfg) {
                    pool.push(cfg);
                }
            }
        }
        Some(inside) => {
            for _ in 0..n {
                let mut fallback: Option<Configuration> = None;
                for _ in 0..REGION_ATTEMPTS {
                    let cfg = sampler.sample(rng);
                    if seen.contains(&cfg) {
                        continue;
                    }
                    if inside(&cfg) {
                        fallback = Some(cfg);
                        break;
                    }
                    if fallback.is_none() {
                        fallback = Some(cfg);
                    }
                }
                if let Some(cfg) = fallback {
                    pool.push(cfg);
                }
            }
        }
    }
    pool
}

/// Picks the best of `n` random feasible candidates outside `seen`, scored
/// as one batch (the degraded acquisition optimizer of the `BaCO--`
/// ablation). `region` biases the pool as in [`local_search_in`].
pub fn random_search_in<R, F>(
    sampler: &FeasibleSampler,
    rng: &mut R,
    mut score_batch: F,
    n: usize,
    seen: &HashSet<Configuration>,
    region: Option<&dyn Fn(&Configuration) -> bool>,
) -> Option<Configuration>
where
    R: Rng + ?Sized,
    F: FnMut(&[Configuration]) -> Vec<f64>,
{
    let mut pool = sample_pool(sampler, rng, n, seen, region);
    let mut best: Option<(f64, usize)> = None;
    for (i, s) in score_batch(&pool).into_iter().enumerate() {
        // Strict `>` keeps the first maximum, like the sequential scan did.
        if s > f64::NEG_INFINITY && best.as_ref().is_none_or(|(b, _)| s > *b) {
            best = Some((s, i));
        }
    }
    best.map(|(_, i)| pool.swap_remove(i))
}

/// Adapts a scalar scoring closure to the batched signature of
/// [`local_search_in`] / [`random_search_in`] (tests and simple callers).
pub fn scalar_score<F: FnMut(&Configuration) -> f64>(
    mut score: F,
) -> impl FnMut(&[Configuration]) -> Vec<f64> {
    move |cfgs: &[Configuration]| cfgs.iter().map(&mut score).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamValue, SearchSpace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .integer("a", 0, 15)
            .integer("b", 0, 15)
            .known_constraint("a >= b")
            .build()
            .unwrap()
    }

    #[test]
    fn doe_returns_distinct_feasible() {
        let s = space();
        let sampler = FeasibleSampler::new(&s).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let got = sampler.sample_batch(&mut rng, 20, &HashSet::new());
        assert_eq!(got.len(), 20);
        let uniq: HashSet<_> = got.iter().cloned().collect();
        assert_eq!(uniq.len(), 20);
        for c in &got {
            assert!(c.value("a").as_i64() >= c.value("b").as_i64());
        }
    }

    #[test]
    fn doe_respects_seen_set() {
        let s = SearchSpace::builder().integer("a", 0, 3).build().unwrap();
        let sampler = FeasibleSampler::new(&s).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = HashSet::new();
        seen.insert(s.configuration(&[("a", ParamValue::Int(0))]).unwrap());
        seen.insert(s.configuration(&[("a", ParamValue::Int(1))]).unwrap());
        let got = sampler.sample_batch(&mut rng, 4, &seen);
        assert_eq!(got.len(), 2, "only 2 configs remain unseen");
    }

    #[test]
    fn local_search_climbs_to_optimum() {
        let s = space();
        let sampler = FeasibleSampler::new(&s).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // Unimodal score peaked at (a, b) = (12, 7).
        let score = |c: &Configuration| {
            let a = c.value("a").as_f64();
            let b = c.value("b").as_f64();
            -((a - 12.0).powi(2) + (b - 7.0).powi(2))
        };
        let opts = LocalSearchOptions {
            n_candidates: 30,
            n_starts: 4,
            max_steps: 50,
        };
        let best = local_search_in(
            &sampler,
            &mut rng,
            scalar_score(score),
            &opts,
            &HashSet::new(),
            None,
        )
        .unwrap();
        assert_eq!(best.value("a").as_i64(), 12);
        assert_eq!(best.value("b").as_i64(), 7);
    }

    #[test]
    fn local_search_stays_feasible() {
        let s = space();
        let sampler = FeasibleSampler::new(&s).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        // Score pulls towards the infeasible corner (a=0, b=15).
        let score = |c: &Configuration| {
            let a = c.value("a").as_f64();
            let b = c.value("b").as_f64();
            -a + b
        };
        let best = local_search_in(
            &sampler,
            &mut rng,
            scalar_score(score),
            &LocalSearchOptions::default(),
            &HashSet::new(),
            None,
        )
        .unwrap();
        // Feasible optimum on a >= b is the diagonal a == b.
        assert_eq!(best.value("a").as_i64(), best.value("b").as_i64());
    }

    #[test]
    fn local_search_excludes_seen() {
        let s = SearchSpace::builder().integer("a", 0, 2).build().unwrap();
        let sampler = FeasibleSampler::new(&s).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = HashSet::new();
        // The optimum a=2 is already evaluated.
        seen.insert(s.configuration(&[("a", ParamValue::Int(2))]).unwrap());
        let best = local_search_in(
            &sampler,
            &mut rng,
            scalar_score(|c| c.value("a").as_f64()),
            &LocalSearchOptions::default(),
            &seen,
            None,
        )
        .unwrap();
        assert_eq!(best.value("a").as_i64(), 1);
    }

    #[test]
    fn region_restricted_search_biases_the_pool_into_the_region() {
        let s = space();
        let sampler = FeasibleSampler::new(&s).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        // A constant score makes the pick purely pool-order driven: the first
        // surviving candidate wins, and with a region every slot retries until
        // it lands inside, so the winner must be in-region.
        let inside = |c: &Configuration| c.value("a").as_i64() >= 8;
        let best = random_search_in(
            &sampler,
            &mut rng,
            scalar_score(|_| 0.0),
            64,
            &HashSet::new(),
            Some(&inside),
        )
        .unwrap();
        assert!(inside(&best));
    }

    #[test]
    fn empty_region_never_starves_search() {
        let s = space();
        let sampler = FeasibleSampler::new(&s).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        // A region that rejects everything must degrade to global draws, not
        // return an empty pool: the fallback keeps each slot's first unseen
        // draw.
        let nothing = |_: &Configuration| false;
        let best = local_search_in(
            &sampler,
            &mut rng,
            scalar_score(|c| c.value("a").as_f64()),
            &LocalSearchOptions::default(),
            &HashSet::new(),
            Some(&nothing),
        );
        assert!(best.is_some());
    }

    #[test]
    fn rejection_sampler_for_continuous_spaces() {
        let s = SearchSpace::builder()
            .real("x", 0.0, 1.0)
            .integer("k", 0, 9)
            .build()
            .unwrap();
        let sampler = FeasibleSampler::new(&s).unwrap();
        assert!(sampler.cot().is_none());
        let mut rng = StdRng::seed_from_u64(6);
        let c = sampler.sample(&mut rng);
        assert!(sampler.contains(&c));
    }
}
