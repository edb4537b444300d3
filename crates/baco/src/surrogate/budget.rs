//! Budget-bounded surrogate machinery: the subset-of-data **active set** and
//! the TuRBO-style **trust region** that together cap per-round surrogate
//! cost for long-lived sessions (ROADMAP open item 2).
//!
//! The exact GP is O(n³) per fit and the incremental [`GpCache`] only defers
//! its distance work — at thousands of trials per session every round still
//! pays the fit. Under a budget the cache covers at most `b` points, so it
//! holds level codes for `b` points and, per dimension, a table over at
//! most `min(b, |dom_k|)` levels (`b × b` for a real dimension).
//! With [`BacoOptions::surrogate_budget`] set to `b`, once the feasible
//! history exceeds `b` points the tuner fits on an [`ActiveSet`] of exactly
//! `b` points instead, chosen deterministically off the journaled RNG
//! stream:
//!
//! 1. **incumbent block** — the `b/4` best points by (scalarized, transformed)
//!    objective value, ties broken by history order, so the model always
//!    resolves the region EI cares about;
//! 2. **recency block** — the `b/2` most recent points not already chosen,
//!    so fresh observations are never thrown away before the model sees them;
//! 3. **space-filling remainder** — greedy farthest-point selection over an
//!    RNG-drawn candidate pool (preferring points inside the trust region),
//!    so the model keeps global support and EI's exploration term stays
//!    calibrated.
//!
//! The [`TrustRegion`] is a deterministic *fold over the trial history* —
//! center at the incumbent, per-dimension radii driven by success/failure
//! counters with expand/shrink/restart rules — recomputed from scratch each
//! round rather than stored, exactly like [`GpCache`] is never serialized:
//! a resumed run replays the same history and lands in the same region, so
//! crash-safe resume ([`crate::journal`]) stays bitwise without new record
//! types. A region whose radius collapses below one discrete step of a
//! parameter restarts (full-size radii) instead of pinning search onto a
//! handful of already-seen configurations.
//!
//! Neither mechanism runs while the history fits the budget, so
//! `surrogate_budget ≥ n` is bit-identical to the exact path.
//!
//! [`GpCache`]: super::GpCache
//! [`BacoOptions::surrogate_budget`]: crate::tuner::BacoOptions::surrogate_budget

use super::features::ModelInput;
use crate::space::{Configuration, ParamKind, Parameter, PermMetric, Scale, SearchSpace};
use rand::rngs::StdRng;
use rand::Rng;

/// Initial (and restart) per-dimension trust-region radius, in normalized
/// feature units (per-dimension distances live in `[0, 1]`).
const INIT_RADIUS: f64 = 0.8;
/// Radii never expand beyond the full normalized range.
const MAX_RADIUS: f64 = 1.0;
/// Consecutive incumbent improvements before the region expands.
const SUCC_TOL: usize = 3;
/// Consecutive non-improvements before the region shrinks.
const FAIL_TOL: usize = 8;
const EXPAND: f64 = 2.0;
const SHRINK: f64 = 0.5;
/// Radius floor for categorical/permutation dimensions: a radius below 1
/// legitimately pins the dimension to the center's value (their distances
/// are 0-or-∼1), so only a collapse far beyond that counts as degenerate.
const CAT_FLOOR: f64 = INIT_RADIUS / 64.0;
/// Radius floor for real dimensions (continuous: no discrete step).
const REAL_FLOOR: f64 = 1e-6;
/// Oversampling factor for the space-filling candidate pool.
const POOL_FACTOR: usize = 4;

/// The training subset one budgeted round fits on: at most `budget` history
/// indices, ascending. See the [module docs](self) for the selection rules.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    indices: Vec<usize>,
}

impl ActiveSet {
    /// Selects the active set for one round. `values` holds the (scalarized,
    /// transformed) objective of every feasible point in history order and
    /// `cfgs` the matching configurations; `budget < values.len()` (callers
    /// skip selection entirely otherwise). All RNG draws come from the
    /// journaled stream and their count is a deterministic function of the
    /// replayed history, so resumed runs reproduce the selection bitwise.
    #[allow(clippy::too_many_arguments)]
    pub fn select(
        rng: &mut StdRng,
        space: &SearchSpace,
        cfgs: &[&Configuration],
        values: &[f64],
        budget: usize,
        metric: PermMetric,
        transforms: bool,
        region: Option<&TrustRegion>,
    ) -> ActiveSet {
        let n = values.len();
        debug_assert_eq!(cfgs.len(), n);
        debug_assert!(
            budget < n,
            "select() called although history fits the budget"
        );
        let k_best = (budget / 4).max(1);
        let k_recent = (budget / 2).max(1);
        let mut chosen: Vec<usize> = Vec::with_capacity(budget);
        let mut in_set = vec![false; n];

        // 1. Incumbent block: best-k by value, ties by history order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]).then(a.cmp(&b)));
        for &i in order.iter().take(k_best.min(budget)) {
            chosen.push(i);
            in_set[i] = true;
        }

        // 2. Recency block: newest points not already chosen.
        let mut added = 0;
        for i in (0..n).rev() {
            if added == k_recent || chosen.len() == budget {
                break;
            }
            if !in_set[i] {
                chosen.push(i);
                in_set[i] = true;
                added += 1;
            }
        }

        // 3. Space-filling remainder: greedy farthest-point over an RNG
        //    pool, preferring candidates inside the trust region.
        let needed = budget - chosen.len();
        if needed > 0 {
            let mut pool: Vec<usize> = (0..POOL_FACTOR * needed)
                .map(|_| rng.gen_range(0..n))
                .collect();
            pool.sort_unstable();
            pool.dedup();
            pool.retain(|&i| !in_set[i]);

            let feat = |i: usize| ModelInput::from_config(space, cfgs[i], transforms);
            let pool_feats: Vec<ModelInput> = pool.iter().map(|&i| feat(i)).collect();
            let chosen_feats: Vec<ModelInput> = chosen.iter().map(|&i| feat(i)).collect();
            let in_region: Vec<bool> = pool_feats
                .iter()
                .map(|f| region.is_none_or(|r| r.contains_input(f)))
                .collect();
            let d = space.len();
            let dist2 = |a: &ModelInput, b: &ModelInput| {
                (0..d).map(|k| a.dim_dist2(b, k, metric)).sum::<f64>()
            };
            // Min distance from each pool candidate to the chosen set.
            let mut min_d: Vec<f64> = pool_feats
                .iter()
                .map(|f| {
                    chosen_feats
                        .iter()
                        .map(|c| dist2(f, c))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let mut used = vec![false; pool.len()];
            for _ in 0..needed {
                let mut best: Option<usize> = None;
                // In-region candidates first; fall back outside the region.
                for want_in_region in [true, false] {
                    for p in 0..pool.len() {
                        if used[p] || in_region[p] != want_in_region {
                            continue;
                        }
                        let better = match best {
                            None => true,
                            Some(q) => min_d[p] > min_d[q],
                        };
                        if better {
                            best = Some(p);
                        }
                    }
                    if best.is_some() {
                        break;
                    }
                }
                let Some(p) = best else { break };
                used[p] = true;
                chosen.push(pool[p]);
                in_set[pool[p]] = true;
                for q in 0..pool.len() {
                    if !used[q] {
                        min_d[q] = min_d[q].min(dist2(&pool_feats[q], &pool_feats[p]));
                    }
                }
            }
        }

        // Shortfall (tiny pool after dedup): newest unchosen points.
        for i in (0..n).rev() {
            if chosen.len() == budget {
                break;
            }
            if !in_set[i] {
                chosen.push(i);
                in_set[i] = true;
            }
        }

        chosen.sort_unstable();
        ActiveSet { indices: chosen }
    }

    /// The selected history indices, ascending.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of selected points.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the set is empty (never true for `select`'s output).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Gathers the selected entries of a history-ordered slice.
    pub fn gather<T: Clone>(&self, xs: &[T]) -> Vec<T> {
        self.indices.iter().map(|&i| xs[i].clone()).collect()
    }
}

/// A TuRBO-style local trust region: a per-dimension box (in normalized
/// feature distance) around the incumbent. Recomputed each budgeted round by
/// [`TrustRegion::from_scalars`] as a deterministic fold over the trial
/// history; see the [module docs](self) for the state-machine rules and the
/// determinism story.
#[derive(Debug, Clone)]
pub struct TrustRegion {
    center: ModelInput,
    radii: Vec<f64>,
    metric: PermMetric,
    restarts: usize,
}

impl TrustRegion {
    /// Folds the trial history (in order) into the current region. `scalars`
    /// holds one entry per trial: the (scalarized, transformed) objective
    /// for feasible trials, `None` for infeasible ones (which count as
    /// failures). Returns `None` when no feasible trial exists.
    pub fn from_scalars(
        space: &SearchSpace,
        cfgs: &[&Configuration],
        scalars: &[Option<f64>],
        metric: PermMetric,
        transforms: bool,
    ) -> Option<TrustRegion> {
        debug_assert_eq!(cfgs.len(), scalars.len());
        let floors: Vec<f64> = space
            .params()
            .iter()
            .map(|p| dim_floor(p, transforms))
            .collect();
        let d = space.len();
        let mut radii = vec![INIT_RADIUS; d];
        let mut best = f64::INFINITY;
        let mut center: Option<ModelInput> = None;
        let mut succ = 0usize;
        let mut fail = 0usize;
        let mut restarts = 0usize;
        for (cfg, s) in cfgs.iter().zip(scalars) {
            let improved = s.is_some_and(|s| s < best - 1e-12 * best.abs().clamp(1.0, 1e12));
            if improved {
                best = s.expect("improved implies Some");
                center = Some(ModelInput::from_config(space, cfg, transforms));
                succ += 1;
                fail = 0;
                if succ >= SUCC_TOL {
                    succ = 0;
                    for r in &mut radii {
                        *r = (*r * EXPAND).min(MAX_RADIUS);
                    }
                }
            } else {
                fail += 1;
                succ = 0;
                if fail >= FAIL_TOL {
                    fail = 0;
                    for r in &mut radii {
                        *r *= SHRINK;
                    }
                    // Degenerate-region guard: a radius below one discrete
                    // step would make the region propose the same handful of
                    // configurations forever — restart at full size instead.
                    if radii.iter().zip(&floors).any(|(r, f)| r < f) {
                        radii.fill(INIT_RADIUS);
                        restarts += 1;
                    }
                }
            }
        }
        Some(TrustRegion {
            center: center?,
            radii,
            metric,
            restarts,
        })
    }

    /// Whether a featurized point lies inside the region (every dimension
    /// within its radius).
    pub(crate) fn contains_input(&self, x: &ModelInput) -> bool {
        self.radii
            .iter()
            .enumerate()
            .all(|(k, &r)| x.dim_dist2(&self.center, k, self.metric) <= r * r)
    }

    /// Whether `cfg` lies inside the region.
    pub fn contains(&self, space: &SearchSpace, cfg: &Configuration, transforms: bool) -> bool {
        self.contains_input(&ModelInput::from_config(space, cfg, transforms))
    }

    /// Current per-dimension radii (normalized feature units).
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// How many times the degenerate-region guard restarted the region over
    /// the folded history.
    pub fn restarts(&self) -> usize {
        self.restarts
    }
}

/// The smallest meaningful radius of one dimension: one discrete step for
/// numeric-discrete parameters (below which the region contains only the
/// center's value on that axis), a small epsilon for continuous ones, and a
/// deep-collapse floor for categorical/permutation dimensions.
fn dim_floor(p: &Parameter, transforms: bool) -> f64 {
    let scale = if transforms { p.scale() } else { Scale::Linear };
    match p.kind() {
        ParamKind::Real { .. } => REAL_FLOOR,
        ParamKind::Integer { .. } => {
            let card = p.domain_size().expect("integer has a domain size");
            if card <= 1 {
                0.0
            } else {
                // The minimum adjacent gap: uniform when linear, at the top
                // end when log-scaled (log compresses large values).
                p.normalized_at_with(card - 1, scale) - p.normalized_at_with(card - 2, scale)
            }
        }
        ParamKind::Ordinal { values } => {
            if values.len() <= 1 {
                0.0
            } else {
                (1..values.len())
                    .map(|i| {
                        (p.normalized_at_with(i as u64, scale)
                            - p.normalized_at_with(i as u64 - 1, scale))
                        .abs()
                    })
                    .fold(f64::INFINITY, f64::min)
            }
        }
        ParamKind::Categorical { .. } | ParamKind::Permutation { .. } => CAT_FLOOR,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ParamValue;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .integer("x", 0, 30)
            .integer("y", 0, 30)
            .build()
            .unwrap()
    }

    fn cfg(s: &SearchSpace, x: i64, y: i64) -> Configuration {
        s.configuration(&[("x", ParamValue::Int(x)), ("y", ParamValue::Int(y))])
            .unwrap()
    }

    fn history(s: &SearchSpace, n: usize) -> (Vec<Configuration>, Vec<f64>) {
        let cfgs: Vec<Configuration> = (0..n)
            .map(|i| cfg(s, (i % 31) as i64, ((i * 7) % 31) as i64))
            .collect();
        let values: Vec<f64> = (0..n)
            .map(|i| ((i as f64) * 0.37).sin().abs() * 10.0 + 1.0)
            .collect();
        (cfgs, values)
    }

    #[test]
    fn active_set_is_deterministic_capped_and_sorted() {
        let s = space();
        let (cfgs, values) = history(&s, 200);
        let refs: Vec<&Configuration> = cfgs.iter().collect();
        let select = || {
            let mut rng = StdRng::seed_from_u64(7);
            ActiveSet::select(
                &mut rng,
                &s,
                &refs,
                &values,
                32,
                PermMetric::Spearman,
                true,
                None,
            )
        };
        let a = select();
        let b = select();
        assert_eq!(a.indices(), b.indices());
        assert_eq!(a.len(), 32);
        assert!(
            a.indices().windows(2).all(|w| w[0] < w[1]),
            "sorted, unique"
        );
        assert!(a.indices().iter().all(|&i| i < 200));
    }

    #[test]
    fn active_set_anchors_incumbent_and_recent() {
        let s = space();
        let (cfgs, mut values) = history(&s, 200);
        values[17] = 0.001; // global best
        let refs: Vec<&Configuration> = cfgs.iter().collect();
        let mut rng = StdRng::seed_from_u64(1);
        let set = ActiveSet::select(
            &mut rng,
            &s,
            &refs,
            &values,
            32,
            PermMetric::Spearman,
            true,
            None,
        );
        assert!(set.indices().contains(&17), "incumbent must be in the set");
        // The b/2 most recent points are always kept.
        for i in 184..200 {
            assert!(set.indices().contains(&i), "recent point {i} missing");
        }
    }

    #[test]
    fn active_set_gathers_matching_slices() {
        let s = space();
        let (cfgs, values) = history(&s, 50);
        let refs: Vec<&Configuration> = cfgs.iter().collect();
        let mut rng = StdRng::seed_from_u64(3);
        let set = ActiveSet::select(
            &mut rng,
            &s,
            &refs,
            &values,
            10,
            PermMetric::Spearman,
            true,
            None,
        );
        let sub = set.gather(&values);
        assert_eq!(sub.len(), 10);
        for (j, &i) in set.indices().iter().enumerate() {
            assert_eq!(sub[j], values[i]);
        }
    }

    #[test]
    fn trust_region_expands_on_successes_and_shrinks_on_failures() {
        let s = space();
        // Strictly improving: expands every SUCC_TOL trials.
        let cfgs: Vec<Configuration> = (0..6).map(|i| cfg(&s, i, i)).collect();
        let refs: Vec<&Configuration> = cfgs.iter().collect();
        let improving: Vec<Option<f64>> = (0..6).map(|i| Some(100.0 - i as f64)).collect();
        let tr =
            TrustRegion::from_scalars(&s, &refs, &improving, PermMetric::Spearman, true).unwrap();
        assert!(
            tr.radii().iter().all(|&r| r == MAX_RADIUS),
            "{:?}",
            tr.radii()
        );

        // One improvement then a failure streak: shrinks.
        let mut scalars: Vec<Option<f64>> = vec![Some(1.0)];
        scalars.extend(std::iter::repeat_n(Some(50.0), FAIL_TOL));
        let cfgs: Vec<Configuration> = (0..scalars.len()).map(|i| cfg(&s, i as i64, 0)).collect();
        let refs: Vec<&Configuration> = cfgs.iter().collect();
        let tr =
            TrustRegion::from_scalars(&s, &refs, &scalars, PermMetric::Spearman, true).unwrap();
        assert!(
            tr.radii().iter().all(|&r| r == INIT_RADIUS * SHRINK),
            "{:?}",
            tr.radii()
        );
        assert_eq!(tr.restarts(), 0);
    }

    #[test]
    fn degenerate_region_restarts_instead_of_collapsing() {
        let s = space();
        // One improvement, then failures forever: radii would halve
        // indefinitely; the guard must restart once they pass one discrete
        // step (1/30 normalized for integer(0, 30)).
        let n = 1 + FAIL_TOL * 12;
        let mut scalars: Vec<Option<f64>> = vec![Some(1.0)];
        scalars.extend(std::iter::repeat_n(None, n - 1));
        let cfgs: Vec<Configuration> = (0..n).map(|i| cfg(&s, (i % 31) as i64, 0)).collect();
        let refs: Vec<&Configuration> = cfgs.iter().collect();
        let tr =
            TrustRegion::from_scalars(&s, &refs, &scalars, PermMetric::Spearman, true).unwrap();
        assert!(tr.restarts() >= 1, "guard never fired");
        let step = 1.0 / 30.0;
        assert!(
            tr.radii().iter().all(|&r| r >= step),
            "collapsed below one step: {:?}",
            tr.radii()
        );
    }

    #[test]
    fn infeasible_history_has_no_region() {
        let s = space();
        let cfgs: Vec<Configuration> = (0..4).map(|i| cfg(&s, i, 0)).collect();
        let refs: Vec<&Configuration> = cfgs.iter().collect();
        let scalars = vec![None; 4];
        assert!(
            TrustRegion::from_scalars(&s, &refs, &scalars, PermMetric::Spearman, true).is_none()
        );
    }

    #[test]
    fn contains_is_a_per_dimension_box_around_the_incumbent() {
        let s = space();
        // Improvements keep the region at the incumbent; radii stay INIT
        // (two improvements < SUCC_TOL).
        let cfgs = [cfg(&s, 15, 15), cfg(&s, 16, 15)];
        let refs: Vec<&Configuration> = cfgs.iter().collect();
        let scalars = vec![Some(2.0), Some(1.0)];
        let tr =
            TrustRegion::from_scalars(&s, &refs, &scalars, PermMetric::Spearman, true).unwrap();
        // Center is (16, 15); radius 0.8 covers |Δ| ≤ 24 steps of 30.
        assert!(tr.contains(&s, &cfg(&s, 16, 15), true));
        assert!(tr.contains(&s, &cfg(&s, 0, 15), true)); // 16 steps away

        // After a shrink the box tightens to |Δ| ≤ 12 steps.
        let mut scalars: Vec<Option<f64>> = vec![Some(1.0)];
        scalars.extend(std::iter::repeat_n(None, FAIL_TOL));
        let cfgs: Vec<Configuration> = (0..scalars.len()).map(|_| cfg(&s, 15, 15)).collect();
        let refs: Vec<&Configuration> = cfgs.iter().collect();
        let tr =
            TrustRegion::from_scalars(&s, &refs, &scalars, PermMetric::Spearman, true).unwrap();
        // Radii now 0.4: |Δ| ≤ 12 steps.
        assert!(tr.contains(&s, &cfg(&s, 15 + 12, 15), true));
        assert!(!tr.contains(&s, &cfg(&s, 15 + 13, 15), true));
    }
}
