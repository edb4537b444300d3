//! ATF with OpenTuner (Sec. 5.1): OpenTuner's ensemble of search techniques
//! coordinated by a sliding-window AUC bandit, extended with ATF's known-
//! constraint support (all proposals are drawn from / checked against the
//! feasible set).
//!
//! The ensemble mirrors OpenTuner's default `AUCBanditMetaTechnique`:
//! greedy hill-climbing, pattern-style numeric moves, random mutation, and
//! uniform restarts. Techniques earn credit when their proposal improves the
//! global best; the bandit balances that credit with an exploration bonus.

use super::timed_trial;
use crate::search::{neighbors, FeasibleSampler};
use crate::space::{CVal, Configuration, ParamKind, SearchSpace};
use crate::tuner::{BlackBox, TuningReport};
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};
use std::time::Instant;

/// Options for [`AtfTuner`].
#[derive(Debug, Clone, Copy)]
pub struct AtfOptions {
    /// Evaluation budget.
    pub budget: usize,
    /// RNG seed.
    pub seed: u64,
    /// Sliding window of technique outcomes feeding the AUC credit.
    pub window: usize,
    /// Exploration constant of the UCB term.
    pub exploration: f64,
}

impl Default for AtfOptions {
    fn default() -> Self {
        AtfOptions {
            budget: 60,
            seed: 0,
            window: 50,
            exploration: 1.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Technique {
    HillClimb,
    Pattern,
    Mutate,
    Restart,
}

const TECHNIQUES: [Technique; 4] = [
    Technique::HillClimb,
    Technique::Pattern,
    Technique::Mutate,
    Technique::Restart,
];

/// The ATF/OpenTuner baseline tuner.
#[derive(Debug)]
pub struct AtfTuner {
    space: SearchSpace,
    sampler: FeasibleSampler,
    opts: AtfOptions,
}

impl AtfTuner {
    /// Builds the tuner.
    ///
    /// # Errors
    /// Propagates Chain-of-Trees construction failures.
    pub fn new(space: &SearchSpace, opts: AtfOptions) -> Result<Self> {
        Ok(AtfTuner {
            space: space.clone(),
            sampler: FeasibleSampler::new(space)?,
            opts,
        })
    }

    /// Convenience constructor with default bandit settings.
    ///
    /// # Errors
    /// Propagates Chain-of-Trees construction failures.
    pub fn with_budget(space: &SearchSpace, budget: usize, seed: u64) -> Result<Self> {
        Self::new(
            space,
            AtfOptions {
                budget,
                seed,
                ..Default::default()
            },
        )
    }

    fn propose<R: Rng + ?Sized>(
        &self,
        tech: Technique,
        best: Option<&Configuration>,
        rng: &mut R,
        seen: &HashSet<Configuration>,
    ) -> Option<Configuration> {
        let base = match best {
            Some(b) => b.clone(),
            None => return self.fresh(rng, seen),
        };
        let cand = match tech {
            Technique::Restart => return self.fresh(rng, seen),
            Technique::HillClimb => {
                // A random feasible unseen neighbor of the incumbent.
                let mut nbs = neighbors(&self.space, &base);
                // Shuffle for a random pick without allocating a distribution.
                for i in (1..nbs.len()).rev() {
                    nbs.swap(i, rng.gen_range(0..=i));
                }
                nbs.into_iter()
                    .find(|n| self.sampler.contains(n) && !seen.contains(n))
            }
            Technique::Pattern => {
                // Move ±k on one numeric parameter (k geometric).
                let numeric: Vec<usize> = self
                    .space
                    .params()
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        matches!(
                            p.kind(),
                            ParamKind::Integer { .. } | ParamKind::Ordinal { .. }
                        )
                    })
                    .map(|(i, _)| i)
                    .collect();
                if numeric.is_empty() {
                    None
                } else {
                    let mut found = None;
                    for _ in 0..16 {
                        let pi = numeric[rng.gen_range(0..numeric.len())];
                        let size = self.space.param(pi).domain_size().expect("discrete") as i64;
                        let cur = base.cval(pi).idx() as i64;
                        let mut k = 1i64;
                        while rng.gen_bool(0.5) && k < size {
                            k *= 2;
                        }
                        let dir = if rng.gen_bool(0.5) { 1 } else { -1 };
                        let nv = (cur + dir * k).clamp(0, size - 1);
                        let cand = base.with_cval(pi, CVal::Idx(nv as u64));
                        if cand != base && self.sampler.contains(&cand) && !seen.contains(&cand) {
                            found = Some(cand);
                            break;
                        }
                    }
                    found
                }
            }
            Technique::Mutate => {
                // Resample a geometric number of parameters uniformly.
                let d = self.space.len();
                let mut found = None;
                for _ in 0..16 {
                    let mut cand = base.clone();
                    let mut k = 1;
                    while rng.gen_bool(0.3) && k < d {
                        k += 1;
                    }
                    for _ in 0..k {
                        let pi = rng.gen_range(0..d);
                        match self.space.param(pi).kind() {
                            ParamKind::Real { lo, hi } => {
                                cand.set_cval(pi, CVal::Real(rng.gen_range(*lo..=*hi)));
                            }
                            kind => {
                                let size = kind.domain_size().expect("discrete");
                                cand.set_cval(pi, CVal::Idx(rng.gen_range(0..size)));
                            }
                        }
                    }
                    if cand != base && self.sampler.contains(&cand) && !seen.contains(&cand) {
                        found = Some(cand);
                        break;
                    }
                }
                found
            }
        };
        cand.or_else(|| self.fresh(rng, seen))
    }

    fn fresh<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        seen: &HashSet<Configuration>,
    ) -> Option<Configuration> {
        for _ in 0..2000 {
            let cfg = self.sampler.sample(rng);
            if !seen.contains(&cfg) {
                return Some(cfg);
            }
        }
        None
    }
}

impl super::Tuner for AtfTuner {
    fn name(&self) -> &str {
        "ATF"
    }

    fn run(&mut self, bb: &dyn BlackBox) -> Result<TuningReport> {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let mut report = TuningReport::new(self.name());
        let mut seen: HashSet<Configuration> = HashSet::new();
        // Sliding window of (technique index, improved?) outcomes.
        let mut window: VecDeque<(usize, bool)> = VecDeque::with_capacity(self.opts.window);
        let mut uses = [0usize; TECHNIQUES.len()];
        let mut best: Option<(f64, Configuration)> = None;

        while report.len() < self.opts.budget {
            let t0 = Instant::now();
            // AUC-credit bandit selection.
            let t_total = report.len().max(1) as f64;
            let mut pick = 0;
            let mut pick_score = f64::NEG_INFINITY;
            for (ti, _) in TECHNIQUES.iter().enumerate() {
                let score = if uses[ti] == 0 {
                    f64::INFINITY
                } else {
                    // AUC: recency-weighted improvements within the window.
                    let mut auc = 0.0;
                    let mut weight_sum = 0.0;
                    for (age, (wt, improved)) in window.iter().rev().enumerate() {
                        if *wt == ti {
                            let w = (self.opts.window - age) as f64;
                            weight_sum += w;
                            if *improved {
                                auc += w;
                            }
                        }
                    }
                    let exploit = if weight_sum > 0.0 {
                        auc / weight_sum
                    } else {
                        0.0
                    };
                    exploit + self.opts.exploration * (2.0 * t_total.ln() / uses[ti] as f64).sqrt()
                };
                if score > pick_score {
                    pick_score = score;
                    pick = ti;
                }
            }

            let Some(cfg) = self.propose(
                TECHNIQUES[pick],
                best.as_ref().map(|(_, c)| c),
                &mut rng,
                &seen,
            ) else {
                break;
            };
            seen.insert(cfg.clone());
            let tuner_time = t0.elapsed();
            let trial = timed_trial(bb, cfg, tuner_time);

            let improved = match (trial.feasible, trial.value, &best) {
                (true, Some(v), Some((b, _))) => v < *b,
                (true, Some(_), None) => true,
                _ => false,
            };
            if improved {
                best = Some((trial.value.unwrap(), trial.config.clone()));
            }
            uses[pick] += 1;
            if window.len() == self.opts.window {
                window.pop_front();
            }
            window.push_back((pick, improved));
            report.push(trial);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Tuner;
    use crate::tuner::{Evaluation, FnBlackBox};

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .integer("a", 0, 31)
            .integer("b", 0, 31)
            .known_constraint("a >= b")
            .build()
            .unwrap()
    }

    #[test]
    fn exploits_towards_optimum() {
        let bb = FnBlackBox::new(|c: &Configuration| {
            let a = c.value("a").as_f64();
            let b = c.value("b").as_f64();
            Evaluation::feasible(1.0 + (a - 20.0).abs() + (b - 20.0).abs())
        });
        let mut t = AtfTuner::with_budget(&space(), 80, 3).unwrap();
        let r = t.run(&bb).unwrap();
        assert_eq!(r.len(), 80);
        assert!(r.best_value().unwrap() <= 6.0, "best {:?}", r.best_value());
        // All proposals feasible and unique.
        let uniq: HashSet<_> = r.trials().iter().map(|t| t.config.clone()).collect();
        assert_eq!(uniq.len(), 80);
        for trial in r.trials() {
            assert!(trial.config.value("a").as_i64() >= trial.config.value("b").as_i64());
        }
    }

    #[test]
    fn survives_hidden_constraint_failures() {
        let bb = FnBlackBox::new(|c: &Configuration| {
            let a = c.value("a").as_i64();
            if a % 2 == 1 {
                Evaluation::infeasible()
            } else {
                Evaluation::feasible(1.0 + a as f64)
            }
        });
        let mut t = AtfTuner::with_budget(&space(), 60, 5).unwrap();
        let r = t.run(&bb).unwrap();
        // Best feasible values are 1, 3, 5, … (even `a` only); the heuristic
        // should land close to the bottom.
        assert!(r.best_value().unwrap() <= 5.0, "best {:?}", r.best_value());
    }

    #[test]
    fn deterministic_under_seed() {
        let bb =
            FnBlackBox::new(|c: &Configuration| Evaluation::feasible(c.value("a").as_f64() + 1.0));
        let run = |seed| {
            let mut t = AtfTuner::with_budget(&space(), 25, seed).unwrap();
            t.run(&bb)
                .unwrap()
                .trials()
                .iter()
                .map(|t| t.config.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }
}
