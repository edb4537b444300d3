//! The per-layer ledger. Every number here is taken from *outside* `baco`:
//! either a timed call into one layer's public API, or a replay of one
//! proposal round's layer calls on the same history with the run's
//! options and a private RNG (the session's RNG is never touched, so the
//! traced trajectory is the untraced one).

use crate::stats::{ms, us, Samples};
use baco::acquisition::{expected_improvement, feasibility_weighted_ei};
use baco::search::local_search_in;
use baco::surrogate::{GaussianProcess, GpCache, RandomForestClassifier};
use baco::tuner::{Baco, FantasyStrategy, LiarValue};
use baco::Configuration;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// One evaluated configuration as the client saw it: `None` for a failed
/// (hidden-constraint) evaluation.
pub type Obs = (Configuration, Option<f64>);

/// Raw samples behind the per-layer metrics of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    pub cot_build_ms: Samples,
    pub sample_us: Samples,
    pub fit_ms: Samples,
    /// Per batched round: the q−1 fantasy conditionings together.
    pub condition_ms: Samples,
    pub predict_us: f64,
    pub predict_cands: f64,
    pub rf_fit_ms: Samples,
    /// Per `local_search_in` call.
    pub local_search_ms: Samples,
    /// Per replayed round.
    pub cands_scored: Samples,
    /// Every measured ask (or `suggest_batch`) of the run.
    pub ask_ms: Samples,
    /// Measured ask minus the replayed layer time, per model round.
    pub unattributed_ms: Samples,
    pub eval_us: Samples,
    pub journal_append_us: Samples,
    pub appends_per_eval: Samples,
    pub status_ms: Samples,
    pub report_ms: Samples,
    pub report_inproc_us: Samples,
    pub ask_overhead_ms: Samples,
    pub create_ms: Samples,
}

/// Replays the model work of one session's proposal rounds.
#[derive(Debug)]
pub struct Replayer {
    rng: StdRng,
    cache: GpCache,
}

impl Replayer {
    pub fn new(tuner: &Baco) -> Replayer {
        Replayer {
            rng: StdRng::seed_from_u64(tuner.options().seed ^ 0x1ed6_e55e_ed00_0001),
            cache: tuner.new_cache(),
        }
    }

    /// Times the session's design-of-experiments draw.
    pub fn doe(&mut self, tuner: &Baco, led: &mut Ledger) {
        let n = tuner.options().doe_samples.min(tuner.options().budget);
        let t = Instant::now();
        let drawn = tuner
            .sampler()
            .sample_batch(&mut self.rng, n, &HashSet::new());
        led.sample_us.push(us(t.elapsed()));
        debug_assert_eq!(drawn.len(), n);
    }

    /// Replays the layer calls behind `picks` model proposals made on
    /// `history` (with `excluded` already taken), returning the replayed
    /// milliseconds. Rounds without a model (DoE picks, fewer than two
    /// feasible points) replay nothing and return 0.
    pub fn round(
        &mut self,
        tuner: &Baco,
        history: &[Obs],
        excluded: &HashSet<Configuration>,
        picks: usize,
        led: &mut Ledger,
    ) -> f64 {
        let opts = tuner.options();
        let space = tuner.space();
        let transform = |v: f64| {
            if opts.log_objective {
                v.max(1e-12).ln()
            } else {
                v
            }
        };
        let (cfgs, y): (Vec<Configuration>, Vec<f64>) = history
            .iter()
            .filter_map(|(c, v)| {
                v.filter(|x| x.is_finite())
                    .map(|x| (c.clone(), transform(x)))
            })
            .unzip();
        if picks == 0 || cfgs.len() < 2 {
            return 0.0;
        }

        let t = Instant::now();
        let fitted = GaussianProcess::fit_with_cache(
            space,
            &cfgs,
            &y,
            &opts.gp,
            &mut self.rng,
            &mut self.cache,
        );
        let fit = ms(t.elapsed());
        let Ok(mut gp) = fitted else {
            return 0.0;
        };
        led.fit_ms.push(fit);
        let mut total = fit;

        let classifier = if opts.hidden_constraints && history.iter().any(|(_, v)| v.is_none()) {
            let all: Vec<Configuration> = history.iter().map(|(c, _)| c.clone()).collect();
            let labels: Vec<bool> = history.iter().map(|(_, v)| v.is_some()).collect();
            let t = Instant::now();
            let clf =
                RandomForestClassifier::fit(space, &all, &labels, &opts.rf, &mut self.rng).ok();
            let d = ms(t.elapsed());
            led.rf_fit_ms.push(d);
            total += d;
            clf
        } else {
            None
        };
        let epsilon = if opts.feasibility_limit && classifier.is_some() {
            opts.epsilon_schedule.sample(&mut self.rng)
        } else {
            0.0
        };

        let t = Instant::now();
        let best_mean = gp
            .predict_batch_configs(&cfgs)
            .into_iter()
            .map(|(m, _)| m)
            .fold(f64::INFINITY, f64::min);
        let incumbent = best_mean.min(y.iter().copied().fold(f64::INFINITY, f64::min) + 1.0);
        let d = t.elapsed();
        led.predict_us += us(d);
        led.predict_cands += cfgs.len() as f64;
        total += ms(d);

        let mut excluded = excluded.clone();
        let mut cands = 0usize;
        let mut conditioning = Duration::ZERO;
        for i in 0..picks {
            let mut predict = Duration::ZERO;
            let t = Instant::now();
            let pick = {
                let (gp, clf) = (&gp, classifier.as_ref());
                let score = |batch: &[Configuration]| -> Vec<f64> {
                    let t = Instant::now();
                    let ei: Vec<f64> = gp
                        .predict_batch_configs(batch)
                        .into_iter()
                        .map(|(m, v)| expected_improvement(m, v, incumbent))
                        .collect();
                    predict += t.elapsed();
                    cands += batch.len();
                    match clf {
                        Some(c) => ei
                            .iter()
                            .zip(batch)
                            .map(|(&e, cfg)| {
                                feasibility_weighted_ei(e, c.predict_proba(space, cfg), epsilon)
                            })
                            .collect(),
                        None => ei,
                    }
                };
                local_search_in(
                    tuner.sampler(),
                    &mut self.rng,
                    score,
                    &opts.ls,
                    &excluded,
                    None,
                )
            };
            let d = ms(t.elapsed());
            led.local_search_ms.push(d);
            led.predict_us += us(predict);
            total += d;
            let pick = pick.or_else(|| {
                tuner
                    .sampler()
                    .sample_batch(&mut self.rng, 1, &excluded)
                    .pop()
            });
            let Some(pick) = pick else {
                break;
            };
            if i + 1 < picks {
                let t = Instant::now();
                let lie = match opts.batch_strategy {
                    FantasyStrategy::KrigingBeliever => gp.predict(&pick).0,
                    FantasyStrategy::ConstantLiar(which) => match which {
                        LiarValue::Min => y.iter().copied().fold(f64::INFINITY, f64::min),
                        LiarValue::Max => y.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                        LiarValue::Mean => y.iter().sum::<f64>() / y.len() as f64,
                    },
                };
                if let Ok(conditioned) = gp.condition_on(&pick, lie) {
                    gp = conditioned;
                }
                conditioning += t.elapsed();
            }
            excluded.insert(pick);
        }
        if picks > 1 {
            led.condition_ms.push(ms(conditioning));
            total += ms(conditioning);
        }
        led.cands_scored.push(cands as f64);
        led.predict_cands += cands as f64;
        total
    }
}
