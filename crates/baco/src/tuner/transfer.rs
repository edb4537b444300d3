//! Fleet-scale transfer learning over the journal corpus.
//!
//! A tuning fleet that journals every session into a shared directory (the
//! tuning server's `journal_dir`) accumulates a corpus of completed runs.
//! With [`BacoOptions::transfer`](super::BacoOptions::transfer) enabled, a
//! new session mines that corpus for *donors* — archived sessions whose
//! search space is structurally identical
//! ([`corpus::space_fingerprint`]) and whose objective count matches — and
//! seeds itself from their trials in two ways:
//!
//! 1. **DoE warm start** — the deterministic initial-phase draw is re-ranked
//!    so the candidates closest (in model feature space) to the donors' best
//!    configurations are evaluated first. The *set* of DoE points and the
//!    RNG stream are untouched; only the evaluation order changes, so with
//!    zero donors the trajectory is byte-identical to a transfer-off run.
//! 2. **Prior-mean surrogate** — the donors' completed trials are pooled and
//!    a random-forest regressor is fitted on them (with a private RNG seeded
//!    from the transfer digest — the session's own RNG stream is never
//!    consumed). That forest becomes the live GP's prior mean
//!    ([`MeanFn`]): the GP fits residuals against fleet experience and adds
//!    the prior back at prediction, so the surrogate starts informed instead
//!    of flat. Single-objective runs only; multi-objective runs still get
//!    the warm start.
//!
//! # Determinism envelope
//!
//! The run's journal header records a [`TransferDigest`]: the space
//! fingerprint, the chosen donor session ids, and a snapshot hash over the
//! donors' journal bytes. Resume *adopts* that digest — it reloads exactly
//! the recorded donors and hard-errors if any of them changed — instead of
//! re-scanning the corpus, so a resumed trajectory stays bitwise even as the
//! corpus grows around it. Runs with `transfer` off, and transfer runs that
//! found no donors, produce the exact record stream of a pre-transfer run.

use super::{Baco, BacoOptions};
use crate::journal::corpus;
use crate::journal::{fnv1a, Journal, TransferDigest};
use crate::space::{Configuration, SearchSpace};
use crate::surrogate::{MeanFn, ModelInput, RandomForestRegressor};
use crate::{Error, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;

/// Cap on how many donor sessions back one transfer run. More donors mean a
/// richer prior but a costlier scan and a bigger pooled training set; past a
/// handful of runs on the same space the prior stops improving. Donors are
/// selected in session-id order, so the cap is deterministic.
const MAX_DONORS: usize = 8;

/// The resolved per-run transfer state: the digest that went into (or came
/// out of) the journal header, the fitted prior mean, and the donors' best
/// configurations for the DoE warm start.
#[derive(Debug)]
pub(crate) struct TransferContext {
    pub(crate) digest: TransferDigest,
    /// The fleet prior for the live GP; `None` when there are no donors,
    /// too few pooled trials, or more than one objective.
    pub(crate) mean_fn: Option<Arc<dyn MeanFn>>,
    /// Each donor's best feasible configuration, in donor order.
    pub(crate) warm_bests: Vec<Configuration>,
    /// Pooled donor trials backing the prior (for reporting).
    pub(crate) donor_trials: usize,
}

/// The random-forest fleet prior: predicts the (transformed) objective
/// landscape learned from pooled donor trials.
#[derive(Debug)]
struct RfPriorMean {
    model: RandomForestRegressor,
}

impl MeanFn for RfPriorMean {
    fn mean(&self, space: &SearchSpace, cfg: &Configuration) -> f64 {
        self.model.predict_config(space, cfg).0
    }
}

/// The corpus snapshot hash over `(session, content)` pairs in order — the
/// per-run term of the [`TransferDigest`].
fn snapshot_of(pairs: &[(String, u64)]) -> u64 {
    let mut bytes = Vec::new();
    for (session, content) in pairs {
        bytes.extend_from_slice(session.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&content.to_le_bytes());
    }
    fnv1a(&bytes)
}

impl TransferContext {
    /// Fresh resolution: scan the corpus, pick donors deterministically,
    /// record the snapshot. Also refreshes the corpus's on-disk index (best
    /// effort — a read-only corpus is still usable).
    fn resolve(
        corpus_dir: &Path,
        opts: &BacoOptions,
        space: &SearchSpace,
    ) -> Result<TransferContext> {
        let scanned = corpus::scan(corpus_dir)?;
        let _ = scanned.write_index();
        let fingerprint = corpus::fingerprint_space(space);
        let mut loaded: Vec<(String, u64, Journal)> = Vec::new();
        for entry in scanned.donors(fingerprint, opts.objectives, MAX_DONORS) {
            // A donor that mutated between the scan and the load would make
            // the snapshot unreproducible — take the load's content hash.
            if let Ok((content, journal)) = corpus::load_donor(corpus_dir, &entry.session, space)
            {
                loaded.push((entry.session.clone(), content, journal));
            }
        }
        Ok(Self::build(fingerprint, loaded, opts, space))
    }

    /// Resume adoption: reload exactly the donors a journal header recorded
    /// and require the snapshot to match, so the rebuilt prior is the one
    /// the interrupted run used — bitwise — however the corpus grew since.
    fn adopt(
        corpus_dir: &Path,
        opts: &BacoOptions,
        space: &SearchSpace,
        digest: &TransferDigest,
    ) -> Result<TransferContext> {
        let corrupt = |msg: String| Error::JournalCorrupt { line: 1, msg };
        let fingerprint = corpus::fingerprint_space(space);
        if fingerprint != digest.fingerprint {
            return Err(corrupt(format!(
                "transfer fingerprint mismatch: journal {}, space {fingerprint}",
                digest.fingerprint
            )));
        }
        let mut loaded: Vec<(String, u64, Journal)> = Vec::new();
        for session in &digest.donors {
            let (content, journal) = corpus::load_donor(corpus_dir, session, space)?;
            loaded.push((session.clone(), content, journal));
        }
        let pairs: Vec<(String, u64)> =
            loaded.iter().map(|(s, c, _)| (s.clone(), *c)).collect();
        if snapshot_of(&pairs) != digest.snapshot {
            return Err(corrupt(
                "transfer corpus snapshot mismatch: a donor journal changed since this run \
                 was created"
                    .into(),
            ));
        }
        let ctx = Self::build(fingerprint, loaded, opts, space);
        debug_assert_eq!(&ctx.digest, digest);
        Ok(ctx)
    }

    /// Builds the context from loaded donor journals: pooled trials → prior
    /// mean, per-donor bests → warm start, names/contents → digest.
    fn build(
        fingerprint: u64,
        loaded: Vec<(String, u64, Journal)>,
        opts: &BacoOptions,
        space: &SearchSpace,
    ) -> TransferContext {
        let transform = |v: f64| {
            if opts.log_objective {
                v.max(1e-12).ln()
            } else {
                v
            }
        };
        let mut pooled_cfgs: Vec<Configuration> = Vec::new();
        let mut pooled_y: Vec<f64> = Vec::new();
        let mut warm_bests: Vec<Configuration> = Vec::new();
        for (_, _, journal) in &loaded {
            let mut best: Option<(f64, &Configuration)> = None;
            for t in &journal.trials {
                if !t.feasible {
                    continue;
                }
                let Some(v) = t.value.filter(|v| v.is_finite()) else {
                    continue;
                };
                if opts.objectives == 1 {
                    pooled_cfgs.push(t.config.clone());
                    pooled_y.push(transform(v));
                }
                if best.is_none_or(|(bv, _)| v < bv) {
                    best = Some((v, &t.config));
                }
            }
            if let Some((_, c)) = best {
                warm_bests.push(c.clone());
            }
        }
        let pairs: Vec<(String, u64)> =
            loaded.iter().map(|(s, c, _)| (s.clone(), *c)).collect();
        let digest = TransferDigest {
            fingerprint,
            snapshot: snapshot_of(&pairs),
            donors: pairs.into_iter().map(|(s, _)| s).collect(),
        };
        let donor_trials = pooled_y.len();
        let mean_fn: Option<Arc<dyn MeanFn>> = if opts.objectives == 1 && donor_trials >= 2 {
            // Private RNG seeded from the digest: the prior fit never
            // touches the session's own stream, so enabling transfer on an
            // empty corpus perturbs nothing.
            let mut prior_rng = StdRng::seed_from_u64(digest.snapshot ^ digest.fingerprint);
            match RandomForestRegressor::fit(space, &pooled_cfgs, &pooled_y, &opts.rf, &mut prior_rng)
            {
                Ok(model) => Some(Arc::new(RfPriorMean { model })),
                Err(_) => None,
            }
        } else {
            None
        };
        TransferContext {
            digest,
            mean_fn,
            warm_bests,
            donor_trials,
        }
    }
}

impl Baco {
    /// Resolves the run's transfer state — `adopted` carries a resumed
    /// journal's recorded digest, `None` scans the corpus fresh — and
    /// returns the digest the journal header should record. `Ok(None)` when
    /// transfer is off.
    ///
    /// # Errors
    /// [`Error::Io`] when the corpus directory cannot be scanned or an
    /// adopted donor is gone; [`Error::JournalCorrupt`] when an adopted
    /// digest no longer reproduces (mutated donor, different space).
    pub(crate) fn prepare_transfer(
        &self,
        adopted: Option<&TransferDigest>,
    ) -> Result<Option<TransferDigest>> {
        let Some(corpus_dir) = &self.opts.transfer else {
            return Ok(None);
        };
        let ctx = match adopted {
            Some(digest) => TransferContext::adopt(corpus_dir, &self.opts, &self.space, digest)?,
            None => TransferContext::resolve(corpus_dir, &self.opts, &self.space)?,
        };
        let digest = ctx.digest.clone();
        *self.transfer.lock().expect("transfer lock") = Some(Arc::new(ctx));
        Ok(Some(digest))
    }

    /// The fleet prior for the live GP fit, when one is resolved.
    pub(crate) fn transfer_mean(&self) -> Option<Arc<dyn MeanFn>> {
        self.transfer
            .lock()
            .expect("transfer lock")
            .as_ref()
            .and_then(|ctx| ctx.mean_fn.clone())
    }

    /// Donor count and pooled-trial count of the resolved transfer state
    /// (`None` when transfer is off or not yet resolved). Reported by the
    /// tuning server's `status` op.
    pub fn transfer_donors(&self) -> Option<(usize, usize)> {
        self.transfer
            .lock()
            .expect("transfer lock")
            .as_ref()
            .map(|ctx| (ctx.digest.donors.len(), ctx.donor_trials))
    }

    /// Re-ranks a DoE draw so candidates nearest a donor's best
    /// configuration (summed per-dimension feature distance, the GP
    /// kernel's own geometry) run first. Stable, RNG-free, and the identity
    /// when transfer is off or found no donors — the draw *set* never
    /// changes, only its evaluation order.
    pub(crate) fn transfer_rerank(&self, configs: Vec<Configuration>) -> Vec<Configuration> {
        let ctx = self.transfer.lock().expect("transfer lock").clone();
        let Some(ctx) = ctx else {
            return configs;
        };
        if ctx.warm_bests.is_empty() || configs.len() < 2 {
            return configs;
        }
        let transforms = self.opts.gp.input_transforms;
        let metric = self.opts.gp.perm_metric;
        let bests: Vec<ModelInput> = ctx
            .warm_bests
            .iter()
            .map(|c| ModelInput::from_config(&self.space, c, transforms))
            .collect();
        let mut scored: Vec<(f64, Configuration)> = configs
            .into_iter()
            .map(|c| {
                let x = ModelInput::from_config(&self.space, &c, transforms);
                let d = bests
                    .iter()
                    .map(|b| (0..x.len()).map(|k| x.dim_dist2(b, k, metric)).sum::<f64>())
                    .fold(f64::INFINITY, f64::min);
                (d, c)
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0)); // stable: ties keep draw order
        scored.into_iter().map(|(_, c)| c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ParamValue;
    use crate::tuner::{Evaluation, FnBlackBox};

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .integer("x", 0, 31)
            .integer("y", 0, 31)
            .build()
            .unwrap()
    }

    fn bb() -> FnBlackBox<impl Fn(&Configuration) -> Evaluation> {
        FnBlackBox::new(|cfg: &Configuration| {
            let x = cfg.value("x").as_f64();
            let y = cfg.value("y").as_f64();
            Evaluation::feasible(1.0 + (x - 7.0).powi(2) + (y - 21.0).powi(2))
        })
    }

    fn run_donor(dir: &std::path::Path, seed: u64, name: &str) {
        Baco::builder(space())
            .budget(14)
            .doe_samples(6)
            .seed(seed)
            .journal_path(dir.join(format!("{name}.jsonl")))
            .build()
            .unwrap()
            .run(&bb())
            .unwrap();
    }

    #[test]
    fn empty_corpus_transfer_matches_cold_run_exactly() {
        let dir = std::env::temp_dir().join(format!("baco-transfer-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cold = Baco::builder(space())
            .budget(12)
            .doe_samples(5)
            .seed(9)
            .build()
            .unwrap()
            .run(&bb())
            .unwrap();
        let warm = Baco::builder(space())
            .budget(12)
            .doe_samples(5)
            .seed(9)
            .transfer(&dir)
            .build()
            .unwrap()
            .run(&bb())
            .unwrap();
        let cold_hist: Vec<_> = cold.trials().iter().map(|t| (&t.config, t.value)).collect();
        let warm_hist: Vec<_> = warm.trials().iter().map(|t| (&t.config, t.value)).collect();
        assert_eq!(cold_hist, warm_hist);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transfer_digest_is_recorded_and_resume_adopts_it() {
        let dir = std::env::temp_dir().join(format!("baco-transfer-adopt-{}", std::process::id()));
        let corpus = dir.join("corpus");
        std::fs::create_dir_all(&corpus).unwrap();
        run_donor(&corpus, 100, "donor-a");
        run_donor(&corpus, 101, "donor-b");

        let journal_path = dir.join("live.jsonl");
        let tuner = |resume: bool| {
            Baco::builder(space())
                .budget(16)
                .doe_samples(6)
                .seed(3)
                .journal_path(&journal_path)
                .resume(resume)
                .transfer(&corpus)
                .build()
                .unwrap()
        };
        let full = tuner(false).run(&bb()).unwrap();

        let journal = Journal::load(&journal_path, &space()).unwrap();
        let digest = journal.header.transfer.clone().expect("digest recorded");
        assert_eq!(digest.donors, vec!["donor-a".to_string(), "donor-b".to_string()]);

        // Truncate to mid-run, grow the corpus, resume: the continued
        // trajectory adopts the recorded donors and matches bitwise.
        let text = std::fs::read_to_string(&journal_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let keep = lines.len() - 6;
        let mut truncated = lines[..keep].join("\n");
        truncated.push('\n');
        std::fs::write(&journal_path, truncated).unwrap();
        run_donor(&corpus, 102, "donor-c"); // corpus grows after the fact

        let resumed = tuner(true).run(&bb()).unwrap();
        assert_eq!(resumed.len(), full.len());
        for (a, b) in full.trials().iter().zip(resumed.trials()) {
            assert_eq!(a.config, b.config);
            assert_eq!(
                a.value.map(f64::to_bits),
                b.value.map(f64::to_bits),
                "resumed transfer trajectory diverged"
            );
        }
        let resumed_journal = Journal::load(&journal_path, &space()).unwrap();
        assert_eq!(resumed_journal.header.transfer, Some(digest));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutated_donor_fails_resume_with_typed_error() {
        let dir = std::env::temp_dir().join(format!("baco-transfer-mut-{}", std::process::id()));
        let corpus = dir.join("corpus");
        std::fs::create_dir_all(&corpus).unwrap();
        run_donor(&corpus, 200, "donor");
        let journal_path = dir.join("live.jsonl");
        let tuner = |resume: bool| {
            Baco::builder(space())
                .budget(10)
                .doe_samples(4)
                .seed(1)
                .journal_path(&journal_path)
                .resume(resume)
                .transfer(&corpus)
                .build()
                .unwrap()
        };
        tuner(false).run(&bb()).unwrap();
        // Appending a trial to the donor changes its content hash.
        run_donor(&corpus, 201, "donor");
        let err = tuner(true).resume(&bb()).unwrap_err();
        assert!(
            matches!(err, Error::JournalCorrupt { .. }),
            "expected snapshot mismatch, got {err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rerank_puts_candidates_near_donor_best_first() {
        let dir = std::env::temp_dir().join(format!("baco-transfer-rank-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        run_donor(&dir, 300, "donor");
        let tuner = Baco::builder(space())
            .budget(10)
            .doe_samples(4)
            .seed(5)
            .transfer(&dir)
            .build()
            .unwrap();
        tuner.prepare_transfer(None).unwrap();
        let (donors, pooled) = tuner.transfer_donors().unwrap();
        assert_eq!(donors, 1);
        assert!(pooled >= 2);
        let s = space();
        let far = s
            .configuration(&[("x", ParamValue::Int(31)), ("y", ParamValue::Int(0))])
            .unwrap();
        let near = s
            .configuration(&[("x", ParamValue::Int(7)), ("y", ParamValue::Int(21))])
            .unwrap();
        let ranked = tuner.transfer_rerank(vec![far.clone(), near.clone()]);
        assert_eq!(ranked.last(), Some(&far), "far candidate should sort last");
        std::fs::remove_dir_all(&dir).ok();
    }
}
