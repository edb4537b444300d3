//! Random forests: the hidden-constraint feasibility classifier of Sec. 4.2
//! and the alternative value surrogate used in the Fig. 8 comparison (and by
//! the Ytopt baseline).
//!
//! ```
//! use baco::space::{ParamValue, SearchSpace};
//! use baco::surrogate::{RandomForestClassifier, RfOptions};
//! use rand::SeedableRng;
//!
//! let space = SearchSpace::builder().integer("x", 0, 31).build()?;
//! let cfg = |x: i64| space.configuration(&[("x", ParamValue::Int(x))]).unwrap();
//! // Feasible iff x < 16.
//! let configs: Vec<_> = (0..32).map(cfg).collect();
//! let labels: Vec<bool> = (0..32).map(|x| x < 16).collect();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let clf = RandomForestClassifier::fit(&space, &configs, &labels, &RfOptions::default(), &mut rng)?;
//! assert!(clf.predict_proba(&space, &cfg(2)) > clf.predict_proba(&space, &cfg(30)));
//! # Ok::<(), baco::Error>(())
//! ```

mod tree;

use self::tree::{DecisionTree, TreeOptions};
use super::features::ModelInput;
use crate::space::{Configuration, SearchSpace};
use crate::{Error, Result};
use rand::Rng;

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct RfOptions {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Bootstrap-resample the training set per tree.
    pub bootstrap: bool,
}

impl Default for RfOptions {
    fn default() -> Self {
        RfOptions {
            n_trees: 40,
            max_depth: 14,
            min_samples_leaf: 1,
            bootstrap: true,
        }
    }
}

fn fit_forest<R: Rng + ?Sized>(
    x: &[Vec<f64>],
    y: &[f64],
    opts: &RfOptions,
    rng: &mut R,
) -> Result<Vec<DecisionTree>> {
    if x.is_empty() || x.len() != y.len() {
        return Err(Error::InvalidConfig(format!(
            "random forest fit needs matching nonempty data: {} rows, {} labels",
            x.len(),
            y.len()
        )));
    }
    let n = x.len();
    let n_features = x[0].len().max(1);
    let mtry = (n_features as f64).sqrt().ceil() as usize;
    let topts = TreeOptions {
        max_depth: opts.max_depth,
        min_samples_leaf: opts.min_samples_leaf,
        features_per_split: mtry.max(1),
    };
    let mut trees = Vec::with_capacity(opts.n_trees);
    for _ in 0..opts.n_trees.max(1) {
        let idx: Vec<usize> = if opts.bootstrap {
            (0..n).map(|_| rng.gen_range(0..n)).collect()
        } else {
            (0..n).collect()
        };
        trees.push(DecisionTree::fit(x, y, &idx, &topts, rng));
    }
    Ok(trees)
}

/// The rows of a forest's training matrix, from the one flat encoder.
fn encode_rows(space: &SearchSpace, configs: &[Configuration]) -> Vec<Vec<f64>> {
    configs
        .iter()
        .map(|c| {
            let mut row = Vec::new();
            ModelInput::encode_flat(space, c, &mut row);
            row
        })
        .collect()
}

fn forest_predict(trees: &[DecisionTree], features: &[f64]) -> (f64, f64) {
    let preds: Vec<f64> = trees.iter().map(|t| t.predict(features)).collect();
    let mean = preds.iter().sum::<f64>() / preds.len() as f64;
    let var = preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64;
    (mean, var)
}

/// A random-forest regressor over configurations. Prediction variance is the
/// spread across trees, giving the uncertainty estimate BO needs.
#[derive(Debug)]
pub struct RandomForestRegressor {
    trees: Vec<DecisionTree>,
}

impl RandomForestRegressor {
    /// Fits the forest to `(configs, y)`.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] on empty or mismatched data.
    pub fn fit<R: Rng + ?Sized>(
        space: &SearchSpace,
        configs: &[Configuration],
        y: &[f64],
        opts: &RfOptions,
        rng: &mut R,
    ) -> Result<Self> {
        let x = encode_rows(space, configs);
        Ok(RandomForestRegressor {
            trees: fit_forest(&x, y, opts, rng)?,
        })
    }

    /// Posterior mean and across-tree variance at `cfg`.
    pub fn predict_config(&self, space: &SearchSpace, cfg: &Configuration) -> (f64, f64) {
        let mut f = Vec::new();
        ModelInput::encode_flat(space, cfg, &mut f);
        forest_predict(&self.trees, &f)
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest has no trees (never true after a successful fit).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

/// The feasibility classifier for hidden constraints: predicts the
/// probability that a configuration evaluates successfully.
#[derive(Debug)]
pub struct RandomForestClassifier {
    trees: Vec<DecisionTree>,
}

impl RandomForestClassifier {
    /// Fits the classifier to `(configs, feasible)` labels.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] on empty or mismatched data.
    pub fn fit<R: Rng + ?Sized>(
        space: &SearchSpace,
        configs: &[Configuration],
        feasible: &[bool],
        opts: &RfOptions,
        rng: &mut R,
    ) -> Result<Self> {
        let x = encode_rows(space, configs);
        let y: Vec<f64> = feasible.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        Ok(RandomForestClassifier {
            trees: fit_forest(&x, &y, opts, rng)?,
        })
    }

    /// Probability of feasibility at `cfg` (mean leaf probability across
    /// trees).
    pub fn predict_proba(&self, space: &SearchSpace, cfg: &Configuration) -> f64 {
        self.predict_proba_batch(space, std::slice::from_ref(cfg))[0]
    }

    /// [`RandomForestClassifier::predict_proba`] for a whole candidate
    /// batch, bit for bit: each candidate is encoded into one reused feature
    /// buffer and the tree mean is summed in tree order. The across-tree
    /// variance, which a probability does not use, is not computed.
    pub fn predict_proba_batch(&self, space: &SearchSpace, cfgs: &[Configuration]) -> Vec<f64> {
        let mut f = Vec::new();
        cfgs.iter()
            .map(|cfg| {
                f.clear();
                ModelInput::encode_flat(space, cfg, &mut f);
                let sum = self.trees.iter().map(|t| t.predict(&f)).sum::<f64>();
                (sum / self.trees.len() as f64).clamp(0.0, 1.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamValue, SearchSpace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .integer("x", 0, 31)
            .categorical("m", vec!["a", "b"])
            .build()
            .unwrap()
    }

    fn cfg(s: &SearchSpace, x: i64, m: &str) -> Configuration {
        s.configuration(&[("x", ParamValue::Int(x)), ("m", ParamValue::Categorical(m.into()))])
            .unwrap()
    }

    #[test]
    fn regressor_learns_piecewise_signal() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(1);
        let mut configs = Vec::new();
        let mut y = Vec::new();
        for x in 0..32 {
            for m in ["a", "b"] {
                let c = cfg(&s, x, m);
                let v = if x < 16 { 1.0 } else { 4.0 } + if m == "b" { 10.0 } else { 0.0 };
                configs.push(c);
                y.push(v);
            }
        }
        let rf =
            RandomForestRegressor::fit(&s, &configs, &y, &RfOptions::default(), &mut rng).unwrap();
        let (m1, _) = rf.predict_config(&s, &cfg(&s, 3, "a"));
        let (m2, _) = rf.predict_config(&s, &cfg(&s, 30, "b"));
        assert!((m1 - 1.0).abs() < 0.8, "{m1}");
        assert!((m2 - 14.0).abs() < 1.5, "{m2}");
    }

    #[test]
    fn variance_positive_out_of_sample() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(2);
        let configs: Vec<_> = (0..8).map(|x| cfg(&s, x * 4, "a")).collect();
        let y: Vec<f64> = (0..8).map(|x| (x as f64).sin() * 3.0).collect();
        let rf =
            RandomForestRegressor::fit(&s, &configs, &y, &RfOptions::default(), &mut rng).unwrap();
        let (_, v) = rf.predict_config(&s, &cfg(&s, 13, "b"));
        assert!(v >= 0.0);
    }

    #[test]
    fn classifier_learns_feasibility_boundary() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(3);
        let mut configs = Vec::new();
        let mut labels = Vec::new();
        for x in 0..32 {
            let c = cfg(&s, x, "a");
            configs.push(c);
            labels.push(x < 20); // feasible below 20
        }
        let rf = RandomForestClassifier::fit(&s, &configs, &labels, &RfOptions::default(), &mut rng)
            .unwrap();
        assert!(rf.predict_proba(&s, &cfg(&s, 5, "a")) > 0.8);
        assert!(rf.predict_proba(&s, &cfg(&s, 29, "a")) < 0.2);
    }

    #[test]
    fn batch_proba_and_flat_encoder_match_per_candidate_bitwise() {
        let s = SearchSpace::builder()
            .real("lr", 1e-4, 1.0)
            .integer("x", 0, 31)
            .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0, 16.0])
            .categorical("m", vec!["a", "b", "c"])
            .permutation("p", 4)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let configs: Vec<_> = (0..60).map(|_| s.sample_dense(&mut rng)).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Encoding appends after whatever the buffer already holds.
        let mut f = vec![-1.0];
        for c in &configs {
            f.truncate(1);
            ModelInput::encode_flat(&s, c, &mut f);
            let reference = ModelInput::from_config(&s, c, true).flat_features();
            assert_eq!(bits(&f[1..]), bits(&reference), "{c:?}");
        }
        let labels: Vec<bool> = configs.iter().map(|c| c.value("x").as_f64() < 12.0).collect();
        let (train, cands) = configs.split_at(30);
        let clf =
            RandomForestClassifier::fit(&s, train, &labels[..30], &RfOptions::default(), &mut rng)
                .unwrap();
        let batch = clf.predict_proba_batch(&s, cands);
        assert_eq!(batch.len(), cands.len());
        for (c, p) in cands.iter().zip(&batch) {
            assert_eq!(p.to_bits(), clf.predict_proba(&s, c).to_bits(), "{c:?}");
            // The classic path: a fresh input, its flat features, and the
            // forest's mean and variance.
            let f = ModelInput::from_config(&s, c, true).flat_features();
            let classic = forest_predict(&clf.trees, &f).0.clamp(0.0, 1.0);
            assert_eq!(p.to_bits(), classic.to_bits(), "{c:?}");
        }
        assert!(batch.iter().any(|&p| p > 0.0 && p < 1.0), "{batch:?}");
    }

    #[test]
    fn empty_fit_is_error() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(RandomForestRegressor::fit(&s, &[], &[], &RfOptions::default(), &mut rng).is_err());
        assert!(
            RandomForestClassifier::fit(&s, &[], &[], &RfOptions::default(), &mut rng).is_err()
        );
    }

    #[test]
    fn single_class_classifier_is_constant() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(5);
        let configs: Vec<_> = (0..6).map(|x| cfg(&s, x, "a")).collect();
        let rf = RandomForestClassifier::fit(
            &s,
            &configs,
            &[true; 6],
            &RfOptions::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(rf.predict_proba(&s, &cfg(&s, 31, "b")), 1.0);
    }
}
