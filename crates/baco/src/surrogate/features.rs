use crate::space::{ParamKind, PermMetric, Scale};
use crate::space::{Configuration, SearchSpace};

/// One parameter's model-facing representation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Feature {
    /// Normalized numeric position in `[0,1]` (log-transformed when the
    /// parameter declares [`Scale::Log`] and transforms are enabled).
    Num(f64),
    /// Category index (Hamming distance).
    Cat(u32),
    /// Decoded permutation (semimetric distance).
    Perm(Vec<u8>),
}

/// A configuration prepared for model consumption: every parameter mapped to
/// its distance-ready representation.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInput {
    pub(crate) feats: Vec<Feature>,
}

impl ModelInput {
    /// Builds the model representation of `cfg`.
    ///
    /// With `use_transforms == false` (the `BaCO--` ablation of Fig. 8/9),
    /// log-scaled parameters are normalized linearly instead.
    pub fn from_config(space: &SearchSpace, cfg: &Configuration, use_transforms: bool) -> Self {
        let feats = (0..space.len()).map(|i| Feature::of(space, cfg, i, use_transforms)).collect();
        ModelInput { feats }
    }

    /// Appends the [`ModelInput::flat_features`] of `cfg`, input transforms
    /// applied, to `out` without building the intermediate input: the tree
    /// models' one encoder, for fitting and for scoring candidate batches
    /// into a reused buffer.
    pub(crate) fn encode_flat(space: &SearchSpace, cfg: &Configuration, out: &mut Vec<f64>) {
        for i in 0..space.len() {
            Feature::of(space, cfg, i, true).push_flat(out);
        }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.feats.len()
    }

    /// Whether there are no parameters.
    pub fn is_empty(&self) -> bool {
        self.feats.is_empty()
    }

    /// Squared per-dimension distance between two inputs (before lengthscale
    /// weighting). Permutation distances use `metric`, normalized to `[0,1]`.
    ///
    /// # Panics
    /// Panics if the inputs come from different spaces.
    pub(crate) fn dim_dist2(&self, other: &ModelInput, dim: usize, metric: PermMetric) -> f64 {
        match (&self.feats[dim], &other.feats[dim]) {
            (Feature::Num(a), Feature::Num(b)) => (a - b) * (a - b),
            (Feature::Cat(a), Feature::Cat(b)) => {
                if a == b {
                    0.0
                } else {
                    1.0
                }
            }
            (Feature::Perm(a), Feature::Perm(b)) => {
                let d = crate::space::perm::distance(metric, a, b);
                d * d
            }
            (a, b) => panic!("mismatched features at dim {dim}: {a:?} vs {b:?}"),
        }
    }

    /// Dimension-major column of one feature across a set of inputs, for the
    /// batched cross-kernel (see [`accumulate_scaled_dist2`]).
    pub(crate) fn dim_view(inputs: &[ModelInput], dim: usize) -> DimView {
        match inputs.first().map(|x| &x.feats[dim]) {
            None => DimView::Num(Vec::new()),
            Some(Feature::Num(_)) => DimView::Num(
                inputs
                    .iter()
                    .map(|x| match &x.feats[dim] {
                        Feature::Num(v) => *v,
                        f => panic!("dim_view: mixed features ({f:?})"),
                    })
                    .collect(),
            ),
            Some(Feature::Cat(_)) => DimView::Cat(
                inputs
                    .iter()
                    .map(|x| match &x.feats[dim] {
                        Feature::Cat(c) => *c,
                        f => panic!("dim_view: mixed features ({f:?})"),
                    })
                    .collect(),
            ),
            Some(Feature::Perm(p0)) => {
                let len = p0.len();
                let mut raw = Vec::with_capacity(inputs.len() * len);
                let mut pos = vec![0i64; inputs.len() * len];
                for (t, x) in inputs.iter().enumerate() {
                    let Feature::Perm(p) = &x.feats[dim] else {
                        panic!("dim_view: mixed features");
                    };
                    raw.extend_from_slice(p);
                    for (i, &e) in p.iter().enumerate() {
                        pos[t * len + e as usize] = i as i64;
                    }
                }
                DimView::Perm { len, raw, pos }
            }
        }
    }

    /// Flattened numeric feature vector for tree-based models: numeric value,
    /// category index, and one normalized position per permutation element.
    pub fn flat_features(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.feats.len());
        for f in &self.feats {
            f.push_flat(&mut out);
        }
        out
    }
}

impl Feature {
    /// Parameter `i` of `cfg` in its model representation.
    fn of(space: &SearchSpace, cfg: &Configuration, i: usize, use_transforms: bool) -> Self {
        let p = &space.params()[i];
        let scale = if use_transforms { p.scale() } else { Scale::Linear };
        match p.kind() {
            ParamKind::Real { .. } => {
                Feature::Num(p.normalized_real_with(cfg.value_at(i).as_f64(), scale))
            }
            ParamKind::Integer { .. } | ParamKind::Ordinal { .. } => {
                Feature::Num(p.normalized_at_with(cfg.cval(i).idx(), scale))
            }
            ParamKind::Categorical { .. } => Feature::Cat(cfg.cval(i).idx() as u32),
            ParamKind::Permutation { len } => {
                Feature::Perm(crate::space::perm::unrank(cfg.cval(i).idx(), *len))
            }
        }
    }

    /// Appends the flat numeric form: the numeric value, the category index,
    /// or one normalized position per permutation element.
    fn push_flat(&self, out: &mut Vec<f64>) {
        match self {
            Feature::Num(v) => out.push(*v),
            Feature::Cat(c) => out.push(*c as f64),
            Feature::Perm(p) => {
                let m = p.len().max(1) as f64;
                let base = out.len();
                out.resize(base + p.len(), 0.0);
                for (i, &e) in p.iter().enumerate() {
                    out[base + e as usize] = i as f64 / m;
                }
            }
        }
    }
}

/// One feature dimension, laid out column-major across a set of inputs.
///
/// [`ModelInput::dim_view`] builds these so the batched GP kernel can process
/// one dimension at a time over contiguous arrays — no per-pair enum
/// dispatch, and permutation position tables are computed once per input
/// instead of once per *pair* (the scalar path's hidden allocation).
#[derive(Debug, Clone)]
pub(crate) enum DimView {
    /// Normalized numeric values.
    Num(Vec<f64>),
    /// Category indices.
    Cat(Vec<u32>),
    /// Permutations: raw element sequences and element→position tables,
    /// both flattened with stride `len`.
    Perm {
        len: usize,
        raw: Vec<u8>,
        pos: Vec<i64>,
    },
}

/// Adds `dist²(train_i, cand_j) / ls2` to `acc[i·m + j]` for every pair, with
/// arithmetic ordered exactly like [`ModelInput::dim_dist2`] — accumulating
/// every dimension in index order over the same `acc` therefore reproduces
/// the scalar path's weighted distance bit for bit.
///
/// # Panics
/// Panics if the views disagree in kind or `acc` is not `n·m` long.
pub(crate) fn accumulate_scaled_dist2(
    train: &DimView,
    cand: &DimView,
    metric: PermMetric,
    ls2: f64,
    acc: &mut [f64],
) {
    match (train, cand) {
        (DimView::Num(t), DimView::Num(c)) => {
            let m = c.len();
            assert_eq!(acc.len(), t.len() * m);
            for (ti, row) in t.iter().zip(acc.chunks_exact_mut(m)) {
                for (a, cj) in row.iter_mut().zip(c) {
                    let d = cj - ti;
                    *a += d * d / ls2;
                }
            }
        }
        (DimView::Cat(t), DimView::Cat(c)) => {
            let m = c.len();
            assert_eq!(acc.len(), t.len() * m);
            for (ti, row) in t.iter().zip(acc.chunks_exact_mut(m)) {
                for (a, cj) in row.iter_mut().zip(c) {
                    if cj != ti {
                        *a += 1.0 / ls2;
                    }
                }
            }
        }
        (
            DimView::Perm {
                len,
                raw: traw,
                pos: tpos,
            },
            DimView::Perm {
                len: clen,
                raw: craw,
                pos: cpos,
            },
        ) => {
            assert_eq!(len, clen, "accumulate_scaled_dist2: length mismatch");
            let len = *len;
            let n = tpos.len() / len.max(1);
            let m = cpos.len() / len.max(1);
            assert_eq!(acc.len(), n * m);
            let maxd = crate::space::perm::max_distance(metric, len);
            for i in 0..n {
                let ti_pos = &tpos[i * len..(i + 1) * len];
                let ti_raw = &traw[i * len..(i + 1) * len];
                let row = &mut acc[i * m..(i + 1) * m];
                for j in 0..m {
                    let cj_pos = &cpos[j * len..(j + 1) * len];
                    let cj_raw = &craw[j * len..(j + 1) * len];
                    // Candidate plays `a`, training point plays `b`, exactly
                    // as in `ModelInput::dim_dist2(self=candidate, other)`.
                    let raw_d: f64 = match metric {
                        PermMetric::Spearman => (0..len)
                            .map(|e| {
                                let d = cj_pos[e] - ti_pos[e];
                                (d * d) as f64
                            })
                            .sum(),
                        PermMetric::Kendall => {
                            let mut d = 0u64;
                            for a in 0..len {
                                for b in a + 1..len {
                                    if ti_pos[cj_raw[a] as usize] > ti_pos[cj_raw[b] as usize] {
                                        d += 1;
                                    }
                                }
                            }
                            d as f64
                        }
                        PermMetric::Hamming => {
                            cj_raw.iter().zip(ti_raw).filter(|(x, y)| x != y).count() as f64
                        }
                        PermMetric::Naive => {
                            if cj_raw == ti_raw {
                                0.0
                            } else {
                                1.0
                            }
                        }
                    };
                    let d = match metric {
                        PermMetric::Naive => raw_d,
                        _ => raw_d / maxd,
                    };
                    row[j] += d * d / ls2;
                }
            }
        }
        (t, c) => panic!("accumulate_scaled_dist2: mismatched views {t:?} vs {c:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamValue, SearchSpace};

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0, 16.0])
            .categorical("c", vec!["a", "b", "z"])
            .permutation("p", 3)
            .build()
            .unwrap()
    }

    fn cfg(s: &SearchSpace, tile: f64, c: &str, p: Vec<u8>) -> Configuration {
        s.configuration(&[
            ("tile", ParamValue::Ordinal(tile)),
            ("c", ParamValue::Categorical(c.into())),
            ("p", ParamValue::Permutation(p)),
        ])
        .unwrap()
    }

    #[test]
    fn log_transform_applied_when_enabled() {
        let s = space();
        let a = ModelInput::from_config(&s, &cfg(&s, 1.0, "a", vec![0, 1, 2]), true);
        let b = ModelInput::from_config(&s, &cfg(&s, 2.0, "a", vec![0, 1, 2]), true);
        let c = ModelInput::from_config(&s, &cfg(&s, 8.0, "a", vec![0, 1, 2]), true);
        let d = ModelInput::from_config(&s, &cfg(&s, 16.0, "a", vec![0, 1, 2]), true);
        let d_small = a.dim_dist2(&b, 0, PermMetric::Spearman);
        let d_large = c.dim_dist2(&d, 0, PermMetric::Spearman);
        assert!((d_small - d_large).abs() < 1e-12, "{d_small} vs {d_large}");
    }

    #[test]
    fn log_transform_stripped_when_disabled() {
        let s = space();
        let a = ModelInput::from_config(&s, &cfg(&s, 1.0, "a", vec![0, 1, 2]), false);
        let b = ModelInput::from_config(&s, &cfg(&s, 2.0, "a", vec![0, 1, 2]), false);
        let c = ModelInput::from_config(&s, &cfg(&s, 8.0, "a", vec![0, 1, 2]), false);
        let d = ModelInput::from_config(&s, &cfg(&s, 16.0, "a", vec![0, 1, 2]), false);
        let d_small = a.dim_dist2(&b, 0, PermMetric::Spearman);
        let d_large = c.dim_dist2(&d, 0, PermMetric::Spearman);
        assert!(d_large > 10.0 * d_small, "{d_small} vs {d_large}");
    }

    #[test]
    fn categorical_distance_is_hamming() {
        let s = space();
        let a = ModelInput::from_config(&s, &cfg(&s, 1.0, "a", vec![0, 1, 2]), true);
        let b = ModelInput::from_config(&s, &cfg(&s, 1.0, "b", vec![0, 1, 2]), true);
        let z = ModelInput::from_config(&s, &cfg(&s, 1.0, "z", vec![0, 1, 2]), true);
        assert_eq!(a.dim_dist2(&b, 1, PermMetric::Spearman), 1.0);
        assert_eq!(b.dim_dist2(&z, 1, PermMetric::Spearman), 1.0);
        assert_eq!(a.dim_dist2(&a, 1, PermMetric::Spearman), 0.0);
    }

    #[test]
    fn naive_metric_collapses_permutation_structure() {
        let s = space();
        let a = ModelInput::from_config(&s, &cfg(&s, 1.0, "a", vec![0, 1, 2]), true);
        let near = ModelInput::from_config(&s, &cfg(&s, 1.0, "a", vec![0, 2, 1]), true);
        let far = ModelInput::from_config(&s, &cfg(&s, 1.0, "a", vec![2, 1, 0]), true);
        let d_near_s = a.dim_dist2(&near, 2, PermMetric::Spearman);
        let d_far_s = a.dim_dist2(&far, 2, PermMetric::Spearman);
        assert!(d_near_s < d_far_s);
        assert_eq!(a.dim_dist2(&near, 2, PermMetric::Naive), 1.0);
        assert_eq!(a.dim_dist2(&far, 2, PermMetric::Naive), 1.0);
    }

    #[test]
    fn flat_features_expand_permutations() {
        let s = space();
        let a = ModelInput::from_config(&s, &cfg(&s, 4.0, "b", vec![2, 0, 1]), true);
        let f = a.flat_features();
        // 1 numeric + 1 categorical + 3 permutation positions.
        assert_eq!(f.len(), 5);
        assert_eq!(f[1], 1.0); // category "b" has index 1
        // element 0 sits at position 1, element 1 at 2, element 2 at 0.
        assert_eq!(&f[2..], &[1.0 / 3.0, 2.0 / 3.0, 0.0]);
    }
}
