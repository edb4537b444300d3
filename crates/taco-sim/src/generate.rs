//! Synthetic tensor generators reproducing the inventory of Table 4.
//!
//! The paper draws matrices from SuiteSparse, tensors from FROSTT and the
//! Facebook Activities graph. Those downloads are unavailable here, so each
//! entry is replaced by a structurally similar synthetic tensor with the same
//! dimensions and nonzero count (scaled by a [`crate::benchmarks::TacoScale`]
//! factor for tractable wall-clock): circuit-like matrices become power-law
//! graphs, PDE meshes become banded matrices, and so on. Generation is
//! deterministic per (name, scale).

use crate::sparse::{CooTensor3, CooTensor4, CsrMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Structural family of a synthetic tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Uniform random coordinates.
    Uniform,
    /// Banded (mesh / PDE-like): nonzeros near the diagonal.
    Banded,
    /// Power-law row degrees (graphs, circuits, social networks).
    PowerLaw,
    /// Dense blocks on the diagonal (multiphysics coupling).
    Block,
}

/// One entry of the Table 4 inventory.
#[derive(Debug, Clone, Copy)]
pub struct TensorSpec {
    /// Paper name of the tensor.
    pub name: &'static str,
    /// Dimension sizes (unused trailing dims are 0).
    pub dims: [usize; 4],
    /// Number of tensor modes (2, 3 or 4).
    pub order: usize,
    /// Paper nonzero count.
    pub nnz: usize,
    /// Structural family used for the synthetic stand-in.
    pub family: Family,
    /// Paper-reported dataset of origin (SS / FB / FT / Rand).
    pub dataset: &'static str,
}

/// The full Table 4 inventory.
pub fn paper_tensors() -> Vec<TensorSpec> {
    use Family::*;
    let t = |name, dims, order, nnz, family, dataset| TensorSpec {
        name,
        dims,
        order,
        nnz,
        family,
        dataset,
    };
    vec![
        t(
            "ACTIVSg10K",
            [20_000, 20_000, 0, 0],
            2,
            135_888,
            PowerLaw,
            "SS",
        ),
        t(
            "email-Enron",
            [36_692, 36_692, 0, 0],
            2,
            367_662,
            PowerLaw,
            "SS",
        ),
        t(
            "Goodwin_040",
            [17_922, 17_922, 0, 0],
            2,
            561_677,
            Banded,
            "SS",
        ),
        t(
            "scircuit",
            [170_998, 170_998, 0, 0],
            2,
            958_936,
            PowerLaw,
            "SS",
        ),
        t(
            "filter3D",
            [106_437, 106_437, 0, 0],
            2,
            2_707_179,
            Banded,
            "SS",
        ),
        t(
            "laminar_duct3D",
            [67_173, 67_173, 0, 0],
            2,
            3_788_857,
            Banded,
            "SS",
        ),
        t(
            "cage12",
            [130_228, 130_228, 0, 0],
            2,
            2_032_536,
            Banded,
            "SS",
        ),
        t("smt", [25_710, 25_710, 0, 0], 2, 3_749_582, Block, "SS"),
        t(
            "random2",
            [10_000, 10_000, 0, 0],
            2,
            5_000_000,
            Uniform,
            "Rand",
        ),
        t(
            "random1",
            [1000, 500, 100, 0],
            3,
            5_000_000,
            Uniform,
            "Rand",
        ),
        t(
            "facebook",
            [1504, 42_390, 39_986, 0],
            3,
            737_934,
            PowerLaw,
            "FB",
        ),
        t("uber", [183, 24, 1140, 1717], 4, 3_309_490, Uniform, "FT"),
        t(
            "nips",
            [2482, 2482, 14_036, 17],
            4,
            3_101_609,
            PowerLaw,
            "FT",
        ),
        t("chicago", [6186, 24, 77, 32], 4, 5_330_673, Uniform, "FT"),
        t("uber3", [183, 1140, 1717, 0], 3, 1_117_629, Uniform, "FT*"),
    ]
}

/// Tensors used by the paper outside Table 4 (the Fig. 8/9 ablations use
/// SuiteSparse's `amazon0312`).
pub fn extra_tensors() -> Vec<TensorSpec> {
    vec![TensorSpec {
        name: "amazon0312",
        dims: [400_727, 400_727, 0, 0],
        order: 2,
        nnz: 3_200_440,
        family: Family::PowerLaw,
        dataset: "SS",
    }]
}

/// Looks up a [`TensorSpec`] by paper name (Table 4 plus the extras).
///
/// # Panics
/// Panics if the name is unknown.
pub fn spec(name: &str) -> TensorSpec {
    paper_tensors()
        .into_iter()
        .chain(extra_tensors())
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("unknown tensor `{name}`"))
}

fn seed_for(name: &str) -> u64 {
    // FNV-1a for deterministic per-name seeds.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn scaled_dim(d: usize, scale: f64) -> usize {
    ((d as f64 * scale.sqrt()).round() as usize).max(8)
}

fn scaled_nnz(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(64)
}

/// Generates the synthetic matrix for a 2nd-order spec, scaled so that
/// `nnz ≈ spec.nnz × scale` (dimensions scale by `√scale` to keep density).
///
/// # Panics
/// Panics if the spec is not 2nd-order.
pub fn matrix(spec: &TensorSpec, scale: f64) -> CsrMatrix {
    assert_eq!(spec.order, 2, "matrix() needs a 2nd-order spec");
    let nrows = scaled_dim(spec.dims[0], scale);
    let ncols = scaled_dim(spec.dims[1], scale);
    let nnz = scaled_nnz(spec.nnz, scale).min(nrows * ncols / 2);
    let mut rng = StdRng::seed_from_u64(seed_for(spec.name));
    let mut triplets = Vec::with_capacity(nnz);
    match spec.family {
        Family::Uniform => {
            for _ in 0..nnz {
                triplets.push((
                    rng.gen_range(0..nrows as u32),
                    rng.gen_range(0..ncols as u32),
                    rng.gen_range(0.1..1.0),
                ));
            }
        }
        Family::Banded => {
            let band = ((nnz as f64 / nrows as f64).ceil() as i64 * 2).max(3);
            for _ in 0..nnz {
                let i = rng.gen_range(0..nrows as i64);
                let off = rng.gen_range(-band..=band);
                let j = (i * ncols as i64 / nrows as i64 + off).clamp(0, ncols as i64 - 1);
                triplets.push((i as u32, j as u32, rng.gen_range(0.1..1.0)));
            }
        }
        Family::PowerLaw => {
            // Zipf-ish row degrees: row i gets weight ∝ 1/(i+1)^0.9 after a
            // random shuffle of row identities.
            let mut perm: Vec<u32> = (0..nrows as u32).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            let weights: Vec<f64> = (0..nrows)
                .map(|i| 1.0 / (i as f64 + 1.0).powf(0.9))
                .collect();
            let total: f64 = weights.iter().sum();
            let mut cum = 0.0;
            let mut acc: Vec<f64> = Vec::with_capacity(nrows);
            for w in &weights {
                cum += w / total;
                acc.push(cum);
            }
            for _ in 0..nnz {
                let u: f64 = rng.gen();
                let idx = acc.partition_point(|&c| c < u).min(nrows - 1);
                let i = perm[idx];
                let j = rng.gen_range(0..ncols as u32);
                triplets.push((i, j, rng.gen_range(0.1..1.0)));
            }
        }
        Family::Block => {
            let bs = 16usize.min(nrows).max(1);
            let nblocks = nrows / bs;
            for _ in 0..nnz {
                let b = rng.gen_range(0..nblocks.max(1)) as u32;
                let i = b * bs as u32 + rng.gen_range(0..bs as u32);
                let j = (b as usize * bs + rng.gen_range(0..bs)).min(ncols - 1) as u32;
                triplets.push((i.min(nrows as u32 - 1), j, rng.gen_range(0.1..1.0)));
            }
        }
    }
    CsrMatrix::from_triplets(nrows, ncols, triplets)
}

/// Generates the synthetic 3rd-order tensor for a spec.
///
/// # Panics
/// Panics if the spec is not 3rd-order.
pub fn tensor3(spec: &TensorSpec, scale: f64) -> CooTensor3 {
    assert_eq!(spec.order, 3, "tensor3() needs a 3rd-order spec");
    let dims = [
        scaled_dim(spec.dims[0], scale),
        scaled_dim(spec.dims[1], scale),
        scaled_dim(spec.dims[2], scale),
    ];
    let nnz = scaled_nnz(spec.nnz, scale);
    let mut rng = StdRng::seed_from_u64(seed_for(spec.name));
    let skew = matches!(spec.family, Family::PowerLaw);
    let mut entries = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let i = skewed_index(&mut rng, dims[0], skew);
        let j = rng.gen_range(0..dims[1] as u32);
        let k = rng.gen_range(0..dims[2] as u32);
        entries.push(([i, j, k], rng.gen_range(0.1..1.0)));
    }
    CooTensor3::from_coords(dims, entries)
}

/// Generates the synthetic 4th-order tensor for a spec.
///
/// # Panics
/// Panics if the spec is not 4th-order.
pub fn tensor4(spec: &TensorSpec, scale: f64) -> CooTensor4 {
    assert_eq!(spec.order, 4, "tensor4() needs a 4th-order spec");
    let dims = [
        scaled_dim(spec.dims[0], scale),
        scaled_dim(spec.dims[1], scale),
        scaled_dim(spec.dims[2], scale),
        scaled_dim(spec.dims[3], scale),
    ];
    let nnz = scaled_nnz(spec.nnz, scale);
    let mut rng = StdRng::seed_from_u64(seed_for(spec.name));
    let skew = matches!(spec.family, Family::PowerLaw);
    let mut entries = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let i = skewed_index(&mut rng, dims[0], skew);
        let j = rng.gen_range(0..dims[1] as u32);
        let k = rng.gen_range(0..dims[2] as u32);
        let l = rng.gen_range(0..dims[3] as u32);
        entries.push(([i, j, k, l], rng.gen_range(0.1..1.0)));
    }
    CooTensor4::from_coords(dims, entries)
}

fn skewed_index<R: Rng + ?Sized>(rng: &mut R, dim: usize, skew: bool) -> u32 {
    if skew {
        // Square a uniform draw: density concentrates at low indices.
        let u: f64 = rng.gen();
        ((u * u * dim as f64) as usize).min(dim - 1) as u32
    } else {
        rng.gen_range(0..dim as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_matches_table4_shape() {
        let all = paper_tensors();
        assert_eq!(all.len(), 15);
        assert_eq!(all.iter().filter(|t| t.order == 2).count(), 9);
        assert_eq!(all.iter().filter(|t| t.order == 3).count(), 3);
        assert_eq!(all.iter().filter(|t| t.order == 4).count(), 3);
        // Spot-check a few paper rows.
        let sc = spec("scircuit");
        assert_eq!(sc.dims[0], 170_998);
        assert_eq!(sc.nnz, 958_936);
        let uber = spec("uber");
        assert_eq!(uber.order, 4);
        assert_eq!(uber.dims, [183, 24, 1140, 1717]);
    }

    #[test]
    fn matrix_generation_is_deterministic_and_sized() {
        let s = spec("email-Enron");
        let a = matrix(&s, 0.02);
        let b = matrix(&s, 0.02);
        assert_eq!(a, b);
        let target = (s.nnz as f64 * 0.02) as usize;
        // Duplicate collapsing loses a little; stay within 25 %.
        assert!(
            a.nnz() > target * 3 / 4,
            "nnz {} vs target {target}",
            a.nnz()
        );
        assert!(a.nrows > 0 && a.ncols > 0);
    }

    #[test]
    fn power_law_rows_are_skewed() {
        let a = matrix(&spec("scircuit"), 0.02);
        let mut degrees: Vec<usize> = (0..a.nrows)
            .map(|i| a.row_ptr[i + 1] - a.row_ptr[i])
            .collect();
        degrees.sort_unstable_by(|x, y| y.cmp(x));
        let top = degrees.iter().take(a.nrows / 100 + 1).sum::<usize>();
        // Top 1 % of rows should hold well above 1 % of nonzeros.
        assert!(
            top as f64 > 0.05 * a.nnz() as f64,
            "top-1% rows hold only {top}/{}",
            a.nnz()
        );
    }

    #[test]
    fn banded_stays_near_diagonal() {
        let a = matrix(&spec("cage12"), 0.01);
        for i in 0..a.nrows {
            let (cols, _) = a.row(i);
            for &c in cols {
                let center = i as i64 * a.ncols as i64 / a.nrows as i64;
                assert!((c as i64 - center).abs() < 2000, "row {i} col {c}");
            }
        }
    }

    #[test]
    fn tensors_generate() {
        let t3 = tensor3(&spec("facebook"), 0.01);
        assert!(t3.nnz() > 1000);
        let t4 = tensor4(&spec("uber"), 0.01);
        assert!(t4.nnz() > 1000);
        // Sorted lexicographically.
        assert!(t3.coords.windows(2).all(|w| w[0] <= w[1]));
        assert!(t4.coords.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "unknown tensor")]
    fn unknown_spec_panics() {
        spec("nonexistent");
    }
}
