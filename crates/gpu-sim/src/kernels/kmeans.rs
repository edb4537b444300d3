//! K-means assignment step (`K-means_GPU`, after Steuwer et al. 2017): a
//! small 4-parameter space (1.4×10⁴ dense configurations in the paper) with
//! a cover known-constraint and a hidden per-thread memory failure.

use super::ord;
use crate::device::{config_jitter, k80, run_noise};
use baco::{Configuration, ParamValue, SearchSpace};

/// Number of points.
pub const POINTS: usize = 1 << 20;
/// Number of clusters.
pub const CLUSTERS: usize = 10;
/// Feature dimensions.
pub const DIMS: usize = 34;

/// The K-means_GPU search space (4 parameters).
pub fn space() -> SearchSpace {
    let po2 = |lo: u32, hi: u32| -> Vec<f64> { (lo..=hi).map(|e| (1u64 << e) as f64).collect() };
    SearchSpace::builder()
        .ordinal_log("wg", po2(5, 10))
        .ordinal_log("pts_per_thread", po2(0, 6))
        .ordinal("cluster_tile", vec![1.0, 2.0, 5.0, 10.0])
        .ordinal_log("vec", po2(0, 2))
        // Grid covers the points without excess idle threads.
        .known_constraint("wg * pts_per_thread <= 65536")
        .known_constraint("pts_per_thread % vec == 0")
        .build()
        .expect("valid K-means space")
}

/// Predicted time in milliseconds, or `None` when the per-thread cluster
/// cache exceeds local memory (hidden).
pub fn evaluate(cfg: &Configuration) -> Option<f64> {
    let d = k80();
    let wg = ord(cfg, "wg");
    let ppt = ord(cfg, "pts_per_thread");
    let ct = ord(cfg, "cluster_tile");
    let vec = ord(cfg, "vec");

    // Hidden: the private cluster tile (ct × DIMS floats) spills beyond the
    // register file for big tiles on big workgroups.
    let regs = 12 + ct * 8 + vec * 4;
    if regs * wg > d.registers_per_sm / 2 {
        return None;
    }
    let occ = d.occupancy(wg, regs, ct * DIMS * 4 * 8)?;
    let flops = (POINTS * CLUSTERS * DIMS * 3) as f64;
    let ilp = 0.4 + 0.6 * ((ppt * vec) as f64 / 16.0).min(1.0);
    let t_compute = d.compute_time(flops, occ, ilp);
    // Points streamed once; centroids re-read per cluster-tile pass.
    let passes = (CLUSTERS as f64 / ct as f64).ceil();
    let bytes = (POINTS * DIMS * 4) as f64 * passes;
    let t_mem = d.mem_time(bytes, d.coalescing(1, vec) * (0.4 + 0.6 * occ));
    let t = t_compute.max(t_mem) + d.launch_overhead;
    Some(t * 1e3 * config_jitter(cfg, 0.05) * run_noise(0.015))
}

/// Untuned default.
pub fn default_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("wg", ParamValue::Ordinal(32.0)),
            ("pts_per_thread", ParamValue::Ordinal(1.0)),
            ("cluster_tile", ParamValue::Ordinal(1.0)),
            ("vec", ParamValue::Ordinal(1.0)),
        ])
        .expect("valid default")
}

/// Expert configuration.
pub fn expert_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("wg", ParamValue::Ordinal(256.0)),
            ("pts_per_thread", ParamValue::Ordinal(32.0)),
            ("cluster_tile", ParamValue::Ordinal(10.0)),
            ("vec", ParamValue::Ordinal(1.0)),
        ])
        .expect("valid expert")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expert_beats_default() {
        let s = space();
        let d = evaluate(&default_config(&s)).unwrap();
        let e = evaluate(&expert_config(&s)).unwrap();
        assert!(e < d, "expert {e} vs default {d}");
    }

    #[test]
    fn space_is_small_like_the_paper() {
        let s = space();
        assert!(s.dense_size().unwrap() < 2e4);
    }
}
