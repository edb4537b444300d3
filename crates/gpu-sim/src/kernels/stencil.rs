//! 2-D 5-point stencil (`Stencil_GPU`, after Stoltzfus et al. 2019): a small
//! 4-parameter space with shared-memory tile reuse and known constraints.

use super::ord;
use crate::device::{config_jitter, k80, run_noise};
use baco::{Configuration, ParamValue, SearchSpace};

/// Grid side length.
pub const SIZE: usize = 4096;

/// The Stencil_GPU search space (4 parameters).
pub fn space() -> SearchSpace {
    let po2 = |lo: u32, hi: u32| -> Vec<f64> { (lo..=hi).map(|e| (1u64 << e) as f64).collect() };
    SearchSpace::builder()
        .ordinal_log("wg_x", po2(3, 8))
        .ordinal_log("wg_y", po2(0, 5))
        .ordinal_log("tile", po2(0, 5)) // outputs per thread
        .ordinal_log("vec", po2(0, 2))
        .known_constraint("wg_x * wg_y <= 1024")
        .known_constraint("tile % vec == 0")
        // The staged shared tile must fit in 48 KiB (12288 floats).
        .known_constraint("(wg_x * vec + 2) * (wg_y * tile + 2) <= 12288")
        .build()
        .expect("valid Stencil space")
}

/// Predicted time in milliseconds (K-only benchmark; never fails).
pub fn evaluate(cfg: &Configuration) -> Option<f64> {
    let d = k80();
    let (wx, wy) = (ord(cfg, "wg_x"), ord(cfg, "wg_y"));
    let (tile, vec) = (ord(cfg, "tile"), ord(cfg, "vec"));

    // Shared tile: (wx·vec + 2) × (wy·tile + 2) floats.
    let shared = (wx * vec + 2) * (wy * tile + 2) * 4;
    let occ = d.occupancy(wx * wy, 18 + 2 * vec + tile, shared)?;
    let pixels = (SIZE * SIZE) as f64;
    let flops = pixels * 6.0;
    let ilp = 0.4 + 0.6 * ((tile * vec) as f64 / 8.0).min(1.0);
    let t_compute = d.compute_time(flops, occ, ilp);
    // Shared-memory reuse cuts global reads by the tile's interior/halo
    // ratio; tiny tiles approach 5 reads per output.
    let interior = (wx * vec * wy * tile) as f64;
    let with_halo = ((wx * vec + 2) * (wy * tile + 2)) as f64;
    let reads_per_pixel = (with_halo / interior).clamp(1.0, 5.0);
    let bytes = pixels * 4.0 * (reads_per_pixel + 1.0);
    let t_mem = d.mem_time(bytes, d.coalescing(1, vec) * (0.4 + 0.6 * occ));
    let t = t_compute.max(t_mem) + d.launch_overhead;
    Some(t * 1e3 * config_jitter(cfg, 0.05) * run_noise(0.015))
}

/// Untuned default.
pub fn default_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("wg_x", ParamValue::Ordinal(8.0)),
            ("wg_y", ParamValue::Ordinal(1.0)),
            ("tile", ParamValue::Ordinal(1.0)),
            ("vec", ParamValue::Ordinal(1.0)),
        ])
        .expect("valid default")
}

/// Expert configuration.
pub fn expert_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("wg_x", ParamValue::Ordinal(64.0)),
            ("wg_y", ParamValue::Ordinal(16.0)),
            ("tile", ParamValue::Ordinal(8.0)),
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
    fn space_is_small() {
        let s = space();
        assert!(s.dense_size().unwrap() < 2e4);
    }

    #[test]
    fn all_feasible_configs_evaluate() {
        let s = space();
        let cot = baco::cot::ChainOfTrees::build(&s).unwrap();
        let all = cot.enumerate(100_000).unwrap();
        for c in all {
            // K-only benchmark: occupancy failures would be hidden
            // constraints, which Table 3 says Stencil does not have.
            assert!(evaluate(&c).is_some(), "{c}");
        }
    }
}
