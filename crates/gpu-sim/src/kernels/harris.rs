//! Harris corner detection (`Harris_GPU`, after Koehler & Steuwer 2021): a
//! fused image pipeline (gradients → products → blur → response) over a
//! Full-HD frame, with 2-D tiling, vectorization and a per-stage fusion
//! level. Known constraints only.

use super::ord;
use crate::device::{config_jitter, k80, run_noise};
use baco::{Configuration, ParamValue, SearchSpace};

/// Image width.
pub const WIDTH: usize = 1920;
/// Image height.
pub const HEIGHT: usize = 1080;

/// The Harris_GPU search space (7 parameters).
pub fn space() -> SearchSpace {
    let po2 = |lo: u32, hi: u32| -> Vec<f64> { (lo..=hi).map(|e| (1u64 << e) as f64).collect() };
    SearchSpace::builder()
        .ordinal_log("tile_x", po2(3, 8)) // 8..256 pixels
        .ordinal_log("tile_y", po2(0, 6)) // 1..64 rows
        .ordinal_log("wg_x", po2(3, 8))
        .ordinal_log("wg_y", po2(0, 5))
        .ordinal_log("vec", po2(0, 3))
        .ordinal("fusion", vec![0.0, 1.0, 2.0, 3.0]) // stages fused
        .ordinal_log("lines_per_thread", po2(0, 4))
        .known_constraint("wg_x * wg_y <= 1024")
        .known_constraint("tile_x % (wg_x * vec) == 0")
        .known_constraint("tile_y % wg_y == 0")
        // Shared-memory staging of the tile plus halo fits in 48 KiB.
        .known_constraint("(tile_x + 4) * (tile_y + 4) <= 12288")
        .build()
        .expect("valid Harris space")
}

/// Predicted time in milliseconds (K-only benchmark; never fails).
pub fn evaluate(cfg: &Configuration) -> Option<f64> {
    let d = k80();
    let (tx, ty) = (ord(cfg, "tile_x"), ord(cfg, "tile_y"));
    let (wx, wy) = (ord(cfg, "wg_x"), ord(cfg, "wg_y"));
    let vec = ord(cfg, "vec");
    let fusion = ord(cfg, "fusion");
    let lpt = ord(cfg, "lines_per_thread");

    let occ = d.occupancy(wx * wy, 24 + 4 * vec + 2 * lpt, (tx + 4) * (ty + 4) * 4)?;

    // 4 pipeline stages; fusing removes intermediate global traffic.
    let stages = 4.0;
    let unfused = stages - fusion as f64;
    let pixels = (WIDTH * HEIGHT) as f64;
    let flops = pixels * 60.0; // ~60 flops/pixel over the pipeline
    let ilp = 0.4 + 0.6 * ((vec * lpt) as f64 / 8.0).min(1.0);
    let t_compute = d.compute_time(flops, occ, ilp);

    // Halo overhead: small tiles re-read their 2-pixel border.
    let halo = ((tx + 4) * (ty + 4)) as f64 / (tx * ty) as f64;
    let bytes = pixels * 4.0 * (1.0 + unfused * 2.0) * halo;
    let t_mem = d.mem_time(bytes, d.coalescing(1, vec) * (0.4 + 0.6 * occ));
    // Fusing everything raises register pressure and serializes stages a bit.
    let fusion_cost = 1.0 + 0.06 * fusion as f64 * (vec as f64 / 4.0);
    let t = t_compute.max(t_mem) * fusion_cost + d.launch_overhead * (unfused + 1.0);
    Some(t * 1e3 * config_jitter(cfg, 0.05) * run_noise(0.015))
}

/// Untuned default.
pub fn default_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("tile_x", ParamValue::Ordinal(8.0)),
            ("tile_y", ParamValue::Ordinal(1.0)),
            ("wg_x", ParamValue::Ordinal(8.0)),
            ("wg_y", ParamValue::Ordinal(1.0)),
            ("vec", ParamValue::Ordinal(1.0)),
            ("fusion", ParamValue::Ordinal(0.0)),
            ("lines_per_thread", ParamValue::Ordinal(1.0)),
        ])
        .expect("valid default")
}

/// Expert (the mobile-GPU schedule of the original paper, adapted).
pub fn expert_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("tile_x", ParamValue::Ordinal(128.0)),
            ("tile_y", ParamValue::Ordinal(64.0)),
            ("wg_x", ParamValue::Ordinal(64.0)),
            ("wg_y", ParamValue::Ordinal(16.0)),
            ("vec", ParamValue::Ordinal(1.0)),
            ("fusion", ParamValue::Ordinal(3.0)),
            ("lines_per_thread", ParamValue::Ordinal(2.0)),
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
        assert!(e < d / 1.5, "expert {e} vs default {d}");
    }

    #[test]
    fn fusion_reduces_memory_time() {
        let s = space();
        let mk = |fusion: f64| {
            s.configuration(&[
                ("tile_x", ParamValue::Ordinal(64.0)),
                ("tile_y", ParamValue::Ordinal(8.0)),
                ("wg_x", ParamValue::Ordinal(16.0)),
                ("wg_y", ParamValue::Ordinal(4.0)),
                ("vec", ParamValue::Ordinal(1.0)),
                ("fusion", ParamValue::Ordinal(fusion)),
                ("lines_per_thread", ParamValue::Ordinal(1.0)),
            ])
            .unwrap()
        };
        let none = evaluate(&mk(0.0)).unwrap();
        let full = evaluate(&mk(3.0)).unwrap();
        assert!(full < none, "fused {full} vs unfused {none}");
    }
}
