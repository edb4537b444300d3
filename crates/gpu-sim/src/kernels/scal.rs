//! Vector scaling (`Scal_GPU`, from Steuwer et al. 2015): a streaming kernel
//! with 7 ordinal parameters, a cover known-constraint, and hidden register
//! pressure failures.

use super::ord;
use crate::device::{config_jitter, k80, run_noise};
use baco::{Configuration, ParamValue, SearchSpace};

/// Input length (2²³ floats).
pub const N: usize = 1 << 23;

/// The Scal_GPU search space (7 ordinal parameters).
pub fn space() -> SearchSpace {
    let po2 = |lo: u32, hi: u32| -> Vec<f64> { (lo..=hi).map(|e| (1u64 << e) as f64).collect() };
    SearchSpace::builder()
        .ordinal_log("wg", po2(5, 10))
        .ordinal_log("num_wgs", po2(4, 12))
        .ordinal_log("elems", po2(0, 8))
        .ordinal_log("vec", po2(0, 3))
        .ordinal_log("unroll", po2(0, 3))
        .ordinal_log("stride", po2(0, 5))
        .ordinal_log("prefetch", po2(0, 2))
        .known_constraint("wg * num_wgs * elems * vec == 8388608")
        .known_constraint("elems % unroll == 0")
        .build()
        .expect("valid Scal space")
}

/// Predicted time in milliseconds, or `None` on hidden register-pressure
/// failure.
pub fn evaluate(cfg: &Configuration) -> Option<f64> {
    let d = k80();
    let (wg, num_wgs) = (ord(cfg, "wg"), ord(cfg, "num_wgs"));
    let (vec, unroll) = (ord(cfg, "vec"), ord(cfg, "unroll"));
    let (stride, prefetch) = (ord(cfg, "stride"), ord(cfg, "prefetch"));

    // Hidden: unrolled vectorized body with prefetch buffers blows the
    // register budget; the OpenCL compiler fails the build.
    let regs = 10 + vec * unroll * (1 + prefetch);
    if regs > 64 {
        return None;
    }
    let occ = d.occupancy(wg, regs, 0)?;
    let coal = d.coalescing(stride, vec);
    // Read + write.
    let bytes = 2.0 * (N * 4) as f64;
    let eff = coal * (0.4 + 0.6 * occ) * (1.0 - 0.15 / (unroll + prefetch) as f64);
    let t_stream = d.mem_time(bytes, eff);
    let waves = (num_wgs as f64 / d.sm_count as f64).ceil()
        / (num_wgs as f64 / d.sm_count as f64).max(1e-9);
    let t = t_stream * waves + d.launch_overhead;
    Some(t * 1e3 * config_jitter(cfg, 0.05) * run_noise(0.015))
}

/// Untuned default.
pub fn default_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("wg", ParamValue::Ordinal(1024.0)),
            ("num_wgs", ParamValue::Ordinal(4096.0)),
            ("elems", ParamValue::Ordinal(2.0)),
            ("vec", ParamValue::Ordinal(1.0)),
            ("unroll", ParamValue::Ordinal(1.0)),
            ("stride", ParamValue::Ordinal(32.0)),
            ("prefetch", ParamValue::Ordinal(1.0)),
        ])
        .expect("valid default")
}

/// Expert: coalesced vectorized streaming with moderate unroll.
pub fn expert_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("wg", ParamValue::Ordinal(64.0)),
            ("num_wgs", ParamValue::Ordinal(1024.0)),
            ("elems", ParamValue::Ordinal(64.0)),
            ("vec", ParamValue::Ordinal(2.0)),
            ("unroll", ParamValue::Ordinal(4.0)),
            ("stride", ParamValue::Ordinal(1.0)),
            ("prefetch", ParamValue::Ordinal(4.0)),
        ])
        .expect("valid expert")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_are_feasible_and_ordered() {
        let s = space();
        let d = evaluate(&default_config(&s)).unwrap();
        let e = evaluate(&expert_config(&s)).unwrap();
        assert!(e < d, "expert {e} vs default {d}");
    }

    #[test]
    fn hidden_register_failures_exist_in_feasible_set() {
        let s = space();
        let bad = s
            .configuration(&[
                ("wg", ParamValue::Ordinal(32.0)),
                ("num_wgs", ParamValue::Ordinal(2048.0)),
                ("elems", ParamValue::Ordinal(16.0)),
                ("vec", ParamValue::Ordinal(8.0)),
                ("unroll", ParamValue::Ordinal(8.0)),
                ("stride", ParamValue::Ordinal(1.0)),
                ("prefetch", ParamValue::Ordinal(4.0)),
            ])
            .unwrap();
        assert!(s.satisfies_known(&bad).unwrap());
        assert!(evaluate(&bad).is_none());
    }
}
