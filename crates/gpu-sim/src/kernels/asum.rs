//! Absolute-sum reduction (`Asum_GPU`, from Steuwer et al. 2015): a
//! memory-bound two-phase reduction whose 5 ordinal parameters must *cover*
//! the input exactly — the cover equation is the known constraint that makes
//! this space sparse.

use super::ord;
use crate::device::{config_jitter, k80, run_noise};
use baco::{Configuration, ParamValue, SearchSpace};

/// Input length (2²⁴ floats).
pub const N: usize = 1 << 24;

/// The Asum_GPU search space (5 ordinal parameters, known constraints only).
pub fn space() -> SearchSpace {
    let po2 = |lo: u32, hi: u32| -> Vec<f64> { (lo..=hi).map(|e| (1u64 << e) as f64).collect() };
    SearchSpace::builder()
        .ordinal_log("wg", po2(5, 10)) // workgroup 32..1024
        .ordinal_log("num_wgs", po2(4, 13)) // workgroups 16..8192
        .ordinal_log("elems", po2(0, 10)) // sequential elems/thread
        .ordinal_log("vec", po2(0, 3))
        .ordinal_log("stride", po2(0, 5)) // access stride between threads
        // The grid must cover the input exactly (RISE collects this from the
        // split sizes): wg × num_wgs × elems × vec == N.
        .known_constraint("wg * num_wgs * elems * vec == 16777216")
        .build()
        .expect("valid Asum space")
}

/// Predicted time in milliseconds (never fails: K-only benchmark).
pub fn evaluate(cfg: &Configuration) -> Option<f64> {
    let d = k80();
    let (wg, num_wgs) = (ord(cfg, "wg"), ord(cfg, "num_wgs"));
    let (elems, vec, stride) = (ord(cfg, "elems"), ord(cfg, "vec"), ord(cfg, "stride"));

    let occ = d.occupancy(wg, 16 + 2 * vec, wg * 4)?;
    let coal = d.coalescing(stride, vec);
    let bytes = (N * 4) as f64;
    let t_read = d.mem_time(bytes, coal * (0.4 + 0.6 * occ));
    // Tree reduction inside the workgroup: log2(wg) barrier steps.
    let barrier =
        (wg as f64).log2() * 40e-9 * (N as f64 / (wg * elems * vec) as f64) / num_wgs as f64;
    // Grid quantization across SMs.
    let waves = (num_wgs as f64 / d.sm_count as f64).ceil()
        / (num_wgs as f64 / d.sm_count as f64).max(1e-9);
    // Second-phase reduction of num_wgs partials on the host.
    let t_final = num_wgs as f64 * 1.2e-9 + d.launch_overhead;
    let t = t_read * waves + barrier + t_final + d.launch_overhead;
    Some(t * 1e3 * config_jitter(cfg, 0.05) * run_noise(0.015))
}

/// Untuned default: one element per thread, scalar loads.
pub fn default_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("wg", ParamValue::Ordinal(1024.0)),
            ("num_wgs", ParamValue::Ordinal(8192.0)),
            ("elems", ParamValue::Ordinal(2.0)),
            ("vec", ParamValue::Ordinal(1.0)),
            ("stride", ParamValue::Ordinal(32.0)),
        ])
        .expect("valid default")
}

/// Expert: coalesced vectorized grid-stride loop.
pub fn expert_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("wg", ParamValue::Ordinal(1024.0)),
            ("num_wgs", ParamValue::Ordinal(1024.0)),
            ("elems", ParamValue::Ordinal(4.0)),
            ("vec", ParamValue::Ordinal(4.0)),
            ("stride", ParamValue::Ordinal(1.0)),
        ])
        .expect("valid expert")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_constraint_holds_for_references() {
        let s = space();
        for c in [default_config(&s), expert_config(&s)] {
            assert!(s.satisfies_known(&c).unwrap(), "{c}");
            let prod = ord(&c, "wg") * ord(&c, "num_wgs") * ord(&c, "elems") * ord(&c, "vec");
            assert_eq!(prod, N);
        }
    }

    #[test]
    fn expert_beats_default() {
        let s = space();
        let d = evaluate(&default_config(&s)).unwrap();
        let e = evaluate(&expert_config(&s)).unwrap();
        assert!(e < d, "expert {e} vs default {d}");
    }

    #[test]
    fn space_is_very_sparse() {
        let s = space();
        let cot = baco::cot::ChainOfTrees::build(&s).unwrap();
        let dense = s.dense_size().unwrap();
        assert!(cot.feasible_size() < dense / 10.0);
        assert!(cot.feasible_size() >= 50.0);
    }
}
