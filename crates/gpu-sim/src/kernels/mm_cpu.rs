//! Dense matrix multiply on the CPU (`MM_CPU`, from Hagedorn et al.): loop
//! tiling, vectorization and unrolling over a cache-hierarchy model. Hidden
//! constraint: the vectorizer rejects register-tile shapes whose footprint
//! exceeds the architectural vector register file.

use super::ord;
use crate::device::{config_jitter, run_noise};
use baco::{Configuration, ParamValue, SearchSpace};

/// Problem size (square).
pub const SIZE: usize = 1024;

const CPU_GFLOPS: f64 = 60.0; // 8 cores × ~7.5 GFLOP/s effective
const L1_BYTES: f64 = 32.0 * 1024.0;
const L2_BYTES: f64 = 256.0 * 1024.0;
const DRAM_GBPS: f64 = 35.0;

/// The MM_CPU search space (5 parameters).
pub fn space() -> SearchSpace {
    let po2 = |lo: u32, hi: u32| -> Vec<f64> { (lo..=hi).map(|e| (1u64 << e) as f64).collect() };
    SearchSpace::builder()
        .ordinal_log("ti", po2(2, 9)) // i tile 4..512
        .ordinal_log("tj", po2(2, 9))
        .ordinal_log("tk", po2(2, 9))
        .ordinal_log("vec", po2(0, 3))
        .ordinal_log("unroll", po2(0, 3))
        .known_constraint("tj % vec == 0")
        .known_constraint("tk % unroll == 0")
        .build()
        .expect("valid MM_CPU space")
}

/// Predicted time in milliseconds, or `None` on a vectorizer failure
/// (hidden constraint).
pub fn evaluate(cfg: &Configuration) -> Option<f64> {
    let (ti, tj, tk) = (ord(cfg, "ti"), ord(cfg, "tj"), ord(cfg, "tk"));
    let (vec, unroll) = (ord(cfg, "vec"), ord(cfg, "unroll"));

    // Hidden: the register tile (vec × unroll accumulators) must fit the
    // 16-register AVX file; the compiler bails out otherwise.
    if vec * unroll > 32 {
        return None;
    }

    let n = SIZE as f64;
    let flops = 2.0 * n * n * n;
    // Vector & unroll efficiency.
    let vec_eff = match vec {
        1 => 0.25,
        2 => 0.45,
        4 => 0.85,
        _ => 1.0,
    };
    let unroll_eff = 1.0 - 0.35 / unroll as f64;
    // Cache behaviour of the (ti × tk) and (tk × tj) working set.
    let ws = ((ti * tk + tk * tj + ti * tj) * 8) as f64;
    let cache_eff = if ws <= L1_BYTES {
        1.0
    } else if ws <= L2_BYTES {
        0.8
    } else {
        0.45
    };
    // Tiny tiles drown in loop overhead.
    let overhead = 1.0 + 24.0 / (ti * tj) as f64 + 4.0 / tk as f64;
    let t_compute = flops / (CPU_GFLOPS * 1e9 * vec_eff * unroll_eff * cache_eff) * overhead;
    // DRAM traffic with tile reuse.
    let bytes = 8.0 * (n * n * (n / tj as f64) + n * n * (n / ti as f64) + n * n);
    let t_mem = bytes / (DRAM_GBPS * 1e9);
    let t = t_compute.max(t_mem);
    Some(t * 1e3 * config_jitter(cfg, 0.05) * run_noise(0.015))
}

/// Untuned default.
pub fn default_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("ti", ParamValue::Ordinal(4.0)),
            ("tj", ParamValue::Ordinal(4.0)),
            ("tk", ParamValue::Ordinal(4.0)),
            ("vec", ParamValue::Ordinal(1.0)),
            ("unroll", ParamValue::Ordinal(1.0)),
        ])
        .expect("valid default")
}

/// Expert (Hagedorn et al.'s blocked schedule, adapted to this model).
pub fn expert_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("ti", ParamValue::Ordinal(32.0)),
            ("tj", ParamValue::Ordinal(16.0)),
            ("tk", ParamValue::Ordinal(64.0)),
            ("vec", ParamValue::Ordinal(8.0)),
            ("unroll", ParamValue::Ordinal(4.0)),
        ])
        .expect("valid expert")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expert_beats_default_substantially() {
        let s = space();
        let d = evaluate(&default_config(&s)).unwrap();
        let e = evaluate(&expert_config(&s)).unwrap();
        assert!(e < d / 3.0, "expert {e} vs default {d}");
    }

    #[test]
    fn hidden_failure_on_register_blowup() {
        let s = space();
        let bad = s
            .configuration(&[
                ("ti", ParamValue::Ordinal(32.0)),
                ("tj", ParamValue::Ordinal(64.0)),
                ("tk", ParamValue::Ordinal(32.0)),
                ("vec", ParamValue::Ordinal(8.0)),
                ("unroll", ParamValue::Ordinal(8.0)),
            ])
            .unwrap();
        assert!(evaluate(&bad).is_none());
    }

    #[test]
    fn known_constraints_prune() {
        let s = space();
        let cot = baco::cot::ChainOfTrees::build(&s).unwrap();
        assert!(cot.feasible_size() < s.dense_size().unwrap());
    }
}
