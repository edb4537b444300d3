//! Dense matrix multiply on the GPU (`MM_GPU`): the paper's largest space
//! (10 ordinal parameters, 1.1×10¹¹ dense configurations, tight known
//! constraints tying workgroup shape to tile shape, and hidden shared-memory
//! and register limits).

use super::ord;
use crate::device::{config_jitter, k80, run_noise};
use baco::{Configuration, ParamValue, SearchSpace};

/// Problem size: C(M,N) = A(M,K) × B(K,N).
pub const M: usize = 1024;
/// See [`M`].
pub const N: usize = 1024;
/// See [`M`].
pub const K: usize = 1024;

/// The MM_GPU search space (10 ordinal parameters).
pub fn space() -> SearchSpace {
    let po2 = |lo: u32, hi: u32| -> Vec<f64> { (lo..=hi).map(|e| (1u64 << e) as f64).collect() };
    SearchSpace::builder()
        .ordinal_log("m_wg", po2(4, 8)) // workgroup tile rows 16..256
        .ordinal_log("n_wg", po2(4, 8)) // workgroup tile cols
        .ordinal_log("k_tile", po2(2, 6)) // shared-memory k strip 4..64
        .ordinal_log("m_th", po2(0, 4)) // per-thread tile rows 1..16
        .ordinal_log("n_th", po2(0, 4)) // per-thread tile cols
        .ordinal_log("ls_x", po2(0, 8)) // workgroup threads x
        .ordinal_log("ls_y", po2(0, 8)) // workgroup threads y
        .ordinal_log("vec", po2(0, 3)) // vector width 1..8
        .ordinal_log("unroll", po2(0, 3)) // k unroll
        .ordinal_log("k_split", po2(0, 3)) // grid-level k split
        // RISE collects these from the rewritten expression: the workgroup
        // shape must exactly cover the tile with one thread per micro-tile.
        .known_constraint("ls_x * n_th == n_wg")
        .known_constraint("ls_y * m_th == m_wg")
        .known_constraint("ls_x * ls_y <= 1024")
        .known_constraint("m_wg % m_th == 0 && n_wg % n_th == 0")
        .build()
        .expect("valid MM_GPU space")
}

/// Evaluates a configuration: predicted kernel time in milliseconds, or
/// `None` when the build/launch fails (hidden constraints).
pub fn evaluate(cfg: &Configuration) -> Option<f64> {
    let d = k80();
    let (m_wg, n_wg, k_tile) = (ord(cfg, "m_wg"), ord(cfg, "n_wg"), ord(cfg, "k_tile"));
    let (m_th, n_th) = (ord(cfg, "m_th"), ord(cfg, "n_th"));
    let (ls_x, ls_y) = (ord(cfg, "ls_x"), ord(cfg, "ls_y"));
    let (vec, unroll, k_split) = (ord(cfg, "vec"), ord(cfg, "unroll"), ord(cfg, "k_split"));

    // Hidden constraint 1: shared-memory staging of the A and B strips.
    let shared = (m_wg * k_tile + k_tile * n_wg) * 4;
    // Hidden constraint 2: accumulator registers per thread.
    let regs = m_th * n_th * vec + m_th + n_th + 12;
    if regs > 255 {
        return None; // compiler refuses to build
    }
    let wg_threads = ls_x * ls_y;
    let occ = d.occupancy(wg_threads, regs, shared)?;

    let flops = 2.0 * M as f64 * N as f64 * K as f64;
    // ILP from the per-thread micro-tile and unrolling.
    let ilp = {
        let tile_ilp = ((m_th * n_th) as f64 / 8.0).min(1.0);
        let unroll_ilp = 1.0 - 0.3 / unroll as f64;
        (0.25 + 0.75 * tile_ilp) * unroll_ilp
    };
    let t_compute = d.compute_time(flops, occ, ilp);

    // Global traffic: A re-read N/n_wg times, B re-read M/m_wg times,
    // C written once per k-split partial.
    let bytes_a = (M * K * 4) as f64 * (N / n_wg) as f64;
    let bytes_b = (K * N * 4) as f64 * (M / m_wg) as f64;
    let bytes_c = (M * N * 4) as f64 * k_split as f64 * if k_split > 1 { 2.0 } else { 1.0 };
    let coal = d.coalescing(1, vec) * if n_th * vec > 16 { 0.8 } else { 1.0 };
    let t_mem = d.mem_time(bytes_a + bytes_b + bytes_c, coal * (0.5 + 0.5 * occ));

    // Grid-level balance: workgroups vs SMs (quantization).
    let wgs = (M / m_wg) * (N / n_wg) * k_split;
    let waves =
        (wgs as f64 / d.sm_count as f64).ceil() / (wgs as f64 / d.sm_count as f64).max(1e-9);
    let t = t_compute.max(t_mem) * waves + d.launch_overhead * k_split as f64;
    Some(t * 1e3 * config_jitter(cfg, 0.06) * run_noise(0.015))
}

/// RISE's untuned default schedule.
pub fn default_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("m_wg", ParamValue::Ordinal(16.0)),
            ("n_wg", ParamValue::Ordinal(16.0)),
            ("k_tile", ParamValue::Ordinal(4.0)),
            ("m_th", ParamValue::Ordinal(1.0)),
            ("n_th", ParamValue::Ordinal(1.0)),
            ("ls_x", ParamValue::Ordinal(16.0)),
            ("ls_y", ParamValue::Ordinal(16.0)),
            ("vec", ParamValue::Ordinal(1.0)),
            ("unroll", ParamValue::Ordinal(1.0)),
            ("k_split", ParamValue::Ordinal(1.0)),
        ])
        .expect("valid default")
}

/// The hand-tuned expert schedule (from the CLBlast-style tiling the paper's
/// experts used; recalibrated for this model — see `bench/bin/calibrate`).
pub fn expert_config(space: &SearchSpace) -> Configuration {
    space
        .configuration(&[
            ("m_wg", ParamValue::Ordinal(64.0)),
            ("n_wg", ParamValue::Ordinal(64.0)),
            ("k_tile", ParamValue::Ordinal(4.0)),
            ("m_th", ParamValue::Ordinal(8.0)),
            ("n_th", ParamValue::Ordinal(2.0)),
            ("ls_x", ParamValue::Ordinal(32.0)),
            ("ls_y", ParamValue::Ordinal(8.0)),
            ("vec", ParamValue::Ordinal(1.0)),
            ("unroll", ParamValue::Ordinal(8.0)),
            ("k_split", ParamValue::Ordinal(1.0)),
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
        assert!(e < d / 2.0, "expert {e} vs default {d}");
    }

    #[test]
    fn constraints_are_satisfiable_and_sparse() {
        let s = space();
        let cot = baco::cot::ChainOfTrees::build(&s).unwrap();
        let feasible = cot.feasible_size();
        let dense = s.dense_size().unwrap();
        assert!(feasible > 1000.0);
        assert!(feasible < dense / 50.0, "feasible {feasible} of {dense}");
    }

    #[test]
    fn hidden_constraints_fail_some_feasible_configs() {
        let s = space();
        let cot = baco::cot::ChainOfTrees::build(&s).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut fails = 0;
        let n = 400;
        for _ in 0..n {
            let cfg = cot.sample_uniform(&mut rng);
            if evaluate(&cfg).is_none() {
                fails += 1;
            }
        }
        assert!(fails > 0, "no hidden failures in {n} samples");
        assert!(fails < n, "everything failed");
    }

    #[test]
    fn evaluation_is_noisy_but_tight() {
        let s = space();
        let e = expert_config(&s);
        let a = evaluate(&e).unwrap();
        let b = evaluate(&e).unwrap();
        assert!((a - b).abs() / a < 0.05, "{a} vs {b}");
    }
}
