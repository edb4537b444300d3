//! The seven RISE & ELEVATE benchmark instances, packaged as
//! [`baco::benchmark::Benchmark`] values (Table 3 rows `MM_CPU` …
//! `Stencil_GPU`).

use crate::kernels;
use baco::benchmark::{Benchmark, Group};
use baco::{BlackBox, Configuration, Evaluation, SearchSpace};

type EvalFn = fn(&Configuration) -> Option<f64>;
type CfgFn = fn(&SearchSpace) -> Configuration;

struct ModelBench {
    name: String,
    eval: EvalFn,
}

impl BlackBox for ModelBench {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        match (self.eval)(cfg) {
            Some(ms) => Evaluation::feasible(ms),
            None => Evaluation::infeasible(),
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
}

#[allow(clippy::too_many_arguments)]
fn build(
    name: &str,
    space: SearchSpace,
    eval: EvalFn,
    default: CfgFn,
    expert: CfgFn,
    budget: usize,
    hidden: bool,
) -> Benchmark {
    Benchmark {
        name: name.to_string(),
        group: Group::Rise,
        default_config: default(&space),
        expert_config: Some(expert(&space)),
        blackbox: Box::new(ModelBench {
            name: name.to_string(),
            eval,
        }),
        space,
        budget,
        has_hidden_constraints: hidden,
        objective_names: vec!["runtime_ms".into()],
        reference_point: None,
    }
}

/// Board-power proxy (W) of an MM_GPU configuration: wider workgroups,
/// vector loads and deeper unrolling all raise switching activity. Coarse
/// but monotone — exactly what a runtime-vs-energy trade-off needs.
fn mm_gpu_power_w(cfg: &Configuration) -> f64 {
    let threads = cfg.value("ls_x").as_f64() * cfg.value("ls_y").as_f64();
    55.0 + 0.09 * threads + 4.0 * cfg.value("vec").as_f64() + 1.5 * cfg.value("unroll").as_f64()
}

struct MmGpuParetoBench;

impl BlackBox for MmGpuParetoBench {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        match kernels::mm_gpu::evaluate(cfg) {
            Some(ms) => Evaluation::feasible_multi(vec![ms, ms * mm_gpu_power_w(cfg)]),
            None => Evaluation::infeasible(),
        }
    }
    fn name(&self) -> &str {
        "MM_GPU-pareto"
    }
}

/// The MM_GPU **runtime-vs-energy** variant: the same space, constraints and
/// performance model as [`mm_gpu`], with a second objective `energy_mj =
/// runtime × power-proxy` — the fastest configurations burn the widest
/// workgroups, so minimum-time and minimum-energy designs differ.
pub fn mm_gpu_pareto() -> Benchmark {
    use kernels::mm_gpu as k;
    let space = k::space();
    Benchmark {
        name: "MM_GPU-pareto".to_string(),
        group: Group::Rise,
        default_config: k::default_config(&space),
        expert_config: Some(k::expert_config(&space)),
        blackbox: Box::new(MmGpuParetoBench),
        space,
        budget: 120,
        has_hidden_constraints: true,
        objective_names: vec!["runtime_ms".into(), "energy_mj".into()],
        // Generous upper bounds: MM_GPU runtimes sit far under 2 s and the
        // power proxy under ~210 W, so every feasible point counts.
        reference_point: Some(vec![2_000.0, 400_000.0]),
    }
}

/// Occupancy shortfall (%) of an MM_GPU configuration: how far the
/// workgroup sits under the 1024-thread hardware maximum. Minimizing it
/// pulls toward the widest workgroups — the direct opposite of the energy
/// objective — so the 3-D front is genuinely non-degenerate.
fn mm_gpu_idle_pct(cfg: &Configuration) -> f64 {
    let threads = cfg.value("ls_x").as_f64() * cfg.value("ls_y").as_f64();
    100.0 * (1.0 - threads / 1024.0)
}

struct MmGpuPareto3Bench;

impl BlackBox for MmGpuPareto3Bench {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        match kernels::mm_gpu::evaluate(cfg) {
            Some(ms) => {
                Evaluation::feasible_multi(vec![ms, ms * mm_gpu_power_w(cfg), mm_gpu_idle_pct(cfg)])
            }
            None => Evaluation::infeasible(),
        }
    }
    fn name(&self) -> &str {
        "MM_GPU-pareto3"
    }
}

/// The MM_GPU **three-objective** variant: runtime, energy and occupancy
/// shortfall over the same space and constraints as [`mm_gpu`]. Runtime
/// favors moderate workgroups, energy the narrowest, occupancy the widest —
/// three mutually antagonistic pulls, which is what exercises the
/// hypervolume-sliced EHVI path (`m = 3`) end to end.
pub fn mm_gpu_pareto3() -> Benchmark {
    use kernels::mm_gpu as k;
    let space = k::space();
    Benchmark {
        name: "MM_GPU-pareto3".to_string(),
        group: Group::Rise,
        default_config: k::default_config(&space),
        expert_config: Some(k::expert_config(&space)),
        blackbox: Box::new(MmGpuPareto3Bench),
        space,
        budget: 120,
        has_hidden_constraints: true,
        objective_names: vec!["runtime_ms".into(), "energy_mj".into(), "idle_pct".into()],
        // Runtime/energy bounds as in [`mm_gpu_pareto`]; the shortfall is a
        // percentage, so 100 covers every configuration with at least one
        // thread per workgroup.
        reference_point: Some(vec![2_000.0, 400_000.0, 100.0]),
    }
}

/// The MM_CPU benchmark (budget 100, K/H).
pub fn mm_cpu() -> Benchmark {
    use kernels::mm_cpu as k;
    build(
        "MM_CPU",
        k::space(),
        k::evaluate,
        k::default_config,
        k::expert_config,
        100,
        true,
    )
}

/// The MM_GPU benchmark (budget 120, K/H) — the paper's hardest space.
pub fn mm_gpu() -> Benchmark {
    use kernels::mm_gpu as k;
    build(
        "MM_GPU",
        k::space(),
        k::evaluate,
        k::default_config,
        k::expert_config,
        120,
        true,
    )
}

/// The Asum_GPU benchmark (budget 60, K).
pub fn asum_gpu() -> Benchmark {
    use kernels::asum as k;
    build(
        "Asum_GPU",
        k::space(),
        k::evaluate,
        k::default_config,
        k::expert_config,
        60,
        false,
    )
}

/// The Scal_GPU benchmark (budget 60, K/H).
pub fn scal_gpu() -> Benchmark {
    use kernels::scal as k;
    build(
        "Scal_GPU",
        k::space(),
        k::evaluate,
        k::default_config,
        k::expert_config,
        60,
        true,
    )
}

/// The K-means_GPU benchmark (budget 60, K/H).
pub fn kmeans_gpu() -> Benchmark {
    use kernels::kmeans as k;
    build(
        "K-means_GPU",
        k::space(),
        k::evaluate,
        k::default_config,
        k::expert_config,
        60,
        true,
    )
}

/// The Harris_GPU benchmark (budget 100, K).
pub fn harris_gpu() -> Benchmark {
    use kernels::harris as k;
    build(
        "Harris_GPU",
        k::space(),
        k::evaluate,
        k::default_config,
        k::expert_config,
        100,
        false,
    )
}

/// The Stencil_GPU benchmark (budget 60, K).
pub fn stencil_gpu() -> Benchmark {
    use kernels::stencil as k;
    build(
        "Stencil_GPU",
        k::space(),
        k::evaluate,
        k::default_config,
        k::expert_config,
        60,
        false,
    )
}

/// The full RISE & ELEVATE suite in Table 3 order.
pub fn rise_benchmarks() -> Vec<Benchmark> {
    vec![
        mm_cpu(),
        mm_gpu(),
        asum_gpu(),
        scal_gpu(),
        kmeans_gpu(),
        harris_gpu(),
        stencil_gpu(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_shape_matches_table3() {
        let benches = rise_benchmarks();
        assert_eq!(benches.len(), 7);
        let dims: Vec<usize> = benches.iter().map(|b| b.space.len()).collect();
        assert_eq!(dims, vec![5, 10, 5, 7, 4, 7, 4]);
        let budgets: Vec<usize> = benches.iter().map(|b| b.budget).collect();
        assert_eq!(budgets, vec![100, 120, 60, 60, 60, 100, 60]);
        // Constraint kinds per Table 3.
        let kinds: Vec<String> = benches.iter().map(|b| b.constraint_kinds()).collect();
        assert_eq!(kinds, vec!["K/H", "K/H", "K", "K/H", "K/H", "K", "K"]);
        // All-ordinal parameter types (Table 3 lists `O` for RISE rows).
        for b in &benches {
            assert_eq!(b.param_kinds(), "O", "{}", b.name);
        }
    }

    #[test]
    fn references_evaluate_and_expert_wins() {
        for b in rise_benchmarks() {
            let d = b.default_value().unwrap();
            let e = b.expert_value().unwrap();
            assert!(d > 0.0 && e > 0.0);
            assert!(e <= d, "{}: expert {e} vs default {d}", b.name);
        }
    }

    #[test]
    fn pareto3_objectives_are_mutually_antagonistic() {
        let b = mm_gpu_pareto3();
        assert_eq!(b.n_objectives(), 3);
        // The default configuration evaluates to a finite 3-vector inside
        // the reference box.
        let eval = b.blackbox.evaluate(&b.default_config);
        let objs = eval.values().expect("default config is feasible").to_vec();
        let reference = b.reference_point.as_ref().unwrap();
        assert_eq!(objs.len(), 3);
        for (o, r) in objs.iter().zip(reference) {
            assert!(
                o.is_finite() && *o >= 0.0 && o < r,
                "{objs:?} vs {reference:?}"
            );
        }
        // Widest workgroup: zero shortfall but the highest power draw;
        // narrowest: near-total shortfall with the lowest draw — occupancy
        // and energy pull in opposite directions by construction.
        use baco::ParamValue;
        let cfg_with = |ls_x: f64, ls_y: f64| {
            b.space
                .configuration(&[
                    ("m_wg", ParamValue::Ordinal(16.0)),
                    ("n_wg", ParamValue::Ordinal(16.0)),
                    ("k_tile", ParamValue::Ordinal(4.0)),
                    ("m_th", ParamValue::Ordinal(1.0)),
                    ("n_th", ParamValue::Ordinal(1.0)),
                    ("ls_x", ParamValue::Ordinal(ls_x)),
                    ("ls_y", ParamValue::Ordinal(ls_y)),
                    ("vec", ParamValue::Ordinal(1.0)),
                    ("unroll", ParamValue::Ordinal(1.0)),
                    ("k_split", ParamValue::Ordinal(1.0)),
                ])
                .unwrap()
        };
        let wide = cfg_with(32.0, 32.0);
        let narrow = cfg_with(1.0, 1.0);
        assert_eq!(mm_gpu_idle_pct(&wide), 0.0);
        assert!(mm_gpu_idle_pct(&narrow) > 99.0);
        assert!(mm_gpu_power_w(&wide) > mm_gpu_power_w(&narrow));
    }

    #[test]
    fn cots_build_for_every_space() {
        for b in rise_benchmarks() {
            let cot = baco::cot::ChainOfTrees::build(&b.space).unwrap();
            assert!(cot.feasible_size() >= 50.0, "{}", b.name);
        }
    }
}
