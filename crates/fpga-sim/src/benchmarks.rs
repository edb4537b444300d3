//! The three HPVM2FPGA benchmarks (Sec. 5.2): BFS and PreEuler from Rodinia,
//! and the ILLIXR 3-D spatial audio encoder. Spaces are generated the way
//! HPVM2FPGA generates them — from the program's loop structure — so they
//! are integer/categorical-heavy with hidden constraints only, and there is
//! **no expert configuration** (the paper reports only the default).

use crate::device::{arria10, config_jitter, Resources};
use baco::benchmark::{Benchmark, Group};
#[cfg(test)]
use baco::ParamValue;
use baco::{BlackBox, Configuration, Evaluation, SearchSpace};

/// One pipelined loop nest of a benchmark.
#[derive(Debug, Clone, Copy)]
struct Loop {
    /// Iterations per invocation.
    trips: f64,
    /// Baseline initiation interval.
    base_ii: f64,
    /// Work (ALMs) per unroll replica.
    alms: f64,
    /// DSPs per replica.
    dsps: f64,
    /// Memory-bound fraction: unrolling needs banking to help.
    mem_bound: f64,
}

fn unroll_of(cfg: &Configuration, name: &str) -> f64 {
    // Integer exponent parameter: unroll factor = 2^value.
    (1u64 << cfg.value(name).as_i64() as u32) as f64
}

/// Shared evaluation core: given per-loop unroll/banking decisions and
/// global flags, estimate time (and the design's resource bill) or fail on
/// resource overflow.
#[allow(clippy::too_many_arguments)]
fn estimate_design(
    cfg: &Configuration,
    loops: &[Loop],
    unrolls: &[f64],
    banking: f64,
    fusion_level: usize,
    privatization: usize,
    base: Resources,
    bram_per_priv: f64,
) -> Option<(f64, Resources)> {
    let dev = arria10();
    let mut res = base;
    let mut cycles = 0.0;
    for (lp, &u) in loops.iter().zip(unrolls) {
        // Unrolled replicas cost area.
        res.alms += lp.alms * u;
        res.dsps += lp.dsps * u;
        // Effective parallelism: memory-bound work only scales with banking.
        let mem_par = u.min(banking);
        let eff = (1.0 - lp.mem_bound) * u + lp.mem_bound * mem_par;
        // Privatization relieves contention on shared arguments.
        let ii = lp.base_ii / (1.0 + 0.35 * privatization as f64);
        cycles += lp.trips * ii / eff.max(1.0) + 300.0; // pipeline fill/drain
    }
    // Banking replicates BRAM.
    res.bram_bytes += banking * 64.0 * 1024.0;
    res.bram_bytes += privatization as f64 * bram_per_priv;
    // Fusion removes inter-kernel DRAM round-trips but inflates the fused
    // pipeline's logic and hurts timing closure.
    let dram_trips = (loops.len().saturating_sub(fusion_level)) as f64;
    cycles += dram_trips * 20_000.0;
    res.alms += fusion_level as f64 * 9_000.0;

    // Hidden constraint: the design must fit, and deep fusion with wide
    // unrolls fails placement.
    if !dev.fits(&res) {
        return None;
    }
    let max_u = unrolls.iter().copied().fold(1.0, f64::max);
    if fusion_level >= 3 && max_u >= 8.0 {
        return None; // router gives up: the paper's mysterious failed builds
    }
    let t = dev.time(&res, cycles);
    Some((t * 1e3 * config_jitter(cfg, 0.04), res))
}

/// [`estimate_design`] projected onto runtime — the classic single-metric
/// face the Table-3 benchmarks keep.
#[allow(clippy::too_many_arguments)]
fn estimate(
    cfg: &Configuration,
    loops: &[Loop],
    unrolls: &[f64],
    banking: f64,
    fusion_level: usize,
    privatization: usize,
    base: Resources,
    bram_per_priv: f64,
) -> Option<f64> {
    estimate_design(
        cfg,
        loops,
        unrolls,
        banking,
        fusion_level,
        privatization,
        base,
        bram_per_priv,
    )
    .map(|(ms, _)| ms)
}

// ───────────────────────────── BFS ─────────────────────────────

/// BFS search space: 4 parameters, 256 configurations (Table 3).
pub fn bfs_space() -> SearchSpace {
    SearchSpace::builder()
        .integer("unroll_exp", 0, 3) // unroll 1..8
        .integer("banking_exp", 0, 3)
        .categorical("fusion", vec!["none", "partial", "most", "full"])
        .categorical("privatize", vec!["off", "args", "locals", "all"])
        .build()
        .expect("valid BFS space")
}

fn bfs_design(cfg: &Configuration) -> Option<(f64, Resources)> {
    let loops = [
        Loop {
            trips: 1.0e6,
            base_ii: 2.2,
            alms: 5_000.0,
            dsps: 4.0,
            mem_bound: 0.85,
        },
        Loop {
            trips: 6.0e5,
            base_ii: 1.4,
            alms: 3_200.0,
            dsps: 2.0,
            mem_bound: 0.55,
        },
    ];
    let u = unroll_of(cfg, "unroll_exp");
    let b = unroll_of(cfg, "banking_exp");
    let fusion = ["none", "partial", "most", "full"]
        .iter()
        .position(|s| *s == cfg.value("fusion").as_str())
        .expect("valid category");
    let privatize = ["off", "args", "locals", "all"]
        .iter()
        .position(|s| *s == cfg.value("privatize").as_str())
        .expect("valid category");
    let base = Resources {
        alms: 30_000.0,
        dsps: 16.0,
        bram_bytes: 4.0e5,
    };
    estimate_design(cfg, &loops, &[u, u], b, fusion, privatize, base, 9e5)
}

fn bfs_eval(cfg: &Configuration) -> Option<f64> {
    bfs_design(cfg).map(|(ms, _)| ms)
}

/// Runtime (ms) and logic area (kALMs) of a BFS design — the C2HLSC-style
/// latency-vs-area trade-off the multi-objective tuner explores.
fn bfs_eval_pareto(cfg: &Configuration) -> Option<(f64, f64)> {
    bfs_design(cfg).map(|(ms, res)| (ms, res.alms / 1e3))
}

// ──────────────────────────── Audio ────────────────────────────

/// Audio (ILLIXR 3-D spatial encoder) search space: 15 parameters,
/// ~8.4×10⁵ configurations — boolean-heavy, as the paper describes.
pub fn audio_space() -> SearchSpace {
    let mut b = SearchSpace::builder();
    // Per-stage fusion and privatization toggles (9 booleans: 3 stages ×
    // {fuse, privatize, coalesce}).
    for stage in ["enc", "rot", "zoom"] {
        b = b
            .boolean(&format!("fuse_{stage}"))
            .boolean(&format!("priv_{stage}"))
            .boolean(&format!("coalesce_{stage}"));
    }
    b.boolean("stream_buffers")
        .boolean("double_buffer")
        .integer("unroll_hrtf", 0, 4)
        .integer("unroll_mix", 0, 4)
        .integer("banking_exp", 0, 3)
        .integer("ii_relax", 0, 3)
        .build()
        .expect("valid Audio space")
}

fn audio_eval(cfg: &Configuration) -> Option<f64> {
    let loops = [
        // HRTF convolution (DSP heavy), ambisonic rotation, psychoacoustic
        // zoom, and the final mix.
        Loop {
            trips: 2.6e6,
            base_ii: 1.8,
            alms: 7_500.0,
            dsps: 48.0,
            mem_bound: 0.35,
        },
        Loop {
            trips: 9.0e5,
            base_ii: 1.2,
            alms: 4_200.0,
            dsps: 24.0,
            mem_bound: 0.45,
        },
        Loop {
            trips: 6.0e5,
            base_ii: 1.5,
            alms: 3_800.0,
            dsps: 12.0,
            mem_bound: 0.6,
        },
        Loop {
            trips: 1.2e6,
            base_ii: 1.0,
            alms: 2_500.0,
            dsps: 8.0,
            mem_bound: 0.7,
        },
    ];
    let u1 = (1u64 << cfg.value("unroll_hrtf").as_i64() as u32) as f64;
    let u2 = (1u64 << cfg.value("unroll_mix").as_i64() as u32) as f64;
    let b = unroll_of(cfg, "banking_exp");
    let fused = ["enc", "rot", "zoom"]
        .iter()
        .filter(|s| cfg.value(&format!("fuse_{s}")).as_bool())
        .count();
    let privd = ["enc", "rot", "zoom"]
        .iter()
        .filter(|s| cfg.value(&format!("priv_{s}")).as_bool())
        .count();
    let coalesced = ["enc", "rot", "zoom"]
        .iter()
        .filter(|s| cfg.value(&format!("coalesce_{s}")).as_bool())
        .count();
    let ii_relax = cfg.value("ii_relax").as_i64() as f64;

    let mut base = Resources {
        alms: 60_000.0,
        dsps: 120.0,
        bram_bytes: 1.2e6,
    };
    if cfg.value("stream_buffers").as_bool() {
        base.bram_bytes += 8.0e5;
    }
    if cfg.value("double_buffer").as_bool() {
        base.bram_bytes += 1.1e6;
    }
    let t = estimate(cfg, &loops, &[u1, u1, u2, u2], b, fused, privd, base, 1.4e6)?;
    // Coalescing and streaming help memory-bound stages; relaxing II saves
    // area but costs time.
    let stream_gain = if cfg.value("stream_buffers").as_bool() {
        0.88
    } else {
        1.0
    };
    let coal_gain = 1.0 - 0.06 * coalesced as f64;
    let db_gain = if cfg.value("double_buffer").as_bool() {
        0.92
    } else {
        1.0
    };
    Some(t * stream_gain * coal_gain * db_gain * (1.0 + 0.08 * ii_relax))
}

// ─────────────────────────── PreEuler ───────────────────────────

/// PreEuler search space: 7 parameters, ~1.5×10⁴ configurations.
pub fn preeuler_space() -> SearchSpace {
    SearchSpace::builder()
        .boolean("fuse_flux")
        .boolean("fuse_update")
        .boolean("priv_fluxes")
        .boolean("coalesce")
        .integer("unroll_cell", 0, 9)
        .integer("unroll_face", 0, 9)
        .integer("banking", 1, 8)
        .build()
        .expect("valid PreEuler space")
}

fn preeuler_design(cfg: &Configuration) -> Option<(f64, Resources)> {
    let loops = [
        Loop {
            trips: 1.6e6,
            base_ii: 2.0,
            alms: 9_000.0,
            dsps: 80.0,
            mem_bound: 0.5,
        },
        Loop {
            trips: 1.6e6,
            base_ii: 1.6,
            alms: 6_000.0,
            dsps: 55.0,
            mem_bound: 0.6,
        },
        Loop {
            trips: 8.0e5,
            base_ii: 1.2,
            alms: 3_000.0,
            dsps: 25.0,
            mem_bound: 0.75,
        },
    ];
    // Linear (not power-of-two) unrolls: HPVM2FPGA explores raw factors.
    let u1 = (cfg.value("unroll_cell").as_i64() + 1) as f64;
    let u2 = (cfg.value("unroll_face").as_i64() + 1) as f64;
    let b = cfg.value("banking").as_i64() as f64;
    let fusion =
        cfg.value("fuse_flux").as_bool() as usize + cfg.value("fuse_update").as_bool() as usize;
    // Hidden: fully fused flux+update pipelines with wide combined unrolls
    // fail placement (the failed-build region the tuner must learn).
    if fusion == 2 && u1 * u2 >= 50.0 {
        return None;
    }
    let privatize = cfg.value("priv_fluxes").as_bool() as usize * 2;
    let base = Resources {
        alms: 45_000.0,
        dsps: 60.0,
        bram_bytes: 9.0e5,
    };
    let (t, res) = estimate_design(
        cfg,
        &loops,
        &[u1, u1, u2],
        b,
        fusion,
        privatize,
        base,
        1.1e6,
    )?;
    let coal_gain = if cfg.value("coalesce").as_bool() {
        0.9
    } else {
        1.0
    };
    Some((t * coal_gain, res))
}

fn preeuler_eval(cfg: &Configuration) -> Option<f64> {
    preeuler_design(cfg).map(|(ms, _)| ms)
}

/// Runtime (ms) and logic area (kALMs) of a PreEuler design.
fn preeuler_eval_pareto(cfg: &Configuration) -> Option<(f64, f64)> {
    preeuler_design(cfg).map(|(ms, res)| (ms, res.alms / 1e3))
}

// ───────────────────── benchmark packaging ─────────────────────

type EvalFn = fn(&Configuration) -> Option<f64>;
type ParetoEvalFn = fn(&Configuration) -> Option<(f64, f64)>;

struct FpgaBench {
    name: String,
    eval: EvalFn,
}

impl BlackBox for FpgaBench {
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

struct FpgaParetoBench {
    name: String,
    eval: ParetoEvalFn,
}

impl BlackBox for FpgaParetoBench {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        match (self.eval)(cfg) {
            Some((ms, kalms)) => Evaluation::feasible_multi(vec![ms, kalms]),
            None => Evaluation::infeasible(),
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
}

fn build(name: &str, space: SearchSpace, eval: EvalFn, budget: usize) -> Benchmark {
    Benchmark {
        name: name.to_string(),
        group: Group::Hpvm,
        default_config: space.default_configuration(),
        expert_config: None, // HPVM2FPGA has no expert (Sec. 5.1)
        blackbox: Box::new(FpgaBench {
            name: name.to_string(),
            eval,
        }),
        space,
        budget,
        has_hidden_constraints: true,
        objective_names: vec!["runtime_ms".into()],
        reference_point: None,
    }
}

fn build_pareto(
    name: &str,
    space: SearchSpace,
    eval: ParetoEvalFn,
    budget: usize,
    reference: [f64; 2],
) -> Benchmark {
    Benchmark {
        name: name.to_string(),
        group: Group::Hpvm,
        default_config: space.default_configuration(),
        expert_config: None,
        blackbox: Box::new(FpgaParetoBench {
            name: name.to_string(),
            eval,
        }),
        space,
        budget,
        has_hidden_constraints: true,
        objective_names: vec!["runtime_ms".into(), "area_kalms".into()],
        reference_point: Some(reference.to_vec()),
    }
}

/// The BFS benchmark (budget 20 — the paper's smallest space).
pub fn bfs() -> Benchmark {
    build("BFS", bfs_space(), bfs_eval, 20)
}

/// The Audio benchmark (budget 60).
pub fn audio() -> Benchmark {
    build("Audio", audio_space(), audio_eval, 60)
}

/// The PreEuler benchmark (budget 60).
pub fn preeuler() -> Benchmark {
    build("PreEuler", preeuler_space(), preeuler_eval, 60)
}

/// The full HPVM2FPGA suite.
pub fn hpvm_benchmarks() -> Vec<Benchmark> {
    vec![bfs(), audio(), preeuler()]
}

/// The BFS **latency-vs-area** variant: the same design space and hidden
/// constraints as [`bfs`], but the black box reports `[runtime_ms,
/// area_kalms]` — unrolling/banking buys time with logic, so the Pareto
/// front is genuinely multi-point. The reference point bounds every
/// feasible design (the device holds ~427 kALMs; BFS runtimes stay well
/// under 40 ms).
pub fn bfs_pareto() -> Benchmark {
    build_pareto(
        "BFS-pareto",
        bfs_space(),
        bfs_eval_pareto,
        30,
        [40.0, 450.0],
    )
}

/// The PreEuler latency-vs-area variant (see [`bfs_pareto`]).
pub fn preeuler_pareto() -> Benchmark {
    build_pareto(
        "PreEuler-pareto",
        preeuler_space(),
        preeuler_eval_pareto,
        60,
        [60.0, 450.0],
    )
}

/// The multi-objective HPVM2FPGA variants.
pub fn hpvm_pareto_benchmarks() -> Vec<Benchmark> {
    vec![bfs_pareto(), preeuler_pareto()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn suite_shape_matches_table3() {
        let benches = hpvm_benchmarks();
        assert_eq!(benches.len(), 3);
        let dims: Vec<usize> = benches.iter().map(|b| b.space.len()).collect();
        assert_eq!(dims, vec![4, 15, 7]);
        assert_eq!(bfs_space().dense_size(), Some(256.0));
        let audio_size = audio_space().dense_size().unwrap();
        assert!((5e5..2e6).contains(&audio_size), "audio {audio_size}");
        let pe = preeuler_space().dense_size().unwrap();
        assert!((1e4..2e4).contains(&pe), "preeuler {pe}");
        for b in &benches {
            assert!(b.has_hidden_constraints);
            assert!(b.expert_config.is_none());
            assert!(b.space.known_constraints().is_empty(), "{}", b.name);
        }
    }

    #[test]
    fn defaults_evaluate() {
        for b in hpvm_benchmarks() {
            let v = b.default_value();
            assert!(v.is_some(), "{} default failed", b.name);
            assert!(v.unwrap() > 0.0);
        }
    }

    #[test]
    fn hidden_failures_exist_but_are_minority() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for b in hpvm_benchmarks() {
            let mut fail = 0;
            let n = 300;
            for _ in 0..n {
                let cfg = b.space.sample_dense(&mut rng);
                if !b.blackbox.evaluate(&cfg).is_feasible() {
                    fail += 1;
                }
            }
            assert!(fail > 0, "{}: no hidden failures", b.name);
            assert!(fail < n * 2 / 3, "{}: {fail}/{n} failed", b.name);
        }
    }

    #[test]
    fn bfs_space_fully_enumerable() {
        let cot = baco::cot::ChainOfTrees::build(&bfs_space()).unwrap();
        let all = cot.enumerate(1000).unwrap();
        assert_eq!(all.len(), 256);
        // A good fraction evaluates; unrolling helps BFS up to banking.
        let ok = all.iter().filter(|c| bfs_eval(c).is_some()).count();
        assert!(ok > 128, "only {ok}/256 feasible");
    }

    #[test]
    fn pareto_variants_trade_latency_for_area() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for b in hpvm_pareto_benchmarks() {
            assert_eq!(b.n_objectives(), 2, "{}", b.name);
            assert_eq!(b.objective_names, vec!["runtime_ms", "area_kalms"]);
            let reference = b.reference_point.clone().unwrap();
            let mut feasible = 0;
            for _ in 0..300 {
                let cfg = b.space.sample_dense(&mut rng);
                let e = b.blackbox.evaluate(&cfg);
                if let Some(v) = e.values() {
                    feasible += 1;
                    assert_eq!(v.len(), 2, "{}", b.name);
                    assert!(v.iter().all(|x| x.is_finite() && *x > 0.0));
                    // Every feasible design sits inside the reference box,
                    // so hypervolume accounting never clips real points.
                    assert!(
                        v.iter().zip(&reference).all(|(x, r)| x < r),
                        "{}: {v:?} outside reference {reference:?}",
                        b.name
                    );
                }
            }
            assert!(feasible > 100, "{}: {feasible}/300 feasible", b.name);
        }
        // The trade-off is real: max unroll+banking is faster but larger
        // than the default design.
        let s = bfs_space();
        let tuned = s
            .configuration(&[
                ("unroll_exp", ParamValue::Int(3)),
                ("banking_exp", ParamValue::Int(3)),
                ("fusion", ParamValue::Categorical("most".into())),
                ("privatize", ParamValue::Categorical("all".into())),
            ])
            .unwrap();
        let (t_def, a_def) = bfs_eval_pareto(&s.default_configuration()).unwrap();
        let (t_tuned, a_tuned) = bfs_eval_pareto(&tuned).unwrap();
        assert!(
            t_tuned < t_def && a_tuned > a_def,
            "no latency/area trade-off"
        );
    }

    #[test]
    fn unrolling_with_banking_beats_default_bfs() {
        let s = bfs_space();
        let tuned = s
            .configuration(&[
                ("unroll_exp", ParamValue::Int(3)),
                ("banking_exp", ParamValue::Int(3)),
                ("fusion", ParamValue::Categorical("most".into())),
                ("privatize", ParamValue::Categorical("all".into())),
            ])
            .unwrap();
        let d = bfs_eval(&s.default_configuration()).unwrap();
        let t = bfs_eval(&tuned).unwrap();
        assert!(t < d, "tuned {t} vs default {d}");
    }
}
