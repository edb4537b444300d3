//! The 15 TACO benchmark instances of the paper's evaluation (Table 3 rows
//! `SpMV`/`SpMM`/`SDDMM`/`TTV`/`MTTKRP` crossed with the Table 4–5 tensors),
//! packaged as [`baco::benchmark::Benchmark`] values.

use crate::generate::{matrix, spec, tensor3, tensor4};
use crate::kernels::{
    mttkrp, sddmm, spmm, spmv, ttv, MttkrpSchedule, SddmmSchedule, SpmmSchedule, SpmvSchedule,
    TtvSchedule,
};
use crate::sparse::{CooTensor3, CooTensor4, CsrMatrix, DenseMatrix};
use baco::benchmark::{Benchmark, Group};
use baco::{BlackBox, Configuration, Evaluation, ParamValue, SearchSpace};
use std::sync::Arc;

/// How far the paper tensors are scaled down (nnz multiplier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TacoScale {
    /// ~0.2 % of paper nonzeros — unit/integration tests.
    Test,
    /// ~2 % of paper nonzeros — the default for experiment sweeps.
    Small,
    /// ~10 % of paper nonzeros — slower, closer to paper conditions.
    Large,
}

impl TacoScale {
    /// The nnz multiplier.
    pub fn factor(self) -> f64 {
        match self {
            TacoScale::Test => 0.002,
            TacoScale::Small => 0.02,
            TacoScale::Large => 0.1,
        }
    }
}

const SPMM_RANK: usize = 32;
const SDDMM_RANK: usize = 32;
const MTTKRP_RANK: usize = 16;

// ───────────────────────── search spaces ─────────────────────────

/// SpMV search space: 7 parameters (O/C/P with known constraints).
pub fn spmv_space() -> SearchSpace {
    SearchSpace::builder()
        .permutation("order", 3)
        .ordinal_log(
            "block",
            vec![
                16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
            ],
        )
        .ordinal_log(
            "chunk",
            vec![
                1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
            ],
        )
        .ordinal_log("threads", vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        .categorical("scheme", vec!["static", "dynamic"])
        .ordinal_log("unroll", vec![1.0, 2.0, 4.0, 8.0])
        .categorical("acc", vec!["scalar", "wide"])
        // Split hierarchy: the outer split must precede the inner.
        .known_constraint("pos(order, 0) < pos(order, 1)")
        // A parallel chunk never exceeds its row block.
        .known_constraint("block >= chunk")
        .build()
        .expect("valid SpMV space")
}

/// SpMM search space: 6 parameters.
pub fn spmm_space() -> SearchSpace {
    SearchSpace::builder()
        .permutation("order", 3)
        .ordinal_log("j_tile", vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        .ordinal_log(
            "chunk",
            vec![
                1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
            ],
        )
        .ordinal_log("threads", vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        .categorical("scheme", vec!["static", "dynamic"])
        .ordinal_log("unroll", vec![1.0, 2.0, 4.0, 8.0])
        // Concordant CSR traversal: i before k.
        .known_constraint("pos(order, 0) < pos(order, 1)")
        .known_constraint("unroll <= j_tile")
        .build()
        .expect("valid SpMM space")
}

/// SDDMM search space: 6 parameters.
pub fn sddmm_space() -> SearchSpace {
    SearchSpace::builder()
        .permutation("order", 3)
        .ordinal_log("k_tile", vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        .ordinal_log(
            "chunk",
            vec![
                1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
            ],
        )
        .ordinal_log("threads", vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        .categorical("scheme", vec!["static", "dynamic"])
        .ordinal_log("unroll", vec![1.0, 2.0, 4.0, 8.0])
        // Concordant traversal of the sampled sparse matrix: i before j.
        .known_constraint("pos(order, 0) < pos(order, 1)")
        .known_constraint("unroll <= k_tile")
        .build()
        .expect("valid SDDMM space")
}

/// TTV search space: 7 parameters (hidden workspace constraint at runtime).
pub fn ttv_space() -> SearchSpace {
    SearchSpace::builder()
        .permutation("order", 3)
        .categorical("workspace", vec!["direct", "dense"])
        .ordinal_log(
            "chunk",
            vec![
                1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
            ],
        )
        .ordinal_log("threads", vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        .categorical("scheme", vec!["static", "dynamic"])
        .ordinal_log("unroll", vec![1.0, 2.0, 4.0, 8.0])
        .ordinal_log(
            "block",
            vec![16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0],
        )
        .known_constraint("pos(order, 0) < pos(order, 1)")
        .known_constraint("block >= chunk")
        .build()
        .expect("valid TTV space")
}

/// MTTKRP search space: 6 parameters.
pub fn mttkrp_space() -> SearchSpace {
    SearchSpace::builder()
        .permutation("order", 3)
        .ordinal_log("j_tile", vec![1.0, 2.0, 4.0, 8.0, 16.0])
        .ordinal_log(
            "chunk",
            vec![
                1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
            ],
        )
        .ordinal_log("threads", vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        .categorical("scheme", vec!["static", "dynamic"])
        .ordinal_log("unroll", vec![1.0, 2.0, 4.0])
        // Concordant reduction: k before m in the sorted coordinate order.
        .known_constraint("pos(order, 0) < pos(order, 2)")
        .known_constraint("unroll <= j_tile")
        .build()
        .expect("valid MTTKRP space")
}

// ───────────────────────── black boxes ─────────────────────────

struct SpmvBench {
    a: Arc<CsrMatrix>,
    csc: Arc<CsrMatrix>,
    x: Vec<f64>,
    name: String,
}

impl BlackBox for SpmvBench {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        let sched = SpmvSchedule::from_config(cfg);
        let (_, secs) = spmv(&self.a, &self.csc, &self.x, &sched);
        Evaluation::feasible(secs * 1e3)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

struct SpmmBench {
    b: Arc<CsrMatrix>,
    c: DenseMatrix,
    name: String,
}

impl BlackBox for SpmmBench {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        let sched = SpmmSchedule::from_config(cfg);
        let (_, secs) = spmm(&self.b, &self.c, &sched);
        Evaluation::feasible(secs * 1e3)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

struct SddmmBench {
    b: Arc<CsrMatrix>,
    c: DenseMatrix,
    d: DenseMatrix,
    name: String,
}

impl BlackBox for SddmmBench {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        let sched = SddmmSchedule::from_config(cfg);
        let (_, secs) = sddmm(&self.b, &self.c, &self.d, &sched);
        Evaluation::feasible(secs * 1e3)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

struct TtvBench {
    b: Arc<CooTensor3>,
    c: Vec<f64>,
    name: String,
}

impl BlackBox for TtvBench {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        let sched = TtvSchedule::from_config(cfg);
        match ttv(&self.b, &self.c, &sched) {
            Some((_, secs)) => Evaluation::feasible(secs * 1e3),
            None => Evaluation::infeasible(),
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
}

struct MttkrpBench {
    b: Arc<CooTensor4>,
    c: DenseMatrix,
    d: DenseMatrix,
    e: DenseMatrix,
    name: String,
}

impl BlackBox for MttkrpBench {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        let sched = MttkrpSchedule::from_config(cfg);
        let (_, secs) = mttkrp(&self.b, &self.c, &self.d, &self.e, &sched);
        Evaluation::feasible(secs * 1e3)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

// ───────────────────── default / expert configs ─────────────────────

fn perm(v: &[u8]) -> ParamValue {
    ParamValue::Permutation(v.to_vec())
}

fn cfg(space: &SearchSpace, pairs: &[(&str, ParamValue)]) -> Configuration {
    space
        .configuration(pairs)
        .expect("valid reference configuration")
}

fn spmv_default(space: &SearchSpace) -> Configuration {
    cfg(
        space,
        &[
            ("order", perm(&[0, 1, 2])),
            ("block", ParamValue::Ordinal(4096.0)),
            ("chunk", ParamValue::Ordinal(256.0)),
            ("threads", ParamValue::Ordinal(1.0)),
            ("scheme", ParamValue::Categorical("static".into())),
            ("unroll", ParamValue::Ordinal(1.0)),
            ("acc", ParamValue::Categorical("scalar".into())),
        ],
    )
}

fn spmv_expert(space: &SearchSpace) -> Configuration {
    cfg(
        space,
        &[
            ("order", perm(&[0, 1, 2])),
            ("block", ParamValue::Ordinal(8192.0)),
            ("chunk", ParamValue::Ordinal(256.0)),
            ("threads", ParamValue::Ordinal(4.0)),
            ("scheme", ParamValue::Categorical("static".into())),
            ("unroll", ParamValue::Ordinal(8.0)),
            ("acc", ParamValue::Categorical("scalar".into())),
        ],
    )
}

fn spmm_default(space: &SearchSpace) -> Configuration {
    cfg(
        space,
        &[
            ("order", perm(&[0, 1, 2])),
            ("j_tile", ParamValue::Ordinal(32.0)),
            ("chunk", ParamValue::Ordinal(256.0)),
            ("threads", ParamValue::Ordinal(1.0)),
            ("scheme", ParamValue::Categorical("static".into())),
            ("unroll", ParamValue::Ordinal(1.0)),
        ],
    )
}

fn spmm_expert(space: &SearchSpace) -> Configuration {
    cfg(
        space,
        &[
            ("order", perm(&[0, 1, 2])),
            ("j_tile", ParamValue::Ordinal(32.0)),
            ("chunk", ParamValue::Ordinal(256.0)),
            ("threads", ParamValue::Ordinal(8.0)),
            ("scheme", ParamValue::Categorical("static".into())),
            ("unroll", ParamValue::Ordinal(2.0)),
        ],
    )
}

fn sddmm_default(space: &SearchSpace) -> Configuration {
    cfg(
        space,
        &[
            ("order", perm(&[0, 1, 2])),
            ("k_tile", ParamValue::Ordinal(32.0)),
            ("chunk", ParamValue::Ordinal(256.0)),
            ("threads", ParamValue::Ordinal(1.0)),
            ("scheme", ParamValue::Categorical("static".into())),
            ("unroll", ParamValue::Ordinal(1.0)),
        ],
    )
}

fn sddmm_expert(space: &SearchSpace) -> Configuration {
    cfg(
        space,
        &[
            ("order", perm(&[0, 1, 2])),
            ("k_tile", ParamValue::Ordinal(32.0)),
            ("chunk", ParamValue::Ordinal(64.0)),
            ("threads", ParamValue::Ordinal(4.0)),
            ("scheme", ParamValue::Categorical("static".into())),
            ("unroll", ParamValue::Ordinal(4.0)),
        ],
    )
}

fn ttv_default(space: &SearchSpace) -> Configuration {
    cfg(
        space,
        &[
            ("order", perm(&[0, 1, 2])),
            ("workspace", ParamValue::Categorical("direct".into())),
            ("chunk", ParamValue::Ordinal(128.0)),
            ("threads", ParamValue::Ordinal(1.0)),
            ("scheme", ParamValue::Categorical("static".into())),
            ("unroll", ParamValue::Ordinal(1.0)),
            ("block", ParamValue::Ordinal(1024.0)),
        ],
    )
}

fn ttv_expert(space: &SearchSpace) -> Configuration {
    cfg(
        space,
        &[
            ("order", perm(&[0, 1, 2])),
            ("workspace", ParamValue::Categorical("direct".into())),
            ("chunk", ParamValue::Ordinal(8.0)),
            ("threads", ParamValue::Ordinal(8.0)),
            ("scheme", ParamValue::Categorical("dynamic".into())),
            ("unroll", ParamValue::Ordinal(4.0)),
            ("block", ParamValue::Ordinal(1024.0)),
        ],
    )
}

fn mttkrp_default(space: &SearchSpace) -> Configuration {
    cfg(
        space,
        &[
            ("order", perm(&[0, 1, 2])),
            ("j_tile", ParamValue::Ordinal(16.0)),
            ("chunk", ParamValue::Ordinal(128.0)),
            ("threads", ParamValue::Ordinal(1.0)),
            ("scheme", ParamValue::Categorical("static".into())),
            ("unroll", ParamValue::Ordinal(1.0)),
        ],
    )
}

fn mttkrp_expert(space: &SearchSpace) -> Configuration {
    cfg(
        space,
        &[
            ("order", perm(&[0, 1, 2])),
            ("j_tile", ParamValue::Ordinal(16.0)),
            ("chunk", ParamValue::Ordinal(1.0)),
            ("threads", ParamValue::Ordinal(16.0)),
            ("scheme", ParamValue::Categorical("dynamic".into())),
            ("unroll", ParamValue::Ordinal(4.0)),
        ],
    )
}

// ───────────────────── instance construction ─────────────────────

/// Builds one SpMV instance.
pub fn spmv_benchmark(tensor: &str, scale: TacoScale) -> Benchmark {
    let a = Arc::new(matrix(&spec(tensor), scale.factor()));
    let csc = Arc::new(a.to_csc());
    let x: Vec<f64> = (0..a.ncols).map(|i| 0.1 + (i % 13) as f64 * 0.07).collect();
    let space = spmv_space();
    Benchmark {
        name: format!("SpMV {tensor}"),
        group: Group::Taco,
        default_config: spmv_default(&space),
        expert_config: Some(spmv_expert(&space)),
        blackbox: Box::new(SpmvBench {
            a,
            csc,
            x,
            name: format!("SpMV {tensor}"),
        }),
        space,
        budget: 70,
        has_hidden_constraints: false,
        objective_names: vec!["runtime_ms".into()],
        reference_point: None,
    }
}

/// Builds one SpMM instance.
pub fn spmm_benchmark(tensor: &str, scale: TacoScale) -> Benchmark {
    let b = Arc::new(matrix(&spec(tensor), scale.factor()));
    let c = DenseMatrix::random(b.ncols, SPMM_RANK, 11);
    let space = spmm_space();
    Benchmark {
        name: format!("SpMM {tensor}"),
        group: Group::Taco,
        default_config: spmm_default(&space),
        expert_config: Some(spmm_expert(&space)),
        blackbox: Box::new(SpmmBench {
            b,
            c,
            name: format!("SpMM {tensor}"),
        }),
        space,
        budget: 60,
        has_hidden_constraints: false,
        objective_names: vec!["runtime_ms".into()],
        reference_point: None,
    }
}

/// Analytic DRAM-traffic model (MB) of one SpMM execution under `sched`:
/// the CSR operand is streamed once per `j`-tile pass (`⌈rank/j_tile⌉`
/// passes), the dense operand is gathered per nonzero, and a tiled output
/// pays read-modify-write. Deterministic in the schedule and matrix shape —
/// the second objective of [`spmm_pareto_benchmark`], trading locality
/// (small tiles) against re-streaming (many passes).
fn spmm_traffic_mb(b: &CsrMatrix, sched: &SpmmSchedule) -> f64 {
    let passes = SPMM_RANK.div_ceil(sched.j_tile.max(1)) as f64;
    let nnz = b.nnz() as f64;
    // 12 bytes per CSR nonzero (index + value), re-streamed every pass.
    let stream_b = nnz * 12.0 * passes;
    // Dense rows gathered per nonzero: j_tile values per visit, every pass.
    let gather_c = nnz * (sched.j_tile.min(SPMM_RANK) as f64) * 8.0 * passes;
    // Output strip: written once, read-modify-written when tiled.
    let out_a = (b.nrows * SPMM_RANK * 8) as f64 * if passes > 1.0 { 2.0 } else { 1.0 };
    (stream_b + gather_c + out_a) / 1e6
}

struct SpmmParetoBench {
    b: Arc<CsrMatrix>,
    c: DenseMatrix,
    name: String,
}

impl BlackBox for SpmmParetoBench {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        let sched = SpmmSchedule::from_config(cfg);
        let (_, secs) = spmm(&self.b, &self.c, &sched);
        Evaluation::feasible_multi(vec![secs * 1e3, spmm_traffic_mb(&self.b, &sched)])
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// The SpMM **runtime-vs-traffic** variant: wall-clock milliseconds plus the
/// schedule's analytic DRAM traffic (`spmm_traffic_mb`) as a second
/// minimized objective.
pub fn spmm_pareto_benchmark(tensor: &str, scale: TacoScale) -> Benchmark {
    let b = Arc::new(matrix(&spec(tensor), scale.factor()));
    let c = DenseMatrix::random(b.ncols, SPMM_RANK, 11);
    // Traffic is bounded by the all-passes worst case; runtime by a loose
    // wall-clock ceiling for the scaled tensor.
    let worst_traffic = {
        let worst = SpmmSchedule {
            order: [0, 1, 2],
            j_tile: 1,
            chunk: 1,
            threads: 1,
            scheme: crate::parallel::Scheme::Static,
            unroll: 1,
        };
        spmm_traffic_mb(&b, &worst) * 1.5
    };
    let space = spmm_space();
    Benchmark {
        name: format!("SpMM-pareto {tensor}"),
        group: Group::Taco,
        default_config: spmm_default(&space),
        expert_config: Some(spmm_expert(&space)),
        blackbox: Box::new(SpmmParetoBench {
            b,
            c,
            name: format!("SpMM-pareto {tensor}"),
        }),
        space,
        budget: 60,
        has_hidden_constraints: false,
        objective_names: vec!["runtime_ms".into(), "traffic_mb".into()],
        reference_point: Some(vec![10_000.0, worst_traffic]),
    }
}

/// Builds one SDDMM instance.
pub fn sddmm_benchmark(tensor: &str, scale: TacoScale) -> Benchmark {
    let b = Arc::new(matrix(&spec(tensor), scale.factor()));
    let c = DenseMatrix::random(b.nrows, SDDMM_RANK, 21);
    let d = DenseMatrix::random(b.ncols, SDDMM_RANK, 22);
    let space = sddmm_space();
    Benchmark {
        name: format!("SDDMM {tensor}"),
        group: Group::Taco,
        default_config: sddmm_default(&space),
        expert_config: Some(sddmm_expert(&space)),
        blackbox: Box::new(SddmmBench {
            b,
            c,
            d,
            name: format!("SDDMM {tensor}"),
        }),
        space,
        budget: 60,
        has_hidden_constraints: false,
        objective_names: vec!["runtime_ms".into()],
        reference_point: None,
    }
}

/// Builds one TTV instance.
pub fn ttv_benchmark(tensor: &str, scale: TacoScale) -> Benchmark {
    let b = Arc::new(tensor3(&spec(tensor), scale.factor()));
    let c: Vec<f64> = (0..b.dims[2])
        .map(|k| 0.2 + (k % 7) as f64 * 0.05)
        .collect();
    let space = ttv_space();
    Benchmark {
        name: format!("TTV {tensor}"),
        group: Group::Taco,
        default_config: ttv_default(&space),
        expert_config: Some(ttv_expert(&space)),
        blackbox: Box::new(TtvBench {
            b,
            c,
            name: format!("TTV {tensor}"),
        }),
        space,
        budget: 70,
        has_hidden_constraints: true,
        objective_names: vec!["runtime_ms".into()],
        reference_point: None,
    }
}

/// Builds one MTTKRP instance.
pub fn mttkrp_benchmark(tensor: &str, scale: TacoScale) -> Benchmark {
    let b = Arc::new(tensor4(&spec(tensor), scale.factor()));
    let c = DenseMatrix::random(b.dims[1], MTTKRP_RANK, 31);
    let d = DenseMatrix::random(b.dims[2], MTTKRP_RANK, 32);
    let e = DenseMatrix::random(b.dims[3], MTTKRP_RANK, 33);
    let space = mttkrp_space();
    Benchmark {
        name: format!("MTTKRP {tensor}"),
        group: Group::Taco,
        default_config: mttkrp_default(&space),
        expert_config: Some(mttkrp_expert(&space)),
        blackbox: Box::new(MttkrpBench {
            b,
            c,
            d,
            e,
            name: format!("MTTKRP {tensor}"),
        }),
        space,
        budget: 60,
        has_hidden_constraints: false,
        objective_names: vec!["runtime_ms".into()],
        reference_point: None,
    }
}

/// The full TACO suite: the 15 kernel × tensor instances of Tables 5–8.
pub fn taco_benchmarks(scale: TacoScale) -> Vec<Benchmark> {
    vec![
        spmm_benchmark("scircuit", scale),
        spmm_benchmark("cage12", scale),
        spmm_benchmark("laminar_duct3D", scale),
        sddmm_benchmark("email-Enron", scale),
        sddmm_benchmark("ACTIVSg10K", scale),
        sddmm_benchmark("Goodwin_040", scale),
        mttkrp_benchmark("uber", scale),
        mttkrp_benchmark("nips", scale),
        mttkrp_benchmark("chicago", scale),
        ttv_benchmark("facebook", scale),
        ttv_benchmark("uber3", scale),
        ttv_benchmark("random1", scale),
        spmv_benchmark("laminar_duct3D", scale),
        spmv_benchmark("cage12", scale),
        spmv_benchmark("filter3D", scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_shape_matches_paper() {
        let benches = taco_benchmarks(TacoScale::Test);
        assert_eq!(benches.len(), 15);
        for b in &benches {
            assert_eq!(b.group, Group::Taco);
            assert!(b.space.len() >= 6 && b.space.len() <= 7, "{}", b.name);
            assert!(
                b.param_kinds().contains('P'),
                "{} lacks permutation",
                b.name
            );
            assert!(!b.space.known_constraints().is_empty(), "{}", b.name);
        }
        // TTV carries the hidden constraint.
        assert!(benches.iter().filter(|b| b.has_hidden_constraints).count() == 3);
    }

    #[test]
    fn default_and_expert_evaluate() {
        for b in taco_benchmarks(TacoScale::Test) {
            let dv = b.default_value().unwrap();
            let ev = b.expert_value().unwrap();
            assert!(
                dv > 0.0 && ev > 0.0,
                "{}: default {dv}, expert {ev}",
                b.name
            );
        }
    }

    #[test]
    fn reference_configs_satisfy_known_constraints() {
        for b in taco_benchmarks(TacoScale::Test) {
            assert!(
                b.space.satisfies_known(&b.default_config).unwrap(),
                "{}",
                b.name
            );
            assert!(
                b.space
                    .satisfies_known(b.expert_config.as_ref().unwrap())
                    .unwrap(),
                "{}",
                b.name
            );
        }
    }

    #[test]
    fn ttv_has_hidden_infeasible_region() {
        let b = ttv_benchmark("random1", TacoScale::Test);
        // dense workspace × 8 threads on the (scaled) random1 tensor:
        // depending on dims this may or may not trip the limit; construct the
        // worst schedule and check both paths are reachable across scales.
        let worst = b
            .space
            .configuration(&[
                ("order", ParamValue::Permutation(vec![0, 1, 2])),
                ("workspace", ParamValue::Categorical("dense".into())),
                ("chunk", ParamValue::Ordinal(8.0)),
                ("threads", ParamValue::Ordinal(8.0)),
                ("scheme", ParamValue::Categorical("dynamic".into())),
                ("unroll", ParamValue::Ordinal(1.0)),
                ("block", ParamValue::Ordinal(64.0)),
            ])
            .unwrap();
        // Must evaluate without panicking either way.
        let _ = b.blackbox.evaluate(&worst);
    }

    #[test]
    fn feasible_sizes_are_smaller_than_dense() {
        for b in taco_benchmarks(TacoScale::Test).into_iter().take(4) {
            let cot = baco::cot::ChainOfTrees::build(&b.space).unwrap();
            let dense = b.space.dense_size().unwrap();
            assert!(cot.feasible_size() < dense, "{}", b.name);
        }
    }
}
