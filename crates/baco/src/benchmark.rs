//! A packaged autotuning benchmark: a search space, a black box, reference
//! configurations and an evaluation budget. The three compiler substrates
//! (`taco-sim`, `gpu-sim`, `fpga-sim`) expose their workloads as
//! [`Benchmark`] values; the experiment harness sweeps them uniformly.
//!
//! ```
//! use baco::benchmark::{Benchmark, Group};
//! use baco::prelude::*;
//!
//! let space = SearchSpace::builder()
//!     .integer("tile", 1, 8)
//!     .permutation("order", 3)
//!     .build()?;
//! let bench = Benchmark {
//!     name: "demo".into(),
//!     group: Group::Taco,
//!     default_config: space.default_configuration(),
//!     expert_config: None,
//!     blackbox: Box::new(FnBlackBox::new(|c: &Configuration| {
//!         Evaluation::feasible(c.value("tile").as_f64())
//!     })),
//!     space,
//!     budget: 60,
//!     has_hidden_constraints: false,
//!     objective_names: vec!["runtime_ms".into()],
//!     reference_point: None,
//! };
//! assert_eq!(bench.param_kinds(), "I/P");
//! assert_eq!(bench.tiny_budget(), 20);
//! assert_eq!(bench.default_value(), Some(1.0));
//! assert_eq!(bench.n_objectives(), 1);
//! # Ok::<(), baco::Error>(())
//! ```

use crate::space::{Configuration, SearchSpace};
use crate::tuner::BlackBox;
use std::fmt;

/// Which compiler family a benchmark belongs to (the grouping of Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// Sparse tensor algebra on CPU.
    Taco,
    /// RISE & ELEVATE CPU/GPU kernels.
    Rise,
    /// HPVM2FPGA design-space exploration.
    Hpvm,
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Group::Taco => write!(f, "TACO"),
            Group::Rise => write!(f, "RISE & ELEVATE"),
            Group::Hpvm => write!(f, "HPVM2FPGA"),
        }
    }
}

/// A complete benchmark instance (one row of Table 3, specialized to one
/// input where applicable — e.g. `SpMM` × `scircuit`).
pub struct Benchmark {
    /// Display name, e.g. `"SpMM scircuit"`.
    pub name: String,
    /// Compiler family.
    pub group: Group,
    /// The tunable search space (with known constraints declared).
    pub space: SearchSpace,
    /// The system under tuning.
    pub blackbox: Box<dyn BlackBox + Send + Sync>,
    /// The compiler's untuned default configuration.
    pub default_config: Configuration,
    /// The expert configuration, when one exists (HPVM2FPGA has none).
    pub expert_config: Option<Configuration>,
    /// The paper's "Full Budget" for this benchmark.
    pub budget: usize,
    /// Whether the black box can fail (hidden constraints present).
    pub has_hidden_constraints: bool,
    /// Name of each objective the black box measures, in the order the
    /// [`Evaluation`](crate::Evaluation) vector reports them (all
    /// minimized). A single entry — the paper's benchmarks measure one
    /// runtime — keeps the classic scalar loop; multi-metric variants (e.g.
    /// fpga-sim latency/area) list one name per metric.
    pub objective_names: Vec<String>,
    /// Hypervolume reference point for multi-objective variants (raw
    /// objective units, one entry per objective); `None` for scalar
    /// benchmarks.
    pub reference_point: Option<Vec<f64>>,
}

impl Benchmark {
    /// Number of objectives the black box measures.
    pub fn n_objectives(&self) -> usize {
        self.objective_names.len().max(1)
    }
    /// Evaluates the default configuration, returning its objective.
    pub fn default_value(&self) -> Option<f64> {
        self.blackbox.evaluate(&self.default_config).value()
    }

    /// Evaluates the expert configuration, if one exists.
    pub fn expert_value(&self) -> Option<f64> {
        let cfg = self.expert_config.as_ref()?;
        self.blackbox.evaluate(cfg).value()
    }

    /// Tiny budget (⅓ of full, Table 3 / Fig. 5).
    pub fn tiny_budget(&self) -> usize {
        (self.budget / 3).max(1)
    }

    /// Small budget (⅔ of full).
    pub fn small_budget(&self) -> usize {
        (self.budget * 2 / 3).max(1)
    }

    /// Summary of the parameter types present, in Table 3's notation
    /// (R/I/O/C/P).
    pub fn param_kinds(&self) -> String {
        use crate::space::ParamKind::*;
        let mut have = [false; 5];
        for p in self.space.params() {
            let i = match p.kind() {
                Real { .. } => 0,
                Integer { .. } => 1,
                Ordinal { .. } => 2,
                Categorical { .. } => 3,
                Permutation { .. } => 4,
            };
            have[i] = true;
        }
        let letters = ["R", "I", "O", "C", "P"];
        let mut s = String::new();
        for (i, l) in letters.iter().enumerate() {
            if have[i] {
                if !s.is_empty() {
                    s.push('/');
                }
                s.push_str(l);
            }
        }
        s
    }

    /// Summary of the constraint kinds, in Table 3's notation (K/H).
    pub fn constraint_kinds(&self) -> String {
        let k = !self.space.known_constraints().is_empty();
        match (k, self.has_hidden_constraints) {
            (true, true) => "K/H".into(),
            (true, false) => "K".into(),
            (false, true) => "H".into(),
            (false, false) => "-".into(),
        }
    }
}

/// A latency-simulating wrapper for benchmark black boxes: sleeps a
/// deterministic, per-configuration amount before delegating, producing the
/// heterogeneous evaluation times of real compile+run workloads without
/// their noise. The latency is a pure function of the configuration (an
/// FNV-1a hash of its canonical string), so fixed-seed trajectories stay
/// reproducible and repeated evaluations of one configuration cost the
/// same — which is what makes wall-clock comparisons between the barriered
/// and speculative engines ([`crate::tuner::speculate`]) apples-to-apples.
///
/// A configurable percentage of configurations are "heavy" (straggler
/// compiles); the rest are "light". The `spec_pipeline` bench layers a
/// heavier profile on top via [`SimLatency::with_profile`].
pub struct SimLatency {
    inner: Box<dyn BlackBox + Send + Sync>,
    /// Light-tail sleep range, microseconds (inclusive).
    light_us: (u64, u64),
    /// Heavy-tail (straggler) sleep range, microseconds (inclusive).
    heavy_us: (u64, u64),
    /// Percentage (0–100) of configurations drawing from the heavy tail.
    heavy_pct: u64,
}

impl SimLatency {
    /// Wraps `inner` with the default mixed-latency profile: 15% of
    /// configurations sleep 40–80 ms (stragglers), the rest 2–6 ms.
    pub fn new(inner: Box<dyn BlackBox + Send + Sync>) -> SimLatency {
        SimLatency::with_profile(inner, (2_000, 6_000), (40_000, 80_000), 15)
    }

    /// Wraps `inner` with an explicit latency profile (ranges in
    /// microseconds; `heavy_pct` is clamped to 0–100).
    pub fn with_profile(
        inner: Box<dyn BlackBox + Send + Sync>,
        light_us: (u64, u64),
        heavy_us: (u64, u64),
        heavy_pct: u64,
    ) -> SimLatency {
        SimLatency {
            inner,
            light_us,
            heavy_us,
            heavy_pct: heavy_pct.min(100),
        }
    }

    /// The deterministic sleep, in microseconds, this wrapper charges `cfg`.
    pub fn latency_us(&self, cfg: &Configuration) -> u64 {
        // FNV-1a over the canonical configuration string: stable across
        // runs, platforms and (unlike `DefaultHasher`) Rust releases.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in cfg.to_string().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let (lo, hi) = if h % 100 < self.heavy_pct {
            self.heavy_us
        } else {
            self.light_us
        };
        lo + (h >> 8) % (hi.saturating_sub(lo) + 1)
    }
}

impl BlackBox for SimLatency {
    fn evaluate(&self, cfg: &Configuration) -> crate::tuner::Evaluation {
        std::thread::sleep(std::time::Duration::from_micros(self.latency_us(cfg)));
        self.inner.evaluate(cfg)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl fmt::Debug for SimLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimLatency")
            .field("name", &self.inner.name())
            .field("light_us", &self.light_us)
            .field("heavy_us", &self.heavy_us)
            .field("heavy_pct", &self.heavy_pct)
            .finish()
    }
}

impl fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("group", &self.group)
            .field("dims", &self.space.len())
            .field("budget", &self.budget)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{Evaluation, FnBlackBox};

    fn demo() -> Benchmark {
        let space = SearchSpace::builder()
            .integer("a", 0, 3)
            .permutation("p", 3)
            .known_constraint("a >= 1")
            .build()
            .unwrap();
        let default_config = space
            .configuration(&[
                ("a", crate::space::ParamValue::Int(1)),
                ("p", crate::space::ParamValue::Permutation(vec![0, 1, 2])),
            ])
            .unwrap();
        Benchmark {
            name: "demo".into(),
            group: Group::Taco,
            space: space.clone(),
            blackbox: Box::new(FnBlackBox::new(|c: &Configuration| {
                Evaluation::feasible(c.value("a").as_f64() + 1.0)
            })),
            default_config: default_config.clone(),
            expert_config: Some(default_config),
            budget: 60,
            has_hidden_constraints: false,
            objective_names: vec!["runtime_ms".into()],
            reference_point: None,
        }
    }

    #[test]
    fn budget_splits() {
        let b = demo();
        assert_eq!(b.tiny_budget(), 20);
        assert_eq!(b.small_budget(), 40);
    }

    #[test]
    fn reference_values() {
        let b = demo();
        assert_eq!(b.default_value(), Some(2.0));
        assert_eq!(b.expert_value(), Some(2.0));
    }

    #[test]
    fn sim_latency_is_deterministic_and_mixed() {
        let space = SearchSpace::builder().integer("x", 0, 99).build().unwrap();
        let sim = SimLatency::with_profile(
            Box::new(FnBlackBox::new(|c: &Configuration| {
                Evaluation::feasible(c.value("x").as_f64() + 1.0)
            })),
            (10, 20),
            (500, 600),
            20,
        );
        let mut light = 0;
        let mut heavy = 0;
        for x in 0..100 {
            let cfg = space
                .configuration(&[("x", crate::space::ParamValue::Int(x))])
                .unwrap();
            let us = sim.latency_us(&cfg);
            assert_eq!(us, sim.latency_us(&cfg), "latency must be pure");
            match us {
                10..=20 => light += 1,
                500..=600 => heavy += 1,
                other => panic!("latency {other}us outside both tails"),
            }
            // The wrapper only delays; values pass through untouched.
            assert_eq!(sim.evaluate(&cfg).value(), Some(x as f64 + 1.0));
        }
        assert!(
            light > 0 && heavy > 0,
            "mixture has {light} light / {heavy} heavy"
        );
        assert!(light > heavy, "the heavy tail must be the minority");
    }

    #[test]
    fn kind_summaries() {
        let b = demo();
        assert_eq!(b.param_kinds(), "I/P");
        assert_eq!(b.constraint_kinds(), "K");
        assert_eq!(Group::Rise.to_string(), "RISE & ELEVATE");
    }
}
