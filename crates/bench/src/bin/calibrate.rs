//! Regenerates the hard-coded expert configurations of the substrates.
//!
//! The paper's experts come from prior publications where authors searched
//! manually or semi-automatically (Sec. 5.1). We reproduce that provenance
//! with a fixed-seed semi-automated search (an ATF run plus uniform
//! sampling), printing each benchmark's best configuration ready to paste
//! into the substrate sources. Run with `--scale small` (the default used by
//! the experiment sweeps).

use baco::baselines::{AtfTuner, Tuner, UniformSampler};
use baco_bench::{all_benchmarks, cli};

fn main() {
    let args = cli::parse();
    let budget = 400;
    for bench in all_benchmarks(args.scale) {
        if bench.expert_config.is_none() {
            continue; // HPVM2FPGA has no expert
        }
        let mut best: Option<(f64, baco::Configuration)> = None;
        for seed in [7u64, 8] {
            let mut atf = AtfTuner::with_budget(&bench.space, budget, seed).expect("tuner builds");
            let r = atf.run(&bench.blackbox).expect("atf run");
            if let Some(t) = r.best() {
                let v = t.value.expect("feasible best");
                if best.as_ref().is_none_or(|(b, _)| v < *b) {
                    best = Some((v, t.config.clone()));
                }
            }
            let mut uni =
                UniformSampler::new(&bench.space, budget, seed + 100).expect("sampler builds");
            let r = uni.run(&bench.blackbox).expect("uniform run");
            if let Some(t) = r.best() {
                let v = t.value.expect("feasible best");
                if best.as_ref().is_none_or(|(b, _)| v < *b) {
                    best = Some((v, t.config.clone()));
                }
            }
        }
        let (v, cfg) = best.expect("at least one feasible point");
        let current = bench.expert_value().unwrap_or(f64::NAN);
        println!(
            "## {}  (search best {v:.4} ms, current expert {current:.4} ms)",
            bench.name
        );
        for (name, val) in cfg.values() {
            println!(
                "    (\"{name}\", {}),",
                match val {
                    baco::ParamValue::Ordinal(x) => format!("ParamValue::Ordinal({x:.1})"),
                    baco::ParamValue::Int(x) => format!("ParamValue::Int({x})"),
                    baco::ParamValue::Real(x) => format!("ParamValue::Real({x})"),
                    baco::ParamValue::Categorical(s) => {
                        format!("ParamValue::Categorical(\"{s}\".into())")
                    }
                    baco::ParamValue::Permutation(p) => format!("perm(&{p:?})"),
                }
            );
        }
        println!();
    }
}
