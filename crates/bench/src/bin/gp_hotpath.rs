//! GP hot-path microbenchmark: batched vs scalar posterior prediction and
//! the cost of one surrogate fit, at training-set sizes
//! n ∈ {20, 60, 150, 400}. Prediction is timed through the GP's two entry
//! points, `predict` per candidate against `predict_batch_configs` over the
//! whole probe slice, so featurization is counted on both sides.
//!
//! Writes a machine-readable summary to `BENCH_gp_hotpath.json` (override
//! with `--out PATH`); the JSON carries per-size medians plus the headline
//! ratio the batched posterior targets: ≥5× candidate scoring at n = 150.
//!
//! Run with: `cargo run --release -p baco-bench --bin gp_hotpath`

use baco::space::SearchSpace;
use baco::surrogate::{GaussianProcess, GpOptions};
use baco_bench::emit;
use baco_bench::stats::median_secs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const SIZES: [usize; 4] = [20, 60, 150, 400];
const N_PROBES: usize = 512;

fn space() -> SearchSpace {
    SearchSpace::builder()
        .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        .integer("unroll", 1, 8)
        .integer("chunk", 1, 64)
        .categorical("par", vec!["seq", "static", "dynamic"])
        .permutation("ord", 4)
        .build()
        .unwrap()
}

fn objective(c: &baco::Configuration) -> f64 {
    let t = c.value("tile").as_f64().log2();
    let u = c.value("unroll").as_f64();
    let ch = c.value("chunk").as_f64();
    let p = c.value("ord").as_permutation()[0] as f64;
    1.0 + (t - 3.0).powi(2) + 0.3 * (u - 5.0).abs() + 0.01 * ch + 0.2 * p
}

/// Per-candidate prediction cost at one training-set size.
struct PredictRow {
    n: usize,
    scalar_ns: f64,
    batch_ns: f64,
}

struct FitRow {
    n: usize,
    fresh_ms: f64,
}

fn bench_predict(sp: &SearchSpace) -> Vec<PredictRow> {
    let mut rows = Vec::new();
    for &n in &SIZES {
        let mut rng = StdRng::seed_from_u64(42 + n as u64);
        let configs: Vec<_> = (0..n).map(|_| sp.sample_dense(&mut rng)).collect();
        let y: Vec<f64> = configs
            .iter()
            .map(|c| objective(c) * (1.0 + rng.gen_range(-0.03..0.03)))
            .collect();
        let gp = GaussianProcess::fit(sp, &configs, &y, &GpOptions::default(), &mut rng).unwrap();
        let probes: Vec<_> = (0..N_PROBES).map(|_| sp.sample_dense(&mut rng)).collect();

        let reps = if n >= 150 { 7 } else { 15 };
        let scalar = median_secs(reps, || {
            for p in &probes {
                black_box(gp.predict(black_box(p)));
            }
        });
        let batch = median_secs(reps, || {
            black_box(gp.predict_batch_configs(black_box(&probes)));
        });

        // Sanity: the two paths must agree before we compare their speed.
        let batch_res = gp.predict_batch_configs(&probes);
        for (p, (bm, bv)) in probes.iter().zip(&batch_res) {
            let (sm, sv) = gp.predict(p);
            assert!(
                (sm - bm).abs() <= 1e-9 * (1.0 + sm.abs()),
                "n={n}: {sm} vs {bm}"
            );
            assert!(
                (sv - bv).abs() <= 1e-9 * (1.0 + sv.abs()),
                "n={n}: {sv} vs {bv}"
            );
        }

        let row = PredictRow {
            n,
            scalar_ns: scalar / N_PROBES as f64 * 1e9,
            batch_ns: batch / N_PROBES as f64 * 1e9,
        };
        println!(
            "predict  n={n:>3}  scalar {:>9.1} ns/cand   batch {:>8.1} ns/cand   speedup {:>5.2}x",
            row.scalar_ns,
            row.batch_ns,
            row.scalar_ns / row.batch_ns
        );
        rows.push(row);
    }
    rows
}

fn bench_fit(sp: &SearchSpace) -> Vec<FitRow> {
    let mut rows = Vec::new();
    let opts = GpOptions::default();
    for &n in &SIZES {
        let mut rng = StdRng::seed_from_u64(1000 + n as u64);
        let configs: Vec<_> = (0..n).map(|_| sp.sample_dense(&mut rng)).collect();
        // Multiplicative measurement noise, as real kernel timings carry.
        let y: Vec<f64> = configs
            .iter()
            .map(|c| objective(c) * (1.0 + rng.gen_range(-0.03..0.03)))
            .collect();

        let fit_reps = if n >= 400 {
            2
        } else if n >= 150 {
            3
        } else {
            5
        };
        let fresh = median_secs(fit_reps, || {
            let mut rng = StdRng::seed_from_u64(7);
            black_box(GaussianProcess::fit(sp, &configs, &y, &opts, &mut rng).unwrap());
        });

        let row = FitRow {
            n,
            fresh_ms: fresh * 1e3,
        };
        println!("fit      n={n:>3}  fresh {:>10.2} ms", row.fresh_ms);
        rows.push(row);
    }
    rows
}

fn main() {
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_gp_hotpath.json".to_string())
    };

    let sp = space();
    println!("GP hot-path microbenchmark ({} probes/batch)\n", N_PROBES);
    let predict = bench_predict(&sp);
    println!();
    let fit = bench_fit(&sp);

    let p150 = predict.iter().find(|r| r.n == 150).unwrap();
    let predict_speedup_150 = p150.scalar_ns / p150.batch_ns;

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"gp_hotpath\",\n");
    json.push_str(&format!(
        "  \"probes_per_batch\": {N_PROBES},\n  \"predict\": [\n"
    ));
    for (i, r) in predict.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"scalar_ns_per_candidate\": {:.1}, \"batch_ns_per_candidate\": {:.1}, \"speedup\": {:.2}}}{}\n",
            r.n,
            r.scalar_ns,
            r.batch_ns,
            r.scalar_ns / r.batch_ns,
            if i + 1 < predict.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"fit\": [\n");
    for (i, r) in fit.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"fresh_ms\": {:.3}}}{}\n",
            r.n,
            r.fresh_ms,
            if i + 1 < fit.len() { "," } else { "" }
        ));
    }
    let checks = [emit::Check::ge(
        "batch_predict_speedup_at_n150",
        predict_speedup_150,
        5.0,
    )];
    json.push_str("  ],\n");
    json.push_str(&emit::criteria_block(&checks));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).unwrap();
    println!("\nwrote {out_path}");
    emit::print_criteria(&checks);
}
