//! `rise_mmgpu_seq` / `rise_mmgpu_batch`: gpu-sim MM_GPU at the paper's
//! full budget, one in-process `Session` per unit, driven by `ask` (q = 1)
//! or by `suggest_batch(q)` followed by `q` reports in proposal order.
//!
//! gpu-sim draws its run-to-run noise from a process-wide counter, so every
//! evaluation happens on this thread in a fixed order: the expert and
//! default references first, then each session's proposals as proposed.

use crate::ledger::{Obs, Replayer};
use crate::stats::{derive_seed, ms, us, Digest, Samples};
use crate::sys::process_cpu_s;
use crate::{drive, Args, Outcome, SETUP_REPS};
use baco::benchmark::Benchmark;
use baco::search::FeasibleSampler;
use baco::tuner::{Baco, Session};
use baco::Configuration;
use std::collections::HashSet;
use std::time::Instant;

/// Design-of-experiments size (the paper harness's `min(10, budget / 2)`).
const DOE: usize = 10;

/// Sessions in the fixed quality panel, per round size.
fn panel(q: usize) -> usize {
    if q == 1 {
        2
    } else {
        5
    }
}

/// Median of three evaluations of a reference configuration.
fn reference_value(bench: &Benchmark, cfg: &Configuration) -> Option<f64> {
    let mut vals: Vec<f64> = (0..3)
        .filter_map(|_| bench.blackbox.evaluate(cfg).value())
        .collect();
    vals.sort_by(f64::total_cmp);
    vals.get(vals.len() / 2).copied()
}

pub fn run(args: &Args, q: usize, out: &mut Outcome) {
    let refs = gpu_sim::benchmarks::mm_gpu();
    let expert = refs
        .expert_config
        .as_ref()
        .and_then(|c| reference_value(&refs, c));
    let default = reference_value(&refs, &refs.default_config);
    let (Some(expert), Some(default)) = (expert, default) else {
        out.check(false, || {
            "MM_GPU expert/default reference is infeasible".into()
        });
        return;
    };
    out.stamp("q", q);
    out.stamp("expert_ms", expert);
    out.stamp("default_ms", default);
    drive(args, panel(q), out, |u, in_panel, out| {
        session(args, q, u, in_panel, expert, default, out)
    });
}

fn session(
    args: &Args,
    q: usize,
    u: usize,
    in_panel: bool,
    expert: f64,
    default: f64,
    out: &mut Outcome,
) {
    let seed = derive_seed(args.seed, u, 0);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let cpu = process_cpu_s();
        let bench = gpu_sim::benchmarks::mm_gpu();
        let session = Baco::builder(bench.space.clone())
            .budget(bench.budget)
            .doe_samples(DOE)
            .seed(seed)
            .build()
            .and_then(Session::new);
        out.setup_s.push(process_cpu_s() - cpu);
        built = Some((bench, session));
    }
    let Some((bench, Ok(mut session))) = built else {
        out.op(false);
        out.check(false, || format!("session {u}: set-up failed"));
        return;
    };
    out.op(true);
    let mut replay = args.trace.then(|| {
        let t = Instant::now();
        let sampler = FeasibleSampler::new(&bench.space);
        out.led.cot_build_ms.push(ms(t.elapsed()));
        out.check(sampler.is_ok(), || "FeasibleSampler::new failed".into());
        let mut r = Replayer::new(session.tuner());
        r.doe(session.tuner(), &mut out.led);
        r
    });

    let mut hist: Vec<Obs> = Vec::with_capacity(bench.budget);
    let mut seen: HashSet<Configuration> = HashSet::new();
    let mut digest = Digest::default();
    let mut asks = Samples::default();
    let t_run = Instant::now();
    let cpu_run = process_cpu_s();
    while session.remaining_budget() > 0 {
        let doe_left = DOE.saturating_sub(hist.len());
        let t = Instant::now();
        let c0 = process_cpu_s();
        let round = if q == 1 {
            session.ask().map(|c| c.into_iter().collect::<Vec<_>>())
        } else {
            session.suggest_batch(q)
        };
        let ask = ms(t.elapsed());
        out.ask_cpu_ms.push((process_cpu_s() - c0) * 1e3);
        let round = match round {
            Ok(r) if !r.is_empty() => r,
            other => {
                out.op(false);
                out.check(false, || {
                    format!("session {u}: no proposal with budget left: {other:?}")
                });
                break;
            }
        };
        out.op(true);
        out.ask_ms.push(ask);
        out.led.ask_ms.push(ask);
        asks.push(ask);
        for cfg in &round {
            out.check(session.tuner().sampler().contains(cfg), || {
                format!("session {u}: {cfg} violates a known constraint")
            });
            out.check(seen.insert(cfg.clone()), || {
                format!("session {u}: {cfg} proposed twice")
            });
            digest.add(&cfg.to_string());
        }
        if let Some(r) = replay.as_mut() {
            let doe_k = doe_left.min(round.len());
            let excluded: HashSet<Configuration> = hist
                .iter()
                .map(|(c, _)| c.clone())
                .chain(round[..doe_k].iter().cloned())
                .collect();
            let replayed = r.round(
                session.tuner(),
                &hist,
                &excluded,
                round.len() - doe_k,
                &mut out.led,
            );
            if replayed > 0.0 {
                out.led.unattributed_ms.push(ask - replayed);
            }
        }
        for cfg in round {
            let t = Instant::now();
            let eval = bench.blackbox.evaluate(&cfg);
            out.led.eval_us.push(us(t.elapsed()));
            hist.push((cfg.clone(), eval.value().filter(|_| eval.is_feasible())));
            let reported = session.try_report(cfg, eval);
            out.op(reported.is_ok());
        }
    }
    let run_s = t_run.elapsed().as_secs_f64();
    out.run_cpu_s.push(process_cpu_s() - cpu_run);
    out.run_s.push(run_s);

    out.check(
        hist.len() == bench.budget && session.history().len() == bench.budget,
        || {
            format!(
                "session {u}: reported {} of budget {}",
                session.history().len(),
                bench.budget
            )
        },
    );
    let best_within = |n: usize| {
        hist.iter()
            .take(n)
            .filter_map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min)
    };
    let best = best_within(hist.len());
    let tiny = best_within(bench.tiny_budget());
    let reached = hist
        .iter()
        .position(|(_, v)| v.is_some_and(|v| v <= expert))
        .map_or(bench.budget + 1, |i| i + 1);
    println!(
        "session {u} seed {seed} digest {:016x} run_s {run_s:.3} ask_p50 {:.1} ask_p90 {:.1} feasible {} best {best:.6} tiny {tiny:.6} evals_to_expert {reached}{}",
        digest.value(),
        asks.median(),
        asks.pct(0.9),
        hist.iter().filter(|(_, v)| v.is_some()).count(),
        if in_panel { "" } else { " (timing only)" }
    );
    out.check(best.is_finite() && tiny.is_finite(), || {
        format!("session {u}: nothing feasible")
    });
    if in_panel && best.is_finite() && tiny.is_finite() {
        out.vs_default.push(default / best);
        out.vs_expert.push(expert / best);
        out.vs_expert_tiny.push(expert / tiny);
        out.evals_to_expert.push(reached as f64);
    }
}
