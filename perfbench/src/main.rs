//! The repository benchmark: deterministic BaCO tuning workloads measured
//! end to end, with an optional traced replay that splits each proposal
//! round into its layers. See `perfbench/README.md`.
//!
//! Usage:
//! `baco-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer ledger with `--trace 1`.

mod fleet;
mod ledger;
mod mmgpu;
mod stats;
mod sys;

use ledger::Ledger;
use stats::{geomean, mean, Samples};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// How many times each unit's set-up is repeated (the last one is used);
/// `setup_s` is the median over every repetition of every timed unit.
pub const SETUP_REPS: usize = 3;

/// The workloads this binary runs. `rise_mmgpu_seq` is not in
/// `BENCHMARK.json`: its per-seed cost varies too much to gate (README).
const WORKLOADS: [&str; 3] = ["rise_mmgpu_seq", "rise_mmgpu_batch", "hpvm_fleet_tcp"];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for journals, inside the working directory.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let num = |flag: &str, v: String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work: PathBuf::from(".perfbench_work"),
    })
}

/// Everything one run measured and checked. Gated timings are process CPU
/// time (every thread: client, server and tuner), which excludes what the
/// hypervisor steals; wall-clock twins are reported beside them.
#[derive(Debug, Default)]
pub struct Outcome {
    /// CPU seconds of each set-up repetition.
    pub setup_s: Samples,
    /// Wall-clock of each timed unit from its first ask to its last report.
    pub run_s: Samples,
    /// CPU seconds over the same span.
    pub run_cpu_s: Samples,
    /// Wall-clock of each unit including set-up and checks (for pacing).
    pub unit_s: Samples,
    /// Wall-clock and CPU milliseconds of each timed ask.
    pub ask_ms: Samples,
    pub ask_cpu_ms: Samples,
    /// Quality over the fixed panel: one entry per session.
    pub vs_default: Vec<f64>,
    pub vs_expert: Vec<f64>,
    pub vs_expert_tiny: Vec<f64>,
    pub evals_to_expert: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub led: Ledger,
    pub env: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            println!("CHECK FAILED: {msg}");
            self.errors.push(msg);
        }
    }

    pub fn stamp(&mut self, key: &str, value: impl ToString) {
        self.env.push((key.to_string(), value.to_string()));
    }
}

/// Runs units until the fixed quality panel is done and, untraced, until
/// `--seconds` would be exceeded by one more unit. Traced runs stop at the
/// panel: the ledger describes the same sessions as the quality numbers.
pub fn drive(
    args: &Args,
    panel: usize,
    out: &mut Outcome,
    mut unit: impl FnMut(usize, bool, &mut Outcome),
) {
    let start = Instant::now();
    let mut u = 0;
    loop {
        if u >= panel {
            let next = out.unit_s.median();
            if args.trace || start.elapsed().as_secs_f64() + next > args.seconds {
                break;
            }
        }
        let t = Instant::now();
        unit(u, u < panel, out);
        out.unit_s.push(t.elapsed().as_secs_f64());
        u += 1;
    }
    out.stamp("units", u);
    out.stamp("panel_units", panel);
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

/// A percentile metric, annotated with its sample count; flagged when fewer
/// than ten samples lie beyond it.
fn pct(name: &'static str, s: &Samples, q: f64, unit: &'static str) -> Metric {
    let beyond = s.beyond(q);
    let thin = if s.len() > 0 && beyond < 10 {
        " THIN"
    } else {
        ""
    };
    Metric {
        name,
        value: s.pct(q),
        unit,
        note: format!("n={} beyond={beyond}{thin}", s.len()),
    }
}

fn counted(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: format!("n={n}"),
    }
}

fn end_to_end(out: &mut Outcome) -> Vec<Metric> {
    // Every end-to-end percentile must rest on at least ten samples beyond
    // it, or it is not a number worth gating on.
    for (name, q) in [("ask_cpu_ms_p50", 0.5), ("ask_cpu_ms_p90", 0.9)] {
        let beyond = out.ask_cpu_ms.beyond(q);
        out.check(beyond >= 10, || {
            format!("{name} rests on {beyond} samples beyond it")
        });
    }
    let ok_frac = if out.attempted == 0 {
        0.0
    } else {
        (out.attempted - out.failed) as f64 / out.attempted as f64
    };
    vec![
        counted("setup_s", out.setup_s.median(), "s", out.setup_s.len()),
        counted(
            "run_cpu_s",
            out.run_cpu_s.median(),
            "s",
            out.run_cpu_s.len(),
        ),
        pct("ask_cpu_ms_p50", &out.ask_cpu_ms, 0.5, "ms"),
        pct("ask_cpu_ms_p90", &out.ask_cpu_ms, 0.9, "ms"),
        counted(
            "speedup_vs_default",
            geomean(&out.vs_default),
            "ratio",
            out.vs_default.len(),
        ),
        counted("ok_frac", ok_frac, "ratio", out.attempted as usize),
        Metric {
            name: "peak_rss_mb",
            value: sys::peak_rss_mb(),
            unit: "MB",
            note: String::new(),
        },
    ]
}

fn per_layer(out: &Outcome) -> Vec<Metric> {
    let l = &out.led;
    let fit_share = if l.ask_ms.sum() > 0.0 {
        l.fit_ms.sum() / l.ask_ms.sum()
    } else {
        0.0
    };
    let per_cand = if l.predict_cands > 0.0 {
        l.predict_us / l.predict_cands
    } else {
        0.0
    };
    let mut share = counted("gp.fit_share", fit_share, "ratio", l.fit_ms.len());
    share.note = format!(
        "fit {:.1} ms / ask {:.1} ms",
        l.fit_ms.sum(),
        l.ask_ms.sum()
    );
    let mut cand = counted(
        "gp.predict_us_per_cand",
        per_cand,
        "us",
        l.predict_cands as usize,
    );
    cand.note = format!("{:.0} us / {:.0} candidates", l.predict_us, l.predict_cands);
    vec![
        counted(
            "quality.speedup_vs_expert",
            geomean(&out.vs_expert),
            "ratio",
            out.vs_expert.len(),
        ),
        counted(
            "quality.speedup_vs_expert_tiny",
            geomean(&out.vs_expert_tiny),
            "ratio",
            out.vs_expert_tiny.len(),
        ),
        counted(
            "quality.evals_to_expert",
            mean(&out.evals_to_expert),
            "count",
            out.evals_to_expert.len(),
        ),
        counted(
            "cot.build_ms",
            l.cot_build_ms.median(),
            "ms",
            l.cot_build_ms.len(),
        ),
        counted(
            "search.sample_us",
            l.sample_us.median(),
            "us",
            l.sample_us.len(),
        ),
        pct("gp.fit_ms_p50", &l.fit_ms, 0.5, "ms"),
        pct("gp.fit_ms_p90", &l.fit_ms, 0.9, "ms"),
        share,
        counted(
            "gp.condition_ms",
            l.condition_ms.median(),
            "ms",
            l.condition_ms.len(),
        ),
        cand,
        counted("rf.fit_ms", l.rf_fit_ms.median(), "ms", l.rf_fit_ms.len()),
        counted(
            "search.local_search_ms",
            l.local_search_ms.median(),
            "ms",
            l.local_search_ms.len(),
        ),
        counted(
            "search.cands_scored",
            l.cands_scored.median(),
            "count",
            l.cands_scored.len(),
        ),
        pct("tuner.ask_ms_p50", &l.ask_ms, 0.5, "ms"),
        pct("tuner.ask_ms_p90", &l.ask_ms, 0.9, "ms"),
        counted(
            "tuner.unattributed_ms",
            l.unattributed_ms.median(),
            "ms",
            l.unattributed_ms.len(),
        ),
        counted(
            "eval.us_per_eval",
            l.eval_us.median(),
            "us",
            l.eval_us.len(),
        ),
        pct("journal.append_us_p50", &l.journal_append_us, 0.5, "us"),
        pct("journal.append_us_p90", &l.journal_append_us, 0.9, "us"),
        counted(
            "journal.appends_per_eval",
            mean(&l.appends_per_eval.0),
            "count",
            l.appends_per_eval.len(),
        ),
        pct("server.status_ms_p50", &l.status_ms, 0.5, "ms"),
        pct("server.report_ms_p50", &l.report_ms, 0.5, "ms"),
        pct("server.report_ms_p90", &l.report_ms, 0.9, "ms"),
        pct(
            "server.report_inproc_us_p50",
            &l.report_inproc_us,
            0.5,
            "us",
        ),
        pct("server.ask_overhead_ms_p50", &l.ask_overhead_ms, 0.5, "ms"),
        counted(
            "server.create_ms",
            l.create_ms.median(),
            "ms",
            l.create_ms.len(),
        ),
        counted("trace.run_s", out.run_s.median(), "s", out.run_s.len()),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("baco-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Journals live in a scratch directory inside the working directory;
    // start from an empty one and leave nothing behind.
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("baco-perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }

    let mut out = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.stamp("workload", &args.workload);
    out.stamp("seed", args.seed);
    out.stamp("seconds", args.seconds);
    out.stamp("trace", u8::from(args.trace));
    out.stamp("nproc", nproc);
    out.stamp(
        "gp_threads",
        format!(
            "{} (0 = all cores)",
            baco::surrogate::GpOptions::default().threads
        ),
    );

    let ticks = sys::cpu_ticks();
    match args.workload.as_str() {
        "rise_mmgpu_seq" => mmgpu::run(&args, 1, &mut out),
        "rise_mmgpu_batch" => mmgpu::run(&args, 4, &mut out),
        _ => fleet::run(&args, &mut out),
    }
    let _ = std::fs::remove_dir_all(&args.work);
    let (total, steal) = sys::cpu_ticks();
    let steal_pct = 100.0 * (steal - ticks.1) as f64 / (total - ticks.0).max(1) as f64;
    out.stamp("steal_pct", format!("{steal_pct:.1}"));

    // Wall-clock twins of the gated CPU timings, for the reader only.
    println!(
        "wall: run_s {:.4} ask_ms_p50 {:.4} ask_ms_p90 {:.4}",
        out.run_s.median(),
        out.ask_ms.pct(0.5),
        out.ask_ms.pct(0.9)
    );
    let metrics = if args.trace {
        per_layer(&out)
    } else {
        end_to_end(&mut out)
    };
    let env: Vec<String> = out.env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("env: {}", env.join(" "));
    for m in &metrics {
        println!("{:<32} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let correct = out.errors.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
