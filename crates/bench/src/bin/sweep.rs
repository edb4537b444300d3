//! The shared experiment sweep: every benchmark × the five tuners ×
//! `--reps` seeds, cached to `target/baco-sweep.csv` for the table/figure
//! binaries. This regenerates the raw data behind Fig. 5–7, 11 and
//! Tables 5–9.
//!
//! The paper runs 30 repetitions; the default here is 5 (`--reps 30` to
//! match). Pass benchmark names as positional arguments to restrict the
//! sweep.

use baco_bench::runner::{run_one, TunerKind};
use baco_bench::{all_benchmarks, cli, store};
use std::path::Path;
use std::time::Instant;

fn main() {
    let args = cli::parse();
    let mut benches = all_benchmarks(args.scale);
    if !args.positional.is_empty() {
        benches.retain(|b| args.positional.iter().any(|p| b.name.contains(p.as_str())));
        if benches.is_empty() {
            eprintln!("no benchmarks match {:?}", args.positional);
            std::process::exit(2);
        }
    }
    let t0 = Instant::now();
    let total = benches.len() * TunerKind::all().len() * args.reps;
    let mut done = 0usize;
    let mut results = Vec::with_capacity(total);
    for bench in &benches {
        for kind in TunerKind::all() {
            for rep in 0..args.reps {
                let seed = args.seed + rep as u64;
                match run_one(bench, kind, seed) {
                    Ok(r) => results.push(r),
                    Err(e) => eprintln!("{} / {} / seed {seed}: {e}", bench.name, kind.name()),
                }
                done += 1;
                if done.is_multiple_of(25) || done == total {
                    eprintln!(
                        "[{done}/{total}] {:.0?} elapsed — {} {}",
                        t0.elapsed(),
                        bench.name,
                        kind.name()
                    );
                }
            }
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| store::DEFAULT_PATH.to_string());
    store::save(Path::new(&path), &results).expect("write results");
    println!(
        "wrote {} runs to {path} in {:.0?}",
        results.len(),
        t0.elapsed()
    );
}
