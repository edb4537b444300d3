//! Quickstart: tune a synthetic compiler-flag space with BaCO in ~30 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use baco::prelude::*;

fn main() -> Result<(), baco::Error> {
    // A small mixed space: a log-scaled tile size, an unroll factor, a
    // parallelization scheme and a loop order, with one known constraint.
    let space = SearchSpace::builder()
        .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        .integer("unroll", 1, 8)
        .categorical("par", vec!["seq", "static", "dynamic"])
        .permutation("order", 3)
        .known_constraint("tile % unroll == 0")
        .build()?;

    // The "compiler": a black box mapping configurations to runtimes.
    // Good schedules use a medium tile, unroll 4, dynamic parallelism and
    // keep loop 0 before loop 2.
    let compiler = FnBlackBox::named("toy-compiler", |cfg| {
        let tile = cfg.value("tile").as_f64();
        let unroll = cfg.value("unroll").as_f64();
        let par = cfg.value("par");
        let order = cfg.value("order");
        let order = order.as_permutation();
        let pos0 = order.iter().position(|&e| e == 0).unwrap() as f64;
        let pos2 = order.iter().position(|&e| e == 2).unwrap() as f64;
        let mut t = 1.0;
        t += (tile.log2() - 3.0).powi(2) * 0.4; // best at tile = 8
        t += (unroll - 4.0).abs() * 0.3;
        t += match par.as_str() {
            "dynamic" => 0.0,
            "static" => 0.4,
            _ => 1.5,
        };
        t += if pos0 < pos2 { 0.0 } else { 2.0 }; // concordant order wins
        Evaluation::feasible(t)
    });

    let report = Baco::builder(space)
        .budget(40)
        .doe_samples(10)
        .seed(2026)
        .build()?
        .run(&compiler)?;

    let best = report.best().expect("at least one feasible result");
    println!("evaluated {} configurations", report.len());
    println!("best schedule: {}", best.config);
    println!("best runtime:  {:.3}", best.value.unwrap());
    println!(
        "trajectory: {:?}",
        report
            .trajectory()
            .iter()
            .map(|v| v.map(|x| (x * 100.0).round() / 100.0))
            .collect::<Vec<_>>()
    );
    assert!(
        best.value.unwrap() < 1.6,
        "BaCO should get close to the optimum (1.0)"
    );
    Ok(())
}
