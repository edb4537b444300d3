//! Tables 1 & 2: the framework-capability and compiler-requirement matrices
//! (static facts, printed from `baco_bench::capabilities` so the code and the
//! paper stay in sync).

use baco_bench::capabilities::{compiler_requirements, framework_capabilities};
use baco_bench::stats::render_table;

fn main() {
    println!("== Table 1 — autotuning framework capabilities ==");
    let rows: Vec<Vec<String>> = framework_capabilities()
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.rioc.glyph().to_string(),
                r.permutation.glyph().to_string(),
                r.hidden.glyph().to_string(),
                r.known.glyph().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["framework", "RIOC", "Perm.", "Hidden", "Known"], &rows)
    );

    println!("== Table 2 — features needed by the compilers ==");
    let rows: Vec<Vec<String>> = compiler_requirements()
        .into_iter()
        .map(|r| {
            let y = |b: bool| if b { "✓" } else { "" }.to_string();
            vec![r.name.to_string(), y(r.rioc), y(r.permutation), y(r.hidden), y(r.known)]
        })
        .collect();
    println!(
        "{}",
        render_table(&["compiler", "RIOC", "Perm.", "Hidden", "Known"], &rows)
    );
}
