//! Table 4: the tensor inventory — paper dimensions and nonzero counts plus
//! the generated synthetic stand-in's actual statistics at the chosen scale.

use baco_bench::cli;
use baco_bench::stats::render_table;
use taco_sim::generate::{matrix, paper_tensors, tensor3, tensor4};

fn main() {
    let args = cli::parse();
    let factor = args.scale.factor();
    println!("== Table 4 — tensors (paper spec → generated at scale {factor}) ==");
    let mut rows = Vec::new();
    for spec in paper_tensors() {
        let dims_paper = match spec.order {
            2 => format!("{}×{}", spec.dims[0], spec.dims[1]),
            3 => format!("{}×{}×{}", spec.dims[0], spec.dims[1], spec.dims[2]),
            _ => format!(
                "{}×{}×{}×{}",
                spec.dims[0], spec.dims[1], spec.dims[2], spec.dims[3]
            ),
        };
        let (gen_dims, gen_nnz) = match spec.order {
            2 => {
                let m = matrix(&spec, factor);
                (format!("{}×{}", m.nrows, m.ncols), m.nnz())
            }
            3 => {
                let t = tensor3(&spec, factor);
                (
                    format!("{}×{}×{}", t.dims[0], t.dims[1], t.dims[2]),
                    t.nnz(),
                )
            }
            _ => {
                let t = tensor4(&spec, factor);
                (
                    format!("{}×{}×{}×{}", t.dims[0], t.dims[1], t.dims[2], t.dims[3]),
                    t.nnz(),
                )
            }
        };
        rows.push(vec![
            spec.name.to_string(),
            dims_paper,
            spec.nnz.to_string(),
            spec.dataset.to_string(),
            format!("{:?}", spec.family),
            gen_dims,
            gen_nnz.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "tensor",
                "paper dims",
                "paper nnz",
                "dataset",
                "family",
                "generated dims",
                "generated nnz"
            ],
            &rows
        )
    );
}
