//! Minimal `--flag value` argument parsing shared by the experiment
//! binaries (no external CLI crate needed).

use taco_sim::benchmarks::TacoScale;

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct Args {
    /// Repetitions per (benchmark, tuner) pair.
    pub reps: usize,
    /// TACO tensor scale.
    pub scale: TacoScale,
    /// Base RNG seed.
    pub seed: u64,
    /// Output path override.
    pub out: Option<String>,
    /// Free-standing positional arguments.
    pub positional: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            reps: 5,
            scale: TacoScale::Small,
            seed: 0,
            out: None,
            positional: Vec::new(),
        }
    }
}

/// Parses `std::env::args`, exiting with a usage message on malformed input.
pub fn parse() -> Args {
    parse_from(std::env::args().skip(1))
}

/// Parses an explicit iterator (testable).
pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Args {
    let mut out = Args::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut need = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--reps" => {
                out.reps = need("--reps").parse().unwrap_or_else(|_| {
                    eprintln!("--reps must be a positive integer");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                out.seed = need("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed must be an integer");
                    std::process::exit(2);
                });
            }
            "--scale" => {
                out.scale = match need("--scale").as_str() {
                    "test" => TacoScale::Test,
                    "small" => TacoScale::Small,
                    "large" => TacoScale::Large,
                    other => {
                        eprintln!("unknown scale `{other}` (test|small|large)");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => out.out = Some(need("--out")),
            "--help" | "-h" => {
                eprintln!(
                    "flags: --reps N  --scale test|small|large  --seed S  --out PATH  [names…]"
                );
                std::process::exit(0);
            }
            other => out.positional.push(other.to_string()),
        }
    }
    out
}

/// The value after `name` in `args` (`--budget 48` → `"48"`), if present:
/// the one-flag lookup of the bench binaries that take their own flags.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_positional() {
        let a = parse_from(
            [
                "--reps",
                "7",
                "--scale",
                "test",
                "--seed",
                "9",
                "SpMM scircuit",
            ]
            .into_iter()
            .map(String::from),
        );
        assert_eq!(a.reps, 7);
        assert_eq!(a.scale, TacoScale::Test);
        assert_eq!(a.seed, 9);
        assert_eq!(a.positional, vec!["SpMM scircuit"]);
    }

    #[test]
    fn defaults() {
        let a = parse_from(Vec::<String>::new());
        assert_eq!(a.reps, 5);
        assert_eq!(a.scale, TacoScale::Small);
    }
}
