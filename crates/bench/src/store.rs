//! CSV persistence for sweep results, so the table/figure binaries can share
//! one expensive sweep (`cargo run --bin sweep`).

use crate::runner::RunResult;
use std::io::Write;
use std::path::Path;

/// Default results path (relative to the workspace root).
pub const DEFAULT_PATH: &str = "target/baco-sweep.csv";

fn esc(s: &str) -> String {
    s.replace('|', "/")
}

/// Serializes results to a pipe-separated file (trajectories
/// semicolon-joined, infeasible prefixes as `-`).
///
/// # Errors
/// I/O errors.
pub fn save(path: &Path, results: &[RunResult]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "benchmark|group|tuner|seed|expert|default|eval_secs|tuner_secs|trajectory"
    )?;
    for r in results {
        let traj: Vec<String> = r
            .trajectory
            .iter()
            .map(|v| v.map_or("-".to_string(), |x| format!("{x:.9e}")))
            .collect();
        writeln!(
            f,
            "{}|{}|{}|{}|{}|{}|{:.6}|{:.6}|{}",
            esc(&r.benchmark),
            esc(&r.group),
            esc(&r.tuner),
            r.seed,
            r.expert.map_or("-".into(), |x| format!("{x:.9e}")),
            r.default.map_or("-".into(), |x| format!("{x:.9e}")),
            r.eval_secs,
            r.tuner_secs,
            traj.join(";"),
        )?;
    }
    Ok(())
}

/// Loads results saved by [`save`].
///
/// # Errors
/// I/O or format errors.
pub fn load(path: &Path) -> std::io::Result<Vec<RunResult>> {
    let text = std::fs::read_to_string(path)?;
    let mut out = Vec::new();
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    for (i, line) in text.lines().enumerate() {
        if i == 0 || line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split('|').collect();
        if parts.len() != 9 {
            return Err(bad(&format!("line {i}: expected 9 fields")));
        }
        let opt = |s: &str| -> Option<f64> {
            if s == "-" {
                None
            } else {
                s.parse().ok()
            }
        };
        out.push(RunResult {
            benchmark: parts[0].to_string(),
            group: parts[1].to_string(),
            tuner: parts[2].to_string(),
            seed: parts[3].parse().map_err(|_| bad("bad seed"))?,
            expert: opt(parts[4]),
            default: opt(parts[5]),
            eval_secs: parts[6].parse().map_err(|_| bad("bad eval_secs"))?,
            tuner_secs: parts[7].parse().map_err(|_| bad("bad tuner_secs"))?,
            trajectory: parts[8].split(';').map(opt).collect(),
        });
    }
    Ok(out)
}

/// Loads the default results file, or exits with a hint to run the sweep.
pub fn load_or_exit(path_override: Option<&str>) -> Vec<RunResult> {
    let path = path_override.unwrap_or(DEFAULT_PATH);
    match load(Path::new(path)) {
        Ok(v) if !v.is_empty() => v,
        _ => {
            eprintln!(
                "no sweep results at `{path}` — run `cargo run --release -p baco-bench --bin sweep` first"
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_load_roundtrip() {
        let r = RunResult {
            benchmark: "SpMM scircuit".into(),
            group: "TACO".into(),
            tuner: "BaCO".into(),
            seed: 3,
            trajectory: vec![None, Some(2.5), Some(1.25)],
            expert: Some(1.5),
            default: None,
            eval_secs: 0.25,
            tuner_secs: 1.5,
        };
        let dir = std::env::temp_dir().join("baco-store-test");
        let path = dir.join("x.csv");
        save(&path, std::slice::from_ref(&r)).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.len(), 1);
        let b = &back[0];
        assert_eq!(b.benchmark, r.benchmark);
        assert_eq!(b.seed, 3);
        assert_eq!(b.trajectory.len(), 3);
        assert_eq!(b.trajectory[0], None);
        assert!((b.trajectory[2].unwrap() - 1.25).abs() < 1e-12);
        assert_eq!(b.default, None);
        assert!((b.expert.unwrap() - 1.5).abs() < 1e-12);
        std::fs::remove_dir_all(dir).ok();
    }
}
