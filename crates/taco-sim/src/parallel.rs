//! The parallel-execution model: measured single-thread kernel time is
//! distributed over row-chunks proportionally to their work, and the
//! multi-threaded runtime is the makespan of assigning those chunks to
//! threads — round-robin for `static` scheduling, greedy least-loaded for
//! `dynamic` — plus realistic per-chunk and per-thread overheads.
//!
//! Load imbalance is therefore driven by the *real* nonzero structure: a
//! power-law matrix with large static chunks concentrates work on one thread
//! exactly as it would on hardware.

/// Per-chunk dispatch overhead of static round-robin scheduling (seconds).
pub const STATIC_CHUNK_OVERHEAD: f64 = 60e-9;
/// Per-chunk dispatch overhead of dynamic (work-queue) scheduling (seconds).
pub const DYNAMIC_CHUNK_OVERHEAD: f64 = 220e-9;
/// Per-thread fork/join overhead per kernel launch (seconds).
pub const THREAD_OVERHEAD: f64 = 12e-6;

/// How row-chunks are assigned to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Chunk `c` runs on thread `c mod threads`.
    Static,
    /// Chunks are pulled from a queue (modeled as greedy least-loaded,
    /// the long-run behaviour of a work queue).
    Dynamic,
}

/// A parallel execution policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Number of worker threads.
    pub threads: usize,
    /// How chunks are assigned.
    pub scheme: Scheme,
}

/// Splits `row_work` (work units per row, e.g. nonzeros) into chunks of
/// `chunk_rows` rows and returns the per-chunk totals.
pub fn chunk_work(row_work: &[f64], chunk_rows: usize) -> Vec<f64> {
    let chunk_rows = chunk_rows.max(1);
    row_work
        .chunks(chunk_rows)
        .map(|c| c.iter().sum())
        .collect()
}

/// Simulated parallel runtime: `measured_serial` seconds of real work,
/// distributed over `chunk_costs` (arbitrary nonnegative weights), executed
/// under `policy`.
///
/// With one thread this degenerates to `measured_serial` plus chunk
/// overheads, so the tuner still pays for absurdly small chunks.
pub fn parallel_time(measured_serial: f64, chunk_costs: &[f64], policy: Policy) -> f64 {
    let threads = policy.threads.max(1);
    let total_work: f64 = chunk_costs.iter().sum();
    if chunk_costs.is_empty() || total_work <= 0.0 {
        return measured_serial + THREAD_OVERHEAD * threads as f64;
    }
    let per_chunk_overhead = match policy.scheme {
        Scheme::Static => STATIC_CHUNK_OVERHEAD,
        Scheme::Dynamic => DYNAMIC_CHUNK_OVERHEAD,
    };
    let scale = measured_serial / total_work;
    let makespan_work = if threads == 1 {
        total_work
    } else {
        match policy.scheme {
            Scheme::Static => {
                let mut loads = vec![0.0f64; threads];
                for (c, &w) in chunk_costs.iter().enumerate() {
                    loads[c % threads] += w;
                }
                loads.into_iter().fold(0.0, f64::max)
            }
            Scheme::Dynamic => {
                // Greedy: each chunk (in order) goes to the least-loaded
                // thread — the fluid limit of a work queue.
                let mut loads = vec![0.0f64; threads];
                for &w in chunk_costs {
                    let (mi, _) = loads
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.total_cmp(b.1))
                        .expect("threads >= 1");
                    loads[mi] += w;
                }
                loads.into_iter().fold(0.0, f64::max)
            }
        }
    };
    let chunks_per_thread = (chunk_costs.len() as f64 / threads as f64).ceil();
    makespan_work * scale
        + chunks_per_thread * per_chunk_overhead
        + THREAD_OVERHEAD * threads as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_sums_rows() {
        let w = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(chunk_work(&w, 2), vec![3.0, 7.0, 5.0]);
        assert_eq!(chunk_work(&w, 10), vec![15.0]);
        assert_eq!(chunk_work(&w, 0), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn balanced_work_scales_nearly_linearly() {
        let chunks = vec![1.0; 64];
        let t1 = parallel_time(
            1.0,
            &chunks,
            Policy {
                threads: 1,
                scheme: Scheme::Static,
            },
        );
        let t4 = parallel_time(
            1.0,
            &chunks,
            Policy {
                threads: 4,
                scheme: Scheme::Static,
            },
        );
        assert!(t4 < t1 / 3.0, "t1 {t1} t4 {t4}");
    }

    #[test]
    fn skewed_static_chunks_bottleneck_one_thread() {
        // One giant chunk dominates: static or dynamic, makespan ≈ big chunk.
        let mut chunks = vec![0.01; 63];
        chunks.push(10.0);
        let t4 = parallel_time(
            1.0,
            &chunks,
            Policy {
                threads: 4,
                scheme: Scheme::Static,
            },
        );
        // The big chunk is ~94 % of the work → hardly any speedup.
        assert!(t4 > 0.9, "t4 {t4}");
    }

    #[test]
    fn dynamic_beats_static_on_alternating_skew() {
        // Round-robin static puts all heavy chunks on thread 0 when the
        // pattern period matches the thread count; dynamic rebalances.
        let mut chunks = Vec::new();
        for i in 0..32 {
            chunks.push(if i % 4 == 0 { 1.0 } else { 0.01 });
        }
        let st = parallel_time(
            1.0,
            &chunks,
            Policy {
                threads: 4,
                scheme: Scheme::Static,
            },
        );
        let dy = parallel_time(
            1.0,
            &chunks,
            Policy {
                threads: 4,
                scheme: Scheme::Dynamic,
            },
        );
        assert!(dy < st, "dynamic {dy} vs static {st}");
    }

    #[test]
    fn tiny_chunks_pay_overhead() {
        let many = vec![0.001; 10_000];
        let few = vec![1.0; 10];
        let t_many = parallel_time(
            0.001,
            &many,
            Policy {
                threads: 2,
                scheme: Scheme::Dynamic,
            },
        );
        let t_few = parallel_time(
            0.001,
            &few,
            Policy {
                threads: 2,
                scheme: Scheme::Dynamic,
            },
        );
        assert!(t_many > t_few * 2.0, "many {t_many} few {t_few}");
    }

    #[test]
    fn empty_work_is_overhead_only() {
        let t = parallel_time(
            0.5,
            &[],
            Policy {
                threads: 2,
                scheme: Scheme::Static,
            },
        );
        assert!(t >= 0.5);
    }
}
