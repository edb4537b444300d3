//! The device model: a K80-class GPU (one GK210 die) and the shared
//! occupancy / coalescing / noise primitives every kernel model uses.

/// A GPU device description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuDevice {
    /// Streaming multiprocessors.
    pub sm_count: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum threads per workgroup.
    pub max_workgroup: usize,
    /// 32-bit registers per SM.
    pub registers_per_sm: usize,
    /// Shared memory per workgroup (bytes).
    pub shared_per_wg: usize,
    /// Warp width.
    pub warp: usize,
    /// Single-precision peak (GFLOP/s).
    pub peak_gflops: f64,
    /// DRAM bandwidth (GB/s).
    pub dram_gbps: f64,
    /// Kernel launch overhead (seconds).
    pub launch_overhead: f64,
}

/// The K80-class device used by all GPU benchmarks (one GK210 die).
pub fn k80() -> GpuDevice {
    GpuDevice {
        sm_count: 13,
        max_threads_per_sm: 2048,
        max_workgroup: 1024,
        registers_per_sm: 131_072,
        shared_per_wg: 48 * 1024,
        warp: 32,
        peak_gflops: 2800.0,
        dram_gbps: 240.0,
        launch_overhead: 8e-6,
    }
}

impl GpuDevice {
    /// Fraction of peak thread-occupancy achieved by workgroups of
    /// `wg_threads` threads using `regs_per_thread` registers and
    /// `shared_bytes` of shared memory, or `None` when the workgroup cannot
    /// launch at all (hidden constraint: failed build/launch).
    pub fn occupancy(
        &self,
        wg_threads: usize,
        regs_per_thread: usize,
        shared_bytes: usize,
    ) -> Option<f64> {
        if wg_threads == 0 || wg_threads > self.max_workgroup {
            return None;
        }
        if shared_bytes > self.shared_per_wg {
            return None;
        }
        if regs_per_thread * wg_threads > self.registers_per_sm {
            return None;
        }
        // Workgroups per SM limited by threads, registers and shared memory.
        let by_threads = self.max_threads_per_sm / wg_threads;
        let by_regs = if regs_per_thread > 0 {
            self.registers_per_sm / (regs_per_thread * wg_threads)
        } else {
            by_threads
        };
        // Model a per-SM shared pool of 2 workgroups' worth.
        let by_shared = (2 * self.shared_per_wg)
            .checked_div(shared_bytes)
            .unwrap_or(by_threads);
        let wgs = by_threads.min(by_regs).min(by_shared);
        if wgs == 0 {
            return None;
        }
        let resident = (wgs * wg_threads).min(self.max_threads_per_sm);
        // Sub-warp workgroups waste lanes.
        let warp_eff = if wg_threads.is_multiple_of(self.warp) {
            1.0
        } else {
            wg_threads as f64 / (wg_threads.div_ceil(self.warp) * self.warp) as f64
        };
        Some(resident as f64 / self.max_threads_per_sm as f64 * warp_eff)
    }

    /// Memory-coalescing efficiency of accesses with element `stride` and
    /// vector width `vec` (elements per load).
    pub fn coalescing(&self, stride: usize, vec: usize) -> f64 {
        let base: f64 = match stride {
            0 | 1 => 1.0,
            2 => 0.62,
            s if s <= 8 => 0.38,
            s if s <= 32 => 0.2,
            _ => 0.12,
        };
        // Wider vectors amortize transaction overhead up to 128-byte lines.
        let vec_bonus = match vec {
            1 => 1.0,
            2 => 1.12,
            4 => 1.22,
            8 => 1.18, // over-wide vectors spill
            _ => 0.9,
        };
        (base * vec_bonus).min(1.0)
    }

    /// Time to stream `bytes` at efficiency `eff`.
    pub fn mem_time(&self, bytes: f64, eff: f64) -> f64 {
        bytes / (self.dram_gbps * 1e9 * eff.max(1e-3))
    }

    /// Time to execute `flops` at occupancy `occ` with instruction-level
    /// parallelism factor `ilp` in `(0, 1]`.
    pub fn compute_time(&self, flops: f64, occ: f64, ilp: f64) -> f64 {
        // Throughput saturates once occupancy covers latency; model a soft
        // knee at 50 % occupancy.
        let occ_eff = (occ / 0.5).min(1.0);
        flops / (self.peak_gflops * 1e9 * occ_eff.max(1e-3) * ilp.clamp(0.05, 1.0))
    }
}

/// Deterministic multiplicative perturbation derived from a configuration's
/// display string: models machine-level ruggedness without randomness across
/// runs. Returns a factor in roughly `[1, 1+amp]`.
pub fn config_jitter(cfg: &baco::Configuration, amp: f64) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in cfg.to_string().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + amp * u
}

/// Run-to-run measurement noise: multiplicative, centered near 1, driven by
/// an atomic counter so successive evaluations differ slightly while staying
/// reproducible within a process run.
pub fn run_noise(amp: f64) -> f64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0x9E37_79B9);
    let c = COUNTER.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    let mut h = c ^ (c >> 31);
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + amp * (u - 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_full_for_balanced_wg() {
        let d = k80();
        let occ = d.occupancy(256, 32, 0).unwrap();
        assert!(occ > 0.6, "occ {occ}");
    }

    #[test]
    fn occupancy_none_when_resources_exceeded() {
        let d = k80();
        assert!(d.occupancy(2048, 16, 0).is_none()); // > max workgroup
        assert!(d.occupancy(256, 16, 64 * 1024).is_none()); // > shared
        assert!(d.occupancy(1024, 200, 0).is_none()); // register file blown
        assert!(d.occupancy(0, 16, 0).is_none());
    }

    #[test]
    fn occupancy_penalizes_subwarp_groups() {
        let d = k80();
        let full = d.occupancy(64, 16, 0).unwrap();
        let sub = d.occupancy(48, 16, 0).unwrap();
        assert!(sub < full, "sub {sub} vs full {full}");
    }

    #[test]
    fn small_workgroups_lose_occupancy() {
        let d = k80();
        // 2048 threads / 32-thread groups exceeds the per-SM workgroup math:
        // resident threads cap at by_threads × wg.
        let small = d.occupancy(32, 64, 0).unwrap();
        let big = d.occupancy(256, 64, 0).unwrap();
        assert!(small <= big + 1e-9);
    }

    #[test]
    fn coalescing_prefers_unit_stride() {
        let d = k80();
        assert!(d.coalescing(1, 4) > d.coalescing(8, 4));
        assert!(d.coalescing(8, 4) > d.coalescing(64, 4));
        assert!(d.coalescing(1, 4) <= 1.0);
    }

    #[test]
    fn times_scale_sensibly() {
        let d = k80();
        let t1 = d.mem_time(1e9, 1.0);
        let t2 = d.mem_time(2e9, 1.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        let c_low = d.compute_time(1e9, 0.1, 1.0);
        let c_hi = d.compute_time(1e9, 1.0, 1.0);
        assert!(c_low > c_hi);
    }

    #[test]
    fn jitter_is_deterministic_noise_is_bounded() {
        let s = baco::SearchSpace::builder()
            .integer("x", 0, 3)
            .build()
            .unwrap();
        let c = s.default_configuration();
        assert_eq!(config_jitter(&c, 0.05), config_jitter(&c, 0.05));
        for _ in 0..100 {
            let n = run_noise(0.02);
            assert!((0.99..=1.01).contains(&n), "{n}");
        }
    }
}
