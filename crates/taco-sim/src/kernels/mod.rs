//! The five sparse tensor-algebra kernels of the paper's TACO evaluation
//! (Sec. 5.2), each with a tunable schedule:
//!
//! | kernel | expression |
//! |---|---|
//! | [`spmv()`]   | `a(i) = Σ_k B(i,k) c(k)` |
//! | [`spmm()`]   | `A(i,j) = Σ_k B(i,k) C(k,j)` |
//! | [`sddmm()`]  | `A(i,j) = B(i,j) · Σ_k C(i,k) D(j,k)` |
//! | [`ttv()`]    | `A(i,j) = Σ_k B(i,j,k) c(k)` |
//! | [`mttkrp()`] | `A(i,j) = Σ_{k,l,m} B(i,k,l,m) C(k,j) D(l,j) E(m,j)` |

pub mod mttkrp;
pub mod sddmm;
pub mod spmm;
pub mod spmv;
pub mod ttv;

pub use mttkrp::{mttkrp, MttkrpSchedule};
pub use sddmm::{sddmm, SddmmSchedule};
pub use spmm::{spmm, SpmmSchedule};
pub use spmv::{spmv, SpmvSchedule};
pub use ttv::{ttv, TtvSchedule};

use std::time::Instant;

/// Runs `f` `reps` times and returns the **median** wall time in seconds
/// (the min is too optimistic under timer noise and rewards lucky samples).
/// `f`'s result must already be pinned by the caller (e.g. written into an
/// output buffer) so the work cannot be optimized away.
pub(crate) fn measure<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let mut times = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Decodes a permutation [`baco::ParamValue`] into a fixed-size order array.
pub(crate) fn order3(cfg: &baco::Configuration, name: &str) -> [u8; 3] {
    let v = cfg.value(name);
    let p = v.as_permutation();
    [p[0], p[1], p[2]]
}

/// Position of `elem` in a length-3 order.
pub(crate) fn pos(order: [u8; 3], elem: u8) -> usize {
    order
        .iter()
        .position(|&e| e == elem)
        .expect("valid permutation")
}
