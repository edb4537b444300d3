//! Permutation utilities: Lehmer-code ranking and the three permutation
//! semimetrics of Sec. 4.1 (Kendall distance, Spearman's rank correlation,
//! Hamming distance).
//!
//! A permutation of `m` elements is represented as a `Vec<u8>` containing each
//! of `0..m` exactly once. BaCO encodes permutations inside configurations as
//! their Lehmer rank, an index in `0..m!`, so that permutation parameters look
//! like any other finite-domain parameter to the Chain-of-Trees.
//!
//! ```
//! use baco::space::perm::{distance, rank, unrank};
//! use baco::space::PermMetric;
//!
//! assert_eq!(rank(&[0, 1, 2]), 0);          // identity ranks first
//! assert_eq!(unrank(5, 3), vec![2, 1, 0]);  // reversal ranks last
//! // Adjacent swaps are closer than reversals under Kendall distance.
//! let near = distance(PermMetric::Kendall, &[0, 1, 2], &[1, 0, 2]);
//! let far = distance(PermMetric::Kendall, &[0, 1, 2], &[2, 1, 0]);
//! assert!(near < far);
//! ```

/// `m!` as `u64`.
///
/// # Panics
/// Panics if `m > 20` (would overflow `u64`).
pub fn factorial(m: usize) -> u64 {
    assert!(m <= 20, "factorial overflow: m = {m}");
    (1..=m as u64).product()
}

/// Ranks a permutation into its Lehmer-code index in `0..m!`.
///
/// The identity permutation has rank 0.
///
/// # Panics
/// Panics (in debug builds) if `p` is not a valid permutation of `0..p.len()`.
pub fn rank(p: &[u8]) -> u64 {
    debug_assert!(is_permutation(p), "rank: not a permutation: {p:?}");
    let m = p.len();
    let mut r = 0u64;
    for i in 0..m {
        let smaller_later = p[i + 1..].iter().filter(|&&x| x < p[i]).count() as u64;
        r += smaller_later * factorial(m - 1 - i);
    }
    r
}

/// Unranks a Lehmer-code index into the corresponding permutation of `m`
/// elements.
///
/// # Panics
/// Panics if `r >= m!`.
pub fn unrank(mut r: u64, m: usize) -> Vec<u8> {
    assert!(r < factorial(m), "unrank: rank {r} out of range for m={m}");
    let mut avail: Vec<u8> = (0..m as u8).collect();
    let mut out = Vec::with_capacity(m);
    for i in 0..m {
        let f = factorial(m - 1 - i);
        let k = (r / f) as usize;
        r %= f;
        out.push(avail.remove(k));
    }
    out
}

/// Whether `p` contains each of `0..p.len()` exactly once.
pub fn is_permutation(p: &[u8]) -> bool {
    let m = p.len();
    if m > 128 {
        return false;
    }
    let mut seen = [false; 128];
    for &x in p {
        if (x as usize) >= m || seen[x as usize] {
            return false;
        }
        seen[x as usize] = true;
    }
    true
}

/// Kendall distance: the number of discordant pairs between `a` and `b`.
///
/// Maximum value is `m(m−1)/2` (reversal).
///
/// # Panics
/// Panics if lengths differ.
pub fn kendall(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len(), "kendall: length mismatch");
    let m = a.len();
    // Position of each element in b.
    let mut pos_b = vec![0usize; m];
    for (i, &x) in b.iter().enumerate() {
        pos_b[x as usize] = i;
    }
    let mut d = 0u64;
    for i in 0..m {
        for j in i + 1..m {
            // Elements a[i], a[j] appear in this order in a; discordant if
            // they appear in the opposite order in b.
            if pos_b[a[i] as usize] > pos_b[a[j] as usize] {
                d += 1;
            }
        }
    }
    d as f64
}

/// Spearman's rank correlation distance: the sum of squared element
/// displacements between `a` and `b` (paper Sec. 4.1). Emphasizes large
/// movements of individual elements. This is BaCO's default permutation
/// semimetric.
///
/// # Panics
/// Panics if lengths differ.
pub fn spearman(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len(), "spearman: length mismatch");
    let m = a.len();
    let mut pos_a = vec![0i64; m];
    let mut pos_b = vec![0i64; m];
    for i in 0..m {
        pos_a[a[i] as usize] = i as i64;
        pos_b[b[i] as usize] = i as i64;
    }
    (0..m)
        .map(|e| {
            let d = pos_a[e] - pos_b[e];
            (d * d) as f64
        })
        .sum()
}

/// Hamming distance between permutations: the number of positions whose
/// element changed.
///
/// # Panics
/// Panics if lengths differ.
pub fn hamming(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len(), "hamming: length mismatch");
    a.iter().zip(b).filter(|(x, y)| x != y).count() as f64
}

/// Maximum attainable value of each semimetric for length `m`, used to
/// normalize permutation distances into `[0,1]` before entering the GP
/// kernel.
pub fn max_distance(metric: PermMetric, m: usize) -> f64 {
    let m = m as f64;
    match metric {
        PermMetric::Kendall => m * (m - 1.0) / 2.0,
        // Reversal maximizes the squared displacement sum: (m³−m)/3.
        PermMetric::Spearman => (m * m * m - m) / 3.0,
        PermMetric::Hamming | PermMetric::Naive => m.max(1.0),
    }
}

/// Which permutation semimetric the GP kernel uses (ablated in Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PermMetric {
    /// Sum of squared element displacements (paper default).
    #[default]
    Spearman,
    /// Number of discordant pairs.
    Kendall,
    /// Number of moved elements.
    Hamming,
    /// Treat the whole permutation as a categorical value (0/1 distance);
    /// the "naive" ablation baseline.
    Naive,
}

/// Evaluates the chosen semimetric, normalized to `[0,1]`.
pub fn distance(metric: PermMetric, a: &[u8], b: &[u8]) -> f64 {
    let raw = match metric {
        PermMetric::Kendall => kendall(a, b),
        PermMetric::Spearman => spearman(a, b),
        PermMetric::Hamming => hamming(a, b),
        PermMetric::Naive => {
            if a == b {
                0.0
            } else {
                1.0
            }
        }
    };
    match metric {
        PermMetric::Naive => raw,
        _ => raw / max_distance(metric, a.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_unrank_roundtrip_small() {
        for m in 1..=5 {
            for r in 0..factorial(m) {
                let p = unrank(r, m);
                assert!(is_permutation(&p));
                assert_eq!(rank(&p), r);
            }
        }
    }

    #[test]
    fn identity_has_rank_zero() {
        assert_eq!(rank(&[0, 1, 2, 3]), 0);
        assert_eq!(unrank(0, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn reversal_has_max_rank() {
        assert_eq!(rank(&[3, 2, 1, 0]), factorial(4) - 1);
    }

    #[test]
    fn paper_figure3_example() {
        // Fig. 3: π = [1,2,3,4], π′ = [2,4,3,1] (1-based) → 0-based below.
        let a = [0u8, 1, 2, 3];
        let b = [1u8, 3, 2, 0];
        // Kendall: discordant pairs = 4 (paper counts 4 green arrows... the
        // figure shows pairs (1,2),(1,3),(1,4),(2,4) reversed → 4).
        assert_eq!(kendall(&a, &b), 4.0);
        // Spearman: element 1 moves 3, element 2 moves 1, element 3 stays,
        // element 4 moves 2 → 9 + 1 + 0 + 4 = 14.
        assert_eq!(spearman(&a, &b), 14.0);
        // Hamming: positions 1, 2 and 4 changed (element 3 stays) → 3.
        assert_eq!(hamming(&a, &b), 3.0);
    }

    #[test]
    fn semimetric_axioms_hold_for_m4() {
        let perms: Vec<Vec<u8>> = (0..factorial(4)).map(|r| unrank(r, 4)).collect();
        for m in [
            PermMetric::Kendall,
            PermMetric::Spearman,
            PermMetric::Hamming,
            PermMetric::Naive,
        ] {
            for p in &perms {
                assert_eq!(distance(m, p, p), 0.0, "d(p,p) != 0 for {m:?}");
                for q in &perms {
                    let d1 = distance(m, p, q);
                    let d2 = distance(m, q, p);
                    assert_eq!(d1, d2, "asymmetric {m:?}");
                    assert!((0.0..=1.0).contains(&d1), "out of [0,1]: {d1} for {m:?}");
                    if p != q {
                        assert!(d1 > 0.0, "d(p,q)=0 for p!=q under {m:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn max_distances_attained_by_reversal() {
        let a: Vec<u8> = (0..6).collect();
        let b: Vec<u8> = (0..6).rev().collect();
        assert_eq!(kendall(&a, &b), max_distance(PermMetric::Kendall, 6));
        assert_eq!(spearman(&a, &b), max_distance(PermMetric::Spearman, 6));
    }

    #[test]
    fn is_permutation_rejects_bad_input() {
        assert!(!is_permutation(&[0, 0, 1]));
        assert!(!is_permutation(&[1, 2, 3]));
        assert!(is_permutation(&[]));
        assert!(is_permutation(&[2, 0, 1]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unrank_out_of_range_panics() {
        unrank(6, 3);
    }
}
