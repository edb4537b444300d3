use crate::space::{CVal, Configuration, ParamKind, SearchSpace};

/// All configurations reachable from `cfg` by modifying a single parameter
/// (Sec. 3.3: "all configurations that can be reached by modifying a single
/// parameter"):
///
/// * integer/ordinal/categorical — every other domain value (not just ±1:
///   constraint lattices like `(a+b) % 3 == 0` have no feasible unit steps,
///   so the full single-parameter neighborhood is required for the local
///   search to move at all);
/// * permutation — every pairwise swap of two elements (the full `m!` set
///   would be exponential);
/// * real — multiplicative nudges of ±5 % and ±20 % of the range, clipped.
///
/// Known-constraint filtering is the caller's job (via CoT membership), so
/// neighbor generation stays cheap.
pub fn neighbors(space: &SearchSpace, cfg: &Configuration) -> Vec<Configuration> {
    let mut out = Vec::new();
    for (i, p) in space.params().iter().enumerate() {
        match p.kind() {
            ParamKind::Integer { .. }
            | ParamKind::Ordinal { .. }
            | ParamKind::Categorical { .. } => {
                let size = p.domain_size().expect("discrete");
                let cur = cfg.cval(i).idx();
                for v in 0..size {
                    if v != cur {
                        out.push(cfg.with_cval(i, CVal::Idx(v)));
                    }
                }
            }
            ParamKind::Permutation { len } => {
                let cur = crate::space::perm::unrank(cfg.cval(i).idx(), *len);
                for a in 0..*len {
                    for b in (a + 1)..*len {
                        let mut p2 = cur.clone();
                        p2.swap(a, b);
                        out.push(cfg.with_cval(i, CVal::Idx(crate::space::perm::rank(&p2))));
                    }
                }
            }
            ParamKind::Real { lo, hi } => {
                let cur = match cfg.cval(i) {
                    CVal::Real(v) => v,
                    CVal::Idx(_) => unreachable!("real param stores CVal::Real"),
                };
                let range = hi - lo;
                for step in [-0.2, -0.05, 0.05, 0.2] {
                    let v = (cur + step * range).clamp(*lo, *hi);
                    if v != cur {
                        out.push(cfg.with_cval(i, CVal::Real(v)));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamValue, SearchSpace};

    #[test]
    fn counts_by_type() {
        let s = SearchSpace::builder()
            .integer("i", 0, 9) // 9 other values
            .categorical("c", vec!["a", "b", "z"]) // 2 others
            .permutation("p", 4) // C(4,2) = 6 swaps
            .real("x", 0.0, 1.0) // up to 4 nudges
            .build()
            .unwrap();
        let cfg = s
            .configuration(&[
                ("i", ParamValue::Int(5)),
                ("c", ParamValue::Categorical("a".into())),
                ("p", ParamValue::Permutation(vec![0, 1, 2, 3])),
                ("x", ParamValue::Real(0.5)),
            ])
            .unwrap();
        let nbs = neighbors(&s, &cfg);
        assert_eq!(nbs.len(), 9 + 2 + 6 + 4);
        // All differ from the origin in exactly one parameter.
        for nb in &nbs {
            let diff = (0..s.len())
                .filter(|&k| nb.value_at(k) != cfg.value_at(k))
                .count();
            assert_eq!(diff, 1, "{nb}");
        }
    }

    #[test]
    fn numeric_neighbors_cover_whole_domain() {
        let s = SearchSpace::builder().integer("i", 0, 9).build().unwrap();
        let lo = s.configuration(&[("i", ParamValue::Int(0))]).unwrap();
        let nbs = neighbors(&s, &lo);
        assert_eq!(nbs.len(), 9);
        let vals: std::collections::HashSet<i64> =
            nbs.iter().map(|c| c.value("i").as_i64()).collect();
        assert_eq!(vals.len(), 9);
        assert!(!vals.contains(&0));
    }

    #[test]
    fn real_neighbors_clamped_to_bounds() {
        let s = SearchSpace::builder().real("x", 0.0, 1.0).build().unwrap();
        let edge = s.configuration(&[("x", ParamValue::Real(0.99))]).unwrap();
        for nb in neighbors(&s, &edge) {
            let v = nb.value("x").as_f64();
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn permutation_swaps_are_all_distinct() {
        let s = SearchSpace::builder().permutation("p", 4).build().unwrap();
        let cfg = s
            .configuration(&[("p", ParamValue::Permutation(vec![2, 0, 3, 1]))])
            .unwrap();
        let nbs = neighbors(&s, &cfg);
        let uniq: std::collections::HashSet<_> = nbs.iter().cloned().collect();
        assert_eq!(uniq.len(), 6);
    }
}
