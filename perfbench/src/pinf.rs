//! Table II P∞ accuracy: how far the simulated infinite-bandwidth speedup
//! lands from the paper's.

use gmh_workloads::catalog::paper_reference;

/// Simulated P∞ values EXPERIMENTS.md records for the catalog seeds, to two
/// decimals. A run at the default benchmark seed must reproduce them.
pub const EXPERIMENTS_P_INF: [(&str, f64); 4] = [
    ("mm", 3.90),
    ("lbm", 3.35),
    ("bfs", 3.02),
    ("leukocyte", 1.08),
];

/// Mean of `|simulated - paper| / paper`, in percent, over the rows whose
/// workload has a Table II reference; `None` when no row has one.
pub fn p_inf_error_pct(rows: &[(&str, f64)]) -> Option<f64> {
    let errs: Vec<f64> = rows
        .iter()
        .filter_map(|&(name, sim)| {
            let (paper, _) = paper_reference(name)?;
            Some((sim - paper).abs() / paper * 100.0)
        })
        .collect();
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Rows whose simulated P∞, rounded to two decimals, differs from the value
/// EXPERIMENTS.md records. Rows without a recorded value are not checked.
pub fn experiments_mismatches(rows: &[(&str, f64)]) -> Vec<String> {
    rows.iter()
        .filter_map(|&(name, sim)| {
            let (_, want) = EXPERIMENTS_P_INF.iter().find(|(n, _)| *n == name)?;
            ((sim * 100.0).round() != (want * 100.0).round())
                .then(|| format!("{name}: simulated P-inf {sim:.4}, EXPERIMENTS.md {want:.2}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_against_table_ii() {
        // mm 3.90 vs 4.90 -> 20.408%; lbm 3.35 vs 3.40 -> 1.471%;
        // bfs 3.02 vs 2.84 -> 6.338%; leukocyte 1.08 vs 1.08 -> 0.
        let rows = EXPERIMENTS_P_INF;
        let got = p_inf_error_pct(&rows).unwrap();
        let want = (1.0 / 4.90 + 0.05 / 3.40 + 0.18 / 2.84 + 0.0) / 4.0 * 100.0;
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        assert!((got - 7.054).abs() < 1e-3, "{got}");
    }

    #[test]
    fn rows_without_a_reference_are_ignored() {
        assert_eq!(p_inf_error_pct(&[("burst", 2.0)]), None);
        let one = p_inf_error_pct(&[("burst", 2.0), ("lbm", 3.40)]).unwrap();
        assert_eq!(one, 0.0);
    }

    #[test]
    fn experiments_check_rounds_to_two_decimals() {
        assert!(experiments_mismatches(&[("mm", 3.8951), ("lbm", 3.3549)]).is_empty());
        let bad = experiments_mismatches(&[("bfs", 3.0251), ("solo", 9.0)]);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("bfs"));
    }
}
