//! Property tests for the cardinality estimator over LCG-generated
//! relations: exact on duplicate-free and uniform columns, and bounded by
//! the observed posting-length extremes under skew.

mod common;

use common::Lcg;
use std::collections::BTreeSet;
use wdpt_model::parse::{parse_atoms, parse_database};
use wdpt_model::{Interner, Term};
use wdpt_plan::{est_matches, StatsCatalog};

#[test]
fn exact_on_duplicate_free_columns() {
    for seed in 0..20u64 {
        let mut rng = Lcg::new(seed);
        let rows = 1 + rng.gen_range(200);
        // Column 0 is a key: every value distinct.
        let spec: Vec<String> = (0..rows)
            .map(|r| format!("r(k{r},v{})", rng.gen_range(8)))
            .collect();
        let mut i = Interner::new();
        let db = parse_database(&mut i, &spec.join(" ")).unwrap();
        let stats = StatsCatalog::build(&db);
        let atoms = parse_atoms(&mut i, "r(?x,?y)").unwrap();
        let bound: BTreeSet<_> = [i.var("x")].into();
        // rows / distinct = rows / rows = 1, and every key matches exactly
        // one tuple: the estimate is exact, not just bounded.
        assert_eq!(
            est_matches(&stats, &atoms[0], &bound),
            1.0,
            "seed {seed}, rows {rows}"
        );
        assert_eq!(
            est_matches(&stats, &atoms[0], &BTreeSet::new()),
            rows as f64
        );
    }
}

#[test]
fn exact_on_uniform_columns() {
    for seed in 0..20u64 {
        let mut rng = Lcg::new(seed ^ 0xDEAD);
        let distinct = 1 + rng.gen_range(12);
        let per_value = 1 + rng.gen_range(12);
        // Each of `distinct` values occurs exactly `per_value` times; pad
        // column 1 with a key so rows stay unique.
        let mut spec = Vec::new();
        for d in 0..distinct {
            for k in 0..per_value {
                spec.push(format!("r(v{d},u{d}_{k})"));
            }
        }
        let mut i = Interner::new();
        let db = parse_database(&mut i, &spec.join(" ")).unwrap();
        let stats = StatsCatalog::build(&db);
        let atoms = parse_atoms(&mut i, "r(?x,?y)").unwrap();
        let bound: BTreeSet<_> = [i.var("x")].into();
        // Uniformity holds exactly, so the mean IS every posting length.
        assert_eq!(
            est_matches(&stats, &atoms[0], &bound),
            per_value as f64,
            "seed {seed}"
        );
    }
}

#[test]
fn bounded_by_posting_extremes_under_skew() {
    for seed in 0..20u64 {
        let mut rng = Lcg::new(seed ^ 0xBEEF);
        // Zipf-ish skew: value v{j} drawn with weight ~1/(j+1) by rejection
        // on a quadratic ramp — hot head, long tail.
        let rows = 50 + rng.gen_range(300);
        let universe = 2 + rng.gen_range(30);
        let spec: Vec<String> = (0..rows)
            .map(|r| {
                let a = rng.gen_range(universe);
                let b = rng.gen_range(universe);
                format!("r(v{},u{r})", a.min(b))
            })
            .collect();
        let mut i = Interner::new();
        let db = parse_database(&mut i, &spec.join(" ")).unwrap();
        let stats = StatsCatalog::build(&db);
        let rel = db.relation(i.pred("r")).unwrap();
        // Ground-truth posting lengths of column 0.
        let mut counts = std::collections::HashMap::new();
        for t in rel.tuples() {
            *counts.entry(t[0]).or_insert(0u64) += 1;
        }
        let min_posting = *counts.values().min().unwrap();
        let max_posting = *counts.values().max().unwrap();
        let atoms = parse_atoms(&mut i, "r(?x,?y)").unwrap();
        let bound: BTreeSet<_> = [i.var("x")].into();
        let est = est_matches(&stats, &atoms[0], &bound);
        // The mean-posting estimate can never leave the min/max envelope,
        // and the catalog's heaviest listed value agrees with ground truth.
        assert!(
            est >= min_posting as f64 && est <= max_posting as f64,
            "seed {seed}: est {est} outside [{min_posting}, {max_posting}]"
        );
        let cs = &stats.relation(i.pred("r")).unwrap().columns[0];
        assert_eq!(cs.mcv[0].1, max_posting);
        assert_eq!(cs.distinct, counts.len() as u64);
        // Constant lookups agree with per-value ground truth on average:
        // summing the estimate over the universe recovers the row count.
        let mut total = 0.0;
        for &c in counts.keys() {
            let mut atom = atoms[0].clone();
            atom.args[0] = Term::Const(c);
            total += est_matches(&stats, &atom, &BTreeSet::new());
        }
        assert!((total - rows as f64).abs() < 1e-6 * rows as f64);
    }
}
