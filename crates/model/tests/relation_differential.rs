//! Differential test of [`Relation`]: seeded random sequences of inserts
//! (with duplicates), clones that then diverge and sorted-run merges, at
//! arities 0–4 and sizes that fold the pending run dozens of times, checked
//! step by step against a `BTreeSet<Vec<Const>>` — equal answer sets, equal
//! counts, and `verify_deep()` after every step.

use std::collections::{BTreeMap, BTreeSet};
use wdpt_model::{Const, Database, Pred, ProbeTally, Relation};

type Model = BTreeSet<Vec<Const>>;

/// The generator of the workspace's seeded tests (Knuth's MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

const PRED: Pred = Pred(0);

fn relation(db: &Database, arity: usize) -> Relation {
    db.relation(PRED)
        .cloned()
        .unwrap_or_else(|| Relation::from_sorted(arity, 0, Vec::new()))
}

/// Every way of reading `rel` agrees with `model`.
fn assert_agree(rel: &Relation, model: &Model, probes: &[Vec<Const>], absent: Const) {
    let arity = rel.arity();
    assert_eq!(rel.len(), model.len());
    rel.verify_deep().unwrap();
    // Ascending, each tuple once.
    let rows: Vec<Vec<Const>> = rel.tuples().map(<[Const]>::to_vec).collect();
    assert!(
        rows.iter().eq(model.iter()),
        "tuples() is not the sorted set"
    );

    for probe in probes {
        assert_eq!(rel.contains(probe), model.contains(probe));
        // Every subset of bound columns, as given and with one bound cell
        // swapped for a constant no tuple holds.
        for mask in 0..1usize << arity {
            let bound: Vec<usize> = (0..arity).filter(|col| mask >> col & 1 == 1).collect();
            let mut patterns = vec![probe.clone()];
            patterns.extend(bound.iter().map(|&col| {
                let mut miss = probe.clone();
                miss[col] = absent;
                miss
            }));
            for values in patterns {
                let pattern: Vec<Option<Const>> = (0..arity)
                    .map(|col| bound.contains(&col).then_some(values[col]))
                    .collect();
                let expected: Vec<&Vec<Const>> = model
                    .iter()
                    .filter(|t| bound.iter().all(|&col| t[col] == values[col]))
                    .collect();
                let mut got: Vec<&[Const]> = rel.matching(&pattern).collect();
                got.sort_unstable();
                assert!(
                    got.into_iter().eq(expected.into_iter().map(|t| &t[..])),
                    "matching({pattern:?}) differs from the model"
                );
            }
        }
        for (col, &c) in probe.iter().enumerate() {
            for c in [c, absent] {
                let expected = model.iter().filter(|t| t[col] == c).count();
                assert_eq!(rel.posting_len(col, c), expected);
                assert_eq!(
                    rel.postings(col, c, &mut ProbeTally::default()).len(),
                    expected
                );
            }
        }
    }
    for col in 0..arity {
        let mut expected: BTreeMap<Const, u32> = BTreeMap::new();
        for t in model {
            *expected.entry(t[col]).or_default() += 1;
        }
        let mut counted = Vec::new();
        rel.count_posting_lens(col, |c, n| counted.push((c, n)));
        assert!(
            counted.into_iter().eq(expected),
            "column {col} counts differ"
        );
    }
}

/// One seeded run: `steps` operations over tuples of `arity` cells drawn
/// from `domain` values spaced `stride` apart (a wide stride makes the ids
/// sparse, which takes the comparison-sort paths instead of the counting
/// ones).
fn run(seed: u64, arity: usize, domain: usize, stride: u32, steps: usize) {
    let mut rng = Lcg(seed);
    let value = |rng: &mut Lcg| Const(rng.below(domain) as u32 * stride + 1);
    let tuple = |rng: &mut Lcg| -> Vec<Const> { (0..arity).map(|_| value(rng)).collect() };
    let absent = Const(0);
    let mut db = Database::new();
    let mut model = Model::new();
    // A clone taken a while ago, with what the relation held then.
    let mut earlier: Option<(Relation, Model)> = None;

    for step in 0..steps {
        match rng.below(20) {
            // Merge a sorted run of new rows, as a delta does …
            0 => {
                let batch: Model = (0..1 + rng.below(40)).map(|_| tuple(&mut rng)).collect();
                let fresh: Vec<Vec<Const>> = batch.difference(&model).cloned().collect();
                let cells: Vec<Const> = fresh.iter().flatten().copied().collect();
                let merged = relation(&db, arity).merge_sorted(fresh.len(), &cells);
                model.extend(fresh);
                db = Database::from_sorted(vec![(PRED, merged.unwrap())]);
            }
            // … or one that repeats a row, which must be refused.
            1 if !model.is_empty() => {
                let mut batch: Model = (0..rng.below(5)).map(|_| tuple(&mut rng)).collect();
                batch.insert(model.iter().nth(rng.below(model.len())).unwrap().clone());
                let cells: Vec<Const> = batch.iter().flatten().copied().collect();
                let refused = relation(&db, arity).merge_sorted(batch.len(), &cells);
                let row = batch.iter().nth(refused.unwrap_err()).unwrap();
                assert!(model.contains(row), "the reported row is not a duplicate");
            }
            2 => earlier = Some((relation(&db, arity), model.clone())),
            _ => {
                // Half the time a tuple seen before, if there is one.
                let t = match model.iter().nth(rng.below(2 * model.len() + 1)) {
                    Some(t) => t.clone(),
                    None => tuple(&mut rng),
                };
                assert_eq!(db.insert(PRED, t.clone()), model.insert(t));
            }
        }
        let rel = relation(&db, arity);
        assert_eq!(rel.len(), model.len());
        rel.verify_deep().unwrap();
        if step % 16 == 0 || step + 1 == steps {
            let mut probes = vec![tuple(&mut rng)];
            probes.extend(model.iter().nth(rng.below(model.len().max(1))).cloned());
            assert_agree(&rel, &model, &probes, absent);
            if let Some((rel, model)) = &earlier {
                assert_agree(rel, model, &probes, absent);
            }
        }
    }
}

#[test]
fn relations_agree_with_a_naive_set_at_every_arity() {
    // Domains sized so that a run ends with 700–1000 distinct tuples
    // (two dozen folds) while a good share of the draws repeat.
    for (arity, domain) in [(1, 3000), (2, 40), (3, 11), (4, 6)] {
        for (seed, stride) in [(1, 1), (2, 1), (3, 100_003)] {
            run(seed * 1000 + arity as u64, arity, domain, stride, 800);
        }
    }
}

#[test]
fn nullary_relations_agree_with_a_naive_set() {
    for seed in 0..4 {
        run(seed, 0, 1, 1, 40);
    }
}
