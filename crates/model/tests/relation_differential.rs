//! Differential test of [`Relation`]: seeded random sequences of inserts
//! (with duplicates), clones that then diverge and sorted-run merges, at
//! arities 0–4 and sizes that fold the pending run dozens of times, checked
//! step by step against a `BTreeSet<Vec<Const>>` — equal answer sets, equal
//! counts, and `verify_deep()` after every step — including prefix probes
//! in ascending, descending and shuffled key order. Every probe yields the
//! rows, the `len()`, the index probes and the index builds that the
//! choice rule predicts on the model. Hand-built runs then take the probe
//! through each of its paths: a main run with a leading-id directory or
//! without one, short and hub blocks, keys below, between and above the
//! leading ids, a column stretch of a fresh or a built permutation, and a
//! pending run that is empty, short (walked) or past its floor (its own
//! permutations); merges into a kept base share its permutations.

use std::collections::{BTreeMap, BTreeSet};
use wdpt_model::{Const, Database, PostingCounts, Pred, ProbeTally, Relation};

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

/// What the choice rule predicts for a probe of `bound`, columns
/// ascending, into a relation holding `model`: the constraint that wins —
/// the bound leading prefix, or one later column, looked up only while
/// more than one row is in play, the shortest winning and the earliest on
/// a tie; nothing when nothing is bound — and the probe's index probes and
/// builds. `built[col]` says whether a lookup of `col` finds the main
/// run's permutation of it built, or the main run empty; a lookup makes it
/// so.
fn predict(
    model: &Model,
    bound: &[(usize, Const)],
    built: &mut [bool],
) -> (Vec<(usize, Const)>, u64, u64) {
    let count = |on: &[(usize, Const)]| model.iter().filter(|t| holds(t, on)).count();
    let lead = (bound.iter().enumerate())
        .take_while(|&(k, &(col, _))| col == k)
        .count();
    let (mut probes, mut builds) = (0, 0);
    let mut best = None;
    if lead > 0 {
        probes += 1;
        best = Some((bound[..lead].to_vec(), count(&bound[..lead])));
    }
    for &(col, c) in &bound[lead..] {
        if best.as_ref().is_some_and(|&(_, n)| n <= 1) {
            break;
        }
        probes += 1;
        builds += u64::from(!std::mem::replace(&mut built[col], true));
        let n = count(&[(col, c)]);
        if best.as_ref().is_none_or(|&(_, least)| n < least) {
            best = Some((vec![(col, c)], n));
        }
    }
    (best.map_or_else(Vec::new, |(on, _)| on), probes, builds)
}

fn holds(t: &[Const], on: &[(usize, Const)]) -> bool {
    on.iter().all(|&(col, c)| t[col] == c)
}

/// Every way of reading `rel` agrees with `model`: each probe yields the
/// rows of the constraint the choice rule picks, as many as its `len()`
/// says, and counts the index probes and builds the rule predicts (see
/// [`predict`] for `built`).
fn assert_agree(
    rel: &Relation,
    model: &Model,
    probes: &[Vec<Const>],
    absent: Const,
    built: &mut [bool],
) {
    let arity = rel.arity();
    assert_eq!(rel.len(), model.len());
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
            let cols: Vec<usize> = (0..arity).filter(|col| mask >> col & 1 == 1).collect();
            let mut patterns = vec![probe.clone()];
            patterns.extend(cols.iter().map(|&col| {
                let mut miss = probe.clone();
                miss[col] = absent;
                miss
            }));
            for values in patterns {
                let bound: Vec<(usize, Const)> =
                    cols.iter().map(|&col| (col, values[col])).collect();
                let (winner, probes, builds) = predict(model, &bound, built);
                let expected: Vec<&[Const]> = (model.iter())
                    .filter(|t| holds(t, &winner))
                    .map(|t| &t[..])
                    .collect();
                let mut tally = ProbeTally::default();
                let rows = rel.probe(bound.iter().copied(), &mut tally);
                assert_eq!(rows.len(), expected.len(), "probe({bound:?}).len()");
                let mut got: Vec<&[Const]> = rows.collect();
                got.sort_unstable();
                assert_eq!(got, expected, "probe({bound:?}) is not {winner:?}'s rows");
                assert_eq!(
                    (tally.index_probes, tally.index_builds),
                    (probes, builds),
                    "probe({bound:?}): index probes and builds"
                );
            }
        }
    }
    assert_prefix_probes_agree(rel, model, &[absent]);
    for col in 0..arity {
        let mut expected: BTreeMap<Const, u32> = BTreeMap::new();
        for t in model {
            *expected.entry(t[col]).or_default() += 1;
        }
        let mut counted = Vec::new();
        rel.posting_counts(col)
            .for_each(|c, n| counted.push((c, n)));
        assert!(
            counted.into_iter().eq(expected),
            "column {col} counts differ"
        );
    }
    rel.verify_deep().unwrap();
}

/// Prefix probes of every length, in ascending, descending and shuffled
/// key order, find exactly the model's tuples under each prefix, one
/// search each: no probe depends on the one before it. The keys are
/// prefixes of every few tuples, hits; the same with the last cell moved
/// one id up, hits or misses in a gap; and with the last cell swapped for
/// each of `misses`.
fn assert_prefix_probes_agree(rel: &Relation, model: &Model, misses: &[Const]) {
    for cells in 1..=rel.arity() {
        let mut keys: Vec<Vec<Const>> = Vec::new();
        for t in model.iter().step_by(7) {
            let key = t[..cells].to_vec();
            let mut next = key.clone();
            next[cells - 1].0 += 1;
            keys.extend([key.clone(), next]);
            keys.extend(misses.iter().map(|&miss| {
                let mut key = key.clone();
                key[cells - 1] = miss;
                key
            }));
        }
        keys.sort_unstable();
        keys.dedup();
        let mut shuffled = keys.clone();
        let mut rng = Lcg(keys.len() as u64);
        for k in (1..shuffled.len()).rev() {
            shuffled.swap(k, rng.below(k + 1));
        }
        let descending: Vec<Vec<Const>> = keys.iter().rev().cloned().collect();
        for sequence in [&keys, &descending, &shuffled] {
            for key in sequence {
                let bound = key.iter().copied().enumerate();
                let mut tally = ProbeTally::default();
                let rows = rel.probe(bound, &mut tally);
                let expected: Vec<&[Const]> = (model.range(key.clone()..))
                    .take_while(|t| t.starts_with(key))
                    .map(|t| &t[..])
                    .collect();
                assert_eq!(rows.len(), expected.len(), "prefix {key:?}");
                let mut got: Vec<&[Const]> = rows.collect();
                got.sort_unstable();
                assert_eq!(got, expected, "prefix {key:?} differs from the model");
                assert_eq!(tally.index_probes, 1, "one probe for {key:?}");
            }
        }
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
                let add = Relation::from_sorted(arity, fresh.len(), cells);
                let merged = relation(&db, arity).merge_sorted(&add);
                model.extend(fresh);
                db = Database::from_sorted(vec![(PRED, merged.unwrap())]);
            }
            // … or one that repeats a row, which must be refused.
            1 if !model.is_empty() => {
                let mut batch: Model = (0..rng.below(5)).map(|_| tuple(&mut rng)).collect();
                batch.insert(model.iter().nth(rng.below(model.len())).unwrap().clone());
                let cells: Vec<Const> = batch.iter().flatten().copied().collect();
                let add = Relation::from_sorted(arity, batch.len(), cells);
                let refused = relation(&db, arity).merge_sorted(&add);
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
        // Checked in place, so the permutations this builds on the pending
        // run are the ones the following inserts have to keep up to date.
        db.relation(PRED)
            .map(Relation::verify_deep)
            .transpose()
            .unwrap();
        let rel = relation(&db, arity);
        assert_eq!(rel.len(), model.len());
        if step % 16 == 0 || step + 1 == steps {
            let mut probes = vec![tuple(&mut rng)];
            probes.extend(model.iter().nth(rng.below(model.len().max(1))).cloned());
            // Every permutation was built by the checks after each step.
            assert_agree(&rel, &model, &probes, absent, &mut vec![true; arity]);
            if let Some((rel, model)) = &earlier {
                assert_agree(rel, model, &probes, absent, &mut vec![true; arity]);
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

/// A relation of `main` folded into its main run and `pending` inserted
/// after it, which lands them in the pending run while they stay within
/// its share.
fn held(arity: usize, main: &[Vec<Const>], pending: &[Vec<Const>]) -> Relation {
    let cells = main.iter().flatten().copied().collect();
    let rel = Relation::from_rows(arity, main.len(), cells);
    let mut db = Database::from_sorted(vec![(PRED, rel)]);
    for t in pending {
        assert!(db.insert(PRED, t.clone()));
    }
    relation(&db, arity)
}

fn rows(rel: &Relation) -> Vec<Vec<Const>> {
    rel.tuples().map(<[Const]>::to_vec).collect()
}

/// `merge_sorted` is a set union, or names the first row of the addition
/// the relation already holds. Each case builds a relation as a main run
/// and a pending run, merges an earlier delta into it and then the delta
/// under test, at arities 0–3. The run sizes straddle the fold line
/// `max(32, main / 16)`: a merge lands exactly on it, one row past it, or
/// anywhere up to twice it. A planted duplicate comes from the main run,
/// the pending run or the earlier delta. The source relations, their
/// clones and the additions are left as they were.
#[test]
fn merge_sorted_is_the_set_union_or_names_the_first_held_row() {
    let mut rng = Lcg(35);
    let line = |main: usize| 32.max(main / 16);
    for case in 0..240 {
        let arity = case % 4;
        let domain = [1, 3000, 60, 16][arity];
        let stride = if case % 8 < 4 { 1 } else { 100_003 };
        let sizes = [0, 20, 300, 700, 1100];
        let main_size = if arity == 0 {
            rng.below(2)
        } else {
            sizes[rng.below(5)]
        };
        // Distinct tuples in draw order; an arity-0 relation has one.
        let mut pool = Vec::new();
        let mut seen = Model::new();
        for _ in 0..20 * (main_size + 200) {
            let t: Vec<Const> = (0..arity)
                .map(|_| Const(rng.below(domain) as u32 * stride + 1))
                .collect();
            if seen.insert(t.clone()) {
                pool.push(t);
            }
        }
        let mut take = |n: usize| -> Vec<Vec<Const>> { pool.drain(..n.min(pool.len())).collect() };
        let main = take(main_size);
        let pending = take(rng.below(line(main.len()) + 1));
        // Lands on the fold line, one row past it, or anywhere near it.
        let straddle = |rng: &mut Lcg, main: usize, held: usize| match rng.below(3) {
            0 => line(main).saturating_sub(held),
            1 => line(main) + 1 - held.min(line(main)),
            _ => rng.below(2 * line(main) + 1),
        };
        let earlier = take(straddle(&mut rng, main.len(), pending.len()));
        let held_rows = pending.len() + earlier.len();
        let (main_after, pending_after) = match held_rows > line(main.len()) {
            true => (main.len() + held_rows, 0),
            false => (main.len(), held_rows),
        };
        let mut add: Model = take(straddle(&mut rng, main_after, pending_after))
            .into_iter()
            .collect();
        for _ in 0..rng.below(3) {
            let from = [&main, &pending, &earlier][rng.below(3)];
            if !from.is_empty() {
                add.insert(from[rng.below(from.len())].clone());
            }
        }

        let source = held(arity, &main, &pending);
        let source_clone = source.clone();
        let mut model: Model = main.iter().chain(&pending).cloned().collect();
        let source_rows = rows(&source);
        let first = held(arity, &earlier, &[]);
        let chained = source.clone().merge_sorted(&first).unwrap();
        assert_eq!(rows(&source), source_rows, "case {case}: source moved");
        assert_eq!(rows(&source_clone), source_rows, "case {case}: clone moved");
        model.extend(earlier.iter().cloned());
        chained.verify_deep().unwrap();
        assert!(rows(&chained).iter().eq(model.iter()), "case {case}");

        // The addition keeps every eighth row in its own pending run.
        let (add_pending, add_main): (Vec<_>, Vec<_>) = add
            .iter()
            .cloned()
            .enumerate()
            .partition(|(k, _)| k % 8 == 3);
        let strip = |rows: Vec<(usize, Vec<Const>)>| -> Vec<Vec<Const>> {
            rows.into_iter().map(|(_, t)| t).collect()
        };
        let addition = held(arity, &strip(add_main), &strip(add_pending));
        let (chained_clone, chained_model) = (chained.clone(), model.clone());
        let first_held = add.iter().position(|t| model.contains(t));
        match (chained.clone().merge_sorted(&addition), first_held) {
            (Err(j), Some(k)) => assert_eq!(j, k, "case {case}: reported row"),
            (Ok(merged), None) => {
                model.extend(add.iter().cloned());
                let probes: Vec<Vec<Const>> = model.iter().step_by(97).cloned().collect();
                // The kept base's permutations serve the merge unless it
                // folded into a new main run.
                let folded = pending_after + add.len() > line(main_after);
                let mut built = vec![!folded; arity];
                assert_agree(&merged, &model, &probes, Const(0), &mut built);
            }
            (got, want) => panic!(
                "case {case}: {:?} for held row {want:?}",
                got.map(|r| r.len())
            ),
        }
        for rel in [&chained, &chained_clone] {
            assert!(
                rows(rel).iter().eq(chained_model.iter()),
                "case {case}: moved"
            );
        }
        assert!(
            rows(&addition).iter().eq(add.iter()),
            "case {case}: addition moved"
        );
        assert_eq!(rows(&source), source_rows, "case {case}: source moved");
    }
}

/// The rows of one hand-built main run of `rows` tuples. Leading ids are
/// `stride` apart from 1 on — at stride 2 the even ids between them are
/// gaps — and each leads one to three rows, except the `hub`-th, which
/// leads `hub_rows`. The other cells are drawn from a few values.
fn main_rows(
    rng: &mut Lcg,
    arity: usize,
    rows: usize,
    stride: u32,
    hub: usize,
    hub_rows: usize,
) -> Model {
    let domain = if arity == 2 { 64 } else { 8 };
    let mut model = Model::new();
    for lead in 0.. {
        if model.len() == rows {
            break;
        }
        let want = match lead {
            _ if arity == 1 => 1,
            _ if lead == hub => hub_rows,
            _ => 1 + rng.below(3),
        };
        let want = want.min(rows - model.len());
        let mut block = Model::new();
        while block.len() < want {
            let mut t = vec![Const(1 + lead as u32 * stride)];
            t.extend((1..arity).map(|_| Const(1 + rng.below(domain) as u32)));
            block.insert(t);
        }
        model.extend(block);
    }
    model
}

/// `n` tuples the model does not hold: under leading ids the main run has,
/// in its gaps and above its greatest.
fn fresh_rows(rng: &mut Lcg, arity: usize, model: &Model, n: usize) -> Vec<Vec<Const>> {
    let max = model.last().map_or(1, |t| t[0].0);
    let mut fresh = Model::new();
    while fresh.len() < n {
        let lead = match (rng.below(3), model.len()) {
            (0, len) if len > 0 => model.iter().nth(rng.below(len)).unwrap()[0].0,
            (1, _) => 2 * rng.below(max as usize / 2 + 1) as u32,
            _ => max + 1 + rng.below(50) as u32,
        };
        let mut t = vec![Const(lead.max(1))];
        t.extend((1..arity).map(|_| Const(1 + rng.below(100) as u32)));
        if !model.contains(&t) {
            fresh.insert(t);
        }
    }
    fresh.into_iter().collect()
}

/// A prefix probe finds the model's rows on every path it can take: main
/// runs just below and above the directory's floor of 64 rows and well
/// above it, with dense leading ids (gaps between them) or ids spread too
/// thin for a directory, with and without a hub block of 40 rows;
/// keys below the least leading id, in the gaps and above the greatest; a
/// pending run that is empty, short, or past its floor of 32 rows — or
/// folded in by the inserts that would take it past its share — and then
/// folded in by more inserts before the last probes. Every prefix length
/// at arities 1–4.
#[test]
fn prefix_probes_agree_on_every_path_of_the_probe() {
    let mut rng = Lcg(41);
    for arity in 1..=4 {
        for rows in [63, 64, 65, 700] {
            for (stride, hub_rows) in [(2, 0), (2, 40), (100_003, 0), (100_003, 40)] {
                for pending in [0, 5, 40] {
                    probe_every_path(&mut rng, arity, rows, stride, hub_rows, pending);
                }
            }
        }
    }
}

/// One case of [`prefix_probes_agree_on_every_path_of_the_probe`].
fn probe_every_path(
    rng: &mut Lcg,
    arity: usize,
    rows: usize,
    stride: u32,
    hub_rows: usize,
    pending: usize,
) {
    let what = format!("arity {arity}, {rows} rows, stride {stride}, hub {hub_rows}");
    let misses = [Const(0), Const(1 << 30)];
    let hub = if hub_rows > 0 {
        rng.below(8)
    } else {
        usize::MAX
    };
    let main = main_rows(rng, arity, rows, stride, hub, hub_rows);
    let added = fresh_rows(rng, arity, &main, pending);
    let main: Vec<Vec<Const>> = main.into_iter().collect();
    let rel = held(arity, &main, &added);
    let mut model: Model = main.iter().chain(&added).cloned().collect();
    let probes: Vec<Vec<Const>> = model.iter().step_by(31).cloned().collect();
    assert_agree(&rel, &model, &probes, misses[0], &mut vec![false; arity]);
    assert_prefix_probes_agree(&rel, &model, &misses);

    // Enough inserts to fold whatever is pending.
    let more = fresh_rows(rng, arity, &model, 33.max(model.len() / 16));
    let mut db = Database::from_sorted(vec![(PRED, rel)]);
    for t in &more {
        assert!(db.insert(PRED, t.clone()), "{what}");
    }
    model.extend(more);
    let rel = relation(&db, arity);
    rel.verify_deep()
        .unwrap_or_else(|why| panic!("{what}, {pending} pending: {why}"));
    assert_prefix_probes_agree(&rel, &model, &misses);
}

/// `posting_counts` is a count per column, of the main run's and the
/// pending run's cells together: every value with its count, ascending, as
/// a `BTreeMap` counts them, and `get` agrees for every value and for one
/// no row holds. It is `Dense` exactly when the column's ids span fewer
/// than four ids a row, `max − min < 4 × rows`, one slot per id from the
/// least to the greatest. Each case builds a relation as a main run and a
/// pending run on either side of its floor of 32 rows, keeps a clone of it
/// as a server keeps a base, and merges a delta into it; the kept clone
/// and the merged relation are both checked. The ids are below 1024, or
/// spread 100 003 apart; in three cases out of four one row holds id 1,
/// the least an id can be here, in every column, and another the greatest
/// id that is still dense, the least one that is not, or an id far past
/// both.
#[test]
fn posting_counts_are_a_count_per_column_of_both_runs() {
    let mut rng = Lcg(47);
    let mut seen = BTreeSet::new();
    for case in 0..240 {
        let arity = 1 + case % 3;
        let main_size = [0, 20, 100, 700][rng.below(4)];
        let pending_size = [0, 5, 32, 33, 45][rng.below(5)];
        let delta_size = rng.below(50);
        let n = main_size + pending_size + delta_size;
        // Ids below 1024, dense at any size, or spread far apart.
        let (domain, stride) = ([1000, 31, 10][arity - 1], 1 + 100_002 * (case % 4 / 3));
        let edge = match case % 4 {
            0 => Some(4 * n),
            1 => Some(4 * n + 1),
            2 => Some(1 << 30),
            _ => None,
        };
        // Drawn ids stay below the edge row's, which is then the greatest.
        let domain = edge.map_or(domain, |id| domain.min(id.saturating_sub(1)).max(1));
        // Distinct tuples in draw order, the least and the edge row first
        // and in the middle.
        let mut pool: Vec<Vec<Const>> = Vec::new();
        let mut drawn = Model::new();
        while pool.len() < n {
            let t: Vec<Const> = match edge {
                Some(_) if pool.is_empty() => vec![Const(1); arity],
                Some(id) if pool.len() == n / 2 => vec![Const(id as u32); arity],
                _ => (0..arity)
                    .map(|_| Const((1 + rng.below(domain) * stride) as u32))
                    .collect(),
            };
            if drawn.insert(t.clone()) {
                pool.push(t);
            }
        }
        let delta = pool.split_off(main_size + pending_size);
        let pending = pool.split_off(main_size);
        let kept = held(arity, &pool, &pending);
        let added = held(arity, &delta, &[]);
        let merged = kept.clone().merge_sorted(&added).unwrap();
        let kept_model: Model = pool.iter().chain(&pending).cloned().collect();
        for (rel, model) in [(&kept, &kept_model), (&merged, &drawn)] {
            assert_eq!(rel.len(), model.len());
            for col in 0..arity {
                let what = format!("case {case}, column {col}, {} rows", rel.len());
                let mut expected: BTreeMap<Const, u32> = BTreeMap::new();
                for t in model {
                    *expected.entry(t[col]).or_default() += 1;
                }
                let counts = rel.posting_counts(col);
                let mut counted = Vec::new();
                counts.for_each(|c, n| counted.push((c, n)));
                assert!(counted.into_iter().eq(expected.clone()), "{what}");
                for (&c, &n) in &expected {
                    assert_eq!(counts.get(c), n, "{what}: get({c:?})");
                }
                assert_eq!(counts.get(Const(0)), 0, "{what}: an absent value");
                let span = (expected.keys().next()).zip(expected.keys().next_back());
                let span = span.map(|(min, max)| (min.0, max.0));
                let dense = span.is_some_and(|(min, max)| ((max - min) as usize) < 4 * rel.len());
                match (&counts, span) {
                    (PostingCounts::Dense { min, counts: slots }, Some((least, max))) if dense => {
                        assert_eq!(
                            (*min, slots.len()),
                            (least, (max - least) as usize + 1),
                            "{what}"
                        )
                    }
                    (PostingCounts::Sparse(_), _) if !dense => {}
                    _ => panic!("{what}: ids {span:?}, counted {counts:?}"),
                }
                if let (Some(id), true) = (edge, rel.len() == n && n > 1) {
                    assert_eq!(dense, id - 1 < 4 * n, "{what}: edge {id}");
                    seen.insert((case % 4, dense));
                }
            }
        }
    }
    // The edge rows fell on both sides of the line.
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        [(0, true), (1, false), (2, false)]
    );
}
