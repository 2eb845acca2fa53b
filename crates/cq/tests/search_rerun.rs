//! A `Search` is compiled once and re-run under many seeds, as the WDPT
//! executor runs one per tree node under each interface valuation. The
//! runs must find, and count, exactly what a fresh search per seed does —
//! whatever order the seeds come in.

use std::collections::BTreeMap;
use wdpt_cq::Search;
use wdpt_model::parse::{parse_atoms, parse_database};
use wdpt_model::{CancelToken, Const, Interner};

#[test]
fn a_search_rerun_in_any_seed_order_finds_what_fresh_searches_find() {
    let mut i = Interner::new();
    let mut state = 5u64;
    let mut draw = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33 & 31
    };
    let spec: String = (0..300)
        .map(|_| format!("e(v{},v{}) ", draw(), draw()))
        .collect();
    let db = parse_database(&mut i, &spec).unwrap();
    let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
    let x = i.var("x");
    // Every value, and one no tuple holds.
    let mut ascending: Vec<Const> = db.active_domain().iter().copied().collect();
    ascending.push(i.constant("nowhere"));
    ascending.sort_unstable();
    let descending: Vec<Const> = ascending.iter().rev().copied().collect();
    let mut shuffled = ascending.clone();
    for k in (1..shuffled.len()).rev() {
        shuffled.swap(k, draw() as usize % (k + 1));
    }
    let run = |search: &mut Search, seed: Const| {
        let slot = search.vars().binary_search(&x).unwrap();
        search.set(slot, seed);
        let mut frames = Vec::new();
        (search.for_each(CancelToken::never(), |frame| frames.push(frame.to_vec()))).unwrap();
        frames
    };
    let work = |s: &Search| {
        let t = s.tally();
        (t.nodes_expanded, t.index_probes, t.tuples_scanned)
    };
    // Dynamic, and both static orders: the second probes `(x, y)` under
    // values of `y` the first step found.
    for order in [None, Some(&[0, 1][..]), Some(&[1, 0][..])] {
        let mut frames = BTreeMap::new();
        let mut fresh_work = (0, 0, 0);
        for &seed in &ascending {
            let mut fresh = Search::compile(&db, &atoms, order, |v| v == x);
            frames.insert(seed, run(&mut fresh, seed));
            let (n, p, s) = work(&fresh);
            fresh_work = (fresh_work.0 + n, fresh_work.1 + p, fresh_work.2 + s);
        }
        for seeds in [&ascending, &descending, &shuffled] {
            let mut search = Search::compile(&db, &atoms, order, |v| v == x);
            for &seed in seeds {
                assert_eq!(run(&mut search, seed), frames[&seed], "{order:?}");
            }
            assert_eq!(work(&search), fresh_work, "{order:?}");
        }
    }
}
