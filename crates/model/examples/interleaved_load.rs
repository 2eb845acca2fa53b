//! Measures interleaved load/query cost: alternating `Database::insert`
//! with one point probe per insert. Inserts land in a relation's pending
//! run and probes search both runs, so the whole loop is near-linear in
//! the number of tuples; a store that rebuilt something per insert (the
//! seed discarded its indexes on every insert and rebuilt them on the next
//! probe) degenerates to quadratic. The numbers from this example (run
//! against the seed revision and against HEAD) are recorded in
//! `EXPERIMENTS.md`.

use std::time::Instant;
use wdpt_model::{Const, Database, Interner};

fn main() {
    let mut i = Interner::new();
    let e = i.pred("e");
    for n in [2_000usize, 8_000, 32_000] {
        let consts: Vec<Const> = (0..n).map(|j| i.constant(&format!("c{j}"))).collect();
        let mut db = Database::new();
        let start = Instant::now();
        let mut hits = 0usize;
        for j in 0..n {
            db.insert(e, vec![consts[j], consts[j * 7 % n]]);
            let pat = [Some(consts[j / 2]), None];
            hits += db.relation(e).unwrap().matching(&pat).count();
        }
        println!(
            "n={n:>6}  interleaved insert+probe: {:>12.1?}  ({hits} probe hits)",
            start.elapsed()
        );
    }
}
