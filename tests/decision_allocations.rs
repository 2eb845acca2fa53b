//! Heap allocations of the paper's decision procedures as the tree grows,
//! counted by this test's own global allocator on the test's thread. The
//! procedures cut the tree (T′, its free variables, T″) before they ask
//! any CQ question; those cuts must cost allocations linear in the tree,
//! not a variable set per node per variable.
//!
//! One test, so no sibling test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wdpt::core::{eval_bounded_interface, max_eval_decide, Engine};
use wdpt::gen::{chain_wdpt, star_wdpt};
use wdpt::{Database, Interner, Mapping};

struct Counting;

thread_local! {
    /// Allocations of this thread while `COUNTING` is set.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count() {
    // A thread being torn down has no thread-locals left: it is not ours.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get) - before, out)
}

/// `a(s_j, u_j)` for every `j < m` and `e(u_j, t_j)` for even `j`.
fn star_db(i: &mut Interner, m: usize) -> Database {
    let (a, e) = (i.pred("a"), i.pred("e"));
    let mut db = Database::new();
    for j in 0..m {
        let (s, u) = (i.constant(&format!("s{j}")), i.constant(&format!("u{j}")));
        db.insert(a, vec![s, u]);
        if j % 2 == 0 {
            db.insert(e, vec![u, i.constant(&format!("t{j}"))]);
        }
    }
    db
}

/// The answer of the `n`-branch star at `x ↦ s0`: every branch takes `t0`.
fn star_answer(i: &mut Interner, n: usize) -> Mapping {
    let mut h = Mapping::from_pairs(vec![(i.var("x"), i.constant("s0"))]);
    let t0 = i.constant("t0");
    for j in 0..n {
        h.insert(i.var(&format!("z{j}")), t0);
    }
    h
}

#[test]
fn deciding_costs_allocations_linear_in_the_tree() {
    // Theorem 6 on Table 1's ℓ-TW(1) ∩ BI(1) stars: at most ×2.2 per
    // doubling of the branches.
    let mut star = Vec::new();
    for n in [24, 48, 96, 192] {
        let mut i = Interner::new();
        let (p, db, h) = (
            star_wdpt(&mut i, n),
            star_db(&mut i, 30),
            star_answer(&mut i, n),
        );
        let (count, accepted) = allocs(|| eval_bounded_interface(&p, &db, &h, Engine::Tw(1)));
        assert!(accepted, "the {n}-branch star's answer");
        star.push((n, count));
    }
    // The first star warms what the procedures register once per process.
    for w in star[1..].windows(2) {
        let growth = w[1].1 as f64 / w[0].1 as f64;
        assert!(growth <= 2.2, "EVAL on stars grew ×{growth:.2}: {star:?}");
    }

    // Theorem 9 rejecting {y0} on a chain whose T′ (the root e(y0, y1))
    // also frees y1: deciding that asks no CQ, so its allocations barely
    // grow with the chain.
    let mut chain = Vec::new();
    for d in [48, 192] {
        let mut i = Interner::new();
        let p = chain_wdpt(&mut i, d, Some(d / 2));
        let h = Mapping::from_pairs(vec![(i.var("y0"), i.constant("c0"))]);
        let (count, maximal) = allocs(|| max_eval_decide(&p, &Database::new(), &h, Engine::Tw(1)));
        assert!(!maximal, "{{y0}} is no maximal answer of the {d}-chain");
        chain.push((d, count));
    }
    let growth = chain[1].1 as f64 / chain[0].1 as f64;
    assert!(
        growth <= 1.5,
        "MAX-EVAL on chains grew ×{growth:.2}: {chain:?}"
    );
    eprintln!("allocations: stars {star:?}, chains {chain:?}");
}
