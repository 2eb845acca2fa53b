//! Regenerates **Table 1** of the paper as measured scaling experiments
//! (experiments E2–E5, E10 of `DESIGN.md`).
//!
//! Table 1 is a complexity table; its reproducible observable is the
//! *shape* of each cell: the algorithms available to the restricted classes
//! scale polynomially, and the hard cells admit instance families on which
//! the general algorithms blow up exponentially. Every row below prints
//! measured series plus a fitted growth verdict.
//!
//! Usage:
//! `table1 [--row eval|partial|max|subsumption|parallel|classes] [--quick] [--threads N] [--json]`
//!
//! The `parallel` row compares one worker with the `std::thread::scope`
//! fan-out (`--threads 0` auto-detects), prints the engine-counter deltas
//! alongside wall-clock, and finishes with an EXPLAIN-style profile of one
//! representative run, bracketed here by a [`wdpt_obs::ProfileRecorder`]
//! (nothing else runs in this process, so its deltas are exact). With
//! `--json`, all prose is suppressed and every row becomes one
//! machine-readable JSON object on stdout.

use wdpt_bench::{measure, Report, Series};
use wdpt_core::{
    eval_bounded_interface, eval_decide, evaluate_rows, has_bounded_interface, interface_width,
    is_globally_in, is_locally_in, max_eval_decide, node_entries, partial_eval_decide, subsumed,
    try_evaluate_parallel_planned, Engine, WidthKind,
};
use wdpt_gen::db::{random_graph_db, random_undirected_graph, rng};
use wdpt_gen::music::{music_catalog, MusicParams};
use wdpt_gen::reductions::{qbf_instance, three_col_instance, QbfLit};
use wdpt_gen::trees::{
    chain_wdpt, clique_chain_wdpt, clique_pattern_wdpt, random_wdpt, star_wdpt, wide_interface_wdpt,
};
use wdpt_model::{CancelToken, Interner, Mapping};

struct Config {
    row: Option<String>,
    min_runtime: f64,
    scale: usize,
    threads: usize,
    json: bool,
}

impl Config {
    fn report(&self) -> Report {
        Report::new(self.json)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut row = None;
    let mut quick = false;
    let mut threads = 0usize; // 0 = available_parallelism
    let mut json = false;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--row" => row = it.next().cloned(),
            "--quick" => quick = true,
            "--json" => json = true,
            "--threads" => {
                threads = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads expects a number");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let cfg = Config {
        row,
        min_runtime: if quick { 0.005 } else { 0.05 },
        scale: if quick { 0 } else { 1 },
        threads,
        json,
    };
    let r = cfg.report();
    r.note("Table 1 reproduction — complexity of WDPT evaluation and query analysis");
    r.note("(paper: Barceló & Pichler, PODS'15; see DESIGN.md experiments E2–E5, E10)");
    let want = |name: &str| cfg.row.as_deref().is_none_or(|r| r == name);
    if want("eval") {
        row_eval(&cfg);
    }
    if want("partial") {
        row_partial(&cfg);
    }
    if want("max") {
        row_max(&cfg);
    }
    if want("subsumption") {
        row_subsumption(&cfg);
    }
    if want("parallel") {
        row_parallel(&cfg);
    }
    if want("classes") {
        row_classes(&cfg);
    }
}

/// [`measure`] for a cell that times a structured engine on a family inside
/// its class. Outside the class `Engine` falls back to backtracking; that
/// must not pass for a polynomial cell.
fn measure_in_class<F: FnMut(usize)>(
    label: &str,
    params: &[usize],
    min_runtime: f64,
    f: F,
) -> Series {
    let fallbacks = wdpt_obs::counter!("core.engine.class_fallback");
    let before = fallbacks.get();
    let s = measure(label, params, min_runtime, f);
    assert_eq!(
        fallbacks.get(),
        before,
        "{label}: the engine fell back to backtracking"
    );
    s
}

/// Row EVAL: Σ₂ᵖ/NP-hard for general, ℓ-C(k), g-C(k); LogCFL for
/// ℓ-C(k) ∩ BI(c) (Theorems 1, 5, 7; Proposition 3).
fn row_eval(cfg: &Config) {
    let r = cfg.report();
    r.section("EVAL  | general & ℓ-TW(1) & g-TW(1): NP-hard (Prop. 3 reduction)");
    let ns: Vec<usize> = (4..=9 + cfg.scale * 2).collect();
    let s = measure(
        "eval_decide on 3-colorability instances (x = graph vertices)",
        &ns,
        cfg.min_runtime,
        |n| {
            let mut i = Interner::new();
            let edges = random_undirected_graph(n, (5.0 / n as f64).min(0.95), 7 + n as u64);
            let inst = three_col_instance(&mut i, n, &edges);
            std::hint::black_box(eval_decide(&inst.wdpt, &inst.db, &inst.candidate));
        },
    );
    r.series(&s);
    verify_reduction_classes(&r);

    r.section("EVAL  | general WDPTs: Σ₂ᵖ (QBF ∃X∀Y reduction, Theorem 1)");
    let nxs: Vec<usize> = (4..=11 + cfg.scale * 2).collect();
    let s = measure(
        "eval_decide on ∃X∀Y-QBF instances (x = existential variables)",
        &nxs,
        cfg.min_runtime,
        |nx| {
            let mut i = Interner::new();
            let mut r = rng(nx as u64 * 31 + 5);
            let clauses: Vec<Vec<QbfLit>> = (0..3 * nx)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            if r.gen_bool(0.7) {
                                QbfLit::X(r.gen_range(0..nx), r.gen_bool(0.5))
                            } else {
                                QbfLit::Y(r.gen_range(0..3), r.gen_bool(0.5))
                            }
                        })
                        .collect()
                })
                .collect();
            let inst = qbf_instance(&mut i, nx, &clauses);
            std::hint::black_box(eval_decide(&inst.wdpt, &inst.db, &inst.candidate));
        },
    );
    r.series(&s);

    r.section("EVAL  | ℓ-TW(1) ∩ BI(1): LogCFL algorithm (Theorem 6)");
    let sizes: Vec<usize> = (4..=40).step_by(4).collect();
    let s = measure_in_class(
        "eval_bounded_interface on star trees (x = optional branches, fixed DB)",
        &sizes,
        cfg.min_runtime,
        |n| {
            let mut i = Interner::new();
            let p = star_wdpt(&mut i, n);
            let db = star_db(&mut i, 30);
            let h = star_answer(&mut i, &db, n);
            std::hint::black_box(eval_bounded_interface(&p, &db, &h, Engine::Tw(1)));
        },
    );
    r.series(&s);
    let dbs: Vec<usize> = (20..=200).step_by(20).collect();
    let s = measure_in_class(
        "eval_bounded_interface on the Figure-1 query over growing catalogs (x = bands)",
        &dbs,
        cfg.min_runtime,
        |bands| {
            let mut i = Interner::new();
            let db = music_catalog(
                &mut i,
                MusicParams {
                    bands,
                    ..MusicParams::default()
                },
            );
            let p = wdpt_gen::music::figure1_wdpt(&mut i);
            let x = i.var("x");
            let y = i.var("y");
            let h =
                Mapping::from_pairs(vec![(x, i.constant("record0_0")), (y, i.constant("band0"))]);
            std::hint::black_box(eval_bounded_interface(&p, &db, &h, Engine::Tw(1)));
        },
    );
    r.series(&s);
}

/// Row PARTIAL-EVAL: NP-hard under local tractability alone (Prop. 1),
/// LogCFL under global tractability (Theorem 8).
fn row_partial(cfg: &Config) {
    let r = cfg.report();
    r.section("P-EVAL | ℓ-TW(1) without global tractability: NP-hard (clique chains)");
    let ms: Vec<usize> = (3..=6 + cfg.scale).collect();
    let s = measure(
        "partial_eval (backtracking) on clique-chain trees (x = clique size)",
        &ms,
        cfg.min_runtime,
        |m| {
            let mut i = Interner::new();
            // m+1 variables form the clique; the Turán database has no
            // clique beyond size m, so the search must exhaust.
            let p = clique_chain_wdpt(&mut i, m);
            let db = turan_db(&mut i, m, 2);
            let w = i.var("w");
            let h = Mapping::from_pairs(vec![(w, i.constant("c0"))]);
            std::hint::black_box(partial_eval_decide(&p, &db, &h, Engine::Backtrack));
        },
    );
    r.series(&s);

    r.section("P-EVAL | g-TW(1): LogCFL algorithm (Theorem 8)");
    let depths: Vec<usize> = (4..=40).step_by(4).collect();
    let s = measure_in_class(
        "partial_eval (TW engine) on chain trees (x = tree depth)",
        &depths,
        cfg.min_runtime,
        |d| {
            let mut i = Interner::new();
            let p = chain_wdpt(&mut i, d, Some(d / 2));
            let (db, _) = random_graph_db(&mut i, 40, 120, 11);
            let y0 = i.var("y0");
            let h = Mapping::from_pairs(vec![(y0, i.constant("c0"))]);
            std::hint::black_box(partial_eval_decide(&p, &db, &h, Engine::Tw(1)));
        },
    );
    r.series(&s);
}

/// Row MAX-EVAL: DP-hard under local tractability (Prop. 4), LogCFL under
/// global tractability (Theorem 9).
fn row_max(cfg: &Config) {
    let r = cfg.report();
    r.section("M-EVAL | ℓ-TW(1) without global tractability: DP-hard (clique chains)");
    let ms: Vec<usize> = (3..=6 + cfg.scale).collect();
    let s = measure(
        "max_eval (backtracking) on clique-chain trees (x = clique size)",
        &ms,
        cfg.min_runtime,
        |m| {
            let mut i = Interner::new();
            let p = clique_chain_wdpt(&mut i, m);
            let db = turan_db(&mut i, m, 2);
            let w = i.var("w");
            let h = Mapping::from_pairs(vec![(w, i.constant("c0"))]);
            std::hint::black_box(max_eval_decide(&p, &db, &h, Engine::Backtrack));
        },
    );
    r.series(&s);

    r.section("M-EVAL | g-TW(1): LogCFL algorithm (Theorem 9)");
    let sizes: Vec<usize> = (4..=28).step_by(3).collect();
    let s = measure_in_class(
        "max_eval (TW engine) on star trees over the music catalog (x = branches)",
        &sizes,
        cfg.min_runtime,
        |n| {
            let mut i = Interner::new();
            let p = star_wdpt(&mut i, n);
            let db = star_db(&mut i, 40);
            let h = star_answer(&mut i, &db, n);
            std::hint::black_box(max_eval_decide(&p, &db, &h, Engine::Tw(1)));
        },
    );
    r.series(&s);
}

/// Rows ⊑ and ≡ₛ: Π₂ᵖ in general, coNP when the right-hand side is
/// globally tractable (Theorems 11, 12).
fn row_subsumption(cfg: &Config) {
    let r = cfg.report();
    r.section("⊑ / ≡ₛ | outer co-nondeterminism: exponential in |p₁| (rooted subtrees)");
    let ns: Vec<usize> = (2..=11 + cfg.scale).collect();
    let s = measure_in_class(
        "subsumed(star_n ⊑ star_n) with TW-engine inner checks (x = branches)",
        &ns,
        cfg.min_runtime,
        |n| {
            let mut i = Interner::new();
            let p1 = star_wdpt(&mut i, n);
            let p2 = star_wdpt(&mut i, n);
            std::hint::black_box(subsumed(&p1, &p2, Engine::Tw(1), &mut i));
        },
    );
    r.series(&s);

    r.section("⊑      | inner check, arbitrary right side: NP-hard (clique ⊑ graph)");
    let ms: Vec<usize> = (3..=5 + cfg.scale).collect();
    let s = measure(
        "subsumed(random-graph-pattern ⊑ clique-pattern), backtracking (x = clique size)",
        &ms,
        cfg.min_runtime,
        |m| {
            let mut i = Interner::new();
            // Left: a Turán pattern (complete (m-1)-partite, K_m-free).
            // Right: the K_m clique pattern. The inner hom check must
            // exhaust exponentially many partial cliques.
            let p1 = turan_pattern_wdpt(&mut i, m - 1, 3);
            let p2 = clique_pattern_wdpt(&mut i, m);
            std::hint::black_box(subsumed(&p1, &p2, Engine::Backtrack, &mut i));
        },
    );
    r.series(&s);

    r.section("⊑      | inner check, g-TW(1) right side: coNP algorithm (Theorem 11)");
    let ds: Vec<usize> = (4..=40).step_by(4).collect();
    let s = measure_in_class(
        "subsumed(chain_d ⊑ chain_d) with TW-engine inner checks (x = depth)",
        &ds,
        cfg.min_runtime,
        |d| {
            let mut i = Interner::new();
            let p1 = chain_wdpt(&mut i, d, Some(2));
            let p2 = chain_wdpt(&mut i, d, Some(2));
            std::hint::black_box(subsumed(&p1, &p2, Engine::Tw(1), &mut i));
        },
    );
    r.series(&s);
    r.note("  (≡ₛ runs both directions of ⊑ and inherits these shapes; Prop. 5 equates it with ≡_max.)");
}

/// Row "parallel": one worker vs thread-parallel enumeration of `p(D)` on
/// the Figure-1 query over growing catalogs, with engine-counter deltas
/// making the fan-out and the index behaviour observable.
fn row_parallel(cfg: &Config) {
    let r = cfg.report();
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.threads
    };
    r.section(&format!(
        "Parallel | p(D) enumeration: one worker vs {threads} scoped threads (identical answers)"
    ));
    let bands: Vec<usize> = (100..=400 + cfg.scale * 400).step_by(150).collect();
    let s = measure(
        "evaluate (one worker) on the Figure-1 query (x = bands)",
        &bands,
        cfg.min_runtime,
        |bands| {
            let mut i = Interner::new();
            let db = music_catalog(
                &mut i,
                MusicParams {
                    bands,
                    ..MusicParams::default()
                },
            );
            let p = wdpt_gen::music::figure1_wdpt(&mut i);
            std::hint::black_box(wdpt_core::evaluate(&p, &db));
        },
    );
    r.series(&s);
    let before = wdpt_obs::metrics_snapshot();
    let s = measure(
        "try_evaluate_parallel_planned on the Figure-1 query (x = bands)",
        &bands,
        cfg.min_runtime,
        |bands| {
            let mut i = Interner::new();
            let db = music_catalog(
                &mut i,
                MusicParams {
                    bands,
                    ..MusicParams::default()
                },
            );
            let p = wdpt_gen::music::figure1_wdpt(&mut i);
            std::hint::black_box(try_evaluate_parallel_planned(
                &p,
                &db,
                threads,
                CancelToken::never(),
                None,
            ))
            .expect("the never token cannot cancel");
        },
    );
    r.series(&s);
    let delta = wdpt_obs::metrics_snapshot().since(&before);
    r.counters("the parallel sweep", &delta);
    // EXPLAIN-style profile of one representative run at the largest scale:
    // per-node homomorphism tallies, per-phase span times, counters.
    let largest = *bands.last().expect("non-empty sweep");
    let mut i = Interner::new();
    let db = music_catalog(
        &mut i,
        MusicParams {
            bands: largest,
            ..MusicParams::default()
        },
    );
    let p = wdpt_gen::music::figure1_wdpt(&mut i);
    let mut rec =
        wdpt_obs::ProfileRecorder::start(format!("figure1 ({largest} bands, {threads} threads)"));
    let (answers, tally) = evaluate_rows(&p, &db, threads, CancelToken::never(), None);
    rec.set_nodes(node_entries(&p, &tally.homs));
    let answers = answers.expect("the never token cannot cancel");
    r.profile(&rec.finish(answers.len() as u64));
}

/// Row "classes" (E10): Proposition 2's inclusions verified empirically.
fn row_classes(cfg: &Config) {
    let r = cfg.report();
    r.section("Classes | Proposition 2: ℓ-TW(k) ∩ BI(c) ⊆ g-TW(k+2c); g-TW(k) ⊄ BI(c)");
    let mut rand = rng(99);
    let mut verified = 0;
    let total = 60;
    for _ in 0..total {
        let mut i = Interner::new();
        let p = random_wdpt(&mut i, 2 + rand.gen_range(0..6), &mut rand);
        if is_locally_in(&p, WidthKind::Tw, 1) {
            let c = interface_width(&p);
            assert!(has_bounded_interface(&p, c));
            assert!(
                is_globally_in(&p, WidthKind::Tw, 1 + 2 * c),
                "Proposition 2(1) violated!"
            );
            verified += 1;
        }
    }
    r.note(&format!(
        "  Prop. 2(1): verified on {verified}/{total} random locally-tractable trees"
    ));
    for n in [2usize, 4, 6, 8] {
        let mut i = Interner::new();
        let p = wide_interface_wdpt(&mut i, n);
        assert!(is_globally_in(&p, WidthKind::Tw, 1));
        r.note(&format!(
            "  Prop. 2(2): witness with n={n}: g-TW(1) holds, interface width = {} (unbounded)",
            interface_width(&p)
        ));
    }
}

/// Sanity: the Prop. 3 instances really live in the classes the row claims.
fn verify_reduction_classes(r: &Report) {
    let mut i = Interner::new();
    let edges = vec![(0, 1), (1, 2), (0, 2)];
    let inst = three_col_instance(&mut i, 3, &edges);
    assert!(is_locally_in(&inst.wdpt, WidthKind::Tw, 1));
    assert!(is_globally_in(&inst.wdpt, WidthKind::Tw, 1));
    assert!(!has_bounded_interface(&inst.wdpt, 2));
    r.note("  (instances verified: ℓ-TW(1) ✓, g-TW(1) ✓, unbounded interface ✓)");
}

/// A database for the star family: `a(s_j, u_j)` with one `e(u_j, t_j)`
/// edge for even `j` — every optional branch has at most one extension, so
/// answers are unique per root choice and can be written down directly.
fn star_db(i: &mut Interner, m: usize) -> wdpt_model::Database {
    let a = i.pred("a");
    let e = i.pred("e");
    let mut db = wdpt_model::Database::new();
    for j in 0..m {
        let x = i.constant(&format!("s{j}"));
        let u = i.constant(&format!("u{j}"));
        db.insert(a, vec![x, u]);
        if j % 2 == 0 {
            let z = i.constant(&format!("t{j}"));
            db.insert(e, vec![u, z]);
        }
    }
    db
}

/// The answer of the `n`-branch star rooted at `x ↦ s0` over [`star_db`]:
/// `u ↦ u0` is forced and every branch extends uniquely to `t0`.
fn star_answer(i: &mut Interner, _db: &wdpt_model::Database, n: usize) -> Mapping {
    let mut h = Mapping::from_pairs(vec![(i.var("x"), i.constant("s0"))]);
    let t0 = i.constant("t0");
    for j in 0..n {
        h.insert(i.var(&format!("z{j}")), t0);
    }
    h
}

/// A single-node Boolean WDPT whose body is the complete multipartite
/// (Turán) pattern `T(parts, per_part)` over `e/2`.
fn turan_pattern_wdpt(i: &mut Interner, parts: usize, per_part: usize) -> wdpt_core::Wdpt {
    let e = i.pred("e");
    let n = parts * per_part;
    let vs: Vec<_> = (0..n).map(|j| i.var(&format!("tp{j}"))).collect();
    let mut atoms = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b && a % parts != b % parts {
                atoms.push(wdpt_model::Atom::new(e, vec![vs[a].into(), vs[b].into()]));
            }
        }
    }
    wdpt_core::WdptBuilder::new(atoms)
        .build(Vec::new())
        .expect("single node")
}

/// The Turán database `T(parts, per_part)`: a complete multipartite graph
/// with `parts` classes of `per_part` vertices — dense, yet free of any
/// clique larger than `parts`. Searching for a `(parts+1)`-clique in it
/// forces the backtracking engine through exponentially many partial
/// cliques, realizing the NP-hard cells honestly. Also provides
/// `g(v, c0)` facts so the clique-chain's free-variable atom matches.
fn turan_db(i: &mut Interner, parts: usize, per_part: usize) -> wdpt_model::Database {
    let e = i.pred("e");
    let g = i.pred("g");
    let mut db = wdpt_model::Database::new();
    let n = parts * per_part;
    let consts: Vec<_> = (0..n).map(|j| i.constant(&format!("c{j}"))).collect();
    let c0 = consts[0];
    for a in 0..n {
        for b in 0..n {
            if a != b && a % parts != b % parts {
                db.insert(e, vec![consts[a], consts[b]]);
            }
        }
        db.insert(g, vec![consts[a], c0]);
    }
    db
}

#[allow(dead_code)]
fn unused(_: &Series) {}
