//! Generic backtracking evaluation — the baseline engine for arbitrary CQs.
//!
//! This is the textbook index-nested-loop search: repeatedly pick the most
//! constrained unprocessed atom (most bound positions, then smallest
//! matching-tuple estimate), scan its matching tuples through the relation's
//! column indexes, extend the current partial mapping, and recurse. Its
//! worst case is exponential in the query size — exactly the `NP`-hardness
//! the paper's tractable classes are designed to avoid — but it serves as
//! (a) the general-purpose fallback and (b) the baseline the benchmark
//! harness compares the structured engines against.
//!
//! Every entry point — [`extend_all`], [`extend_exists`], [`try_extend_all`],
//! [`evaluate`] — is the same search with a different "on homomorphism"
//! action; a cost-based plan replaces the ordering heuristic by a static
//! permutation through [`try_extend_all`]'s `order`.

use crate::query::ConjunctiveQuery;
use std::cell::Cell;
use wdpt_model::{Atom, CancelToken, Cancelled, Const, Database, Mapping, Term};

/// How a search should proceed after each discovered homomorphism.
enum Found {
    Continue,
    Stop,
    /// The cancel token fired: unwind immediately, discarding progress.
    Cancelled,
}

/// Per-search cancellation state: the shared token plus the step counter
/// that amortizes its deadline clock checks (a `Cell` so the recursive
/// search can bump it through a shared reference).
struct Ctl<'a> {
    token: &'a CancelToken,
    steps: Cell<u32>,
}

impl<'a> Ctl<'a> {
    fn new(token: &'a CancelToken) -> Ctl<'a> {
        Ctl {
            token,
            steps: Cell::new(0),
        }
    }

    /// One relaxed load per call — the same fast-path budget as the obs
    /// enabled-flag — with the clock consulted only every ~1k steps.
    #[inline]
    fn cancelled(&self) -> bool {
        let mut steps = self.steps.get();
        let stop = self.token.should_stop(&mut steps);
        self.steps.set(steps);
        stop
    }
}

/// Returns the match pattern of `atom` under `h`: bound positions carry
/// `Some(c)`.
fn pattern(atom: &Atom, h: &Mapping) -> Vec<Option<Const>> {
    atom.args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(*c),
            Term::Var(v) => h.get(*v),
        })
        .collect()
}

/// Estimated number of matching tuples for ordering heuristics: exact for
/// fully-bound atoms, the shortest posting list among bound columns for
/// partially-bound atoms (the seed returned `rel.len()` there, which
/// mis-ranked selective partially-bound atoms behind small relations), and
/// the relation size for unbound atoms.
fn estimate(db: &Database, atom: &Atom, h: &Mapping) -> usize {
    db.relation(atom.pred)
        .map_or(0, |rel| rel.estimate_matching(&pattern(atom, h)))
}

fn search<F: FnMut(&Mapping) -> Found>(
    db: &Database,
    atoms: &[&Atom],
    done: &mut [bool],
    h: &mut Mapping,
    on_hom: &mut F,
    dynamic_order: bool,
    ctl: &Ctl<'_>,
) -> Found {
    if ctl.cancelled() {
        return Found::Cancelled;
    }
    // Pick the next unprocessed atom: most constrained first by default,
    // the given sequence under a planned static order.
    let next = if dynamic_order {
        atoms
            .iter()
            .enumerate()
            .filter(|&(i, _)| !done[i])
            .max_by_key(|&(_, a)| {
                let bound = pattern(a, h).iter().filter(|p| p.is_some()).count();
                // Prefer many bound positions; break ties toward few matches.
                (bound, usize::MAX - estimate(db, a, h))
            })
            .map(|(i, _)| i)
    } else {
        (0..atoms.len()).find(|&i| !done[i])
    };
    let Some(i) = next else {
        return on_hom(h);
    };
    done[i] = true;
    wdpt_model::stats::record_node_expanded();
    let atom = atoms[i];
    let result = (|| {
        let Some(rel) = db.relation(atom.pred) else {
            return Found::Continue; // empty relation: no match, backtrack
        };
        let pat = pattern(atom, h);
        // Iterate the postings directly — `db` is borrowed immutably for
        // the whole search, only `h`/`done` mutate, so there is no need to
        // materialize a `Vec<Vec<Const>>` of matches at every search node
        // (the seed did, making allocation the dominant cost on large
        // relations).
        for tuple in rel.matching(&pat) {
            // Extend h with the new bindings; tuples matching `pat` can only
            // conflict through repeated variables inside this atom.
            let mut added: Vec<wdpt_model::Var> = Vec::new();
            let mut ok = true;
            for (term, value) in atom.args.iter().zip(tuple.iter()) {
                if let Term::Var(v) = term {
                    if let Some(existing) = h.get(*v) {
                        if existing != *value {
                            ok = false;
                            break;
                        }
                    } else {
                        h.insert(*v, *value);
                        added.push(*v);
                    }
                }
            }
            if ok {
                match search(db, atoms, done, h, on_hom, dynamic_order, ctl) {
                    Found::Continue => {}
                    stop => {
                        for v in added {
                            h.remove(v);
                        }
                        return stop;
                    }
                }
            }
            for v in added {
                h.remove(v);
            }
        }
        Found::Continue
    })();
    done[i] = false;
    result
}

/// True iff `order` is a permutation of `0..n` — the precondition for
/// executing it as a static atom order.
fn valid_order(order: &[usize], n: usize) -> bool {
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    order
        .iter()
        .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
}

/// The one search entry: hands `on_hom` every total assignment of the
/// atoms' variables consistent with `seed` under which every atom is in
/// `db`. `seed` is restricted to the atoms' variables first, so the
/// homomorphisms have exactly those as domain.
///
/// `order = Some(perm)` processes `atoms[perm[0]], atoms[perm[1]], …`
/// verbatim — the hook the cost-based planner drives — and `None` re-selects
/// the most constrained atom at every step. Anything but a permutation of
/// `0..atoms.len()` (a plan built for a different query shape) degrades to
/// the dynamic default: a stale plan must never change answers.
fn run_search<F: FnMut(&Mapping) -> Found>(
    db: &Database,
    atoms: &[Atom],
    order: Option<&[usize]>,
    seed: &Mapping,
    token: &CancelToken,
    mut on_hom: F,
) -> Found {
    let order = order.filter(|o| valid_order(o, atoms.len()));
    let refs: Vec<&Atom> = match order {
        Some(perm) => perm.iter().map(|&i| &atoms[i]).collect(),
        None => atoms.iter().collect(),
    };
    let mut done = vec![false; refs.len()];
    let mut h = seed.restrict(&wdpt_model::atom::vars_of_atoms(atoms));
    search(
        db,
        &refs,
        &mut done,
        &mut h,
        &mut on_hom,
        order.is_none(),
        &Ctl::new(token),
    )
}

/// All homomorphisms from the atom set into `db` that extend `seed`,
/// i.e. total assignments of the atoms' variables consistent with `seed`
/// under which every atom is in `db`. The returned mappings include the
/// seed bindings for variables that occur in the atoms.
pub fn extend_all(db: &Database, atoms: &[Atom], seed: &Mapping) -> Vec<Mapping> {
    try_extend_all(db, atoms, None, seed, CancelToken::never())
        .expect("the never token cannot cancel")
}

/// [`extend_all`] under a cancel token — `Err(Cancelled)` if it fires
/// mid-search, discarding partial results — and an optional planned static
/// atom order (`None`: the dynamic most-constrained heuristic; an `order`
/// that is not a permutation of the atoms degrades to it).
pub fn try_extend_all(
    db: &Database,
    atoms: &[Atom],
    order: Option<&[usize]>,
    seed: &Mapping,
    token: &CancelToken,
) -> Result<Vec<Mapping>, Cancelled> {
    let _span = wdpt_obs::span!("cq.backtrack.extend_all");
    let mut out = Vec::new();
    match run_search(db, atoms, order, seed, token, |hom| {
        out.push(hom.clone());
        Found::Continue
    }) {
        Found::Cancelled => Err(Cancelled),
        _ => Ok(out),
    }
}

/// True iff at least one homomorphism extending `seed` exists.
pub fn extend_exists(db: &Database, atoms: &[Atom], seed: &Mapping) -> bool {
    let _span = wdpt_obs::span!("cq.backtrack.extend_exists");
    let found = run_search(db, atoms, None, seed, CancelToken::never(), |_| Found::Stop);
    matches!(found, Found::Stop)
}

/// The paper's `q(D)`: the set of restrictions `h_x̄` of homomorphisms from
/// `q` to `db`, as deduplicated mappings on the head variables.
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Vec<Mapping> {
    let _span = wdpt_obs::span!("cq.backtrack.evaluate");
    let head = q.head_set();
    let mut out: std::collections::BTreeSet<Mapping> = Default::default();
    run_search(
        db,
        q.body(),
        None,
        &Mapping::empty(),
        CancelToken::never(),
        |hom| {
            out.insert(hom.restrict(&head));
            Found::Continue
        },
    );
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::parse::{parse_atoms, parse_database, parse_mapping};
    use wdpt_model::Interner;

    fn setup() -> (Interner, Database) {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(a,b) e(b,c) e(c,d) e(a,c)").unwrap();
        (i, db)
    }

    #[test]
    fn path_query_has_expected_answers() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let homs = extend_all(&db, &atoms, &Mapping::empty());
        // Paths of length 2: a-b-c, b-c-d, a-c-d.
        assert_eq!(homs.len(), 3);
    }

    #[test]
    fn seed_constrains_search() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let seed = parse_mapping(&mut i, "?x -> a").unwrap();
        let homs = extend_all(&db, &atoms, &seed);
        assert_eq!(homs.len(), 2); // a-b-c and a-c-d
        assert!(homs
            .iter()
            .all(|h| h.get(i.var("x")) == Some(i.constant("a"))));
    }

    #[test]
    fn exists_short_circuits() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?x)").unwrap();
        assert!(!extend_exists(&db, &atoms, &Mapping::empty()));
        let atoms2 = parse_atoms(&mut i, "e(?x,?y)").unwrap();
        assert!(extend_exists(&db, &atoms2, &Mapping::empty()));
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "r(a,a) r(a,b)").unwrap();
        let atoms = parse_atoms(&mut i, "r(?x,?x)").unwrap();
        let homs = extend_all(&db, &atoms, &Mapping::empty());
        assert_eq!(homs.len(), 1);
    }

    #[test]
    fn constants_in_atoms_restrict_matches() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(a,?y)").unwrap();
        let homs = extend_all(&db, &atoms, &Mapping::empty());
        assert_eq!(homs.len(), 2); // b and c
    }

    #[test]
    fn evaluate_projects_and_dedups() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y)").unwrap();
        let q = ConjunctiveQuery::new(vec![i.var("x")], atoms);
        let ans = evaluate(&q, &db);
        // Sources: a (twice, deduped), b, c.
        assert_eq!(ans.len(), 3);
    }

    #[test]
    fn empty_body_yields_empty_mapping() {
        let (_, db) = setup();
        let homs = extend_all(&db, &[], &Mapping::empty());
        assert_eq!(homs, vec![Mapping::empty()]);
    }

    #[test]
    fn missing_relation_yields_no_homs() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "unknown(?x)").unwrap();
        assert!(extend_all(&db, &atoms, &Mapping::empty()).is_empty());
        assert!(!extend_exists(&db, &atoms, &Mapping::empty()));
    }

    #[test]
    fn seed_outside_atom_vars_is_ignored() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y)").unwrap();
        let seed = parse_mapping(&mut i, "?unrelated -> a").unwrap();
        let homs = extend_all(&db, &atoms, &seed);
        assert_eq!(homs.len(), 4);
        assert!(homs.iter().all(|h| h.len() == 2));
    }

    #[test]
    fn estimate_ranks_partially_bound_atoms_by_posting_list() {
        let mut i = Interner::new();
        // big/2 has 60 tuples but at most one per ?y value; small/2 has 10.
        let mut spec = String::new();
        for j in 0..60 {
            spec.push_str(&format!("big(s{j},t{j}) "));
        }
        for j in 0..10 {
            spec.push_str(&format!("small(a{j},b{j}) "));
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let atoms = parse_atoms(&mut i, "big(?x,?y), small(?z,?w)").unwrap();
        let seed = parse_mapping(&mut i, "?y -> t7").unwrap();
        // Bound on ?y, the big atom has a 1-element posting list; the seed
        // implementation returned rel.len() = 60 and ranked it *behind* the
        // unbound small atom (10).
        assert_eq!(estimate(&db, &atoms[0], &seed), 1);
        assert_eq!(estimate(&db, &atoms[1], &seed), 10);
        // Unbound, the big atom estimates its full size.
        assert_eq!(estimate(&db, &atoms[0], &Mapping::empty()), 60);
    }

    #[test]
    fn dynamic_order_picks_the_selective_atom_first() {
        let mut i = Interner::new();
        // Both atoms have one bound position under the seed, so only the
        // match estimate decides the order. a/2 is the larger relation but
        // its x=c0 posting list has a single entry; every b/2 tuple has
        // x=c0. The seed estimate (relation size) ranked b first and
        // expanded 1 + |b| nodes; the posting-list estimate expands a
        // first, for 2 nodes total.
        let mut spec = String::from("a(c0,u0) ");
        for j in 0..1100 {
            spec.push_str(&format!("a(g{j},h{j}) "));
        }
        for j in 0..1000 {
            spec.push_str(&format!("b(c0,v{j}) "));
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let atoms = parse_atoms(&mut i, "a(?x,?u), b(?x,?v)").unwrap();
        let seed = parse_mapping(&mut i, "?x -> c0").unwrap();
        let before = wdpt_model::stats::snapshot();
        let homs = extend_all(&db, &atoms, &seed);
        let delta = wdpt_model::stats::snapshot().since(&before);
        assert_eq!(homs.len(), 1000);
        // The mis-ranked order expands 1001 nodes; the fixed one expands 2.
        // The slack absorbs other tests running concurrently (the counters
        // are process-wide).
        assert!(
            delta.nodes_expanded <= 500,
            "selective atom was not processed first: {} nodes",
            delta.nodes_expanded
        );
    }

    #[test]
    fn cancelled_token_aborts_search() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let token = CancelToken::new();
        token.cancel();
        for order in [None, Some(&[1usize, 0][..])] {
            assert_eq!(
                try_extend_all(&db, &atoms, order, &Mapping::empty(), &token),
                Err(Cancelled)
            );
        }
        // A live token behaves exactly like the plain entry points.
        let live = CancelToken::new();
        let homs = try_extend_all(&db, &atoms, None, &Mapping::empty(), &live).unwrap();
        assert_eq!(homs, extend_all(&db, &atoms, &Mapping::empty()));
    }

    #[test]
    fn expired_deadline_aborts_search() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        token.poll_deadline(); // latch the expiry
        assert_eq!(
            try_extend_all(&db, &atoms, None, &Mapping::empty(), &token),
            Err(Cancelled)
        );
    }

    #[test]
    fn ordered_execution_follows_the_given_permutation() {
        let mut i = Interner::new();
        // small: 2 rows; fan: fan-out 100 from each small value; filter: 1.
        let mut spec = String::from("small(a) small(b) filter(y0) ");
        for s in ["a", "b"] {
            for j in 0..100 {
                spec.push_str(&format!("fan({s},y{j}) "));
            }
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let atoms = parse_atoms(&mut i, "small(?x), fan(?x,?y), filter(?y)").unwrap();
        let token = CancelToken::new();
        // Bad order: small → fan explodes the frontier before filter prunes.
        let before = wdpt_model::stats::snapshot();
        let bad = try_extend_all(&db, &atoms, Some(&[0, 1, 2]), &Mapping::empty(), &token).unwrap();
        let bad_nodes = wdpt_model::stats::snapshot().since(&before).nodes_expanded;
        // Good order: filter first keeps the frontier at 1.
        let before = wdpt_model::stats::snapshot();
        let good =
            try_extend_all(&db, &atoms, Some(&[2, 1, 0]), &Mapping::empty(), &token).unwrap();
        let good_nodes = wdpt_model::stats::snapshot().since(&before).nodes_expanded;
        // Same answers either way; radically different work.
        let mut b = bad.clone();
        let mut g = good.clone();
        b.sort();
        g.sort();
        assert_eq!(b, g);
        assert_eq!(good.len(), 2);
        assert!(
            good_nodes * 10 <= bad_nodes,
            "expected ≥10× gap, got {good_nodes} vs {bad_nodes}"
        );
    }

    #[test]
    fn invalid_order_degrades_to_dynamic() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let token = CancelToken::new();
        // Wrong length and duplicate entries both fall back cleanly.
        for order in [&[0usize][..], &[0, 0][..], &[1, 2][..]] {
            let homs = try_extend_all(&db, &atoms, Some(order), &Mapping::empty(), &token).unwrap();
            assert_eq!(homs.len(), 3, "order {order:?}");
        }
    }

    #[test]
    fn boolean_query_on_triangle() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(1,2) e(2,3) e(3,1)").unwrap();
        let atoms = parse_atoms(&mut i, "e(?x,?y) e(?y,?z) e(?z,?x)").unwrap();
        assert!(extend_exists(&db, &atoms, &Mapping::empty()));
        let homs = extend_all(&db, &atoms, &Mapping::empty());
        assert_eq!(homs.len(), 3); // three rotations
    }
}
