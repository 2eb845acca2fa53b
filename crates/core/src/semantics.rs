//! WDPT semantics: maximal homomorphisms, `p(D)`, and `p_m(D)`.
//!
//! Definition 2 of the paper: a homomorphism from `p = (T, λ, x̄)` to `D` is
//! a partial mapping that is a full homomorphism of `q_{T'}` for some rooted
//! subtree `T'`; it is *maximal* if no proper extension is again a
//! homomorphism; `p(D)` is the set of projections `h_x̄` of maximal
//! homomorphisms; `p_m(D)` (Section 3.4) keeps only the ⊑-maximal ones.
//!
//! The evaluator exploits well-designedness twice. Two sibling subtrees can
//! share a variable only through their common ancestors, so once the
//! ancestor valuation is fixed the children are independent: a maximal
//! homomorphism is a local homomorphism of the root joined, for every child
//! that is extendable at all, with some maximal extension into that child —
//! a recursive product that never enumerates the `2^{|T|}` subtrees
//! explicitly. And the variables a node shares with everything outside its
//! subtree — its *interface*, the quantity `BI(c)` bounds — all occur in
//! its parent, so the maximal extensions into a subtree are a function of
//! the interface valuation alone: each subtree is evaluated once per
//! *distinct* interface valuation its contexts produce, not once per
//! context.
//!
//! There is one executor ([`execute`] over [`Run::subtree`]). Its search
//! leaves a factorised result — per tree node its local homomorphisms, per
//! child the key each of them maps to, per key an exact count of the
//! maximal extensions under it — so `|p(D)|` is a sum of products, known
//! before any row exists. Its product is the [`Answers`] table: that count,
//! and a header of ascending variables over flat rows of `Option<Const>`
//! cells, sorted and distinct, of which it builds only the first `limit`
//! when the order allows (see [`execute`]). Beside the table it keeps one
//! account of the work that took, the [`EvalTally`]: local homomorphisms
//! per tree node and the backtracking searches' own counts, summed from
//! each search before it is dropped. The tally belongs to the run — it is
//! no diff of process-wide counters — so it is exact whatever else
//! evaluates concurrently, the same at every thread count and every
//! `limit`, and it survives cancellation. The public functions differ only in what they
//! pass the executor (threads, cancel token, plan, the variables to project
//! onto, how many rows to build) and in whether they hand the table on as
//! it is, with the tally ([`evaluate_rows`], which a server encodes
//! responses from), or view it as [`Mapping`]s ([`Answers::into_mappings`]:
//! [`evaluate`], [`evaluate_max`], [`maximal_homomorphisms`],
//! [`try_evaluate_parallel_planned`]).

use crate::tree::Wdpt;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use wdpt_cq::backtrack::{extend_all, Search};
use wdpt_model::{
    mapping::maximal_mappings, CancelToken, Cancelled, Const, Database, Mapping, Var,
};
use wdpt_obs::span;
use wdpt_plan::ExecPlan;

/// Rows of `width` cells, stored flat, in consecutive groups — one group
/// per interface valuation a node was evaluated under.
struct Grouped {
    width: usize,
    cells: Vec<Const>,
    rows: usize,
    /// `ends[g]` is one past the last row of group `g`.
    ends: Vec<usize>,
}

impl Grouped {
    fn new(width: usize) -> Self {
        Grouped {
            width,
            cells: Vec::new(),
            rows: 0,
            ends: Vec::new(),
        }
    }

    /// Ends the group the rows pushed since the last call belong to.
    fn close_group(&mut self) {
        self.ends.push(self.rows);
    }

    fn group(&self, g: usize) -> Range<usize> {
        let start = if g == 0 { 0 } else { self.ends[g - 1] };
        start..self.ends[g]
    }

    fn row(&self, r: usize) -> &[Const] {
        &self.cells[r * self.width..(r + 1) * self.width]
    }
}

/// The distinct interface valuations one node is evaluated under.
struct Keys {
    /// Cells per key: the size of the node's interface.
    width: usize,
    cells: Vec<Const>,
    /// How many contexts — chains of local homomorphisms from the root down
    /// to the parent — produce each key. Its length is the number of keys.
    contexts: Vec<u64>,
}

/// What the executor knows of a tree node before it looks at the data.
struct Shape {
    /// The node's variables, ascending: the slots of its [`Search`].
    vars: Vec<Var>,
    /// The interface: per variable shared with the parent, its slot here
    /// and its slot in the parent. By well-designedness these are all the
    /// variables the node's subtree shares with the rest of the tree.
    iface: Vec<(usize, usize)>,
    /// Slots of the variables no ancestor mentions.
    fresh: Vec<usize>,
}

fn shapes(p: &Wdpt) -> Vec<Shape> {
    let mut shapes: Vec<Shape> = Vec::with_capacity(p.node_count());
    for t in 0..p.node_count() {
        let vars: Vec<Var> = p.node_vars(t).into_iter().collect();
        // Preorder ids: the parent's shape is already there.
        let parent_vars: &[Var] = p.parent(t).map_or(&[], |parent| &shapes[parent].vars);
        let (mut iface, mut fresh) = (Vec::new(), Vec::new());
        for (slot, v) in vars.iter().enumerate() {
            match parent_vars.binary_search(v) {
                Ok(parent_slot) => iface.push((slot, parent_slot)),
                Err(_) => fresh.push(slot),
            }
        }
        shapes.push(Shape { vars, iface, fresh });
    }
    shapes
}

/// The variable behind each cell of a row built from `t`'s subtree: the
/// fresh variables of `t`, then one segment per child, recursively.
fn layout(p: &Wdpt, shapes: &[Shape], t: usize, out: &mut Vec<Var>) {
    out.extend(shapes[t].fresh.iter().map(|&slot| shapes[t].vars[slot]));
    for &c in p.children(t) {
        layout(p, shapes, c, out);
    }
}

/// The fewest keys worth a worker thread of their own. Spawning and joining
/// a scoped thread costs 13–27 µs where this was measured, a key of a
/// one-atom node 0.1–0.3 µs to search: below a couple of hundred keys the
/// thread costs more than it takes off the caller, so the root (one key),
/// point queries and the thin lower levels of a deep tree stay on the
/// calling thread whatever `threads` says. The bound counts keys, not work:
/// a node with few keys and an expensive CQ each is searched inline too.
const MIN_KEYS_PER_WORKER: usize = 256;

/// What one evaluation carries down the tree.
struct Run<'a> {
    p: &'a Wdpt,
    db: &'a Database,
    /// Planned static atom order per node; nodes the plan does not cover (no
    /// plan, or one indexed for a different tree shape) use the dynamic
    /// most-constrained heuristic.
    plan: Option<&'a ExecPlan>,
    token: &'a CancelToken,
    workers: usize,
    shapes: Vec<Shape>,
    /// [`EvalTally::homs`] in the making.
    homs: Vec<u64>,
    /// [`EvalTally::nodes_expanded`], [`EvalTally::index_probes`] and
    /// [`EvalTally::tuples_scanned`] in the making: each search adds its
    /// counts once, when it ends. Atomics because searches run on scoped
    /// worker threads; relaxed because they are tallies, read only after
    /// every worker is joined.
    work: [AtomicU64; 3],
    /// Amortizes the token's deadline checks over the row-building loop.
    poll_steps: u32,
}

impl Run<'_> {
    /// The local homomorphisms of node `t` under `keys[range]`, one group
    /// per key, as full frames of the node's variables.
    fn search_keys(
        &self,
        t: usize,
        keys: &Keys,
        range: Range<usize>,
    ) -> Result<Grouped, Cancelled> {
        // One span per node (and worker), not one per key: the phase keeps
        // the name of the CQ entry point it times, with the keys as calls.
        let mut span = span!("cq.backtrack.extend_all");
        span.set_calls(range.len() as u64);
        let shape = &self.shapes[t];
        let order = self.plan.and_then(|pl| pl.nodes.get(t));
        let mut search = Search::compile(
            self.db,
            self.p.atoms(t),
            order.map(|no| no.order.as_slice()),
            |v| shape.iface.iter().any(|&(slot, _)| shape.vars[slot] == v),
        );
        let mut locals = Grouped::new(shape.vars.len());
        let searched = range.into_iter().try_for_each(|g| {
            let key = &keys.cells[g * keys.width..(g + 1) * keys.width];
            for (&(slot, _), &value) in shape.iface.iter().zip(key) {
                search.set(slot, value);
            }
            let (cells, rows) = (&mut locals.cells, &mut locals.rows);
            search.for_each(self.token, |frame| {
                cells.extend_from_slice(frame);
                *rows += 1;
            })?;
            locals.close_group();
            Ok(())
        });
        // Cancelled or not: what the search did, it did.
        let counts = [
            search.nodes_expanded(),
            search.tally().probes(),
            search.tally().scanned(),
        ];
        for (total, n) in self.work.iter().zip(counts) {
            total.fetch_add(n, Relaxed);
        }
        searched.map(|()| locals)
    }

    /// [`Run::search_keys`] over all of `keys`: inline when fewer than two
    /// workers would get [`MIN_KEYS_PER_WORKER`] keys each, otherwise in
    /// contiguous chunks over scoped threads (`Database` is `Sync` — what a
    /// relation derives lazily lives in `OnceLock`s), concatenated in key order. The
    /// workers share the evaluation's cancel token, so one hitting the
    /// deadline stops the rest within one poll interval; the scope still
    /// joins everything before the error propagates.
    fn local_homs(&self, t: usize, keys: &Keys) -> Result<Grouped, Cancelled> {
        let n = keys.contexts.len();
        let workers = self.workers.min(n / MIN_KEYS_PER_WORKER);
        if workers < 2 {
            return self.search_keys(t, keys, 0..n);
        }
        let chunk = n.div_ceil(workers);
        let chunks = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|start| {
                    s.spawn(move || {
                        let _span = span!("wdpt.parallel.worker");
                        let range = start..(start + chunk).min(n);
                        wdpt_model::stats::record_parallel_tasks(range.len() as u64);
                        self.search_keys(t, keys, range)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect::<Vec<_>>()
        });
        let mut locals = Grouped::new(self.shapes[t].vars.len());
        for part in chunks {
            let part = part?;
            locals.cells.extend_from_slice(&part.cells);
            locals
                .ends
                .extend(part.ends.iter().map(|e| locals.rows + e));
            locals.rows += part.rows;
        }
        Ok(locals)
    }

    /// The distinct interface valuations of child `c` among the rows of its
    /// parent's local homomorphisms (found under `parent_keys`), ascending —
    /// so the child's searches probe in key order ([`Search`]) — and the key
    /// each row maps to. The rows' projections are usually ascending
    /// already (each parent search walks its run in order); one pass checks
    /// that, and only otherwise are the row ids sorted by key. Equal keys
    /// are then adjacent and merge into one, in place.
    fn child_keys(&self, c: usize, locals: &Grouped, parent_keys: &Keys) -> (Keys, Vec<u32>) {
        let iface = &self.shapes[c].iface;
        let width = iface.len();
        let mut projected = Vec::with_capacity(locals.rows * width);
        let mut row_contexts = Vec::with_capacity(locals.rows);
        for (g, &contexts) in parent_keys.contexts.iter().enumerate() {
            for r in locals.group(g) {
                let row = locals.row(r);
                projected.extend(iface.iter().map(|&(_, parent_slot)| row[parent_slot]));
                row_contexts.push(contexts);
            }
        }
        let key = |r: usize| &projected[r * width..(r + 1) * width];
        // The rows in key order (`None`: as they are), with their keys and
        // contexts in that order.
        let (order, mut cells, mut contexts) = if (1..locals.rows).all(|r| key(r - 1) <= key(r)) {
            (None, projected, row_contexts)
        } else {
            let mut order: Vec<usize> = (0..locals.rows).collect();
            order.sort_unstable_by_key(|&r| key(r));
            let cells = order.iter().flat_map(|&r| key(r)).copied().collect();
            let contexts = order.iter().map(|&r| row_contexts[r]).collect();
            (Some(order), cells, contexts)
        };
        // Equal keys are adjacent: the first of each run moves to the front
        // and takes the contexts of the rest.
        let mut kept = 0;
        let mut key_of_row = vec![0; locals.rows];
        for i in 0..locals.rows {
            if kept == 0
                || cells[(kept - 1) * width..kept * width] != cells[i * width..(i + 1) * width]
            {
                cells.copy_within(i * width..(i + 1) * width, kept * width);
                contexts[kept] = contexts[i];
                kept += 1;
            } else {
                // Contexts multiply down the tree and can outgrow a `u64`.
                contexts[kept - 1] = contexts[kept - 1].saturating_add(contexts[i]);
            }
            key_of_row[order.as_ref().map_or(i, |o| o[i])] = (kept - 1) as u32;
        }
        cells.truncate(kept * width);
        contexts.truncate(kept);
        let keys = Keys {
            width,
            cells,
            contexts,
        };
        (keys, key_of_row)
    }

    /// The maximal extensions into the subtree rooted at `t` under each of
    /// `keys`, factorised: the node's local homomorphisms, one group per
    /// key, beside each child's own factorised result and the number of
    /// maximal extensions under each key. An empty group means "`t` itself
    /// is not extendable" under that key (the branch fails and is dropped by
    /// the parent). `key_of_row` is what the parent computed for `t`
    /// ([`Run::child_keys`]); it is kept with the result.
    ///
    /// Children are independent given their parent's valuation
    /// (well-designedness), so each is evaluated — recursively, by this
    /// function — under the distinct interface valuations the parent's
    /// local homomorphisms produce, and a local row's count is the product
    /// over the children of what the child has under that row's key
    /// ([`Factor::count`]). No row of the subtree is built here;
    /// [`Run::build`] does that once, at the root.
    fn subtree(
        &mut self,
        t: usize,
        keys: &Keys,
        key_of_row: Vec<u32>,
    ) -> Result<Factor, Cancelled> {
        let locals = self.local_homs(t, keys)?;
        // Saturating: contexts multiply down the tree.
        self.homs[t] = (0..keys.contexts.len())
            .map(|g| keys.contexts[g].saturating_mul(locals.group(g).len() as u64))
            .fold(self.homs[t], u64::saturating_add);
        let p = self.p;
        let mut children = Vec::with_capacity(p.children(t).len());
        for &c in p.children(t) {
            let (child_keys, key_of_row) = self.child_keys(c, &locals, keys);
            children.push(self.subtree(c, &child_keys, key_of_row)?);
        }
        let mut factor = Factor {
            locals,
            key_of_row,
            children,
            totals: None,
        };
        factor.totals = factor.sum_counts();
        Ok(factor)
    }

    /// Appends to `out` the rows the maximal homomorphisms that extend the
    /// root's local rows `roots` stand for, each projected onto `kept`
    /// (cells of a row in [`layout`] order). The extensions of one root row
    /// are a mixed-radix product: one [`Digit`] per tree node in layout
    /// order (a preorder), ranging over the node's local rows under its
    /// parent's digit — or over nothing, when the node or an ancestor is not
    /// extendable and its cells stay unbound. The last digit turns fastest;
    /// a digit that turns resets every digit after it. The token is polled
    /// once per row.
    fn build(
        &mut self,
        root: &Factor,
        roots: impl Iterator<Item = usize>,
        kept: &[(Var, usize)],
        out: &mut Vec<Option<Const>>,
    ) -> Result<(), Cancelled> {
        let _span = span!("wdpt.eval.assemble");
        let mut digits = Vec::with_capacity(self.shapes.len());
        Digit::push(self.p, &self.shapes, root, self.p.root(), 0, &mut digits);
        let reset = |digits: &mut [Digit], from: usize| {
            for d in from..digits.len() {
                let (factor, parent) = (digits[d].factor, &digits[digits[d].parent]);
                digits[d].range = if parent.range.is_empty() {
                    0..0
                } else {
                    factor.locals.group(factor.key_of_row[parent.at] as usize)
                };
                digits[d].at = digits[d].range.start;
            }
        };
        let mut row: Vec<Option<Const>> = Vec::new();
        for r in roots {
            (digits[0].range, digits[0].at) = (r..r + 1, r);
            reset(&mut digits, 1);
            loop {
                if self.token.should_stop(&mut self.poll_steps) {
                    return Err(Cancelled);
                }
                row.clear();
                for digit in &digits {
                    if digit.range.is_empty() {
                        row.extend(std::iter::repeat_n(None, digit.fresh.len()));
                    } else {
                        let local = digit.factor.locals.row(digit.at);
                        row.extend(digit.fresh.iter().map(|&slot| Some(local[slot])));
                    }
                }
                out.extend(kept.iter().map(|&(_, cell)| row[cell]));
                let Some(d) = (1..digits.len())
                    .rev()
                    .find(|&d| digits[d].at + 1 < digits[d].range.end)
                else {
                    break;
                };
                digits[d].at += 1;
                reset(&mut digits, d + 1);
            }
        }
        Ok(())
    }

    /// The table of the maximal homomorphisms `root` factorises, projected
    /// onto `onto`, holding its first `limit` rows ([`execute`]).
    fn table(
        &mut self,
        root: &Factor,
        onto: &BTreeSet<Var>,
        limit: usize,
    ) -> Result<Answers, Cancelled> {
        let mut columns = Vec::new();
        layout(self.p, &self.shapes, self.p.root(), &mut columns);
        // The cells to keep, in ascending variable order.
        let mut kept: Vec<(Var, usize)> = columns
            .iter()
            .enumerate()
            .filter(|(_, v)| onto.contains(v))
            .map(|(cell, &v)| (v, cell))
            .collect();
        kept.sort_unstable();
        let vars: Vec<Var> = kept.iter().map(|&(v, _)| v).collect();
        if vars.is_empty() {
            // Nothing to tell the rows apart by: one row if the root
            // has any, and no row needs building.
            let len = usize::from(root.locals.rows > 0);
            return Ok(Answers {
                vars,
                cells: Vec::new(),
                rows: len.min(limit),
                len,
            });
        }
        // The root is evaluated under one key, the empty valuation.
        let total = root.totals.as_ref().map(|totals| totals[0]);
        let root_vars = &self.shapes[self.p.root()].vars;
        let early = match (total, root_vars.binary_search(&vars[0])) {
            (Some(total), Ok(v0)) if kept.len() == columns.len() && limit < total => {
                Some((total, v0))
            }
            _ => None,
        };
        let mut cells = Vec::new();
        match early {
            None => self.build(root, 0..root.locals.rows, &kept, &mut cells)?,
            Some((_, v0)) => {
                let value = |r: usize| root.locals.row(r)[v0];
                let mut order: Vec<usize> = (0..root.locals.rows).collect();
                if !(1..order.len()).all(|r| value(r - 1) <= value(r)) {
                    order.sort_unstable_by_key(|&r| value(r));
                }
                // Up to the end of the `v0` group in which the running
                // sum of counts reaches `limit`.
                let (mut end, mut sum) = (0, 0);
                while end < order.len()
                    && (sum < limit || (end > 0 && value(order[end - 1]) == value(order[end])))
                {
                    sum += root.count(order[end]).expect("no more than the total");
                    end += 1;
                }
                self.build(root, order[..end].iter().copied(), &kept, &mut cells)?
            }
        }
        let mut rows: Vec<&[Option<Const>]> = cells.chunks_exact(vars.len()).collect();
        rows.sort_unstable_by(|a, b| cmp_as_mappings(a, b));
        rows.dedup();
        let len = early.map_or(rows.len(), |(total, _)| total);
        rows.truncate(limit);
        Ok(Answers {
            cells: rows.concat(),
            rows: rows.len(),
            vars,
            len,
        })
    }
}

/// The maximal extensions into one subtree, factorised ([`Run::subtree`]):
/// nothing in it is a row of the answer yet.
struct Factor {
    /// The node's local homomorphisms as full frames of its variables, one
    /// group per key it was evaluated under.
    locals: Grouped,
    /// Per local row of the parent, the group of `locals` its interface
    /// valuation is; empty at the root.
    key_of_row: Vec<u32>,
    /// One per child of the node, in the tree's order.
    children: Vec<Factor>,
    /// Per key, the number of maximal extensions into the subtree under it
    /// (`0`: the node is not extendable) — exact, or `None` if some count
    /// of the subtree outgrew a `usize`.
    totals: Option<Vec<usize>>,
}

impl Factor {
    /// The number of maximal extensions of local row `r` into the subtree:
    /// the product over the children of what each has under `r`'s key, at
    /// least 1 — a child that is not extendable leaves the row as it is.
    fn count(&self, r: usize) -> Option<usize> {
        self.children.iter().try_fold(1usize, |n, child| {
            n.checked_mul(child.totals.as_ref()?[child.key_of_row[r] as usize].max(1))
        })
    }

    /// Per key, the sum of its rows' [`Factor::count`]s.
    fn sum_counts(&self) -> Option<Vec<usize>> {
        let mut totals = Vec::with_capacity(self.locals.ends.len());
        let mut start = 0;
        for &end in &self.locals.ends {
            totals.push((start..end).try_fold(0usize, |n, r| n.checked_add(self.count(r)?))?);
            start = end;
        }
        Some(totals)
    }
}

/// One digit of [`Run::build`]'s mixed-radix counter: a tree node's share
/// of the row being built.
struct Digit<'f> {
    factor: &'f Factor,
    /// The slots of the node's frames the row takes, in [`layout`] order.
    fresh: &'f [usize],
    /// The digit of the node's parent (the root: its own).
    parent: usize,
    /// The local rows the digit ranges over — none when the node is not
    /// extendable under its parent's row — and the one it is at.
    range: Range<usize>,
    at: usize,
}

impl<'f> Digit<'f> {
    /// Pushes the digits of the subtree rooted at `t`, in layout order:
    /// `factor` is the subtree's factorised result, `parent` the digit of
    /// `t`'s parent.
    fn push(
        p: &Wdpt,
        shapes: &'f [Shape],
        factor: &'f Factor,
        t: usize,
        parent: usize,
        out: &mut Vec<Self>,
    ) {
        let at = out.len();
        out.push(Digit {
            factor,
            fresh: &shapes[t].fresh,
            parent,
            range: 0..0,
            at: 0,
        });
        for (child, &c) in factor.children.iter().zip(p.children(t)) {
            Digit::push(p, shapes, child, c, at, out);
        }
    }
}

/// The order of [`Mapping`]s (lexicographic over their `(variable, value)`
/// pairs) on rows whose cells stand for ascending variables: at the first
/// cell where the rows differ, two values compare as values; a bound cell
/// against an unbound one comes first if the other row binds a later
/// variable (its next pair has the larger variable), last if it binds none
/// (it is a proper prefix).
fn cmp_as_mappings(a: &[Option<Const>], b: &[Option<Const>]) -> Ordering {
    for (i, cells) in a.iter().zip(b).enumerate() {
        let binds_later = |row: &[Option<Const>]| row[i + 1..].iter().any(Option::is_some);
        match cells {
            (Some(x), Some(y)) if x != y => return x.cmp(y),
            (Some(_), None) if binds_later(b) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (None, Some(_)) if binds_later(a) => return Ordering::Greater,
            (None, Some(_)) => return Ordering::Less,
            _ => {}
        }
    }
    Ordering::Equal
}

/// A set of partial mappings over one header of variables, as the executor
/// produces it: its size, and its first rows — row-major cells, `None` where
/// a row's mapping is undefined (an OPT branch that was not extendable).
/// The rows held are the first `min(len, limit)` of the whole set in the
/// order of the [`Mapping`]s they stand for, strictly ascending, where
/// `limit` is what the evaluation was asked to build; so they are the first
/// mappings of [`Answers::into_mappings`] too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answers {
    /// Ascending; cell `k` of every row belongs to `vars[k]`.
    vars: Vec<Var>,
    cells: Vec<Option<Const>>,
    /// The rows held. Kept beside the cells because a row of no variables
    /// has none: the table over an empty header has one row (the empty
    /// mapping) or none.
    rows: usize,
    /// The size of the whole set.
    len: usize,
}

// No `is_empty`: the table's surface is these four and nothing else.
#[allow(clippy::len_without_is_empty)]
impl Answers {
    /// The number of mappings in the set, held or not: `|p(D)|` for a table
    /// projected onto the free variables.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The header: the variables some row may bind, ascending.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Row `r` (`r < min(len(), limit)`), one cell per variable of
    /// [`Answers::vars`].
    pub fn row(&self, r: usize) -> &[Option<Const>] {
        assert!(r < self.rows, "row {r} of a {}-row table", self.rows);
        &self.cells[r * self.vars.len()..(r + 1) * self.vars.len()]
    }

    /// The rows held as mappings, in the same (ascending) order.
    pub fn into_mappings(self) -> Vec<Mapping> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut pairs = Vec::with_capacity(row.iter().flatten().count());
                pairs.extend(
                    self.vars
                        .iter()
                        .zip(row)
                        .filter_map(|(&v, cell)| cell.map(|c| (v, c))),
                );
                Mapping::from_sorted(pairs)
            })
            .collect()
    }
}

/// The work of one evaluation, counted by the evaluation itself: exact
/// whatever else runs concurrently, identical at every thread count, and
/// handed back on cancellation too — a deadline-killed query can still be
/// explained. The three work counts are what the run added to the
/// process-wide `cq.nodes_expanded`, `db.index_probes` and
/// `db.tuples_scanned` counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalTally {
    /// Local homomorphisms found per tree node (preorder id), summed over
    /// every ancestor context the node was evaluated under — a context
    /// whose interface valuation was already evaluated counts what that
    /// evaluation found. Contexts multiply at every level, so a count past
    /// `u64::MAX` reads `u64::MAX`.
    pub homs: Vec<u64>,
    /// Search nodes expanded by the per-node backtracking searches.
    pub nodes_expanded: u64,
    /// Relation probes those searches made.
    pub index_probes: u64,
    /// Candidate tuples they examined.
    pub tuples_scanned: u64,
}

/// The one executor: the maximal homomorphisms from `p` to `db` projected
/// onto `onto` (all of `p`'s variables: the maximal homomorphisms
/// themselves), deduplicated, as an [`Answers`] table holding the first
/// `limit` of them in the canonical order — ascending as [`Mapping`]s —
/// plus the run's [`EvalTally`]. The search leaves a factorised result
/// ([`Run::subtree`]); rows are built from it flat, projected, sorted and
/// deduplicated once, and the executor builds no `Mapping`.
///
/// Which rows are built: all of them, unless the table is projection-free
/// (its rows are then distinct by construction), its smallest variable
/// `v0` belongs to the root (every row binds it, and rows order by it
/// first), no count overflowed and `limit` is below the exact total. Then
/// the root's local rows are put in `v0` order and only the extensions of
/// those up to the end of the `v0` group in which the counts reach `limit`
/// are built: that prefix holds the first `limit` rows. Either way
/// [`Answers::len`] is exact.
///
/// `threads` bounds the workers each node's searches — one per distinct
/// interface valuation — are spread over (`0` means
/// [`std::thread::available_parallelism`]); with one worker, or at a node
/// with too few keys to share out ([`MIN_KEYS_PER_WORKER`]), no thread is
/// spawned. Answers are identical at every thread count and under any plan;
/// backtracking work is identical at every thread count and every `limit`.
pub(crate) fn execute(
    p: &Wdpt,
    db: &Database,
    threads: usize,
    token: &CancelToken,
    plan: Option<&ExecPlan>,
    onto: &BTreeSet<Var>,
    limit: usize,
) -> (Result<Answers, Cancelled>, EvalTally) {
    let _span = span!("wdpt.eval.execute");
    let mut run = Run {
        p,
        db,
        plan,
        token,
        workers: match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        },
        shapes: shapes(p),
        homs: vec![0; p.node_count()],
        work: Default::default(),
        poll_steps: 0,
    };
    // The root has no interface: one key, the empty valuation, one context.
    let root_key = Keys {
        width: 0,
        cells: Vec::new(),
        contexts: vec![1],
    };
    let answers = run
        .subtree(p.root(), &root_key, Vec::new())
        .and_then(|root| run.table(&root, onto, limit));
    let [nodes_expanded, index_probes, tuples_scanned] = run.work.map(AtomicU64::into_inner);
    let tally = EvalTally {
        homs: run.homs,
        nodes_expanded,
        index_probes,
        tuples_scanned,
    };
    (answers, tally)
}

/// The evaluation `p(D)` (Definition 2) as the executor's table: the
/// projections of the maximal homomorphisms onto the free variables, one row
/// each, over a header of the free variables — and, beside it, the run's
/// [`EvalTally`]. Runs on up to `threads` worker threads (`0` means
/// [`std::thread::available_parallelism`]), under a cancel token —
/// `Err(Cancelled)` if it fires or its deadline passes mid-evaluation, with
/// the tally of the work done until then — executing an optional cost-based
/// [`ExecPlan`]. The table counts every answer ([`Answers::len`]) and holds
/// the first `limit` of them (`usize::MAX`: all); it is the same whatever
/// the thread count or plan. Every other evaluation function of this module
/// is a view of it.
///
/// The plan contract: nodes with a planned atom order run it statically; a
/// `None` plan (or a plan built for a different tree shape) falls back to
/// the dynamic most-constrained heuristic per node. Answers are identical
/// either way — a plan only changes the order work is discovered in.
///
/// A caller that wants time per phase brackets the call with a
/// [`wdpt_obs::ProfileRecorder`] (see [`crate::profile`]); with more than
/// one thread its span and counter sections additionally show the fan-out
/// (`wdpt.parallel.worker` spans, `wdpt.parallel_tasks` counter).
pub fn evaluate_rows(
    p: &Wdpt,
    db: &Database,
    threads: usize,
    token: &CancelToken,
    plan: Option<&ExecPlan>,
    limit: usize,
) -> (Result<Answers, Cancelled>, EvalTally) {
    execute(p, db, threads, token, plan, &p.free_set(), limit)
}

/// All maximal homomorphisms from `p` to `db` (on their various domains).
/// Exponential in the size of the output; intended for exact small-scale
/// semantics, tests, and the intractable baselines of the benchmarks.
pub fn maximal_homomorphisms(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    execute(
        p,
        db,
        1,
        CancelToken::never(),
        None,
        &p.all_variables(),
        usize::MAX,
    )
    .0
    .expect("the never token cannot cancel")
    .into_mappings()
}

/// The evaluation `p(D)`: projections of the maximal homomorphisms onto the
/// free variables, deduplicated (Definition 2).
pub fn evaluate(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    try_evaluate_parallel_planned(p, db, 1, CancelToken::never(), None)
        .expect("the never token cannot cancel")
}

/// The maximal-mapping semantics `p_m(D)` (Section 3.4): the ⊑-maximal
/// elements of `p(D)`.
pub fn evaluate_max(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    maximal_mappings(evaluate(p, db))
}

/// [`evaluate_rows`] as mappings: the answers of [`evaluate`], in the same
/// canonical order, whatever the thread count or plan.
pub fn try_evaluate_parallel_planned(
    p: &Wdpt,
    db: &Database,
    threads: usize,
    token: &CancelToken,
    plan: Option<&ExecPlan>,
) -> Result<Vec<Mapping>, Cancelled> {
    evaluate_rows(p, db, threads, token, plan, usize::MAX)
        .0
        .map(Answers::into_mappings)
}

/// All homomorphisms from `p` to `db` (not only maximal ones): full
/// homomorphisms of `q_{T'}` over every rooted subtree `T'`. Exponential;
/// used by tests and as the reference implementation for the decision
/// procedures.
pub fn all_homomorphisms(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    let mut out = Vec::new();
    p.for_each_rooted_subtree(&mut |subtree| {
        let q = p.cq_of_subtree(subtree);
        out.extend(extend_all(db, q.body(), &Mapping::empty()));
    });
    out.sort();
    out.dedup();
    out
}

/// Reference check that a mapping is a homomorphism from `p` to `db`
/// witnessed by some rooted subtree whose variables are exactly `dom(h)`.
pub fn is_homomorphism(p: &Wdpt, db: &Database, h: &Mapping) -> bool {
    let dom = h.domain();
    let mut found = false;
    p.for_each_rooted_subtree(&mut |subtree| {
        if found {
            return;
        }
        if p.subtree_vars(subtree) != dom {
            return;
        }
        let q = p.cq_of_subtree(subtree);
        if q.body().iter().all(|a| db.contains_atom(&a.apply(h))) {
            found = true;
        }
    });
    found
}

/// Reference maximality check: `h` is a homomorphism and no proper
/// extension is one. Exponential; testing only.
pub fn is_maximal_homomorphism(p: &Wdpt, db: &Database, h: &Mapping) -> bool {
    if !is_homomorphism(p, db, h) {
        return false;
    }
    all_homomorphisms(p, db)
        .iter()
        .all(|other| !h.strictly_subsumed_by(other))
}

/// `wdpt.parallel_tasks` is process-wide and the harness runs this crate's
/// tests on parallel threads: the tests that fan out at all and the tests
/// that assert nothing was fanned out hold this lock.
#[cfg(test)]
pub(crate) fn fan_out_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::WdptBuilder;
    use wdpt_model::parse::{parse_atoms, parse_database, parse_mapping};
    use wdpt_model::Interner;

    /// Figure 1 WDPT over the Example 2 database.
    fn example2(i: &mut Interner) -> (Wdpt, Database) {
        let root = parse_atoms(i, r#"rec_by(?x,?y) publ(?x,"after_2010")"#).unwrap();
        let left = parse_atoms(i, "nme_rating(?x,?z)").unwrap();
        let right = parse_atoms(i, "formed_in(?y,?z2)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, left);
        b.child(0, right);
        let free = ["x", "y", "z", "z2"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(
            i,
            r#"rec_by("Our_love","Caribou") publ("Our_love","after_2010")
               rec_by("Swim","Caribou") publ("Swim","after_2010")
               nme_rating("Swim","2")"#,
        )
        .unwrap();
        (p, db)
    }

    #[test]
    fn example2_answers() {
        // Example 2 of the paper: μ1 = {x ↦ Our_love, y ↦ Caribou} and
        // μ2 = {x ↦ Swim, y ↦ Caribou, z ↦ 2}.
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        let mut answers = evaluate(&p, &db);
        answers.sort();
        let mu1 = parse_mapping(&mut i, r#"?x -> "Our_love", ?y -> "Caribou""#).unwrap();
        let mu2 = parse_mapping(&mut i, r#"?x -> "Swim", ?y -> "Caribou", ?z -> "2""#).unwrap();
        let mut expected = vec![mu1, mu2];
        expected.sort();
        assert_eq!(answers, expected);
    }

    #[test]
    fn example3_projection() {
        // Example 3: projecting out x yields μ'1 = {y ↦ Caribou} and
        // μ'2 = {y ↦ Caribou, z ↦ 2}.
        let mut i = Interner::new();
        let (p0, db) = example2(&mut i);
        let free = ["y", "z", "z2"]
            .iter()
            .map(|n| i.var(n))
            .collect::<Vec<_>>();
        let p = rebuild_with_free(&p0, free);
        let mut answers = evaluate(&p, &db);
        answers.sort();
        let m1 = parse_mapping(&mut i, r#"?y -> "Caribou""#).unwrap();
        let m2 = parse_mapping(&mut i, r#"?y -> "Caribou", ?z -> "2""#).unwrap();
        let mut expected = vec![m1, m2];
        expected.sort();
        assert_eq!(answers, expected);
    }

    #[test]
    fn example7_max_semantics() {
        // Example 7: with x̄ = {y, z}, p(D) = {μ1, μ2} but p_m(D) = {μ2}.
        let mut i = Interner::new();
        let (p0, db) = example2(&mut i);
        let free = ["y", "z"].iter().map(|n| i.var(n)).collect::<Vec<_>>();
        let p = rebuild_with_free(&p0, free);
        let answers = evaluate(&p, &db);
        assert_eq!(answers.len(), 2);
        let max = evaluate_max(&p, &db);
        assert_eq!(max.len(), 1);
        let m2 = parse_mapping(&mut i, r#"?y -> "Caribou", ?z -> "2""#).unwrap();
        assert_eq!(max[0], m2);
    }

    /// Rebuilds a WDPT with a different free-variable tuple.
    fn rebuild_with_free(p: &Wdpt, free: Vec<wdpt_model::Var>) -> Wdpt {
        let mut b = WdptBuilder::new(p.atoms(0).to_vec());
        let mut map = vec![0usize; p.node_count()];
        for t in 1..p.node_count() {
            let parent = map[p.parent(t).unwrap()];
            map[t] = b.child(parent, p.atoms(t).to_vec());
        }
        b.build(free).unwrap()
    }

    #[test]
    fn optional_branch_failure_does_not_kill_answer() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let child = parse_atoms(&mut i, "b(?x,?y)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, child);
        let p = b.build(vec![i.var("x"), i.var("y")]).unwrap();
        let db = parse_database(&mut i, "a(1)").unwrap();
        let ans = evaluate(&p, &db);
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].len(), 1); // only x bound
    }

    #[test]
    fn mandatory_root_failure_yields_empty() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let p = WdptBuilder::new(root).build(vec![i.var("x")]).unwrap();
        let db = parse_database(&mut i, "b(1)").unwrap();
        assert!(evaluate(&p, &db).is_empty());
    }

    #[test]
    fn extension_is_forced_when_available() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let child = parse_atoms(&mut i, "b(?x,?y)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, child);
        let p = b.build(vec![i.var("x"), i.var("y")]).unwrap();
        let db = parse_database(&mut i, "a(1) b(1,2)").unwrap();
        let ans = evaluate(&p, &db);
        // {x↦1} alone is NOT maximal because it extends to {x↦1, y↦2}.
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].len(), 2);
    }

    #[test]
    fn nested_optional_chain() {
        let mut i = Interner::new();
        let mut b = WdptBuilder::new(parse_atoms(&mut i, "a(?x)").unwrap());
        let c1 = b.child(0, parse_atoms(&mut i, "b(?x,?y)").unwrap());
        b.child(c1, parse_atoms(&mut i, "c(?y,?z)").unwrap());
        let free = ["x", "y", "z"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(&mut i, "a(1) a(2) b(2,5) b(2,6) c(6,9)").unwrap();
        let mut ans = evaluate(&p, &db);
        ans.sort();
        // x=1: no b — answer {x↦1}. x=2,y=5: no c — {x↦2,y↦5}.
        // x=2,y=6: c(6,9) — {x↦2,y↦6,z↦9}.
        assert_eq!(ans.len(), 3);
        assert_eq!(
            ans.iter().map(Mapping::len).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn maximal_homs_agree_with_reference() {
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        for h in maximal_homomorphisms(&p, &db) {
            assert!(is_maximal_homomorphism(&p, &db, &h));
        }
        // And every reference-maximal hom is produced.
        for h in all_homomorphisms(&p, &db) {
            if is_maximal_homomorphism(&p, &db, &h) {
                assert!(maximal_homomorphisms(&p, &db).contains(&h));
            }
        }
    }

    /// `p(D)` through the cancellable entry point at `threads` workers.
    fn eval_at(p: &Wdpt, db: &Database, threads: usize) -> Vec<Mapping> {
        try_evaluate_parallel_planned(p, db, threads, CancelToken::never(), None).unwrap()
    }

    #[test]
    fn every_thread_count_matches_evaluate_on_paper_examples() {
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        for threads in [0, 1, 2, 4, 16] {
            assert_eq!(eval_at(&p, &db, threads), evaluate(&p, &db));
            let every_var = p.all_variables();
            assert_eq!(
                execute(
                    &p,
                    &db,
                    threads,
                    CancelToken::never(),
                    None,
                    &every_var,
                    usize::MAX
                )
                .0
                .map(Answers::into_mappings),
                Ok(maximal_homomorphisms(&p, &db))
            );
        }
    }

    #[test]
    fn single_node_trees_fan_nothing_out() {
        let _fan_out = fan_out_test_lock();
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let p = WdptBuilder::new(root).build(vec![i.var("x")]).unwrap();
        let db = parse_database(&mut i, "a(1) a(2)").unwrap();
        let before = wdpt_model::stats::snapshot();
        let ans = eval_at(&p, &db, 8);
        let delta = wdpt_model::stats::snapshot().since(&before);
        assert_eq!(ans, evaluate(&p, &db));
        // No children means no work items, so nothing is fanned out.
        assert_eq!(delta.parallel_tasks, 0);
    }

    /// `a(?x)` over `values` constants with the OPT children `b(?x,?y)` and
    /// `c(?x,?z)`, each extendable at every third value.
    fn two_children(i: &mut Interner, values: usize) -> (Wdpt, Database) {
        let root = parse_atoms(i, "a(?x)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(i, "b(?x,?y)").unwrap());
        b.child(0, parse_atoms(i, "c(?x,?z)").unwrap());
        let free = ["x", "y", "z"].iter().map(|n| i.var(n)).collect();
        let mut spec = String::new();
        for j in 0..values {
            spec.push_str(&format!("a({j}) "));
            match j % 3 {
                0 => spec.push_str(&format!("b({j},y{j}) ")),
                1 => spec.push_str(&format!("c({j},z{j}) ")),
                _ => {}
            }
        }
        (b.build(free).unwrap(), parse_database(i, &spec).unwrap())
    }

    #[test]
    fn fans_out_one_task_per_child_and_interface_valuation() {
        let _fan_out = fan_out_test_lock();
        let mut i = Interner::new();
        // 2 children × 600 distinct values of ?x = 1200 work items, enough
        // keys per child for two workers.
        let (p, db) = two_children(&mut i, 600);
        let before = wdpt_model::stats::snapshot();
        let ans = eval_at(&p, &db, 4);
        let delta = wdpt_model::stats::snapshot().since(&before);
        assert_eq!(ans, evaluate(&p, &db));
        assert_eq!(ans.len(), 600);
        assert!(delta.parallel_tasks >= 1200);
    }

    #[test]
    fn a_handful_of_keys_is_searched_on_the_calling_thread() {
        let _fan_out = fan_out_test_lock();
        let mut i = Interner::new();
        // One key short of two workers' worth per child.
        let (p, db) = two_children(&mut i, 2 * MIN_KEYS_PER_WORKER - 1);
        let before = wdpt_model::stats::snapshot();
        let ans = eval_at(&p, &db, 4);
        let delta = wdpt_model::stats::snapshot().since(&before);
        assert_eq!(ans, evaluate(&p, &db));
        assert_eq!(delta.parallel_tasks, 0);
    }

    /// 2000 root homomorphisms `a(x_j, u_{u_of(j)})` over two values of
    /// `?u`, the child's whole interface, 1000 rows each; u0 has two
    /// extensions `b(u0, ?y)`, u1 none. Evaluated, checked against the
    /// answers that description implies, and the tally handed back.
    fn once_per_valuation(u_of: impl Fn(usize) -> usize) -> EvalTally {
        let mut i = Interner::new();
        let mut b = WdptBuilder::new(parse_atoms(&mut i, "a(?x,?u)").unwrap());
        b.child(0, parse_atoms(&mut i, "b(?u,?y)").unwrap());
        let free = ["x", "y"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let mut spec = String::from("b(u0,y0) b(u0,y1) ");
        for j in 0..2000 {
            spec.push_str(&format!("a(x{j},u{}) ", u_of(j)));
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let mut expected = Vec::new();
        for j in 0..2000 {
            let x = format!("?x -> x{j}");
            match u_of(j) {
                0 => expected.extend([format!("{x}, ?y -> y0"), format!("{x}, ?y -> y1")]),
                _ => expected.push(x),
            }
        }
        let mut expected: Vec<Mapping> = (expected.iter())
            .map(|m| parse_mapping(&mut i, m).unwrap())
            .collect();
        expected.sort();
        let (answers, tally) = evaluate_rows(&p, &db, 1, CancelToken::never(), None, usize::MAX);
        // 1000 contexts × 2 extensions, and 1000 contexts left as they are.
        let answers = answers.unwrap().into_mappings();
        assert_eq!(answers.len(), 3000);
        assert_eq!(answers, expected);
        assert_eq!(answers, evaluate(&p, &db));
        tally
    }

    #[test]
    fn a_subtree_is_searched_once_per_interface_valuation() {
        // The root's rows come out ascending on ?u: u0's, then u1's.
        let tally = once_per_valuation(|j| j / 1000);
        // One search node for the root's atom and one per value of ?u: 3,
        // where a search per context makes 2001.
        assert_eq!(tally.nodes_expanded, 3);
        // The tally still counts every context's homomorphisms.
        assert_eq!(tally.homs, vec![2000, 2000]);
    }

    #[test]
    fn a_subtree_is_searched_once_per_interface_valuation_in_any_row_order() {
        // The root's rows come out in a shuffled order of ?u, so the keys
        // are sorted before the child is searched: the counts are the same.
        let mut u: Vec<usize> = (0..2000).map(|j| j % 2).collect();
        let mut state = 3u64;
        for k in (1..u.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            u.swap(k, (state >> 33) as usize % (k + 1));
        }
        assert!(u.windows(2).any(|w| w[0] > w[1]));
        let tally = once_per_valuation(|j| u[j]);
        assert_eq!(tally.nodes_expanded, 3);
        assert_eq!(tally.homs, vec![2000, 2000]);
    }

    /// A 12-level chain: node k is `e(?u_k,?m_k) e(?m_k,?u_{k+1})`, the
    /// root's ?u_0 the hub `h`, over 100 middle values `e(h,m_j) e(m_j,h)`.
    /// Every node has the one key h and 100 local homomorphisms under it,
    /// so node k is reached by 100^k contexts and counts 100^(k+1) — past
    /// u64::MAX from node 9 on. Free: `?m0` alone, or every variable. With
    /// `dead_end`, the root has one more row, `?m0 ↦ a` (the smallest value
    /// of ?m0) and `?u1 ↦ d`, which no child extends: one answer.
    fn hub_chain(every_var_free: bool, dead_end: bool) -> (Wdpt, Database) {
        let mut i = Interner::new();
        let mut spec = String::from(if dead_end { "e(h,a) e(a,d) " } else { "" });
        spec.extend((0..100).map(|j| format!("e(h,m{j}) e(m{j},h) ")));
        let db = parse_database(&mut i, &spec).unwrap();
        let node = |i: &mut Interner, k: usize| {
            let u = if k == 0 {
                "h".to_owned()
            } else {
                format!("?u{k}")
            };
            parse_atoms(i, &format!("e({u},?m{k}) e(?m{k},?u{})", k + 1)).unwrap()
        };
        let mut b = WdptBuilder::new(node(&mut i, 0));
        for k in 1..12 {
            b.child(k - 1, node(&mut i, k));
        }
        let free = if every_var_free {
            (0..12)
                .flat_map(|k| [format!("m{k}"), format!("u{}", k + 1)])
                .map(|name| i.var(&name))
                .collect()
        } else {
            vec![i.var("m0")]
        };
        (b.build(free).unwrap(), db)
    }

    /// [`hub_chain`] under an expired deadline, asked for its first
    /// `limit` rows: cancelled.
    fn hub_chain_under_an_expired_deadline(
        every_var_free: bool,
        dead_end: bool,
        limit: usize,
    ) -> EvalTally {
        let (p, db) = hub_chain(every_var_free, dead_end);
        let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
        let (answers, tally) = evaluate_rows(&p, &db, 1, &expired, None, limit);
        assert_eq!(answers, Err(Cancelled));
        tally
    }

    #[test]
    fn context_counts_saturate_where_they_outgrow_a_u64() {
        let tally = hub_chain_under_an_expired_deadline(false, false, usize::MAX);
        // An expired deadline nobody has latched is noticed at a loop's
        // 1024th poll (`DEADLINE_POLL_MASK` in `wdpt-model`). Each node's
        // search polls 201 times, so every node is searched and counted;
        // building the 100^12 rows, which comes after, notices it — a
        // 500 ms deadline would first fill 100+ MB.
        assert_eq!(
            tally.nodes_expanded,
            12 * 101,
            "the deadline cut a search short: is a search's 201 polls \
             still below the deadline's poll interval?"
        );
        let expected: Vec<u64> = (1..=12)
            .map(|k| 100u64.checked_pow(k).unwrap_or(u64::MAX))
            .collect();
        assert_eq!(tally.homs, expected);
    }

    #[test]
    fn an_answer_count_past_a_usize_builds_every_row_and_meets_the_deadline() {
        // Projection-free, `v0` = ?m0 at the root, and the limit 1 is
        // reached by the dead end's one answer, first in `v0` order: a
        // count saturated instead of overflowed would stop there and report
        // `usize::MAX` answers. An overflowed count is no count: every row
        // is to be built, and the deadline stops that as it stops the
        // projected sibling, after the same work.
        for dead_end in [false, true] {
            assert_eq!(
                hub_chain_under_an_expired_deadline(true, dead_end, 1),
                hub_chain_under_an_expired_deadline(false, dead_end, usize::MAX),
                "dead_end={dead_end}"
            );
        }
    }

    #[test]
    fn a_limit_inside_a_v0_group_holds_the_smallest_rows() {
        // One root row, ?x ↦ 0, and two OPT children with two extensions
        // each. ?z is numbered before ?y, so mappings order by ?z before
        // ?y — while the product turns its last child, ?z's, fastest.
        let mut i = Interner::new();
        let [x, z, y] = ["x", "z", "y"].map(|n| i.var(n));
        let mut b = WdptBuilder::new(parse_atoms(&mut i, "a(?x)").unwrap());
        b.child(0, parse_atoms(&mut i, "b(?x,?y)").unwrap());
        b.child(0, parse_atoms(&mut i, "c(?x,?z)").unwrap());
        let p = b.build(vec![x, y, z]).unwrap();
        let db = parse_database(&mut i, "a(0) b(0,y0) b(0,y1) c(0,z0) c(0,z1)").unwrap();
        let first = |limit: usize| {
            let (answers, _) = evaluate_rows(&p, &db, 1, CancelToken::never(), None, limit);
            let answers = answers.unwrap();
            assert_eq!(answers.len(), 4);
            answers.into_mappings()
        };
        let expected: Vec<Mapping> = ["y0", "y1"]
            .map(|y| parse_mapping(&mut i, &format!("?x -> 0, ?z -> z0, ?y -> {y}")).unwrap())
            .into();
        assert_eq!(first(2), expected);
        assert_eq!(first(usize::MAX)[..2], expected);
    }

    #[test]
    fn root_rows_are_put_in_v0_order_before_the_stop() {
        // The root `a(?u,?x)` is searched in ?u order, which puts ?x = 10
        // first; 20 was named first, so ?x = 20 is the smaller value and
        // its row the first answer.
        let mut i = Interner::new();
        let [x, u] = ["x", "u"].map(|n| i.var(n));
        let p = WdptBuilder::new(parse_atoms(&mut i, "a(?u,?x)").unwrap())
            .build(vec![u, x])
            .unwrap();
        let db = parse_database(&mut i, "k(20) k(10) a(1,10) a(2,20)").unwrap();
        let (answers, _) = evaluate_rows(&p, &db, 1, CancelToken::never(), None, 1);
        let answers = answers.unwrap();
        assert_eq!(answers.len(), 2);
        let expected = parse_mapping(&mut i, "?u -> 2, ?x -> 20").unwrap();
        assert_eq!(answers.into_mappings(), vec![expected]);
    }

    #[test]
    fn rows_sort_like_the_mappings_they_become() {
        // Every row over three variables with cells in {unbound, 0, 1}.
        let cell = |code: usize| (code > 0).then(|| wdpt_model::Const(code as u32 - 1));
        let rows: Vec<[Option<wdpt_model::Const>; 3]> = (0..27)
            .map(|code| [cell(code % 3), cell(code / 3 % 3), cell(code / 9)])
            .collect();
        let mapping = |row: &[Option<wdpt_model::Const>; 3]| {
            Mapping::from_pairs(
                row.iter()
                    .enumerate()
                    .filter_map(|(v, c)| c.map(|c| (Var(v as u32), c))),
            )
        };
        for a in &rows {
            for b in &rows {
                assert_eq!(
                    cmp_as_mappings(a, b),
                    mapping(a).cmp(&mapping(b)),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn a_table_of_no_variables_has_one_row_or_none() {
        let mut i = Interner::new();
        let (p0, db) = example2(&mut i);
        // A Boolean query: nothing is free.
        let p = rebuild_with_free(&p0, Vec::new());
        let rows = |p: &Wdpt, db: &Database| {
            let (table, _tally) = evaluate_rows(p, db, 1, CancelToken::never(), None, usize::MAX);
            table.unwrap()
        };
        let table = rows(&p, &db);
        assert!(table.vars().is_empty());
        assert_eq!(table.len(), 1);
        assert!(table.row(0).is_empty());
        assert_eq!(table.into_mappings(), vec![Mapping::empty()]);
        // Unsatisfiable: the root has no homomorphism into an empty database.
        let table = rows(&p, &Database::new());
        assert!(table.vars().is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.into_mappings(), Vec::new());
    }

    #[test]
    fn the_table_lists_the_free_variables_and_leaves_unextended_cells_unbound() {
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        let (table, _) = evaluate_rows(&p, &db, 1, CancelToken::never(), None, usize::MAX);
        let table = table.unwrap();
        let mut free: Vec<Var> = p.free_vars().to_vec();
        free.sort();
        assert_eq!(table.vars(), free);
        assert_eq!(table.len(), 2);
        // ?z2 is free and occurs in the tree, but no answer binds it.
        let z2 = table.vars().iter().position(|&v| v == i.var("z2")).unwrap();
        assert!((0..table.len()).all(|r| table.row(r)[z2].is_none()));
        assert_eq!(table.into_mappings(), evaluate(&p, &db));
    }

    #[test]
    fn a_cancelled_run_hands_back_no_table_but_keeps_its_tallies() {
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        let token = CancelToken::new();
        let (done, tally) = evaluate_rows(&p, &db, 1, &token, None, usize::MAX);
        assert_eq!(done.map(|t| t.len()), Ok(2));
        assert_eq!(tally.homs, vec![2, 1, 0]);
        assert!(tally.nodes_expanded > 0 && tally.index_probes > 0 && tally.tuples_scanned > 0);
        token.cancel();
        let (cancelled, tally) = evaluate_rows(&p, &db, 1, &token, None, usize::MAX);
        assert_eq!(cancelled, Err(Cancelled));
        // Cancelled before the first search step: nothing was done.
        assert_eq!(tally.homs, vec![0; p.node_count()]);
        assert_eq!(tally.nodes_expanded, 0);

        // Cancelled mid-search: an expired deadline nobody has latched is
        // noticed at the search's 1024th step, whatever the clock reads.
        // The 1023 steps before it are counted, beside the `Err`, and they
        // are what the search flushes to the process-wide counters — which
        // other tests of this binary feed too, hence `<=` here; the
        // equality is `tests/engines_agree.rs`'s, where runs are serial.
        let atoms = parse_atoms(&mut i, "a(?x) a(?y)").unwrap();
        let wide = WdptBuilder::new(atoms)
            .build(vec![i.var("x"), i.var("y")])
            .unwrap();
        let spec: String = (0..40).map(|j| format!("a({j}) ")).collect();
        let db = parse_database(&mut i, &spec).unwrap();
        let ((cancelled, tally), global) = wdpt_obs::delta_scope(|| {
            let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
            evaluate_rows(&wide, &db, 1, &expired, None, usize::MAX)
        });
        assert_eq!(cancelled, Err(Cancelled));
        // Of the 1023 steps, one expanded the root's first atom, 25 the
        // second under a value of ?x, and 997 were complete homomorphisms,
        // which expand nothing; each of the 1024 steps but the first
        // followed a tuple.
        assert_eq!(tally.nodes_expanded, 1 + 25);
        assert_eq!(tally.tuples_scanned, 1023);
        // Nothing is ever bound to probe by: whole-relation scans.
        assert_eq!(tally.index_probes, 0);
        assert!(tally.nodes_expanded <= global.counter("cq.nodes_expanded"));
        assert!(tally.tuples_scanned <= global.counter("db.tuples_scanned"));
    }

    #[test]
    fn cancelled_evaluation_returns_typed_error() {
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            assert_eq!(
                try_evaluate_parallel_planned(&p, &db, threads, &token, None),
                Err(Cancelled)
            );
        }
        // A live token changes nothing about the answers.
        let live = CancelToken::new();
        for threads in [1, 4] {
            assert_eq!(
                try_evaluate_parallel_planned(&p, &db, threads, &live, None),
                Ok(evaluate(&p, &db))
            );
        }
    }

    #[test]
    fn shared_existential_variable_constrains_branches() {
        let mut i = Interner::new();
        // Root binds ?u existentially; both children use ?u.
        let root = parse_atoms(&mut i, "a(?x,?u)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(&mut i, "b(?u,?y)").unwrap());
        b.child(0, parse_atoms(&mut i, "c(?u,?z)").unwrap());
        let free = ["x", "y", "z"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(&mut i, "a(1,7) a(1,8) b(7,10) c(8,20)").unwrap();
        let mut ans = evaluate(&p, &db);
        ans.sort();
        // u=7: b extends (y=10), c fails → {x↦1, y↦10}.
        // u=8: b fails, c extends (z=20) → {x↦1, z↦20}.
        assert_eq!(ans.len(), 2);
    }
}
