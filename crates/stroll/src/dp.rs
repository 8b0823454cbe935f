//! **DP-Stroll** — Algorithm 2 of the paper.
//!
//! Finding a shortest s–t stroll visiting `n` distinct nodes is NP-hard, but
//! finding one with a fixed number of *edges* is polynomial. The DP runs on
//! the metric closure `G''` (complete graph of shortest-path costs), where
//! an `(n+1)`-edge stroll always exists, computing
//!
//! `cost(u, e)` — the minimum cost of a `u → t` stroll with exactly `e`
//! edges, under the no-immediate-backtrack rule (line 6 of Algorithm 2:
//! the predecessor `u` may not equal the successor's next hop, which rules
//! out `a → b → a` oscillations).
//!
//! The edge count starts at `n + 1` and grows until the reconstructed
//! stroll visits `n` distinct intermediates.
//!
//! The tables are keyed by the *target* only, so one table answers stroll
//! queries for **every source** — the TOP placement algorithm (Algorithm 3)
//! exploits this to amortize its `O(|V_s|²)` ingress/egress enumeration.
//!
//! # The level kernel
//!
//! Level `e` is one `O(m²)` min-plus product of the closure with level
//! `e − 1`: `cost(u, e) = min_v c(u, v) + cost(v, e − 1)` over the allowed
//! successors `v`. Three kinds of `v` are never allowed: the target
//! mid-walk, `u` itself, and the *backtrack set* `{v : succ(v, e − 1) = u}`.
//! Instead of testing those per `(u, v)` pair, [`DpTables`] copies level
//! `e − 1` once, sets the target and every unreachable entry to the
//! sentinel, and for each row `u` masks only `u` and its backtrack set
//! (found through an inverse-successor list, so all masking is `O(m)` per
//! level). The row itself is then two branch-free passes over
//! `closure.row(u)`: a saturating `min` fold, and a first-position scan
//! that returns the **lowest-index** argmin — the same tie-break as a
//! scalar loop that keeps the first strict improvement.
//!
//! # Tie-breaking key
//!
//! On unweighted fabrics the minimum-cost strolls of one edge count are
//! massively degenerate, and a fixed tie-break can cycle through the same
//! few switches forever. Retries therefore run the same kernel over a
//! [`TieBrokenClosure`], whose key orders strolls **lexicographically by
//! (true cost, sum of per-edge tie hashes)** ([`TieKey`]). A hash can
//! reorder only strolls of equal true cost, at any edge weight: the key
//! keeps the cost in its own 64-bit half instead of scaling it, so heavy
//! fabrics neither overflow nor cross the [`INFINITY`] sentinel.

use crate::instance::{StrollInstance, StrollSolution};
use crate::StrollError;
use ppdc_topology::{Cost, MetricClosure, INFINITY};

const NO_SUCC: usize = usize::MAX;

/// A stroll-cost key the DP minimises: a total order plus a sum.
pub trait StrollKey: Copy + Ord + Default + std::fmt::Debug {
    /// The unreachable sentinel: every key at or above it is "no stroll".
    const UNREACHABLE: Self;
    /// The key of a stroll extended by one edge. Never wraps and never
    /// traps on the keys the DP adds (any weight, and a table entry at most
    /// [`StrollKey::UNREACHABLE`]), so a sum past the sentinel stays past
    /// it.
    fn plus(self, other: Self) -> Self;
}

impl StrollKey for Cost {
    const UNREACHABLE: Cost = INFINITY;
    #[inline]
    fn plus(self, other: Cost) -> Cost {
        self.saturating_add(other)
    }
}

/// The tie-broken key `(true cost, tie-hash sum)`, packed as
/// `cost · 2⁶⁴ + hash sum` so that one `u128` comparison is the
/// lexicographic one. Hash sums stay far below 2⁶⁴ (each edge adds at most
/// [`PERTURB_MASK`]), so they never carry into the cost half; the key is
/// unreachable exactly when its cost half is at least [`INFINITY`].
///
/// Keys are only minted by [`TieBrokenClosure`], which clamps every weight
/// at the sentinel, and the tables clamp every level, so both operands of
/// [`StrollKey::plus`] are at most `UNREACHABLE < 2¹²⁶`: their sum is below
/// 2¹²⁷ and a plain add cannot wrap (a saturating `u128` add made the
/// kernel's `min` fold about 1.7× slower in a micro-benchmark).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct TieKey(u128);

impl TieKey {
    fn new(cost: Cost, hash: Cost) -> Self {
        TieKey((u128::from(cost) << 64) | u128::from(hash))
    }
}

impl StrollKey for TieKey {
    /// `(INFINITY, 0)`: `u128::MAX >> 64` is `u64::MAX` widened, and
    /// [`INFINITY`] is `u64::MAX / 4`.
    const UNREACHABLE: TieKey = TieKey(((u128::MAX >> 64) / 4) << 64);
    #[inline]
    fn plus(self, other: TieKey) -> TieKey {
        TieKey(self.0.wrapping_add(other.0))
    }
}

/// The complete-graph edge weights a [`DpTables`] grows over, row by row.
pub trait StrollWeights {
    /// The key the DP minimises.
    type Key: StrollKey;
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// The weights out of node `u`, one per node (`node_count()` entries).
    fn row(&self, u: usize) -> &[Self::Key];
}

impl StrollWeights for MetricClosure {
    type Key = Cost;
    fn node_count(&self) -> usize {
        self.len()
    }
    fn row(&self, u: usize) -> &[Cost] {
        MetricClosure::row(self, u)
    }
}

/// Per-target DP tables for Algorithm 2, grown lazily one edge-count level
/// at a time, over weights keyed by `K` ([`Cost`] for the plain closure,
/// [`TieKey`] for a tie-breaking retry).
///
/// Both tables live in single flat arenas indexed `(e - 1) * m + u` — one
/// allocation each, reused level after level and (via [`DpTables::reset`])
/// egress after egress, so the inner DP loop walks contiguous memory and
/// the placement sweep stops paying a pair of `Vec` allocations per level
/// per egress. The level kernel's masked row and inverse-successor lists
/// are reused the same way.
#[derive(Debug, Clone, Default)]
pub struct DpTables<K = Cost> {
    m: usize,
    t: usize,
    /// Number of edge-count levels currently materialized.
    levels: usize,
    /// `cost[(e-1)*m + u]` = min key of a `u → t` stroll with exactly `e`
    /// edges.
    cost: Vec<K>,
    /// `succ[(e-1)*m + u]` = the next node after `u` on that stroll.
    succ: Vec<usize>,
    /// Kernel scratch: the previous level's keys with every never-allowed
    /// successor set to the sentinel.
    masked: Vec<K>,
    /// Kernel scratch: inverse-successor lists as linked lists,
    /// `back_head[u]` the first `v` with `succ(v) = u` and `back_next[v]`
    /// the next one.
    back_head: Vec<usize>,
    back_next: Vec<usize>,
}

impl<K: StrollKey> DpTables<K> {
    /// Initializes tables for target closure-index `t` (level `e = 1`).
    pub fn new<W: StrollWeights<Key = K>>(weights: &W, t: usize) -> Self {
        let mut tables = DpTables::default();
        tables.reset(weights, t);
        tables
    }

    /// Re-targets the tables at closure-index `t`, truncating back to
    /// level `e = 1` while keeping every arena allocation. This is what
    /// lets one scratch `DpTables` serve every egress of Algorithm 3.
    pub fn reset<W: StrollWeights<Key = K>>(&mut self, weights: &W, t: usize) {
        let m = weights.node_count();
        self.m = m;
        self.t = t;
        self.levels = 1;
        self.cost.clear();
        self.cost.resize(m, K::UNREACHABLE);
        self.succ.clear();
        self.succ.resize(m, NO_SUCC);
        for u in 0..m {
            if u != t {
                self.cost[u] = weights.row(u)[t];
                self.succ[u] = t;
            }
        }
    }

    /// The target closure index.
    pub fn target(&self) -> usize {
        self.t
    }

    /// Highest edge count `e` computed so far.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Grows the tables until level `e` exists.
    pub fn grow_to<W: StrollWeights<Key = K>>(&mut self, weights: &W, e: usize) {
        while self.levels < e {
            self.extend(weights);
        }
    }

    /// Adds one more edge-count level with the masked kernel of the module
    /// docs. `new`/`reset` seed level 1, so the tables are never empty here.
    fn extend<W: StrollWeights<Key = K>>(&mut self, weights: &W) {
        let (m, t) = (self.m, self.t);
        let unreachable = K::UNREACHABLE;
        let filled = self.levels * m;
        self.cost.resize(filled + m, unreachable);
        self.succ.resize(filled + m, NO_SUCC);
        let (prev_c, cur_c) = self.cost.split_at_mut(filled);
        let prev_c = &prev_c[filled - m..];
        let (prev_s, cur_s) = self.succ.split_at_mut(filled);
        let prev_s = &prev_s[filled - m..];

        // What row `u` sees at `v` when `v` is allowed: the target is never
        // a mid-walk successor, and an unreachable suffix is no candidate.
        let open = |v: usize| {
            if v == t {
                unreachable
            } else {
                prev_c[v].min(unreachable)
            }
        };
        let masked = &mut self.masked;
        masked.clear();
        masked.extend((0..m).map(open));

        // Backtrack sets {v : prev_s[v] = u}, one linked list per `u`;
        // they partition the nodes, so masking them costs O(m) per level.
        let (head, next) = (&mut self.back_head, &mut self.back_next);
        head.clear();
        head.resize(m, NO_SUCC);
        next.clear();
        next.resize(m, NO_SUCC);
        for v in (0..m).rev() {
            if let Some(h) = head.get_mut(prev_s[v]) {
                next[v] = *h;
                *h = v;
            }
        }
        let (head, next) = (&*head, &*next);
        let backtrack = |u: usize| {
            std::iter::successors(Some(head[u]), |&v| next.get(v).copied())
                .take_while(|&v| v != NO_SUCC)
        };

        for u in 0..m {
            masked[u] = unreachable;
            for v in backtrack(u) {
                masked[v] = unreachable;
            }
            let row = weights.row(u);
            debug_assert_eq!(row.len(), m, "weight row length");
            let best = row
                .iter()
                .zip(masked.iter())
                .fold(unreachable, |best, (&c, &p)| best.min(c.plus(p)));
            // The first position reaching the minimum: the lowest-index
            // argmin, as a scalar loop keeping strict improvements picks.
            let best_v = if best < unreachable {
                row.iter()
                    .zip(masked.iter())
                    .position(|(&c, &p)| c.plus(p) == best)
                    .unwrap_or(NO_SUCC)
            } else {
                NO_SUCC
            };
            cur_c[u] = best;
            cur_s[u] = best_v;
            masked[u] = open(u);
            for v in backtrack(u) {
                masked[v] = open(v);
            }
        }
        self.levels += 1;
    }

    /// Key of the best `e`-edge stroll from `u` to the target (at or above
    /// [`StrollKey::UNREACHABLE`] if none exists). Level `e` must have
    /// been grown.
    pub fn cost(&self, u: usize, e: usize) -> K {
        self.cost[(e - 1) * self.m + u]
    }

    /// Reconstructs the `e`-edge stroll from `s` as closure indices
    /// (including both endpoints). Returns `None` if no stroll exists.
    pub fn reconstruct(&self, s: usize, e: usize) -> Option<Vec<usize>> {
        if self.cost(s, e) >= K::UNREACHABLE {
            return None;
        }
        let mut walk = Vec::with_capacity(e + 1);
        walk.push(s);
        let mut cur = s;
        for level in (1..=e).rev() {
            let nxt = self.succ[(level - 1) * self.m + cur];
            debug_assert_ne!(nxt, NO_SUCC);
            cur = nxt;
            walk.push(cur);
        }
        debug_assert_eq!(cur, self.t);
        Some(walk)
    }

    /// Checks the sufficient optimality condition of Theorem 3 for the
    /// stroll reconstructed from `s` with `e` edges: every suffix stroll of
    /// the solution must be the cheapest stroll of its edge count *over all
    /// starting nodes*.
    pub fn theorem3_holds(&self, s: usize, e: usize) -> bool {
        let Some(walk) = self.reconstruct(s, e) else {
            return false;
        };
        for (i, &node) in walk.iter().enumerate().skip(1) {
            let suffix_edges = e - i;
            if suffix_edges == 0 {
                break;
            }
            let suffix_cost = self.cost(node, suffix_edges);
            let global_min = (0..self.m)
                .map(|u| self.cost(u, suffix_edges))
                .min()
                .unwrap_or(K::UNREACHABLE);
            if suffix_cost != global_min {
                return false;
            }
        }
        true
    }
}

/// Hard cap on edge-count growth, as a function of `n`. On a connected
/// metric closure the DP converges within a handful of extra levels (each
/// loop edge costs at least the cheapest closure edge while new nodes are
/// at most a diameter away); the cap turns a hypothetical pathology into a
/// typed error instead of an unbounded loop.
fn max_edges(n: usize) -> usize {
    2 * n + 16
}

/// Tie-breaking attempts before giving up (attempt 0 is unperturbed).
const MAX_ATTEMPTS: u64 = 8;

/// Per-edge tie hashes are below 2¹², so a hash sum over any stroll the
/// DP grows stays far inside the low half of a [`TieKey`].
const PERTURB_MASK: Cost = 0xFFF;

/// A deterministic per-(attempt, edge) hash for tie-breaking.
fn perturb_hash(attempt: u64, i: usize, j: usize) -> Cost {
    let (a, b) = if i < j { (i, j) } else { (j, i) };
    let mut x = attempt
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((a as u64) << 32) // analyzer:allow(lossy-cast) -- usize → u64 is lossless on every supported target
        .wrapping_add(b as u64); // analyzer:allow(lossy-cast) -- usize → u64 is lossless on every supported target
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x & PERTURB_MASK
}

/// A closure whose ties are broken by per-edge hashes: edge `(i, j)` is
/// keyed `(c(i, j), hash(attempt, i, j))`.
///
/// The perturbation selects one stroll per attempt pseudo-randomly *among
/// the true minimum-cost strolls*, so a handful of attempts finds one
/// spanning `n` distinct switches whenever one exists. Unreachable edges
/// are clamped to the sentinel, and they and the diagonal carry no hash.
#[derive(Debug, Clone)]
pub struct TieBrokenClosure {
    m: usize,
    keys: Vec<TieKey>,
}

impl TieBrokenClosure {
    /// The tie-broken copy of `closure` for retry `attempt`.
    pub fn new(closure: &MetricClosure, attempt: u64) -> Self {
        let m = closure.len();
        let mut keys = Vec::with_capacity(m * m);
        for i in 0..m {
            keys.extend(closure.row(i).iter().enumerate().map(|(j, &c)| {
                if c >= INFINITY {
                    TieKey::UNREACHABLE
                } else if i == j {
                    TieKey::new(c, 0)
                } else {
                    TieKey::new(c, perturb_hash(attempt, i, j))
                }
            }));
        }
        TieBrokenClosure { m, keys }
    }
}

impl StrollWeights for TieBrokenClosure {
    type Key = TieKey;
    fn node_count(&self) -> usize {
        self.m
    }
    fn row(&self, u: usize) -> &[TieKey] {
        &self.keys[u * self.m..(u + 1) * self.m]
    }
}

/// Solves one n-stroll instance with Algorithm 2, retrying with
/// tie-breaking perturbations when the reconstructed strolls keep looping.
///
/// # Errors
///
/// Propagates instance errors and reports
/// [`StrollError::NoConvergence`] if the edge cap is hit on every attempt.
pub fn dp_stroll(inst: &StrollInstance<'_>) -> Result<StrollSolution, StrollError> {
    let mut last = StrollError::NoConvergence {
        max_edges: max_edges(inst.n()),
    };
    for attempt in 0..MAX_ATTEMPTS {
        let result = if attempt == 0 {
            let mut tables = DpTables::new(inst.closure(), inst.t_ix());
            dp_stroll_with_tables(inst, &mut tables)
        } else {
            let tb = TieBrokenClosure::new(inst.closure(), attempt);
            let mut tables = DpTables::new(&tb, inst.t_ix());
            dp_stroll_on(inst, &tb, &mut tables)
        };
        match result {
            Ok(sol) => return Ok(sol),
            Err(e @ StrollError::NoConvergence { .. }) => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// Solves one instance reusing caller-owned tables (which must target
/// `inst.t_ix()`), growing them over the instance's own closure.
/// Single-attempt: no tie-breaking retries.
pub fn dp_stroll_with_tables(
    inst: &StrollInstance<'_>,
    tables: &mut DpTables,
) -> Result<StrollSolution, StrollError> {
    dp_stroll_on(inst, inst.closure(), tables)
}

/// Single-attempt solve where the DP grows over `weights` (the instance's
/// closure or a tie-broken copy of it) while the solution is priced on the
/// instance's original closure.
fn dp_stroll_on<W: StrollWeights>(
    inst: &StrollInstance<'_>,
    weights: &W,
    tables: &mut DpTables<W::Key>,
) -> Result<StrollSolution, StrollError> {
    assert_eq!(tables.target(), inst.t_ix(), "tables target mismatch");
    let n = inst.n();
    if n == 0 {
        // Degenerate interior chain: ride straight from s to t.
        let walk = if inst.is_tour() {
            vec![inst.s_ix()]
        } else {
            vec![inst.s_ix(), inst.t_ix()]
        };
        return Ok(inst.solution_from_walk(walk));
    }
    let cap = max_edges(n);
    let mut e = n + 1;
    loop {
        if e > cap {
            return Err(StrollError::NoConvergence { max_edges: cap });
        }
        tables.grow_to(weights, e);
        if let Some(walk) = tables.reconstruct(inst.s_ix(), e) {
            if inst.distinct_of_walk(&walk).len() >= n {
                return Ok(inst.solution_from_walk(walk));
            }
        }
        e += 1;
    }
}

/// Reusable scratch state for solving many stroll instances that share one
/// target: the unperturbed [`DpTables`] plus the lazily-built tie-broken
/// retries. [`DpBatchSolver::reset`] re-targets everything without giving
/// the arena allocations back, so Algorithm 3 can sweep hundreds of
/// egresses through one solver with zero steady-state allocation — and its
/// branch-and-bound can solve sources *one at a time*, skipping the ones
/// its incumbent already rules out.
#[derive(Debug, Clone, Default)]
pub struct DpBatchSolver {
    tables: DpTables,
    /// `(tie-broken closure, its tables)` for attempts `1..MAX_ATTEMPTS`,
    /// built on first need and only valid for the current `reset` target.
    retries: Vec<(TieBrokenClosure, DpTables<TieKey>)>,
}

impl DpBatchSolver {
    /// A solver with no target; call [`DpBatchSolver::reset`] before
    /// [`DpBatchSolver::solve`].
    pub fn new() -> Self {
        DpBatchSolver::default()
    }

    /// Re-targets the solver at closure-index `t` of `closure`, keeping
    /// allocations. Drops any tie-broken retries (they are keyed to the old
    /// target and closure).
    pub fn reset(&mut self, closure: &MetricClosure, t: usize) {
        self.tables.reset(closure, t);
        self.retries.clear();
    }

    /// Solves the n-stroll from source closure-index `s` to the target set
    /// by the last [`DpBatchSolver::reset`], sharing tables with every
    /// other source of that target (attempt 0 unperturbed, tie-broken
    /// retries lazily).
    ///
    /// # Errors
    ///
    /// Same conditions as [`dp_stroll`].
    pub fn solve(
        &mut self,
        closure: &MetricClosure,
        s: usize,
        n: usize,
    ) -> Result<StrollSolution, StrollError> {
        let t = self.tables.target();
        let inst = StrollInstance::new_unvalidated(closure, closure.node(s), closure.node(t), n)?;
        match dp_stroll_on(&inst, closure, &mut self.tables) {
            Ok(sol) => Ok(sol),
            Err(StrollError::NoConvergence { .. }) => {
                let mut last = StrollError::NoConvergence {
                    max_edges: max_edges(n),
                };
                for attempt in 1..MAX_ATTEMPTS {
                    let idx = (attempt - 1) as usize; // analyzer:allow(lossy-cast) -- attempt < MAX_ATTEMPTS = 8, fits usize
                    if self.retries.len() <= idx {
                        let tb = TieBrokenClosure::new(closure, attempt);
                        let tables = DpTables::new(&tb, t);
                        self.retries.push((tb, tables));
                    }
                    let (tb, tables) = &mut self.retries[idx];
                    match dp_stroll_on(&inst, tb, tables) {
                        Ok(sol) => return Ok(sol),
                        Err(e @ StrollError::NoConvergence { .. }) => last = e,
                        Err(e) => return Err(e),
                    }
                }
                Err(last)
            }
            Err(e) => Err(e),
        }
    }
}

/// Solves the n-stroll problem from **every source in `sources`** to the one
/// target `t`, sharing one DP table per tie-breaking attempt. This is the
/// exhaustive-sweep workhorse of Algorithm 3 (its branch-and-bound drives a
/// [`DpBatchSolver`] directly to interleave solving with pruning).
///
/// Returns one solution per source, in order.
pub fn dp_stroll_all_sources(
    closure: &MetricClosure,
    sources: &[usize],
    t: usize,
    n: usize,
) -> Vec<Result<StrollSolution, StrollError>> {
    let mut solver = DpBatchSolver::new();
    solver.reset(closure, t);
    sources
        .iter()
        .map(|&s| solver.solve(closure, s, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_topology::builders::linear;
    use ppdc_topology::{DistanceMatrix, Graph, MetricClosure, NodeId, NodeKind};

    /// The paper's Fig. 4(a): nodes s, A, B, C, D, t. Weights chosen so the
    /// optimal 2-stroll is the *walk* s, D, t, C, t of cost 6 while the
    /// *path* s, A, B, t costs 7 — exactly the paper's Example 2 numbers.
    /// On the metric closure (Fig. 4(b)) the DP finds the 3-edge stroll
    /// s, D, C, t of the same cost 6 (D–C rides through t).
    fn fig4() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let s = g.add_switch("s");
        let a = g.add_switch("A");
        let b = g.add_switch("B");
        let c = g.add_switch("C");
        let d = g.add_switch("D");
        let t = g.add_switch("t");
        g.add_edge(s, a, 2).unwrap();
        g.add_edge(a, b, 3).unwrap();
        g.add_edge(b, t, 2).unwrap();
        g.add_edge(s, d, 2).unwrap();
        g.add_edge(d, t, 2).unwrap();
        g.add_edge(t, c, 1).unwrap();
        (g, vec![s, a, b, c, d, t])
    }

    fn closure_of(g: &Graph) -> MetricClosure {
        let dm = DistanceMatrix::build(g);
        let members: Vec<NodeId> = g.nodes().collect();
        MetricClosure::over(&dm, &members)
    }

    #[test]
    fn fig4_example2_dp_finds_cost_6_walk() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let (s, t) = (nodes[0], nodes[5]);
        let inst = StrollInstance::new(&mc, s, t, 2).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        sol.validate(&inst).unwrap();
        assert_eq!(sol.cost, 6, "closure stroll s, D, C, t");
        assert_eq!(sol.distinct, vec![nodes[4], nodes[3]], "visits D then C");
    }

    #[test]
    fn one_stroll_visits_cheapest_detour() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let inst = StrollInstance::new(&mc, nodes[0], nodes[5], 1).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        sol.validate(&inst).unwrap();
        // s → D → t costs 4 (D is on the shortest s–t path).
        assert_eq!(sol.cost, 4);
        assert_eq!(sol.distinct, vec![nodes[4]]);
    }

    #[test]
    fn zero_stroll_is_direct_edge() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let inst = StrollInstance::new(&mc, nodes[0], nodes[5], 0).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        assert_eq!(sol.cost, 4); // closure distance s–t
        assert_eq!(sol.walk.len(), 2);
        assert!(sol.distinct.is_empty());
    }

    #[test]
    fn tour_returns_to_start() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let inst = StrollInstance::new(&mc, nodes[0], nodes[0], 2).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        sol.validate(&inst).unwrap();
        assert_eq!(sol.walk.first(), sol.walk.last());
        assert!(sol.distinct.len() >= 2);
    }

    #[test]
    fn zero_tour_is_trivial() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let inst = StrollInstance::new(&mc, nodes[0], nodes[0], 0).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        assert_eq!(sol.cost, 0);
        assert_eq!(sol.walk, vec![nodes[0]]);
    }

    #[test]
    fn no_immediate_backtrack_in_walks() {
        let (g, h1, h2) = linear(6).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut members = vec![h1, h2];
        members.extend(g.switches());
        let mc = MetricClosure::over(&dm, &members);
        for n in 1..=5 {
            let inst = StrollInstance::new(&mc, h1, h2, n).unwrap();
            let sol = dp_stroll(&inst).unwrap();
            sol.validate(&inst).unwrap();
            for w in sol.walk.windows(3) {
                assert!(
                    w[0] != w[2],
                    "immediate backtrack {:?} in walk for n={n}",
                    w
                );
            }
        }
    }

    #[test]
    fn linear_full_span_stroll() {
        // On the 5-switch line h1 … h2, visiting all 5 switches from h1 to
        // h2 is just the 6-edge end-to-end path of cost 6.
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut members = vec![h1, h2];
        members.extend(g.switches());
        let mc = MetricClosure::over(&dm, &members);
        let inst = StrollInstance::new(&mc, h1, h2, 5).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        sol.validate(&inst).unwrap();
        assert_eq!(sol.cost, 6);
        assert_eq!(sol.distinct.len(), 5);
    }

    #[test]
    fn all_sources_matches_individual_solves() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let t_ix = mc.index(nodes[5]).unwrap();
        let sources: Vec<usize> = (0..mc.len()).filter(|&i| i != t_ix).collect();
        let batch = dp_stroll_all_sources(&mc, &sources, t_ix, 2);
        for (&s_ix, result) in sources.iter().zip(&batch) {
            let inst = StrollInstance::new(&mc, mc.node(s_ix), nodes[5], 2).unwrap();
            let solo = dp_stroll(&inst).unwrap();
            assert_eq!(result.as_ref().unwrap().cost, solo.cost);
        }
    }

    #[test]
    fn theorem3_condition_on_fig4() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let inst = StrollInstance::new(&mc, nodes[0], nodes[5], 2).unwrap();
        let mut tables = DpTables::new(&mc, inst.t_ix());
        let sol = dp_stroll_with_tables(&inst, &mut tables).unwrap();
        let e = sol.walk.len() - 1;
        // The paper notes the fig-4 solution satisfies Theorem 3.
        assert!(tables.theorem3_holds(inst.s_ix(), e));
    }

    #[test]
    fn ablation_closure_vs_raw_graph_matches_example2() {
        // The paper's Example 2 ablation: run the DP on the *raw* graph
        // (non-adjacent pairs = ∞) instead of the metric closure. On
        // Fig. 4 it must then settle for the path s, A, B, t of cost 7,
        // while the closure finds the cost-6 walk — the reason Algorithm 2
        // takes G'' as input.
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        // Raw-edge cost surface: keep direct edges, sever the rest.
        let mut direct = vec![vec![ppdc_topology::INFINITY; 6]; 6];
        for (u, v, w) in g.edges() {
            let (i, j) = (mc.index(u).unwrap(), mc.index(v).unwrap());
            direct[i][j] = w;
            direct[j][i] = w;
        }
        let raw = mc.map_costs(|i, j, c| if i == j { c } else { direct[i][j] });
        let (s, t) = (nodes[0], nodes[5]);
        let inst_raw = StrollInstance::new_unvalidated(&raw, s, t, 2).unwrap();
        let sol_raw = dp_stroll(&inst_raw).unwrap();
        assert_eq!(sol_raw.cost, 7, "raw graph: the s, A, B, t path");
        let inst = StrollInstance::new(&mc, s, t, 2).unwrap();
        assert_eq!(
            dp_stroll(&inst).unwrap().cost,
            6,
            "closure: the cheaper walk"
        );
    }

    #[test]
    fn large_n_on_unweighted_fat_tree_converges() {
        // Regression: on unweighted closures the min-cost strolls are
        // heavily tied and an unperturbed tie-break can loop forever; the
        // perturbation retries must find n distinct switches for every n
        // up to the paper's maximum (13) on the Fig. 7 fabric.
        let g = ppdc_topology::builders::fat_tree(8).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut members = vec![hosts[0], hosts[77]];
        members.extend(g.switches());
        let mc = MetricClosure::over(&dm, &members);
        for n in [9usize, 11, 13] {
            let inst = StrollInstance::new(&mc, hosts[0], hosts[77], n).unwrap();
            let sol = dp_stroll(&inst).unwrap();
            sol.validate(&inst).unwrap();
            assert!(sol.distinct.len() >= n, "n={n}");
        }
    }

    #[test]
    fn tie_key_sentinel_is_the_cost_sentinel() {
        assert_eq!(TieKey::UNREACHABLE, TieKey::new(INFINITY, 0));
        assert!(TieKey::new(INFINITY - 1, PERTURB_MASK * 64) < TieKey::UNREACHABLE);
    }

    #[test]
    fn perturbation_preserves_true_costs() {
        // Tie-broken keys must never reorder strolls of different true
        // cost: every key's cost half is the original closure cost.
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let tb = TieBrokenClosure::new(&mc, 3);
        for i in 0..mc.len() {
            for j in 0..mc.len() {
                assert_eq!(tb.row(i)[j].0 >> 64, u128::from(mc.cost_ix(i, j)));
            }
        }
        let _ = nodes;
    }

    /// The scalar level loop the masked kernel replaced, kept as its
    /// reference: per-pair exclusion branches and a strict-improvement
    /// scan, generic over the key like the kernel.
    fn extend_reference<K: StrollKey, W: StrollWeights<Key = K>>(
        tables: &mut DpTables<K>,
        weights: &W,
    ) {
        let m = tables.m;
        let filled = tables.levels * m;
        tables.cost.resize(filled + m, K::UNREACHABLE);
        tables.succ.resize(filled + m, NO_SUCC);
        let (prev_c, cur_c) = tables.cost.split_at_mut(filled);
        let prev_c = &prev_c[filled - m..];
        let (prev_s, cur_s) = tables.succ.split_at_mut(filled);
        let prev_s = &prev_s[filled - m..];
        for u in 0..m {
            let mut best = K::UNREACHABLE;
            let mut best_v = NO_SUCC;
            for v in 0..m {
                if v == u || v == tables.t || prev_s[v] == u {
                    continue;
                }
                if prev_c[v] >= K::UNREACHABLE {
                    continue;
                }
                let cand = weights.row(u)[v].plus(prev_c[v]);
                if cand < best {
                    best = cand;
                    best_v = v;
                }
            }
            cur_c[u] = best;
            cur_s[u] = best_v;
        }
        tables.levels += 1;
    }

    /// Grows kernel and reference tables side by side over `weights` and
    /// checks both arrays level by level, 2 through 8.
    fn assert_kernel_matches_reference<K: StrollKey, W: StrollWeights<Key = K>>(
        weights: &W,
        t: usize,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut kernel = DpTables::new(weights, t);
        let mut reference = DpTables::new(weights, t);
        for level in 2..=8 {
            kernel.grow_to(weights, level);
            extend_reference(&mut reference, weights);
            proptest::prop_assert_eq!(&kernel.cost, &reference.cost, "cost, level {}", level);
            proptest::prop_assert_eq!(&kernel.succ, &reference.succ, "succ, level {}", level);
        }
        Ok(())
    }

    /// A closure over `m` nodes whose costs come from `seed`: mostly small
    /// (so ties abound), with some unreachable and some near-sentinel
    /// entries to exercise saturation.
    fn random_closure(m: usize, seed: u64) -> MetricClosure {
        use rand::{Rng, SeedableRng};
        let (g, _, _) = linear(m - 2).unwrap();
        let base = closure_of(&g);
        assert_eq!(base.len(), m);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let draws: Vec<Cost> = (0..m * m)
            .map(|_| match rng.gen_range(0u32..20) {
                0 => INFINITY,
                1 => INFINITY - rng.gen_range(1u64..4),
                _ => rng.gen_range(0u64..12),
            })
            .collect();
        base.map_costs(|i, j, _| if i == j { 0 } else { draws[i * m + j] })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::env_or(64))]

        /// The masked kernel equals the scalar reference bit for bit, cost
        /// and successor arrays alike, on plain and tie-broken weights.
        #[test]
        fn masked_kernel_equals_scalar_reference(
            m in 3usize..14,
            seed in proptest::arbitrary::any::<u64>(),
            t_pick in proptest::arbitrary::any::<u64>(),
            attempt in 1u64..MAX_ATTEMPTS,
        ) {
            let mc = random_closure(m, seed);
            let t = usize::try_from(t_pick % m as u64).unwrap();
            assert_kernel_matches_reference(&mc, t)?;
            assert_kernel_matches_reference(&TieBrokenClosure::new(&mc, attempt), t)?;
        }

        /// On costs small enough for the old `cost·2²⁰ + hash` packing, the
        /// tie-broken key picks exactly the successors that packing did.
        #[test]
        fn tie_key_orders_like_the_scaled_packing(
            m in 3usize..14,
            seed in proptest::arbitrary::any::<u64>(),
            attempt in 1u64..MAX_ATTEMPTS,
        ) {
            // Near-sentinel draws would overflow the packing: make them
            // unreachable instead.
            let mc = random_closure(m, seed).map_costs(|_, _, c| if c < 12 { c } else { INFINITY });
            let packed = mc.map_costs(|i, j, c| {
                if c >= INFINITY || i == j {
                    c
                } else {
                    (c << 20) + perturb_hash(attempt, i, j)
                }
            });
            let tb = TieBrokenClosure::new(&mc, attempt);
            let mut new = DpTables::new(&tb, 0);
            let mut old = DpTables::new(&packed, 0);
            new.grow_to(&tb, 8);
            old.grow_to(&packed, 8);
            proptest::prop_assert_eq!(&new.succ, &old.succ);
        }
    }

    /// `fat_tree(8)` with every link weight multiplied by `scale`, and the
    /// closure over two far-apart hosts plus every switch.
    fn scaled_fat_tree_closure(scale: Cost) -> (MetricClosure, NodeId, NodeId) {
        let g = ppdc_topology::builders::fat_tree(8).unwrap();
        let mut scaled = Graph::new();
        for v in g.nodes() {
            let id = match g.kind(v) {
                NodeKind::Switch => scaled.add_switch(g.label(v)),
                NodeKind::Host => scaled.add_host(g.label(v)),
            };
            assert_eq!(id, v);
        }
        for (u, v, w) in g.edges() {
            scaled.add_edge(u, v, w * scale).unwrap();
        }
        let dm = DistanceMatrix::build(&scaled);
        let hosts: Vec<NodeId> = scaled.hosts().collect();
        let mut members = vec![hosts[0], hosts[77]];
        members.extend(scaled.switches());
        (MetricClosure::over(&dm, &members), hosts[0], hosts[77])
    }

    #[test]
    fn tie_break_is_scale_invariant_on_heavy_fabrics() {
        // Regression: the old tie-break scaled costs by 2²⁰ before adding
        // hashes, so at ×2⁴⁰ finite strolls crossed INFINITY (and the
        // solve gave up), and at ×2⁴⁴ the scaling overflowed. The key now
        // keeps the true cost whole: any uniform scale picks the same walk.
        let (base, s, t) = scaled_fat_tree_closure(1);
        let base_sols: Vec<StrollSolution> = [9usize, 11, 13]
            .iter()
            .map(|&n| dp_stroll(&StrollInstance::new(&base, s, t, n).unwrap()).unwrap())
            .collect();
        for (sol, want) in base_sols.iter().zip([10, 12, 14]) {
            assert_eq!(sol.cost, want);
        }
        for scale in [1u64 << 30, 1 << 40, 1 << 44] {
            let (mc, s, t) = scaled_fat_tree_closure(scale);
            for (&n, want) in [9usize, 11, 13].iter().zip(&base_sols) {
                let inst = StrollInstance::new(&mc, s, t, n).unwrap();
                let sol = dp_stroll(&inst).unwrap();
                sol.validate(&inst).unwrap();
                assert_eq!(sol.walk, want.walk, "scale {scale}, n={n}");
                assert_eq!(sol.cost, want.cost * scale, "scale {scale}, n={n}");
            }
        }
    }

    #[test]
    fn perturbation_hash_is_symmetric_and_bounded() {
        for a in 0..4u64 {
            for i in 0..10usize {
                for j in 0..10usize {
                    let h = perturb_hash(a, i, j);
                    assert_eq!(h, perturb_hash(a, j, i));
                    assert!(h <= PERTURB_MASK);
                }
            }
        }
    }

    #[test]
    fn too_few_nodes_is_reported() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        assert!(matches!(
            StrollInstance::new(&mc, nodes[0], nodes[5], 5),
            Err(StrollError::TooFewNodes {
                available: 4,
                needed: 5
            })
        ));
    }
}
