//! **The Algorithm 3 solver session** — one [`BoundCache`] per run of
//! solves, incumbent seeding, and delta-scoped bound caching.
//!
//! Every `n ≥ 3` placement solve runs here: [`crate::dp_placement_with_agg`]
//! is a solve on a fresh session, and the engines (hourly TOM, mPareto's
//! inner solve, the streaming epoch loop) hold one session for the day.
//! Consecutive solves face near-identical instances — few hosts' rate
//! masses move, and the previous placement is usually still optimal or
//! close to it. [`dp_placement_warm`] exploits both:
//!
//! 1. **Incumbent seeding** — the incumbent placement is priced under the
//!    *new* aggregates and installed as the sweep's initial atomic upper
//!    bound. A near-stationary epoch then prunes almost every egress at
//!    its first bound comparison instead of discovering the same optimum
//!    from scratch.
//! 2. **Delta-scoped bound caching** — the session holds the
//!    per-candidate `A_in`/`A_out` bound terms, the metric closure, its
//!    commutative row fingerprints, the interchangeability classes, and
//!    the best-bound egress order. Each solve diffs the `O(m)` per-switch
//!    terms against the aggregates it is handed (`m ≤ 1,280` candidates,
//!    no oracle queries); only a moved row dirties the classes, a
//!    cancelling delta pair leaves its rows clean, and a quiet epoch
//!    reuses everything verbatim.
//! 3. **Dirty-row egress sweep** — with a seeded incumbent, cached order
//!    entries whose bound already exceeds the seed are dropped before the
//!    sweep's workers see them.
//! 4. **Interior-chain memoization** — the stroll DP filling a chain's
//!    interior is a function of the metric closure alone (fixed while
//!    the session is valid); the aggregates only price the finished
//!    chain. Every visited egress's interiors are therefore memoized
//!    (`InteriorMemo` in `dp.rs`, one flat `m·(n−2)` id array per egress)
//!    and later solves price them under the new aggregates in `O(n)`
//!    instead of re-running the per-egress DP fill. This carries the bulk
//!    of the speedup: an admissible bound can never prune the
//!    `{lb ≤ optimum}` survivor set, but memoization makes every survivor
//!    nearly free after its first solve.
//!
//! # Bit-identity
//!
//! A session solve returns the same cost **and** the same lexicographic
//! switch tie-break as a fresh-session solve and as the exhaustive sweep
//! (DESIGN.md §10, proptested against
//! [`crate::dp_placement_exhaustive_with_agg`]). The argument in brief:
//! the seed is the exact cost of a feasible placement, so it is an upper
//! bound on nothing below the optimum; strict-inequality pruning then
//! never drops a candidate of optimal cost, and the per-egress local
//! minima — which decide the tie-break — are taken over the same solved
//! sets in both paths. The incumbent's own switch vector is *never*
//! injected into the candidate set: it only tightens the bound, so the
//! winning chain is always discovered by the sweep itself.
//!
//! # Cache contract
//!
//! A [`BoundCache`] is keyed by the candidate switch set and chain length
//! (shape changes trigger a transparent full rebuild) and diffs the
//! aggregates on every solve, so it follows any aggregate mutation —
//! folded deltas, restricted rebuilds, rates moved between flows —
//! without being told. It imposes **one** obligation on the caller: call
//! [`BoundCache::invalidate`] whenever the distance oracle's answers
//! change (fault events, topology edits). The hourly engines do so on
//! every fault-event hour; the streaming engine's oracle is fixed for the
//! day. On checkpoint restore an engine starts from a fresh cache
//! (rebuilt, never persisted), which keeps the checkpoint formats
//! primary-state-only and kill/resume bit-identical.

use crate::aggregates::{AttachAggregates, HostMassDelta};
use crate::dp::{
    class_sizes, closed_form, closure_c_min, closure_row_hashes, egress_order,
    sweep_classes_with_hashes, too_few, InteriorMemo, SweepCtx, ORBIT_MIN_SWITCHES,
};
use crate::PlacementError;
use ppdc_model::{Placement, Sfc, Workload};
use ppdc_obs::names as obs_names;
use ppdc_topology::{sat_mul, Cost, DistanceOracle, Graph, MetricClosure, NodeId};
use std::sync::atomic::AtomicU64;

/// The solver session: bound state reused across solves; see the module
/// docs for what it caches and the one obligation it imposes on callers.
///
/// All fields are derived state: dropping the cache (or calling
/// [`BoundCache::invalidate`]) costs one full rebuild on the next solve
/// and nothing else, which is exactly the checkpoint-restore story.
#[derive(Debug, Default)]
pub struct BoundCache {
    valid: bool,
    /// Chain length the cached `seg_lb`/order were computed for.
    n: usize,
    /// Candidate switch set the closure covers, in aggregate order.
    switches: Vec<NodeId>,
    closure: MetricClosure,
    /// [`closure_row_hashes`] of `closure`; empty below the orbit cutoff.
    row_hash: Vec<u64>,
    c_min: Cost,
    /// Total rate the cached order was computed under.
    rate: u64,
    a_in: Vec<Cost>,
    a_out: Vec<Cost>,
    classes: Vec<Vec<usize>>,
    class_size: Vec<u32>,
    /// Sorted best-bound egress order ([`egress_order`]).
    order: Vec<(Cost, usize)>,
    /// Cross-epoch interior-chain memo: the stroll DP's answers depend
    /// only on the closure (never the aggregates), so they persist
    /// across epochs and are priced under each epoch's aggregates in
    /// `O(n)` instead of re-running the `O(m²)`-per-level DP fill. Reset
    /// whenever the closure rebuilds.
    interior: InteriorMemo,
}

impl BoundCache {
    /// An empty cache; the first solve performs a full rebuild.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once the cache holds a usable bound state (i.e. at least one
    /// `n ≥ 3` solve has run since construction/invalidation).
    pub fn is_warm(&self) -> bool {
        self.valid
    }

    /// Drops all cached state. Must be called when the distance oracle's
    /// answers change (fault events, topology edits); candidate-set and
    /// chain-length changes are detected automatically and do not need it.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Does nothing. Every solve diffs the per-switch aggregate terms
    /// itself, so the cache needs no report of which masses moved; the
    /// method stays only so existing callers keep compiling.
    pub fn note_mass_deltas(&mut self, _masses: &[HostMassDelta]) {}

    /// `(n−1) · c_min` for the cached shape.
    fn seg_lb(&self) -> Cost {
        let interior = u64::try_from(self.n.saturating_sub(1)).unwrap_or(u64::MAX);
        sat_mul(interior, self.c_min)
    }

    /// Brings the cache in sync with `agg` for an `n`-VNF solve: a full
    /// rebuild on a shape change or after [`BoundCache::invalidate`],
    /// otherwise a diff of the per-switch terms that recomputes only what
    /// moved.
    fn refresh<D: DistanceOracle + ?Sized>(&mut self, dm: &D, agg: &AttachAggregates, n: usize) {
        let obs = ppdc_obs::global();
        if !self.valid || self.n != n || self.switches != agg.switches() {
            self.rebuild(dm, agg, n);
            let m = u64::try_from(self.closure.len()).unwrap_or(u64::MAX);
            obs.add(obs_names::SOLVER_WARM_ROWS_DIRTY, m);
            return;
        }
        #[cfg(feature = "strict-invariants")]
        {
            // The cache trusts the caller to invalidate on distance
            // changes; under strict invariants, verify the trust.
            let fresh = MetricClosure::over(dm, agg.switches());
            let m = self.closure.len();
            assert!(
                (0..m).all(|i| (0..m).all(|j| fresh.cost_ix(i, j) == self.closure.cost_ix(i, j))),
                "BoundCache used across a distance change without invalidate()"
            );
        }
        // Row-wise invalidation: diff the per-switch terms against the
        // snapshot. O(m) oracle-free scans — the attach aggregates have
        // already absorbed every mutation — so even a full-fabric churn
        // pays closure-free refresh here.
        let m = self.closure.len();
        let mut dirty = 0u64;
        for i in 0..m {
            let x = self.closure.node(i);
            let (ai, ao) = (agg.a_in(x), agg.a_out(x));
            if ai != self.a_in[i] || ao != self.a_out[i] {
                self.a_in[i] = ai;
                self.a_out[i] = ao;
                dirty += 1;
            }
        }
        obs.add(obs_names::SOLVER_WARM_ROWS_DIRTY, dirty);
        obs.add(
            obs_names::SOLVER_WARM_ROWS_REUSED,
            u64::try_from(m).unwrap_or(u64::MAX).saturating_sub(dirty),
        );
        let rate = agg.total_rate();
        if dirty == 0 && rate == self.rate {
            // Unchanged aggregates + unchanged closure rows imply
            // unchanged bounds: every row, class and order entry is
            // reused verbatim (DESIGN.md §10).
            return;
        }
        self.rate = rate;
        if dirty > 0 {
            // Interchangeability depends on the (a_in, a_out) pairs, so
            // dirty rows force a reclassification — against the cached
            // row fingerprints, which depend only on the closure. The
            // canonical class order makes the result identical to a
            // fresh classification of the same aggregates.
            self.classes =
                sweep_classes_with_hashes(&self.closure, &self.a_in, &self.a_out, &self.row_hash);
            self.class_size = class_sizes(&self.classes, m);
        }
        // A rate-only change keeps rows and classes but shifts every
        // bound, so the order always rebuilds past this point.
        self.order = egress_order(
            &self.closure,
            &self.a_in,
            &self.a_out,
            &self.classes,
            self.rate,
            self.seg_lb(),
        );
    }

    /// Full rebuild for a new shape: closure, fingerprints, terms,
    /// classes, order.
    fn rebuild<D: DistanceOracle + ?Sized>(&mut self, dm: &D, agg: &AttachAggregates, n: usize) {
        self.closure.rebuild_over(dm, agg.switches());
        let m = self.closure.len();
        // New closure (or chain length) ⇒ every memoized chain is stale.
        self.interior.reset(m);
        self.switches = agg.switches().to_vec();
        self.n = n;
        self.row_hash = if m < ORBIT_MIN_SWITCHES {
            Vec::new() // singleton classes never read the fingerprints
        } else {
            closure_row_hashes(&self.closure)
        };
        self.c_min = closure_c_min(&self.closure);
        self.rate = agg.total_rate();
        self.a_in = (0..m).map(|i| agg.a_in(self.closure.node(i))).collect();
        self.a_out = (0..m).map(|i| agg.a_out(self.closure.node(i))).collect();
        self.classes =
            sweep_classes_with_hashes(&self.closure, &self.a_in, &self.a_out, &self.row_hash);
        self.class_size = class_sizes(&self.classes, m);
        self.order = egress_order(
            &self.closure,
            &self.a_in,
            &self.a_out,
            &self.classes,
            self.rate,
            self.seg_lb(),
        );
        self.valid = true;
    }
}

/// Algorithm 3 on a solver session: every DP placement solve except the
/// exhaustive reference runs here. Bit-identical to a fresh-session solve
/// ([`crate::dp_placement_with_agg`]) and to the exhaustive sweep (cost
/// and lexicographic switch tie-break), faster when `cache` has served
/// earlier solves and `incumbent` is near the optimum. See the module
/// docs for the mechanism and the cache contract. `n ≤ 2` chains take the
/// closed forms and do not read or change `cache`.
///
/// `incumbent` is the previous epoch's placement (if any); it is priced
/// under the *current* aggregates and only used when still feasible for
/// this candidate set and chain length, so a stale incumbent can cost
/// nothing but the seeding opportunity.
///
/// # Errors
///
/// Same conditions as [`crate::dp_placement`].
pub fn dp_placement_warm<D: DistanceOracle + ?Sized>(
    _g: &Graph,
    dm: &D,
    w: &Workload,
    sfc: &Sfc,
    agg: &AttachAggregates,
    cache: &mut BoundCache,
    incumbent: Option<&Placement>,
) -> Result<(Placement, Cost), PlacementError> {
    let _span = ppdc_obs::global().span(obs_names::SOLVER_DP);
    if w.num_flows() == 0 {
        return Err(PlacementError::NoFlows);
    }
    let n = sfc.len();
    let switches = agg.switches();
    if switches.len() < n {
        return Err(too_few(switches.len(), n));
    }
    let result = if n < 3 {
        closed_form(dm, agg, n)
    } else {
        cache.solve(dm, agg, n, incumbent, rayon::current_num_threads())
    };
    // `strict-invariants` contract: Algorithm 3 must return an injective
    // placement (one VNF per switch, footnote 3 of the paper) whose
    // reported cost matches an independent aggregate re-evaluation.
    #[cfg(feature = "strict-invariants")]
    if let Ok((p, c)) = &result {
        assert!(
            p.is_injective(),
            "dp_placement returned a non-injective placement: {:?}",
            p.switches()
        );
        assert_eq!(
            *c,
            agg.comm_cost(dm, p),
            "dp_placement's reported cost disagrees with re-evaluation"
        );
    }
    result
}

impl BoundCache {
    /// The `n ≥ 3` branch-and-bound sweep over the refreshed session on
    /// `workers` sweep threads, seeded with `incumbent` when it is
    /// feasible now.
    fn solve<D: DistanceOracle + ?Sized>(
        &mut self,
        dm: &D,
        agg: &AttachAggregates,
        n: usize,
        incumbent: Option<&Placement>,
        workers: usize,
    ) -> Result<(Placement, Cost), PlacementError> {
        self.refresh(dm, agg, n);
        let obs = ppdc_obs::global();
        let switches = agg.switches();
        // Seed only from a placement that is feasible *now*: right length,
        // injective, entirely inside the current candidate set. An
        // infeasible seed could undercut the true optimum and prune it.
        let seed = incumbent.and_then(|p| {
            let s = p.switches();
            (s.len() == n && p.is_injective() && s.iter().all(|x| switches.contains(x)))
                .then(|| agg.comm_cost(dm, p))
        });
        let ctx = SweepCtx {
            dm,
            agg,
            closure: &self.closure,
            n,
            rate: self.rate,
            seg_lb: self.seg_lb(),
            a_in: &self.a_in,
            a_out: &self.a_out,
            classes: &self.classes,
            class_size: &self.class_size,
            memo: &self.interior,
            incumbent: AtomicU64::new(seed.unwrap_or(u64::MAX)),
        };
        let Some(ub) = seed else {
            return ctx.run_sweep(&self.order, workers);
        };
        obs.add(obs_names::SOLVER_WARM_SEEDED, 1);
        // Dirty-row egress sweep: an order entry whose cached bound
        // strictly exceeds the seed would be pruned at its first atomic
        // load anyway (the incumbent only falls from the seed), so it is
        // dropped before the sweep starts. The sweep's own prune
        // counters are kept in step so seeded and unseeded runs report
        // comparable totals.
        let live: Vec<(Cost, usize)> = self
            .order
            .iter()
            .copied()
            .filter(|&(bound, _)| bound <= ub)
            .collect();
        let skipped = self.order.len() - live.len();
        if skipped > 0 {
            let orbit = self
                .order
                .iter()
                .filter(|&&(bound, t_ix)| bound > ub && self.class_size[t_ix] > 1)
                .count();
            let skipped64 = u64::try_from(skipped).unwrap_or(u64::MAX);
            obs.add(obs_names::SOLVER_WARM_EGRESS_SKIPPED, skipped64);
            obs.add(obs_names::SOLVER_DP_EGRESS_PRUNED, skipped64);
            obs.add(
                obs_names::SOLVER_DP_ORBIT_PRUNED,
                u64::try_from(orbit).unwrap_or(u64::MAX),
            );
        }
        ctx.run_sweep(&live, workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dp_placement_exhaustive_with_agg, dp_placement_with_agg};
    use ppdc_topology::builders::fat_tree;
    use ppdc_topology::DistanceMatrix;

    fn fixture() -> (Graph, DistanceMatrix, Workload) {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for i in 0..hosts.len() {
            w.add_pair(
                hosts[i],
                hosts[(i * 7 + 3) % hosts.len()],
                (i as u64) % 9 + 1,
            );
        }
        (g, dm, w)
    }

    #[test]
    fn warm_matches_cold_across_epochs() {
        let (g, dm, mut w) = fixture();
        let sfc = Sfc::of_len(4).unwrap();
        let mut cache = BoundCache::new();
        let mut prev: Option<Placement> = None;
        for epoch in 0..6u64 {
            // Perturb the rates each epoch and hand the session freshly
            // built aggregates; it must diff them on its own.
            let mut rates: Vec<u64> = (0..w.num_flows())
                .map(|i| (i as u64 + epoch * 13) % 17 + 1)
                .collect();
            let bump = (epoch as usize) % rates.len();
            rates[bump] += 40;
            w.set_rates(&rates).unwrap();
            let agg = AttachAggregates::build(&g, &dm, &w);
            let (wp, wc) =
                dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, prev.as_ref()).unwrap();
            let (cp, cc) = dp_placement_exhaustive_with_agg(&g, &dm, &w, &sfc, &agg).unwrap();
            assert_eq!(wc, cc, "epoch {epoch}: cost diverged");
            assert_eq!(
                wp.switches(),
                cp.switches(),
                "epoch {epoch}: tie-break diverged"
            );
            prev = Some(wp);
        }
    }

    #[test]
    fn quiet_epoch_reuses_every_row() {
        let (g, dm, w) = fixture();
        let sfc = Sfc::of_len(3).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        let mut cache = BoundCache::new();
        let (p1, c1) = dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, None).unwrap();
        assert!(cache.is_warm());
        // Unchanged aggregates: the second solve must take the verbatim-
        // reuse path and still agree with a fresh-session solve.
        let (p2, c2) = dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, Some(&p1)).unwrap();
        let (p3, c3) = dp_placement_with_agg(&g, &dm, &w, &sfc, &agg).unwrap();
        assert_eq!((c1, p1.switches()), (c2, p2.switches()));
        assert_eq!((c2, p2.switches()), (c3, p3.switches()));
    }

    #[test]
    fn session_follows_unreported_rate_moves() {
        // Move rate between two flows with the total unchanged and fold
        // it into the aggregates without telling the session: every solve
        // diffs the per-switch terms itself, so a reused session must
        // still match the exhaustive sweep bit for bit.
        use ppdc_model::FlowId;
        let (g, dm, mut w) = fixture();
        let sfc = Sfc::of_len(4).unwrap();
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        let mut cache = BoundCache::new();
        let (mut prev, _) = dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, None).unwrap();
        for step in 0..4usize {
            let total = agg.total_rate();
            // Flows 8, 7, … carry rates 9, 8, …: all but one unit moves.
            let (from, to) = (8 - step, w.num_flows() - 1 - step);
            let mut rates = w.rates().to_vec();
            let moved = rates[from] - 1;
            rates[from] -= moved;
            rates[to] += moved;
            let moved = i64::try_from(moved).unwrap();
            w.set_rates(&rates).unwrap();
            let deltas = [(FlowId(from as u32), -moved), (FlowId(to as u32), moved)];
            agg.apply_rate_deltas(&dm, &w, &deltas);
            assert_eq!(agg.total_rate(), total, "the move keeps Σλ fixed");
            let (wp, wc) =
                dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, Some(&prev)).unwrap();
            let (xp, xc) = dp_placement_exhaustive_with_agg(&g, &dm, &w, &sfc, &agg).unwrap();
            assert_eq!((wc, wp.switches()), (xc, xp.switches()), "step {step}");
            prev = wp;
        }
    }

    #[test]
    fn candidate_set_change_triggers_rebuild() {
        let (g, dm, w) = fixture();
        let sfc = Sfc::of_len(3).unwrap();
        let mut cache = BoundCache::new();
        let full = AttachAggregates::build(&g, &dm, &w);
        let (pf, cf) = dp_placement_warm(&g, &dm, &w, &sfc, &full, &mut cache, None).unwrap();
        // Restrict the candidates: the cache must rebuild (shape change)
        // and the old incumbent — now outside the set — must not seed.
        let subset: Vec<NodeId> = g.switches().step_by(2).collect();
        let ragg = AttachAggregates::build_restricted(&g, &dm, &w, &subset);
        let (rp, rc) = dp_placement_warm(&g, &dm, &w, &sfc, &ragg, &mut cache, Some(&pf)).unwrap();
        let (xp, xc) = dp_placement_exhaustive_with_agg(&g, &dm, &w, &sfc, &ragg).unwrap();
        assert_eq!((rc, rp.switches()), (xc, xp.switches()));
        // And back to the full set, seeding from the restricted solution.
        let (bp, bc) = dp_placement_warm(&g, &dm, &w, &sfc, &full, &mut cache, Some(&rp)).unwrap();
        assert_eq!((bc, bp.switches()), (cf, pf.switches()));
    }

    #[test]
    fn small_n_delegates_to_closed_forms() {
        let (g, dm, w) = fixture();
        let agg = AttachAggregates::build(&g, &dm, &w);
        let mut cache = BoundCache::new();
        for n in 1..=2usize {
            let sfc = Sfc::of_len(n).unwrap();
            let (wp, wc) = dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, None).unwrap();
            let (cp, cc) = dp_placement_with_agg(&g, &dm, &w, &sfc, &agg).unwrap();
            assert_eq!((wc, wp.switches()), (cc, cp.switches()), "n={n}");
            assert!(
                !cache.is_warm(),
                "n={n}: closed forms must not warm the cache"
            );
        }
    }

    #[test]
    fn infeasible_incumbents_are_ignored() {
        let (g, dm, w) = fixture();
        let sfc = Sfc::of_len(4).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        let (cp, cc) = dp_placement_with_agg(&g, &dm, &w, &sfc, &agg).unwrap();
        let switches: Vec<NodeId> = g.switches().collect();
        let hosts: Vec<NodeId> = g.hosts().collect();
        let bad: Vec<Placement> = vec![
            // Wrong length. (Non-injectivity is unconstructible — even
            // `Placement::new_unchecked` asserts distinctness — so the
            // seed guard's injectivity arm is pure release-build defense.)
            Placement::new_unchecked(switches[..3].to_vec()),
            // Outside the candidate set.
            Placement::new_unchecked(vec![hosts[0], switches[1], switches[2], switches[3]]),
        ];
        for p in &bad {
            let mut cache = BoundCache::new();
            let (wp, wc) = dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, Some(p)).unwrap();
            assert_eq!((wc, wp.switches()), (cc, cp.switches()));
        }
    }

    /// A random workload of `flows` host pairs on `g`, rates 1..=64.
    fn random_workload(g: &Graph, flows: usize, seed: u64) -> Workload {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for _ in 0..flows {
            let a = hosts[rng.gen_range(0..hosts.len())];
            let b = hosts[rng.gen_range(0..hosts.len())];
            w.add_pair(a, b, rng.gen_range(1u64..=64));
        }
        w
    }

    proptest::proptest! {
        // Each case runs four exhaustive k = 16 sweeps (about 15 s in a
        // debug build): one case per run, a new one under each seed.
        #![proptest_config(proptest::test_runner::ProptestConfig::env_or(1))]

        /// The shared-cursor sweep returns the exhaustive optimum — cost
        /// and switch tie-break — however many workers pull from it.
        #[test]
        fn sweep_is_invariant_to_worker_count(seed in proptest::arbitrary::any::<u64>()) {
            for k in [8usize, 16] {
                let ft = ppdc_topology::FatTree::build(k).unwrap();
                let oracle = ppdc_topology::FatTreeOracle::new(&ft);
                let g = ft.graph();
                let w = random_workload(g, 3 * k, seed ^ k as u64);
                let agg = AttachAggregates::build(g, &oracle, &w);
                for n in 3..=6usize {
                    let sfc = Sfc::of_len(n).unwrap();
                    let (p_ex, c_ex) =
                        dp_placement_exhaustive_with_agg(g, &oracle, &w, &sfc, &agg).unwrap();
                    for workers in [1usize, 2, 3, 8] {
                        let (p, c) = BoundCache::new().solve(&oracle, &agg, n, None, workers).unwrap();
                        proptest::prop_assert_eq!(
                            (c, p.switches()),
                            (c_ex, p_ex.switches()),
                            "k={} n={} workers={}",
                            k,
                            n,
                            workers
                        );
                    }
                }
            }
        }
    }
}
