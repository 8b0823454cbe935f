//! Attach-cost aggregates: the workload-wide ingress/egress cost arrays.
//!
//! `C_a(p)` (Eq. 1) decomposes into a chain term shared by all flows and a
//! per-flow attachment term that depends only on the ingress and egress
//! switches:
//!
//! `C_a(p) = Σλ · chain(p)  +  A_in[p(1)]  +  A_out[p(n)]`
//!
//! where `A_in[x] = Σ_i λ_i·c(s(v_i), x)` and
//! `A_out[x] = Σ_i λ_i·c(x, s(v'_i))`. Precomputing the two arrays makes
//! evaluating a candidate placement `O(n)` regardless of the number of
//! flows — the enabling trick for Algorithm 3's `O(|V_s|²)` pair sweep and
//! the branch-and-bound of Algorithm 4.
//!
//! # Attach-node aggregation
//!
//! Flows enter the fabric only at their VMs' attach nodes, so the sums
//! group by endpoint host:
//!
//! `A_in[x] = Σ_h R_out[h]·c(h, x)` with `R_out[h] = Σ_{s(v_i)=h} λ_i`
//!
//! (and symmetrically `R_in[h]` for `A_out`). Folding the workload into the
//! per-host rate masses first makes [`AttachAggregates::build`]
//! `O(|flows| + |V_h|·|V_s|)` instead of `O(|flows|·|V_s|)` — many VMs
//! share an attach node, and a production workload has orders of magnitude
//! more flows than hosts. All arithmetic is exact, so regrouping the sum
//! changes nothing: the arrays are bit-identical to the flow-by-flow ones
//! (kept as [`AttachAggregates::build_flow_by_flow`] for tests and
//! benches).
//!
//! # ToR factoring
//!
//! A host whose only neighbour is a switch `tor(h)` reaches every other
//! node through that switch, so `c(h, x) = c(h, tor(h)) + c(tor(h), x)`
//! exactly, and the host sums regroup once more by rack:
//!
//! `A_in[x] = Σ_h R_out[h]·c(h, tor(h))  +  Σ_tor D_out[tor]·c(tor, x)`
//!
//! with `D_out[tor] = Σ_{tor(h)=tor} R_out[h]`. The first sum is one
//! scalar for all candidates, so the switch sweep runs over touched racks
//! instead of touched hosts: `O(|flows| + |V_h| + |racks|·|V_s|)` per
//! build. This path runs whenever the oracle is all-connected
//! ([`DistanceOracle::all_connected`]) and every candidate is a switch.
//! Hosts that are not single-homed keep their own host-level terms, and
//! oracles with unreachable pairs (degraded or partitioned fault views)
//! use host-level terms throughout — there a failed ToR strands its hosts
//! and the identity no longer holds.
//!
//! The same grouping makes TOM epochs incremental: when only rates change
//! (hosts and distances fixed), [`AttachAggregates::apply_rate_deltas`]
//! folds the rate deltas into per-host masses, the per-host masses into
//! per-ToR masses, and adds `Δmass·c(tor, x)` to each switch —
//! `O(|Δ| + |dirty ToRs|·|V_s|)` per epoch instead of a full rebuild
//! (`O(|Δ| + |dirty hosts|·|V_s|)` on the host-level path).

use ppdc_model::{FlowId, Placement, Workload};
use ppdc_topology::{sat_add, sat_mul, Cost, DistanceOracle, Graph, NodeId, NodeKind, INFINITY};
use rayon::prelude::*;
use std::sync::OnceLock;

/// One step of a saturating attachment sum: adds `mass·c` with the
/// unreachable sentinel kept intact. A positive mass across an
/// [`INFINITY`] distance — or a product beyond the sentinel — pins the
/// sum at exactly `INFINITY` (never the overflowing product), and a zero
/// mass contributes 0 regardless of reachability. Every term is
/// non-negative, so the result is `min(INFINITY, exact sum)` in any
/// summation order — the regrouped builds land on the same value.
#[inline]
fn attach_acc(acc: Cost, mass: u64, cost: Cost) -> Cost {
    sat_add(acc, sat_mul(mass, cost))
}

/// `RackMap::slot` value of a node that is not a factorable host.
const NO_RACK: usize = usize::MAX;

/// Which attach nodes factor through a single top-of-rack switch:
/// `slot[h]` indexes `tors` for every host whose only neighbour is a
/// switch, [`NO_RACK`] otherwise. Empty (no host factors) when a candidate
/// is not a switch, since the identity `c(h, x) = c(h, tor) + c(tor, x)`
/// needs `x ≠ h`.
#[derive(Debug, Clone, Default)]
struct RackMap {
    slot: Vec<usize>,
    tors: Vec<NodeId>,
}

impl RackMap {
    fn of(g: &Graph, candidates: &[NodeId]) -> Self {
        if candidates.iter().any(|&x| g.kind(x) != NodeKind::Switch) {
            return RackMap::default();
        }
        let n = g.num_nodes();
        let mut slot = vec![NO_RACK; n];
        let mut tor_slot = vec![NO_RACK; n];
        let mut tors = Vec::new();
        for h in g.hosts() {
            let tor = match g.neighbors(h) {
                [(t, _)] if g.kind(*t) == NodeKind::Switch => *t,
                _ => continue,
            };
            if tor_slot[tor.index()] == NO_RACK {
                tor_slot[tor.index()] = tors.len();
                tors.push(tor);
            }
            slot[h.index()] = tor_slot[tor.index()];
        }
        RackMap { slot, tors }
    }

    /// The rack slot of `h`, if `h` is a factorable host.
    #[inline]
    fn rack_of(&self, h: NodeId) -> Option<usize> {
        match self.slot.get(h.index()) {
            Some(&s) if s != NO_RACK => Some(s),
            _ => None,
        }
    }

    /// True if the identity may be applied against `dm`: some host
    /// factors, and `dm` has no unreachable pair.
    fn factors<D: DistanceOracle + ?Sized>(&self, dm: &D) -> bool {
        !self.tors.is_empty() && dm.all_connected()
    }

    /// Regroups per-host masses (the build) or mass deltas (the fold)
    /// into per-rack terms; non-factorable hosts pass through. Checked
    /// `i128` throughout.
    fn regroup<D: DistanceOracle + ?Sized>(
        &self,
        dm: &D,
        deltas: &[HostMassDelta],
    ) -> Result<Regrouped, AggregateError> {
        let in_overflow = AggregateError::Overflow { what: "A_in" };
        let out_overflow = AggregateError::Overflow { what: "A_out" };
        let mut terms = Vec::new();
        let (mut base_in, mut base_out, mut queries) = (0i128, 0i128, 0u64);
        let mut rack_delta = vec![(0i128, 0i128); self.tors.len()];
        let mut rack_touched = Vec::new();
        let mut rack_seen = vec![false; self.tors.len()];
        for d in deltas {
            let Some(r) = self.rack_of(d.host) else {
                terms.push(*d);
                continue;
            };
            let tor = self.tors[r];
            if d.d_out != 0 {
                base_in = d
                    .d_out
                    .checked_mul(i128::from(dm.cost(d.host, tor)))
                    .and_then(|t| base_in.checked_add(t))
                    .ok_or(in_overflow)?;
                rack_delta[r].0 = rack_delta[r].0.checked_add(d.d_out).ok_or(in_overflow)?;
                queries += 1;
            }
            if d.d_in != 0 {
                base_out = d
                    .d_in
                    .checked_mul(i128::from(dm.cost(tor, d.host)))
                    .and_then(|t| base_out.checked_add(t))
                    .ok_or(out_overflow)?;
                rack_delta[r].1 = rack_delta[r].1.checked_add(d.d_in).ok_or(out_overflow)?;
                queries += 1;
            }
            if !rack_seen[r] {
                rack_seen[r] = true;
                rack_touched.push(r);
            }
        }
        terms.extend(rack_touched.into_iter().map(|r| HostMassDelta {
            host: self.tors[r],
            d_out: rack_delta[r].0,
            d_in: rack_delta[r].1,
        }));
        Ok(Regrouped {
            terms,
            base: (base_in, base_out),
            queries,
        })
    }
}

/// A sweep regrouped by rack: the per-candidate `terms` (one per touched
/// rack, plus one per non-factorable host), the candidate-independent
/// scalar `base = (Σ m_out·c(h, tor), Σ m_in·c(tor, h))` over the factored
/// hosts, and the oracle queries that scalar took.
struct Regrouped {
    terms: Vec<HostMassDelta>,
    base: (i128, i128),
    queries: u64,
}

/// Number of oracle queries a sweep of `terms` × `candidates` makes: one
/// per nonzero mass side per candidate.
fn sweep_queries(terms: &[HostMassDelta], candidates: usize) -> u64 {
    let sides: usize = terms
        .iter()
        .map(|d| usize::from(d.d_out != 0) + usize::from(d.d_in != 0))
        .sum();
    u64::try_from(sides.saturating_mul(candidates)).unwrap_or(u64::MAX)
}

/// A non-negative build mass or sum as a saturating [`Cost`] operand:
/// anything at or beyond the sentinel reads as [`INFINITY`], which
/// [`sat_add`]/[`sat_mul`] treat exactly like the larger exact value.
fn saturating_cost(v: i128) -> Cost {
    u64::try_from(v).map_or(INFINITY, |v| v.min(INFINITY))
}

/// Typed failure of the checked delta folds
/// ([`AttachAggregates::try_apply_rate_deltas`] /
/// [`AttachAggregates::try_apply_mass_deltas`]). The aggregates are left
/// untouched when a fold fails — updates are staged and committed only
/// after every entry validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateError {
    /// A fold drove the named quantity negative or beyond `u64` range —
    /// the deltas disagree with the rates the aggregates were built from.
    OutOfRange {
        /// Which aggregate went out of range (`"A_in"`, `"A_out"`, or
        /// `"the total rate"`).
        what: &'static str,
    },
    /// An intermediate `Δmass · c` product or running sum exceeded `i128`
    /// — only reachable from adversarially large mass deltas, never from
    /// deltas derived from real `u64` rates.
    Overflow {
        /// Which aggregate the overflowing term was headed for.
        what: &'static str,
    },
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateError::OutOfRange { what } => {
                write!(f, "rate deltas drove {what} negative or out of range")
            }
            AggregateError::Overflow { what } => {
                write!(f, "rate-delta fold overflowed while updating {what}")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// One attach node's net rate-mass change, the unit the streaming engine's
/// per-shard tree-reduce folds over: `d_out` is the change of
/// `R_out[host]` (the host's total source rate), `d_in` of `R_in[host]`.
/// Deltas are `i128` so any sum of per-flow `i64` deltas — including a
/// stream that transiently overshoots `u64` range before a compensating
/// delta lands — accumulates exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostMassDelta {
    /// The attach node (host) whose masses changed.
    pub host: NodeId,
    /// Net change of the host's outgoing rate mass `R_out[host]`.
    pub d_out: i128,
    /// Net change of the host's incoming rate mass `R_in[host]`.
    pub d_in: i128,
}

/// Precomputed `A_in` / `A_out` arrays plus the total rate.
#[derive(Debug, Clone)]
pub struct AttachAggregates {
    a_in: Vec<Cost>,
    a_out: Vec<Cost>,
    total_rate: u64,
    switches: Vec<NodeId>,
    racks: RackMap,
    /// `min_{i ≠ j} c(i, j)` over `switches`, filled on first use by
    /// [`AttachAggregates::min_candidate_distance`].
    c_min: OnceLock<Cost>,
}

/// Per-attach-node rate masses: `out_mass[h] = Σ_{src host = h} λ`,
/// `in_mass[h] = Σ_{dst host = h} λ`, with the touched node ids listed once.
struct RateMasses {
    out_mass: Vec<u64>,
    in_mass: Vec<u64>,
    touched: Vec<u32>,
    // Membership must be tracked explicitly: a zero-rate flow (or deltas
    // that cancel) can leave both masses at 0 for a host that is already
    // in `touched`, and a mass==0 test would push it again — the switch
    // sweep would then count that host twice.
    seen: Vec<bool>,
}

impl RateMasses {
    fn new(num_nodes: usize) -> Self {
        RateMasses {
            out_mass: vec![0; num_nodes],
            in_mass: vec![0; num_nodes],
            touched: Vec::new(),
            seen: vec![false; num_nodes],
        }
    }

    #[inline]
    fn touch(&mut self, h: NodeId) {
        if !self.seen[h.index()] {
            self.seen[h.index()] = true;
            self.touched.push(h.0);
        }
    }

    #[inline]
    fn add(&mut self, src: NodeId, dst: NodeId, rate: u64) {
        self.touch(src);
        self.out_mass[src.index()] += rate;
        self.touch(dst);
        self.in_mass[dst.index()] += rate;
    }
}

impl AttachAggregates {
    /// Builds the aggregates for `w` over all switches of `g` by first
    /// folding the workload into per-attach-node rate masses
    /// (`O(|flows| + |V_h|·|V_s|)`, or `O(|flows| + |V_h| + |racks|·|V_s|)`
    /// when the hosts factor through their ToRs — see the module docs).
    /// Bit-identical to [`AttachAggregates::build_flow_by_flow`].
    pub fn build<D: DistanceOracle + ?Sized>(g: &Graph, dm: &D, w: &Workload) -> Self {
        let _span = ppdc_obs::global().span(ppdc_obs::names::AGG_BUILD);
        let switches: Vec<NodeId> = g.switches().collect();
        Self::build_restricted(g, dm, w, &switches)
    }

    /// Like [`AttachAggregates::build`], but over a caller-chosen candidate
    /// switch set — the fault-tolerant epoch loop restricts placement to
    /// the serving component's alive switches this way.
    ///
    /// Unreachable attachments saturate: a candidate `x` that cannot reach
    /// some host with nonzero mass gets `A_in[x]` (or `A_out[x]`) pinned at
    /// exactly [`INFINITY`] — the documented sentinel — rather than a
    /// wrapped product, and so does a finite sum beyond the sentinel
    /// (heavy rates across heavy links). Zero-mass hosts never contribute,
    /// so masking stranded flows' rates to 0 keeps the arrays finite even
    /// on a partitioned fabric. [`AttachAggregates::apply_rate_deltas`]
    /// must only be fed aggregates whose entries are all finite (the epoch
    /// loop rebuilds on failure/repair events before delta-feeding
    /// resumes).
    ///
    /// Each host's attach switch is read from `g`: the ToR factoring of
    /// the module docs applies to hosts whose only neighbour is a switch,
    /// whenever `dm` is all-connected.
    pub fn build_restricted<D: DistanceOracle + ?Sized>(
        g: &Graph,
        dm: &D,
        w: &Workload,
        candidates: &[NodeId],
    ) -> Self {
        let _span = ppdc_obs::global().span(ppdc_obs::names::AGG_BUILD_RESTRICTED);
        let n = g.num_nodes();
        let mut masses = RateMasses::new(n);
        let mut total_rate = 0u64;
        for (_, src, dst, rate) in w.iter() {
            masses.add(src, dst, rate);
            total_rate += rate;
        }
        let host_terms: Vec<HostMassDelta> = masses
            .touched
            .iter()
            .map(|&h| {
                let host = NodeId(h);
                HostMassDelta {
                    host,
                    d_out: i128::from(masses.out_mass[host.index()]),
                    d_in: i128::from(masses.in_mass[host.index()]),
                }
            })
            .collect();
        let racks = RackMap::of(g, candidates);
        // Build masses are non-negative and sum to at most `u64::MAX`, so
        // the regrouping's `i128` arithmetic cannot overflow here.
        let grouped = if racks.factors(dm) {
            racks.regroup(dm, &host_terms).ok()
        } else {
            None
        };
        let (terms, (base_in, base_out), base_queries) = match &grouped {
            Some(r) => (&r.terms[..], r.base, r.queries),
            None => (&host_terms[..], (0, 0), 0),
        };
        let base = (saturating_cost(base_in), saturating_cost(base_out));
        let mut a_in = vec![0; n];
        let mut a_out = vec![0; n];
        for &x in candidates {
            let (mut ain, mut aout) = base;
            for d in terms {
                if d.d_out != 0 {
                    ain = attach_acc(ain, saturating_cost(d.d_out), dm.cost(d.host, x));
                }
                if d.d_in != 0 {
                    aout = attach_acc(aout, saturating_cost(d.d_in), dm.cost(x, d.host));
                }
            }
            a_in[x.index()] = ain;
            a_out[x.index()] = aout;
        }
        // One batched count for the whole sweep — no per-query atomics.
        ppdc_obs::global().add(
            ppdc_obs::names::ORACLE_QUERIES,
            base_queries.saturating_add(sweep_queries(terms, candidates.len())),
        );
        let agg = AttachAggregates {
            a_in,
            a_out,
            total_rate,
            switches: candidates.to_vec(),
            racks,
            c_min: OnceLock::new(),
        };
        // `strict-invariants` contract: the fold over `w.iter()` must land
        // on the workload's own cached total.
        #[cfg(feature = "strict-invariants")]
        assert_eq!(
            agg.total_rate,
            w.total_rate(),
            "aggregate total rate disagrees with the workload"
        );
        agg
    }

    /// The original `O(|flows|·|V_s|)` build, one flow at a time. Kept as
    /// the parity oracle for [`AttachAggregates::build`] /
    /// [`AttachAggregates::apply_rate_deltas`] and as the bench baseline.
    pub fn build_flow_by_flow<D: DistanceOracle + ?Sized>(g: &Graph, dm: &D, w: &Workload) -> Self {
        let switches: Vec<NodeId> = g.switches().collect();
        Self::build_restricted_flow_by_flow(g, dm, w, &switches)
    }

    /// Flow-by-flow parity oracle for [`AttachAggregates::build_restricted`]
    /// (same candidate restriction and saturation semantics).
    pub fn build_restricted_flow_by_flow<D: DistanceOracle + ?Sized>(
        g: &Graph,
        dm: &D,
        w: &Workload,
        candidates: &[NodeId],
    ) -> Self {
        let n = g.num_nodes();
        let mut a_in = vec![0; n];
        let mut a_out = vec![0; n];
        for &x in candidates {
            let (mut ain, mut aout) = (0, 0);
            for (_, src, dst, rate) in w.iter() {
                ain = attach_acc(ain, rate, dm.cost(src, x));
                aout = attach_acc(aout, rate, dm.cost(x, dst));
            }
            a_in[x.index()] = ain;
            a_out[x.index()] = aout;
        }
        AttachAggregates {
            a_in,
            a_out,
            total_rate: w.total_rate(),
            switches: candidates.to_vec(),
            // The reference never factors, so its folds stay host-level too.
            racks: RackMap::default(),
            c_min: OnceLock::new(),
        }
    }

    /// Folds per-flow rate changes into the aggregates in place:
    /// `deltas` holds `(flow, new λ − old λ)` entries; `w` supplies the
    /// (unchanged) flow endpoints and must already — or still — describe
    /// the same VM→host assignment the aggregates were built with.
    ///
    /// The update groups deltas by endpoint host and then adjusts every
    /// switch once per touched host: `O(|Δ| + |touched hosts|·|V_s|)`.
    /// Because all arithmetic is exact integer math, the result is
    /// bit-identical to a from-scratch rebuild under the new rates.
    ///
    /// # Panics
    ///
    /// Panics (in all build profiles) if a delta drives an aggregate
    /// negative — i.e. the deltas disagree with the rates the aggregates
    /// were built from. [`AttachAggregates::try_apply_rate_deltas`] is the
    /// typed-error twin.
    pub fn apply_rate_deltas<D: DistanceOracle + ?Sized>(
        &mut self,
        dm: &D,
        w: &Workload,
        deltas: &[(FlowId, i64)],
    ) {
        let applied = self.try_apply_rate_deltas(dm, w, deltas);
        if let Err(e) = applied {
            // analyzer:allow(no-panic) -- documented loud-panic contract: inconsistent deltas are caller bugs
            panic!("{e}");
        }
    }

    /// Fallible twin of [`AttachAggregates::apply_rate_deltas`].
    ///
    /// Per-host deltas accumulate in `i128`, so a delta stream that
    /// briefly overshoots — the running sum exceeding `u64`/`i64` range
    /// before a compensating delta lands in the same batch — folds
    /// exactly; only the *net* per-host mass and the final aggregates must
    /// be representable. On error the aggregates are left untouched.
    ///
    /// # Errors
    ///
    /// [`AggregateError::OutOfRange`] when the net deltas disagree with
    /// the rates the aggregates were built from,
    /// [`AggregateError::Overflow`] on (adversarial) `i128` intermediate
    /// overflow.
    pub fn try_apply_rate_deltas<D: DistanceOracle + ?Sized>(
        &mut self,
        dm: &D,
        w: &Workload,
        deltas: &[(FlowId, i64)],
    ) -> Result<(), AggregateError> {
        if deltas.is_empty() {
            return Ok(());
        }
        let obs = ppdc_obs::global();
        let _span = obs.span(ppdc_obs::names::AGG_APPLY_DELTAS);
        obs.add(
            ppdc_obs::names::AGG_DELTAS_APPLIED,
            u64::try_from(deltas.len()).unwrap_or(u64::MAX),
        );
        let n = self.a_in.len();
        let mut out_delta = vec![0i128; n];
        let mut in_delta = vec![0i128; n];
        let mut touched: Vec<u32> = Vec::new();
        // Explicit membership marker: a host's accumulated delta can
        // transiently cancel to 0 mid-list, and a delta==0 test would push
        // it into `touched` twice — applying its delta twice to every
        // switch.
        let mut seen = vec![false; n];
        let mut total_delta = 0i128;
        for &(f, d) in deltas {
            if d == 0 {
                continue;
            }
            let (src, dst) = w.endpoints(f);
            if !seen[src.index()] {
                seen[src.index()] = true;
                touched.push(src.0);
            }
            out_delta[src.index()] += i128::from(d);
            if !seen[dst.index()] {
                seen[dst.index()] = true;
                touched.push(dst.0);
            }
            in_delta[dst.index()] += i128::from(d);
            total_delta += i128::from(d);
        }
        // A host's net delta can cancel back to zero; the switch sweep
        // multiplies by 0 then, which is still correct.
        let mass_deltas: Vec<HostMassDelta> = touched
            .iter()
            .map(|&h| {
                let h = NodeId(h);
                HostMassDelta {
                    host: h,
                    d_out: out_delta[h.index()],
                    d_in: in_delta[h.index()],
                }
            })
            .collect();
        self.fold_mass_deltas(dm, &mass_deltas, total_delta)?;
        // `strict-invariants` contract: the caller must have folded the
        // same deltas into `w` before (or after) feeding them here, so the
        // incremental total and the workload's total stay in lock-step.
        #[cfg(feature = "strict-invariants")]
        assert_eq!(
            self.total_rate,
            w.total_rate(),
            "rate deltas left the aggregate total out of sync with the workload"
        );
        #[cfg(not(feature = "strict-invariants"))]
        let _only_read_under_strict_invariants = w;
        Ok(())
    }

    /// Folds pre-grouped per-host mass deltas into the aggregates — the
    /// streaming engine's entry point: each shard of a
    /// `ppdc_sim::stream::ShardedFlowStore` reduces its flow deltas to a
    /// handful of [`HostMassDelta`]s, the shards tree-merge them, and one
    /// switch sweep lands the merged list here. `total_delta` is the net
    /// change of `Σλ`. Exactly the same arithmetic as
    /// [`AttachAggregates::try_apply_rate_deltas`], so the result stays
    /// bit-identical to a from-scratch rebuild. On error the aggregates
    /// are left untouched.
    ///
    /// # Errors
    ///
    /// As [`AttachAggregates::try_apply_rate_deltas`].
    pub fn try_apply_mass_deltas<D: DistanceOracle + ?Sized>(
        &mut self,
        dm: &D,
        deltas: &[HostMassDelta],
        total_delta: i128,
    ) -> Result<(), AggregateError> {
        if deltas.is_empty() && total_delta == 0 {
            return Ok(());
        }
        let _span = ppdc_obs::global().span(ppdc_obs::names::AGG_APPLY_DELTAS);
        self.fold_mass_deltas(dm, deltas, total_delta)
    }

    /// The shared switch sweep: stage `A_in`/`A_out` updates for every
    /// candidate, validate all of them, then commit — a failed fold never
    /// leaves the aggregates half-updated. When the hosts factor through
    /// their ToRs (module docs), the per-host deltas are first summed per
    /// rack, so the sweep runs over dirty racks instead of dirty hosts.
    fn fold_mass_deltas<D: DistanceOracle + ?Sized>(
        &mut self,
        dm: &D,
        deltas: &[HostMassDelta],
        total_delta: i128,
    ) -> Result<(), AggregateError> {
        let grouped;
        let (terms, (base_in, base_out), base_queries) = if self.racks.factors(dm) {
            grouped = self.racks.regroup(dm, deltas)?;
            (&grouped.terms[..], grouped.base, grouped.queries)
        } else {
            (deltas, (0, 0), 0)
        };
        // Every switch's (A_in, A_out) pair is staged independently from
        // immutable state, so the sweep parallelizes without any cross-
        // switch reduction — per-switch arithmetic is the same serial
        // loop either way, keeping the result bit-identical. Small folds
        // stay on the calling thread.
        let a_in = &self.a_in;
        let a_out = &self.a_out;
        let switches = &self.switches;
        let stage_one = |x: NodeId| -> Result<(usize, Cost, Cost), AggregateError> {
            let mut ain = i128::from(a_in[x.index()])
                .checked_add(base_in)
                .ok_or(AggregateError::Overflow { what: "A_in" })?;
            let mut aout = i128::from(a_out[x.index()])
                .checked_add(base_out)
                .ok_or(AggregateError::Overflow { what: "A_out" })?;
            for d in terms {
                // A zero-sided mass contributes an exact zero: skipping
                // the term (and its oracle query) is bit-identical.
                if d.d_out != 0 {
                    ain = d
                        .d_out
                        .checked_mul(i128::from(dm.cost(d.host, x)))
                        .and_then(|t| ain.checked_add(t))
                        .ok_or(AggregateError::Overflow { what: "A_in" })?;
                }
                if d.d_in != 0 {
                    aout = d
                        .d_in
                        .checked_mul(i128::from(dm.cost(x, d.host)))
                        .and_then(|t| aout.checked_add(t))
                        .ok_or(AggregateError::Overflow { what: "A_out" })?;
                }
            }
            let ain =
                Cost::try_from(ain).map_err(|_| AggregateError::OutOfRange { what: "A_in" })?;
            let aout =
                Cost::try_from(aout).map_err(|_| AggregateError::OutOfRange { what: "A_out" })?;
            Ok((x.index(), ain, aout))
        };
        const PARALLEL_FOLD_WORK: usize = 1 << 15;
        let staged: Vec<(usize, Cost, Cost)> =
            if switches.len().saturating_mul(terms.len()) < PARALLEL_FOLD_WORK {
                switches
                    .iter()
                    .map(|&x| stage_one(x))
                    .collect::<Result<_, _>>()?
            } else {
                (0..switches.len())
                    .into_par_iter()
                    .map(|i| stage_one(switches[i]))
                    .collect::<Vec<Result<(usize, Cost, Cost), AggregateError>>>()
                    .into_iter()
                    .collect::<Result<_, _>>()?
            };
        ppdc_obs::global().add(
            ppdc_obs::names::ORACLE_QUERIES,
            base_queries.saturating_add(sweep_queries(terms, switches.len())),
        );
        let total = i128::from(self.total_rate).checked_add(total_delta).ok_or(
            AggregateError::Overflow {
                what: "the total rate",
            },
        )?;
        let total = u64::try_from(total).map_err(|_| AggregateError::OutOfRange {
            what: "the total rate",
        })?;
        for (i, ain, aout) in staged {
            self.a_in[i] = ain;
            self.a_out[i] = aout;
        }
        self.total_rate = total;
        Ok(())
    }

    /// `A_in[x]`: rate-weighted cost of all sources reaching ingress `x`.
    #[inline]
    pub fn a_in(&self, x: NodeId) -> Cost {
        self.a_in[x.index()]
    }

    /// `A_out[x]`: rate-weighted cost of egress `x` reaching all sinks.
    #[inline]
    pub fn a_out(&self, x: NodeId) -> Cost {
        self.a_out[x.index()]
    }

    /// Total traffic rate `Σλ` (the chain-term multiplier).
    #[inline]
    pub fn total_rate(&self) -> u64 {
        self.total_rate
    }

    /// The switches of the graph the aggregates were built over.
    pub fn switches(&self) -> &[NodeId] {
        &self.switches
    }

    /// `c_min = min_{i ≠ j} c(i, j)` over the candidate switches
    /// ([`INFINITY`] with fewer than two). It depends only on the oracle
    /// and the candidate set, both fixed for the aggregates' lifetime, so
    /// the `O(m²)` scan runs once, on first use: builds that never ask for
    /// a bound never pay for it, and rate folds keep it. `dm` must be the
    /// oracle the aggregates were built against.
    pub(crate) fn min_candidate_distance<D: DistanceOracle + ?Sized>(&self, dm: &D) -> Cost {
        *self.c_min.get_or_init(|| {
            let mut c_min = INFINITY;
            for &i in &self.switches {
                for &j in &self.switches {
                    if i != j {
                        c_min = c_min.min(dm.cost(i, j));
                    }
                }
            }
            let m = self.switches.len();
            ppdc_obs::global().add(
                ppdc_obs::names::ORACLE_QUERIES,
                u64::try_from(m.saturating_mul(m.saturating_sub(1))).unwrap_or(u64::MAX),
            );
            c_min
        })
    }

    /// Exact `C_a(p)` using the aggregates (equals
    /// [`ppdc_model::comm_cost`]).
    pub fn comm_cost<D: DistanceOracle + ?Sized>(&self, dm: &D, p: &Placement) -> Cost {
        self.comm_cost_switches(dm, p.switches())
    }

    /// [`AttachAggregates::comm_cost`] over a bare switch sequence, so the
    /// placement sweep can price candidate chains straight out of a reused
    /// scratch buffer. Exactly the same arithmetic — bit-identical costs.
    pub fn comm_cost_switches<D: DistanceOracle + ?Sized>(
        &self,
        dm: &D,
        switches: &[NodeId],
    ) -> Cost {
        let ingress = switches[0];
        let egress = switches[switches.len() - 1];
        sat_add(
            sat_add(
                self.a_in(ingress),
                sat_mul(
                    self.total_rate,
                    ppdc_model::chain_cost_switches(dm, switches),
                ),
            ),
            self.a_out(egress),
        )
    }

    /// Exact equality of the `A` arrays and total rate (test helper for
    /// the bit-identity guarantees).
    pub fn same_as(&self, other: &AttachAggregates) -> bool {
        self.a_in == other.a_in
            && self.a_out == other.a_out
            && self.total_rate == other.total_rate
            && self.switches == other.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_model::{comm_cost, Sfc};
    use ppdc_topology::builders::{fat_tree, linear};
    use ppdc_topology::DistanceMatrix;

    #[test]
    fn aggregate_cost_matches_direct_eq1() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[5], 7);
        w.add_pair(hosts[3], hosts[11], 2);
        w.add_pair(hosts[8], hosts[8], 100);
        let agg = AttachAggregates::build(&g, &dm, &w);
        let sfc = Sfc::of_len(3).unwrap();
        let switches: Vec<NodeId> = g.switches().collect();
        for combo in [[0usize, 1, 2], [3, 7, 11], [19, 4, 0]] {
            let p = Placement::new(&g, &sfc, combo.iter().map(|&i| switches[i]).collect()).unwrap();
            assert_eq!(agg.comm_cost(&dm, &p), comm_cost(&dm, &w, &p));
        }
    }

    #[test]
    fn empty_workload_aggregates_are_zero() {
        let (g, ..) = linear(3).unwrap();
        let dm = DistanceMatrix::build(&g);
        let w = Workload::new();
        let agg = AttachAggregates::build(&g, &dm, &w);
        for &x in agg.switches() {
            assert_eq!(agg.a_in(x), 0);
            assert_eq!(agg.a_out(x), 0);
        }
        assert_eq!(agg.total_rate(), 0);
    }

    #[test]
    fn asymmetric_flows_give_asymmetric_aggregates() {
        let (g, h1, h2) = linear(3).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h2, 10); // all sources at h1, all sinks at h2
        let agg = AttachAggregates::build(&g, &dm, &w);
        let s: Vec<NodeId> = g.switches().collect();
        assert_eq!(agg.a_in(s[0]), 10);
        assert_eq!(agg.a_out(s[0]), 30);
        assert_eq!(agg.a_in(s[2]), 30);
        assert_eq!(agg.a_out(s[2]), 10);
    }

    #[test]
    fn switch_aggregated_build_is_bit_identical_to_flow_by_flow() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        // Heavy endpoint sharing: many flows per attach node, plus
        // self-loops and reversed pairs.
        for i in 0..hosts.len() {
            w.add_pair(
                hosts[i],
                hosts[(i * 7 + 3) % hosts.len()],
                1 + i as u64 * 13,
            );
            w.add_pair(hosts[(i * 5) % hosts.len()], hosts[i], 2 + i as u64);
        }
        let fast = AttachAggregates::build(&g, &dm, &w);
        let slow = AttachAggregates::build_flow_by_flow(&g, &dm, &w);
        assert!(fast.same_as(&slow));
    }

    #[test]
    fn zero_rate_flow_does_not_double_count_shared_host() {
        // Regression: a zero-rate flow leaves its hosts' masses at 0, so a
        // membership test based on mass==0 would re-push the host into
        // `touched` when a later nonzero flow shares it, double-counting
        // its mass in the switch sweep. Zero rates are real inputs (the
        // trace sampler's light class includes 0 and diurnal scaling can
        // floor rates to 0).
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[5], 0); // zero-rate, touches hosts 0 and 5
        w.add_pair(hosts[0], hosts[7], 42); // shares src host 0
        w.add_pair(hosts[2], hosts[5], 9); // shares dst host 5
        let fast = AttachAggregates::build(&g, &dm, &w);
        let slow = AttachAggregates::build_flow_by_flow(&g, &dm, &w);
        assert!(fast.same_as(&slow));
    }

    #[test]
    fn unreachable_hosts_saturate_at_the_infinity_sentinel() {
        use ppdc_topology::{FaultSet, INFINITY};
        // Cut the middle switch of h1 - s0 - s1 - s2 - h2: h2 becomes
        // unreachable from s0, so any aggregate over s0 that includes h2
        // mass must read exactly INFINITY (never a wrapped product).
        let (g, h1, h2) = ppdc_topology::builders::linear(3).unwrap();
        let s: Vec<NodeId> = g.switches().collect();
        let mut f = FaultSet::new(&g);
        f.fail_node(s[1]).unwrap();
        let dm = DistanceMatrix::build(&g.degraded_view(&f));
        let mut w = Workload::new();
        w.add_pair(h1, h2, 10);
        let agg = AttachAggregates::build(&g, &dm, &w);
        assert_eq!(agg.a_in(s[0]), 10); // h1 still reaches s0
        assert_eq!(agg.a_out(s[0]), INFINITY); // h2 does not
        assert_eq!(agg.a_in(s[2]), INFINITY);
        assert_eq!(agg.a_out(s[2]), 10);
        // The oracle saturates identically.
        assert!(agg.same_as(&AttachAggregates::build_flow_by_flow(&g, &dm, &w)));
        // Zero mass contributes nothing even across the cut.
        let mut wz = Workload::new();
        wz.add_pair(h1, h2, 0);
        let aggz = AttachAggregates::build(&g, &dm, &wz);
        assert_eq!(aggz.a_out(s[0]), 0);
        assert_eq!(aggz.a_in(s[2]), 0);
    }

    #[test]
    fn heavy_links_saturate_instead_of_overflowing() {
        // Regression: the attach term multiplied `mass * cost` unchecked,
        // so this valid weighted fabric panicked with "attempt to multiply
        // with overflow" in every profile (release keeps overflow checks):
        // h1 - s1 -(2^40)- s2 - h2 with one flow of rate 2^30.
        let mut g = Graph::new();
        let h1 = g.add_host("h1");
        let s1 = g.add_switch("s1");
        let s2 = g.add_switch("s2");
        let h2 = g.add_host("h2");
        g.add_edge(h1, s1, 1).unwrap();
        g.add_edge(s2, h2, 1).unwrap();
        g.add_edge(s1, s2, 1 << 40).unwrap();
        let mut w = Workload::new();
        w.add_pair(h1, h2, 1 << 30);
        let dm = DistanceMatrix::build(&g);
        assert!(dm.all_connected());
        let agg = AttachAggregates::build(&g, &dm, &w);
        assert_eq!(agg.a_in(s1), 1 << 30);
        assert_eq!(agg.a_out(s1), INFINITY);
        assert_eq!(agg.a_in(s2), INFINITY);
        assert_eq!(agg.a_out(s2), 1 << 30);
        assert!(agg.same_as(&AttachAggregates::build_flow_by_flow(&g, &dm, &w)));
        // The host-level path (an isolated spare switch leaves the oracle
        // partitioned) pins at the same sentinel.
        let spare = g.add_switch("spare");
        let dm = DistanceMatrix::build(&g);
        assert!(!dm.all_connected());
        let host_level = AttachAggregates::build_restricted(&g, &dm, &w, &[s1, s2]);
        for x in [s1, s2] {
            assert_eq!(host_level.a_in(x), agg.a_in(x));
            assert_eq!(host_level.a_out(x), agg.a_out(x));
        }
        let all = AttachAggregates::build(&g, &dm, &w);
        assert_eq!(all.a_in(spare), INFINITY);
        assert!(all.same_as(&AttachAggregates::build_flow_by_flow(&g, &dm, &w)));
    }

    #[test]
    fn restricted_build_matches_restricted_oracle() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for i in 0..hosts.len() {
            w.add_pair(hosts[i], hosts[(i * 3 + 1) % hosts.len()], 5 + i as u64);
        }
        let all: Vec<NodeId> = g.switches().collect();
        let subset: Vec<NodeId> = all.iter().copied().step_by(3).collect();
        let fast = AttachAggregates::build_restricted(&g, &dm, &w, &subset);
        let slow = AttachAggregates::build_restricted_flow_by_flow(&g, &dm, &w, &subset);
        assert!(fast.same_as(&slow));
        assert_eq!(fast.switches(), &subset[..]);
        // Restricted entries agree with the full build on shared switches.
        let full = AttachAggregates::build(&g, &dm, &w);
        for &x in &subset {
            assert_eq!(fast.a_in(x), full.a_in(x));
            assert_eq!(fast.a_out(x), full.a_out(x));
        }
    }

    #[test]
    fn incremental_deltas_match_rebuild() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        let f0 = w.add_pair(hosts[0], hosts[5], 100);
        let f1 = w.add_pair(hosts[3], hosts[11], 40);
        let f2 = w.add_pair(hosts[8], hosts[0], 7);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        // Raise, lower, zero out.
        let deltas = [(f0, 50i64), (f1, -40), (f2, 3)];
        for &(f, d) in &deltas {
            w.set_rate(f, (w.rate(f) as i64 + d) as u64);
        }
        agg.apply_rate_deltas(&dm, &w, &deltas);
        let rebuilt = AttachAggregates::build(&g, &dm, &w);
        assert!(agg.same_as(&rebuilt));
    }

    #[test]
    fn cancelling_deltas_then_retouch_do_not_double_apply() {
        // Regression: three flows share a src host; the first two deltas
        // (+5, -5) cancel its accumulated out-delta to exactly 0, so a
        // delta==0 membership test would re-push the host on the third
        // delta and apply its delta twice to every switch.
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        let f0 = w.add_pair(hosts[0], hosts[5], 10);
        let f1 = w.add_pair(hosts[0], hosts[7], 10);
        let f2 = w.add_pair(hosts[0], hosts[9], 10);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        let deltas = [(f0, 5i64), (f1, -5), (f2, 2)];
        for &(f, d) in &deltas {
            w.set_rate(f, (w.rate(f) as i64 + d) as u64);
        }
        agg.apply_rate_deltas(&dm, &w, &deltas);
        let rebuilt = AttachAggregates::build(&g, &dm, &w);
        assert!(agg.same_as(&rebuilt));
    }

    #[test]
    #[should_panic(expected = "rate deltas drove")]
    fn inconsistent_negative_delta_panics_loudly() {
        // Overflow-hardening regression: before the i128 delta fold, a
        // delta below -λ wrapped the aggregate into a huge Cost that
        // silently poisoned every placement decision downstream. The
        // documented contract is now a loud panic in all build profiles.
        let (g, h1, h2) = linear(3).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        let f = w.add_pair(h1, h2, 10);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        agg.apply_rate_deltas(&dm, &w, &[(f, -20)]);
    }

    #[test]
    fn overshooting_then_compensating_deltas_fold_exactly() {
        // Regression (fails on the old i64 fold): three flows share a src
        // host and a delta stream raises each by D before compensating
        // entries land *in the same batch*. The per-host running sum
        // transiently reaches 3·D > i64::MAX, which the old
        // `out_delta: Vec<i64>` accumulator trapped on (workspace
        // overflow-checks) even though the net change is tiny. The i128
        // fold only requires the *net* masses to be representable.
        const D: i64 = 3_500_000_000_000_000_000; // 3·D > i64::MAX
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        let f0 = w.add_pair(hosts[0], hosts[5], 10);
        let f1 = w.add_pair(hosts[0], hosts[7], 20);
        let f2 = w.add_pair(hosts[0], hosts[9], 30);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        let deltas = [(f0, D), (f1, D), (f2, D), (f0, -D), (f1, -D), (f2, -D + 3)];
        w.set_rate(f2, 33); // net: f0 and f1 unchanged, f2 +3
        agg.try_apply_rate_deltas(&dm, &w, &deltas)
            .expect("overshooting-but-compensated deltas must fold");
        let rebuilt = AttachAggregates::build(&g, &dm, &w);
        assert!(agg.same_as(&rebuilt));
    }

    #[test]
    fn failed_delta_fold_leaves_aggregates_untouched() {
        // The staged commit: an inconsistent batch must error without
        // half-updating any switch (a partially applied A_in/A_out would
        // silently skew every later incremental epoch).
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        let f0 = w.add_pair(hosts[0], hosts[5], 10);
        let f1 = w.add_pair(hosts[3], hosts[11], 40);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        let before = agg.clone();
        let err = agg
            .try_apply_rate_deltas(&dm, &w, &[(f0, 1), (f1, -500)])
            .expect_err("delta below -λ must be rejected");
        assert_eq!(err, AggregateError::OutOfRange { what: "A_in" });
        assert!(agg.same_as(&before));
        assert_eq!(agg.total_rate(), before.total_rate());
    }

    #[test]
    fn mass_delta_fold_matches_flow_delta_fold() {
        // `try_apply_mass_deltas` is the streaming tree-reduce target: a
        // pre-grouped per-host mass list must land bit-identically to the
        // per-flow path (and to a from-scratch rebuild).
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        let f0 = w.add_pair(hosts[0], hosts[5], 100);
        let f1 = w.add_pair(hosts[3], hosts[11], 40);
        let f2 = w.add_pair(hosts[8], hosts[0], 7);
        let mut by_flow = AttachAggregates::build(&g, &dm, &w);
        let mut by_mass = by_flow.clone();
        let deltas = [(f0, 50i64), (f1, -40), (f2, 3)];
        for &(f, d) in &deltas {
            let new = u64::try_from(i64::try_from(w.rate(f)).unwrap() + d).unwrap();
            w.set_rate(f, new);
        }
        by_flow.try_apply_rate_deltas(&dm, &w, &deltas).unwrap();
        // Grouped by endpoint host, first-touch order of the flow path.
        let masses = [
            HostMassDelta {
                host: hosts[0],
                d_out: 50,
                d_in: 3,
            },
            HostMassDelta {
                host: hosts[5],
                d_out: 0,
                d_in: 50,
            },
            HostMassDelta {
                host: hosts[3],
                d_out: -40,
                d_in: 0,
            },
            HostMassDelta {
                host: hosts[11],
                d_out: 0,
                d_in: -40,
            },
            HostMassDelta {
                host: hosts[8],
                d_out: 3,
                d_in: 0,
            },
        ];
        by_mass.try_apply_mass_deltas(&dm, &masses, 13).unwrap();
        assert!(by_mass.same_as(&by_flow));
        assert!(by_mass.same_as(&AttachAggregates::build(&g, &dm, &w)));
    }

    #[test]
    fn empty_and_zero_deltas_are_no_ops() {
        let (g, h1, h2) = linear(3).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        let f = w.add_pair(h1, h2, 10);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        let before = agg.clone();
        agg.apply_rate_deltas(&dm, &w, &[]);
        agg.apply_rate_deltas(&dm, &w, &[(f, 0)]);
        assert!(agg.same_as(&before));
    }
}
