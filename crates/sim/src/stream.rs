//! Streaming million-flow epoch engine (ROADMAP item 1).
//!
//! The batch simulator re-prices a full in-memory rate vector every hour.
//! This module is the step from "reproduce Fig. 7" to "serve millions of
//! users": a long-running engine that ingests **rate deltas** instead of
//! rate vectors and re-runs the placement solver only when the traffic has
//! drifted far enough to matter.
//!
//! Three pieces:
//!
//! - [`ShardedFlowStore`] — a struct-of-arrays flow store sharded by
//!   (src top-of-rack, dst top-of-rack) switch pair. A delta batch is
//!   routed to a fixed set of contiguous shard groups; each group nets
//!   its slots and reduces them to per-host [`HostMassDelta`]s in
//!   parallel, and the group partials tree-merge into one mass list that
//!   lands on [`AttachAggregates::try_apply_mass_deltas`] with a single
//!   switch sweep. The reduction tree has a **fixed shape** (adjacent
//!   pairs in shard-key group order, level by level), so the merge order
//!   never depends on thread scheduling; since every sum is exact `i128`
//!   integer math, the result is bit-identical to a from-scratch rebuild
//!   either way — the fixed shape makes that true *by construction*, not
//!   just by algebra.
//! - [`DriftTracker`] — accumulates the ingested absolute rate drift
//!   `Σ|Δλ|` and gates the solver: below
//!   [`StreamConfig::drift_threshold`] the epoch is served by the stale
//!   incumbent outright. At or above it, the PR 5 admissible bound
//!   ([`placement_cost_lower_bound`]) prices a **staleness certificate**
//!   `gap = C_a(incumbent) − LB ≥ C_a(incumbent) − C_a(optimal)`: when the
//!   gap is within [`StreamConfig::max_certified_gap`] the incumbent is
//!   provably close enough and the re-solve is skipped too. The
//!   `stream.drift` / `stream.resolves_skipped` counter pair exports how
//!   much churn the engine absorbed without solving.
//! - [`run_stream_day`] / [`resume_stream_day`] — the crash-safe epoch
//!   loop, mirroring the PR 7 engine: `ppdc-stream-ckpt/v1` snapshots
//!   through the same atomic two-slot [`CheckpointStore`], an input
//!   fingerprint refusing foreign snapshots, and **bit-identical resume**
//!   (derived state — shards, aggregates — is rebuilt from the
//!   checkpointed rate vector; the PR 1 delta/rebuild equivalence makes
//!   the reconstruction exact).
//!
//! Epochs that do re-solve go through [`dp_placement_warm`] on one
//! solver session ([`BoundCache`](ppdc_placement::BoundCache)) held for
//! the day: each solve diffs the folded aggregates against the session so
//! only moved bound rows refresh, and the incumbent placement — priced
//! under the new aggregates — seeds the sweep's upper bound. The session
//! solve is bit-identical to a fresh-session one (DESIGN.md §10), so
//! nothing downstream can tell; it is just 1–2 orders of magnitude faster
//! on localized churn. The session is derived state and is **never**
//! checkpointed: a resumed day starts from a fresh session and rebuilds
//! it on its first re-solve.

use ppdc_model::{FlowId, ModelError, Placement, Sfc, Workload};
use ppdc_obs::names as obs_names;
use ppdc_placement::{
    dp_placement_warm, placement_cost_lower_bound, AggregateError, AttachAggregates, BoundCache,
    HostMassDelta, PlacementError,
};
use ppdc_topology::{Cost, DistanceOracle, Graph, NodeId};
use ppdc_traffic::{DynamicTrace, TraceError};
use rayon::prelude::*;

use crate::checkpoint::{
    arr_field, as_obj, field, node_ids, row_u64, str_field, to_u32, u64_arr, u64_field,
    CheckpointStore, CkptError, Fnv,
};

/// Version tag of streaming-engine snapshots; restore rejects anything
/// else (including plain `ppdc-ckpt/v1` day snapshots).
pub const STREAM_CKPT_SCHEMA: &str = "ppdc-stream-ckpt/v1";

/// One streamed rate change: `new λ − old λ` for one flow. Zero deltas
/// are dropped at ingestion; a batch may carry several deltas for the
/// same flow (they net before anything is applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateDelta {
    /// The flow whose rate changed.
    pub flow: FlowId,
    /// The signed rate change.
    pub delta: i64,
}

/// Errors of the streaming engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A delta batch disagreed with the stored rates (aggregate fold
    /// rejected it) — see [`AggregateError`].
    Aggregate(AggregateError),
    /// The drift-triggered re-solve failed.
    Placement(PlacementError),
    /// Invalid model input (rate vector shape, …).
    Model(ModelError),
    /// The dynamic trace rejected an hour index.
    Trace(TraceError),
    /// Checkpoint persistence or restore failed.
    Checkpoint(CkptError),
    /// A flow endpoint host has no top-of-rack switch to shard by.
    NoTopOfRack {
        /// The switchless host.
        host: NodeId,
    },
    /// A delta referenced a flow the store was not built with.
    UnknownFlow {
        /// The foreign flow id.
        flow: FlowId,
    },
    /// The netted batch would drive one flow's rate negative or above
    /// `u64` range. The store is left untouched.
    RateOutOfRange {
        /// The offending flow.
        flow: FlowId,
    },
    /// The trace and workload disagree on the number of flows.
    ShapeMismatch {
        /// Flows in the workload/store.
        flows: usize,
        /// Flows in the trace.
        trace_flows: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Aggregate(e) => write!(f, "stream aggregate fold: {e}"),
            StreamError::Placement(e) => write!(f, "stream re-solve: {e}"),
            StreamError::Model(e) => write!(f, "stream model input: {e}"),
            StreamError::Trace(e) => write!(f, "stream trace: {e}"),
            StreamError::Checkpoint(e) => write!(f, "stream checkpoint: {e}"),
            StreamError::NoTopOfRack { host } => {
                write!(f, "host {} has no top-of-rack switch to shard by", host.0)
            }
            StreamError::UnknownFlow { flow } => {
                write!(f, "rate delta references unknown flow {}", flow.0)
            }
            StreamError::RateOutOfRange { flow } => write!(
                f,
                "netted deltas drive flow {} out of the u64 rate range",
                flow.0
            ),
            StreamError::ShapeMismatch { flows, trace_flows } => write!(
                f,
                "trace has {trace_flows} flows but the workload has {flows}"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<AggregateError> for StreamError {
    fn from(e: AggregateError) -> Self {
        StreamError::Aggregate(e)
    }
}

impl From<PlacementError> for StreamError {
    fn from(e: PlacementError) -> Self {
        StreamError::Placement(e)
    }
}

impl From<ModelError> for StreamError {
    fn from(e: ModelError) -> Self {
        StreamError::Model(e)
    }
}

impl From<TraceError> for StreamError {
    fn from(e: TraceError) -> Self {
        StreamError::Trace(e)
    }
}

impl From<CkptError> for StreamError {
    fn from(e: CkptError) -> Self {
        StreamError::Checkpoint(e)
    }
}

/// One shard of the flow store: all flows whose endpoints share one
/// (src ToR, dst ToR) pair, in struct-of-arrays layout.
#[derive(Debug, Clone)]
struct Shard {
    /// Flow ids, slot-aligned with the arrays below.
    flows: Vec<FlowId>,
    /// Source host per slot.
    src_hosts: Vec<NodeId>,
    /// Destination host per slot.
    dst_hosts: Vec<NodeId>,
    /// Current rate per slot.
    rates: Vec<u64>,
    /// Batch scratch: netted pending delta per slot.
    pending: Vec<i128>,
    /// Slots with a staged `pending` entry this batch. Explicit
    /// membership (`seen`) rather than a `pending != 0` test: a slot
    /// whose deltas cancel mid-batch must not be re-pushed.
    touched: Vec<u32>,
    /// Membership marker for `touched`.
    seen: Vec<bool>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            flows: Vec::new(),
            src_hosts: Vec::new(),
            dst_hosts: Vec::new(),
            rates: Vec::new(),
            pending: Vec::new(),
            touched: Vec::new(),
            seen: Vec::new(),
        }
    }

    fn push(&mut self, f: FlowId, src: NodeId, dst: NodeId, rate: u64) {
        self.flows.push(f);
        self.src_hosts.push(src);
        self.dst_hosts.push(dst);
        self.rates.push(rate);
        self.pending.push(0);
        self.seen.push(false);
    }

    /// Clears every staged batch entry without applying it (error path).
    fn clear_staged(&mut self) {
        for &slot in &self.touched {
            let s = slot as usize;
            self.pending[s] = 0;
            self.seen[s] = false;
        }
        self.touched.clear();
    }
}

/// How many contiguous shard groups an ingest fans out over. Fixed (not
/// derived from the thread count) so the per-group accumulation order —
/// and with it the saturating drift total — is a pure function of the
/// input, never of the machine.
const INGEST_GROUPS: usize = 64;

/// One shard group's contribution to a batch: per-host mass deltas (host
/// order), the net `Σλ` change, and ingestion telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ShardPartial {
    masses: Vec<HostMassDelta>,
    total: i128,
    drift: u64,
    applied: u64,
}

/// Merges two host-ordered partials (two-pointer merge, exact sums).
fn merge_two(a: ShardPartial, b: ShardPartial) -> ShardPartial {
    let mut masses = Vec::with_capacity(a.masses.len() + b.masses.len());
    let (mut i, mut j) = (0, 0);
    while i < a.masses.len() && j < b.masses.len() {
        let (ma, mb) = (a.masses[i], b.masses[j]);
        match ma.host.cmp(&mb.host) {
            std::cmp::Ordering::Less => {
                masses.push(ma);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                masses.push(mb);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                masses.push(HostMassDelta {
                    host: ma.host,
                    d_out: ma.d_out + mb.d_out,
                    d_in: ma.d_in + mb.d_in,
                });
                i += 1;
                j += 1;
            }
        }
    }
    masses.extend_from_slice(&a.masses[i..]);
    masses.extend_from_slice(&b.masses[j..]);
    ShardPartial {
        masses,
        total: a.total + b.total,
        drift: a.drift.saturating_add(b.drift),
        applied: a.applied + b.applied,
    }
}

/// Pairwise tree-reduce with a fixed shape: level by level, adjacent
/// pairs in group order, odd tail carried unchanged. The shape depends
/// only on the partial count, never on thread scheduling, so the merge
/// order is deterministic by construction (and every sum is exact `i128`
/// math on top of that).
fn tree_merge(mut level: Vec<ShardPartial>) -> ShardPartial {
    while level.len() > 1 {
        let mut pairs: Vec<(ShardPartial, Option<ShardPartial>)> =
            Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            pairs.push((a, it.next()));
        }
        // Order-preserving parallel map: the level's outputs land in pair
        // order regardless of which worker ran which merge.
        level = pairs
            .into_par_iter()
            .map(|(a, b)| match b {
                Some(b) => merge_two(a, b),
                None => a,
            })
            .collect();
    }
    level.pop().unwrap_or_default()
}

/// What one delta batch netted out to, ready for
/// [`AttachAggregates::try_apply_mass_deltas`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Net per-host mass changes, in host order.
    pub masses: Vec<HostMassDelta>,
    /// Net change of `Σλ`.
    pub total_delta: i128,
    /// Absolute netted drift `Σ|Δλ|` over the applied flows (saturating).
    pub drift: u64,
    /// Flows whose stored rate actually changed.
    pub applied: u64,
    /// Delta records scanned (including zeros and in-batch cancellations).
    pub records: u64,
}

/// Struct-of-arrays flow store sharded by (src top-of-rack,
/// dst top-of-rack) switch pair.
///
/// Shards are keyed and ordered by their ToR pair, so the shard list —
/// and with it every reduction order — is a pure function of the
/// workload's endpoint layout. A flow's slot never moves; `route` maps
/// flow ids to `(shard, slot)` for O(1) delta scatter.
#[derive(Debug, Clone)]
pub struct ShardedFlowStore {
    shards: Vec<Shard>,
    /// Flow id → (shard index, slot index).
    route: Vec<(u32, u32)>,
    /// Node-id bound of the build graph (sizes the per-group dense
    /// mass accumulators).
    num_nodes: usize,
}

impl ShardedFlowStore {
    /// Builds the store from a workload's current flows and rates,
    /// sharding by the endpoints' top-of-rack switches on `g`.
    ///
    /// # Errors
    ///
    /// [`StreamError::NoTopOfRack`] when a flow endpoint host has no
    /// switch neighbor (cannot happen on fat-tree builders).
    pub fn build(g: &Graph, w: &Workload) -> Result<Self, StreamError> {
        // ((src ToR, dst ToR), flow, src host, dst host, rate).
        type KeyedFlow = ((NodeId, NodeId), FlowId, NodeId, NodeId, u64);
        let mut keyed: Vec<KeyedFlow> = Vec::with_capacity(w.num_flows());
        for (f, src, dst, rate) in w.iter() {
            let ks = g
                .top_of_rack(src)
                .ok_or(StreamError::NoTopOfRack { host: src })?;
            let kd = g
                .top_of_rack(dst)
                .ok_or(StreamError::NoTopOfRack { host: dst })?;
            keyed.push(((ks, kd), f, src, dst, rate));
        }
        // Shard order = ToR-pair order; slot order within a shard = flow
        // id order. Both deterministic.
        keyed.sort_unstable_by_key(|&(k, f, ..)| (k, f));
        let mut shards: Vec<Shard> = Vec::new();
        let mut route = vec![(0u32, 0u32); w.num_flows()];
        let mut cur_key = None;
        for (k, f, src, dst, rate) in keyed {
            if cur_key != Some(k) {
                shards.push(Shard::new());
                cur_key = Some(k);
            }
            let si = shards.len() - 1;
            route[f.index()] = (si as u32, shards[si].flows.len() as u32);
            shards[si].push(f, src, dst, rate);
        }
        Ok(ShardedFlowStore {
            shards,
            route,
            num_nodes: g.num_nodes(),
        })
    }

    /// Number of flows stored.
    pub fn num_flows(&self) -> usize {
        self.route.len()
    }

    /// Number of (src ToR, dst ToR) shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The current rate of one flow.
    pub fn rate(&self, f: FlowId) -> Option<u64> {
        let &(s, slot) = self.route.get(f.index())?;
        Some(self.shards[s as usize].rates[slot as usize])
    }

    /// Writes the current per-flow rate vector (flow id order) into
    /// `out`, resizing it to the flow count.
    pub fn export_rates(&self, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.route.len(), 0);
        for shard in &self.shards {
            for (i, &f) in shard.flows.iter().enumerate() {
                out[f.index()] = shard.rates[i];
            }
        }
    }

    /// Overwrites every stored rate from a flow-id-ordered vector
    /// (checkpoint restore).
    ///
    /// # Errors
    ///
    /// [`StreamError::ShapeMismatch`] when the vector length differs from
    /// the flow count.
    pub fn set_rates(&mut self, rates: &[u64]) -> Result<(), StreamError> {
        if rates.len() != self.route.len() {
            return Err(StreamError::ShapeMismatch {
                flows: self.route.len(),
                trace_flows: rates.len(),
            });
        }
        for shard in &mut self.shards {
            for (i, &f) in shard.flows.clone().iter().enumerate() {
                shard.rates[i] = rates[f.index()];
            }
        }
        Ok(())
    }

    /// Ingests one delta batch: scatter to shards, net per slot, validate
    /// every new rate, apply, and tree-merge the per-group partials into
    /// one [`IngestReport`]. On error nothing is applied.
    ///
    /// Zero deltas are dropped at the door and a flow's deltas net within
    /// the batch, so only real rate movement reaches the shards; the
    /// report's mass list is bit-exactly what a from-scratch
    /// [`AttachAggregates::build`] at the new rates would differ by.
    ///
    /// The fan-out is over [`INGEST_GROUPS`] contiguous shard runs: one
    /// serial pass routes each delta to its group, a first parallel pass
    /// nets the deltas into shard slots and validates every new rate, and
    /// only then a second parallel pass commits rates and reduces each
    /// group to a dense per-host mass accumulator. The group partials
    /// tree-merge in a fixed shape, so both passes and the reduction are
    /// pure functions of the input — never of thread scheduling.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownFlow`] for a delta outside the store,
    /// [`StreamError::RateOutOfRange`] when a netted rate leaves `u64`.
    pub fn ingest(&mut self, deltas: &[RateDelta]) -> Result<IngestReport, StreamError> {
        let n_shards = self.shards.len();
        let records = deltas.len() as u64;
        if n_shards == 0 || deltas.is_empty() {
            if let Some(d) = deltas.iter().find(|d| d.delta != 0) {
                return Err(StreamError::UnknownFlow { flow: d.flow });
            }
            return Ok(IngestReport {
                records,
                ..IngestReport::default()
            });
        }
        let per_group = n_shards.div_ceil(INGEST_GROUPS).max(1);
        // Route: sequential appends into per-group batches. Nothing is
        // staged yet, so an unknown flow returns without cleanup.
        let mut grouped: Vec<Vec<(u32, u32, i64)>> = vec![Vec::new(); n_shards.div_ceil(per_group)];
        for d in deltas {
            if d.delta == 0 {
                continue;
            }
            let Some(&(s, slot)) = self.route.get(d.flow.index()) else {
                return Err(StreamError::UnknownFlow { flow: d.flow });
            };
            grouped[s as usize / per_group].push((s, slot, d.delta));
        }
        // Net + validate (parallel per group): stage pending deltas into
        // shard slots and check every netted rate, mutating no rate. The
        // batch commits atomically or not at all.
        let staged: Vec<Result<(), StreamError>> = {
            // (group index, the group's shard run, its routed records).
            type GroupWork<'a> = (usize, &'a mut [Shard], &'a [(u32, u32, i64)]);
            let work: Vec<GroupWork<'_>> = self
                .shards
                .chunks_mut(per_group)
                .zip(&grouped)
                .enumerate()
                .map(|(g, (chunk, batch))| (g, chunk, batch.as_slice()))
                .collect();
            work.into_par_iter()
                .map(|(g, chunk, batch)| {
                    let s0 = g * per_group;
                    for &(s, slot, delta) in batch {
                        let shard = &mut chunk[s as usize - s0];
                        let sl = slot as usize;
                        if !shard.seen[sl] {
                            shard.seen[sl] = true;
                            shard.touched.push(slot);
                        }
                        shard.pending[sl] += i128::from(delta);
                    }
                    for shard in chunk.iter_mut() {
                        // Slot order independent of batch arrival order.
                        shard.touched.sort_unstable();
                        for &slot in &shard.touched {
                            let sl = slot as usize;
                            let net = i128::from(shard.rates[sl]) + shard.pending[sl];
                            if u64::try_from(net).is_err() {
                                return Err(StreamError::RateOutOfRange {
                                    flow: shard.flows[sl],
                                });
                            }
                        }
                    }
                    Ok(())
                })
                .collect()
        };
        if let Some(e) = staged.into_iter().find_map(Result::err) {
            self.clear_staged();
            return Err(e);
        }
        // Commit + reduce (parallel per group): apply each staged slot to
        // its rate and accumulate the group's per-host masses — shard
        // order within the group, group order fixed by the partition, so
        // the (saturating) drift total is deterministic. Small batches
        // accumulate sparsely (sort + fold); only batches large relative
        // to the node count pay for zeroing a dense per-node array. The
        // choice depends on batch sizes alone — never on the machine —
        // and both paths produce the same host-sorted exact sums.
        let num_nodes = self.num_nodes;
        let partials: Vec<ShardPartial> = {
            let work: Vec<(&mut [Shard], usize)> = self
                .shards
                .chunks_mut(per_group)
                .zip(&grouped)
                .map(|(chunk, batch)| (chunk, batch.len()))
                .collect();
            work.into_par_iter()
                .map(|(chunk, batch_len)| {
                    if batch_len == 0 {
                        return ShardPartial::default();
                    }
                    let dense = batch_len * 8 >= num_nodes;
                    let mut d_out = vec![0i128; if dense { num_nodes } else { 0 }];
                    let mut d_in = vec![0i128; if dense { num_nodes } else { 0 }];
                    let mut marked = vec![false; if dense { num_nodes } else { 0 }];
                    let mut hosts: Vec<u32> = Vec::new();
                    // Sparse path scratch: (host, signed out-mass, signed
                    // in-mass) contribution per applied slot endpoint.
                    let mut sparse: Vec<(u32, i128, i128)> = Vec::new();
                    let mut p = ShardPartial::default();
                    for shard in chunk.iter_mut() {
                        for i in 0..shard.touched.len() {
                            let sl = shard.touched[i] as usize;
                            shard.seen[sl] = false;
                            let d = std::mem::take(&mut shard.pending[sl]);
                            if d == 0 {
                                // The batch's deltas for this flow
                                // cancelled exactly — nothing to apply,
                                // nothing to count as drift.
                                continue;
                            }
                            let new = i128::from(shard.rates[sl]) + d;
                            debug_assert!(
                                u64::try_from(new).is_ok(),
                                "validated in the staging pass"
                            );
                            shard.rates[sl] = new as u64;
                            p.total += d;
                            p.drift = p.drift.saturating_add(
                                u64::try_from(d.unsigned_abs()).unwrap_or(u64::MAX),
                            );
                            p.applied += 1;
                            let (src, dst) = (shard.src_hosts[sl], shard.dst_hosts[sl]);
                            if dense {
                                d_out[src.index()] += d;
                                d_in[dst.index()] += d;
                                for h in [src.index(), dst.index()] {
                                    if !marked[h] {
                                        marked[h] = true;
                                        hosts.push(h as u32);
                                    }
                                }
                            } else {
                                sparse.push((src.0, d, 0));
                                sparse.push((dst.0, 0, d));
                            }
                        }
                        shard.touched.clear();
                    }
                    // Either path emits masses in node-id order: the tree
                    // merge and the aggregate fold both want host-sorted
                    // lists.
                    if dense {
                        hosts.sort_unstable();
                        p.masses = hosts
                            .iter()
                            .map(|&h| HostMassDelta {
                                host: NodeId(h),
                                d_out: d_out[h as usize],
                                d_in: d_in[h as usize],
                            })
                            .collect();
                    } else {
                        sparse.sort_unstable_by_key(|&(h, ..)| h);
                        for (h, dout, din) in sparse {
                            match p.masses.last_mut() {
                                Some(m) if m.host.0 == h => {
                                    m.d_out += dout;
                                    m.d_in += din;
                                }
                                _ => p.masses.push(HostMassDelta {
                                    host: NodeId(h),
                                    d_out: dout,
                                    d_in: din,
                                }),
                            }
                        }
                    }
                    p
                })
                .collect()
        };
        let merged = tree_merge(partials);
        Ok(IngestReport {
            masses: merged.masses,
            total_delta: merged.total,
            drift: merged.drift,
            applied: merged.applied,
            records,
        })
    }

    fn clear_staged(&mut self) {
        for shard in &mut self.shards {
            shard.clear_staged();
        }
    }
}

/// Accumulates ingested drift and decides when the incumbent placement
/// must be re-examined. See the module docs for the two-stage rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftTracker {
    threshold: u64,
    accum: u64,
}

impl DriftTracker {
    /// A tracker that triggers an examination once the accumulated drift
    /// reaches `threshold` (0 = examine every epoch).
    pub fn new(threshold: u64) -> Self {
        DriftTracker {
            threshold,
            accum: 0,
        }
    }

    /// Folds one batch's absolute drift in.
    pub fn ingest(&mut self, drift: u64) {
        self.accum = self.accum.saturating_add(drift);
    }

    /// True when the accumulated drift warrants pricing the staleness
    /// certificate.
    pub fn should_check(&self) -> bool {
        self.accum >= self.threshold
    }

    /// Drift accumulated since the last [`DriftTracker::reset`].
    pub fn accum(&self) -> u64 {
        self.accum
    }

    /// Clears the accumulator (after a re-solve or a certified skip).
    pub fn reset(&mut self) {
        self.accum = 0;
    }
}

/// How one streaming epoch was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochAction {
    /// Accumulated drift stayed under the threshold; the incumbent served
    /// without even pricing the certificate.
    SkippedLowDrift,
    /// The admissible bound certified the incumbent within the allowed
    /// gap; no solve ran and the drift accumulator reset.
    SkippedCertified {
        /// `C_a(incumbent) − LB`, an upper bound on the true staleness.
        gap: Cost,
    },
    /// The solver re-ran.
    Resolved {
        /// True when the fresh solve strictly beat the stale incumbent.
        improved: bool,
    },
}

/// Telemetry of one streaming epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRecord {
    /// The epoch (trace hour) this record describes.
    pub epoch: u32,
    /// Flows whose rate actually changed this epoch.
    pub deltas: u64,
    /// Absolute netted drift `Σ|Δλ|` ingested this epoch.
    pub drift: u64,
    /// How the epoch was served.
    pub action: EpochAction,
    /// `C_a` of the (possibly refreshed) incumbent at the new rates.
    pub comm_cost: Cost,
}

/// Knobs of the streaming epoch engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Accumulated `Σ|Δλ|` below which epochs are served without pricing
    /// the staleness certificate. 0 = price it every epoch.
    pub drift_threshold: u64,
    /// The largest certified staleness gap the incumbent may serve with.
    /// 0 = re-solve unless the bound proves the incumbent optimal.
    pub max_certified_gap: Cost,
    /// Pre-declare the obs schema (stable snapshot shape).
    pub observe: bool,
    /// Where to persist snapshots; `None` disables checkpointing.
    pub store: Option<CheckpointStore>,
    /// Persist every `n` completed epochs (floored at 1; the stop epoch
    /// and the final epoch are always persisted when a store is set).
    pub checkpoint_every: u32,
    /// Halt after completing this epoch (crash simulation). The returned
    /// [`StreamRun`] then carries `completed = false` and a resume
    /// checkpoint.
    pub stop_after: Option<u32>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            drift_threshold: 0,
            max_certified_gap: 0,
            observe: false,
            store: None,
            checkpoint_every: 1,
            stop_after: None,
        }
    }
}

/// Outcome of one full (or interrupted) streaming day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamResult {
    /// The hour-0 TOP cost.
    pub initial_cost: Cost,
    /// The incumbent placement's switches after the last completed epoch.
    pub placement: Vec<NodeId>,
    /// Per-epoch telemetry, epochs `1..=last`.
    pub epochs: Vec<EpochRecord>,
    /// Σ of the epochs' `comm_cost` plus the initial cost (saturating).
    pub total_cost: Cost,
    /// Epochs where the solver re-ran.
    pub resolves: u64,
    /// Epochs served by the stale incumbent (either skip flavor).
    pub resolves_skipped: u64,
    /// Total absolute drift ingested.
    pub drift_total: u64,
    /// Total flows-changed count ingested.
    pub deltas_total: u64,
}

/// Outcome of one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRun {
    /// The day so far — full when `completed`, else the prefix up to the
    /// stop epoch.
    pub result: StreamResult,
    /// True when every epoch of the trace was served.
    pub completed: bool,
    /// The resume snapshot at the stop epoch; present exactly when
    /// [`StreamConfig::stop_after`] halted the run early.
    pub checkpoint: Option<StreamCheckpoint>,
}

/// A frozen mid-day streaming-engine state (`ppdc-stream-ckpt/v1`).
///
/// Only primary state is stored: the rate vector, incumbent placement,
/// drift accumulator, and accumulated telemetry. Shards and aggregates
/// are rebuilt on restore — bit-identically, by the PR 1 equivalence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// FNV-1a hash of every input (see [`stream_fingerprint`]).
    pub fingerprint: u64,
    /// The last *completed* epoch; resume continues at `epoch + 1`.
    pub epoch: u32,
    /// The hour-0 TOP cost.
    pub initial_cost: Cost,
    /// The incumbent placement's switches, in SFC order.
    pub placement: Vec<NodeId>,
    /// Current per-flow rates, flow id order.
    pub rates: Vec<u64>,
    /// The drift accumulator since the last reset.
    pub drift_accum: u64,
    /// Per-epoch records accumulated so far (epochs `1..=epoch`).
    pub epochs: Vec<EpochRecord>,
    /// Running cost total (initial + served epochs).
    pub total_cost: Cost,
    /// Re-solves so far.
    pub resolves: u64,
    /// Skipped epochs so far.
    pub resolves_skipped: u64,
    /// Total drift ingested so far.
    pub drift_total: u64,
    /// Total flows-changed count so far.
    pub deltas_total: u64,
}

fn action_row(a: EpochAction) -> (u64, u64) {
    match a {
        EpochAction::SkippedLowDrift => (0, 0),
        EpochAction::SkippedCertified { gap } => (1, gap),
        EpochAction::Resolved { improved: false } => (2, 0),
        EpochAction::Resolved { improved: true } => (3, 0),
    }
}

fn action_from_row(code: u64, gap: u64) -> Result<EpochAction, CkptError> {
    match code {
        0 => Ok(EpochAction::SkippedLowDrift),
        1 => Ok(EpochAction::SkippedCertified { gap }),
        2 => Ok(EpochAction::Resolved { improved: false }),
        3 => Ok(EpochAction::Resolved { improved: true }),
        _ => Err(CkptError::Corrupt(format!("unknown action code {code}"))),
    }
}

impl StreamCheckpoint {
    /// Serializes to the deterministic `ppdc-stream-ckpt/v1` JSON
    /// document. Equal checkpoints produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{STREAM_CKPT_SCHEMA}\",\n"));
        out.push_str(&format!("  \"fingerprint\": {},\n", self.fingerprint));
        out.push_str(&format!("  \"epoch\": {},\n", self.epoch));
        out.push_str(&format!("  \"initial_cost\": {},\n", self.initial_cost));
        out.push_str(&format!("  \"drift_accum\": {},\n", self.drift_accum));
        out.push_str("  \"placement\": [");
        for (i, n) in self.placement.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&n.0.to_string());
        }
        out.push_str("],\n");
        out.push_str("  \"rates\": [");
        for (i, r) in self.rates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_string());
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"totals\": {{\"total_cost\": {}, \"resolves\": {}, \
             \"resolves_skipped\": {}, \"drift_total\": {}, \"deltas_total\": {}}},\n",
            self.total_cost,
            self.resolves,
            self.resolves_skipped,
            self.drift_total,
            self.deltas_total
        ));
        // Epoch records as compact rows:
        // [epoch, deltas, drift, action_code, gap, comm_cost].
        out.push_str("  \"epochs\": [");
        for (i, e) in self.epochs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (code, gap) = action_row(e.action);
            out.push_str(&format!(
                "[{},{},{},{},{},{}]",
                e.epoch, e.deltas, e.drift, code, gap, e.comm_cost
            ));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a `ppdc-stream-ckpt/v1` document.
    ///
    /// # Errors
    ///
    /// [`CkptError::Parse`] on torn/invalid JSON, [`CkptError::Schema`]
    /// on a foreign document, [`CkptError::Corrupt`] on malformed fields.
    pub fn from_json(src: &str) -> Result<Self, CkptError> {
        let v = ppdc_obs::json::parse(src).map_err(|e| CkptError::Parse(e.to_string()))?;
        let top = as_obj(&v, "document")?;
        match str_field(top, "schema") {
            Ok(s) if s == STREAM_CKPT_SCHEMA => {}
            Ok(s) => return Err(CkptError::Schema(s.to_string())),
            Err(_) => return Err(CkptError::Schema("<missing>".to_string())),
        }
        let totals = as_obj(field(top, "totals")?, "totals")?;
        let epochs = arr_field(top, "epochs")?
            .iter()
            .map(|row| {
                let r = row_u64(row, 6, "epochs")?;
                Ok(EpochRecord {
                    epoch: to_u32(r[0], "epoch")?,
                    deltas: r[1],
                    drift: r[2],
                    action: action_from_row(r[3], r[4])?,
                    comm_cost: r[5],
                })
            })
            .collect::<Result<Vec<_>, CkptError>>()?;
        Ok(StreamCheckpoint {
            fingerprint: u64_field(top, "fingerprint")?,
            epoch: to_u32(u64_field(top, "epoch")?, "epoch")?,
            initial_cost: u64_field(top, "initial_cost")?,
            drift_accum: u64_field(top, "drift_accum")?,
            placement: node_ids(top, "placement")?,
            rates: u64_arr(arr_field(top, "rates")?, "rates")?,
            epochs,
            total_cost: u64_field(totals, "total_cost")?,
            resolves: u64_field(totals, "resolves")?,
            resolves_skipped: u64_field(totals, "resolves_skipped")?,
            drift_total: u64_field(totals, "drift_total")?,
            deltas_total: u64_field(totals, "deltas_total")?,
        })
    }

    /// Semantic validation against the inputs of the run being resumed.
    ///
    /// # Errors
    ///
    /// [`CkptError::InputMismatch`] or [`CkptError::Corrupt`].
    pub fn validate_against(
        &self,
        g: &Graph,
        w: &Workload,
        sfc: &Sfc,
        n_hours: u32,
        expected_fingerprint: u64,
    ) -> Result<(), CkptError> {
        if self.fingerprint != expected_fingerprint {
            return Err(CkptError::InputMismatch {
                stored: self.fingerprint,
                expected: expected_fingerprint,
            });
        }
        if self.epoch == 0 || self.epoch > n_hours {
            return Err(CkptError::Corrupt(format!(
                "epoch {} outside 1..={n_hours}",
                self.epoch
            )));
        }
        let shape = [
            ("placement", self.placement.len(), sfc.len()),
            ("rates", self.rates.len(), w.num_flows()),
            ("epochs", self.epochs.len(), self.epoch as usize),
        ];
        for (name, got, want) in shape {
            if got != want {
                return Err(CkptError::Corrupt(format!(
                    "{name} has {got} entries, expected {want}"
                )));
            }
        }
        if let Some(bad) = self.placement.iter().find(|id| id.index() >= g.num_nodes()) {
            return Err(CkptError::Corrupt(format!(
                "placement references node {} outside the graph",
                bad.0
            )));
        }
        Ok(())
    }
}

/// FNV-1a over every input that shapes a streaming day: graph, workload
/// endpoints, SFC length, drift/gap knobs, and all trace rates. Matching
/// fingerprints imply bit-identical trajectories.
pub fn stream_fingerprint(
    g: &Graph,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &StreamConfig,
) -> u64 {
    let mut h = Fnv::new();
    h.u64(g.num_nodes() as u64);
    h.u64(g.num_edges() as u64);
    for (u, v, c) in g.edges() {
        h.u64(u64::from(u.0));
        h.u64(u64::from(v.0));
        h.u64(c);
    }
    h.u64(w.num_vms() as u64);
    h.u64(w.num_flows() as u64);
    for v in w.vm_ids() {
        h.u64(u64::from(w.host_of(v).0));
    }
    for f in w.flow_ids() {
        let fl = w.flow(f);
        h.u64(u64::from(fl.src.0));
        h.u64(u64::from(fl.dst.0));
    }
    h.u64(sfc.len() as u64);
    h.u64(cfg.drift_threshold);
    h.u64(cfg.max_certified_gap);
    h.u64(u64::from(trace.model().n_hours));
    for hour in 0..=trace.model().n_hours {
        for r in trace.rates_at(hour) {
            h.u64(r);
        }
    }
    h.finish()
}

/// Runs one streaming day: TOP at hour 0, then every epoch ingests the
/// trace's rate deltas through the sharded store, folds them into the
/// live aggregates, and serves the epoch by the drift rule (see the
/// module docs). Two calls with the same inputs produce bit-identical
/// results.
///
/// # Errors
///
/// [`StreamError`] on genuinely broken inputs or failed checkpoint I/O.
pub fn run_stream_day<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &StreamConfig,
) -> Result<StreamRun, StreamError> {
    run_stream_day_impl(g, dm, w, trace, sfc, cfg, None)
}

/// Resumes a streaming day from a [`StreamCheckpoint`] and finishes it
/// **bit-identically** to the uninterrupted run: shards and aggregates
/// are rebuilt from the checkpointed rate vector, and the PR 1
/// delta/rebuild equivalence makes the reconstruction exact.
///
/// # Errors
///
/// [`StreamError::Checkpoint`] when the snapshot is corrupt or from
/// different inputs; otherwise as [`run_stream_day`].
pub fn resume_stream_day<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &StreamConfig,
    ckpt: &StreamCheckpoint,
) -> Result<StreamRun, StreamError> {
    run_stream_day_impl(g, dm, w, trace, sfc, cfg, Some(ckpt))
}

#[allow(clippy::too_many_arguments)]
fn run_stream_day_impl<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &StreamConfig,
    resume: Option<&StreamCheckpoint>,
) -> Result<StreamRun, StreamError> {
    let obs = ppdc_obs::global();
    if cfg.observe {
        obs.declare(obs_names::SPANS, obs_names::COUNTERS, obs_names::HISTS);
    }
    if trace.num_flows() != w.num_flows() {
        return Err(StreamError::ShapeMismatch {
            flows: w.num_flows(),
            trace_flows: trace.num_flows(),
        });
    }
    let n_hours = trace.model().n_hours;
    let wants_snapshots = cfg.store.is_some() || cfg.stop_after.is_some();
    let fp = if wants_snapshots || resume.is_some() {
        stream_fingerprint(g, w, trace, sfc, cfg)
    } else {
        0
    };
    let mut w_cur = w.clone();
    let mut tracker = DriftTracker::new(cfg.drift_threshold);
    // The solver session lives for the day and is *never* persisted: a
    // resumed day starts from a fresh session and rebuilds it on its first
    // re-solve, so `ppdc-stream-ckpt/v1` stays primary-state-only and
    // kill/resume stays bit-identical (a reused session ≡ a fresh one
    // makes the rebuilt cache indistinguishable from the lost one).
    let mut cache = BoundCache::new();
    let (start_epoch, mut store, mut agg, mut placement, mut st) = match resume {
        None => {
            w_cur.set_rates(&trace.rates_at(0))?;
            let store = ShardedFlowStore::build(g, &w_cur)?;
            let agg = AttachAggregates::build(g, dm, &w_cur);
            let (p, c) = dp_placement_warm(g, dm, &w_cur, sfc, &agg, &mut cache, None)?;
            let st = StreamResult {
                initial_cost: c,
                placement: p.switches().to_vec(),
                epochs: Vec::new(),
                total_cost: c,
                resolves: 0,
                resolves_skipped: 0,
                drift_total: 0,
                deltas_total: 0,
            };
            (1, store, agg, p, st)
        }
        Some(ck) => {
            ck.validate_against(g, w, sfc, n_hours, fp)?;
            obs.add(obs_names::CKPT_RESTORES, 1);
            w_cur.set_rates(&ck.rates)?;
            let store = ShardedFlowStore::build(g, &w_cur)?;
            let agg = AttachAggregates::build(g, dm, &w_cur);
            let placement = Placement::new_unchecked(ck.placement.clone());
            tracker.accum = ck.drift_accum;
            let st = StreamResult {
                initial_cost: ck.initial_cost,
                placement: ck.placement.clone(),
                epochs: ck.epochs.clone(),
                total_cost: ck.total_cost,
                resolves: ck.resolves,
                resolves_skipped: ck.resolves_skipped,
                drift_total: ck.drift_total,
                deltas_total: ck.deltas_total,
            };
            (ck.epoch + 1, store, agg, placement, st)
        }
    };
    let every = cfg.checkpoint_every.max(1);
    let mut rates_buf: Vec<u64> = Vec::new();
    for epoch in start_epoch..=n_hours {
        let raw = trace.try_rate_deltas(epoch)?;
        let batch: Vec<RateDelta> = raw
            .iter()
            .map(|&(flow, delta)| RateDelta { flow, delta })
            .collect();
        let report = {
            let _span = obs.span(obs_names::STREAM_INGEST);
            let report = store.ingest(&batch)?;
            agg.try_apply_mass_deltas(dm, &report.masses, report.total_delta)?;
            report
        };
        obs.add(obs_names::STREAM_DELTAS, report.applied);
        obs.add(obs_names::STREAM_DRIFT, report.drift);
        tracker.ingest(report.drift);
        st.drift_total = st.drift_total.saturating_add(report.drift);
        st.deltas_total = st.deltas_total.saturating_add(report.applied);
        let inc_cost = agg.comm_cost(dm, &placement);
        let (action, comm) = if !tracker.should_check() {
            st.resolves_skipped += 1;
            obs.add(obs_names::STREAM_RESOLVES_SKIPPED, 1);
            (EpochAction::SkippedLowDrift, inc_cost)
        } else {
            let lb = placement_cost_lower_bound(dm, &agg, sfc.len());
            let gap = inc_cost.saturating_sub(lb);
            if gap <= cfg.max_certified_gap {
                st.resolves_skipped += 1;
                obs.add(obs_names::STREAM_RESOLVES_SKIPPED, 1);
                tracker.reset();
                (EpochAction::SkippedCertified { gap }, inc_cost)
            } else {
                // `w_cur` keeps the epoch-0 (or restored) rates: the
                // solver reads only its flow count, and the aggregates
                // carry the current rates.
                let (p, c) =
                    dp_placement_warm(g, dm, &w_cur, sfc, &agg, &mut cache, Some(&placement))?;
                st.resolves += 1;
                obs.add(obs_names::STREAM_RESOLVES, 1);
                tracker.reset();
                let improved = c < inc_cost;
                placement = p;
                (EpochAction::Resolved { improved }, c)
            }
        };
        st.total_cost = st.total_cost.saturating_add(comm);
        st.epochs.push(EpochRecord {
            epoch,
            deltas: report.applied,
            drift: report.drift,
            action,
            comm_cost: comm,
        });
        st.placement = placement.switches().to_vec();
        let stop_here = cfg.stop_after == Some(epoch);
        let last = epoch == n_hours;
        if wants_snapshots && (stop_here || last || epoch % every == 0) {
            store.export_rates(&mut rates_buf);
            let ck = StreamCheckpoint {
                fingerprint: fp,
                epoch,
                initial_cost: st.initial_cost,
                placement: st.placement.clone(),
                rates: rates_buf.clone(),
                drift_accum: tracker.accum(),
                epochs: st.epochs.clone(),
                total_cost: st.total_cost,
                resolves: st.resolves,
                resolves_skipped: st.resolves_skipped,
                drift_total: st.drift_total,
                deltas_total: st.deltas_total,
            };
            if let Some(cs) = &cfg.store {
                cs.write_raw(&ck.to_json())?;
            }
            if stop_here && !last {
                return Ok(StreamRun {
                    result: st,
                    completed: false,
                    checkpoint: Some(ck),
                });
            }
        }
    }
    Ok(StreamRun {
        result: st,
        completed: true,
        checkpoint: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_topology::{DistanceMatrix, FatTree};
    use ppdc_traffic::standard_workload;

    fn fixture(pairs: usize, seed: u64) -> (Graph, DistanceMatrix, Workload, DynamicTrace) {
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph().clone();
        let dm = DistanceMatrix::build(&g);
        let (w, trace) = standard_workload(&ft, pairs, seed, 0);
        (g, dm, w, trace)
    }

    #[test]
    fn sharded_ingest_is_bit_identical_to_rebuild() {
        let (g, dm, mut w, trace) = fixture(40, 11);
        w.set_rates(&trace.rates_at(0)).unwrap();
        let mut store = ShardedFlowStore::build(&g, &w).unwrap();
        assert!(store.num_shards() > 1);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        for h in 1..=trace.model().n_hours {
            let batch: Vec<RateDelta> = trace
                .rate_deltas(h)
                .into_iter()
                .map(|(flow, delta)| RateDelta { flow, delta })
                .collect();
            let r = store.ingest(&batch).unwrap();
            agg.try_apply_mass_deltas(&dm, &r.masses, r.total_delta)
                .unwrap();
            w.set_rates(&trace.rates_at(h)).unwrap();
            let rebuilt = AttachAggregates::build(&g, &dm, &w);
            assert!(agg.same_as(&rebuilt), "hour {h} diverged");
            let mut exported = Vec::new();
            store.export_rates(&mut exported);
            assert_eq!(exported, trace.rates_at(h), "hour {h} rates diverged");
        }
    }

    #[test]
    fn in_batch_cancellation_and_zero_deltas_are_dropped() {
        let (g, dm, w, _) = fixture(20, 3);
        let mut store = ShardedFlowStore::build(&g, &w).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        let f = FlowId(0);
        let r = store
            .ingest(&[
                RateDelta { flow: f, delta: 0 },
                RateDelta { flow: f, delta: 7 },
                RateDelta { flow: f, delta: -7 },
            ])
            .unwrap();
        assert_eq!(r.applied, 0);
        assert_eq!(r.drift, 0);
        assert_eq!(r.total_delta, 0);
        assert!(r.masses.is_empty());
        assert_eq!(r.records, 3);
        // Nothing changed, so the fold is a no-op on the aggregates.
        let mut agg2 = agg.clone();
        agg2.try_apply_mass_deltas(&dm, &r.masses, r.total_delta)
            .unwrap();
        assert!(agg2.same_as(&agg));
    }

    #[test]
    fn invalid_batches_leave_the_store_untouched() {
        let (g, _, w, _) = fixture(10, 5);
        let mut store = ShardedFlowStore::build(&g, &w).unwrap();
        let before: Vec<u64> = {
            let mut v = Vec::new();
            store.export_rates(&mut v);
            v
        };
        let f = FlowId(0);
        let rate = store.rate(f).unwrap();
        let err = store
            .ingest(&[RateDelta {
                flow: f,
                delta: -(rate as i64) - 1,
            }])
            .expect_err("negative net rate must be rejected");
        assert!(matches!(err, StreamError::RateOutOfRange { .. }));
        let err = store
            .ingest(&[RateDelta {
                flow: FlowId(u32::MAX),
                delta: 1,
            }])
            .expect_err("foreign flow must be rejected");
        assert!(matches!(err, StreamError::UnknownFlow { .. }));
        let mut after = Vec::new();
        store.export_rates(&mut after);
        assert_eq!(before, after);
        // And the store still ingests cleanly afterwards.
        let r = store.ingest(&[RateDelta { flow: f, delta: 5 }]).unwrap();
        assert_eq!(r.applied, 1);
        assert_eq!(store.rate(f).unwrap(), rate + 5);
    }

    #[test]
    fn certified_epochs_serve_the_exact_optimum() {
        // With threshold 0 and gap 0 every epoch is either re-solved or
        // certified optimal, so each epoch's served cost must equal an
        // independent from-scratch solve at that hour's rates.
        let (g, dm, w, trace) = fixture(30, 17);
        let sfc = Sfc::of_len(3).unwrap();
        let run = run_stream_day(&g, &dm, &w, &trace, &sfc, &StreamConfig::default()).unwrap();
        assert!(run.completed);
        assert_eq!(run.result.epochs.len(), trace.model().n_hours as usize);
        let mut w_ref = w.clone();
        for rec in &run.result.epochs {
            w_ref.set_rates(&trace.rates_at(rec.epoch)).unwrap();
            let (_, opt) = ppdc_placement::dp_placement(&g, &dm, &w_ref, &sfc).unwrap();
            assert_eq!(rec.comm_cost, opt, "epoch {} served off-optimum", rec.epoch);
        }
        assert_eq!(
            run.result.resolves + run.result.resolves_skipped,
            trace.model().n_hours as u64
        );
    }

    #[test]
    fn high_threshold_never_resolves() {
        let (g, dm, w, trace) = fixture(30, 17);
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = StreamConfig {
            drift_threshold: u64::MAX,
            ..StreamConfig::default()
        };
        let run = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg).unwrap();
        assert_eq!(run.result.resolves, 0);
        assert_eq!(run.result.resolves_skipped, trace.model().n_hours as u64);
        assert!(run
            .result
            .epochs
            .iter()
            .all(|e| e.action == EpochAction::SkippedLowDrift));
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let (g, dm, w, trace) = fixture(30, 23);
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = StreamConfig {
            drift_threshold: 500,
            max_certified_gap: 10,
            ..StreamConfig::default()
        };
        let full = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg).unwrap();
        for kill in [1, 5, trace.model().n_hours - 1] {
            let stopped = run_stream_day(
                &g,
                &dm,
                &w,
                &trace,
                &sfc,
                &StreamConfig {
                    stop_after: Some(kill),
                    ..cfg.clone()
                },
            )
            .unwrap();
            assert!(!stopped.completed);
            let ck = stopped.checkpoint.expect("stopped run carries a snapshot");
            // Disk round trip preserves everything.
            let back = StreamCheckpoint::from_json(&ck.to_json()).unwrap();
            assert_eq!(ck, back);
            let resumed = resume_stream_day(&g, &dm, &w, &trace, &sfc, &cfg, &back).unwrap();
            assert!(resumed.completed);
            assert_eq!(resumed.result, full.result, "kill at {kill} diverged");
        }
    }

    #[test]
    fn checkpoint_rejects_foreign_inputs() {
        let (g, dm, w, trace) = fixture(20, 29);
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = StreamConfig {
            stop_after: Some(2),
            ..StreamConfig::default()
        };
        let stopped = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg).unwrap();
        let ck = stopped.checkpoint.unwrap();
        // A different workload (other seed) must be refused.
        let (g2, dm2, w2, trace2) = fixture(20, 31);
        let err = resume_stream_day(&g2, &dm2, &w2, &trace2, &sfc, &StreamConfig::default(), &ck)
            .expect_err("foreign inputs must be refused");
        assert!(matches!(
            err,
            StreamError::Checkpoint(CkptError::InputMismatch { .. })
        ));
    }

    #[test]
    fn store_round_trip_through_disk_slots() {
        let (g, dm, w, trace) = fixture(20, 41);
        let sfc = Sfc::of_len(3).unwrap();
        let dir = std::env::temp_dir().join(format!("ppdc-stream-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cs = CheckpointStore::new(dir.join("stream.ckpt"));
        let cfg = StreamConfig {
            store: Some(cs.clone()),
            stop_after: Some(3),
            ..StreamConfig::default()
        };
        let full = run_stream_day(&g, &dm, &w, &trace, &sfc, &StreamConfig::default()).unwrap();
        let _stopped = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg).unwrap();
        let (loaded, _slot) = cs.load_with(StreamCheckpoint::from_json).unwrap();
        assert_eq!(loaded.epoch, 3);
        let cfg_resume = StreamConfig {
            store: Some(cs),
            ..StreamConfig::default()
        };
        let resumed = resume_stream_day(&g, &dm, &w, &trace, &sfc, &cfg_resume, &loaded).unwrap();
        assert_eq!(resumed.result, full.result);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
