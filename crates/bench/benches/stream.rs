//! Streaming-ingestion benchmarks: million-flow stores on the k = 32
//! fabric (1280 switches, 8192 hosts) driven by rate-delta batches.
//!
//! One measured unit is a full aggregate update: route the batch through
//! [`ShardedFlowStore::ingest`] and fold the merged per-host masses into
//! [`AttachAggregates::try_apply_mass_deltas`]. The fold's cost is
//! `O(|touched hosts| + |touched ToRs| · |switches|)` — independent of the
//! store's flow count — so the cases sweep churn *locality* against a
//! fixed 1M-flow store:
//!
//! * `hot_racks_8` — both endpoints inside 8 hot racks (≤ 128 hosts), the
//!   paper's active-rack churn pattern and the sub-10 ms target case,
//! * `hot_pods_2` — endpoints inside two pods (≤ 512 hosts, 32 ToRs),
//! * `full_fabric` — every flow moves (all 8192 hosts, 512 ToRs), the
//!   worst case a diurnal epoch can produce.
//!
//! Batches alternate with their exact negation each iteration, so the
//! store and aggregates return to the initial state every two samples and
//! no pristine clone of the million-flow store is paid inside the timer.
//!
//! The `stream_resolve` group measures the *solver* half of an epoch: the
//! warm re-solve ([`dp_placement_warm`] on a reused [`BoundCache`] session
//! with the previous optimum as incumbent) against the cold
//! [`dp_placement_with_agg`] — the same sweep on a fresh session, which is
//! what "cold" means here — over the same three churn localities. Aggregates are prebuilt outside the timer and
//! alternate base ↔ churned between iterations, so the measured unit is
//! exactly the post-ingest re-solve latency.
//!
//! `PPDC_BENCH_ONLY=stream_ingest` (comma-separated group names) restricts
//! the run — the vendored criterion stand-in has no CLI filter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppdc_model::{Sfc, Workload};
use ppdc_placement::{dp_placement_warm, dp_placement_with_agg, AttachAggregates, BoundCache};
use ppdc_sim::{RateDelta, ShardedFlowStore};
use ppdc_topology::{FatTree, FatTreeOracle, NodeId};
use std::time::Duration;

const FLOWS: usize = 1_000_000;

fn enabled(group: &str) -> bool {
    match std::env::var("PPDC_BENCH_ONLY") {
        Ok(only) => only.split(',').any(|g| g.trim() == group),
        Err(_) => true,
    }
}

/// The deterministic million-flow workload the `stream` smoke uses: pairs
/// strided over every host so the store's shard map covers the fabric.
fn million_flow_workload(ft: &FatTree) -> Workload {
    let hosts: Vec<NodeId> = ft.graph().hosts().collect();
    let mut w = Workload::new();
    for i in 0..FLOWS {
        let a = hosts[(i * 131) % hosts.len()];
        let b = hosts[(i * 2_477 + 4_096) % hosts.len()];
        w.add_pair(a, b, (i as u64 % 97) * 13 + 1);
    }
    w
}

/// Deltas for every flow whose endpoints' top-of-rack switches both lie in
/// `tors` (all flows when `tors` is `None`). Positive, so the negated
/// batch can never underflow a rate.
fn batch_for(ft: &FatTree, w: &Workload, tors: Option<&[NodeId]>) -> Vec<RateDelta> {
    let g = ft.graph();
    let mut out = Vec::new();
    for (f, src, dst, _) in w.iter() {
        let hot = match tors {
            None => true,
            Some(t) => {
                let ks = g.top_of_rack(src).expect("fat-tree host has a ToR");
                let kd = g.top_of_rack(dst).expect("fat-tree host has a ToR");
                t.contains(&ks) && t.contains(&kd)
            }
        };
        if hot {
            out.push(RateDelta {
                flow: f,
                delta: (f.index() as i64 % 7) + 1,
            });
        }
    }
    out
}

fn negated(batch: &[RateDelta]) -> Vec<RateDelta> {
    batch
        .iter()
        .map(|d| RateDelta {
            flow: d.flow,
            delta: -d.delta,
        })
        .collect()
}

/// Distinct top-of-rack switches in host order: the first 8 are the
/// "hot racks", the first two pods' worth are the "hot pods".
fn tors_in_host_order(ft: &FatTree) -> Vec<NodeId> {
    let g = ft.graph();
    let mut tors: Vec<NodeId> = Vec::new();
    for h in g.hosts() {
        let t = g.top_of_rack(h).expect("fat-tree host has a ToR");
        if !tors.contains(&t) {
            tors.push(t);
        }
    }
    tors
}

/// The three churn-locality cases both groups sweep.
fn churn_cases(ft: &FatTree, w: &Workload) -> Vec<(&'static str, Vec<RateDelta>)> {
    let tors = tors_in_host_order(ft);
    let racks_per_pod = tors.len() / 32;
    vec![
        ("hot_racks_8", batch_for(ft, w, Some(&tors[..8]))),
        (
            "hot_pods_2",
            batch_for(ft, w, Some(&tors[..2 * racks_per_pod])),
        ),
        ("full_fabric", batch_for(ft, w, None)),
    ]
}

fn bench_stream_ingest(c: &mut Criterion) {
    if !enabled("stream_ingest") {
        return;
    }
    let mut group = c.benchmark_group("stream_ingest");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));
    let ft = FatTree::build(32).unwrap();
    let g = ft.graph();
    let oracle = FatTreeOracle::new(&ft);
    let w = million_flow_workload(&ft);
    let cases = churn_cases(&ft, &w);
    for (name, batch) in &cases {
        let mut store = ShardedFlowStore::build(g, &w).unwrap();
        let mut agg = AttachAggregates::build(g, &oracle, &w);
        let neg = negated(batch);
        let mut flip = false;
        group.bench_with_input(BenchmarkId::new(*name, FLOWS), batch, |b, batch| {
            b.iter(|| {
                let deltas: &[RateDelta] = if flip { &neg } else { batch };
                flip = !flip;
                let r = store.ingest(deltas).unwrap();
                agg.try_apply_mass_deltas(&oracle, &r.masses, r.total_delta)
                    .unwrap();
                r.applied
            })
        });
    }
    group.finish();
}

/// Warm vs cold epoch re-solve latency on the k = 32 fabric.
///
/// `cold` is one Algorithm 3 solve on a fresh session over prebuilt
/// aggregates: closure, bounds and interior memo all built inside the
/// timer. Each `warm_<case>` id alternates between a base and a churned
/// aggregate twin (both prebuilt, the churn folded once outside the
/// timer) and re-solves on one reused session seeded with the previous
/// optimum — exactly the streaming engine's per-epoch solver path, with
/// the ingest fold excluded so the two sides are comparable.
fn bench_stream_resolve(c: &mut Criterion) {
    if !enabled("stream_resolve") {
        return;
    }
    let ft = FatTree::build(32).unwrap();
    let g = ft.graph();
    let oracle = FatTreeOracle::new(&ft);
    let w = million_flow_workload(&ft);
    let sfc = Sfc::of_len(4).unwrap();
    let cases = churn_cases(&ft, &w);
    let mut group = c.benchmark_group("stream_resolve");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(1));
    group.measurement_time(Duration::from_secs(2));

    let base = AttachAggregates::build(g, &oracle, &w);
    group.bench_with_input(BenchmarkId::new("cold", FLOWS), &(), |b, ()| {
        b.iter(|| dp_placement_with_agg(g, &oracle, &w, &sfc, &base).unwrap())
    });

    for (name, batch) in &cases {
        let mut store = ShardedFlowStore::build(g, &w).unwrap();
        let mut churned = AttachAggregates::build(g, &oracle, &w);
        let r = store.ingest(batch).unwrap();
        churned
            .try_apply_mass_deltas(&oracle, &r.masses, r.total_delta)
            .unwrap();
        let mut cache = BoundCache::new();
        let (mut prev, _) =
            dp_placement_warm(g, &oracle, &w, &sfc, &base, &mut cache, None).unwrap();
        let mut flip = false;
        group.bench_with_input(
            BenchmarkId::new(format!("warm_{name}"), FLOWS),
            &(),
            |b, ()| {
                b.iter(|| {
                    let agg = if flip { &base } else { &churned };
                    flip = !flip;
                    let (p, cost) =
                        dp_placement_warm(g, &oracle, &w, &sfc, agg, &mut cache, Some(&prev))
                            .unwrap();
                    prev = p;
                    cost
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stream_ingest, bench_stream_resolve);
criterion_main!(benches);
