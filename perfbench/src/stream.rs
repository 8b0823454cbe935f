//! `stream-fabric`: 12-epoch days through `run_stream_day` /
//! `resume_stream_day`, and the traced replay of the engine's epoch loop
//! that splits a day across layers.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ppdc_placement::{
    dp_placement_warm, dp_placement_with_agg, placement_cost_lower_bound, AttachAggregates,
    BoundCache,
};
use ppdc_sim::{
    resume_stream_day, run_stream_day, stream_fingerprint, CheckpointStore, DriftTracker,
    EpochAction, EpochRecord, RateDelta, ShardedFlowStore, StreamCheckpoint, StreamConfig,
    StreamResult,
};

use crate::inputs::{stream_inputs, StreamInputs};
use crate::report::{at, median, ms, timed, Layers, Outcome};
use crate::{copy_prev_slot, per_layer, Window, SETUP_REPS};

/// Recoveries measured after each day: one restart is noisy on a shared
/// machine, and a round repeats the same instance.
const RECOVERIES: usize = 2;

fn config(store: &CheckpointStore) -> StreamConfig {
    StreamConfig {
        store: Some(store.clone()),
        ..StreamConfig::default()
    }
}

fn epochs_of(inp: &StreamInputs) -> u64 {
    u64::from(inp.trace.model().n_hours)
}

/// One untraced day with a checkpoint every epoch.
fn day(inp: &StreamInputs, store: &CheckpointStore) -> Result<StreamResult, String> {
    let run = run_stream_day(
        inp.ft.graph(),
        &inp.oracle,
        &inp.w,
        &inp.trace,
        &inp.sfc,
        &config(store),
    )
    .map_err(at("run_stream_day"))?;
    if !run.completed {
        return Err("run_stream_day stopped early".to_string());
    }
    Ok(run.result)
}

/// Restart after a crash: load the epoch-11 snapshot from disk and resume
/// through the last epoch.
fn recover(
    inp: &StreamInputs,
    from: &CheckpointStore,
    store: &CheckpointStore,
) -> Result<StreamResult, String> {
    let (ck, _) = from
        .load_with(StreamCheckpoint::from_json)
        .map_err(at("load stream checkpoint"))?;
    let run = resume_stream_day(
        inp.ft.graph(),
        &inp.oracle,
        &inp.w,
        &inp.trace,
        &inp.sfc,
        &config(store),
        &ck,
    )
    .map_err(at("resume_stream_day"))?;
    if !run.completed {
        return Err("resume_stream_day stopped early".to_string());
    }
    Ok(run.result)
}

/// Re-prices one epoch from scratch (fresh aggregates, cold solve). The
/// zero-tolerance config serves the exact optimum, so the costs match.
fn reprice_epoch(inp: &StreamInputs, epoch: u32, served: &StreamResult, out: &mut Outcome) {
    let mut w = inp.w.clone();
    let check = (|| -> Result<u64, String> {
        w.set_rates(&inp.trace.rates_at(epoch))
            .map_err(at("set_rates"))?;
        let agg = AttachAggregates::build(inp.ft.graph(), &inp.oracle, &w);
        let (_, cost) = dp_placement_with_agg(inp.ft.graph(), &inp.oracle, &w, &inp.sfc, &agg)
            .map_err(at("dp_placement_with_agg"))?;
        Ok(cost)
    })();
    let want = served.epochs.get(epoch as usize - 1).map(|e| e.comm_cost);
    match check {
        Ok(cost) => out.check(
            Some(cost) == want,
            1,
            format!("epoch {epoch}: from-scratch optimum {cost} != served {want:?}"),
        ),
        Err(e) => out.check(false, 1, e),
    }
}

/// The end-to-end run: set-up timings, then rounds of one day and its
/// recoveries until the measuring window closes.
pub fn run(seed: u64, window: &Window, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut inp = None;
    for _ in 0..SETUP_REPS {
        drop(inp.take());
        let (built, d) = timed(|| stream_inputs(seed));
        setups.push(d.as_secs_f64());
        inp = Some(built);
    }
    let inp = inp.expect("SETUP_REPS >= 1");
    let n = epochs_of(&inp);
    let store = CheckpointStore::new(dir.join("day").join("stream.ckpt"));
    let from = CheckpointStore::new(dir.join("crash").join("stream.ckpt"));
    let resumed = CheckpointStore::new(dir.join("resumed").join("stream.ckpt"));
    let (mut days, mut recoveries) = (Vec::new(), Vec::new());
    let mut reference: Option<StreamResult> = None;
    let clock = Instant::now();
    while window.more(&clock, days.len()) {
        let (res, d) = timed(|| day(&inp, &store));
        out.attempted += n;
        let res = match res {
            Ok(r) => r,
            Err(e) => {
                out.check(false, n, e);
                break;
            }
        };
        days.push(d.as_secs_f64());
        let reference = reference.get_or_insert_with(|| res.clone());
        out.check(&res == reference, n, "repeated day differs from the first");
        if let Err(e) = copy_prev_slot(&store, &from) {
            out.check(false, 1, e);
            break;
        }
        for _ in 0..RECOVERIES {
            let (rec, d) = timed(|| recover(&inp, &from, &resumed));
            out.attempted += 1;
            match rec {
                Ok(r) => {
                    recoveries.push(d.as_secs_f64());
                    out.check(
                        &r == reference,
                        1,
                        "resumed day differs from the uninterrupted day",
                    );
                }
                Err(e) => out.check(false, 1, e),
            }
        }
    }
    if let Some(reference) = &reference {
        reprice_epoch(&inp, sampled_epoch(seed, n), reference, &mut out);
        out.attempted += 1;
        eprintln!("samples: setup_s {setups:?} day_s {days:?} recovery_s {recoveries:?}");
        out.metric("setup_s", median(&setups), "s");
        out.metric("day_s", median(&days), "s");
        out.metric("recovery_s", median(&recoveries), "s");
        out.metric("day_cost", reference.total_cost as f64, "cost");
    }
    out
}

/// The epoch the correctness gate re-prices, drawn from the seed.
fn sampled_epoch(seed: u64, n: u64) -> u32 {
    u32::try_from(1 + seed % n).expect("epoch fits u32")
}

/// The traced run: one untraced day for reference, then the replay with
/// every layer call timed and the obs registry on for the solver counts.
pub fn traced(seed: u64, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let inp = stream_inputs(seed);
    let n = epochs_of(&inp);
    let store = CheckpointStore::new(dir.join("day").join("stream.ckpt"));
    let (reference, untraced) = timed(|| day(&inp, &store));
    out.attempted += n;
    let reference = match reference {
        Ok(r) => r,
        Err(e) => {
            out.check(false, n, e);
            return out;
        }
    };
    let obs = ppdc_obs::global();
    obs.reset();
    obs.enable();
    let replay_store = CheckpointStore::new(dir.join("replay").join("stream.ckpt"));
    let replayed = replay(&inp, &replay_store);
    obs.disable();
    let snap = obs.snapshot();
    out.attempted += n;
    let (res, mut vals) = match replayed {
        Ok(r) => r,
        Err(e) => {
            out.check(false, n, e);
            return out;
        }
    };
    let mismatched = res
        .epochs
        .iter()
        .zip(&reference.epochs)
        .filter(|(a, b)| a != b)
        .count() as u64;
    out.check(
        res == reference,
        mismatched.max(1),
        "traced replay differs from the untraced day",
    );

    // Recovery and the from-scratch re-price, as in every run.
    let from = CheckpointStore::new(dir.join("crash").join("stream.ckpt"));
    let resumed = CheckpointStore::new(dir.join("resumed").join("stream.ckpt"));
    out.attempted += 2;
    match copy_prev_slot(&replay_store, &from) {
        Ok(()) => {
            let (loaded, load) = timed(|| from.load_with(StreamCheckpoint::from_json));
            out.check(
                loaded.is_ok_and(|(ck, _)| u64::from(ck.epoch) == n - 1),
                1,
                "previous slot does not hold the second-to-last epoch",
            );
            vals.insert("ckpt.load_ms", ms(load));
            match recover(&inp, &from, &resumed) {
                Ok(r) => out.check(r == reference, 1, "resumed day differs"),
                Err(e) => out.check(false, 1, e),
            }
        }
        Err(e) => out.check(false, 1, e),
    }
    reprice_epoch(&inp, sampled_epoch(seed, n), &reference, &mut out);

    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    use ppdc_obs::names as on;
    for (metric, name) in [
        ("oracle.queries", on::ORACLE_QUERIES),
        ("dp.egress_pruned", on::SOLVER_DP_EGRESS_PRUNED),
        ("dp.orbit_pruned", on::SOLVER_DP_ORBIT_PRUNED),
        ("warm.seeded", on::SOLVER_WARM_SEEDED),
        ("warm.rows_dirty", on::SOLVER_WARM_ROWS_DIRTY),
        ("warm.rows_reused", on::SOLVER_WARM_ROWS_REUSED),
        ("warm.egress_skipped", on::SOLVER_WARM_EGRESS_SKIPPED),
    ] {
        vals.insert(metric, counter(name));
    }
    let day_ms = vals["traced_day_ms"];
    vals.insert("trace_overhead_ms", day_ms - ms(untraced));
    let coverage = vals["coverage"];
    out.check(
        coverage >= 0.95,
        0,
        format!(
            "layers cover {:.1}% of the traced day (< 95%)",
            coverage * 100.0
        ),
    );
    per_layer(&mut out, &vals);
    out
}

// Layer names of the traced replay; each is also a per-layer metric.
const TRAFFIC_DELTAS: &str = "traffic.deltas_ms";
const STORE_BUILD: &str = "stream.store_build_ms";
const INGEST: &str = "stream.ingest_ms";
const RATE_SYNC: &str = "stream.rate_sync_ms";
const AGG_BUILD: &str = "agg.build_ms";
const AGG_FOLD: &str = "agg.fold_ms";
const AGG_PRICE: &str = "agg.price_ms";
const LOWER_BOUND: &str = "dp.lower_bound_ms";
const WARM_BOOTSTRAP: &str = "warm.bootstrap_ms";
const WARM_RESOLVE: &str = "warm.resolve_ms";
const CKPT_FINGERPRINT: &str = "ckpt.fingerprint_ms";
const CKPT_ENCODE: &str = "ckpt.encode_ms";
const CKPT_WRITE: &str = "ckpt.write_ms";

/// Replays `run_stream_day` (no resume, zero-tolerance config, a snapshot
/// every epoch) call for call in the engine's order, timing each call.
fn replay(
    inp: &StreamInputs,
    store: &CheckpointStore,
) -> Result<(StreamResult, BTreeMap<&'static str, f64>), String> {
    let (g, dm, w, trace, sfc) = (inp.ft.graph(), &inp.oracle, &inp.w, &inp.trace, &inp.sfc);
    let cfg = config(store);
    let n_hours = trace.model().n_hours;
    let mut lay = Layers::default();
    let (mut deltas, mut dirty_hosts, mut ckpt_bytes) = (0u64, 0u64, 0u64);
    let mut epoch_ms = Vec::new();
    let day0 = Instant::now();

    let t = Instant::now();
    let fp = stream_fingerprint(g, w, trace, sfc, &cfg);
    lay.add(CKPT_FINGERPRINT, t);
    let t = Instant::now();
    let mut w_cur = w.clone();
    w_cur
        .set_rates(&trace.rates_at(0))
        .map_err(at("set_rates"))?;
    lay.add(RATE_SYNC, t);
    let mut tracker = DriftTracker::new(cfg.drift_threshold);
    let mut cache = BoundCache::new();
    let t = Instant::now();
    let mut flows = ShardedFlowStore::build(g, &w_cur).map_err(at("ShardedFlowStore::build"))?;
    lay.add(STORE_BUILD, t);
    let t = Instant::now();
    let mut agg = AttachAggregates::build(g, dm, &w_cur);
    lay.add(AGG_BUILD, t);
    let t = Instant::now();
    let (mut placement, c0) = dp_placement_warm(g, dm, &w_cur, sfc, &agg, &mut cache, None)
        .map_err(at("bootstrap solve"))?;
    lay.add(WARM_BOOTSTRAP, t);
    let mut st = StreamResult {
        initial_cost: c0,
        placement: placement.switches().to_vec(),
        epochs: Vec::new(),
        total_cost: c0,
        resolves: 0,
        resolves_skipped: 0,
        drift_total: 0,
        deltas_total: 0,
    };
    let every = cfg.checkpoint_every.max(1);
    let mut rates_buf: Vec<u64> = Vec::new();
    for epoch in 1..=n_hours {
        let e0 = Instant::now();
        let t = Instant::now();
        let batch: Vec<RateDelta> = trace
            .try_rate_deltas(epoch)
            .map_err(at("try_rate_deltas"))?
            .iter()
            .map(|&(flow, delta)| RateDelta { flow, delta })
            .collect();
        lay.add(TRAFFIC_DELTAS, t);
        let t = Instant::now();
        let report = flows.ingest(&batch).map_err(at("ingest"))?;
        lay.sample(INGEST, t);
        let t = Instant::now();
        agg.try_apply_mass_deltas(dm, &report.masses, report.total_delta)
            .map_err(at("try_apply_mass_deltas"))?;
        cache.note_mass_deltas(&report.masses);
        lay.add(AGG_FOLD, t);
        deltas += report.applied;
        dirty_hosts += report.masses.len() as u64;
        tracker.ingest(report.drift);
        st.drift_total = st.drift_total.saturating_add(report.drift);
        st.deltas_total = st.deltas_total.saturating_add(report.applied);
        let t = Instant::now();
        let inc_cost = agg.comm_cost(dm, &placement);
        lay.add(AGG_PRICE, t);
        let (action, comm) = if !tracker.should_check() {
            st.resolves_skipped += 1;
            (EpochAction::SkippedLowDrift, inc_cost)
        } else {
            let t = Instant::now();
            let lb = placement_cost_lower_bound(dm, &agg, sfc.len());
            lay.add(LOWER_BOUND, t);
            let gap = inc_cost.saturating_sub(lb);
            if gap <= cfg.max_certified_gap {
                st.resolves_skipped += 1;
                tracker.reset();
                (EpochAction::SkippedCertified { gap }, inc_cost)
            } else {
                let t = Instant::now();
                flows.export_rates(&mut rates_buf);
                w_cur.set_rates(&rates_buf).map_err(at("set_rates"))?;
                lay.add(RATE_SYNC, t);
                let t = Instant::now();
                let (p, c) =
                    dp_placement_warm(g, dm, &w_cur, sfc, &agg, &mut cache, Some(&placement))
                        .map_err(at("warm re-solve"))?;
                lay.sample(WARM_RESOLVE, t);
                st.resolves += 1;
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
        if epoch % every == 0 || epoch == n_hours {
            let t = Instant::now();
            flows.export_rates(&mut rates_buf);
            let doc = StreamCheckpoint {
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
            }
            .to_json();
            lay.add(CKPT_ENCODE, t);
            let t = Instant::now();
            store.write_raw(&doc).map_err(at("checkpoint write"))?;
            lay.add(CKPT_WRITE, t);
            ckpt_bytes += doc.len() as u64;
        }
        epoch_ms.push(ms(e0.elapsed()));
    }
    let day_ms = ms(day0.elapsed());

    let mut vals = BTreeMap::new();
    for layer in [
        TRAFFIC_DELTAS,
        STORE_BUILD,
        INGEST,
        RATE_SYNC,
        AGG_BUILD,
        AGG_FOLD,
        AGG_PRICE,
        LOWER_BOUND,
        WARM_BOOTSTRAP,
        WARM_RESOLVE,
        CKPT_FINGERPRINT,
        CKPT_ENCODE,
        CKPT_WRITE,
    ] {
        vals.insert(layer, lay.ms(layer));
    }
    vals.insert("stream.ingest_p50_ms", lay.p50_ms(INGEST));
    vals.insert("warm.resolve_p50_ms", lay.p50_ms(WARM_RESOLVE));
    vals.insert("stream.deltas", deltas as f64);
    vals.insert("stream.dirty_hosts", dirty_hosts as f64);
    vals.insert("ckpt.bytes", ckpt_bytes as f64);
    vals.insert("epoch.p50_ms", median(&epoch_ms));
    vals.insert("epoch.max_ms", crate::report::max(&epoch_ms));
    vals.insert("epoch.samples", epoch_ms.len() as f64);
    vals.insert("traced_day_ms", day_ms);
    vals.insert("unattributed_ms", day_ms - lay.sum_ms());
    vals.insert("coverage", lay.sum_ms() / day_ms);
    Ok((st, vals))
}
