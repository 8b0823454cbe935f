//! `hourly-tom`: the Fig. 11 day through the crash-safe hourly engine
//! `run_day` / `resume_day` (mPareto at μ = 10⁴ under seeded faults).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ppdc_sim::checkpoint::fingerprint;
use ppdc_sim::{
    resume_day, run_day, Checkpoint, CheckpointStore, EngineConfig, FaultSimResult,
    MigrationPolicy, SimConfig,
};

use crate::inputs::{hourly_inputs, HourlyInputs, HOURLY_MU};
use crate::report::{at, mean, median, ms, timed, Outcome};
use crate::{per_layer, Window, SETUP_REPS};

/// The hour a crashed day halts after. `recovery_s` restarts from that
/// hour's snapshot and finishes the day (hours 7–12): a restart from the
/// last hour would time one hour's re-solve, which takes 30 or 300 ms
/// depending on the day, so its mean over a run's days would swing from
/// seed to seed.
const CRASH_HOUR: u32 = 6;

const SIM: SimConfig = SimConfig {
    mu: HOURLY_MU,
    vm_mu: HOURLY_MU,
    policy: MigrationPolicy::MPareto,
};

fn config(store: &CheckpointStore, observe: bool) -> EngineConfig {
    EngineConfig {
        observe,
        store: Some(store.clone()),
        ..EngineConfig::default()
    }
}

fn hours_of(inp: &HourlyInputs) -> u64 {
    u64::from(inp.trace.model().n_hours)
}

fn day(inp: &HourlyInputs, ecfg: &EngineConfig) -> Result<FaultSimResult, String> {
    let run = run_day(
        inp.ft.graph(),
        &inp.w,
        &inp.trace,
        &inp.sfc,
        &SIM,
        &inp.schedule,
        ecfg,
    )
    .map_err(at("run_day"))?;
    if !run.completed {
        return Err("run_day stopped early".to_string());
    }
    Ok(run.result)
}

/// A crashed day: `run_day` halted after [`CRASH_HOUR`] (the engine's crash
/// simulation), which leaves that hour's snapshot as the primary of `store`.
fn crash(inp: &HourlyInputs, store: &CheckpointStore) -> Result<(), String> {
    let ecfg = EngineConfig {
        stop_after: Some(CRASH_HOUR),
        ..config(store, false)
    };
    let run = run_day(
        inp.ft.graph(),
        &inp.w,
        &inp.trace,
        &inp.sfc,
        &SIM,
        &inp.schedule,
        &ecfg,
    )
    .map_err(at("run_day (crash)"))?;
    if run.completed {
        return Err("the crashed day ran to its end".to_string());
    }
    Ok(())
}

/// Restart after a crash: load the crash snapshot and finish the day.
fn recover(
    inp: &HourlyInputs,
    from: &CheckpointStore,
    store: &CheckpointStore,
) -> Result<FaultSimResult, String> {
    let (ck, _) = from.load().map_err(at("load checkpoint"))?;
    let run = resume_day(
        inp.ft.graph(),
        &inp.w,
        &inp.trace,
        &inp.sfc,
        &SIM,
        &inp.schedule,
        &config(store, false),
        &ck,
    )
    .map_err(at("resume_day"))?;
    if !run.completed {
        return Err("resume_day stopped early".to_string());
    }
    Ok(run.result)
}

/// An observed day with its per-hour phases removed, for comparison with
/// an unobserved one.
fn without_phases(mut r: FaultSimResult) -> FaultSimResult {
    for d in &mut r.degraded {
        d.phase = None;
    }
    r
}

/// The end-to-end run. Each round is a new day of the seed (the `run`-th
/// `standard_workload` and fault schedule): set-up, one day, an untimed
/// crashed day, and the recovery from its snapshot. Day and recovery times
/// depend on the instance (a day takes 2.1–3.8 s on a 2-vCPU Xeon), so a
/// run covers many instances: `day_s` is the median of its days,
/// `recovery_s` the mean of its recoveries.
pub fn run(seed: u64, window: &Window, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let store = CheckpointStore::new(dir.join("day").join("tom.ckpt"));
    let from = CheckpointStore::new(dir.join("crash").join("tom.ckpt"));
    let resumed = CheckpointStore::new(dir.join("resumed").join("tom.ckpt"));
    let (mut setups, mut days, mut recoveries, mut costs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let clock = Instant::now();
    for round in 0u64.. {
        if !window.more(&clock, days.len()) {
            break;
        }
        // A set-up takes about 2 ms: several per round steady its median.
        let mut inp = None;
        for _ in 0..SETUP_REPS {
            drop(inp.take());
            let (built, d) = timed(|| hourly_inputs(seed, round));
            setups.push(d.as_secs_f64());
            inp = Some(built);
        }
        let inp = inp.expect("SETUP_REPS >= 1");
        let n = hours_of(&inp);
        let (res, d) = timed(|| day(&inp, &config(&store, false)));
        out.attempted += n;
        let res = match res {
            Ok(r) => r,
            Err(e) => {
                out.check(false, n, e);
                break;
            }
        };
        days.push(d.as_secs_f64());
        costs.push(res.total_cost as f64);
        let resumed_hours = n - u64::from(CRASH_HOUR);
        out.attempted += resumed_hours;
        if let Err(e) = crash(&inp, &from) {
            out.check(false, resumed_hours, e);
            break;
        }
        let (rec, d) = timed(|| recover(&inp, &from, &resumed));
        match rec {
            Ok(r) => {
                recoveries.push(d.as_secs_f64());
                out.check(
                    r == res,
                    resumed_hours,
                    format!("day {round}: resumed day differs from run_day"),
                );
            }
            Err(e) => out.check(false, resumed_hours, e),
        }
        if round == 0 {
            // Observation must not feed back into costs or placements.
            let observed = CheckpointStore::new(dir.join("observed").join("tom.ckpt"));
            out.attempted += n;
            match day(&inp, &config(&observed, true)) {
                Ok(r) => out.check(
                    without_phases(r) == res,
                    n,
                    "observed day's costs differ from the unobserved day",
                ),
                Err(e) => out.check(false, n, e),
            }
        }
    }
    if !days.is_empty() {
        eprintln!("samples: setup_s {setups:?} day_s {days:?} recovery_s {recoveries:?}");
        out.metric("setup_s", median(&setups), "s");
        out.metric("day_s", median(&days), "s");
        out.metric("recovery_s", mean(&recoveries), "s");
        out.metric("day_cost", mean(&costs), "cost");
    }
    out
}

/// The traced run reads the engine's own per-hour phases (`observe: true`)
/// and the obs registry; checkpoint calls the engine does not time are
/// timed from outside on the same inputs.
pub fn traced(seed: u64, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let inp = hourly_inputs(seed, 0);
    let n = hours_of(&inp);
    let store = CheckpointStore::new(dir.join("day").join("tom.ckpt"));
    let (reference, untraced) = timed(|| day(&inp, &config(&store, false)));
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
    let traced_store = CheckpointStore::new(dir.join("traced").join("tom.ckpt"));
    let (observed, traced_day) = timed(|| day(&inp, &config(&traced_store, true)));
    obs.disable();
    let snap = obs.snapshot();
    out.attempted += n;
    let observed = match observed {
        Ok(r) => r,
        Err(e) => {
            out.check(false, n, e);
            return out;
        }
    };
    let phases: Vec<_> = observed.degraded.iter().filter_map(|d| d.phase).collect();
    out.check(
        phases.len() as u64 == n,
        0,
        "observed day lacks per-hour phases",
    );
    out.check(
        without_phases(observed.clone()) == reference,
        n,
        "observed day's costs differ from the unobserved day",
    );

    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let span_ms = |name: &str| {
        snap.spans
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e6)
    };
    use ppdc_obs::names as on;
    let mut vals = BTreeMap::new();
    let sum = |f: fn(&ppdc_sim::PhaseNanos) -> u64| phases.iter().map(f).sum::<u64>() as f64 / 1e6;
    vals.insert("mpareto.ms", sum(|p| p.solver_ns));
    vals.insert("fault.apsp_rebuild_ms", sum(|p| p.apsp_ns));
    vals.insert("fault.aggregates_ms", sum(|p| p.aggregates_ns));
    vals.insert("fault.repair_ms", sum(|p| p.repair_ns));
    let hour_ms: Vec<f64> = phases
        .iter()
        .map(|p| (p.apsp_ns + p.aggregates_ns + p.solver_ns + p.repair_ns) as f64 / 1e6)
        .collect();
    vals.insert("epoch.p50_ms", median(&hour_ms));
    vals.insert("epoch.max_ms", crate::report::max(&hour_ms));
    vals.insert("epoch.samples", hour_ms.len() as f64);
    vals.insert("agg.build_ms", span_ms(on::AGG_BUILD_RESTRICTED));
    vals.insert("apsp.build_ms", span_ms(on::APSP_BUILD));
    vals.insert("agg.fold_ms", span_ms(on::AGG_APPLY_DELTAS));
    vals.insert("migration.count", observed.total_migrations as f64);
    let cost_b: u64 = observed.hours.iter().map(|h| h.migration_cost).sum();
    vals.insert("migration.cost_b", cost_b as f64 / HOURLY_MU as f64);
    for (metric, name) in [
        ("oracle.queries", on::ORACLE_QUERIES),
        ("dp.egress_pruned", on::SOLVER_DP_EGRESS_PRUNED),
        ("dp.orbit_pruned", on::SOLVER_DP_ORBIT_PRUNED),
        ("apsp.rows_dirty", on::APSP_ROWS_DIRTY),
        ("supervisor.retries", on::SUPERVISOR_RETRIES),
    ] {
        vals.insert(metric, counter(name) as f64);
    }
    let writes = counter(on::CKPT_WRITES) as f64;
    vals.insert("ckpt.write_ms", counter(on::CKPT_WRITE_NANOS) as f64 / 1e6);

    // The engine fingerprints its inputs once per day; time that call.
    let (_, fp) = timed(|| {
        fingerprint(
            inp.ft.graph(),
            &inp.w,
            &inp.trace,
            &inp.sfc,
            &SIM,
            &inp.schedule,
        )
    });
    vals.insert("ckpt.fingerprint_ms", ms(fp));
    // The engine does not time its snapshot encodes: re-encode the final
    // (largest) snapshot once per write, an upper bound on the day's total.
    match traced_store.load() {
        Ok((last, _)) => {
            let (doc, enc) = timed(|| last.to_json());
            vals.insert("ckpt.encode_ms", ms(enc) * writes);
            vals.insert("ckpt.bytes", doc.len() as f64 * writes);
        }
        Err(e) => out.check(false, 0, format!("final snapshot unreadable: {e}")),
    }

    let from = CheckpointStore::new(dir.join("crash").join("tom.ckpt"));
    let resumed = CheckpointStore::new(dir.join("resumed").join("tom.ckpt"));
    let resumed_hours = n - u64::from(CRASH_HOUR);
    out.attempted += resumed_hours;
    match crash(&inp, &from) {
        Ok(()) => {
            let (loaded, load) = timed(|| from.load());
            out.check(
                loaded.is_ok_and(|(ck, _): (Checkpoint, _)| ck.hour == CRASH_HOUR),
                resumed_hours,
                "crash snapshot does not hold the crash hour",
            );
            vals.insert("ckpt.load_ms", ms(load));
            match recover(&inp, &from, &resumed) {
                Ok(r) => out.check(
                    r == reference,
                    resumed_hours,
                    "resumed day differs from run_day",
                ),
                Err(e) => out.check(false, resumed_hours, e),
            }
        }
        Err(e) => out.check(false, resumed_hours, e),
    }

    // Disjoint parts of the day: the per-hour phases, full APSP builds
    // (hour 0 and the healthy baseline), the hour-0 aggregate build and the
    // checkpoint calls. The hour-0 solve stays unattributed: its span
    // shares a name with mPareto's inner solves.
    let traced_ms = ms(traced_day);
    let attributed: f64 = span_ms(on::AGG_BUILD)
        + [
            "mpareto.ms",
            "fault.apsp_rebuild_ms",
            "fault.aggregates_ms",
            "fault.repair_ms",
            "apsp.build_ms",
            "ckpt.write_ms",
            "ckpt.fingerprint_ms",
            "ckpt.encode_ms",
        ]
        .iter()
        .map(|k| vals.get(k).copied().unwrap_or(0.0))
        .sum::<f64>();
    vals.insert("traced_day_ms", traced_ms);
    vals.insert("unattributed_ms", traced_ms - attributed);
    vals.insert("coverage", attributed / traced_ms);
    vals.insert("trace_overhead_ms", traced_ms - ms(untraced));
    per_layer(&mut out, &vals);
    out
}
