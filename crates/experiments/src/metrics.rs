//! Run-level metrics export and validation for the experiments CLI.
//!
//! `--metrics <path>` enables the [`ppdc_obs::global`] registry before any
//! figure runs and writes its [`Snapshot`](ppdc_obs::Snapshot) as JSON when
//! the suite finishes; `--check-metrics <path>` re-parses an emitted file
//! and verifies it carries the epoch hot path's phase keys — the CI gate
//! that keeps the instrumentation wired end to end.

use ppdc_obs::json::Value;
use ppdc_obs::{names, Snapshot, SCHEMA_VERSION};

/// Span keys a fault-sim run must have exercised: one per instrumented
/// phase of the epoch hot path (APSP rebuild, aggregate rebuild, the
/// mPareto solve, placement repair).
pub const REQUIRED_SPANS: &[&str] = &[
    names::APSP_BUILD,
    names::APSP_REBUILD,
    names::AGG_BUILD_RESTRICTED,
    names::AGG_APPLY_DELTAS,
    names::SOLVER_DP,
    names::SOLVER_MPARETO,
    names::SIM_DEGRADED_REBUILD,
    names::SIM_REPAIR,
    names::STREAM_INGEST,
];

/// Counter keys every observed run must carry.
pub const REQUIRED_COUNTERS: &[&str] = &[
    names::SIM_HOURS,
    names::SIM_EVENT_HOURS,
    names::SIM_BLACKOUT_HOURS,
    names::SIM_RECOVERY_MIGRATIONS,
    names::SIM_STRANDED_FLOW_HOURS,
    names::SOLVER_DP_EGRESS_PRUNED,
    names::SOLVER_DP_ORBIT_PRUNED,
    names::APSP_ROWS_DIRTY,
    names::ORACLE_QUERIES,
    names::SUPERVISOR_RETRIES,
    names::SUPERVISOR_DEGRADED_HOURS,
    names::CKPT_WRITES,
    names::CKPT_WRITE_NANOS,
    names::CKPT_RESTORES,
    names::CKPT_TORN_RECOVERIES,
    names::SIM_REROUTE_SKIPPED,
    names::STREAM_DRIFT,
    names::STREAM_DELTAS,
    names::STREAM_RESOLVES,
    names::STREAM_RESOLVES_SKIPPED,
    names::SOLVER_WARM_SEEDED,
    names::SOLVER_WARM_ROWS_DIRTY,
    names::SOLVER_WARM_ROWS_REUSED,
    names::SOLVER_WARM_EGRESS_SKIPPED,
];

/// Validates a `--metrics` JSON document: it must parse, carry the
/// [`SCHEMA_VERSION`] tag, hold every [`REQUIRED_SPANS`] /
/// [`REQUIRED_COUNTERS`] key (plus the per-hour solver histogram), and
/// record at least one simulated hour.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn validate_metrics_json(src: &str) -> Result<(), String> {
    let v = Snapshot::parse_json(src).map_err(|e| format!("invalid JSON: {e}"))?;
    match v.get("schema").and_then(Value::as_str) {
        Some(s) if s == SCHEMA_VERSION => {}
        Some(s) => return Err(format!("schema {s:?}, expected {SCHEMA_VERSION:?}")),
        None => return Err("missing \"schema\" tag".into()),
    }
    let spans = v
        .get("spans")
        .and_then(Value::as_obj)
        .ok_or("missing \"spans\" object")?;
    for &k in REQUIRED_SPANS {
        let s = spans.get(k).ok_or_else(|| format!("missing span {k:?}"))?;
        for field in ["count", "total_ns", "min_ns", "max_ns"] {
            if s.get(field).and_then(Value::as_u64).is_none() {
                return Err(format!("span {k:?} lacks u64 field {field:?}"));
            }
        }
    }
    let counters = v
        .get("counters")
        .and_then(Value::as_obj)
        .ok_or("missing \"counters\" object")?;
    for &k in REQUIRED_COUNTERS {
        if counters.get(k).and_then(Value::as_u64).is_none() {
            return Err(format!("missing counter {k:?}"));
        }
    }
    if counters.get(names::SIM_HOURS).and_then(Value::as_u64) == Some(0) {
        return Err("counter \"sim.hours\" is 0 — no hour was simulated".into());
    }
    let hists = v
        .get("histograms")
        .and_then(Value::as_obj)
        .ok_or("missing \"histograms\" object")?;
    let h = hists
        .get(names::SIM_HOUR_SOLVER_NS)
        .ok_or_else(|| format!("missing histogram {:?}", names::SIM_HOUR_SOLVER_NS))?;
    let bounds = h
        .get("bounds_ns")
        .and_then(Value::as_arr)
        .map(<[Value]>::len);
    let counts = h.get("counts").and_then(Value::as_arr).map(<[Value]>::len);
    match (bounds, counts) {
        (Some(b), Some(c)) if c == b + 1 => Ok(()),
        _ => Err("solver histogram bounds/counts shape mismatch".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_model::Sfc;
    use ppdc_sim::{
        simulate_with_faults_observed, FaultConfig, FaultSchedule, MigrationPolicy, SimConfig,
    };
    use ppdc_topology::FatTree;
    use ppdc_traffic::standard_workload;

    /// Acceptance: an observed fault-sim run exports a machine-readable
    /// per-phase summary that passes the full schema check.
    #[test]
    fn observed_fault_sim_emits_a_valid_metrics_summary() {
        let obs = ppdc_obs::global();
        obs.enable();
        let ft = FatTree::build(4).unwrap();
        let (w, trace) = standard_workload(&ft, 20, 3, 0);
        let sfc = Sfc::of_len(3).unwrap();
        let fc = FaultConfig {
            link_fail_per_hour: 0.05,
            switch_fail_per_hour: 0.02,
            repair_after: 2,
        };
        let schedule = FaultSchedule::generate(ft.graph(), trace.model().n_hours, &fc, 7);
        let cfg = SimConfig {
            mu: 100,
            vm_mu: 100,
            policy: MigrationPolicy::MPareto,
        };
        let r = simulate_with_faults_observed(ft.graph(), &w, &trace, &sfc, &cfg, &schedule, true)
            .unwrap();
        assert!(r.degraded.iter().all(|d| d.phase.is_some()));
        let json = obs.snapshot().to_json();
        obs.disable();
        validate_metrics_json(&json).expect("schema check");
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_metrics_json("not json").is_err());
        assert!(validate_metrics_json("{}").is_err());
        let wrong_schema =
            "{\"schema\": \"other/v9\", \"spans\": {}, \"counters\": {}, \"histograms\": {}}";
        assert!(validate_metrics_json(wrong_schema)
            .unwrap_err()
            .contains("schema"));
        // A fresh registry that only declared the keys still fails on
        // sim.hours == 0: declaring is not running.
        let r = ppdc_obs::Registry::new();
        r.declare(
            ppdc_obs::names::SPANS,
            ppdc_obs::names::COUNTERS,
            ppdc_obs::names::HISTS,
        );
        let json = r.snapshot().to_json();
        assert!(validate_metrics_json(&json)
            .unwrap_err()
            .contains("sim.hours"));
    }
}
