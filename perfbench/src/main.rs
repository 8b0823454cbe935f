//! One workload of the end-to-end epoch benchmark. `perfbench/run.py`
//! builds this binary and runs it once per workload, in its own process:
//!
//! ```text
//! perfbench --workload <stream-fabric|hourly-tom>
//!           --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! It prints `name = value unit` lines, then one JSON result line. With
//! `--trace 0` the metrics are the end-to-end ones (minus `peak_rss_mb`,
//! which the wrapper measures); with `--trace 1`, the per-layer split.
//! Exit code 1 when a correctness check failed.

mod hourly;
mod inputs;
mod report;
mod stream;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use ppdc_sim::CheckpointStore;

use report::Outcome;

/// Set-ups per end-to-end run (`stream-fabric`) or per day (`hourly-tom`);
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Days a `hourly-tom` run measures at least: one recovery sample each.
const HOURLY_DAYS: usize = 7;

/// Checkpoint store directories under `--work-dir`: the measured days,
/// the crash snapshots, the resumed days, and the traced or observed days.
const STORE_DIRS: &[&str] = &["day", "crash", "resumed", "replay", "traced", "observed"];

/// The measuring window of an end-to-end run: rounds (a day and its
/// recoveries) repeat while the window is open, and at least `min_rounds`
/// run even when that takes longer.
pub struct Window {
    seconds: f64,
    min_rounds: usize,
}

impl Window {
    /// Whether to measure another round: always until `min_rounds`, then
    /// while one more (at the mean pace so far) still ends in the window.
    pub fn more(&self, clock: &Instant, done: usize) -> bool {
        if done < self.min_rounds {
            return true;
        }
        let spent = clock.elapsed().as_secs_f64();
        spent + spent / done as f64 <= self.seconds
    }
}

/// Every per-layer metric, in print order, with its unit. Each traced run
/// prints all of them; a layer the workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("traffic.deltas_ms", "ms"),
    ("stream.store_build_ms", "ms"),
    ("stream.ingest_ms", "ms"),
    ("stream.ingest_p50_ms", "ms"),
    ("stream.deltas", "count"),
    ("stream.dirty_hosts", "count"),
    ("stream.rate_sync_ms", "ms"),
    ("agg.build_ms", "ms"),
    ("agg.fold_ms", "ms"),
    ("agg.price_ms", "ms"),
    ("dp.lower_bound_ms", "ms"),
    ("oracle.queries", "count"),
    ("dp.egress_pruned", "count"),
    ("dp.orbit_pruned", "count"),
    ("warm.bootstrap_ms", "ms"),
    ("warm.resolve_ms", "ms"),
    ("warm.resolve_p50_ms", "ms"),
    ("warm.seeded", "count"),
    ("warm.rows_dirty", "count"),
    ("warm.rows_reused", "count"),
    ("warm.egress_skipped", "count"),
    ("mpareto.ms", "ms"),
    ("apsp.build_ms", "ms"),
    ("fault.apsp_rebuild_ms", "ms"),
    ("apsp.rows_dirty", "count"),
    ("fault.aggregates_ms", "ms"),
    ("fault.repair_ms", "ms"),
    ("migration.count", "count"),
    ("migration.cost_b", "hops"),
    ("supervisor.retries", "count"),
    ("ckpt.fingerprint_ms", "ms"),
    ("ckpt.encode_ms", "ms"),
    ("ckpt.write_ms", "ms"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.load_ms", "ms"),
    ("epoch.p50_ms", "ms"),
    ("epoch.max_ms", "ms"),
    ("epoch.samples", "count"),
    ("traced_day_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("coverage", "ratio"),
    ("trace_overhead_ms", "ms"),
    ("epoch_fail_ratio", "ratio"),
];

/// Emits every per-layer metric from `vals` (0 for layers not measured).
pub fn per_layer(out: &mut Outcome, vals: &BTreeMap<&'static str, f64>) {
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    for &(name, unit) in PER_LAYER {
        let v = match name {
            "epoch_fail_ratio" => fail_ratio,
            _ => vals.get(name).copied().unwrap_or(0.0),
        };
        out.metric(name, v, unit);
    }
}

/// Copies a store's previous slot (the snapshot one epoch before the last)
/// to the primary slot of `to`: the on-disk state a crash during the final
/// epoch's write leaves behind.
pub fn copy_prev_slot(from: &CheckpointStore, to: &CheckpointStore) -> Result<(), String> {
    std::fs::copy(from.prev_path(), to.path())
        .map(drop)
        .map_err(|e| format!("copy previous checkpoint slot: {e}"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(flag, value);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or(format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: num("--trace")? == 1,
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = &args.work_dir;
    for sub in STORE_DIRS {
        if let Err(e) = std::fs::create_dir_all(dir.join(sub)) {
            eprintln!("perfbench: create {}: {e}", dir.join(sub).display());
            std::process::exit(2);
        }
    }
    let window = |min_rounds| Window {
        seconds: args.seconds,
        min_rounds,
    };
    let t0 = Instant::now();
    let out = match (args.workload.as_str(), args.trace) {
        ("stream-fabric", false) => stream::run(args.seed, &window(3), dir),
        ("hourly-tom", false) => hourly::run(args.seed, &window(HOURLY_DAYS), dir),
        ("stream-fabric", true) => stream::traced(args.seed, dir),
        ("hourly-tom", true) => hourly::traced(args.seed, dir),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} trace {} done in {:.1?}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        t0.elapsed()
    );
    out.print();
    if !out.correct() {
        std::process::exit(1);
    }
}
