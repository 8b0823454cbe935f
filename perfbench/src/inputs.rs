//! Seeded inputs of the three workloads. The engines receive only what
//! these functions build; nothing here depends on the engines' outputs.

use ppdc_model::{Sfc, Workload};
use ppdc_sim::{FaultConfig, FaultSchedule};
use ppdc_topology::{FatTree, FatTreeOracle};
use ppdc_traffic::{
    generate_pairs, rng_for_run, standard_workload, DiurnalModel, DynamicTrace, PairPlacement,
    DEFAULT_MIX, STANDARD_CHURN,
};

/// VM pairs of `stream-fabric`.
pub const STREAM_PAIRS: usize = 1_000_000;
/// Fat-tree arity of `stream-fabric` (1,280 switches, 8,192 hosts).
pub const STREAM_K: usize = 32;
/// SFC length of `stream-fabric`.
pub const STREAM_SFC: usize = 4;
/// Fat-tree arity of `hourly-tom` (the paper's Fig. 11 setting).
pub const HOURLY_K: usize = 16;
/// VM pairs of `hourly-tom`.
pub const HOURLY_PAIRS: usize = 512;
/// SFC length of `hourly-tom`.
pub const HOURLY_SFC: usize = 7;
/// Migration coefficient μ of `hourly-tom`.
pub const HOURLY_MU: u64 = 10_000;

/// Inputs of one `stream-fabric` day.
pub struct StreamInputs {
    pub ft: FatTree,
    pub oracle: FatTreeOracle,
    pub w: Workload,
    pub trace: DynamicTrace,
    pub sfc: Sfc,
}

/// Builds the fabric, oracle, pairs and trace of `stream-fabric`:
/// `standard_workload` with the hotspot restriction lifted (pairs over all
/// racks, same RNG stream, 80 % rack locality, `DEFAULT_MIX` rates,
/// cohorts by location with east = the first half of the racks).
pub fn stream_inputs(seed: u64) -> StreamInputs {
    let ft = FatTree::build(STREAM_K).expect("k=32 is a valid fat-tree arity");
    let oracle = FatTreeOracle::new(&ft);
    let mut rng = rng_for_run(seed, 0);
    let w = generate_pairs(
        &ft,
        &PairPlacement::default(),
        &DEFAULT_MIX,
        STREAM_PAIRS,
        &mut rng,
    );
    let half = ft.num_racks() / 2;
    let east: Vec<bool> = w
        .flow_ids()
        .map(|f| ft.rack_of(w.endpoints(f).0) < half)
        .collect();
    let trace = DynamicTrace::with_cohorts(
        &w,
        DiurnalModel::default(),
        &DEFAULT_MIX,
        STANDARD_CHURN,
        east,
        &mut rng,
    );
    let sfc = Sfc::of_len(STREAM_SFC).expect("n=4 is a valid SFC length");
    StreamInputs {
        ft,
        oracle,
        w,
        trace,
        sfc,
    }
}

/// Inputs of one `hourly-tom` day. The engine builds its own APSP.
pub struct HourlyInputs {
    pub ft: FatTree,
    pub w: Workload,
    pub trace: DynamicTrace,
    pub sfc: Sfc,
    pub schedule: FaultSchedule,
}

/// Builds the fabric, pairs, trace and fault schedule of the `run`-th
/// `hourly-tom` day of `seed` (the paper averages Fig. 11 over such runs).
pub fn hourly_inputs(seed: u64, run: u64) -> HourlyInputs {
    let ft = FatTree::build(HOURLY_K).expect("k=16 is a valid fat-tree arity");
    let (w, trace) = standard_workload(&ft, HOURLY_PAIRS, seed, run);
    let schedule = FaultSchedule::generate(
        ft.graph(),
        trace.model().n_hours,
        &FaultConfig::default(),
        (seed << 16) ^ run,
    );
    let sfc = Sfc::of_len(HOURLY_SFC).expect("n=7 is a valid SFC length");
    HourlyInputs {
        ft,
        w,
        trace,
        sfc,
        schedule,
    }
}
