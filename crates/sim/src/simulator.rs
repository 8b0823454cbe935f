//! The hourly TOP → TOM epoch loop.
//!
//! The loop builds the attach-cost aggregates **once** at hour 0 and then
//! folds each hour's rate deltas into them
//! ([`ppdc_placement::AttachAggregates::apply_rate_deltas`]): the VNF
//! policies (mPareto, Optimal, NoMigration) never rebuild the per-flow
//! sums mid-day. The VM-migration baselines (PLAN, MCF) rewrite VM→host
//! assignments instead of rates, which invalidates the aggregates — they
//! run flow-level after hour 0, exactly as before.

use ppdc_migration::{
    mcf_vm_migration, mpareto_with_agg, no_migration_with_agg, optimal_migration_with_agg,
    plan_vm_migration, MigrationError,
};
use ppdc_model::{MigrationCoefficient, Sfc, Workload};
use ppdc_placement::{dp_placement_warm, AttachAggregates, BoundCache};
use ppdc_topology::{Cost, DistanceOracle, Graph};
use ppdc_traffic::DynamicTrace;

/// Which adaptation mechanism runs each hour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// mPareto VNF migration (Algorithm 5).
    MPareto,
    /// Exact VNF migration (Algorithm 6) seeded by mPareto, with a
    /// branch-and-bound budget.
    OptimalVnf {
        /// Branch-and-bound expansion budget per hour.
        budget: u64,
    },
    /// PLAN VM migration \[17\].
    Plan {
        /// Uniform per-host VM slots.
        slots: u32,
        /// Improvement passes per hour.
        passes: usize,
    },
    /// MCF VM migration \[24\].
    Mcf {
        /// Uniform per-host VM slots.
        slots: u32,
        /// Candidate hosts considered per VM.
        candidates: usize,
    },
    /// Keep everything where TOP put it.
    NoMigration,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// VNF migration coefficient `μ` (paper: 10⁴–10⁵).
    pub mu: MigrationCoefficient,
    /// VM migration coefficient for the PLAN/MCF baselines (VM and VNF
    /// images are both ~100 MB, so defaults equal to `mu`).
    pub vm_mu: MigrationCoefficient,
    /// The adaptation policy under test.
    pub policy: MigrationPolicy,
}

/// One simulated hour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HourRecord {
    /// Hour index (1..=N; hour 0 is the initial TOP placement).
    pub hour: u32,
    /// Migration cost paid this hour (`C_b` or VM moves).
    pub migration_cost: Cost,
    /// Communication cost for the hour's rates.
    pub comm_cost: Cost,
    /// `migration_cost + comm_cost`.
    pub total_cost: Cost,
    /// VNFs or VMs moved this hour.
    pub num_migrations: usize,
}

/// A full day of simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The TOP placement built at hour 0 and its cost.
    pub initial_cost: Cost,
    /// Hour-by-hour records (hours 1..=N).
    pub hours: Vec<HourRecord>,
    /// Sum of all hourly totals (the Fig. 11(a) y-axis).
    pub total_cost: Cost,
    /// Total migrations across the day (the Fig. 11(b) y-axis).
    pub total_migrations: usize,
    /// How many times the attach-cost aggregates were built from scratch.
    /// Stays 1 for a whole day: hour 0 builds them, every later hour only
    /// folds rate deltas in.
    pub aggregate_rebuilds: usize,
}

/// Runs one day: TOP at hour 0 on the trace's hour-0 rates, then the
/// policy at every subsequent hour.
///
/// # Errors
///
/// Propagates solver failures (budget exhaustion, infeasible MCF, …).
pub fn simulate<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &SimConfig,
) -> Result<SimResult, MigrationError> {
    let mut w = w.clone();
    w.set_rates(&trace.rates_at(0))?;
    let mut agg = AttachAggregates::build(g, dm, &w);
    let aggregate_rebuilds = 1;
    // The fabric is fixed all day, so one solver session serves every
    // hourly Algorithm 3 solve and never needs invalidating.
    let mut cache = BoundCache::new();
    let (mut p, initial_cost) = dp_placement_warm(g, dm, &w, sfc, &agg, &mut cache, None)?;
    // PLAN/MCF migrate VMs: their endpoint rewrites invalidate the
    // aggregates, and the policies work on per-VM sums anyway.
    let maintains_agg = matches!(
        cfg.policy,
        MigrationPolicy::MPareto
            | MigrationPolicy::OptimalVnf { .. }
            | MigrationPolicy::NoMigration
    );
    let n_hours = trace.model().n_hours;
    let mut hours = Vec::with_capacity(n_hours as usize);
    let mut total_cost = 0;
    let mut total_migrations = 0;
    for h in 1..=n_hours {
        if maintains_agg {
            let deltas = trace.rate_deltas(h);
            w.set_rates(&trace.rates_at(h))?;
            agg.apply_rate_deltas(dm, &w, &deltas);
        } else {
            w.set_rates(&trace.rates_at(h))?;
        }
        let rec = match cfg.policy {
            MigrationPolicy::MPareto => {
                let out = mpareto_with_agg(g, dm, &w, sfc, &p, cfg.mu, &agg, &mut cache)?;
                p = out.migration.clone();
                HourRecord {
                    hour: h,
                    migration_cost: out.migration_cost,
                    comm_cost: out.comm_cost,
                    total_cost: out.total_cost,
                    num_migrations: out.num_migrations,
                }
            }
            MigrationPolicy::OptimalVnf { budget } => {
                let seed = mpareto_with_agg(g, dm, &w, sfc, &p, cfg.mu, &agg, &mut cache)?;
                let out = optimal_migration_with_agg(
                    g,
                    dm,
                    sfc,
                    &p,
                    cfg.mu,
                    Some(&seed.migration),
                    budget,
                    &agg,
                )?;
                p = out.migration.clone();
                HourRecord {
                    hour: h,
                    migration_cost: out.migration_cost,
                    comm_cost: out.comm_cost,
                    total_cost: out.total_cost,
                    num_migrations: out.num_migrations,
                }
            }
            MigrationPolicy::Plan { slots, passes } => {
                let out = plan_vm_migration(g, dm, &w, &p, cfg.vm_mu, slots, passes);
                w = out.workload.clone();
                HourRecord {
                    hour: h,
                    migration_cost: out.migration_cost,
                    comm_cost: out.comm_cost,
                    total_cost: out.total_cost,
                    num_migrations: out.num_migrations,
                }
            }
            MigrationPolicy::Mcf { slots, candidates } => {
                let out = mcf_vm_migration(g, dm, &w, &p, cfg.vm_mu, slots, candidates)?;
                w = out.workload.clone();
                HourRecord {
                    hour: h,
                    migration_cost: out.migration_cost,
                    comm_cost: out.comm_cost,
                    total_cost: out.total_cost,
                    num_migrations: out.num_migrations,
                }
            }
            MigrationPolicy::NoMigration => {
                let c = no_migration_with_agg(dm, &agg, &p);
                HourRecord {
                    hour: h,
                    migration_cost: 0,
                    comm_cost: c,
                    total_cost: c,
                    num_migrations: 0,
                }
            }
        };
        total_cost += rec.total_cost;
        total_migrations += rec.num_migrations;
        hours.push(rec);
    }
    Ok(SimResult {
        initial_cost,
        hours,
        total_cost,
        total_migrations,
        aggregate_rebuilds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_topology::{DistanceMatrix, FatTree};
    use ppdc_traffic::standard_workload;

    fn setup() -> (FatTree, DistanceMatrix, Workload, DynamicTrace, Sfc) {
        let ft = FatTree::build(4).unwrap();
        let dm = DistanceMatrix::build(ft.graph());
        let (w, trace) = standard_workload(&ft, 12, 99, 0);
        let sfc = Sfc::of_len(3).unwrap();
        (ft, dm, w, trace, sfc)
    }

    fn run(policy: MigrationPolicy) -> SimResult {
        let (ft, dm, w, trace, sfc) = setup();
        let cfg = SimConfig {
            mu: 100,
            vm_mu: 100,
            policy,
        };
        simulate(ft.graph(), &dm, &w, &trace, &sfc, &cfg).unwrap()
    }

    #[test]
    fn all_policies_complete_a_day() {
        for policy in [
            MigrationPolicy::MPareto,
            MigrationPolicy::OptimalVnf { budget: 50_000_000 },
            MigrationPolicy::Plan {
                slots: 4,
                passes: 5,
            },
            MigrationPolicy::Mcf {
                slots: 4,
                candidates: 8,
            },
            MigrationPolicy::NoMigration,
        ] {
            let r = run(policy);
            assert_eq!(r.hours.len(), 12, "{policy:?}");
            assert_eq!(
                r.total_cost,
                r.hours.iter().map(|h| h.total_cost).sum::<Cost>()
            );
            for rec in &r.hours {
                assert_eq!(rec.total_cost, rec.migration_cost + rec.comm_cost);
            }
        }
    }

    #[test]
    fn aggregates_are_built_exactly_once_per_day() {
        for policy in [
            MigrationPolicy::MPareto,
            MigrationPolicy::OptimalVnf { budget: 50_000_000 },
            MigrationPolicy::Plan {
                slots: 4,
                passes: 5,
            },
            MigrationPolicy::Mcf {
                slots: 4,
                candidates: 8,
            },
            MigrationPolicy::NoMigration,
        ] {
            let r = run(policy);
            assert_eq!(r.aggregate_rebuilds, 1, "{policy:?}");
        }
    }

    #[test]
    fn incremental_aggregates_match_per_hour_rebuilds() {
        // The simulator's delta-fed loop must reproduce, cost for cost,
        // the naive flow-level loop that re-solves each hour from scratch.
        let (ft, dm, w, trace, sfc) = setup();
        let cfg = SimConfig {
            mu: 100,
            vm_mu: 100,
            policy: MigrationPolicy::MPareto,
        };
        let r = simulate(ft.graph(), &dm, &w, &trace, &sfc, &cfg).unwrap();
        let mut w2 = w.clone();
        w2.set_rates(&trace.rates_at(0)).unwrap();
        let (mut p, initial) = ppdc_placement::dp_placement(ft.graph(), &dm, &w2, &sfc).unwrap();
        assert_eq!(initial, r.initial_cost);
        for h in 1..=trace.model().n_hours {
            let w3 = {
                let mut w3 = w2.clone();
                w3.set_rates(&trace.rates_at(h)).unwrap();
                w3
            };
            let out = ppdc_migration::mpareto(ft.graph(), &dm, &w3, &sfc, &p, cfg.mu).unwrap();
            p = out.migration.clone();
            let rec = &r.hours[(h - 1) as usize];
            assert_eq!(rec.migration_cost, out.migration_cost, "hour {h}");
            assert_eq!(rec.comm_cost, out.comm_cost, "hour {h}");
        }
    }

    #[test]
    fn no_migration_never_migrates() {
        let r = run(MigrationPolicy::NoMigration);
        assert_eq!(r.total_migrations, 0);
        assert!(r.hours.iter().all(|h| h.migration_cost == 0));
    }

    #[test]
    fn mpareto_beats_or_matches_no_migration() {
        let a = run(MigrationPolicy::MPareto);
        let b = run(MigrationPolicy::NoMigration);
        // Hour by hour mPareto can pay migration, but it only moves when
        // C_t improves over staying — so the sum never loses.
        assert!(
            a.total_cost <= b.total_cost,
            "mPareto {} vs NoMigration {}",
            a.total_cost,
            b.total_cost
        );
    }

    #[test]
    fn optimal_vnf_beats_or_matches_mpareto() {
        let a = run(MigrationPolicy::OptimalVnf { budget: 50_000_000 });
        let b = run(MigrationPolicy::MPareto);
        assert!(a.total_cost <= b.total_cost);
    }

    #[test]
    fn deterministic() {
        let a = run(MigrationPolicy::MPareto);
        let b = run(MigrationPolicy::MPareto);
        assert_eq!(a.total_cost, b.total_cost);
        assert_eq!(a.total_migrations, b.total_migrations);
    }
}
