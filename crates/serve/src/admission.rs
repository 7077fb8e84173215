//! Admission control: decide from the fleet's capacity meters whether a
//! job may start now or must queue.
//!
//! The controller is deliberately conservative: it admits on an *upper
//! bound* of the job's device residency (level replicas on every device of
//! every rank's warehouse, plus fully ghosted per-patch staging on the
//! fine level), so an admitted job can always complete without relying on
//! LRU eviction. Jobs whose bound exceeds what
//! is currently free are **queued**, not failed. Jobs whose bound exceeds
//! the fleet's *total* capacity never reach this controller: submission
//! rejects them with a typed error ([`RejectCode::TooLarge`]) — they could
//! never run, and queuing them forever would wedge the tier behind them.
//!
//! [`RejectCode::TooLarge`]: crate::protocol::RejectCode::TooLarge

use uintah::config::RunConfig;
use uintah_grid::Grid;

/// Bytes per cell of the three level-replica fields a device keeps
/// resident per level: `abskg` (f64) + `sigmaT4OverPi` (f64) +
/// `cellType` (u8).
const REPLICA_BYTES_PER_CELL: u64 = 8 + 8 + 1;

/// Bytes per cell of a fine patch's ghosted input staging (same three
/// fields, over the halo-grown window).
const STAGING_BYTES_PER_CELL: u64 = 8 + 8 + 1;

/// Bytes per cell of a fine patch's divQ output window.
const OUTPUT_BYTES_PER_CELL: u64 = 8;

/// Upper bound on the device bytes a job can have resident at once on the
/// server's shared fleet.
///
/// * **Level replicas** — each rank's GPU warehouse keeps its own
///   replica entry per (level, device it stages patches on). With sticky
///   affinity spreading a rank's patches across the whole fleet, the
///   worst case is every rank replicating every level on every device:
///   `ranks × devices × Σ_levels cells × 17 B`.
/// * **Per-patch staging** — transient within a step, bounded by every
///   fine patch staged at once: halo-grown inputs plus the interior
///   output window.
///
/// CPU-only jobs have zero device footprint.
pub(crate) fn estimate_device_footprint(cfg: &RunConfig, grid: &Grid, ndevices: usize) -> u64 {
    if !cfg.gpu {
        return 0;
    }
    let mut replicas = 0u64;
    for level in grid.levels() {
        replicas += level.cell_region().volume() as u64 * REPLICA_BYTES_PER_CELL;
    }
    replicas *= (cfg.ranks as u64) * (ndevices as u64);
    let mut staging = 0u64;
    let fine = grid.fine_level_index();
    for patch in grid.all_patches() {
        if patch.level_index() != fine {
            continue;
        }
        let interior = patch.interior();
        let ghosted = interior.grown(cfg.halo);
        staging += ghosted.volume() as u64 * STAGING_BYTES_PER_CELL
            + interior.volume() as u64 * OUTPUT_BYTES_PER_CELL;
    }
    replicas + staging
}

/// The controller's verdict for one job at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Run now: the footprint fits in what the meters say is free.
    Admit,
    /// Does not fit the current headroom — wait for a completion (or an
    /// idle-slot reclaim) to free device bytes.
    Defer,
}

/// Decide admission for a job of `footprint` bytes, which submission has
/// already checked against `total_capacity`.
///
/// * `total_capacity` — the fleet's summed device capacity;
/// * `reserved` — footprints of currently running jobs (the ledger of
///   future growth, since a job admitted a moment ago may not have
///   uploaded anything yet);
/// * `idle_resident` — bytes still resident in idle executor slots
///   (reclaimable by dropping those slots);
/// * `reusable_resident` — the portion of `idle_resident` held by a slot
///   this job would itself reuse. Those bytes are *part of* the job's
///   footprint (inherited replicas), not competition for it, so they are
///   credited back.
pub(crate) fn decide(
    footprint: u64,
    total_capacity: u64,
    reserved: u64,
    idle_resident: u64,
    reusable_resident: u64,
) -> Admission {
    let committed = reserved + idle_resident.saturating_sub(reusable_resident);
    if footprint <= total_capacity.saturating_sub(committed) {
        Admission::Admit
    } else {
        Admission::Defer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_jobs_have_zero_footprint() {
        let cfg = RunConfig::default();
        assert!(!cfg.gpu);
        let (grid, _) = cfg.build_problem();
        assert_eq!(estimate_device_footprint(&cfg, &grid, 4), 0);
    }

    #[test]
    fn footprint_scales_with_ranks_and_devices() {
        let cfg = RunConfig {
            gpu: true,
            ..RunConfig::default()
        };
        let (grid, _) = cfg.build_problem();
        let f1 = estimate_device_footprint(&cfg, &grid, 1);
        let f2 = estimate_device_footprint(&cfg, &grid, 2);
        assert!(f1 > 0);
        assert!(f2 > f1, "more devices, more worst-case replicas");
        let cfg4 = RunConfig { ranks: 4, ..cfg };
        assert!(estimate_device_footprint(&cfg4, &grid, 1) > f1);
    }

    #[test]
    fn footprint_bounds_measured_residency() {
        // The bound must dominate what a real single-tenant run actually
        // keeps resident, or admission could let a job OOM.
        let cfg = RunConfig {
            gpu: true,
            fine_cells: 16,
            patch_size: 4,
            ranks: 1,
            threads: 1,
            nrays: 1,
            ..RunConfig::default()
        };
        let (grid, decls) = cfg.build_problem();
        let bound = estimate_device_footprint(&cfg, &grid, 1);
        let result =
            uintah_runtime::run_world(grid, decls, cfg.world_config());
        let peak: usize = result.ranks[0]
            .gpu
            .as_ref()
            .expect("gpu run")
            .fleet()
            .devices()
            .iter()
            .map(|d| d.peak())
            .sum();
        assert!(
            bound >= peak as u64,
            "estimate {bound} must bound measured peak {peak}"
        );
    }

    #[test]
    fn footprint_bounds_every_served_gpu_shape() {
        // The same bound on the server's shared fleet, where every rank's
        // warehouse stages onto the same devices. Each shape runs alone on
        // a fresh server, so the fleet's high-water marks are that one
        // job's residency.
        for ranks in [1, 2] {
            for gpus in [1, 2] {
                for levels in [2, 3] {
                    let cfg = RunConfig {
                        gpu: true,
                        fine_cells: 16,
                        patch_size: 4,
                        levels,
                        refinement_ratio: 2,
                        ranks,
                        threads: 2,
                        nrays: 1,
                        ..RunConfig::default()
                    };
                    let (grid, _) = cfg.build_problem();
                    let bound = estimate_device_footprint(&cfg, &grid, gpus);
                    let server = crate::RadiationServer::start(crate::ServeConfig {
                        workers: 1,
                        gpus,
                        ..crate::ServeConfig::default()
                    });
                    server.submit(cfg).unwrap().wait().expect_done();
                    server.shutdown();
                    let peak: usize = server.fleet().devices().iter().map(|d| d.peak()).sum();
                    assert!(
                        bound >= peak as u64,
                        "{ranks} ranks x {gpus} devices x {levels} levels: \
                         estimate {bound} must bound measured peak {peak}"
                    );
                }
            }
        }
    }

    #[test]
    fn decision_tiers() {
        // Fits free space outright.
        assert_eq!(decide(100, 1000, 0, 0, 0), Admission::Admit);
        // Fits the fleet, not the headroom: queue.
        assert_eq!(decide(600, 1000, 500, 0, 0), Admission::Defer);
        // Idle residency counts against headroom...
        assert_eq!(decide(600, 1000, 0, 500, 0), Admission::Defer);
        // ...unless it belongs to the slot the job reuses.
        assert_eq!(decide(600, 1000, 0, 500, 500), Admission::Admit);
        // Bigger than the machine: never admitted (submission refuses it
        // before it can queue).
        assert_eq!(decide(1001, 1000, 0, 0, 0), Admission::Defer);
    }
}
