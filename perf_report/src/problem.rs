//! Inputs and references shared by the workloads: the hoisted two-level
//! Burns & Christon trace stacks, the optically thick enclosure, bit-exact
//! checksums, and the accuracy reference behind `divq_err_pct`.

use rmcrt_bench::scalar_march;
use rmcrt_core::props::WALL_CELL;
use rmcrt_core::solver::two_level_stack;
use rmcrt_core::{BurnsChriston, LevelProps, RmcrtParams, TraceLevel};
use uintah::prelude::{ops, ExecSpace, DIVQ};
use uintah_grid::{CcVariable, Grid, IntVector, Patch, Region, Vector};
use uintah_runtime::graph::ratio_between;
use uintah_runtime::WorldResult;

/// Order-independent bit-exact fingerprint of a field.
pub fn checksum(v: &[f64]) -> u64 {
    v.iter().fold(0u64, |acc, x| acc.wrapping_add(x.to_bits()))
}

/// One fine patch's hoisted trace inputs: its interior and the fine-level
/// properties over its region of interest (patch + halo).
pub struct PatchInputs {
    pub interior: Region,
    pub roi: LevelProps,
}

/// Everything a serial per-patch solve of the 2-level problem needs, built
/// once: the restricted coarse replica and each kept patch's ROI props.
/// Mirrors `rmcrt_core::tasks::reference_multilevel` so a hoisted solve is
/// bit-identical to the library's reference.
pub struct TwoLevel {
    pub coarse: LevelProps,
    pub patches: Vec<PatchInputs>,
}

impl TwoLevel {
    pub fn build(grid: &Grid, halo: i32, keep: impl Fn(&Patch) -> bool) -> Self {
        assert_eq!(
            grid.num_levels(),
            2,
            "the hoisted stack is the 2-level descent"
        );
        let problem = BurnsChriston::default();
        let fine_level = grid.fine_level();
        let fine_all = problem.props_for_level(fine_level);
        let coarse_level = grid.level(0);
        let rr = ratio_between(grid, grid.fine_level_index(), 0);
        let region = coarse_level.cell_region();
        let serial = ExecSpace::Serial;
        let coarse = LevelProps {
            region,
            anchor: coarse_level.anchor(),
            dx: coarse_level.dx(),
            abskg: ops::restrict_average(&serial, &fine_all.abskg, rr, region),
            sigma_t4_over_pi: ops::restrict_average(
                &serial,
                &fine_all.sigma_t4_over_pi,
                rr,
                region,
            ),
            cell_type: ops::restrict_cell_type(&serial, &fine_all.cell_type, rr, region),
        };
        let patches = fine_level
            .patches()
            .iter()
            .filter(|p| keep(p))
            .map(|p| {
                let roi = p.with_ghosts(halo).intersect(&fine_level.cell_region());
                PatchInputs {
                    interior: p.interior(),
                    roi: problem.props_for_region(fine_level, roi),
                }
            })
            .collect();
        Self { coarse, patches }
    }

    pub fn stack(&self, i: usize) -> [TraceLevel<'_>; 2] {
        let p = &self.patches[i];
        two_level_stack(&self.coarse, &p.roi, p.roi.region)
    }
}

/// Hot-walled, optically thick enclosure: uniform kappa = 8 medium inside a
/// one-cell emissive wall shell (the `ray_march_gate` geometry). Rays
/// extinguish in a few cells, so adaptive budgets stop early.
pub fn thick_enclosure(n: i32) -> LevelProps {
    let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 8.0, 0.9);
    let e = props.region.extent();
    for c in props.region.cells() {
        if c.x == 0 || c.y == 0 || c.z == 0 || c.x == e.x - 1 || c.y == e.y - 1 || c.z == e.z - 1 {
            props.cell_type[c] = WALL_CELL;
            props.abskg[c] = 0.8;
            props.sigma_t4_over_pi[c] = 1.7;
        }
    }
    props
}

pub fn single_level_stack(props: &LevelProps) -> [TraceLevel<'_>; 1] {
    [TraceLevel {
        props,
        roi: props.region,
    }]
}

/// The centre slab `divq_err_pct` is measured on: full x-y extent, `thick`
/// cells in z starting at the mid-plane. Thousands of cells, so the
/// error norm barely moves with the seed.
pub fn centre_slab(level: Region, thick: i32) -> Region {
    let (lo, hi) = (level.lo(), level.hi());
    let z0 = (lo.z + hi.z) / 2;
    Region::new(
        IntVector::new(lo.x, lo.y, z0),
        IntVector::new(hi.x, hi.y, (z0 + thick).min(hi.z)),
    )
}

/// Seed and timestep of every accuracy reference: fixed, so the reference
/// is the same for every `--seed`, and on a timestep no workload solves,
/// so its ray streams never coincide with a run's.
const REFERENCE_SEED: u64 = 0x00AC_C07A_7E5E_ED01;
const REFERENCE_TIMESTEP: u32 = 0x7FFF_FFFF;

pub fn reference_params(nrays: u32, threshold: f64) -> RmcrtParams {
    RmcrtParams {
        nrays,
        threshold,
        seed: REFERENCE_SEED,
        timestep: REFERENCE_TIMESTEP,
        ..Default::default()
    }
}

/// Many-ray solve of `slab` on the 2-level problem by the frozen scalar
/// marcher — independent of the packet engine under test.
pub fn slab_reference_two_level(
    grid: &Grid,
    halo: i32,
    slab: Region,
    params: &RmcrtParams,
) -> CcVariable<f64> {
    let inputs = TwoLevel::build(grid, halo, |p| p.interior().overlaps(&slab));
    let mut out = CcVariable::<f64>::new(slab);
    for i in 0..inputs.patches.len() {
        let region = inputs.patches[i].interior.intersect(&slab);
        let part = scalar_march::solve_region_scalar(&inputs.stack(i), region, params);
        out.copy_window(&part, &region);
    }
    out
}

/// Relative L2 error, in percent, of `solved` against `reference` over the
/// reference's region.
pub fn rel_l2_pct(solved: &CcVariable<f64>, reference: &CcVariable<f64>) -> f64 {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (c, &r) in reference.iter() {
        let d = solved[c] - r;
        num += d * d;
        den += r * r;
    }
    100.0 * (num / den).sqrt()
}

/// The fine-level divQ of a finished `run_world`, gathered from every
/// rank's warehouse into one dense field.
pub fn gather_divq(grid: &Grid, result: &WorldResult) -> CcVariable<f64> {
    let mut out = CcVariable::<f64>::new(grid.fine_level().cell_region());
    for rr in &result.ranks {
        for &pid in result.dist.owned_by(rr.rank) {
            let patch = grid.patch(pid);
            if patch.level_index() != grid.fine_level_index() {
                continue;
            }
            let v = rr
                .dw
                .get_patch(DIVQ, pid)
                .expect("divQ computed for every owned fine patch");
            out.copy_window(v.as_f64(), &patch.interior());
        }
    }
    out
}

/// Set-up check of the marcher against the frozen scalar one: Fixed mode on
/// a single-level stack is bit-identical by contract (on the 2-level stack
/// the last bits differ, so this is the only bitwise scalar reference).
pub fn scalar_bit_identity_holds(
    props: &LevelProps,
    nrays: u32,
    threshold: f64,
    seed: u64,
) -> bool {
    let stack = single_level_stack(props);
    let params = RmcrtParams {
        nrays,
        threshold,
        seed,
        ..Default::default()
    };
    let scalar = scalar_march::solve_region_scalar(&stack, props.region, &params);
    let packet = rmcrt_core::solve_region(&stack, props.region, &params);
    scalar
        .as_slice()
        .iter()
        .zip(packet.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcrt_core::tasks::{reference_multilevel, RmcrtPipeline};

    #[test]
    fn hoisted_two_level_solve_matches_the_library_reference_bit_for_bit() {
        let grid = BurnsChriston::small_grid(16, 8);
        let params = RmcrtParams {
            nrays: 4,
            threshold: 1e-3,
            seed: 11,
            ..Default::default()
        };
        let want = reference_multilevel(
            &grid,
            &RmcrtPipeline {
                params,
                halo: 2,
                problem: BurnsChriston::default(),
            },
        );
        let inputs = TwoLevel::build(&grid, 2, |_| true);
        let mut got = CcVariable::<f64>::new(grid.fine_level().cell_region());
        for i in 0..inputs.patches.len() {
            let part =
                rmcrt_core::solve_region(&inputs.stack(i), inputs.patches[i].interior, &params);
            got.copy_window(&part, &inputs.patches[i].interior);
        }
        assert_eq!(checksum(got.as_slice()), checksum(want.as_slice()));
        assert!(got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn slab_and_error_norm() {
        let slab = centre_slab(Region::cube(32), 4);
        assert_eq!(
            (slab.lo().z, slab.hi().z, slab.volume()),
            (16, 20, 32 * 32 * 4)
        );
        let reference = CcVariable::filled(Region::cube(2), 2.0);
        let mut solved = CcVariable::filled(Region::cube(4), 2.0);
        assert_eq!(rel_l2_pct(&solved, &reference), 0.0);
        solved[IntVector::new(0, 0, 0)] = 2.2; // one of 8 cells off by 10 %
        let want = 100.0 * (0.04f64 / 32.0).sqrt();
        assert!((rel_l2_pct(&solved, &reference) - want).abs() < 1e-9);
    }

    #[test]
    fn scalar_reference_is_bit_identical_on_single_level_stacks() {
        assert!(scalar_bit_identity_holds(&thick_enclosure(8), 8, 0.05, 3));
    }
}
