//! Exec-dispatched AMR operators.
//!
//! `uintah-grid` exports the pure per-cell kernels (`restrict_average_cell`
//! & friends) plus serial reference wrappers; this module is the dispatch
//! layer the hot paths use, running the identical kernels through
//! [`parallel_fill`] on any [`ExecSpace`]. Results
//! are bit-identical to the serial references on every space.

use crate::{parallel_fill, ExecSpace};
use uintah_grid::{restriction, CcVariable, IntVector, Region};

/// Volume-weighted fine→coarse averaging over `coarse_window`, dispatched
/// on `space`. See [`restriction::restrict_average`].
pub fn restrict_average(
    space: &ExecSpace,
    fine: &CcVariable<f64>,
    rr: IntVector,
    coarse_window: Region,
) -> CcVariable<f64> {
    parallel_fill(space, coarse_window, |cc| {
        restriction::restrict_average_cell(fine, rr, cc)
    })
}

/// Any-boundary-wins cell-type restriction over `coarse_window`, dispatched
/// on `space`. See [`restriction::restrict_cell_type`].
pub fn restrict_cell_type(
    space: &ExecSpace,
    fine: &CcVariable<u8>,
    rr: IntVector,
    coarse_window: Region,
) -> CcVariable<u8> {
    parallel_fill(space, coarse_window, |cc| {
        restriction::restrict_cell_type_cell(fine, rr, cc)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_gpu::GpuDevice;

    fn spaces() -> Vec<ExecSpace> {
        vec![
            ExecSpace::Serial,
            ExecSpace::Threads(3),
            ExecSpace::device(GpuDevice::with_capacity("test", 1 << 20)),
        ]
    }

    #[test]
    fn dispatched_operators_match_serial_references() {
        let rr = IntVector::splat(2);
        let fine_r = Region::cube(8);
        let mut fine = CcVariable::<f64>::new(fine_r);
        fine.fill_with(|c| ((c.x * 7 + c.y * 3 + c.z) as f64).sin());
        let mut types = CcVariable::<u8>::new(fine_r);
        types.fill_with(|c| u8::from(c.x == 0 || c.y == 7));
        let coarse_r = Region::cube(4);

        let avg_ref = restriction::restrict_average(&fine, rr, coarse_r);
        let ty_ref = restriction::restrict_cell_type(&types, rr, coarse_r);
        for space in spaces() {
            assert_eq!(restrict_average(&space, &fine, rr, coarse_r), avg_ref);
            assert_eq!(restrict_cell_type(&space, &types, rr, coarse_r), ty_ref);
        }
    }
}
