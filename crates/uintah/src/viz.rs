//! Lightweight field visualization: 2-D slices of cell-centred fields as
//! PPM images (for a quick look), the miniature stand-in for Uintah's
//! VisIt output path.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use uintah_grid::{CcVariable, IntVector};

/// Extract the 2-D slice of `var` at `index` along `axis`
/// (0 = x, 1 = y, 2 = z). Returns `(rows, cols, values)` with values in
/// row-major order; the two remaining axes keep their natural order.
pub fn slice(var: &CcVariable<f64>, axis: usize, index: i32) -> (usize, usize, Vec<f64>) {
    assert!(axis < 3, "axis must be 0..3");
    let r = var.region();
    assert!(
        index >= r.lo()[axis] && index < r.hi()[axis],
        "slice index {index} outside axis range"
    );
    let (a1, a2) = match axis {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    let rows = r.extent()[a2] as usize;
    let cols = r.extent()[a1] as usize;
    let mut out = Vec::with_capacity(rows * cols);
    for j in r.lo()[a2]..r.hi()[a2] {
        for i in r.lo()[a1]..r.hi()[a1] {
            let mut c = IntVector::ZERO;
            c[axis] = index;
            c[a1] = i;
            c[a2] = j;
            out.push(var[c]);
        }
    }
    (rows, cols, out)
}

/// A five-stop heat colormap (dark blue → cyan → green → yellow → red).
fn colormap(t: f64) -> [u8; 3] {
    const STOPS: [(f64, [f64; 3]); 5] = [
        (0.00, [13.0, 8.0, 135.0]),
        (0.25, [84.0, 2.0, 163.0]),
        (0.50, [219.0, 92.0, 104.0]),
        (0.75, [249.0, 164.0, 63.0]),
        (1.00, [240.0, 249.0, 33.0]),
    ];
    let t = t.clamp(0.0, 1.0);
    let mut out = [0u8; 3];
    for k in 0..4 {
        let (t0, c0) = STOPS[k];
        let (t1, c1) = STOPS[k + 1];
        if t <= t1 || k == 3 {
            let f = ((t - t0) / (t1 - t0)).clamp(0.0, 1.0);
            for (o, (a, b)) in out.iter_mut().zip(c0.iter().zip(c1.iter())) {
                *o = (a + f * (b - a)).round() as u8;
            }
            return out;
        }
    }
    out
}

/// Write a slice as a binary PPM (P6) image, auto-scaled to the slice's
/// min/max. Returns the `(min, max)` used for the scale.
pub fn write_slice_ppm(
    path: impl AsRef<Path>,
    var: &CcVariable<f64>,
    axis: usize,
    index: i32,
) -> io::Result<(f64, f64)> {
    let (rows, cols, vals) = slice(var, axis, index);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &vals {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let mut w = BufWriter::new(File::create(path)?);
    write!(w, "P6\n{cols} {rows}\n255\n")?;
    // Image rows top-to-bottom = slice rows reversed (y up).
    for rrow in (0..rows).rev() {
        for c in 0..cols {
            let t = (vals[rrow * cols + c] - lo) / span;
            w.write_all(&colormap(t))?;
        }
    }
    w.flush()?;
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_grid::Region;

    fn field() -> CcVariable<f64> {
        let mut v = CcVariable::<f64>::new(Region::cube(4));
        v.fill_with(|c| (c.x + 10 * c.y + 100 * c.z) as f64);
        v
    }

    #[test]
    fn slice_extracts_the_right_plane() {
        let v = field();
        let (rows, cols, vals) = slice(&v, 2, 1); // z = 1 plane
        assert_eq!((rows, cols), (4, 4));
        // vals[row=y][col=x] = x + 10y + 100
        assert_eq!(vals[0], 100.0);
        assert_eq!(vals[1], 101.0);
        assert_eq!(vals[4], 110.0);
        let (_, _, xs) = slice(&v, 0, 3); // x = 3 plane: rows=z, cols=y
        assert_eq!(xs[0], 3.0);
        assert_eq!(xs[1], 13.0);
    }

    #[test]
    #[should_panic(expected = "outside axis range")]
    fn out_of_range_slice_rejected() {
        slice(&field(), 2, 9);
    }

    #[test]
    fn ppm_has_correct_header_and_size() {
        let v = field();
        let path = std::env::temp_dir().join(format!("rmcrt_viz_{}.ppm", std::process::id()));
        let (lo, hi) = write_slice_ppm(&path, &v, 1, 2).unwrap();
        assert!(lo < hi);
        let bytes = std::fs::read(&path).unwrap();
        let header = b"P6\n4 4\n255\n";
        assert_eq!(&bytes[..header.len()], header);
        assert_eq!(bytes.len(), header.len() + 4 * 4 * 3);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn colormap_ends_and_monotone_red() {
        assert_eq!(colormap(0.0), [13, 8, 135]);
        assert_eq!(colormap(1.0), [240, 249, 33]);
        // Red channel grows monotonically through the first four stops
        // (it dips slightly into the final yellow, as in plasma).
        let mut prev = 0u8;
        for i in 0..=15 {
            let c = colormap(i as f64 * 0.05);
            assert!(c[0] >= prev, "red not monotone at {i}");
            prev = c[0];
        }
    }
}
