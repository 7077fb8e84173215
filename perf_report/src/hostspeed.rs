//! Host-speed normalisation of the ray-engine-bound timings.
//!
//! This benchmark runs on small shared hosts whose cores switch between
//! discrete speed states for seconds at a time (on the 2-vCPU host it was
//! written on, identical serial ray tracing alternates between ~21 ms and
//! ~27 ms: run-to-run spreads of 10-16 % on raw medians, which would hide
//! any 10 % regression). A fixed calibration kernel with the marcher's
//! instruction mix tracks those states almost exactly (correlation 0.87;
//! the spread of the ratio is 2 %), so on the workloads whose time is ray
//! tracing — `trace_*` and `serve_closed2` — every operation is bracketed
//! by two calibration samples and its wall is scaled by
//! `NOMINAL_NS / measured_ns`: the reported milliseconds are what the
//! operation would take at the nominal host speed. The 2-rank `step_*`
//! workloads are memory- and synchronisation-bound; their time does not
//! follow the kernel (normalising them doubled their spread), so they are
//! reported on the raw clock. Comparisons between two commits on one host
//! keep their meaning; absolute values on another host are scaled by that
//! host's calibration time. Raw medians are printed beside the normalised
//! ones. README.md has the measurements behind this.

use std::time::Instant;

/// What one calibration sample takes at nominal speed (the fast state of
/// the host this was sized on). Frozen: changing it rescales every timing.
pub const NOMINAL_NS: f64 = 3.0e6;

const TABLE_LEN: usize = 8192;
const ITERATIONS: u32 = 400_000;

/// Frozen mix of what the program's hot loops do: integer RNG, a table
/// load, an `exp`, a dependent multiply-add. Do not "optimise" it.
#[inline(never)]
fn kernel(table: &[f64; TABLE_LEN]) -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for _ in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let t = table[(x as usize) & (TABLE_LEN - 1)] + (x >> 40) as f64 * 1e-9;
        acc += (-t).exp() * 0.5 + acc * 1e-9;
    }
    acc
}

/// Samples the calibration kernel and turns consecutive samples into the
/// speed factor of the interval between them.
pub struct HostSpeed {
    table: Box<[f64; TABLE_LEN]>,
    last_ns: f64,
}

impl HostSpeed {
    /// Takes the first sample (call right before the first timed interval).
    pub fn start() -> Self {
        let mut table = Box::new([0.0f64; TABLE_LEN]);
        for (i, t) in table.iter_mut().enumerate() {
            *t = i as f64 * 1e-4;
        }
        let mut this = Self {
            table,
            last_ns: 0.0,
        };
        this.last_ns = this.sample_ns();
        this
    }

    fn sample_ns(&self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(kernel(&self.table));
        t0.elapsed().as_nanos() as f64
    }

    /// Re-take the opening sample (after an untimed gap).
    pub fn resync(&mut self) {
        self.last_ns = self.sample_ns();
    }

    /// Close the interval since the previous sample: returns the factor to
    /// multiply its wall time by (`< 1` while the host runs slow).
    pub fn factor(&mut self) -> f64 {
        let now_ns = self.sample_ns();
        let factor = NOMINAL_NS / (0.5 * (self.last_ns + now_ns));
        self.last_ns = now_ns;
        factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_near_the_sample_ratio() {
        let mut host = HostSpeed::start();
        let f = host.factor();
        assert!(f.is_finite() && f > 0.0);
        // Two samples microseconds apart see the same host state (debug
        // builds run the kernel slower; only consistency is checked).
        host.resync();
        let g = host.factor();
        assert!((f / g - 1.0).abs() < 0.5, "{f} vs {g}");
    }
}
