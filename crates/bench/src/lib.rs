//! Shared helpers for the regenerator bins (`src/bin/*`): one per paper
//! table/figure and one per verify.sh gate. See DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded results; performance
//! itself is measured by `perf_report/`, which imports [`campaign`],
//! [`scalar_march`] and [`drive_store`] from here.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod gate;
pub mod scalar_march;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uintah::comm::{RequestStore, Tag};
use uintah::prelude::CommWorld;

/// Drive a request store with `nmsgs` messages processed by `nthreads`
/// workers while a producer sends; returns the wall time of the
/// post-and-process phase (the paper's "local communication time").
pub fn drive_store<S: RequestStore + 'static>(store: Arc<S>, nthreads: usize, nmsgs: usize) -> Duration {
    let world = CommWorld::new(2);
    let tx = world.communicator(0);
    let rx = world.communicator(1);
    // Post all receives (this is part of local comm in Uintah).
    let t0 = Instant::now();
    for i in 0..nmsgs {
        store.add(rx.irecv(0, Tag(i as u64)));
    }
    let processed = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for _ in 0..nthreads {
            let store = store.clone();
            let processed = processed.clone();
            s.spawn(move || {
                while processed.load(Ordering::Relaxed) < nmsgs {
                    let n = store.process_completed(&mut |_m| {});
                    if n == 0 {
                        std::thread::yield_now();
                    } else {
                        processed.fetch_add(n, Ordering::Relaxed);
                    }
                }
            });
        }
        s.spawn(move || {
            for i in 0..nmsgs {
                tx.isend(1, Tag(i as u64), bytes::Bytes::from_static(&[0u8; 256]));
            }
        });
    });
    t0.elapsed()
}

/// Median of `reps` runs of `f`.
pub fn median_time(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let mut times: Vec<Duration> = (0..reps).map(|_| f()).collect();
    times.sort();
    times[times.len() / 2]
}

/// Pretty seconds.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah::comm::WaitFreeRequestStore;

    #[test]
    fn drive_store_completes() {
        let d = drive_store(Arc::new(WaitFreeRequestStore::new()), 2, 200);
        assert!(d.as_nanos() > 0);
    }
}
