//! The one collective in-process ranks share, an element-wise all-reduce.
//! Each [`CommWorld`](crate::CommWorld) owns one, so its halt can wake a
//! rank waiting here for a peer that will never contribute.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

struct VecReduceState {
    acc: Vec<f64>,
    count: usize,
    result: Arc<Vec<f64>>,
    generation: u64,
}

/// Element-wise all-reduce (sum) of one `Vec<f64>` per rank; every caller
/// gets a shared handle to the same summed vector.
///
/// This is the cost exchange before a rebalance: each rank contributes its
/// measured per-patch costs (zeros for patches it does not own) and reads
/// back the global dense cost vector — identical on every rank, so each can
/// run the regridder independently and all agree on the new distribution.
pub(crate) struct AllReduceVec {
    lock: Mutex<VecReduceState>,
    cvar: Condvar,
    nranks: usize,
}

impl AllReduceVec {
    pub(crate) fn new(nranks: usize) -> Self {
        assert!(nranks > 0);
        Self {
            lock: Mutex::new(VecReduceState {
                acc: Vec::new(),
                count: 0,
                result: Arc::new(Vec::new()),
                generation: 0,
            }),
            cvar: Condvar::new(),
            nranks,
        }
    }

    /// Contribute `values`; blocks until all ranks contribute and returns
    /// the element-wise sum, or `None` once `halted` is set first. All
    /// ranks must pass equal-length vectors.
    pub(crate) fn sum(&self, values: &[f64], halted: &AtomicBool) -> Option<Arc<Vec<f64>>> {
        let mut state = self.lock.lock();
        let gen = state.generation;
        if state.count == 0 {
            state.acc = vec![0.0; values.len()];
        }
        assert_eq!(
            state.acc.len(),
            values.len(),
            "ranks disagree on reduce vector length"
        );
        for (a, &x) in state.acc.iter_mut().zip(values) {
            *a += x;
        }
        state.count += 1;
        if state.count == self.nranks {
            state.result = Arc::new(std::mem::take(&mut state.acc));
            state.count = 0;
            state.generation += 1;
            self.cvar.notify_all();
        }
        while state.generation == gen {
            // Read under the lock that `wake` takes after setting the flag:
            // a halt cannot slip between this check and the wait.
            if halted.load(Ordering::Acquire) {
                return None;
            }
            self.cvar.wait(&mut state);
        }
        Some(Arc::clone(&state.result))
    }

    /// Wake every waiter so it re-reads its halt flag. Call after setting
    /// the flag.
    pub(crate) fn wake(&self) {
        let _state = self.lock.lock();
        self.cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_collectives_trivial() {
        let rv = AllReduceVec::new(1);
        let halted = AtomicBool::new(false);
        assert_eq!(*rv.sum(&[1.0, 2.0], &halted).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn allreduce_vec_sums_elementwise_and_reuses() {
        let r = Arc::new(AllReduceVec::new(3));
        let halted = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for rank in 0..3usize {
            let (r, halted) = (Arc::clone(&r), Arc::clone(&halted));
            handles.push(std::thread::spawn(move || {
                let mut rounds = Vec::new();
                for round in 0..5 {
                    // Rank owns slot `rank`: contributes only there (the
                    // per-patch cost exchange pattern).
                    let mut v = vec![0.0; 3];
                    v[rank] = (rank * 100 + round) as f64;
                    rounds.push(r.sum(&v, &halted).unwrap());
                }
                rounds
            }));
        }
        let all: Vec<Vec<Arc<Vec<f64>>>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for round in 0..5 {
            let expect: Vec<f64> = (0..3).map(|rank| (rank * 100 + round) as f64).collect();
            for per_rank in &all {
                assert_eq!(*per_rank[round], expect);
            }
        }
    }
}
