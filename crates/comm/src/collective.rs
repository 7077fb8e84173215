//! The one collective in-process ranks share: an element-wise all-reduce,
//! which the driver uses for the per-patch cost exchange before a rebalance
//! and for the ranks' agreement on a stop between timesteps.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

struct VecReduceInner {
    lock: Mutex<VecReduceState>,
    cvar: Condvar,
    nranks: usize,
}

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
#[derive(Clone)]
pub struct AllReduceVec {
    inner: Arc<VecReduceInner>,
}

impl AllReduceVec {
    pub fn new(nranks: usize) -> Self {
        assert!(nranks > 0);
        Self {
            inner: Arc::new(VecReduceInner {
                lock: Mutex::new(VecReduceState {
                    acc: Vec::new(),
                    count: 0,
                    result: Arc::new(Vec::new()),
                    generation: 0,
                }),
                cvar: Condvar::new(),
                nranks,
            }),
        }
    }

    /// Contribute `values`; blocks until all ranks contribute; returns the
    /// element-wise sum. All ranks must pass equal-length vectors.
    pub fn sum(&self, values: &[f64]) -> Arc<Vec<f64>> {
        let mut state = self.inner.lock.lock();
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
        if state.count == self.inner.nranks {
            state.result = Arc::new(std::mem::take(&mut state.acc));
            state.count = 0;
            state.generation += 1;
            self.inner.cvar.notify_all();
            Arc::clone(&state.result)
        } else {
            while state.generation == gen {
                self.inner.cvar.wait(&mut state);
            }
            Arc::clone(&state.result)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_collectives_trivial() {
        let rv = AllReduceVec::new(1);
        assert_eq!(*rv.sum(&[1.0, 2.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn allreduce_vec_sums_elementwise_and_reuses() {
        let r = AllReduceVec::new(3);
        let mut handles = Vec::new();
        for rank in 0..3usize {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                let mut rounds = Vec::new();
                for round in 0..5 {
                    // Rank owns slot `rank`: contributes only there (the
                    // per-patch cost exchange pattern).
                    let mut v = vec![0.0; 3];
                    v[rank] = (rank * 100 + round) as f64;
                    rounds.push(r.sum(&v));
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
