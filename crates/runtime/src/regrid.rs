//! Ownership migration after a regrid/rebalance.
//!
//! When the load balancer produces a new [`PatchDistribution`], every rank
//! compares old and new ownership and moves the current-epoch warehouse
//! contents of every patch it lost to the patch's new owner — Uintah's
//! data-migration phase after `Regridder::regrid`. The wire protocol reuses
//! the ghost-exchange codec: one bundle per
//! migrated patch carrying every per-patch variable, sent under a reserved
//! tag namespace so migration traffic can never match graph receives.
//!
//! The protocol is deadlock-free on the eager fabric: every rank posts all
//! of its sends first (`isend` completes at post time; unexpected messages
//! queue at the receiver), then polls its receives — until they all land
//! or the world halts, since a failed peer may never reach its sends.

use crate::dw::DataWarehouse;
use crate::task::TaskDecl;
use std::collections::HashMap;
use std::time::Duration;
use uintah_comm::{Communicator, RecvRequest, Tag};
use uintah_grid::{PatchDistribution, PatchId, VarLabel};

/// Reserved var-id for migration bundles (graph tags use real label ids,
/// which are application-assigned small integers; 0xFF is the level-bundle
/// marker).
pub(crate) const MIGRATE_VAR_ID: u8 = 0xFE;

/// Reserved destination-patch marker for migration tags, disjoint from the
/// graph's level-window (0xFF_FF00) and bundle (0xFF_FE00) namespaces.
pub(crate) const MIGRATE_DST_MARKER: u32 = 0xFF_FD00;

/// The tag carrying patch `pid`'s migration bundle. The distribution
/// generation rides in the phase byte so a migration can never match a
/// stale receive from an earlier regrid.
pub(crate) fn migrate_tag(pid: PatchId, generation: u64) -> Tag {
    Tag::compose(MIGRATE_VAR_ID, pid.0, MIGRATE_DST_MARKER, (generation % 256) as u8)
}

/// What one regrid did on one rank, folded into the next step's
/// [`ExecStats`](crate::scheduler::ExecStats) by the persistent executor.
#[derive(Clone, Debug, Default)]
pub struct RegridEvent {
    /// Distribution generation this regrid opened.
    pub generation: u64,
    /// Patches this rank owned before and handed away.
    pub patches_out: usize,
    /// Patches this rank gained and received data for.
    pub patches_in: usize,
    /// Total migration payload bytes this rank sent.
    pub migrated_bytes: u64,
    /// Wall time of the migration exchange (serialize + send + receive +
    /// install).
    pub migrate_wall: Duration,
    /// In-flight async D2H transfers settled before the migration.
    pub drained_d2h: usize,
    /// GPU per-patch staging entries evicted.
    pub gpu_patch_evicted: usize,
    /// GPU device-resident level replicas evicted (re-uploaded in full on
    /// first post-regrid use).
    pub gpu_level_evicted: usize,
    /// Fleet devices the eviction touched (only devices home to a patch
    /// whose owner changed; the rest keep their resident replicas).
    pub gpu_devices_evicted: usize,
}

/// Var-id → label map over every label the task list can publish — the
/// receive side of self-describing migration bundles.
pub(crate) fn label_map(decls: &[TaskDecl]) -> HashMap<u8, VarLabel> {
    let mut map = HashMap::new();
    for d in decls {
        for c in &d.computes {
            let l = match *c {
                crate::task::Computes::PatchVar(l) => l,
                crate::task::Computes::LevelWindow(l, _) => l,
            };
            map.insert(l.id(), l);
        }
        for r in &d.requires {
            let l = r.label();
            map.insert(l.id(), l);
        }
    }
    map
}

/// Move the current-epoch per-patch contents of every patch whose owner
/// changed between `old` and `new`. Symmetric: every rank of the world must
/// call this with the same `(old, new, generation)`. Returns
/// `(patches_out, patches_in, bytes_sent)`, early (with gained patches
/// missing) if the world halts.
pub(crate) fn migrate_patch_vars(
    comm: &Communicator,
    dw: &DataWarehouse,
    old: &PatchDistribution,
    new: &PatchDistribution,
    labels: &HashMap<u8, VarLabel>,
    generation: u64,
) -> (usize, usize, u64) {
    let me = comm.rank();

    // Sends first: eager isend means every outbound bundle completes at
    // post time, so no rank can block another's send phase.
    let mut patches_out = 0usize;
    let mut bytes_out = 0u64;
    for &pid in old.owned_by(me) {
        let dst = new.rank_of(pid);
        if dst == me {
            continue;
        }
        patches_out += 1;
        let entries = dw.take_patch_entries(pid);
        let wire: Vec<(u8, u8, bytes::Bytes)> = entries
            .iter()
            .map(|(l, data)| (l.id(), 0u8, crate::codec::encode_window(data, &data.region())))
            .collect();
        // An empty bundle is still sent: the new owner posts exactly one
        // receive per gained patch and must not hang on a patch that had
        // nothing published this epoch.
        let payload = crate::codec::encode_bundle(&wire);
        bytes_out += payload.len() as u64;
        comm.isend(dst, migrate_tag(pid, generation), payload);
    }

    // Then receive everything we gained, installing under the current epoch
    // as each bundle lands.
    let mut gained: Vec<(PatchId, RecvRequest)> = new
        .owned_by(me)
        .iter()
        .filter(|&&pid| old.rank_of(pid) != me)
        .map(|&pid| (pid, comm.irecv(old.rank_of(pid), migrate_tag(pid, generation))))
        .collect();
    let patches_in = gained.len();
    while !gained.is_empty() && !comm.world().halted() {
        let before = gained.len();
        gained.retain(|(pid, req)| {
            let Some(msg) = req.take() else { return true };
            for (var_id, _level, _region, data) in crate::codec::decode_bundle(&msg.payload) {
                let label = *labels
                    .get(&var_id)
                    .expect("migrated var id unknown to the task list");
                dw.put_patch(label, *pid, data);
            }
            false
        });
        if gained.len() == before {
            std::thread::yield_now();
        }
    }

    (patches_out, patches_in, bytes_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uintah_grid::{CcVariable, FieldData, Grid, IntVector};

    const KAPPA: VarLabel = VarLabel::new("abskg", 0);
    const CELLTYPE: VarLabel = VarLabel::new("cellType", 2);

    fn grid1() -> Arc<Grid> {
        Arc::new(
            Grid::builder()
                .fine_cells(IntVector::splat(16))
                .num_levels(1)
                .fine_patch_size(IntVector::splat(8))
                .build(),
        )
    }

    fn test_labels() -> HashMap<u8, VarLabel> {
        HashMap::from([(KAPPA.id(), KAPPA), (CELLTYPE.id(), CELLTYPE)])
    }

    #[test]
    fn migrate_tags_disjoint_from_graph_namespaces() {
        let t = migrate_tag(PatchId(3), 1);
        assert_eq!(t.phase(), 1);
        // Distinct from itself under a different generation and a
        // different patch.
        assert_ne!(t, migrate_tag(PatchId(3), 2));
        assert_ne!(t, migrate_tag(PatchId(4), 1));
    }

    /// A `u8` pattern that differs cell to cell and patch to patch.
    fn cell_type(pid: PatchId, c: IntVector) -> u8 {
        (pid.0 as i32 * 31 + c.x + 3 * c.y + 7 * c.z) as u8
    }

    #[test]
    fn two_rank_flip_moves_patch_data_bit_identically() {
        let grid = grid1();
        let n = grid.num_patches();
        let old = Arc::new(PatchDistribution::from_rank_of(
            2,
            (0..n).map(|i| (i % 2) as u32).collect(),
        ));
        let new = Arc::new(PatchDistribution::from_rank_of(
            2,
            (0..n).map(|i| ((i + 1) % 2) as u32).collect(),
        ));
        let world = uintah_comm::CommWorld::new(2);
        let mut handles = Vec::new();
        for rank in 0..2usize {
            let world = world.clone();
            let grid = Arc::clone(&grid);
            let (old, new) = (Arc::clone(&old), Arc::clone(&new));
            handles.push(std::thread::spawn(move || {
                let comm = world.communicator(rank);
                let dw = DataWarehouse::new(Arc::clone(&grid));
                for &pid in old.owned_by(rank) {
                    let patch = grid.patch(pid);
                    let mut v = CcVariable::<f64>::new(patch.interior());
                    v.fill_with(|c| (pid.0 * 1000) as f64 + (c.x + 10 * c.y + 100 * c.z) as f64);
                    dw.put_patch(KAPPA, pid, FieldData::F64(v));
                    let mut ct = CcVariable::<u8>::new(patch.interior());
                    ct.fill_with(|c| cell_type(pid, c));
                    dw.put_patch(CELLTYPE, pid, FieldData::U8(ct));
                }
                let (out, inn, bytes) =
                    migrate_patch_vars(&comm, &dw, &old, &new, &test_labels(), 1);
                assert_eq!(out, old.owned_by(rank).len());
                assert_eq!(inn, new.owned_by(rank).len());
                assert!(bytes > 0);
                // Every gained patch now holds the producer's exact values.
                for &pid in new.owned_by(rank) {
                    let patch = grid.patch(pid);
                    let k = dw.get_patch(KAPPA, pid).expect("migrated kappa");
                    for c in patch.interior().cells() {
                        assert_eq!(
                            k.as_f64()[c],
                            (pid.0 * 1000) as f64 + (c.x + 10 * c.y + 100 * c.z) as f64
                        );
                    }
                    let ct = dw.get_patch(CELLTYPE, pid).expect("migrated cellType");
                    for c in patch.interior().cells() {
                        assert_eq!(ct.as_u8()[c], cell_type(pid, c));
                    }
                }
                // And lost patches are gone from this rank.
                for &pid in old.owned_by(rank) {
                    assert!(dw.get_patch(KAPPA, pid).is_none());
                }
                assert_eq!(dw.stale_hits(), 0);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn patch_with_no_published_vars_sends_empty_bundle() {
        let grid = grid1();
        let n = grid.num_patches();
        let old = Arc::new(PatchDistribution::from_rank_of(2, vec![0; n]));
        let new = Arc::new(PatchDistribution::from_rank_of(2, vec![1; n]));
        let world = uintah_comm::CommWorld::new(2);
        let mut handles = Vec::new();
        for rank in 0..2usize {
            let world = world.clone();
            let grid = Arc::clone(&grid);
            let (old, new) = (Arc::clone(&old), Arc::clone(&new));
            handles.push(std::thread::spawn(move || {
                let comm = world.communicator(rank);
                let dw = DataWarehouse::new(Arc::clone(&grid));
                // Nothing published anywhere: receiver must still unblock.
                let (out, inn, _) =
                    migrate_patch_vars(&comm, &dw, &old, &new, &test_labels(), 1);
                if rank == 0 {
                    assert_eq!((out, inn), (grid.num_patches(), 0));
                } else {
                    assert_eq!((out, inn), (0, grid.num_patches()));
                    for &pid in new.owned_by(rank) {
                        assert!(dw.get_patch(KAPPA, pid).is_none());
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
