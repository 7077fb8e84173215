//! The zero-drift audit of a finished GPU run's device meters: every
//! device's `used` equals the bytes its warehouse databases hold, the
//! sub-allocator's free list is coherent, no per-patch entry outlived its
//! task (every task removes what it stages, so the patch databases are
//! empty and nothing is stranded in host spill), and clearing the level
//! databases returns every device to 0 B.

use uintah::runtime::WorldResult;

/// Panic on the first meter that drifted in `result`; `label` names the
/// run in the message. Clears every rank's level databases.
pub fn assert_meters_drain(result: &WorldResult, label: &str) {
    for rr in &result.ranks {
        let g = rr.gpu.as_ref().expect("gpu attached");
        for d in 0..g.num_devices() {
            assert_eq!(
                g.patch_entries_on(d),
                0,
                "{label}: rank {} device {d}: per-patch entries outlived their tasks",
                rr.rank
            );
            let dev = g.device_at(d);
            if let Err(e) = dev.validate_allocator() {
                panic!("{label}: rank {} device {d}: {e}", rr.rank);
            }
            assert_eq!(
                dev.counters().used,
                g.resident_bytes_on(d) as u64,
                "{label}: rank {} device {d}: meter used != DB-resident bytes",
                rr.rank
            );
        }
        assert_eq!(g.spill_entries(), 0, "{label}: rank {}: variables stranded in host spill", rr.rank);
        g.clear_level_db();
        for d in 0..g.num_devices() {
            assert_eq!(
                g.device_at(d).used(),
                0,
                "{label}: rank {} device {d}: bytes left after clearing the DBs",
                rr.rank
            );
        }
    }
}
