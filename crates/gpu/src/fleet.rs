//! The per-rank device fleet and its patch→device rule.
//!
//! The paper runs one K20X per Titan node, but its central memory design —
//! one shared per-level replica *per GPU* — was built to generalize to fat
//! nodes (Summit packs 6 GPUs per rank). A [`DeviceFleet`] is the rank's
//! set of [`GpuDevice`]s: each device keeps its own capacity meter, its own
//! pair of copy-engine timelines and (in the data warehouse) its own patch
//! and level databases, so kernel launches and D2H drains on different
//! devices proceed concurrently — the same patch-level parallelism the
//! paper wins across nodes, recovered inside one node.
//!
//! Scheduling onto the fleet follows one rule: a deterministic
//! multiplicative hash of the patch id ([`sticky_device`]) pins each patch
//! to one device for the whole run, identically on every rank. Sticky
//! assignment is what makes the per-device level databases pay off: a
//! patch task always finds its coarse replicas resident on *its* device.

use crate::device::{DeviceCounters, Dir, GpuDevice};
use uintah_grid::PatchId;

/// Index of a device within a rank's fleet.
pub type DeviceId = usize;

/// A rank's set of simulated GPUs. Cheap to clone (devices share their
/// accounting internally).
#[derive(Clone, Debug)]
pub struct DeviceFleet {
    devices: Vec<GpuDevice>,
}

impl DeviceFleet {
    /// A fleet of `n` identical devices with `capacity` bytes each.
    /// `n == 1` reproduces the single-K20X Titan node exactly.
    pub fn with_capacity(n: usize, name: &'static str, capacity: usize) -> Self {
        assert!(n >= 1, "a fleet needs at least one device");
        Self {
            devices: (0..n).map(|_| GpuDevice::with_capacity(name, capacity)).collect(),
        }
    }

    /// A Summit-style fleet: `n` K20X-capacity devices (the simulated
    /// budget stays 6 GB per device regardless of fleet size).
    pub fn k20x(n: usize) -> Self {
        Self::with_capacity(n, "Tesla K20X", 6 * 1024 * 1024 * 1024)
    }

    /// Wrap an existing device as a single-device fleet.
    pub fn single(device: GpuDevice) -> Self {
        Self {
            devices: vec![device],
        }
    }

    #[inline]
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    #[inline]
    pub fn device(&self, id: DeviceId) -> &GpuDevice {
        &self.devices[id]
    }

    #[inline]
    pub fn devices(&self) -> &[GpuDevice] {
        &self.devices
    }

    /// The sticky home device for `patch`: a deterministic multiplicative
    /// hash (Fibonacci hashing) of the patch id, identical on every rank.
    pub fn sticky_device(&self, patch: PatchId) -> DeviceId {
        sticky_device(patch, self.devices.len())
    }

    /// Block until every device's `dir` copy-engine timeline is empty (the
    /// fleet-wide `cudaDeviceSynchronize` analogue at step boundaries):
    /// every posted transfer has landed, not necessarily been consumed.
    pub fn sync_all(&self, dir: Dir) {
        for d in &self.devices {
            d.sync(dir);
        }
    }

    /// One counter snapshot per device, in device order.
    pub fn counters_per_device(&self) -> Vec<DeviceCounters> {
        self.devices.iter().map(|d| d.counters()).collect()
    }

    /// Bytes currently allocated across the whole fleet.
    pub fn total_used(&self) -> usize {
        self.devices.iter().map(|d| d.used()).sum()
    }

    /// Total capacity across the fleet's devices.
    pub fn total_capacity(&self) -> usize {
        self.devices.iter().map(|d| d.capacity()).sum()
    }
}

/// Deterministic sticky patch→device hash shared by every rank: Fibonacci
/// multiplicative hashing of the patch id folded onto `n` devices.
pub fn sticky_device(patch: PatchId, n: usize) -> DeviceId {
    if n <= 1 {
        return 0;
    }
    let h = (patch.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (h % n as u64) as DeviceId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_devices_are_independent() {
        let fleet = DeviceFleet::with_capacity(3, "test", 1000);
        let b0 = fleet.device(0).alloc_block(800).unwrap();
        // Device 1's capacity meter is untouched by device 0's reservation.
        let b1 = fleet.device(1).alloc_block(800).unwrap();
        assert!(fleet.device(0).alloc_block(800).is_err());
        assert_eq!(fleet.total_used(), 1600);
        drop((b0, b1));
        assert_eq!(fleet.total_used(), 0);
        assert_eq!(fleet.counters_per_device().len(), 3);
    }

    #[test]
    fn sticky_hash_is_deterministic_and_spreads() {
        let fleet = DeviceFleet::k20x(4);
        let mut seen = vec![0usize; 4];
        for p in 0..64u32 {
            let d = fleet.sticky_device(PatchId(p));
            assert_eq!(d, fleet.sticky_device(PatchId(p)), "hash must be stable");
            assert!(d < 4);
            seen[d] += 1;
        }
        // 64 patches over 4 devices: every device gets a share.
        assert!(seen.iter().all(|&c| c > 0), "hash left a device idle: {seen:?}");
        // Single-device fleets trivially map everything to device 0.
        assert_eq!(sticky_device(PatchId(7), 1), 0);
    }
}
