//! Hardware constants of the modeled machine, and the single calibration
//! path that derives them from a measured [`CalibrationSnapshot`].

use uintah_runtime::CalibrationSnapshot;


/// Which request-store implementation the modeled runtime uses; scales the
/// per-message CPU cost and its serialization across threads (calibrated
//  against the `request_store` microbenchmark — see EXPERIMENTS.md).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreModel {
    /// Mutex-protected vector + Testsome: message processing serializes on
    /// the lock, so effective concurrency is ~1 regardless of threads.
    MutexVector,
    /// Wait-free pool: message processing scales with the worker threads.
    WaitFreePool,
}

/// Model parameters for one Titan-like node and its network.
///
/// Network and node figures are from the paper's Titan footnote; GPU and
/// per-message costs are calibration constants (documented and pinned in
/// EXPERIMENTS.md) — absolute outputs are model estimates, shapes are the
/// reproduction target.
#[derive(Clone, Copy, Debug)]
pub struct MachineParams {
    /// Worker threads per node (the paper uses 16, one per Opteron core).
    pub cpu_threads: usize,
    /// Network latency (s). Titan Gemini: 1.4 µs.
    pub net_latency: f64,
    /// Peak injection bandwidth per node (B/s). Titan: 20 GB/s.
    pub injection_bw: f64,
    /// Effective PCIe bandwidth per copy engine (B/s). Gen2 x16 ≈ 6 GB/s.
    pub pcie_bw: f64,
    /// Fixed kernel launch + stream overhead (s).
    pub kernel_launch: f64,
    /// Peak GPU ray-march throughput (cell-steps/s) at full occupancy.
    pub gpu_cellsteps_per_s: f64,
    /// Patch size (cells) at which the GPU reaches half its peak
    /// throughput — small patches under-fill the K20X (paper §V point 1).
    pub gpu_halfsat_cells: f64,
    /// CPU property-initialization rate per core (cells/s).
    pub cpu_init_cells_per_s: f64,
    /// Ray-march throughput of one CPU core (cell-steps/s), for the
    /// CPU-only mode (the paper's predecessor \[5\] ran RMCRT on 256K CPU
    /// cores). Calibrated from the host ray-march rate (EXPERIMENTS.md E8).
    pub cpu_cellsteps_per_s: f64,
    /// CPU cost to post or process one message (s) with the wait-free
    /// store; the mutex store pays the same per message but serialized.
    pub msg_cpu_cost: f64,
    /// Rays per cell (the benchmarks use 100).
    pub nrays: f64,
}

impl MachineParams {
    /// Titan XK7 defaults.
    pub fn titan() -> Self {
        Self {
            cpu_threads: 16,
            net_latency: 1.4e-6,
            injection_bw: 20e9,
            pcie_bw: 6e9,
            kernel_launch: 20e-6,
            // The march is memory-latency-bound (scattered reads of abskg /
            // sigmaT4 per cell-step). A K20X sustains a few 1e8 cell-steps/s
            // at full occupancy — calibrated so the LARGE-problem timestep
            // at 4096 GPUs lands in the paper's ~10 s regime (EXPERIMENTS.md).
            gpu_cellsteps_per_s: 3.0e8,
            gpu_halfsat_cells: 16_384.0,
            cpu_init_cells_per_s: 30e6,
            // One Opteron-class core marches ~10⁷ cell-steps/s (memory
            // bound); 16 cores ≈ 1/2 of a saturated K20X, matching the
            // paper's observation that >90% of Titan's FLOPS are on GPUs.
            cpu_cellsteps_per_s: 1.0e7,
            msg_cpu_cost: 2.0e-6,
            nrays: 100.0,
        }
    }

    /// A Summit-class node, the machine the paper anticipates ("the
    /// planned DOE Summit and Sierra machines"): modeled as one endpoint
    /// per GPU (Summit schedules one rank per GPU), V100-class throughput
    /// (~6x a K20X on this memory-bound kernel via HBM2), NVLink-class
    /// host links (~4x PCIe gen2 per direction), a fat-tree network with
    /// lower latency and higher injection bandwidth, and beefier cores.
    pub fn summit() -> Self {
        Self {
            cpu_threads: 7, // 42 cores / 6 GPUs per node
            net_latency: 1.0e-6,
            injection_bw: 25e9, // per-GPU share of the dual EDR NICs + NVLink
            pcie_bw: 24e9,      // NVLink 2.0 per direction (3 bricks)
            kernel_launch: 10e-6,
            gpu_cellsteps_per_s: 1.8e9, // V100 HBM2 ≈ 6x K20X on this kernel
            gpu_halfsat_cells: 32_768.0, // bigger GPU needs more work to fill
            cpu_init_cells_per_s: 60e6,
            cpu_cellsteps_per_s: 2.0e7,
            msg_cpu_cost: 1.0e-6,
            nrays: 100.0,
        }
    }

    /// GPU throughput for a kernel over `cells` cells: saturating
    /// utilization curve `peak · cells / (cells + halfsat)`.
    pub fn gpu_throughput(&self, cells: f64) -> f64 {
        self.gpu_cellsteps_per_s * cells / (cells + self.gpu_halfsat_cells)
    }

    /// Modeled mean DDA steps per ray for a fine ROI of `roi_cells_1d`
    /// cells across and a coarse level `coarse_1d` across: mean chord on
    /// the fine ROI plus the coarse remainder (threshold-limited).
    pub fn steps_per_ray(&self, roi_cells_1d: f64, coarse_1d: f64) -> f64 {
        0.75 * roi_cells_1d + 0.5 * coarse_1d
    }

    /// Derive machine rates from a measured [`CalibrationSnapshot`] — the
    /// one calibration path from a real executor run to the model,
    /// replacing the former per-quantity `calibrate_*` entry points.
    ///
    /// `base` supplies every pinned constant (network figures, thread
    /// counts, saturation knee, rays) and the fallback for any quantity
    /// whose measurement is degenerate; `scale` maps host-measured rates
    /// onto the modeled hardware. Three rates are measured:
    ///
    /// * **March throughput** — each device's kernel timeline yields a
    ///   cell-step rate (`invocations × cellsteps_per_invocation / wall`);
    ///   the mean over non-degenerate devices becomes
    ///   `cpu_cellsteps_per_s`, and `× device_multiplier` becomes
    ///   `gpu_cellsteps_per_s`. Idle devices (zero invocations or wall)
    ///   are excluded rather than averaged in as zero.
    /// * **Bus bandwidth** — each PCIe direction is calibrated on its own
    ///   copy-engine timeline (upload bytes over upload occupancy, drain
    ///   bytes over drain occupancy) and the non-degenerate directions are
    ///   averaged, `× pcie_multiplier` (a host memcpy is much faster than a
    ///   PCIe gen2 link). Per-direction rates keep an upload-heavy prefetch
    ///   run from drowning out the drain measurement and vice versa; an
    ///   idle direction is excluded rather than averaged in as zero.
    /// * **Per-message CPU cost** — measured local-comm wall time divided
    ///   by messages posted + processed, `× msg_cost_multiplier`.
    pub fn from_snapshot(
        base: MachineParams,
        snap: &CalibrationSnapshot,
        scale: &CalibrationScale,
    ) -> MachineParams {
        let mut m = base;
        let rates: Vec<f64> = snap
            .devices
            .iter()
            .map(|d| &d.kernels)
            .filter(|ks| ks.wall_ns > 0 && ks.invocations > 0)
            .map(|ks| {
                ks.invocations as f64 * scale.cellsteps_per_invocation
                    / ks.wall().as_secs_f64()
            })
            .collect();
        if !rates.is_empty() {
            let measured = rates.iter().sum::<f64>() / rates.len() as f64;
            m.cpu_cellsteps_per_s = measured;
            m.gpu_cellsteps_per_s = measured * scale.device_multiplier;
        }
        let dir_bw = |(bytes, busy_ns): (u64, u64)| -> Option<f64> {
            (bytes > 0 && busy_ns > 0).then(|| bytes as f64 / (busy_ns as f64 * 1e-9))
        };
        let dirs: Vec<f64> = [dir_bw(snap.h2d_totals()), dir_bw(snap.d2h_totals())]
            .into_iter()
            .flatten()
            .collect();
        if !dirs.is_empty() {
            m.pcie_bw = dirs.iter().sum::<f64>() / dirs.len() as f64 * scale.pcie_multiplier;
        }
        // Prefer the min-over-steps per-message cost (uncontended; the
        // aggregate mean spikes whenever the OS deschedules a worker
        // mid-sweep), falling back to the mean for old snapshots.
        if snap.msg_ns_min > 0 {
            m.msg_cpu_cost = snap.msg_ns_min as f64 * 1e-9 * scale.msg_cost_multiplier;
        } else {
            let msgs = snap.messages_sent + snap.messages_received;
            if msgs > 0 && snap.local_comm_ns > 0 {
                m.msg_cpu_cost =
                    snap.local_comm_ns as f64 * 1e-9 / msgs as f64 * scale.msg_cost_multiplier;
            }
        }
        m
    }
}

/// How a [`CalibrationSnapshot`]'s host-measured rates map onto the
/// modeled machine. The host this stack runs on is not a Titan node, so
/// each measured rate carries a documented multiplier onto the modeled
/// hardware; the *measurement* (this host's rate) is the varying input,
/// the multipliers are pinned model constants (EXPERIMENTS.md E12).
#[derive(Clone, Copy, Debug)]
pub struct CalibrationScale {
    /// Modeled DDA cell-steps per metered kernel invocation: rays/cell ×
    /// mean steps per ray for the geometry of the calibration run
    /// (invocations count cells dispatched, not ray steps).
    pub cellsteps_per_invocation: f64,
    /// Measured host march rate × this = modeled accelerator rate. A K20X
    /// sustains roughly 30× one host core on this memory-latency-bound
    /// kernel; a V100-class part roughly 6× that again.
    pub device_multiplier: f64,
    /// Measured copy-engine (host memcpy) bandwidth × this = modeled bus
    /// bandwidth.
    pub pcie_multiplier: f64,
    /// Measured per-message local-comm cost × this = modeled per-message
    /// CPU cost.
    pub msg_cost_multiplier: f64,
}

impl CalibrationScale {
    /// Take the snapshot's rates as-is — the stats came from the target
    /// machine itself.
    pub fn identity(cellsteps_per_invocation: f64) -> Self {
        Self {
            cellsteps_per_invocation,
            device_multiplier: 1.0,
            pcie_multiplier: 1.0,
            msg_cost_multiplier: 1.0,
        }
    }

    /// Host measurement → modeled Titan node (K20X ≈ 30× one host core on
    /// the march; PCIe gen2 well below a host memcpy).
    pub fn host_to_titan(cellsteps_per_invocation: f64) -> Self {
        Self {
            cellsteps_per_invocation,
            device_multiplier: 30.0,
            pcie_multiplier: 0.75,
            msg_cost_multiplier: 1.0,
        }
    }

    /// Host measurement → modeled Summit endpoint (V100 ≈ 6× a K20X on
    /// this kernel via HBM2; NVLink ≈ 4× PCIe gen2; beefier cores halve
    /// the per-message cost).
    pub fn host_to_summit(cellsteps_per_invocation: f64) -> Self {
        Self {
            cellsteps_per_invocation,
            device_multiplier: 180.0,
            pcie_multiplier: 3.0,
            msg_cost_multiplier: 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_increases_with_patch_size() {
        let m = MachineParams::titan();
        let t16 = m.gpu_throughput(16f64.powi(3));
        let t32 = m.gpu_throughput(32f64.powi(3));
        let t64 = m.gpu_throughput(64f64.powi(3));
        assert!(t16 < t32 && t32 < t64, "{t16} {t32} {t64}");
        // 64³ patches reach >90% of peak; 16³ stays well under half.
        assert!(t64 > 0.9 * m.gpu_cellsteps_per_s);
        assert!(t16 < 0.5 * m.gpu_cellsteps_per_s);
    }

    #[test]
    fn summit_node_outruns_titan_node() {
        let t = MachineParams::titan();
        let s = MachineParams::summit();
        // At saturation a V100-class GPU is several times a K20X.
        let cells = 64f64.powi(3);
        let ratio = s.gpu_throughput(cells) / t.gpu_throughput(cells);
        assert!(ratio > 3.0 && ratio < 10.0, "Summit/Titan GPU ratio {ratio}");
        assert!(s.pcie_bw > t.pcie_bw);
        assert!(s.net_latency < t.net_latency);
    }

    use uintah_exec::KernelStats;
    use uintah_runtime::calibrate::DeviceCalibration;

    fn device(invocations: u64, wall_ns: u64) -> DeviceCalibration {
        DeviceCalibration {
            kernels: KernelStats {
                launches: 8,
                invocations,
                bytes_moved: 0,
                wall_ns,
            },
            ..DeviceCalibration::default()
        }
    }

    #[test]
    fn from_snapshot_updates_both_march_rates() {
        // 1e6 invocations, 200 cell-steps each, over 0.5 s → 4e8 host
        // cell-steps/s; a 30x device multiplier puts the GPU at 1.2e10.
        let snap = CalibrationSnapshot {
            devices: vec![device(1_000_000, 500_000_000)],
            ..CalibrationSnapshot::default()
        };
        let mut scale = CalibrationScale::identity(200.0);
        scale.device_multiplier = 30.0;
        let m = MachineParams::from_snapshot(MachineParams::titan(), &snap, &scale);
        assert!((m.cpu_cellsteps_per_s - 4.0e8).abs() < 1.0);
        assert!((m.gpu_cellsteps_per_s - 1.2e10).abs() < 10.0);

        // Degenerate snapshots leave every pinned default untouched.
        let empty = CalibrationSnapshot::default();
        let d = MachineParams::from_snapshot(MachineParams::titan(), &empty, &scale);
        assert!((d.gpu_cellsteps_per_s - MachineParams::titan().gpu_cellsteps_per_s).abs() < 1.0);
        assert!((d.pcie_bw - MachineParams::titan().pcie_bw).abs() < 1.0);
        assert!((d.msg_cpu_cost - MachineParams::titan().msg_cpu_cost).abs() < 1e-12);
    }

    #[test]
    fn from_snapshot_averages_across_fleet_devices() {
        // Device 0: 4e8 cellsteps/s; device 1: 2e8; device 2 idle (must be
        // excluded, not averaged in as zero). Mean of the live devices: 3e8.
        let snap = CalibrationSnapshot {
            devices: vec![
                device(1_000_000, 500_000_000),
                device(1_000_000, 1_000_000_000),
                DeviceCalibration::default(),
            ],
            ..CalibrationSnapshot::default()
        };
        let mut scale = CalibrationScale::identity(200.0);
        scale.device_multiplier = 30.0;
        let m = MachineParams::from_snapshot(MachineParams::titan(), &snap, &scale);
        assert!((m.cpu_cellsteps_per_s - 3.0e8).abs() < 1.0, "{}", m.cpu_cellsteps_per_s);
        assert!((m.gpu_cellsteps_per_s - 9.0e9).abs() < 10.0);
    }

    #[test]
    fn from_snapshot_calibrates_pcie_from_both_directions() {
        // Upload engine: 48 MB in 6 ms → 8 GB/s. Drain engine: 32 MB in
        // 4 ms → 8 GB/s. Mean 8 GB/s measured; a 0.75 multiplier models
        // the bus at 6 GB/s.
        let snap = CalibrationSnapshot {
            devices: vec![DeviceCalibration {
                h2d_bytes: 48_000_000,
                h2d_busy_ns: 6_000_000,
                d2h_bytes: 32_000_000,
                d2h_busy_ns: 4_000_000,
                ..DeviceCalibration::default()
            }],
            ..CalibrationSnapshot::default()
        };
        let mut scale = CalibrationScale::identity(1.0);
        scale.pcie_multiplier = 0.75;
        let m = MachineParams::from_snapshot(MachineParams::titan(), &snap, &scale);
        assert!((m.pcie_bw - 6.0e9).abs() < 1.0, "pcie_bw {}", m.pcie_bw);
    }

    #[test]
    fn from_snapshot_pcie_averages_directions_not_pooled_bytes() {
        // Asymmetric traffic: a prefetch-heavy run uploads 90 MB at
        // 9 GB/s while draining only 1 MB at 1 GB/s. Pooling bytes over
        // occupancy would give ~8.26 GB/s — the drain measurement would
        // vanish; the per-direction mean is 5 GB/s.
        let snap = CalibrationSnapshot {
            devices: vec![DeviceCalibration {
                h2d_bytes: 90_000_000,
                h2d_busy_ns: 10_000_000,
                d2h_bytes: 1_000_000,
                d2h_busy_ns: 1_000_000,
                ..DeviceCalibration::default()
            }],
            ..CalibrationSnapshot::default()
        };
        let m = MachineParams::from_snapshot(
            MachineParams::titan(),
            &snap,
            &CalibrationScale::identity(1.0),
        );
        assert!((m.pcie_bw - 5.0e9).abs() < 1.0, "pcie_bw {}", m.pcie_bw);

        // An idle direction is excluded, not averaged in as zero.
        let up_only = CalibrationSnapshot {
            devices: vec![DeviceCalibration {
                h2d_bytes: 90_000_000,
                h2d_busy_ns: 10_000_000,
                ..DeviceCalibration::default()
            }],
            ..CalibrationSnapshot::default()
        };
        let m = MachineParams::from_snapshot(
            MachineParams::titan(),
            &up_only,
            &CalibrationScale::identity(1.0),
        );
        assert!((m.pcie_bw - 9.0e9).abs() < 1.0, "pcie_bw {}", m.pcie_bw);
    }

    #[test]
    fn from_snapshot_calibrates_msg_cost_from_local_comm() {
        // 400 µs of local comm across 100 + 100 messages → 2 µs/message.
        let snap = CalibrationSnapshot {
            messages_sent: 100,
            messages_received: 100,
            local_comm_ns: 400_000,
            ..CalibrationSnapshot::default()
        };
        let m = MachineParams::from_snapshot(
            MachineParams::titan(),
            &snap,
            &CalibrationScale::identity(1.0),
        );
        assert!((m.msg_cpu_cost - 2.0e-6).abs() < 1e-12, "{}", m.msg_cpu_cost);
    }

    #[test]
    fn from_snapshot_is_deterministic_in_its_input() {
        // Bit-identical snapshots must give bit-identical params — the
        // property the round-trip test in tests/calibration.rs leans on.
        let snap = CalibrationSnapshot {
            messages_sent: 7,
            messages_received: 13,
            local_comm_ns: 90_001,
            devices: vec![device(123_457, 777_777)],
            ..CalibrationSnapshot::default()
        };
        let scale = CalibrationScale::host_to_titan(88.0);
        let a = MachineParams::from_snapshot(MachineParams::titan(), &snap, &scale);
        let b = MachineParams::from_snapshot(MachineParams::titan(), &snap.clone(), &scale);
        assert_eq!(a.gpu_cellsteps_per_s.to_bits(), b.gpu_cellsteps_per_s.to_bits());
        assert_eq!(a.cpu_cellsteps_per_s.to_bits(), b.cpu_cellsteps_per_s.to_bits());
        assert_eq!(a.pcie_bw.to_bits(), b.pcie_bw.to_bits());
        assert_eq!(a.msg_cpu_cost.to_bits(), b.msg_cpu_cost.to_bits());
    }

    #[test]
    fn titan_constants_match_paper_footnote() {
        let m = MachineParams::titan();
        assert_eq!(m.cpu_threads, 16);
        assert!((m.net_latency - 1.4e-6).abs() < 1e-12);
        assert!((m.injection_bw - 20e9).abs() < 1.0);
    }
}
