//! Measured machine calibration: one serializable snapshot of everything
//! the `titan-sim` cost model needs from a real executor run.
//!
//! The scaling campaign (DESIGN §8) replaces hand-set `MachineParams`
//! rates with rates measured on this host: a small-but-real RMCRT run
//! through the persistent executor produces [`ExecStats`] per step, the
//! steps fold into one [`CalibrationSnapshot`], and
//! `MachineParams::from_snapshot` (in `titan-sim`) turns the snapshot into
//! model rates. The snapshot is the *only* interchange type on that path,
//! so every consumer — the four scaling bins, the `scaling_gate` CI check,
//! tests — sees the identical measurement.
//!
//! Every field is an integer counter (nanoseconds, bytes, counts), so
//! serialization is bit-exact by construction: a snapshot written with
//! [`CalibrationSnapshot::to_text`] and re-read with
//! [`CalibrationSnapshot::from_text`] compares equal field-for-field, and
//! calibrating from either yields bit-identical `MachineParams`.
//!
//! Counter fields (launches, invocations, logical/transfer bytes, message
//! counts, per-patch membership) are deterministic for a fixed workload —
//! two identical runs must agree on all of them, which
//! [`CalibrationSnapshot::structural_eq`] checks. Wall-clock fields
//! (`*_ns`) are *measurements* and legitimately vary run to run; they are
//! exactly the quantities calibration exists to measure.

use crate::driver::WorldResult;
use crate::scheduler::ExecStats;
use uintah_exec::KernelStats;

/// One device's share of a calibration run: its kernel metering plus its
/// transfer byte/occupancy totals in each direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceCalibration {
    /// Kernel launches, invocations, logical bytes and dispatch wall time.
    pub kernels: KernelStats,
    /// Host→device bytes uploaded (synchronously, inside the tasks).
    pub h2d_bytes: u64,
    /// Upload occupancy, nanoseconds.
    pub h2d_busy_ns: u64,
    /// Device→host bytes taken back (synchronously, inside the tasks).
    pub d2h_bytes: u64,
    /// Take occupancy, nanoseconds.
    pub d2h_busy_ns: u64,
}

/// Aggregated measurement of a real executor run, in model-calibration
/// form. Fold per-step [`ExecStats`] in with `record_step`, merge ranks
/// with `merge_rank`, or take a whole world's with
/// [`WorldResult::calibration_snapshot`].
///
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CalibrationSnapshot {
    /// Timesteps folded in (per rank; merging ranks takes the max).
    pub steps: u64,
    /// Task bodies executed.
    pub tasks_executed: u64,
    /// Messages posted by task sends.
    pub messages_sent: u64,
    /// Messages processed from the request store.
    pub messages_received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Wall time posting sends and sweeping/processing receives, ns (the
    /// paper's "local communication time" — the store-model counter).
    pub local_comm_ns: u64,
    /// Minimum over folded steps of that step's local-comm nanoseconds per
    /// message — the *uncontended* per-message cost. The aggregate mean
    /// (`local_comm_ns / messages`) is polluted whenever the OS deschedules
    /// a worker mid-sweep; the min over steps is the stable calibration
    /// quantity. 0 = no step measured any messages.
    pub msg_ns_min: u64,
    /// Wall time inside task bodies, ns.
    pub task_ns: u64,
    /// End-to-end wall time of the folded steps, ns.
    pub wall_ns: u64,
    /// Per-device kernel and transfer totals, in fleet order (ranks
    /// merge by appending — each rank's devices are distinct hardware).
    pub devices: Vec<DeviceCalibration>,
    /// Measured per-patch task-body cost, ns, sorted by patch id — the
    /// cost distribution `titan-sim`'s `CostProfile` samples.
    pub per_patch: Vec<(u32, u64)>,
}

impl CalibrationSnapshot {
    /// Fold one step's [`ExecStats`] into the snapshot.
    pub(crate) fn record_step(&mut self, s: &ExecStats) {
        self.steps += 1;
        self.tasks_executed += s.tasks_executed as u64;
        self.messages_sent += s.messages_sent as u64;
        self.messages_received += s.messages_received as u64;
        self.bytes_sent += s.bytes_sent;
        self.local_comm_ns += s.local_comm.as_nanos() as u64;
        let msgs = s.messages_sent as u64 + s.messages_received as u64;
        if let Some(per_msg) = (s.local_comm.as_nanos() as u64).checked_div(msgs) {
            if per_msg > 0 && (self.msg_ns_min == 0 || per_msg < self.msg_ns_min) {
                self.msg_ns_min = per_msg;
            }
        }
        self.task_ns += s.task_time.as_nanos() as u64;
        self.wall_ns += s.wall.as_nanos() as u64;
        for d in &s.per_device {
            if self.devices.len() <= d.device {
                self.devices.resize(d.device + 1, DeviceCalibration::default());
            }
            let dev = &mut self.devices[d.device];
            dev.kernels.accumulate(&d.kernel_stats);
            dev.h2d_bytes += d.h2d_bytes;
            dev.h2d_busy_ns += d.h2d_busy_ns;
            dev.d2h_bytes += d.d2h_bytes;
            dev.d2h_busy_ns += d.d2h_busy_ns;
        }
        for &(pid, dur) in &s.per_patch {
            self.add_patch_cost(pid.0, dur.as_nanos() as u64);
        }
    }

    /// Fold another rank's snapshot of the *same run* into this one:
    /// counters sum, devices append (they are distinct simulated hardware),
    /// per-patch costs merge by id, and `steps` takes the max (every rank
    /// ran the same number of steps).
    pub(crate) fn merge_rank(&mut self, other: &CalibrationSnapshot) {
        self.steps = self.steps.max(other.steps);
        self.tasks_executed += other.tasks_executed;
        self.messages_sent += other.messages_sent;
        self.messages_received += other.messages_received;
        self.bytes_sent += other.bytes_sent;
        self.local_comm_ns += other.local_comm_ns;
        if other.msg_ns_min > 0 && (self.msg_ns_min == 0 || other.msg_ns_min < self.msg_ns_min) {
            self.msg_ns_min = other.msg_ns_min;
        }
        self.task_ns += other.task_ns;
        self.wall_ns += other.wall_ns;
        self.devices.extend(other.devices.iter().copied());
        for &(pid, ns) in &other.per_patch {
            self.add_patch_cost(pid, ns);
        }
    }

    fn add_patch_cost(&mut self, pid: u32, ns: u64) {
        match self.per_patch.binary_search_by_key(&pid, |&(p, _)| p) {
            Ok(i) => self.per_patch[i].1 += ns,
            Err(i) => self.per_patch.insert(i, (pid, ns)),
        }
    }

    /// Kernel totals summed across the devices.
    pub fn kernel_totals(&self) -> KernelStats {
        KernelStats::sum(self.devices.iter().map(|d| &d.kernels))
    }

    /// Upload-engine totals summed across devices: `(bytes, busy_ns)`.
    pub fn h2d_totals(&self) -> (u64, u64) {
        self.devices
            .iter()
            .fold((0, 0), |(b, n), d| (b + d.h2d_bytes, n + d.h2d_busy_ns))
    }

    /// Drain-engine totals summed across devices: `(bytes, busy_ns)`.
    pub fn d2h_totals(&self) -> (u64, u64) {
        self.devices
            .iter()
            .fold((0, 0), |(b, n), d| (b + d.d2h_bytes, n + d.d2h_busy_ns))
    }

    /// True when every *deterministic* counter matches: everything except
    /// the measured wall-clock fields (`local_comm_ns`, `task_ns`,
    /// `wall_ns`, kernel `wall_ns`, transfer `*_busy_ns`, per-patch costs).
    /// Two executor runs of the identical workload must be
    /// `structural_eq`; their timings are measurements and may differ.
    pub fn structural_eq(&self, other: &CalibrationSnapshot) -> bool {
        self.steps == other.steps
            && self.tasks_executed == other.tasks_executed
            && self.messages_sent == other.messages_sent
            && self.messages_received == other.messages_received
            && self.bytes_sent == other.bytes_sent
            && self.devices.len() == other.devices.len()
            && self
                .devices
                .iter()
                .zip(&other.devices)
                .all(|(a, b)| {
                    a.kernels.launches == b.kernels.launches
                        && a.kernels.invocations == b.kernels.invocations
                        && a.kernels.bytes_moved == b.kernels.bytes_moved
                        && a.h2d_bytes == b.h2d_bytes
                        && a.d2h_bytes == b.d2h_bytes
                })
            && self.per_patch.len() == other.per_patch.len()
            && self
                .per_patch
                .iter()
                .zip(&other.per_patch)
                .all(|(&(pa, _), &(pb, _))| pa == pb)
    }

    /// Serialize to the versioned line-oriented text format. All fields are
    /// integers, so the round trip through [`from_text`] is bit-exact.
    ///
    /// [`from_text`]: CalibrationSnapshot::from_text
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} {}", MAGIC, VERSION);
        let _ = writeln!(out, "steps {}", self.steps);
        let _ = writeln!(out, "tasks {}", self.tasks_executed);
        let _ = writeln!(out, "msgs_sent {}", self.messages_sent);
        let _ = writeln!(out, "msgs_recv {}", self.messages_received);
        let _ = writeln!(out, "bytes_sent {}", self.bytes_sent);
        let _ = writeln!(out, "local_comm_ns {}", self.local_comm_ns);
        let _ = writeln!(out, "msg_ns_min {}", self.msg_ns_min);
        let _ = writeln!(out, "task_ns {}", self.task_ns);
        let _ = writeln!(out, "wall_ns {}", self.wall_ns);
        let _ = writeln!(out, "devices {}", self.devices.len());
        for (i, d) in self.devices.iter().enumerate() {
            let _ = writeln!(
                out,
                "device {} {} {} {} {} {} {} {} {}",
                i,
                d.kernels.launches,
                d.kernels.invocations,
                d.kernels.bytes_moved,
                d.kernels.wall_ns,
                d.h2d_bytes,
                d.h2d_busy_ns,
                d.d2h_bytes,
                d.d2h_busy_ns,
            );
        }
        let _ = writeln!(out, "patches {}", self.per_patch.len());
        for &(pid, ns) in &self.per_patch {
            let _ = writeln!(out, "patch {pid} {ns}");
        }
        out
    }

    /// Parse a snapshot serialized by [`to_text`]. Strict: unknown
    /// versions, malformed lines, and truncated sections are errors.
    ///
    /// [`to_text`]: CalibrationSnapshot::to_text
    pub fn from_text(text: &str) -> Result<CalibrationSnapshot, ParseError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| err("empty snapshot"))?;
        let mut h = header.split_whitespace();
        if h.next() != Some(MAGIC) {
            return Err(err("not a calibration snapshot (bad magic)"));
        }
        let version = h.next().ok_or_else(|| err("missing version"))?;
        if version != VERSION {
            return Err(ParseError(format!(
                "unsupported snapshot version {version:?} (expected {VERSION})"
            )));
        }

        let mut snap = CalibrationSnapshot::default();
        let scalar = |line: &str, key: &str| -> Result<u64, ParseError> {
            let mut it = line.split_whitespace();
            let k = it.next().ok_or_else(|| err("missing key"))?;
            if k != key {
                return Err(ParseError(format!("expected {key:?}, found {k:?}")));
            }
            parse_u64(it.next(), key)
        };
        fn next<'a>(
            lines: &mut dyn Iterator<Item = &'a str>,
            what: &str,
        ) -> Result<&'a str, ParseError> {
            lines
                .next()
                .ok_or_else(|| ParseError(format!("truncated snapshot: missing {what}")))
        }

        snap.steps = scalar(next(&mut lines, "steps")?, "steps")?;
        snap.tasks_executed = scalar(next(&mut lines, "tasks")?, "tasks")?;
        snap.messages_sent = scalar(next(&mut lines, "msgs_sent")?, "msgs_sent")?;
        snap.messages_received = scalar(next(&mut lines, "msgs_recv")?, "msgs_recv")?;
        snap.bytes_sent = scalar(next(&mut lines, "bytes_sent")?, "bytes_sent")?;
        snap.local_comm_ns = scalar(next(&mut lines, "local_comm_ns")?, "local_comm_ns")?;
        snap.msg_ns_min = scalar(next(&mut lines, "msg_ns_min")?, "msg_ns_min")?;
        snap.task_ns = scalar(next(&mut lines, "task_ns")?, "task_ns")?;
        snap.wall_ns = scalar(next(&mut lines, "wall_ns")?, "wall_ns")?;

        let ndev = scalar(next(&mut lines, "devices")?, "devices")? as usize;
        for i in 0..ndev {
            let line = next(&mut lines, "device line")?;
            let mut it = line.split_whitespace();
            if it.next() != Some("device") {
                return Err(err("expected device line"));
            }
            let idx = parse_u64(it.next(), "device index")? as usize;
            if idx != i {
                return Err(ParseError(format!("device lines out of order at {idx}")));
            }
            snap.devices.push(DeviceCalibration {
                kernels: KernelStats {
                    launches: parse_u64(it.next(), "launches")?,
                    invocations: parse_u64(it.next(), "invocations")?,
                    bytes_moved: parse_u64(it.next(), "bytes_moved")?,
                    wall_ns: parse_u64(it.next(), "kernel wall_ns")?,
                },
                h2d_bytes: parse_u64(it.next(), "h2d_bytes")?,
                h2d_busy_ns: parse_u64(it.next(), "h2d_busy_ns")?,
                d2h_bytes: parse_u64(it.next(), "d2h_bytes")?,
                d2h_busy_ns: parse_u64(it.next(), "d2h_busy_ns")?,
            });
        }

        let npatch = scalar(next(&mut lines, "patches")?, "patches")? as usize;
        for _ in 0..npatch {
            let line = next(&mut lines, "patch line")?;
            let mut it = line.split_whitespace();
            if it.next() != Some("patch") {
                return Err(err("expected patch line"));
            }
            let pid = parse_u64(it.next(), "patch id")? as u32;
            let ns = parse_u64(it.next(), "patch ns")?;
            if let Some(&(last, _)) = snap.per_patch.last() {
                if pid <= last {
                    return Err(err("patch lines not strictly increasing"));
                }
            }
            snap.per_patch.push((pid, ns));
        }
        if lines.next().is_some() {
            return Err(err("trailing content after snapshot"));
        }
        Ok(snap)
    }
}

impl WorldResult {
    /// The whole run's calibration snapshot: every rank's steps folded and
    /// ranks merged (devices append in rank order).
    pub fn calibration_snapshot(&self) -> CalibrationSnapshot {
        let mut total = CalibrationSnapshot::default();
        for r in &self.ranks {
            let mut rank_snap = CalibrationSnapshot::default();
            for s in &r.stats {
                rank_snap.record_step(s);
            }
            total.merge_rank(&rank_snap);
        }
        total
    }
}

const MAGIC: &str = "rmcrt-calibration-snapshot";
// v3: device lines carry bytes and occupancy per direction, no longer the
// H2D wait/overlap pair that synchronous uploads always left at 0 (v2).
const VERSION: &str = "v3";

/// Error from [`CalibrationSnapshot::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "calibration snapshot parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: &str) -> ParseError {
    ParseError(msg.to_string())
}

fn parse_u64(tok: Option<&str>, what: &str) -> Result<u64, ParseError> {
    tok.ok_or_else(|| ParseError(format!("missing {what}")))?
        .parse()
        .map_err(|e| ParseError(format!("bad {what}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::DeviceStepStats;
    use std::time::Duration;

    fn sample_stats() -> ExecStats {
        ExecStats {
            tasks_executed: 12,
            messages_sent: 7,
            messages_received: 5,
            bytes_sent: 4096,
            local_comm: Duration::from_nanos(1500),
            task_time: Duration::from_nanos(90_000),
            wall: Duration::from_nanos(120_000),
            per_device: vec![
                DeviceStepStats {
                    device: 0,
                    kernel_stats: KernelStats {
                        launches: 4,
                        invocations: 2048,
                        bytes_moved: 128,
                        wall_ns: 60_000,
                    },
                    h2d_bytes: 1 << 16,
                    d2h_bytes: 1 << 14,
                    h2d_busy_ns: 2_000,
                    d2h_busy_ns: 900,
                    peak_bytes: 1 << 20,
                    ..Default::default()
                },
                DeviceStepStats {
                    device: 1,
                    kernel_stats: KernelStats {
                        launches: 2,
                        invocations: 1024,
                        bytes_moved: 64,
                        wall_ns: 31_000,
                    },
                    h2d_bytes: 1 << 15,
                    d2h_bytes: 1 << 13,
                    h2d_busy_ns: 1_100,
                    d2h_busy_ns: 450,
                    peak_bytes: 1 << 19,
                    ..Default::default()
                },
            ],
            per_patch: vec![
                (uintah_grid::PatchId(3), Duration::from_nanos(40_000)),
                (uintah_grid::PatchId(1), Duration::from_nanos(50_000)),
            ],
            ..ExecStats::default()
        }
    }

    #[test]
    fn record_step_accumulates_and_sorts_patches() {
        let mut snap = CalibrationSnapshot::default();
        snap.record_step(&sample_stats());
        snap.record_step(&sample_stats());
        assert_eq!(snap.steps, 2);
        assert_eq!(snap.tasks_executed, 24);
        assert_eq!(snap.devices.len(), 2);
        assert_eq!(snap.devices[0].kernels.launches, 8);
        assert_eq!(snap.devices[1].h2d_bytes, 2 << 15);
        // Patch costs sorted by id, accumulated across steps.
        assert_eq!(snap.per_patch, vec![(1, 100_000), (3, 80_000)]);
        // 1500 ns over 12 messages → uncontended per-message cost 125 ns.
        assert_eq!(snap.msg_ns_min, 125);
        let totals = snap.kernel_totals();
        assert_eq!(totals.launches, 12);
        assert_eq!(totals.invocations, 2 * 3072);
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let mut snap = CalibrationSnapshot::default();
        snap.record_step(&sample_stats());
        let text = snap.to_text();
        let back = CalibrationSnapshot::from_text(&text).expect("parse");
        assert_eq!(snap, back);
        // Stability: serializing the parse reproduces the exact text.
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn merge_rank_appends_devices_and_merges_patches() {
        let mut a = CalibrationSnapshot::default();
        a.record_step(&sample_stats());
        let mut b = CalibrationSnapshot::default();
        b.record_step(&sample_stats());
        let mut merged = a.clone();
        merged.merge_rank(&b);
        assert_eq!(merged.steps, 1, "ranks step in lockstep: max, not sum");
        assert_eq!(merged.devices.len(), 4);
        assert_eq!(merged.messages_sent, 14);
        assert_eq!(merged.per_patch, vec![(1, 100_000), (3, 80_000)]);
    }

    #[test]
    fn structural_eq_ignores_timing_only() {
        let mut a = CalibrationSnapshot::default();
        a.record_step(&sample_stats());
        let mut b = a.clone();
        b.wall_ns += 999;
        b.local_comm_ns = 1;
        b.msg_ns_min = 9_000;
        b.devices[0].kernels.wall_ns = 42;
        b.devices[1].d2h_busy_ns = 7;
        b.per_patch[0].1 = 12345;
        assert!(a.structural_eq(&b), "timing differences must not matter");
        let mut c = a.clone();
        c.devices[0].kernels.invocations += 1;
        assert!(!a.structural_eq(&c), "counter differences must matter");
        let mut d = a.clone();
        d.messages_sent += 1;
        assert!(!a.structural_eq(&d));
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(CalibrationSnapshot::from_text("").is_err());
        assert!(CalibrationSnapshot::from_text("not-a-snapshot v1").is_err());
        assert!(CalibrationSnapshot::from_text("rmcrt-calibration-snapshot v9\n").is_err());
        // Old-format snapshots are rejected by the version check, not
        // mis-parsed: v1 had no H2D wait/overlap fields, and v2 carries
        // them as two extra columns on every device line.
        assert!(CalibrationSnapshot::from_text("rmcrt-calibration-snapshot v1\nsteps 1\n").is_err());
        let mut snap = CalibrationSnapshot::default();
        snap.record_step(&sample_stats());
        let v2: String = snap
            .to_text()
            .replacen("v3", "v2", 1)
            .lines()
            .map(|line| {
                let mut cols: Vec<&str> = line.split_whitespace().collect();
                if cols[0] == "device" {
                    cols.splice(8..8, ["0", "0"]);
                }
                cols.join(" ") + "\n"
            })
            .collect();
        assert!(CalibrationSnapshot::from_text(&v2).is_err());
        // Truncated after the header.
        assert!(CalibrationSnapshot::from_text("rmcrt-calibration-snapshot v3\nsteps 1\n").is_err());
        // Trailing junk.
        let mut text = snap.to_text();
        text.push_str("extra line\n");
        assert!(CalibrationSnapshot::from_text(&text).is_err());
    }
}
