//! The length-prefixed wire protocol between `rmcrt_submit` and
//! `rmcrt_serve`.
//!
//! Frame layout (see DESIGN.md §11):
//!
//! ```text
//! [u32 LE payload length][payload]
//! payload = [u8 version][u8 kind][kind-specific fields]
//! ```
//!
//! Scalars are little-endian; strings are `u32` byte length + UTF-8;
//! `f64` fields travel as raw IEEE-754 bit patterns (`to_bits`), so a
//! `divQ` field served over the socket is bit-identical to the warehouse
//! contents it was read from. Every request receives exactly one response
//! on the same connection; concurrency comes from opening multiple
//! connections, not from pipelining.

use crate::job::{DivqField, JobId, JobOutcome, JobReport, JobStats};
use crate::server::ServerStats;
use std::io::{self, Read, Write};
use uintah_grid::{IntVector, Region};
use uintah_runtime::GraphCacheStats;

/// Protocol version stamped on every frame; mismatches are rejected.
pub(crate) const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a single frame's payload (a 256³ fine level of f64
/// divQ is 128 MiB; anything bigger than this is a corrupt length).
pub(crate) const MAX_FRAME: usize = 256 << 20;

/// Why a submission was refused (typed — oversubscription must reject or
/// queue, never panic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectCode {
    /// The config text failed to parse or validate.
    BadConfig,
    /// The job's estimated device footprint exceeds the server's *total*
    /// fleet capacity: it could never run, so it is refused up front
    /// rather than queued forever.
    TooLarge,
    /// The server is draining and accepts no new work.
    ShuttingDown,
}

impl RejectCode {
    fn to_u8(self) -> u8 {
        match self {
            RejectCode::BadConfig => 1,
            RejectCode::TooLarge => 2,
            RejectCode::ShuttingDown => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => RejectCode::BadConfig,
            2 => RejectCode::TooLarge,
            3 => RejectCode::ShuttingDown,
            _ => return Err(WireError::bad(format!("unknown reject code {v}"))),
        })
    }
}

/// Client → server.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Request {
    /// Submit a job: the same `key = value` config text `rmcrt_app`
    /// consumes, parsed server-side (the `priority` key selects the
    /// queue tier).
    Submit { config_text: String },
    /// Block until the job reaches a terminal state.
    Wait { job_id: JobId },
    /// Cancel a queued or running job (idempotent).
    Cancel { job_id: JobId },
    /// Server-wide counters.
    Stats,
    /// Drain and stop: finish queued + active work, then exit.
    Shutdown,
}

/// Server → client.
#[derive(Clone, Debug)]
pub enum Response {
    Accepted { job_id: JobId },
    Rejected { code: RejectCode, message: String },
    Finished { job_id: JobId, outcome: JobOutcome },
    CancelAck { job_id: JobId, found: bool },
    Stats(ServerStats),
    ShutdownAck,
    /// Protocol-level error (unknown job id, malformed request).
    Error { message: String },
}

/// A malformed or truncated payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    pub message: String,
}

impl WireError {
    fn bad(message: String) -> Self {
        Self { message }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- framing

/// Write one `[u32 LE length][payload]` frame.
pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF before the length word.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

// ----------------------------------------------------------------- codec

struct Enc(Vec<u8>);

impl Enc {
    fn new(kind: u8) -> Self {
        Self(vec![PROTOCOL_VERSION, kind])
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn boolean(&mut self, v: bool) {
        self.0.push(v as u8);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn i32(&mut self, v: i32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }

    fn region(&mut self, r: Region) {
        for v in [r.lo(), r.hi()] {
            self.i32(v.x);
            self.i32(v.y);
            self.i32(v.z);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Result<(u8, Self), WireError> {
        if buf.len() < 2 {
            return Err(WireError::bad("payload shorter than header".into()));
        }
        if buf[0] != PROTOCOL_VERSION {
            return Err(WireError::bad(format!(
                "protocol version {} (expected {PROTOCOL_VERSION})",
                buf[0]
            )));
        }
        Ok((buf[1], Self { buf, pos: 2 }))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::bad("truncated payload".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn boolean(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn f64_bits(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let s = self.bytes(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::bad("invalid UTF-8".into()))
    }

    fn region(&mut self) -> Result<Region, WireError> {
        let lo = IntVector::new(self.i32()?, self.i32()?, self.i32()?);
        let hi = IntVector::new(self.i32()?, self.i32()?, self.i32()?);
        Ok(Region::new(lo, hi))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::bad(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

const REQ_SUBMIT: u8 = 1;
const REQ_WAIT: u8 = 2;
const REQ_CANCEL: u8 = 3;
const REQ_STATS: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;

const RESP_ACCEPTED: u8 = 128;
const RESP_REJECTED: u8 = 129;
const RESP_FINISHED: u8 = 130;
const RESP_CANCEL_ACK: u8 = 131;
const RESP_STATS: u8 = 132;
const RESP_SHUTDOWN_ACK: u8 = 133;
const RESP_ERROR: u8 = 134;

const OUTCOME_DONE: u8 = 0;
const OUTCOME_CANCELED: u8 = 1;
const OUTCOME_FAILED: u8 = 2;

/// Encode a request payload (framing is the transport's job).
pub(crate) fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Submit { config_text } => {
            let mut e = Enc::new(REQ_SUBMIT);
            e.str(config_text);
            e.0
        }
        Request::Wait { job_id } => {
            let mut e = Enc::new(REQ_WAIT);
            e.u64(*job_id);
            e.0
        }
        Request::Cancel { job_id } => {
            let mut e = Enc::new(REQ_CANCEL);
            e.u64(*job_id);
            e.0
        }
        Request::Stats => Enc::new(REQ_STATS).0,
        Request::Shutdown => Enc::new(REQ_SHUTDOWN).0,
    }
}

/// Decode a request payload.
pub(crate) fn decode_request(buf: &[u8]) -> Result<Request, WireError> {
    let (kind, mut d) = Dec::new(buf)?;
    let req = match kind {
        REQ_SUBMIT => Request::Submit {
            config_text: d.str()?,
        },
        REQ_WAIT => Request::Wait { job_id: d.u64()? },
        REQ_CANCEL => Request::Cancel { job_id: d.u64()? },
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        k => return Err(WireError::bad(format!("unknown request kind {k}"))),
    };
    d.finish()?;
    Ok(req)
}

fn encode_report(e: &mut Enc, r: &JobReport) {
    e.u64(r.job_id);
    e.str(&r.run_id);
    let s = &r.stats;
    for v in [
        s.steps,
        s.tasks,
        s.messages,
        s.bytes_sent,
        s.gpu_h2d_bytes,
        s.gpu_d2h_bytes,
        s.gpu_evictions,
        s.regrids,
        s.graph_compiles,
        s.shared_graph_hits,
        s.level_replicas_inherited,
        s.queued_ns,
        s.exec_ns,
    ] {
        e.u64(v);
    }
    e.boolean(s.slot_reused);
    match &r.solve {
        Some(solve) => {
            e.boolean(true);
            e.u64(solve.total_rays);
            e.u64(solve.cells);
        }
        None => e.boolean(false),
    }
    e.u32(r.summaries.len() as u32);
    for s in &r.summaries {
        e.str(s);
    }
    e.region(r.divq.region);
    e.u64(r.divq.data.len() as u64);
    for &x in &r.divq.data {
        e.f64_bits(x);
    }
}

fn decode_report(d: &mut Dec<'_>) -> Result<JobReport, WireError> {
    let job_id = d.u64()?;
    let run_id = d.str()?;
    let mut nums = [0u64; 13];
    for n in &mut nums {
        *n = d.u64()?;
    }
    let slot_reused = d.boolean()?;
    let stats = JobStats {
        steps: nums[0],
        tasks: nums[1],
        messages: nums[2],
        bytes_sent: nums[3],
        gpu_h2d_bytes: nums[4],
        gpu_d2h_bytes: nums[5],
        gpu_evictions: nums[6],
        regrids: nums[7],
        graph_compiles: nums[8],
        shared_graph_hits: nums[9],
        level_replicas_inherited: nums[10],
        queued_ns: nums[11],
        exec_ns: nums[12],
        slot_reused,
    };
    let solve = if d.boolean()? {
        Some(rmcrt_core::SolveStats {
            total_rays: d.u64()?,
            cells: d.u64()?,
            march: Default::default(),
        })
    } else {
        None
    };
    let nsum = d.u32()? as usize;
    let mut summaries = Vec::with_capacity(nsum);
    for _ in 0..nsum {
        summaries.push(d.str()?);
    }
    let region = d.region()?;
    let ncells = d.u64()? as usize;
    if ncells != region.volume() {
        return Err(WireError::bad(format!(
            "divq cell count {ncells} does not match region volume {}",
            region.volume()
        )));
    }
    let mut data = Vec::with_capacity(ncells);
    for _ in 0..ncells {
        data.push(d.f64_bits()?);
    }
    Ok(JobReport {
        job_id,
        run_id,
        stats,
        solve,
        summaries,
        divq: DivqField { region, data },
    })
}

fn encode_server_stats(e: &mut Enc, s: &ServerStats) {
    for v in [
        s.submitted,
        s.accepted,
        s.rejected,
        s.completed,
        s.canceled,
        s.failed,
        s.queued_for_capacity,
        s.slot_hits,
        s.slot_builds,
        s.slot_retired,
        s.shared_graph_hits,
        s.graph_cache.hits,
        s.graph_cache.misses,
        s.graph_cache.insertions,
        s.graph_cache.evictions,
        s.reserved_bytes,
        s.fleet_used,
        s.fleet_capacity,
    ] {
        e.u64(v);
    }
    e.u32(s.active_jobs as u32);
    e.u32(s.queued_jobs as u32);
    e.u32(s.idle_slots as u32);
}

fn decode_server_stats(d: &mut Dec<'_>) -> Result<ServerStats, WireError> {
    let mut nums = [0u64; 18];
    for n in &mut nums {
        *n = d.u64()?;
    }
    Ok(ServerStats {
        submitted: nums[0],
        accepted: nums[1],
        rejected: nums[2],
        completed: nums[3],
        canceled: nums[4],
        failed: nums[5],
        queued_for_capacity: nums[6],
        slot_hits: nums[7],
        slot_builds: nums[8],
        slot_retired: nums[9],
        shared_graph_hits: nums[10],
        graph_cache: GraphCacheStats {
            hits: nums[11],
            misses: nums[12],
            insertions: nums[13],
            evictions: nums[14],
        },
        reserved_bytes: nums[15],
        fleet_used: nums[16],
        fleet_capacity: nums[17],
        active_jobs: d.u32()? as usize,
        queued_jobs: d.u32()? as usize,
        idle_slots: d.u32()? as usize,
    })
}

/// Encode a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Accepted { job_id } => {
            let mut e = Enc::new(RESP_ACCEPTED);
            e.u64(*job_id);
            e.0
        }
        Response::Rejected { code, message } => {
            let mut e = Enc::new(RESP_REJECTED);
            e.u8(code.to_u8());
            e.str(message);
            e.0
        }
        Response::Finished { job_id, outcome } => {
            let mut e = Enc::new(RESP_FINISHED);
            e.u64(*job_id);
            match outcome {
                JobOutcome::Done(report) => {
                    e.u8(OUTCOME_DONE);
                    encode_report(&mut e, report);
                }
                JobOutcome::Canceled => e.u8(OUTCOME_CANCELED),
                JobOutcome::Failed(m) => {
                    e.u8(OUTCOME_FAILED);
                    e.str(m);
                }
            }
            e.0
        }
        Response::CancelAck { job_id, found } => {
            let mut e = Enc::new(RESP_CANCEL_ACK);
            e.u64(*job_id);
            e.boolean(*found);
            e.0
        }
        Response::Stats(s) => {
            let mut e = Enc::new(RESP_STATS);
            encode_server_stats(&mut e, s);
            e.0
        }
        Response::ShutdownAck => Enc::new(RESP_SHUTDOWN_ACK).0,
        Response::Error { message } => {
            let mut e = Enc::new(RESP_ERROR);
            e.str(message);
            e.0
        }
    }
}

/// Decode a response payload.
pub(crate) fn decode_response(buf: &[u8]) -> Result<Response, WireError> {
    let (kind, mut d) = Dec::new(buf)?;
    let resp = match kind {
        RESP_ACCEPTED => Response::Accepted { job_id: d.u64()? },
        RESP_REJECTED => Response::Rejected {
            code: RejectCode::from_u8(d.u8()?)?,
            message: d.str()?,
        },
        RESP_FINISHED => {
            let job_id = d.u64()?;
            let outcome = match d.u8()? {
                OUTCOME_DONE => JobOutcome::Done(std::sync::Arc::new(decode_report(&mut d)?)),
                OUTCOME_CANCELED => JobOutcome::Canceled,
                OUTCOME_FAILED => JobOutcome::Failed(d.str()?),
                o => return Err(WireError::bad(format!("unknown outcome {o}"))),
            };
            Response::Finished { job_id, outcome }
        }
        RESP_CANCEL_ACK => Response::CancelAck {
            job_id: d.u64()?,
            found: d.boolean()?,
        },
        RESP_STATS => Response::Stats(decode_server_stats(&mut d)?),
        RESP_SHUTDOWN_ACK => Response::ShutdownAck,
        RESP_ERROR => Response::Error { message: d.str()? },
        k => return Err(WireError::bad(format!("unknown response kind {k}"))),
    };
    d.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_report() -> JobReport {
        let region = Region::new(IntVector::new(0, 0, 0), IntVector::new(2, 2, 1));
        let data: Vec<f64> = (0..region.volume())
            .map(|i| (i as f64).sqrt() * -1.25 + f64::EPSILON)
            .collect();
        JobReport {
            job_id: 42,
            run_id: "job-42".into(),
            stats: JobStats {
                steps: 3,
                tasks: 96,
                messages: 12,
                bytes_sent: 4096,
                gpu_h2d_bytes: 1024,
                gpu_d2h_bytes: 512,
                gpu_evictions: 1,
                regrids: 1,
                graph_compiles: 2,
                shared_graph_hits: 1,
                level_replicas_inherited: 2,
                slot_reused: true,
                queued_ns: 1_000,
                exec_ns: 2_000_000,
            },
            solve: Some(rmcrt_core::SolveStats {
                total_rays: 8 * 16,
                cells: 16,
                march: Default::default(),
            }),
            summaries: vec!["[job-42/r0] step 0: ok".into(), "[job-42/r1] step 0: ok".into()],
            divq: DivqField { region, data },
        }
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Submit {
                config_text: "nrays = 8\npriority = high".into(),
            },
            Request::Wait { job_id: 7 },
            Request::Cancel { job_id: 9 },
            Request::Stats,
            Request::Shutdown,
        ] {
            let buf = encode_request(&req);
            assert_eq!(decode_request(&buf).unwrap(), req);
        }
    }

    #[test]
    fn report_roundtrip_preserves_f64_bits() {
        let report = sample_report();
        let buf = encode_response(&Response::Finished {
            job_id: 42,
            outcome: JobOutcome::Done(Arc::new(report.clone())),
        });
        let Response::Finished { job_id, outcome } = decode_response(&buf).unwrap() else {
            panic!("wrong response kind");
        };
        assert_eq!(job_id, 42);
        let got = outcome.expect_done();
        assert_eq!(**got, report);
        // Bit-level equality, not just PartialEq: the field must survive
        // the wire exactly.
        for (a, b) in got.divq.data.iter().zip(&report.divq.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rejected_and_error_roundtrip() {
        let buf = encode_response(&Response::Rejected {
            code: RejectCode::TooLarge,
            message: "needs 12 GiB, fleet has 6 GiB".into(),
        });
        match decode_response(&buf).unwrap() {
            Response::Rejected { code, message } => {
                assert_eq!(code, RejectCode::TooLarge);
                assert!(message.contains("12 GiB"));
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let buf = encode_response(&Response::Error {
            message: "unknown job 99".into(),
        });
        assert!(matches!(decode_response(&buf).unwrap(), Response::Error { .. }));
    }

    #[test]
    fn truncated_and_versioned_frames_rejected() {
        let mut buf = encode_request(&Request::Wait { job_id: 1 });
        buf.truncate(buf.len() - 1);
        assert!(decode_request(&buf).is_err());
        let mut buf = encode_request(&Request::Stats);
        buf[0] = 99;
        assert!(decode_request(&buf).is_err());
        // Trailing garbage is an error, not silently ignored.
        let mut buf = encode_request(&Request::Stats);
        buf.push(0);
        assert!(decode_request(&buf).is_err());
    }

    #[test]
    fn framing_roundtrip_and_eof() {
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, b"hello").unwrap();
        write_frame(&mut pipe, b"").unwrap();
        let mut r = &pipe[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        // EOF inside the length word is an error.
        let mut r = &pipe[..2];
        assert!(read_frame(&mut r).is_err());
    }
}
