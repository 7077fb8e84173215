//! Socket transport: serve the protocol on a Unix-domain socket.
//!
//! One thread per connection, strict request/response (no pipelining);
//! concurrency comes from multiple connections. A connection that drops
//! mid-stream (client crash, `rmcrt_submit` killed) has every unfinished
//! job it submitted canceled — an abandoned tenant must not keep device
//! memory reserved.

use crate::job::{JobId, JobOutcome};
use crate::protocol::{
    self, decode_request, encode_response, read_frame, write_frame, RejectCode, Request, Response,
};
use crate::server::{RadiationServer, SubmitError};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A server bound to a Unix socket, accepting connections on a
/// background thread.
pub struct ServerSocket {
    path: PathBuf,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    shutdown_requested: Arc<ShutdownFlag>,
    stop: Arc<AtomicBool>,
}

struct ShutdownFlag {
    flag: Mutex<bool>,
    cv: std::sync::Condvar,
}

impl ShutdownFlag {
    fn set(&self) {
        *self.flag.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut f = self.flag.lock().unwrap();
        while !*f {
            f = self.cv.wait(f).unwrap();
        }
    }
}

/// Bind `server` to a Unix socket at `path` and start accepting.
pub fn serve_on(server: Arc<RadiationServer>, path: &Path) -> io::Result<ServerSocket> {
    // A stale socket file from a dead server would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let shutdown_requested = Arc::new(ShutdownFlag {
        flag: Mutex::new(false),
        cv: std::sync::Condvar::new(),
    });
    let accept_thread = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let shutdown_requested = Arc::clone(&shutdown_requested);
        std::thread::spawn(move || {
            let mut conns = Vec::new();
            for stream in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else { break };
                // Join the connections that have ended: an exited thread
                // keeps its stack mapped until it is joined, so a
                // long-running server must not hold one per connection it
                // ever accepted.
                for c in conns.extract_if(.., |c: &mut std::thread::JoinHandle<()>| c.is_finished()) {
                    let _ = c.join();
                }
                let server = Arc::clone(&server);
                let shutdown_requested = Arc::clone(&shutdown_requested);
                conns.push(std::thread::spawn(move || {
                    handle_connection(&server, stream, &shutdown_requested)
                }));
                #[cfg(test)]
                tests::RETAINED.store(conns.len(), Ordering::Relaxed);
            }
            for c in conns {
                let _ = c.join();
            }
        })
    };
    Ok(ServerSocket {
        path: path.to_path_buf(),
        accept_thread: Some(accept_thread),
        shutdown_requested,
        stop,
    })
}

impl ServerSocket {
    /// Block until a client sends `Shutdown` (the `rmcrt_serve` main
    /// loop).
    pub fn wait_for_shutdown_request(&self) {
        self.shutdown_requested.wait();
    }

    /// Stop accepting and join the transport threads. Does not touch the
    /// [`RadiationServer`] — drain/shutdown ordering is the caller's.
    pub fn close(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a no-op connection.
        let _ = UnixStream::connect(&self.path);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for ServerSocket {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_accepting();
        }
    }
}

fn handle_connection(
    server: &RadiationServer,
    mut stream: UnixStream,
    shutdown_requested: &ShutdownFlag,
) {
    // Jobs this connection submitted and has not yet seen finish: canceled
    // on disconnect so an abandoned client cannot pin capacity.
    let mut owned: Vec<JobId> = Vec::new();
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        let resp = match decode_request(&frame) {
            Err(e) => Response::Error {
                message: e.to_string(),
            },
            Ok(req) => handle_request(server, req, &mut owned, shutdown_requested),
        };
        if write_frame(&mut stream, &encode_response(&resp)).is_err() {
            break;
        }
    }
    for id in owned {
        server.cancel(id);
    }
}

fn handle_request(
    server: &RadiationServer,
    req: Request,
    owned: &mut Vec<JobId>,
    shutdown_requested: &ShutdownFlag,
) -> Response {
    match req {
        Request::Submit { config_text } => match server.submit_text(&config_text) {
            Ok(handle) => {
                owned.push(handle.id());
                Response::Accepted {
                    job_id: handle.id(),
                }
            }
            Err(e) => {
                let code = match &e {
                    SubmitError::BadConfig(_) => RejectCode::BadConfig,
                    SubmitError::TooLarge { .. } => RejectCode::TooLarge,
                    SubmitError::ShuttingDown => RejectCode::ShuttingDown,
                };
                Response::Rejected {
                    code,
                    message: e.to_string(),
                }
            }
        },
        Request::Wait { job_id } => match server.job(job_id) {
            Some(handle) => {
                let outcome = handle.wait();
                owned.retain(|&id| id != job_id);
                Response::Finished { job_id, outcome }
            }
            None => Response::Error {
                message: format!("unknown job {job_id}"),
            },
        },
        Request::Cancel { job_id } => {
            let found = server.cancel(job_id);
            Response::CancelAck { job_id, found }
        }
        Request::Stats => Response::Stats(server.stats()),
        Request::Shutdown => {
            shutdown_requested.set();
            Response::ShutdownAck
        }
    }
}

/// Client side of the wire protocol: one connection, synchronous
/// request/response. Open one client per concurrent submitter.
pub struct ServeClient {
    stream: UnixStream,
}

/// A client-side failure: transport error or a server rejection.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    Wire(protocol::WireError),
    Rejected { code: RejectCode, message: String },
    Server(String),
    UnexpectedResponse,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Rejected { code, message } => {
                write!(f, "rejected ({code:?}): {message}")
            }
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::UnexpectedResponse => write!(f, "unexpected response kind"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ServeClient {
    pub fn connect(path: &Path) -> io::Result<Self> {
        Ok(Self {
            stream: UnixStream::connect(path)?,
        })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &protocol::encode_request(req))?;
        let frame = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let resp = protocol::decode_response(&frame).map_err(ClientError::Wire)?;
        if let Response::Error { message } = resp {
            return Err(ClientError::Server(message));
        }
        Ok(resp)
    }

    /// Submit config text; returns the accepted job id.
    pub fn submit(&mut self, config_text: &str) -> Result<JobId, ClientError> {
        match self.roundtrip(&Request::Submit {
            config_text: config_text.into(),
        })? {
            Response::Accepted { job_id } => Ok(job_id),
            Response::Rejected { code, message } => Err(ClientError::Rejected { code, message }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Block until the job finishes; returns its outcome.
    pub fn wait(&mut self, job_id: JobId) -> Result<JobOutcome, ClientError> {
        match self.roundtrip(&Request::Wait { job_id })? {
            Response::Finished {
                job_id: got,
                outcome,
            } if got == job_id => Ok(outcome),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Fetch server-wide counters.
    pub fn stats(&mut self) -> Result<crate::server::ServerStats, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// Connection threads the accept loop held unjoined after its last
    /// accept.
    pub(super) static RETAINED: AtomicUsize = AtomicUsize::new(0);

    /// A server that has served many short connections holds no exited
    /// connection thread: after 20 sequential connections have closed,
    /// the next accept joins them all and retains only the connections
    /// still open. Under a 10-s deadline.
    #[test]
    fn ended_connections_are_joined_as_new_ones_arrive() {
        let server = Arc::new(RadiationServer::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }));
        let path = std::env::temp_dir().join(format!("rmcrt-net-test-{}.sock", std::process::id()));
        let socket = serve_on(Arc::clone(&server), &path).unwrap();
        for _ in 0..20 {
            ServeClient::connect(&path).unwrap().stats().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut probe = ServeClient::connect(&path).unwrap();
            probe.stats().unwrap();
            let retained = RETAINED.load(Ordering::Relaxed);
            if retained <= 2 {
                break;
            }
            assert!(Instant::now() < deadline, "{retained} connection threads retained after 20 closed");
            drop(probe);
            std::thread::sleep(Duration::from_millis(20));
        }
        socket.close();
        server.shutdown();
    }
}
