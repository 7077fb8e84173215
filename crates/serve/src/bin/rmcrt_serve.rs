//! `rmcrt_serve` — run the multi-tenant radiation server on a Unix
//! socket.
//!
//! ```text
//! rmcrt_serve /tmp/rmcrt.sock [--workers N] [--gpus N] [--gpu-capacity-mb N]
//! ```
//!
//! Runs until a client sends `Shutdown` (e.g. `rmcrt_submit --shutdown`),
//! then drains queued and active jobs, drops warm state and exits with
//! the fleet meters at zero.

use std::path::PathBuf;
use std::sync::Arc;
use uintah_serve::{serve_on, RadiationServer, ServeConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path: Option<PathBuf> = None;
    let mut cfg = ServeConfig::default();
    while let Some(arg) = args.next() {
        let mut numeric = |name: &str| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die(&format!("{name} needs a numeric argument")))
        };
        match arg.as_str() {
            "--workers" => cfg.workers = numeric("--workers"),
            "--gpus" => cfg.gpus = numeric("--gpus"),
            "--gpu-capacity-mb" => cfg.gpu_capacity_mb = numeric("--gpu-capacity-mb"),
            "--graph-cache" => cfg.graph_cache_cap = numeric("--graph-cache"),
            "--max-idle-slots" => cfg.max_idle_slots = numeric("--max-idle-slots"),
            "--help" | "-h" => {
                usage();
                return;
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(PathBuf::from(other))
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    let Some(path) = path else {
        usage();
        std::process::exit(2);
    };
    if let Err(why) = cfg.validate() {
        die(&why);
    }
    let server = Arc::new(RadiationServer::start(cfg.clone()));
    let socket = serve_on(Arc::clone(&server), &path).unwrap_or_else(|e| {
        die(&format!("cannot bind {}: {e}", path.display()));
    });
    println!(
        "rmcrt_serve: listening on {} ({} workers, {} device(s) × {} MiB)",
        path.display(),
        cfg.workers,
        cfg.gpus,
        cfg.gpu_capacity_mb
    );
    socket.wait_for_shutdown_request();
    println!("rmcrt_serve: shutdown requested, draining…");
    // Ordering: stop accepting new connections, finish queued + active
    // jobs, then drop warm state so the fleet meters read zero.
    socket.close();
    server.drain();
    let stats = server.stats();
    server.shutdown();
    let used = server.fleet().total_used();
    println!(
        "rmcrt_serve: done — {} completed, {} canceled, {} failed, {} rejected; \
         slot hits {}, shared graph hits {}; fleet used at exit: {} B",
        stats.completed,
        stats.canceled,
        stats.failed,
        stats.rejected,
        stats.slot_hits,
        stats.shared_graph_hits,
        used
    );
    if used != 0 {
        eprintln!("rmcrt_serve: WARNING: fleet meters nonzero after drain");
        std::process::exit(1);
    }
}

fn usage() {
    println!(
        "usage: rmcrt_serve <socket-path> [--workers N] [--gpus N] \
         [--gpu-capacity-mb N] [--graph-cache N] [--max-idle-slots N]"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("rmcrt_serve: {msg}");
    std::process::exit(2);
}
