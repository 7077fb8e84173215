//! `rmcrt_app` — the miniature `sus`: run an RMCRT simulation from a
//! config file and (optionally) archive the results.
//!
//! ```text
//! cargo run --release --bin rmcrt_app -- path/to/run.cfg
//! cargo run --release --bin rmcrt_app -- --print-default-config
//! ```

use std::sync::Arc;
use uintah::config::RunConfig;
use uintah::prelude::*;
use uintah::runtime::DataArchive;

fn main() {
    let arg = std::env::args().nth(1);
    let cfg = match arg.as_deref() {
        Some("--print-default-config") => {
            print!("{}", RunConfig::default().to_text());
            return;
        }
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            RunConfig::parse(&text).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            })
        }
        None => {
            eprintln!("usage: rmcrt_app <config-file> | --print-default-config");
            std::process::exit(2);
        }
    };

    // One shared construction path with the radiation server: the grid,
    // pipeline and world shape all come from the config helpers.
    let (grid, decls) = cfg.build_problem();

    println!(
        "rmcrt_app: {} levels, fine {}³ ({} patches of {}³), {} ranks × {} threads, {} rays/cell{}",
        grid.num_levels(),
        cfg.fine_cells,
        grid.fine_level().num_patches(),
        cfg.patch_size,
        cfg.ranks,
        cfg.threads,
        cfg.nrays,
        if cfg.gpu { ", GPU" } else { "" },
    );
    let t0 = std::time::Instant::now();
    let result = run_world(Arc::clone(&grid), decls, cfg.world_config());
    println!(
        "done in {:.2?}: {} messages, {} payload bytes across ranks/timesteps",
        t0.elapsed(),
        result.total_messages(),
        result.total_bytes()
    );

    // Aggregate divQ stats.
    let divq = result.fine_field(&grid, DIVQ);
    let cells = divq.as_slice();
    println!(
        "divQ over {} fine cells: min {:+.4}  mean {:+.4}  max {:+.4} (W/m³)",
        cells.len(),
        cells.iter().copied().fold(f64::INFINITY, f64::min),
        cells.iter().sum::<f64>() / cells.len() as f64,
        cells.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    );

    if let Some(out) = &cfg.output {
        let archive = DataArchive::create(out).unwrap_or_else(|e| {
            eprintln!("cannot create archive {}: {e}", out.display());
            std::process::exit(1);
        });
        let ts = (cfg.timesteps - 1) as u32;
        let mut pieces = 0;
        for rr in &result.ranks {
            for &pid in result.dist.owned_by(rr.rank) {
                if grid.patch(pid).level_index() != grid.fine_level_index() {
                    continue;
                }
                let v = rr.dw.get_patch(DIVQ, pid).expect("divQ computed");
                archive.save_field(ts, DIVQ, pid.0, &v).unwrap_or_else(|e| {
                    eprintln!("cannot archive divQ piece {} to {}: {e}", pid.0, out.display());
                    std::process::exit(1);
                });
                pieces += 1;
            }
        }
        println!("archived {pieces} divQ pieces to {}", out.display());
    }
}
