//! GPU vs CPU node comparison (the "GPU speedup" the Fig. 2/3 captions
//! refer to, and the context of the paper's predecessor \[5\], which scaled
//! the CPU implementation to 256K cores).
//!
//! One Titan node = 16 Opteron cores + 1 K20X. The GPU wins once patches
//! are big enough to fill it; tiny patches leave it starved (launch +
//! PCIe overheads), which is why the paper sweeps patch sizes.
//!
//! ```text
//! cargo run -p rmcrt-bench --release --bin gpu_vs_cpu
//! ```

use titan_sim::sim::{simulate_timestep, simulate_timestep_cpu};
use uintah::prelude::*;

fn main() {
    let params = MachineParams::titan();
    println!("MEDIUM benchmark (256³/64³, RR 4, 100 rays/cell), modeled Titan node:");
    println!("16 Opteron cores (CPU mode, cell-parallel) vs 1 K20X (GPU pipeline)\n");
    println!(
        "{:>6} {:>7} | {:>10} {:>10} {:>9}",
        "patch", "GPUs", "CPU (s)", "GPU (s)", "speedup"
    );
    for patch in [16i32, 32, 64] {
        let grid = Grid::builder()
            .fine_cells(IntVector::splat(256))
            .num_levels(2)
            .refinement_ratio(4)
            .fine_patch_size(IntVector::splat(patch))
            .build();
        for &n in &[64usize, 256, 1024] {
            if grid.fine_level().num_patches() < n {
                continue;
            }
            let cpu = simulate_timestep_cpu(&grid, n, 4, &params, StoreModel::WaitFreePool);
            let gpu = simulate_timestep(&grid, n, 4, &params, StoreModel::WaitFreePool);
            println!(
                "{:>5}³ {:>7} | {:>10.3} {:>10.3} {:>8.2}x",
                patch,
                n,
                cpu.time,
                gpu.time,
                cpu.time / gpu.time
            );
        }
    }
    println!("\nShape targets: speedup grows with patch size (paper §V point 1: larger");
    println!("patches provide more work per GPU and yield a more significant speedup);");
    println!("tiny (16³) patches underfill the K20X so the 16-core CPU node can win —\nthe 'GPUs starved for work' regime of ref. [6] that patch tuning escapes.");
}
