//! Simulation configuration files.
//!
//! Uintah drives runs from `.ups` XML problem specifications; the
//! `rmcrt_app` binary uses the same idea at miniature scale with a plain
//! `key = value` format (one per line, `#` comments):
//!
//! ```
//! let cfg = uintah::config::RunConfig::parse(
//!     "# RMCRT benchmark run
//!      problem    = benchmark
//!      fine_cells = 64
//!      patch_size = 16
//!      levels     = 2
//!      refinement_ratio = 4
//!      nrays      = 100
//!      threshold  = 0.05
//!      halo       = 4
//!      ranks      = 4
//!      threads    = 2
//!      store      = waitfree
//!      gpu        = false
//!      timesteps  = 1
//!      sampling   = independent
//!      output     = ./rmcrt.uda",
//! )
//! .unwrap();
//! assert_eq!((cfg.fine_cells, cfg.nrays, cfg.ranks), (64, 100, 4));
//! ```
//!
//! Every key is declared exactly once, as a row of [`KEYS`]: parsing,
//! printing ([`RunConfig::to_text`], `rmcrt_app --print-default-config`)
//! and the serve slot-compatibility hash ([`RunConfig::shape_signature`])
//! are all derived from that table.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::str::FromStr;
use uintah_grid::RebalancePolicy;
use uintah_runtime::StoreKind;

/// A parsed run specification.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    pub problem: Problem,
    pub fine_cells: i32,
    pub patch_size: i32,
    pub levels: usize,
    pub refinement_ratio: i32,
    pub nrays: u32,
    pub threshold: f64,
    pub halo: i32,
    pub ranks: usize,
    pub threads: usize,
    pub store: StoreKind,
    pub gpu: bool,
    /// Simulated GPUs per rank (1 = Titan's single K20X, 6 = Summit-style).
    pub gpus_per_rank: usize,
    /// Per-device memory capacity in MiB (default 6144 — the K20X's 6 GB).
    /// Problems larger than this per device exercise the oversubscription
    /// path: LRU eviction with spill-to-host.
    pub gpu_capacity_mb: usize,
    pub timesteps: usize,
    pub sampling: rmcrt_core::RaySampling,
    /// `true` = adaptive per-cell ray counts ([`rmcrt_core::RayCountMode::Adaptive`]
    /// between `rays_min` and `rays_max`); `false` = fixed `nrays` per cell.
    pub adaptive_rays: bool,
    /// First batch size in adaptive mode.
    pub rays_min: u32,
    /// Ray budget ceiling per cell in adaptive mode.
    pub rays_max: u32,
    /// Adaptive stopping rule: stop when the standard error of the mean
    /// intensity falls below this fraction of its magnitude.
    pub rel_var_target: f64,
    /// Rebalance ownership every `k` timesteps from measured per-patch
    /// costs; 0 disables regridding.
    pub regrid_interval: usize,
    /// Rebalance policy applied at each regrid interval.
    pub regrid_policy: RebalancePolicy,
    /// Queue tier when the config is submitted to the radiation server.
    pub priority: JobPriority,
    pub output: Option<PathBuf>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    /// The Burns & Christon benchmark (the paper's workload).
    Benchmark,
}

/// Scheduling tier of a job submitted to the radiation server
/// (`uintah-serve`). High-priority jobs drain before any normal-tier job,
/// FIFO within each tier; a single-run `rmcrt_app` ignores it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobPriority {
    #[default]
    Normal,
    High,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            problem: Problem::Benchmark,
            fine_cells: 32,
            patch_size: 8,
            levels: 2,
            refinement_ratio: 4,
            nrays: 64,
            threshold: 0.05,
            halo: 4,
            ranks: 2,
            threads: 2,
            store: StoreKind::WaitFree,
            gpu: false,
            gpus_per_rank: 1,
            gpu_capacity_mb: 6144,
            timesteps: 1,
            sampling: rmcrt_core::RaySampling::Independent,
            adaptive_rays: false,
            rays_min: 16,
            rays_max: 1024,
            rel_var_target: 0.05,
            regrid_interval: 0,
            regrid_policy: RebalancePolicy::CostedSfc,
            priority: JobPriority::Normal,
            output: None,
        }
    }
}

/// A configuration parse error with the offending line.
#[derive(Debug, PartialEq, Eq)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Why a key's `set` refused a value. [`RunConfig::parse`] words the error
/// with the key's name, so no row spells its own name twice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BadValue {
    Number,
    Bool,
    Choice,
}

/// One configuration key — the only place its name, help text, parser and
/// printer are written down.
pub struct Key {
    pub name: &'static str,
    /// Baked into a serve slot's structures at construction (mesh, world
    /// size, store, GPU warehouse options): jobs share a warm slot only
    /// when every `shape` key prints the same. Everything else is a
    /// per-job parameter that flows through declarations and per-step calls.
    pub shape: bool,
    pub help: &'static str,
    pub set: fn(&mut RunConfig, &str) -> Result<(), BadValue>,
    /// The value as `parse` would accept it; empty = unset (printed
    /// commented out).
    pub show: fn(&RunConfig) -> String,
}

/// The accepted spellings of an enumerated key; the first spelling of a
/// value is the one `show` prints, later ones are aliases.
type Choices<T> = &'static [(&'static str, T)];

const PROBLEMS: Choices<Problem> = &[("benchmark", Problem::Benchmark)];
const STORES: Choices<StoreKind> = &[
    ("waitfree", StoreKind::WaitFree),
    ("mutex", StoreKind::Mutex),
    ("racy", StoreKind::Racy),
];
const REGRID_POLICIES: Choices<RebalancePolicy> = &[
    ("sfc", RebalancePolicy::CostedSfc),
    ("rotate", RebalancePolicy::Rotate(1)),
];
const SAMPLINGS: Choices<rmcrt_core::RaySampling> = &[
    ("independent", rmcrt_core::RaySampling::Independent),
    ("lhc", rmcrt_core::RaySampling::LatinHypercube),
    ("latin_hypercube", rmcrt_core::RaySampling::LatinHypercube),
];
const RAY_COUNTS: Choices<bool> = &[("fixed", false), ("adaptive", true)];
const PRIORITIES: Choices<JobPriority> =
    &[("normal", JobPriority::Normal), ("high", JobPriority::High)];

fn num<T: FromStr>(v: &str) -> Result<T, BadValue> {
    v.parse().map_err(|_| BadValue::Number)
}

fn boolean(v: &str) -> Result<bool, BadValue> {
    match v {
        "true" | "yes" | "1" => Ok(true),
        "false" | "no" | "0" => Ok(false),
        _ => Err(BadValue::Bool),
    }
}

fn pick<T: Copy>(choices: Choices<T>, v: &str) -> Result<T, BadValue> {
    let hit = choices.iter().find(|(name, _)| *name == v);
    hit.map(|&(_, x)| x).ok_or(BadValue::Choice)
}

/// The canonical spelling of `x`; a value with no spelling (only a
/// hand-built `Rotate(k != 1)`) prints as the last choice.
fn spell<T: PartialEq>(choices: Choices<T>, x: &T) -> String {
    let hit = choices.iter().find(|(_, y)| y == x).or(choices.last());
    hit.map_or(String::new(), |(name, _)| name.to_string())
}

/// A device capacity in MiB as bytes, or `None` when the byte count
/// overflows `usize`. The one conversion every capacity setting goes
/// through (`RunConfig::world_config`, the radiation server's fleet).
pub fn mib_to_bytes(mb: usize) -> Option<usize> {
    mb.checked_mul(1 << 20)
}

const SHAPE: bool = true;
const PER_JOB: bool = false;

macro_rules! scalar {
    ($name:literal, $shape:expr, $field:ident, $parse:ident, $help:literal) => {
        Key {
            name: $name,
            shape: $shape,
            help: $help,
            set: |c, v| $parse(v).map(|x| c.$field = x),
            show: |c| c.$field.to_string(),
        }
    };
}
macro_rules! choice {
    ($name:literal, $shape:expr, $field:ident, $choices:ident, $help:literal) => {
        Key {
            name: $name,
            shape: $shape,
            help: $help,
            set: |c, v| pick($choices, v).map(|x| c.$field = x),
            show: |c| spell($choices, &c.$field),
        }
    };
}

/// Every configuration key, in the order `to_text` prints them.
#[rustfmt::skip]
pub const KEYS: &[Key] = &[
    choice!("problem", PER_JOB, problem, PROBLEMS, "benchmark (Burns & Christon)"),
    scalar!("fine_cells", SHAPE, fine_cells, num, "fine-level cells per side"),
    scalar!("patch_size", SHAPE, patch_size, num, "fine patch cells per side; must divide fine_cells"),
    scalar!("levels", SHAPE, levels, num, "AMR levels, 1..=4"),
    scalar!("refinement_ratio", SHAPE, refinement_ratio, num, "cell ratio between adjacent levels"),
    scalar!("nrays", PER_JOB, nrays, num, "rays per cell (ray_count = fixed)"),
    scalar!("threshold", PER_JOB, threshold, num, "ray extinction threshold, in (0, 1)"),
    scalar!("halo", PER_JOB, halo, num, "fine-level ghost cells around each patch's region of interest"),
    scalar!("ranks", SHAPE, ranks, num, "simulated MPI ranks"),
    scalar!("threads", SHAPE, threads, num, "worker threads per rank"),
    choice!("store", SHAPE, store, STORES, "request store: waitfree | mutex | racy"),
    scalar!("gpu", SHAPE, gpu, boolean, "run the ray trace as GPU tasks"),
    scalar!("gpus_per_rank", PER_JOB, gpus_per_rank, num, "simulated GPUs per rank (6 = Summit-style)"),
    scalar!("gpu_capacity_mb", PER_JOB, gpu_capacity_mb, num, "per-device memory budget (6144 = K20X 6 GB)"),
    scalar!("regrid_interval", PER_JOB, regrid_interval, num, "rebalance ownership every k timesteps; 0 = never"),
    choice!("regrid_policy", PER_JOB, regrid_policy, REGRID_POLICIES, "sfc | rotate"),
    scalar!("timesteps", PER_JOB, timesteps, num, "radiation solves to run"),
    choice!("sampling", PER_JOB, sampling, SAMPLINGS, "independent | lhc"),
    choice!("ray_count", PER_JOB, adaptive_rays, RAY_COUNTS, "fixed (nrays per cell) | adaptive"),
    scalar!("rays_min", PER_JOB, rays_min, num, "adaptive: first batch size"),
    scalar!("rays_max", PER_JOB, rays_max, num, "adaptive: per-cell ray budget ceiling"),
    scalar!("rel_var_target", PER_JOB, rel_var_target, num, "adaptive: stop when sem(I) <= target * |mean I|"),
    choice!("priority", PER_JOB, priority, PRIORITIES, "queue tier under uintah-serve: normal | high"),
    Key {
        name: "output",
        shape: PER_JOB,
        help: "archive divQ here, e.g. ./rmcrt.uda",
        set: |c, v| { c.output = Some(PathBuf::from(v)); Ok(()) },
        show: |c| c.output.as_ref().map_or(String::new(), |p| p.display().to_string()),
    },
];

impl RunConfig {
    /// Parse from `key = value` text. Unknown keys are errors (typos should
    /// not silently change a run).
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut cfg = RunConfig::default();
        // Line each key was first set on (0 = not yet).
        let mut seen = [0usize; KEYS.len()];
        for (ln, raw) in text.lines().enumerate() {
            let line = ln + 1;
            let bad = |message: String| ConfigError { line, message };
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return Err(bad(format!("expected 'key = value', got '{content}'")));
            };
            let (key, value) = (key.trim(), value.trim());
            let Some(i) = KEYS.iter().position(|k| k.name == key) else {
                return Err(bad(format!("unknown key '{key}'")));
            };
            if seen[i] != 0 {
                return Err(bad(format!(
                    "duplicate key '{key}' (first on line {})",
                    seen[i]
                )));
            }
            seen[i] = line;
            (KEYS[i].set)(&mut cfg, value).map_err(|why| {
                bad(match why {
                    BadValue::Number => format!("invalid value '{value}' for {key}"),
                    BadValue::Bool => format!("invalid bool '{value}'"),
                    BadValue::Choice => format!("unknown {key} '{value}'"),
                })
            })?;
        }
        cfg.validate().map_err(|message| ConfigError { line: 0, message })?;
        Ok(cfg)
    }

    /// Render as config text that [`Self::parse`] reads back to an equal
    /// `RunConfig`: every key of [`KEYS`] with its help as a trailing
    /// comment; unset keys are commented out.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# rmcrt_app configuration\n");
        for key in KEYS {
            let value = (key.show)(self);
            let unset = if value.is_empty() { "#" } else { "" };
            let assignment = format!("{unset}{} = {value}", key.name);
            out.push_str(&format!("{assignment:<26} # {}\n", key.help));
        }
        out
    }

    /// The slot-compatibility key of the radiation server: hashes what the
    /// `shape` keys print, i.e. exactly the configuration a slot's
    /// structures bake in at construction. Jobs with equal signatures can
    /// share a slot; per-job keys (ray counts, halos, priorities,
    /// timesteps, regrid schedules) deliberately stay out.
    pub fn shape_signature(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for key in KEYS.iter().filter(|k| k.shape) {
            (key.show)(self).hash(&mut h);
        }
        h.finish()
    }

    /// Range and cross-field validation. Everything a hand-built or parsed
    /// `RunConfig` must satisfy before [`Self::build_problem`] may be
    /// called on it — config text arrives from outside the program (files,
    /// the serve wire), so nothing downstream may panic on a value that
    /// passed here.
    pub fn validate(&self) -> Result<(), String> {
        if self.fine_cells <= 0 || self.patch_size <= 0 {
            return Err("fine_cells and patch_size must be positive".into());
        }
        if self.fine_cells % self.patch_size != 0 {
            return Err(format!(
                "patch_size {} does not divide fine_cells {}",
                self.patch_size, self.fine_cells
            ));
        }
        if self.levels == 0 || self.levels > 4 {
            return Err("levels must be 1..=4".into());
        }
        if self.refinement_ratio < 1 {
            return Err("refinement_ratio must be >= 1".into());
        }
        if self.levels >= 2 {
            let Some(span) = self.refinement_ratio.checked_pow(self.levels as u32 - 1) else {
                return Err(format!(
                    "refinement_ratio {}^(levels-1) overflows",
                    self.refinement_ratio
                ));
            };
            if self.fine_cells % span != 0 {
                return Err(format!(
                    "fine_cells {} not divisible by refinement_ratio^(levels-1) = {span}",
                    self.fine_cells
                ));
            }
            // Restriction windows must tile every coarser level exactly
            // (`rmcrt_core::tasks::multilevel_decls` asserts it).
            if self.patch_size % span != 0 {
                return Err(format!(
                    "patch_size {} not divisible by refinement_ratio^(levels-1) = {span}",
                    self.patch_size
                ));
            }
        }
        if self.halo < 0 {
            return Err("halo must be >= 0".into());
        }
        if self.timesteps == 0 {
            return Err("timesteps must be >= 1".into());
        }
        if self.ranks == 0 || self.threads == 0 {
            return Err("ranks and threads must be >= 1".into());
        }
        if self.gpus_per_rank == 0 {
            return Err("gpus_per_rank must be >= 1".into());
        }
        if self.gpu_capacity_mb == 0 {
            return Err("gpu_capacity_mb must be >= 1".into());
        }
        if mib_to_bytes(self.gpu_capacity_mb).is_none() {
            return Err(format!(
                "gpu_capacity_mb {} overflows a byte count",
                self.gpu_capacity_mb
            ));
        }
        if self.nrays == 0 {
            return Err("nrays must be >= 1".into());
        }
        if !(self.threshold > 0.0 && self.threshold < 1.0) {
            return Err("threshold must be in (0, 1)".into());
        }
        if self.adaptive_rays {
            if self.rays_min == 0 {
                return Err("rays_min must be >= 1".into());
            }
            if self.rays_min > self.rays_max {
                return Err(format!(
                    "rays_min {} exceeds rays_max {}",
                    self.rays_min, self.rays_max
                ));
            }
            if !(self.rel_var_target > 0.0 && self.rel_var_target < 1.0) {
                return Err("rel_var_target must be in (0, 1)".into());
            }
        }
        if self.sampling == rmcrt_core::RaySampling::LatinHypercube {
            let batch = self.ray_count().largest_batch();
            let bound = rmcrt_core::sampling::MAX_LHC_BATCH;
            if batch > bound {
                return Err(format!(
                    "sampling = lhc draws a {batch}-ray batch, above the Latin-hypercube bound of {bound} rays"
                ));
            }
        }
        Ok(())
    }

    /// Materialize the configured problem: the AMR grid and the task
    /// declarations of the selected pipeline. The one construction path
    /// shared by `rmcrt_app` (single run) and `uintah-serve` (per job), so
    /// a job served over the wire is guaranteed to solve exactly what a
    /// standalone run of the same config would.
    pub fn build_problem(
        &self,
    ) -> (
        std::sync::Arc<uintah_grid::Grid>,
        std::sync::Arc<Vec<uintah_runtime::TaskDecl>>,
    ) {
        use std::sync::Arc;
        let Problem::Benchmark = self.problem;
        let grid = Arc::new(
            uintah_grid::Grid::builder()
                .fine_cells(uintah_grid::IntVector::splat(self.fine_cells))
                .num_levels(self.levels)
                .refinement_ratio(self.refinement_ratio)
                .fine_patch_size(uintah_grid::IntVector::splat(self.patch_size))
                .build(),
        );
        let pipeline = rmcrt_core::tasks::RmcrtPipeline {
            params: rmcrt_core::RmcrtParams {
                nrays: self.nrays,
                threshold: self.threshold,
                sampling: self.sampling,
                ray_count: Some(self.ray_count()),
                ..Default::default()
            },
            halo: self.halo,
            problem: rmcrt_core::BurnsChriston::default(),
        };
        let decls = Arc::new(if self.levels >= 2 {
            rmcrt_core::tasks::multilevel_decls(&grid, pipeline, self.gpu)
        } else {
            rmcrt_core::tasks::single_level_decls(&grid, pipeline, self.gpu)
        });
        (grid, decls)
    }

    /// The [`uintah_runtime::WorldConfig`] this run configuration selects
    /// (ranks, threads, store, GPU fleet shape, regrid schedule).
    pub fn world_config(&self) -> uintah_runtime::WorldConfig {
        uintah_runtime::WorldConfig {
            nranks: self.ranks,
            nthreads: self.threads,
            store: self.store,
            timesteps: self.timesteps,
            gpu_capacity: self.gpu.then(|| {
                mib_to_bytes(self.gpu_capacity_mb)
                    .expect("validate() refuses an overflowing capacity")
            }),
            gpus_per_rank: self.gpus_per_rank,
            regrid_interval: (self.regrid_interval > 0).then_some(self.regrid_interval),
            regrid_policy: self.regrid_policy,
            ..Default::default()
        }
    }

    /// The ray-count policy this configuration selects.
    pub fn ray_count(&self) -> rmcrt_core::RayCountMode {
        if self.adaptive_rays {
            rmcrt_core::RayCountMode::Adaptive {
                min: self.rays_min,
                max: self.rays_max,
                rel_var_target: self.rel_var_target,
            }
        } else {
            rmcrt_core::RayCountMode::Fixed(self.nrays)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let text = "
            # a comment
            problem = benchmark
            fine_cells = 64   # trailing comment
            patch_size = 16
            levels = 2
            refinement_ratio = 4
            nrays = 100
            threshold = 0.05
            halo = 4
            ranks = 4
            threads = 2
            store = mutex
            gpu = true
            timesteps = 3
            sampling = lhc
            output = /tmp/x.uda
        ";
        let cfg = RunConfig::parse(text).unwrap();
        assert_eq!(cfg.fine_cells, 64);
        assert_eq!(cfg.store, StoreKind::Mutex);
        assert!(cfg.gpu);
        assert_eq!(cfg.sampling, rmcrt_core::RaySampling::LatinHypercube);
        assert_eq!(cfg.output, Some(PathBuf::from("/tmp/x.uda")));
        assert_eq!(cfg.timesteps, 3);
    }

    #[test]
    fn defaults_apply_for_missing_keys() {
        let cfg = RunConfig::parse("nrays = 8").unwrap();
        assert_eq!(cfg.nrays, 8);
        assert_eq!(cfg.ranks, RunConfig::default().ranks);
    }

    #[test]
    fn unknown_key_rejected_with_line() {
        // Retired keys (`gpu_h2d`, `aggregate`, `gpu_eviction`,
        // `gpu_affinity`) are unknown keys like any other.
        for (text, line) in [
            ("nrayz = 8", 1),
            ("nrays = 8\ngpu_h2d = async", 2),
            ("aggregate = true", 1),
            ("gpu_eviction = off", 1),
            ("gpus_per_rank = 2\n\ngpu_affinity = cost", 3),
        ] {
            let err = RunConfig::parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text}");
            assert!(err.message.contains("unknown key"), "{text}: {err}");
        }
    }

    #[test]
    fn parses_regrid_keys() {
        let cfg = RunConfig::parse("regrid_interval = 5\nregrid_policy = sfc").unwrap();
        assert_eq!(cfg.regrid_interval, 5);
        assert_eq!(cfg.regrid_policy, RebalancePolicy::CostedSfc);
        let cfg = RunConfig::parse("regrid_policy = rotate").unwrap();
        assert_eq!(cfg.regrid_policy, RebalancePolicy::Rotate(1));
        assert_eq!(cfg.regrid_interval, 0, "regridding off by default");
        // `lpt` is a retired spelling: refused, not silently mapped.
        for value in ["magic", "lpt"] {
            let err = RunConfig::parse(&format!("regrid_policy = {value}")).unwrap_err();
            assert_eq!(err.message, format!("unknown regrid_policy '{value}'"));
        }
    }

    #[test]
    fn parses_fleet_keys() {
        let cfg = RunConfig::parse("gpus_per_rank = 6").unwrap();
        assert_eq!(cfg.gpus_per_rank, 6);
        let cfg = RunConfig::parse("gpu = true").unwrap();
        assert_eq!(cfg.gpus_per_rank, 1, "single K20X per rank by default");
        assert!(RunConfig::parse("gpus_per_rank = 0").is_err());
        // Patches are always homed by the sticky hash: the retired key is
        // refused even with its old default value.
        assert!(RunConfig::parse("gpu_affinity = sticky").is_err());
        // Oversubscription key: capacity in MiB.
        assert_eq!(cfg.gpu_capacity_mb, 6144, "K20X 6 GB by default");
        let cfg = RunConfig::parse("gpu_capacity_mb = 512").unwrap();
        assert_eq!(cfg.gpu_capacity_mb, 512);
        assert!(RunConfig::parse("gpu_capacity_mb = 0").is_err());
    }

    #[test]
    fn parses_ray_count_keys() {
        let cfg = RunConfig::parse(
            "ray_count = adaptive\nrays_min = 8\nrays_max = 512\nrel_var_target = 0.02",
        )
        .unwrap();
        assert!(cfg.adaptive_rays);
        assert_eq!(
            cfg.ray_count(),
            rmcrt_core::RayCountMode::Adaptive {
                min: 8,
                max: 512,
                rel_var_target: 0.02
            }
        );
        let cfg = RunConfig::parse("ray_count = fixed\nnrays = 40").unwrap();
        assert_eq!(cfg.ray_count(), rmcrt_core::RayCountMode::Fixed(40));
        assert_eq!(
            RunConfig::default().ray_count(),
            rmcrt_core::RayCountMode::Fixed(RunConfig::default().nrays),
            "fixed mode is the default"
        );
        assert!(RunConfig::parse("ray_count = magic").is_err());
        assert!(RunConfig::parse("ray_count = adaptive\nrays_min = 99\nrays_max = 10").is_err());
        assert!(RunConfig::parse("ray_count = adaptive\nrel_var_target = 2.0").is_err());
    }

    /// `sampling = lhc` keeps a 4-byte stratum per ray of a batch, so
    /// `nrays = 600000000` used to ask for 2.4 GB: a budget whose largest
    /// batch is above `MAX_LHC_BATCH` is refused, naming the bound; one at
    /// the bound, an adaptive budget above it whose batches stay under it,
    /// and independent sampling at any budget still parse.
    #[test]
    fn lhc_batch_above_the_bound_is_refused() {
        let bound = rmcrt_core::sampling::MAX_LHC_BATCH;
        let err = RunConfig::parse("sampling = lhc\nnrays = 600000000").unwrap_err().to_string();
        assert!(err.contains(&format!("bound of {bound} rays")), "{err}");
        let err = RunConfig::parse(&format!("sampling = lhc\nnrays = {}", bound + 1)).unwrap_err().to_string();
        assert!(err.contains("1048577-ray batch"), "{err}");
        let err = RunConfig::parse(&format!(
            "sampling = lhc\nray_count = adaptive\nrays_min = {}\nrays_max = {}",
            bound + 1,
            bound + 1
        ))
        .unwrap_err().to_string();
        assert!(err.contains("bound"), "{err}");
        assert!(RunConfig::parse(&format!("sampling = lhc\nnrays = {bound}")).is_ok());
        // 1, 2, …, 2¹⁹ rays, then the 951425 left of two million.
        assert!(RunConfig::parse("sampling = lhc\nray_count = adaptive\nrays_min = 1\nrays_max = 2000000").is_ok());
        assert!(RunConfig::parse("sampling = independent\nnrays = 600000000").is_ok());
    }

    #[test]
    fn parses_priority_key() {
        assert_eq!(RunConfig::default().priority, JobPriority::Normal);
        let cfg = RunConfig::parse("priority = high").unwrap();
        assert_eq!(cfg.priority, JobPriority::High);
        let cfg = RunConfig::parse("priority = normal").unwrap();
        assert_eq!(cfg.priority, JobPriority::Normal);
        assert!(RunConfig::parse("priority = urgent").is_err());
    }

    #[test]
    fn build_problem_matches_manual_construction() {
        let cfg = RunConfig::parse("fine_cells = 16\npatch_size = 4\nlevels = 2").unwrap();
        let (grid, decls) = cfg.build_problem();
        assert_eq!(grid.num_levels(), 2);
        assert_eq!(grid.fine_level().cell_region().extent().x, 16);
        assert!(!decls.is_empty());
        let wc = cfg.world_config();
        assert_eq!(wc.nranks, cfg.ranks);
        assert_eq!(wc.nthreads, cfg.threads);
        assert_eq!(wc.gpu_capacity, None, "gpu off by default");
        let gcfg = RunConfig::parse("gpu = true\ngpu_capacity_mb = 64").unwrap();
        assert_eq!(gcfg.world_config().gpu_capacity, Some(64 << 20));
    }

    #[test]
    fn duplicate_key_rejected() {
        let err = RunConfig::parse("nrays = 8\nnrays = 9").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn bad_value_rejected() {
        assert!(RunConfig::parse("nrays = many").is_err());
        assert!(RunConfig::parse("gpu = perhaps").is_err());
        assert!(RunConfig::parse("store = spinlock").is_err());
    }

    #[test]
    fn cross_field_validation() {
        // Patch size must divide cells.
        assert!(RunConfig::parse("fine_cells = 30\npatch_size = 8").is_err());
        // RR^levels must divide cells.
        assert!(RunConfig::parse("fine_cells = 24\npatch_size = 8\nlevels = 2\nrefinement_ratio = 16").is_err());
        // Valid baseline passes.
        assert!(RunConfig::parse("fine_cells = 32\npatch_size = 8").is_ok());
    }

    /// Config text arrives from outside the program (files, the serve
    /// wire): values that used to panic in `parse`, `build_problem` or a
    /// task body must come back as a `ConfigError` instead.
    #[test]
    fn malformed_values_are_errors_not_panics() {
        for text in [
            "refinement_ratio = 0",
            "refinement_ratio = -4",
            "refinement_ratio = 100000\nlevels = 4",
            "halo = -1",
            "timesteps = 0",
            "fine_cells = 16\npatch_size = 2\nlevels = 2\nrefinement_ratio = 4",
            // 2^44 MiB is 2^64 bytes: unchecked, it wraps to a 0-byte device.
            "gpu = true\ngpu_capacity_mb = 17592186044416",
        ] {
            let err = RunConfig::parse(text).expect_err(text);
            assert_eq!(err.line, 0, "{text}: a validation error, not a syntax error");
        }
        // A single level never reads the ratio's power, but the grid
        // builder still asserts on the ratio itself.
        assert!(RunConfig::parse("levels = 1\nrefinement_ratio = 0").is_err());
    }

    #[test]
    fn error_text_names_key_value_and_line() {
        let msg = |text: &str| RunConfig::parse(text).unwrap_err().to_string();
        assert_eq!(msg("nrays = many"), "config line 1: invalid value 'many' for nrays");
        assert_eq!(msg("\ngpu = perhaps"), "config line 2: invalid bool 'perhaps'");
        assert_eq!(msg("store = spinlock"), "config line 1: unknown store 'spinlock'");
        assert_eq!(msg("nrays = 8\n\nnrays = 9"), "config line 3: duplicate key 'nrays' (first on line 1)");
        assert_eq!(msg("just words"), "config line 1: expected 'key = value', got 'just words'");
    }
}
