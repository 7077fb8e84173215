//! Task declarations and the execution context handed to task functions.

use crate::dw::DataWarehouse;
use std::sync::Arc;
use uintah_exec::ExecSpace;
use uintah_grid::{CcVariable, FieldData, Grid, LevelIndex, Patch, Region, VarLabel};
use uintah_gpu::{GpuDataWarehouse, PendingD2H};

/// Where a task's kernel runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskKind {
    Cpu,
    /// Staged through the GPU DataWarehouse; per-level inputs go through the
    /// level database, outputs come back over the (metered) PCIe model.
    Gpu,
}

/// A data requirement of a task instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Requirement {
    /// The variable on the task's own level within `g` ghost cells of the
    /// patch — satisfied by neighbouring patches (possibly remote). With
    /// `g = 0` it is the variable on the task's own patch.
    Ghost(VarLabel, i32),
    /// The whole-level replica of `label` on level `li` — Uintah's
    /// "infinite ghost cells" / global halo, the all-to-all requirement of
    /// the coarse radiation meshes.
    WholeLevel(VarLabel, LevelIndex),
}

impl Requirement {
    pub(crate) fn label(&self) -> VarLabel {
        match *self {
            Requirement::Ghost(l, _) | Requirement::WholeLevel(l, _) => l,
        }
    }
}

/// A product of a task instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Computes {
    /// A variable on the task's own patch.
    PatchVar(VarLabel),
    /// This task (running on a fine patch) produces the restriction window
    /// of its patch onto coarse level `li` — the building block of the
    /// whole-level replicas.
    LevelWindow(VarLabel, LevelIndex),
}

/// The function body of a task, invoked once per owned patch.
pub type TaskFn = Arc<dyn Fn(&mut TaskContext<'_>) + Send + Sync>;

/// A task declaration: Uintah's `Task` with its requires/computes lists.
#[derive(Clone)]
pub struct TaskDecl {
    pub name: &'static str,
    /// Which level's patches this task runs on.
    pub level: LevelIndex,
    pub kind: TaskKind,
    pub requires: Vec<Requirement>,
    pub computes: Vec<Computes>,
    pub func: TaskFn,
}

impl TaskDecl {
    pub fn new(name: &'static str, level: LevelIndex, func: TaskFn) -> Self {
        Self {
            name,
            level,
            kind: TaskKind::Cpu,
            requires: Vec::new(),
            computes: Vec::new(),
            func,
        }
    }

    pub fn on_gpu(mut self) -> Self {
        self.kind = TaskKind::Gpu;
        self
    }

    pub fn requires(mut self, r: Requirement) -> Self {
        self.requires.push(r);
        self
    }

    pub fn computes(mut self, c: Computes) -> Self {
        self.computes.push(c);
        self
    }
}

impl std::fmt::Debug for TaskDecl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskDecl")
            .field("name", &self.name)
            .field("level", &self.level)
            .field("kind", &self.kind)
            .field("requires", &self.requires)
            .field("computes", &self.computes)
            .finish()
    }
}

/// Everything a task body may touch. The data-warehouse accessors enforce
/// the declared dependencies at debug time (a requirement the runtime has
/// already satisfied is guaranteed present).
pub struct TaskContext<'a> {
    pub(crate) grid: &'a Grid,
    pub(crate) patch: &'a Patch,
    pub(crate) dw: &'a DataWarehouse,
    pub(crate) gpu: Option<&'a GpuDataWarehouse>,
    pub(crate) space: ExecSpace,
}

impl<'a> TaskContext<'a> {
    #[inline]
    pub fn grid(&self) -> &Grid {
        self.grid
    }

    #[inline]
    pub fn patch(&self) -> &Patch {
        self.patch
    }

    /// The execution space the scheduler picked for this task (GPU tasks
    /// get the rank's metered `Device` space, CPU tasks a host space).
    /// Task bodies dispatch every cell-region kernel through this.
    #[inline]
    pub fn exec_space(&self) -> &ExecSpace {
        &self.space
    }

    /// The GPU data warehouse, when executing on a GPU-capable rank.
    #[inline]
    pub fn gpu(&self) -> Option<&GpuDataWarehouse> {
        self.gpu
    }

    /// The fleet device this task was scheduled on (0 for host tasks and
    /// single-device ranks). GPU task bodies pass this to the warehouse's
    /// `_on` staging APIs so level replicas land on the device their
    /// kernels dispatch to.
    #[inline]
    pub fn device_id(&self) -> usize {
        self.space.device_index().unwrap_or(0)
    }

    /// Assemble the variable over `patch + g` ghosts from local patches and
    /// received foreign windows.
    pub fn get_ghosted_f64(&self, label: VarLabel, g: i32) -> CcVariable<f64> {
        self.dw
            .assemble_ghosted_f64(label, self.patch, g)
    }

    pub fn get_ghosted_u8(&self, label: VarLabel, g: i32) -> CcVariable<u8> {
        self.dw.assemble_ghosted_u8(label, self.patch, g)
    }

    /// The sealed whole-level replica (available once the level gather for
    /// this rank completed).
    pub fn get_level(&self, label: VarLabel, level: LevelIndex) -> Arc<FieldData> {
        self.dw
            .get_sealed_level(label, level)
            .unwrap_or_else(|| panic!("level replica {label} L{level} not sealed"))
    }

    /// Publish a computed own-patch variable.
    pub fn put(&self, label: VarLabel, data: impl Into<FieldData>) {
        let data = data.into();
        debug_assert!(
            data.region().contains_region(&self.patch.interior()),
            "{label}: computed region does not cover the patch interior"
        );
        self.dw.put_patch(label, self.patch.id(), data);
    }

    /// Publish a computed own-patch variable whose device→host drain is
    /// still in flight on the GPU copy engine (the handle from
    /// [`GpuDataWarehouse::take_patch_to_host_async`]). The task returns
    /// immediately and the scheduler keeps executing ready work; the first
    /// downstream consumer blocks only for the un-hidden remainder of the
    /// drain. Region coverage is asserted by the GPU warehouse at staging
    /// time, so no host-side check is possible (or needed) here.
    pub fn put_pending(&self, label: VarLabel, pending: PendingD2H) {
        self.dw.put_patch_pending(label, self.patch.id(), pending);
    }

    /// Deposit this patch's restriction window into the coarse level
    /// accumulator (the local half of the all-to-all).
    pub fn put_level_window(&self, label: VarLabel, level: LevelIndex, window: Region, data: FieldData) {
        self.dw.deposit_level_window(label, level, window, &data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        const A: VarLabel = VarLabel::new("a", 0);
        const B: VarLabel = VarLabel::new("b", 1);
        let t = TaskDecl::new("t", 1, Arc::new(|_ctx: &mut TaskContext| {}))
            .on_gpu()
            .requires(Requirement::Ghost(A, 2))
            .requires(Requirement::WholeLevel(B, 0))
            .computes(Computes::PatchVar(B));
        assert_eq!(t.kind, TaskKind::Gpu);
        assert_eq!(t.requires.len(), 2);
        assert_eq!(t.requires[0].label(), A);
        assert_eq!(t.computes, vec![Computes::PatchVar(B)]);
        assert_eq!(t.level, 1);
    }
}
