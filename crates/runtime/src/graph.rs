//! Task-graph compilation: declarations + grid + distribution → a per-rank
//! executable graph with dependency edges, send specs and expected receives.
//!
//! Every rank compiles the same global knowledge (grid, patch distribution,
//! task list) deterministically, so matching send/receive pairs agree on
//! tags without negotiation — exactly how Uintah generates its MPI messages
//! from task declarations.

use crate::task::{Computes, Requirement, TaskDecl};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use uintah_comm::Tag;
use uintah_grid::{Grid, IntVector, LevelIndex, PatchDistribution, PatchId, Region, VarLabel};

/// Marker in the tag "destination" field for whole-level windows (which
/// are broadcast, not addressed to one patch): the destination *level*
/// is encoded instead, in a range no patch id can reach.
fn level_dst_marker(level: LevelIndex) -> u32 {
    0xFF_FF00 | level as u32
}

/// What to do with a received message.
#[derive(Clone, Debug)]
pub enum RecvAction {
    /// A ghost window for a local patch's halo.
    Foreign { label: VarLabel, dst_patch: PatchId },
    /// A restriction window of a whole-level replica.
    Level { label: VarLabel, level: LevelIndex },
}

/// An expected message.
#[derive(Clone, Debug)]
pub struct RecvEntry {
    pub src_rank: usize,
    pub tag: Tag,
    pub action: RecvAction,
    /// Instance ids whose dependency counts this message satisfies.
    pub dependents: Vec<usize>,
}

/// Payload source for an outgoing message.
#[derive(Clone, Debug)]
pub enum SendPayload {
    /// Pack `window` from the producing patch's own variable.
    PatchWindow,
    /// Pack `window` from the level accumulator for this level.
    LevelWindow(LevelIndex),
}

/// An outgoing message posted after its producing instance executes.
#[derive(Clone, Debug)]
pub struct SendSpec {
    pub label: VarLabel,
    pub src_patch: PatchId,
    pub window: Region,
    pub dst_rank: usize,
    pub tag: Tag,
    pub payload: SendPayload,
}

/// One executable node of the graph.
#[derive(Debug)]
pub struct TaskInstance {
    /// Index into the declaration list; `None` for gather pseudo-tasks.
    pub decl: Option<usize>,
    /// The owned patch this instance runs on; `None` for gathers.
    pub patch: Option<PatchId>,
    /// For gather pseudo-tasks: which level replica to seal.
    pub gather: Option<(VarLabel, LevelIndex)>,
    /// Number of dependencies (local edges + expected messages).
    pub num_deps_in: usize,
    /// Instance ids unblocked when this instance completes.
    pub deps_out: Vec<usize>,
    /// Messages to post after execution.
    pub sends: Vec<SendSpec>,
}

/// Aggregate statistics of a compiled graph (used by the Titan model's
/// communication census).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GraphStats {
    pub instances: usize,
    pub messages: usize,
    /// Total cells across all outgoing windows.
    pub cells_sent: usize,
}

/// A rank's executable graph for one timestep phase.
#[derive(Debug)]
pub struct CompiledGraph {
    pub rank: usize,
    pub phase: u8,
    pub instances: Vec<TaskInstance>,
    pub recvs: Vec<RecvEntry>,
    pub initial_ready: Vec<usize>,
    pub stats: GraphStats,
}

/// Cell-count ratio between `fine_li` and the coarser `coarse_li`
/// (product of per-level refinement ratios).
pub fn ratio_between(grid: &Grid, fine_li: LevelIndex, coarse_li: LevelIndex) -> IntVector {
    assert!(coarse_li <= fine_li);
    let mut r = IntVector::ONE;
    for li in (coarse_li + 1)..=fine_li {
        r = r.comp_mul(grid.level(li).ratio_to_coarser().as_ivec());
    }
    r
}

/// Compile the per-rank graph for one phase (timestep), one message per
/// window (matches the per-dependency counting of the Titan model's
/// census).
pub fn compile(
    grid: &Grid,
    dist: &PatchDistribution,
    decls: &[TaskDecl],
    rank: usize,
    phase: u8,
) -> CompiledGraph {
    // ---- producer maps -------------------------------------------------
    let mut patch_producer: HashMap<VarLabel, usize> = HashMap::new();
    let mut level_producer: HashMap<(VarLabel, LevelIndex), usize> = HashMap::new();
    for (di, d) in decls.iter().enumerate() {
        for c in &d.computes {
            match *c {
                Computes::PatchVar(l) => {
                    patch_producer.insert(l, di);
                }
                Computes::LevelWindow(l, li) => {
                    level_producer.insert((l, li), di);
                }
            }
        }
    }

    // Max ghost width per (label): Uintah consolidates differing ghost
    // requirements into the maximal halo so one message per (src, dst)
    // patch pair suffices.
    let mut max_ghost: HashMap<VarLabel, i32> = HashMap::new();
    for d in decls {
        for r in &d.requires {
            if let Requirement::Ghost(l, g) = *r {
                let e = max_ghost.entry(l).or_insert(0);
                *e = (*e).max(g);
            }
        }
    }

    // ---- instances for local patches -----------------------------------
    let mut instances: Vec<TaskInstance> = Vec::new();
    let mut inst_of: HashMap<(usize, PatchId), usize> = HashMap::new();
    for (di, d) in decls.iter().enumerate() {
        for &pid in dist.owned_by(rank) {
            if grid.patch(pid).level_index() == d.level {
                let id = instances.len();
                instances.push(TaskInstance {
                    decl: Some(di),
                    patch: Some(pid),
                    gather: None,
                    num_deps_in: 0,
                    deps_out: Vec::new(),
                    sends: Vec::new(),
                });
                inst_of.insert((di, pid), id);
            }
        }
    }

    // ---- gather pseudo-instances ----------------------------------------
    // One per (label, level) required as WholeLevel by any local instance.
    let mut needed_levels: Vec<(VarLabel, LevelIndex)> = Vec::new();
    for d in decls {
        let has_local = dist
            .owned_by(rank)
            .iter()
            .any(|&p| grid.patch(p).level_index() == d.level);
        if !has_local {
            continue;
        }
        for r in &d.requires {
            if let Requirement::WholeLevel(l, li) = *r {
                if !needed_levels.contains(&(l, li)) {
                    needed_levels.push((l, li));
                }
            }
        }
    }
    let mut gather_of: HashMap<(VarLabel, LevelIndex), usize> = HashMap::new();
    for &(l, li) in &needed_levels {
        let id = instances.len();
        instances.push(TaskInstance {
            decl: None,
            patch: None,
            gather: Some((l, li)),
            num_deps_in: 0,
            deps_out: Vec::new(),
            sends: Vec::new(),
        });
        gather_of.insert((l, li), id);
    }

    let mut recvs: Vec<RecvEntry> = Vec::new();
    // (src_rank, tag) -> recv index, so several consumers share one message.
    let mut recv_ix: HashMap<(usize, Tag), usize> = HashMap::new();

    let add_edge = |instances: &mut Vec<TaskInstance>, from: usize, to: usize| {
        instances[from].deps_out.push(to);
        instances[to].num_deps_in += 1;
    };

    // ---- consumer-side edges and receives -------------------------------
    for (di, d) in decls.iter().enumerate() {
        let level = grid.level(d.level);
        for &pid in dist.owned_by(rank) {
            let patch = grid.patch(pid);
            if patch.level_index() != d.level {
                continue;
            }
            let me = inst_of[&(di, pid)];
            for r in &d.requires {
                match *r {
                    Requirement::OwnPatch(l) => {
                        let pd = *patch_producer
                            .get(&l)
                            .unwrap_or_else(|| panic!("no producer for {l}"));
                        assert!(pd < di, "producer {l} declared after consumer {}", d.name);
                        add_edge(&mut instances, inst_of[&(pd, pid)], me);
                    }
                    Requirement::Ghost(l, _g) => {
                        let pd = *patch_producer
                            .get(&l)
                            .unwrap_or_else(|| panic!("no producer for {l}"));
                        assert!(pd < di, "producer {l} declared after consumer {}", d.name);
                        let gmax = max_ghost[&l];
                        let halo = patch.with_ghosts(gmax);
                        for q in level.patches_overlapping(&halo) {
                            if q.id() == pid {
                                add_edge(&mut instances, inst_of[&(pd, pid)], me);
                            } else if dist.rank_of(q.id()) == rank {
                                add_edge(&mut instances, inst_of[&(pd, q.id())], me);
                            } else {
                                let tag = Tag::compose(l.id(), q.id().0, pid.0, phase);
                                let src_rank = dist.rank_of(q.id());
                                let ri = *recv_ix.entry((src_rank, tag)).or_insert_with(|| {
                                    recvs.push(RecvEntry {
                                        src_rank,
                                        tag,
                                        action: RecvAction::Foreign {
                                            label: l,
                                            dst_patch: pid,
                                        },
                                        dependents: Vec::new(),
                                    });
                                    recvs.len() - 1
                                });
                                recvs[ri].dependents.push(me);
                                instances[me].num_deps_in += 1;
                            }
                        }
                    }
                    Requirement::WholeLevel(l, li) => {
                        let gi = gather_of[&(l, li)];
                        add_edge(&mut instances, gi, me);
                    }
                }
            }
        }
    }

    // ---- gather dependencies (local windows + remote messages) ----------
    for &(l, li) in &needed_levels {
        let gi = gather_of[&(l, li)];
        let pd = *level_producer
            .get(&(l, li))
            .unwrap_or_else(|| panic!("no level-window producer for {l} L{li}"));
        let src_level = decls[pd].level;
        for p in grid.level(src_level).patches() {
            if dist.rank_of(p.id()) == rank {
                let from = inst_of[&(pd, p.id())];
                add_edge(&mut instances, from, gi);
            } else {
                let tag = Tag::compose(l.id(), p.id().0, level_dst_marker(li), phase);
                let src_rank = dist.rank_of(p.id());
                let ri = *recv_ix.entry((src_rank, tag)).or_insert_with(|| {
                    recvs.push(RecvEntry {
                        src_rank,
                        tag,
                        action: RecvAction::Level { label: l, level: li },
                        dependents: Vec::new(),
                    });
                    recvs.len() - 1
                });
                recvs[ri].dependents.push(gi);
                instances[gi].num_deps_in += 1;
            }
        }
    }

    // ---- producer-side sends --------------------------------------------
    // Ghost windows: for each local producer patch q, send to every remote
    // consumer patch whose max halo overlaps q.
    let ghost_labels: Vec<VarLabel> = max_ghost.keys().copied().collect();
    for l in ghost_labels {
        let Some(&pd) = patch_producer.get(&l) else { continue };
        let gmax = max_ghost[&l];
        let level = grid.level(decls[pd].level);
        // Which decls consume this label with ghosts? Their instances exist
        // on the same level, so the consumer patch set is the level itself.
        let consumed = decls
            .iter()
            .any(|d| d.requires.iter().any(|r| matches!(r, Requirement::Ghost(ll, _) if *ll == l)));
        if !consumed {
            continue;
        }
        for &qid in dist.owned_by(rank) {
            let q = grid.patch(qid);
            if q.level_index() != decls[pd].level {
                continue;
            }
            let Some(&from) = inst_of.get(&(pd, qid)) else { continue };
            for p in level.patches_overlapping(&q.with_ghosts(gmax)) {
                if p.id() == qid || dist.rank_of(p.id()) == rank {
                    continue;
                }
                let window = p.with_ghosts(gmax).intersect(&q.interior());
                if window.is_empty() {
                    continue;
                }
                instances[from].sends.push(SendSpec {
                    label: l,
                    src_patch: qid,
                    window,
                    dst_rank: dist.rank_of(p.id()),
                    tag: Tag::compose(l.id(), qid.0, p.id().0, phase),
                    payload: SendPayload::PatchWindow,
                });
            }
        }
    }

    // Level windows: broadcast each local producer's restriction window to
    // every rank that gathers (l, li) — the all-to-all.
    for (&(l, li), &pd) in &level_producer {
        // Consumer ranks: any rank owning patches on a level of a decl that
        // requires WholeLevel(l, li).
        let consumer_levels: HashSet<LevelIndex> = decls
            .iter()
            .filter(|d| {
                d.requires
                    .iter()
                    .any(|r| matches!(r, Requirement::WholeLevel(ll, lli) if *ll == l && *lli == li))
            })
            .map(|d| d.level)
            .collect();
        if consumer_levels.is_empty() {
            continue;
        }
        let mut consumer_ranks: HashSet<usize> = HashSet::new();
        for &cl in &consumer_levels {
            for p in grid.level(cl).patches() {
                consumer_ranks.insert(dist.rank_of(p.id()));
            }
        }
        let rr = ratio_between(grid, decls[pd].level, li);
        for &qid in dist.owned_by(rank) {
            let q = grid.patch(qid);
            if q.level_index() != decls[pd].level {
                continue;
            }
            let Some(&from) = inst_of.get(&(pd, qid)) else { continue };
            let window = q.interior().coarsened(rr);
            for &dst in &consumer_ranks {
                if dst == rank {
                    continue;
                }
                instances[from].sends.push(SendSpec {
                    label: l,
                    src_patch: qid,
                    window,
                    dst_rank: dst,
                    tag: Tag::compose(l.id(), qid.0, level_dst_marker(li), phase),
                    payload: SendPayload::LevelWindow(li),
                });
            }
        }
    }

    let initial_ready: Vec<usize> = instances
        .iter()
        .enumerate()
        .filter(|(_, t)| t.num_deps_in == 0)
        .map(|(i, _)| i)
        .collect();

    let messages: usize = instances.iter().map(|t| t.sends.len()).sum();
    let cells_sent: usize = instances
        .iter()
        .flat_map(|t| t.sends.iter())
        .map(|s| s.window.volume())
        .sum();
    let stats = GraphStats {
        instances: instances.len(),
        messages,
        cells_sent,
    };

    CompiledGraph {
        rank,
        phase,
        instances,
        recvs,
        initial_ready,
        stats,
    }
}

/// Streaming FNV-1a over the compile-relevant structure.
struct SigHasher(u64);

impl SigHasher {
    fn new() -> Self {
        SigHasher(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn i32(&mut self, v: i32) {
        self.u64(v as u32 as u64);
    }

    fn ivec(&mut self, v: IntVector) {
        self.i32(v.x);
        self.i32(v.y);
        self.i32(v.z);
    }

    fn region(&mut self, r: &Region) {
        self.ivec(r.lo());
        self.ivec(r.hi());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A digest of every input [`compile`] depends on: grid shape, task
/// declarations, patch distribution and rank — everything *except* the
/// phase byte, which [`Tag::with_phase`] re-stamps at post time.
///
/// Two calls with equal signatures compile identical graphs (up to phase),
/// so a cached `CompiledGraph` may be reused; any regrid, rebalance or
/// task-list change perturbs the signature and forces recompilation.
pub fn graph_signature(
    grid: &Grid,
    dist: &PatchDistribution,
    decls: &[TaskDecl],
    rank: usize,
) -> u64 {
    let mut h = SigHasher::new();
    h.u64(rank as u64);
    // Grid structure.
    h.u64(grid.num_levels() as u64);
    for level in grid.levels() {
        h.region(&level.cell_region());
        h.ivec(level.patch_size());
        h.ivec(level.ratio_to_coarser().as_ivec());
        h.u64(level.num_patches() as u64);
    }
    // Ownership: the graph depends on every patch's assigned rank (sends,
    // receives and local edges all key off it).
    h.u64(dist.nranks() as u64);
    for p in grid.all_patches() {
        h.u64(dist.rank_of(p.id()) as u64);
    }
    // Task declarations, in order.
    h.u64(decls.len() as u64);
    for d in decls {
        h.str(d.name);
        h.u64(d.level as u64);
        h.u64(matches!(d.kind, crate::task::TaskKind::Gpu) as u64);
        h.u64(d.requires.len() as u64);
        for r in &d.requires {
            match *r {
                Requirement::OwnPatch(l) => {
                    h.u64(0);
                    h.u64(l.id() as u64);
                }
                Requirement::Ghost(l, g) => {
                    h.u64(1);
                    h.u64(l.id() as u64);
                    h.i32(g);
                }
                Requirement::WholeLevel(l, li) => {
                    h.u64(2);
                    h.u64(l.id() as u64);
                    h.u64(li as u64);
                }
            }
        }
        h.u64(d.computes.len() as u64);
        for c in &d.computes {
            match *c {
                Computes::PatchVar(l) => {
                    h.u64(0);
                    h.u64(l.id() as u64);
                }
                Computes::LevelWindow(l, li) => {
                    h.u64(1);
                    h.u64(l.id() as u64);
                    h.u64(li as u64);
                }
            }
        }
    }
    h.0
}

/// Counter snapshot of a [`GraphCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphCacheStats {
    /// Lookups that found a compiled graph under the requested signature.
    pub hits: u64,
    /// Lookups that found nothing (the caller compiles and inserts).
    pub misses: u64,
    /// Graphs inserted.
    pub insertions: u64,
    /// Graphs dropped to keep the cache under its entry cap.
    pub evictions: u64,
}

/// A process-wide cache of compiled graphs keyed by [`graph_signature`].
///
/// One [`crate::PersistentExecutor`] already caches *its own* last graph;
/// this cache is the cross-executor tier: every executor of a multi-tenant
/// server consults it before compiling, so a job whose grid shape,
/// ownership and task list match something any tenant compiled earlier
/// reuses that graph instead of paying compilation again. Safe to share
/// because a [`CompiledGraph`] is immutable during execution — the
/// scheduler copies dependency counts into fresh atomics per
/// `execute_phase` call and re-stamps tags with the step's phase byte, so
/// one `Arc<CompiledGraph>` can back any number of concurrent jobs.
///
/// The signature covers the executing rank, so a cached entry is only ever
/// served to an executor playing the same rank of an identically shaped
/// world (see [`graph_signature`]).
/// Signature → (graph, last-use stamp), plus the next stamp to issue.
/// The stamp orders LRU eviction.
type StampedGraphs = (HashMap<u64, (Arc<CompiledGraph>, u64)>, u64);

#[derive(Debug)]
pub struct GraphCache {
    map: Mutex<StampedGraphs>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl GraphCache {
    /// A cache holding at most `cap` graphs (LRU beyond that).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "a graph cache needs room for at least one graph");
        Self {
            map: Mutex::new((HashMap::new(), 0)),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a compiled graph by signature, refreshing its LRU stamp.
    pub fn lookup(&self, sig: u64) -> Option<Arc<CompiledGraph>> {
        let mut guard = self.map.lock().expect("graph cache poisoned");
        let (map, clock) = &mut *guard;
        *clock += 1;
        match map.get_mut(&sig) {
            Some((g, stamp)) => {
                *stamp = *clock;
                self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                Some(Arc::clone(g))
            }
            None => {
                self.misses.fetch_add(1, AtomicOrdering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly compiled graph; evicts the least recently used
    /// entry when the cap is exceeded. Racing inserts under one signature
    /// are benign (last writer wins; both graphs are identical by
    /// construction).
    pub fn insert(&self, sig: u64, graph: Arc<CompiledGraph>) {
        let mut guard = self.map.lock().expect("graph cache poisoned");
        let (map, clock) = &mut *guard;
        *clock += 1;
        map.insert(sig, (graph, *clock));
        self.insertions.fetch_add(1, AtomicOrdering::Relaxed);
        while map.len() > self.cap {
            let victim = map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&k, _)| k)
                .expect("non-empty map over cap");
            map.remove(&victim);
            self.evictions.fetch_add(1, AtomicOrdering::Relaxed);
        }
    }

    /// Graphs currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().expect("graph cache poisoned").0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (hits/misses/insertions/evictions).
    pub fn stats(&self) -> GraphCacheStats {
        GraphCacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            insertions: self.insertions.load(AtomicOrdering::Relaxed),
            evictions: self.evictions.load(AtomicOrdering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskContext, TaskFn};
    use std::sync::Arc;
    use uintah_grid::DistributionPolicy;

    const KAPPA: VarLabel = VarLabel::new("abskg", 0);
    const DIVQ: VarLabel = VarLabel::new("divQ", 3);

    fn nop() -> TaskFn {
        Arc::new(|_: &mut TaskContext| {})
    }

    fn grid() -> Grid {
        Grid::builder()
            .fine_cells(IntVector::splat(32))
            .num_levels(2)
            .refinement_ratio(4)
            .fine_patch_size(IntVector::splat(8))
            .build()
    }

    fn decls() -> Vec<TaskDecl> {
        let fine = 1;
        vec![
            TaskDecl::new("initProps", fine, nop())
                .computes(Computes::PatchVar(KAPPA))
                .computes(Computes::LevelWindow(KAPPA, 0)),
            TaskDecl::new("rmcrt", fine, nop())
                .requires(Requirement::Ghost(KAPPA, 2))
                .requires(Requirement::WholeLevel(KAPPA, 0))
                .computes(Computes::PatchVar(DIVQ)),
        ]
    }

    #[test]
    fn single_rank_graph_has_no_messages() {
        let g = grid();
        let dist = PatchDistribution::new(&g, 1, DistributionPolicy::MortonSfc);
        let cg = compile(&g, &dist, &decls(), 0, 0);
        assert_eq!(cg.recvs.len(), 0);
        assert_eq!(cg.stats.messages, 0);
        // 64 fine patches × 2 decls + 1 gather.
        assert_eq!(cg.stats.instances, 64 * 2 + 1);
        // initProps instances are all initially ready.
        assert_eq!(cg.initial_ready.len(), 64);
    }

    #[test]
    fn gather_waits_for_all_local_windows() {
        let g = grid();
        let dist = PatchDistribution::new(&g, 1, DistributionPolicy::MortonSfc);
        let cg = compile(&g, &dist, &decls(), 0, 0);
        let gather = cg
            .instances
            .iter()
            .find(|t| t.gather.is_some())
            .expect("gather instance exists");
        assert_eq!(gather.gather, Some((KAPPA, 0)));
        assert_eq!(gather.num_deps_in, 64, "one window per fine patch");
        assert_eq!(gather.deps_out.len(), 64, "unblocks every rmcrt instance");
    }

    #[test]
    fn two_rank_graph_sends_and_receives_match() {
        let g = grid();
        let dist = PatchDistribution::new(&g, 2, DistributionPolicy::MortonSfc);
        let g0 = compile(&g, &dist, &decls(), 0, 0);
        let g1 = compile(&g, &dist, &decls(), 1, 0);
        // Every send of rank 0 to rank 1 has a matching expected recv.
        let recv_keys: HashSet<(usize, u64)> = g1.recvs.iter().map(|r| (r.src_rank, r.tag.0)).collect();
        let mut matched = 0;
        for t in &g0.instances {
            for s in &t.sends {
                if s.dst_rank == 1 {
                    assert!(
                        recv_keys.contains(&(0, s.tag.0)),
                        "unmatched send tag {:?}",
                        s.tag
                    );
                    matched += 1;
                }
            }
        }
        assert!(matched > 0, "two ranks must exchange messages");
        // And vice versa: every expected recv has a matching send.
        let send_keys: HashSet<(usize, u64)> = g0
            .instances
            .iter()
            .flat_map(|t| t.sends.iter())
            .filter(|s| s.dst_rank == 1)
            .map(|s| (0usize, s.tag.0))
            .collect();
        for r in g1.recvs.iter().filter(|r| r.src_rank == 0) {
            assert!(send_keys.contains(&(0, r.tag.0)), "recv without send {:?}", r.tag);
        }
    }

    #[test]
    fn level_windows_are_broadcast_to_all_other_ranks() {
        let g = grid();
        let nr = 4;
        let dist = PatchDistribution::new(&g, nr, DistributionPolicy::RoundRobin);
        let cg = compile(&g, &dist, &decls(), 0, 0);
        // Each local fine patch's level window goes to nr-1 ranks.
        let level_sends: usize = cg
            .instances
            .iter()
            .flat_map(|t| t.sends.iter())
            .filter(|s| matches!(s.payload, SendPayload::LevelWindow(_)))
            .count();
        let local_fine = dist
            .owned_by(0)
            .iter()
            .filter(|&&p| g.patch(p).level_index() == 1)
            .count();
        assert_eq!(level_sends, local_fine * (nr - 1));
    }

    #[test]
    fn phase_changes_tags() {
        let g = grid();
        let dist = PatchDistribution::new(&g, 2, DistributionPolicy::MortonSfc);
        let a = compile(&g, &dist, &decls(), 0, 0);
        let b = compile(&g, &dist, &decls(), 0, 1);
        let tags_a: HashSet<u64> = a.recvs.iter().map(|r| r.tag.0).collect();
        for r in &b.recvs {
            assert!(!tags_a.contains(&r.tag.0), "phase must separate tags");
        }
    }

    #[test]
    fn ratio_between_levels() {
        let g = grid();
        assert_eq!(ratio_between(&g, 1, 0), IntVector::splat(4));
        assert_eq!(ratio_between(&g, 1, 1), IntVector::ONE);
        assert_eq!(ratio_between(&g, 0, 0), IntVector::ONE);
    }

    #[test]
    #[should_panic(expected = "no producer")]
    fn missing_producer_detected() {
        let g = grid();
        let dist = PatchDistribution::new(&g, 1, DistributionPolicy::MortonSfc);
        let decls = vec![TaskDecl::new("consumer", 1, nop()).requires(Requirement::OwnPatch(DIVQ))];
        compile(&g, &dist, &decls, 0, 0);
    }

    #[test]
    fn message_census_scales_down_with_fewer_ranks() {
        let g = grid();
        let d8 = PatchDistribution::new(&g, 8, DistributionPolicy::MortonSfc);
        let d2 = PatchDistribution::new(&g, 2, DistributionPolicy::MortonSfc);
        let total_msgs = |dist: &PatchDistribution, nr: usize| -> usize {
            (0..nr).map(|r| compile(&g, dist, &decls(), r, 0).stats.messages).sum()
        };
        assert!(total_msgs(&d8, 8) > total_msgs(&d2, 2));
    }
}
