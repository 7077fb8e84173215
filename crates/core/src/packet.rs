//! The SoA packet ray-march engine — the single stepper behind every tracer.
//!
//! Every consumer of ray marching (the ∇·q solver, the scattering
//! collision estimator, wall flux and the virtual radiometer) used to
//! drive its own copy of a scalar Amanatides–Woo DDA.
//! This module collapses them onto one engine:
//!
//! * [`RayPacket`] — a structure-of-arrays batch of rays: origins,
//!   directions, per-ray weight/`sumI` and an active mask. One packet is
//!   the rays of a run of cells (at most `solver::RUN_RAYS` of them), of
//!   one face or of one detector, dispatched as a unit through
//!   `uintah-exec`.
//! * [`PacketTracer`] — prepares each [`TraceLevel`] once per solve
//!   (hoisted DDA constants, raw field slices, linear-index strides, ROI
//!   slab planes) and then streams whole packets through its march lanes,
//!   each ray marched to completion (across level transitions and wall
//!   reflections) in the lane that took it.
//!
//! ## Stepping
//!
//! The DDA state (`side_dist`/`t_max`, `delta_dist`/`t_delta`, per SNIPPETS
//! §1) is set up once per level segment (`SegState::init`, see "Launch"),
//! and the per-step work (`SegState::step`, the only copy of the loop
//! body) is branch-light:
//!
//! * the field lookups use a *stride-stepped linear index* into the dense
//!   per-level slices instead of re-deriving `region.linear_index(cell)`
//!   (three multiplies + bounds assert) on every access;
//! * the per-cell `roi.contains` test is replaced by the ROI's slab planes
//!   in index space: advancing along axis `a` can only cross the
//!   precomputed exit plane of axis `a`, so exit is a single integer
//!   compare, and the integer planes double as a step bound (a termination
//!   guarantee for degenerate directions). The physical-space twin of the
//!   same test, [`slabs`], serves box-entry queries.
//!
//! A step is still a serial chain through memory — select the nearest axis
//! → load `t_max[axis]` → add `t_delta[axis]` → store → reload on the next
//! step (≈ 25 cycles), plus a libm `exp` whose call spills every live FP
//! register — so a core marching one ray idles on latency. The tracer
//! therefore keeps `LANES` rays in flight: `trace_stream` steps lane 0,
//! lane 1, … in turn, so that many independent chains overlap, and a lane
//! whose ray finishes takes the packet's next active ray. A ray's FP
//! sequence is its own, so the lane count changes no result bit.
//!
//! Why this form on this target (baseline x86-64; host-normalised
//! `trace_thin_fixed` step of `perf_report`, ms, lower is better). Rows
//! marked * were measured on the landed code, the others are the
//! prototypes that led here — recorded so nobody redoes them:
//!
//! | form | ms |
//! |---|---|
//! | one ray at a time, rounds over the SoA (previous engine) * | 1043 |
//! | register-resident state, three-way select | 1120 (+16 % raw) |
//! | geometry/physics two-phase split, `if`-selects | 1060–1340 |
//! | … `hint::select_unpredictable` / single-compare selects | 1270 / 1320 |
//! | 2-ray pair interleave; + inlined floor | 955; 915 |
//! | `[SegState; 4]` with `done[]` flags, generic loop | 1133 |
//! | this engine: 1 lane * / **2 lanes** * / 4 lanes * | 939 / **879** / 919 |
//!
//! LLVM lowers scalar `f64` selects to branches here (no `blendv`, with or
//! without `-C target-cpu=x86-64-v3`) and they mispredict on ~⅔ of steps;
//! the `exp` call spills register-resident DDA state anyway. The indexed
//! arrays *are* the branch-free form; interleaving is what removes their
//! latency. `exp` itself is only ~17 % of the one-ray step time. The lane
//! loop must stay fully unrollable (constant lane count, no per-lane
//! `done` flag inside it) — the `done[]` form lost more than lanes won.
//!
//! The *floating-point sequence* of the march (t_max recurrence, τ
//! accumulation, telescoped emission, threshold compare, axis tie-breaking)
//! is kept operation-for-operation identical to the historical scalar
//! marcher, so solves in `Fixed` ray-count mode remain bit-identical across
//! Serial/Threads/Device — the determinism contract `tests/exec_spaces.rs`
//! pins.
//!
//! ## Launch
//!
//! Before a ray has marched anywhere it has been fetched from its packet
//! slot (`launch`), located on a level (`place`) and given its DDA state
//! (`SegState::init`); a ray that crosses to a coarser level or reflects
//! pays `resolve` + `place` + `init` again. On short rays that fixed cost
//! rivals the march (a launch, one step and the retire cost 3.2 cell steps
//! on the `ray_march_gate` rays, 5.4 before this form), so the path is held
//! to two rules.
//!
//! *Each lane field is written once, in place.* `launch` assigns `core`,
//! `dir`, `li`, `reflections` and `ray`; `place` assigns `li` and `pos`;
//! `init` assigns every field of the lane's `SegState`, so a lane reused
//! from ray to ray carries nothing over (the lane-count tests run one lane
//! over a hundred rays to show it). There is no `SegState` or `Lane` built
//! by value and copied into the lane: a constructor returning the state in
//! an `Option` cost a 152-byte copy per segment and the `Lane` literal a
//! 256-byte one per ray. `init` returns `false` before writing
//! anything when the point is outside the level's ROI — that release-mode
//! check is what the unchecked loads of `step` rest on.
//!
//! *No branch on a ray's data, except "degenerate axis" and "outside the
//! ROI".* A direction component's sign is a fair coin, so the historical
//! `if d > 0 {..} else if d < 0 {..}` of the per-axis set-up mispredicted
//! 1.5 times a ray. `axis_setup` instead computes `up = (d > 0) as i32` and
//! derives the step sign, near face, exit plane and index stride from it
//! arithmetically (its doc comment has the bit-identity argument; both
//! divides stay divides — an `inv_d` would change march bits), and
//! `crossed_face` picks the face of a finished step the same way. What does
//! *not* work on baseline x86-64: selecting the near face from a two-entry
//! array or with `hint::select_unpredictable` — both still compile to a
//! compare-and-jump around an `addsd`.
//!
//! The cell of a point is found by *multiply-and-verify* (`locate`): with
//! `q = (p − anchor)·inv_dx`, `inv_dx` the rounded reciprocal, take
//! `trunc(q)` when `q`'s fractional part lies in `(1e-6, 1 − 1e-6)` and
//! `q < 1e9`, else fall back to `floor_i32((p − anchor)/dx)`. Both forms
//! round the same exact difference `x = p − anchor`; the divide returns
//! `(x/dx)(1 + e₁)` and the product `(x/dx)(1 + e₂)(1 + e₃)` with every
//! `|eᵢ| ≤ 2⁻⁵³`, so they differ by less than `3.4e-16·|q| < 3.4e-7`,
//! under the margin: the divide's quotient lies strictly between the same
//! two integers and floors to the same one. (A `dx` so large that `1/dx`
//! is subnormal costs `e₂` two more bits — still inside the margin, and
//! such a `q` is small.) Negative, NaN, infinite and on-face quotients
//! fail the test and take the divide. Only the *integer* is obtained this
//! way; nothing that feeds the march sees `inv_dx`.
//!
//! Upstream of this module a ray is drawn — RNG, direction, origin — by
//! the solver, a packet at a time (≈ 12 ns a ray; it was ≈ 50 while the
//! azimuth went through libm's `sin`/`cos`; DESIGN §9): pass 1 per cell,
//! pass 2 over the whole packet, which holds the rays of a run of cells
//! (`solver::fill_cell_packet` is the one-cell form).
//!
//! ## Level transitions
//!
//! A ray leaving a level's ROI is snapped onto the crossed face plane and
//! nudged *one relative cell fraction* ([`FACE_NUDGE`]`·dx`) past it, then
//! re-homed on the next coarser level containing that point. The nudge is
//! proportional to the local cell size, so it survives any grid scale (the
//! historical absolute `1e-10` nudge vanished below the coordinate ulp on
//! large-`dx` grids and could land rays in the wrong coarse cell).

use crate::props::{LevelProps, FLOW_CELL};
use crate::trace::{TraceLevel, TraceOptions};
use uintah_grid::{Point, Vector};

/// Relative (cell-fraction) nudge used to place a ray just past a crossed
/// face: scale-invariant, unlike an absolute epsilon.
pub const FACE_NUDGE: f64 = 1e-9;

/// Slab intersection of the ray `o + t·d` (given `inv_d = 1/d`) with the
/// axis-aligned box `[p0, p1]`: returns `(t_near, t_far)`; the ray crosses
/// the box iff `t_near <= t_far` (and `t_far >= 0` for the forward ray).
///
/// Degenerate components (`d[a] == 0` ⇒ `inv_d[a] = ±∞`) resolve correctly:
/// an origin outside the slab yields an empty interval, inside yields a
/// pass-through. An origin exactly *on* a slab plane of a degenerate axis
/// (0·∞ = NaN) is treated as inside that slab.
pub fn slabs(p0: Point, p1: Point, o: Point, inv_d: Vector) -> (f64, f64) {
    let mut t_near = f64::NEG_INFINITY;
    let mut t_far = f64::INFINITY;
    for a in 0..3 {
        let t0 = (p0[a] - o[a]) * inv_d[a];
        let t1 = (p1[a] - o[a]) * inv_d[a];
        let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
        // NaN (origin on the plane of a zero-direction axis): axis is a
        // pass-through, skip it.
        if lo.is_nan() || hi.is_nan() {
            continue;
        }
        t_near = t_near.max(lo);
        t_far = t_far.min(hi);
    }
    (t_near, t_far)
}

/// `x.floor() as i32` without the libm call: baseline x86-64 has no
/// `roundsd`, so `f64::floor` goes through the PLT (3.3 ns a call, three
/// calls per point located). Truncate, then step down where truncation
/// rounded up (negative non-integers); NaN maps to 0 and out-of-range
/// values saturate, exactly as the cast of the floored value does.
#[inline]
fn floor_i32(x: f64) -> i32 {
    let t = x as i32;
    t.saturating_sub((t as f64 > x) as i32)
}

/// How far from both neighbouring integers the quotient of [`locate`] must
/// lie for the multiplied form to be taken on trust.
const LOCATE_MARGIN: f64 = 1e-6;

/// Index of the cell of width `dx` (`inv_dx` = rounded `1/dx`) containing
/// coordinate `p` on an axis anchored at `anchor`: the integer
/// `floor_i32((p - anchor) / dx)` gives, without the divide for every point
/// that is not within [`LOCATE_MARGIN`] of a face (module doc, "Launch").
#[inline]
fn locate(p: f64, anchor: f64, dx: f64, inv_dx: f64) -> i32 {
    let q = (p - anchor) * inv_dx;
    let t = q as i32;
    let f = q - t as f64;
    if f > LOCATE_MARGIN && f < 1.0 - LOCATE_MARGIN && q < 1e9 {
        t
    } else {
        // On or near a face, negative, huge, NaN or infinite: the exact path.
        floor_i32((p - anchor) / dx)
    }
}

/// Interleaved per-cell march payload: one cache line serves the
/// absorption update, emission update and wall test of a step, instead of
/// three separate array loads.
#[derive(Clone, Copy)]
struct CellPay {
    abskg: f64,
    sigma: f64,
    wall: bool,
}

/// One level of the trace stack, prepared for packet marching: hoisted
/// geometry, raw field slices and index strides.
struct PreparedLevel<'a> {
    anchor: [f64; 3],
    dx: [f64; 3],
    /// `1 / dx`, rounded: feeds [`locate`] only, never the march.
    inv_dx: [f64; 3],
    /// ROI slab planes in index space (exit plane per axis and sign).
    roi_lo: [i32; 3],
    roi_hi: [i32; 3],
    /// Low corner of the *data* region (slice index origin).
    reg_lo: [i32; 3],
    /// Linear-index strides (x fastest) of the data region.
    stride: [isize; 3],
    /// Integer step bound for one ROI crossing: each axis can be stepped
    /// at most `extent+1` times before its (integer) exit-plane compare
    /// fires, so a segment terminates within the summed extents no matter
    /// what the FP state does.
    step_bound: i64,
    abskg: &'a [f64],
    sigma: &'a [f64],
    ctype: &'a [u8],
}

impl<'a> PreparedLevel<'a> {
    fn new(level: &TraceLevel<'a>) -> Self {
        let props: &'a LevelProps = level.props;
        let region = props.region;
        // Release-mode: the unchecked field loads of `SegState::step` rely
        // on ROI ⊆ data region.
        assert!(
            region.contains_region(&level.roi),
            "ROI {:?} escapes level region {:?}",
            level.roi,
            region
        );
        let e = region.extent();
        let roi = level.roi;
        let re = roi.extent();
        Self {
            anchor: [props.anchor.x, props.anchor.y, props.anchor.z],
            dx: [props.dx.x, props.dx.y, props.dx.z],
            inv_dx: [1.0 / props.dx.x, 1.0 / props.dx.y, 1.0 / props.dx.z],
            roi_lo: [roi.lo().x, roi.lo().y, roi.lo().z],
            roi_hi: [roi.hi().x, roi.hi().y, roi.hi().z],
            reg_lo: [region.lo().x, region.lo().y, region.lo().z],
            stride: [1, e.x as isize, (e.x as isize) * (e.y as isize)],
            step_bound: (re.x as i64) + (re.y as i64) + (re.z as i64) + 8,
            abskg: props.abskg.as_slice(),
            sigma: props.sigma_t4_over_pi.as_slice(),
            ctype: props.cell_type.as_slice(),
        }
    }

    /// Cell containing `p` — the same values as
    /// [`LevelProps::cell_containing`], located by [`locate`].
    #[inline]
    fn cell_containing(&self, p: Point) -> [i32; 3] {
        [
            locate(p.x, self.anchor[0], self.dx[0], self.inv_dx[0]),
            locate(p.y, self.anchor[1], self.dx[1], self.inv_dx[1]),
            locate(p.z, self.anchor[2], self.dx[2], self.inv_dx[2]),
        ]
    }

    #[inline]
    fn roi_contains(&self, c: [i32; 3]) -> bool {
        c[0] >= self.roi_lo[0]
            && c[1] >= self.roi_lo[1]
            && c[2] >= self.roi_lo[2]
            && c[0] < self.roi_hi[0]
            && c[1] < self.roi_hi[1]
            && c[2] < self.roi_hi[2]
    }

    /// Linear slice index of cell `c` (must be inside the data region).
    #[inline]
    fn index_of(&self, c: [i32; 3]) -> usize {
        let x = (c[0] - self.reg_lo[0]) as usize;
        let y = (c[1] - self.reg_lo[1]) as usize;
        let z = (c[2] - self.reg_lo[2]) as usize;
        x + (self.stride[1] as usize) * y + (self.stride[2] as usize) * z
    }

    /// Physical low face of cell index `ci` along `axis`.
    #[inline]
    fn face_coord(&self, axis: usize, ci: i32) -> f64 {
        self.anchor[axis] + (ci as f64) * self.dx[axis]
    }

    /// The face a step of sign `s` along `axis` crossed to enter cell `ci`:
    /// its low face going up, its high face going down.
    #[inline]
    fn crossed_face(&self, axis: usize, ci: i32, s: i32) -> f64 {
        self.face_coord(axis, ci + 1 - (s > 0) as i32)
    }
}

/// Scalar per-ray accumulator state carried across level segments.
#[derive(Clone, Copy, Default)]
struct RayCore {
    tau: f64,
    exp_prev: f64,
    sum_i: f64,
    weight: f64,
}

/// Why one level segment ended: the bare facts of the last step. The
/// geometry that follows from them (face-snapped exit point, reflection
/// restart) is rebuilt from the [`SegState`] in the cold
/// [`PacketTracer::resolve`], so the hot step carries no level reference.
enum SegEnd {
    /// Remaining transmissivity fell below the threshold.
    Extinguished,
    /// The defensive integer step guard tripped.
    StepBound,
    /// Stepped along `axis` into a wall cell (emission already added).
    HitWall { axis: usize, emissivity: f64 },
    /// Stepped along `axis` onto the ROI's exit plane.
    Exited { axis: usize },
}

/// Per-axis DDA setup: step sign, initial `t_max`, `t_delta`, index-space
/// exit plane and signed linear-index stride — the historical scalar
/// marcher's values to the bit, computed without testing the sign of `d`
/// (a fair coin flip per axis; module doc, "Launch").
///
/// With `up = (d > 0) as i32`: the near face is `lo_a + dx_a·up`, and
/// `dx_a·1.0`, `dx_a·0.0` are exact, while `lo_a = anchor + ci·dx_a` is
/// never `-0.0` for `dx_a > 0`, so that sum is `lo_a + dx_a` / `lo_a` to
/// the bit; IEEE division is sign-symmetric, so `dx_a / |d|` is the
/// historical `-dx_a / d` for `d < 0`. Both divides stay divides: an
/// `inv_d` here would change march bits. A degenerate component (zero,
/// `-0.0`, NaN) is the one early return, and a predictable one.
#[inline]
fn axis_setup(
    d: f64,
    lo_a: f64,
    dx_a: f64,
    pos_a: f64,
    roi_lo: i32,
    roi_hi: i32,
    stride: isize,
) -> (i32, f64, f64, i32, isize) {
    if d == 0.0 || d.is_nan() {
        return (0, f64::INFINITY, f64::INFINITY, roi_lo - 1, 0);
    }
    let up = (d > 0.0) as i32;
    let s = 2 * up - 1;
    let near = lo_a + dx_a * up as f64;
    (
        s,
        (near - pos_a) / d,
        dx_a / d.abs(),
        roi_lo - 1 + up * (roi_hi - roi_lo + 1),
        s as isize * stride,
    )
}

/// DDA state of one ray on one level segment. Kept in small arrays indexed
/// by the stepped axis: the axis is data-dependent, so indexed accesses are
/// the branch-free form (see the module doc, "Stepping").
///
/// Invariant (what the unchecked loads in [`SegState::step`] rely on):
/// `idx` is the linear index into `pay` of the cell `cells`, and `cells` is
/// inside the level's ROI ⊆ data region. [`SegState::init`] — the only
/// way to a steppable state — establishes it with a release-mode check;
/// every advance either stays inside the ROI or ends the segment. The
/// `Default` value is an idle lane's placeholder and is never stepped.
#[derive(Default)]
struct SegState<'t> {
    pay: &'t [CellPay],
    step: [i32; 3],
    t_max: [f64; 3],
    t_delta: [f64; 3],
    exit_plane: [i32; 3],
    idx_step: [isize; 3],
    cells: [i32; 3],
    /// Integer step bound: each axis is stepped monotonically toward its
    /// exit plane, so a segment terminates within the summed ROI extents no
    /// matter what the FP state does (NaN comparisons included). Purely
    /// defensive — it turns any pathology from a hang into an extinguished
    /// ray — and it doubles as the segment's cell-step counter.
    guard: i64,
    traveled: f64,
    idx: usize,
}

impl<'t> SegState<'t> {
    /// Set this state up, in place, for a segment starting at `pos`;
    /// `false`, with nothing written, when `pos` is not in a cell of the
    /// level's ROI. Every field is assigned, so a lane reused from ray to
    /// ray carries nothing over. `pay` is the level's payload slice (one
    /// entry per cell of its data region).
    #[inline]
    fn init(&mut self, lvl: &PreparedLevel<'_>, pay: &'t [CellPay], pos: Point, dir: Vector) -> bool {
        let cur = lvl.cell_containing(pos);
        if !lvl.roi_contains(cur) {
            return false;
        }
        self.pay = pay;
        self.cells = cur;
        self.guard = lvl.step_bound;
        self.traveled = 0.0;
        self.idx = lvl.index_of(cur);
        for a in 0..3 {
            (
                self.step[a],
                self.t_max[a],
                self.t_delta[a],
                self.exit_plane[a],
                self.idx_step[a],
            ) = axis_setup(
                dir[a],
                lvl.face_coord(a, cur[a]),
                lvl.dx[a],
                pos[a],
                lvl.roi_lo[a],
                lvl.roi_hi[a],
                lvl.stride[a],
            );
        }
        true
    }

    /// One cell step: integrate across the current cell, then advance to
    /// the next one. `None` while the segment goes on. The FP op sequence
    /// matches the historical scalar marcher exactly (bit-identity
    /// contract). This is the innermost loop body of every tracer; it is
    /// inlined once per lane of [`PacketTracer::trace_stream`].
    #[inline(always)]
    fn step(&mut self, st: &mut RayCore, threshold: f64) -> Option<SegEnd> {
        // Axis of the nearest cell face — the same comparison tree
        // (including tie behavior) as the scalar marcher.
        let t_max = &mut self.t_max;
        let axis = if t_max[0] < t_max[1] {
            if t_max[0] < t_max[2] {
                0
            } else {
                2
            }
        } else if t_max[1] < t_max[2] {
            1
        } else {
            2
        };
        let t_hit = t_max[axis];
        let dis = t_hit - self.traveled;
        self.traveled = t_hit;
        t_max[axis] += self.t_delta[axis];

        // The segment just traversed lies in the current cell.
        debug_assert!(self.idx < self.pay.len());
        // SAFETY: the struct invariant — `idx` indexes the cell in
        // `cells`, which is inside the ROI (checked by `init`; every
        // advance below either ends the segment at the ROI slab plane or
        // stays inside), and ROI ⊆ data region = `pay`'s extent (asserted
        // by `PacketTracer::new`).
        let p = unsafe { self.pay.get_unchecked(self.idx) };
        st.tau += p.abskg * dis;
        let exp_cur = (-st.tau).exp();
        st.sum_i += st.weight * p.sigma * (st.exp_prev - exp_cur);
        st.exp_prev = exp_cur;
        if st.weight * exp_cur < threshold {
            return Some(SegEnd::Extinguished);
        }

        // Advance to the next cell: only the stepped axis can cross its
        // ROI slab plane, so exit is one integer compare.
        self.cells[axis] += self.step[axis];
        if self.cells[axis] == self.exit_plane[axis] {
            return Some(SegEnd::Exited { axis });
        }
        self.idx = (self.idx as isize + self.idx_step[axis]) as usize;
        debug_assert!(self.idx < self.pay.len());
        // SAFETY: the stepped axis did not reach its exit plane (checked
        // just above), so the cell is still inside the ROI ⊆ data region.
        let p = unsafe { self.pay.get_unchecked(self.idx) };
        if p.wall {
            // Wall emission: emissivity stored in abskg for wall cells.
            let emissivity = p.abskg;
            st.sum_i += st.weight * emissivity * p.sigma * st.exp_prev;
            return Some(SegEnd::HitWall { axis, emissivity });
        }
        self.guard -= 1;
        if self.guard < 0 {
            return Some(SegEnd::StepBound);
        }
        None
    }
}

/// A structure-of-arrays batch of rays marched as one unit.
///
/// Push rays with [`RayPacket::push`]; after [`PacketTracer::trace`] the
/// per-ray intensity integrals are in `sum_i` (ray order is preserved, so
/// folding `sum_i` left-to-right reproduces the historical sequential
/// accumulation bit-for-bit). A ray's march state (`τ`, `e^{-τ_prev}`,
/// level, reflection count) lives in the tracer's lanes, not here.
#[derive(Clone, Debug, Default)]
pub struct RayPacket {
    pub ox: Vec<f64>,
    pub oy: Vec<f64>,
    pub oz: Vec<f64>,
    pub dx: Vec<f64>,
    pub dy: Vec<f64>,
    pub dz: Vec<f64>,
    /// Initial sensitivity of the ray (1 for a fresh ray).
    pub weight: Vec<f64>,
    pub sum_i: Vec<f64>,
    pub active: Vec<bool>,
}

impl RayPacket {
    pub fn with_capacity(n: usize) -> Self {
        let mut p = Self::default();
        p.reserve(n);
        p
    }

    pub fn reserve(&mut self, n: usize) {
        self.ox.reserve(n);
        self.oy.reserve(n);
        self.oz.reserve(n);
        self.dx.reserve(n);
        self.dy.reserve(n);
        self.dz.reserve(n);
        self.weight.reserve(n);
        self.sum_i.reserve(n);
        self.active.reserve(n);
    }

    /// Append a fresh ray (unit `dir`).
    pub fn push(&mut self, origin: Point, dir: Vector) {
        self.ox.push(origin.x);
        self.oy.push(origin.y);
        self.oz.push(origin.z);
        self.dx.push(dir.x);
        self.dy.push(dir.y);
        self.dz.push(dir.z);
        self.weight.push(1.0);
        self.sum_i.push(0.0);
        self.active.push(true);
    }

    /// Reset to `n` fresh rays: `weight`, `sum_i` and `active` take their
    /// defaults; the origin and direction columns are only sized — what
    /// they hold is unspecified until the caller sets every ray
    /// ([`RayPacket::set_ray`], or the columns directly).
    pub fn reset(&mut self, n: usize) {
        for column in [
            &mut self.ox,
            &mut self.oy,
            &mut self.oz,
            &mut self.dx,
            &mut self.dy,
            &mut self.dz,
        ] {
            column.resize(n, 0.0);
        }
        self.weight.clear();
        self.weight.resize(n, 1.0);
        self.sum_i.clear();
        self.sum_i.resize(n, 0.0);
        self.active.clear();
        self.active.resize(n, true);
    }

    /// Set origin and (unit) direction of ray `i` after [`RayPacket::reset`].
    #[inline]
    pub fn set_ray(&mut self, i: usize, origin: Point, dir: Vector) {
        self.ox[i] = origin.x;
        self.oy[i] = origin.y;
        self.oz[i] = origin.z;
        self.dx[i] = dir.x;
        self.dy[i] = dir.y;
        self.dz[i] = dir.z;
    }

    pub fn len(&self) -> usize {
        self.sum_i.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sum_i.is_empty()
    }

    /// Reset to an empty packet, keeping allocations.
    pub fn clear(&mut self) {
        self.ox.clear();
        self.oy.clear();
        self.oz.clear();
        self.dx.clear();
        self.dy.clear();
        self.dz.clear();
        self.weight.clear();
        self.sum_i.clear();
        self.active.clear();
    }

    #[inline]
    pub fn origin(&self, i: usize) -> Point {
        Point::new(self.ox[i], self.oy[i], self.oz[i])
    }

    #[inline]
    pub fn dir(&self, i: usize) -> Vector {
        Vector::new(self.dx[i], self.dy[i], self.dz[i])
    }

    #[inline]
    pub(crate) fn set_dir(&mut self, i: usize, d: Vector) {
        self.dx[i] = d.x;
        self.dy[i] = d.y;
        self.dz[i] = d.z;
    }

    #[inline]
    pub(crate) fn set_origin(&mut self, i: usize, p: Point) {
        self.ox[i] = p.x;
        self.oy[i] = p.y;
        self.oz[i] = p.z;
    }

    fn columns(&mut self) -> Rays<'_> {
        Rays {
            ox: &self.ox,
            oy: &self.oy,
            oz: &self.oz,
            dx: &self.dx,
            dy: &self.dy,
            dz: &self.dz,
            weight: &self.weight,
            sum_i: &mut self.sum_i,
            active: &mut self.active,
        }
    }
}

/// The ray columns the lane engine reads from and writes back to: a
/// [`RayPacket`]'s, or the single stack ray of [`PacketTracer::trace_one`].
struct Rays<'p> {
    ox: &'p [f64],
    oy: &'p [f64],
    oz: &'p [f64],
    dx: &'p [f64],
    dy: &'p [f64],
    dz: &'p [f64],
    weight: &'p [f64],
    sum_i: &'p mut [f64],
    active: &'p mut [bool],
}

/// How the rays of a trace ended (each traced ray ends exactly once).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RayEnds {
    /// Remaining transmissivity fell below the threshold.
    pub extinguished: u64,
    /// Absorbed at a wall (a wall cell on the marched level, or the wall
    /// cell a level transition landed in).
    pub wall: u64,
    /// Left the coarsest level (cold black enclosure).
    pub left_domain: u64,
    /// Cut off by the defensive integer step bound.
    pub step_bound: u64,
}

/// Work counters of [`PacketTracer::trace`]. Everything is counted where a
/// segment ends (the cold half of the engine), not in the step loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MarchStats {
    /// Rays traced (active rays of the packets).
    pub rays: u64,
    /// Level segments marched (1 + level crossings + reflections per ray).
    pub segments: u64,
    /// Cell steps: cells integrated across, one `exp` each.
    pub cell_steps: u64,
    /// Re-homings of a ray onto a coarser level.
    pub level_crossings: u64,
    pub ended: RayEnds,
}

impl std::ops::AddAssign for MarchStats {
    fn add_assign(&mut self, o: Self) {
        self.rays += o.rays;
        self.segments += o.segments;
        self.cell_steps += o.cell_steps;
        self.level_crossings += o.level_crossings;
        self.ended.extinguished += o.ended.extinguished;
        self.ended.wall += o.ended.wall;
        self.ended.left_domain += o.ended.left_domain;
        self.ended.step_bound += o.ended.step_bound;
    }
}

/// Rays in flight per [`PacketTracer::trace`]: how many independent DDA
/// dependency chains the step loop interleaves (module doc, "Stepping").
const LANES: usize = 2;

/// One ray in flight: its current level segment plus everything that
/// survives from segment to segment.
#[derive(Default)]
struct Lane<'t> {
    seg: SegState<'t>,
    core: RayCore,
    /// Start point of the current segment and the ray direction.
    pos: Point,
    dir: Vector,
    /// Level index of the current segment.
    li: usize,
    reflections: u32,
    /// Index of the ray in the packet.
    ray: usize,
}

/// The packet being streamed through the lanes: its columns, the next ray
/// to launch, and the counters of the trace.
struct Feed<'p> {
    rays: Rays<'p>,
    next: usize,
    stats: MarchStats,
}

impl Feed<'_> {
    /// Write a finished ray back to its packet slot.
    fn retire(&mut self, lane: &Lane<'_>) {
        self.rays.sum_i[lane.ray] = lane.core.sum_i;
        self.rays.active[lane.ray] = false;
    }
}

/// The packet tracer: a trace stack prepared once, marched many times.
///
/// Read-only after construction (`Sync`), so one tracer is shared by every
/// cell kernel of a `uintah-exec` dispatch.
pub struct PacketTracer<'a> {
    levels: &'a [TraceLevel<'a>],
    prepared: Vec<PreparedLevel<'a>>,
    /// Interleaved per-cell march payload per level (built once per
    /// tracer, read on every step).
    pays: Vec<Vec<CellPay>>,
    opts: TraceOptions,
}

impl<'a> PacketTracer<'a> {
    /// Prepare a trace stack (coarsest first, finest last) for marching.
    pub fn new(levels: &'a [TraceLevel<'a>], opts: TraceOptions) -> Self {
        assert!(!levels.is_empty(), "empty level stack");
        let prepared: Vec<PreparedLevel<'a>> = levels.iter().map(PreparedLevel::new).collect();
        let pays: Vec<Vec<CellPay>> = prepared
            .iter()
            .map(|lvl| {
                lvl.abskg
                    .iter()
                    .zip(lvl.sigma)
                    .zip(lvl.ctype)
                    .map(|((&abskg, &sigma), &ct)| CellPay {
                        abskg,
                        sigma,
                        wall: ct != FLOW_CELL,
                    })
                    .collect()
            })
            .collect();
        for (level, pay) in levels.iter().zip(&pays) {
            // The other half of the `SegState` invariant: one payload
            // entry per cell of the data region.
            assert_eq!(
                pay.len(),
                level.props.region.volume(),
                "level fields do not cover the level region"
            );
        }
        Self {
            levels,
            prepared,
            pays,
            opts,
        }
    }

    pub fn levels(&self) -> &'a [TraceLevel<'a>] {
        self.levels
    }

    pub fn options(&self) -> TraceOptions {
        self.opts
    }

    /// Fine-level (top-of-stack) properties.
    pub fn fine_props(&self) -> &'a LevelProps {
        self.levels.last().unwrap().props
    }

    /// March every active ray of the packet to completion, `LANES` rays
    /// in flight at a time. Each ray's result lands in `sum_i` (added to
    /// the value it held) and its `active` flag is cleared.
    pub fn trace(&self, packet: &mut RayPacket) -> MarchStats {
        self.trace_stream::<LANES>(packet.columns())
    }

    /// Trace a single ray (allocation-free convenience used by
    /// [`crate::trace::trace_ray_with_options`]): the lane engine with one
    /// lane.
    pub fn trace_one(&self, origin: Point, dir: Vector) -> f64 {
        debug_assert!((dir.length() - 1.0).abs() < 1e-9, "direction must be unit");
        let (mut sum_i, mut active) = ([0.0], [true]);
        self.trace_stream::<1>(Rays {
            ox: &[origin.x],
            oy: &[origin.y],
            oz: &[origin.z],
            dx: &[dir.x],
            dy: &[dir.y],
            dz: &[dir.z],
            weight: &[1.0],
            sum_i: &mut sum_i,
            active: &mut active,
        });
        sum_i[0]
    }

    /// The lane engine. `N` lanes each hold one ray and march it to
    /// completion — segment, [`resolve`](Self::resolve), next level's
    /// segment in the same lane — then take the next active ray of the
    /// packet. While every lane is busy the loop body steps lane 0, lane
    /// 1, … in turn, so `N` independent dependency chains are in flight;
    /// once the packet runs dry the remaining lanes finish one by one.
    /// Per-ray results do not depend on `N`: a ray's FP sequence is its
    /// own, and it is written back to its own `sum_i` slot.
    fn trace_stream<const N: usize>(&self, rays: Rays<'_>) -> MarchStats {
        let threshold = self.opts.threshold;
        let mut feed = Feed {
            rays,
            next: 0,
            stats: MarchStats::default(),
        };
        let mut lanes: [Lane<'_>; N] = std::array::from_fn(|_| Lane::default());
        let mut live = 0;
        while live < N && self.launch(&mut lanes[live], &mut feed) {
            live += 1;
        }
        // `N` is a constant, so the lane loop unrolls into N copies of the
        // step body with every lane's state at a fixed stack address.
        'stream: while live == N {
            for l in 0..N {
                let lane = &mut lanes[l];
                if let Some(end) = lane.seg.step(&mut lane.core, threshold) {
                    if !self.advance(lane, end, &mut feed) {
                        lanes.swap(l, N - 1);
                        live = N - 1;
                        break 'stream;
                    }
                }
            }
        }
        for lane in &mut lanes[..live] {
            loop {
                if let Some(end) = lane.seg.step(&mut lane.core, threshold) {
                    if !self.advance(lane, end, &mut feed) {
                        break;
                    }
                }
            }
        }
        feed.stats
    }

    /// Put the next active ray of the packet into `lane`; `false` when the
    /// packet has none left. Rays that end without marching a single cell
    /// (origin outside every level) are finished here.
    fn launch<'t>(&'t self, lane: &mut Lane<'t>, feed: &mut Feed<'_>) -> bool {
        let finest = self.prepared.len() - 1;
        while feed.next < feed.rays.sum_i.len() {
            let rays = &feed.rays;
            let i = feed.next;
            feed.next += 1;
            if !rays.active[i] {
                continue;
            }
            feed.stats.rays += 1;
            // Field by field: the segment state is `place`'s to write.
            lane.core = RayCore {
                tau: 0.0,
                exp_prev: 1.0,
                sum_i: rays.sum_i[i],
                weight: rays.weight[i],
            };
            lane.dir = Vector::new(rays.dx[i], rays.dy[i], rays.dz[i]);
            lane.li = finest;
            lane.reflections = 0;
            lane.ray = i;
            let origin = Point::new(rays.ox[i], rays.oy[i], rays.oz[i]);
            if self.place(lane, finest + 1, origin, &mut feed.stats) {
                return true;
            }
            feed.retire(lane);
        }
        false
    }

    /// A lane's segment ended: start the ray's next segment, or write the
    /// finished ray back and launch the next one. `false` when the lane is
    /// left without a ray. Once per segment, so kept out of the step loop.
    #[inline(never)]
    fn advance<'t>(&'t self, lane: &mut Lane<'t>, end: SegEnd, feed: &mut Feed<'_>) -> bool {
        if self.resolve(lane, end, &mut feed.stats) {
            return true;
        }
        feed.retire(lane);
        self.launch(lane, feed)
    }

    /// Wall/level-transition logic (the non-marching half of the
    /// historical `trace_ray_with_options` loop); `true` when the ray goes
    /// on with a new segment in `lane`.
    fn resolve<'t>(&'t self, lane: &mut Lane<'t>, end: SegEnd, stats: &mut MarchStats) -> bool {
        let lvl = &self.prepared[lane.li];
        let seg = &lane.seg;
        stats.segments += 1;
        // The guard counts completed advances; a segment that ends any
        // other way than on the guard integrated one more cell.
        stats.cell_steps +=
            (lvl.step_bound - seg.guard) as u64 + u64::from(!matches!(end, SegEnd::StepBound));
        match end {
            SegEnd::Extinguished => {
                stats.ended.extinguished += 1;
                false
            }
            SegEnd::StepBound => {
                stats.ended.step_bound += 1;
                false
            }
            SegEnd::HitWall { axis, emissivity } => {
                let st = &mut lane.core;
                let reflectivity = 1.0 - emissivity;
                if lane.reflections >= self.opts.max_reflections
                    || reflectivity <= 0.0
                    || st.weight * st.exp_prev * reflectivity < self.opts.threshold
                {
                    stats.ended.wall += 1;
                    return false;
                }
                lane.reflections += 1;
                st.weight *= reflectivity;
                // Specular bounce off the axis-aligned face; restart on the
                // face-snapped coordinate just inside the flow cell the ray
                // came from.
                let s = seg.step[axis];
                let face = lvl.crossed_face(axis, seg.cells[axis], s);
                let restart = face - (s as f64) * FACE_NUDGE * lvl.dx[axis];
                let mut pos = lane.pos + lane.dir * seg.traveled;
                match axis {
                    0 => {
                        lane.dir.x = -lane.dir.x;
                        pos.x = restart;
                    }
                    1 => {
                        lane.dir.y = -lane.dir.y;
                        pos.y = restart;
                    }
                    _ => {
                        lane.dir.z = -lane.dir.z;
                        pos.z = restart;
                    }
                }
                self.place(lane, lane.li + 1, pos, stats)
            }
            SegEnd::Exited { axis } => {
                // Face-snapped exit point, just past the crossed slab plane.
                let s = seg.step[axis];
                let face = lvl.crossed_face(axis, seg.cells[axis], s);
                let snapped = face + (s as f64) * FACE_NUDGE * lvl.dx[axis];
                let mut exit = lane.pos + lane.dir * seg.traveled;
                match axis {
                    0 => exit.x = snapped,
                    1 => exit.y = snapped,
                    _ => exit.z = snapped,
                }
                self.place(lane, lane.li, exit, stats)
            }
        }
    }

    /// Start the lane's next segment at `pos` on the finest level below
    /// index `below` whose ROI contains it; `false` when the ray ends
    /// instead. A point outside a level's ROI is a ray that left it: it is
    /// re-homed on the next coarser level, and below the coarsest lies the
    /// cold black enclosure. Landing in a wall cell of a *coarser* level
    /// than the ray was on absorbs it there.
    fn place<'t>(
        &'t self,
        lane: &mut Lane<'t>,
        below: usize,
        pos: Point,
        stats: &mut MarchStats,
    ) -> bool {
        for li in (0..below).rev() {
            if !lane.seg.init(&self.prepared[li], &self.pays[li], pos, lane.dir) {
                continue;
            }
            if li != lane.li {
                let p = &lane.seg.pay[lane.seg.idx];
                if p.wall {
                    let st = &mut lane.core;
                    st.sum_i += st.weight * p.abskg * p.sigma * st.exp_prev;
                    stats.ended.wall += 1;
                    return false;
                }
                stats.level_crossings += 1;
            }
            lane.li = li;
            lane.pos = pos;
            return true;
        }
        stats.ended.left_domain += 1;
        false
    }
}

/// How one collision-estimator flight leg ended (see
/// [`CollisionTracer::fly`]).
pub enum FlightEnd {
    /// Left the level region (cold black enclosure).
    Escaped,
    /// Entered a wall cell: its emissivity and `σT⁴/π`.
    Wall { emissivity: f64, s: f64 },
    /// The sampled optical depth was consumed inside a cell: the collision
    /// point, the extinction coefficient `β` there and the cell's `σT⁴/π`.
    Collision { pos: Point, beta: f64, s: f64 },
}

/// The cell-marching half of the scattering collision estimator
/// ([`crate::scatter`]), sharing the prepared-level machinery of the packet
/// engine. The physics (albedo weighting, Russian roulette, phase-function
/// sampling) stays in `scatter`; the geometry lives here, once.
///
/// The FP op sequence replicates the historical scalar collision march
/// exactly (the scattering bit-identity pin in `tests/ray_engine.rs`
/// depends on it), including its absolute per-level advance epsilon.
pub struct CollisionTracer<'a> {
    lvl: PreparedLevel<'a>,
    /// Historical face-advance nudge: `1e-10 · min(dx)`.
    eps: f64,
}

impl<'a> CollisionTracer<'a> {
    pub fn new(props: &'a LevelProps) -> Self {
        let level = TraceLevel {
            props,
            roi: props.region,
        };
        Self {
            lvl: PreparedLevel::new(&level),
            eps: 1e-10 * props.dx.min_component(),
        }
    }

    /// March from `pos` along `dir` until the sampled optical depth
    /// `tau_target` is consumed (a collision), a wall is entered, or the
    /// ray escapes the region. `sigma_s` is the (uniform) scattering
    /// coefficient entering the extinction `β = κ + σ_s`.
    pub fn fly(&self, mut pos: Point, dir: Vector, mut tau_target: f64, sigma_s: f64) -> FlightEnd {
        let lvl = &self.lvl;
        let mut cur = lvl.cell_containing(pos);
        if !lvl.roi_contains(cur) {
            return FlightEnd::Escaped;
        }
        loop {
            let idx = lvl.index_of(cur);
            if lvl.ctype[idx] != FLOW_CELL {
                return FlightEnd::Wall {
                    emissivity: lvl.abskg[idx],
                    s: lvl.sigma[idx],
                };
            }
            let beta = lvl.abskg[idx] + sigma_s;
            // Distance to the next face along dir (the historical fold).
            let mut t_exit = f64::INFINITY;
            for a in 0..3 {
                let d = dir[a];
                let lo_a = lvl.face_coord(a, cur[a]);
                if d > 0.0 {
                    t_exit = t_exit.min((lo_a + lvl.dx[a] - pos[a]) / d);
                } else if d < 0.0 {
                    t_exit = t_exit.min((lo_a - pos[a]) / d);
                }
            }
            let t_exit = t_exit.max(0.0);
            if beta * t_exit >= tau_target {
                let t_coll = tau_target / beta;
                return FlightEnd::Collision {
                    pos: pos + dir * t_coll,
                    beta,
                    s: lvl.sigma[idx],
                };
            }
            tau_target -= beta * t_exit;
            pos = pos + dir * (t_exit + self.eps);
            cur = lvl.cell_containing(pos);
            if !lvl.roi_contains(cur) {
                return FlightEnd::Escaped;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::BurnsChriston;
    use crate::rng::CellRng;
    use crate::solver::two_level_stack;
    use uintah_grid::{IntVector, Region};

    #[test]
    fn slabs_hit_and_miss() {
        let p0 = Point::new(0.0, 0.0, 0.0);
        let p1 = Point::new(1.0, 1.0, 1.0);
        let d = Vector::new(1.0, 0.0, 0.0);
        let inv = Vector::new(1.0 / d.x, 1.0 / d.y, 1.0 / d.z);
        // From inside: entry behind, exit ahead.
        let (near, far) = slabs(p0, p1, Point::new(0.25, 0.5, 0.5), inv);
        assert!(near <= 0.0 && (far - 0.75).abs() < 1e-12, "{near} {far}");
        // Axis-aligned miss: y outside the slab, d.y == 0.
        let (near, far) = slabs(p0, p1, Point::new(0.25, 1.5, 0.5), inv);
        assert!(near > far, "must miss: {near} {far}");
        // Oblique hit from outside.
        let d = Vector::new(1.0, 1.0, 1.0).normalized();
        let inv = Vector::new(1.0 / d.x, 1.0 / d.y, 1.0 / d.z);
        let (near, far) = slabs(p0, p1, Point::new(-1.0, -1.0, -1.0), inv);
        assert!(near < far && near > 0.0);
    }

    #[test]
    fn slabs_origin_on_degenerate_plane_counts_as_inside() {
        // Origin exactly on the y = 0 plane with d.y == 0: 0·∞ would be
        // NaN; the axis must be treated as a pass-through, not a miss.
        let p0 = Point::new(0.0, 0.0, 0.0);
        let p1 = Point::new(1.0, 1.0, 1.0);
        let d = Vector::new(1.0, 0.0, 0.0);
        let inv = Vector::new(1.0 / d.x, 1.0 / d.y, 1.0 / d.z);
        let (near, far) = slabs(p0, p1, Point::new(0.5, 0.0, 0.5), inv);
        assert!(near <= far, "{near} {far}");
        assert!((far - 0.5).abs() < 1e-12);
    }

    #[test]
    fn packet_push_and_reset_initialize_ray_state() {
        let mut p = RayPacket::with_capacity(2);
        p.push(Point::new(0.0, 0.0, 0.0), Vector::new(1.0, 0.0, 0.0));
        assert_eq!(p.len(), 1);
        assert!(p.active[0]);
        p.clear();
        assert!(p.is_empty());
        // Bulk reset matches push-initialized state field for field.
        p.reset(3);
        p.set_ray(1, Point::new(0.5, 0.25, 0.125), Vector::new(0.0, 1.0, 0.0));
        assert_eq!(p.len(), 3);
        assert_eq!(p.oy[1], 0.25);
        assert_eq!(p.dy[1], 1.0);
        assert_eq!(p.weight[0], 1.0);
        assert_eq!(p.sum_i[1], 0.0);
        assert!(p.active.iter().all(|&a| a));
    }

    #[test]
    fn floor_i32_equals_the_cast_of_the_libm_floor() {
        let top = i32::MAX as f64;
        let bottom = i32::MIN as f64;
        let cases = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            2.999_999_999_999_999_6,
            -2.000_000_000_000_000_4,
            -7.25,
            1e-300,
            -1e-300,
            -2.4e7,
            top,
            top - 0.5,
            top + 0.5,
            top + 1.0,
            bottom,
            bottom + 0.5,
            bottom - 0.5,
            bottom - 1.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in cases {
            assert_eq!(floor_i32(x), x.floor() as i32, "x = {x:e}");
        }
    }

    /// The three-way sign test [`axis_setup`] replaced, verbatim.
    fn axis_setup_historical(
        d: f64,
        lo_a: f64,
        dx_a: f64,
        pos_a: f64,
        roi_lo: i32,
        roi_hi: i32,
        stride: isize,
    ) -> (i32, f64, f64, i32, isize) {
        let (s, tm, td) = if d > 0.0 {
            (1, (lo_a + dx_a - pos_a) / d, dx_a / d)
        } else if d < 0.0 {
            (-1, (lo_a - pos_a) / d, -dx_a / d)
        } else {
            (0, f64::INFINITY, f64::INFINITY)
        };
        let exit_plane = if s > 0 { roi_hi } else { roi_lo - 1 };
        (s, tm, td, exit_plane, (s as isize) * stride)
    }

    #[test]
    fn axis_setup_equals_the_three_way_sign_test_bit_for_bit() {
        let tiny = f64::from_bits(1); // smallest subnormal
        let magnitudes = [0.0, tiny, 1e-300, 0.3, 1.0, 1e300, f64::INFINITY];
        let dirs = magnitudes.iter().flat_map(|&m| [m, -m]).chain([f64::NAN]);
        // (lo_a, dx_a): `lo_a` is `anchor + ci·dx_a`, never -0.0.
        let cells = [
            (0.0, 0.125),
            (0.375, 0.125),
            (-2.5, 1.0 / 3.0),
            (7e3, 1e3),
            (-3e-6, 1e-6),
            (1.0 / 3.0, 1.0 / 32.0),
        ];
        let mut checked = 0;
        for d in dirs {
            for (lo_a, dx_a) in cells {
                // Inside the cell, on either face, a nudge past each.
                for frac in [0.0, 1e-9, 0.25, 0.5, 1.0 - 1e-9, 1.0, -1e-9, 1.0 + 1e-9] {
                    let pos_a = lo_a + frac * dx_a;
                    for (roi_lo, roi_hi, stride) in [(0, 16, 1), (-4, 3, 18), (5, 6, 324)] {
                        let want = axis_setup_historical(d, lo_a, dx_a, pos_a, roi_lo, roi_hi, stride);
                        let got = axis_setup(d, lo_a, dx_a, pos_a, roi_lo, roi_hi, stride);
                        let case = format!("d {d:e}, lo {lo_a:e}, dx {dx_a:e}, pos {pos_a:e}");
                        assert_eq!((got.0, got.3, got.4), (want.0, want.3, want.4), "{case}");
                        assert_eq!(got.1.to_bits(), want.1.to_bits(), "t_max, {case}");
                        assert_eq!(got.2.to_bits(), want.2.to_bits(), "t_delta, {case}");
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 15 * 6 * 8 * 3);
    }

    /// `x` moved `n` representable values up (`n < 0`: down).
    fn ulps(x: f64, n: i64) -> f64 {
        assert!(x.is_finite());
        // Map the sign-magnitude bit pattern onto a monotone integer line.
        let key = |b: i64| if b < 0 { i64::MIN - b } else { b };
        f64::from_bits(key(key(x.to_bits() as i64) + n) as u64)
    }

    #[test]
    fn locate_equals_the_floored_divide() {
        assert_eq!(ulps(1.0, 1), 1.0 + f64::EPSILON);
        assert_eq!(ulps(0.0, -1), -f64::from_bits(1));
        assert_eq!(ulps(ulps(-0.3, 2), -2), -0.3);
        // How many points took the multiplied form, how many the divide.
        let (mut trusted, mut exact) = (0, 0);
        let mut check = |p: f64, anchor: f64, dx: f64| {
            let got = locate(p, anchor, dx, 1.0 / dx);
            assert_eq!(got, floor_i32((p - anchor) / dx), "p {p:e}, anchor {anchor:e}, dx {dx:e}");
            let q = (p - anchor) * (1.0 / dx);
            let f = q - (q as i32) as f64;
            if f > LOCATE_MARGIN && f < 1.0 - LOCATE_MARGIN && q < 1e9 {
                trusted += 1;
            } else {
                exact += 1;
            }
        };
        for dx in [1.0 / 3.0, 1.0 / 32.0, 1e-6, 1e3, 0.1, 7.0] {
            for anchor in [0.0, -0.0, -1.0, 0.7, -5.0 * dx, 1e3 * dx] {
                // Every face of an 8-cell axis (and a few below the anchor:
                // negative quotients), to within 2 ulp either side.
                for ci in -3..=8 {
                    let face = anchor + ci as f64 * dx;
                    for n in -2..=2 {
                        check(ulps(face, n), anchor, dx);
                    }
                    // Cell interiors, and just inside the margin.
                    for frac in [0.5, 0.001, 0.999, 2e-6, 1.0 - 2e-6, 0.5e-6, 1.0 - 0.5e-6] {
                        check(face + frac * dx, anchor, dx);
                    }
                }
                for p in [
                    9.99e8 * dx,
                    1.0001e9 * dx,
                    2.2e9 * dx,
                    -2.2e9 * dx,
                    1e300,
                    -1e300,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                ] {
                    check(p, anchor, dx);
                }
            }
        }
        // Degenerate spacings: the reciprocal overflows or loses its bits.
        for dx in [f64::from_bits(1), 1e-310, 1.7e308, f64::INFINITY, 0.0] {
            for p in [0.0, 0.3, -0.3, 1e-310, 1e308] {
                check(p, 0.0, dx);
            }
        }
        assert!(trusted > 1000 && exact > 1000, "both forms must be exercised: {trusted} / {exact}");
    }

    /// `n` rays from `cell`, origins and directions drawn as the solver
    /// draws them.
    fn rays_from(props: &LevelProps, cell: IntVector, n: usize) -> RayPacket {
        let mut p = RayPacket::with_capacity(n);
        for r in 0..n {
            let mut rng = CellRng::new(0xBEEF, cell, r as u32, 0);
            let dir = rng.direction();
            p.push(rng.point_in_cell(props.cell_lo(cell), props.dx), dir);
        }
        p
    }

    fn traced<const N: usize>(tracer: &PacketTracer<'_>, packet: &RayPacket) -> (Vec<u64>, MarchStats) {
        let mut p = packet.clone();
        let stats = tracer.trace_stream::<N>(p.columns());
        assert!(p.active.iter().all(|&a| !a), "{N} lanes left a ray active");
        (p.sum_i.iter().map(|v| v.to_bits()).collect(), stats)
    }

    /// Every packet shape that exercises launch, refill and the tail must
    /// give the same bits and the same counters for 1..=4 lanes, and
    /// `trace_one` must agree with a one-ray packet.
    fn assert_lane_invariant(tracer: &PacketTracer<'_>, props: &LevelProps, cell: IntVector) -> MarchStats {
        let full = rays_from(props, cell, 100);
        let mut packets: Vec<RayPacket> = [0, 1, 2, 3, 4, 5]
            .iter()
            .map(|&n| rays_from(props, cell, n))
            .collect();
        let mut holes = full.clone();
        for i in (40..60).chain([0, 99]) {
            holes.active[i] = false;
        }
        packets.push(holes);
        packets.push(full);
        let mut last = MarchStats::default();
        for packet in &packets {
            let live = packet.active.iter().filter(|&&a| a).count() as u64;
            let (want, stats) = traced::<1>(tracer, packet);
            for got in [
                traced::<2>(tracer, packet),
                traced::<3>(tracer, packet),
                traced::<4>(tracer, packet),
            ] {
                assert_eq!(got, (want.clone(), stats), "packet of {}", packet.len());
            }
            let e = stats.ended;
            assert_eq!(stats.rays, live);
            assert_eq!(e.extinguished + e.wall + e.left_domain + e.step_bound, live);
            assert!(stats.segments >= live && stats.cell_steps >= stats.segments);
            for (i, &bits) in want.iter().enumerate() {
                if packet.active[i] {
                    let one = tracer.trace_one(packet.origin(i), packet.dir(i));
                    assert_eq!(one.to_bits(), bits, "trace_one, ray {i}");
                } else {
                    assert_eq!(bits, 0, "inactive ray {i} was traced");
                }
            }
            last = stats;
        }
        last
    }

    #[test]
    fn lane_count_does_not_change_results_across_level_crossings() {
        // 2-level Burns & Christon (RR 4), fine ROI = one 8³ patch + halo 2:
        // most rays leave the ROI and finish on the coarse replica.
        let grid = BurnsChriston::small_grid(16, 8);
        let bc = BurnsChriston::default();
        let coarse = bc.props_for_level(grid.level(0));
        let fine = bc.props_for_level(grid.level(1));
        let roi = Region::new(IntVector::splat(0), IntVector::splat(10));
        let stack = two_level_stack(&coarse, &fine, roi);
        let opts = TraceOptions {
            threshold: 1e-5,
            max_reflections: 0,
        };
        let stats = assert_lane_invariant(&PacketTracer::new(&stack, opts), &fine, IntVector::splat(5));
        assert!(stats.level_crossings > 0 && stats.ended.left_domain > 0, "{stats:?}");
        assert_eq!(stats.segments, stats.rays + stats.level_crossings);
    }

    /// Unit-cube level of `n`³ cells whose fields vary from cell to cell:
    /// `kappa(c)` per flow cell, emission rising with the cell index.
    fn varied_level(n: i32, kappa: impl Fn(IntVector) -> f64) -> LevelProps {
        let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 0.0, 0.0);
        for c in props.region.cells() {
            props.abskg[c] = kappa(c);
            props.sigma_t4_over_pi[c] = 0.5 + 0.01 * (c.x + 2 * c.y + 3 * c.z) as f64;
        }
        props
    }

    #[test]
    fn lane_count_does_not_change_results_through_an_intermediate_level() {
        // Coarse 4³ over the whole domain, mid 8³ with ROI [1,7)³, fine 16³
        // with ROI [5,11)³. The fine level is thick towards -x and the mid
        // level towards -y, so rays end on all three; the coarse level's
        // z = 3 slab is a wall that +z rays leaving the mid ROI land in.
        let mut coarse = varied_level(4, |_| 1.0);
        for c in coarse.region.cells().filter(|c| c.z == 3) {
            coarse.cell_type[c] = crate::props::WALL_CELL;
            coarse.abskg[c] = 0.9;
        }
        let mid = varied_level(8, |c| if c.y < 4 { 20.0 } else { 1.0 });
        let fine = varied_level(16, |c| if c.x < 8 { 30.0 } else { 1.0 });
        let stack = [
            TraceLevel {
                props: &coarse,
                roi: coarse.region,
            },
            TraceLevel {
                props: &mid,
                roi: Region::new(IntVector::splat(1), IntVector::splat(7)),
            },
            TraceLevel {
                props: &fine,
                roi: Region::new(IntVector::splat(5), IntVector::splat(11)),
            },
        ];
        let opts = TraceOptions {
            threshold: 0.05,
            max_reflections: 0,
        };
        let tracer = PacketTracer::new(&stack, opts);
        let cell = IntVector::splat(8);
        let stats = assert_lane_invariant(&tracer, &fine, cell);
        assert_eq!(stats.segments, stats.rays + stats.level_crossings);
        let e = stats.ended;
        assert!(e.extinguished > 0 && e.wall > 0 && e.left_domain > 0, "{stats:?}");

        // Ray by ray: the number of re-homings says which level a ray
        // ended on (or left the domain from).
        let full = rays_from(&fine, cell, 100);
        let mut ended_on = [0; 3];
        for i in 0..full.len() {
            let mut one = RayPacket::default();
            one.push(full.origin(i), full.dir(i));
            let (_, stats) = traced::<1>(&tracer, &one);
            ended_on[2 - stats.level_crossings as usize] += 1;
        }
        assert!(ended_on.iter().all(|&n| n >= 10), "rays ended per level: {ended_on:?}");
    }

    #[test]
    fn lane_count_does_not_change_results_across_reflections() {
        // Hot grey-wall enclosure (ε = 0.8): reflected rays restart in the
        // lane they were in.
        let n = 10;
        let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 0.7, 0.9);
        for c in props.region.cells() {
            if (0..3).any(|a| c[a] == 0 || c[a] == n - 1) {
                props.cell_type[c] = crate::props::WALL_CELL;
                props.abskg[c] = 0.8;
                props.sigma_t4_over_pi[c] = 1.7;
            }
        }
        let stack = [TraceLevel {
            props: &props,
            roi: props.region,
        }];
        let opts = TraceOptions {
            threshold: 1e-6,
            max_reflections: 3,
        };
        let stats = assert_lane_invariant(&PacketTracer::new(&stack, opts), &props, IntVector::new(3, 4, 5));
        assert_eq!(stats.ended.wall, stats.rays, "{stats:?}");
        assert_eq!(stats.segments, 4 * stats.rays, "three reflections a ray: {stats:?}");
    }
}
