//! Property-based tests (proptest) for the core data structures and
//! invariants of the stack.

use proptest::prelude::*;
use std::path::PathBuf;
use uintah::config::{JobPriority, RunConfig};
use uintah::prelude::*;
use uintah::rmcrt::{RayPacket, RaySampling};
use uintah_grid::distribute::morton3;

fn small_coord() -> impl Strategy<Value = i32> {
    -20..20i32
}

proptest! {
    /// Region coarsen/refine: the coarse parent of every fine cell lies in
    /// the coarsened region, and refining covers the original.
    #[test]
    fn region_coarsen_covers(
        lox in small_coord(), loy in small_coord(), loz in small_coord(),
        ex in 1..12i32, ey in 1..12i32, ez in 1..12i32,
        rr in 2..5i32,
    ) {
        let lo = IntVector::new(lox, loy, loz);
        let region = Region::new(lo, lo + IntVector::new(ex, ey, ez));
        let rrv = IntVector::splat(rr);
        let coarse = region.coarsened(rrv);
        for c in region.cells() {
            prop_assert!(coarse.contains(c.div_floor(rrv)));
        }
        prop_assert!(coarse.refined(rrv).contains_region(&region));
    }

    /// Linear indexing is a bijection on any region.
    #[test]
    fn region_linear_index_bijective(
        lox in small_coord(), loy in small_coord(), loz in small_coord(),
        ex in 1..8i32, ey in 1..8i32, ez in 1..8i32,
    ) {
        let lo = IntVector::new(lox, loy, loz);
        let region = Region::new(lo, lo + IntVector::new(ex, ey, ez));
        for (i, c) in region.cells().enumerate() {
            prop_assert_eq!(region.linear_index(c), i);
            prop_assert_eq!(region.from_linear(i), c);
        }
    }

    /// Intersection is commutative, contained in both, and grown() is
    /// monotone.
    #[test]
    fn region_algebra(
        a in 0..10i32, b in 1..10i32, c in 0..10i32, d in 1..10i32,
        g in 0..4i32,
    ) {
        let r1 = Region::new(IntVector::splat(a), IntVector::splat(a + b));
        let r2 = Region::new(IntVector::splat(c), IntVector::splat(c + d));
        let i12 = r1.intersect(&r2);
        let i21 = r2.intersect(&r1);
        prop_assert_eq!(i12, i21);
        prop_assert!(r1.contains_region(&i12) && r2.contains_region(&i12));
        prop_assert!(r1.grown(g).contains_region(&r1));
    }

    /// Morton keys are injective on the lattice domain.
    #[test]
    fn morton_injective(ax in 0..64i32, ay in 0..64i32, az in 0..64i32,
                        bx in 0..64i32, by in 0..64i32, bz in 0..64i32) {
        let a = IntVector::new(ax, ay, az);
        let b = IntVector::new(bx, by, bz);
        prop_assert_eq!(morton3(a) == morton3(b), a == b);
    }

    /// Window pack/unpack round-trips arbitrary windows of arbitrary data.
    #[test]
    fn pack_unpack_roundtrip(
        n in 2..8i32,
        wx in 0..4i32, wy in 0..4i32, wz in 0..4i32,
        ex in 1..4i32, ey in 1..4i32, ez in 1..4i32,
        seed in any::<u32>(),
    ) {
        let region = Region::cube(n);
        let mut v = CcVariable::<f64>::new(region);
        v.fill_with(|c| (c.x * 31 + c.y * 7 + c.z) as f64 + seed as f64);
        let wlo = IntVector::new(wx, wy, wz);
        let window = Region::new(wlo, wlo + IntVector::new(ex, ey, ez)).intersect(&region);
        prop_assume!(!window.is_empty());
        let (w, buf) = v.pack_window(&window);
        let mut out = CcVariable::<f64>::new(region);
        out.unpack_window(&w, &buf);
        for c in w.cells() {
            prop_assert_eq!(out[c], v[c]);
        }
    }

    /// Restriction conserves the integral for any field.
    #[test]
    fn restriction_conserves_integral(
        rr in 2..4i32,
        nc in 1..4i32,
        seed in any::<u64>(),
    ) {
        use uintah_grid::restriction::restrict_average;
        let fine_n = nc * rr;
        let fine_r = Region::cube(fine_n);
        let mut fine = CcVariable::<f64>::new(fine_r);
        let mut rng = CellRng::new(seed, IntVector::ZERO, 0, 0);
        fine.fill_with(|_| rng.next_f64());
        let coarse = restrict_average(&fine, IntVector::splat(rr), Region::cube(nc));
        let fine_sum: f64 = fine.as_slice().iter().sum();
        let coarse_sum: f64 = coarse.as_slice().iter().sum::<f64>() * (rr * rr * rr) as f64;
        prop_assert!((fine_sum - coarse_sum).abs() <= 1e-9 * fine_sum.abs().max(1.0));
    }

    /// DDA path length equals the geometric chord for any ray through a
    /// uniform medium (κ = 1, telescoped optical depth recovers length).
    #[test]
    fn dda_chord_property(
        ox in 0.01f64..0.99, oy in 0.01f64..0.99, oz in 0.01f64..0.99,
        dx in -1.0f64..1.0, dy in -1.0f64..1.0, dz in -1.0f64..1.0,
    ) {
        let d = Vector::new(dx, dy, dz);
        prop_assume!(d.length() > 1e-3);
        let dir = d.normalized();
        let n = 16;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, 1.0);
        let origin = Point::new(ox, oy, oz);
        let sum_i = trace_ray(
            &[TraceLevel { props: &props, roi: props.region }],
            origin,
            dir,
            1e-300,
        );
        let l_measured = -(1.0 - sum_i).ln();
        let mut l_geom = f64::INFINITY;
        for a in 0..3 {
            if dir[a] > 0.0 {
                l_geom = l_geom.min((1.0 - origin[a]) / dir[a]);
            } else if dir[a] < 0.0 {
                l_geom = l_geom.min(-origin[a] / dir[a]);
            }
        }
        prop_assert!((l_measured - l_geom).abs() < 1e-8,
            "path {} vs chord {}", l_measured, l_geom);
    }

    /// divQ is always finite, and zero for transparent cells.
    #[test]
    fn div_q_finite(kappa in 0.0f64..50.0, s in 0.0f64..10.0, nrays in 1u32..32) {
        let n = 6;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), kappa, s);
        let dq = div_q_for_cell(
            &[TraceLevel { props: &props, roi: props.region }],
            IntVector::splat(n / 2),
            &RmcrtParams { nrays, threshold: 1e-4, seed: 1, ..Default::default() },
        );
        prop_assert!(dq.is_finite());
        if kappa == 0.0 {
            prop_assert_eq!(dq, 0.0);
        } else {
            // Bounded by total emission.
            prop_assert!(dq <= 4.0 * std::f64::consts::PI * kappa * s + 1e-9);
        }
    }

    /// The simulated heap never loses bytes: live accounting matches the
    /// sum of outstanding allocations under any alloc/free interleaving.
    #[test]
    fn heap_sim_accounting(ops in proptest::collection::vec((1u64..100_000, any::<bool>()), 1..60)) {
        use uintah::mem::fragsim::{HeapSim, Policy};
        let mut sim = HeapSim::new(Policy::FirstFit);
        let mut live = Vec::new();
        let mut expect = 0u64;
        for (size, do_free) in ops {
            if do_free && !live.is_empty() {
                let (id, sz) = live.swap_remove(0);
                sim.free(id);
                expect -= sz;
            } else {
                let id = sim.alloc(size);
                live.push((id, size));
                expect += size;
            }
            prop_assert_eq!(sim.live_bytes(), expect);
            prop_assert!(sim.footprint() >= sim.live_bytes());
        }
    }

    /// Device sub-allocator free-list invariants hold under arbitrary
    /// alloc/free sequences: blocks never overlap, adjacent free extents
    /// coalesce, and `used == sum(live blocks)` at every step — including
    /// after failed allocations (which must not perturb the accounting).
    #[test]
    fn suballoc_free_list_invariants(
        ops in proptest::collection::vec((1u64..9_000, any::<bool>()), 1..80),
        best_fit in any::<bool>(),
        small_class in 0u64..8_192,
    ) {
        use uintah::mem::{FitPolicy, SubAllocator};
        let policy = if best_fit { FitPolicy::BestFit } else { FitPolicy::FirstFit };
        // Small enough that some sequences hit capacity/fragmentation; the
        // two-ended small-class split (0 disables) must keep every
        // invariant regardless of which end a block was carved from.
        let mut sa = SubAllocator::with_small_class(64 * 1024, 1, policy, small_class);
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut expect = 0u64;
        for (size, do_free) in ops {
            if do_free && !live.is_empty() {
                let (off, sz) = live.swap_remove(0);
                prop_assert_eq!(sa.free(off), Ok(sz));
                expect -= sz;
            } else {
                match sa.alloc(size) {
                    Ok(off) => {
                        live.push((off, size));
                        expect += size;
                    }
                    Err(_) => {
                        // A failed alloc leaves the ledger untouched.
                        prop_assert_eq!(sa.used(), expect);
                    }
                }
            }
            prop_assert_eq!(sa.used(), expect, "used == sum(live)");
            prop_assert!(sa.check_invariants().is_ok(),
                "{}", sa.check_invariants().unwrap_err());
        }
        // Tear down in the model's (arbitrary) residual order: everything
        // coalesces back to one maximal free extent.
        for (off, _) in live {
            prop_assert!(sa.free(off).is_ok());
        }
        prop_assert_eq!(sa.used(), 0);
        prop_assert_eq!(sa.free_blocks(), 1);
        prop_assert_eq!(sa.largest_free(), sa.capacity());
        prop_assert!(sa.check_invariants().is_ok());
        prop_assert_eq!(sa.stats().unknown_frees, 0);
    }

    /// Double-frees and frees of fabricated offsets are rejected and
    /// counted, never corrupting the accounting.
    #[test]
    fn suballoc_rejects_bad_frees(
        sizes in proptest::collection::vec(1u64..500, 1..12),
        bogus in any::<u64>(),
    ) {
        use uintah::mem::{FitPolicy, SubAllocator};
        let mut sa = SubAllocator::new(1 << 20, 1, FitPolicy::FirstFit);
        let offs: Vec<u64> = sizes.iter().map(|&s| sa.alloc(s).unwrap()).collect();
        let used = sa.used();
        // A bogus offset is only "valid" if it collides with a live block.
        if !offs.contains(&bogus) {
            prop_assert_eq!(sa.free(bogus), Err(()));
            prop_assert_eq!(sa.stats().unknown_frees, 1);
            prop_assert_eq!(sa.used(), used);
        }
        // Free everything once — fine; free it all again — all rejected.
        for &o in &offs {
            prop_assert!(sa.free(o).is_ok());
        }
        let unknown_before = sa.stats().unknown_frees;
        for &o in &offs {
            prop_assert_eq!(sa.free(o), Err(()));
        }
        prop_assert_eq!(sa.stats().unknown_frees, unknown_before + offs.len() as u64);
        prop_assert_eq!(sa.used(), 0);
        prop_assert!(sa.check_invariants().is_ok());
    }

    /// The wait-free pool behaves as a multiset under any sequential
    /// program of insert / conditional-remove operations.
    #[test]
    fn pool_is_a_multiset(ops in proptest::collection::vec((0u8..3, 0u32..8), 1..80)) {
        let pool: WaitFreePool<u32> = WaitFreePool::new();
        let mut model: Vec<u32> = Vec::new();
        for (op, v) in ops {
            match op {
                0 => {
                    pool.insert(v);
                    model.push(v);
                }
                1 => {
                    // Remove one instance of v if present.
                    let got = pool.find_any(|&x| x == v).map(|it| pool.erase(it));
                    let model_pos = model.iter().position(|&x| x == v);
                    prop_assert_eq!(got.is_some(), model_pos.is_some());
                    if let Some(p) = model_pos {
                        model.swap_remove(p);
                    }
                }
                _ => {
                    // Drain everything equal to v.
                    let mut drained = 0;
                    pool.drain_matching(|&x| x == v, |_| drained += 1);
                    let before = model.len();
                    model.retain(|&x| x != v);
                    prop_assert_eq!(drained, before - model.len());
                }
            }
            prop_assert_eq!(pool.len(), model.len());
        }
        // Final contents match as multisets.
        let mut remaining = Vec::new();
        pool.drain_matching(|_| true, |v| remaining.push(v));
        remaining.sort_unstable();
        model.sort_unstable();
        prop_assert_eq!(remaining, model);
    }

    /// Prolongation–restriction is a projection: restricting a prolonged
    /// coarse field returns it exactly (constant prolongation).
    #[test]
    fn prolong_restrict_projection(nc in 1..4i32, rr in 2..4i32, seed in any::<u64>()) {
        use uintah_grid::prolongation::prolong_constant;
        use uintah_grid::restriction::restrict_average;
        let coarse_r = Region::cube(nc);
        let mut coarse = CcVariable::<f64>::new(coarse_r);
        let mut rng = CellRng::new(seed, IntVector::ZERO, 1, 0);
        coarse.fill_with(|_| rng.next_f64() * 10.0 - 5.0);
        let fine = prolong_constant(&coarse, IntVector::splat(rr), Region::cube(nc * rr));
        let back = restrict_average(&fine, IntVector::splat(rr), coarse_r);
        for c in coarse_r.cells() {
            prop_assert!((back[c] - coarse[c]).abs() < 1e-12);
        }
    }

    /// Tag composition is injective over the fields the runtime uses.
    #[test]
    fn tag_injective(v1 in 0u8..8, p1 in 0u32..1000, d1 in 0u32..1000, ph1 in 0u8..4,
                     v2 in 0u8..8, p2 in 0u32..1000, d2 in 0u32..1000, ph2 in 0u8..4) {
        let t1 = Tag::compose(v1, p1, d1, ph1);
        let t2 = Tag::compose(v2, p2, d2, ph2);
        prop_assert_eq!(t1 == t2, (v1, p1, d1, ph1) == (v2, p2, d2, ph2));
    }

    /// The config key table is the single source of truth: every valid
    /// `RunConfig` prints (`to_text`) to text that parses back to itself —
    /// a key missing from the table, a `show` that prints something its
    /// `set` does not accept, or an alias printed instead of a canonical
    /// spelling all break the round trip. (`Rotate(k != 1)` has no
    /// spelling, so the policy is drawn from the two spellable values;
    /// f64 keys round-trip through Rust's shortest `Display`.)
    #[test]
    fn run_config_text_round_trips(
        bits in any::<u64>(),
        patch_size in 1..9i32, refinement_ratio in 1..5i32, levels in 1..5usize, coarse in 1..4i32,
        nrays in 1..5000u32, threshold in 1e-9..1.0f64, halo in 0..9i32,
        ranks in 1..9usize, threads in 1..9usize, gpus_per_rank in 1..7usize,
        gpu_capacity_mb in 1..100_000usize, timesteps in 1..1000usize,
        rays_min in 1..64u32, rays_extra in 0..2000u32, rel_var_target in 1e-9..1.0f64,
        regrid_interval in 0..10usize,
    ) {
        let bit = |i: u32| bits >> i & 1 == 1;
        let pick = |i: u32| (bits >> i) as usize % 3;
        // Restriction windows tile every coarser level only when the
        // patch size is a multiple of the cumulative ratio.
        let patch_size = patch_size * refinement_ratio.pow(levels as u32 - 1);
        let cfg = RunConfig {
            problem: uintah::config::Problem::Benchmark,
            fine_cells: patch_size * coarse,
            patch_size,
            levels,
            refinement_ratio,
            nrays,
            threshold,
            halo,
            ranks,
            threads,
            store: [StoreKind::WaitFree, StoreKind::Mutex, StoreKind::Racy][pick(8)],
            gpu: bit(0),
            gpus_per_rank,
            gpu_capacity_mb,
            timesteps,
            sampling: [RaySampling::Independent, RaySampling::LatinHypercube][bit(4) as usize],
            adaptive_rays: bit(5),
            rays_min,
            rays_max: rays_min + rays_extra,
            rel_var_target,
            regrid_interval,
            regrid_policy: [RebalancePolicy::CostedSfc, RebalancePolicy::Rotate(1)][bit(1) as usize],
            priority: if bit(7) { JobPriority::High } else { JobPriority::Normal },
            output: [None, Some("./rmcrt.uda"), Some("/tmp/out dir/x.uda")][pick(24)]
                .map(PathBuf::from),
        };
        prop_assert_eq!(cfg.validate(), Ok(()));
        prop_assert_eq!(RunConfig::parse(&cfg.to_text()), Ok(cfg));
    }

    /// Any cost vector under either policy yields a valid distribution:
    /// every patch owned exactly once, by a rank inside the world.
    #[test]
    fn rebalance_distribution_valid(
        nranks in 1..6usize,
        rotate in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let grid = BurnsChriston::small_grid(16, 4);
        let policy = if rotate {
            RebalancePolicy::Rotate(1 + (seed % 7) as usize)
        } else {
            RebalancePolicy::CostedSfc
        };
        let costs = PatchCosts::from_values(synth_costs(&grid, seed));
        let current = PatchDistribution::new(&grid, nranks, DistributionPolicy::MortonSfc);
        let next = Regridder::new(policy).rebalance(&grid, &costs, &current);

        prop_assert_eq!(next.rank_map().len(), grid.num_patches());
        let mut owned_total = 0;
        for rank in 0..nranks {
            for &pid in next.owned_by(rank) {
                prop_assert_eq!(next.rank_of(pid), rank);
                owned_total += 1;
            }
        }
        // rank_of < nranks everywhere and the owned lists partition the
        // patch set exactly once.
        prop_assert!(next.rank_map().iter().all(|&r| (r as usize) < nranks));
        prop_assert_eq!(owned_total, grid.num_patches());
    }

    /// The costed SFC cut keeps every rank's load within the bound it
    /// advertises: `Σ_levels (level_total / nranks + level_max)`.
    #[test]
    fn costed_rebalance_respects_advertised_bound(
        nranks in 1..6usize,
        seed in any::<u64>(),
    ) {
        let grid = BurnsChriston::small_grid(16, 4);
        let regridder = Regridder::new(RebalancePolicy::CostedSfc);
        let costs = PatchCosts::from_values(synth_costs(&grid, seed));
        let current = PatchDistribution::new(&grid, nranks, DistributionPolicy::MortonSfc);
        let next = regridder.rebalance(&grid, &costs, &current);
        let bound = regridder
            .advertised_bound(&grid, &costs, nranks)
            .expect("the costed policy advertises a bound");
        for rank in 0..nranks {
            let load: f64 = next.owned_by(rank).iter().map(|&p| costs.get(p)).sum();
            prop_assert!(
                load <= bound * (1.0 + 1e-12),
                "rank {rank} load {load} exceeds advertised bound {bound}"
            );
        }
    }

    /// Degenerate directions never hang or poison the packet marcher:
    /// axis-aligned rays (`d[a] == 0` on one or two axes, giving infinite
    /// `t_delta`/`side_dist` on those axes) and exact two-axis ties
    /// (diagonal directions from cell centres and corners, where both
    /// side distances carry identical bits) must terminate and produce a
    /// finite, physically bounded intensity — identical through the
    /// single-ray and the packet entry points.
    #[test]
    fn degenerate_directions_terminate_with_finite_intensity(
        axis in 0..3usize,
        other in 0..3usize,
        neg_a in any::<bool>(),
        neg_b in any::<bool>(),
        cx in 1..15i32, cy in 1..15i32, cz in 1..15i32,
        from_corner in any::<bool>(),
    ) {
        use uintah::rmcrt::packet::RayPacket;
        use uintah::rmcrt::{PacketTracer, TraceOptions, WALL_CELL};

        let n = 16;
        let mut props =
            LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, 1.0);
        let e = props.region.extent();
        for c in props.region.cells() {
            if c.x == 0 || c.y == 0 || c.z == 0 || c.x == e.x - 1 || c.y == e.y - 1 || c.z == e.z - 1 {
                props.cell_type[c] = WALL_CELL;
                props.abskg[c] = 1.0;
                props.sigma_t4_over_pi[c] = 2.0;
            }
        }
        // Axis-aligned, or an exact two-axis diagonal: both non-zero
        // components share the same magnitude bits, so side-distance ties
        // are exact when launched from a cell centre or corner.
        let mut d = [0.0f64; 3];
        if other == axis {
            d[axis] = if neg_a { -1.0 } else { 1.0 };
        } else {
            let s = 1.0 / 2.0f64.sqrt();
            d[axis] = if neg_a { -s } else { s };
            d[other] = if neg_b { -s } else { s };
        }
        let dir = Vector::new(d[0], d[1], d[2]);
        let cell = IntVector::new(cx, cy, cz);
        let lo = props.cell_lo(cell);
        let origin = if from_corner {
            lo // exactly on the cell's low faces
        } else {
            lo + props.dx * 0.5
        };
        let stack = [TraceLevel { props: &props, roi: props.region }];
        let sum_i = trace_ray(&stack, origin, dir, 1e-9);
        prop_assert!(sum_i.is_finite(), "sumI not finite: {sum_i}");
        // Bounded by the hottest emitter in the enclosure (S_wall = 2).
        prop_assert!((0.0..=2.0 + 1e-9).contains(&sum_i), "sumI out of range: {sum_i}");

        // The packet path is the same engine: identical bits.
        let tracer = PacketTracer::new(&stack, TraceOptions { threshold: 1e-9, max_reflections: 0 });
        let mut packet = RayPacket::with_capacity(1);
        packet.push(origin, dir);
        tracer.trace(&mut packet);
        prop_assert_eq!(packet.sum_i[0].to_bits(), sum_i.to_bits());
    }

    /// The branch-free launch — `axis_setup` by arithmetic on the step
    /// sign, cell location by multiply-and-verify — against the historical
    /// three-way sign test and floored divide, which the frozen scalar
    /// marcher still is: on one level the two must agree to the bit for
    /// any spacing, anchor (negative coordinates included), origin
    /// (interior or exactly on low faces) and direction (components that
    /// are zero, tiny or of either sign).
    #[test]
    fn packet_launch_is_bit_identical_to_the_scalar_marcher(
        n in 2..10i32, dx_pick in 0..5usize,
        ax in -40..40i32, ay in -40..40i32, az in -40..40i32,
        cx in 0..10i32, cy in 0..10i32, cz in 0..10i32,
        fx in 0.0..0.999f64, fy in 0.0..0.999f64, fz in 0.0..0.999f64,
        on_face in 0..8u32,
        dx_ in -1.0..1.0f64, dy_ in -1.0..1.0f64, dz_ in -1.0..1.0f64,
        sx in 0..4usize, sy in 0..4usize, sz in 0..4usize,
    ) {
        let dx = [1.0 / 3.0, 1.0 / 32.0, 1e-6, 1e3, 0.1][dx_pick];
        let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(dx), 0.0, 0.0);
        props.anchor = Point::new(ax as f64 * dx, ay as f64 * dx, az as f64 * dx);
        for c in props.region.cells() {
            props.abskg[c] = (0.2 + 0.1 * ((c.x + c.y + c.z) % 4) as f64) / dx;
            props.sigma_t4_over_pi[c] = 0.5 + 0.01 * (c.x + 2 * c.y + 3 * c.z) as f64;
        }
        // An origin on a low face may round into the cell below: keep
        // that cell inside the level (the scalar marcher does not check).
        let place = |c: i32, f: f64, snap: bool| if snap { ((c % n).max(1) as f64, 0.0) } else { ((c % n) as f64, f) };
        let (ix, fx) = place(cx, fx, on_face & 1 != 0);
        let (iy, fy) = place(cy, fy, on_face & 2 != 0);
        let (iz, fz) = place(cz, fz, on_face & 4 != 0);
        let origin = props.anchor + Vector::new((ix + fx) * dx, (iy + fy) * dx, (iz + fz) * dx);
        let scale = [0.0, 1e-12, 1.0, 1.0];
        let mut d = Vector::new(dx_ * scale[sx], dy_ * scale[sy], dz_ * scale[sz]);
        if d.length() < 1e-6 {
            d = Vector::new(d.x, d.y, if dz_ < 0.0 { -1.0 } else { 1.0 });
        }
        let dir = d.normalized();
        let stack = [TraceLevel { props: &props, roi: props.region }];
        let packet = trace_ray(&stack, origin, dir, 1e-4);
        let scalar = rmcrt_bench::scalar_march::trace_ray_scalar(&stack, origin, dir, 1e-4);
        prop_assert!(scalar > 0.0, "the ray must march: {scalar}");
        prop_assert_eq!(packet.to_bits(), scalar.to_bits(), "origin {:?} dir {:?} dx {}", origin, dir, dx);
    }

    /// The two-pass packet fill is a re-ordering of the per-ray draw, not a
    /// re-model: for either sampling mode, ray counts from the empty packet
    /// through odd ones (a vector loop's tail) to 100, a zero or later first
    /// ray (Adaptive's later batches) and a packet that last held a shorter
    /// or longer cell's rays, every column equals `sampler.direction` +
    /// `point_in_cell` + `set_ray` to the bit.
    #[test]
    fn packet_fill_is_bit_identical_to_the_per_ray_draw(
        first in 0..300u32, stale in 0..120u32,
        cx in 0..6i32, cy in 0..6i32, cz in 0..6i32,
        seed in 0..u64::MAX, timestep in 0..50u32,
    ) {
        use uintah::rmcrt::sampling::DirectionSampler;
        use uintah::rmcrt::solver::fill_cell_packet;
        let props = LevelProps::uniform(Region::cube(6), Vector::new(0.3, 0.01, 7.0), 1.0, 1.0);
        let cell = IntVector::new(cx, cy, cz);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for sampling in [RaySampling::Independent, RaySampling::LatinHypercube] {
            let params = RmcrtParams { seed, timestep, sampling, ..Default::default() };
            let sampler = |n: u32| {
                let mut perm_rng = CellRng::new(seed, cell, u32::MAX, timestep);
                DirectionSampler::new(sampling, n, &mut perm_rng)
            };
            for count in [0u32, 1, 2, 3, 4, 5, 16, 100] {
                for first in [0, first] {
                    let mut want = RayPacket::default();
                    want.reset(count as usize);
                    let per_ray = sampler(count);
                    for k in 0..count {
                        let mut rng = CellRng::new(seed, cell, first + k, timestep);
                        let dir = per_ray.direction(k, &mut rng);
                        let origin = rng.point_in_cell(props.cell_lo(cell), props.dx);
                        want.set_ray(k as usize, origin, dir);
                    }

                    // A packet that has held `stale` other rays, traced to the end.
                    let mut got = RayPacket::default();
                    fill_cell_packet(&mut got, &props, IntVector::ZERO, &params, &sampler(stale), 7, stale);
                    got.sum_i.fill(3.5);
                    got.active.fill(false);
                    fill_cell_packet(&mut got, &props, cell, &params, &per_ray, first, count);

                    for (name, g, w) in [
                        ("ox", &got.ox, &want.ox), ("oy", &got.oy, &want.oy), ("oz", &got.oz, &want.oz),
                        ("dx", &got.dx, &want.dx), ("dy", &got.dy, &want.dy), ("dz", &got.dz, &want.dz),
                        ("weight", &got.weight, &want.weight), ("sum_i", &got.sum_i, &want.sum_i),
                    ] {
                        prop_assert_eq!(bits(g), bits(w), "{} of {:?} x {} from ray {} after {}", name, sampling, count, first, stale);
                    }
                    prop_assert_eq!(&got.active, &want.active);
                }
            }
        }
    }
}

/// Deterministic pseudo-random per-patch costs in [0, 10), with a sprinkle
/// of exact zeros (the all-zero and mixed-zero edge cases both occur).
fn synth_costs(grid: &Grid, seed: u64) -> Vec<f64> {
    (0..grid.num_patches())
        .map(|i| {
            let x = (seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(0xD134_2543_DE82_EF95);
            if x.is_multiple_of(5) {
                0.0
            } else {
                (x % 1000) as f64 / 100.0
            }
        })
        .collect()
}

/// What `rmcrt_app --print-default-config` prints is `RunConfig::default()`
/// rendered through the key table, so it can no longer drift from the
/// defaults it advertises: it parses back to exactly them, and it names
/// every key.
#[test]
fn printed_default_config_parses_to_the_defaults() {
    let text = RunConfig::default().to_text();
    assert_eq!(RunConfig::parse(&text), Ok(RunConfig::default()));
    for key in uintah::config::KEYS {
        assert!(text.contains(&format!("{} = ", key.name)), "'{}' missing:\n{text}", key.name);
    }
    assert_eq!(uintah::config::KEYS.len(), 24);
}
