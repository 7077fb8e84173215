//! Boiler demo: the coupling pattern of the CCMSC target problem.
//!
//! An explicit energy equation (ARCHES-lite) evolves the furnace
//! temperature; every few CFD steps RMCRT recomputes ∇·q_r from the
//! current temperature field (time-scale-separated coupling, paper §III-A);
//! a virtual radiometer watches the flame through a wall port.
//!
//! Run with:
//! ```text
//! cargo run --release --example boiler
//! ```

use uintah::prelude::*;
use uintah::rmcrt::labels::sigma_t4_over_pi;
use uintah::rmcrt::props::FLOW_CELL;
use uintah::rmcrt::radiometer::Radiometer;

fn main() {
    let setup = BoilerSetup {
        n: 16,
        ..Default::default()
    };
    println!(
        "boiler: {n}³ furnace, burner {burner:.1} MW/m³, walls {tw} K",
        n = setup.n,
        burner = setup.burner_power / 1e6,
        tw = setup.wall_temperature
    );

    let (mut solver, mut coupler) = setup.build(
        5,
        RmcrtParams {
            nrays: 32,
            threshold: 1e-3,
            ..Default::default()
        },
    );

    let dx = setup.dx();
    let mut t = 0.0;
    println!("\n   time(s)   mean T(K)   flame T(K)   radiometer q(kW/m²)");
    for step in 0..100 {
        t += coupler.step(&mut solver, dx, 0.05);
        if step % 10 == 9 {
            let flame_c = IntVector::new(setup.n / 2, setup.n / 2, setup.n / 3);
            let flame_t = solver.temperature()[flame_c];

            // Radiometer in the -x wall at mid-height, looking at the flame.
            let q = {
                let region = solver.region();
                let mut sig = CcVariable::<f64>::new(region);
                let temp = solver.temperature();
                for c in region.cells() {
                    sig[c] = sigma_t4_over_pi(temp[c]);
                }
                let props = LevelProps {
                    region,
                    anchor: Point::ORIGIN,
                    dx,
                    abskg: setup.abskg(),
                    sigma_t4_over_pi: sig,
                    cell_type: CcVariable::filled(region, FLOW_CELL),
                };
                let stack = [TraceLevel {
                    props: &props,
                    roi: region,
                }];
                Radiometer {
                    position: Point::new(0.03, 0.5, 0.4),
                    normal: Vector::new(1.0, 0.0, 0.0),
                    half_angle: 0.6,
                    nrays: 500,
                    seed: 99,
                }
                .measure(&stack, 1e-4)
            };
            println!(
                "   {:7.3}   {:9.1}   {:10.1}   {:10.2}",
                t,
                solver.mean_temperature(),
                flame_t,
                q / 1e3
            );
        }
    }
    println!(
        "\nradiation solves: {} (one per {} CFD steps)",
        coupler.solves(),
        coupler.interval
    );
}
