//! Quickstart: describe a system in the engineering language, let the
//! Model Generator build and solve the availability models, and print
//! the report.
//!
//! Run with: `cargo run --example quickstart`

use rascad::core::{report, solve_spec};
use rascad::spec::units::{Fit, Hours, Minutes};
use rascad::spec::{BlockParams, Diagram, GlobalParams, RedundancyParams, Scenario, SystemSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small database server: one motherboard, a mirrored disk pair,
    // and an N+1 power supply trio. No Markov modeling knowledge
    // needed — just MTBFs, repair times, and redundancy scenarios.
    let mut diagram = Diagram::new("Database Server");

    diagram.push(
        BlockParams::new("Motherboard", 1, 1)
            .with_mtbf(Hours(150_000.0))
            .with_transient_fit(Fit(800.0))
            .with_mttr_parts(Minutes(30.0), Minutes(45.0), Minutes(20.0))
            .with_service_response(Hours(4.0))
            .with_p_correct_diagnosis(0.98),
    );

    diagram.push(
        BlockParams::new("Mirrored Disks", 2, 1)
            .with_mtbf(Hours(300_000.0))
            .with_mttr_parts(Minutes(15.0), Minutes(20.0), Minutes(30.0))
            .with_service_response(Hours(4.0))
            .with_redundancy(RedundancyParams {
                p_latent_fault: 0.02,
                mttdlf: Hours(24.0),
                recovery: Scenario::Transparent, // the mirror absorbs it
                failover_time: Minutes(0.0),
                p_spf: 0.005,
                spf_recovery_time: Minutes(20.0),
                repair: Scenario::Transparent, // hot-plug rebuild
                reintegration_time: Minutes(0.0),
            }),
    );

    diagram.push(
        BlockParams::new("Power Supplies", 3, 2)
            .with_mtbf(Hours(250_000.0))
            .with_mttr_parts(Minutes(10.0), Minutes(15.0), Minutes(5.0))
            .with_service_response(Hours(4.0)),
    );

    let spec = SystemSpec::new(diagram, GlobalParams::default());

    // The DSL form can be saved and shared.
    println!("--- specification (DSL) ---\n{}", spec.to_dsl());

    // Generate the Markov models and solve.
    let solution = solve_spec(&spec)?;
    println!("--- availability report ---");
    print!("{}", report::system_report("Database Server", &solution));

    // Individual block models are inspectable.
    let disks = solution.block("Database Server/Mirrored Disks").expect("block exists");
    println!(
        "\nThe disk pair generated a Type {} Markov model with {} states.",
        disks.model.model_type, disks.model.states
    );
    Ok(())
}
