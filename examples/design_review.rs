//! A full RAS design review, the workflow RAScad was built for:
//! compare two candidate architectures, attribute first-failure modes,
//! inspect the per-state dwell budget, quantify what each RAS mechanism
//! contributes (ablations), and check delivered capacity
//! (performability).
//!
//! Run with: `cargo run --example design_review`

use rascad::core::{
    ablate, compare_architectures, generator::generate_block, performability, report, solve_spec,
};
use rascad::library::{e10000, workgroup};
use rascad::markov::SteadyStateMethod;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let high_end = e10000::e10000();
    let low_end = workgroup::workgroup();

    // 1. Head-to-head comparison.
    let cmp = compare_architectures("workgroup", &low_end, "e10000", &high_end)?;
    println!("{cmp}\n");

    // 2. Where does the high-end machine's remaining downtime come
    //    from? First-failure attribution of its weakest block.
    let sol = solve_spec(&high_end)?;
    let mut worst = sol.blocks.clone();
    worst.sort_by(|a, b| {
        b.measures.yearly_downtime_minutes.total_cmp(&a.measures.yearly_downtime_minutes)
    });
    let weakest = &worst[0];
    println!(
        "weakest block: {} ({:.2} downtime min/yr)",
        weakest.path, weakest.measures.yearly_downtime_minutes
    );
    // A solution keeps each chain's shape, not the chain: regenerate the
    // weakest block's model for its failure modes.
    let (_, in_root) = weakest.path.split_once('/').expect("paths start at the root diagram");
    let block = high_end.root.find(in_root).expect("a solved block is in the spec");
    let weakest_model = generate_block(&block.params, &high_end.globals)?;
    for (mode, p) in rascad::core::measures::failure_mode_attribution(&weakest_model)? {
        println!("  first failure via {mode:<16} {:>6.2}%", p * 100.0);
    }

    // 3. The dwell budget of the cluster-style system boards.
    let boards = high_end.root.find("System Board").expect("block exists");
    let model = generate_block(&boards.params, &high_end.globals)?;
    println!("\n{}", report::block_dwell_report(&model)?);

    // 4. Mechanism ablations: what does each RAS feature buy?
    let base_dt = sol.system.yearly_downtime_minutes;
    println!("mechanism ablations on the e10000:");
    for (name, variant) in [
        ("perfect diagnosis", ablate::perfect_diagnosis(&high_end)),
        ("no latent faults", ablate::no_latent_faults(&high_end)),
        ("no transients", ablate::no_transients(&high_end)),
        ("perfect recovery", ablate::perfect_recovery(&high_end)),
        ("instant logistics", ablate::instant_logistics(&high_end)),
        ("redundancy stripped", ablate::strip_redundancy(&high_end)),
    ] {
        let dt = solve_spec(&variant)?.system.yearly_downtime_minutes;
        println!("  {name:<22} {dt:>10.2} min/yr ({:>6.1}% of baseline)", 100.0 * dt / base_dt);
    }

    // 5. Performability: availability counts a degraded domain as up;
    //    capacity-weighting shows the delivered-compute picture.
    let cpus = high_end.root.find("CPU Module").expect("block exists");
    let cpu_model = generate_block(&cpus.params, &high_end.globals)?;
    let perf = performability(&cpu_model, SteadyStateMethod::Gth)?;
    println!(
        "\nCPU complex: availability {:.9}, delivered capacity {:.9} ({:.2e} lost to degraded levels)",
        perf.availability, perf.steady_state_capacity, perf.degradation_loss
    );
    Ok(())
}
