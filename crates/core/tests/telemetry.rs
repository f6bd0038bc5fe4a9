//! Telemetry non-interference: turning the full observability stack on
//! (subscriber with sinks, labeled metrics, flight recorder) must not
//! change a single bit of any solve result.
//!
//! Numeric identity — not approximate closeness — is the contract: the
//! instrumentation only *observes* (clock reads, counter bumps); it
//! never reorders work or feeds values back into the solvers.

use rascad_core::{Engine, SystemSolution};
use rascad_markov::SteadyStateMethod;
use rascad_obs::{Event, Sink};
use rascad_spec::units::Hours;
use rascad_spec::{Block, BlockParams, Diagram, GlobalParams, SystemSpec};

/// A sink that counts events without retaining them, keeping the
/// instrumented run realistic but cheap.
struct CountSink(u64);

impl Sink for CountSink {
    fn event(&mut self, _: &Event) {
        self.0 += 1;
    }
}

fn spec() -> SystemSpec {
    let mut sub = Diagram::new("Internals");
    sub.push(BlockParams::new("CPU", 4, 2).with_mtbf(Hours(60_000.0)));
    sub.push(BlockParams::new("RAM", 8, 7).with_mtbf(Hours(120_000.0)));
    let mut root = Diagram::new("Sys");
    root.push(BlockParams::new("PSU", 2, 1).with_mtbf(Hours(30_000.0)));
    root.push_block(Block::with_subdiagram(
        BlockParams::new("Board", 1, 1).with_mtbf(Hours(1_000_000.0)),
        sub,
    ));
    SystemSpec::new(root, GlobalParams::default())
}

fn assert_bit_identical(a: &SystemSolution, b: &SystemSolution) {
    // Every measure is an f64; compare raw bits, not with a tolerance.
    let (sa, sb) = (&a.system, &b.system);
    for (x, y) in [
        (sa.availability, sb.availability),
        (sa.unavailability, sb.unavailability),
        (sa.failure_rate, sb.failure_rate),
        (sa.mtbf_hours, sb.mtbf_hours),
        (sa.mttf_hours, sb.mttf_hours),
        (sa.interval_availability, sb.interval_availability),
        (sa.reliability_at_mission, sb.reliability_at_mission),
        (sa.yearly_downtime_minutes, sb.yearly_downtime_minutes),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "system measure diverged: {x} vs {y}");
    }
    assert_eq!(a.blocks.len(), b.blocks.len());
    for (ba, bb) in a.blocks.iter().zip(&b.blocks) {
        assert_eq!(ba.path, bb.path);
        assert_eq!(ba.measures, bb.measures, "block {} diverged", ba.path);
        // Shape and chain fingerprint: the same generated chain.
        assert_eq!(ba.model, bb.model, "model summary {} diverged", ba.path);
        // Certificate equality is bit-based (f64::to_bits), so this
        // pins the certificates too, not just the measures.
        assert_eq!(ba.certificate, bb.certificate, "certificate {} diverged", ba.path);
    }
}

#[test]
fn solve_results_are_bit_identical_with_telemetry_on_and_off() {
    let s = spec();
    for method in [SteadyStateMethod::Gth, SteadyStateMethod::Lu] {
        for threads in [1usize, 4] {
            let engine = Engine::with_threads(threads);
            let quiet = engine.solve_spec_with(&s, method).unwrap();

            rascad_obs::flight::arm();
            rascad_obs::trace::arm();
            rascad_obs::install(vec![Box::new(CountSink(0))]);
            let observed = engine.solve_spec_with(&s, method).unwrap();
            rascad_obs::drain();
            rascad_obs::uninstall();
            rascad_obs::trace::disarm();
            rascad_obs::flight::disarm();

            assert_bit_identical(&quiet, &observed);

            // And symmetric: a quiet run after telemetry matches too.
            let quiet_again = engine.solve_spec_with(&s, method).unwrap();
            assert_bit_identical(&observed, &quiet_again);
        }
    }
}
