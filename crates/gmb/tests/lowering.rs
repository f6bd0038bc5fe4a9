//! GMB's RBD models are lowered onto `rascad_rbd::Rbd` and evaluated
//! by `Rbd::availability`. These tests pin that lowering to the
//! recursive series/parallel/k-of-n arithmetic GMB used to run itself:
//! the same bits on random trees, and the same typed errors on
//! malformed ones.
//!
//! The random trees come from a seeded SplitMix64 stream, so every run
//! checks the same cases and a failure names the seed that reproduces
//! it.

use rascad_gmb::{GmbError, MarkovSpec, ModelRegistry, RbdSpec, Value};
use rascad_rbd::block::k_of_n_probability;
use rascad_rbd::RbdError;

const CASES: u64 = 256;

/// SplitMix64: a seeded stream of `u64`s.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform draw from `[0, 1)`: 52 random mantissa bits on `[1, 2)`.
    fn unit(&mut self) -> f64 {
        f64::from_bits(0x3ff0_0000_0000_0000 | self.next() >> 12) - 1.0
    }
}

fn two_state_markov(lambda: f64, mu: f64) -> MarkovSpec {
    let mut m = MarkovSpec::new();
    let up = m.state("up", 1.0);
    let down = m.state("down", 0.0);
    m.transition(up, down, lambda);
    m.transition(down, up, mu);
    m
}

/// A random leaf: a constant (0 and 1 included), one of three
/// parameters, or one of two Markov submodels, which many leaves name.
fn arb_leaf(rng: &mut Rng) -> RbdSpec {
    RbdSpec::leaf(match rng.below(6) {
        0 => Value::constant([0.0, 1.0][rng.below(2) as usize]),
        1 => Value::constant(rng.unit()),
        2 => Value::param(format!("p{}", rng.below(3))),
        _ => Value::model(format!("m{}", rng.below(2))),
    })
}

/// A random series/parallel/k-of-n tree, at most `depth` gates deep.
fn arb_tree(rng: &mut Rng, depth: u32) -> RbdSpec {
    if depth == 0 || rng.below(4) == 0 {
        return arb_leaf(rng);
    }
    let children: Vec<RbdSpec> = (0..1 + rng.below(4)).map(|_| arb_tree(rng, depth - 1)).collect();
    match rng.below(3) {
        0 => RbdSpec::series(children),
        1 => RbdSpec::parallel(children),
        _ => RbdSpec::k_of_n(1 + rng.below(children.len() as u64) as u32, children),
    }
}

/// The arithmetic GMB evaluated its RBDs with before the lowering:
/// every leaf independent, series as a running product from 1, parallel
/// as one minus the running product of unavailabilities, k-of-n by
/// `k_of_n_probability`.
fn recursive_availability(reg: &ModelRegistry, spec: &RbdSpec) -> f64 {
    match spec {
        RbdSpec::Leaf(Value::Const(c)) => *c,
        RbdSpec::Leaf(Value::Param(p)) => reg.parameter(p).unwrap(),
        RbdSpec::Leaf(Value::Model(m)) => reg.availability(m).unwrap(),
        RbdSpec::Series(ch) => {
            let mut a = 1.0;
            for c in ch {
                a *= recursive_availability(reg, c);
            }
            a
        }
        RbdSpec::Parallel(ch) => {
            let mut u = 1.0;
            for c in ch {
                u *= 1.0 - recursive_availability(reg, c);
            }
            1.0 - u
        }
        RbdSpec::KOfN { k, children } => {
            let probs: Vec<f64> = children.iter().map(|c| recursive_availability(reg, c)).collect();
            k_of_n_probability(*k as usize, &probs)
        }
    }
}

/// The lowered evaluation is bit-identical to the recursive arithmetic,
/// with submodels named many times counted as independent instances.
#[test]
fn lowering_is_bit_identical_to_recursive_arithmetic() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let mut reg = ModelRegistry::new();
        for p in 0..3 {
            reg.set_parameter(format!("p{p}"), rng.unit());
        }
        for m in 0..2 {
            let lambda = 1e-4 + rng.unit() * 1e-2;
            let mu = 0.05 + rng.unit();
            reg.add_markov(format!("m{m}"), two_state_markov(lambda, mu)).unwrap();
        }
        let spec = arb_tree(&mut rng, 3);
        reg.add_rbd("top", spec.clone()).unwrap();
        let got = reg.availability("top").unwrap();
        let want = recursive_availability(&reg, &spec);
        assert_eq!(got.to_bits(), want.to_bits(), "seed {seed}: {got} vs {want}");
    }
}

/// Malformed trees fail typed with the `RbdError` that names the
/// fault; a dangling reference is reported before a malformed gate,
/// because leaves resolve before the tree is validated.
#[test]
fn malformed_trees_fail_typed() {
    let leaf = |a: f64| RbdSpec::leaf(Value::constant(a));
    let invalid = RbdError::InvalidProbability { what: String::new() };
    let cases = [
        ("empty series", RbdSpec::series(vec![]), RbdError::EmptyGate),
        ("empty parallel", RbdSpec::parallel(vec![]), RbdError::EmptyGate),
        ("empty k-of-n", RbdSpec::k_of_n(1, vec![]), RbdError::EmptyGate),
        (
            "nested empty gate",
            RbdSpec::series(vec![leaf(0.9), RbdSpec::parallel(vec![])]),
            RbdError::EmptyGate,
        ),
        ("k = 0", RbdSpec::k_of_n(0, vec![leaf(0.9)]), RbdError::InvalidKofN { k: 0, n: 1 }),
        (
            "k > n",
            RbdSpec::k_of_n(3, vec![leaf(0.9), leaf(0.8)]),
            RbdError::InvalidKofN { k: 3, n: 2 },
        ),
        ("leaf above 1", leaf(1.5), invalid.clone()),
        ("leaf below 0", RbdSpec::parallel(vec![leaf(0.5), leaf(-0.1)]), invalid.clone()),
        ("NaN leaf", leaf(f64::NAN), invalid),
    ];
    for (what, spec, expected) in cases {
        let mut reg = ModelRegistry::new();
        reg.add_rbd("r", spec).unwrap();
        match reg.availability("r") {
            Err(GmbError::Rbd { model, source }) => {
                assert_eq!(model, "r", "{what}");
                // The probability message names the leaf; match its kind.
                match expected {
                    RbdError::InvalidProbability { .. } => {
                        assert!(
                            matches!(source, RbdError::InvalidProbability { .. }),
                            "{what}: {source:?}"
                        );
                    }
                    expected => assert_eq!(source, expected, "{what}"),
                }
            }
            other => panic!("{what}: expected an RBD error, got {other:?}"),
        }
    }

    let mut reg = ModelRegistry::new();
    reg.add_rbd(
        "r",
        RbdSpec::series(vec![RbdSpec::parallel(vec![]), RbdSpec::leaf(Value::model("ghost"))]),
    )
    .unwrap();
    assert!(matches!(reg.availability("r"), Err(GmbError::UnknownModel { .. })));
}
