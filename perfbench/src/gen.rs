//! Seeded workload generators.
//!
//! Every request body, spec and pool parameter set that a timed loop
//! sends is built here from `--seed` before timing starts; the program
//! under test only ever receives the generated inputs. The same seed
//! gives a byte-identical op list (see [`encode`] and the tests below).

use rascad_obs::json::Value;
use rascad_spec::units::{Fit, Hours, Minutes};
use rascad_spec::{BlockParams, Diagram, GlobalParams, RedundancyParams, Scenario, SystemSpec};

use crate::pool_table;

/// The bundled example specs, stored by name at set-up.
pub const STORED_SPECS: [(&str, &str); 3] = [
    ("web_service", include_str!("../../specs/web_service.rascad")),
    ("edge_cache", include_str!("../../specs/edge_cache.rascad")),
    ("hierarchy", rascad_bench::workloads::HIERARCHY_DSL),
];

/// Tenants of `served_warm`; every tenant stores every spec.
pub const WARM_TENANTS: [&str; 3] = ["acme", "globex", "initech"];

/// Tenants of `served_cold`.
pub const COLD_TENANTS: [&str; 2] = ["ci-east", "ci-west"];

/// Distinct `served_warm` requests in the cycled op list.
const WARM_OPS: usize = 4096;

/// `served_cold` ops generated per run. Each inline solve is a distinct
/// spec, so a run must not exhaust the list (it cycles if it does, and
/// repeats would hit the cache).
const COLD_OPS: usize = 16384;

/// Mission time of every `served_cold` spec: a 30-day horizon keeps a
/// missed block's transient solve at a few milliseconds, so connect and
/// accept stay a visible share of the op.
const COLD_MISSION_HOURS: f64 = 720.0;

/// Stored-spec names a `served_cold` put cycles through per tenant,
/// well inside the default 64-spec quota.
const PUT_NAMES: usize = 32;

/// Stored `served_cold` specs swept by `mtbf`, with their swept blocks.
const SWEEP_TARGETS: [(&str, &str, f64); 4] = [
    ("web_service", "App Servers", 12_000.0),
    ("web_service", "Load Balancer", 120_000.0),
    ("edge_cache", "Cache Node", 8_000.0),
    ("edge_cache", "Uplink", 50_000.0),
];

/// Points in every `served_cold` sweep.
const SWEEP_POINTS: usize = 10;

/// Pool strata: `large_pool` draws one pool per stratum of the unit
/// range, so every seed covers the same spread of chain sizes.
const POOL_STRATA: usize = 16;

/// Pool unit range (inclusive).
pub const POOL_UNITS: (u32, u32) = (300, 800);

/// Pool MTBF grid: 10 000 h ± 10 % in 100 h steps.
pub const POOL_MTBF: (f64, f64, usize) = (9_000.0, 100.0, 21);

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Keep-alive solves of stored specs: every block a cache hit.
    ServedWarm,
    /// Connection-per-request mix of inline solves, sweeps and puts.
    ServedCold,
    /// In-process CLI-style solves of large k-out-of-n pools.
    LargePool,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "served_warm" => Some(Workload::ServedWarm),
            "served_cold" => Some(Workload::ServedCold),
            "large_pool" => Some(Workload::LargePool),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServedWarm => "served_warm",
            Workload::ServedCold => "served_cold",
            Workload::LargePool => "large_pool",
        }
    }
}

/// What an op asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/solve`, stored or inline spec.
    Solve,
    /// `POST /v1/sweep` over a stored spec.
    Sweep,
    /// `POST /v1/specs`.
    Put,
    /// One `rascad solve` of a pool spec (DSL text in `body`).
    Pool,
}

/// One generated operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    /// Ops with equal keys send identical requests and must get
    /// identical answers, so the checker verifies one answer per key.
    pub key: u32,
    /// JSON request body; the DSL text for [`Kind::Pool`].
    pub body: String,
}

impl Op {
    /// HTTP route of a served op.
    pub fn route(&self) -> &'static str {
        match self.kind {
            Kind::Solve => "/v1/solve",
            Kind::Sweep => "/v1/sweep",
            Kind::Put => "/v1/specs",
            Kind::Pool => "",
        }
    }

    /// The full HTTP/1.1 request a client sends for this op.
    pub fn http_request(&self, close: bool) -> Vec<u8> {
        let mut head = format!(
            "POST {} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            self.route(),
            self.body.len()
        );
        if close {
            head.push_str("Connection: close\r\n");
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Specs stored before the run (served workloads).
    pub puts: Vec<Op>,
    /// The op list the clients cycle through.
    pub ops: Vec<Op>,
}

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`, rounded to 3 significant decimals so the
    /// DSL text stays short.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        round3(lo + (hi - lo) * self.unit())
    }

    /// Log-uniform in `[lo, hi)`, rounded like [`Rng::uniform`].
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        round3((lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp())
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() as u64 - 1) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64) as usize);
        }
    }
}

fn round3(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let scale = 10f64.powi(2 - x.abs().log10().floor() as i32);
    (x * scale).round() / scale
}

fn json_obj(pairs: Vec<(&str, Value)>) -> String {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_string_compact()
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// Generates the inputs of `workload` for `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    match workload {
        Workload::ServedWarm => served_warm(&mut rng),
        Workload::ServedCold => served_cold(&mut rng),
        Workload::LargePool => Inputs { puts: Vec::new(), ops: large_pool(&mut rng) },
    }
}

fn put_op(tenant: &str, name: &str, dsl: &str, key: u32) -> Op {
    Op {
        kind: Kind::Put,
        key,
        body: json_obj(vec![("tenant", s(tenant)), ("name", s(name)), ("spec", s(dsl))]),
    }
}

fn stored_puts(tenants: &[&str], specs: &[(&str, String)]) -> Vec<Op> {
    let mut puts = Vec::new();
    for tenant in tenants {
        for (name, dsl) in specs {
            puts.push(put_op(tenant, name, dsl, puts.len() as u32));
        }
    }
    puts
}

fn cold_globals() -> GlobalParams {
    GlobalParams { mission_time: Hours(COLD_MISSION_HOURS), ..GlobalParams::default() }
}

fn served_warm(rng: &mut Rng) -> Inputs {
    let specs: Vec<(&str, String)> =
        STORED_SPECS.iter().map(|(n, d)| (*n, d.to_string())).collect();
    let puts = stored_puts(&WARM_TENANTS, &specs);
    let ops = (0..WARM_OPS)
        .map(|_| {
            let t = rng.range(0, WARM_TENANTS.len() as u64 - 1) as usize;
            let k = rng.range(0, STORED_SPECS.len() as u64 - 1) as usize;
            Op {
                kind: Kind::Solve,
                key: (t * STORED_SPECS.len() + k) as u32,
                body: json_obj(vec![
                    ("tenant", s(WARM_TENANTS[t])),
                    ("spec_name", s(STORED_SPECS[k].0)),
                ]),
            }
        })
        .collect();
    Inputs { puts, ops }
}

fn served_cold(rng: &mut Rng) -> Inputs {
    // The swept specs, stored at the cold mission time.
    let specs: Vec<(&str, String)> = STORED_SPECS[..2]
        .iter()
        .map(|(name, dsl)| {
            let mut spec = SystemSpec::from_dsl(dsl).expect("bundled spec parses");
            spec.globals.mission_time = Hours(COLD_MISSION_HOURS);
            (*name, spec.to_dsl())
        })
        .collect();
    let puts = stored_puts(&COLD_TENANTS, &specs);
    let mut ops = Vec::with_capacity(COLD_OPS);
    let mut put_counter = 0usize;
    while ops.len() < COLD_OPS {
        // Ten ops per round, in the fixed 6 : 2 : 2 ratio, seeded order.
        let mut round = [Kind::Solve; 10];
        round[6..8].fill(Kind::Sweep);
        round[8..].fill(Kind::Put);
        rng.shuffle(&mut round);
        for kind in round {
            let key = ops.len() as u32;
            let tenant = *rng.pick(&COLD_TENANTS);
            let body = match kind {
                Kind::Solve => {
                    let dsl = small_spec(rng, &format!("Cold {key}")).to_dsl();
                    json_obj(vec![("tenant", s(tenant)), ("spec", s(&dsl))])
                }
                Kind::Sweep => {
                    let (spec, block, base) = *rng.pick(&SWEEP_TARGETS);
                    let from = round3(base * rng.uniform(0.5, 1.0));
                    let to = round3(from * rng.uniform(2.0, 4.0));
                    json_obj(vec![
                        ("tenant", s(tenant)),
                        ("spec_name", s(spec)),
                        ("block", s(block)),
                        ("param", s("mtbf")),
                        ("from", Value::Num(from)),
                        ("to", Value::Num(to)),
                        ("points", Value::Int(SWEEP_POINTS as i64)),
                    ])
                }
                _ => {
                    let name = format!("put-{}", put_counter % PUT_NAMES);
                    put_counter += 1;
                    let dsl = small_spec(rng, &format!("Put {key}")).to_dsl();
                    json_obj(vec![("tenant", s(tenant)), ("name", s(&name)), ("spec", s(&dsl))])
                }
            };
            ops.push(Op { kind, key, body });
        }
    }
    ops.truncate(COLD_OPS);
    Inputs { puts, ops }
}

/// Most units a `served_cold` block gets: at and below this the
/// generator keeps the full Type 0–4 templates (no birth–death path).
const SMALL_MAX_UNITS: u32 = rascad_core::generator::birth_death::BIRTH_DEATH_MIN_UNITS;

/// A flat spec of 6–11 blocks, each with `N ≤ 8` and every parameter
/// drawn, so no two generated specs share a chain; 720 h mission.
fn small_spec(rng: &mut Rng, name: &str) -> SystemSpec {
    let mut d = Diagram::new(name);
    for i in 0..rng.range(6, 11) {
        d.push(small_block(rng, &format!("B{i}")));
    }
    SystemSpec::new(d, cold_globals())
}

fn scenario(rng: &mut Rng) -> Scenario {
    if rng.unit() < 0.5 {
        Scenario::Transparent
    } else {
        Scenario::Nontransparent
    }
}

fn small_block(rng: &mut Rng, name: &str) -> BlockParams {
    let n = rng.range(1, u64::from(SMALL_MAX_UNITS)) as u32;
    let k = rng.range(1, u64::from(n)) as u32;
    let fit = if rng.unit() < 0.5 { 0.0 } else { rng.log_uniform(100.0, 30_000.0) };
    let mut b = BlockParams::new(name, n, k)
        .with_mtbf(Hours(rng.log_uniform(5_000.0, 500_000.0)))
        .with_transient_fit(Fit(fit))
        .with_mttr_parts(
            Minutes(rng.uniform(5.0, 45.0)),
            Minutes(rng.uniform(10.0, 60.0)),
            Minutes(rng.uniform(5.0, 30.0)),
        )
        .with_service_response(Hours(rng.uniform(0.5, 8.0)))
        .with_p_correct_diagnosis(rng.uniform(0.9, 1.0).min(1.0));
    if n > k {
        let recovery = scenario(rng);
        let repair = scenario(rng);
        let nontransparent = |sc: Scenario, rng: &mut Rng| {
            if sc == Scenario::Nontransparent {
                Minutes(rng.uniform(1.0, 10.0))
            } else {
                Minutes(0.0)
            }
        };
        b = b.with_redundancy(RedundancyParams {
            p_latent_fault: rng.uniform(0.0, 0.05),
            mttdlf: Hours(rng.uniform(6.0, 48.0)),
            recovery,
            failover_time: nontransparent(recovery, rng),
            p_spf: rng.uniform(0.0, 0.01),
            spf_recovery_time: Minutes(rng.uniform(5.0, 30.0)),
            repair,
            reintegration_time: nontransparent(repair, rng),
        });
    }
    b
}

/// Bit-reversed stratum order: every prefix of the op list covers the
/// unit range evenly, so a run that ends mid-list is still balanced.
fn stratum_order() -> Vec<usize> {
    let bits = POOL_STRATA.trailing_zeros();
    (0..POOL_STRATA).map(|i| i.reverse_bits() >> (usize::BITS - bits)).collect()
}

/// One pool parameter set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolParams {
    pub units: u32,
    pub min_quantity: u32,
    pub mtbf: f64,
}

impl PoolParams {
    /// Draws units in `units` and MTBF from the grid; `min_quantity` is
    /// 1 when `one`, else 90 % of units.
    pub fn draw(rng: &mut Rng, units: (u32, u32), one: bool) -> PoolParams {
        let units = rng.range(u64::from(units.0), u64::from(units.1)) as u32;
        let min_quantity = if one { 1 } else { (f64::from(units) * 0.9).round() as u32 };
        let step = rng.range(0, POOL_MTBF.2 as u64 - 1) as f64;
        PoolParams { units, min_quantity, mtbf: POOL_MTBF.0 + POOL_MTBF.1 * step }
    }

    /// The spec `rascad solve` is given: the pool plus two small fixed
    /// blocks, at the default 8760 h mission time.
    pub fn spec(&self, name: &str) -> SystemSpec {
        let mut d = Diagram::new(name);
        d.push(BlockParams::new("Pool", self.units, self.min_quantity).with_mtbf(Hours(self.mtbf)));
        d.push(BlockParams::new("Head Node", 2, 1).with_mtbf(Hours(50_000.0)));
        d.push(BlockParams::new("Core Switch", 1, 1).with_mtbf(Hours(150_000.0)));
        SystemSpec::new(d, GlobalParams::default())
    }
}

/// The heaviest pool, pinned as the top stratum so the tail percentile
/// compares the same op across seeds: 800 units, `min_quantity` 1, and
/// the lowest grid MTBF the seed program solves.
fn anchor_pool() -> PoolParams {
    (0..POOL_MTBF.2)
        .map(|step| PoolParams {
            units: POOL_UNITS.1,
            min_quantity: 1,
            mtbf: POOL_MTBF.0 + POOL_MTBF.1 * step as f64,
        })
        .find(|p| pool_table::seed_solves(*p))
        .expect("the seed program solves some 800-unit pool")
}

/// One pool per stratum of the unit range. `min_quantity` is 1 on the
/// strata with bit 2 set and 90 % on the rest, which in bit-reversed
/// order alternates every two ops and splits both halves of the range
/// evenly. MTBF moves a pool's solve time by up to ~20 %, so it is not
/// drawn per seed: an evenly spaced ladder over the grid is dealt to
/// the strata in a fixed interleaved order. The seed draws the unit
/// count within each stratum.
fn large_pool(rng: &mut Rng) -> Vec<Op> {
    let (lo, hi) = POOL_UNITS;
    let width = (hi - lo + 1) as usize / POOL_STRATA;
    let rungs = POOL_STRATA - 1;
    let rung_mtbf = |j: usize| {
        let step = (j * (POOL_MTBF.2 - 1) + (rungs - 1) / 2) / (rungs - 1);
        POOL_MTBF.0 + POOL_MTBF.1 * step as f64
    };
    stratum_order()
        .into_iter()
        .enumerate()
        .map(|(i, stratum)| {
            let first = lo + (stratum * width) as u32;
            let last = if stratum + 1 == POOL_STRATA { hi } else { first + width as u32 - 1 };
            // Redraw inside the stratum until the parameter set is one
            // the seed program solves (see `pool_table`).
            let params = if stratum + 1 == POOL_STRATA {
                anchor_pool()
            } else {
                // The rung itself, or the nearest grid MTBF at which some
                // unit count of the stratum is solvable.
                let mtbf = (0..POOL_MTBF.2 as i32)
                    .flat_map(|d| [d, -d])
                    .map(|d| rung_mtbf(stratum * 7 % rungs) + POOL_MTBF.1 * f64::from(d))
                    .find(|&mtbf| {
                        (first..=last).any(|units| {
                            pool_table::seed_solves(PoolParams { units, min_quantity: 1, mtbf })
                        })
                    })
                    .expect("some stratum unit count is solvable");
                (0..10_000)
                    .map(|_| PoolParams {
                        mtbf,
                        ..PoolParams::draw(rng, (first, last), stratum & 4 != 0)
                    })
                    .find(|p| pool_table::seed_solves(*p))
                    .expect("a solvable unit count is drawn")
            };
            Op { kind: Kind::Pool, key: i as u32, body: params.spec(&format!("Pool {i}")).to_dsl() }
        })
        .collect()
}

/// Canonical bytes of a generated input set, for determinism checks.
#[cfg(test)]
pub fn encode(inputs: &Inputs) -> Vec<u8> {
    let mut out = Vec::new();
    for op in inputs.puts.iter().chain(&inputs.ops) {
        out.extend_from_slice(format!("{:?} {} {}\n", op.kind, op.key, op.body.len()).as_bytes());
        out.extend_from_slice(op.body.as_bytes());
        out.push(b'\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [Workload::ServedWarm, Workload::ServedCold, Workload::LargePool];

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in ALL {
            assert_eq!(encode(&generate(w, 7)), encode(&generate(w, 7)), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in ALL {
            assert_ne!(encode(&generate(w, 7)), encode(&generate(w, 8)), "{}", w.name());
        }
    }

    #[test]
    fn cold_blocks_stay_on_the_template_path() {
        let inputs = generate(Workload::ServedCold, 11);
        let mut checked = 0;
        for op in inputs.ops.iter().filter(|op| op.kind != Kind::Sweep).take(400) {
            let body = rascad_obs::json::parse(&op.body).expect("body is JSON");
            let dsl = body.get("spec").and_then(Value::as_str).expect("inline spec");
            let spec = SystemSpec::from_dsl(dsl).expect("generated DSL parses");
            assert!((6..=11).contains(&spec.root.total_blocks()));
            spec.root.walk(&mut |_, _, b| {
                assert!(b.params.quantity <= SMALL_MAX_UNITS, "{:?}", b.params);
                checked += 1;
            });
            spec.validate().expect("generated spec validates");
            assert!(!rascad_lint::lint_spec(&spec).has_errors(), "lint errors in {dsl}");
        }
        assert!(checked > 2000);
    }

    #[test]
    fn cold_mix_is_six_two_two() {
        let inputs = generate(Workload::ServedCold, 3);
        let count = |k| inputs.ops.iter().filter(|op| op.kind == k).count();
        let n = inputs.ops.len();
        assert_eq!(n, COLD_OPS);
        assert!((count(Kind::Solve) * 10).abs_diff(n * 6) <= 100);
        assert!((count(Kind::Sweep) * 10).abs_diff(n * 2) <= 100);
        assert!((count(Kind::Put) * 10).abs_diff(n * 2) <= 100);
    }

    #[test]
    fn every_seed_yields_table_approved_pools() {
        for seed in 0..2000 {
            for op in generate(Workload::LargePool, seed).ops {
                let p =
                    &SystemSpec::from_dsl(&op.body).expect("pool DSL parses").root.blocks[0].params;
                let params =
                    PoolParams { units: p.quantity, min_quantity: p.min_quantity, mtbf: p.mtbf.0 };
                assert!(pool_table::seed_solves(params), "seed {seed}: {params:?}");
            }
        }
    }

    #[test]
    fn pools_cover_every_stratum_once_without_repeats() {
        let inputs = generate(Workload::LargePool, 5);
        let mut units: Vec<u32> = inputs
            .ops
            .iter()
            .map(|op| {
                SystemSpec::from_dsl(&op.body).expect("pool DSL parses").root.blocks[0]
                    .params
                    .quantity
            })
            .collect();
        assert_eq!(units.len(), POOL_STRATA);
        // Bit-reversed order: the first half already spans the range.
        assert!(units[..POOL_STRATA / 2].iter().any(|&u| u < 400));
        assert!(units[..POOL_STRATA / 2].iter().any(|&u| u > 700));
        units.sort_unstable();
        units.dedup();
        assert_eq!(units.len(), POOL_STRATA);
        assert!(units.iter().all(|u| (POOL_UNITS.0..=POOL_UNITS.1).contains(u)));
    }
}
