//! The two transient kernels — the uniformization series and
//! nonnegative doubling — agree on every chain the Model Generator
//! builds, and each chain family runs the kernel its size calls for.
//! The series, which stores a pool's `P` by diagonal, is bit-identical
//! to the CSR scatter series it replaced, kept here as the reference
//! with the kernel's flush of the iterates' subnormal ends. Against the
//! same series without that flush, the answers and product counts are
//! bit-identical, and the truncation and every probability move by no
//! more than the flushed mass. On the same chains, the
//! band-elimination MTTF and failure modes agree with a dense LU solve
//! of `−Q_UU`.

use rascad::core::generator::{generate_block, BlockModel};
use rascad::library::{cluster, datacenter, e10000, workgroup};
use rascad::markov::absorbing::{self, make_absorbing};
use rascad::markov::dense::DenseMatrix;
use rascad::markov::transient::{
    kernel_for, solve, solve_grid, solve_with, uniformize, TransientKernel, TransientSolution,
};
use rascad::markov::{Ctmc, TransientOptions};
use rascad::spec::units::{Fit, Hours, Minutes};
use rascad::spec::{
    Block, BlockParams, Diagram, GlobalParams, RedundancyParams, Scenario, SystemSpec,
};
use rascad_obs::{Event, FieldValue, Sink};
use std::cell::Cell;
use std::sync::Once;

const HORIZONS: [f64; 2] = [720.0, 8760.0];
const SCENARIOS: [Scenario; 2] = [Scenario::Transparent, Scenario::Nontransparent];

fn template(n: u32, k: u32, recovery: Scenario, repair: Scenario) -> BlockParams {
    let p = BlockParams::new("X", n, k)
        .with_mtbf(Hours(20_000.0))
        .with_transient_fit(Fit(5_000.0))
        .with_mttr_parts(Minutes(30.0), Minutes(20.0), Minutes(10.0))
        .with_service_response(Hours(4.0))
        .with_p_correct_diagnosis(0.95);
    if n == k {
        return p;
    }
    p.with_redundancy(RedundancyParams {
        p_latent_fault: 0.05,
        mttdlf: Hours(24.0),
        recovery,
        failover_time: Minutes(6.0),
        p_spf: 0.02,
        spf_recovery_time: Minutes(12.0),
        repair,
        reintegration_time: Minutes(10.0),
    })
}

/// Every Type 0–4 template for `N <= 8`: all `K`, all scenario pairs.
fn templates() -> Vec<BlockModel> {
    let g = GlobalParams::default();
    let mut out = Vec::new();
    for n in 1..=8 {
        for k in 1..=n {
            for recovery in SCENARIOS {
                for repair in SCENARIOS {
                    out.push(generate_block(&template(n, k, recovery, repair), &g).unwrap());
                }
            }
        }
    }
    out
}

/// Largest gap between the two kernels over point, interval and every
/// state probability.
fn kernel_gap(chain: &Ctmc, t: f64) -> f64 {
    let mut p0 = vec![0.0; chain.len()];
    p0[0] = 1.0;
    let opts = TransientOptions::default();
    let s = solve_with(chain, &p0, t, opts, TransientKernel::Series).unwrap();
    let d = solve_with(chain, &p0, t, opts, TransientKernel::Doubling).unwrap();
    assert!(d.truncation <= opts.epsilon, "doubling truncation {}", d.truncation);
    s.probabilities
        .iter()
        .zip(&d.probabilities)
        .map(|(a, b)| (a - b).abs())
        .fold((s.point_reward - d.point_reward).abs(), f64::max)
        .max((s.interval_reward - d.interval_reward).abs())
}

fn assert_kernels_agree(what: &str, model: &BlockModel, horizons: &[f64]) {
    for &t in horizons {
        for (variant, chain) in
            [("availability", &model.chain), ("absorbing", &make_absorbing(&model.chain))]
        {
            let gap = kernel_gap(chain, t);
            assert!(
                gap < 1e-11,
                "{what} ({variant}, {} states) at {t} h: gap {gap:e}",
                chain.len()
            );
        }
    }
}

#[test]
fn kernels_agree_on_every_template() {
    for model in templates() {
        let what =
            format!("type {} N={} K={}", model.model_type, model.quantity, model.min_quantity);
        assert_kernels_agree(&what, &model, &HORIZONS);
    }
}

fn bundled_specs() -> Vec<(String, SystemSpec)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut specs: Vec<(String, SystemSpec)> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "rascad").then_some(p)
        })
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            (p.display().to_string(), SystemSpec::from_dsl(&text).unwrap())
        })
        .collect();
    assert!(!specs.is_empty());
    specs.extend([
        ("datacenter".to_string(), datacenter::data_center()),
        ("e10000".to_string(), e10000::e10000()),
        ("e10000 (no redundancy)".to_string(), e10000::e10000_no_redundancy()),
        ("workgroup".to_string(), workgroup::workgroup()),
        ("cluster".to_string(), cluster::two_node_cluster(cluster::ClusterConfig::default())),
    ]);
    specs
}

#[test]
fn kernels_agree_on_every_bundled_spec_and_library_model() {
    for (name, spec) in bundled_specs() {
        let mission = spec.globals.mission_time.0;
        spec.root.walk(&mut |_, path, block| {
            let model = generate_block(&block.params, &spec.globals).unwrap();
            assert_kernels_agree(&format!("{name}: {path}"), &model, &[720.0, mission]);
        });
    }
}

/// Availability chains only: an absorbing chain's rate comes from its up
/// states alone, so a rarely failing block's reliability solve is a
/// handful of series terms, which the selection rightly keeps.
#[test]
fn templates_take_doubling_and_large_pools_the_series() {
    for model in templates() {
        for t in HORIZONS {
            assert_eq!(
                kernel_for(&model.chain, t),
                TransientKernel::Doubling,
                "type {} N={} K={} ({} states) at {t} h",
                model.model_type,
                model.quantity,
                model.min_quantity,
                model.state_count()
            );
        }
    }
    let g = GlobalParams::default();
    for (n, k) in [(300, 270), (800, 720)] {
        let pool = BlockParams::new("Pool", n, k).with_mtbf(Hours(10_000.0));
        let model = generate_block(&pool, &g).unwrap();
        assert_eq!(model.state_count(), n as usize + 1);
        for t in HORIZONS {
            assert_eq!(kernel_for(&model.chain, t), TransientKernel::Series, "{n} units at {t} h");
        }
    }
}

/// Reference MTTF and failure modes from `start` by dense LU on
/// `−Q_UU`: `(−Q_UU) m = 1` and `(−Q_UU) b_d = q_{·d}` per down state,
/// with the LU's forward-error scale `ε · κ₁(−Q_UU)`.
fn dense_lu_reference(chain: &Ctmc, start: usize) -> (f64, Vec<(usize, f64)>, f64) {
    let up = chain.up_states();
    let mut pos = vec![usize::MAX; chain.len()];
    for (i, &s) in up.iter().enumerate() {
        pos[s] = i;
    }
    let mut a = DenseMatrix::zeros(up.len(), up.len());
    for t in chain.transitions() {
        let pf = pos[t.from];
        if pf == usize::MAX {
            continue;
        }
        a[(pf, pf)] += t.rate;
        if pos[t.to] != usize::MAX {
            a[(pf, pos[t.to])] -= t.rate;
        }
    }
    let mttf = a.solve(&vec![1.0; up.len()]).unwrap()[pos[start]];
    let modes = chain
        .down_states()
        .into_iter()
        .map(|d| {
            let mut b = vec![0.0; up.len()];
            for t in chain.transitions().iter().filter(|t| t.to == d && pos[t.from] != usize::MAX) {
                b[pos[t.from]] += t.rate;
            }
            (d, a.solve(&b).unwrap()[pos[start]])
        })
        .collect();
    (mttf, modes, f64::EPSILON * a.condest_1norm().unwrap())
}

fn assert_absorbing_matches_dense_lu(what: &str, model: &BlockModel) -> f64 {
    let chain = &model.chain;
    if chain.down_states().is_empty() {
        return 0.0;
    }
    let (want, want_modes, lu_error) = dense_lu_reference(chain, model.ok_state());
    let got = absorbing::mttf(chain, model.ok_state()).unwrap().mttf;
    let rel = (got - want).abs() / want;
    // Where −Q_UU is ill-conditioned the LU itself is off by up to
    // ε·κ₁; the exact value then decides (see below).
    assert!(
        rel <= lu_error.max(1e-10),
        "{what}: mttf {got:e} vs dense LU {want:e} ({rel:e}, LU error scale {lu_error:e})"
    );
    let modes = absorbing::failure_modes(chain, model.ok_state()).unwrap();
    for (d, want) in want_modes {
        let got = modes.iter().find(|m| m.0 == d).unwrap().1;
        assert!(
            (got - want).abs() <= lu_error.max(1e-10),
            "{what}: mode {d} {got:e} vs dense LU {want:e}"
        );
    }
    if lu_error > 1e-10 {
        return 0.0;
    }
    rel
}

#[test]
fn band_mttf_matches_dense_lu_on_every_template_spec_and_library_block() {
    let mut worst = 0.0f64;
    for model in templates() {
        let what =
            format!("type {} N={} K={}", model.model_type, model.quantity, model.min_quantity);
        worst = worst.max(assert_absorbing_matches_dense_lu(&what, &model));
    }
    for (name, spec) in bundled_specs() {
        spec.root.walk(&mut |_, path, block| {
            let model = generate_block(&block.params, &spec.globals).unwrap();
            worst =
                worst.max(assert_absorbing_matches_dense_lu(&format!("{name}: {path}"), &model));
        });
    }
    eprintln!("worst MTTF relative gap to dense LU where its error scale is <= 1e-10: {worst:.1e}");
}

#[test]
fn ill_conditioned_mttf_matches_its_exact_value() {
    // The E10000 CPU Module (64 units, 60 needed) is the one bundled
    // block whose −Q_UU defeats dense LU: ε·κ₁ ≈ 0.5, and the LU MTTF is
    // off by 8.6e-6 relative. Exact rational Gaussian elimination of
    // the generated chain's −Q_UU gives 3317467257125966.5 h (to f64).
    let spec = e10000::e10000();
    let mut checked = 0;
    spec.root.walk(&mut |_, path, block| {
        if path.ends_with("/CPU Module") {
            let model = generate_block(&block.params, &spec.globals).unwrap();
            let got = absorbing::mttf(&model.chain, model.ok_state()).unwrap().mttf;
            let exact = 3_317_467_257_125_966.5;
            assert!((got - exact).abs() / exact < 1e-13, "{got:e} vs {exact:e}");
            checked += 1;
        }
    });
    assert_eq!(checked, 1);
}

/// Poisson weights `w_k = e^{-m} m^k / k!` over the window `[lo, kmax]`
/// whose truncated mass is below `epsilon`: the series' own weights
/// (direct recurrence below `m = 400`, mode-centred and normalized
/// above).
#[allow(clippy::cast_precision_loss)] // term indices stay far below 2^52
fn poisson_window(m: f64, epsilon: f64) -> (usize, Vec<f64>) {
    if m <= 0.0 {
        return (0, vec![1.0]);
    }
    if m < 400.0 {
        let mut wk = (-m).exp();
        let (mut acc, mut w, mut k) = (wk, vec![wk], 1usize);
        while 1.0 - acc > epsilon {
            wk *= m / k as f64;
            w.push(wk);
            acc += wk;
            k += 1;
        }
        return (0, w);
    }
    let mode = m.floor() as usize;
    let spread = (6.0 * m.sqrt()).ceil() as usize + 40;
    let (lo, hi) = (mode.saturating_sub(spread), mode + spread);
    let mut w = vec![0.0; hi - lo + 1];
    w[mode - lo] = 1.0;
    for k in (mode + 1)..=hi {
        w[k - lo] = w[k - lo - 1] * m / k as f64;
    }
    for k in (lo..mode).rev() {
        w[k - lo] = w[k - lo + 1] * (k as f64 + 1.0) / m;
    }
    let total: f64 = w.iter().sum();
    for x in &mut w {
        *x /= total;
    }
    (lo, w)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// What a CSR reference series returns: the solution, the products it
/// ran and the mass its flush dropped (0 without the flush).
struct Reference {
    solution: TransientSolution,
    steps: usize,
    flushed: f64,
}

/// The kernel's end flush on a whole iterate: the entries below
/// `f64::MIN_POSITIVE` before the first and after the last one that is
/// not go to zero. Returns their sum, added from the front and then
/// from the back, in the kernel's order.
fn flush_ends(v: &mut [f64]) -> f64 {
    let (mut mass, mut head, mut end) = (0.0, 0, v.len());
    while head < end && v[head] < f64::MIN_POSITIVE {
        mass += v[head];
        v[head] = 0.0;
        head += 1;
    }
    while end > head && v[end - 1] < f64::MIN_POSITIVE {
        end -= 1;
        mass += v[end];
        v[end] = 0.0;
    }
    mass
}

/// The uniformization series as it ran on CSR: every term's scatter
/// product `vec_mul_into` over all states, then (with `flush`) the
/// kernel's end flush, and one pass over all states for the point and
/// cumulative accumulators and (with `stop`) the L1 stopping test.
/// With `flush` it is the reference the diagonal kernel must match bit
/// for bit, and its truncation adds the flushed mass; without, it is
/// the series before the flush. `solve_grid` runs without the stopping
/// test.
fn csr_series(chain: &Ctmc, p0: &[f64], t: f64, stop: bool, flush: bool) -> Reference {
    let opts = TransientOptions::default();
    let rewards = chain.rewards();
    let uni = uniformize(chain);
    let n = p0.len();
    let (lo, weights) = poisson_window(uni.rate * t, opts.epsilon);
    let kmax = lo + weights.len() - 1;
    let mut tail = vec![0.0; weights.len()];
    let mut below = 0.0;
    for (t, &w) in tail.iter_mut().zip(&weights).rev() {
        *t = below;
        below += w;
    }
    let mut tail2 = vec![0.0; weights.len() + 1];
    for i in (0..weights.len()).rev() {
        tail2[i] = tail2[i + 1] + tail[i];
    }
    let tail2_at = |k: usize| {
        if k >= lo {
            return tail2[k - lo];
        }
        let mut x = tail2[0];
        for _ in k..lo {
            x += below;
        }
        x
    };
    let (mut probs, mut next) = (p0.to_vec(), vec![0.0; n]);
    let (mut point_acc, mut cum_acc) = (vec![0.0; n], vec![0.0; n]);
    let (mut steps, mut flushed) = (0, 0.0);
    for k in 0..=kmax {
        let tail_k = if k < lo { below } else { tail[k - lo] };
        // Below the window the weight is zero, and adding `+0` to a
        // nonnegative sum leaves its bits.
        let w = if k >= lo { weights[k - lo] } else { 0.0 };
        if k < kmax {
            uni.dtmc.vec_mul_into(&probs, &mut next);
            if flush {
                flushed += flush_ends(&mut next);
            }
            steps += 1;
        }
        // Term `k` into both accumulators and, summed in index order,
        // the L1 distance to term `k + 1`, in one pass.
        let mut delta = 0.0;
        for i in 0..n {
            let p = probs[i];
            point_acc[i] += w * p;
            cum_acc[i] += tail_k * p;
            delta += (next[i] - p).abs();
        }
        if k < kmax {
            std::mem::swap(&mut probs, &mut next);
            if stop && delta < opts.epsilon * 1e-3 {
                let tail2_next = tail2_at(k + 1);
                for i in 0..n {
                    point_acc[i] += tail_k * probs[i];
                    cum_acc[i] += tail2_next * probs[i];
                }
                break;
            }
        }
    }
    let truncation = (1.0 - point_acc.iter().sum::<f64>()).max(0.0) + flushed;
    let cumulative = dot(&cum_acc, &rewards) / uni.rate;
    let mass: f64 = point_acc.iter().sum();
    if mass > 0.0 {
        for p in &mut point_acc {
            *p /= mass;
        }
    }
    let max_reward = rewards.iter().cloned().fold(0.0, f64::max);
    let solution = TransientSolution {
        time: t,
        point_reward: dot(&point_acc, &rewards),
        probabilities: point_acc,
        interval_reward: (cumulative / t).clamp(0.0, max_reward),
        truncation,
        kernel: TransientKernel::Series,
    };
    Reference { solution, steps, flushed }
}

/// What the last `markov.transient` span a thread closed recorded about
/// its series: the products it ran (the count
/// `markov.transient.vec_mul_steps` adds up) and the mass it flushed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SeriesSpan {
    steps: usize,
    flushed: f64,
}

thread_local! {
    static SERIES_SPAN: Cell<Option<SeriesSpan>> = const { Cell::new(None) };
}

/// Keeps each series span's `steps` and `flushed` on the thread that
/// closed it, so tests running side by side read only their own solves.
struct StepSink;

impl Sink for StepSink {
    fn event(&mut self, event: &Event) {
        if let Event::SpanEnd { name: "markov.transient", fields, .. } = event {
            let (mut steps, mut flushed) = (None, None);
            for (key, value) in fields {
                match (*key, value) {
                    ("steps", FieldValue::U64(v)) => steps = Some(*v as usize),
                    ("flushed", FieldValue::F64(v)) => flushed = Some(*v),
                    _ => {}
                }
            }
            if let (Some(steps), Some(flushed)) = (steps, flushed) {
                SERIES_SPAN.with(|c| c.set(Some(SeriesSpan { steps, flushed })));
            }
        }
    }
}

/// Runs one solve with telemetry on and returns its result with what
/// its series' span recorded (`None` when doubling ran instead).
fn with_series_span<T>(solve: impl FnOnce() -> T) -> (T, Option<SeriesSpan>) {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| rascad_obs::install(vec![Box::new(StepSink)]));
    SERIES_SPAN.with(|c| c.set(None));
    let out = solve();
    (out, SERIES_SPAN.with(Cell::take))
}

/// `got` and `want` as raw bits, every probability included.
fn assert_bit_identical(what: &str, got: &TransientSolution, want: &TransientSolution) {
    let bits = |s: &TransientSolution| {
        let mut v = vec![s.point_reward.to_bits(), s.interval_reward.to_bits()];
        v.push(s.truncation.to_bits());
        v.extend(s.probabilities.iter().map(|p| p.to_bits()));
        v
    };
    assert!(bits(got) == bits(want), "{what}: {got:?}\nvs the CSR series {want:?}");
}

/// One series solve from `p0` against both references: bit for bit,
/// with the product count and flushed mass its span records, against
/// the flushed CSR series from `p0`; and against the unflushed series
/// from `q0`, which `drift` bounds `p0` apart from in every entry: the
/// same product count, the truncation plus the flushed mass, and every
/// probability within `drift` plus that mass. Returns the unflushed
/// solution, the products and the drift after this solve.
fn assert_series_step(
    what: &str,
    chain: &Ctmc,
    (p0, q0, drift): (&[f64], &[f64], f64),
    got: &TransientSolution,
    span: Option<SeriesSpan>,
) -> (TransientSolution, usize, f64) {
    let want = csr_series(chain, p0, got.time, true, true);
    assert_bit_identical(what, got, &want.solution);
    let span = span.unwrap_or_else(|| panic!("{what}: no series span"));
    assert_eq!(span.steps, want.steps, "{what}: vec_mul_steps");
    assert_eq!(span.flushed.to_bits(), want.flushed.to_bits(), "{what}: flushed mass");
    // Nothing flushed from the same start: the unflushed series would
    // run the flushed one's very operations.
    let plain = if want.flushed == 0.0 && drift == 0.0 {
        want.solution
    } else {
        let plain = csr_series(chain, q0, got.time, true, false);
        assert_eq!(plain.steps, want.steps, "{what}: products against the unflushed series");
        plain.solution
    };
    let truncation = plain.truncation + want.flushed;
    if drift == 0.0 {
        assert_eq!(got.truncation.to_bits(), truncation.to_bits(), "{what}: truncation");
    } else {
        assert!((got.truncation - truncation).abs() <= drift, "{what}: truncation");
    }
    let drift = drift + want.flushed;
    for (i, (a, b)) in got.probabilities.iter().zip(&plain.probabilities).enumerate() {
        assert!(
            (a - b).abs() <= drift,
            "{what}: state {i} {a:e} vs {b:e} unflushed, drift {drift:e}"
        );
    }
    (plain, want.steps, drift)
}

/// One block's mission step on the kernel and both references:
/// interval and point from `Ok` to `t`, and the reliability pair
/// `R(t)`, `R(t + dt)` as `reliability_curve` computes it (the second
/// point from the first's distribution, on whichever kernel the library
/// selects for each gap; doubling is untouched, so only series gaps
/// take the references). Interval, point, `R(t)` and `R(t + dt)` are
/// bit-identical to the unflushed series'. Returns the series products
/// run.
fn assert_series_matches_csr(what: &str, model: &BlockModel, t: f64) -> usize {
    let chain = &model.chain;
    let mut p0 = vec![0.0; chain.len()];
    p0[model.ok_state()] = 1.0;
    let opts = TransientOptions::default();
    let (got, span) =
        with_series_span(|| solve_with(chain, &p0, t, opts, TransientKernel::Series).unwrap());
    let at_t = format!("{what} at {t} h");
    let (plain, mut products, _) = assert_series_step(&at_t, chain, (&p0, &p0, 0.0), &got, span);
    assert_eq!(got.point_reward.to_bits(), plain.point_reward.to_bits(), "{at_t}: point");
    assert_eq!(got.interval_reward.to_bits(), plain.interval_reward.to_bits(), "{at_t}: interval");
    if chain.down_states().is_empty() {
        return products;
    }
    let abs = make_absorbing(chain);
    let dt = (t * 1e-3).max(1e-6);
    let curve = absorbing::reliability_curve(chain, model.ok_state(), &[t, t + dt]).unwrap();
    let reliability =
        |p: &[f64]| abs.up_states().iter().map(|&s| p[s]).sum::<f64>().clamp(0.0, 1.0);
    // `p` runs on the kernel, `q` on the unflushed series.
    let (mut p, mut q, mut drift) = (p0.clone(), p0, 0.0);
    let mut at = 0.0;
    for (i, to) in [t, t + dt].into_iter().enumerate() {
        let gap = to - at;
        let (step, span) = with_series_span(|| solve(&abs, &p, gap, opts).unwrap());
        let plain = if step.kernel == TransientKernel::Series {
            let over = format!("{what}: R over ({at}, {to}) h");
            let (plain, steps, moved) =
                assert_series_step(&over, &abs, (&p, &q, drift), &step, span);
            products += steps;
            drift = moved;
            plain
        } else {
            solve(&abs, &q, gap, opts).unwrap()
        };
        p = step.probabilities;
        q = plain.probabilities;
        at = to;
        assert_eq!(curve.reliability[i].to_bits(), reliability(&p).to_bits(), "{what}: R");
        assert_eq!(
            reliability(&p).to_bits(),
            reliability(&q).to_bits(),
            "{what}: R against the unflushed series"
        );
    }
    products
}

/// Pools of 9–800 units, each `min_quantity` regime, at both horizons.
/// Pools past 100 units take `MTTM = 0` (the exact-lump regime): with
/// the default deferred service an 800-unit pool's series runs ~230k
/// products per solve, minutes in a debug build, against ~25–45k here
/// over the same three diagonals. There the series settles before
/// 720 h, so the 800-unit pools run at 8,760 h only: at 720 h they would
/// repeat the same products.
#[test]
fn series_matches_the_csr_reference_on_pools() {
    let mut products = 0;
    for n in [9u32, 40, 150, 800] {
        let mut g = GlobalParams::default();
        if n > 100 {
            g.mttm = Hours(0.0);
        }
        for k in [1, n / 2, n * 9 / 10, n - 1] {
            let pool = BlockParams::new("Pool", n, k).with_mtbf(Hours(9_000.0));
            let model = generate_block(&pool, &g).unwrap();
            for t in if n == 800 { &HORIZONS[1..] } else { &HORIZONS[..] } {
                products += assert_series_matches_csr(&format!("{n}/{k} pool"), &model, *t);
            }
        }
    }
    eprintln!(
        "pool census: {products} series products, each bit-identical to CSR, answers to the \
         unflushed series"
    );
}

#[test]
fn series_matches_the_csr_reference_on_every_template() {
    for model in templates() {
        let what =
            format!("type {} N={} K={}", model.model_type, model.quantity, model.min_quantity);
        assert_series_matches_csr(&what, &model, 720.0);
    }
}

#[test]
fn series_matches_the_csr_reference_on_every_bundled_spec_and_library_block() {
    for (name, spec) in bundled_specs() {
        let mission = spec.globals.mission_time.0;
        spec.root.walk(&mut |_, path, block| {
            let model = generate_block(&block.params, &spec.globals).unwrap();
            for t in [720.0, mission] {
                assert_series_matches_csr(&format!("{name}: {path}"), &model, t);
            }
        });
    }
}

/// `solve_grid` shares one series across its time points, with no
/// stopping test; every point matches the flushed CSR series run to
/// that time alone without one, and the unflushed series' point,
/// interval and truncation plus the flushed mass. The hierarchy nests a pool (diagonal storage)
/// beside template blocks (CSR).
#[test]
fn grid_matches_the_csr_reference_on_a_hierarchy() {
    let mut rack = Diagram::new("Rack");
    rack.push(BlockParams::new("Pool", 120, 108).with_mtbf(Hours(9_000.0)));
    rack.push(template(2, 1, Scenario::Nontransparent, Scenario::Transparent));
    let mut root = Diagram::new("Sys");
    root.push_block(Block::with_subdiagram(template(1, 1, SCENARIOS[0], SCENARIOS[0]), rack));
    let spec = SystemSpec::new(root, GlobalParams::default());
    let times = [0.5, 24.0, 720.0];
    let mut storages = 0;
    spec.root.walk(&mut |_, path, block| {
        let model = generate_block(&block.params, &spec.globals).unwrap();
        let mut p0 = vec![0.0; model.chain.len()];
        p0[model.ok_state()] = 1.0;
        let grid = solve_grid(&model.chain, &p0, &times, TransientOptions::default()).unwrap();
        for (got, &t) in grid.iter().zip(&times) {
            let want = csr_series(&model.chain, &p0, t, false, true);
            let plain = csr_series(&model.chain, &p0, t, false, false).solution;
            let what = format!("{path} grid at {t} h");
            for want in [&want.solution, &plain] {
                assert_eq!(got.point_reward.to_bits(), want.point_reward.to_bits(), "{what}");
                assert_eq!(got.interval_reward.to_bits(), want.interval_reward.to_bits(), "{what}");
            }
            assert_eq!(got.truncation.to_bits(), want.solution.truncation.to_bits(), "{what}");
            let truncation = plain.truncation + want.flushed;
            assert_eq!(got.truncation.to_bits(), truncation.to_bits(), "{what}: unflushed");
        }
        storages += 1;
    });
    assert_eq!(storages, 3);
}
