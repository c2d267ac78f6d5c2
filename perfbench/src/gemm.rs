//! The two GEMM workloads: `gemm_serial` (one thread, clean) and
//! `gemm_parallel_faulty` (every core, one injected error per worker
//! stream and call).
//!
//! Parallel work goes only through `Exec::Serial` or
//! `Exec::Parallel(&ctx)` with a context this module owns and calls from
//! one thread: `ThreadPool::run` is not re-entrant across callers, and the
//! pool hidden behind `Exec::Auto` is not part of the measured surface.

use crate::check::{check_report, Projection, Tally};
use crate::report::Report;
use crate::stats::{describe_overhead, median, paired_overhead_pct, percentile, spread_pct, Rng};
use crate::trace::Tracer;
use crate::RunCfg;
use ftgemm::abft::{checksum, corrector, CorrectionOutcome};
use ftgemm::core::{macro_kernel::macro_kernel, pack, CacheInfo, GemmContext};
use ftgemm::faults::{ErrorModel, Rate};
use ftgemm::{
    Exec, FaultInjector, FtConfig, FtPolicy, FtReport, GemmOp, GemmPlan, MatMut, Matrix,
    ParGemmContext,
};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl Shape {
    fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }
}

/// Shape templates jittered by the seed. Fixed templates keep the cost of
/// a run the same across seeds; the jitter still moves every edge off the
/// blocking grid. Each operand of every shape is at least 2 MiB, so no
/// shape fits the 2 MiB/core L2 the blocking targets.
fn jittered(templates: &[(usize, usize, usize)], lo: usize, hi: usize, seed: u64) -> Vec<Shape> {
    let mut rng = Rng::new(seed ^ 0x5A17);
    let mut jit = |x: usize| (x + rng.range(0, 64)).saturating_sub(32).clamp(lo, hi);
    let mut shapes: Vec<Shape> = templates
        .iter()
        .map(|&(m, n, k)| Shape {
            m: jit(m),
            n: jit(n),
            k: jit(k),
        })
        .collect();
    // One shape is odd in every dimension: a multiple of no mr, nr, mc, kc.
    let s = &mut shapes[0];
    (s.m, s.n, s.k) = (s.m | 1, s.n | 1, s.k | 1);
    shapes
}

pub fn serial_shapes(seed: u64) -> Vec<Shape> {
    jittered(
        &[
            (1000, 1000, 1000),
            (2016, 544, 1024),
            (544, 2016, 768),
            (1536, 1536, 544),
            (768, 1280, 1792),
            (1280, 768, 1280),
        ],
        512,
        2048,
        seed,
    )
}

/// Mid shapes, where region and barrier cost is a visible share.
pub fn parallel_shapes(seed: u64) -> Vec<Shape> {
    jittered(
        &[
            (700, 700, 700),
            (416, 1024, 1024),
            (1504, 512, 768),
            (1024, 1024, 416),
            (768, 1280, 1024),
            (1280, 768, 1504),
        ],
        384,
        1536,
        seed,
    )
}

/// One problem: operands and the reference projections of `A*B`. Plans
/// borrow the operands, so the output buffers live apart ([`outputs`]).
pub struct Case {
    pub shape: Shape,
    pub a: Matrix<f64>,
    pub b: Matrix<f64>,
    pub proj: Projection,
}

/// One output buffer per case, written by every variant in turn.
pub fn outputs(cases: &[Case]) -> Vec<Matrix<f64>> {
    cases
        .iter()
        .map(|c| Matrix::zeros(c.shape.m, c.shape.n))
        .collect()
}

/// Input generation (not part of `setup_s`).
pub fn make_cases(shapes: &[Shape], seed: u64) -> Vec<Case> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &shape)| {
            let s = seed.wrapping_mul(1000).wrapping_add(10 * i as u64);
            let a = Matrix::<f64>::random(shape.m, shape.k, s + 1);
            let b = Matrix::<f64>::random(shape.k, shape.n, s + 2);
            let proj = Projection::new(&a, &b, s + 3);
            Case { shape, a, b, proj }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Variant {
    Off,
    Detect,
    DetectCorrect,
    Unfused,
}

fn plan<'a>(
    case: &'a Case,
    v: Variant,
    exec: Exec<'_, f64>,
    injector: Option<&FaultInjector>,
) -> GemmPlan<'a, f64> {
    let op = GemmOp::new(&case.a, &case.b);
    let op = match v {
        Variant::Off => op.ft(FtPolicy::Off),
        Variant::Detect => op.ft(FtPolicy::Detect),
        Variant::DetectCorrect => op.ft(FtPolicy::DetectCorrect),
        Variant::Unfused => op.ft_config(FtConfig::unfused()),
    };
    let op = match injector {
        Some(inj) => op.injector(inj.clone()),
        None => op,
    };
    op.plan(exec).expect("benchmark shapes are consistent")
}

/// Plans for every case and variant, timed. Returns the plans (indexed
/// `[case][variant]`) and each `GemmOp::plan` time in seconds.
fn plan_all<'a>(
    cases: &'a [Case],
    variants: &[Variant],
    exec: Exec<'_, f64>,
    injector: Option<&FaultInjector>,
) -> (Vec<Vec<GemmPlan<'a, f64>>>, Vec<f64>) {
    let mut times = Vec::new();
    let plans = cases
        .iter()
        .map(|case| {
            variants
                .iter()
                .map(|&v| {
                    // Only protected plans carry the injector.
                    let inj = injector.filter(|_| v != Variant::Off);
                    let t = Instant::now();
                    let p = plan(case, v, exec, inj);
                    times.push(t.elapsed().as_secs_f64());
                    p
                })
                .collect()
        })
        .collect();
    (plans, times)
}

/// One timed `GemmPlan::run` into the case's output, checked afterwards.
fn run_checked(
    plan: &mut GemmPlan<'_, f64>,
    case: &Case,
    c: &mut Matrix<f64>,
    tracer: &mut Tracer,
    req: u64,
    tally: &mut Tally,
    reports: &mut FtReport,
) -> f64 {
    let open = tracer.enter("api.run", req);
    let t = Instant::now();
    let result = plan.run(&mut c.as_mut());
    let secs = t.elapsed().as_secs_f64();
    tracer.exit(open);
    let outcome = match result {
        Ok(r) => {
            reports.absorb(r);
            check_report(&r).and_then(|()| case.proj.check(&c.as_ref()))
        }
        Err(e) => Err(format!(
            "{}x{}x{}: {e}",
            case.shape.m, case.shape.n, case.shape.k
        )),
    };
    tally.record(outcome);
    secs
}

/// Per-call times of each variant, `[variant][call]`, calls of one round
/// and shape taken back to back so pairs cancel drift.
struct Timings {
    secs: Vec<Vec<f64>>,
    rates: Vec<Vec<f64>>,
    elapsed: f64,
    reports: Vec<FtReport>,
}

/// Rounds over every case, each variant once per case per round, until
/// `budget` has passed (at least one full round).
fn rounds(
    cases: &[Case],
    outs: &mut [Matrix<f64>],
    plans: &mut [Vec<GemmPlan<'_, f64>>],
    budget: Duration,
    tracer: &mut Tracer,
    tally: &mut Tally,
    mut between: impl FnMut(usize, &mut Matrix<f64>, &mut Tracer, &mut Tally),
) -> Timings {
    let nv = plans[0].len();
    let mut t = Timings {
        secs: vec![Vec::new(); nv],
        rates: vec![Vec::new(); nv],
        elapsed: 0.0,
        reports: vec![FtReport::default(); nv],
    };
    let start = Instant::now();
    let mut req = 0;
    loop {
        for (i, (case, c)) in cases.iter().zip(outs.iter_mut()).enumerate() {
            for (v, plan) in plans[i].iter_mut().enumerate() {
                let secs = run_checked(plan, case, c, tracer, req, tally, &mut t.reports[v]);
                req += 1;
                t.secs[v].push(secs);
                t.rates[v].push(case.shape.flops() / secs / 1e9);
            }
            between(i, c, tracer, tally);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    t.elapsed = start.elapsed().as_secs_f64();
    t
}

/// The end-to-end metrics every GEMM workload reports from its untraced
/// rounds; variant 0 is `Off` and variant 1 `DetectCorrect`.
/// The end-to-end metrics every GEMM workload reports from its untraced
/// rounds; variant 0 is `Off` and variant 1 `DetectCorrect`. A request is
/// one GEMM call.
fn end_to_end(r: &mut Report, t: &Timings) {
    let all: Vec<f64> = t.secs.iter().flatten().map(|s| s * 1e3).collect();
    r.e2e("gflops_off", median(&t.rates[0]), "GFLOP/s");
    r.e2e("gflops_ft", median(&t.rates[1]), "GFLOP/s");
    r.e2e("rps", all.len() as f64 / t.elapsed, "req/s");
    let (p50, p99) = (median(&all), percentile(&all, 99.0));
    r.layer("latency.p50_ms", p50, "ms");
    r.layer("latency.p99_ms", p99, "ms");
    r.note(format!(
        "{} GEMM calls; call time p50 {p50:.3} ms, p99 {p99:.3} ms",
        all.len()
    ));
}

/// Times `reps` set-ups and keeps the last; `setup_s` is their median.
fn repeated_setup<S>(reps: usize, mut setup: impl FnMut() -> (S, f64)) -> (S, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        // The previous set-up is torn down first, so one is alive at a time.
        drop(last.take());
        let (s, t) = setup();
        times.push(t);
        last = Some(s);
    }
    (last.expect("at least one set-up"), median(&times))
}

const SETUP_REPS: usize = 5;

pub fn gemm_serial(cfg: &RunCfg) -> Report {
    let mut r = Report::default();
    let cases = make_cases(&serial_shapes(cfg.seed), cfg.seed);
    for c in &cases {
        r.note(format!("shape {}x{}x{}", c.shape.m, c.shape.n, c.shape.k));
    }
    let mut outs = outputs(&cases);
    let mut plan_ms = Vec::new();
    let (mut plans, setup_s) = repeated_setup(SETUP_REPS, || {
        let t = Instant::now();
        let (plans, times) = plan_all(&cases, &MAIN, Exec::Serial, None);
        plan_ms.extend(times.iter().map(|s| s * 1e3));
        (plans, t.elapsed().as_secs_f64())
    });
    r.e2e("setup_s", setup_s, "s");
    r.layer("api.plan_ms", median(&plan_ms), "ms");

    let mut tally = Tally::default();
    let budget = if cfg.trace { 0.4 } else { 1.0 } * cfg.seconds;
    let untraced = rounds(
        &cases,
        &mut outs,
        &mut plans,
        Duration::from_secs_f64(budget),
        &mut Tracer::new(false),
        &mut tally,
        |_, _, _, _| {},
    );
    drop(plans);
    end_to_end(&mut r, &untraced);
    let (ovh, iqr) = paired_overhead_pct(&untraced.secs[0], &untraced.secs[1]);
    r.note(format!(
        "DetectCorrect vs Off: {}",
        describe_overhead(ovh, iqr)
    ));

    if cfg.trace {
        traced_serial(cfg, &mut r, &cases, &mut outs, &untraced, &mut tally);
    }
    r.tally = tally;
    r
}

/// The variants every GEMM workload times: `Off` and the default policy.
const MAIN: [Variant; 2] = [Variant::Off, Variant::DetectCorrect];

/// The traced part of `gemm_serial`: four policies per shape, spans
/// around each call, and a replay of the driver's phases per shape.
fn traced_serial(
    cfg: &RunCfg,
    r: &mut Report,
    cases: &[Case],
    outs: &mut [Matrix<f64>],
    untraced: &Timings,
    tally: &mut Tally,
) {
    let variants = [
        Variant::Off,
        Variant::Detect,
        Variant::DetectCorrect,
        Variant::Unfused,
    ];
    let (mut plans, _) = plan_all(cases, &variants, Exec::Serial, None);
    let mut tracer = Tracer::new(true);
    let mut replay_ctx = GemmContext::<f64>::new();
    let mut replayed = ReplayTotals::default();
    let t = rounds(
        cases,
        outs,
        &mut plans,
        Duration::from_secs_f64(0.6 * cfg.seconds),
        &mut tracer,
        tally,
        |i, c, tracer, tally| {
            let got = replay(&mut replay_ctx, &cases[i], c, tracer, None, i as u64);
            tally.record(got.map(|s| replayed.add(s)));
        },
    );
    drop(plans);

    let (det, det_iqr) = paired_overhead_pct(&t.secs[0], &t.secs[1]);
    let (ckpt, ckpt_iqr) = paired_overhead_pct(&t.secs[1], &t.secs[2]);
    let (unf, unf_iqr) = paired_overhead_pct(&t.secs[0], &t.secs[3]);
    r.layer("abft.detect_overhead_pct", det, "%");
    r.layer("abft.checkpoint_overhead_pct", ckpt, "%");
    r.layer("abft.unfused_overhead_pct", unf, "%");
    r.note(format!(
        "yardstick: fused Detect vs Off {} (paper: 1.17-3.58 % serial)",
        describe_overhead(det, det_iqr)
    ));
    r.note(format!(
        "yardstick: unfused ABFT vs Off {} (paper: about 15 %)",
        describe_overhead(unf, unf_iqr)
    ));
    r.note(format!(
        "DetectCorrect vs Detect (panel checkpoint): {}",
        describe_overhead(ckpt, ckpt_iqr)
    ));
    r.tracing_overhead(
        median(&untraced.rates[0]),
        median(&t.rates[0]),
        spread_pct(&untraced.rates[0]),
    );
    replay_metrics(r, &tracer, &replayed);
    r.spans = Some(tracer);
}

/// One error per worker stream per FT call, with distinct deltas so
/// simultaneous errors stay distinguishable to the checksums.
fn injector(seed: u64) -> FaultInjector {
    FaultInjector::new(
        seed,
        ErrorModel::Additive { magnitude: 1.0e6 },
        Rate::Count(1),
    )
}

pub fn gemm_parallel_faulty(cfg: &RunCfg) -> Report {
    let mut r = Report::default();
    let cases = make_cases(&parallel_shapes(cfg.seed), cfg.seed);
    for c in &cases {
        r.note(format!("shape {}x{}x{}", c.shape.m, c.shape.n, c.shape.k));
    }
    let mut outs = outputs(&cases);
    let inj = injector(cfg.seed);
    let mut plan_ms = Vec::new();
    let ((ctx, mut plans), setup_s) = repeated_setup(SETUP_REPS, || {
        let t = Instant::now();
        let ctx = ParGemmContext::<f64>::with_threads(cfg.nproc);
        let (plans, times) = plan_all(&cases, &MAIN, Exec::Parallel(&ctx), Some(&inj));
        plan_ms.extend(times.iter().map(|s| s * 1e3));
        ((ctx, plans), t.elapsed().as_secs_f64())
    });
    r.e2e("setup_s", setup_s, "s");
    r.layer("api.plan_ms", median(&plan_ms), "ms");
    r.note(format!(
        "{} threads in one benchmark-owned pool",
        ctx.nthreads()
    ));

    let mut tally = Tally::default();
    let budget = if cfg.trace { 0.4 } else { 1.0 } * cfg.seconds;
    let untraced = rounds(
        &cases,
        &mut outs,
        &mut plans,
        Duration::from_secs_f64(budget),
        &mut Tracer::new(false),
        &mut tally,
        |_, _, _, _| {},
    );
    drop(plans);
    end_to_end(&mut r, &untraced);
    let (ovh, iqr) = paired_overhead_pct(&untraced.secs[0], &untraced.secs[1]);
    r.note(format!(
        "yardstick: parallel DetectCorrect under injection vs Off {} (paper: 1.79 % parallel)",
        describe_overhead(ovh, iqr)
    ));
    let rep = untraced.reports[1];
    let per_min = rep.injected as f64 / (untraced.elapsed / 60.0);
    r.note(format!(
        "yardstick: {per_min:.0} injected errors per minute (paper: hundreds per minute)"
    ));

    if cfg.trace {
        r.layer("faults.injected", rep.injected as f64, "count");
        let ratio = |x: usize| x as f64 / rep.injected.max(1) as f64;
        r.layer("faults.detected_ratio", ratio(rep.detected), "ratio");
        r.layer("faults.corrected_ratio", ratio(rep.corrected), "ratio");
        r.layer("faults.errors_per_min", per_min, "1/min");
        traced_parallel(cfg, &mut r, &cases, &mut outs, &ctx, &untraced, &mut tally);
    }
    r.tally = tally;
    r
}

fn traced_parallel(
    cfg: &RunCfg,
    r: &mut Report,
    cases: &[Case],
    outs: &mut [Matrix<f64>],
    ctx: &ParGemmContext<f64>,
    untraced: &Timings,
    tally: &mut Tally,
) {
    // Exact counts over one fixed pass: each shape's FT call once, with a
    // fresh injector, so the pass repeats exactly for a seed. A failed call
    // counts as unrecoverable: with every check passing otherwise, that is
    // the only way a DetectCorrect call on clean inputs fails.
    let fixed = injector(cfg.seed);
    let mut pass = FtReport::default();
    let mut unrecoverable = 0;
    for (case, c) in cases.iter().zip(outs.iter_mut()) {
        let mut p = plan(
            case,
            Variant::DetectCorrect,
            Exec::Parallel(ctx),
            Some(&fixed),
        );
        let mut t = Tally::default();
        let mut off = Tracer::new(false);
        run_checked(&mut p, case, c, &mut off, 0, &mut t, &mut pass);
        unrecoverable += t.failed;
        tally.absorb(t);
    }
    r.layer("abft.verifications", pass.verifications as f64, "count");
    r.layer("abft.detected", pass.detected as f64, "count");
    r.layer("abft.corrected", pass.corrected as f64, "count");
    r.layer("abft.retried_panels", pass.retried_panels as f64, "count");
    r.layer("abft.unrecoverable", unrecoverable as f64, "count");

    // Serial and parallel Off on the same shapes, traced; a replay with
    // one injected error per panel times the corrector.
    let inj = injector(cfg.seed ^ 1);
    let mut serial = Vec::new();
    let mut par = Vec::new();
    for case in cases {
        serial.push(vec![plan(case, Variant::Off, Exec::Serial, None)]);
        par.push(vec![
            plan(case, Variant::Off, Exec::Parallel(ctx), None),
            plan(
                case,
                Variant::DetectCorrect,
                Exec::Parallel(ctx),
                Some(&inj),
            ),
        ]);
    }
    let mut tracer = Tracer::new(true);
    let mut replay_ctx = GemmContext::<f64>::new();
    let mut replayed = ReplayTotals::default();
    let mut rng = Rng::new(cfg.seed ^ 0xC0FF);
    let budget = Duration::from_secs_f64(0.3 * cfg.seconds);
    let ts = rounds(
        cases,
        outs,
        &mut serial,
        budget,
        &mut tracer,
        tally,
        |_, _, _, _| {},
    );
    let tp = rounds(
        cases,
        outs,
        &mut par,
        budget,
        &mut tracer,
        tally,
        |i, c, tracer, tally| {
            let got = replay(
                &mut replay_ctx,
                &cases[i],
                c,
                tracer,
                Some(&mut rng),
                i as u64,
            );
            tally.record(got.map(|s| replayed.add(s)));
        },
    );
    let speedup = median(&tp.rates[0]) / median(&ts.rates[0]);
    r.layer("parallel.speedup", speedup, "x");
    r.layer(
        "parallel.efficiency",
        speedup / ctx.nthreads() as f64,
        "ratio",
    );
    r.tracing_overhead(
        median(&untraced.rates[0]),
        median(&tp.rates[0]),
        spread_pct(&untraced.rates[0]),
    );
    let correct = tracer
        .totals()
        .get("abft.correct")
        .copied()
        .unwrap_or_default();
    r.layer(
        "abft.correct.us_per_error",
        correct.total_ns as f64 / 1e3 / replayed.corrected.max(1) as f64,
        "us",
    );
    r.layer("pool.region_us", region_us(ctx), "us");
    r.spans = Some(tracer);
}

/// Round trip of an empty parallel region on the benchmark's pool: the
/// median of 9 batches of 2000 regions.
fn region_us(ctx: &ParGemmContext<f64>) -> f64 {
    let pool = ctx.pool();
    let mut per = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..2000 {
            pool.run(|w| {
                std::hint::black_box(w.tid);
            });
        }
        per.push(t.elapsed().as_secs_f64() * 1e6 / 2000.0);
    }
    median(&per)
}

#[derive(Debug, Default, Clone, Copy)]
struct ReplayStats {
    flops: f64,
    pack_a_bytes: f64,
    pack_b_bytes: f64,
    injected: usize,
    corrected: usize,
}

#[derive(Debug, Default)]
struct ReplayTotals {
    flops: f64,
    pack_a_bytes: f64,
    pack_b_bytes: f64,
    corrected: usize,
}

impl ReplayTotals {
    fn add(&mut self, s: ReplayStats) {
        self.flops += s.flops;
        self.pack_a_bytes += s.pack_a_bytes;
        self.pack_b_bytes += s.pack_b_bytes;
        self.corrected += s.corrected;
    }
}

/// Replays the serial fused-ABFT driver's phase sequence (`FtPolicy::Detect`,
/// `alpha = 1`, `beta = 0`) with the context's blocking, calling the
/// public phase functions directly so each gets its own span. With `inject`,
/// one error per depth panel is added the way a faulty FMA would leave it
/// (after the kernel, seen by the reference checksums) and must be
/// corrected. The result is checked like any other call.
fn replay(
    ctx: &mut GemmContext<f64>,
    case: &Case,
    c: &mut Matrix<f64>,
    tr: &mut Tracer,
    mut inject: Option<&mut Rng>,
    req: u64,
) -> Result<ReplayStats, String> {
    let (a, b) = (case.a.as_ref(), case.b.as_ref());
    let Shape { m, n, k } = case.shape;
    let p = ctx.params;
    let kernel = ctx.kernel;
    let tol = FtConfig::default().tolerance;
    let nc_max = p.nc.min(n);
    let mut ar = vec![0.0; k];
    let mut bc = vec![0.0; p.kc];
    let (mut enc_row, mut ref_row) = (vec![0.0; m], vec![0.0; m]);
    let (mut enc_col, mut ref_col) = (vec![0.0; nc_max], vec![0.0; nc_max]);
    let (a_buf, b_buf) = ctx
        .pack_buffers(p.packed_a_len(), p.packed_b_len())
        .map_err(|e| e.to_string())?;
    let out = c;
    let mut c = out.as_mut();
    let mut s = ReplayStats {
        flops: case.shape.flops(),
        ..ReplayStats::default()
    };

    let root = tr.enter("replay.gemm", req);
    tr.span("abft.encode", req, || {
        pack::col_sums_scaled(&a, 1.0, &mut ar)
    });
    let mut jc = 0;
    while jc < n {
        let nc = p.nc.min(n - jc);
        let (enc_col, ref_col) = (&mut enc_col[..nc], &mut ref_col[..nc]);
        tr.span("abft.encode", req, || {
            checksum::scale_encode_c(
                &mut c.submatrix_mut(0, jc, m, nc),
                0.0,
                &mut enc_row,
                enc_col,
            )
        });
        let mut correction_scale: f64 = 0.0;
        let mut pc = 0;
        while pc < k {
            let kc = p.kc.min(k - pc);
            let bc = &mut bc[..kc];
            bc.fill(0.0);
            let b_block = b.submatrix(pc, jc, kc, nc);
            tr.span("core.pack_b", req, || {
                pack::pack_b_fused(&b_block, p.nr, b_buf, &ar[pc..pc + kc], bc, enc_col)
            });
            s.pack_b_bytes += 8.0 * (kc * nc + kc * nc.div_ceil(p.nr) * p.nr) as f64;
            ref_col.fill(0.0);
            ref_row.fill(0.0);
            let victim_block = inject
                .as_deref_mut()
                .map(|g| g.range(0, m.div_ceil(p.mc) - 1));
            let mut ic = 0;
            while ic < m {
                let mc = p.mc.min(m - ic);
                let a_block = a.submatrix(ic, pc, mc, kc);
                tr.span("core.pack_a", req, || {
                    pack::pack_a_fused(&a_block, 1.0, p.mr, a_buf, bc, &mut enc_row[ic..ic + mc])
                });
                s.pack_a_bytes += 8.0 * (mc * kc + mc.div_ceil(p.mr) * p.mr * kc) as f64;
                let mut c_block = c.submatrix_mut(ic, jc, mc, nc);
                tr.span("core.kernel", req, || {
                    let sums = Some((&mut ref_col[..], &mut ref_row[ic..ic + mc]));
                    macro_kernel(&kernel, kc, a_buf, b_buf, &mut c_block, sums)
                });
                if victim_block == Some(ic / p.mc) {
                    let g = inject.as_deref_mut().expect("a victim implies a generator");
                    inject_one(g, &mut c_block, ref_col, &mut ref_row[ic..ic + mc]);
                    s.injected += 1;
                }
                ic += p.mc;
            }
            let k_done = pc + kc;
            let (rows, cols, th) = tr.span("abft.verify", req, || {
                let scale = max_abs(&enc_row)
                    .max(max_abs(enc_col))
                    .max(correction_scale);
                let th_row = tol.threshold::<f64>(k_done, nc, scale);
                let th_col = tol.threshold::<f64>(k_done, m, scale);
                (
                    corrector::find_discrepancies(&enc_row, &ref_row, th_row),
                    corrector::find_discrepancies(enc_col, ref_col, th_col),
                    th_row.max(th_col),
                )
            });
            if !rows.is_empty() || !cols.is_empty() {
                for d in rows.iter().chain(&cols) {
                    correction_scale = correction_scale.max(d.delta.abs());
                }
                let mut block = c.submatrix_mut(0, jc, m, nc);
                let outcome = tr.span("abft.correct", req, || {
                    corrector::correct_block(&mut block, &rows, &cols, th)
                });
                match outcome {
                    CorrectionOutcome::Clean => {}
                    CorrectionOutcome::Corrected { count } => s.corrected += count,
                    CorrectionOutcome::Unrecoverable { detail } => {
                        tr.exit(root);
                        return Err(format!("replay: unrecoverable pattern {detail}"));
                    }
                }
            }
            pc += p.kc;
        }
        jc += p.nc;
    }
    tr.exit(root);
    if s.injected != s.corrected {
        return Err(format!(
            "replay: injected {} but corrected {}",
            s.injected, s.corrected
        ));
    }
    case.proj.check(&out.as_ref())?;
    Ok(s)
}

fn inject_one(g: &mut Rng, c: &mut MatMut<'_, f64>, ref_col: &mut [f64], ref_row: &mut [f64]) {
    let (i, j) = (g.range(0, c.nrows() - 1), g.range(0, c.ncols() - 1));
    let sign = if g.unit() < 0.5 { -1.0 } else { 1.0 };
    let delta = sign * (0.5 + g.unit()) * 1.0e6;
    let old = c.get(i, j);
    c.set(i, j, old + delta);
    let delta = c.get(i, j) - old;
    ref_col[j] += delta;
    ref_row[i] += delta;
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |acc, x| acc.max(x.abs()))
}

/// Per-phase split of the replays, and the kernel against its own
/// L1-resident peak.
fn replay_metrics(r: &mut Report, tr: &Tracer, replayed: &ReplayTotals) {
    let t = tr.totals();
    let ns = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64);
    let root = ns("replay.gemm");
    let kernel_gflops = replayed.flops / ns("core.kernel");
    let peak = kernel_peak_gflops();
    r.layer("core.kernel.gflops", kernel_gflops, "GFLOP/s");
    r.layer("core.kernel.peak_frac", kernel_gflops / peak, "ratio");
    r.layer(
        "core.pack_a.gbps",
        replayed.pack_a_bytes / ns("core.pack_a"),
        "GB/s",
    );
    r.layer(
        "core.pack_b.gbps",
        replayed.pack_b_bytes / ns("core.pack_b"),
        "GB/s",
    );
    r.layer(
        "core.pack.share",
        (ns("core.pack_a") + ns("core.pack_b")) / root,
        "fraction",
    );
    r.layer("core.kernel.share", ns("core.kernel") / root, "fraction");
    let root_self = t.get("replay.gemm").map_or(0.0, |x| x.self_ns as f64);
    r.layer("core.driver_other.share", root_self / root, "fraction");
    r.layer("abft.encode.share", ns("abft.encode") / root, "fraction");
    r.layer(
        "abft.verify.share",
        (ns("abft.verify") + ns("abft.correct")) / root,
        "fraction",
    );
    r.note(format!("L1-resident macro_kernel peak {peak:.2} GFLOP/s"));
}

/// Best rate of `macro_kernel` on a block whose packed operands fit in L1d
/// together, over 5 batches of about 40 ms.
fn kernel_peak_gflops() -> f64 {
    let ctx = GemmContext::<f64>::new();
    let kernel = ctx.kernel;
    let (mc, nc) = (2 * kernel.mr, 2 * kernel.nr);
    let l1 = CacheInfo::detect().l1d;
    let kc = ((l1 * 3 / 5) / (8 * (mc + nc))).clamp(16, 512) / 8 * 8;
    let a: Vec<f64> = (0..mc * kc).map(|i| 1e-3 * (i % 7) as f64).collect();
    let b: Vec<f64> = (0..nc * kc).map(|i| 1e-3 * (i % 5) as f64).collect();
    let mut c = Matrix::<f64>::zeros(mc, nc);
    let flops = 2.0 * (mc * nc * kc) as f64;
    let calls = (40e-3 * 40e9 / flops).max(1.0) as usize;
    let mut best: f64 = 0.0;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..calls {
            macro_kernel(&kernel, kc, &a, &b, &mut c.as_mut(), None);
        }
        best = best.max(flops * calls as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    std::hint::black_box(c.get(0, 0));
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_with_injection_corrects_every_error_and_matches() {
        let shapes = [Shape {
            m: 150,
            n: 97,
            k: 610,
        }];
        let cases = make_cases(&shapes, 9);
        let mut c = outputs(&cases).remove(0);
        let mut ctx = GemmContext::<f64>::new();
        let mut tr = Tracer::new(true);
        let mut g = Rng::new(1);
        let s = replay(&mut ctx, &cases[0], &mut c, &mut tr, Some(&mut g), 0).unwrap();
        assert!(s.injected >= 2, "{s:?}");
        assert_eq!(s.injected, s.corrected);
        let t = tr.totals();
        assert_eq!(t["replay.gemm"].count, 1);
        assert!(t["core.kernel"].count >= 2);
    }

    #[test]
    fn shape_lists_keep_their_ranges() {
        for seed in 0..20 {
            for s in serial_shapes(seed) {
                assert!([s.m, s.n, s.k].iter().all(|d| (512..=2048).contains(d)));
            }
            for s in parallel_shapes(seed) {
                assert!([s.m, s.n, s.k].iter().all(|d| (384..=1536).contains(d)));
            }
            let odd = serial_shapes(seed)[0];
            assert!(odd.m % 2 == 1 && odd.n % 2 == 1 && odd.k % 2 == 1);
        }
    }
}
