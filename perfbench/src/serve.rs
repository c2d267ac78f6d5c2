//! The two serving workloads: `serve_inproc` (one generator thread calling
//! `GemmService::submit_streamed`) and `serve_wire` (the same traffic over
//! one `NetClient` connection to a loopback `NetServer`).
//!
//! Each runs phase A, a closed loop with 32 requests outstanding for a
//! third of the run that gives `rps`, then phase B, an open loop with
//! Poisson arrivals at the fixed rate [`OPEN_LOOP_RPS`] for the rest that
//! gives `latency.p50_ms`/`latency.p99_ms` (the tail needs the larger share
//! of samples). Open-loop latency is timed from each request's due time,
//! so a stalled generator charges its stall to every request it delayed.

use crate::check::{check_report, compare, reference_gemm, Tally};
use crate::env;
use crate::report::Report;
use crate::stats::{median, percentile, Rng};
use crate::trace::Tracer;
use crate::RunCfg;
use ftgemm::net::OperandRef;
use ftgemm::obs::Registry;
use ftgemm::serve::{completion_channel, CompletionSink, Completions};
use ftgemm::{
    FtPolicy, FtReport, GemmRequest, GemmService, Matrix, NetClient, NetServer, NetServerConfig,
    NetSubmit, RoutingPolicy, ServiceConfig,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Open-loop arrival rate shared by both serving workloads, so
/// `serve_wire` minus `serve_inproc` prices the transport at equal load:
/// about a quarter of what one wire connection sustains closed-loop on a
/// 2-core host (1750-1950 req/s). At half of it, batches grew long enough
/// to hold several medium requests and in-process p99 ranged from 11 to
/// 43 ms between runs.
pub const OPEN_LOOP_RPS: f64 = 400.0;

/// Outstanding requests of the closed-loop client.
const WINDOW: usize = 32;

/// Requests completed before phase A is timed, so buffers and queues
/// are warm.
const WARMUP: u64 = 2000;

const SMALL_PAIRS: usize = 48;
const MEDIUM_PAIRS: usize = 8;
/// One request in ten is medium.
const MEDIUM_SHARE: f64 = 0.1;
/// One wire submit in four ships its operands inline.
const INLINE_EVERY: u64 = 4;

/// Operand pairs shared by every request (`Arc`s, never copied per
/// request) and the expected product of each.
pub struct OperandPool {
    a: Vec<Arc<Matrix<f64>>>,
    b: Vec<Arc<Matrix<f64>>>,
    expected: Vec<Matrix<f64>>,
    flops: Vec<f64>,
}

/// Input generation (not part of `setup_s`): small pairs with dims in
/// 32..=128, medium pairs in 256..=384 (above the default routing cutoff).
/// Each pair's size is stratified over its range and its three dims are
/// that size jittered by up to 6 %, so every seed draws the same spread of
/// flops: with the dims drawn apart, the largest medium pair (which sets
/// p99) and the mean cost of a request (which sets rps) moved by seed.
pub fn operand_pool(seed: u64) -> OperandPool {
    let mut rng = Rng::new(seed ^ 0x9001);
    let mut dims = Vec::new();
    for (count, lo, hi) in [(SMALL_PAIRS, 32, 128), (MEDIUM_PAIRS, 256, 384)] {
        for size in rng.stratified(count, lo, hi) {
            let mut jit = || {
                let d = (size as f64 * (0.94 + 0.12 * rng.unit())).round() as usize;
                d.clamp(lo, hi)
            };
            dims.push((jit(), jit(), jit()));
        }
    }
    let mut pool = OperandPool {
        a: Vec::new(),
        b: Vec::new(),
        expected: Vec::new(),
        flops: Vec::new(),
    };
    for (i, (m, n, k)) in dims.into_iter().enumerate() {
        let s = seed.wrapping_mul(7919).wrapping_add(2 * i as u64);
        let a = Matrix::<f64>::random(m, k, s);
        let b = Matrix::<f64>::random(k, n, s + 1);
        pool.expected.push(reference_gemm(&a, &b));
        pool.flops.push(2.0 * (m * n * k) as f64);
        pool.a.push(Arc::new(a));
        pool.b.push(Arc::new(b));
    }
    pool
}

/// One request of the seeded traffic mix.
#[derive(Debug, Clone, Copy)]
struct Req {
    pair: usize,
    policy: FtPolicy,
    tenant: u32,
    /// Sequence number; every [`INLINE_EVERY`]th wire submit goes inline.
    seq: u64,
}

struct Traffic {
    rng: Rng,
    seq: u64,
}

impl Traffic {
    fn new(seed: u64) -> Self {
        Traffic {
            rng: Rng::new(seed ^ 0x7AFF),
            seq: 0,
        }
    }

    fn next(&mut self) -> Req {
        let pair = if self.rng.unit() < MEDIUM_SHARE {
            SMALL_PAIRS + self.rng.range(0, MEDIUM_PAIRS - 1)
        } else {
            self.rng.range(0, SMALL_PAIRS - 1)
        };
        let policy = if self.rng.unit() < 0.5 {
            FtPolicy::Off
        } else {
            FtPolicy::DetectCorrect
        };
        let tenant = (self.rng.next_u64() % 2) as u32;
        self.seq += 1;
        Req {
            pair,
            policy,
            tenant,
            seq: self.seq,
        }
    }
}

type Done = (u64, Result<(Matrix<f64>, FtReport), String>);

/// Where requests go: the service in process, or a wire connection.
enum Target {
    InProc {
        service: Arc<GemmService<f64>>,
        sink: CompletionSink<f64>,
        completions: Completions<f64>,
    },
    Wire {
        client: NetClient,
        handles: Vec<(u64, u64)>,
    },
}

impl Target {
    fn in_proc(service: Arc<GemmService<f64>>) -> Self {
        let (sink, completions) = completion_channel::<f64>();
        Target::InProc {
            service,
            sink,
            completions,
        }
    }

    fn submit(&mut self, r: &Req, pool: &OperandPool, tr: &mut Tracer) -> Result<u64, String> {
        match self {
            Target::InProc { service, sink, .. } => {
                let req = GemmRequest::builder(&pool.a[r.pair], &pool.b[r.pair])
                    .ft(r.policy)
                    .tenant(r.tenant)
                    .build()
                    .map_err(|e| e.to_string())?;
                let open = tr.enter("serve.submit", r.seq);
                let id = service.submit_streamed(req, sink);
                tr.exit(open);
                id.map_err(|e| e.to_string())
            }
            Target::Wire { client, handles } => {
                let sub = if r.seq.is_multiple_of(INLINE_EVERY) {
                    NetSubmit::new(
                        OperandRef::inline(&pool.a[r.pair]),
                        OperandRef::inline(&pool.b[r.pair]),
                    )
                } else {
                    let (a, b) = handles[r.pair];
                    NetSubmit::new(a, b)
                };
                let sub = sub.with_policy(r.policy).with_tenant(r.tenant);
                let open = tr.enter("net.submit_ack", r.seq);
                let id = client.submit(sub);
                tr.exit(open);
                id.map_err(|e| e.to_string())
            }
        }
    }

    /// The next completion; `None` if `block` is false and none is ready.
    /// A wire connection can only block.
    fn complete(&mut self, block: bool) -> Option<Done> {
        match self {
            Target::InProc { completions, .. } => {
                let c = if block {
                    completions.recv()
                } else {
                    completions.try_next()
                }?;
                Some((
                    c.id,
                    c.result.map(|r| (r.c, r.report)).map_err(|e| e.to_string()),
                ))
            }
            Target::Wire { .. } if !block => None,
            Target::Wire { client, .. } => Some(match client.next_completion() {
                Ok(c) => (
                    c.id,
                    c.result
                        .map(|ok| (ok.to_matrix(), ok.report()))
                        .map_err(|(code, msg)| format!("wire error {code}: {msg}")),
                ),
                Err(e) => (u64::MAX, Err(format!("connection: {e}"))),
            }),
        }
    }

    fn can_poll(&self) -> bool {
        matches!(self, Target::InProc { .. })
    }

    /// Submits the server accepts at once from one connection.
    fn in_flight_cap(&self) -> usize {
        match self {
            Target::InProc { .. } => usize::MAX,
            Target::Wire { .. } => NetServerConfig::default().max_in_flight,
        }
    }
}

fn judge(
    done: &Result<(Matrix<f64>, FtReport), String>,
    expected: &Matrix<f64>,
) -> Result<(), String> {
    let (c, report) = done.as_ref().map_err(Clone::clone)?;
    check_report(report)?;
    compare(c, expected)
}

/// Requests in flight: id -> (request, due time in seconds).
type InFlight = HashMap<u64, (Req, f64)>;

/// Checks one completion. Returns the request and whether it succeeded.
/// A completion for an unknown id means the connection is broken: it and
/// every request still in flight fail.
fn settle(
    done: Done,
    inflight: &mut InFlight,
    pool: &OperandPool,
    tally: &mut Tally,
) -> Option<(Req, f64, bool)> {
    let (id, result) = done;
    let Some((req, due)) = inflight.remove(&id) else {
        tally.record(Err(match result {
            Err(e) => e,
            Ok(_) => format!("completion for unknown request {id}"),
        }));
        for _ in inflight.drain() {
            tally.record(Err("abandoned after a broken completion".into()));
        }
        return None;
    };
    let outcome = judge(&result, &pool.expected[req.pair]);
    let ok = outcome.is_ok();
    tally.record(outcome);
    Some((req, due, ok))
}

struct Closed {
    /// Requests completed before the stop time.
    completed: u64,
    elapsed: f64,
    /// Flops of those requests under `Off` and under protection.
    flops_off: f64,
    flops_ft: f64,
}

/// Phase A: keep [`WINDOW`] requests outstanding until `secs` have passed
/// or `limit` requests completed; requests still in flight at the end are
/// drained and checked but not counted.
fn closed_loop(
    target: &mut Target,
    traffic: &mut Traffic,
    pool: &OperandPool,
    secs: f64,
    limit: u64,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Closed {
    let mut inflight = InFlight::new();
    let mut out = Closed {
        completed: 0,
        elapsed: 0.0,
        flops_off: 0.0,
        flops_ft: 0.0,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < secs && out.completed < limit {
        while inflight.len() < WINDOW {
            let r = traffic.next();
            match target.submit(&r, pool, tr) {
                Ok(id) => {
                    inflight.insert(id, (r, 0.0));
                }
                Err(e) => {
                    tally.record(Err(e));
                    break;
                }
            }
        }
        if inflight.is_empty() {
            break;
        }
        let Some(done) = target.complete(true) else {
            break;
        };
        if let Some((req, _, true)) = settle(done, &mut inflight, pool, tally) {
            out.completed += 1;
            match req.policy {
                FtPolicy::Off => out.flops_off += pool.flops[req.pair],
                _ => out.flops_ft += pool.flops[req.pair],
            }
        }
    }
    out.elapsed = start.elapsed().as_secs_f64();
    drain(target, &mut inflight, pool, tally);
    out
}

fn drain(target: &mut Target, inflight: &mut InFlight, pool: &OperandPool, tally: &mut Tally) {
    while !inflight.is_empty() {
        match target.complete(true) {
            Some(done) => {
                settle(done, inflight, pool, tally);
            }
            None => {
                for _ in inflight.drain() {
                    tally.record(Err("request never completed".into()));
                }
            }
        }
    }
}

/// Windows the open loop is cut into by due time. Latency is reported over
/// the half of them with the least steal time: on a shared host a burst of
/// noisy-neighbour steal multiplied serving p50 threefold and p99 more in
/// the runs it hit, while windows without it agreed from run to run.
const LATENCY_WINDOWS: usize = 6;

/// Open-loop accounting: every request is timed from its due time, the
/// generator's lateness is recorded beside it, and so is the machine's
/// steal time at each window boundary.
#[derive(Debug, Default)]
pub struct LatencyBook {
    /// Per request, its due time in seconds and the ms from due time to
    /// completion; a failed or refused request is infinitely late.
    pub latency: Vec<(f64, f64)>,
    /// Per request, ms from due time to the actual submit.
    pub late_ms: Vec<f64>,
    /// Steal time in seconds at each of the `LATENCY_WINDOWS + 1` window
    /// boundaries; empty where the kernel does not report it.
    pub steal_at: Vec<f64>,
    /// Length of the open loop in seconds.
    pub span_s: f64,
}

impl LatencyBook {
    pub fn submitted(&mut self, due_s: f64, now_s: f64) {
        self.late_ms.push((now_s - due_s).max(0.0) * 1e3);
    }

    pub fn completed(&mut self, due_s: f64, now_s: f64, ok: bool) {
        let ms = if ok {
            (now_s - due_s) * 1e3
        } else {
            f64::INFINITY
        };
        self.latency.push((due_s, ms));
    }

    pub fn refused(&mut self, due_s: f64) {
        self.latency.push((due_s, f64::INFINITY));
    }

    pub fn all_ms(&self) -> Vec<f64> {
        self.latency.iter().map(|l| l.1).collect()
    }

    /// Steal seconds per window, if every boundary was recorded.
    pub fn window_steal(&self) -> Option<Vec<f64>> {
        (self.steal_at.len() == LATENCY_WINDOWS + 1)
            .then(|| self.steal_at.windows(2).map(|w| w[1] - w[0]).collect())
    }

    /// Latencies of the requests due in the half of the windows with the
    /// least steal time; every latency when steal time is unknown.
    pub fn quiet_ms(&self) -> Vec<f64> {
        let Some(steal) = self.window_steal() else {
            return self.all_ms();
        };
        let mut order: Vec<usize> = (0..LATENCY_WINDOWS).collect();
        order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
        let quiet = &order[..LATENCY_WINDOWS / 2];
        let w = self.span_s / LATENCY_WINDOWS as f64;
        self.latency
            .iter()
            .filter(|(due, _)| quiet.contains(&((due / w) as usize).min(LATENCY_WINDOWS - 1)))
            .map(|l| l.1)
            .collect()
    }
}

/// Phase B: Poisson arrivals at [`OPEN_LOOP_RPS`] for `secs`, then a drain.
fn open_loop(
    target: &mut Target,
    traffic: &mut Traffic,
    pool: &OperandPool,
    secs: f64,
    seed: u64,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> LatencyBook {
    let mut arrivals = Rng::new(seed ^ 0xA1);
    let mut book = LatencyBook::default();
    let mut inflight = InFlight::new();
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    let mut due = arrivals.exp_gap(OPEN_LOOP_RPS);
    let cap = target.in_flight_cap();
    book.span_s = secs;
    let mut mark = 0.0;
    loop {
        let t = now();
        if t >= mark && book.steal_at.len() <= LATENCY_WINDOWS {
            book.steal_at.extend(env::steal_s());
            mark += secs / LATENCY_WINDOWS as f64;
        }
        if due < secs && due <= t && inflight.len() < cap {
            let r = traffic.next();
            match target.submit(&r, pool, tr) {
                Ok(id) => {
                    book.submitted(due, now());
                    inflight.insert(id, (r, due));
                }
                Err(e) => {
                    book.refused(due);
                    tally.record(Err(e));
                }
            }
            due += arrivals.exp_gap(OPEN_LOOP_RPS);
            continue;
        }
        if due >= secs && inflight.is_empty() {
            break;
        }
        if !inflight.is_empty() && (!target.can_poll() || inflight.len() >= cap) {
            // A wire connection only blocks: wait for the next completion,
            // even if that makes the next submit late (which is recorded).
            // The same when the server's in-flight cap is reached.
            if let Some(done) = target.complete(true) {
                if let Some((_, due_at, ok)) = settle(done, &mut inflight, pool, tally) {
                    book.completed(due_at, now(), ok);
                }
            }
            continue;
        }
        let mut any = false;
        while let Some(done) = target.complete(false) {
            any = true;
            if let Some((_, due_at, ok)) = settle(done, &mut inflight, pool, tally) {
                book.completed(due_at, now(), ok);
            }
        }
        if !any {
            // Spin rather than sleep: the generator has a core of its own,
            // and waking a halted core late would show up as lateness.
            std::thread::yield_now();
        }
    }
    if book.steal_at.len() == LATENCY_WINDOWS {
        book.steal_at.extend(env::steal_s());
    }
    book
}

/// Measured results of one serving session (phase A then phase B).
struct Session {
    closed: Closed,
    book: LatencyBook,
}

fn session(
    target: &mut Target,
    pool: &OperandPool,
    cfg: &RunCfg,
    secs: f64,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Session {
    let mut traffic = Traffic::new(cfg.seed);
    let mut off = Tracer::new(false);
    closed_loop(
        target,
        &mut traffic,
        pool,
        f64::INFINITY,
        WARMUP,
        tally,
        &mut off,
    );
    let closed = closed_loop(target, &mut traffic, pool, secs / 3.0, u64::MAX, tally, tr);
    let book = open_loop(
        target,
        &mut traffic,
        pool,
        2.0 * secs / 3.0,
        cfg.seed,
        tally,
        tr,
    );
    Session { closed, book }
}

fn end_to_end(r: &mut Report, s: &Session) {
    let c = &s.closed;
    r.e2e("gflops_off", c.flops_off / c.elapsed / 1e9, "GFLOP/s");
    r.e2e("gflops_ft", c.flops_ft / c.elapsed / 1e9, "GFLOP/s");
    r.e2e("rps", rps(s), "req/s");
    let quiet = s.book.quiet_ms();
    r.layer("latency.p50_ms", median(&quiet), "ms");
    r.layer("latency.p99_ms", percentile(&quiet, 99.0), "ms");
    r.note(format!(
        "closed loop: {} completed in {:.2} s with {WINDOW} outstanding; GFLOP/s served to Off and to DetectCorrect requests",
        c.completed, c.elapsed
    ));
    let all = s.book.all_ms();
    r.note(format!(
        "open loop at {OPEN_LOOP_RPS} req/s: p50 {:.3} ms, p99 {:.3} ms over the {} requests due in the {} of {LATENCY_WINDOWS} windows with least steal (steal s per window {:?}); all {} requests: p50 {:.3} ms, p99 {:.3} ms; generator lateness p99 {:.3} ms",
        median(&quiet),
        percentile(&quiet, 99.0),
        quiet.len(),
        LATENCY_WINDOWS / 2,
        s.book
            .window_steal()
            .unwrap_or_default()
            .iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>(),
        all.len(),
        median(&all),
        percentile(&all, 99.0),
        percentile(&s.book.late_ms, 99.0)
    ));
}

fn service_config(nproc: usize, traced: bool) -> ServiceConfig {
    ServiceConfig {
        // The generator keeps a core of its own, as a remote client would.
        threads: nproc.saturating_sub(1).max(1),
        // Every request takes the batched path, where the adaptive router
        // settles on a 2-core host (its learned cutoff ends above every
        // request here). Left adaptive, it sent medium requests back to
        // the matrix-parallel path during the open loop and p50 spread
        // tenfold between identical runs; pinned at the default cutoff,
        // the 25 MiB workspace that path allocates per request was reused
        // in some runs and faulted in afresh in others, which moved
        // throughput fourfold.
        routing: RoutingPolicy::Fixed(u64::MAX),
        // The lifecycle trace is switched on in the traced run only.
        obs_addr: traced.then(|| "127.0.0.1:0".parse().expect("loopback address")),
        ..ServiceConfig::default()
    }
}

/// `GemmService::new` takes well under a millisecond, so many repetitions
/// keep its median steady; a wire set-up uploads the pool and takes longer.
const SETUP_REPS_INPROC: usize = 21;
const SETUP_REPS_WIRE: usize = 5;

pub fn serve_inproc(cfg: &RunCfg) -> Report {
    let mut r = Report::default();
    let pool = operand_pool(cfg.seed);
    let mut times = Vec::new();
    let mut service = None;
    for _ in 0..SETUP_REPS_INPROC {
        drop(service.take());
        let t = Instant::now();
        service = Some(Arc::new(GemmService::<f64>::new(service_config(
            cfg.nproc, false,
        ))));
        times.push(t.elapsed().as_secs_f64());
    }
    r.e2e("setup_s", median(&times), "s");
    let service = service.expect("at least one set-up");
    r.note(format!("service threads {}", service.nthreads()));

    let mut tally = Tally::default();
    let secs = if cfg.trace { 0.4 } else { 1.0 } * cfg.seconds;
    let mut target = Target::in_proc(Arc::clone(&service));
    let untraced = session(
        &mut target,
        &pool,
        cfg,
        secs,
        &mut tally,
        &mut Tracer::new(false),
    );
    end_to_end(&mut r, &untraced);
    drop(target);
    drop(service);

    if cfg.trace {
        r.layer(
            "gen.late_p99_ms",
            percentile(&untraced.book.late_ms, 99.0),
            "ms",
        );
        let service = Arc::new(GemmService::<f64>::new(service_config(cfg.nproc, true)));
        let mut tracer = Tracer::new(true);
        let mut target = Target::in_proc(Arc::clone(&service));
        let traced = session(
            &mut target,
            &pool,
            cfg,
            0.6 * cfg.seconds,
            &mut tally,
            &mut tracer,
        );
        drop(target);
        span_percentiles(
            &mut r,
            &tracer,
            "serve.submit",
            "serve.submit_us.p50",
            "serve.submit_us.p99",
        );
        serve_layers(&mut r, &service);
        r.tracing_overhead(rps(&untraced), rps(&traced), 0.0);
        r.spans = Some(tracer);
    }
    r.tally = tally;
    r
}

fn rps(s: &Session) -> f64 {
    s.closed.completed as f64 / s.closed.elapsed
}

/// Median and p99 of the spans called `span`, in µs.
fn span_percentiles(r: &mut Report, tr: &Tracer, span: &str, p50: &'static str, p99: &'static str) {
    let us = tr.durations_us(span);
    r.layer(p50, median(&us), "us");
    r.layer(p99, percentile(&us, 99.0), "us");
}

/// The serving layer's own counters and its lifecycle trace.
fn serve_layers(r: &mut Report, service: &GemmService<f64>) {
    let st = service.stats();
    r.layer(
        "serve.batch_occupancy",
        st.mean_batch_occupancy,
        "req/batch",
    );
    r.layer(
        "serve.thread_occupancy",
        st.batch_thread_occupancy,
        "fraction",
    );
    let routed = (st.direct_large + st.batched_requests).max(1) as f64;
    r.layer(
        "serve.parallel_share",
        st.direct_large as f64 / routed,
        "fraction",
    );
    r.layer("serve.cutoff_updates", st.cutoff_updates as f64, "count");
    let (wait, compute) = lifecycle_us(&service.render_trace(usize::MAX));
    r.layer("serve.queue_wait_us", median(&wait), "us");
    r.layer("serve.compute_us", median(&compute), "us");
    r.note(format!(
        "lifecycle trace: {} requests with queue wait and compute times",
        wait.len().min(compute.len())
    ));
}

/// Per-request queue wait (queued -> dispatched) and compute (dispatched
/// -> computed) in µs, from the service's lifecycle trace text.
pub fn lifecycle_us(trace: &str) -> (Vec<f64>, Vec<f64>) {
    let mut events: HashMap<u64, [Option<f64>; 3]> = HashMap::new();
    for line in trace.lines().filter(|l| !l.starts_with('#')) {
        let mut t = None;
        let mut id = None;
        let mut slot = None;
        for field in line.split_whitespace() {
            if let Some(v) = field.strip_prefix("t_us=") {
                t = v.parse::<f64>().ok();
            } else if let Some(v) = field.strip_prefix("req=") {
                id = v.parse::<u64>().ok();
            } else if field == "queued" {
                slot = Some(0);
            } else if field.starts_with("dispatched") {
                slot = Some(1);
            } else if field == "computed" {
                slot = Some(2);
            }
        }
        if let (Some(t), Some(id), Some(slot)) = (t, id, slot) {
            events.entry(id).or_default()[slot] = Some(t);
        }
    }
    let (mut wait, mut compute) = (Vec::new(), Vec::new());
    for ev in events.values() {
        if let [Some(q), Some(d), _] = ev {
            wait.push(d - q);
        }
        if let [_, Some(d), Some(c)] = ev {
            compute.push(c - d);
        }
    }
    (wait, compute)
}

/// A wire stack: service, loopback server, one connection with the
/// operand pool uploaded.
struct WireStack {
    service: Arc<GemmService<f64>>,
    server: NetServer,
    client: NetClient,
    handles: Vec<(u64, u64)>,
}

fn wire_stack(cfg: &RunCfg, pool: &OperandPool, traced: bool) -> Result<(WireStack, f64), String> {
    let service = Arc::new(GemmService::<f64>::new(service_config(cfg.nproc, traced)));
    let server = NetServer::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut client = NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let t = Instant::now();
    let mut handles = Vec::new();
    for (a, b) in pool.a.iter().zip(&pool.b) {
        let ha = client.upload(a).map_err(|e| format!("upload: {e}"))?;
        let hb = client.upload(b).map_err(|e| format!("upload: {e}"))?;
        handles.push((ha, hb));
    }
    let upload_s = t.elapsed().as_secs_f64();
    Ok((
        WireStack {
            service,
            server,
            client,
            handles,
        },
        upload_s,
    ))
}

fn pool_bytes(pool: &OperandPool) -> f64 {
    let bytes = |m: &Arc<Matrix<f64>>| (m.nrows() * m.ncols() * 8) as f64;
    pool.a.iter().chain(&pool.b).map(bytes).sum()
}

/// Wire bytes the server has received and sent so far (process-wide
/// counters of the wire frontend).
fn wire_bytes() -> (f64, f64) {
    let text = Registry::global().render();
    let read = |name: &str| {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(name)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or(0.0)
    };
    (
        read("ftgemm_net_bytes_in_total"),
        read("ftgemm_net_bytes_out_total"),
    )
}

pub fn serve_wire(cfg: &RunCfg) -> Report {
    let mut r = Report::default();
    let pool = operand_pool(cfg.seed);
    let mut tally = Tally::default();
    let (mut setup, mut upload) = (Vec::new(), Vec::new());
    let mut stack = None;
    for _ in 0..SETUP_REPS_WIRE {
        drop(stack.take());
        let t = Instant::now();
        match wire_stack(cfg, &pool, false) {
            Ok((s, up)) => {
                setup.push(t.elapsed().as_secs_f64());
                upload.push(up);
                stack = Some(s);
            }
            Err(e) => tally.record(Err(e)),
        }
    }
    let Some(WireStack {
        service,
        server,
        client,
        handles,
    }) = stack
    else {
        r.tally = tally;
        return r;
    };
    r.e2e("setup_s", median(&setup), "s");
    let upload_mibps = pool_bytes(&pool) / median(&upload) / (1024.0 * 1024.0);
    r.note(format!(
        "operand pool {:.1} MiB uploaded once per set-up",
        pool_bytes(&pool) / (1024.0 * 1024.0)
    ));

    let secs = if cfg.trace { 0.3 } else { 1.0 } * cfg.seconds;
    let mut target = Target::Wire { client, handles };
    let untraced = session(
        &mut target,
        &pool,
        cfg,
        secs,
        &mut tally,
        &mut Tracer::new(false),
    );
    end_to_end(&mut r, &untraced);

    if cfg.trace {
        r.layer("net.upload_mibps", upload_mibps, "MiB/s");
        r.layer(
            "gen.late_p99_ms",
            percentile(&untraced.book.late_ms, 99.0),
            "ms",
        );
        // The same open loop in process, on the same service: the p50
        // difference is what the transport adds.
        let mut inproc = Target::in_proc(Arc::clone(&service));
        let mut traffic = Traffic::new(cfg.seed);
        let book = open_loop(
            &mut inproc,
            &mut traffic,
            &pool,
            0.2 * cfg.seconds,
            cfg.seed,
            &mut tally,
            &mut Tracer::new(false),
        );
        drop(inproc);
        let transport = median(&untraced.book.all_ms()) - median(&book.all_ms());
        r.layer("net.transport_ms", transport, "ms");
        drop(target);
        drop(server);
        drop(service);

        match wire_stack(cfg, &pool, true) {
            Ok((s, _)) => {
                let mut tracer = Tracer::new(true);
                let (in0, out0) = wire_bytes();
                let mut target = Target::Wire {
                    client: s.client,
                    handles: s.handles,
                };
                let traced = session(
                    &mut target,
                    &pool,
                    cfg,
                    0.5 * cfg.seconds,
                    &mut tally,
                    &mut tracer,
                );
                let (in1, out1) = wire_bytes();
                let reqs = tracer.durations_us("net.submit_ack").len().max(1) as f64;
                r.layer("net.bytes_in_per_req", (in1 - in0) / reqs, "B");
                r.layer("net.bytes_out_per_req", (out1 - out0) / reqs, "B");
                span_percentiles(
                    &mut r,
                    &tracer,
                    "net.submit_ack",
                    "net.submit_ack_us.p50",
                    "net.submit_ack_us.p99",
                );
                serve_layers(&mut r, &s.service);
                r.tracing_overhead(rps(&untraced), rps(&traced), 0.0);
                r.spans = Some(tracer);
                drop(target);
                drop(s.server);
            }
            Err(e) => tally.record(Err(e)),
        }
    }
    r.tally = tally;
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_when_the_generator_stalls() {
        // Four requests due at 0, 1, 2, 3 ms; the generator stalls and
        // submits all of them at 10 ms; each completes 1 ms later.
        let mut book = LatencyBook::default();
        for due in [0.0, 1e-3, 2e-3, 3e-3] {
            book.submitted(due, 10e-3);
        }
        for (i, due) in [0.0, 1e-3, 2e-3, 3e-3].into_iter().enumerate() {
            book.completed(due, 11e-3 + i as f64 * 1e-6, true);
        }
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(close(book.late_ms[0], 10.0) && close(book.late_ms[3], 7.0));
        // Timed from submit, every request would read about 1 ms.
        let all = book.all_ms();
        assert!(close(all[0], 11.0));
        assert!(close(all[3], 8.003));
        assert!(median(&all) > 9.0);
    }

    #[test]
    fn failed_requests_miss_every_latency_target() {
        let mut book = LatencyBook::default();
        for i in 0..99 {
            book.completed(0.0, 1e-3 * (1 + i % 3) as f64, true);
        }
        book.completed(0.0, 1e-3, false);
        book.refused(0.0);
        assert_eq!(percentile(&book.all_ms(), 99.0), f64::INFINITY);
        assert!(median(&book.all_ms()) <= 2.0);
    }

    #[test]
    fn latency_comes_from_the_windows_with_least_steal() {
        let mut book = LatencyBook {
            span_s: 6.0,
            // Windows 1, 4 and 5 were hit by steal.
            steal_at: vec![0.0, 0.01, 0.5, 0.51, 0.52, 1.0, 1.4],
            ..LatencyBook::default()
        };
        for i in 0..600 {
            let due = i as f64 / 100.0;
            let noisy = matches!(due as usize, 1 | 4 | 5);
            book.completed(due, due + if noisy { 0.05 } else { 0.001 }, true);
        }
        let quiet = book.quiet_ms();
        assert_eq!(quiet.len(), 300);
        assert!(quiet.iter().all(|&ms| ms < 2.0));
        book.steal_at.clear();
        assert_eq!(book.quiet_ms().len(), 600);
    }

    #[test]
    fn lifecycle_trace_parses_wait_and_compute() {
        let text = "# tracelog: 4 recent\n\
                    t_us=10 req=1 node=0 admitted\n\
                    t_us=12 req=1 node=0 queued\n\
                    t_us=40 req=1 node=0 dispatched(path=batched)\n\
                    t_us=95 req=1 node=0 computed\n";
        let (wait, compute) = lifecycle_us(text);
        assert_eq!(wait, vec![28.0]);
        assert_eq!(compute, vec![55.0]);
    }
}
