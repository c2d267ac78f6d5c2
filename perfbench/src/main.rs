//! FT-GEMM benchmark: one workload per invocation, every metric printed by
//! name with its unit, outputs checked, and one JSON result line last.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--commit <id>] [--trace-dir <dir>]
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the per-layer metrics, taken from a traced run whose spans
//! are written to `--trace-dir` at exit. Exits 1 if any output was wrong.

mod check;
mod env;
mod gemm;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Metric, Report};
use std::path::PathBuf;
use std::time::Instant;

/// Workloads and why each was chosen.
const WORKLOADS: &[(&str, &str)] = &[
    (
        "gemm_serial",
        "one thread, clean: packing and macro-kernel are the time; blocking and fusion changes show here",
    ),
    (
        "gemm_parallel_faulty",
        "every core, one injected error per worker stream and FT call: pool, reductions and corrector work",
    ),
    (
        "serve_inproc",
        "small/medium mixed traffic in process: admission, queue, DRR, routing and batching",
    ),
    (
        "serve_wire",
        "the same traffic over one loopback connection: the wire codec and connection threads",
    ),
];

/// End-to-end metrics, reported by every workload. Request latency is
/// measured by every run too, but reported with the per-layer metrics:
/// on a shared 2-core host it moved with the machine's steal time (the
/// in-process p99 spread 0.87 between runs in a noisy hour), which no
/// bound of 0.25 holds.
const END_TO_END: &[(&str, &str)] = &[
    ("gflops_off", "GFLOP/s"),
    ("gflops_ft", "GFLOP/s"),
    ("rps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run. A workload that does not load a
/// layer reports its metrics as 0 and says so in the log.
const PER_LAYER: &[(&str, &str)] = &[
    ("latency.p50_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("core.kernel.gflops", "GFLOP/s"),
    ("core.kernel.peak_frac", "ratio"),
    ("core.pack_a.gbps", "GB/s"),
    ("core.pack_b.gbps", "GB/s"),
    ("core.pack.share", "fraction"),
    ("core.kernel.share", "fraction"),
    ("core.driver_other.share", "fraction"),
    ("abft.encode.share", "fraction"),
    ("abft.verify.share", "fraction"),
    ("abft.detect_overhead_pct", "%"),
    ("abft.checkpoint_overhead_pct", "%"),
    ("abft.unfused_overhead_pct", "%"),
    ("abft.correct.us_per_error", "us"),
    ("abft.verifications", "count"),
    ("abft.detected", "count"),
    ("abft.corrected", "count"),
    ("abft.retried_panels", "count"),
    ("abft.unrecoverable", "count"),
    ("faults.injected", "count"),
    ("faults.detected_ratio", "ratio"),
    ("faults.corrected_ratio", "ratio"),
    ("faults.errors_per_min", "1/min"),
    ("parallel.speedup", "x"),
    ("parallel.efficiency", "ratio"),
    ("pool.region_us", "us"),
    ("api.plan_ms", "ms"),
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.batch_occupancy", "req/batch"),
    ("serve.thread_occupancy", "fraction"),
    ("serve.parallel_share", "fraction"),
    ("serve.cutoff_updates", "count"),
    ("serve.queue_wait_us", "us"),
    ("serve.compute_us", "us"),
    ("gen.late_p99_ms", "ms"),
    ("net.submit_ack_us.p50", "us"),
    ("net.submit_ack_us.p99", "us"),
    ("net.bytes_in_per_req", "B"),
    ("net.bytes_out_per_req", "B"),
    ("net.transport_ms", "ms"),
    ("net.upload_mibps", "MiB/s"),
    ("trace.overhead_pct", "%"),
    ("env.steal_pct", "%"),
];

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
}

struct Args {
    workload: String,
    cfg: RunCfg,
    commit: String,
    trace_dir: PathBuf,
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--commit <id>] [--trace-dir <dir>]"
    );
    eprintln!("workloads:");
    for (name, why) in WORKLOADS {
        eprintln!("  {name}: {why}");
    }
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut commit = "unknown".to_string();
    let mut trace_dir = PathBuf::from(".bench_build/perfbench-traces");
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--commit" => commit = value,
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        cfg: RunCfg {
            seed: seed.unwrap_or_else(|| usage("--seed takes a whole number")),
            seconds: seconds.unwrap_or_else(|| usage("--seconds takes a positive number")),
            trace: trace.unwrap_or_else(|| usage("--trace takes 0 or 1")),
            nproc: env::nproc(),
        },
        commit,
        trace_dir,
    }
}

fn main() {
    let args = parse_args();
    let cfg = &args.cfg;
    for line in env::fingerprint(&args.commit) {
        println!("# {line}");
    }
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let steal0 = env::steal_s();
    let t0 = Instant::now();
    let mut report = match args.workload.as_str() {
        "gemm_serial" => gemm::gemm_serial(cfg),
        "gemm_parallel_faulty" => gemm::gemm_parallel_faulty(cfg),
        "serve_inproc" => serve::serve_inproc(cfg),
        "serve_wire" => serve::serve_wire(cfg),
        _ => unreachable!("workload names are checked when parsed"),
    };
    let wall = t0.elapsed().as_secs_f64();
    let rss = env::peak_rss_mib().unwrap_or(f64::NAN);
    report.e2e("peak_rss_mib", rss, "MiB");
    if let (Some(a), Some(b)) = (steal0, env::steal_s()) {
        let pct = 100.0 * (b - a) / (wall * cfg.nproc as f64);
        println!(
            "# steal {:.3} s over {wall:.1} s ({pct:.2} % of the cores)",
            b - a
        );
        report.layer("env.steal_pct", pct, "%");
    }

    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# end-to-end{}:",
        if cfg.trace { " (untraced part)" } else { "" }
    );
    print_metrics(&report, END_TO_END);
    let selected = if cfg.trace {
        println!("# per-layer:");
        print_metrics(&report, PER_LAYER)
    } else {
        select(&report, END_TO_END)
    };

    if let Some(spans) = &report.spans {
        let path = args
            .trace_dir
            .join(format!("{}-seed{}.spans.tsv", args.workload, cfg.seed));
        match spans.write(&path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }

    let t = &report.tally;
    if let Some(why) = &t.first_failure {
        eprintln!(
            "perfbench: {} of {} operations failed; first: {why}",
            t.failed, t.attempted
        );
    }
    println!("# operations attempted {} failed {}", t.attempted, t.failed);
    let correct = t.failed == 0 && t.attempted > 0;
    let valid = selected.iter().all(|m| m.value.is_finite());
    if !valid {
        eprintln!("perfbench: a metric could not be measured");
    }
    println!("{}", result_json(correct, t.attempted, t.failed, &selected));
    if !correct || !valid {
        std::process::exit(1);
    }
}

/// Prints `names` with their units; missing ones print as n/a and are
/// returned as 0.
fn print_metrics(report: &Report, names: &[(&'static str, &'static str)]) -> Vec<Metric> {
    let selected = select(report, names);
    for m in &selected {
        if report.find(m.name).is_some() {
            println!("{:<30} {:>16.6} {}", m.name, m.value, m.unit);
        } else {
            println!(
                "{:<30} {:>16} {} (layer not loaded by this workload)",
                m.name, "n/a", m.unit
            );
        }
    }
    selected
}

fn select(report: &Report, names: &[(&'static str, &'static str)]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| {
            let m = report.find(name).unwrap_or(Metric {
                name,
                value: 0.0,
                unit,
            });
            debug_assert_eq!(m.unit, unit, "unit of {name}");
            m
        })
        .collect()
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // `{:?}` prints the shortest text that reads back as the same
            // f64: every digit measured, and always a valid JSON number.
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let m = [Metric {
            name: "rps",
            value: 1234.5,
            unit: "req/s",
        }];
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"rps\": {\"value\": 1234.5, \"unit\": \"req/s\"}}}"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
        assert_eq!(json.matches("{\"name\": ").count(), listed);
        for (name, _) in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"why\"")),
                "{name}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
