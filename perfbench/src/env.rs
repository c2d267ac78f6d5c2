//! The machine fingerprint printed with every result, so a reader can tell
//! a noisy-neighbour run from a regression.

use ftgemm::core::{CacheInfo, GemmContext, IsaLevel};

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Machine-wide steal time so far, in seconds (`/proc/stat`, USER_HZ
/// ticks). `None` where the kernel does not report it.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The glibc allocator settings the run was started with.
fn allocator_env() -> String {
    let vars = [
        "MALLOC_ARENA_MAX",
        "MALLOC_MMAP_THRESHOLD_",
        "MALLOC_TRIM_THRESHOLD_",
    ];
    let set: Vec<String> = vars
        .iter()
        .filter_map(|v| Some(format!("{v}={}", std::env::var(v).ok()?)))
        .collect();
    if set.is_empty() {
        "defaults".into()
    } else {
        set.join(" ")
    }
}

/// Lines describing the ISA tier, caches, blocking, cores and commit.
pub fn fingerprint(commit: &str) -> Vec<String> {
    let cache = CacheInfo::detect();
    let ctx = GemmContext::<f64>::new();
    let p = ctx.params;
    vec![
        format!(
            "isa {} (kernel {}, {}x{})",
            IsaLevel::detect(),
            ctx.kernel.name,
            ctx.kernel.mr,
            ctx.kernel.nr
        ),
        format!(
            "cache l1d {} KiB, l2 {} KiB, l3 {} KiB, line {} B",
            cache.l1d / 1024,
            cache.l2 / 1024,
            cache.l3 / 1024,
            cache.line
        ),
        format!(
            "blocking mr {} nr {} mc {} nc {} kc {}",
            p.mr, p.nr, p.mc, p.nc, p.kc
        ),
        format!("nproc {}", nproc()),
        format!("allocator {}", allocator_env()),
        format!("commit {commit}"),
    ]
}
