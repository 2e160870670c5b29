//! Pieces every workload shares: the run arguments, the result line,
//! order statistics, the output checks' bookkeeping and the run header.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How many times each workload repeats its set-up; `setup_s` is the
/// median, so one slow scheduling slice does not decide the figure.
pub const SETUP_REPEATS: usize = 15;

/// One run's parameters, as given on the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the measured
    /// run (end-to-end metrics).
    pub trace: bool,
    /// Quick mode: tiny sizes, every check still on.
    pub quick: bool,
}

impl RunArgs {
    /// The timed phase as a `Duration`.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations sent or started.
    pub attempted: u64,
    /// Operations that got no valid answer.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Output-check failures; any entry makes the run incorrect.
    pub check_failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed output check (kept short: the first few are
    /// printed, all are counted).
    pub fn fail(&mut self, msg: String) {
        self.check_failures.push(msg);
    }

    /// Records `msg` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// The result line: one JSON object, the last line of stdout.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.check_failures.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of a slice (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (d[(j - 1) as usize] * (4.0 - delta) + d[j as usize] * delta) / 4.0;
    }
    out
}

/// Sub-buckets per power of two in [`LatencyHist`]: values are kept to
/// within 1/128 (0.8%).
const SUB: usize = 128;

/// A fixed-size log-linear histogram of nanosecond latencies.
///
/// Allocated once, so the benchmark's own memory does not grow with the
/// number of operations and `peak_rss_mb` stays the program's figure.
#[derive(Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    total: u64,
}

impl LatencyHist {
    pub fn new() -> LatencyHist {
        LatencyHist {
            counts: vec![0; SUB * 42],
            total: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros() as usize;
        let sub = (ns >> (e - 7)) as usize & (SUB - 1);
        ((e - 6) * SUB + sub).min(SUB * 42 - 1)
    }

    /// The midpoint of a bucket's range.
    fn value(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let e = idx / SUB + 6;
        let lower = ((SUB + idx % SUB) as u64) << (e - 7);
        lower + (1u64 << (e - 7)) / 2
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile (ns) and the number of samples in buckets
    /// above it.
    pub fn percentile(&self, p: f64) -> (u64, u64) {
        if self.total == 0 {
            return (0, 0);
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return (Self::value(i), self.total - seen);
            }
        }
        unreachable!("rank within total")
    }
}

/// Operations and latencies of a timed phase, per one-second window.
pub struct Windows {
    start: Instant,
    windows: Vec<LatencyHist>,
}

impl Windows {
    /// Windows for a phase of `len` starting at `start` (a trailing
    /// partial second gets its own window, which the medians ignore).
    pub fn new(start: Instant, len: Duration) -> Windows {
        Windows {
            start,
            windows: vec![LatencyHist::new(); len.as_secs_f64().ceil() as usize],
        }
    }

    /// Records one operation completed at `at` after `ns` of latency.
    pub fn record(&mut self, at: Instant, ns: u64) {
        let w = ((at - self.start).as_secs() as usize).min(self.windows.len() - 1);
        self.windows[w].record(ns);
    }

    fn full(&self) -> &[LatencyHist] {
        let n = self.windows.len();
        if n > 1 {
            &self.windows[..n - 1]
        } else {
            &self.windows
        }
    }

    /// Operations per window, in order.
    pub fn counts(&self) -> Vec<u64> {
        self.windows.iter().map(LatencyHist::len).collect()
    }

    /// Median over full windows of the operations each completed: the
    /// throughput in ops/s, robust to seconds in which the host was slow.
    pub fn median_rate(&self) -> f64 {
        let rates: Vec<f64> = self.full().iter().map(|w| w.len() as f64).collect();
        median(&rates)
    }

    /// Median over full windows of each window's percentile `p`, in ns,
    /// and the fewest samples any window left above its percentile.
    pub fn median_percentile(&self, p: f64) -> (f64, u64) {
        let per: Vec<(u64, u64)> = self.full().iter().map(|w| w.percentile(p)).collect();
        let values: Vec<f64> = per.iter().map(|&(v, _)| v as f64).collect();
        (
            median(&values),
            per.iter().map(|&(_, a)| a).min().unwrap_or(0),
        )
    }
}

/// Adds a serving phase's throughput and p50 latency metrics: medians
/// over its one-second windows of the operations completed and of each
/// window's p50. The p99 (median of per-window p99s) is printed, not
/// reported: its run-to-run spread on a shared 2-core host is wider than
/// any bound a gate may use (see README.md). Checks that every window
/// left at least ten samples above its p99.
pub fn serving_metrics(out: &mut Outcome, workload: &str, w: &Windows, quick: bool) {
    let (p50, _) = w.median_percentile(0.50);
    let (p99, above) = w.median_percentile(0.99);
    out.check(above >= 10 || quick, || {
        format!("a one-second window left only {above} latency samples above its p99")
    });
    println!("# {workload}: completions per second {:?}", w.counts());
    println!("# {workload}: latency_p99_us {:.3}", p99 / 1e3);
    out.metric("throughput_ops_s", w.median_rate(), "ops/s");
    out.metric("latency_p50_us", p50 / 1e3, "us");
}

/// Signal-to-noise ratio of `got` against `reference`, in dB.
#[derive(Debug, Default, Clone, Copy)]
pub struct Snr {
    signal: f64,
    noise: f64,
}

impl Snr {
    pub fn add(&mut self, reference: f64, got: f64) {
        self.signal += reference * reference;
        self.noise += (reference - got) * (reference - got);
    }

    pub fn db(&self) -> f64 {
        10.0 * (self.signal / self.noise.max(f64::MIN_POSITIVE)).log10()
    }
}

/// Index of the largest value (first on ties).
pub fn argmax<T: PartialOrd + Copy>(v: &[T]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// `VmHWM` of this process in MiB, read from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` [`SETUP_REPEATS`] times (fewer in quick mode), dropping
/// all but the last result, and returns it with the median set-up time
/// in seconds.
pub fn repeated_setup<T>(quick: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let repeats = if quick { 2 } else { SETUP_REPEATS };
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        // Drop the previous instance first so its teardown is not timed.
        drop(last.take());
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Median wall time of `f` in microseconds over `reps` calls, after one
/// untimed warm-up call.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// The commit this tree was built from, read from `.git` without
/// starting a process; "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run header: where every figure of this run came from.
pub fn print_header(workload: &str, args: &RunArgs) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("RPBCM_THREADS").unwrap_or_else(|_| "unset".to_string());
    let overrides: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("RPBCM_SERVE_") || k == "RPBCM_TELEMETRY")
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "# perfbench workload={workload} seed={} seconds={} trace={} quick={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );
    println!(
        "# host_cores={cores} RPBCM_THREADS={threads} tensor_workers={}",
        tensor::parallel::max_workers()
    );
    println!("# serve_config={:?}", serve::ServeConfig::default());
    println!(
        "# env_overrides={} (ignored: the benchmark uses ServeConfig::default())",
        if overrides.is_empty() {
            "none".to_string()
        } else {
            overrides.join(",")
        }
    );
    println!("# commit={}", commit());
}

/// Parameter counts recounted from the layer snapshots: `(dense
/// equivalent, folded)`. A block-circulant layer counts `c_out·c_in·k²`
/// dense and `BS` per live block folded; every other parameter counts
/// the same on both sides.
pub fn param_counts(net: &nn::Network) -> (usize, usize) {
    use nn::layers::checkpoint::LayerSnapshot as S;
    let live = |l: &[bool]| l.iter().filter(|&&b| b).count();
    let (mut dense, mut folded) = (0, 0);
    for layer in net.layers() {
        let (d, f) = match layer.snapshot().expect("benchmark models snapshot") {
            S::BcmConv2d {
                c_in,
                c_out,
                kernel,
                bs,
                live: l,
                ..
            } => (c_in * c_out * kernel * kernel, live(&l) * bs),
            S::BcmLstm {
                in_features,
                hidden,
                bs,
                live: l,
                bias,
                ..
            } => (
                4 * hidden * (in_features + hidden) + bias.len(),
                live(&l) * bs + bias.len(),
            ),
            S::Linear { weight, bias, .. } => {
                (weight.len() + bias.len(), weight.len() + bias.len())
            }
            S::Conv2d { weight, .. } => (weight.len(), weight.len()),
            S::BatchNorm2d { gamma, beta, .. } => {
                (gamma.len() + beta.len(), gamma.len() + beta.len())
            }
            _ => (0, 0),
        };
        dense += d;
        folded += f;
    }
    (dense, folded)
}

/// Dense-equivalent parameters over folded inference parameters.
pub fn compression(net: &nn::Network) -> f64 {
    let (dense, folded) = param_counts(net);
    dense as f64 / folded.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn latency_histogram_keeps_values_within_a_percent() {
        let mut h = LatencyHist::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let (p50, above) = h.percentile(0.5);
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.01, "{p50}");
        assert!((499..=501).contains(&above), "{above}");
        let (p99, above) = h.percentile(0.99);
        assert!((p99 as f64 - 990_000.0).abs() / 990_000.0 < 0.01, "{p99}");
        assert!(above >= 9, "{above}");
        assert_eq!(LatencyHist::index(5), 5);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("latency_ms", 1.5, "ms");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
