//! The repository benchmark: end-to-end and per-layer performance of the
//! APT-GET toolchain (profile → Eq. 1/Eq. 2 analysis → injection →
//! measurement) and of the `apt-serve` reoptimization daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign-exact --seed 7 --seconds 50 --trace 0
//! ```
//!
//! Every run prints `#`-prefixed diagnostic lines (host fingerprint,
//! seed, simulated-table digest, cross-checks) and, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]); with
//! `--trace 1` a separate traced run reports the per-layer set
//! ([`PER_LAYER`]). `README.md` beside this file defines each metric on
//! each workload and which layer metric should move which end-to-end one.

mod calib;
mod campaign;
mod serve;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`) with their units, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("sim_minsts_per_s", "Minst/s"),
    ("optimize_s", "s"),
    ("apt_speedup_geomean", "x"),
    ("apt_speedup_min", "x"),
    ("sampled_cycle_err_max_pct", "%"),
    ("sampled_cycle_err_mean_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
    ("max_ops_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`) with their units, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_ratio", "ratio"),
    ("workloads.build_s", "s"),
    ("lir.decode_s", "s"),
    ("lir.interp_minsts_per_s", "Minst/s"),
    ("cpu.profile_run_s", "s"),
    ("cpu.exec_s", "s"),
    ("cpu.host_ns_per_sim_inst", "ns"),
    ("mem.accesses", "count"),
    ("mem.host_ns_per_access", "ns"),
    ("mem.llc_mpki", "1/kinst"),
    ("profile.analysis_s", "s"),
    ("passes.inject_s", "s"),
    ("passes.cleanup_s", "s"),
    ("passes.aj_inject_s", "s"),
    ("trace.pf_issued", "count"),
    ("trace.pf_timely_share", "ratio"),
    ("trace.pf_redundant_share", "ratio"),
    ("sample.run_s", "s"),
    ("sample.detail_fraction", "ratio"),
    ("sample.windows", "count"),
    ("bench.cache_load_s", "s"),
    ("ingest.parse_mb_per_s", "MB/s"),
    ("ingest.drift_ms_p50", "ms"),
    ("serve.shard_apply_ms_p50", "ms"),
    ("serve.shard_apply_ms_p99", "ms"),
    ("serve.reopt_ms_p50", "ms"),
    ("serve.reopt_ms_p99", "ms"),
    ("serve.swap_ms_p50", "ms"),
    ("serve.upload_ms_p50", "ms"),
    ("serve.upload_ms_p90", "ms"),
    ("serve.upload_ms_p99", "ms"),
    ("serve.status_ms_p99", "ms"),
    ("serve.queue_depth_max", "count"),
    ("loadgen.lag_ms_p99", "ms"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 50,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("bad {flag}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = value.parse().map_err(bad)?,
            "--seconds" => out.seconds = value.parse().map_err(bad)?,
            "--trace" => out.trace = value.parse::<u8>().map_err(bad)? != 0,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(out)
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (campaign cells, uploads, status reads, output
    /// checks).
    pub attempted: u64,
    /// Operations that failed, were refused or produced wrong output.
    pub failed: u64,
    /// Metric name → value; units come from [`END_TO_END`]/[`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation; a failed check is reported on stdout.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("# CHECK FAILED: {}", what());
        }
    }

    /// Counts `attempted` operations, `failed` of which failed.
    pub fn absorb_counts(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Sets `ok_share`, and `peak_rss_mb` unless the workload already
    /// took it when its measured phase ended (before work that is not
    /// measured, such as computing an accuracy oracle on two threads).
    pub fn finish_common(&mut self) {
        if !self.metrics.contains_key("peak_rss_mb") {
            self.set("peak_rss_mb", peak_rss_mb());
        }
        let ok = self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64;
        self.set("ok_share", ok);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload campaign-exact|serve-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let outcome = match args.workload.as_str() {
        "campaign-exact" => campaign::run(args.seed, budget, args.trace),
        "serve-mixed" => serve::run(args.seed, budget, args.trace),
        other => {
            eprintln!("error: unknown workload `{other}`");
            std::process::exit(2);
        }
    };

    println!(
        "# host {} seed {} workload {} trace {}",
        apt_metrics::snapshot::host_fingerprint(),
        args.seed,
        args.workload,
        args.trace as u8
    );
    println!(
        "# attempted {} failed {} failed_share {:.6}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let mut fields = Vec::new();
    for &(name, unit) in expected {
        match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => fields.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            )),
            _ => missing.push(name),
        }
    }
    if !missing.is_empty() {
        // A metric the run could not produce is a broken benchmark, not a
        // result: print no result line.
        eprintln!("error: run produced no value for {}", missing.join(", "));
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Σ over keys of each key's median sample: the cost of a set of fixed
/// units of work, each repeated through a run. Divided by the run's
/// calibration ([`calib::Speed`]), medians are steadier from run to run
/// than minima, which catch the host's quiet moments unevenly.
pub fn sum_of_medians(samples: &BTreeMap<String, Vec<f64>>) -> f64 {
    samples.values().map(|v| median(v)).sum()
}

/// Peak resident set of this process, MB (`VmHWM`), less the calibration
/// kernel's buffers, which stay resident from before the measured work.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0 - calib::resident_mb())
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Scratch space of the benchmark, inside its own directory (ignored by
/// git): per-run working directories and the accuracy-oracle cache.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// A per-run working directory, removed when dropped.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn new(tag: &str) -> RunDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = work_root().join(format!("run-{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run's working directory");
        RunDir(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Hash of this benchmark binary: simulated results are a function of the
/// code, so cached oracle values are only valid for the binary that made
/// them.
pub fn binary_hash() -> String {
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let bytes = std::fs::read(exe).expect("read the benchmark binary");
    format!("{:016x}", fnv1a(&bytes))
}

/// Per-cell cycle counts of a deterministic reference run, cached under
/// the benchmark's scratch space keyed by binary hash and `key`. `compute`
/// runs only on a cache miss.
pub fn cached_cycles(
    key: &str,
    compute: impl FnOnce() -> BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    let dir = work_root().join("oracle");
    let path = dir.join(format!("{}-{key}.txt", binary_hash()));
    if let Ok(text) = std::fs::read_to_string(&path) {
        let parsed: Option<BTreeMap<String, u64>> = text
            .lines()
            .map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect();
        if let Some(map) = parsed.filter(|m| !m.is_empty()) {
            return map;
        }
    }
    let map = compute();
    let text: String = map.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let _ = std::fs::create_dir_all(&dir);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
    map
}

/// Relative cycle error (percent) of sampled against exact counts, as
/// (max, mean) over the cells. `None` unless both maps hold the same,
/// non-empty set of cells.
pub fn cycle_error_pct(
    sampled: &BTreeMap<String, u64>,
    exact: &BTreeMap<String, u64>,
) -> Option<(f64, f64)> {
    let errs: Vec<f64> = exact
        .iter()
        .filter_map(|(k, &e)| {
            let s = *sampled.get(k)?;
            Some((s as f64 - e as f64).abs() / e.max(1) as f64 * 100.0)
        })
        .collect();
    if errs.is_empty() || errs.len() != exact.len() || errs.len() != sampled.len() {
        return None;
    }
    let max = errs.iter().copied().fold(0.0, f64::max);
    Some((max, errs.iter().sum::<f64>() / errs.len() as f64))
}
