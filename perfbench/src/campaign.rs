//! The `campaign-exact` workload: all 13 Table-3 applications ×
//! {baseline, A&J, APT-GET} through `apt_bench::eval::run_campaign`, with
//! exact simulation at a small scale. Also the campaign plumbing the
//! serve workload shares: campaigns over a subset of applications, exact
//! or sampled, and the traced per-cell loop.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use apt_bench::cache::ProfileCache;
use apt_bench::eval::{
    run_campaign, CacheOutcome, CampaignConfig, CampaignReport, CellResult, SamplingSpec, Variant,
};
use apt_bench::pool::PoolStats;
use apt_bench::AJ_STATIC_DISTANCE;
use apt_lir::{DecodedModule, Interp, RunState};
use apt_sample::{run_sampled, SampleConfig};
use apt_trace::{SpanRecorder, TraceConfig};
use apt_workloads::WorkloadDesc;
use aptget::{
    ainsworth_jones_optimize, execute, execute_traced, geomean, Comparison, PerfStats,
    PipelineConfig, ProfileData,
};

use crate::calib::{self, Speed};
use crate::{
    cached_cycles, cycle_error_pct, fnv1a, median, peak_rss_mb, secs, sum_of_medians, timed,
    Outcome, RunDir,
};

/// Scale of `campaign-exact`: small enough that the known APT-GET
/// slowdowns (BFS, DFS, Graph500) show.
pub const EXACT_SCALE: f64 = 0.05;
/// Set-up repetitions whose median is `setup_s`: at least this many...
const SETUP_REPEATS: usize = 3;
/// ...and, when set-up is cheap, enough to fill this many seconds.
const SETUP_SECONDS: f64 = 3.0;
/// Open-loop rate of the traced serve-layer probe over the campaign's
/// profiles (uploads per second).
const PROBE_RATE: f64 = 8.0;
/// Spans of an APT-GET cell that make up "optimize": profile (run or
/// cache load), analysis, injection and the -O3 clean-up.
const OPTIMIZE_SPANS: [&str; 5] = [
    "profile-run",
    "profile-cache",
    "analysis",
    "injection",
    "o3-cleanup",
];

/// Which campaign, at which scale, for which input seed.
#[derive(Clone, Copy)]
pub struct Plan {
    sampled: bool,
    scale: f64,
    seed: u64,
    /// Applications to run; empty = all 13.
    workloads: &'static [&'static str],
}

impl Plan {
    /// The `campaign-exact` campaign.
    fn exact(seed: u64) -> Plan {
        Plan {
            sampled: false,
            scale: EXACT_SCALE,
            seed,
            workloads: &[],
        }
    }

    /// A campaign over some applications only.
    pub fn subset(
        sampled: bool,
        workloads: &'static [&'static str],
        scale: f64,
        seed: u64,
    ) -> Plan {
        Plan {
            sampled,
            scale,
            seed,
            workloads,
        }
    }

    fn descriptors(&self) -> Vec<WorkloadDesc> {
        if self.workloads.is_empty() {
            return apt_workloads::descriptors(self.scale, self.seed);
        }
        self.workloads
            .iter()
            .map(|n| {
                apt_workloads::registry::by_name(n)
                    .expect("a registered workload")
                    .descriptor(self.scale, self.seed)
            })
            .collect()
    }

    /// The campaign configuration `apteval --no-cache` would build: serial,
    /// default pipeline, default `SampleConfig` when sampled.
    fn config(&self) -> CampaignConfig {
        CampaignConfig {
            workloads: self.workloads.iter().map(|s| s.to_string()).collect(),
            cache: None,
            sampling: self.sampled.then(|| SamplingSpec {
                sample: SampleConfig::default(),
                check_exact: false,
            }),
            ..CampaignConfig::new(self.scale, self.seed, 1)
        }
    }
}

/// Builds every workload's inputs: the work a campaign does before its
/// first simulation.
fn setup(plan: Plan) {
    for desc in plan.descriptors() {
        std::hint::black_box(desc.build());
    }
}

/// One `run_campaign`; a panicking cell (failed check or simulation
/// error) is caught and reported as a failed campaign.
pub fn campaign(plan: Plan) -> Option<CampaignReport> {
    let cfg = plan.config();
    match catch_unwind(AssertUnwindSafe(|| run_campaign(&cfg))) {
        Ok(Ok(r)) => Some(r),
        Ok(Err(e)) => {
            println!("# campaign error: {e}");
            None
        }
        Err(_) => None,
    }
}

pub fn cell_key(c: &CellResult) -> String {
    format!("{}/{}", c.workload, c.variant.name())
}

/// Per-cell cycles of `plan`'s campaign, run on two threads (the
/// table does not depend on the job count); empty if the campaign fails.
pub fn cell_cycles(plan: Plan) -> BTreeMap<String, u64> {
    let mut cfg = plan.config();
    cfg.jobs = 2;
    match catch_unwind(AssertUnwindSafe(|| run_campaign(&cfg))) {
        Ok(Ok(r)) => r
            .cells
            .iter()
            .map(|c| (cell_key(c), c.stats.cycles))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// APT-GET speedups per application, in registry order.
fn apt_speedups(comparisons: &[Comparison]) -> Vec<f64> {
    comparisons
        .iter()
        .map(|c| c.speedup_of("APT-GET").unwrap_or(1.0))
        .collect()
}

/// A cell's optimize spans, seconds (0 outside APT-GET cells).
fn optimize_s(c: &CellResult) -> f64 {
    c.spans
        .iter()
        .filter(|s| s.depth == 0 && OPTIMIZE_SPANS.contains(&s.name.as_str()))
        .map(|s| s.wall_us as f64 / 1e6)
        .sum()
}

/// Per-cell cycles of the same 39 cells simulated by the sampled
/// simulator (default `SampleConfig`), from this very binary.
/// Deterministic, so cached per binary hash and seed.
fn oracle(plan: Plan) -> BTreeMap<String, u64> {
    let sampled = Plan {
        sampled: true,
        ..plan
    };
    let key = format!("sampled-{}-{}", sampled.scale, sampled.seed);
    cached_cycles(&key, || cell_cycles(sampled))
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let plan = Plan::exact(seed);
    if trace {
        run_traced(plan)
    } else {
        run_untraced(plan, budget)
    }
}

/// What one replica of the end-to-end run measured.
#[derive(Default)]
struct Replica {
    attempted: u64,
    failed: u64,
    setup_times: Vec<f64>,
    /// Calibration kernel times, one beside each campaign.
    calib: Vec<f64>,
    /// Per-cell host times across the replica's campaigns.
    cell_s: BTreeMap<String, Vec<f64>>,
    /// Per-cell optimize spans across the replica's APT-GET cells.
    optimize: BTreeMap<String, Vec<f64>>,
    campaigns: usize,
    first: Option<CampaignReport>,
}

/// Replicas of the end-to-end run, one per core, at most two. The host is
/// shared with other tenants, whose load slows each cell by up to 2× for
/// seconds at a time; two replicas on two cores take twice the samples in
/// the same run. The replicas do not slow each other down measurably
/// (measured: 15 campaigns each in 60 s side by side, 14 alone).
pub fn replicas() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The end-to-end run, tracing off: each replica runs back-to-back
/// campaigns for the time budget, with set-up repeated in between, since
/// the host's speed drifts over seconds and samples spread across the
/// run are steadier. The calibration kernel runs beside each campaign.
/// A cell's cost is its median over the run, and host times are reported
/// at the reference speed ([`calib`]).
fn run_untraced(plan: Plan, budget: Duration) -> Outcome {
    let mut o = Outcome::default();
    calib::reserve(replicas());
    // One campaign alone first, untimed: it warms the caches, and the
    // resident set then peaks at one campaign's, not at wherever the two
    // replicas' largest cells happen to meet.
    let mut first = campaign(plan);
    o.check(first.is_some(), || "warm-up campaign failed".into());
    o.set("peak_rss_mb", peak_rss_mb());
    let runs: Vec<Option<Replica>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..replicas())
            .map(|i| scope.spawn(move || replica(plan, budget, i)))
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    let mut setup_times = Vec::new();
    let mut calib = Vec::new();
    let mut cell_s: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut optimize: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut campaigns = 0;
    for r in runs {
        // A replica that panicked outside a campaign leaves no samples.
        let Some(r) = r else {
            o.check(false, || "a replica of the run did not finish".into());
            continue;
        };
        o.absorb_counts(r.attempted, r.failed);
        setup_times.extend(r.setup_times);
        calib.extend(r.calib);
        for (k, v) in r.cell_s {
            cell_s.entry(k).or_default().extend(v);
        }
        for (k, v) in r.optimize {
            optimize.entry(k).or_default().extend(v);
        }
        campaigns += r.campaigns;
        match (&first, r.first) {
            (None, f) => first = f,
            (Some(f), Some(g)) => {
                let same = f.table_text() == g.table_text();
                o.check(same, || "campaign table differs between runs".into());
            }
            (Some(_), None) => {}
        }
    }
    let speed = Speed::from_samples(&calib);
    o.set("setup_s", speed.at_reference(median(&setup_times)));
    println!(
        "# set-ups {}, median {:.6} s as measured",
        setup_times.len(),
        median(&setup_times)
    );

    let Some(report) = first else {
        o.finish_common();
        return o;
    };
    let table = report.table_text();
    for line in table.lines() {
        println!("# {line}");
    }
    println!("# table-digest {:016x}", fnv1a(table.as_bytes()));
    println!("# campaigns {campaigns}");

    let speedups = apt_speedups(&report.comparisons);
    let measured_s = sum_of_medians(&cell_s);
    let measured_opt_s = sum_of_medians(&optimize);
    println!("# as measured: campaign {measured_s:.6} s, optimize {measured_opt_s:.6} s");
    let campaign_s = speed.simulation_at_reference(measured_s);
    let insts: u64 = report.cells.iter().map(|c| c.stats.instructions).sum();
    o.set("campaign_s", campaign_s);
    o.set("sim_minsts_per_s", insts as f64 / campaign_s / 1e6);
    // Mostly the APT-GET profiling run, a simulation.
    o.set("optimize_s", speed.simulation_at_reference(measured_opt_s));
    o.set("apt_speedup_geomean", geomean(&speedups));
    o.set(
        "apt_speedup_min",
        speedups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    o.set("max_ops_per_s", report.cells.len() as f64 / campaign_s);

    let measured = report
        .cells
        .iter()
        .map(|c| (cell_key(c), c.stats.cycles))
        .collect();
    match cycle_error_pct(&oracle(plan), &measured) {
        Some((max, mean)) => {
            o.set("sampled_cycle_err_max_pct", max);
            o.set("sampled_cycle_err_mean_pct", mean);
        }
        None => o.check(false, || "sampled-vs-exact oracle unavailable".into()),
    }
    o.finish_common();
    o
}

/// One replica: back-to-back campaigns until the budget is spent, set-up
/// repeated in step with the replica's progress.
fn replica(plan: Plan, budget: Duration, index: usize) -> Replica {
    let mut r = Replica::default();
    r.setup_times.push(timed(|| setup(plan)).1);
    let mut measured = 0.0;
    let cells = (plan.descriptors().len() * Variant::ALL.len()) as u64;
    loop {
        let ((report, t), k) = calib::beside(index, || timed(|| campaign(plan)));
        r.calib.push(k);
        measured += t;
        match report {
            None => {
                r.attempted += cells;
                r.failed += cells;
            }
            Some(report) => {
                // Every cell that returned passed its workload's check.
                r.attempted += report.cells.len() as u64;
                r.campaigns += 1;
                println!(
                    "# replica {index} campaign {}: {:.3} s",
                    r.campaigns,
                    report.wall_us as f64 / 1e6
                );
                for c in &report.cells {
                    let wall = c.wall_us as f64 / 1e6;
                    r.cell_s.entry(cell_key(c)).or_default().push(wall);
                    if c.variant == Variant::AptGet {
                        r.optimize
                            .entry(cell_key(c))
                            .or_default()
                            .push(optimize_s(c));
                    }
                }
                match &r.first {
                    None => r.first = Some(report),
                    Some(f) => {
                        r.attempted += 1;
                        if f.table_text() != report.table_text() {
                            r.failed += 1;
                            println!("# CHECK FAILED: campaign table differs between runs");
                        }
                    }
                }
            }
        }
        // Keep set-up samples in step with the run's progress: at least
        // `SETUP_REPEATS` of them, and for a cheap set-up about
        // `SETUP_SECONDS` of them, spread across the run.
        let total = budget.as_secs_f64();
        let progress = (measured / total).min(1.0);
        let wanted = (1 + (SETUP_REPEATS as f64 * progress) as usize).min(SETUP_REPEATS);
        while r.setup_times.len() < 50
            && (r.setup_times.len() < wanted
                || r.setup_times.iter().sum::<f64>() < SETUP_SECONDS * progress)
        {
            r.setup_times.push(timed(|| setup(plan)).1);
        }
        // Start another campaign only if it should end within the budget.
        let per = measured / (r.campaigns.max(1)) as f64;
        if measured + per > total {
            break;
        }
    }
    while r.setup_times.len() < SETUP_REPEATS {
        r.setup_times.push(timed(|| setup(plan)).1);
    }
    r
}

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Layers {
    build_s: f64,
    profile_run_s: f64,
    profile_insts: u64,
    exec_s: f64,
    exec_insts: u64,
    mem_accesses: u64,
    llc_misses: u64,
    analysis_s: f64,
    inject_s: f64,
    cleanup_s: f64,
    aj_s: f64,
    pf_issued: u64,
    pf_timely: u64,
    pf_redundant: u64,
    sample_s: f64,
    detail_fraction: Vec<f64>,
    windows: u64,
    cache_load_s: f64,
}

impl Layers {
    /// Accounts one exact (detailed) measurement run.
    fn exact_run(&mut self, secs: f64, stats: &PerfStats) {
        self.exec_s += secs;
        self.exec_insts += stats.instructions;
        self.mem_accesses += stats.mem.loads + stats.mem.stores + stats.mem.sw_pf_issued;
        self.llc_misses += stats.mem.demand_data_rd();
    }
}

/// The traced run: one untraced `run_campaign` as reference, then the
/// same 39 cells driven from this file with a timer around every call
/// into a layer. The traced loop must reproduce the reference table byte
/// for byte; its extra wall time over the reference is the tracing
/// overhead. Each cell is also simulated by the sampled simulator,
/// outside the timed loop, so both the `cpu`/`mem` and the `sample`
/// layers are measured on this workload's cells, and the APT-GET
/// profiles then drive the serve-layer probe.
fn run_traced(plan: Plan) -> Outcome {
    let mut o = Outcome::default();
    let profiles = campaign_layers(plan, &mut o);
    let epochs = profiles
        .iter()
        .flat_map(|(name, profile, stats)| {
            let body = apt_cpu::perfscript::export_perf_script(profile, stats);
            // Two epochs per tenant, so drift detection has a baseline.
            ["000001", "000002"].map(|label| crate::serve::Upload {
                tenant: name.clone(),
                label: label.to_string(),
                body: body.clone(),
            })
        })
        .collect();
    crate::serve::layer_probe(epochs, plan.scale, plan.seed, PROBE_RATE, &mut o);
    o.finish_common();
    o
}

/// Sets every per-layer metric of the campaign layers (and the tracing
/// overhead of the per-cell loop) on `o`; returns each APT-GET cell's
/// profile for the serve-layer probe.
pub fn campaign_layers(plan: Plan, o: &mut Outcome) -> Vec<(String, ProfileData, PerfStats)> {
    let pipeline = PipelineConfig::default();
    let probe_cache_dir = RunDir::new("probe-cache");
    let probe_cache = ProfileCache::new(&probe_cache_dir.0);

    let (reference, ref_wall) = timed(|| campaign(plan));
    o.check(reference.is_some(), || "reference campaign failed".into());

    let mut l = Layers::default();
    let mut cells = Vec::new();
    let mut profiles: Vec<(String, ProfileData, PerfStats)> = Vec::new();
    let mut outside = 0.0; // seconds spent in probes that run_campaign does not do
    let epoch = Instant::now();
    let descs = plan.descriptors();
    for desc in &descs {
        let name = desc.name();
        for variant in Variant::ALL {
            let started = Instant::now();
            let (w, t) = timed(|| desc.build());
            l.build_s += t;
            let mut spans = SpanRecorder::new();
            let (module, hints, cache_outcome) = match variant {
                Variant::Baseline => (w.module.clone(), 0, None),
                Variant::AinsworthJones => {
                    let ((m, _), t) =
                        timed(|| ainsworth_jones_optimize(&w.module, AJ_STATIC_DISTANCE));
                    l.aj_s += t;
                    (m, 0, None)
                }
                Variant::AptGet => {
                    let (exec, t) = timed(|| {
                        execute(&w.module, w.image.clone(), &w.calls, &pipeline.profile_sim)
                    });
                    l.profile_run_s += t;
                    let Ok(exec) = exec else {
                        o.check(false, || format!("{name}: profiling run failed"));
                        continue;
                    };
                    l.profile_insts += exec.stats.instructions;
                    // The campaign runs uncached; a store and load through
                    // a scratch cache measures the cache layer on this
                    // workload's profiles.
                    let key = ProfileCache::key(name, desc.scale, desc.seed, &pipeline.profile_sim);
                    let t0 = Instant::now();
                    probe_cache.store(key, &exec.profile, &exec.stats);
                    let (_, t) = timed(|| probe_cache.load(key));
                    l.cache_load_s += t;
                    outside += secs(t0);
                    let (profile, stats) = (exec.profile, exec.stats);
                    let map = w.module.assign_pcs();
                    let (analysis, t) = timed(|| {
                        apt_profile::analyze_traced(
                            &w.module,
                            &map,
                            &profile,
                            &stats,
                            &pipeline.analysis,
                            &mut spans,
                        )
                    });
                    l.analysis_s += t;
                    let mut optimized = w.module.clone();
                    let (injection, t) =
                        timed(|| apt_passes::inject_prefetches(&mut optimized, &analysis.specs()));
                    l.inject_s += t;
                    let (_, t) = timed(|| apt_passes::optimize_module(&mut optimized));
                    l.cleanup_s += t;
                    profiles.push((name.to_string(), profile, stats));
                    (
                        optimized,
                        injection.injected.len(),
                        Some(CacheOutcome::Uncached),
                    )
                }
            };

            let outcomes_on = variant == Variant::AptGet;
            let trace = if outcomes_on {
                TraceConfig::outcomes()
            } else {
                TraceConfig::off()
            };
            let (r, t) = timed(|| {
                execute_traced(
                    &module,
                    w.image.clone(),
                    &w.calls,
                    &pipeline.measure_sim,
                    trace,
                )
            });
            let measured = r.ok().map(|(exec, report)| {
                l.exact_run(t, &exec.stats);
                if outcomes_on {
                    l.pf_issued += report.outcomes.total.issued;
                    l.pf_timely += report.outcomes.total.timely;
                    l.pf_redundant += report.outcomes.total.redundant;
                }
                (exec.stats, exec.image, exec.rets, exec.timeline)
            });
            // A sampled run of the same cell, which the campaign does not
            // make: it measures the `sample` layer on this workload.
            let (r, t) = timed(|| {
                run_sampled(
                    &module,
                    w.image.clone(),
                    &w.calls,
                    &pipeline.measure_sim,
                    &SampleConfig::default(),
                    TraceConfig::off(),
                )
            });
            outside += t;
            let other_ok = r.is_ok();
            if let Ok(s) = r {
                l.sample_s += t;
                l.detail_fraction.push(s.detail_fraction());
                l.windows += s.windows.len() as u64;
            }
            o.check(other_ok, || {
                format!("{name} [{}]: probe simulation failed", variant.name())
            });

            let Some((stats, image, rets, timeline)) = measured else {
                o.check(false, || {
                    format!("{name} [{}]: simulation failed", variant.name())
                });
                continue;
            };
            let verdict = (w.check)(&image, &rets);
            o.check(verdict.is_ok(), || {
                format!("{name} [{}]: wrong result: {verdict:?}", variant.name())
            });
            cells.push(CellResult {
                workload: name.to_string(),
                variant,
                stats,
                hints,
                cache: cache_outcome,
                wall_us: started.elapsed().as_micros() as u64,
                start_us: started.duration_since(epoch).as_micros() as u64,
                worker: 0,
                spans: spans.into_spans(),
                outcomes: None,
                timeline,
                sampled: None,
            });
        }
    }
    let loop_wall = secs(epoch) - outside;

    // The traced loop must have done exactly the campaign's work.
    let traced_table = (cells.len() == descs.len() * Variant::ALL.len()).then(|| {
        let comparisons = cells
            .chunks_exact(Variant::ALL.len())
            .map(|chunk| Comparison {
                workload: chunk[0].workload.clone(),
                baseline: chunk[0].stats,
                variants: chunk[1..]
                    .iter()
                    .map(|c| (c.variant.name().to_string(), c.stats))
                    .collect(),
            })
            .collect();
        let wall_us = (loop_wall * 1e6) as u64;
        CampaignReport {
            scale: plan.scale,
            seed: plan.seed,
            cells,
            comparisons,
            pool: PoolStats {
                jobs: 1,
                executed: vec![(descs.len() * Variant::ALL.len()) as u64],
                steals: vec![0],
                busy_us: vec![wall_us],
                wall_us,
            },
            wall_us,
            cache_counts: (0, 0, 0),
        }
        .table_text()
    });
    let reference_table = reference.as_ref().map(|r| r.table_text());
    o.check(
        traced_table.is_some() && traced_table == reference_table,
        || "traced per-cell loop does not reproduce run_campaign's table".into(),
    );
    if let Some(t) = &reference_table {
        println!("# table-digest {:016x}", fnv1a(t.as_bytes()));
    }
    println!("# traced loop {loop_wall:.3} s, reference campaign {ref_wall:.3} s");

    lir_probe(plan, o);

    let insts = (l.profile_insts + l.exec_insts).max(1) as f64;
    o.set("trace.overhead_ratio", loop_wall / ref_wall);
    o.set("workloads.build_s", l.build_s);
    o.set("cpu.profile_run_s", l.profile_run_s);
    o.set("cpu.exec_s", l.exec_s);
    o.set(
        "cpu.host_ns_per_sim_inst",
        (l.profile_run_s + l.exec_s) * 1e9 / insts,
    );
    o.set("mem.accesses", l.mem_accesses as f64);
    o.set(
        "mem.host_ns_per_access",
        l.exec_s * 1e9 / l.mem_accesses.max(1) as f64,
    );
    o.set(
        "mem.llc_mpki",
        l.llc_misses as f64 * 1000.0 / l.exec_insts.max(1) as f64,
    );
    o.set("profile.analysis_s", l.analysis_s);
    o.set("passes.inject_s", l.inject_s);
    o.set("passes.cleanup_s", l.cleanup_s);
    o.set("passes.aj_inject_s", l.aj_s);
    o.set("trace.pf_issued", l.pf_issued as f64);
    o.set(
        "trace.pf_timely_share",
        l.pf_timely as f64 / l.pf_issued.max(1) as f64,
    );
    o.set(
        "trace.pf_redundant_share",
        l.pf_redundant as f64 / l.pf_issued.max(1) as f64,
    );
    o.set("sample.run_s", l.sample_s);
    o.set("sample.detail_fraction", median(&l.detail_fraction));
    o.set("sample.windows", l.windows as f64);
    o.set("bench.cache_load_s", l.cache_load_s);
    profiles
}

/// The predecoded `apt-lir` interpreter on each application's calls:
/// decode time and functional-execution rate. The final image and return
/// values must pass the workload's check.
fn lir_probe(plan: Plan, o: &mut Outcome) {
    let mut decode_s = 0.0;
    let mut interp_s = 0.0;
    let mut steps = 0u64;
    for desc in plan.descriptors() {
        let w = desc.build();
        let (code, t) = timed(|| DecodedModule::decode(&w.module));
        decode_s += t;
        let mut image = w.image.clone();
        let mut rets = Vec::with_capacity(w.calls.len());
        let t0 = Instant::now();
        for (func, args) in &w.calls {
            let ret = code.func_by_name(func).and_then(|(_, f)| {
                let mut it = Interp::new(f, args).ok()?;
                loop {
                    match it.run(&mut image, u64::MAX).ok()? {
                        RunState::Done(r) => {
                            steps += it.steps();
                            return Some(r);
                        }
                        RunState::Paused => {}
                    }
                }
            });
            rets.push(ret.flatten());
        }
        interp_s += secs(t0);
        let verdict = (w.check)(&image, &rets);
        o.check(verdict.is_ok(), || {
            format!("{}: interpreter result wrong: {verdict:?}", desc.name())
        });
    }
    o.set("lir.decode_s", decode_s);
    o.set("lir.interp_minsts_per_s", steps as f64 / interp_s / 1e6);
}
