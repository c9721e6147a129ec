//! The `serve-mixed` workload: an open loop from this process, over at
//! most two connections, into one `apt_serve::Daemon` whose reoptimizer is
//! the closure `aptgetsim serve` builds (`by_name` → `optimize_from_db` →
//! `serialize_hints`). Also the serve-layer probe the traced runs of
//! every workload share.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apt_bench::eval::Variant;
use apt_ingest::{
    detect_drift, parse_str, AggregateProfile, Epoch, GenTag, IdentityRemap, ProfileDb,
};
use apt_serve::oplog::Stage;
use apt_serve::{
    read_oplog_dir, Client, ClientError, Daemon, FnReoptimizer, HintSwapper, OpKind, OpLogConfig,
    ServeConfig, ShardStore,
};
use apt_trace::TraceConfig;
use apt_workloads::registry::by_name;
use aptget::{execute_traced, geomean, AptGet, Machine, PipelineConfig};

use crate::calib::{self, Speed};
use crate::campaign::{self, Plan};
use crate::{cycle_error_pct, median, quantile, secs, sum_of_medians, timed, Outcome, RunDir};

/// The daemon's tenants, named after the workloads whose profiles they
/// upload: two whose epochs drift, two that stay steady.
const TENANTS: [&str; 4] = ["BFS", "Graph500", "HJ8-NPO", "RandAcc"];
/// Tenants whose epochs alternate between DRAM latency 1× and 4×.
const DRIFTING: [&str; 2] = ["BFS", "Graph500"];
/// Workload scale of the rendered epoch bodies (and of the reoptimizer).
const SERVE_SCALE: f64 = 0.02;
/// Epochs each shard keeps.
const EPOCH_CAP: usize = 16;
/// Every `STATUS_EVERY`-th request is a status read.
const STATUS_EVERY: usize = 8;
/// Client connections (the sandbox has two cores).
const CONNECTIONS: usize = 2;
/// Latency limit, ms: a ladder rung meets it when no request fails and
/// the median upload latency and generator lag, timed from when each
/// request was due, stay within it — over the whole rung and over its
/// last quarter, where a growing backlog is longest. The host stalls of
/// a shared machine, which reach a few hundred ms, do not move a median
/// (a p99 or p90 limit would fail healthy rungs on them).
const LIMIT_MS: f64 = 50.0;
/// The rate ladder: (offered requests per second, share of the time
/// budget) per stretch. The host's speed drifts by up to 1.8× in phases
/// of seconds, so each rate is visited in short stretches spread over
/// the run and judged by its least-disturbed stretch: twelve at the
/// reference rate, and 50/s, 200/s and, last, 400/s — past the knee,
/// which sits near 300/s on two cores.
const LADDER: [(f64, f64); 18] = [
    (REFERENCE_RATE, REFERENCE_STRETCH),
    (50.0, 0.04),
    (REFERENCE_RATE, REFERENCE_STRETCH),
    (200.0, 0.06),
    (REFERENCE_RATE, REFERENCE_STRETCH),
    (REFERENCE_RATE, REFERENCE_STRETCH),
    (200.0, 0.06),
    (REFERENCE_RATE, REFERENCE_STRETCH),
    (50.0, 0.04),
    (REFERENCE_RATE, REFERENCE_STRETCH),
    (REFERENCE_RATE, REFERENCE_STRETCH),
    (200.0, 0.06),
    (REFERENCE_RATE, REFERENCE_STRETCH),
    (REFERENCE_RATE, REFERENCE_STRETCH),
    (REFERENCE_RATE, REFERENCE_STRETCH),
    (REFERENCE_RATE, REFERENCE_STRETCH),
    (REFERENCE_RATE, REFERENCE_STRETCH),
    (400.0, 0.06),
];
/// Share of the time budget the ladder takes. The rest goes to the
/// tenants' exact campaign, run between the stretches while the daemon
/// is idle.
const LADDER_SHARE: f64 = 0.8;
/// The rate whose upload latencies the run reports.
const REFERENCE_RATE: f64 = 100.0;
/// Share of the time budget of one reference stretch.
const REFERENCE_STRETCH: f64 = 0.056;
/// Share of the time budget spent at the reference rate.
const REFERENCE_SHARE: f64 = 12.0 * REFERENCE_STRETCH;
/// Hint generation the steady tenants' outcome records are tagged with.
const STEADY_GEN: u64 = 1;

/// One epoch upload.
#[derive(Clone)]
pub struct Upload {
    pub tenant: String,
    pub label: String,
    pub body: String,
}

type Reopt = Arc<dyn Fn(&str, &ProfileDb) -> Result<Vec<u8>, String> + Send + Sync>;

/// The reoptimizer `aptgetsim serve` installs: tenants are workload
/// names; hints come from the shard's merged history.
fn reoptimizer(scale: f64, seed: u64) -> Reopt {
    Arc::new(move |tenant: &str, db: &ProfileDb| {
        let spec = by_name(tenant)
            .ok_or_else(|| format!("tenant `{tenant}` is not a registered workload"))?;
        let w = spec.build(scale, seed);
        let opt = AptGet::new(PipelineConfig::default()).optimize_from_db(&w.module, db);
        Ok(aptget::hintfile::serialize_hints(&opt.analysis.hints).into_bytes())
    })
}

/// One parsed epoch, as the daemon's upload handler builds it.
fn aggregate(body: &str) -> Result<AggregateProfile, String> {
    let ing = parse_str(body, &IdentityRemap).map_err(|e| e.to_string())?;
    let mut agg = AggregateProfile::from_profile(&ing.profile, &ing.stats_or_default());
    agg.gen = match ing.generation {
        Some(g) => GenTag::Gen(g),
        None => GenTag::Untagged,
    };
    agg.pf_outcomes = ing.outcomes;
    Ok(agg)
}

/// Deploys a first hint generation for `tenant`, derived from `body`
/// alone (the fleet's state before the daemon sees any epoch).
fn deploy_initial(hints_dir: &Path, tenant: &str, body: &str, reopt: &Reopt) -> Result<(), String> {
    let mut db = ProfileDb::new();
    db.push_epoch("seed", aggregate(body)?);
    let bytes = reopt(tenant, &db)?;
    HintSwapper::open(hints_dir.join(tenant))
        .and_then(|s| s.swap_in(&bytes, "initial deployment"))
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// What set-up prepares: rendered bodies plus the tenants' own campaign.
struct Setup {
    /// `[dram 1×, dram 4×]` bodies of the drifting tenants.
    drifting: BTreeMap<&'static str, [String; 2]>,
    /// Tagged bodies of the steady tenants.
    steady: BTreeMap<&'static str, String>,
    /// APT-GET speedup of each tenant in the tenants' exact campaign at
    /// the serve scale.
    speedups: Vec<f64>,
    /// Simulated instructions and host seconds of each tenant-campaign
    /// cell.
    cell_work: BTreeMap<String, (u64, f64)>,
    cells: u64,
    failures: Vec<String>,
}

/// Renders real epoch bodies by simulation and runs the tenants' own
/// exact campaign (the only place the `cpu`/`mem` layers run here).
fn setup(seed: u64) -> Setup {
    let mut s = Setup {
        drifting: BTreeMap::new(),
        steady: BTreeMap::new(),
        speedups: Vec::new(),
        cell_work: BTreeMap::new(),
        cells: 0,
        failures: Vec::new(),
    };
    for tenant in TENANTS {
        let spec = by_name(tenant).expect("tenant is a registered workload");
        if DRIFTING.contains(&tenant) {
            let bodies = [1, 4].map(|dram_scale| {
                let w = spec.build(SERVE_SCALE, seed);
                let mut cfg = PipelineConfig::default().profile_sim;
                cfg.mem.dram_latency *= dram_scale;
                let mut m = Machine::new(&w.module, cfg, w.image);
                let rets: Result<Vec<_>, _> =
                    w.calls.iter().map(|(f, args)| m.call(f, args)).collect();
                match rets.map(|r| (w.check)(&m.image, &r)) {
                    Ok(Ok(())) => {}
                    other => s
                        .failures
                        .push(format!("{tenant} dram×{dram_scale} render: {other:?}")),
                }
                m.export_perf_script()
            });
            s.drifting.insert(tenant, bodies);
        } else {
            let w = spec.build(SERVE_SCALE, seed);
            let cfg = PipelineConfig::default();
            let body = AptGet::new(cfg)
                .optimize(&w.module, w.image.clone(), &w.calls)
                .and_then(|opt| {
                    execute_traced(
                        &opt.module,
                        w.image,
                        &w.calls,
                        &cfg.profile_sim,
                        TraceConfig::outcomes(),
                    )
                })
                .map(|(exec, report)| {
                    if let Err(e) = (w.check)(&exec.image, &exec.rets) {
                        s.failures.push(format!("{tenant} render: {e}"));
                    }
                    apt_cpu::perfscript::export_perf_script_tagged(
                        &exec.profile,
                        &exec.stats,
                        STEADY_GEN,
                        &report.outcomes,
                    )
                });
            match body {
                Ok(b) => {
                    s.steady.insert(tenant, b);
                }
                Err(e) => s.failures.push(format!("{tenant} render: {e}")),
            }
        }
    }

    match campaign::campaign(tenants_plan(false, seed)) {
        Some(r) => {
            s.cells = r.cells.len() as u64;
            s.speedups = r
                .comparisons
                .iter()
                .map(|c| c.speedup_of("APT-GET").unwrap_or(1.0))
                .collect();
            s.cell_work = r
                .cells
                .iter()
                .map(|c| {
                    let work = (c.stats.instructions, c.wall_us as f64 / 1e6);
                    (campaign::cell_key(c), work)
                })
                .collect();
        }
        None => s.failures.push("tenant campaign failed".into()),
    }
    s
}

/// The tenants' exact campaign, back to back on every core for `dur`
/// (at least once each). These repetitions, spread between the ladder's
/// stretches, give `sim_minsts_per_s` each cell's median time over the
/// whole run. The calibration kernel runs beside each campaign; its times
/// go to `calib`.
fn tenant_campaigns(
    seed: u64,
    dur: Duration,
    cell_s: &mut BTreeMap<String, Vec<f64>>,
    calib: &mut Vec<f64>,
    o: &mut Outcome,
) {
    let plan = tenants_plan(false, seed);
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..campaign::replicas())
            .map(|i| {
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut last = Duration::ZERO;
                    let mut out = Vec::new();
                    while out.is_empty() || start.elapsed() + last <= dur {
                        let t = Instant::now();
                        out.push(calib::beside(i, || campaign::campaign(plan)));
                        last = t.elapsed();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let cells = (TENANTS.len() * Variant::ALL.len()) as u64;
    for (report, k) in reports {
        calib.push(k);
        match report {
            Some(r) => {
                o.absorb_counts(r.cells.len() as u64, 0);
                for c in &r.cells {
                    let wall = c.wall_us as f64 / 1e6;
                    cell_s.entry(campaign::cell_key(c)).or_default().push(wall);
                }
            }
            None => o.absorb_counts(cells, cells),
        }
    }
}

/// One request of the open loop.
#[derive(Clone)]
enum Request {
    Upload(Upload),
    Status(String),
}

/// Builds the request stream: uploads cycle through the tenants with
/// strictly increasing labels; every `STATUS_EVERY`-th request reads a
/// tenant's status instead.
struct Mix<'a> {
    setup: &'a Setup,
    requests: usize,
    uploads: usize,
    per_tenant: BTreeMap<&'static str, usize>,
}

impl<'a> Mix<'a> {
    fn new(setup: &'a Setup) -> Mix<'a> {
        Mix {
            setup,
            requests: 0,
            uploads: 0,
            per_tenant: BTreeMap::new(),
        }
    }

    fn next_request(&mut self) -> Request {
        self.requests += 1;
        if self.requests.is_multiple_of(STATUS_EVERY) {
            let t = TENANTS[(self.requests / STATUS_EVERY) % TENANTS.len()];
            return Request::Status(t.to_string());
        }
        let tenant = TENANTS[self.uploads % TENANTS.len()];
        self.uploads += 1;
        let n = self.per_tenant.entry(tenant).or_insert(0);
        let body = match self.setup.drifting.get(tenant) {
            Some(bodies) => bodies[*n % 2].clone(),
            None => self.setup.steady[tenant].clone(),
        };
        *n += 1;
        Request::Upload(Upload {
            tenant: tenant.to_string(),
            label: format!("{:012}", self.uploads),
            body,
        })
    }
}

/// One finished request.
struct Sample {
    /// Position in the rung's schedule.
    index: usize,
    upload: bool,
    ok: bool,
    /// From when the request was due to when its reply arrived.
    latency_ms: f64,
    /// From when it was due to when it was sent.
    lag_ms: f64,
    done: Instant,
}

/// Sends `requests` at `rate` per second from `CONNECTIONS` connections,
/// each request timed from when it was due.
fn open_loop(addr: std::net::SocketAddr, requests: &[Request], rate: f64) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let samples = Mutex::new(Vec::with_capacity(requests.len()));
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| {
                let mut client: Option<Client> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = requests.get(i) else { break };
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let ok = send(&mut client, addr, req);
                    let done = Instant::now();
                    samples.lock().expect("sample lock").push(Sample {
                        index: i,
                        upload: matches!(req, Request::Upload(_)),
                        ok,
                        latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                        lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                        done,
                    });
                }
            });
        }
    });
    samples.into_inner().expect("sample lock")
}

/// One request over the connection, reconnecting after a transport
/// error. A refusal, error or timeout is a failed request.
fn send(client: &mut Option<Client>, addr: std::net::SocketAddr, req: &Request) -> bool {
    if client.is_none() {
        *client = Client::connect(addr).ok();
    }
    let Some(c) = client.as_mut() else {
        return false;
    };
    let result = match req {
        Request::Upload(u) => c
            .upload_reader(
                &u.tenant,
                &u.label,
                u.body.len() as u64,
                &mut u.body.as_bytes(),
            )
            .map(|_| ()),
        Request::Status(t) => c.status(t).map(|_| ()),
    };
    match result {
        Ok(()) => true,
        Err(ClientError::Server(m)) => {
            println!("# request refused: {m}");
            false
        }
        Err(e) => {
            println!("# request failed: {e}");
            *client = None;
            false
        }
    }
}

/// A daemon over fresh directories under `dir`.
fn start_daemon(
    dir: &Path,
    reopt: &Reopt,
    registry: apt_metrics::Registry,
    oplog: bool,
) -> std::io::Result<Daemon> {
    let mut cfg = ServeConfig::new("127.0.0.1:0", dir.join("db"), dir.join("hints"));
    cfg.epoch_cap = EPOCH_CAP;
    cfg.registry = registry;
    if oplog {
        cfg.oplog = Some(OpLogConfig::new(dir.join("oplog")));
    }
    let r = Arc::clone(reopt);
    Daemon::start(
        cfg,
        Arc::new(FnReoptimizer(move |t: &str, db: &ProfileDb| r(t, db))),
    )
}

/// Each tenant's final `current.hints` must equal an offline
/// reoptimization of its final shard.
fn check_final_hints(dir: &Path, reopt: &Reopt, o: &mut Outcome) {
    let store = ShardStore::open(dir.join("db")).expect("open the shard directory");
    for tenant in TENANTS {
        let want = reopt(tenant, &store.load(tenant));
        let got = std::fs::read(dir.join("hints").join(tenant).join("current.hints"));
        o.check(matches!((&want, &got), (Ok(w), Ok(g)) if w == g), || {
            format!("{tenant}: current.hints differs from offline optimize_from_db")
        });
    }
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    if trace {
        return run_traced(seed, budget);
    }
    let mut o = Outcome::default();
    calib::reserve(campaign::replicas());
    // Set-up repeats between ladder rungs, while the daemon is idle: the
    // host's speed drifts over seconds, and set-up samples spread across
    // the run are steadier than back-to-back ones.
    let (setup, first_setup_s) = timed(|| setup(seed));
    let mut setup_times = vec![first_setup_s];
    let mut calib = Vec::new();
    let mut cell_s: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let account = |s: &Setup, o: &mut Outcome, cell_s: &mut BTreeMap<String, Vec<f64>>| {
        o.absorb_counts(s.cells, 0);
        for f in &s.failures {
            o.check(false, || f.clone());
        }
        for (key, (_, t)) in &s.cell_work {
            cell_s.entry(key.clone()).or_default().push(*t);
        }
    };
    account(&setup, &mut o, &mut cell_s);

    let dir = RunDir::new("serve");
    let reopt = reoptimizer(SERVE_SCALE, seed);
    for (tenant, body) in &setup.steady {
        let r = deploy_initial(&dir.0.join("hints"), tenant, body, &reopt);
        o.check(r.is_ok(), || format!("{tenant}: initial deployment: {r:?}"));
    }
    // The daemon's own reoptimizations of full (epoch-cap) shards, timed
    // per tenant: `optimize_s` takes each tenant's fastest, the cost
    // without the queueing the ladder's rates put beside it.
    let reopt_s: Arc<Mutex<BTreeMap<String, Vec<f64>>>> = Arc::default();
    let timed_reopt: Reopt = {
        let (inner, sink) = (Arc::clone(&reopt), Arc::clone(&reopt_s));
        Arc::new(move |t: &str, db: &ProfileDb| {
            let (r, s) = timed(|| inner(t, db));
            if db.epochs.len() == EPOCH_CAP {
                let mut sink = sink.lock().expect("timer lock");
                sink.entry(t.to_string()).or_default().push(s);
            }
            r
        })
    };
    let daemon = match start_daemon(
        &dir.0,
        &timed_reopt,
        apt_metrics::Registry::disabled(),
        false,
    ) {
        Ok(d) => d,
        Err(e) => {
            o.check(false, || format!("daemon did not start: {e}"));
            o.finish_common();
            return o;
        }
    };
    let addr = daemon.addr();

    // The ladder: one daemon, its stretches in `LADDER` order.
    let mut mix = Mix::new(&setup);
    let mut ladder_s = 0.0;
    // (rate, achieved rate, met the limit) per rung.
    let mut rungs: Vec<(f64, f64, bool)> = Vec::new();
    // Upload latencies at the reference rate.
    let mut reference: Vec<f64> = Vec::new();
    let gap = budget.mul_f64((1.0 - LADDER_SHARE) / (LADDER.len() - 1) as f64);
    for (i, (rate, share)) in LADDER.into_iter().enumerate() {
        if i > 0 {
            tenant_campaigns(seed, gap, &mut cell_s, &mut calib, &mut o);
        }
        if i > 0 && i.is_multiple_of(2) {
            let (again, t) = timed(|| self::setup(seed));
            setup_times.push(t);
            account(&again, &mut o, &mut cell_s);
        }
        let n = (rate * budget.as_secs_f64() * LADDER_SHARE * share)
            .round()
            .max(1.0) as usize;
        let requests: Vec<Request> = (0..n).map(|_| mix.next_request()).collect();
        let rung_start = Instant::now();
        let samples = open_loop(addr, &requests, rate);
        ladder_s += secs(rung_start);
        let failed = samples.iter().filter(|s| !s.ok).count();
        o.absorb_counts(samples.len() as u64, failed as u64);
        let up: Vec<f64> = samples
            .iter()
            .filter(|s| s.upload && s.ok)
            .map(|s| s.latency_ms)
            .collect();
        let lag: Vec<f64> = samples.iter().map(|s| s.lag_ms).collect();
        let last = samples.iter().map(|s| s.done).max().unwrap_or(rung_start);
        let achieved = samples.len() as f64 / last.duration_since(rung_start).as_secs_f64();
        let tail: Vec<f64> = samples
            .iter()
            .filter(|s| s.upload && s.ok && s.index >= n * 3 / 4)
            .map(|s| s.latency_ms)
            .collect();
        let (p50, lag50, tail50) = (
            quantile(&up, 0.5),
            quantile(&lag, 0.5),
            quantile(&tail, 0.5),
        );
        let pass = failed == 0 && p50.max(lag50).max(tail50) <= LIMIT_MS;
        println!(
            "# rung {rate}/s: {} requests, achieved {achieved:.2}/s, upload p50 {p50:.2} ms \
             p90 {:.2} ms p99 {:.2} ms, last-quarter p50 {tail50:.2} ms, lag p50 {lag50:.2} ms, \
             failed {failed} -> {}",
            samples.len(),
            quantile(&up, 0.9),
            quantile(&up, 0.99),
            if pass { "meets limit" } else { "misses limit" }
        );
        if rate == REFERENCE_RATE {
            reference.extend(up);
        }
        rungs.push((rate, achieved, pass));
    }
    // The highest rate at which, as at every lower rate, some stretch met
    // the limit; reported as that rate's best achieved rate.
    let mut rates: Vec<f64> = rungs.iter().map(|r| r.0).collect();
    rates.sort_by(f64::total_cmp);
    rates.dedup();
    let best_at = |rate: f64| {
        rungs
            .iter()
            .filter(|r| r.0 == rate && r.2)
            .map(|r| r.1)
            .max_by(f64::total_cmp)
    };
    let best = rates.iter().map_while(|&rate| best_at(rate)).last();
    daemon.shutdown();
    o.set("peak_rss_mb", crate::peak_rss_mb());
    check_final_hints(&dir.0, &reopt, &mut o);

    let speed = Speed::from_samples(&calib);
    o.set("setup_s", speed.at_reference(median(&setup_times)));
    let insts: u64 = setup.cell_work.values().map(|(i, _)| i).sum();
    let sim_s = sum_of_medians(&cell_s);
    let optimize_s: f64 = reopt_s
        .lock()
        .expect("timer lock")
        .values()
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .sum();
    println!(
        "# as measured: set-up {:.6} s, tenant campaign {sim_s:.6} s, optimize {optimize_s:.6} s",
        median(&setup_times)
    );
    o.set(
        "sim_minsts_per_s",
        insts as f64 / speed.simulation_at_reference(sim_s) / 1e6,
    );
    o.set("optimize_s", speed.at_reference(optimize_s));
    o.set("apt_speedup_geomean", geomean(&setup.speedups));
    o.set(
        "apt_speedup_min",
        setup.speedups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    let sampled = tenant_cycles(seed, true);
    let exact = tenant_cycles(seed, false);
    match cycle_error_pct(&sampled, &exact) {
        Some((max, mean)) => {
            o.set("sampled_cycle_err_max_pct", max);
            o.set("sampled_cycle_err_mean_pct", mean);
        }
        None => o.check(false, || "sampled-vs-exact oracle unavailable".into()),
    }
    o.set("campaign_s", ladder_s);
    // Printed, not gated: upload latency tracks the shared host's speed,
    // whose drift across whole runs moves it by more than the largest
    // bound a gated metric may have. `max_ops_per_s` carries the latency
    // limit instead.
    println!(
        "# reference rate {REFERENCE_RATE}/s: {} uploads, p50 {:.3} ms, p90 {:.3} ms, \
         p99 {:.3} ms",
        reference.len(),
        quantile(&reference, 0.5),
        quantile(&reference, 0.9),
        quantile(&reference, 0.99)
    );
    match best {
        Some(achieved) => o.set("max_ops_per_s", achieved),
        None => {
            // Still a measured rate, but the run is not correct.
            o.check(false, || "no ladder rung met the latency limit".into());
            let slowest = rungs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
            o.set("max_ops_per_s", slowest);
        }
    }
    o.finish_common();
    o
}

/// Input seeds of the accuracy check: the run's seed and seven derived
/// from it. Graph500's sampled error at this scale swings by a third
/// from one input to the next; with four inputs the maximum still spread
/// by 0.13 of its median between runs, so eight are used.
fn accuracy_seeds(seed: u64) -> [u64; 8] {
    [0, 1, 2, 3, 4, 5, 6, 7].map(|k| seed.wrapping_add(k * 1_000_003))
}

/// Per-cell cycles of the tenants' campaign over the accuracy seeds,
/// sampled or exact, cached per binary hash and seed.
fn tenant_cycles(seed: u64, sampled: bool) -> BTreeMap<String, u64> {
    let mode = if sampled { "sampled" } else { "exact" };
    crate::cached_cycles(&format!("serve-{mode}-{SERVE_SCALE}-{seed}"), || {
        let mut out = BTreeMap::new();
        for s in accuracy_seeds(seed) {
            let cycles = campaign::cell_cycles(tenants_plan(sampled, s));
            if cycles.is_empty() {
                return BTreeMap::new();
            }
            out.extend(cycles.into_iter().map(|(k, v)| (format!("{s}/{k}"), v)));
        }
        out
    })
}

/// The tenants' own campaign at the serve scale.
fn tenants_plan(sampled: bool, seed: u64) -> Plan {
    Plan::subset(sampled, &TENANTS, SERVE_SCALE, seed)
}

/// The traced run: the campaign layers on the tenants' own campaign (they
/// run only in set-up on this workload), then the serve-layer probe over
/// the reference rung's upload sequence.
fn run_traced(seed: u64, budget: Duration) -> Outcome {
    let mut o = Outcome::default();
    let setup = setup(seed);
    o.absorb_counts(setup.cells, 0);
    for f in &setup.failures {
        o.check(false, || f.clone());
    }
    let mut mix = Mix::new(&setup);
    let n = (REFERENCE_RATE * budget.as_secs_f64() * REFERENCE_SHARE).round() as usize;
    let uploads = (0..n)
        .filter_map(|_| match mix.next_request() {
            Request::Upload(u) => Some(u),
            Request::Status(_) => None,
        })
        .collect();
    campaign::campaign_layers(tenants_plan(false, seed), &mut o);
    let replay_wall = layer_probe(uploads, SERVE_SCALE, seed, REFERENCE_RATE, &mut o);
    o.set(
        "trace.overhead_ratio",
        replay_wall.timed / replay_wall.untimed,
    );
    o.finish_common();
    o
}

/// Wall time of the serial replay with and without per-call timers.
pub struct ReplayWall {
    pub timed: f64,
    pub untimed: f64,
}

/// Per-call timings of one serial replay.
#[derive(Default)]
struct ReplayTimes {
    bytes: u64,
    parse_s: f64,
    drift_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    reopt_ms: Vec<f64>,
    swap_ms: Vec<f64>,
}

/// Times `f` into `slot` when timing is on.
fn maybe_timed<T>(slot: Option<&mut Vec<f64>>, f: impl FnOnce() -> T) -> T {
    match slot {
        Some(v) => {
            let (r, s) = timed(f);
            v.push(s * 1e3);
            r
        }
        None => f(),
    }
}

/// Replays `uploads` serially through the daemon's layers — `parse_str`,
/// `ShardStore::apply`, `detect_drift`, the reoptimizer and
/// `HintSwapper` — with the committer's decision rule, one epoch at a
/// time. With `times`, each call is timed.
fn replay(
    dir: &Path,
    uploads: &[Upload],
    reopt: &Reopt,
    mut times: Option<&mut ReplayTimes>,
) -> Result<(), String> {
    let defaults = ServeConfig::new("", "", "");
    let store = ShardStore::open(dir.join("db")).map_err(|e| e.to_string())?;
    let hints = dir.join("hints");
    for u in uploads {
        let agg = match times.as_deref_mut() {
            Some(t) => {
                let (agg, s) = timed(|| aggregate(&u.body));
                t.parse_s += s;
                t.bytes += u.body.len() as u64;
                agg
            }
            None => aggregate(&u.body),
        }?;
        let epoch = Epoch {
            label: u.label.clone(),
            agg,
        };
        let outcome = maybe_timed(times.as_deref_mut().map(|t| &mut t.apply_ms), || {
            store.apply(&u.tenant, vec![epoch], EPOCH_CAP)
        })
        .map_err(|e| e.to_string())?;
        let db = &outcome.db;
        let drifted = db.epochs.len() >= 2 && {
            let newest = db.epochs.last().expect("non-empty");
            let report = maybe_timed(times.as_deref_mut().map(|t| &mut t.drift_ms), || {
                detect_drift(
                    &db.baseline(),
                    &newest.agg,
                    &newest.label,
                    db.epochs.len() - 1,
                    &defaults.drift,
                )
            });
            report.exceeds(defaults.reopt_threshold)
        };
        let swapper = HintSwapper::open(hints.join(&u.tenant)).map_err(|e| e.to_string())?;
        if drifted || swapper.current_generation().is_some() {
            let bytes = maybe_timed(times.as_deref_mut().map(|t| &mut t.reopt_ms), || {
                reopt(&u.tenant, db)
            })?;
            let current = std::fs::read(swapper.current_hints_path()).ok();
            if current.as_deref() != Some(bytes.as_slice()) {
                maybe_timed(times.as_deref_mut().map(|t| &mut t.swap_ms), || {
                    swapper.swap_in(&bytes, "replay")
                })
                .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(())
}

/// Deploys every tenant's initial generation from its first upload, into
/// `dir`; with `swap_ms`, each swap is timed.
fn deploy_all(
    dir: &Path,
    uploads: &[Upload],
    reopt: &Reopt,
    mut swap_ms: Option<&mut Vec<f64>>,
) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for u in uploads {
        if seen.insert(u.tenant.as_str()) {
            maybe_timed(swap_ms.as_deref_mut(), || {
                deploy_initial(&dir.join("hints"), &u.tenant, &u.body, reopt)
            })?;
        }
    }
    Ok(())
}

/// The serve-layer probe of a traced run. Every tenant first gets a
/// deployed hint generation from its first upload. Then:
/// 1. live: `uploads` go open-loop at `rate` (plus a status read every
///    `STATUS_EVERY`-th request) into a daemon with its op-log on and its
///    reoptimizer wrapped in a timer;
/// 2. replay: the same uploads go serially through the layers, timed per
///    call, and once more untimed.
///
/// The replay's final shards and hints must equal the daemon's, and the
/// op-log must hold a parse, commit and drift span for every upload.
pub fn layer_probe(
    uploads: Vec<Upload>,
    scale: f64,
    seed: u64,
    rate: f64,
    o: &mut Outcome,
) -> ReplayWall {
    let reopt = reoptimizer(scale, seed);
    let tenants: Vec<String> = {
        let mut t: Vec<String> = uploads.iter().map(|u| u.tenant.clone()).collect();
        t.sort();
        t.dedup();
        t
    };

    // 1. Live.
    let live = RunDir::new("probe-live");
    let r = deploy_all(&live.0, &uploads, &reopt, None);
    o.check(r.is_ok(), || format!("initial deployment: {r:?}"));
    let reopt_ms = Arc::new(Mutex::new(Vec::new()));
    let wrapped: Reopt = {
        let (inner, sink) = (Arc::clone(&reopt), Arc::clone(&reopt_ms));
        Arc::new(move |t: &str, db: &ProfileDb| {
            let (r, s) = timed(|| inner(t, db));
            sink.lock().expect("timer lock").push(s * 1e3);
            r
        })
    };
    let registry = apt_metrics::Registry::new();
    let mut requests = Vec::new();
    for (i, u) in uploads.iter().enumerate() {
        if (i + 1).is_multiple_of(STATUS_EVERY - 1) {
            requests.push(Request::Status(u.tenant.clone()));
        }
        requests.push(Request::Upload(u.clone()));
    }
    let samples = match start_daemon(&live.0, &wrapped, registry.clone(), true) {
        Ok(daemon) => {
            let s = open_loop(daemon.addr(), &requests, rate);
            daemon.shutdown();
            s
        }
        Err(e) => {
            o.check(false, || format!("daemon did not start: {e}"));
            Vec::new()
        }
    };
    let failed = samples.iter().filter(|s| !s.ok).count();
    o.absorb_counts(samples.len() as u64, failed as u64);
    let lag: Vec<f64> = samples.iter().map(|s| s.lag_ms).collect();
    let latency = |upload: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.upload == upload && s.ok)
            .map(|s| s.latency_ms)
            .collect()
    };
    let (uploaded, status) = (latency(true), latency(false));

    // Op-log span chain, and its per-stage medians beside the replay's.
    let mut stage_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    match read_oplog_dir(&live.0.join("oplog")) {
        Ok(records) => {
            for r in records {
                if let OpKind::Span { stage, dur_us, .. } = r.kind {
                    stage_us
                        .entry(stage.name())
                        .or_default()
                        .push(dur_us as f64);
                }
            }
        }
        Err(e) => o.check(false, || format!("op-log unreadable: {e}")),
    }
    let accepted = samples.iter().filter(|s| s.upload && s.ok).count();
    for stage in [Stage::Parse, Stage::Commit, Stage::Drift] {
        let n = stage_us.get(stage.name()).map_or(0, Vec::len);
        o.check(n == accepted, || {
            format!(
                "op-log holds {n} {} spans for {accepted} uploads",
                stage.name()
            )
        });
    }

    // 2. Replay, timed and untimed, each from the same initial state.
    let mut t = ReplayTimes::default();
    let replayed = RunDir::new("probe-replay");
    let (r, timed_s) = timed(|| {
        deploy_all(&replayed.0, &uploads, &reopt, Some(&mut t.swap_ms))
            .and_then(|()| replay(&replayed.0, &uploads, &reopt, Some(&mut t)))
    });
    o.check(r.is_ok(), || format!("timed replay: {r:?}"));
    let plain = RunDir::new("probe-plain");
    let (r, untimed_s) = timed(|| {
        deploy_all(&plain.0, &uploads, &reopt, None)
            .and_then(|()| replay(&plain.0, &uploads, &reopt, None))
    });
    o.check(r.is_ok(), || format!("untimed replay: {r:?}"));

    // Shards are arrival-order independent and hints are a function of
    // the shard, so the daemon and the replay must end byte-identical.
    for tenant in &tenants {
        for (what, rel) in [
            ("shard", Path::new("db").join(format!("{tenant}.aptdb"))),
            (
                "current.hints",
                Path::new("hints").join(tenant).join("current.hints"),
            ),
        ] {
            let a = std::fs::read(live.0.join(&rel)).ok();
            let b = std::fs::read(replayed.0.join(&rel)).ok();
            o.check(a.is_some() && a == b, || {
                format!("{tenant}: daemon and replay {what} differ")
            });
        }
    }
    for (stage, replay_ms) in [
        (Stage::Commit, &t.apply_ms),
        (Stage::Drift, &t.drift_ms),
        (Stage::Reopt, &t.reopt_ms),
    ] {
        let log_ms = stage_us.get(stage.name()).map_or(0.0, |v| median(v) / 1e3);
        println!(
            "# {} median: op-log {log_ms:.3} ms, replay {:.3} ms",
            stage.name(),
            median(replay_ms)
        );
    }

    let live_reopt = reopt_ms.lock().expect("timer lock").clone();
    o.set("ingest.parse_mb_per_s", t.bytes as f64 / t.parse_s / 1e6);
    o.set("ingest.drift_ms_p50", median(&t.drift_ms));
    o.set("serve.shard_apply_ms_p50", quantile(&t.apply_ms, 0.5));
    o.set("serve.shard_apply_ms_p99", quantile(&t.apply_ms, 0.99));
    o.set("serve.reopt_ms_p50", quantile(&live_reopt, 0.5));
    o.set("serve.reopt_ms_p99", quantile(&live_reopt, 0.99));
    o.set("serve.swap_ms_p50", median(&t.swap_ms));
    o.set("serve.upload_ms_p50", quantile(&uploaded, 0.5));
    o.set("serve.upload_ms_p90", quantile(&uploaded, 0.9));
    o.set("serve.upload_ms_p99", quantile(&uploaded, 0.99));
    o.set("serve.status_ms_p99", quantile(&status, 0.99));
    o.set(
        "serve.queue_depth_max",
        registry
            .gauge_value("apt_serve_queue_depth_high_water", &[])
            .unwrap_or(0.0),
    );
    o.set("loadgen.lag_ms_p99", quantile(&lag, 0.99));
    ReplayWall {
        timed: timed_s,
        untimed: untimed_s,
    }
}
