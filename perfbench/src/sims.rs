//! The simulation-throughput workloads, `saturated` and `bursty`, plus the
//! per-simulation plumbing the other workloads share: timing a run from
//! outside, checking its outputs, and turning folded host-phase spans into
//! per-layer metrics.

use crate::spans::NameTotals;
use crate::stats::{digest52, median, percentile};
use crate::{derive, Ctx};
use gmh_core::{GpuConfig, GpuSim, SimStats};
use gmh_exp::cache::metric_in_json;
use gmh_exp::report_json;
use gmh_types::hash::StableHasher;
use gmh_workloads::{catalog, WorkloadSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up probes per pass; `setup_s` is the median over the run.
pub const SETUP_REPS: usize = 9;

/// Derived seeds per catalog extra in one `bursty` pass. One pass of the
/// three extras alone takes about 0.2 s; eight seeds make a pass long
/// enough to time.
const BURSTY_SEEDS: u64 = 8;

/// One simulation job: a labeled configuration and a workload.
#[derive(Clone, Debug)]
pub struct SimJob {
    /// Configuration label (part of the result-cache key).
    pub label: &'static str,
    /// Configuration, at sim width 1.
    pub cfg: GpuConfig,
    /// Workload with its benchmark-seeded RNG seed.
    pub wl: WorkloadSpec,
}

impl SimJob {
    /// A job at the default sim width (1), set through config.
    pub fn new(label: &'static str, mut cfg: GpuConfig, wl: WorkloadSpec) -> Self {
        cfg.sim_threads = 1;
        SimJob { label, cfg, wl }
    }
}

/// A catalog workload with its seed perturbed for benchmark seed `seed`,
/// stream `k`.
pub fn seeded(name: &str, seed: u64, k: u64) -> WorkloadSpec {
    // INVARIANT: every name the benchmark passes is a catalog constant.
    let mut wl = catalog::by_name(name).expect("catalog workload");
    wl.seed ^= derive(seed, k);
    wl
}

/// What one timed simulation produced.
pub struct SimOut {
    /// The run's statistics.
    pub stats: SimStats,
    /// Seconds in `GpuSim::new`.
    pub new_s: f64,
    /// Seconds in `GpuSim::run`.
    pub run_s: f64,
}

/// Checks the end-of-run invariants every simulation must satisfy.
pub fn check_stats(what: &str, s: &SimStats) -> Result<(), String> {
    let a = &s.audit;
    if a.emitted != a.returned + a.absorbed {
        return Err(format!(
            "{what}: audit emitted {} != returned {} + absorbed {}",
            a.emitted, a.returned, a.absorbed
        ));
    }
    if a.in_flight != 0 {
        return Err(format!("{what}: {} fetches still in flight", a.in_flight));
    }
    if s.hit_cycle_cap {
        return Err(format!("{what}: hit the cycle cap"));
    }
    Ok(())
}

/// The same invariants, read from a report's JSON bytes.
pub fn check_report_json(what: &str, json: &str) -> Result<(), String> {
    let get =
        |k: &str| metric_in_json(json, k).ok_or_else(|| format!("{what}: report lacks {k:?}"));
    let (emitted, returned) = (get("emitted")?, get("returned")?);
    let (absorbed, in_flight) = (get("absorbed")?, get("in_flight")?);
    if emitted != returned + absorbed {
        return Err(format!(
            "{what}: audit emitted {emitted} != returned {returned} + absorbed {absorbed}"
        ));
    }
    if in_flight != 0.0 {
        return Err(format!("{what}: {in_flight} fetches still in flight"));
    }
    if !json.contains("\"hit_cycle_cap\":false") {
        return Err(format!("{what}: hit the cycle cap"));
    }
    Ok(())
}

/// Checks that a profiled and an unprofiled run of `job` produced the same
/// report: the host profiler only observes.
pub fn check_same_run(job: &SimJob, plain: &SimStats, profiled: &SimStats) -> Result<(), String> {
    if report_json(job.label, job.wl.name, plain) == report_json(job.label, job.wl.name, profiled) {
        Ok(())
    } else {
        Err(format!(
            "{} on {}: profiled and unprofiled reports differ",
            job.wl.name, job.label
        ))
    }
}

/// Runs one job, timing `GpuSim::new` and `GpuSim::run` from outside. When
/// `profile` is set the run's host profiler is on and, on a traced run, its
/// phases are folded into the span log under the `GpuSim::run` span.
pub fn run_sim(
    ctx: &mut Ctx,
    job: &SimJob,
    profile: bool,
    parent: Option<usize>,
    id: u64,
) -> SimOut {
    let mut cfg = job.cfg.clone();
    cfg.profile_host = profile;
    let t0 = Instant::now();
    let mut sim = GpuSim::new(cfg, &job.wl);
    let t1 = Instant::now();
    let stats = sim.run();
    let t2 = Instant::now();
    let report = sim.take_host_report();
    let t3 = Instant::now();
    let ff = *sim.ff_stats();
    let t4 = Instant::now();
    drop(sim);
    let what = format!("{} on {} (seed {:#x})", job.wl.name, job.label, job.wl.seed);
    ctx.op(check_stats(&what, &stats));
    // Only profiled runs are recorded: the unprofiled passes of a traced
    // run exist to measure the profiler's overhead, not the layers.
    if ctx.traced() && profile {
        ctx.spans.record("GpuSim::new", t0, t1, parent, id);
        let run = ctx.spans.record("GpuSim::run", t1, t2, parent, id);
        if let (Some(run), Some(r)) = (run, report.as_ref()) {
            ctx.spans.fold_host_report(run, r);
        }
        ctx.spans
            .record("GpuSim::take_host_report", t3.min(t2), t3, parent, id);
        let ffs = ctx.spans.record("GpuSim::ff_stats", t3, t4, parent, id);
        if let Some(ffs) = ffs {
            // Counters ride on zero-length spans so they sum per name.
            let at = ctx.spans.spans()[ffs].end_ns;
            ctx.spans.push("ff.jumps", at, at, Some(ffs), id, ff.jumps);
            ctx.spans.push(
                "ff.ticks_skipped",
                at,
                at,
                Some(ffs),
                id,
                ff.skipped_total(),
            );
        }
    }
    SimOut {
        stats,
        new_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
    }
}

/// The set-up path a `--setup-probe` child runs: building the job list
/// from the seed, constructing the first job's simulator and running its
/// first core cycle.
pub fn setup_probe(seed: u64, build: fn(u64) -> Vec<SimJob>) -> Result<(), String> {
    let jobs = build(seed);
    let mut cfg = jobs[0].cfg.clone();
    cfg.max_core_cycles = 1;
    let stats = GpuSim::new(cfg, &jobs[0].wl).run();
    if stats.core_cycles != 1 {
        return Err(format!("set-up run stopped at cycle {}", stats.core_cycles));
    }
    crate::setup::ready()
}

/// Digest of report bytes in job order.
pub fn digest_reports<'a>(reports: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = StableHasher::new();
    for r in reports {
        h.write_str(r);
        h.write_u64(r.len() as u64);
    }
    digest52(h.finish())
}

/// Per-layer metrics from the span log's folded host phases. Shares are
/// taken against the summed `GpuSim::run` duration; `insts` is the work
/// those runs simulated.
pub fn layer_metrics(ctx: &mut Ctx, insts: u64) {
    let t: BTreeMap<&'static str, NameTotals> = ctx.spans.totals();
    let get = |n: &str| t.get(n).copied().unwrap_or_default();
    let run = get("GpuSim::run");
    if run.total_ns == 0 {
        return;
    }
    let wall = run.total_ns as f64;
    let share = |x: NameTotals| x.self_ns as f64 / wall * 100.0;
    let per = |x: NameTotals| {
        if x.calls == 0 {
            0.0
        } else {
            x.self_ns as f64 / x.calls as f64
        }
    };
    let (core, icnt, l2, dram) = (
        get("core_tick"),
        get("icnt_tick"),
        get("l2_tick"),
        get("dram_tick"),
    );
    let (pop, resched, probe, jump, tel) = (
        get("sched_pop"),
        get("sched_resched"),
        get("ff_probe"),
        get("ff_jump"),
        get("telemetry"),
    );
    ctx.set(
        "simt.ns_per_inst",
        core.self_ns as f64 / insts.max(1) as f64,
    );
    ctx.set("simt.share", share(core));
    ctx.set("icnt.ns_per_tick", per(icnt));
    ctx.set("icnt.share", share(icnt));
    ctx.set("l2.ns_per_tick", per(l2));
    ctx.set("l2.share", share(l2));
    ctx.set("dram.ns_per_tick", per(dram));
    ctx.set("dram.share", share(dram));
    ctx.set("sched.ns_per_pop", per(pop));
    ctx.set("sched.pops", pop.calls as f64);
    ctx.set("sched.share", share(pop) + share(resched));
    ctx.set("ff.jumps", get("ff.jumps").calls as f64);
    ctx.set("ff.ticks_skipped", get("ff.ticks_skipped").calls as f64);
    ctx.set("ff.share", share(probe) + share(jump));
    ctx.set("telemetry.ns_per_sample", per(tel));
    ctx.set("telemetry.share", share(tel));
    ctx.set("core.loop_share", share(run));
    let news = ctx.spans.durations("GpuSim::new");
    ctx.set("core.new_ms", median(&news) / 1e6);
}

/// Tallies of one pass over a job set.
struct Pass {
    wall_s: f64,
    insts: u64,
    cycles: u64,
    fetches: u64,
    digest: u64,
    latencies_ms: Vec<f64>,
    profiled: bool,
    reports: Vec<String>,
}

fn run_pass(ctx: &mut Ctx, jobs: &[SimJob], profiled: bool, pass_no: u64) -> Pass {
    let t0 = Instant::now();
    let mut p = Pass {
        wall_s: 0.0,
        insts: 0,
        cycles: 0,
        fetches: 0,
        digest: 0,
        latencies_ms: Vec::with_capacity(jobs.len()),
        profiled,
        reports: Vec::with_capacity(jobs.len()),
    };
    let mut stats = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let id = pass_no * 1000 + i as u64;
        let span = if profiled {
            ctx.spans.open("job", None, id)
        } else {
            None
        };
        let out = run_sim(ctx, job, profiled, span, id);
        ctx.spans.close(span);
        p.latencies_ms.push((out.new_s + out.run_s) * 1e3);
        stats.push(out.stats);
    }
    p.wall_s = t0.elapsed().as_secs_f64();
    // Reports are rendered after the clock stops: the pass measures
    // simulation, not serialization.
    for (job, s) in jobs.iter().zip(&stats) {
        p.insts += s.insts;
        p.cycles += s.core_cycles;
        p.fetches += s.audit.emitted;
        p.reports.push(report_json(job.label, job.wl.name, s));
    }
    p.digest = digest_reports(p.reports.iter().map(String::as_str));
    p
}

/// Runs passes over `jobs` until the time budget is spent (at least two)
/// and sets every metric this workload reports. Set-up samples are taken
/// before every pass, so their median spans the whole run rather than one
/// moment of it.
fn throughput_workload(ctx: &mut Ctx, build: fn(u64) -> Vec<SimJob>) {
    let jobs = build(ctx.seed);
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut setup = Vec::new();
    while passes.len() < 2 || t0.elapsed().as_secs_f64() < ctx.seconds {
        setup.extend(crate::setup::sample(ctx, SETUP_REPS));
        // A traced run alternates profiled and unprofiled passes, so the
        // profiler's overhead is measured under the same conditions.
        let profiled = ctx.traced() && passes.len().is_multiple_of(2);
        let p = run_pass(ctx, &jobs, profiled, passes.len() as u64);
        passes.push(p);
    }
    ctx.set("setup_s", median(&setup));
    let first = passes[0].digest;
    ctx.op(if passes.iter().all(|p| p.digest == first) {
        Ok(())
    } else {
        Err("report digests differ between repetitions".into())
    });
    let rate = |ps: &[&Pass], f: fn(&Pass) -> u64| -> f64 {
        median(
            &ps.iter()
                .map(|p| f(p) as f64 / p.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.profiled).collect();
    // One latency per job: its median over the passes, so the tail is the
    // slowest job's typical run rather than the single slowest run.
    let lat: Vec<f64> = (0..jobs.len())
        .map(|i| median(&plain.iter().map(|p| p.latencies_ms[i]).collect::<Vec<_>>()))
        .collect();
    ctx.set("sim_insts_per_s", rate(&plain, |p| p.insts));
    ctx.set("sim_cycles_per_s", rate(&plain, |p| p.cycles));
    ctx.set(
        "wall_s",
        median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
    );
    let p50 = percentile(&lat, 0.5);
    let p99 = percentile(&lat, 0.99);
    if let (Some(p50), Some(p99)) = (p50, p99) {
        ctx.set("latency_p50_ms", p50.value);
        ctx.set("latency_p99_ms", p99.value);
        ctx.notes.push(format!(
            "per-job latency (median of {} passes) over {} jobs: p50 {:.3} ms, p99 {:.3} ms \
             ({} beyond)",
            plain.len(),
            p50.n,
            p50.value,
            p99.value,
            p99.beyond
        ));
    }
    ctx.notes.push(format!(
        "{} passes of {} jobs, pass wall {:?} s",
        passes.len(),
        jobs.len(),
        passes
            .iter()
            .map(|p| (p.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));

    if ctx.traced() {
        let profiled: Vec<&Pass> = passes.iter().filter(|p| p.profiled).collect();
        let insts: u64 = profiled.iter().map(|p| p.insts).sum();
        layer_metrics(ctx, insts);
        let on = rate(&profiled, |p| p.insts);
        let off = rate(&plain, |p| p.insts);
        ctx.set("trace.overhead_pct", (1.0 - on / off) * 100.0);
        ctx.set("work.insts", passes[0].insts as f64);
        ctx.set("work.core_cycles", passes[0].cycles as f64);
        ctx.set("work.fetches", passes[0].fetches as f64);
        ctx.set("results.digest", first as f64);
    }
}

/// `saturated`'s jobs: the paper's trio at full length under the baseline
/// config.
pub fn saturated_jobs(seed: u64) -> Vec<SimJob> {
    ["mm", "lbm", "bfs"]
        .iter()
        .map(|n| SimJob::new("base", GpuConfig::gtx480_baseline(), seeded(n, seed, 0)))
        .collect()
}

/// `bursty`'s jobs: the catalog's idle-heavy extras, each on several
/// derived seeds.
pub fn bursty_jobs(seed: u64) -> Vec<SimJob> {
    (0..BURSTY_SEEDS)
        .flat_map(|k| {
            ["burst", "lull", "solo"]
                .iter()
                .map(move |n| SimJob::new("base", GpuConfig::gtx480_baseline(), seeded(n, seed, k)))
        })
        .collect()
}

/// The `saturated` workload.
pub fn saturated(ctx: &mut Ctx) {
    throughput_workload(ctx, saturated_jobs);
}

/// The `bursty` workload.
pub fn bursty(ctx: &mut Ctx) {
    throughput_workload(ctx, bursty_jobs);
}
