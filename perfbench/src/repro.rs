//! The `repro` workload: what a paper reproducer or design-space user runs.
//!
//! Cold phase, in a fresh result-cache directory: `Evaluator::eval_batch`
//! over {base, P∞, 16+68, HBM} × {mm, lbm, bfs, leukocyte} at job width
//! `nproc`, then the tuner's smoke search. Warm phase: the identical batch
//! and search replayed from that cache, which must simulate nothing and
//! return the same bytes.

use crate::pinf::{experiments_mismatches, p_inf_error_pct};
use crate::sims::{
    check_report_json, check_same_run, digest_reports, layer_metrics, run_sim, seeded, SimJob,
    SETUP_REPS,
};
use crate::stats::{median, percentile};
use crate::Ctx;
use gmh_core::{GpuConfig, GpuSim};
use gmh_exp::cache::{job_key, metric_in_json, DiskCache};
use gmh_exp::{Candidate, Evaluator};
use gmh_tune::{frontier_json, run_search, TuneParams};
use gmh_workloads::WorkloadSpec;
use std::time::Instant;

/// Table II workloads the batch runs: the paper's trio plus one
/// compute-bound workload.
const WORKLOADS: [&str; 4] = ["mm", "lbm", "bfs", "leukocyte"];

/// The batch: every configuration × every workload, configuration-major.
fn jobs(seed: u64) -> Vec<SimJob> {
    let configs = [
        ("base", GpuConfig::gtx480_baseline()),
        ("pinf", GpuConfig::infinite_bw()),
        ("16+68", GpuConfig::cost_effective_16_68()),
        ("hbm", GpuConfig::hbm()),
    ];
    configs
        .iter()
        .flat_map(|(label, cfg)| {
            WORKLOADS
                .iter()
                .map(move |n| SimJob::new(label, cfg.clone(), seeded(n, seed, 0)))
        })
        .collect()
}

/// The tuner's smoke search at sim width 1.
fn tune_params() -> TuneParams {
    let mut p = TuneParams::smoke();
    p.sim_threads = 1;
    p
}

/// Warm replays per pass; the per-layer warm figures are medians over the
/// run.
const WARM_REPLAYS: usize = 15;

/// One cold phase and its warm replays.
struct Pass {
    cold_eval_s: f64,
    cold_search_s: f64,
    /// `(eval_batch, run_search)` seconds of each warm replay.
    warm_s: Vec<(f64, f64)>,
    insts: u64,
    cycles: u64,
    fetches: u64,
    digest: u64,
    report_bytes: usize,
    p_inf: Vec<(&'static str, f64)>,
    sims: usize,
    hits: usize,
    tune_fresh: usize,
    tune_hits: usize,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Runs one pass; `None` if the cold phase failed.
fn run_pass(ctx: &mut Ctx, jobs: &[SimJob], params: &TuneParams, n: u64) -> Option<Pass> {
    let dir = ctx.tmp_dir();
    let pass = ctx.spans.open("pass", None, n);
    let out = DiskCache::open(&dir)
        .map_err(io_err("opening the cache"))
        .and_then(|cache| cold_and_warm(ctx, &cache, jobs, params, pass, n));
    let _ = std::fs::remove_dir_all(&dir);
    ctx.spans.close(pass);
    out.map_err(|e| ctx.op(Err(e))).ok()
}

fn cold_and_warm(
    ctx: &mut Ctx,
    cache: &DiskCache,
    jobs: &[SimJob],
    params: &TuneParams,
    pass: Option<usize>,
    n: u64,
) -> Result<Pass, String> {
    let cands: Vec<Candidate> = jobs
        .iter()
        .map(|j| Candidate::new(j.label, j.cfg.clone()))
        .collect();
    let batch: Vec<(&Candidate, &WorkloadSpec)> =
        cands.iter().zip(jobs).map(|(c, j)| (c, &j.wl)).collect();

    let ev = Evaluator::new(cache);
    let t0 = Instant::now();
    let cold = ev.eval_batch(&batch);
    let t1 = Instant::now();
    let cold_search = run_search(cache, params);
    let t2 = Instant::now();
    let _ = ctx.spans.record("Evaluator::eval_batch", t0, t1, pass, n);
    let _ = ctx.spans.record("run_search", t1, t2, pass, n);
    let cold = cold.map_err(io_err("cold batch"))?;
    let cold_search = cold_search.map_err(io_err("cold search"))?;
    for (job, run) in jobs.iter().zip(&cold) {
        let what = format!("{} on {}", job.wl.name, job.label);
        ctx.op(check_report_json(&what, &run.json).and_then(|()| {
            if run.hit {
                Err(format!("{what}: cold batch hit a fresh cache"))
            } else {
                Ok(())
            }
        }));
    }
    let frontier = frontier_json(params, &cold_search);

    let (mut warm_s, mut hits, mut tune_hits) = (Vec::new(), 0, 0);
    for _ in 0..WARM_REPLAYS {
        let warm_ev = Evaluator::new(cache);
        let a = Instant::now();
        let warm = warm_ev.eval_batch(&batch);
        let b = Instant::now();
        let warm_search = run_search(cache, params);
        let c = Instant::now();
        let _ = ctx.spans.record("Evaluator::eval_batch", a, b, pass, n);
        let _ = ctx.spans.record("run_search", b, c, pass, n);
        warm_s.push(((b - a).as_secs_f64(), (c - b).as_secs_f64()));
        let warm = warm.map_err(io_err("warm batch"))?;
        let warm_search = warm_search.map_err(io_err("warm search"))?;
        for (job, (c, w)) in jobs.iter().zip(cold.iter().zip(&warm)) {
            ctx.op(if w.hit && w.json == c.json {
                Ok(())
            } else {
                Err(format!(
                    "{} on {}: warm replay was not a byte-identical hit",
                    job.wl.name, job.label
                ))
            });
        }
        ctx.op(
            if warm_search.fresh_sims == 0 && frontier_json(params, &warm_search) == frontier {
                Ok(())
            } else {
                Err(format!(
                    "warm search ran {} fresh sims or changed the frontier",
                    warm_search.fresh_sims
                ))
            },
        );
        hits = warm_ev.hits();
        tune_hits = warm_search.cache_hits;
    }

    let num = |json: &str, k: &str| metric_in_json(json, k).unwrap_or(0.0);
    let ipc = |label: &str, wl: &str| {
        jobs.iter()
            .zip(&cold)
            .find(|(j, _)| j.label == label && j.wl.name == wl)
            .map_or(0.0, |(_, r)| num(&r.json, "ipc"))
    };
    let p_inf = WORKLOADS
        .iter()
        .map(|&w| (w, ipc("pinf", w) / ipc("base", w)))
        .collect();
    if ctx.traced() && n == 0 {
        time_cache_reads(ctx, cache, jobs, &cold);
    }
    Ok(Pass {
        cold_eval_s: (t1 - t0).as_secs_f64(),
        cold_search_s: (t2 - t1).as_secs_f64(),
        warm_s,
        insts: cold.iter().map(|r| num(&r.json, "insts") as u64).sum(),
        cycles: cold
            .iter()
            .map(|r| num(&r.json, "core_cycles") as u64)
            .sum(),
        fetches: cold.iter().map(|r| num(&r.json, "emitted") as u64).sum(),
        digest: digest_reports(cold.iter().map(|r| r.json.as_str())),
        report_bytes: cold.iter().map(|r| r.json.len()).sum(),
        p_inf,
        sims: ev.sims(),
        hits,
        tune_fresh: cold_search.fresh_sims,
        tune_hits,
    })
}

/// Times `job_key` and `DiskCache::get` per job against the warm cache.
fn time_cache_reads(
    ctx: &mut Ctx,
    cache: &DiskCache,
    jobs: &[SimJob],
    cold: &[gmh_exp::CachedRun],
) {
    for (i, (job, run)) in jobs.iter().zip(cold).enumerate() {
        let id = 1000 + i as u64;
        let t0 = Instant::now();
        let key = job_key(job.label, &job.cfg, &job.wl);
        let t1 = Instant::now();
        let got = cache.get(key);
        let t2 = Instant::now();
        let _ = ctx.spans.record("job_key", t0, t1, None, id);
        let _ = ctx.spans.record("DiskCache::get", t1, t2, None, id);
        ctx.op(if got.as_deref() == Some(run.json.as_str()) {
            Ok(())
        } else {
            Err(format!(
                "DiskCache::get missed {} on {}",
                job.wl.name, job.label
            ))
        });
    }
}

/// The set-up path a `--setup-probe` child runs: a fresh cache directory,
/// `DiskCache::open`, `Evaluator::new`, the job list from the seed, and the
/// first job's first simulated cycle.
pub fn setup_probe(ctx: &mut Ctx) -> Result<(), String> {
    let dir = ctx.tmp_dir();
    let out = DiskCache::open(&dir)
        .map_err(io_err("opening the cache"))
        .and_then(|cache| {
            let _ev = Evaluator::new(&cache);
            let jobs = jobs(ctx.seed);
            let mut cfg = jobs[0].cfg.clone();
            cfg.max_core_cycles = 1;
            match GpuSim::new(cfg, &jobs[0].wl).run().core_cycles {
                1 => crate::setup::ready(),
                c => Err(format!("set-up run stopped at cycle {c}")),
            }
        });
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Median over every warm replay of the run.
fn warm_median(passes: &[Pass], f: fn(&(f64, f64)) -> f64) -> f64 {
    median(
        &passes
            .iter()
            .flat_map(|p| p.warm_s.iter().map(f))
            .collect::<Vec<_>>(),
    )
}

/// Runs cold + warm passes until the budget is spent (at least two), with
/// set-up probes before each pass.
pub fn run(ctx: &mut Ctx) {
    let jobs = jobs(ctx.seed);
    let params = tune_params();
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut setup = Vec::new();
    let mut attempts = 0u64;
    while attempts < 2 || t0.elapsed().as_secs_f64() < ctx.seconds {
        setup.extend(crate::setup::sample(ctx, SETUP_REPS));
        if let Some(p) = run_pass(ctx, &jobs, &params, attempts) {
            passes.push(p);
        }
        attempts += 1;
        if attempts >= 2 && passes.is_empty() {
            return;
        }
    }
    ctx.set("setup_s", median(&setup));
    let first = passes[0].digest;
    ctx.op(if passes.iter().all(|p| p.digest == first) {
        Ok(())
    } else {
        Err("cold report digests differ between repetitions".into())
    });
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    ctx.set("sim_insts_per_s", med(|p| p.insts as f64 / p.cold_eval_s));
    ctx.set("sim_cycles_per_s", med(|p| p.cycles as f64 / p.cold_eval_s));
    ctx.set("wall_s", med(|p| p.cold_eval_s + p.cold_search_s));
    // Every batch result is due when the batch starts and delivered when
    // `eval_batch` returns; the search frontier is one more result.
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            std::iter::repeat_n(p.cold_eval_s * 1e3, jobs.len())
                .chain(std::iter::once(p.cold_search_s * 1e3))
        })
        .collect();
    if let (Some(p50), Some(p99)) = (percentile(&lat, 0.5), percentile(&lat, 0.99)) {
        ctx.set("latency_p50_ms", p50.value);
        ctx.set("latency_p99_ms", p99.value);
        ctx.notes.push(format!(
            "result latency over {} results: p50 {:.1} ms, p99 {:.1} ms ({} beyond)",
            p50.n, p50.value, p99.value, p99.beyond
        ));
    }
    let p_inf = &passes[0].p_inf;
    let err = p_inf_error_pct(p_inf).unwrap_or(0.0);
    ctx.notes.push(format!(
        "{} passes; P-inf {:?}; p_inf_error_pct {err:.4}",
        passes.len(),
        p_inf
            .iter()
            .map(|(w, v)| format!("{w} {v:.4}"))
            .collect::<Vec<_>>()
    ));
    if ctx.seed == 0 {
        let bad = experiments_mismatches(p_inf);
        ctx.op(if bad.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "P-inf differs from EXPERIMENTS.md: {}",
                bad.join("; ")
            ))
        });
    }

    if ctx.traced() {
        traced_metrics(ctx, &jobs, &passes);
    }
}

/// Per-layer metrics of a traced run, including a serial replay of the
/// batch under the host profiler (the base of `exp.job_efficiency`). The
/// base configuration's jobs also run unprofiled, each just before its
/// profiled run, for `trace.overhead_pct`.
fn traced_metrics(ctx: &mut Ctx, jobs: &[SimJob], passes: &[Pass]) {
    let replay = ctx.spans.open("serial_replay", None, 2000);
    let mut serial_s = 0.0;
    let (mut plain_s, mut profiled_s) = (0.0, 0.0);
    let mut insts = 0;
    let mut reports = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let plain = (job.label == "base").then(|| run_sim(ctx, job, false, None, 3000 + i as u64));
        let out = run_sim(ctx, job, true, replay, 2000 + i as u64);
        if let Some(plain) = plain {
            ctx.op(check_same_run(job, &plain.stats, &out.stats));
            plain_s += plain.run_s;
            profiled_s += out.run_s;
        }
        serial_s += out.run_s;
        insts += out.stats.insts;
        reports.push(gmh_exp::report_json(job.label, job.wl.name, &out.stats));
    }
    ctx.spans.close(replay);
    let digest = digest_reports(reports.iter().map(String::as_str));
    ctx.op(if digest == passes[0].digest {
        Ok(())
    } else {
        Err("serial replay reports differ from the batch's".into())
    });
    layer_metrics(ctx, insts);
    ctx.set("trace.overhead_pct", (1.0 - plain_s / profiled_s) * 100.0);
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let cold_eval = med(|p| p.cold_eval_s);
    ctx.set(
        "exp.job_efficiency",
        serial_s / (cold_eval * ctx.host_cpus.min(jobs.len()) as f64),
    );
    ctx.set("exp.eval_cold_s", cold_eval);
    ctx.set("exp.eval_warm_s", warm_median(passes, |(e, _)| *e));
    ctx.set("exp.sims", passes[0].sims as f64);
    ctx.set("exp.hits", passes[0].hits as f64);
    ctx.set(
        "exp.job_key_us",
        median(&ctx.spans.durations("job_key")) / 1e3,
    );
    ctx.set(
        "exp.cache_get_us",
        median(&ctx.spans.durations("DiskCache::get")) / 1e3,
    );
    ctx.set("exp.report_bytes", passes[0].report_bytes as f64);
    ctx.set(
        "exp.p_inf_error_pct",
        p_inf_error_pct(&passes[0].p_inf).unwrap_or(0.0),
    );
    ctx.set("tune.search_cold_s", med(|p| p.cold_search_s));
    ctx.set("tune.search_warm_s", warm_median(passes, |(_, s)| *s));
    ctx.set("tune.fresh_sims", passes[0].tune_fresh as f64);
    ctx.set("tune.cache_hits", passes[0].tune_hits as f64);
    ctx.set("work.insts", passes[0].insts as f64);
    ctx.set("work.core_cycles", passes[0].cycles as f64);
    ctx.set("work.fetches", passes[0].fetches as f64);
    ctx.set("results.digest", passes[0].digest as f64);
}
