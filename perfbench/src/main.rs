//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <saturated|bursty|repro|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` seconds, checks every output it
//! produces, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` they are the per-layer
//! set, taken from spans the benchmark records around each call into a
//! layer (see `README.md` in this directory).
//!
//! `--setup-probe 1` runs only the workload's set-up path and writes
//! `ready` when it is done; the benchmark starts itself that way to time
//! `setup_s` (see `setup.rs`).

mod pinf;
mod repro;
mod serve;
mod setup;
mod sims;
mod spans;
mod stats;

use spans::SpanLog;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: printed by every untraced run, in this order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("sim_insts_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run, in this order. A layer
/// the workload does not exercise reports 0 (README.md lists which).
pub const PER_LAYER: [(&str, &str); 48] = [
    ("simt.ns_per_inst", "ns"),
    ("simt.share", "%"),
    ("icnt.ns_per_tick", "ns"),
    ("icnt.share", "%"),
    ("l2.ns_per_tick", "ns"),
    ("l2.share", "%"),
    ("dram.ns_per_tick", "ns"),
    ("dram.share", "%"),
    ("sched.ns_per_pop", "ns"),
    ("sched.pops", "count"),
    ("sched.share", "%"),
    ("ff.jumps", "count"),
    ("ff.ticks_skipped", "count"),
    ("ff.share", "%"),
    ("telemetry.ns_per_sample", "ns"),
    ("telemetry.share", "%"),
    ("core.new_ms", "ms"),
    ("core.loop_share", "%"),
    ("trace.overhead_pct", "%"),
    ("work.insts", "count"),
    ("work.core_cycles", "count"),
    ("work.fetches", "count"),
    ("results.digest", "hash"),
    ("exp.eval_cold_s", "s"),
    ("exp.sims", "count"),
    ("exp.job_efficiency", "ratio"),
    ("exp.eval_warm_s", "s"),
    ("exp.hits", "count"),
    ("exp.job_key_us", "us"),
    ("exp.cache_get_us", "us"),
    ("exp.report_bytes", "bytes"),
    ("exp.p_inf_error_pct", "%"),
    ("tune.search_cold_s", "s"),
    ("tune.search_warm_s", "s"),
    ("tune.fresh_sims", "count"),
    ("tune.cache_hits", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("serve.sim_wall_ms_per_job", "ms"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.errors", "count"),
    ("serve.warm_round_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.offered_per_s", "1/s"),
];

/// Workload names accepted by `--workload`. `BENCHMARK.json` lists `repro`
/// and `serve`; `saturated` and `bursty` stay runnable by hand (README.md
/// says why they are not listed).
const WORKLOADS: [&str; 4] = ["saturated", "bursty", "repro", "serve"];

/// Everything one run shares across its phases.
pub struct Ctx {
    /// Workload name, as given to `--workload`.
    pub workload: String,
    /// Benchmark seed (0 reproduces the catalog seeds).
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Span log (enabled only on traced runs).
    pub spans: SpanLog,
    /// Host parallelism: job width and server width.
    pub host_cpus: usize,
    /// Scratch directory for temporary result caches and the span dump.
    pub out_dir: PathBuf,
    attempted: u64,
    failed: u64,
    next_tmp: u64,
    /// Metric values filled by the workload.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable notes (sample counts, stamps) for stderr.
    pub notes: Vec<String>,
}

impl Ctx {
    /// Counts one attempted operation; `Err` marks it failed and is
    /// reported on stderr.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {e}");
        }
    }

    /// Whether this run records spans (the per-layer run).
    pub fn traced(&self) -> bool {
        self.spans.enabled()
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    /// A fresh, empty temporary directory under the scratch directory.
    pub fn tmp_dir(&mut self) -> PathBuf {
        self.next_tmp += 1;
        let d = self
            .out_dir
            .join(format!("tmp-{}-{}", std::process::id(), self.next_tmp));
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}

/// SplitMix64 finalizer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The perturbation mixed into a workload seed for benchmark seed `seed`
/// and stream `k`. Seed 0, stream 0 is the identity, so the default run
/// reproduces the catalog seeds exactly.
pub fn derive(seed: u64, k: u64) -> u64 {
    if seed == 0 && k == 0 {
        0
    } else {
        splitmix64(seed ^ splitmix64(k))
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        let bool_val = || match val.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad(&"expected 0 or 1")),
        };
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = bool_val()?,
            "--setup-probe" => args.setup_probe = bool_val()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    // The execution environment comes from config only: a stray width or
    // cache override in the caller's environment must not change what is
    // measured. Cleared before anything reads (and caches) them.
    for var in ["GMH_THREADS", "GMH_SIM_THREADS", "GMH_CACHE_DIR"] {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        spans: SpanLog::new(args.trace),
        host_cpus,
        out_dir,
        attempted: 0,
        failed: 0,
        next_tmp: 0,
        metrics: BTreeMap::new(),
        notes: Vec::new(),
    };
    if args.setup_probe {
        let probed = match args.workload.as_str() {
            "saturated" => sims::setup_probe(args.seed, sims::saturated_jobs),
            "bursty" => sims::setup_probe(args.seed, sims::bursty_jobs),
            "repro" => repro::setup_probe(&mut ctx),
            "serve" => serve::setup_probe(&mut ctx),
            _ => unreachable!("validated above"),
        };
        if let Err(e) = probed {
            eprintln!("perfbench: set-up probe: {e}");
            std::process::exit(1);
        }
        return;
    }
    let started = Instant::now();
    match args.workload.as_str() {
        "saturated" => sims::saturated(&mut ctx),
        "bursty" => sims::bursty(&mut ctx),
        "repro" => repro::run(&mut ctx),
        "serve" => serve::run(&mut ctx),
        _ => unreachable!("validated above"),
    }
    ctx.set("peak_rss_mb", peak_rss_mb());

    let stamp = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cpus\":{},\
         \"job_width\":{host_cpus},\"sim_width\":1,\"server_width\":{host_cpus},\
         \"git_sha\":\"{}\",\"elapsed_s\":{:.3}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cpus,
        // Set by run.py from the checkout; a revision with uncommitted
        // changes carries `-dirty`.
        std::env::var("PERFBENCH_GIT_SHA").unwrap_or_else(|_| "unknown".into()),
        started.elapsed().as_secs_f64(),
    );
    if ctx.traced() {
        let path = ctx
            .out_dir
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        let body = format!("# {stamp}\n{}", ctx.spans.to_tsv());
        if let Err(e) = std::fs::write(&path, body) {
            ctx.op(Err(format!("writing {}: {e}", path.display())));
        } else {
            ctx.notes
                .push(format!("spans written to {}", path.display()));
        }
    }
    for n in &ctx.notes {
        eprintln!("perfbench: {n}");
    }
    println!("# perfbench {stamp}");

    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut body = Vec::new();
    for &(name, unit) in list {
        let v = match ctx.metrics.get(name).copied() {
            Some(v) if v.is_finite() => v,
            // A failed request sits at the percentile: it missed every limit.
            Some(_) => f64::MAX,
            // A layer this workload does not exercise.
            None if args.trace => 0.0,
            None => {
                ctx.op(Err(format!("end-to-end metric {name} was not measured")));
                0.0
            }
        };
        eprintln!("perfbench: {name:<26} {v:>18.6} {unit}");
        body.push(format!(
            "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ctx.failed == 0,
        ctx.attempted.max(1),
        ctx.failed,
        body.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_serve::json::Json;

    fn names(v: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = v.get(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    _ => panic!("metric entry lacks {k}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_printed_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let v = gmh_serve::json::parse(&text).expect("parse BENCHMARK.json");
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), own(&PER_LAYER));
        let Some(Json::Arr(w)) = v.get("workloads") else {
            panic!("no workloads")
        };
        for x in w {
            let Some(Json::Str(name)) = x.get("name") else {
                panic!("workload without name")
            };
            assert!(WORKLOADS.contains(&name.as_str()), "{name} is not runnable");
        }
    }

    #[test]
    fn default_seed_is_the_identity() {
        assert_eq!(derive(0, 0), 0);
        assert_ne!(derive(0, 1), 0);
        assert_ne!(derive(1, 0), 0);
        assert_ne!(derive(1, 0), derive(0, 1));
    }
}
