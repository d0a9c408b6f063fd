//! The `serve` workload: an in-process `gmh-serve` driven open-loop.
//!
//! Requests follow a seeded, fixed arrival schedule at a fixed offered
//! rate, mixing cache hits (a hot key set primed before the schedule
//! starts: `serve-bench`'s batch, one small job per catalog workload) with
//! fresh small jobs (distinct keys, the overrides `serve-bench` uses). At most `nproc` client connections carry the load;
//! whichever connection is free sends the next due request, and every
//! request is timed from when it was due, so a stall also charges the
//! requests queued behind it.

use crate::sims::{check_report_json, check_same_run, layer_metrics, run_sim, SimJob, SETUP_REPS};
use crate::stats::{digest52, median, percentile};
use crate::{derive, Ctx};
use gmh_exp::cache::metric_in_json;
use gmh_exp::report_json;
use gmh_serve::metrics::sample;
use gmh_serve::protocol::{job_line, parse_request, Reply, Request};
use gmh_serve::server::{spawn, ServerConfig, ServerHandle};
use gmh_serve::Client;
use gmh_types::hash::{stable_hash_str, StableHasher};
use gmh_types::rng::Xoshiro256;
use gmh_workloads::catalog;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered rate of fresh jobs, per second: about half of the fresh-job
/// capacity of two workers on a 2-vCPU host (see README.md).
const FRESH_PER_S: f64 = 7.0;
/// Offered rate of cache hits, per second. An assumption, not measured
/// traffic: a read-mostly service where most requests repeat a key. The
/// hit share, 46 / 53 = 87%, puts `latency_p50_ms` inside the hit mode and
/// `latency_p99_ms` inside the miss mode on every seed. `serve-bench`'s
/// 1:1 mix would put the median on the gap between the two modes, where
/// one request more or less moves it from about 1 ms to about 100 ms.
const HITS_PER_S: f64 = 46.0;
/// Closed-loop warm replay rounds; `serve.warm_round_ms` is their median.
const WARM_ROUNDS: usize = 15;
/// Requests per warm round: the run's distinct keys, cycled to a fixed
/// count so the round's work does not depend on how many fresh keys the
/// seed's schedule drew.
const WARM_REQUESTS: usize = 128;

/// The small-job overrides `serve-bench` uses, at sim width 1.
fn overrides() -> Vec<(String, u64)> {
    [
        ("n_cores", 2),
        ("max_core_cycles", 500_000),
        ("telemetry_window", 1024),
        ("warps_per_core", 8),
        ("insts_per_warp", 5_000),
        ("sim_threads", 1),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// One job key: a catalog workload at an explicit seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    workload: &'static str,
    seed: u64,
}

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
struct Req {
    /// Due time, seconds after the schedule starts.
    due_s: f64,
    key: Key,
    /// Whether the key is a primed hot key (a hit) or fresh (a miss).
    hit: bool,
}

/// Key `k` of stream `stream` for benchmark seed `seed`, cycling through
/// the Table II catalog so every run offers the same workload mix.
fn key(seed: u64, stream: u64, k: u64) -> Key {
    let names = catalog::names();
    let workload = names[usize::try_from(k).unwrap_or(0) % names.len()];
    // INVARIANT: `names()` only lists catalog workloads.
    let base = catalog::by_name(workload).expect("catalog workload").seed;
    Key {
        workload,
        seed: base ^ derive(seed, stream + k),
    }
}

fn hot_key(seed: u64, k: u64) -> Key {
    key(seed, 1 << 40, k)
}

/// Distinct hot keys the hits draw from: `serve-bench`'s batch size, one
/// key per catalog workload.
fn hot_keys() -> u64 {
    catalog::names().len() as u64
}

/// The seeded arrival schedule over `span_s` seconds. Arrival `i` is due
/// at `(i + 1 + j) / rate` with `j` uniform on [-0.25, 0.25], and fresh
/// jobs are spread evenly through the stream (arrival `i` is fresh when
/// `floor((i + 1) f) > floor(i f)` for the fresh fraction `f`), so every
/// seed offers the same load shape; the seed moves the jitter, the keys and
/// which hot key each hit asks for.
fn schedule(seed: u64, span_s: f64) -> Vec<Req> {
    let rate = FRESH_PER_S + HITS_PER_S;
    let f = FRESH_PER_S / rate;
    let mut rng = Xoshiro256::seeded(derive(seed, 1 << 41));
    let mut out = Vec::new();
    for i in 0u64.. {
        let due_s = (i as f64 + 0.75 + 0.5 * rng.unit_f64()) / rate;
        if due_s >= span_s {
            break;
        }
        let fresh = ((i + 1) as f64 * f).floor() as u64;
        let req = if fresh > (i as f64 * f).floor() as u64 {
            Req {
                due_s,
                key: key(seed, 1 << 42, fresh),
                hit: false,
            }
        } else {
            Req {
                due_s,
                key: hot_key(seed, rng.below(hot_keys())),
                hit: true,
            }
        };
        out.push(req);
    }
    out
}

fn server(host_cpus: usize, dir: &Path) -> std::io::Result<ServerHandle> {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: host_cpus,
        queue_capacity: 2 * host_cpus,
        job_timeout_ms: 60_000,
        cache_dir: dir.to_path_buf(),
    })
}

fn stop(handle: ServerHandle) -> Result<(), String> {
    let r = Client::connect(handle.addr)
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("shutdown: {e}"));
    handle.join();
    r.map(drop)
}

fn submit(c: &mut Client, k: Key) -> std::io::Result<Reply> {
    c.submit(k.workload, Some("base"), Some(k.seed), &overrides())
}

/// The set-up path a `--setup-probe` child runs: a fresh cache directory,
/// `server::spawn`, a connection and the first `PING` reply.
pub fn setup_probe(ctx: &mut Ctx) -> Result<(), String> {
    let dir = ctx.tmp_dir();
    let handle = server(ctx.host_cpus, &dir).map_err(|e| format!("spawn: {e}"))?;
    let pong = Client::connect(handle.addr)
        .and_then(|mut c| c.ping())
        .map_err(|e| format!("ping: {e}"));
    let out = match pong {
        Ok(Reply::Ok(_)) => crate::setup::ready(),
        Ok(r) => Err(format!("ping: {}", r.render())),
        Err(e) => Err(e),
    };
    let stopped = stop(handle);
    let _ = std::fs::remove_dir_all(&dir);
    out.and(stopped)
}

/// A reply, reduced where it arrives: hits are compared against their
/// primed bytes at once, so only fresh replies are kept.
enum Seen {
    /// An `OK` reply to a hot key; `matched` when byte-equal to the primed
    /// fresh reply.
    Hit { matched: bool, hash: u64 },
    /// An `OK` reply to a fresh key.
    Fresh { json: String, hash: u64 },
    /// Any other reply, or an I/O error.
    Failed(String),
}

/// What one connection observed for one request.
struct Done {
    idx: usize,
    sent: Instant,
    done: Instant,
    seen: Seen,
}

fn see(req: &Req, hot: &[(Key, String)], reply: std::io::Result<Reply>) -> Seen {
    match reply {
        Ok(Reply::Ok(json)) => {
            let hash = stable_hash_str(&json);
            if req.hit {
                let matched = hot.iter().any(|(k, j)| *k == req.key && *j == json);
                Seen::Hit { matched, hash }
            } else {
                Seen::Fresh { json, hash }
            }
        }
        Ok(other) => Seen::Failed(other.render()),
        Err(e) => Seen::Failed(format!("submit: {e}")),
    }
}

/// Drives the schedule from `conns` connections; returns every request's
/// outcome in schedule order.
fn drive(
    addr: std::net::SocketAddr,
    sched: &[Req],
    hot: &[(Key, String)],
    start: Instant,
    conns: usize,
) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let mut all: Vec<Done> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"));
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = sched.get(idx) else {
                            return out;
                        };
                        let due = start + Duration::from_secs_f64(req.due_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let seen = match client.as_mut() {
                            Ok(c) => see(req, hot, submit(c, req.key)),
                            Err(e) => Seen::Failed(e.clone()),
                        };
                        out.push(Done {
                            idx,
                            sent,
                            done: Instant::now(),
                            seen,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            // INVARIANT: load threads only push to local vectors; a panic
            // there is a benchmark bug and must surface.
            .flat_map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    all.sort_by_key(|d| d.idx);
    all
}

fn metrics(ctx: &mut Ctx, c: &mut Client) -> String {
    let t0 = Instant::now();
    let text = c.metrics();
    let _ = ctx
        .spans
        .record("Client::metrics", t0, Instant::now(), None, 0);
    text.unwrap_or_else(|e| {
        ctx.op(Err(format!("METRICS: {e}")));
        String::new()
    })
}

/// Growth of the `METRICS` series `name` (labels included) from `a` to `b`.
fn delta(a: &str, b: &str, name: &str) -> f64 {
    let get = |t: &str| sample(t, name).unwrap_or(0) as f64;
    get(b) - get(a)
}

/// The job the server runs for `k`: the request parsed as the server
/// parses it, with the fetch-lifecycle sampling the server adds to every
/// fresh run (observation only; the report is the same without it).
fn server_job(k: Key) -> Result<SimJob, String> {
    let line = job_line(k.workload, Some("base"), Some(k.seed), &overrides(), false);
    match parse_request(&line)? {
        Request::Job(j) => {
            let mut cfg = j.config;
            if cfg.trace_sample == 0 {
                cfg.trace_sample = 16;
            }
            Ok(SimJob::new("base", cfg, j.workload))
        }
        _ => Err(format!("{line} did not parse as a job")),
    }
}

/// Traced runs only: replays the primed hot keys' jobs in this process,
/// each unprofiled and then profiled. Gives the simulator layers' self
/// times on serve-sized jobs and `trace.overhead_pct`; every replay must
/// reproduce the server's reply byte for byte.
fn replay_hot(ctx: &mut Ctx, primed: &[(Key, String)]) {
    let replay = ctx.spans.open("serial_replay", None, 2000);
    let (mut plain_s, mut profiled_s, mut insts) = (0.0, 0.0, 0);
    for (i, (k, json)) in primed.iter().enumerate() {
        let job = match server_job(*k) {
            Ok(j) => j,
            Err(e) => {
                ctx.op(Err(e));
                continue;
            }
        };
        let plain = run_sim(ctx, &job, false, None, 3000 + i as u64);
        let out = run_sim(ctx, &job, true, replay, 2000 + i as u64);
        ctx.op(check_same_run(&job, &plain.stats, &out.stats));
        ctx.op(
            if report_json(job.label, job.wl.name, &out.stats) == *json {
                Ok(())
            } else {
                Err(format!(
                    "in-process replay of {k:?} differs from the server's reply"
                ))
            },
        );
        plain_s += plain.run_s;
        profiled_s += out.run_s;
        insts += out.stats.insts;
    }
    ctx.spans.close(replay);
    layer_metrics(ctx, insts);
    if profiled_s > 0.0 {
        ctx.set("trace.overhead_pct", (1.0 - plain_s / profiled_s) * 100.0);
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let started = Instant::now();
    let mut setup = crate::setup::sample(ctx, 2 * SETUP_REPS);

    let dir = ctx.tmp_dir();
    let t0 = Instant::now();
    let handle = server(ctx.host_cpus, &dir);
    let _ = ctx
        .spans
        .record("server::spawn", t0, Instant::now(), None, 0);
    let handle = match handle {
        Ok(h) => h,
        Err(e) => {
            ctx.op(Err(format!("spawn: {e}")));
            return;
        }
    };
    let mut control = match Client::connect(handle.addr) {
        Ok(c) => c,
        Err(e) => {
            ctx.op(Err(format!("connect: {e}")));
            ctx.op(stop(handle));
            return;
        }
    };

    // Prime the hot keys: their fresh replies are what every later hit must
    // reproduce byte for byte.
    let hot: Vec<Key> = (0..hot_keys()).map(|k| hot_key(ctx.seed, k)).collect();
    let mut primed: Vec<(Key, String)> = Vec::new();
    for &k in &hot {
        match submit(&mut control, k) {
            Ok(Reply::Ok(json)) => {
                ctx.op(check_report_json(k.workload, &json));
                primed.push((k, json));
            }
            other => ctx.op(Err(format!("priming {k:?}: {other:?}"))),
        }
    }

    let m0 = metrics(ctx, &mut control);
    let span_s = (ctx.seconds - started.elapsed().as_secs_f64()).max(1.0);
    let sched = schedule(ctx.seed, span_s);
    let conns = ctx.host_cpus.max(1);
    let start = Instant::now() + Duration::from_millis(20);
    let done = drive(handle.addr, &sched, &primed, start, conns);
    let end = done.iter().map(|d| d.done).max().unwrap_or(start);
    let sent = done.len();
    let m1 = metrics(ctx, &mut control);

    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    let (mut all, mut hits, mut misses, mut lag) = (vec![], vec![], vec![], vec![]);
    let (mut insts, mut cycles, mut fetches) = (0.0, 0.0, 0.0);
    let mut digest = StableHasher::new();
    let mut fresh_bytes = primed.clone();
    for d in done {
        let req = sched[d.idx];
        let due = start + Duration::from_secs_f64(req.due_s);
        lag.push(ms(due, d.sent));
        let outcome = match d.seen {
            Seen::Hit { matched, hash } => {
                digest.write_u64(hash);
                if matched {
                    Ok(())
                } else {
                    Err(format!("hit on {:?} differs from its fresh reply", req.key))
                }
            }
            Seen::Fresh { json, hash } => {
                digest.write_u64(hash);
                insts += metric_in_json(&json, "insts").unwrap_or(0.0);
                cycles += metric_in_json(&json, "core_cycles").unwrap_or(0.0);
                fetches += metric_in_json(&json, "emitted").unwrap_or(0.0);
                let checked = check_report_json(req.key.workload, &json);
                fresh_bytes.push((req.key, json));
                checked
            }
            Seen::Failed(e) => Err(format!("request {}: {e}", d.idx)),
        };
        // A refused or failed request misses every latency limit.
        let lat = if outcome.is_ok() {
            ms(due, d.done)
        } else {
            f64::INFINITY
        };
        all.push(lat);
        if req.hit {
            hits.push(lat);
        } else {
            misses.push(lat);
        }
        ctx.op(outcome);
        if ctx.traced() {
            let r = ctx.spans.record("request", due, d.done, None, d.idx as u64);
            ctx.spans
                .record("Client::submit", d.sent, d.done, r, d.idx as u64);
        }
    }

    // Warm replay: the distinct keys, closed loop on one connection, several
    // rounds; all must be byte-identical cache hits.
    let mut warm = Vec::with_capacity(WARM_ROUNDS);
    let mut warm_ok = Vec::with_capacity(WARM_ROUNDS * WARM_REQUESTS);
    for _ in 0..WARM_ROUNDS {
        let w0 = Instant::now();
        for (k, json) in fresh_bytes.iter().cycle().take(WARM_REQUESTS) {
            warm_ok.push(match submit(&mut control, *k) {
                Ok(Reply::Ok(j)) if j == *json => Ok(()),
                other => Err(format!("warm replay of {k:?}: {other:?}")),
            });
        }
        warm.push(w0.elapsed().as_secs_f64());
    }
    let m2 = metrics(ctx, &mut control);
    for r in warm_ok {
        ctx.op(r);
    }
    ctx.op(if delta(&m1, &m2, "gmh_cache_misses_total") == 0.0 {
        Ok(())
    } else {
        Err("warm replay missed the cache".into())
    });
    drop(control);
    ctx.op(stop(handle));
    let _ = std::fs::remove_dir_all(&dir);
    setup.extend(crate::setup::sample(ctx, 2 * SETUP_REPS));
    ctx.set("setup_s", median(&setup));

    let sim_wall_s = delta(&m0, &m1, "gmh_sim_wall_ms_total") / 1e3;
    let (p50, p99) = (percentile(&all, 0.5), percentile(&all, 0.99));
    if let (Some(p50), Some(p99)) = (p50, p99) {
        ctx.set("latency_p50_ms", p50.value);
        ctx.set("latency_p99_ms", p99.value);
        ctx.notes.push(format!(
            "request latency over {} requests ({} hits, {} fresh) from {conns} connections: \
             p50 {:.3} ms, p99 {:.3} ms ({} beyond)",
            p50.n,
            hits.len(),
            misses.len(),
            p50.value,
            p99.value,
            p99.beyond
        ));
    }
    ctx.set("sim_insts_per_s", insts / sim_wall_s);
    ctx.set("sim_cycles_per_s", cycles / sim_wall_s);
    ctx.set("wall_s", end.saturating_duration_since(start).as_secs_f64());

    if ctx.traced() {
        let pct = |v: &[f64], q| percentile(v, q).map_or(0.0, |p| p.value);
        ctx.set("serve.hit_p50_ms", pct(&hits, 0.5));
        ctx.set("serve.hit_p99_ms", pct(&hits, 0.99));
        ctx.set("serve.miss_p50_ms", pct(&misses, 0.5));
        ctx.set("serve.miss_p99_ms", pct(&misses, 0.99));
        ctx.set(
            "serve.sim_wall_ms_per_job",
            sim_wall_s * 1e3 / misses.len().max(1) as f64,
        );
        ctx.set("serve.shed", delta(&m0, &m1, "gmh_requests_shed_total"));
        ctx.set(
            "serve.timeouts",
            delta(&m0, &m1, "gmh_requests_timeout_total"),
        );
        ctx.set(
            "serve.errors",
            delta(&m0, &m1, "gmh_requests_errored_total"),
        );
        ctx.set("loadgen.lag_p99_ms", pct(&lag, 0.99));
        ctx.set("loadgen.sent", sent as f64);
        ctx.set("loadgen.offered_per_s", sched.len() as f64 / span_s);
        ctx.set("serve.warm_round_ms", median(&warm) * 1e3);
        replay_hot(ctx, &primed);
        ctx.set("work.insts", insts);
        ctx.set("work.core_cycles", cycles);
        ctx.set("work.fetches", fetches);
        ctx.set("results.digest", digest52(digest.finish()) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_offers_the_fixed_rate() {
        let a = schedule(3, 20.0);
        let b = schedule(3, 20.0);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due_s == y.due_s && x.key == y.key));
        let rate = a.len() as f64 / 20.0;
        assert!((rate - (FRESH_PER_S + HITS_PER_S)).abs() < 5.0, "{rate}");
        let fresh: Vec<u64> = a.iter().filter(|r| !r.hit).map(|r| r.key.seed).collect();
        let uniq: std::collections::BTreeSet<u64> = fresh.iter().copied().collect();
        assert_eq!(uniq.len(), fresh.len(), "fresh keys are distinct");
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        // Fresh jobs are spread evenly: never more than one per
        // ceil(1 / f) arrivals.
        let f = FRESH_PER_S / (FRESH_PER_S + HITS_PER_S);
        let gap = (1.0 / f).floor() as usize;
        let idx: Vec<usize> = (0..a.len()).filter(|&i| !a[i].hit).collect();
        assert!(idx.windows(2).all(|w| w[1] - w[0] >= gap), "{idx:?}");
        assert_ne!(schedule(4, 20.0)[0].key, a[0].key);
    }

    #[test]
    fn metrics_deltas_read_labeled_and_plain_series() {
        let a = "# TYPE gmh_sim_wall_ms_total counter\n\
                 gmh_sim_wall_ms_total 100\n\
                 gmh_host_phase_ns_total{phase=\"core_tick\"} 7000\n\
                 gmh_host_phase_ns_total{phase=\"icnt_tick\"} 9000\n";
        let b = "gmh_sim_wall_ms_total 350\n\
                 gmh_host_phase_ns_total{phase=\"core_tick\"} 7500\n\
                 gmh_host_phase_ns_total{phase=\"icnt_tick\"} 9000\n";
        assert_eq!(delta(a, b, "gmh_sim_wall_ms_total"), 250.0);
        let core = "gmh_host_phase_ns_total{phase=\"core_tick\"}";
        assert_eq!(delta(a, b, core), 500.0);
        assert_eq!(
            delta(a, b, "gmh_host_phase_ns_total{phase=\"icnt_tick\"}"),
            0.0
        );
        // A series missing from either side reads as 0.
        assert_eq!(delta("", b, "gmh_sim_wall_ms_total"), 350.0);
        assert_eq!(delta(a, b, "gmh_requests_shed_total"), 0.0);
    }

    #[test]
    fn hot_set_is_one_key_per_catalog_workload() {
        let keys: Vec<Key> = (0..hot_keys()).map(|k| hot_key(5, k)).collect();
        let names: std::collections::BTreeSet<&str> = keys.iter().map(|k| k.workload).collect();
        assert_eq!(names.len(), catalog::names().len());
    }
}
