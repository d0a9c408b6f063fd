//! `setup_s`: seconds from process start to the first simulated cycle or
//! the first `PING` reply.
//!
//! Each sample starts this binary again in probe mode (`--setup-probe 1`).
//! The child runs the workload's set-up path and writes `ready` to stdout
//! as soon as its first core cycle has run or its first `PING` has been
//! answered; it then tears down and exits. The parent times from just
//! before the start to that line, so a sample holds what a user waits for
//! at launch: process start (exec, loading, first touch of the binary's
//! pages, lazily built statics) as well as the set-up itself.

use crate::Ctx;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The line a probe writes when its set-up has reached the first cycle or
/// `PING` reply.
const READY: &str = "ready";

/// Takes `reps` set-up samples in seconds, each from a fresh probe process.
/// A probe that fails or does not report ready counts as a failed
/// operation and gives no sample.
pub fn sample(ctx: &mut Ctx, reps: usize) -> Vec<f64> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        match probe_once(&ctx.workload, ctx.seed) {
            Ok(s) => {
                samples.push(s);
                ctx.op(Ok(()));
            }
            Err(e) => ctx.op(Err(format!("set-up probe: {e}"))),
        }
    }
    samples
}

fn probe_once(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let seed = seed.to_string();
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed])
        .args(["--seconds", "1", "--trace", "0", "--setup-probe", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting: {e}"))?;
    let mut line = String::new();
    let read = match child.stdout.take() {
        Some(out) => BufReader::new(out).read_line(&mut line),
        None => Ok(0),
    };
    let elapsed = t0.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("waiting: {e}"))?;
    read.map_err(|e| format!("reading: {e}"))?;
    if line.trim_end() != READY {
        return Err(format!("expected {READY:?}, read {line:?} ({status})"));
    }
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    Ok(elapsed)
}

/// Called by a probe when its set-up is done.
pub fn ready() -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{READY}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing {READY}: {e}"))
}
