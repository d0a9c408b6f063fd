//! R1 — determinism: model crates may not reach for nondeterministic
//! collections, wall-clock time, or unseeded randomness. A simulation run
//! must be a pure function of (config, seed); `HashMap` iteration order and
//! `Instant::now` both break byte-identical replay (the property the
//! determinism regression test pins down).

use crate::config::LintConfig;
use crate::source::{contains_token, SourceFile};
use crate::Finding;

pub const RULE: &str = "R1";

/// `(token, hint, rng_class)`; `rng_class` tokens are legitimate inside
/// the one sanctioned RNG module (`gmh_types::rng`).
const BANNED: &[(&str, &str, bool)] = &[
    (
        "HashMap",
        "use std::collections::BTreeMap — HashMap iteration order varies per process and \
         makes runs irreproducible",
        false,
    ),
    (
        "HashSet",
        "use std::collections::BTreeSet — HashSet iteration order varies per process and \
         makes runs irreproducible",
        false,
    ),
    (
        "Instant",
        "model time must come from the simulation clock (gmh_types::clock), never wall time",
        false,
    ),
    (
        "SystemTime",
        "model time must come from the simulation clock (gmh_types::clock), never wall time",
        false,
    ),
    (
        "thread_rng",
        "draw randomness from the seeded generator in gmh_types::rng",
        true,
    ),
    (
        "from_entropy",
        "seed explicitly from the config; entropy-seeded RNGs make runs irreproducible",
        true,
    ),
    (
        "RandomState",
        "hasher randomization is per-process nondeterminism; use BTreeMap or a fixed hasher",
        false,
    ),
    // Shared-mutable-state primitives. A simulation is owned by the one
    // thread that runs it; a lock in model code means two threads can
    // observe the same state under an OS-scheduled interleaving — exactly
    // the nondeterminism R1 exists to keep out of the cycle accounting.
    (
        "Mutex",
        "model state is owned by the thread that runs the simulation, never shared; \
         lock-protected state admits scheduler-dependent interleavings",
        false,
    ),
    (
        "RwLock",
        "model state is owned by the thread that runs the simulation, never shared; \
         lock-protected state admits scheduler-dependent interleavings",
        false,
    ),
    (
        "Condvar",
        "model code has no cross-thread barriers; condition variables over shared \
         state admit scheduler-dependent interleavings",
        false,
    ),
];

pub fn check(cfg: &LintConfig, f: &SourceFile, out: &mut Vec<Finding>) {
    if !crate::in_model_crate(cfg, &f.path) {
        return;
    }
    let is_rng_home = f.path.ends_with("types/src/rng.rs");
    for (i, code) in f.code.iter().enumerate() {
        if f.in_test[i] {
            continue;
        }
        for (tok, hint, rng_class) in BANNED {
            if *rng_class && is_rng_home {
                continue;
            }
            if contains_token(code, tok) {
                out.push(Finding {
                    rule: RULE,
                    path: f.path.clone(),
                    line: i + 1,
                    message: format!("nondeterminism hazard: `{tok}` in a model crate"),
                    hint: (*hint).to_string(),
                });
            }
        }
    }
}
