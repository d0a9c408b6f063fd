#!/usr/bin/env python3
"""Builds the benchmark when its sources changed, then runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <w> --seed <n> --seconds <s> --trace <0|1>

The binary is built with `cargo build --release` into `$CARGO_TARGET_DIR`
(default `perfbench/target`) and rebuilt only when a fingerprint of the
build's inputs changes: the root and package manifests and lock files, and
every file under `crates/` and `perfbench/`. Calling cargo on every run is
not enough outside a git checkout: the build script of `gmh-serve` watches
`.git/HEAD`, and cargo treats a watched file that does not exist as
changed, so it would relink the whole benchmark each run.

The revision the output is stamped with is read here, at run time, and
passed to the binary in `PERFBENCH_GIT_SHA`: the checkout's `HEAD`, with
`-dirty` when tracked files differ from it, or `unknown` outside a git
checkout.

Cargo's output goes to stderr, so the benchmark's result stays the last
line of stdout. A failed build exits with cargo's status and prints no
result.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
SKIP_DIRS = {"target", "out", ".bench_build", ".git"}


def fingerprint() -> str:
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", PACKAGE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(Path(dirpath) / f for f in sorted(filenames))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(f.read_bytes() if f.is_file() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", "--no-optional-locks", "-C", str(ROOT), *args],
            capture_output=True, text=True,
        )

    try:
        head = git("rev-parse", "--short=12", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except OSError:
        return "unknown"
    if head.returncode != 0 or status.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", PACKAGE / "target"))
    if not target.is_absolute():
        target = Path.cwd() / target
    binary = target / "release" / "perfbench"
    stamp = target / "perfbench.fingerprint"
    fp = fingerprint()
    fresh = binary.is_file() and stamp.is_file() and stamp.read_text() == fp
    if not fresh:
        build = subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--offline",
             "--manifest-path", str(PACKAGE / "Cargo.toml")],
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            return build.returncode
        # Taken again: the build may have rewritten the lock file.
        stamp.write_text(fingerprint())
    os.environ["PERFBENCH_GIT_SHA"] = git_sha()
    os.execv(binary, [str(binary), *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
