#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve_feeds|month_lstm|month_gru \
        --seed N --seconds S --trace 0|1 [--size full|small] [--inject drop]

Builds the `perfbench` package (release, offline) into
`$CARGO_TARGET_DIR`, or `.bench_build` at the checkout root when unset,
prints one provenance line, then runs the benchmark binary. The binary's
last line of output is the result object; the exit code is the binary's,
so a failed output check exits non-zero. Everything it writes stays
inside the checkout.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def output_of(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results from a
    checkout without git history can still be matched to a tree."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "compat", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target")
            files += [os.path.join(base, n) for n in sorted(names)]
        for f in files:
            if f.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def flag_value(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        log("error: the repository sources are missing next to perfbench/")
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    log("building the benchmark...")
    if subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        log("error: benchmark build failed")
        return 2

    provenance = {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": output_of(["rustc", "--version"]),
        "git_rev": output_of(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "workload": flag_value(args, "--workload"),
        "seed": flag_value(args, "--seed"),
        "seconds": flag_value(args, "--seconds"),
        "trace": flag_value(args, "--trace"),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True), flush=True)

    # A fixed mmap threshold keeps glibc from moving large buffers onto
    # the heap after the first free, which made peak RSS depend on the
    # order of earlier allocations rather than on the workload.
    env.setdefault("MALLOC_MMAP_THRESHOLD_", "131072")
    binary = os.path.join(target, "release", "nfv-perfbench")
    child = subprocess.Popen([binary] + args, cwd=ROOT, env=env)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log("error: benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
