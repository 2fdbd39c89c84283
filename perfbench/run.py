#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark, the traced daemon and bin/hem_tool.exe with dune
(in the checkout's _build, without the shared dune cache), then runs
perfbench/main.exe with the same arguments.  The benchmark's output is
passed through; its last line is the JSON result.  Exits non-zero,
without a result, when the checkout has no sources to build.

The serve_session workload runs pinned to one CPU, client and daemon
alike.  Its client and daemon hand each sub-millisecond request back and
forth; on two CPUs every hand-off woke an idle virtual CPU, whose wake-up
time on a shared host varied so much that throughput spread 40% between
runs of the same seed.  On one CPU the spread was under 5%.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGETS = ["./perfbench/main.exe", "./perfbench/daemon.exe", "./bin/hem_tool.exe"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_group(argv, timeout, cpus=None, **kwargs):
    """Runs argv in its own process group, on [cpus] if given; on timeout
    the whole group (including a serve daemon it started) is killed and
    reaped."""
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    proc = subprocess.Popen(argv, start_new_session=True, preexec_fn=pin, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (argv[0], timeout))
    return proc.returncode, out


def main():
    for required in ["dune-project", "lib", "bin", "perfbench/dune"]:
        if not os.path.exists(required):
            fail("no %s here: run from the root of a source checkout" % required)
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--cache=disabled"] + TARGETS,
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
        env=env,
    )
    if code != 0:
        fail("build failed")
    cpus = None
    if "serve_session" in sys.argv[1:]:
        cpus = {min(os.sched_getaffinity(0))}
        print("perfbench: serve_session pinned to cpu %d" % min(cpus), file=sys.stderr)
    code, out = run_group(
        ["_build/default/perfbench/main.exe"] + sys.argv[1:] + ["--bin", "_build/default"],
        RUN_TIMEOUT_S,
        cpus=cpus,
        stdout=subprocess.PIPE,
    )
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
