#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/bench.exe with
dune (no shared dune cache, so nothing is written outside the checkout),
then runs one workload; the last line of stdout is the result JSON.
Exits non-zero without a result when the sources are missing or the
build fails.  See perfbench/README.md for workloads and metrics.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175

# serve-read's client and server domains hand every request off through a
# Unix socket.  Pinned to one CPU, each hand-off is a local context switch;
# across the two vCPUs of a shared VM, the wake-ups made its pass time
# swing up to 3x from one minute to the next.
ONE_CPU_WORKLOADS = {"serve-read"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def run_child(cmd, timeout, **kwargs):
    """Run cmd to completion; kill it on timeout or when we are signalled.
    Returns its exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def pin_to_one_cpu():
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        return fail("no Kondo sources next to perfbench/ (need dune-project and lib/)")
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = run_child(
        [dune, "build", "--root", ROOT, "--display", "quiet", "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if build is None:
        return fail("build timed out")
    if build != 0 or not os.path.isfile(EXE):
        return fail("build failed")
    workload = argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else None
    pin = pin_to_one_cpu if workload in ONE_CPU_WORKLOADS else None
    code = run_child([EXE] + argv, RUN_TIMEOUT_S, env=env, preexec_fn=pin)
    if code is None:
        return fail("benchmark timed out")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
