#!/usr/bin/env python3
"""Run one workload of the capfs benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe from source with
dune (the first build compiles the libraries and can take minutes), then
runs the workload in a fresh process inside a private scratch directory
(.perfbench_run/) that is removed afterwards. The last line of standard
output is the JSON result; on any failure the script exits non-zero and
prints no result.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("patsy-sprite1b", "pfs-rpc", "pfs-leased")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench", "dune-project"):
        if os.path.isfile(top):
            paths = [top]
        else:
            paths = sorted(os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def run_group(cmd, timeout, env=None):
    """Run cmd in its own process group; on timeout, or when this script
    is told to stop, kill the whole group and reap it."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out after %d s" % timeout
    finally:
        for s, h in old.items():
            signal.signal(s, h)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code, out = run_group(["dune", "build", "--root", ".", "--display", "quiet",
                               "./perfbench/main.exe"], BUILD_TIMEOUT_S, env)
    except OSError as e:
        sys.exit("perfbench: cannot run dune: %s" % e)
    if code != 0:
        sys.exit("perfbench: build failed (%s)" % (out if code is None else code))

    scratch = os.path.join(".perfbench_run", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    env["PERFBENCH_SOURCE"] = source_id()
    try:
        code, out = run_group([EXE, "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--dir", scratch], RUN_TIMEOUT_S, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(".perfbench_run")
        except OSError:
            pass
    if code != 0:
        if out:
            # the human-readable part only: a failed run prints no result
            sys.stdout.write("\n".join(l for l in out.splitlines() if not l.startswith("{")) + "\n")
        sys.exit("perfbench: %s failed (%s)" % (args.workload, out if code is None else "exit %d" % code))
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
