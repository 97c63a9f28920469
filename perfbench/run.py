#!/usr/bin/env python3
"""Build and run one workload of the benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/bench.exe and bin/dps_serve.exe with dune, in a
workspace it assembles under .bench_build/ (see perfbench/dune-project),
runs the workload, and prints the result line of bench.exe as its own
last line: one JSON object with the keys correct, attempted, failed and
metrics.
Workloads, metrics and how to read them: perfbench/README.md.

It exits with a code other than 0, and prints no result, when the
build or the run fails or when the result line is malformed.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["sinr-sparse", "conflict-dense", "wireline-line", "serve-journal"]
WORKSPACE = os.path.join(".bench_build", "dune")
RUN_TIMEOUT_S = 170  # one run must end within 180 s
BUILD_TIMEOUT_S = 850  # a cold build is allowed 900 s


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def find_dune():
    """dune on PATH, else the opam switch it was installed into."""
    found = shutil.which("dune")
    if found:
        return found
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    prefixes += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
    for prefix in prefixes:
        candidate = os.path.join(prefix, "bin", "dune")
        if prefix and os.access(candidate, os.X_OK):
            return candidate
    fail("dune not found")


def assemble_workspace():
    """The build workspace: perfbench's dune-project at its root, the
    checkout's lib/ and bin/ linked beside perfbench/, whose files are
    linked one by one so that no second dune-project sits below the
    root. Rebuilt on every run; dune's own _build inside it is kept."""
    bench_dir = os.path.join(WORKSPACE, "perfbench")
    os.makedirs(bench_dir, exist_ok=True)
    shutil.copyfile(os.path.join("perfbench", "dune-project"),
                    os.path.join(WORKSPACE, "dune-project"))

    def link(target, name):
        if os.path.lexists(name):
            os.remove(name)
        os.symlink(target, name)

    up = os.path.join("..", "..")
    link(os.path.join(up, "lib"), os.path.join(WORKSPACE, "lib"))
    link(os.path.join(up, "bin"), os.path.join(WORKSPACE, "bin"))
    sources = [f for f in os.listdir("perfbench")
               if f.endswith(".ml") or f == "dune"]
    for f in os.listdir(bench_dir):
        if f not in sources:
            os.remove(os.path.join(bench_dir, f))
    for f in sources:
        link(os.path.join("..", up, "perfbench", f), os.path.join(bench_dir, f))


def run_group(cmd, timeout, env, capture):
    """Run cmd in its own process group; on timeout kill the whole group
    (dps_serve daemons included) and wait for it."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def flambda(env):
    """Whether the compiler is a flambda build, from `ocamlopt -config`."""
    try:
        out = subprocess.run(
            ["ocamlopt", "-config"], env=env, capture_output=True, text=True,
            timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    for line in out.splitlines():
        if line.startswith("flambda:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        fail("run from the root of a checkout of the repository")
    dune = find_dune()
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")

    assemble_workspace()
    built = os.path.join(WORKSPACE, "_build", "default")
    bench = os.path.join(built, "perfbench", "bench.exe")
    serve = os.path.join(built, "bin", "dps_serve.exe")
    code, _ = run_group(
        [dune, "build", "--root", WORKSPACE, "--profile", "perfbench",
         "./perfbench/bench.exe", "./bin/dps_serve.exe"],
        BUILD_TIMEOUT_S, env, capture=False,
    )
    if code != 0:
        fail("build failed")

    # One CPU for the benchmark and the daemons it starts. serve-journal
    # reads the daemon's CPU clock (/proc/PID/schedstat) after each
    # reply; that clock is exact only while the daemon is off the CPU,
    # which on a shared CPU holds whenever the client runs. It also keeps
    # a run independent of where the scheduler places the processes.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    code, out = run_group(
        [bench, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--serve", serve, "--flambda", flambda(env)],
        RUN_TIMEOUT_S, env, capture=True,
    )
    lines = out.decode().strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        fail("bench.exe exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("malformed result line: " + lines[-1][:200])
    ok = (
        set(result) == {"correct", "attempted", "failed", "metrics"}
        and isinstance(result["attempted"], int) and result["attempted"] >= 1
        and all(isinstance(m.get("value"), (int, float))
                for m in result["metrics"].values())
    )
    if not ok:
        fail("result line does not satisfy the contract: " + lines[-1][:200])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
