#!/usr/bin/env python3
"""Build and run the mpnj end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload kv_pipe|kv_tcp|abisort --seed N \
        --seconds S --trace 0|1 [--corrupt-every N]

Run from the repository root.  The first call builds perfbench/ together
with the runtime sources in src/ into .bench_build/perfbench; later calls
only rebuild what changed.  Build output and progress go to stderr; the last
line of stdout is the result object of the run.  Exit status is 0 only when
every op of the run checked out.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mpnj_perfbench")
# The binary's own watchdog ends a hung run at 165 s; this is the backstop
# for a run that dies or cannot even print.
RUN_TIMEOUT_S = 172


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ tree next to perfbench/: nothing to build")
        return False
    cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", BUILD, "--target",
                       "mpnj_perfbench", "-j", "4"]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["kv_pipe", "kv_tcp", "abisort"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-every", type=int, default=0,
                    help="make every Nth expected result wrong (checker test)")
    args = ap.parse_args()

    if not build():
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corrupt-every", str(args.corrupt_every)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    log(f"workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}")

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    result = None
    progress = (0, 0)  # (attempted, ok) at the last progress line

    def kill(signum, frame):
        os.killpg(proc.pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.alarm(RUN_TIMEOUT_S)
    for line in proc.stdout:
        line = line.strip()
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except ValueError:  # cut short by a kill
                log("unparsable result line: " + line)
        elif line.startswith("progress "):
            f = dict(kv.split("=") for kv in line.split()[1:])
            progress = (int(f["attempted"]), int(f["ok"]))
        elif line:
            log(line)
    proc.wait()
    signal.alarm(0)

    if result is None:
        # Died or was killed before printing: every op not known to have
        # checked out counts as failed.
        attempted, ok = progress
        why = ("timed out" if time.monotonic() >= deadline
               else f"exit status {proc.returncode}")
        log(f"run {why} without a result")
        result = {"correct": False, "attempted": max(attempted, 1),
                  "failed": max(attempted - ok, 1), "metrics": {}}
    print(json.dumps(result), flush=True)
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
