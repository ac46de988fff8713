#!/usr/bin/env python3
"""Run the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, then runs it once per workload, in
its own process. Each run ends its output with one JSON object on a
line of its own: {correct, attempted, failed, metrics}. With --trace 1
the Chrome trace is written to perfbench/out/.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["jvm98-barriers", "txn-scaling", "dpor-certify", "fuzz-clean"]
BENCH_DIR = "perfbench"
EXE = os.path.join("_build", "default", BENCH_DIR, "main.exe")
OUT_DIR = os.path.join(BENCH_DIR, "out")
# log2 of the runtime-events ring, in words (default 16): the traced run
# drains the ring between units, and the longest unit (about 1.5 s of
# DPOR exploration) emits more GC events than the default ring holds
RING_LOG2 = "19"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: not at the root of a repository checkout "
              "(no dune-project and lib/ here)", file=sys.stderr)
        return 2

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./" + BENCH_DIR + "/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    if args.trace:
        env["OCAML_RUNTIME_EVENTS_DIR"] = OUT_DIR
        env["OCAMLRUNPARAM"] = ",".join(
            p for p in [env.get("OCAMLRUNPARAM", ""), "e=" + RING_LOG2] if p)
    status = 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [EXE, "run",
               "--workload", w,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        sys.stdout.flush()
        status = status or subprocess.run(cmd, env=env, timeout=175).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
