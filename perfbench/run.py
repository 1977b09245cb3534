#!/usr/bin/env python3
"""Build the njq benchmark from source and run one measurement.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of an njq checkout.  Builds perfbench/main.exe with
dune, then runs it with the given arguments and exits with its status;
the last line of its output is the JSON result.  Generated catalogs,
result digests, trace files and spill files stay under .perfbench-data/
in the checkout.
"""

import os
import subprocess
import sys

MAIN = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: dune-project or lib/ missing; run from an njq checkout root")
    env = {k: v for k, v in os.environ.items() if k not in ("OCAMLRUNPARAM", "NJQ_DOMAINS")}
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=dict(env, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    tmp = os.path.join(root, ".perfbench-data", "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        run = subprocess.run(
            [os.path.join(root, MAIN)] + sys.argv[1:],
            env=dict(env, NJQ_TMPDIR=tmp, TMPDIR=tmp),
            timeout=170,
        )
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded 170 s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
