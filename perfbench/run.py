#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  The build goes to dune's _build/
directory; the run writes scratch files under .perfbench_work/ and
removes them.  Standard output ends with the result object; its metric
names are checked against BENCHMARK.json before it is printed.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", "programs", "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail("%s not found: run from the root of the repository" % needed)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")
    run = subprocess.run([EXE] + sys.argv[1:], stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        sys.exit(run.returncode)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    traced = "--trace" in sys.argv[:-1] and sys.argv[sys.argv.index("--trace") + 1] == "1"
    section = "per_layer" if traced else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail("metrics differ from BENCHMARK.json %s: %s"
             % (section, sorted(set(want.items()) ^ set(got.items()))))
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
