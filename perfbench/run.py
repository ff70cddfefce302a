#!/usr/bin/env python3
"""Build the benchmark from source, run it, and check its fingerprint.

    python3 perfbench/run.py --workload web --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload web --seed 1 --trace 1 --store-fingerprint

Run from the repository root.  The build uses dune inside this checkout
(`_build/`) with dune's shared cache disabled, so nothing is written
outside it.  Everything the benchmark prints passes through; before the
final JSON line this script adds one line comparing the run's
simulated digests with the ones stored in perfbench/fingerprints.json
for the same workload and seed.  --store-fingerprint records them
there instead.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STORE = os.path.join(HERE, "fingerprints.json")
RUN_TIMEOUT_S = 170


def arg(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def digests(lines):
    found = {}
    for line in lines:
        words = line.split()
        if words[:3] == ["sim", "ops", "digest"]:
            found["ops_digest"] = words[3]
        elif words[:1] == ["fingerprint"]:
            found["fingerprint"] = words[1]
    return found


def compare(workload, seed, found, store):
    stored = store.get(workload, {}).get(seed, {})
    verdicts = []
    for key, value in sorted(found.items()):
        if key not in stored:
            verdicts.append(f"{key} not stored")
        elif stored[key] == value:
            verdicts.append(f"{key} matches stored")
        else:
            verdicts.append(f"{key} DIFFERS from stored {stored[key]}")
    return f"fingerprint check ({workload} seed {seed}): " + ", ".join(verdicts)


def main(argv):
    store_requested = "--store-fingerprint" in argv
    argv = [a for a in argv if a != "--store-fingerprint"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return run.returncode or 1
    workload, seed = arg(argv, "--workload"), arg(argv, "--seed")
    found = digests(lines)
    for line in lines[:-1]:
        print(line)
    if workload and seed and found:
        store = {}
        if os.path.exists(STORE):
            with open(STORE) as f:
                store = json.load(f)
        if store_requested:
            store.setdefault(workload, {}).setdefault(seed, {}).update(found)
            with open(STORE, "w") as f:
                json.dump(store, f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"fingerprint stored ({workload} seed {seed})")
        else:
            print(compare(workload, seed, found, store))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
