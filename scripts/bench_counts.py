#!/usr/bin/env python3
"""The exact count rows of the benchmark's gated workloads, held in BENCH_counts.json.

Every share and per-commit metric of a `--trace 1` run repeats exactly for a
seed on any host, so these rows are compared for equality, not sampled. Run
from the repository root:

    python3 scripts/bench_counts.py                        # rewrite BENCH_counts.json
    python3 scripts/bench_counts.py --check                # compare fresh runs with it
    python3 scripts/bench_counts.py --check write-capacity # one workload

A change that moves a count rewrites the file; its diff is the claim. The
runs use the benchmark module as it is (`go run -C benchmark .`).
"""
import json
import subprocess
import sys

FILE = "BENCH_counts.json"
SEED = 1
# The gated workloads and the seconds each run lasts.
WORKLOADS = {"small-fast": 9, "write-capacity": 16, "list-10k": 16}


def counts(workload):
    out = subprocess.run(
        ["go", "run", "-C", "benchmark", ".", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(WORKLOADS[workload]), "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in sorted(metrics.items())
            if k.endswith(("share", "_per_commit"))}


def main(args):
    check = args[:1] == ["--check"]
    if args and not check:
        sys.exit(__doc__)
    names = args[1:] or list(WORKLOADS)
    for n in names:
        if n not in WORKLOADS:
            sys.exit("unknown workload %r; the gated ones are %s" % (n, ", ".join(WORKLOADS)))
    if not check:
        doc = {"seed": SEED, "seconds": WORKLOADS,
               "rows": {n: counts(n) for n in WORKLOADS}}
        with open(FILE, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        return
    with open(FILE) as f:
        want = json.load(f)["rows"]
    bad = 0
    for n in names:
        got = counts(n)
        for k in sorted(set(got) | set(want[n])):
            g, w = got.get(k), want[n].get(k)
            mark = "" if g == w else "   <-- %s holds %s" % (FILE, w)
            bad += g != w
            print("%s %s = %s%s" % (n, k, g, mark))
    if bad:
        sys.exit("%d count rows differ from %s" % (bad, FILE))


if __name__ == "__main__":
    main(sys.argv[1:])
