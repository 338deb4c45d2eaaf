"""Benchmark self-check: same seed, same counts, same outputs.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload (default: all of ``BENCHMARK.json``) this runs
``perfbench/run.py`` three times as separate processes with the same
seed — traced twice, untraced once — and requires:

* identical per-layer counts (every per-layer figure except wall ``*ms``)
  and identical ``virtual_*`` metrics between the two traced runs;
* identical output fingerprints across all three runs, so tracing does
  not change what the program computes.

Exits 1 on the first disagreement, printing what differed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import is_wall

ROOT = Path(__file__).resolve().parent.parent
OUT = ".bench_out/selfcheck"


def _run(workload: str, seed: int, seconds: float, trace: int, tag: str) -> dict:
    out = f"{OUT}/{tag}"
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    path = ROOT / out / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def _counts(dump: dict) -> dict:
    return {k: v for k, v in dump["per_layer"].items()
            if not is_wall(k) and k != "trace.overhead_frac"}


def check(workload: str, seed: int, seconds: float) -> list:
    a = _run(workload, seed, seconds, 1, "a")
    b = _run(workload, seed, seconds, 1, "b")
    plain = _run(workload, seed, seconds, 0, "plain")
    problems = []
    ca, cb = _counts(a), _counts(b)
    for k in sorted(set(ca) | set(cb)):
        if ca.get(k) != cb.get(k):
            problems.append(f"count {k}: {ca.get(k)} vs {cb.get(k)}")
    if a["virtual"] != b["virtual"] or a["virtual"] != plain["virtual"]:
        problems.append(f"virtual metrics differ: {a['virtual']} / "
                        f"{b['virtual']} / {plain['virtual']}")
    prints = {a["output_fingerprint"], b["output_fingerprint"],
              plain["output_fingerprint"]}
    if len(prints) != 1:
        problems.append(f"output fingerprints differ: {sorted(prints)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    failed = False
    for name in names:
        problems = check(name, args.seed, args.seconds)
        print(f"{name}: {'ok' if not problems else 'MISMATCH'}")
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
