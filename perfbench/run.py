"""Repository benchmark: one workload per process, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload infer|serve|compile \\
        [--seed N] [--seconds S] [--trace 0|1] [--out DIR]

The command sets the workload up ``setup_reps`` times (``setup_s`` is
the median), then runs whole rounds for ``--seconds`` of wall time (at
least two; no round starts that would likely end past the budget).
Every round's outputs are checked against known answers outside the
timed region; any mismatch counts in ``failed`` and makes the command
exit 1.

``--trace 0`` measures with no instrumentation and reports the
``end_to_end`` metrics of ``BENCHMARK.json``.  Their timings are
calibrated for machine speed: a fixed CPU :func:`probe` runs before and
after every set-up and every step of a round, and each step's wall time
is rescaled by the probes around it (:class:`Stopwatch`).  The
uncalibrated figures are printed too.

``--trace 1`` alternates untraced and traced rounds.  Traced rounds
install the span wrappers of ``tracing.py`` and yield the ``per_layer``
metrics: wall ``*ms`` figures (uncalibrated) are medians over traced
rounds, and every other figure is one round's value, which must repeat
exactly.  Traced against untraced rounds give the tracing overhead.

Spans, per-step times and output fingerprints are written to
``DIR/<workload>-seed<N>-trace<T>.json`` (default ``.bench_out``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median

from tracing import Tracer, install, self_ms

ROOT = Path(__file__).resolve().parent.parent

#: environment switches of the program that would change what is measured
#: (scalar interpreter, on-disk compile cache, fault-injection seed)
PROGRAM_ENV = ("REPRO_INTERP", "REPRO_CACHE_DIR", "REPRO_FAULT_SEED")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")

#: compile stage -> per-layer wall metric
STAGE_MS = {
    "import": "relay.import_ms", "fuse": "relay.fuse_ms",
    "schedule": "schedule.ms", "lower": "lower.ms", "codegen": "codegen.ms",
    "verify": "verify.ms", "synthesize": "aoc.synthesize_ms", "plan": "plan.ms",
}
#: (stage, trace counter) -> per-layer count
STAGE_COUNTERS = {
    ("lower", "lower_hits"): "lower.hits",
    ("lower", "lower_misses"): "lower.misses",
    ("codegen", "bytes"): "codegen.bytes",
    ("verify", "errors"): "verify.errors",
    ("verify", "equiv_dynamic_runs"): "verify.equiv_dynamic_runs",
}


def _cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cpus = os.cpu_count() or 1
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, cpus))
        except ValueError:
            current = cpus
        os.environ[var] = str(max(1, min(current, cpus)))
    for var in PROGRAM_ENV:
        os.environ.pop(var, None)


#: end-to-end times are rescaled to a machine on which probe() takes this long
PROBE_REF_S = 0.020


def probe() -> float:
    """Seconds one fixed CPU-bound loop takes right now.

    The loop mixes pure-Python arithmetic with small NumPy operations,
    the mix the workloads spend their time in, and touches nothing of
    the program, so ``PROBE_REF_S / probe()`` is the machine's momentary
    speed.  Garbage collection is paused so the program's heap cannot
    slow the probe down.
    """
    import gc

    import numpy as np

    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(120_000):
            acc += i * i % 7
        a = np.arange(64, dtype=np.float32)
        for _ in range(1600):
            a = a * np.float32(1.0001) + np.float32(1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Stopwatch:
    """Times calls, probing the machine before and after each one.

    ``walls[k]`` is call k's wall time; ``cals[k]`` is it rescaled by the
    mean of the probes just before and after the call, i.e. the call's
    time on a machine where :func:`probe` takes ``PROBE_REF_S``.
    """

    def __init__(self) -> None:
        self.probes = [probe()]
        self.walls: list = []
        self.cals: list = []

    def run(self, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            wall = time.perf_counter() - t0
            self.probes.append(probe())
            self.walls.append(wall)
            self.cals.append(
                wall * 2 * PROBE_REF_S / (self.probes[-2] + self.probes[-1]))


def is_wall(name: str) -> bool:
    """Wall-clock per-layer figures vary run to run; all others repeat."""
    return name.endswith("ms") and not name.startswith("virtual")


def span_layers(spans) -> dict:
    """Per-layer figures of one traced round, from its spans."""
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    selfs = self_ms(spans)
    for s in spans:
        a = s.attrs
        if s.name.startswith("stage."):
            stage = s.name[len("stage."):]
            if stage in STAGE_MS:
                add(STAGE_MS[stage], s.ms)
            for (st, counter), key in STAGE_COUNTERS.items():
                if st == stage:
                    add(key, a["counters"].get(counter, 0))
            if stage == "synthesize":
                add("pipeline.cache_hits", int(a["cache"] == "hit"))
                add("pipeline.cache_misses", int(a["cache"] == "miss"))
                add("aoc.fit_errors",
                    int(bool(a["error"]) and a["error"].startswith("FitError")))
            if stage == "plan":
                add("plan.arena_bytes", a.get("arena_bytes", 0))
        elif s.name == "dse.sweep":
            add("dse.ms", s.ms)
            for k in ("points", "pruned", "evaluated"):
                add(f"dse.{k}", a.get(k, 0))
        elif s.name == "executor.run":
            add("executor.ms", s.ms)
            add("executor.invocations", 1)
        elif s.name == "vinterp.run":
            add(f"vinterp.{a['kernel']}.ms", s.ms)
            add("vinterp.bands", a["bands"])
            add("vinterp.fallbacks", a["fallbacks"])
        elif s.name == "simulate.service_us":
            add("simulate.ms", s.ms)
            add("simulate.calls", 1)
        elif s.name == "nn.reference":
            add("nn.reference_ms", s.ms)
            add("nn.reference_calls", 1)
        elif s.name == "serve.run":
            add("serve.loop_self_ms", selfs[s.id])
    bands = out.get("vinterp.bands", 0)
    if bands:
        out["vinterp.vectorized_frac"] = 1 - out["vinterp.fallbacks"] / bands
    looked = out.get("pipeline.cache_hits", 0) + out.get("pipeline.cache_misses", 0)
    if looked:
        out["pipeline.cache_hit_frac"] = out["pipeline.cache_hits"] / looked
    return out


def _merge_layers(rounds: list, errors: list) -> dict:
    """Wall figures: median over traced rounds; counts: must all agree."""
    merged = {}
    keys = sorted({k for r in rounds for k in r})
    for k in keys:
        values = [r.get(k, 0) for r in rounds]
        if is_wall(k):
            merged[k] = median(values)
        else:
            merged[k] = values[0]
            if any(v != values[0] for v in values):
                errors.append(f"per-layer count {k} varies across rounds: "
                              f"{values}")
    return merged


def _percentile_line(samples_ms: list) -> str:
    n = len(samples_ms)
    p50 = median(samples_ms)
    line = f"op_ms p50 = {p50:.3f} ms over n={n} rounds"
    if n >= 100:  # ten or more samples beyond the 90th percentile
        p90 = sorted(samples_ms)[-(-9 * n // 10) - 1]
        return line + f"; p90 = {p90:.3f} ms"
    return line + f"; p90 withheld (needs >=100 samples for 10 beyond it)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_out")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"perfbench: missing {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    _cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # imports numpy: after the thread caps

    wl = WORKLOADS[args.workload](args.seed)

    watch = Stopwatch()
    for _ in range(wl.setup_reps):
        watch.run(wl.setup)
    setup_s, setup_cal = watch.walls[:], watch.cals[:]

    tracer = Tracer()
    rounds = []  # (index, traced, wall s, calibrated s, attempted)
    traced_layers = []
    attempted = failed = 0
    t_phase = time.perf_counter()
    i = 0
    # whole rounds only, and none that would likely end past the budget
    while i < 2 or (time.perf_counter() - t_phase
                    + median(r[2] for r in rounds) <= seconds):
        traced = bool(args.trace) and i % 2 == 1
        wl.prepare(i)
        n0, k0 = len(tracer.spans), len(watch.walls)
        results = []
        try:
            with install(tracer) if traced else nullcontext():
                for step in wl.steps(i, tracer if traced else None):
                    results.append(watch.run(step))
            tried, bad = wl.collect(i, results)
        except Exception:  # a round that raised fails all its ops
            traceback.print_exc(file=sys.stderr)
            wl.failures.append((i, "round raised"))
            wl.fingerprints.append("raised")
            tried = bad = wl.ops_per_round()
            results = None
        attempted += tried
        failed += bad
        rounds.append((i, traced, sum(watch.walls[k0:]),
                       sum(watch.cals[k0:]), tried))
        if traced and results is not None:
            layers = span_layers(tracer.spans[n0:])
            layers.update(wl.layers(results))
            traced_layers.append(layers)
        i += 1

    plain = [r for r in rounds if not r[1]]
    ops_per_s = sum(r[4] for r in plain) / sum(r[3] for r in plain)
    op_ms = [r[3] / r[4] * 1e3 for r in plain]
    raw_ops_per_s = sum(r[4] for r in plain) / sum(r[2] for r in plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.verify_traced([r[0] for r in rounds if r[1]],
                     [r[0] for r in plain])

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = {
        "setup_s": median(setup_cal),
        "ops_per_s": ops_per_s,
        "op_ms_p50": median(op_ms),
        "peak_rss_mb": peak_rss_mb,
    }
    layer = {}
    if args.trace:
        layer = {m["name"]: 0 for m in spec["per_layer"]}
        measured = _merge_layers(traced_layers, wl.selfcheck_errors)
        measured.update(wl.virtual())
        t_rounds = [r for r in rounds if r[1]]
        traced_rate = sum(r[4] for r in t_rounds) / sum(r[3] for r in t_rounds)
        measured["trace.overhead_frac"] = 1 - traced_rate / ops_per_s
        extra = sorted(set(measured) - set(layer))
        layer.update({k: v for k, v in measured.items() if k in layer})

    # -- human-readable report ------------------------------------------------
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)} ({len(plain)} untraced)  "
          f"setup reps {len(setup_s)}")
    for note in wl.notes():
        print(f"  {note}")
    print(f"  {_percentile_line(op_ms)} (calibrated)")
    print(f"  failed_frac = {failed / attempted:.6f} ({failed}/{attempted})")
    for name, value in {**e2e, **wl.virtual()}.items():
        print(f"  {name} = {value} {units.get(name, '')}")
    print(f"  uncalibrated: setup_s = {median(setup_s)} s, ops_per_s = "
          f"{raw_ops_per_s} 1/s; machine probe median "
          f"{median(watch.probes) * 1e3:.3f} ms "
          f"(reference {PROBE_REF_S * 1e3:g} ms)")
    if args.trace:
        print(f"  tracing overhead: {layer['trace.overhead_frac']:+.2%} of "
              f"untraced ops_per_s")
        kernel_ms = sum(v for k, v in layer.items()
                        if k.startswith("vinterp.") and k.endswith(".ms"))
        print(f"  vinterp kernel spans {kernel_ms:.3f} ms within executor "
              f"{layer['executor.ms']:.3f} ms")
        for name, value in layer.items():
            print(f"    {name} = {value} {units[name]}")
        for name in extra:
            print(f"    (not in BENCHMARK.json) {name} = {measured[name]}")
    for r, reason in wl.failures[:20]:
        print(f"  FAILED round {r}: {reason}")
    for err in wl.selfcheck_errors:
        print(f"  SELF-CHECK: {err}")
    print(f"  output fingerprint {wl.output_fingerprint()}")

    out_dir = ROOT / args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    dump = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "end_to_end": e2e, "per_layer": layer, "virtual": wl.virtual(),
        "output_fingerprint": wl.output_fingerprint(),
        "round_fingerprints": wl.fingerprints,
        "failures": wl.failures, "selfcheck_errors": wl.selfcheck_errors,
        "rounds": rounds, "setup_s": setup_s,
        "step_walls": watch.walls, "probes": watch.probes,
        "spans": tracer.to_json(),
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dump))

    correct = failed == 0 and not wl.selfcheck_errors
    metrics = layer if args.trace else e2e
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
