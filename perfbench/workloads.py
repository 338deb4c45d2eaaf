"""The three benchmark workloads: ``infer``, ``serve`` and ``compile``.

Each workload is a closed or open loop over *rounds*.  The runner calls
:meth:`Workload.setup` a few times (the median is ``setup_s``), then
per round :meth:`~Workload.prepare` (untimed), the calls of
:meth:`~Workload.steps` (each timed, all traced or none) and
:meth:`~Workload.collect` (untimed: it checks the round's outputs against
known answers computed outside the timed region).  One round is:

* ``infer`` — one batch-1 inference of a fresh seeded 1x57x57 input
  through the folded MobileNetV1 twin's generated kernels on A10;
* ``serve`` — one replay of the seeded request trace at every rate of
  :data:`LADDER` through a 4-replica LeNet-5 pool on S10SX;
* ``compile`` — the 3x3 network x board matrix built cold then warm,
  followed by the pruned 72-point 1x1-conv sweep of MobileNetV1@A10.

All inputs come from ``--seed`` (``compile`` builds the shipped networks
and ignores it).  Every count a round reports, and every virtual-clock
figure, is a pure function of the seed.
"""

from __future__ import annotations

import functools
import hashlib
import math
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.device import ARRIA10, STRATIX10_MX, STRATIX10_SX
from repro.errors import FitError
from repro.flow import deploy, dse
from repro.flow.folded import build_folded
from repro.flow.incremental import clear_lower_cache
from repro.flow.stages import MODELS
from repro.models.twins import TWINS
from repro.pipeline.cache import CompileCache
from repro.relay import fuse_operators, init_params, run_fused_graph
from repro.runtime import executor
from repro.serve import (
    InferenceRequest,
    RequestTrace,
    ServeConfig,
    Server,
    provision_replicas,
)
from repro.serve.metrics import percentile
from repro.verify.equiv import clear_equiv_cache

#: logits agree with the NumPy reference within this float32 tolerance
RTOL, ATOL = 1e-4, 1e-6


def _close(y: np.ndarray, ref: np.ndarray) -> bool:
    y = np.asarray(y, np.float32).ravel()
    ref = np.asarray(ref, np.float32).ravel()
    return y.shape == ref.shape and bool(np.allclose(y, ref, RTOL, ATOL))


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


def _clear_compile_caches() -> None:
    clear_lower_cache()
    clear_equiv_cache()


class Workload:
    name = ""
    #: setup repetitions; setup_s is their median
    setup_reps = 5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: (round, reason) of every output that disagreed with its answer
        self.failures: List[Tuple[int, str]] = []
        #: output fingerprint per round
        self.fingerprints: List[str] = []
        #: benchmark self-check violations (nondeterminism)
        self.selfcheck_errors: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        """Untimed per-round preparation (inputs, cold caches)."""

    def steps(self, i: int, tracer) -> List[Callable[[], object]]:
        """Round ``i`` as calls the runner times one by one, in order."""
        raise NotImplementedError

    def collect(self, i: int, results: list) -> Tuple[int, int]:
        """Check round ``i``'s step results; returns ``(attempted, failed)``."""
        raise NotImplementedError

    def ops_per_round(self) -> int:
        raise NotImplementedError

    def layers(self, results: list) -> Dict[str, float]:
        """Per-layer figures only the workload knows (beyond its spans)."""
        return {}

    def virtual(self) -> Dict[str, float]:
        """Deterministic virtual-clock metrics of the workload."""
        return {}

    def notes(self) -> List[str]:
        """Human-readable lines describing the measured load."""
        return []

    def output_fingerprint(self) -> str:
        """Fingerprint of outputs a same-seed run must reproduce exactly."""
        return self.fingerprints[0] if self.fingerprints else ""

    def verify_traced(self, traced: List[int], untraced: List[int]) -> None:
        """Self-check: a traced round's outputs equal an untraced one's."""
        same = [self.fingerprints[i] for i in traced + untraced]
        if len(set(same)) > 1:
            self.selfcheck_errors.append(
                f"round outputs differ between traced and untraced rounds: "
                f"{sorted(set(same))}"
            )

    @staticmethod
    def _tag(tracer, request: str) -> None:
        if tracer is not None:
            tracer.request = request


# -- infer ---------------------------------------------------------------------


class Infer(Workload):
    """Closed loop, one client, batch 1, every input distinct."""

    name = "infer"
    network = "mobilenet_v1"
    board = ARRIA10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.graph = TWINS[self.network]()
        self.shape = self.graph.input.out_shape
        self._rng = np.random.default_rng([seed, 1])
        self.inputs: List[np.ndarray] = []
        self.outputs: Dict[int, np.ndarray] = {}

    def setup(self) -> None:
        _clear_compile_caches()
        self.fused = fuse_operators(self.graph)
        self.params = init_params(self.graph, seed=0)
        config = deploy.default_folded_config(self.network, self.board)
        self.program, self.plan = build_folded(self.fused, config, self.board)
        warm = np.random.default_rng([self.seed, 0]).standard_normal(self.shape)
        self.warmup = self._infer(warm.astype(np.float32))

    def _infer(self, x: np.ndarray) -> np.ndarray:
        return executor.run_folded_functional(
            self.program, self.plan, self.fused, x, self.params
        )

    def prepare(self, i: int) -> None:
        while len(self.inputs) <= i:
            x = self._rng.standard_normal(self.shape).astype(np.float32)
            self.inputs.append(x)

    def steps(self, i: int, tracer):
        self._tag(tracer, f"infer{i}")
        return [lambda: self._infer(self.inputs[i])]

    def ops_per_round(self) -> int:
        return 1

    def collect(self, i: int, results: list) -> Tuple[int, int]:
        value = results[0]
        self.outputs[i] = value
        self.fingerprints.append(_digest(value.tobytes()))
        ref = run_fused_graph(self.fused, self.inputs[i], self.params)
        if _close(value, ref):
            return 1, 0
        self.failures.append((i, "logits differ from run_fused_graph"))
        return 1, 1

    def layers(self, results) -> Dict[str, float]:
        memory = getattr(self.plan, "memory", None)
        return {"plan.arena_bytes": memory.arena_bytes if memory else 0}

    def verify_traced(self, traced: List[int], untraced: List[int]) -> None:
        # rounds see different inputs: re-run one traced round untraced
        done = [i for i in traced if i in self.outputs]
        if done:
            i = done[0]
            again = self._infer(self.inputs[i])
            if again.tobytes() != self.outputs[i].tobytes():
                self.selfcheck_errors.append(
                    f"infer round {i}: traced logits differ from untraced"
                )

    def output_fingerprint(self) -> str:
        first = [self.outputs[i] for i in (0, 1) if i in self.outputs]
        return _digest(self.warmup.tobytes(), *(y.tobytes() for y in first))


# -- serve ---------------------------------------------------------------------

#: replay rates as multiples of the pool's modelled batch-1 capacity
LADDER = (0.25, 0.5, 0.85, 1.5, 3.0, 6.0, 12.0)
#: the rate the virtual latency percentiles are read at
NOMINAL = 0.85
#: p99 latency limit that virtual_max_rps must meet, virtual ms
LATENCY_LIMIT_MS = 5.0
#: requests per replayed rate; half repeat an earlier input
REQUESTS = 128


class Serve(Workload):
    """Open loop: seeded Poisson arrivals replayed at a ladder of rates."""

    name = "serve"
    setup_reps = 7
    network = "lenet5"
    board = STRATIX10_SX
    replicas = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        shape = MODELS[self.network]().input.out_shape
        rng = np.random.default_rng([seed, 2])
        # unit-rate arrival shape, scaled per ladder rate
        self.unit_arrivals = np.cumsum(rng.exponential(1.0, REQUESTS))
        repeat = np.zeros(REQUESTS, bool)
        repeat[1 + rng.choice(REQUESTS - 1, REQUESTS // 2, replace=False)] = True
        pool: List[np.ndarray] = []
        self.inputs: List[np.ndarray] = []
        for rep in repeat:
            if rep:
                x = pool[int(rng.integers(len(pool)))]
            else:
                x = rng.standard_normal(shape).astype(np.float32)
                pool.append(x)
            self.inputs.append(x)
        self.distinct = len(pool)
        self._refs: Optional[List[np.ndarray]] = None
        self._virtual: Dict[str, float] = {}
        self._ladder: List[str] = []

    def setup(self) -> None:
        _clear_compile_caches()
        self.pool = provision_replicas(
            self.network, self.board, self.replicas, cache=CompileCache()
        )
        self.capacity_rps = self.replicas * 1e6 / self.pool[0].service_us(1)
        self.traces = [self._trace(m * self.capacity_rps) for m in LADDER]
        # warm-up: the first few requests once, at the nominal rate
        nominal = self.traces[LADDER.index(NOMINAL)]
        Server(self.pool, ServeConfig()).run(
            RequestTrace(nominal.requests[:8], seed=self.seed)
        )

    def _trace(self, rate_rps: float) -> RequestTrace:
        return RequestTrace([
            InferenceRequest(rid, self.network, float(t / rate_rps * 1e6), x)
            for rid, (t, x) in enumerate(zip(self.unit_arrivals, self.inputs))
        ], seed=self.seed)

    def _references(self) -> List[np.ndarray]:
        if self._refs is None:
            graph = MODELS[self.network]()
            fused, params = fuse_operators(graph), init_params(graph, seed=0)
            memo: Dict[int, np.ndarray] = {}
            self._refs = [
                memo.setdefault(id(x), run_fused_graph(fused, x, params))
                for x in self.inputs
            ]
        return self._refs

    def prepare(self, i: int) -> None:
        self._references()

    def steps(self, i: int, tracer):
        def replay(mult, trace):
            self._tag(tracer, f"round{i}@{mult}x")
            server = Server(self.pool, ServeConfig())
            return server.run(trace), server.logits_cache

        return [functools.partial(replay, mult, trace)
                for mult, trace in zip(LADDER, self.traces)]

    def ops_per_round(self) -> int:
        return REQUESTS * len(LADDER)

    def collect(self, i: int, results: list) -> Tuple[int, int]:
        refs = self._references()
        attempted = failed = 0
        for (result, _cache), trace in zip(results, self.traces):
            answered = {r.rid: r for r in result.responses}
            for req in trace:
                attempted += 1
                r = answered.get(req.rid)
                if r is None or r.status not in ("ok", "shed"):
                    reason = "unanswered" if r is None else r.status
                elif r.logits is None or not _close(r.logits, refs[req.rid]):
                    reason = "logits differ from run_fused_graph"
                else:
                    continue
                failed += 1
                self.failures.append((i, f"request {req.rid}: {reason}"))
        self.fingerprints.append(
            _digest(*(res.fingerprint().encode() for res, _ in results))
        )
        if i == 0:
            self._virtual = self._virtual_metrics(results)
        return attempted, failed

    def _virtual_metrics(self, results: list) -> Dict[str, float]:
        max_rps = 0.0
        by_rate = {}
        for mult, (result, _cache) in zip(LADDER, results):
            lat = [
                r.latency_us / 1e3 if r.status in ("ok", "shed") else math.inf
                for r in result.responses
            ]
            lat += [math.inf] * (REQUESTS - len(lat))  # unanswered
            by_rate[mult] = lat
            m = result.metrics
            if (percentile(lat, 99) <= LATENCY_LIMIT_MS
                    and m.shed == 0 and m.rejected == 0):
                max_rps = max(max_rps, mult * self.capacity_rps)
        nominal = by_rate[NOMINAL]
        self._ladder = [
            f"{mult:>5}x = {mult * self.capacity_rps:9.1f} req/s: "
            f"p99 {percentile(by_rate[mult], 99):8.3f} virtual ms, "
            f"shed {res.metrics.shed}, rejected {res.metrics.rejected}"
            for mult, (res, _) in zip(LADDER, results)
        ]
        return {
            "virtual_p50_ms": percentile(nominal, 50),
            "virtual_p99_ms": percentile(nominal, 99),
            "virtual_max_rps": max_rps,
        }

    def virtual(self) -> Dict[str, float]:
        return dict(self._virtual)

    def notes(self) -> List[str]:
        return [
            f"open loop: {REQUESTS} requests per rate ({self.distinct} "
            f"distinct inputs), {self.replicas}x {self.network} on "
            f"{self.board.name}, p99 limit {LATENCY_LIMIT_MS} virtual ms",
            "generator lateness: 0 virtual ms (arrivals are replayed on "
            "the virtual clock)",
        ] + self._ladder

    def layers(self, results: list) -> Dict[str, float]:
        batches = images = shed = rejected = peak = 0
        busy = span = 0.0
        queue: List[float] = []
        hits = misses = 0
        for result, cache in results:
            m = result.metrics
            batches += m.batches
            images += sum(len(b["rids"]) for b in result.batches)
            shed += m.shed
            rejected += m.rejected
            peak = max(peak, m.peak_queue_depth)
            busy += sum(rep.busy_us for rep in m.per_replica)
            span += m.makespan_us * len(m.per_replica)
            queue += [r.queue_us / 1e3 for r in result.responses
                      if r.status == "ok"]
            hits += cache.hits
            misses += cache.misses
        provisioned = [r.bitstream_cache for r in self.pool]
        arenas = [getattr(r.deployment.plan, "memory", None)
                  for r in self.pool if r.deployment is not None]
        return {
            "serve.batches": batches,
            "serve.mean_batch": images / batches if batches else 0.0,
            "serve.queue_ms_p50": median(queue) if queue else 0.0,
            "serve.shed": shed,
            "serve.rejected": rejected,
            "serve.peak_queue_depth": peak,
            "serve.busy_frac": busy / span if span else 0.0,
            "serve.logits_hits": hits,
            "serve.logits_misses": misses,
            "serve.logits_hit_frac": hits / (hits + misses),
            # provisioning (setup) is where serving meets the compile cache
            "pipeline.cache_hits": provisioned.count("hit"),
            "pipeline.cache_misses": provisioned.count("miss"),
            "pipeline.cache_hit_frac": provisioned.count("hit") / len(provisioned),
            "plan.arena_bytes": sum(m.arena_bytes for m in arenas if m),
        }



# -- compile -------------------------------------------------------------------

#: the shipped network x mode matrix, built on every board
MATRIX = (("lenet5", "pipelined"), ("mobilenet_v1", "folded"),
          ("resnet18", "folded"))
BOARDS = (ARRIA10, STRATIX10_SX, STRATIX10_MX)
#: the one matrix build that must not fit its board
NO_FIT = {("resnet18", "A10")}
#: 72-point 1x1-conv tiling grid of the sweep phase
SWEEP_GRID = dict(w2vec_options=(1, 7), c2vec_options=(1, 2, 4, 8, 16, 32),
                  c1vec_options=(1, 2, 4, 8, 16, 32))
SWEEP_POINTS = 72
#: the sweep's known best tiling (w2vec, c2vec, c1vec) on A10
SWEEP_BEST = (7, 16, 4)
#: a sweep point may fail only with one of these verdicts
SWEEP_VERDICTS = ("pruned", "FitError", "RoutingError")


class Compile(Workload):
    """Closed loop: cold matrix, warm matrix, pruned sweep; seed unused."""

    name = "compile"
    setup_reps = 9

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._fps: List[float] = []

    def setup(self) -> None:
        # process warm-up: one throwaway build pays first-call costs, so
        # the measured rounds are cold only in the compile caches
        _clear_compile_caches()
        deploy.build_rung("lenet5", ARRIA10, "pipelined", cache=CompileCache())
        _clear_compile_caches()
        self.sweep_fused = fuse_operators(MODELS["mobilenet_v1"]())

    def prepare(self, i: int) -> None:
        _clear_compile_caches()
        self.cache = CompileCache()

    def steps(self, i: int, tracer):
        def build(phase, network, mode, board):
            self._tag(tracer, f"{phase}:{network}:{board.name}")
            return (phase, network, board.name), self._build(network, board, mode)

        def sweep():
            self._tag(tracer, "sweep")
            try:
                return dse.sweep_conv1x1(
                    self.sweep_fused, ARRIA10, cache=self.cache, prune=True,
                    workers=1, **SWEEP_GRID,
                )
            except Exception as err:
                return err

        return [
            functools.partial(build, phase, network, mode, board)
            for phase in ("cold", "warm")
            for network, mode in MATRIX
            for board in BOARDS
        ] + [sweep]

    def _build(self, network, board, mode):
        """``(fits, fps, verify_errors)`` or the unexpected exception."""
        try:
            dep = deploy.build_rung(network, board, mode, cache=self.cache)
        except FitError as err:
            trace = err.diagnostic.trace
            return False, None, trace.stage("verify").counters.get("errors")
        except Exception as err:
            return err
        errors = dep.trace.stage("verify").counters.get("errors")
        return True, dep.fps(), errors

    def ops_per_round(self) -> int:
        return 2 * len(MATRIX) * len(BOARDS) + SWEEP_POINTS

    def collect(self, i: int, results: list) -> Tuple[int, int]:
        builds, sweep = results[:-1], results[-1]
        failed = 0
        verdicts = []
        for (phase, network, board), out in builds:
            verdicts.append(f"{phase}:{network}:{board}:{out!r}")
            if isinstance(out, Exception):
                reason = f"raised {type(out).__name__}: {out}"
            elif out[0] == ((network, board) in NO_FIT):
                reason = f"fit={out[0]}, expected {not out[0]}"
            elif out[2] != 0:
                reason = f"{out[2]} verifier errors"
            else:
                continue
            failed += 1
            self.failures.append((i, f"{phase} {network}@{board}: {reason}"))
        attempted = len(builds) + SWEEP_POINTS
        sweep_failed, reason = self._check_sweep(sweep)
        if sweep_failed:
            failed += sweep_failed
            self.failures.append((i, f"sweep: {reason}"))
        if not isinstance(sweep, Exception):
            verdicts += [
                f"{p.tiling}:{p.pruned}:{p.fits}:{p.routed}:{p.fps!r}"
                for p in sweep.points
            ]
        self.fingerprints.append(_digest("\n".join(verdicts).encode()))
        if i == 0:
            self._fps = [out[1] for (phase, _, _), out in builds
                         if phase == "cold" and not isinstance(out, Exception)
                         and out[0]]
        return attempted, failed

    @staticmethod
    def _check_sweep(sweep) -> Tuple[int, str]:
        """``(failed points, reason)`` against the sweep's known answer."""
        if isinstance(sweep, Exception):
            return SWEEP_POINTS, f"raised {type(sweep).__name__}: {sweep}"
        if len(sweep.points) != SWEEP_POINTS:
            return SWEEP_POINTS, f"{len(sweep.points)} points"
        best = sweep.best.tiling
        if (best.w2vec, best.c2vec, best.c1vec) != SWEEP_BEST:
            return SWEEP_POINTS, f"best tiling {best}, expected {SWEEP_BEST}"
        bad = [p for p in sweep.points if p.fail_reason is not None
               and not p.fail_reason.startswith(SWEEP_VERDICTS)]
        if bad:
            return len(bad), f"unexpected verdict {bad[0].fail_reason!r}"
        if sweep.cert_fallbacks:
            return SWEEP_POINTS, f"{sweep.cert_fallbacks} interpreter runs"
        return 0, ""

    def virtual(self) -> Dict[str, float]:
        if not self._fps:
            return {}
        geomean = math.exp(sum(math.log(f) for f in self._fps) / len(self._fps))
        return {"virtual_fps_geomean": geomean}


WORKLOADS = {w.name: w for w in (Infer, Serve, Compile)}
