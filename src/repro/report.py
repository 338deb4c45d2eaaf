"""One-shot reproduction report: ``python -m repro.report``.

Regenerates the headline results of every evaluation section — the LeNet
optimization ladder, the MobileNet/ResNet folded deployments, baseline
comparisons and fit/route failures — and renders them with ASCII charts.
For the full per-table benches, run ``pytest benchmarks/ --benchmark-only``.

Modes, each over one ``NETWORK[:...]`` spec: ``--trace`` (per-stage
compile trace, optionally under a demo fault plan), ``--serve``
(multi-replica serving simulation), ``--verify`` (static verifier),
``--advise`` (performance advisor, RP rules), ``--autofix``
(advise->rewrite auto-scheduler), ``--certify`` (schedule equivalence,
RE rules) and ``--memory`` (liveness and DDR arena, RM rules).  The
static modes build through the flow's own stages minus ``verify`` and
``synthesize``, so even unfittable builds report.  Run with ``--help``
for the flag reference.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, TextIO, Tuple

from repro.device import ALL_BOARDS, ARRIA10, Board, STRATIX10_SX, board_by_name
from repro.errors import FitError, ReproError, RoutingError
from repro.flow import LEVELS, MODELS, deploy_folded, deploy_pipelined
from repro.flow.deploy import folded_config_for
from repro.flow.stages import DISABLED, default_mode, folded_flow, pipelined_flow
from repro.perf import tf_cpu_fps, tf_cudnn_fps, tvm_cpu_fps
from repro.pipeline import Pipeline, PipelineResult
from repro.viz import bar_chart


def _section(out: TextIO, title: str) -> None:
    out.write(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n")


def lenet_ladder(out: TextIO) -> Dict[str, float]:
    _section(out, "LeNet-5 optimization ladder (Fig 6.1 / Table 6.4)")
    final: Dict[str, float] = {}
    for board in ALL_BOARDS:
        labels, values = [], []
        for level in LEVELS:
            d = deploy_pipelined("lenet5", board, level)
            labels.append(level)
            values.append(d.fps(concurrent=True))
        final[board.name] = values[-1]
        out.write(
            bar_chart(f"\n{board.name} (FPS, concurrent execution)", labels,
                      values) + "\n"
        )
    return final


def folded_networks(out: TextIO) -> Dict[str, Dict[str, Optional[float]]]:
    _section(out, "Folded deployments (Tables 6.11/6.14)")
    results: Dict[str, Dict[str, Optional[float]]] = {}
    for net in ("mobilenet_v1", "resnet18", "resnet34", "resnet50"):
        row: Dict[str, Optional[float]] = {}
        for board in ALL_BOARDS:
            try:
                row[board.name] = deploy_folded(net, board).fps()
            except (FitError, RoutingError):
                row[board.name] = None
        results[net] = row
        cells = ", ".join(
            f"{b}: {'no fit' if v is None else f'{v:.2f} FPS'}"
            for b, v in row.items()
        )
        out.write(f"{net:14s} {cells}\n")
    return results


def baseline_comparison(out: TextIO, lenet_fps: float,
                        folded: Dict[str, Dict[str, Optional[float]]]) -> None:
    _section(out, "Versus CPU/GPU baselines (thesis-published reference FPS)")
    rows = [
        ("lenet5", lenet_fps),
        ("mobilenet_v1", folded["mobilenet_v1"]["S10SX"]),
        ("resnet18", folded["resnet18"]["S10SX"]),
        ("resnet34", folded["resnet34"]["S10SX"]),
    ]
    out.write(
        f"{'network':14s} {'FPGA(S10SX)':>12} {'TF-CPU':>9} {'TVM-1T':>9} "
        f"{'GPU':>9}  verdict\n"
    )
    for net, fps in rows:
        assert fps is not None
        cpu = tf_cpu_fps(net)
        verdict = "FPGA wins" if fps > cpu else "CPU wins"
        out.write(
            f"{net:14s} {fps:12.1f} {cpu:9.1f} "
            f"{tvm_cpu_fps(net, 1):9.1f} {tf_cudnn_fps(net):9.1f}  {verdict}\n"
        )


def fit_failures(out: TextIO) -> List[str]:
    _section(out, "Fit / routing failures (the thesis's negative results)")
    cases = [
        ("naive MobileNet on A10", "mobilenet_v1", ARRIA10, True),
        ("naive ResNet-18 on A10", "resnet18", ARRIA10, True),
        ("optimized ResNet-18 on A10", "resnet18", ARRIA10, False),
    ]
    outcomes = []
    for label, net, board, naive in cases:
        try:
            deploy_folded(net, board, naive=naive)
            result = "FITS (mismatch with the thesis!)"
        except (FitError, RoutingError) as e:
            result = type(e).__name__
        outcomes.append(result)
        out.write(f"{label:32s} -> {result}\n")
    return outcomes


def _demo_fault_plan():
    """The documentation fault plan exercised by ``--trace ... --faults``:
    a transient routing failure, a channel stall and a DMA write error,
    all recovered by the resilience layer."""
    from repro.resilience import Fault, FaultPlan

    return FaultPlan(
        Fault("synthesize", "routing", times=1),
        Fault("channel", "stall", times=1, param=800.0),
        Fault("enqueue.write", "dma", times=1),
    )


class UsageError(Exception):
    """A malformed command line or ``NETWORK[:...]`` spec (exit status 2)."""


class Spec(NamedTuple):
    """One parsed ``NETWORK[:...]`` spec; fields absent from it hold defaults."""

    network: str
    board: Board
    mode: str
    level: str
    replicas: int


def _spec_form(fields: Sequence[str]) -> str:
    """``('network', 'board')`` -> ``'NETWORK[:BOARD]'``."""
    head, *rest = (f.upper() for f in fields)
    return head + "".join(f"[:{f}" for f in rest) + "]" * len(rest)


def parse_spec(spec: str, fields: Sequence[str]) -> Spec:
    """Parse ``spec`` against one mode's field list, e.g.
    ``('network', 'board', 'replicas')`` for ``--serve``.

    The only place spec fields are read.  Fields are validated in spec
    order and the first bad one raises :class:`UsageError` naming it.
    Defaults: board S10SX, the network's
    :func:`~repro.flow.stages.default_mode`, the top level, 4 replicas.
    """
    parts = spec.split(":")
    if len(parts) > len(fields):
        raise UsageError(f"spec {spec!r} has {len(parts)} fields; "
                         f"expected {_spec_form(fields)}")
    given = dict(zip(fields, parts))
    network = given["network"]
    if network not in MODELS:
        raise UsageError(f"unknown network {network!r}; "
                         f"choose from: {', '.join(sorted(MODELS))}")
    mode = given.get("mode", default_mode(network))
    if mode not in ("pipelined", "folded"):
        raise UsageError(
            f"unknown mode {mode!r}; choose 'pipelined' or 'folded'")
    try:
        board = board_by_name(given.get("board", STRATIX10_SX.name))
    except KeyError:
        raise UsageError(f"unknown board {given['board']!r}; choose from: "
                         f"{', '.join(b.name for b in ALL_BOARDS)}") from None
    level = given.get("level", LEVELS[-1])
    if level not in LEVELS:
        raise UsageError(f"unknown level {level!r}; "
                         f"choose from: {', '.join(LEVELS)}")
    if "level" in given and default_mode(network) != "pipelined":
        raise UsageError("optimization levels only apply to the "
                         "pipelined network (lenet5)")
    try:
        replicas = int(given.get("replicas", 4))
    except ValueError:
        raise UsageError(f"replica count {given['replicas']!r} is not an "
                         "integer") from None
    if replicas < 1:
        raise UsageError(f"replica count {replicas} must be at least 1")
    return Spec(network, board, mode, level, replicas)


def _bad_spec(out: TextIO, message: str) -> int:
    """Every usage error in every mode: the message, USAGE, exit 2."""
    out.write(message + "\n\n")
    out.write(USAGE)
    return 2


def _spec_or_usage(spec: str, mode: str, out: TextIO) -> Optional[Spec]:
    """``mode``'s parsed spec, or ``None`` after reporting why it is bad."""
    try:
        return parse_spec(spec, MODES[mode][0])
    except UsageError as e:
        _bad_spec(out, str(e))
        return None


def _static_build(s: Spec, mode: str) -> PipelineResult:
    """Build ``s`` through its flow's own stages, minus verify and synthesize.

    import -> fuse -> schedule -> lower -> codegen -> plan yields every
    artifact the static reports read, with no synthesis, so even builds
    that cannot fit the board still report.
    """
    if mode == "pipelined":
        flow = pipelined_flow(s.network, s.board, s.level, cache=DISABLED)
    else:
        flow = folded_flow(s.network, s.board,
                           folded_config_for(s.network, s.board),
                           cache=DISABLED)
    return Pipeline(flow.name, [
        stage for stage in flow.stages
        if stage.name not in ("verify", "synthesize")
    ]).run()


def trace_deployment(
    spec: str,
    out: TextIO = sys.stdout,
    as_json: bool = False,
    with_faults: bool = False,
) -> int:
    """Deploy one network and print its per-stage compile trace.

    ``spec`` is ``NETWORK[:MODE[:BOARD]]`` — e.g. ``lenet5``,
    ``mobilenet_v1:folded:A10``, ``lenet5:pipelined:S10MX``.  Mode
    defaults to ``pipelined`` for lenet5 and ``folded`` otherwise;
    board defaults to ``S10SX``.  With ``with_faults`` the deploy runs
    under a demo fault plan (seeded by ``REPRO_FAULT_SEED``) through the
    resilient degradation ladder, and the recovery events are printed
    after the trace.
    """
    s = _spec_or_usage(spec, "trace", out)
    if s is None:
        return 2
    if with_faults:
        return _trace_with_faults(s.network, s.board, out, as_json)
    deploy = deploy_pipelined if s.mode == "pipelined" else deploy_folded
    try:
        d = deploy(s.network, s.board)
    except ReproError as e:
        diag = getattr(e, "diagnostic", None)
        out.write(f"{type(e).__name__}: {e}\n")
        if diag is not None:
            out.write(f"failed at {diag}\n\n")
            out.write(diag.trace.to_json(indent=2) + "\n"
                      if as_json else diag.trace.format_table() + "\n")
        return 1
    _append_execute_record(d)
    out.write(d.trace.to_json(indent=2) + "\n"
              if as_json else d.trace.format_table() + "\n")
    return 0


def _append_execute_record(d) -> None:
    """Run one functional forward pass and append an ``execute`` row.

    The vectorized interpreter reports every band decision it makes
    (:class:`repro.ir.vinterp.BandEvent`); the row's counters tally
    them — ``vinterp_bands`` attempted, ``vinterp_vectorized`` executed
    wide, ``vinterp_fallbacks`` dropped to the scalar loop — with one
    ``vinterp_fallback.<reason>`` counter and a ``>>`` note per
    distinct fallback reason.  The pass runs the whole network
    functionally, so large folded networks take tens of seconds here.
    """
    import time
    from collections import Counter

    import numpy as np

    from repro.pipeline.trace import StageRecord

    events: List[tuple] = []
    base = d.trace.records[-1].t_end if d.trace.records else 0.0
    x = np.random.default_rng(0).standard_normal(
        d.fused.graph.input.out_shape
    ).astype(np.float32)
    t0 = time.perf_counter()
    status, error = "ok", None
    try:
        d.forward_functional(x, events=events)
    except Exception as e:  # pragma: no cover - diagnostic row only
        status, error = "error", f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - t0
    fallbacks = [ev for _, ev in events if ev.kind == "fallback"]
    counters: Dict[str, float] = {
        "vinterp_bands": len(events),
        "vinterp_vectorized": len(events) - len(fallbacks),
        "vinterp_fallbacks": len(fallbacks),
    }
    reasons = Counter(ev.detail for ev in fallbacks)
    notes = []
    for reason, n in sorted(reasons.items()):
        slug = reason.replace(" ", "_").replace("-", "_")
        counters[f"vinterp_fallback.{slug}"] = n
        notes.append(f"scalar fallback x{n}: {reason}")
    d.trace.records.append(StageRecord(
        stage="execute", status=status, t_start=base, t_end=base + wall,
        artifact="logits", size=len(events), counters=counters,
        error=error, notes=notes,
    ))


def _trace_with_faults(network, board, out: TextIO, as_json: bool) -> int:
    """Resilient deploy under the demo fault plan + recovery events."""
    import json

    from repro.flow import deploy_resilient

    plan = _demo_fault_plan()
    with plan:
        r = deploy_resilient(network, board, cache=False)
    if as_json:
        payload = {
            "network": network,
            "board": board.name,
            "rung": r.rung,
            "fps": r.fps,
            "attempts": [
                {"rung": a.rung, "ok": a.ok, "reason": a.reason}
                for a in r.attempts
            ],
            "events": r.events,
            "trace": (
                r.deployment.trace.to_dict()
                if r.deployment is not None and r.deployment.trace else None
            ),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0
    out.write(f"fault plan: {plan!r}\n")
    if r.deployment is not None and r.deployment.trace is not None:
        out.write(r.deployment.trace.format_table() + "\n")
    out.write(f"\nserved by rung {r.rung!r}"
              + (f" at {r.fps:.1f} fps" if r.timing else "") + "\n")
    out.write("resilience events:\n")
    for e in r.events:
        out.write(f"  [{e['kind']:>10}] {e['site']:<14} {e['detail']}\n")
    return 0


def verify_deployment(
    spec: str,
    out: TextIO = sys.stdout,
    as_json: bool = False,
) -> int:
    """Statically verify one build and print the diagnostic report.

    ``spec`` is ``NETWORK[:BOARD]`` — e.g. ``resnet18:A10``.  The build
    is static (no synthesis), so even pairs that do not fit (naive ResNet
    on the Arria 10) verify.  Exit status: 0 when the build is
    verifier-clean (no error-severity findings), 1 otherwise, 2 on a bad
    spec.
    """
    import json

    from repro.verify import verify_build

    s = _spec_or_usage(spec, "verify", out)
    if s is None:
        return 2
    build = _static_build(s, s.mode)
    report = verify_build(
        build.value("program"), source=build.value("source"),
        plan=build.value("plan"), subject=f"{s.network}:{s.board.name}",
    )
    if as_json:
        out.write(json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        out.write(report.format_table() + "\n")
    return 0 if report.clean else 1


def certify_deployment(
    spec: str,
    out: TextIO = sys.stdout,
    as_json: bool = False,
) -> int:
    """Equivalence-certify one build's schedules and print the verdicts.

    ``spec`` is ``NETWORK[:BOARD]`` — e.g. ``mobilenet_v1:A10``.  The
    static build goes through the *folded* flow, whose kernels carry the
    transform recipes the certifier reads.  Every recipe-backed kernel's
    scheduled lowering is proven equivalent to its naive lowering (RE
    rules, :mod:`repro.verify.equiv`) with no interpreter runs — an
    RE006-unknown kernel is reported, not dynamically cross-checked.
    Exit status: 0 when every recipe-backed kernel certified (no
    rejections, no unknowns), 1 otherwise, 2 on a bad spec.
    """
    import json

    from repro.verify import certify_build

    s = _spec_or_usage(spec, "certify", out)
    if s is None:
        return 2
    build = _static_build(s, "folded")
    report, certs = certify_build(
        build.value("schedule"), plan=build.value("plan"),
        subject=f"{s.network}:{s.board.name}", dynamic_fallback=False,
    )
    ok = (
        report.clean
        and report.counters.get("equiv_rejected", 0) == 0
        and report.counters.get("equiv_unknown", 0) == 0
    )
    if as_json:
        payload = report.to_dict()
        payload["certificates"] = {
            k: c.to_dict() for k, c in sorted(certs.items())
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0 if ok else 1
    out.write(report.format_table() + "\n\ncertificates:\n")
    for name, cert in sorted(certs.items()):
        extra = f" ({cert.detail})" if cert.detail else ""
        out.write(f"  {name:<40} {cert.status}{extra}\n")
    out.write(
        "\nverdict: "
        + ("all recipe-backed kernels certified equivalent — no "
           "interpreter cross-checks needed"
           if ok else "certification INCOMPLETE — see RE findings above")
        + "\n"
    )
    return 0 if ok else 1


def memory_deployment(
    spec: str,
    out: TextIO = sys.stdout,
    as_json: bool = False,
) -> int:
    """Static memory report: liveness, arena map, bytes saved (RM rules).

    ``spec`` is ``NETWORK[:BOARD]`` — e.g. ``mobilenet_v1:A10``, built
    statically through the *folded* flow.  Prints the
    per-value liveness table, the DDR arena map with its reuse pairs,
    and the resident footprint vs the board's capacity; the JSON form
    carries the full :class:`~repro.verify.memory.MemoryPlan` and
    certificate.  Exit status: 0 iff the plan is RM-clean, 1 otherwise,
    2 on a bad spec.
    """
    import json

    from repro.verify.memory import check_memory, format_memory_plan

    s = _spec_or_usage(spec, "memory", out)
    if s is None:
        return 2
    build = _static_build(s, "folded")
    fused = build.value("fused")
    report, memory, cert = check_memory(
        fused, build.value("plan"), program=build.value("program"),
        board=s.board, subject=f"{s.network}:{s.board.name}",
    )
    if as_json:
        payload = report.to_dict()
        payload["memory"] = memory.to_dict() if memory is not None else None
        payload["certificate"] = cert.to_dict()
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0 if report.clean else 1
    if memory is not None:
        out.write(format_memory_plan(memory, fused, s.board) + "\n\n")
    out.write(report.format_table() + "\n")
    out.write(
        "\nverdict: "
        + (f"memory plan certified (key {cert.key[:12]}) — "
           "safe to adopt the arena"
           if cert.certified else
           "memory plan REJECTED — see RM findings above")
        + "\n"
    )
    return 0 if report.clean else 1


def advise_deployment(
    spec: str,
    out: TextIO = sys.stdout,
    as_json: bool = False,
) -> int:
    """Run the static performance advisor over one build.

    ``spec`` is ``NETWORK[:BOARD[:LEVEL]]`` — e.g. ``mobilenet_v1:A10``
    or ``lenet5:S10SX:base``; LEVEL selects the optimization rung for
    pipelined networks (lenet5) and defaults to the top one, so
    ``lenet5:S10SX:base`` advises the deliberately naive schedules.
    The build is static (no synthesis).  The report lists
    every RP finding with the cookbook rewrite that fixes it, plus —
    for folded networks with a 1x1 conv group — the dominance pruner's
    preview of how much of the default tiling sweep needs no synthesis.
    Exit status: 0 when findings are advice-only (or absent), 1 when the
    build also carries error-severity findings, 2 on a bad spec.
    """
    import json

    from repro.aoc.constants import DEFAULT_CONSTANTS
    from repro.verify import format_advice, format_prune_preview, \
        prune_preview, verify_build

    s = _spec_or_usage(spec, "advise", out)
    if s is None:
        return 2
    pipelined = s.mode == "pipelined"
    try:
        build = _static_build(s, s.mode)
        preview = None if pipelined else prune_preview(
            build.value("fused"), s.board, DEFAULT_CONSTANTS,
            folded_config_for(s.network, s.board).pin_unit_stride,
        )
        report = verify_build(
            build.value("program"), source=build.value("source"),
            plan=build.value("plan"),
            subject=f"{s.network}:{s.board.name}"
                    + (f":{s.level}" if pipelined else ""),
            board=s.board,
        )
    except ReproError as e:
        out.write(f"{type(e).__name__}: {e}\n")
        return 1
    if as_json:
        payload = report.to_dict()
        payload["prune_preview"] = preview
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        out.write(format_advice(report) + "\n")
        if preview is not None:
            out.write("\n" + format_prune_preview(preview) + "\n")
    return 0 if report.clean else 1


def autofix_deployment(
    spec: str,
    out: TextIO = sys.stdout,
    as_json: bool = False,
) -> int:
    """Run the advise->rewrite auto-scheduler over one build.

    ``spec`` is ``NETWORK[:BOARD]`` — e.g. ``mobilenet_v1:A10``.  The
    loop stops after codegen each iteration (no
    synthesis) and prints every applied fix, every blocking finding and
    the recipe round-trip verdict.  Exit status: 0 when the loop reached
    an advice-clean fixpoint or a provably-stuck report, 1 on a
    verify-error/cycle/iteration-limit outcome, 2 on a bad spec.
    """
    import json

    from repro.flow.autofix import autofix_network

    s = _spec_or_usage(spec, "autofix", out)
    if s is None:
        return 2
    try:
        result = autofix_network(s.network, s.board)
    except ReproError as e:
        out.write(f"{type(e).__name__}: {e}\n")
        return 1
    if as_json:
        out.write(json.dumps(result.to_dict(), indent=2) + "\n")
    else:
        out.write(result.format() + "\n")
    converged = result.clean or result.stuck_reason == "blocked"
    return 0 if converged else 1


def serve_demo(
    spec: str,
    out: TextIO = sys.stdout,
    as_json: bool = False,
    overload: bool = False,
    n_requests: int = 48,
    chaos: Optional[int] = None,
) -> int:
    """Run the serving simulation and print its metrics.

    ``spec`` is ``NETWORK[:BOARD[:REPLICAS]]`` — e.g. ``lenet5``,
    ``mobilenet_v1:S10SX:4``.  Board defaults to S10SX, replicas to 4.
    The demo drives a Poisson trace at ~85% of the pool's aggregate
    capacity; with ``overload`` the rate quadruples against a short
    admission queue, so requests shed to the CPU rung (watch the
    ``shed`` events under the table).  With ``chaos`` (a fault-plan
    seed) the trace replays under the canonical serving chaos plan —
    replicas die mid-trace, batches crash and hang, the breaker trips —
    and the demo proves the recovery contract: every request answered,
    logits bit-identical to a fault-free run.  Exits 1 if the contract
    is violated.
    """
    import json

    import numpy as np

    from repro.resilience import LifecycleConfig
    from repro.serve import RequestTrace, ServeConfig, Server, chaos_plan, \
        provision_replicas

    s = _spec_or_usage(spec, "serve", out)
    if s is None:
        return 2
    if n_requests < 1:
        return _bad_spec(
            out, f"--requests {n_requests} must be at least 1")
    network, board, n_replicas = s.network, s.board, s.replicas

    replicas = provision_replicas(network, board, n_replicas)
    per_image_us = replicas[0].service_us(1)
    capacity_rps = n_replicas * 1e6 / per_image_us
    rate = capacity_rps * (3.4 if overload else 0.85)
    config = ServeConfig(
        max_queue=8 if overload else 64,
        lifecycle=LifecycleConfig(reprovision_us=5000.0)
        if chaos is not None else None,
    )
    shape = MODELS[network]().input.out_shape
    trace = RequestTrace.poisson(
        network, n_requests, rate_rps=rate, shape=shape, seed=0
    )
    chaos_report: Optional[Dict[str, object]] = None
    if chaos is not None:
        baseline = Server(
            provision_replicas(network, board, n_replicas), config
        ).run(trace)
        with chaos_plan(network, n_replicas, seed=chaos) as plan:
            result = Server(replicas, config).run(trace)
        answered = {r.rid for r in result.responses}
        stuck = sorted(r.rid for r in trace if r.rid not in answered)
        logits_identical = all(
            (a.logits is None) == (b.logits is None)
            and (a.logits is None or np.array_equal(a.logits, b.logits))
            for a, b in zip(result.responses, baseline.responses)
        )
        chaos_report = {
            "seed": chaos,
            "faults_fired": len(plan.fired),
            "stuck_requests": stuck,
            "logits_identical": logits_identical,
            "ok": not stuck and logits_identical and bool(plan.fired),
        }
    else:
        result = Server(replicas, config).run(trace)
    if as_json:
        payload = {
            "spec": {"network": network, "board": board.name,
                     "replicas": n_replicas, "overload": overload},
            "trace": trace.describe(),
            "metrics": result.metrics.to_dict(),
            "events": result.events,
        }
        if chaos_report is not None:
            payload["chaos"] = chaos_report
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0 if chaos_report is None or chaos_report["ok"] else 1
    out.write(
        f"serving {network} on {n_replicas}x {board.name} — "
        f"{n_requests} requests, Poisson at {rate:.1f} req/s "
        f"(pool capacity ~{capacity_rps:.1f} req/s)"
        + (" [overload]" if overload else "")
        + (f" [chaos seed {chaos}]" if chaos is not None else "") + "\n\n"
    )
    out.write(result.metrics.format_table() + "\n")
    if result.events:
        out.write("\nserving events:\n")
        for e in result.events:
            out.write(f"  [{e['kind']:>10}] {e['detail']}\n")
    if chaos_report is not None:
        verdict = "PASS" if chaos_report["ok"] else "FAIL"
        out.write(
            f"\nchaos soak [{verdict}]: {chaos_report['faults_fired']} "
            f"fault(s) fired, {len(chaos_report['stuck_requests'])} stuck "
            f"request(s), logits "
            f"{'bit-identical to' if chaos_report['logits_identical'] else 'DIVERGED from'}"
            f" the fault-free run\n"
        )
        return 0 if chaos_report["ok"] else 1
    return 0


#: report mode -> (its spec fields, entry point, example spec); each
#: mode's help line is its entry point's docstring summary
MODES = {
    "trace": (("network", "mode", "board"), trace_deployment,
              "mobilenet_v1:folded:A10"),
    "serve": (("network", "board", "replicas"), serve_demo,
              "mobilenet_v1:S10SX:4"),
    "verify": (("network", "board"), verify_deployment, "resnet18:A10"),
    "advise": (("network", "board", "level"), advise_deployment,
               "lenet5:S10SX:base"),
    "autofix": (("network", "board"), autofix_deployment, "mobilenet_v1:A10"),
    "certify": (("network", "board"), certify_deployment, "resnet50:A10"),
    "memory": (("network", "board"), memory_deployment, "mobilenet_v1:A10"),
}

#: flag -> (the entry-point keyword it sets, the modes that read it,
#: argparse options, help text)
_FLAGS = {
    "--json": ("as_json", tuple(MODES), {"action": "store_true"},
               "emit JSON instead of tables"),
    "--faults": ("with_faults", ("trace",), {"action": "store_true"},
                 "run --trace under the demo fault plan through the "
                 "resilient degradation ladder"),
    "--overload": ("overload", ("serve",), {"action": "store_true"},
                   "drive --serve past pool capacity against a short "
                   "admission queue (requests shed to the CPU rung)"),
    "--requests": ("n_requests", ("serve",), {"type": int, "metavar": "N"},
                   "request count for --serve (default 48)"),
    "--chaos": ("chaos", ("serve",), {"type": int, "metavar": "SEED"},
                "replay --serve under the seeded serving chaos plan and "
                "exit 1 unless every request is answered with logits "
                "bit-identical to a fault-free run"),
}


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` instead of printing and exiting."""

    def error(self, message: str):
        raise UsageError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro.report",
        usage="%(prog)s [--MODE SPEC] [FLAGS]",
        description="With no mode: the full reproduction scorecard.  "
        "SPEC defaults: BOARD S10SX, MODE pipelined for lenet5 and "
        "folded otherwise, the top LEVEL, 4 REPLICAS.  Exit status: 0 "
        "on success, 1 on a finding or failed run, 2 on a bad command.",
        allow_abbrev=False,
        add_help=False,
        formatter_class=functools.partial(argparse.HelpFormatter, width=79),
    )
    modes = parser.add_argument_group("modes (at most one)")
    modes = modes.add_mutually_exclusive_group()
    for mode, (fields, entry, example) in MODES.items():
        summary = entry.__doc__.splitlines()[0]
        modes.add_argument(f"--{mode}", metavar="SPEC", help=f"{summary}  "
                           f"SPEC = {_spec_form(fields)}, e.g. {example}")
    flags = parser.add_argument_group("flags")
    for flag, (dest, _, options, text) in _FLAGS.items():
        flags.add_argument(flag, dest=dest, help=text, **options)
    flags.add_argument("-h", "--help", action="store_true",
                       help="this message")
    return parser


_PARSER = _parser()
USAGE = _PARSER.format_help()


def parse_command(
    argv: Sequence[str],
) -> Tuple[Optional[str], Optional[str], Dict[str, object]]:
    """Parse one report command line without running it.

    Returns ``(mode, spec, keywords)``: ``mode`` is one of :data:`MODES`,
    ``'help'``, or ``None`` for the scorecard, and ``keywords`` are the
    flags given, keyed like the mode entry point's parameters.  Raises
    :class:`UsageError` on an unknown flag, a flag the chosen mode never
    reads, or a malformed spec.
    """
    args = _PARSER.parse_args(list(argv))
    if args.help:
        return "help", None, {}
    mode = next((m for m in MODES if getattr(args, m) is not None), None)
    keywords: Dict[str, object] = {}
    for flag, (dest, readers, _, _) in _FLAGS.items():
        value = getattr(args, dest)
        if value is None or value is False:
            continue
        if mode not in readers:
            raise UsageError(
                f"{flag} only applies to "
                + ", ".join(f"--{m}" for m in readers)
                + (f", not --{mode}" if mode else ""))
        keywords[dest] = value
    if mode is None:
        return None, None, keywords
    spec = getattr(args, mode)
    parse_spec(spec, MODES[mode][0])
    return mode, spec, keywords


def main(out: TextIO = sys.stdout, argv: Optional[List[str]] = None) -> int:
    try:
        mode, spec, keywords = parse_command(argv or [])
    except UsageError as e:
        return _bad_spec(out, str(e))
    if mode == "help":
        out.write(USAGE)
        return 0
    if mode is not None:
        return MODES[mode][1](spec, out, **keywords)
    out.write("Reproduction report — Chung, 'Optimization of Compiler-"
              "Generated OpenCL CNN Kernels and Runtime for FPGAs'\n")
    final = lenet_ladder(out)
    folded = folded_networks(out)
    baseline_comparison(out, final["S10SX"], folded)
    outcomes = fit_failures(out)
    ok = all("Error" in o for o in outcomes)
    out.write(
        "\nSummary: LeNet/MobileNet beat the CPU, ResNet does not; naive "
        "large networks do not fit the Arria 10 — the thesis's story "
        f"{'reproduces' if ok else 'DOES NOT reproduce'}.\n"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(argv=sys.argv[1:]))
