"""Advice-driven auto-scheduler: rewrite schedules until the advisor is clean.

The thesis's optimization workflow is a human loop: read AOC's static
reports, rewrite the schedule, re-compile, repeat until the bottleneck
moves (Section 6).  :mod:`repro.verify.perf` automates the *reading*
half — every RP finding now carries a machine-readable ``fix`` — and
this module automates the *rewriting* half: it consumes the advisor's
findings, applies the matching recipe delta or tiling adjustment,
re-runs the verifier + advisor, and iterates to an advice-clean fixpoint
or a provably-stuck report.

Termination is by construction: every applicable fix moves the
configuration strictly up a finite lattice (recipe deltas only grow,
tiling factors only shrink, ``pin_unit_stride`` only flips to True), so
the loop either reaches a state with no applicable fixes or revisits a
state — both detected.  A bounded iteration count and a fingerprint-set
cycle check guard the invariant against a fix that fails to move its
finding.  Every intermediate configuration is re-verified (never
synthesized), and the final recipes round-trip through JSON back into a
bit-identical build via ``recipe_overrides``.

A *stuck* result is structured, not a failure: each blocking finding
names why no mechanical rewrite exists (a prebuilt kernel, an
accumulator already cached, a working set that is the whole buffer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.codegen import generate_opencl
from repro.device.boards import Board
from repro.errors import ReproError
from repro.flow.artifacts import FoldedSchedule, ScheduledKernel
from repro.flow.folded import (
    FoldedConfig,
    lower_folded,
    plan_folded,
    schedule_folded,
)
from repro.flow.pipelined import (
    LEVELS,
    lower_pipelined,
    plan_pipelined,
    schedule_pipelined,
)
from repro.relay.passes import FusedGraph
from repro.schedule import ScheduleRecipe
from repro.verify import certify_build, verify_build
from repro.verify.diagnostics import Diagnostic

#: hard bound on rewrite iterations; the lattice argument makes this
#: generous (each iteration must change at least one knob)
MAX_ITERATIONS = 16

GroupId = Tuple[str, int, int]


@dataclass
class FixStep:
    """One fix the engine applied, tied to the finding that caused it."""

    iteration: int
    rule: str
    kernel: str
    location: str
    #: human-readable description of the rewrite
    action: str
    #: the machine-readable ``fix`` payload consumed
    fix: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "iteration": self.iteration, "rule": self.rule,
            "kernel": self.kernel, "location": self.location,
            "action": self.action, "fix": self.fix,
        }

    def format(self) -> str:
        where = self.kernel + (f":{self.location}" if self.location else "")
        return f"#{self.iteration} [{self.rule}] {where}: {self.action}"


@dataclass
class BlockedFix:
    """A finding with no applicable mechanical rewrite, and why."""

    rule: str
    kernel: str
    location: str
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule, "kernel": self.kernel,
            "location": self.location, "reason": self.reason,
        }

    def format(self) -> str:
        where = self.kernel + (f":{self.location}" if self.location else "")
        return f"[{self.rule}] {where}: {self.reason}"


@dataclass
class AutofixResult:
    """Outcome of one auto-scheduling run.

    ``status`` is ``'clean'`` (the advisor has nothing left to say) or
    ``'stuck'`` with a ``stuck_reason`` of ``'blocked'`` (every
    remaining finding has no mechanical rewrite — the provably-stuck
    case), ``'cycle'`` (a fix failed to move its finding and the
    configuration repeated), ``'iteration-limit'`` or
    ``'verify-error'`` (a rewrite introduced an error-severity finding;
    never expected, always fatal).
    """

    subject: str
    mode: str  # 'folded' | 'pipelined'
    status: str = "stuck"
    stuck_reason: Optional[str] = None
    iterations: int = 0
    applied: List[FixStep] = field(default_factory=list)
    blocked: List[BlockedFix] = field(default_factory=list)
    #: advice findings still present in the final build
    remaining: List[Diagnostic] = field(default_factory=list)
    #: kernel name -> final recipe fingerprint
    recipes: Dict[str, str] = field(default_factory=dict)
    #: kernel name -> final recipe serialized to JSON (folded mode)
    recipes_json: Dict[str, str] = field(default_factory=dict)
    #: final folded configuration (None in pipelined mode)
    config: Optional[FoldedConfig] = None
    #: True when the serialized recipes rebuilt a bit-identical source
    roundtrip_ok: Optional[bool] = None
    #: per-iteration narration of the loop
    log: List[str] = field(default_factory=list)
    #: equivalence-certifier accounting of the final build (folded
    #: mode): kernels accepted on a static certificate, statically
    #: undecidable kernels (RE006), kernels outside the fragment, and
    #: interpreter cross-checks actually run — the loop accepts rewrites
    #: on certificates, so this is 0 when every rewrite certified
    certified: int = 0
    cert_unknown: int = 0
    cert_uncertified: int = 0
    cert_dynamic_runs: int = 0

    @property
    def clean(self) -> bool:
        return self.status == "clean"

    def to_dict(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "mode": self.mode,
            "status": self.status,
            "stuck_reason": self.stuck_reason,
            "iterations": self.iterations,
            "applied": [s.to_dict() for s in self.applied],
            "blocked": [b.to_dict() for b in self.blocked],
            "remaining": [
                {"rule": d.rule, "kernel": d.kernel, "location": d.location,
                 "fix": d.fix}
                for d in self.remaining
            ],
            "recipes": dict(sorted(self.recipes.items())),
            "roundtrip_ok": self.roundtrip_ok,
            "certified": self.certified,
            "cert_unknown": self.cert_unknown,
            "cert_uncertified": self.cert_uncertified,
            "cert_dynamic_runs": self.cert_dynamic_runs,
            "log": list(self.log),
        }

    def format(self) -> str:
        lines = [f"autofix: {self.subject} ({self.mode})"]
        tag = self.status + (
            f" ({self.stuck_reason})" if self.stuck_reason else ""
        )
        lines.append(
            f"  {tag} after {self.iterations} iteration(s), "
            f"{len(self.applied)} fix(es) applied"
        )
        for s in self.applied:
            lines.append("  + " + s.format())
        for b in self.blocked:
            lines.append("  ! " + b.format())
        if self.roundtrip_ok is not None:
            lines.append(
                "  recipes round-trip: "
                + ("bit-identical" if self.roundtrip_ok else "MISMATCH")
            )
        if self.mode == "folded":
            lines.append(
                f"  equivalence: {self.certified} certified, "
                f"{self.cert_unknown} unknown, "
                f"{self.cert_uncertified} uncertified, "
                f"{self.cert_dynamic_runs} dynamic run(s)"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# fix planning: one advisor finding -> one lattice move (or a reason why not)


class _Plan:
    """Fixes planned for one iteration: apply thunks + blocked reasons."""

    def __init__(self) -> None:
        self.steps: List[Tuple[FixStep, Callable[[], None]]] = []
        self.blocked: List[BlockedFix] = []
        self._knobs: set = set()

    def add(self, step: FixStep, knob: Tuple, thunk: Callable[[], None]) -> None:
        if knob in self._knobs:  # one move per knob per iteration
            return
        self._knobs.add(knob)
        self.steps.append((step, thunk))

    def block(self, d: Diagnostic, reason: str) -> None:
        self.blocked.append(BlockedFix(d.rule, d.kernel, d.location, reason))


def _copy_config(config: FoldedConfig) -> FoldedConfig:
    return FoldedConfig(
        conv_tilings=dict(config.conv_tilings),
        dense_unroll=config.dense_unroll,
        naive=config.naive,
        pin_unit_stride=config.pin_unit_stride,
        recipe_deltas=dict(config.recipe_deltas),
        recipe_overrides=dict(config.recipe_overrides),
    )


def _config_state(config: FoldedConfig) -> str:
    """Fingerprint of the lattice position, for cycle detection."""
    from repro.pipeline.fingerprint import fingerprint

    return fingerprint([
        sorted(
            (k, (t.w2vec, t.c2vec, t.c1vec, t.unroll_ff))
            for k, t in config.conv_tilings.items()
        ),
        config.dense_unroll,
        config.pin_unit_stride,
        sorted((k, r.fingerprint()) for k, r in config.recipe_deltas.items()),
        sorted(
            (k, r.fingerprint()) for k, r in config.recipe_overrides.items()
        ),
    ])


def _append_delta(
    config: FoldedConfig, kernel: str, delta: ScheduleRecipe
) -> None:
    existing = config.recipe_deltas.get(kernel)
    config.recipe_deltas[kernel] = existing + delta if existing else delta


def _next_factor(current: int, extents: List[int]) -> Optional[int]:
    """Largest factor below ``current`` dividing every group extent."""
    from repro.flow.dse import divides_all

    for v in range(current - 1, 0, -1):
        if divides_all(v, extents):
            return v
    return None


def _plan_folded_fix(
    d: Diagnostic,
    sk: Optional[ScheduledKernel],
    config: FoldedConfig,
    fused: FusedGraph,
    extents: Dict[GroupId, Dict[str, List[int]]],
    iteration: int,
    plan: _Plan,
    allow_shrink: bool = True,
) -> None:
    """Map one finding to a config move; record it (or why it is blocked)."""
    if d.fix is None:
        plan.block(d, "finding carries no machine-readable fix")
        return
    if sk is None:
        plan.block(d, "finding is not attached to a scheduled kernel")
        return
    if sk.prebuilt is not None:
        plan.block(d, "kernel is prebuilt IR — no schedule to rewrite")
        return
    transform = d.fix.get("transform")
    stage = sk.schedule.stages[0]
    step_args = dict(iteration=iteration, rule=d.rule, kernel=d.kernel,
                     location=d.location, fix=dict(d.fix))

    if transform == "cache_write":
        scope = d.fix.get("args", {}).get("scope", "register")
        if stage.scratch_scope != "global":
            plan.block(
                d, f"accumulator is already cached in "
                   f"'{stage.scratch_scope}' scope"
            )
            return
        plan.add(
            FixStep(action=f"cache_write('{scope}') appended to the "
                           f"kernel's recipe", **step_args),
            ("recipe", sk.name),
            lambda: _append_delta(
                config, sk.name, ScheduleRecipe().cache_write(scope)
            ),
        )
    elif transform == "pin_unit_stride":
        if config.pin_unit_stride:
            plan.block(d, "innermost strides are already pinned "
                          "(pin_unit_stride=True)")
            return
        plan.add(
            FixStep(action="pin_unit_stride=True (Listing 5.11 workaround)",
                    **step_args),
            ("pin",),
            lambda: setattr(config, "pin_unit_stride", True),
        )
    elif transform == "cache_read":
        name = d.fix.get("input")
        if name in stage.cached_reads:
            plan.block(
                d, f"'{name}' is already staged through a cached read; its "
                   f"working set is the whole buffer and no schedule "
                   f"transform shrinks it"
            )
            return
        if name not in [t.name for t in stage.op.inputs]:
            plan.block(d, f"'{name}' is not an input of this kernel")
            return
        plan.add(
            FixStep(action=f"cache_read('{name}') appended to the kernel's "
                           f"recipe", **step_args),
            ("recipe", sk.name),
            lambda: _append_delta(
                config, sk.name, ScheduleRecipe().cache_read(tensor=name)
            ),
        )
    elif transform == "shrink":
        if not allow_shrink:
            return  # the single-pass planner leaves tilings alone
        _plan_shrink(d, sk, config, fused, extents, step_args, plan)
    else:
        plan.block(d, f"unknown fix transform {transform!r}")


def _plan_shrink(
    d: Diagnostic,
    sk: ScheduledKernel,
    config: FoldedConfig,
    fused: FusedGraph,
    extents: Dict[GroupId, Dict[str, List[int]]],
    step_args: Dict[str, object],
    plan: _Plan,
) -> None:
    fn = next((f for f in fused if f.name == sk.layer), None)
    if fn is None:
        plan.block(d, f"layer {sk.layer!r} not found in the fused graph")
        return
    if fn.op == "dense":
        if config.dense_unroll <= 1:
            plan.block(d, "dense reduction unroll is already 1")
            return
        new = config.dense_unroll // 2
        plan.add(
            FixStep(action=f"dense_unroll {config.dense_unroll} -> {new}",
                    **step_args),
            ("dense_unroll",),
            lambda: setattr(config, "dense_unroll", new),
        )
        return
    if fn.op == "conv2d":
        gid: GroupId = ("conv", fn.anchor.attrs["field"],
                        fn.anchor.attrs["stride"])
    elif fn.op == "depthwise_conv2d":
        gid = ("dw", fn.anchor.attrs["field"], fn.anchor.attrs["stride"])
    else:
        plan.block(d, f"{fn.op} kernel exposes no shrink knob")
        return
    tiling = config.tiling_for(*gid)
    ext = extents.get(gid, {"w2": [], "c2": [], "c1": []})
    dims = {"w2vec": (tiling.w2vec, ext["w2"]),
            "c2vec": (tiling.c2vec, ext["c2"]),
            "c1vec": (tiling.c1vec, ext["c1"])}
    want = d.fix.get("dim", "widest")
    if want == "widest":
        dim = max(dims, key=lambda k: dims[k][0])
    else:
        dim = want
    current, dim_ext = dims[dim]
    if current <= 1:
        if want == "widest":
            plan.block(d, "no tiling dimension left to shrink "
                          "(all factors are 1)")
        else:
            plan.block(d, f"{dim} is already 1")
        return
    new = _next_factor(current, dim_ext) or 1
    gid_, dim_ = gid, dim

    def apply() -> None:
        t = config.tiling_for(*gid_)
        from repro.topi import ConvTiling

        config.conv_tilings[gid_] = ConvTiling(
            w2vec=new if dim_ == "w2vec" else t.w2vec,
            c2vec=new if dim_ == "c2vec" else t.c2vec,
            c1vec=new if dim_ == "c1vec" else t.c1vec,
            unroll_ff=t.unroll_ff,
        )

    plan.add(
        FixStep(action=f"{'/'.join(str(p) for p in gid)} {dim} "
                       f"{current} -> {new}", **step_args),
        ("tiling", gid, dim),
        apply,
    )


def _group_extents(fused: FusedGraph) -> Dict[GroupId, Dict[str, List[int]]]:
    from repro.flow.autotune import _group_extents as impl

    return impl(fused)


# ---------------------------------------------------------------------------
# the folded fixpoint loop


def autofix_folded(
    fused: FusedGraph,
    board: Board,
    config: Optional[FoldedConfig] = None,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    max_iterations: int = MAX_ITERATIONS,
    subject: str = "",
) -> AutofixResult:
    """Iterate advise -> rewrite -> re-verify on a folded build.

    Every iteration runs the schedule/lower/codegen/verify front of the
    pipeline (no synthesis), maps each advice finding to its lattice
    move, applies at most one move per knob, and stops at an
    advice-clean fixpoint, a provably-stuck state (every remaining
    finding blocked), or a safety bound.  The final recipes are
    serialized and replayed through ``recipe_overrides`` to prove the
    build is reproducible from their JSON form.
    """
    from repro.flow.deploy import default_folded_config

    if config is None:
        config = default_folded_config(fused.graph.name, board)
    config = _copy_config(config)
    result = AutofixResult(
        subject=subject or f"{fused.graph.name}:{board.name}", mode="folded",
        config=config,
    )
    extents = _group_extents(fused)
    seen = {_config_state(config)}
    sched: Optional[FoldedSchedule] = None
    source = ""

    for it in range(1, max_iterations + 1):
        result.iterations = it
        sched = schedule_folded(fused, config, board)
        program = lower_folded(sched)
        source = generate_opencl(program)
        plan = plan_folded(fused, sched)
        report = verify_build(
            program, source=source, plan=plan, subject=result.subject,
            board=board, constants=constants,
        )
        # translation validation: every rewritten recipe must certify
        # equivalent to the naive lowering (repro.verify.equiv) before
        # its configuration is accepted.  Certified kernels cost zero
        # interpreter runs; an RE006-unknown kernel gets exactly one
        # dynamic cross-check, and a rejection aborts like any other
        # error-severity finding.
        equiv_report, _ = certify_build(
            sched, plan=plan, subject=result.subject, dynamic_fallback=True,
        )
        report.merge(equiv_report)
        result.certified = report.counters.get("equiv_certified", 0)
        result.cert_unknown = report.counters.get("equiv_unknown", 0)
        result.cert_uncertified = report.counters.get("equiv_uncertified", 0)
        result.cert_dynamic_runs += report.counters.get(
            "equiv_dynamic_runs", 0
        )
        if report.errors:
            result.status, result.stuck_reason = "stuck", "verify-error"
            result.log.append(
                f"iteration {it}: {len(report.errors)} error finding(s) — "
                f"aborting"
            )
            break
        advice = report.advice
        if not advice:
            result.status = "clean"
            result.log.append(f"iteration {it}: advice-clean")
            break
        plan_ = _Plan()
        kernels = {sk.name: sk for sk in sched.kernels}
        for d in advice:
            _plan_folded_fix(
                d, kernels.get(d.kernel), config, fused, extents, it, plan_
            )
        if not plan_.steps:
            result.status, result.stuck_reason = "stuck", "blocked"
            result.blocked = plan_.blocked
            result.remaining = list(advice)
            result.log.append(
                f"iteration {it}: {len(advice)} finding(s), none applicable "
                f"— provably stuck"
            )
            break
        for step, thunk in plan_.steps:
            thunk()
            result.applied.append(step)
        result.log.append(
            f"iteration {it}: {len(advice)} finding(s), "
            f"{len(plan_.steps)} fix(es) applied"
        )
        state = _config_state(config)
        if state in seen:
            result.status, result.stuck_reason = "stuck", "cycle"
            result.remaining = list(advice)
            result.log.append(
                f"iteration {it}: configuration repeated — cycle detected"
            )
            break
        seen.add(state)
    else:
        result.status, result.stuck_reason = "stuck", "iteration-limit"
        result.log.append(f"no fixpoint within {max_iterations} iterations")

    if result.status == "stuck" and result.stuck_reason == "blocked":
        pass  # remaining already recorded
    elif result.status == "clean" and sched is not None:
        result.remaining = []
    if sched is not None:
        result.recipes = {
            sk.name: sk.recipe.fingerprint()
            for sk in sched.kernels if sk.recipe is not None
        }
        result.recipes_json = {
            sk.name: sk.recipe.to_json()
            for sk in sched.kernels if sk.recipe is not None
        }
        if result.stuck_reason != "verify-error":
            result.roundtrip_ok = _roundtrip_folded(
                fused, board, config, result.recipes_json, source
            )
    return result


def _roundtrip_folded(
    fused: FusedGraph,
    board: Board,
    config: FoldedConfig,
    recipes_json: Dict[str, str],
    source: str,
) -> bool:
    """Replay the serialized recipes and compare generated source."""
    replay = _copy_config(config)
    replay.recipe_deltas = {}
    replay.recipe_overrides = {
        k: ScheduleRecipe.from_json(v) for k, v in recipes_json.items()
    }
    sched = schedule_folded(fused, replay, board)
    return generate_opencl(lower_folded(sched)) == source


def plan_recipe_fixes(
    fused: FusedGraph,
    board: Board,
    config: FoldedConfig,
    constants: AOCConstants = DEFAULT_CONSTANTS,
) -> Tuple[FoldedConfig, bool]:
    """Single-pass recipe-level fixes (the DSE/autotune hook).

    Runs one verify pass and applies only the fixes that do not change
    the tiling identity of the point — recipe deltas and stride pinning,
    never shrinks — so a swept (tiling, recipe) candidate keeps its
    coordinates.  Returns the possibly-rewritten config and whether any
    fix applied.
    """
    config = _copy_config(config)
    sched = schedule_folded(fused, config, board)
    program = lower_folded(sched)
    report = verify_build(
        program, source=generate_opencl(program),
        plan=plan_folded(fused, sched), subject=fused.graph.name,
        board=board, constants=constants,
    )
    plan_ = _Plan()
    kernels = {sk.name: sk for sk in sched.kernels}
    for d in report.advice:
        _plan_folded_fix(
            d, kernels.get(d.kernel), config, fused, {}, 1, plan_,
            allow_shrink=False,
        )
    for _, thunk in plan_.steps:
        thunk()
    return config, bool(plan_.steps)


# ---------------------------------------------------------------------------
# the pipelined fixpoint loop (LeNet-class)


def autofix_pipelined(
    fused: FusedGraph,
    board: Board,
    level: str = LEVELS[-1],
    constants: AOCConstants = DEFAULT_CONSTANTS,
    max_iterations: int = MAX_ITERATIONS,
    subject: str = "",
) -> AutofixResult:
    """Advise -> rewrite loop over a pipelined (chain) build.

    Pipelined builders construct schedules imperatively, so fixes are
    recipe deltas applied *on top of* each freshly built schedule,
    keyed by (kernel, stage) — multi-stage kernels like the channel-fed
    softmax get per-stage deltas.  There is no tiling table to shrink:
    RP005/RP006 findings are blocking by construction (``pipelined
    schedules expose no shrink knob``) and the loop converges to clean
    or provably stuck.
    """
    from repro.pipeline.fingerprint import fingerprint

    deltas: Dict[Tuple[str, int], ScheduleRecipe] = {}
    result = AutofixResult(
        subject=subject or f"{fused.graph.name}:{board.name}:{level}",
        mode="pipelined",
    )
    seen = {fingerprint([])}

    for it in range(1, max_iterations + 1):
        result.iterations = it
        sched = schedule_pipelined(fused, level, board, 1.0)
        kernels = {sk.name: sk for sk in sched.kernels}
        for (kname, idx), delta in deltas.items():
            delta.apply(kernels[kname].schedule, stage_index=idx)
        program = lower_pipelined(sched)
        source = generate_opencl(program)
        plan = plan_pipelined(fused, sched)
        report = verify_build(
            program, source=source, plan=plan, subject=result.subject,
            board=board, constants=constants,
        )
        if report.errors:
            result.status, result.stuck_reason = "stuck", "verify-error"
            break
        advice = report.advice
        if not advice:
            result.status = "clean"
            result.log.append(f"iteration {it}: advice-clean")
            break
        plan_ = _Plan()
        for d in advice:
            _plan_pipelined_fix(d, kernels.get(d.kernel), deltas, it, plan_)
        if not plan_.steps:
            result.status, result.stuck_reason = "stuck", "blocked"
            result.blocked = plan_.blocked
            result.remaining = list(advice)
            result.log.append(
                f"iteration {it}: {len(advice)} finding(s), none applicable "
                f"— provably stuck"
            )
            break
        for step, thunk in plan_.steps:
            thunk()
            result.applied.append(step)
        result.log.append(
            f"iteration {it}: {len(advice)} finding(s), "
            f"{len(plan_.steps)} fix(es) applied"
        )
        state = fingerprint(
            sorted((k, i, r.fingerprint()) for (k, i), r in deltas.items())
        )
        if state in seen:
            result.status, result.stuck_reason = "stuck", "cycle"
            result.remaining = list(advice)
            break
        seen.add(state)
    else:
        result.status, result.stuck_reason = "stuck", "iteration-limit"

    def label(k: str, i: int) -> str:
        return k if i == 0 else f"{k}#{i}"

    result.recipes = {
        label(k, i): r.fingerprint() for (k, i), r in deltas.items()
    }
    result.recipes_json = {
        label(k, i): r.to_json() for (k, i), r in deltas.items()
    }
    return result


def _stage_for_finding(sk: ScheduledKernel, d: Diagnostic) -> int:
    """Schedule stage a finding points at (multi-stage kernels).

    RP001/RP002 locate a loop variable, RP003/RP004 a buffer; the stage
    whose axes or inputs carry that name is the one to rewrite.
    """
    for i, st in enumerate(sk.schedule.stages):
        if any(ax.name == d.location for ax in st.leaf_axes):
            return i
        if any(t.name == d.location for t in st.op.inputs):
            return i
    return 0


def _plan_pipelined_fix(
    d: Diagnostic,
    sk: Optional[ScheduledKernel],
    deltas: Dict[Tuple[str, int], ScheduleRecipe],
    iteration: int,
    plan: _Plan,
) -> None:
    if d.fix is None:
        plan.block(d, "finding carries no machine-readable fix")
        return
    if sk is None:
        plan.block(d, "finding is not attached to a scheduled kernel")
        return
    if sk.prebuilt is not None:
        plan.block(d, "kernel is prebuilt IR — no schedule to rewrite")
        return
    transform = d.fix.get("transform")
    idx = _stage_for_finding(sk, d)
    stage = sk.schedule.stages[idx]
    step_args = dict(iteration=iteration, rule=d.rule, kernel=d.kernel,
                     location=d.location, fix=dict(d.fix))

    def append(delta: ScheduleRecipe) -> None:
        existing = deltas.get((sk.name, idx))
        deltas[(sk.name, idx)] = existing + delta if existing else delta

    if transform == "cache_write":
        scope = d.fix.get("args", {}).get("scope", "register")
        if stage.scratch_scope != "global":
            plan.block(
                d, f"accumulator is already cached in "
                   f"'{stage.scratch_scope}' scope"
            )
            return
        plan.add(
            FixStep(action=f"cache_write('{scope}') appended to the "
                           f"kernel's stage-{idx} recipe", **step_args),
            ("recipe", sk.name, idx),
            lambda: append(ScheduleRecipe().cache_write(scope)),
        )
    elif transform == "cache_read":
        name = d.fix.get("input")
        if name in stage.cached_reads:
            plan.block(
                d, f"'{name}' is already staged through a cached read; its "
                   f"working set is the whole buffer"
            )
            return
        if name not in [t.name for t in stage.op.inputs]:
            plan.block(d, f"'{name}' is not an input of this kernel")
            return
        plan.add(
            FixStep(action=f"cache_read('{name}') appended to the kernel's "
                           f"stage-{idx} recipe", **step_args),
            ("recipe", sk.name, idx),
            lambda: append(ScheduleRecipe().cache_read(tensor=name)),
        )
    elif transform == "pin_unit_stride":
        plan.block(d, "pipelined kernels have static strides; nothing to pin")
    elif transform == "shrink":
        plan.block(d, "pipelined schedules expose no shrink knob")
    else:
        plan.block(d, f"unknown fix transform {transform!r}")


# ---------------------------------------------------------------------------
# network-level entry point


def autofix_network(
    network: str,
    board: Board,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    max_iterations: int = MAX_ITERATIONS,
) -> AutofixResult:
    """Auto-schedule one shipped network build (mode chosen like deploy).

    LeNet-5 runs the pipelined loop at the top optimization level;
    everything else runs the folded loop from the thesis tiling tables.
    """
    from repro.flow.stages import MODELS, default_mode
    from repro.relay import fuse_operators

    if network not in MODELS:
        raise ReproError(f"unknown network {network!r}")
    fused = fuse_operators(MODELS[network]())
    if default_mode(network) == "pipelined":
        return autofix_pipelined(
            fused, board, constants=constants, max_iterations=max_iterations,
        )
    return autofix_folded(
        fused, board, constants=constants, max_iterations=max_iterations,
    )


# -- pipeline integration ---------------------------------------------------

from repro.pipeline import register_canonicalizer, register_describer  # noqa: E402

register_canonicalizer(
    AutofixResult,
    lambda r: ["autofix-result", r.to_dict()],
)
register_describer(
    AutofixResult,
    lambda r: (
        len(r.applied),
        {"status": r.status, "iterations": r.iterations,
         "applied": len(r.applied), "blocked": len(r.blocked)},
    ),
)
