"""One execution plan per build, and the verifier certifies that plan.

The ``plan`` stage runs before ``verify``, and ``verify`` reads the
``plan`` artifact instead of planning again.  Over the 3x3 network x
board matrix, built cold then warm, and the pruned 72-point conv1x1
sweep, every build that reaches the ``plan`` stage calls its planner
exactly once, and the plan that ``verify_build``, ``certify_build`` and
``check_memory`` receive is the object the build hands on — the one a
:class:`~repro.flow.deploy.Deployment` runs.
"""

import pytest

import repro.flow.dse as dse
import repro.flow.stages as stages
import repro.verify.equiv as equiv
import repro.verify.memory as memory
from repro.device.boards import ARRIA10, STRATIX10_MX, STRATIX10_SX
from repro.errors import FitError, ReproError
from repro.flow import build_rung, sweep_conv1x1
from repro.flow.incremental import clear_lower_cache
from repro.flow.stages import MODELS
from repro.pipeline import CompileCache, Pipeline
from repro.relay import fuse_operators
from repro.verify import clear_equiv_cache

MATRIX = (("lenet5", "pipelined"), ("mobilenet_v1", "folded"),
          ("resnet18", "folded"))
BOARDS = (ARRIA10, STRATIX10_SX, STRATIX10_MX)
#: the 72-point conv1x1 grid of the Fig 6.3 sweep
SWEEP_GRID = dict(w2vec_options=(1, 7), c2vec_options=(1, 2, 4, 8, 16, 32),
                  c1vec_options=(1, 2, 4, 8, 16, 32))


def _plan_artifact(trace):
    """The plan a build produced, read off its trace (``None`` if the
    build never reached the ``plan`` stage)."""
    try:
        record = trace.stage("plan")
    except KeyError:
        return None
    return record.output.value if record.output is not None else None


@pytest.fixture(scope="module")
def round_log():
    """Per pipeline run: planner results, plans handed to the verifiers
    and the run's plan artifact; plus every matrix deployment and every
    plan the sweep costed."""
    mp = pytest.MonkeyPatch()
    frames, runs, deps, costed = [], [], [], []

    def spy_planner(real):
        def planner(*args, **kwargs):
            plan = real(*args, **kwargs)
            frames[-1]["planned"].append(plan)
            return plan
        return planner

    def spy_verifier(real, plan_at):
        def verifier(*args, **kwargs):
            if frames:
                plan = kwargs["plan"] if "plan" in kwargs else args[plan_at]
                frames[-1]["verified"].append((real.__name__, plan))
            return real(*args, **kwargs)
        return verifier

    real_run = Pipeline.run

    def run(self, seed=None):
        frame = {"planned": [], "verified": []}
        frames.append(frame)
        try:
            result = real_run(self, seed)
        except ReproError as err:
            runs.append((frame, _plan_artifact(err.diagnostic.trace)))
            raise
        finally:
            frames.pop()
        runs.append((frame, _plan_artifact(result.trace)))
        return result

    def cost(bs, plan):
        costed.append(plan)
        return real_cost(bs, plan)

    real_cost = dse.simulate_folded
    mp.setattr(Pipeline, "run", run)
    mp.setattr(stages, "plan_folded", spy_planner(stages.plan_folded))
    mp.setattr(stages, "plan_pipelined", spy_planner(stages.plan_pipelined))
    mp.setattr(stages, "verify_build", spy_verifier(stages.verify_build, 2))
    mp.setattr(equiv, "certify_build", spy_verifier(equiv.certify_build, 1))
    mp.setattr(memory, "check_memory", spy_verifier(memory.check_memory, 1))
    mp.setattr(dse, "simulate_folded", cost)
    clear_lower_cache()
    clear_equiv_cache()
    try:
        cache = CompileCache()
        for _phase in ("cold", "warm"):
            for network, mode in MATRIX:
                for board in BOARDS:
                    try:
                        deps.append(build_rung(network, board, mode,
                                               cache=cache))
                    except FitError:
                        pass
        fused = fuse_operators(MODELS["mobilenet_v1"]())
        summary = sweep_conv1x1(fused, ARRIA10, cache=cache, prune=True,
                                workers=1, **SWEEP_GRID)
    finally:
        mp.undo()
        clear_lower_cache()
    return runs, deps, costed, summary


class TestOnePlanPerBuild:
    def test_each_build_plans_once(self, round_log):
        runs, _, _, summary = round_log
        planned = [(frame, plan) for frame, plan in runs if plan is not None]
        # 18 matrix builds (the two that do not fit plan before they fail
        # to synthesize) plus one per sweep point that was built
        assert len(planned) == 18 + summary.synthesized
        for frame, plan in planned:
            assert len(frame["planned"]) == 1
            assert frame["planned"][0] is plan

    def test_verifiers_certify_the_built_plan(self, round_log):
        runs, _, _, _ = round_log
        for frame, plan in runs:
            if plan is None:
                continue
            names = sorted(name for name, _ in frame["verified"])
            assert names == ["certify_build", "check_memory", "verify_build"]
            assert all(got is plan for _, got in frame["verified"])

    def test_deployment_runs_the_verified_plan(self, round_log):
        runs, deps, costed, _ = round_log
        verified = {id(got) for frame, _ in runs
                    for _, got in frame["verified"]}
        assert len(deps) == 16  # ResNet-18 does not fit the Arria 10
        assert all(id(dep.plan) in verified for dep in deps)
        assert costed and all(id(plan) in verified for plan in costed)
