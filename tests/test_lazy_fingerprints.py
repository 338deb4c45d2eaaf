"""Fingerprints on demand: lazy artifact digests and memoized keys.

A plain pipeline run canonicalizes no artifact; the digest a trace
record, an artifact or a stage diagnostic reports is computed when it
is first read and equals the digest of the artifact as its stage
returned it.  Cache keys are built from parts computed once per object
(recipe fingerprints, per-kernel lower keys), and prebuilt kernels
replay from the lower cache.  The canonical form gives every object a
registered, collision-free shape and refuses types it does not know.
"""

import importlib

import numpy as np
import pytest

import repro.flow.incremental as incremental
import repro.ir as ir
import repro.verify.verifier as verifier
from repro.codegen import generate_opencl
from repro.device.boards import ARRIA10, STRATIX10_MX, STRATIX10_SX
from repro.errors import FitError
from repro.flow import build_rung, folded_flow
from repro.flow.deploy import folded_config_for
from repro.flow.incremental import clear_lower_cache, kernel_lower_key, prebuilt_kernel
from repro.flow.stages import DISABLED, pipelined_flow
from repro.pipeline import CompileCache, Pipeline, canonical, fingerprint
from repro.schedule import ScheduleRecipe
from repro.topi import softmax_kernel_licm, softmax_kernel_naive
from repro.verify import certify_build, clear_equiv_cache, verify_build

# the package re-exports ``fingerprint`` the function under the
# submodule's name, so fetch the module itself
fp = importlib.import_module("repro.pipeline.fingerprint")

#: the network x board matrix of the ``compile`` benchmark workload
MATRIX = (("lenet5", "pipelined"), ("mobilenet_v1", "folded"),
          ("resnet18", "folded"))
BOARDS = (ARRIA10, STRATIX10_SX, STRATIX10_MX)


def _build_matrix():
    """Trace of every matrix build, cold then warm, in build order; a
    build that does not fit contributes its diagnostic instead."""
    clear_lower_cache()
    clear_equiv_cache()
    cache = CompileCache()
    out = []
    for _phase in ("cold", "warm"):
        for network, mode in MATRIX:
            for board in BOARDS:
                try:
                    out.append((build_rung(network, board, mode, cache=cache)
                                .trace, None))
                except FitError as err:
                    out.append((err.diagnostic.trace, err.diagnostic))
    return out


class TestLazyArtifactFingerprints:
    def test_lazy_reads_equal_digests_at_stage_return(self, monkeypatch):
        """Every stage output (a cache hit's too) is fingerprinted the
        moment the stage returns it; the records, read only after all
        18 builds, report the same digests — so no later stage or build
        changed an earlier artifact."""
        at_return = []
        real_execute = Pipeline._execute

        def execute(self, stage, ctx):
            value, status = real_execute(self, stage, ctx)
            at_return.append(fingerprint(value))
            return value, status

        monkeypatch.setattr(Pipeline, "_execute", execute)
        builds = _build_matrix()
        monkeypatch.undo()

        read = []
        failed = 0
        for trace, diag in builds:
            done = [r for r in trace.records if r.status != "error"]
            read += [r.fingerprint for r in done]
            if diag is not None:
                failed += 1
                assert diag.fingerprint == done[-1].fingerprint
            assert all(r.fingerprint == "" for r in trace.records
                       if r.status == "error")
        assert failed == 2  # ResNet-18 does not fit the Arria 10
        assert len(read) == len(at_return) == 18 * 8 - 2 * 1
        assert all(len(d) == 64 for d in read)
        assert read == at_return

    def test_plain_run_canonicalizes_no_artifact(self, monkeypatch):
        seen = []
        real_canonical = fp.canonical

        def spy(obj):
            seen.append(obj)  # a strong reference keeps every id unique
            return real_canonical(obj)

        monkeypatch.setattr(fp, "canonical", spy)
        builds = _build_matrix()
        monkeypatch.undo()

        outputs = [r.output for trace, _ in builds for r in trace.records
                   if r.output is not None]
        assert len(outputs) == 18 * 8 - 2 * 1
        assert seen  # the spy sees the keys that are still computed
        canonicalized = {id(o) for o in seen}
        assert not [a.name for a in outputs if id(a.value) in canonicalized]
        # nothing was computed ahead of a read ...
        assert all(a._fingerprint is None for a in outputs)
        # ... and a read computes and keeps the digest
        art = outputs[0]
        assert art.fingerprint == fingerprint(art.value)
        assert art._fingerprint == art.fingerprint

    def test_trace_exports_read_the_digest(self):
        result = pipelined_flow("lenet5", STRATIX10_SX, cache=DISABLED).run()
        table = result.trace.format_table()
        for stage in result.trace.to_dict()["stages"]:
            digest = stage["fingerprint"]
            assert digest == fingerprint(result.value(stage["artifact"]))
            assert digest[:12] in table


class TestMemoizedKeys:
    def test_recipe_fingerprint_computed_once(self):
        r = ScheduleRecipe().split("xx", 7).unroll("xxi")
        first = r.fingerprint()
        assert r.fingerprint() is first
        assert first == fingerprint(["schedule-recipe", r.to_dict()])
        # an equal recipe built separately has the same digest
        assert ScheduleRecipe().split("xx", 7).unroll("xxi").fingerprint() == first

    def test_lower_key_computed_once_and_reused_by_certifier(self, monkeypatch):
        clear_lower_cache()
        clear_equiv_cache()
        calls = []
        real_key = incremental._lower_key

        def counting(sk):
            calls.append(sk.name)
            return real_key(sk)

        monkeypatch.setattr(incremental, "_lower_key", counting)
        flow = folded_flow("mobilenet_v1", ARRIA10,
                           folded_config_for("mobilenet_v1", ARRIA10),
                           cache=DISABLED)
        result = flow.run()
        sched = result.value("schedule")
        names = [sk.name for sk in sched.kernels]
        assert sorted(calls) == sorted(names)
        # later reads (and a second certification) hand back the same key
        certify_build(sched, dynamic_fallback=False)
        assert [kernel_lower_key(sk) for sk in sched.kernels] == [
            real_key(sk) for sk in sched.kernels
        ]
        assert sorted(calls) == sorted(names)


def _softmax(program):
    (kernel,) = [k for k in program.kernels if "softmax" in k.name]
    return kernel


class TestPrebuiltReplay:
    @pytest.mark.parametrize("build", [
        # the channel-free levels emit the softmax kernel prebuilt
        lambda: pipelined_flow("lenet5", STRATIX10_SX, level="unroll",
                               cache=DISABLED),
        lambda: folded_flow("mobilenet_v1", ARRIA10,
                            folded_config_for("mobilenet_v1", ARRIA10),
                            cache=DISABLED),
    ], ids=["lenet5-pipelined-unroll", "mobilenet_v1-folded"])
    def test_second_build_replays_softmax_and_its_findings(
        self, monkeypatch, build
    ):
        clear_lower_cache()
        checked = []
        real_bounds = verifier.check_bounds

        def counting(kernel, *args):
            checked.append(kernel)
            return real_bounds(kernel, *args)

        monkeypatch.setattr(verifier, "check_bounds", counting)
        first, second = build().run(), build().run()
        kernel = _softmax(first.value("program"))
        assert _softmax(second.value("program")) is kernel
        assert sum(1 for k in checked if k is kernel) == 1
        assert first.value("source") == second.value("source")
        # prebuilt kernels still count as uncached lowerings
        assert second.value("program").lower_cache["uncached"] >= 1

    def test_replay_equals_a_fresh_build(self):
        clear_lower_cache()
        ir.set_fresh_name_state(5)
        kernel = prebuilt_kernel(softmax_kernel_licm, 10, "sm", "k_sm")
        end = ir.fresh_name_state()
        ir.set_fresh_name_state(5)
        assert prebuilt_kernel(softmax_kernel_licm, 10, "sm", "k_sm") is kernel
        assert ir.fresh_name_state() == end
        ir.set_fresh_name_state(5)
        fresh = softmax_kernel_licm(10, "sm", "k_sm")
        assert ir.fresh_name_state() == end
        assert generate_opencl(ir.Program([fresh])) == generate_opencl(
            ir.Program([kernel]))

    def test_key_covers_builder_args_and_name_position(self):
        clear_lower_cache()
        ir.set_fresh_name_state(5)
        base = prebuilt_kernel(softmax_kernel_licm, 10, "sm", "k_sm")
        for builder, args, state in [
            (softmax_kernel_naive, (10, "sm", "k_sm"), 5),
            (softmax_kernel_licm, (12, "sm", "k_sm"), 5),
            (softmax_kernel_licm, (10, "sm2", "k_sm"), 5),
            (softmax_kernel_licm, (10, "sm", "k_sm2"), 5),
            (softmax_kernel_licm, (10, "sm", "k_sm"), 9),
        ]:
            ir.set_fresh_name_state(state)
            assert prebuilt_kernel(builder, *args) is not base

    def test_seeded_out_of_bounds_store_trips_rb001(self):
        clear_lower_cache()

        def oob_softmax(n, layer, kname):
            a = ir.Buffer(f"{layer}_out", (n,))
            i = ir.Var("i")
            return ir.Kernel(kname, [a], ir.For(i, n, ir.Store(a, i + n, 1.0)))

        ir.set_fresh_name_state(0)
        clean = prebuilt_kernel(softmax_kernel_licm, 10, "sm", "k_sm")
        assert verify_build(ir.Program([clean]), board=ARRIA10).clean
        # same arguments and name position as the verified, cached kernel
        ir.set_fresh_name_state(0)
        broken = prebuilt_kernel(oob_softmax, 10, "sm", "k_sm")
        assert broken is not clean
        report = verify_build(ir.Program([broken]), board=ARRIA10)
        assert [d.rule for d in report.errors] == ["RB001"]


class _Opaque:
    pass


class TestCanonicalForms:
    def test_var_dtype_is_part_of_the_key(self):
        assert canonical(ir.Var("x", "float32")) != canonical(ir.Var("x"))
        assert fingerprint(ir.Var("x", "float32")) != fingerprint(ir.Var("x"))
        assert fingerprint(ir.Var("x")) != fingerprint(ir.Var("y"))
        # two var objects of one name and dtype share a key
        assert fingerprint(ir.Var("x")) == fingerprint(ir.Var("x"))

    def test_numpy_scalars_are_python_numbers(self):
        assert canonical(np.int64(3)) == 3
        assert type(canonical(np.int64(3))) is int
        assert type(canonical(np.float32(0.5))) is float
        assert fingerprint(np.int64(3)) == fingerprint(3)
        assert fingerprint([np.int32(2), np.float64(0.1)]) == fingerprint([2, 0.1])
        assert fingerprint(np.int64(3)) != fingerprint(4)
        assert fingerprint(np.float64(0.1)) != fingerprint(0.2)

    def test_unregistered_type_raises_naming_it(self):
        with pytest.raises(TypeError, match="_Opaque"):
            canonical(_Opaque())
        with pytest.raises(TypeError, match="_Opaque"):
            fingerprint({"k": [1, _Opaque()]})
