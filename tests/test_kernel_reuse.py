"""Kernel-scoped reuse: results computed once per lowered kernel.

A kernel replayed from the per-kernel lower cache carries its channel
sets, its AOC analysis and its verifier findings (``Kernel.derived``)
into every build that contains it.  These tests pin the contract both
ways: replayed results equal what a freshly lowered kernel yields, a
defective kernel next to cached clean siblings is still caught, the
stored results die with the kernel, and pickling drops them.
"""

import gc
import pickle
import weakref

import pytest

import repro.flow.dse as dse
import repro.flow.incremental as incremental
import repro.flow.stages as stages
import repro.ir as ir
from repro.aoc.analysis import KernelAnalysis
from repro.device.boards import ARRIA10, STRATIX10_MX, STRATIX10_SX
from repro.errors import FitError
from repro.flow import build_rung, deploy_folded, folded_flow, sweep_conv1x1
from repro.flow.deploy import folded_config_for
from repro.flow.incremental import clear_lower_cache
from repro.flow.stages import DISABLED, MODELS
from repro.pipeline import CompileCache, DiskBackend, Pipeline
from repro.relay import fuse_operators
from repro.verify import clear_equiv_cache, verify_build
from repro.verify.verifier import kernel_findings

MATRIX = (("lenet5", "pipelined"), ("mobilenet_v1", "folded"),
          ("resnet18", "folded"))
BOARDS = (ARRIA10, STRATIX10_SX, STRATIX10_MX)
#: the 72-point conv1x1 grid of the Fig 6.3 sweep
SWEEP_GRID = dict(w2vec_options=(1, 7), c2vec_options=(1, 2, 4, 8, 16, 32),
                  c1vec_options=(1, 2, 4, 8, 16, 32))


def _plan_times(bs, plan):
    invocations = getattr(plan, "invocations", None)
    if invocations is not None:
        return [(i.layer, bs.kernel_time_us(i.kernel_name, i.bindings))
                for i in invocations]
    return [(s.layer, bs.kernel_time_us(s.kernel_name)) for s in plan.stages]


def _record_round(monkeypatch, fresh: bool) -> list:
    """Every verify report and plan timing of the matrix, built cold then
    warm, and of the pruned 72-point sweep.  ``fresh`` re-lowers every
    kernel instead of replaying it from the lower cache."""
    clear_lower_cache()
    clear_equiv_cache()
    if fresh:
        monkeypatch.setattr(incremental._CACHE, "capacity", 0)
    records = []
    real_assert = stages.assert_clean
    real_simulate = dse.simulate_folded

    def record_report(report):
        records.append(("verify", report.to_dict()))
        return real_assert(report)

    def record_sweep_point(bs, plan):
        records.append(("times", _plan_times(bs, plan)))
        return real_simulate(bs, plan)

    monkeypatch.setattr(stages, "assert_clean", record_report)
    monkeypatch.setattr(dse, "simulate_folded", record_sweep_point)
    cache = CompileCache()
    for _phase in ("cold", "warm"):
        for network, mode in MATRIX:
            for board in BOARDS:
                try:
                    dep = build_rung(network, board, mode, cache=cache)
                except FitError:
                    records.append(("fit-error", network, board.name))
                    continue
                records.append(("times", _plan_times(dep.bitstream, dep.plan)))
    fused = fuse_operators(MODELS["mobilenet_v1"]())
    summary = sweep_conv1x1(fused, ARRIA10, cache=cache, prune=True,
                            **SWEEP_GRID)
    records.append(("sweep", summary.points, summary.to_dict()))
    monkeypatch.undo()
    clear_lower_cache()
    return records


class TestReplayEqualsFresh:
    def test_matrix_and_sweep_reports_and_times(self, monkeypatch):
        warm = _record_round(monkeypatch, fresh=False)
        fresh = _record_round(monkeypatch, fresh=True)
        # 18 matrix builds + 57 sweep builds each pass verify
        assert sum(1 for r in warm if r[0] == "verify") == 18 + 57
        assert len(warm[-1][1]) == 72
        assert warm == fresh


def _symbolic_kernel(store_index, unrolled: bool = False) -> ir.Kernel:
    """``a[store_index(i, n)] = i`` over ``i < n``, ``n`` a scalar arg."""
    n = ir.Var("n")
    a = ir.Buffer("a", (n,))
    i = ir.Var("i")
    body = ir.For(
        i, 4 if unrolled else n,
        ir.Store(a, store_index(i, n), ir.Cast(ir.FLOAT32, i)),
        kind=ir.ForKind.UNROLLED if unrolled else ir.ForKind.SERIAL,
    )
    return ir.Kernel("k", [a], body, scalar_args=[n])


def _bindings(kernel: ir.Kernel, value: int):
    # a foreign var of the same name, as an alpha-equivalent plan has
    return [{ir.Var(kernel.scalar_args[0].name): value}]


class TestKeying:
    def test_alpha_equivalent_bindings_share_one_result(self):
        k = _symbolic_kernel(lambda i, n: i)
        first = kernel_findings(k, _bindings(k, 16), ARRIA10)
        assert kernel_findings(k, _bindings(k, 16), ARRIA10) is first
        assert kernel_findings(k, _bindings(k, 8), ARRIA10) is not first
        assert kernel_findings(k, _bindings(k, 16), STRATIX10_SX) is not first
        assert kernel_findings(k, _bindings(k, 16)) is not first

    def test_foreign_bindings_prove_races_like_own_ones(self):
        k = _symbolic_kernel(lambda i, n: i * n, unrolled=True)
        own = kernel_findings(k, [{k.scalar_args[0]: 16}]).to_dict()
        foreign = _symbolic_kernel(lambda i, n: i * n, unrolled=True)
        assert kernel_findings(foreign, _bindings(k, 16)).to_dict() == own
        # the bound stride proves the unrolled stores disjoint (no RR003)
        assert own["counters"]["unrolled_stores_disjoint"] == 1
        assert not [d for d in own["diagnostics"] if d["rule"][:2] == "RR"]

    def test_replay_merges_like_a_fresh_run(self):
        k = _symbolic_kernel(lambda i, n: i + 1)
        prog = ir.Program([k])
        first = verify_build(prog, board=ARRIA10).to_dict()
        again = verify_build(prog, board=ARRIA10).to_dict()
        assert again == first
        assert first["counters"]["accesses_checked"] == 1


def _static_build(network: str, board):
    """Program and plan of one folded build, without verify or synthesis."""
    flow = folded_flow(network, board, folded_config_for(network, board),
                       cache=DISABLED)
    result = Pipeline(flow.name, [
        s for s in flow.stages if s.name not in ("verify", "synthesize")
    ]).run()
    return result.value("program"), result.value("plan")


class TestSeededDefectsStillTrip:
    """A defective kernel next to cached clean siblings is checked itself."""

    def test_out_of_bounds_store_trips_rb001(self):
        clean = _symbolic_kernel(lambda i, n: i)
        broken = _symbolic_kernel(lambda i, n: i + n)
        sets = _bindings(clean, 4)
        assert kernel_findings(clean, sets, ARRIA10).clean  # now cached
        # same name, args and binding values as the cached sibling
        rep = kernel_findings(broken, sets, ARRIA10)
        assert [d.rule for d in rep.errors] == ["RB001"]

    def test_unroll_race_trips_rr001(self):
        clean = _symbolic_kernel(lambda i, n: i, unrolled=True)
        broken = _symbolic_kernel(lambda i, n: ir.IntImm(0), unrolled=True)
        sets = _bindings(clean, 4)
        assert kernel_findings(clean, sets, ARRIA10).clean
        rep = kernel_findings(broken, sets, ARRIA10)
        assert [d.rule for d in rep.errors] == ["RR001"]

    def test_defects_next_to_a_verified_build(self):
        program, plan = _static_build("mobilenet_v1", ARRIA10)
        assert verify_build(program, plan=plan, board=ARRIA10).clean
        a, b = ir.Buffer("a", (8,)), ir.Buffer("b", (8,))
        i, j = ir.Var("i"), ir.Var("j")
        oob = ir.Kernel("k_oob", [a], ir.For(i, 8, ir.Store(a, i + 8, 1.0)))
        race = ir.Kernel("k_race", [b], ir.For(
            j, 4, ir.Store(b, 0, ir.Cast(ir.FLOAT32, j)),
            kind=ir.ForKind.UNROLLED,
        ))
        seeded = ir.Program(list(program.kernels) + [oob, race])
        report = verify_build(seeded, plan=plan, board=ARRIA10)
        assert [(d.rule, d.kernel) for d in report.errors] == [
            ("RB001", "k_oob"), ("RR001", "k_race"),
        ]


class TestLifetimeAndPickling:
    def test_kernel_dies_with_the_lower_cache(self):
        clear_lower_cache()
        config = folded_config_for("mobilenet_v1", ARRIA10)

        def build():
            return folded_flow("mobilenet_v1", ARRIA10, config,
                               cache=DISABLED).run()

        first, second = build(), build()
        shared = [k for k, k2 in zip(first.value("program").kernels,
                                     second.value("program").kernels)
                  if k is k2]
        assert shared, "no kernel was replayed from the lower cache"
        kernel = shared[0]
        assert KernelAnalysis.of(kernel) is first.value("bitstream").hw[
            kernel.name].analysis
        ref = weakref.ref(kernel)
        del first, second, shared, kernel
        clear_lower_cache()
        gc.collect()
        assert ref() is None

    def test_bitstream_round_trips_through_disk(self, tmp_path):
        dep = deploy_folded("mobilenet_v1", ARRIA10, cache=CompileCache())
        bs = dep.bitstream
        # the kernels carry stored results (analysis, verifier findings)
        kernel = bs.program.kernels[0]
        assert KernelAnalysis.of(kernel) is bs.hw[kernel.name].analysis
        disk = DiskBackend(tmp_path)
        disk.put("bs", bs)
        loaded = disk.get("bs")
        assert _plan_times(loaded, dep.plan) == _plan_times(bs, dep.plan)
        assert loaded.fmax_mhz == bs.fmax_mhz
        assert loaded.total == bs.total

    def test_pickling_drops_stored_results(self):
        k = _symbolic_kernel(lambda i, n: i)
        size = len(pickle.dumps(k))
        kernel_findings(k, _bindings(k, 4), ARRIA10)
        analysis = KernelAnalysis.of(k)
        k.channels()
        assert len(pickle.dumps(k)) == size
        copy = pickle.loads(pickle.dumps(k))
        assert KernelAnalysis.of(copy) is not analysis
        assert KernelAnalysis.of(copy).compute_cycles(_bindings(k, 4)[0]) == (
            analysis.compute_cycles(_bindings(k, 4)[0]))

    def test_stored_results_form_no_reference_cycle(self):
        # freed by reference counting alone, not left for a full collection
        k = _symbolic_kernel(lambda i, n: i)
        kernel_findings(k, _bindings(k, 4), ARRIA10)
        KernelAnalysis.of(k).compute_cycles(_bindings(k, 4)[0])
        k.channels()
        ref = weakref.ref(k)
        gc.disable()
        try:
            del k
            assert ref() is None
        finally:
            gc.enable()


class TestChannelSets:
    def test_channel_sets_are_read_only_and_shared(self):
        cin, cout = ir.Channel("cin"), ir.Channel("cout")
        i = ir.Var("i")
        body = ir.For(i, 8, ir.ChannelWrite(cout, cin.read() * 2.0))
        k = ir.Kernel("k", [], body, autorun=True)
        reads, writes = k.channels()
        assert k.channels() == (reads, writes)
        assert isinstance(reads, frozenset) and isinstance(writes, frozenset)
        with pytest.raises(AttributeError):
            reads.add(cout)  # type: ignore[attr-defined]
        assert ir.Program([k]).all_channels() == {cin, cout}


class TestParallelSweep:
    def test_parallel_sweep_matches_serial(self):
        fused = fuse_operators(MODELS["mobilenet_v1"]())
        grid = dict(w2vec_options=(7,), c2vec_options=(8, 16),
                    c1vec_options=(4, 8))
        arms = []
        for workers in (1, 2):
            clear_lower_cache()
            arms.append(sweep_conv1x1(fused, ARRIA10, cache=CompileCache(),
                                      workers=workers, **grid))
        serial, parallel = arms
        assert parallel.points == serial.points
        assert (parallel.cache_hits, parallel.cache_misses) == (
            serial.cache_hits, serial.cache_misses)
