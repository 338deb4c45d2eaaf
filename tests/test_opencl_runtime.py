"""Event-level OpenCL host-runtime simulator tests."""

import dataclasses

import pytest

import repro.ir as ir
import repro.runtime.simulate as simulate
from repro.aoc import compile_program
from repro.device import ALL_BOARDS, STRATIX10_SX
from repro.errors import RuntimeSimError
from repro.flow import deploy_folded, folded_flow
from repro.flow.deploy import folded_config_for
from repro.flow.stages import DISABLED, MODELS, default_mode
from repro.pipeline import Pipeline
from repro.runtime import (
    RunResult,
    SimContext,
    run_folded_event,
    simulate_batched,
    simulate_folded,
)
from repro.schedule import lower
from repro.topi import ConvSpec, ConvTiling, conv2d_tensors, schedule_conv2d_opt


@pytest.fixture(scope="module")
def bitstream():
    spec = ConvSpec(c1=8, h=10, w=10, k=8, f=3)
    _, out = conv2d_tensors(spec, "c")
    kern = lower(schedule_conv2d_opt(out, ConvTiling(c1vec=2)), "k")
    return compile_program(ir.Program([kern], "p"), STRATIX10_SX)


class TestEventSemantics:
    def test_in_order_queue(self, bitstream):
        ctx = SimContext(bitstream)
        q = ctx.create_queue()
        buf = ctx.create_buffer("b", 4096)
        e1 = ctx.enqueue_write(q, buf)
        e2 = ctx.enqueue_kernel(q, "k")
        assert e2.start_us >= e1.end_us

    def test_explicit_dependency_across_queues(self, bitstream):
        ctx = SimContext(bitstream)
        q1, q2 = ctx.create_queue(), ctx.create_queue()
        buf = ctx.create_buffer("b", 4096)
        e1 = ctx.enqueue_write(q1, buf)
        e2 = ctx.enqueue_kernel(q2, "k", wait_for=[e1])
        assert e2.start_us >= e1.end_us

    def test_independent_queues_overlap(self, bitstream):
        ctx = SimContext(bitstream)
        q1, q2 = ctx.create_queue(), ctx.create_queue()
        e1 = ctx.enqueue_kernel(q1, "k")
        e2 = ctx.enqueue_kernel(q2, "k")
        # the second launch starts before the first finishes (only the
        # host-dispatch cost separates them)
        assert e2.start_us < e1.end_us

    def test_host_thread_serializes_enqueues(self, bitstream):
        ctx = SimContext(bitstream)
        q = ctx.create_queue()
        before = ctx.host_us
        ctx.enqueue_kernel(q, "k")
        assert ctx.host_us == before + bitstream.board.enqueue_overhead_us

    def test_profiling_forces_blocking(self, bitstream):
        ctx = SimContext(bitstream, profiling=True)
        q1, q2 = ctx.create_queue(), ctx.create_queue()
        e1 = ctx.enqueue_kernel(q1, "k")
        e2 = ctx.enqueue_kernel(q2, "k")
        # with the profiler on, the host blocks per event -> no overlap
        assert e2.start_us >= e1.end_us

    def test_finish_returns_last_end(self, bitstream):
        ctx = SimContext(bitstream)
        q = ctx.create_queue()
        ctx.enqueue_kernel(q, "k")
        e = ctx.enqueue_kernel(q, "k")
        assert ctx.finish() == e.end_us

    def test_event_profile_totals(self, bitstream):
        ctx = SimContext(bitstream)
        q = ctx.create_queue()
        buf = ctx.create_buffer("b", 1 << 16)
        ctx.enqueue_write(q, buf)
        ctx.enqueue_kernel(q, "k")
        ctx.enqueue_read(q, buf)
        totals = ctx.profile_totals()
        assert totals["kernel"] > 0 and totals["write"] > 0 and totals["read"] > 0

    def test_bad_buffer_size(self, bitstream):
        ctx = SimContext(bitstream)
        with pytest.raises(RuntimeSimError):
            ctx.create_buffer("b", 0)

    def test_kernel_duration_matches_model(self, bitstream):
        ctx = SimContext(bitstream)
        q = ctx.create_queue()
        e = ctx.enqueue_kernel(q, "k")
        assert abs(e.duration_us - bitstream.kernel_time_us("k")) < 1e-9


FOLDED_NETWORKS = sorted(n for n in MODELS if default_mode(n) == "folded")


@pytest.mark.parametrize("board", ALL_BOARDS, ids=lambda b: b.name)
@pytest.mark.parametrize("network", FOLDED_NETWORKS)
def test_folded_cost_is_batch_of_one(network, board, monkeypatch):
    """``simulate_folded`` is ``simulate_batched(..., 1)`` field for field,
    with one device-lost probe per call.  Builds that do not fit the
    board are costed from their non-strict bitstream."""
    flow = folded_flow(network, board, folded_config_for(network, board),
                       cache=DISABLED)
    build = Pipeline(flow.name, [
        st for st in flow.stages if st.name not in ("verify", "synthesize")
    ]).run()
    bs = compile_program(build.value("program"), board, strict_fit=False)
    plan = build.value("plan")
    probes = []
    real_probe = simulate._check_device_lost
    monkeypatch.setattr(simulate, "_check_device_lost",
                        lambda label: probes.append(label) or real_probe(label))
    folded = simulate_folded(bs, plan)
    assert len(probes) == 1
    batched = simulate_batched(bs, plan, 1)
    assert len(probes) == 2
    for f in dataclasses.fields(RunResult):
        assert getattr(folded, f.name) == getattr(batched, f.name), f.name


class TestFoldedEventEngine:
    @pytest.fixture(scope="class")
    def deployment(self):
        return deploy_folded("mobilenet_v1", STRATIX10_SX)

    def test_agrees_with_closed_form(self, deployment):
        closed = simulate_folded(deployment.bitstream, deployment.plan)
        event = run_folded_event(deployment.bitstream, deployment.plan, 1)
        ratio = event["time_per_image_us"] / closed.time_per_image_us
        assert 0.8 < ratio < 1.25

    def test_multi_image_amortizes(self, deployment):
        one = run_folded_event(deployment.bitstream, deployment.plan, 1)
        many = run_folded_event(deployment.bitstream, deployment.plan, 4)
        assert many["time_per_image_us"] <= one["time_per_image_us"] * 1.01

    def test_event_count(self, deployment):
        n_inv = len(deployment.plan.invocations)
        res = run_folded_event(deployment.bitstream, deployment.plan, 2)
        assert res["events"] == 2 * (n_inv + 2)  # write + kernels + read

    def test_profiling_slows_throughput(self, deployment):
        plain = run_folded_event(deployment.bitstream, deployment.plan, 2)
        profiled = run_folded_event(
            deployment.bitstream, deployment.plan, 2, profiling=True
        )
        assert profiled["fps"] <= plain["fps"] * 1.001

    def test_profile_breakdown_present(self, deployment):
        res = run_folded_event(deployment.bitstream, deployment.plan, 1)
        assert res["profile"]["kernel"] > res["profile"]["read"]


class TestPipelinedEventEngine:
    @pytest.fixture(scope="class")
    def deployment(self):
        from repro.flow import deploy_pipelined

        return deploy_pipelined("lenet5", STRATIX10_SX, "tvm_autorun")

    def test_steady_state_matches_closed_form(self, deployment):
        """The event engine independently reproduces the analytic
        layer-pipeline bottleneck."""
        from repro.runtime import run_pipelined_event

        event = run_pipelined_event(deployment.bitstream, deployment.plan, 64)
        closed = deployment.fps(concurrent=True)
        assert 0.9 < event["fps"] / closed < 1.1

    def test_throughput_improves_with_pipelining(self, deployment):
        from repro.runtime import run_pipelined_event

        one = run_pipelined_event(deployment.bitstream, deployment.plan, 1)
        many = run_pipelined_event(deployment.bitstream, deployment.plan, 32)
        assert many["fps"] > 1.5 * one["fps"]

    def test_autorun_stages_cost_no_dispatch(self, deployment):
        from repro.runtime import SimContext, run_pipelined_event

        run = run_pipelined_event(deployment.bitstream, deployment.plan, 1)
        # host-dispatched commands: write + read + non-autorun kernels
        n_autorun = sum(1 for s in deployment.plan.stages if s.autorun)
        n_total = len(deployment.plan.stages)
        assert run["events"] == n_total + 2  # all stages + write + read

    def test_profiled_run_not_faster(self, deployment):
        from repro.runtime import run_pipelined_event

        plain = run_pipelined_event(deployment.bitstream, deployment.plan, 8)
        prof = run_pipelined_event(
            deployment.bitstream, deployment.plan, 8, profiling=True
        )
        assert prof["fps"] <= plain["fps"] * 1.001

    def test_base_level_event_engine(self):
        """Without channels, one image's chain is serial in the event
        engine too; successive images overlap (the engine assumes double
        buffering), so throughput sits between the closed-form serial
        rate and the bottleneck-stage bound."""
        from repro.flow import deploy_pipelined
        from repro.runtime import run_pipelined_event

        d = deploy_pipelined("lenet5", STRATIX10_SX, "base")
        event = run_pipelined_event(d.bitstream, d.plan, 16)
        serial = d.fps(concurrent=False)
        r = d.run(concurrent=False)
        bottleneck_bound = 1e6 / max(r.stage_times_us.values())
        assert serial * 0.9 <= event["fps"] <= bottleneck_bound
        # single-image latency matches the serial chain
        one = run_pipelined_event(d.bitstream, d.plan, 1)
        assert 0.7 < (1e6 / one["fps"]) / r.time_per_image_us < 1.3
