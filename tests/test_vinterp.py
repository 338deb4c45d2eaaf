"""Soundness of the vectorized interpreter: bit-identical to scalar.

The vectorized interpreter's contract (:mod:`repro.ir.vinterp`) is that
every result is **bit-identical in float32** to the element-wise scalar
interpreter — vectorization is a pure execution-speed transform, never a
numerics change.  These tests pin that contract three ways:

* a soundness matrix running every shipped network on every board
  (LeNet-5 at full size, MobileNetV1/ResNet-18 through their reduced
  twins from :mod:`repro.models.twins`, which instantiate every
  parameterized kernel group of the full networks — asserted, so
  coverage cannot drift);
* hypothesis property tests over random conv tilings and dense unrolls;
* fallback tests proving that constructs the vectorizer must refuse
  (data-dependent control flow, overlapping stores, non-reduction
  self-reads, indirect indexing) fall back to the scalar loop and still
  produce identical results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ir as ir
from repro.device import ALL_BOARDS, STRATIX10_SX
from repro.flow import FoldedConfig, build_folded, build_pipelined
from repro.flow.deploy import default_folded_config
from repro.flow.stages import MODELS
from repro.ir.vinterp import VectorizedInterpreter, run_kernel_vectorized
from repro.models.twins import TWINS
from repro.relay import fuse_operators, init_params, run_fused_graph
from repro.runtime.executor import (
    run_folded_functional,
    run_pipelined_functional,
)
from repro.schedule import lower
from repro.topi import (
    ConvSpec,
    ConvTiling,
    DenseSpec,
    conv2d_tensors,
    dense_tensors,
    schedule_conv2d_opt,
    schedule_dense_opt,
)

_BOARDS = {b.name: b for b in ALL_BOARDS}


# ---------------------------------------------------------------------------
# shared builds: one compile and one scalar reference per distinct program


_builds = {}
_scalar_cache = {}


def _program_fingerprint(prog, plan) -> str:
    parts = [prog.name]
    for kern in prog.kernels:
        parts.append(kern.name)
        parts.append(ir.stmt_str(kern.body))
    for inv in getattr(plan, "invocations", ()):
        parts.append(inv.kernel_name)
        if inv.bindings:
            parts.extend(
                f"{v.name}={inv.bindings[v]}"
                for v in sorted(inv.bindings, key=lambda v: v.name)
            )
    return "\n".join(parts)


def _folded_build(network: str, board_name: str):
    """(graph, fused, program, plan, x, params) for one network x board."""
    key = (network, board_name)
    if key not in _builds:
        board = _BOARDS[board_name]
        if network in TWINS:
            graph = TWINS[network]()
            config = default_folded_config(network, board)
        else:
            graph = MODELS[network]()
            config = FoldedConfig()
        fused = fuse_operators(graph)
        prog, plan = build_folded(fused, config, board)
        params = init_params(graph, seed=0)
        x = np.random.default_rng(11).standard_normal(
            graph.input.out_shape
        ).astype(np.float32)
        _builds[key] = (graph, fused, prog, plan, x, params)
    return _builds[key]


def _scalar_folded(network: str, board_name: str) -> np.ndarray:
    """Scalar reference output, computed once per distinct program."""
    _, fused, prog, plan, x, params = _folded_build(network, board_name)
    fp = _program_fingerprint(prog, plan)
    if fp not in _scalar_cache:
        _scalar_cache[fp] = run_folded_functional(
            prog, plan, fused, x, params, interp="scalar"
        )
    return _scalar_cache[fp]


# ---------------------------------------------------------------------------
# the network x board soundness matrix


class TestSoundnessMatrix:
    """vectorized == scalar, bitwise, on every shipped network x board."""

    @pytest.mark.parametrize("board_name", sorted(_BOARDS))
    @pytest.mark.parametrize("network", ["lenet5", "mobilenet_v1", "resnet18"])
    def test_folded_bit_identical(self, network, board_name):
        _, fused, prog, plan, x, params = _folded_build(network, board_name)
        vec = run_folded_functional(prog, plan, fused, x, params,
                                    interp="vector")
        ref = _scalar_folded(network, board_name)
        assert vec.dtype == np.float32
        assert vec.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("board_name", sorted(_BOARDS))
    def test_lenet_pipelined_bit_identical(self, board_name):
        graph = MODELS["lenet5"]()
        fused = fuse_operators(graph)
        prog, plan = build_pipelined(fused, "tvm_autorun",
                                     _BOARDS[board_name])
        params = init_params(graph, seed=0)
        x = np.random.default_rng(11).standard_normal(
            (1, 28, 28)
        ).astype(np.float32)
        vec = run_pipelined_functional(prog, plan, fused, x, params,
                                       interp="vector")
        fp = _program_fingerprint(prog, plan)
        if fp not in _scalar_cache:
            _scalar_cache[fp] = run_pipelined_functional(
                prog, plan, fused, x, params, interp="scalar"
            )
        assert vec.tobytes() == _scalar_cache[fp].tobytes()

    @pytest.mark.parametrize("network", sorted(TWINS))
    @pytest.mark.parametrize("board_name", sorted(_BOARDS))
    def test_twin_covers_full_network_kernels(self, network, board_name):
        """Twin builds instantiate every parameterized kernel group (same
        group keys => same kernel names) of the full network."""
        board = _BOARDS[board_name]
        config = default_folded_config(network, board)
        full = fuse_operators(MODELS[network]())
        _, full_plan = build_folded(full, config, board)
        _, _, _, twin_plan, _, _ = _folded_build(network, board_name)

        def param_names(plan):
            return {i.kernel_name for i in plan.invocations
                    if i.bindings is not None}

        assert param_names(full_plan) <= param_names(twin_plan)

    @pytest.mark.parametrize("network", sorted(TWINS))
    def test_twin_matches_numpy_reference(self, network):
        graph, fused, prog, plan, x, params = _folded_build(
            network, "S10SX"
        )
        vec = run_folded_functional(prog, plan, fused, x, params,
                                    interp="vector")
        ref = run_fused_graph(fused, x, params)
        assert np.allclose(vec, ref, atol=1e-4)


class TestFallbackCoverage:
    """Every shipped kernel either vectorizes or falls back cleanly.

    'Cleanly' means: the fallback happens for a documented planning
    reason, the loop still executes (bit-identity is pinned by the
    soundness matrix above), and at least part of every kernel's loop
    nest vectorizes — nothing silently degenerates to all-scalar.
    """

    #: the only fallback the shipped kernels should ever trigger: the
    #: symbolic conv/dw register-cache allocation re-zeroed per output
    #: iteration (its band nests the allocation inside reduction axes)
    _EXPECTED_REASONS = {"allocation re-created inside reduction axes"}

    @pytest.mark.parametrize("network", ["lenet5", "mobilenet_v1", "resnet18"])
    def test_folded_kernels_vectorize_or_fall_back(self, network):
        _, fused, prog, plan, x, params = _folded_build(network, "S10SX")
        events = []
        run_folded_functional(prog, plan, fused, x, params,
                              interp="vector", events=events)
        assert events, "no bands were attempted"
        reasons = {ev.detail for _, ev in events if ev.kind == "fallback"}
        assert reasons <= self._EXPECTED_REASONS, reasons
        # every kernel that has loops vectorized at least one band
        vectorized = {k for k, ev in events if ev.kind == "vectorized"}
        attempted = {k for k, _ in events}
        assert vectorized == attempted

    def test_lenet_pipelined_fully_vectorizes(self):
        graph = MODELS["lenet5"]()
        fused = fuse_operators(graph)
        prog, plan = build_pipelined(fused, "tvm_autorun", STRATIX10_SX)
        params = init_params(graph, seed=0)
        x = np.random.default_rng(3).standard_normal(
            (1, 28, 28)
        ).astype(np.float32)
        events = []
        run_pipelined_functional(prog, plan, fused, x, params,
                                 interp="vector", events=events)
        assert events
        assert all(ev.kind == "vectorized" for _, ev in events)


# ---------------------------------------------------------------------------
# property tests: random schedules, bitwise equality on all buffers


def _divisors(n, cap=8):
    return [d for d in range(1, min(n, cap) + 1) if n % d == 0]


def _run_both(kern, bufs):
    """Run scalar and vectorized on copies; all buffers must match bitwise."""
    scalar = {k: v.copy() for k, v in bufs.items()}
    vector = {k: v.copy() for k, v in bufs.items()}
    ir.run_kernel(kern, scalar)
    run_kernel_vectorized(kern, vector)
    for name in scalar:
        assert scalar[name].tobytes() == vector[name].tobytes(), name


class TestVectorizedEqualsScalarProperty:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_conv_tilings(self, data):
        c1 = data.draw(st.sampled_from([1, 2, 3, 4]), label="c1")
        k = data.draw(st.sampled_from([1, 2, 4]), label="k")
        f = data.draw(st.sampled_from([1, 3]), label="f")
        s = data.draw(st.sampled_from([1, 2]), label="s")
        h = data.draw(st.sampled_from([7, 8, 9, 11]), label="h")
        if h < f:
            return
        act = data.draw(st.sampled_from([None, "relu", "relu6"]), label="act")
        spec = ConvSpec(c1=c1, h=h, w=h, k=k, f=f, s=s, bias=True,
                        activation=act)
        w2 = data.draw(st.sampled_from(_divisors(spec.wo)), label="w2vec")
        cv = data.draw(st.sampled_from(_divisors(c1)), label="c1vec")
        tiling = ConvTiling(w2vec=w2, c1vec=cv)

        _, out = conv2d_tensors(spec, "c")
        kern = lower(schedule_conv2d_opt(out, tiling), "k")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        bufs = {
            "c_in": rng.standard_normal(c1 * h * h).astype(np.float32),
            "c_w": rng.standard_normal(k * c1 * f * f).astype(np.float32),
            "c_b": rng.standard_normal(k).astype(np.float32),
            "c": np.zeros(k * spec.ho * spec.wo, np.float32),
        }
        _run_both(kern, bufs)

    @given(
        n=st.sampled_from([4, 8, 12, 24]),
        m=st.integers(1, 6),
        factor=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_dense_unrolls(self, n, m, factor, seed):
        if n % factor:
            return
        _, out = dense_tensors(DenseSpec(n=n, m=m, bias=True), "d")
        kern = lower(schedule_dense_opt(out, factor), "k")
        rng = np.random.default_rng(seed)
        bufs = {
            "d_in": rng.standard_normal(n).astype(np.float32),
            "d_w": rng.standard_normal(m * n).astype(np.float32),
            "d_b": rng.standard_normal(m).astype(np.float32),
            "d": np.zeros(m, np.float32),
        }
        _run_both(kern, bufs)


# ---------------------------------------------------------------------------
# fallback semantics on synthetic kernels the vectorizer must refuse


def _events_of(kern, bufs):
    vector = {k: v.copy() for k, v in bufs.items()}
    vi = run_kernel_vectorized(kern, vector)
    return vi.events, vector


class TestFallbackSemantics:
    def _loop(self, n, body_fn, name="i"):
        i = ir.Var(name)
        return i, ir.For(i, ir.IntImm(n), body_fn(i))

    def test_overlapping_stores_fall_back_to_scalar_order(self):
        # A[i // 2] = i: last write per address must win, like scalar
        buf = ir.Buffer("A", (4,))
        i = ir.Var("i")
        body = ir.Store(
            buf, ir.FloorDiv(i, ir.IntImm(2)),
            ir.Cast(ir.FLOAT32, i),
        )
        kern = ir.Kernel("k", [buf], ir.For(i, ir.IntImm(8), body))
        bufs = {"A": np.zeros(4, np.float32)}
        events, vector = _events_of(kern, bufs)
        assert any(e.kind == "fallback" and "overlapping" in e.detail
                   for e in events)
        scalar = {"A": np.zeros(4, np.float32)}
        ir.run_kernel(kern, scalar)
        assert vector["A"].tobytes() == scalar["A"].tobytes()
        assert vector["A"].tolist() == [1.0, 3.0, 5.0, 7.0]

    def test_prefix_sum_self_read_falls_back(self):
        # A[i] = A[i-1] + A[i] is a loop-carried scan, not a reduction
        buf = ir.Buffer("A", (8,))
        i = ir.Var("i")
        prev = ir.Load(buf, ir.Max(i - ir.IntImm(1), ir.IntImm(0)))
        body = ir.Store(buf, i, ir.Add(prev, ir.Load(buf, i)))
        kern = ir.Kernel("k", [buf], ir.For(i, ir.IntImm(8), body))
        data = np.arange(1, 9, dtype=np.float32)
        events, vector = _events_of(kern, {"A": data.copy()})
        assert any(e.kind == "fallback" for e in events)
        scalar = {"A": data.copy()}
        ir.run_kernel(kern, scalar)
        assert vector["A"].tobytes() == scalar["A"].tobytes()

    def test_indirect_index_falls_back(self):
        # A[B[i]] = i: data-dependent addressing cannot be planned
        a = ir.Buffer("A", (8,))
        b = ir.Buffer("B", (8,))
        i = ir.Var("i")
        idx = ir.Cast(ir.INT32, ir.Load(b, i))
        body = ir.Store(a, idx, ir.Cast(ir.FLOAT32, i))
        kern = ir.Kernel("k", [a, b], ir.For(i, ir.IntImm(8), body))
        perm = np.array([3, 1, 4, 0, 6, 2, 7, 5], np.float32)
        bufs = {"A": np.zeros(8, np.float32), "B": perm}
        events, vector = _events_of(kern, bufs)
        assert any(e.kind == "fallback" and "reads memory" in e.detail
                   for e in events)
        scalar = {"A": np.zeros(8, np.float32), "B": perm}
        ir.run_kernel(kern, scalar)
        assert vector["A"].tobytes() == scalar["A"].tobytes()

    def test_if_then_else_falls_back(self):
        buf = ir.Buffer("A", (8,))
        i = ir.Var("i")
        body = ir.IfThenElse(
            ir.LT(i, ir.IntImm(4)),
            ir.Store(buf, i, ir.FloatImm(1.0)),
            ir.Store(buf, i, ir.FloatImm(2.0)),
        )
        kern = ir.Kernel("k", [buf], ir.For(i, ir.IntImm(8), body))
        events, vector = _events_of(kern, {"A": np.zeros(8, np.float32)})
        assert any("IfThenElse" in e.detail for e in events
                   if e.kind == "fallback")
        assert vector["A"].tolist() == [1.0] * 4 + [2.0] * 4

    def test_intrinsics_match_scalar_bitwise(self):
        # scalar intrinsics route through np.float32 ufuncs, so a band of
        # math calls must agree to the last bit
        buf_in = ir.Buffer("X", (64,))
        buf_out = ir.Buffer("Y", (64,))
        i = ir.Var("i")
        x = ir.Load(buf_in, i)
        val = ir.Call("exp", [ir.Call("tanh", [x])])
        kern = ir.Kernel(
            "k", [buf_in, buf_out],
            ir.For(i, ir.IntImm(64), ir.Store(buf_out, i, val)),
        )
        rng = np.random.default_rng(5)
        data = rng.standard_normal(64).astype(np.float32)
        scalar = {"X": data.copy(), "Y": np.zeros(64, np.float32)}
        vector = {"X": data.copy(), "Y": np.zeros(64, np.float32)}
        ir.run_kernel(kern, scalar)
        vi = run_kernel_vectorized(kern, vector)
        assert all(e.kind == "vectorized" for e in vi.events)
        assert scalar["Y"].tobytes() == vector["Y"].tobytes()


class TestInterpreterSelection:
    def test_env_opt_out_forces_scalar(self, monkeypatch):
        from repro.runtime.executor import _interpreter_class

        monkeypatch.setenv("REPRO_INTERP", "scalar")
        assert _interpreter_class("auto") is ir.Interpreter
        monkeypatch.delenv("REPRO_INTERP")
        assert _interpreter_class("auto") is VectorizedInterpreter

    def test_explicit_choices(self):
        from repro.errors import RuntimeSimError
        from repro.runtime.executor import _interpreter_class

        assert _interpreter_class("vector") is VectorizedInterpreter
        assert _interpreter_class("scalar") is ir.Interpreter
        with pytest.raises(RuntimeSimError):
            _interpreter_class("simd")


# ---------------------------------------------------------------------------
# the batch axis: a (B, n) run equals B stacked single-image runs, bitwise


def _batched_vs_stacked(kern, rows, shared=None):
    """Run ``kern`` once per image and once on the stacked batch.

    ``rows`` holds one buffer dict per image; ``shared`` buffers (weights)
    are 1-D and common to every row.  Every buffer the per-image runs end
    with — scratch and allocations included — must equal the batched
    run's rows byte for byte.  Returns the batched interpreter.
    """
    shared = shared or {}
    singles = []
    for bufs in rows:
        one = {k: v.copy() for k, v in bufs.items()}
        one.update({k: v.copy() for k, v in shared.items()})
        run_kernel_vectorized(kern, one)
        singles.append(one)
    batch = {k: np.stack([b[k] for b in rows]) for k in rows[0]}
    batch.update({k: v.copy() for k, v in shared.items()})
    vi = run_kernel_vectorized(kern, batch)
    assert vi.rows == len(rows)
    for name in singles[0]:
        if name in shared:
            continue
        stacked = np.stack([np.asarray(s[name]).reshape(-1) for s in singles])
        assert batch[name].tobytes() == stacked.tobytes(), name
    return vi


class TestBatchAxis:
    @given(b=st.integers(1, 8), seed=st.integers(0, 2**16),
           licm=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_softmax_exp_intrinsic(self, b, seed, licm):
        from repro.topi import softmax_kernel_licm, softmax_kernel_naive

        build = softmax_kernel_licm if licm else softmax_kernel_naive
        kern = build(10, "s", "k")
        rng = np.random.default_rng(seed)
        rows = [{"s_in": rng.standard_normal(10).astype(np.float32) * 4,
                 "s_norm": np.zeros(10, np.float32)} for _ in range(b)]
        _batched_vs_stacked(kern, rows)

    @given(b=st.integers(1, 8), seed=st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_conv_rows_share_weights(self, b, seed):
        spec = ConvSpec(c1=3, h=9, w=9, k=4, f=3, s=1, bias=True,
                        activation="relu")
        _, out = conv2d_tensors(spec, "c")
        kern = lower(schedule_conv2d_opt(out, ConvTiling(w2vec=7, c1vec=3)),
                     "k")
        rng = np.random.default_rng(seed)
        shared = {
            "c_w": rng.standard_normal(4 * 3 * 9).astype(np.float32),
            "c_b": rng.standard_normal(4).astype(np.float32),
        }
        rows = [{"c_in": rng.standard_normal(3 * 81).astype(np.float32),
                 "c": np.zeros(4 * spec.ho * spec.wo, np.float32)}
                for _ in range(b)]
        _batched_vs_stacked(kern, rows, shared)

    @given(b=st.integers(1, 8), seed=st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_scalar_fallback_runs_per_row(self, b, seed):
        # Y[i] = X[i] > 0 ? 1 : 2 as an IfThenElse: data-dependent control
        # flow falls back, and each row takes its own branches
        x_buf, y_buf = ir.Buffer("X", (16,)), ir.Buffer("Y", (16,))
        i = ir.Var("i")
        body = ir.IfThenElse(
            ir.GT(ir.Load(x_buf, i), ir.FloatImm(0.0)),
            ir.Store(y_buf, i, ir.FloatImm(1.0)),
            ir.Store(y_buf, i, ir.Load(x_buf, i) * ir.FloatImm(2.0)),
        )
        kern = ir.Kernel("k", [x_buf, y_buf], ir.For(i, ir.IntImm(16), body))
        rng = np.random.default_rng(seed)
        rows = [{"X": rng.standard_normal(16).astype(np.float32),
                 "Y": np.zeros(16, np.float32)} for _ in range(b)]
        vi = _batched_vs_stacked(kern, rows)
        assert [e.kind for e in vi.events] == ["fallback"]

    @given(b=st.integers(1, 8), seed=st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_channel_fifos_are_per_row(self, b, seed):
        ch = ir.Channel("c0")
        a, out = ir.Buffer("a", (12,)), ir.Buffer("o", (12,))
        i = ir.Var("i")
        prod = ir.Kernel("p", [a], ir.For(
            i, ir.IntImm(12), ir.ChannelWrite(ch, ir.Load(a, i) * 3.0)))
        j = ir.Var("j")
        cons = ir.Kernel("c", [out], ir.For(
            j, ir.IntImm(12), ir.Store(out, j, ch.read() + 1.0)))
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((b, 12)).astype(np.float32)
        channels = {}
        batch = {"a": data.copy(), "o": np.zeros((b, 12), np.float32)}
        run_kernel_vectorized(prod, batch, channels=channels)
        assert len(channels["c0"]) == 12 and channels["c0"].rows == b
        run_kernel_vectorized(cons, batch, channels=channels)
        for r in range(b):
            one = {"a": data[r].copy(), "o": np.zeros(12, np.float32)}
            ir.run_program_sequential([prod, cons], one)
            assert batch["o"][r].tobytes() == one["o"].tobytes()

    def test_large_band_runs_in_row_chunks(self, monkeypatch):
        import repro.ir.vinterp as vinterp

        monkeypatch.setattr(vinterp, "ROW_CHUNK_ELEMENTS", 20)
        rng = np.random.default_rng(1)
        kern = lower(schedule_dense_opt(
            dense_tensors(DenseSpec(n=8, m=3, bias=True), "d")[1], 2), "k")
        shared = {"d_w": rng.standard_normal(24).astype(np.float32),
                  "d_b": rng.standard_normal(3).astype(np.float32)}
        rows = [{"d_in": rng.standard_normal(8).astype(np.float32),
                 "d": np.zeros(3, np.float32)} for _ in range(5)]
        _batched_vs_stacked(kern, rows, shared)

    def test_store_to_shared_buffer_is_refused(self):
        buf, src = ir.Buffer("A", (4,)), ir.Buffer("S", (4,))
        i = ir.Var("i")
        kern = ir.Kernel("k", [buf, src], ir.For(
            i, ir.IntImm(4), ir.Store(buf, i, ir.Load(src, i))))
        from repro.errors import RuntimeSimError

        with pytest.raises(RuntimeSimError, match="shares"):
            run_kernel_vectorized(kern, {"A": np.zeros(4, np.float32),
                                         "S": np.ones((2, 4), np.float32)})
