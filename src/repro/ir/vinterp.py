"""A vectorized interpreter for lowered kernel IR.

Executes whole loop bands as NumPy array operations instead of walking
them element-by-element like :class:`~repro.ir.interp.Interpreter`.  The
contract is strict: for every construct it vectorizes, the result is
**bit-identical in float32** to the scalar interpreter; any construct it
cannot prove safe falls back to the scalar loop at that nesting level
(inner loops are re-tried).  The fallback decision is made before any
state is mutated, so a band either executes fully vectorized or not at
all — there is never a half-vectorized rollback.

How a band executes
-------------------
A *band* is one ``For`` subtree.  Every loop variable in it becomes a
broadcast ``np.arange`` axis; each leaf statement (``Store``,
``ChannelWrite``, ``Evaluate``) is evaluated once over the cartesian
product of its enclosing loop extents.  Executing the leaves one after
the other (instead of interleaved per iteration) is loop distribution,
which is only sound under the dependence rules checked in phase A:

* a buffer written by one leaf and touched by another must be allocated
  *inside* the band (it is then privatized per iteration lane, so leaves
  only communicate lane-locally, in program order);
* a store that reads its own buffer must match the reduction pattern the
  lowerer emits (``buf[i] = combine(buf[i], update)``) — it is folded
  with ``np.add.accumulate`` (or ``maximum``/``minimum``), which applies
  the combiner in exactly the scalar iteration order, keeping float32
  results bit-identical (``np.sum``'s pairwise reduction would not be);
* all other stores must hit pairwise-distinct addresses (checked with
  ``np.unique``);
* each channel is popped by at most one leaf and pushed by at most one
  leaf, never both in one band, and the FIFO must already hold the whole
  chunk a consumer needs.

Phase A (planning) evaluates every index expression — these are pure
functions of loop variables and scalar bindings — checks bounds, zero
divisors, address uniqueness and channel budgets, and raises
:class:`_Fallback` on any violation.  Phase B (execution) then performs
the gathers, arithmetic, scatters and channel chunk transfers; by
construction it cannot fail after phase A passed.

Every band attempt is recorded in :attr:`VectorizedInterpreter.events`
(kind ``"vectorized"`` or ``"fallback"`` plus a reason), so tests can
prove that each shipped kernel either vectorizes or falls back cleanly.

The batch axis
--------------
One interpreter runs ``rows`` independent images at once.  A per-image
buffer is a row-major ``(rows, n)`` array; a 1-D buffer (weights, bias)
is shared by every row and read-only when ``rows > 1``.  Phase A runs
once per band for all rows: its index arrays depend only on loop
variables and scalar bindings, which every row shares.  Phase B gathers
``arr[:, idx]``, scatters ``arr[:, flat_idx]`` and folds reductions per
``(row, lane)`` in the same left-to-right order, so each row is
bit-identical to running that image alone.  Phase B walks the rows in
chunks of at most :data:`ROW_CHUNK_ELEMENTS` band elements, which keeps
transient memory at one large band's worth however big the batch is.
A band that falls back runs the scalar loop once per row, on row views
(channels keep one FIFO per row, see
:class:`~repro.ir.interp.ChannelState`).  A single image is simply
``rows == 1``; 1-D buffers then double as that row's storage.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import RuntimeSimError
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.buffer import Buffer
from repro.ir.interp import _INTRINSICS, ChannelState, Interpreter, _F32
from repro.ir.kernel import Kernel

__all__ = ["VectorizedInterpreter", "BandEvent", "run_kernel_vectorized"]

#: Largest per-leaf iteration-space size executed as one array op.  Bigger
#: bands would materialize multi-GB index arrays; the loop above the limit
#: runs as a Python loop and the loops below it vectorize instead.
BAND_SIZE_LIMIT = 1 << 22

#: Phase-B element budget per row chunk: a band of ``w`` elements per
#: image executes ``max(1, ROW_CHUNK_ELEMENTS // w)`` rows per array op.
#: Sized just above LeNet-5 conv2's 104,544-element reduce band, so the
#: largest serving band still runs one image at a time and batching adds
#: no transient memory over a single-image run.
ROW_CHUNK_ELEMENTS = 1 << 17


class _Fallback(Exception):
    """Raised during planning when a band cannot be vectorized soundly."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


class BandEvent(NamedTuple):
    """One vectorization attempt: a band executed or fell back."""

    kind: str  # 'vectorized' | 'fallback'
    loop_var: str
    detail: str


class _Axis(NamedTuple):
    var: _e.Var
    extent: int
    pos: int  # depth in the leaf's loop path == broadcast axis position


class _Private(NamedTuple):
    """A buffer allocated inside the band, expanded to one copy per lane
    (phase B allocates the storage, per row chunk)."""

    buffer: Buffer
    numel: int
    prefix: Tuple[_Axis, ...]  # loop path at the allocation point
    lane_count: int


def _to_f32(x):
    """Coerce any evaluation result to float32 without double rounding."""
    if isinstance(x, np.ndarray):
        return x if x.dtype == _F32 else x.astype(_F32)
    return _F32(x)


def _is_pure(e: _e.Expr) -> bool:
    """True when ``e`` reads no buffer and no channel."""
    if isinstance(e, (_e.Load, _e.ChannelRead)):
        return False
    return all(_is_pure(c) for c in e.children())


class _Leaf:
    """One vectorizable leaf statement plus its planning results."""

    __slots__ = (
        "stmt", "path", "shape", "numel", "kind", "flat_idx", "lanes",
        "perm", "perm_rows", "red_k", "red_op", "update", "target", "access",
        "env", "reads_channels",
    )

    def __init__(self, stmt: _s.Stmt, path: Tuple[_Axis, ...]) -> None:
        self.stmt = stmt
        self.path = path
        self.shape = tuple(ax.extent for ax in path)
        self.numel = math.prod(self.shape)
        self.kind = ""
        self.flat_idx: Optional[np.ndarray] = None
        self.lanes: Optional[np.ndarray] = None
        self.perm: Tuple[int, ...] = ()
        self.perm_rows: Tuple[int, ...] = ()
        self.red_k = 0
        self.red_op: Optional[type] = None
        self.update: Optional[_e.Expr] = None
        self.target: Optional[str] = None
        #: id(Load/Store node) -> its effective index array, precomputed in
        #: phase A (includes the lane base for privatized buffers)
        self.access: Dict[int, object] = {}
        self.env: Dict[_e.Var, np.ndarray] = {}
        for ax in path:
            rshape = [1] * len(path)
            rshape[ax.pos] = ax.extent
            self.env[ax.var] = np.arange(
                ax.extent, dtype=np.int64
            ).reshape(rshape)
        self.reads_channels: List[str] = []


class _BandPlan:
    """Phase A product: validated leaves, private buffers, channel budget."""

    def __init__(self, interp: "VectorizedInterpreter", root: _s.For) -> None:
        self.it = interp
        self.root = root
        self.leaves: List[_Leaf] = []
        self.privates: Dict[str, _Private] = {}
        #: largest per-image element count of any leaf or private buffer
        self.width = 1
        # phase B's current row chunk, its private storage, and the last
        # lane of every private buffer per chunk
        self._rows = (0, 0)
        self._data: Dict[str, np.ndarray] = {}
        self._last: Dict[str, List[np.ndarray]] = {}
        self._collect(root, ())
        self._check_cross_leaf()

    # -- collection -----------------------------------------------------
    def _collect(self, s: _s.Stmt, path: Tuple[_Axis, ...]) -> None:
        if isinstance(s, _s.For):
            extent = self._band_invariant_int(s.extent, "loop extent")
            ax = _Axis(s.loop_var, extent, len(path))
            if any(p.var is s.loop_var for p in path):
                raise _Fallback(f"loop variable {s.loop_var.name} shadowed")
            self._collect(s.body, path + (ax,))
        elif isinstance(s, _s.SeqStmt):
            for child in s.stmts:
                self._collect(child, path)
        elif isinstance(s, _s.AttrStmt):
            self._collect(s.body, path)
        elif isinstance(s, _s.Allocate):
            name = s.buffer.name
            if name in self.privates:
                raise _Fallback(f"buffer {name} allocated twice in band")
            numel = 1
            for d in s.buffer.shape:
                d = d if isinstance(d, _e.Expr) else _e.IntImm(int(d))
                numel *= self._band_invariant_int(d, "allocation shape")
            lane_count = math.prod(ax.extent for ax in path)
            if lane_count * numel > BAND_SIZE_LIMIT:
                raise _Fallback("privatized allocation exceeds size limit")
            self.privates[name] = _Private(s.buffer, numel, path, lane_count)
            self.width = max(self.width, lane_count * numel)
            self._collect(s.body, path)
        elif isinstance(s, (_s.Store, _s.ChannelWrite, _s.Evaluate)):
            self._add_leaf(s, path)
        elif isinstance(s, _s.IfThenElse):
            raise _Fallback("data-dependent control flow (IfThenElse)")
        else:
            raise _Fallback(f"unsupported statement {type(s).__name__}")

    def _band_invariant_int(self, e: _e.Expr, what: str) -> int:
        if isinstance(e, _e.IntImm):
            return e.value
        if not _is_pure(e):
            raise _Fallback(f"{what} reads memory")
        try:
            return int(self.it._eval(e))
        except RuntimeSimError:
            raise _Fallback(f"{what} depends on a band loop variable") from None

    def _add_leaf(self, s: _s.Stmt, path: Tuple[_Axis, ...]) -> None:
        leaf = _Leaf(s, path)
        if leaf.numel > BAND_SIZE_LIMIT:
            raise _Fallback("band exceeds vector size limit")
        self.width = max(self.width, leaf.numel)
        checker = _LeafChecker(self, leaf)
        if isinstance(s, _s.Store):
            checker.classify_store()
        else:
            checker.walk(s.value, in_select=False)
            leaf.kind = "chanwrite" if isinstance(s, _s.ChannelWrite) else "eval"
        leaf.reads_channels = sorted(checker.channel_reads)
        self.leaves.append(leaf)

    # -- cross-leaf dependence + channel rules --------------------------
    def _check_cross_leaf(self) -> None:
        writers: Dict[str, List[int]] = {}
        readers: Dict[str, List[int]] = {}
        chan_readers: Dict[str, List[int]] = {}
        chan_writers: Dict[str, List[int]] = {}
        for i, leaf in enumerate(self.leaves):
            if isinstance(leaf.stmt, _s.Store):
                writers.setdefault(leaf.stmt.buffer.name, []).append(i)
            for name in _loaded_buffers(leaf.stmt):
                readers.setdefault(name, []).append(i)
            for name in leaf.reads_channels:
                chan_readers.setdefault(name, []).append(i)
            if isinstance(leaf.stmt, _s.ChannelWrite):
                chan_writers.setdefault(leaf.stmt.channel.name, []).append(i)
        for name, w in writers.items():
            if name in self.privates:
                continue  # lane-private: program order per lane is preserved
            if len(w) > 1:
                raise _Fallback(f"buffer {name} written by multiple statements")
            others = [i for i in readers.get(name, ()) if i != w[0]]
            if others:
                raise _Fallback(
                    f"buffer {name} written by one statement and read by "
                    "another"
                )
        for name, r in chan_readers.items():
            if len(r) > 1:
                raise _Fallback(f"channel {name} read by multiple statements")
            if name in chan_writers:
                raise _Fallback(f"channel {name} both read and written in band")
            state = self.it.channels.get(name)
            needed = self.leaves[r[0]].numel
            if state is None or len(state) < needed:
                raise _Fallback(
                    f"channel {name} holds fewer than {needed} values"
                )
        for name, w in chan_writers.items():
            if len(w) > 1:
                raise _Fallback(f"channel {name} written by multiple statements")

    # -- phase B --------------------------------------------------------
    def execute(self) -> None:
        """Run every leaf, one row chunk at a time."""
        rows = self.it.rows
        step = max(1, ROW_CHUNK_ELEMENTS // self.width)
        for r0 in range(0, rows, step):
            n = min(rows - r0, step)
            lead = (n,) if n > 1 else ()
            self._rows = (r0, r0 + n)
            if self.privates:
                self._data = {
                    name: np.zeros(lead + (pb.lane_count * pb.numel,), _F32)
                    for name, pb in self.privates.items()
                }
            for leaf in self.leaves:
                self._run_leaf(leaf, lead)
            for name, pb in self.privates.items():
                if pb.lane_count > 0:
                    start = (pb.lane_count - 1) * pb.numel
                    self._last.setdefault(name, []).append(
                        self._data[name][..., start : start + pb.numel].copy()
                    )
        # Scalar semantics leave the last iteration's allocation visible in
        # the buffer map after the band; reproduce that so post-run buffer
        # inspection (and the soundness tests) see identical state.
        for name, parts in self._last.items():
            self.it.buffers[name] = parts[0] if len(parts) == 1 else (
                np.concatenate([np.atleast_2d(p) for p in parts])
            )

    def _run_leaf(self, leaf: _Leaf, lead: Tuple[int, ...]) -> None:
        """One leaf over the current row chunk.

        ``lead`` is ``(n,)`` for an ``n``-row chunk and ``()`` for one
        row: values carry a leading row axis only in multi-row chunks, so
        a one-row chunk computes exactly what a single image does.
        """
        ev = _VecEval(self, leaf)
        s = leaf.stmt
        shape = lead + leaf.shape
        if leaf.kind == "parallel":
            arr = self._storage(s.buffer)
            val = ev.eval(s.value)
            if arr.dtype == _F32:
                val = _to_f32(val)
            _scatter(arr, leaf.flat_idx,
                     np.broadcast_to(val, shape).reshape(lead + (-1,)))
        elif leaf.kind == "reduce":
            arr = self._storage(s.buffer)
            val = ev.eval(leaf.update)
            if arr.dtype == _F32:
                val = _to_f32(val)
            lanes = leaf.lanes
            chains = math.prod(lead) * lanes.size  # one per (row, lane)
            vals = (
                np.broadcast_to(val, shape)
                .transpose(leaf.perm_rows if lead else leaf.perm)
                .reshape(chains, leaf.red_k)
            )
            init = _gather(arr, lanes, 1).reshape(chains, 1)
            chain = np.concatenate([init, vals], axis=1)
            if leaf.red_op is _e.Add:
                folded = np.add.accumulate(chain, axis=1, dtype=arr.dtype)
            elif leaf.red_op is _e.Max:
                folded = np.maximum.accumulate(chain, axis=1)
            else:
                folded = np.minimum.accumulate(chain, axis=1)
            _scatter(arr, lanes, folded[:, -1].reshape(lead + lanes.shape))
        elif leaf.kind == "chanwrite":
            state = self.it._channel(s.channel)
            val = _to_f32(ev.eval(s.value))
            vals = np.broadcast_to(val, shape).reshape(lead + (-1,))
            state.write_chunk(vals, self._rows[0])
        else:  # 'eval': run for channel-pop side effects only
            ev.eval(s.value)

    def _storage(self, buffer: Buffer) -> np.ndarray:
        """A buffer's storage for the current row chunk: ``(n, size)``,
        or 1-D — the row itself when the chunk is one row, or a buffer
        every row shares (phase A admits stores to the latter only in
        single-row runs)."""
        data = self._data.get(buffer.name)
        if data is not None:
            return data
        arr = self.it.buffers.get(buffer.name)
        if arr is None:  # phase A verified existence; defensive only
            raise RuntimeSimError(f"buffer {buffer.name} has no storage")
        if arr.ndim == 1:
            return arr
        r0, r1 = self._rows
        return arr[r0] if r1 - r0 == 1 else arr[r0:r1]


def _gather(arr: np.ndarray, idx, rank: int) -> np.ndarray:
    """Elements ``idx`` of every row of a chunk's storage.

    ``idx`` is a scalar or an array of the leaf's full ``rank``.  A 1-D
    storage (one row, or shared by all rows) yields ``idx``'s shape,
    which broadcasts against row-carrying operands; a ``(n, size)`` chunk
    yields ``(n, *idx.shape)`` with the row axis leading.
    """
    if arr.ndim == 1:
        return arr[idx]
    out = arr[:, idx]
    return out if np.ndim(idx) == rank else out.reshape((-1,) + (1,) * rank)


def _scatter(arr: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """Store ``(n, k)`` values (``(k,)`` for 1-D storage) at ``idx`` of
    every row of a chunk."""
    if arr.ndim == 1:
        arr[idx] = vals
    else:
        arr[:, idx] = vals


def _loaded_buffers(s: _s.Stmt) -> List[str]:
    names: List[str] = []

    def visit(e: _e.Expr) -> None:
        if isinstance(e, _e.Load):
            names.append(e.buffer.name)
        for c in e.children():
            visit(c)

    if isinstance(s, _s.Store):
        visit(s.index)
        visit(s.value)
    else:
        visit(s.value)
    return names


class _LeafChecker:
    """Phase A validation + pure-index evaluation for one leaf."""

    def __init__(self, plan: _BandPlan, leaf: _Leaf) -> None:
        self.plan = plan
        self.leaf = leaf
        self.channel_reads: set = set()
        self.loads: List[_e.Load] = []

    # -- expression validation ------------------------------------------
    def walk(self, e: _e.Expr, in_select: bool) -> None:
        if isinstance(e, _e.Load):
            self.loads.append(e)
            self._check_access(e, e.index)
        elif isinstance(e, _e.ChannelRead):
            if in_select:
                raise _Fallback("channel read under a select")
            if e.channel.name in self.channel_reads:
                raise _Fallback(
                    f"channel {e.channel.name} read twice in one statement"
                )
            self.channel_reads.add(e.channel.name)
        elif isinstance(e, (_e.FloorDiv, _e.Mod)):
            if e.a.dtype != _e.INT32 or e.b.dtype != _e.INT32:
                raise _Fallback("non-integer floordiv/mod")
            if not _is_pure(e):
                raise _Fallback("integer division on loaded values")
            self.walk(e.a, in_select)
            self.walk(e.b, in_select)
            divisor = self._eval_pure(e.b)
            if np.any(np.asarray(divisor) == 0):
                raise _Fallback("integer division by zero")
        elif isinstance(e, _e.Select):
            self.walk(e.cond, True)
            self.walk(e.then_value, True)
            self.walk(e.else_value, True)
        elif isinstance(e, _e.Var):
            if e not in self.leaf.env and e not in self.plan.it.env:
                raise _Fallback(f"unbound variable {e.name}")
        elif isinstance(e, (_e.IntImm, _e.FloatImm)):
            pass
        elif isinstance(e, (_e._BinaryOp, _e.Not, _e.Cast, _e.Call)):
            for c in e.children():
                self.walk(c, in_select)
        else:
            raise _Fallback(f"cannot vectorize {type(e).__name__}")

    def _check_access(self, node: _e.Expr, index: _e.Expr) -> np.ndarray:
        """Validate one Load/Store address and cache its effective index."""
        if not _is_pure(index):
            raise _Fallback("index expression reads memory")
        self.walk(index, in_select=False)  # nested divisor / var checks
        idx = self._eval_pure(index)
        arr = np.asarray(idx)
        if arr.size and (arr.min() < 0):
            raise _Fallback("negative buffer index")
        buffer = node.buffer  # Load and Store both carry .buffer
        pb = self.plan.privates.get(buffer.name)
        if pb is not None:
            if arr.size and arr.max() >= pb.numel:
                raise _Fallback("index out of bounds")
            base = 0
            stride = pb.numel
            for ax in reversed(pb.prefix):
                base = base + self.leaf.env[ax.var] * stride
                stride *= ax.extent
            idx = base + idx
        else:
            store = self.plan.it.buffers.get(buffer.name)
            if store is None:
                raise _Fallback(f"buffer {buffer.name} has no storage")
            if arr.size and arr.max() >= store.shape[-1]:
                raise _Fallback("index out of bounds")
        self.leaf.access[id(node)] = idx
        return np.asarray(idx)

    def _eval_pure(self, e: _e.Expr):
        try:
            return _VecEval(self.plan, self.leaf).eval(e)
        except (RuntimeSimError, KeyError) as err:
            raise _Fallback(f"index evaluation failed: {err}") from None

    # -- store classification -------------------------------------------
    def classify_store(self) -> None:
        s = self.leaf.stmt
        assert isinstance(s, _s.Store)
        idx = self._check_access(s, s.index)
        self.walk(s.value, in_select=False)
        self.leaf.target = s.buffer.name
        shared = self.plan.it.buffers.get(s.buffer.name)
        if (s.buffer.name not in self.plan.privates and shared.ndim == 1
                and self.plan.it.rows > 1):
            raise RuntimeSimError(
                f"store to buffer {s.buffer.name}, which every row of a "
                f"{self.plan.it.rows}-row batch shares"
            )
        self_loads = [ld for ld in self.loads if ld.buffer.name == s.buffer.name]
        eff = self.leaf.access[id(s)]  # effective index (private base added)
        if not self_loads:
            flat = np.broadcast_to(
                np.asarray(eff), self.leaf.shape
            ).ravel().astype(np.int64, copy=False)
            if flat.size and np.unique(flat).size != flat.size:
                raise _Fallback("overlapping parallel stores")
            self.leaf.kind = "parallel"
            self.leaf.flat_idx = flat
            return
        v = s.value
        is_reduce = (
            isinstance(v, (_e.Add, _e.Max, _e.Min))
            and isinstance(v.a, _e.Load)
            and v.a.buffer.name == s.buffer.name
            and _e.structural_equal(v.a.index, s.index)
            and len(self_loads) == 1
        )
        if not is_reduce:
            raise _Fallback(
                "store reads its own buffer outside the reduction pattern"
            )
        ndim = len(self.leaf.shape)
        full = np.broadcast_to(np.asarray(eff), self.leaf.shape)
        bshape = np.shape(eff) if np.ndim(eff) == ndim else (1,) * ndim
        par = [j for j in range(ndim) if bshape[j] != 1]
        red = [j for j in range(ndim) if bshape[j] == 1]
        pb = self.plan.privates.get(s.buffer.name)
        if pb is not None and any(ax.pos in red for ax in pb.prefix):
            # the scalar path re-zeros the allocation on those iterations,
            # so they are not a running reduction
            raise _Fallback("allocation re-created inside reduction axes")
        sel = tuple(slice(None) if j in par else 0 for j in range(ndim))
        lanes = np.asarray(full[sel]).ravel().astype(np.int64, copy=False)
        if lanes.size and np.unique(lanes).size != lanes.size:
            raise _Fallback("reduction lanes collide")
        self.leaf.kind = "reduce"
        self.leaf.lanes = lanes
        # parallel lanes first, then the reduction axes (after the row
        # axis in multi-row chunks)
        self.leaf.perm = tuple(par + red)
        self.leaf.perm_rows = (0,) + tuple(j + 1 for j in par + red)
        self.leaf.red_k = math.prod(self.leaf.shape[j] for j in red) if red else 1
        self.leaf.red_op = type(v)
        self.leaf.update = v.b


class _VecEval:
    """Evaluates an expression over a leaf's broadcast loop axes.

    Pure sub-results cached during phase A (access indices in particular)
    are reused; loads, channel pops and arithmetic on loaded values run
    here, in phase B.
    """

    def __init__(self, plan: _BandPlan, leaf: _Leaf) -> None:
        self.plan = plan
        self.leaf = leaf

    def eval(self, e: _e.Expr):
        if isinstance(e, _e.IntImm):
            return e.value
        if isinstance(e, _e.FloatImm):
            return _F32(e.value)
        if isinstance(e, _e.Var):
            arr = self.leaf.env.get(e)
            if arr is not None:
                return arr
            try:
                return self.plan.it.env[e]
            except KeyError:
                raise RuntimeSimError(f"unbound variable {e.name}") from None
        if isinstance(e, _e.Load):
            # phase A cached the effective index for every Load it admitted
            # (private lane bases included); evaluating e.index here would
            # miss the base, so a cache miss is a planning bug, not a path.
            idx = self.leaf.access[id(e)]
            arr = self.plan._storage(e.buffer)
            return _gather(arr, idx, len(self.leaf.shape))
        if isinstance(e, _e.ChannelRead):
            r0, r1 = self.plan._rows
            state = self.plan.it._channel(e.channel)
            chunk = state.read_chunk(self.leaf.numel, r0, r1)
            lead = (r1 - r0,) if r1 - r0 > 1 else ()
            return chunk.reshape(lead + self.leaf.shape)
        if isinstance(e, _e._BinaryOp):
            return self._binop(e)
        if isinstance(e, _e.Not):
            return np.logical_not(self.eval(e.a))
        if isinstance(e, _e.Cast):
            v = self.eval(e.value)
            if e.dtype == _e.FLOAT32:
                return _to_f32(v)
            if isinstance(v, np.ndarray):
                return v.astype(np.int64)
            return int(v)
        if isinstance(e, _e.Select):
            cond = self.eval(e.cond)
            t = self.eval(e.then_value)
            f = self.eval(e.else_value)
            return np.where(cond, t, f)
        if isinstance(e, _e.Call):
            args = [_to_f32(self.eval(a)) for a in e.args]
            return _to_f32(_INTRINSICS[e.name](*args))
        raise RuntimeSimError(f"cannot evaluate {type(e).__name__}")

    def _binop(self, e: _e._BinaryOp):
        a = self.eval(e.a)
        b = self.eval(e.b)
        if e.dtype == _e.FLOAT32:
            a = _to_f32(a)
            b = _to_f32(b)
        cls = type(e)
        if cls is _e.Add:
            return a + b
        if cls is _e.Sub:
            return a - b
        if cls is _e.Mul:
            return a * b
        if cls is _e.Div:
            return a / b
        if cls is _e.FloorDiv:
            return a // b
        if cls is _e.Mod:
            return a % b
        if cls is _e.Min:
            return np.minimum(a, b)
        if cls is _e.Max:
            return np.maximum(a, b)
        if cls is _e.LT:
            return a < b
        if cls is _e.LE:
            return a <= b
        if cls is _e.GT:
            return a > b
        if cls is _e.GE:
            return a >= b
        if cls is _e.EQ:
            return np.equal(a, b)
        if cls is _e.NE:
            return np.not_equal(a, b)
        if cls is _e.And:
            return np.logical_and(a, b)
        if cls is _e.Or:
            return np.logical_or(a, b)
        raise RuntimeSimError(f"unhandled op {type(e).__name__}")


class VectorizedInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` that executes loop bands as array ops.

    Same constructor and :meth:`run` contract as the scalar interpreter;
    results are bit-identical in float32.  :attr:`rows` images run at
    once (see "The batch axis" above): the row count of the ``(rows, n)``
    buffers and channel states passed in, or 1 when every buffer is 1-D.
    Per-band outcomes are recorded in :attr:`events` — once for all rows,
    except inside a fallback loop, which runs once per row — so callers
    can audit what vectorized and why any loop fell back.
    """

    def __init__(
        self,
        buffers: Dict[str, np.ndarray],
        bindings: Optional[Dict[_e.Var, int]] = None,
        channels: Optional[Dict[str, ChannelState]] = None,
    ) -> None:
        super().__init__(buffers, bindings, channels)
        self.rows = _rows_of(self.buffers, self.channels)
        self.events: List[BandEvent] = []
        #: the batched interpreter this single-row view belongs to
        self._parent: Optional[VectorizedInterpreter] = None
        self._row = 0

    def _alloc(self, n: int) -> np.ndarray:
        return np.zeros((self.rows, n), dtype=_F32)

    def _channel(self, ch) -> ChannelState:
        st = self.channels.get(ch.name)
        if st is None:
            if self._parent is not None:
                st = self._parent._channel(ch).row(self._row)
            else:
                st = ChannelState(ch, self.rows)
            self.channels[ch.name] = st
        return st

    def _exec(self, s: _s.Stmt) -> None:
        if isinstance(s, _s.For):
            try:
                self._exec_band(s)
                return
            except _Fallback as fb:
                self.events.append(
                    BandEvent("fallback", s.loop_var.name, fb.reason)
                )
            # scalar loop at this level; inner loops re-try vectorization
            self._per_row(VectorizedInterpreter._scalar_loop, s)
        elif self.rows > 1 and not isinstance(
            s, (_s.SeqStmt, _s.AttrStmt, _s.Allocate)
        ):
            self._per_row(Interpreter._exec, s)
        else:
            super()._exec(s)

    def _scalar_loop(self, s: _s.For) -> None:
        extent = int(self._eval(s.extent))
        var = s.loop_var
        for i in range(extent):
            self.env[var] = i
            self._exec(s.body)
        self.env.pop(var, None)

    def _per_row(self, fn, s: _s.Stmt) -> None:
        """Run ``fn(interp, s)`` once per row, on single-row views.

        Buffers a row allocates stay in that row's view: they are scoped
        to ``s`` and nothing after it reads them.
        """
        if self.rows == 1:
            fn(self, s)
            return
        for b in range(self.rows):
            fn(self._row_view(b), s)

    def _row_view(self, b: int) -> "VectorizedInterpreter":
        view = VectorizedInterpreter(
            {k: a[b : b + 1] if a.ndim == 2 else a
             for k, a in self.buffers.items()},
            self.env,
            {k: st.row(b) for k, st in self.channels.items()},
        )
        view.events = self.events
        view._parent, view._row = self, b
        return view

    def _exec_band(self, root: _s.For) -> None:
        plan = _BandPlan(self, root)  # phase A: may raise _Fallback
        plan.execute()  # phase B: cannot fail after phase A passed
        self.events.append(
            BandEvent(
                "vectorized", root.loop_var.name,
                f"{len(plan.leaves)} statement(s)",
            )
        )


def _rows_of(buffers: Dict[str, np.ndarray], channels) -> int:
    """The batch size implied by ``(rows, n)`` buffers and channel states."""
    rows = {a.shape[0] for a in buffers.values() if a.ndim == 2}
    rows |= {st.rows for st in channels.values()}
    if len(rows) > 1:
        raise RuntimeSimError(
            f"buffers and channels disagree on rows: {sorted(rows)}"
        )
    return rows.pop() if rows else 1


def run_kernel_vectorized(
    kernel: Kernel,
    buffers: Dict[str, np.ndarray],
    bindings: Optional[Dict[_e.Var, int]] = None,
    channels: Optional[Dict[str, ChannelState]] = None,
) -> VectorizedInterpreter:
    """Interpret one kernel invocation through the vectorized path.

    Buffers are mutated in place, exactly like :func:`repro.ir.run_kernel`;
    ``(rows, n)`` buffers run ``rows`` images in one pass.  Returns the
    interpreter so callers can inspect :attr:`events`.
    """
    vi = VectorizedInterpreter(buffers, bindings, channels)
    vi.run(kernel)
    return vi
