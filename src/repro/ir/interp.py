"""A NumPy-backed interpreter for lowered kernel IR.

Executes a :class:`~repro.ir.kernel.Kernel` body element-by-element in
Python.  This is the reproduction's ground-truth semantics: every schedule
(naive or optimized) must produce the same numbers through this interpreter
as the pure-NumPy reference operators, which is how tests establish that
the transformations in Chapter 4/5 of the thesis are semantics-preserving.

It is deliberately simple and slow (used on small shapes only); the fast
functional path for whole networks lives in :mod:`repro.runtime.executor`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.errors import RuntimeSimError
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.buffer import Buffer, Channel
from repro.ir.kernel import Kernel

_F32 = np.float32

# Scalar intrinsics run through the float32 NumPy ufuncs, NOT ``math.*``:
# ``math.exp`` would compute in float64 and round once at the end, which
# differs in the last ulp from the single-rounding float32 ufunc.  Routing
# both the scalar and vectorized interpreters through the same ufuncs makes
# them agree bit-for-bit by construction.
_INTRINSICS = {
    "exp": np.exp,
    "sqrt": np.sqrt,
    "fabs": np.abs,
    "floor": np.floor,
    "ceil": np.ceil,
    "tanh": np.tanh,
    "log": np.log,
}


class _Fifo:
    """One row's FIFO: float32 array chunks plus pending scalar writes.

    Chunks are stored as written (no per-element boxing); scalar
    :meth:`push_one` values collect in ``pending`` and become a chunk on
    the next chunk-level operation, so FIFO order is preserved.
    """

    __slots__ = ("chunks", "head", "size", "pending")

    def __init__(self) -> None:
        self.chunks: Deque[np.ndarray] = deque()
        self.head = 0  # read cursor into chunks[0]
        self.size = 0
        self.pending: List[np.float32] = []

    def _flush(self) -> None:
        if self.pending:
            self.chunks.append(np.array(self.pending, dtype=_F32))
            self.pending = []

    def push(self, values: np.ndarray) -> None:
        self._flush()
        if values.size:
            self.chunks.append(values)
            self.size += values.size

    def push_one(self, value) -> None:
        self.pending.append(_F32(value))
        self.size += 1

    def pop(self, n: int) -> np.ndarray:
        self._flush()
        self.size -= n
        parts = []
        while n:
            chunk = self.chunks[0]
            take = min(n, chunk.size - self.head)
            parts.append(chunk[self.head : self.head + take])
            self.head += take
            n -= take
            if self.head == chunk.size:
                self.chunks.popleft()
                self.head = 0
        if not parts:
            return np.zeros(0, _F32)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class ChannelState:
    """FIFO state shared between interpreted kernels, one FIFO per row.

    A batched run (see :mod:`repro.ir.vinterp`) interprets ``rows``
    independent images at once; each row owns its own FIFO of float32
    array chunks, so :meth:`write_chunk` / :meth:`read_chunk` move whole
    ``(rows, n)`` blocks without per-element traffic and every value
    keeps its float32 bits.  The scalar :meth:`write` / :meth:`read` API
    works on single-row states; :meth:`row` returns a single-row view
    sharing one row's FIFO, which is how a batched run hands a channel
    to per-row scalar code.
    """

    def __init__(self, channel: Channel, rows: int = 1) -> None:
        self.channel = channel
        self._fifos = [_Fifo() for _ in range(rows)]

    @property
    def rows(self) -> int:
        return len(self._fifos)

    def __len__(self) -> int:
        """Values every row can pop (the shortest row's length)."""
        return min(f.size for f in self._fifos)

    def row(self, b: int) -> "ChannelState":
        view = ChannelState.__new__(ChannelState)
        view.channel = self.channel
        view._fifos = [self._fifos[b]]
        return view

    def _single(self) -> _Fifo:
        if len(self._fifos) != 1:
            raise RuntimeSimError(
                f"channel {self.channel.name}: scalar access to a "
                f"{len(self._fifos)}-row channel; use row()"
            )
        return self._fifos[0]

    def _empty(self) -> RuntimeSimError:
        return RuntimeSimError(
            f"read from empty channel {self.channel.name}: interpreted "
            "kernels must be run producer-first"
        )

    def write(self, value: float) -> None:
        self._single().push_one(value)

    def read(self) -> np.float32:
        fifo = self._single()
        if not fifo.size:
            raise self._empty()
        return fifo.pop(1)[0]

    def write_chunk(self, values: np.ndarray, start: int = 0) -> None:
        """Append one ``(k, n)`` block to rows ``start .. start + k``.

        A 1-D array is one row's chunk.  Element order within a row is
        preserved; the block is copied, so callers may reuse it.
        """
        block = np.array(values, dtype=_F32, ndmin=2)
        for fifo, row in zip(self._fifos[start:], block):
            fifo.push(row)

    def read_chunk(
        self, n: int, start: int = 0, stop: Optional[int] = None
    ) -> np.ndarray:
        """Pop the next ``n`` values of rows ``start .. stop`` (FIFO order).

        Returns a ``(stop - start, n)`` float32 array.
        """
        fifos = self._fifos[start:stop]
        if any(f.size < n for f in fifos):
            raise self._empty()
        if len(fifos) == 1:
            return fifos[0].pop(n)[None]
        return np.stack([f.pop(n) for f in fifos])


class Interpreter:
    """Interprets one kernel invocation.

    Parameters
    ----------
    buffers:
        Maps buffer *name* -> 1-D ``np.ndarray`` backing store (flat,
        row-major), or a one-row ``(1, n)`` array — a row view of a
        batched buffer.  Must contain an entry for every global buffer in
        the kernel signature; local/register buffers are allocated on
        demand.
    bindings:
        Values for the kernel's symbolic scalar arguments (parameterized
        kernels).
    channels:
        Shared :class:`ChannelState` per channel name, for pipelined
        multi-kernel programs.
    """

    def __init__(
        self,
        buffers: Dict[str, np.ndarray],
        bindings: Optional[Dict[_e.Var, int]] = None,
        channels: Optional[Dict[str, ChannelState]] = None,
    ) -> None:
        self.buffers = buffers
        self.env: Dict[_e.Var, float] = dict(bindings or {})
        self.channels = channels if channels is not None else {}

    # ------------------------------------------------------------------
    def run(self, kernel: Kernel) -> None:
        for buf in kernel.args:
            if buf.name not in self.buffers:
                if buf.name in kernel.scratch_args:
                    n = buf.num_elements()
                    if n is None:
                        n = self._symbolic_numel(buf)
                    self.buffers[buf.name] = self._alloc(n)
                    continue
                raise RuntimeSimError(f"missing buffer {buf.name}")
        # bindings may come from an alpha-equivalent schedule build when
        # the kernel replays from the per-kernel lower cache — adopt
        # same-named entries onto this kernel's own vars
        self.env.update(kernel.bind_by_name(self.env))
        for var in kernel.scalar_args:
            if var not in self.env:
                raise RuntimeSimError(f"missing scalar argument {var.name}")
        self._exec(kernel.body)

    # -- statements -----------------------------------------------------
    def _exec(self, s: _s.Stmt) -> None:
        if isinstance(s, _s.SeqStmt):
            for c in s.stmts:
                self._exec(c)
        elif isinstance(s, _s.For):
            extent = int(self._eval(s.extent))
            var = s.loop_var
            for i in range(extent):
                self.env[var] = i
                self._exec(s.body)
            self.env.pop(var, None)
        elif isinstance(s, _s.Store):
            arr = self._storage(s.buffer)
            idx = int(self._eval(s.index))
            val = self._eval(s.value)
            if arr.dtype == _F32:
                val = _F32(val)
            arr[idx] = val
        elif isinstance(s, _s.IfThenElse):
            if self._eval(s.cond):
                self._exec(s.then_body)
            elif s.else_body is not None:
                self._exec(s.else_body)
        elif isinstance(s, _s.Allocate):
            n = 1
            for d in s.buffer.shape:
                n *= int(self._eval(d if isinstance(d, _e.Expr) else _e.IntImm(d)))
            # fresh allocation per entry (loop bodies re-allocate)
            self.buffers[s.buffer.name] = self._alloc(n)
            self._exec(s.body)
        elif isinstance(s, _s.AttrStmt):
            self._exec(s.body)
        elif isinstance(s, _s.ChannelWrite):
            self._channel(s.channel).write(_F32(self._eval(s.value)))
        elif isinstance(s, _s.Evaluate):
            self._eval(s.value)
        else:
            raise RuntimeSimError(f"cannot interpret {type(s).__name__}")

    # -- expressions ------------------------------------------------------
    def _eval(self, e: _e.Expr):
        if isinstance(e, _e.IntImm):
            return e.value
        if isinstance(e, _e.FloatImm):
            return _F32(e.value)
        if isinstance(e, _e.Var):
            try:
                return self.env[e]
            except KeyError:
                raise RuntimeSimError(f"unbound variable {e.name}") from None
        if isinstance(e, _e.Load):
            arr = self._storage(e.buffer)
            return arr[int(self._eval(e.index))]
        if isinstance(e, _e.ChannelRead):
            return self._channel(e.channel).read()
        if isinstance(e, _e._BinaryOp):
            a = self._eval(e.a)
            b = self._eval(e.b)
            is_f32 = e.dtype == _e.FLOAT32
            if isinstance(e, _e.Add):
                r = a + b
            elif isinstance(e, _e.Sub):
                r = a - b
            elif isinstance(e, _e.Mul):
                r = a * b
            elif isinstance(e, _e.Div):
                r = a / b
            elif isinstance(e, _e.FloorDiv):
                return int(a) // int(b)
            elif isinstance(e, _e.Mod):
                return int(a) % int(b)
            elif isinstance(e, _e.Min):
                r = min(a, b)
            elif isinstance(e, _e.Max):
                r = max(a, b)
            elif isinstance(e, _e.LT):
                return a < b
            elif isinstance(e, _e.LE):
                return a <= b
            elif isinstance(e, _e.GT):
                return a > b
            elif isinstance(e, _e.GE):
                return a >= b
            elif isinstance(e, _e.EQ):
                return a == b
            elif isinstance(e, _e.NE):
                return a != b
            elif isinstance(e, _e.And):
                return bool(a) and bool(b)
            elif isinstance(e, _e.Or):
                return bool(a) or bool(b)
            else:  # pragma: no cover
                raise RuntimeSimError(f"unhandled op {type(e).__name__}")
            return _F32(r) if is_f32 else r
        if isinstance(e, _e.Not):
            return not bool(self._eval(e.a))
        if isinstance(e, _e.Cast):
            v = self._eval(e.value)
            return _F32(v) if e.dtype == _e.FLOAT32 else int(v)
        if isinstance(e, _e.Select):
            if self._eval(e.cond):
                return self._eval(e.then_value)
            return self._eval(e.else_value)
        if isinstance(e, _e.Call):
            args = [_F32(self._eval(a)) for a in e.args]
            return _F32(_INTRINSICS[e.name](*args))
        raise RuntimeSimError(f"cannot evaluate {type(e).__name__}")

    def _symbolic_numel(self, buffer: Buffer) -> int:
        n = 1
        for d in buffer.shape:
            n *= int(self._eval(d if isinstance(d, _e.Expr) else _e.IntImm(d)))
        return n

    # ------------------------------------------------------------------
    def _alloc(self, n: int) -> np.ndarray:
        """Fresh zeroed storage for a kernel-local buffer."""
        return np.zeros(n, dtype=_F32)

    def _storage(self, buffer: Buffer) -> np.ndarray:
        arr = self.buffers.get(buffer.name)
        if arr is None:
            raise RuntimeSimError(f"buffer {buffer.name} has no storage")
        if arr.ndim == 2:
            if arr.shape[0] != 1:
                raise RuntimeSimError(
                    f"buffer {buffer.name} holds {arr.shape[0]} rows; the "
                    "scalar interpreter runs one image at a time"
                )
            return arr[0]
        return arr

    def _channel(self, ch: Channel) -> ChannelState:
        st = self.channels.get(ch.name)
        if st is None:
            st = ChannelState(ch)
            self.channels[ch.name] = st
        return st


def run_kernel(
    kernel: Kernel,
    buffers: Dict[str, np.ndarray],
    bindings: Optional[Dict[_e.Var, int]] = None,
    channels: Optional[Dict[str, ChannelState]] = None,
) -> None:
    """Interpret one kernel invocation in place (buffers are mutated)."""
    Interpreter(buffers, bindings, channels).run(kernel)


def run_program_sequential(
    kernels,
    buffers: Dict[str, np.ndarray],
    bindings: Optional[Dict[_e.Var, int]] = None,
) -> None:
    """Interpret a list of kernels in order with shared channel state.

    Producer kernels must precede consumers (sufficient for feed-forward
    layer pipelines, where channels act as unbounded FIFOs functionally).
    """
    channels: Dict[str, ChannelState] = {}
    for k in kernels:
        Interpreter(buffers, bindings, channels).run(k)
