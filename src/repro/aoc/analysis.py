"""Static analysis of kernel IR: the front half of the AOC model.

For each kernel this derives, once:

* the loop tree with dependence-based initiation intervals (II) —
  accumulation into a global scratchpad gives II=5, into a register II=1
  (thesis Section 5.1.1);
* global-memory access sites and the load-store units (LSUs) AOC would
  infer for them: access width from coalescible unrolled dimensions,
  replication for non-coalescible ones, alignment from whether strides
  are compile-time constants (Sections 2.4.3, 5.3);
* evaluators for cycle count, FLOPs and DRAM traffic as functions of the
  symbolic-shape bindings, used by the runtime simulator per invocation.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import AOCError
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.analysis import eval_int, free_vars, stride_of, count_flops_expr
from repro.ir.buffer import Buffer
from repro.ir.kernel import Kernel
from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS

Bindings = Dict[_e.Var, int]


def _binding_key(bindings: Bindings) -> Tuple[Tuple[str, int], ...]:
    """Memo key of a rebound binding set: its (name, value) pairs."""
    return tuple(sorted((v.name, val) for v, val in bindings.items()))


@dataclass
class AccessSite:
    """One static load/store on a global buffer."""

    buffer: Buffer
    is_store: bool
    index: _e.Expr
    #: enclosing unrolled loops as (var, static extent), outermost first
    unrolled: Tuple[Tuple[_e.Var, int], ...]
    #: enclosing non-unrolled loops as (var, extent expr), outermost first
    serial: Tuple[Tuple[_e.Var, _e.Expr], ...]
    cached: bool
    #: the LSU inferred for this site (set after inference; global only)
    lsu: Optional["LSU"] = None


@dataclass
class LSU:
    """A load-store unit inferred for an access site."""

    buffer_name: str
    is_store: bool
    width_elems: int
    replicas: int
    aligned: bool
    cached: bool

    @property
    def width_bits(self) -> int:
        return self.width_elems * 32


@dataclass
class LoopNode:
    """Analysis record of one For statement."""

    stmt: _s.For
    ii_dep: int = 1
    ii_mem: int = 1
    #: buffer whose loop-carried dependence sets ``ii_dep`` (None if 1)
    ii_dep_buffer: Optional[str] = None
    #: memory scope of that buffer ("global" / "local" / "register")
    ii_dep_scope: Optional[str] = None
    #: buffer whose replicated LSU streams set ``ii_mem`` (None if 1)
    ii_mem_buffer: Optional[str] = None

    @property
    def ii(self) -> int:
        return max(self.ii_dep, self.ii_mem)

    @property
    def bottleneck(self) -> Optional[str]:
        """What limits this loop: 'dependence', 'memory', or None."""
        if self.ii <= 1:
            return None
        return "dependence" if self.ii_dep >= self.ii_mem else "memory"


class KernelAnalysis:
    """All static facts about a kernel, plus binding-parameterized costs.

    :meth:`of` returns the one analysis per ``(kernel, constants)`` that
    the verifier's advisor, the offline compiler and the runtime cost
    model share; construct directly only for a private copy.
    """

    def __init__(self, kernel: Kernel, constants: AOCConstants = DEFAULT_CONSTANTS) -> None:
        self._kernel_ref = weakref.ref(kernel)
        #: strong reference, except for an analysis stored on its own
        #: kernel (:meth:`of`): a cycle there would keep every dropped
        #: kernel's IR alive until a full garbage collection
        self._pin: Optional[Kernel] = kernel
        self.c = constants
        self.sites: List[AccessSite] = []
        #: keyed by the For statement itself (identity-hashed), so the
        #: map survives a pickle round-trip alongside the kernel body
        self.loops: Dict[_s.For, LoopNode] = {}
        self.loop_count = 0
        self.channel_ops = 0
        self.uses_select = False
        self.uses_mod = False
        self._scalar_args = set(kernel.scalar_args)
        self._walk(kernel.body, [], [])
        self.lsus: List[LSU] = []
        for site in self.sites:
            if site.buffer.scope == "global":
                site.lsu = self._infer_lsu(site)
                self.lsus.append(site.lsu)
        self._assign_dep_ii()
        self._assign_mem_ii()
        #: FLOPs of the replicated (unrolled) datapath
        self.spatial_flops = self._spatial_flops(kernel.body)
        self._cycles_cache: Dict[Tuple[Tuple[str, int], ...], int] = {}
        self._traffic_cache: Dict[Tuple[Tuple[str, int], ...], int] = {}

    @classmethod
    def of(
        cls, kernel: Kernel, constants: AOCConstants = DEFAULT_CONSTANTS
    ) -> "KernelAnalysis":
        """The analysis of ``kernel`` under ``constants``, built once.

        Stored on the kernel (:meth:`Kernel.derived`), so every build
        that contains the kernel shares it and it is freed with it.  The
        analysis refers back to the kernel weakly: hold the kernel for
        as long as the analysis is used.
        """

        def build() -> "KernelAnalysis":
            analysis = cls(kernel, constants)
            analysis._pin = None
            return analysis

        return kernel.derived(("analysis", constants), build)

    @property
    def kernel(self) -> Kernel:
        """The analyzed kernel."""
        return self._kernel_ref()

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        del state["_kernel_ref"]
        state["_pin"] = self.kernel
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._kernel_ref = weakref.ref(self._pin)

    # ------------------------------------------------------------------
    # collection
    def _walk(
        self,
        s: _s.Stmt,
        unrolled: List[Tuple[_e.Var, int]],
        serial: List[Tuple[_e.Var, _e.Expr]],
    ) -> None:
        if isinstance(s, _s.SeqStmt):
            for c in s.stmts:
                self._walk(c, unrolled, serial)
        elif isinstance(s, _s.For):
            self.loop_count += 1
            self.loops[s] = LoopNode(s)
            if s.kind is _s.ForKind.UNROLLED and s.unroll_factor is None:
                ext = s.static_extent
                if ext is None:
                    raise AOCError(
                        f"kernel {self.kernel.name}: fully-unrolled loop "
                        f"{s.loop_var.name} has a non-constant bound"
                    )
                self._walk(s.body, unrolled + [(s.loop_var, ext)], serial)
            elif s.kind is _s.ForKind.UNROLLED:
                # partial unroll: inner factor is spatial, remainder serial
                self._walk(
                    s.body,
                    unrolled + [(s.loop_var, s.unroll_factor)],
                    serial + [(s.loop_var, s.extent)],
                )
            else:
                self._walk(s.body, unrolled, serial + [(s.loop_var, s.extent)])
        elif isinstance(s, (_s.Allocate, _s.AttrStmt)):
            self._walk(s.body, unrolled, serial)
        elif isinstance(s, _s.IfThenElse):
            self._scan_expr(s.cond, unrolled, serial)
            self._walk(s.then_body, unrolled, serial)
            if s.else_body is not None:
                self._walk(s.else_body, unrolled, serial)
        elif isinstance(s, _s.Store):
            self._scan_expr(s.value, unrolled, serial)
            self._scan_expr(s.index, unrolled, serial)
            self.sites.append(
                AccessSite(
                    s.buffer, True, s.index, tuple(unrolled), tuple(serial),
                    cached=False,
                )
            )
        elif isinstance(s, _s.ChannelWrite):
            self.channel_ops += 1
            self._scan_expr(s.value, unrolled, serial)
        elif isinstance(s, _s.Evaluate):
            self._scan_expr(s.value, unrolled, serial)

    def _scan_expr(
        self,
        e: _e.Expr,
        unrolled: List[Tuple[_e.Var, int]],
        serial: List[Tuple[_e.Var, _e.Expr]],
    ) -> None:
        if isinstance(e, _e.Load):
            self.sites.append(
                AccessSite(
                    e.buffer, False, e.index, tuple(unrolled), tuple(serial),
                    cached=e.buffer.name in self.kernel.cached_reads,
                )
            )
            self._scan_expr(e.index, unrolled, serial)
            return
        if isinstance(e, _e.Select):
            self.uses_select = True
        if isinstance(e, _e.Mod):
            self.uses_mod = True
        if isinstance(e, _e.ChannelRead):
            self.channel_ops += 1
        for child in e.children():
            self._scan_expr(child, unrolled, serial)

    # ------------------------------------------------------------------
    # LSU inference
    def _infer_lsu(self, site: AccessSite) -> LSU:
        # Coalesce unrolled dimensions while they extend a contiguous span
        # (stride <= current span); otherwise replicate the LSU — this is
        # what produces "C1vec x F LSUs for I" in thesis Section 5.1.1.
        strided: List[Tuple[int, int]] = []  # (|stride|, extent)
        replicas = 1
        aligned = True
        for var, extent in site.unrolled:
            s = stride_of(site.index, var)
            if s is None:
                replicas *= extent
                aligned = False
            elif s != 0:
                strided.append((abs(s), extent))
        span = 1
        for stride, extent in sorted(strided):
            if stride <= span:
                span += (extent - 1) * stride
            else:
                replicas *= extent
        if span > self.c.max_lsu_width_elems:
            replicas *= math.ceil(span / self.c.max_lsu_width_elems)
            span = self.c.max_lsu_width_elems
        # symbolic strides in the index defeat compile-time alignment
        if free_vars(site.index) & self._scalar_args:
            aligned = False
        # AOC infers a cache when the access pattern "seems repetitive"
        # (Section 2.4.3): a read re-issued across serial loops that do
        # not advance the address.  Tiny operands (biases, scalars) live
        # in registers instead of earning a BRAM cache.
        cached = site.cached
        if not site.is_store and not cached:
            repetitive = any(
                stride_of(site.index, var) == 0 for var, _ in site.serial
            )
            n = site.buffer.num_elements()
            substantial = n is None or n * 4 >= 2048
            cached = repetitive and substantial
        return LSU(
            site.buffer.name,
            site.is_store,
            span,
            replicas,
            aligned,
            cached,
        )

    # ------------------------------------------------------------------
    # dependence-based II
    def _assign_dep_ii(self) -> None:
        self._dep_walk(self.kernel.body, [])

    def _dep_walk(self, s: _s.Stmt, serial_stack: List[_s.For]) -> None:
        if isinstance(s, _s.SeqStmt):
            for c in s.stmts:
                self._dep_walk(c, serial_stack)
        elif isinstance(s, _s.For):
            if s.kind is _s.ForKind.UNROLLED and s.unroll_factor is None:
                self._dep_walk(s.body, serial_stack)
            else:
                self._dep_walk(s.body, serial_stack + [s])
        elif isinstance(s, (_s.Allocate, _s.AttrStmt)):
            self._dep_walk(s.body, serial_stack)
        elif isinstance(s, _s.IfThenElse):
            self._dep_walk(s.then_body, serial_stack)
            if s.else_body is not None:
                self._dep_walk(s.else_body, serial_stack)
        elif isinstance(s, _s.Store):
            if not self._is_accumulation(s):
                return
            # innermost enclosing serial loop whose var does not advance
            # the accumulator address carries the dependence; trip-1 loops
            # collapse away and cannot carry it
            for loop in reversed(serial_stack):
                if loop.static_extent == 1:
                    continue
                if stride_of(s.index, loop.loop_var) == 0:
                    ii = (
                        self.c.ii_global_accum
                        if s.buffer.scope == "global"
                        else self.c.ii_local_accum
                    )
                    node = self.loops[loop]
                    if ii > node.ii_dep:
                        node.ii_dep = ii
                        node.ii_dep_buffer = s.buffer.name
                        node.ii_dep_scope = s.buffer.scope
                    break

    @staticmethod
    def _is_accumulation(store: _s.Store) -> bool:
        hits: List[bool] = []

        def scan(e: _e.Expr) -> None:
            if isinstance(e, _e.Load) and e.buffer is store.buffer:
                if _e.structural_equal(e.index, store.index):
                    hits.append(True)
            for c in e.children():
                scan(c)

        scan(store.value)
        return bool(hits)

    # ------------------------------------------------------------------
    # memory-arbitration II: replicated read streams share LSU ports
    def _assign_mem_ii(self) -> None:
        for site in self.sites:
            lsu = site.lsu
            # aligned (compile-time-analyzable) replicas schedule cleanly;
            # non-aligned replicated streams contend in the arbiter
            if lsu is None or lsu.is_store or lsu.replicas <= 1 or lsu.aligned:
                continue
            stall = min(
                self.c.max_mem_stall, math.ceil(lsu.replicas / self.c.lsu_ports)
            )
            if stall <= 1 or not site.serial:
                continue
            inner_var = site.serial[-1][0]
            for node in self.loops.values():
                if node.stmt.loop_var is inner_var and stall > node.ii_mem:
                    node.ii_mem = stall
                    node.ii_mem_buffer = lsu.buffer_name

    # ------------------------------------------------------------------
    # II attribution
    def max_ii(self) -> int:
        """Worst initiation interval across the kernel's loop nest."""
        return max((n.ii for n in self.loops.values()), default=1)

    def ii_attribution(self) -> List[Dict[str, object]]:
        """Per-loop bottleneck attribution for every loop with II > 1.

        Each record names the loop variable, the II, the limiting
        mechanism (``dependence`` or ``memory``) and the buffer that
        causes it — the facts AOC's HTML report spreads over the loop
        analysis and LSU pages, gathered for the performance advisor.
        Records are sorted by (descending II, loop var) so the worst
        bottleneck is first and the order is deterministic.
        """
        out: List[Dict[str, object]] = []
        for node in self.loops.values():
            if node.ii <= 1:
                continue
            cause = node.bottleneck
            out.append(
                {
                    "loop": node.stmt.loop_var.name,
                    "ii": node.ii,
                    "cause": cause,
                    "buffer": (
                        node.ii_dep_buffer
                        if cause == "dependence"
                        else node.ii_mem_buffer
                    ),
                    "scope": (
                        node.ii_dep_scope if cause == "dependence" else "global"
                    ),
                }
            )
        out.sort(key=lambda r: (-int(r["ii"]), str(r["loop"])))
        return out

    # ------------------------------------------------------------------
    # cost evaluators
    def _eval_extent(self, e: _e.Expr, bindings: Bindings) -> int:
        v = eval_int(e, bindings)
        if v is None:
            raise AOCError(
                f"kernel {self.kernel.name}: cannot evaluate loop extent "
                f"{e!r} — missing symbolic bindings"
            )
        return v

    def _rebind(self, bindings: Optional[Bindings]) -> Bindings:
        """Remap bindings onto this kernel's own ``Var`` objects by name.

        Bindings are identity-keyed, but a bitstream replayed from the
        compile cache gets paired with invocation plans built from a
        different (alpha-equivalent) program, whose symbolic vars are
        distinct objects with the same names.
        """
        if not bindings:
            return {}
        own = getattr(self, "_own_vars", None)
        if own is None:
            own = {v.name: v for v in self.kernel.scalar_args}
            # buffer-shape vars (n_hi, ...) may not be kernel body args
            for site in self.sites:
                for d in tuple(site.buffer.shape) + tuple(site.buffer.strides or ()):
                    if isinstance(d, _e.Var):
                        own.setdefault(d.name, d)
            self._own_vars = own
        out = dict(bindings)
        for v, val in bindings.items():
            tgt = own.get(v.name)
            if tgt is not None and tgt not in out:
                out[tgt] = val
        return out

    def compute_cycles(self, bindings: Optional[Bindings] = None) -> int:
        """Issue-slot cycle estimate for one invocation."""
        bindings = self._rebind(bindings)
        key = _binding_key(bindings)
        if key not in self._cycles_cache:
            self._cycles_cache[key] = max(1, self._cycles(self.kernel.body, bindings))
        return self._cycles_cache[key]

    def _cycles(self, s: _s.Stmt, b: Bindings) -> int:
        if isinstance(s, _s.SeqStmt):
            return sum(self._cycles(c, b) for c in s.stmts)
        if isinstance(s, _s.For):
            node = self.loops[s]
            n = self._eval_extent(s.extent, b)
            if s.kind is _s.ForKind.UNROLLED:
                if s.unroll_factor is None:
                    return self._cycles(s.body, b)
                n = math.ceil(n / s.unroll_factor)
            if n <= 1:
                # trip-1 loops collapse: no control, no pipeline fill
                return self._cycles(s.body, b)
            return self.c.loop_fill_cycles + n * node.ii * self._cycles(s.body, b)
        if isinstance(s, (_s.Allocate, _s.AttrStmt)):
            return self._cycles(s.body, b)
        if isinstance(s, _s.IfThenElse):
            t = self._cycles(s.then_body, b)
            e = self._cycles(s.else_body, b) if s.else_body is not None else 0
            return max(t, e)
        return 1  # Store / ChannelWrite / Evaluate issue slot

    def flops(self, bindings: Optional[Bindings] = None) -> int:
        """Floating-point operations per invocation."""
        return self._flops(self.kernel.body, self._rebind(bindings))

    def _flops(self, s: _s.Stmt, b: Bindings) -> int:
        if isinstance(s, _s.SeqStmt):
            return sum(self._flops(c, b) for c in s.stmts)
        if isinstance(s, _s.For):
            return self._eval_extent(s.extent, b) * self._flops(s.body, b)
        if isinstance(s, (_s.Allocate, _s.AttrStmt)):
            return self._flops(s.body, b)
        if isinstance(s, _s.IfThenElse):
            t = self._flops(s.then_body, b)
            e = self._flops(s.else_body, b) if s.else_body is not None else 0
            return max(t, e)
        if isinstance(s, (_s.Store, _s.ChannelWrite, _s.Evaluate)):
            return count_flops_expr(s.value)
        return 0

    def traffic_bytes(self, bindings: Optional[Bindings] = None) -> int:
        """Approximate DRAM traffic per invocation.

        Per access site: the whole buffer is touched once (``unique``)
        multiplied by the trip counts of enclosing serial loops whose
        variables do not advance the address (re-reads).  A cached LSU
        whose working set fits the 512-kbit cache pays ``unique`` once.
        """
        b = self._rebind(bindings)
        key = _binding_key(b)
        if key not in self._traffic_cache:
            self._traffic_cache[key] = self._traffic(b)
        return self._traffic_cache[key]

    def _traffic(self, b: Bindings) -> int:
        total = 0
        for site in self.sites:
            if site.buffer.scope != "global":
                continue
            unique = self._buffer_bytes(site.buffer, b)
            reread = 1
            for var, extent in site.serial:
                if stride_of(site.index, var) == 0:
                    reread *= self._eval_extent(
                        extent if isinstance(extent, _e.Expr) else _e.IntImm(extent), b
                    )
            if site.lsu is not None and site.lsu.cached and unique <= self.c.lsu_cache_bytes:
                reread = 1
            total += unique * reread
        return total

    def _buffer_bytes(self, buf: Buffer, b: Bindings) -> int:
        n = 1
        for d in buf.shape:
            if isinstance(d, int):
                n *= d
            else:
                v = eval_int(d, b)
                if v is None:
                    raise AOCError(
                        f"kernel {self.kernel.name}: unbound buffer dim "
                        f"{d.name} of {buf.name}"
                    )
                n *= v
        return n * 4

    # ------------------------------------------------------------------
    # spatial hardware
    def dsp_count(self) -> int:
        """DSPs: one per fused MAC in the replicated (unrolled) datapath."""
        return max(0, math.ceil(self.spatial_flops / 2 * self.c.dsp_per_mac))

    def _spatial_flops(self, s: _s.Stmt) -> int:
        if isinstance(s, _s.SeqStmt):
            return sum(self._spatial_flops(c) for c in s.stmts)
        if isinstance(s, _s.For):
            if s.kind is _s.ForKind.UNROLLED:
                n = s.unroll_factor or s.static_extent or 1
                return n * self._spatial_flops(s.body)
            return self._spatial_flops(s.body)
        if isinstance(s, (_s.Allocate, _s.AttrStmt)):
            return self._spatial_flops(s.body)
        if isinstance(s, _s.IfThenElse):
            t = self._spatial_flops(s.then_body)
            e = self._spatial_flops(s.else_body) if s.else_body is not None else 0
            return t + e
        if isinstance(s, (_s.Store, _s.ChannelWrite, _s.Evaluate)):
            return count_flops_expr(s.value)
        return 0

    # ------------------------------------------------------------------
    def is_pure_transform(self) -> bool:
        """True for kernels that move data without floating-point work
        (padding, flatten/transpose) — thesis's 'transform' kernels."""
        return self.spatial_flops == 0

    def has_nonaligned_lsu(self) -> bool:
        return any(not l.aligned for l in self.lsus)

    def total_lsu_replicas(self) -> int:
        return sum(l.replicas for l in self.lsus)

    def excess_lsu_replicas(self) -> int:
        """Replicated streams beyond the first per LSU (routing pressure)."""
        return sum(max(0, l.replicas - 1) for l in self.lsus)

    def bw_efficiency(self) -> float:
        """Fraction of peak DRAM bandwidth this kernel's LSUs achieve."""
        if not self.lsus:
            return self.c.bw_efficiency_aligned
        if self.has_nonaligned_lsu():
            return self.c.bw_efficiency_nonaligned
        return self.c.bw_efficiency_aligned
