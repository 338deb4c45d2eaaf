"""Unroll write-race detection and def-before-use analysis.

AOC replicates the body of an ``#pragma unroll`` loop into parallel
hardware (thesis §5): all unrolled iterations execute concurrently.  Two
iterations may therefore race when a ``Store`` under an unrolled loop
targets the *same* address in different iterations.  The detector
reasons with :func:`repro.ir.analysis.stride_of` on the store index:

* a non-zero constant stride means distinct iterations write distinct
  addresses — disjoint, proven race-free;
* stride 0 with a value that reads the stored location back
  (``acc[i] = acc[i] + ...``) is a reduction update — AOC serializes it
  through the dependence chain (it builds an adder tree), not a race;
* stride 0 with an iteration-dependent value is a real race — two
  replicas drive different values onto one address (**RR001**, error);
* a non-affine store index leaves disjointness unprovable (**RR003**).

The def-before-use pass (**RR002**) flags reads of kernel-allocated
(local/register) buffers that can execute before any store to the
buffer: in OpenCL such reads return undefined data.  Granularity is the
whole buffer, walked in program order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.analysis import free_vars, stride_of
from repro.ir.functor import StmtVisitor
from repro.ir.kernel import Kernel
from repro.verify.diagnostics import Diagnostic, VerifyReport

#: rule IDs this analyzer may emit (tools/lint.py cross-checks)
RULES = ("RR001", "RR002", "RR003")

Bindings = Dict[_e.Var, int]


def _collect_stores(body: _s.Stmt) -> List[_s.Store]:
    out: List[_s.Store] = []

    class _V(StmtVisitor):
        def visit_Store(self, st: _s.Store) -> None:
            out.append(st)
            self.generic_visit_stmt(st)

    _V().visit_stmt(body)
    return out


def _reads_back(store: _s.Store) -> bool:
    """True if the stored value loads the same buffer at the same index."""
    found = False

    class _V(StmtVisitor):
        def visit_Load(self, e: _e.Load) -> None:
            nonlocal found
            if e.buffer is store.buffer and _e.structural_equal(e.index, store.index):
                found = True
            self.generic_visit(e)

    _V().visit(store.value)
    return found


def check_races(
    kernel: Kernel,
    binding_sets: Optional[List[Bindings]] = None,
    report: Optional[VerifyReport] = None,
) -> VerifyReport:
    """Run the unroll-race and def-before-use analyses over one kernel.

    ``binding_sets`` carries the concrete shape/stride values of a folded
    kernel's invocations, so symbolic store strides (``ff * s_o0``) fold
    to constants and disjointness becomes provable per parameterization.
    """
    if report is None:
        report = VerifyReport(subject=kernel.name)
    sets = binding_sets if binding_sets else [{}]
    seen: Set[tuple] = set()
    for bindings in sets:
        # adopt same-named vars, as check_bounds does: the plan's
        # bindings may come from an alpha-equivalent build of a
        # lower-cache-replayed kernel
        _check_unroll_races(
            kernel, kernel.bind_by_name(bindings), report, seen
        )
    _check_def_before_use(kernel, report)
    report.bump("kernels_race_checked")
    return report


# ---------------------------------------------------------------------------
def _check_unroll_races(
    kernel: Kernel, bindings: Bindings, report: VerifyReport, seen: Set[tuple]
) -> None:
    for loop in _unrolled_loops(kernel.body):
        _check_one_unrolled(kernel, loop, bindings, report, seen)


def _unrolled_loops(s: _s.Stmt) -> Iterator[_s.For]:
    """Unrolled loops of ``s`` in pre-order."""
    if isinstance(s, _s.For):
        if s.kind is _s.ForKind.UNROLLED:
            yield s
        yield from _unrolled_loops(s.body)
    else:
        for c in s.children():
            yield from _unrolled_loops(c)


def _check_one_unrolled(
    kernel: Kernel,
    loop: _s.For,
    bindings: Bindings,
    report: VerifyReport,
    seen: Set[tuple],
) -> None:
    var = loop.loop_var
    # a factor-1 "unroll" replicates nothing, so nothing can race
    if loop.unroll_factor == 1 or loop.static_extent == 1:
        return

    def diag(rule: str, severity: str, message: str) -> None:
        key = (rule, var.name, message)
        if key not in seen:
            seen.add(key)
            report.diagnostics.append(Diagnostic(
                rule, severity, message, kernel=kernel.name, location=var.name,
            ))

    for store in _collect_stores(loop.body):
        report.bump("unrolled_stores_checked")
        stride = stride_of(store.index, var, bindings)
        if stride is None:
            diag(
                "RR003", "warn",
                f"store to {store.buffer.name} under unrolled loop "
                f"{var.name}: index is not affine in {var.name} — "
                f"disjointness unprovable",
            )
            continue
        if stride != 0:
            report.bump("unrolled_stores_disjoint")
            continue  # distinct iterations hit distinct addresses
        if _reads_back(store):
            report.bump("unrolled_reduction_updates")
            continue  # read-modify-write: a dependence chain, not a race
        if var in free_vars(store.value):
            diag(
                "RR001", "error",
                f"store to {store.buffer.name} under unrolled loop "
                f"{var.name}: all iterations write the same address with "
                f"iteration-dependent values — replicated hardware races",
            )
        # else: every replica writes the same value — redundant but benign


# ---------------------------------------------------------------------------
def _check_def_before_use(kernel: Kernel, report: VerifyReport) -> None:
    """Flag loads of kernel-allocated buffers before any store to them."""
    _DefBeforeUse(kernel, report).walk(kernel.body)


class _DefBeforeUse:
    # a class rather than nested recursive closures: those form reference
    # cycles through the kernel, which would outlive the check until a
    # full garbage collection
    def __init__(self, kernel: Kernel, report: VerifyReport) -> None:
        self.kernel = kernel
        self.report = report
        self.stored: Set[str] = set()
        self.flagged: Set[str] = set()
        self.local_names = {b.name for b in kernel.local_buffers()}

    def check_expr(self, e: _e.Expr) -> None:
        if isinstance(e, _e.Load):
            name = e.buffer.name
            if (name in self.local_names and name not in self.stored
                    and name not in self.flagged):
                self.flagged.add(name)
                self.report.diagnostics.append(Diagnostic(
                    "RR002", "warn",
                    f"load of {e.buffer.scope} buffer {name} can execute "
                    f"before any store to it (undefined data)",
                    kernel=self.kernel.name, location=name,
                ))
        for c in e.children():
            self.check_expr(c)

    def walk(self, s: _s.Stmt) -> None:
        if isinstance(s, _s.Store):
            self.check_expr(s.index)
            self.check_expr(s.value)
            self.stored.add(s.buffer.name)
        elif isinstance(s, _s.Evaluate):
            self.check_expr(s.value)
        elif isinstance(s, _s.ChannelWrite):
            self.check_expr(s.value)
        elif isinstance(s, _s.For):
            self.check_expr(s.extent)
            self.walk(s.body)
        elif isinstance(s, _s.IfThenElse):
            self.check_expr(s.cond)
            self.walk(s.then_body)
            if s.else_body is not None:
                self.walk(s.else_body)
        elif isinstance(s, (_s.Allocate, _s.AttrStmt)):
            self.walk(s.body)
        elif isinstance(s, _s.SeqStmt):
            for c in s.stmts:
                self.walk(c)
