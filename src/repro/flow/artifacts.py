"""Typed artifacts flowing between the deployment pipeline's stages.

The ``schedule`` stage produces a :class:`PipelinedSchedule` or
:class:`FoldedSchedule` — kernels that have been scheduled but not yet
lowered — which the ``lower`` stage turns into an :class:`ir.Program`
and the ``plan`` stage into a runtime execution plan.  Keeping these as
first-class artifacts lets the pipeline time, fingerprint and size each
phase independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple, TypeVar

import repro.ir as ir
from repro.pipeline import fingerprint, register_canonicalizer, register_describer
from repro.runtime.plan import Invocation
from repro.schedule import Schedule, ScheduleRecipe
from repro.schedule import lower as lower_schedule

T = TypeVar("T")


@dataclass
class ScheduledKernel:
    """One kernel after schedule selection, before lowering.

    Either ``schedule`` (+ ``lower_options`` forwarded to
    :func:`repro.schedule.lower`) or a ``prebuilt`` kernel for ops whose
    builders emit IR directly (softmax).  ``recipe`` is the declarative
    transform sequence the schedule was built from (None for prebuilt
    kernels); its fingerprint enters the kernel's canonical form, so the
    content-addressed compile cache keys on the recipe.

    A scheduled kernel is not modified once its builder returns it, so
    keys derived from it are computed once (:meth:`derived`): its
    :meth:`key` and its lower-cache key
    (:func:`repro.flow.incremental.kernel_lower_key`).
    """

    name: str
    layer: str
    schedule: Optional[Schedule] = None
    prebuilt: Optional[ir.Kernel] = None
    lower_options: Dict[str, object] = field(default_factory=dict)
    recipe: Optional[ScheduleRecipe] = None
    _derived: Dict[Hashable, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def derived(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``compute()``, evaluated once per ``key`` for this kernel."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]  # type: ignore[return-value]

    def key(self) -> str:
        """Fingerprint of this kernel's canonical form, computed once."""
        return self.derived("key", lambda: fingerprint(self))

    @property
    def autorun(self) -> bool:
        if self.prebuilt is not None:
            return self.prebuilt.autorun
        return bool(self.lower_options.get("autorun", False))

    def lower(self) -> ir.Kernel:
        if self.prebuilt is not None:
            return self.prebuilt
        return lower_schedule(self.schedule, self.name, **self.lower_options)


@dataclass
class PipelinedSchedule:
    """Scheduled chain network: one kernel per fused node + channel wiring."""

    level: str
    program_name: str
    kernels: List[ScheduledKernel]
    #: producer layer name -> inter-kernel channel
    channels: Dict[str, ir.Channel]
    uses_channels: bool

    def form(self, kernels: List[object]) -> List[object]:
        """Canonical form, with ``kernels`` standing for :attr:`kernels`."""
        return [
            "pipelined-schedule", self.level, self.program_name, kernels,
            self.channels, self.uses_channels,
        ]


@dataclass
class FoldedSchedule:
    """Scheduled folded network: grouped kernels + per-layer invocations."""

    program_name: str
    kernels: List[ScheduledKernel]
    invocations: List[Invocation]
    #: group key -> kernel name, for introspection/tests
    groups: Dict[Tuple, str] = field(default_factory=dict)

    def form(self, kernels: List[object]) -> List[object]:
        """Canonical form, with ``kernels`` standing for :attr:`kernels`."""
        return [
            "folded-schedule", self.program_name, kernels,
            [i.kernel_name for i in self.invocations],
        ]


def schedule_key_form(sched) -> List[object]:
    """A schedule's canonical form with every kernel replaced by its
    memoized :meth:`ScheduledKernel.key` — the Merkle form the
    ``synthesize`` cache key hashes, so two schedules share it exactly
    when their full canonical forms are equal."""
    return sched.form([sk.key() for sk in sched.kernels])


# -- pipeline integration ---------------------------------------------------

register_canonicalizer(
    ScheduleRecipe,
    lambda r: ["schedule-recipe", r.to_dict()],
)
register_canonicalizer(
    ScheduledKernel,
    lambda s: [
        "scheduled-kernel", s.name, s.layer, s.prebuilt is not None,
        sorted(s.lower_options),
        None if s.recipe is None else s.recipe.fingerprint(),
    ],
)
register_canonicalizer(PipelinedSchedule, lambda s: s.form(s.kernels))
register_canonicalizer(FoldedSchedule, lambda s: s.form(s.kernels))

register_describer(
    PipelinedSchedule,
    lambda s: (
        len(s.kernels),
        {"kernels": len(s.kernels), "channels": len(s.channels)},
    ),
)
register_describer(
    FoldedSchedule,
    lambda s: (
        len(s.kernels),
        {"kernels": len(s.kernels), "invocations": len(s.invocations)},
    ),
)
