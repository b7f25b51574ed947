"""Static analysis: the repo's invariants, machine-checked.

Five PRs of serving-stack work rest on conventions nothing enforced —
until now.  This package is a small AST-based lint framework
(:class:`Rule` / :class:`Finding` / :class:`Analyzer`, with
``# repro-lint: disable=RLxxx -- reason`` suppression comments and a
``python -m repro.analysis`` / ``repro-lint`` CLI) plus the rule set
encoding the real invariants:

* **RL001 lock discipline** — attributes declared with
  :func:`~repro.core.annotations.guarded_by` mutate only under the
  writer side of the RWLock; public ``search*`` entry points take the
  reader side.
* **RL002 metrics vocabulary** — every literal/f-string metric name
  recorded into a :class:`~repro.obs.MetricsRegistry` matches
  :mod:`repro.obs.vocabulary` (name *and* instrument kind).
* **RL003 dtype discipline** — no dtype-less numpy allocations and no
  unannotated float64 coercions inside the dtype-preserving kernel
  packages (``repro.linalg`` / ``repro.ann`` / ``repro.vectordb`` /
  ``repro.core.exhaustive``).
* **RL004 concurrency hygiene** — no raw ``threading.Lock`` beside an
  RWLock, no ``except Exception: pass``, no mutable class defaults.
* **RL005 executor construction** — raw ``ThreadPoolExecutor`` only
  inside :mod:`repro.exec`; every other parallel site runs on the
  engine's :class:`~repro.exec.ExecutionBackend`.
* **RL006 raw array persistence** — ``np.save`` / ``np.load`` /
  ``np.memmap`` and friends only inside :mod:`repro.storage`; every
  other persistence path goes through the checksummed, atomically
  committed segment snapshot layer.

The flow rules (:mod:`repro.analysis.flowrules`) add a project-wide
call graph (:mod:`repro.analysis.callgraph`) and per-function CFGs with
a forward dataflow solver (:mod:`repro.analysis.flow`):

* **RL007 interprocedural lock discipline** — every path into a
  function annotated :func:`~repro.core.annotations.requires_lock`
  holds the right lock side, resolved through the call graph across
  modules; un-annotated intermediate frames get a propagation
  suggestion.
* **RL008 event-loop hygiene** — no blocking call (``time.sleep``,
  file/storage I/O, lock acquisition, GEMM-sized linalg entry points,
  ``ExecutionBackend.map``) reachable from an ``async def`` body in
  :mod:`repro.serving` without an executor hop.
* **RL009 buffer/resource lifecycle** — every
  ``MappedBuffer``/``SegmentWriter`` acquisition
  reaches close/release/commit/context-exit on all CFG paths,
  including exceptional edges.
* **RL010 generation monotonicity** — fields declared
  :func:`~repro.core.annotations.monotonic` are only written via
  increment-or-publish, under the writer lock.

The runtime complement lives in :mod:`repro.sanitize`:
``REPRO_SANITIZE=1`` arms operand guards and the
:class:`~repro.core.lifecycle.InstrumentedRWLock`; ``REPRO_SANITIZE=2``
additionally arms the Eraser-style lockset race detector in
:mod:`repro.sanitize.lockset`.
"""

from repro.analysis.framework import (
    Analyzer,
    FileReport,
    Finding,
    ProjectRule,
    Report,
    Rule,
    RunResult,
    RunStats,
    SourceModule,
    SuppressionRecord,
)
from repro.analysis.rules import default_rules

__all__ = [
    "Analyzer",
    "FileReport",
    "Finding",
    "ProjectRule",
    "Report",
    "Rule",
    "RunResult",
    "RunStats",
    "SourceModule",
    "SuppressionRecord",
    "default_rules",
]
