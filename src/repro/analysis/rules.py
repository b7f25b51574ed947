"""The repo's invariants as lint rules (RL001-RL006).

Each rule encodes a convention the serving stack's correctness actually
rests on; the module docstring of :mod:`repro.analysis` has the index.
Rules are deliberately syntactic — they read the AST, never import the
code under analysis — so the linter runs on any tree, including broken
checkouts, and cannot be fooled by import-time side effects.

The flow-sensitive rules (RL009/RL010) and the interprocedural project
rules (RL007/RL008) live in :mod:`repro.analysis.flowrules`; the local
pair joins :func:`default_rules` here so they share the per-file cache.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.framework import Finding, Rule, SourceModule
from repro.obs import vocabulary

__all__ = [
    "ConcurrencyHygieneRule",
    "DtypeDisciplineRule",
    "ExecutorConstructionRule",
    "LockDisciplineRule",
    "MetricsVocabularyRule",
    "RawArrayPersistenceRule",
    "default_rules",
]


def default_rules() -> "tuple[Rule, ...]":
    """The shipped per-module rule set, in id order."""
    from repro.analysis.flowrules import (
        GenerationMonotonicityRule,
        ResourceLifecycleRule,
    )

    return (
        LockDisciplineRule(),
        MetricsVocabularyRule(),
        DtypeDisciplineRule(),
        ConcurrencyHygieneRule(),
        ExecutorConstructionRule(),
        RawArrayPersistenceRule(),
        ResourceLifecycleRule(),
        GenerationMonotonicityRule(),
    )


def _decorator_call(node: ast.expr) -> "tuple[str, ast.Call] | None":
    """(name, call) when a decorator is a simple/attribute call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id, node
    if isinstance(func, ast.Attribute):
        return func.attr, node
    return None


def _const_str(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_self_attr(node: ast.expr, attr: str | None = None) -> bool:
    """``self.<attr>`` (any attribute when ``attr`` is None)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


class LockDisciplineRule(Rule):
    """RL001: ``@guarded_by`` attributes mutate only under the writer lock.

    A class decorated ``@guarded_by("<lock>", "<attr>", ...)`` declares
    that the named ``self`` attributes are protected by the RWLock at
    ``self.<lock>``.  The rule then enforces, per method:

    * any assignment / augmented assignment / delete / known mutating
      call (``.clear()``, ``.append()``, subscript stores, ...) on a
      guarded attribute must sit inside a ``with self.<lock>.write():``
      block, or in a method declared ``@requires_lock("write")``
      (``__init__`` is construction and exempt);
    * public ``search*`` entry points must take the reader (or writer)
      side of the lock somewhere in their body, unless they declare
      ``@requires_lock`` themselves.
    """

    rule_id = "RL001"
    title = "lock discipline on @guarded_by state"

    _MUTATORS = frozenset(
        {
            "add",
            "append",
            "clear",
            "discard",
            "extend",
            "insert",
            "pop",
            "popitem",
            "remove",
            "setdefault",
            "update",
        }
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module: SourceModule, cls: ast.ClassDef) -> Iterator[Finding]:
        guarded = self._guarded_decl(cls)
        if guarded is None:
            return
        lock_attr, attrs = guarded
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            mode = self._requires_lock(item)
            if item.name != "__init__":
                yield from self._check_mutations(
                    module, item, lock_attr, attrs, held_write=(mode == "write")
                )
            if (
                item.name.startswith("search")
                and not item.name.startswith("_")
                and mode is None
                and not self._takes_lock(item, lock_attr)
            ):
                yield self.finding(
                    module,
                    item,
                    f"public search entry point {item.name}() never takes "
                    f"self.{lock_attr}.read() — a concurrent delta can tear the "
                    "state it reads",
                )

    @staticmethod
    def _guarded_decl(cls: ast.ClassDef) -> "tuple[str, frozenset[str]] | None":
        for decorator in cls.decorator_list:
            named = _decorator_call(decorator)
            if named is None or named[0] != "guarded_by":
                continue
            args = [_const_str(a) for a in named[1].args]
            if not args or args[0] is None:
                continue
            return args[0], frozenset(a for a in args[1:] if a is not None)
        return None

    @staticmethod
    def _requires_lock(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> str | None:
        for decorator in func.decorator_list:
            named = _decorator_call(decorator)
            if named is not None and named[0] == "requires_lock" and named[1].args:
                return _const_str(named[1].args[0])
        return None

    @staticmethod
    def _is_lock_enter(node: ast.withitem, lock_attr: str, sides: Sequence[str]) -> bool:
        """``self.<lock_attr>.read()`` / ``.write()`` as a with-item."""
        ctx = node.context_expr
        return (
            isinstance(ctx, ast.Call)
            and isinstance(ctx.func, ast.Attribute)
            and ctx.func.attr in sides
            and _is_self_attr(ctx.func.value, lock_attr)
        )

    def _takes_lock(
        self, func: "ast.FunctionDef | ast.AsyncFunctionDef", lock_attr: str
    ) -> bool:
        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                self._is_lock_enter(item, lock_attr, ("read", "write"))
                for item in node.items
            ):
                return True
        return False

    def _check_mutations(
        self,
        module: SourceModule,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        lock_attr: str,
        attrs: frozenset[str],
        held_write: bool,
    ) -> Iterator[Finding]:
        yield from self._walk_block(module, func.body, lock_attr, attrs, held_write)

    def _walk_block(
        self,
        module: SourceModule,
        body: Sequence[ast.stmt],
        lock_attr: str,
        attrs: frozenset[str],
        held: bool,
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner_held = held or any(
                    self._is_lock_enter(item, lock_attr, ("write",))
                    for item in stmt.items
                )
                yield from self._walk_block(module, stmt.body, lock_attr, attrs, inner_held)
                continue
            # Nested defs get their own discipline; don't descend.
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not held:
                yield from self._mutations_in(module, stmt, attrs)
            # Recurse into compound statements' nested blocks.
            for block_field in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, block_field, None)
                if isinstance(nested, list) and nested and isinstance(nested[0], ast.stmt):
                    yield from self._walk_block(module, nested, lock_attr, attrs, held)
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._walk_block(module, handler.body, lock_attr, attrs, held)

    def _mutations_in(
        self, module: SourceModule, stmt: ast.stmt, attrs: frozenset[str]
    ) -> Iterator[Finding]:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            attr = self._guarded_target(target, attrs)
            if attr is not None:
                yield self.finding(
                    module,
                    stmt,
                    f"self.{attr} is declared @guarded_by but is mutated outside "
                    "the writer lock",
                )
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in self._MUTATORS
                and isinstance(call.func.value, ast.Attribute)
                and _is_self_attr(call.func.value)
                and call.func.value.attr in attrs
            ):
                yield self.finding(
                    module,
                    stmt,
                    f"self.{call.func.value.attr}.{call.func.attr}() mutates "
                    "@guarded_by state outside the writer lock",
                )

    @staticmethod
    def _guarded_target(target: ast.expr, attrs: frozenset[str]) -> str | None:
        if isinstance(target, ast.Attribute) and _is_self_attr(target) and target.attr in attrs:
            return target.attr
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute) and _is_self_attr(base) and base.attr in attrs:
                return base.attr
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                found = LockDisciplineRule._guarded_target(element, attrs)
                if found is not None:
                    return found
        return None


class MetricsVocabularyRule(Rule):
    """RL002: metric names must be in the declared vocabulary.

    Every literal or f-string first argument of a
    ``metrics.counter/gauge/histogram/timer(...)`` call is checked
    against :data:`repro.obs.vocabulary.VOCABULARY` — including that
    the instrument kind agrees (a gauge name recorded through
    ``counter()`` is drift even though the name exists).  F-string
    interpolations are treated as wildcards that any declared
    ``{placeholder}`` accepts, so ``f"{self.name}.scan"`` passes and
    ``f"{self.name}.sacn"`` fails.  Dynamic (non-literal) names are
    skipped — they cannot be checked syntactically.
    """

    rule_id = "RL002"
    title = "metric names stay inside the declared vocabulary"

    _REGISTRY_CALLS = frozenset({"counter", "gauge", "histogram", "timer"})

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in self._REGISTRY_CALLS:
                continue
            if not self._is_metrics_receiver(func.value):
                continue
            template = self._name_template(node.args[0])
            if template is None:
                continue
            if not vocabulary.matches(template, call_kind=func.attr):
                shown = template.replace(vocabulary.WILDCARD, "{…}")
                yield self.finding(
                    module,
                    node,
                    f"metric name {shown!r} (via .{func.attr}()) is not in the "
                    "declared vocabulary — fix the name or declare it in "
                    "repro/obs/vocabulary.py",
                )

    @staticmethod
    def _is_metrics_receiver(node: ast.expr) -> bool:
        """``metrics.…`` or ``<anything>.metrics.…``."""
        if isinstance(node, ast.Name):
            return node.id == "metrics"
        if isinstance(node, ast.Attribute):
            return node.attr == "metrics"
        return False

    @staticmethod
    def _name_template(node: ast.expr) -> str | None:
        literal = _const_str(node)
        if literal is not None:
            return literal
        if isinstance(node, ast.JoinedStr):
            parts: list[str] = []
            for value in node.values:
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    parts.append(value.value)
                else:
                    parts.append(vocabulary.WILDCARD)
            return "".join(parts)
        return None


class DtypeDisciplineRule(Rule):
    """RL003: no silent float64 in the dtype-preserving kernel packages.

    Inside ``repro.linalg``, ``repro.ann``, ``repro.vectordb`` and
    ``repro.core.exhaustive`` — the packages that promise float32
    stores pay float32 bandwidth end to end — the rule flags:

    * ``np.asarray`` / ``np.zeros`` / ``np.empty`` / ``np.array``
      without an explicit dtype (``zeros``/``empty`` silently allocate
      float64; dtype-less ``asarray`` hides whether preservation is
      intended);
    * literal float64 coercions: ``.astype(np.float64)`` and
      ``dtype=np.float64`` keywords.

    Deliberate float64 state (accumulators like the ExS weight vector,
    PQ's training pipeline) is *annotated* with a suppression comment
    carrying the reason, not rewritten.
    """

    rule_id = "RL003"
    title = "dtype discipline in the numeric kernel packages"

    _SCOPES = (
        "repro/linalg/",
        "repro/ann/",
        "repro/vectordb/",
        "repro/core/exhaustive.py",
    )
    _ALLOC_CALLS = frozenset({"asarray", "zeros", "empty", "array"})

    def check(self, module: SourceModule) -> Iterator[Finding]:
        posix = module.posix_path
        if not any(scope in posix for scope in self._SCOPES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._ALLOC_CALLS
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
                and not self._has_explicit_dtype(node)
            ):
                yield self.finding(
                    module,
                    node,
                    f"np.{func.attr}() without an explicit dtype= (silently "
                    "float64 / hides intent) in a dtype-preserving package",
                )
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "astype"
                and node.args
                and self._is_np_float64(node.args[0])
            ):
                yield self.finding(
                    module,
                    node,
                    "literal .astype(np.float64) coercion in a dtype-preserving "
                    "package — preserve the storage dtype or annotate why not",
                )
            for keyword in node.keywords:
                if keyword.arg == "dtype" and self._is_np_float64(keyword.value):
                    yield self.finding(
                        module,
                        keyword.value,
                        "literal dtype=np.float64 in a dtype-preserving package — "
                        "derive the dtype from the store or annotate why not",
                    )

    @staticmethod
    def _has_explicit_dtype(call: ast.Call) -> bool:
        # dtype is the second positional parameter of all four callables.
        return len(call.args) >= 2 or any(k.arg == "dtype" for k in call.keywords)

    @staticmethod
    def _is_np_float64(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "float64"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )


class ConcurrencyHygieneRule(Rule):
    """RL004: concurrency and error-handling hygiene.

    * a class whose ``__init__`` stores an ``RWLock`` must not also
      stash a raw ``threading.Lock()`` — two lock hierarchies on one
      object invite ordering deadlocks (suppress with a reason when the
      second lock provably guards disjoint state);
    * ``except Exception: pass`` (and bare ``except: pass``) swallows
      programming errors silently;
    * mutable class-level defaults (list/dict/set literals) are shared
      across instances.
    """

    rule_id = "RL004"
    title = "concurrency and error-handling hygiene"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_lock_mix(module, node)
                yield from self._check_class_defaults(module, node)
            elif isinstance(node, ast.ExceptHandler):
                yield from self._check_swallow(module, node)

    def _check_lock_mix(self, module: SourceModule, cls: ast.ClassDef) -> Iterator[Finding]:
        init = next(
            (
                item
                for item in cls.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ),
            None,
        )
        if init is None:
            return
        rwlock_found = False
        raw_locks: list[ast.stmt] = []
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign):
                continue
            # Walk the whole RHS: conditional constructions like
            # ``InstrumentedRWLock() if sanitize else RWLock()`` count.
            for call in ast.walk(stmt.value):
                if not isinstance(call, ast.Call):
                    continue
                callee = call.func
                name = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else callee.attr
                    if isinstance(callee, ast.Attribute)
                    else None
                )
                if name in ("RWLock", "InstrumentedRWLock"):
                    rwlock_found = True
                elif name == "Lock" or (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in ("Lock", "RLock")
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "threading"
                ):
                    raw_locks.append(stmt)
        if rwlock_found:
            for stmt in raw_locks:
                yield self.finding(
                    module,
                    stmt,
                    f"raw threading lock on class {cls.name}, which already carries "
                    "an RWLock — route shared state through the RWLock, or suppress "
                    "with the reason the two locks guard disjoint state",
                )

    def _check_class_defaults(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, (ast.List, ast.Dict, ast.Set)
            ):
                yield self.finding(
                    module,
                    stmt,
                    f"mutable class-level default on {cls.name} is shared across "
                    "every instance — assign it in __init__",
                )

    def _check_swallow(
        self, module: SourceModule, handler: ast.ExceptHandler
    ) -> Iterator[Finding]:
        broad = handler.type is None or (
            isinstance(handler.type, ast.Name) and handler.type.id == "Exception"
        )
        only_pass = all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in handler.body
        )
        if broad and only_pass:
            caught = "bare except" if handler.type is None else "except Exception"
            yield self.finding(
                module,
                handler,
                f"{caught}: pass swallows every error silently — narrow the "
                "exception, handle it, or log and re-raise",
            )


class ExecutorConstructionRule(Rule):
    """RL005: thread pools are constructed only in ``repro.exec``.

    Every parallel site runs on an
    :class:`~repro.exec.ExecutionBackend`; a raw ``ThreadPoolExecutor``
    constructed anywhere else resurrects the per-call pool churn the
    execution layer exists to end — pools that
    are born and torn down per batch, invisible to ``exec.*`` metrics
    and to the engine's ``close()`` lifecycle.  Use
    ``resolve_backend()`` / the injected ``executor`` instead; a
    deliberate exception carries a suppression comment with its reason.
    """

    rule_id = "RL005"
    title = "thread pools constructed only in repro.exec"

    _POOLS = frozenset({"ThreadPoolExecutor"})
    _HOME = "repro/exec/"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if self._HOME in module.posix_path:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name in self._POOLS:
                yield self.finding(
                    module,
                    node,
                    f"raw {name} constructed outside repro.exec — run this "
                    "on the ExecutionBackend (resolve_backend() or the "
                    "injected executor) so pools are persistent, metered "
                    "and closed with the engine",
                )


class RawArrayPersistenceRule(Rule):
    """RL006: raw numpy array I/O happens only in ``repro.storage``.

    Persistence goes through the segment snapshot layer — checksummed
    payloads, atomic manifest commits, mmap-able raw bytes.  A stray
    ``np.save`` / ``np.load`` / ``np.memmap`` anywhere else creates a
    file no digest covers and no manifest commits: a torn write there
    surfaces as garbage rankings, not a
    :class:`~repro.errors.StorageError`.  Use
    :class:`~repro.storage.SegmentWriter` / ``open_snapshot()`` instead
    (``repro.storage.migrate`` alone reads retired numpy archives); a
    deliberate exception carries a suppression comment with its reason.
    """

    rule_id = "RL006"
    title = "raw numpy array I/O only in repro.storage"

    _CALLS = frozenset({"save", "savez", "savez_compressed", "load", "memmap"})
    _HOME = "repro/storage/"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if self._HOME in module.posix_path:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in self._CALLS
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
            ):
                continue
            yield self.finding(
                module,
                node,
                f"np.{func.attr}() outside repro.storage — persist through "
                "SegmentWriter/open_snapshot (checksummed, atomically "
                "committed, mmap-able) so a torn write raises StorageError "
                "instead of scoring garbage",
            )
