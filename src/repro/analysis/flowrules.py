"""Flow-sensitive and interprocedural rules (RL007-RL010).

These rules ride on :mod:`repro.analysis.callgraph` (project-wide,
name-based call resolution) and :mod:`repro.analysis.flow` (per-function
CFGs + a forward dataflow solver):

* **RL007** — interprocedural lock discipline: every call into a
  function annotated ``@requires_lock("read"/"write")`` must come from
  a context that holds the right lock side — an enclosing
  ``with <lock>.read()/.write():`` block, or a caller itself annotated
  at least as strongly.  The obligation propagates *up* the call graph:
  the fix is either to take the lock at the call site or to annotate
  the calling function and push the obligation to *its* callers.
* **RL008** — event-loop hygiene: nothing blocking (``time.sleep``,
  file/storage I/O, lifecycle-lock acquisition, GEMM-sized linear
  algebra, ``ExecutionBackend.map``) may be reachable from an
  ``async def`` body in :mod:`repro.serving` without an executor hop
  (``submit``/``run_in_executor``/``to_thread`` — and bare function
  references passed as arguments never create call edges, so executor
  dispatch breaks the path automatically).
* **RL009** — buffer/resource lifecycle: every acquisition of a
  ``MappedBuffer``/``SegmentWriter`` handle must reach
  a ``close()``/``release()``/``commit()``/context-manager exit on all
  CFG paths, *including exceptional edges* (``SegmentWriter`` is exempt
  on exceptional paths: an uncommitted segment is crash-safe by
  design — readers never see it).
* **RL010** — generation monotonicity: fields declared via
  ``@monotonic("field", ...)`` may only be written as an increment
  (``+= <positive literal>``) or a publish derived from the field's own
  prior value, and only under the writer lock.

RL007/RL008 are :class:`~repro.analysis.framework.ProjectRule`\\ s (they
need the whole call graph); RL009/RL010 are per-module rules and join
:func:`repro.analysis.rules.default_rules`, so they participate in the
per-file analysis cache.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Iterator, Mapping, Sequence

from repro.analysis.callgraph import CallGraph, CallSite, FunctionInfo
from repro.analysis.flow import CFG, build_cfg, solve_forward
from repro.analysis.framework import Finding, ProjectRule, Rule, SourceModule

__all__ = [
    "EventLoopHygieneRule",
    "GenerationMonotonicityRule",
    "InterproceduralLockRule",
    "ResourceLifecycleRule",
    "default_project_rules",
]

_MODE_RANK: Mapping[str, int] = {"read": 1, "write": 2}


def default_project_rules() -> "tuple[ProjectRule, ...]":
    """The shipped project (call-graph) rule set, in id order."""
    return (InterproceduralLockRule(), EventLoopHygieneRule())


def _satisfies(held: str | None, required: str) -> bool:
    return held is not None and _MODE_RANK[held] >= _MODE_RANK[required]


class InterproceduralLockRule(ProjectRule):
    """RL007: calls into ``@requires_lock`` functions must hold the lock.

    Resolution is conservative about name collisions: a call is only
    checked when every *annotated* definition of the callee name agrees
    on one mode (``self.m()`` resolving to the caller's own class uses
    that definition directly).  Unannotated same-name definitions in
    unrelated classes neither trigger nor veto the check.
    """

    rule_id = "RL007"
    title = "interprocedural lock discipline (@requires_lock through the call graph)"

    def check_project(self, graph: CallGraph) -> Iterator[Finding]:
        for caller in graph.functions:
            for call in caller.calls:
                required = self._required_mode(graph, caller, call)
                if required is None:
                    continue
                if _satisfies(call.lock_ctx, required):
                    continue
                if _satisfies(caller.requires_lock, required):
                    continue
                yield self.finding_at(
                    caller.module,
                    call.line,
                    call.col,
                    f"call to {call.name}() requires the {required} side of the "
                    f"federation lock, but {caller.qualname} holds "
                    f"{'only the ' + call.lock_ctx + ' side' if call.lock_ctx else 'no lock'} "
                    f"here; wrap the call in `with <lock>.{required}():` or annotate "
                    f"{caller.qualname} with @requires_lock({required!r}) to move the "
                    "obligation to its callers",
                )

    @staticmethod
    def _required_mode(
        graph: CallGraph, caller: FunctionInfo, call: CallSite
    ) -> str | None:
        if call.receiver == "self":
            own = graph.class_method(caller, call.name)
            if own is not None:
                return own.requires_lock
        candidates = graph.resolve(caller, call)
        annotated = {c.requires_lock for c in candidates if c.requires_lock}
        if len(annotated) != 1:
            # Nothing annotated, or annotated defs disagree (a name
            # collision across unrelated classes): stay silent.
            return None
        return next(iter(annotated))


#: Call names that hand work to an executor — the path leaves the loop.
_EXECUTOR_HOPS = frozenset({"submit", "run_in_executor", "to_thread"})

#: Callee names never traversed: shutdown/teardown may block by design.
_SHUTDOWN_EXEMPT = frozenset({"close", "shutdown", "aclose"})

#: Attribute calls that block regardless of receiver.
_BLOCKING_ATTR_CALLS = frozenset(
    {
        "open_snapshot",
        "save_index",
        "load_index",
        "save_federation_embeddings",
        "load_federation_embeddings",
        "read_text",
        "read_bytes",
        "write_text",
        "write_bytes",
        "acquire_read",
        "acquire_write",
        "map",
        "cosine_similarity",
        "gemm_candidates",
        "rowwise_scores",
        "segment_scores",
        "adc_scores_batch",
        "search",
        "search_batch",
    }
)

#: Lock-entry names that block only when used as a ``with`` item.
_BLOCKING_WITH_ITEMS = frozenset({"read", "write"})

#: Bare (imported-name) calls that block: the GEMM entry points and the
#: module-level storage round-trips are imported, not attribute calls.
_BLOCKING_BARE_CALLS = frozenset(
    {
        "cosine_similarity",
        "gemm_candidates",
        "rowwise_scores",
        "segment_scores",
        "adc_scores_batch",
        "open_snapshot",
        "save_federation_embeddings",
        "load_federation_embeddings",
    }
)

#: Receivers whose calls never block and never create edges: the
#: lockset tracker's hooks (``lockset.write`` would otherwise resolve,
#: by name, to ``RWLock.write``).
_INERT_RECEIVERS = frozenset({"lockset"})


def _blocking_reason(call: CallSite) -> str | None:
    """Why this call site blocks the event loop, or None."""
    if call.name == "sleep" and call.receiver == "time":
        return "time.sleep()"
    if call.bare:
        if call.name == "open":
            return "open()"
        if call.name in _BLOCKING_BARE_CALLS:
            return f"{call.name}()"
        return None
    if call.receiver in _INERT_RECEIVERS:
        return None
    if call.in_withitem and call.name in _BLOCKING_WITH_ITEMS:
        return f"blocking lock acquisition .{call.name}()"
    if call.name in _BLOCKING_ATTR_CALLS:
        return f".{call.name}()"
    return None


class EventLoopHygieneRule(ProjectRule):
    """RL008: no blocking call reachable from async serving code.

    BFS over the call graph from every ``async def`` defined under
    ``repro/serving/``.  Edges through executor dispatch
    (:data:`_EXECUTOR_HOPS`, and bare callable references passed as
    arguments — which produce no call edge at all) do not propagate;
    shutdown paths (:data:`_SHUTDOWN_EXEMPT`) are exempt.  Findings
    anchor at the call site *inside the async function* that starts the
    blocking path, which is also where a suppression belongs.
    """

    rule_id = "RL008"
    title = "event-loop hygiene (no blocking calls reachable from async serving code)"

    def check_project(self, graph: CallGraph) -> Iterator[Finding]:
        for root in graph.functions:
            if not root.is_async or "repro/serving/" not in root.module:
                continue
            yield from self._check_root(graph, root)

    def _check_root(self, graph: CallGraph, root: FunctionInfo) -> Iterator[Finding]:
        # Queue frames: (function, anchor call-site in the root, path).
        queue: "deque[tuple[FunctionInfo, CallSite | None, tuple[str, ...]]]"
        queue = deque([(root, None, (root.qualname,))])
        visited: set[tuple[str, str]] = {(root.module, root.qualname)}
        reported: set[str] = set()
        while queue:
            func, anchor, path = queue.popleft()
            for call in func.calls:
                if call.name in _SHUTDOWN_EXEMPT or call.name in _EXECUTOR_HOPS:
                    continue
                if call.receiver in _INERT_RECEIVERS:
                    continue
                reason = _blocking_reason(call)
                if reason is not None and reason not in reported:
                    reported.add(reason)
                    site = anchor or call
                    via = " -> ".join(path + (reason,))
                    yield self.finding_at(
                        root.module,
                        site.line,
                        site.col,
                        f"async {root.qualname} can reach blocking {reason} "
                        f"(path: {via}); dispatch through the executor "
                        "(run_in_executor / backend.submit) or make the path async",
                    )
                if reason is not None:
                    continue
                for callee in graph.resolve(func, call):
                    key = (callee.module, callee.qualname)
                    if key in visited or callee.is_async:
                        continue
                    visited.add(key)
                    queue.append((callee, anchor or call, path + (callee.qualname,)))


#: ``Classname.classmethod`` acquisition constructors, by class.
_BUFFER_CONSTRUCTORS: Mapping[str, frozenset[str]] = {
    "MappedBuffer": frozenset({"from_file"}),
}

#: Receiver-independent acquisition methods (always yield a new handle).
_BUFFER_METHODS = frozenset({"mapped"})

#: Methods that release/retire a tracked handle.
_RELEASE_METHODS = frozenset({"close", "release", "commit", "abort", "unlink"})


def _acquisition_kind(call: ast.Call) -> str | None:
    """'buffer' / 'writer' when the call acquires a tracked resource."""
    func = call.func
    if isinstance(func, ast.Name):
        return "writer" if func.id == "SegmentWriter" else None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "SegmentWriter":  # pragma: no cover - module-qualified
        return "writer"
    if isinstance(func.value, ast.Name) and func.attr in _BUFFER_CONSTRUCTORS.get(
        func.value.id, frozenset()
    ):
        return "buffer"
    if isinstance(func.value, ast.Attribute) and func.attr in _BUFFER_CONSTRUCTORS.get(
        func.value.attr, frozenset()
    ):
        return "buffer"
    if func.attr in _BUFFER_METHODS:
        return "buffer"
    if func.attr == "SegmentWriter":
        return "writer"
    return None


def _walk_functions(
    tree: ast.Module,
) -> "Iterator[ast.FunctionDef | ast.AsyncFunctionDef]":
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class ResourceLifecycleRule(Rule):
    """RL009: acquired buffers/writers must be released on every path."""

    rule_id = "RL009"
    title = "buffer/segment lifecycle (handles released on all CFG paths)"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in _walk_functions(module.tree):
            yield from self._check_function(module, func)

    def _check_function(
        self, module: SourceModule, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Finding]:
        tracked = self._tracked_vars(func)
        discarded = self._discarded_acquisitions(func)
        for call in discarded:
            yield self.finding(
                module,
                call,
                "acquired handle is discarded immediately — nothing can ever "
                "release it; bind it and close it, or use a with block",
            )
        if not tracked:
            return
        cfg = build_cfg(func)
        names = frozenset(tracked)

        def transfer(node: int, state: frozenset[str]) -> frozenset[str]:
            stmt = cfg.nodes[node]
            gen, kill = self._gen_kill(stmt, names)
            return (state - kill) | gen

        def exc_transfer(node: int, state: frozenset[str]) -> frozenset[str]:
            # If the statement raised, its acquisition never bound, but
            # a best-effort release still counts as released.
            stmt = cfg.nodes[node]
            _, kill = self._gen_kill(stmt, names)
            return state - kill

        states = solve_forward(cfg, transfer, exc_transfer=exc_transfer)
        for var in sorted(states.get(CFG.EXIT, frozenset())):
            kind, line, col = tracked[var]
            yield Finding(
                rule_id=self.rule_id,
                path=module.path,
                line=line,
                col=col,
                message=(
                    f"{kind} handle {var!r} acquired here may never be "
                    "released: a path reaches the end of the function without "
                    f"calling {var}.close()/.release()/.commit(); release in a "
                    "finally block or use a with block"
                ),
            )
        exc_live = states.get(CFG.EXC_EXIT, frozenset()) - states.get(
            CFG.EXIT, frozenset()
        )
        for var in sorted(exc_live):
            kind, line, col = tracked[var]
            if kind == "writer":
                # An uncommitted SegmentWriter is crash-safe by design:
                # readers never observe it, so exceptional leaks are
                # cheap (a temp file) and deliberate.
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=module.path,
                line=line,
                col=col,
                message=(
                    f"{kind} handle {var!r} acquired here leaks if an "
                    "exception escapes before it is released; wrap the use in "
                    "try/finally or a with block"
                ),
            )

    @staticmethod
    def _tracked_vars(
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> dict[str, tuple[str, int, int]]:
        """Vars bound to an acquisition that never escape the function."""
        acquired: dict[str, tuple[str, int, int]] = {}
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
                kind = _acquisition_kind(node.value)
                if kind is not None:
                    acquired[target.id] = (kind, node.lineno, node.col_offset)
        if not acquired:
            return {}
        escaped = ResourceLifecycleRule._escaped_names(func, set(acquired))
        return {k: v for k, v in acquired.items() if k not in escaped}

    @staticmethod
    def _escaped_names(
        func: "ast.FunctionDef | ast.AsyncFunctionDef", candidates: set[str]
    ) -> set[str]:
        """Names whose handle leaves the function's hands.

        A handle escapes when it is passed as an argument (someone else
        may own it now), stored into an attribute/subscript/another
        name, put in a container literal, or returned/yielded — tracking
        stops, the owner is elsewhere.  Calling a method *on* the handle
        (``buf.close()``, ``buf.view()``) is not an escape.
        """
        escaped: set[str] = set()

        def name_of(expr: ast.expr) -> str | None:
            return expr.id if isinstance(expr, ast.Name) else None

        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if (n := name_of(arg)) in candidates:
                        escaped.add(n)  # type: ignore[arg-type]
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None:
                    for sub in ast.walk(node.value):
                        if (n := name_of(sub)) in candidates:
                            escaped.add(n)  # type: ignore[arg-type]
            elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                for element in node.elts:
                    if (n := name_of(element)) in candidates:
                        escaped.add(n)  # type: ignore[arg-type]
            elif isinstance(node, ast.Dict):
                for value in node.values:
                    if value is not None and (n := name_of(value)) in candidates:
                        escaped.add(n)  # type: ignore[arg-type]
            elif isinstance(node, ast.Assign):
                # Aliasing (`other = buf`) and stores (`self.x = buf`,
                # `cache[k] = buf`) both show the handle on the value
                # side; target shapes need no separate handling.
                value_name = name_of(node.value)
                if value_name in candidates:
                    escaped.add(value_name)  # type: ignore[arg-type]
        return escaped

    @staticmethod
    def _gen_kill(
        stmt: ast.stmt, names: frozenset[str]
    ) -> tuple[frozenset[str], frozenset[str]]:
        gen: set[str] = set()
        kill: set[str] = set()
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                kill.add(target.id)  # rebinding retires the old handle
                if isinstance(stmt.value, ast.Call) and _acquisition_kind(stmt.value):
                    gen.add(target.id)
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    kill.add(target.id)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ctx = item.context_expr
                if isinstance(ctx, ast.Name) and ctx.id in names:
                    kill.add(ctx.id)  # __exit__ releases it
        # A release call anywhere in the statement frees the handle.
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RELEASE_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in names
            ):
                kill.add(node.func.value.id)
        return frozenset(gen), frozenset(kill)

    @staticmethod
    def _discarded_acquisitions(
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> list[ast.Call]:
        discarded: list[ast.Call] = []
        for stmt in ast.walk(func):
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and _acquisition_kind(stmt.value) is not None
            ):
                discarded.append(stmt.value)
        return discarded


def _monotonic_fields(cls: ast.ClassDef) -> frozenset[str]:
    fields: set[str] = set()
    for decorator in cls.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = None
        if isinstance(decorator.func, ast.Name):
            name = decorator.func.id
        elif isinstance(decorator.func, ast.Attribute):
            name = decorator.func.attr
        if name != "monotonic":
            continue
        for arg in decorator.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                fields.add(arg.value)
    return frozenset(fields)


def _method_requires_write(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    for decorator in func.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, (ast.Name, ast.Attribute))
            and (
                decorator.func.id
                if isinstance(decorator.func, ast.Name)
                else decorator.func.attr
            )
            == "requires_lock"
            and decorator.args
            and isinstance(decorator.args[0], ast.Constant)
            and decorator.args[0].value == "write"
        ):
            return True
    return False


def _is_write_lock_item(item: ast.withitem) -> bool:
    ctx = item.context_expr
    return (
        isinstance(ctx, ast.Call)
        and isinstance(ctx.func, ast.Attribute)
        and ctx.func.attr == "write"
    )


class GenerationMonotonicityRule(Rule):
    """RL010: ``@monotonic`` fields only move forward, under the writer lock."""

    rule_id = "RL010"
    title = "generation monotonicity (@monotonic fields: increment-or-publish, write-locked)"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                fields = _monotonic_fields(node)
                if fields:
                    yield from self._check_class(module, node, fields)

    def _check_class(
        self, module: SourceModule, cls: ast.ClassDef, fields: frozenset[str]
    ) -> Iterator[Finding]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue  # construction establishes the initial value
            locked = _method_requires_write(item)
            yield from self._check_block(module, item.body, fields, locked)

    def _check_block(
        self,
        module: SourceModule,
        stmts: Sequence[ast.stmt],
        fields: frozenset[str],
        locked: bool,
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = locked or any(_is_write_lock_item(i) for i in stmt.items)
                yield from self._check_block(module, stmt.body, fields, inner)
                continue
            field = self._written_field(stmt, fields)
            if field is not None:
                if not locked:
                    yield self.finding(
                        module,
                        stmt,
                        f"monotonic field self.{field} is written outside the "
                        "writer lock; hold `with <lock>.write():` or annotate "
                        "the method with @requires_lock('write')",
                    )
                if not self._is_monotonic_write(stmt, field):
                    yield self.finding(
                        module,
                        stmt,
                        f"monotonic field self.{field} is overwritten with an "
                        "unrelated value; only `+= <positive literal>` or a "
                        "publish derived from its own prior value keeps "
                        "generation counts monotonic",
                    )
            for block_name in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, block_name, None)
                if isinstance(nested, list) and nested and isinstance(nested[0], ast.stmt):
                    yield from self._check_block(module, nested, fields, locked)
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._check_block(module, handler.body, fields, locked)

    @staticmethod
    def _written_field(stmt: ast.stmt, fields: frozenset[str]) -> str | None:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in fields
            ):
                return target.attr
        return None

    @staticmethod
    def _is_monotonic_write(stmt: ast.stmt, field: str) -> bool:
        if isinstance(stmt, ast.AugAssign):
            return (
                isinstance(stmt.op, ast.Add)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, int)
                and stmt.value.value > 0
            )
        value = getattr(stmt, "value", None)
        if value is None:
            return True  # bare annotation, no write
        for node in ast.walk(value):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == field
                and isinstance(node.value, ast.Name)
            ):
                return True  # publish computed from the prior value
        return False
