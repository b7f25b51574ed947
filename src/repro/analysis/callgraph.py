"""Project-wide call-graph extraction for the flow rules.

Each module is summarised once into a :class:`ModuleSummary` — every
function/method with its concurrency annotations, ``async``-ness and
call sites (including the strongest lifecycle-lock ``with`` block each
call sits under).  Summaries are plain data: they serialise to JSON for
the analysis cache, so warm ``repro-lint`` runs rebuild the project
:class:`CallGraph` without re-parsing unchanged files.

Resolution is name-based and deliberately conservative (this is Python:
no types, no linker):

* bare calls (``helper(x)``) resolve within the defining module only;
* ``self.m(...)`` resolves to ``m`` in the caller's own class when the
  class defines it, else to any method named ``m`` project-wide
  (inheritance);
* ``<expr>.m(...)`` resolves to every method named ``m`` in the
  project — over-approximate, which is the right direction for
  reachability rules;
* a *bare function reference* passed as an argument
  (``executor.submit(self._run_batch, ...)``) creates **no** edge: the
  callable crosses an executor boundary, which is exactly the hop
  RL008 treats as leaving the event loop.

Soundness limits — dynamic dispatch through stored callables
(``self._dispatch(...)`` where ``_dispatch`` is a constructor
argument), ``getattr`` indirection and monkey-patching — are
documented in DESIGN.md; the rules built on top are tuned so the
approximation errs toward silence, with suppressions for the rest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from repro.analysis.framework import SourceModule

__all__ = ["CallGraph", "CallSite", "FunctionInfo", "ModuleSummary", "summarize_module"]

#: ``with`` items treated as taking the lifecycle lock, by mode.
_LOCK_ENTER_MODES: Mapping[str, str] = {
    "read": "read",
    "write": "write",
}


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    name: str  #: final identifier: ``m`` for ``x.y.m(...)`` and ``m(...)``
    receiver: str | None  #: dotted receiver text (``self``, ``self.engine``) or None
    line: int
    col: int
    lock_ctx: str | None  #: strongest enclosing lock ``with`` ("read"/"write")
    in_withitem: bool  #: the call is itself a ``with`` item (lock acquisition)

    @property
    def bare(self) -> bool:
        return self.receiver is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "receiver": self.receiver,
            "line": self.line,
            "col": self.col,
            "lock_ctx": self.lock_ctx,
            "in_withitem": self.in_withitem,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CallSite":
        return cls(
            name=data["name"],
            receiver=data["receiver"],
            line=data["line"],
            col=data["col"],
            lock_ctx=data["lock_ctx"],
            in_withitem=data["in_withitem"],
        )


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method, as the flow rules see it."""

    module: str  #: posix path of the defining module
    qualname: str  #: ``Class.method`` / ``func`` / ``outer.<locals>.inner``
    name: str
    cls: str | None
    line: int
    is_async: bool
    requires_lock: str | None
    calls: tuple[CallSite, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "qualname": self.qualname,
            "name": self.name,
            "cls": self.cls,
            "line": self.line,
            "is_async": self.is_async,
            "requires_lock": self.requires_lock,
            "calls": [c.to_dict() for c in self.calls],
        }

    @classmethod
    def from_dict(cls, module: str, data: Mapping[str, Any]) -> "FunctionInfo":
        return cls(
            module=module,
            qualname=data["qualname"],
            name=data["name"],
            cls=data["cls"],
            line=data["line"],
            is_async=data["is_async"],
            requires_lock=data["requires_lock"],
            calls=tuple(CallSite.from_dict(c) for c in data["calls"]),
        )


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the project pass needs to know about one module."""

    path: str  #: posix path
    functions: tuple[FunctionInfo, ...]

    def to_dict(self) -> dict[str, Any]:
        return {"path": self.path, "functions": [f.to_dict() for f in self.functions]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModuleSummary":
        path = data["path"]
        return cls(
            path=path,
            functions=tuple(FunctionInfo.from_dict(path, f) for f in data["functions"]),
        )


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` rendered as text; None for anything non-trivial."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _requires_lock(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> str | None:
    for decorator in func.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        if call is None:
            continue
        name = None
        if isinstance(call.func, ast.Name):
            name = call.func.id
        elif isinstance(call.func, ast.Attribute):
            name = call.func.attr
        if name == "requires_lock" and call.args:
            arg = call.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
    return None


def _withitem_lock_mode(item: ast.withitem) -> str | None:
    """``<expr>.read()`` / ``.write()`` as a with item."""
    ctx = item.context_expr
    if isinstance(ctx, ast.Call) and isinstance(ctx.func, ast.Attribute):
        return _LOCK_ENTER_MODES.get(ctx.func.attr)
    return None


def _strongest(*modes: str | None) -> str | None:
    if "write" in modes:
        return "write"
    if "read" in modes:
        return "read"
    return None


class _FunctionCollector:
    """Collects the call sites of one function body."""

    def __init__(self) -> None:
        self.calls: list[CallSite] = []
        self.nested: list[tuple[ast.AST, str]] = []  # (def node, qual prefix)

    def block(self, stmts: Sequence[ast.stmt], qual: str, ctx: str | None) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.nested.append((stmt, qual))
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = ctx
                for item in stmt.items:
                    self._expr(item.context_expr, ctx, withitem=True)
                    if item.optional_vars is not None:
                        self._expr(item.optional_vars, ctx)
                    inner = _strongest(inner, _withitem_lock_mode(item))
                self.block(stmt.body, qual, inner)
                continue
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self._expr(value, ctx)
                elif isinstance(value, ast.withitem):  # pragma: no cover - handled above
                    self._expr(value.context_expr, ctx, withitem=True)
            for block_name in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, block_name, None)
                if isinstance(nested, list) and nested and isinstance(nested[0], ast.stmt):
                    self.block(nested, qual, ctx)
            for handler in getattr(stmt, "handlers", []) or []:
                if handler.type is not None:
                    self._expr(handler.type, ctx)
                self.block(handler.body, qual, ctx)
            for case in getattr(stmt, "cases", []) or []:
                self.block(case.body, qual, ctx)

    def _expr(self, expr: ast.expr, ctx: str | None, withitem: bool = False) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name, receiver = func.id, None
            elif isinstance(func, ast.Attribute):
                name = func.attr
                receiver = _dotted(func.value) or "<expr>"
            else:
                continue
            self.calls.append(
                CallSite(
                    name=name,
                    receiver=receiver,
                    line=node.lineno,
                    col=node.col_offset,
                    lock_ctx=ctx,
                    in_withitem=withitem and node is expr,
                )
            )


def _collect_function(
    module_path: str,
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
    qualname: str,
    cls: str | None,
) -> Iterator[FunctionInfo]:
    collector = _FunctionCollector()
    collector.block(node.body, qualname, None)
    yield FunctionInfo(
        module=module_path,
        qualname=qualname,
        name=node.name,
        cls=cls,
        line=node.lineno,
        is_async=isinstance(node, ast.AsyncFunctionDef),
        requires_lock=_requires_lock(node),
        calls=tuple(collector.calls),
    )
    for nested, prefix in collector.nested:
        yield from _collect_defs(module_path, nested, f"{prefix}.<locals>", cls)


def _collect_defs(
    module_path: str, node: ast.AST, prefix: str, cls: str | None
) -> Iterator[FunctionInfo]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        qual = f"{prefix}.{node.name}" if prefix else node.name
        yield from _collect_function(module_path, node, qual, cls)
    elif isinstance(node, ast.ClassDef):
        qual = f"{prefix}.{node.name}" if prefix else node.name
        for item in node.body:
            yield from _collect_defs(module_path, item, qual, node.name)


def summarize_module(module: SourceModule) -> ModuleSummary:
    """Extract the call-graph summary of one parsed module."""
    functions: list[FunctionInfo] = []
    for node in module.tree.body:
        functions.extend(_collect_defs(module.posix_path, node, "", None))
    return ModuleSummary(path=module.posix_path, functions=tuple(functions))


class CallGraph:
    """Name-based resolution over every module summary in a run."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.summaries = tuple(summaries)
        self.functions: tuple[FunctionInfo, ...] = tuple(
            f for s in self.summaries for f in s.functions
        )
        self._methods: dict[str, list[FunctionInfo]] = {}
        self._by_class: dict[tuple[str, str, str], FunctionInfo] = {}
        self._module_local: dict[tuple[str, str], list[FunctionInfo]] = {}
        for info in self.functions:
            if info.cls is not None:
                self._methods.setdefault(info.name, []).append(info)
                self._by_class.setdefault((info.module, info.cls, info.name), info)
            else:
                self._module_local.setdefault((info.module, info.name), []).append(info)

    def methods_named(self, name: str) -> Sequence[FunctionInfo]:
        """Every method (class-scoped function) with this bare name."""
        return self._methods.get(name, ())

    def class_method(self, caller: FunctionInfo, name: str) -> FunctionInfo | None:
        """``name`` defined on the caller's own class, if any."""
        if caller.cls is None:
            return None
        return self._by_class.get((caller.module, caller.cls, name))

    def resolve(self, caller: FunctionInfo, call: CallSite) -> Sequence[FunctionInfo]:
        """Candidate callees for one call site (possibly empty)."""
        if call.bare:
            return self._module_local.get((caller.module, call.name), ())
        if call.receiver == "self":
            own = self.class_method(caller, call.name)
            if own is not None:
                return (own,)
        return self.methods_named(call.name)
