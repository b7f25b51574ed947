"""Later changes may not edit ``bench/``, so it may only lean on API the
roadmap keeps: no ``workers=`` / ``fused=``, no process backend, none of
the entry points and loaders slated for removal, no private attribute of
anything but the ledger's own objects.

Run with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import ast
from pathlib import Path

BENCH = Path(__file__).resolve().parent

FORBIDDEN_KEYWORDS = {"workers", "fused", "batch_workers", "vectorized", "shared_buffers"}
FORBIDDEN_NAMES = {
    "search_batch_locked",
    "search_all_methods",
    "read_lock",
    "ProcessBackend",
    "save_federation_embeddings_npz",
    "legacy_npz",
}


def violations(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.keyword):
            if node.arg in FORBIDDEN_KEYWORDS:
                found.append(f"{where} passes {node.arg}=")
            if node.arg == "executor" and isinstance(node.value, ast.Constant) and node.value.value == "process":
                found.append(f'{where} passes executor="process"')
        elif isinstance(node, ast.Attribute):
            name = node.attr
            own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            if name.startswith("_") and not name.endswith("__") and not own:
                found.append(f"{where} reads private attribute .{name}")
            if name in FORBIDDEN_NAMES or "npz" in name:
                found.append(f"{where} uses .{name}")
        elif isinstance(node, ast.Name) and (node.id in FORBIDDEN_NAMES or "npz" in node.id):
            found.append(f"{where} uses {node.id}")
        elif isinstance(node, (ast.ImportFrom, ast.Import)):
            for alias in node.names:
                if alias.name in FORBIDDEN_NAMES or "npz" in alias.name:
                    found.append(f"{where} imports {alias.name}")
    return found


def test_bench_uses_only_roadmap_stable_api():
    found = [v for path in sorted(BENCH.glob("*.py")) for v in violations(path)]
    assert not found, "\n".join(found)


def test_the_scan_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "engine.search_batch(q, workers=2)\n"
        "engine._methods\n"
        "engine.search_all_methods(q)\n"
        'DiscoveryEngine(executor="process")\n',
        encoding="utf-8",
    )
    assert len(violations(bad)) == 4
