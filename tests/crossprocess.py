"""Run a test helper in a fresh interpreter.

The library starts no worker processes, yet its answers must not depend
on which process computes them: an engine built in another interpreter,
under another ``PYTHONHASHSEED``, must answer like one built in the test
process.  :func:`run_elsewhere` calls a module-level function in a fresh
``python`` and returns its result.
"""

from __future__ import annotations

import importlib
import os
import pickle
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(repro.__file__).resolve().parents[1]


def run_elsewhere(fn: Callable[..., Any], *args: Any, hash_seed: str = "1") -> Any:
    """``fn(*args)`` in a fresh interpreter under ``PYTHONHASHSEED``
    ``hash_seed``.  ``fn`` must be importable by its module and name;
    arguments and result travel pickled."""
    done = subprocess.run(
        [sys.executable, "-m", "tests.crossprocess", fn.__module__, fn.__qualname__],
        input=pickle.dumps(args),
        capture_output=True,
        cwd=ROOT,
        env={
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join((str(SRC), str(ROOT))),
        },
        timeout=600,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return pickle.loads(done.stdout)


if __name__ == "__main__":
    module, name = sys.argv[1:3]
    call = getattr(importlib.import_module(module), name)
    arguments = pickle.loads(sys.stdin.buffer.read())
    reply = sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not corrupt the reply
    reply.write(pickle.dumps(call(*arguments)))
