import ast
import os
import subprocess
import sys
from pathlib import Path

import adaptivecc


def test_import_needs_no_numpy():
    # The package has no runtime dependencies; importing it must not pull
    # numpy back in through any module.
    src = str(Path(adaptivecc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import adaptivecc, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        timeout=60,
    )


def test_every_public_name_resolves():
    # `from adaptivecc import *` fails on any stale __all__ entry.
    missing = [name for name in adaptivecc.__all__ if not hasattr(adaptivecc, name)]
    assert not missing, missing


def test_single_threaded_layers_import_no_threading():
    # The engine, its lock manager and its escrow ledger are single-threaded
    # by contract; only the Store keeps a mutex.
    package = Path(adaptivecc.__file__).resolve().parent
    for module in ("engine", "locks", "semantic"):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "threading" for name in names), module
