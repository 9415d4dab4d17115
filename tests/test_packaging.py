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
