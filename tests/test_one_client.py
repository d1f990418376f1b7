"""``ServiceClient`` is the one place ``src/repro`` talks HTTP.

Two static checks beside ``tests/test_docs_paths.py``; what the seam
*does* is in ``tests/service/test_client_seam.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_one_module_opens_urls():
    # The lint rule's table of blocking origins (devtools/lint/classmodel.py)
    # names the function in a string; that is not a call.
    callers = sorted(
        str(path.relative_to(SRC))
        for path in (SRC / "repro").rglob("*.py")
        if "urlopen(" in path.read_text(encoding="utf-8")
    )
    assert callers == ["repro/service/client.py"]


def test_importing_the_analysis_package_leaves_the_http_stack_out():
    script = (
        "import sys; import repro.analysis; "
        "print([m for m in ('urllib.request', 'http.client', 'ssl') "
        "if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
