"""The README's library quick start runs as written against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUICK_START = re.compile(r"## Quick start \(library\)\n.*?```python\n(.*?)```", re.S)


def test_quick_start_block_runs(tmp_path):
    match = QUICK_START.search((ROOT / "README.md").read_text())
    assert match, "README has no ```python block under 'Quick start (library)'"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", match.group(1)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
