import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


def test_norm_pattern_demo(tmp_path):
    proc = run_script("norm_pattern_demo.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
