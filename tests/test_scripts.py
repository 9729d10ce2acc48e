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


def test_bench_complexity(tmp_path):
    out = tmp_path / "report.csv"
    proc = run_script("bench_complexity.py", "--N", "4", "--Q", "8", "16", "--repetitions", "3", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("N,P,Q,")


def test_norm_pattern_demo(tmp_path):
    proc = run_script("norm_pattern_demo.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
