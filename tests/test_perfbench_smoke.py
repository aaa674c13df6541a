"""The benchmark's smoke test, run as part of the suite.

perfbench/ calls about twenty public names of wildbraid (parse_blocks,
filtration, fission_tree, level_factors, fusion_of, matrix_rank, ...), so a
change that renames or deletes one of them fails here, not only when the
benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
