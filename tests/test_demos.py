"""Every demo script runs to completion from the repository root."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", [
    "01_autodiff_basics.py",
    pytest.param("02_overfit_toy_treebank.py", marks=pytest.mark.slow),
    "03_decoding_anatomy.py",
    "04_serialization_determinism.py",
    pytest.param("05_ablation_small.py", marks=pytest.mark.slow),
])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                            cwd=ROOT, env=env, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stderr
