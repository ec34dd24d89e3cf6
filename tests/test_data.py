"""The bundled treebanks are what their build script writes, byte for byte,
and every sentence's gold heads are a tree."""
import os
import subprocess
import sys

import pytest
from corpora import DATA, bundled

from dualpointer.decoding import gold_trees

ROOT = DATA.parent
NAMES = ["toy.conllu", "ambiguous-train.conllu", "ambiguous-dev.conllu"]


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(DATA / "generate.py"), str(out)],
                            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return out


@pytest.mark.parametrize("name", NAMES)
def test_regenerates_committed_file(regenerated, name):
    assert (regenerated / name).read_bytes() == (DATA / name).read_bytes()


def test_every_bundled_sentence_is_a_tree():
    trees = [gold_trees(bundled(name.removesuffix(".conllu")), name) for name in NAMES]
    assert [len(t) for t in trees] == [60, 2000, 200]
