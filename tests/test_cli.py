"""End-to-end command-line behavior on a small bundled corpus."""
import re

import pytest

from dualpointer.cli import main, seed_model_path
from dualpointer.conll import read_conll, write_conll
from dualpointer.decoding import DepTree, cycle_stats, parse, uas
from dualpointer.modelio import load_model
from dualpointer.toygrammar import toy_treebank

FAST = [
    "--d-pretrained", "6", "--d-random", "6", "--bilstm-hidden", "5",
    "--ptr-hidden", "6", "--epochs", "2", "--seeds", "4",
]


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.conllu"
    with open(path, "w", encoding="utf-8") as f:
        write_conll(toy_treebank(12), f)
    return str(path)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_path):
    path = str(tmp_path_factory.mktemp("model") / "m.bin")
    code = main(["train", "--train", corpus_path, "--dev", corpus_path,
                 "--model", path] + FAST)
    assert code == 0
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrain:
    def test_logs_and_model_file(self, capsys, corpus_path, tmp_path):
        dest = str(tmp_path / "m.bin")
        log_path = tmp_path / "train.log"
        code, out, err = run(capsys, [
            "train", "--train", corpus_path, "--dev", corpus_path,
            "--model", dest, "--output", str(log_path)] + FAST)
        assert code == 0
        assert "epoch 1" in out and "epoch 2" in out
        assert "best epoch" in out
        assert log_path.read_text() == out
        with open(dest, "rb") as f:
            assert f.read(8) == b"DPTRMODL"

    def test_same_seed_identical_files(self, capsys, corpus_path, tmp_path):
        blobs = []
        for name in ("a.bin", "b.bin"):
            dest = str(tmp_path / name)
            code, _, _ = run(capsys, [
                "train", "--train", corpus_path, "--dev", corpus_path,
                "--model", dest] + FAST)
            assert code == 0
            with open(dest, "rb") as f:
                blobs.append(f.read())
        assert blobs[0] == blobs[1]

    def test_multi_seed_writes_suffixed_files(self, capsys, corpus_path, tmp_path):
        dest = str(tmp_path / "m.bin")
        argv = ["train", "--train", corpus_path, "--dev", corpus_path,
                "--model", dest] + FAST
        argv[argv.index("--seeds") + 1] = "1,2"
        code, out, _ = run(capsys, argv)
        assert code == 0
        paths = [seed_model_path(dest, (1, 2), s) for s in (1, 2)]
        assert paths[0].endswith("m.seed1.bin")
        blobs = [open(p, "rb").read() for p in paths]
        assert blobs[0] != blobs[1]

    def test_missing_corpus_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "train", "--train", str(tmp_path / "nope.conllu"),
            "--dev", str(tmp_path / "nope.conllu"),
            "--model", str(tmp_path / "m.bin")] + FAST)
        assert code == 1
        assert err.startswith("error:io:")


class TestParse:
    def test_writes_valid_trees(self, capsys, corpus_path, model_path, tmp_path):
        out_path = str(tmp_path / "out.conllu")
        code, out, _ = run(capsys, [
            "parse", "--model", model_path, "--test", corpus_path,
            "--output", out_path])
        assert code == 0
        parsed = read_conll(open(out_path, encoding="utf-8"))
        assert len(parsed) == 12
        for s in parsed:
            DepTree(s.gold_heads())  # raises ValueError unless a valid tree

    def test_empty_input_empty_output(self, capsys, model_path, tmp_path):
        src = tmp_path / "empty.conllu"
        src.write_text("")
        out_path = tmp_path / "out.conllu"
        code, _, _ = run(capsys, [
            "parse", "--model", model_path, "--test", str(src),
            "--output", str(out_path)])
        assert code == 0
        assert out_path.read_text() == ""

    def test_variant_incompatible_with_mode(self, capsys, corpus_path, tmp_path):
        dest = str(tmp_path / "h.bin")
        code, _, _ = run(capsys, [
            "train", "--train", corpus_path, "--dev", corpus_path,
            "--model", dest, "--mode", "heads"] + FAST)
        assert code == 0
        code, _, err = run(capsys, [
            "parse", "--model", dest, "--test", corpus_path,
            "--output", str(tmp_path / "o.conllu"), "--variant", "p3"])
        assert code == 1
        assert err.startswith("error:mode:")

    def test_mode_alias_trains_heads_only(self, capsys, corpus_path, tmp_path):
        dest = str(tmp_path / "h.bin")
        code, out, _ = run(capsys, [
            "train", "--train", corpus_path, "--dev", corpus_path,
            "--model", dest, "--mode", "heads"] + FAST)
        assert code == 0
        code, out, _ = run(capsys, [
            "eval", "--model", dest, "--test", corpus_path])
        assert code == 0
        assert " p4 " in out and " p1 " not in out


class TestEval:
    def test_joint_model_reports_three_variants(self, capsys, corpus_path, model_path):
        code, out, _ = run(capsys, [
            "eval", "--model", model_path, "--test", corpus_path,
            "--seeds", "4"])
        assert code == 0
        rows = re.findall(r"seed 4  (p\d)  uas (\S+)  cycle-free (\S+)", out)
        assert [variant for variant, _, _ in rows] == ["p1", "p2", "p3"]
        assert out.count("cycle-free") == 3
        with open(corpus_path, encoding="utf-8") as f:
            gold = read_conll(f)
        model = load_model(model_path)
        for variant, shown_uas, shown_clean in rows:
            trees = [parse(s, model, variant) for s in gold]
            assert shown_uas == f"{uas(gold, trees):.10f}"
            assert shown_clean == f"{cycle_stats(gold, model, variant):.4f}"

    def test_pipeline_consistency(self, capsys, corpus_path, model_path, tmp_path):
        out_path = str(tmp_path / "pred.conllu")
        code, _, _ = run(capsys, [
            "parse", "--model", model_path, "--test", corpus_path,
            "--output", out_path, "--variant", "p1"])
        assert code == 0
        code, out_model, _ = run(capsys, [
            "eval", "--model", model_path, "--test", corpus_path,
            "--variant", "p1"])
        assert code == 0
        code, out_file, _ = run(capsys, [
            "eval", "--test", corpus_path, "--output", out_path])
        assert code == 0
        model_uas = re.search(r"uas (\d+\.\d+)", out_model).group(1)
        file_uas = re.search(r"uas (\d+\.\d+)", out_file).group(1)
        assert model_uas == file_uas

    def test_gold_vs_gold_is_100(self, capsys, corpus_path):
        code, out, _ = run(capsys, [
            "eval", "--test", corpus_path, "--output", corpus_path])
        assert code == 0
        assert float(re.search(r"uas (\d+\.\d+)", out).group(1)) == 100.0

    def test_multi_seed_mean_matches_rows(self, capsys, corpus_path, tmp_path):
        dest = str(tmp_path / "m.bin")
        argv = ["train", "--train", corpus_path, "--dev", corpus_path,
                "--model", dest] + FAST
        argv[argv.index("--seeds") + 1] = "1,2"
        code, _, _ = run(capsys, argv)
        assert code == 0
        code, out, _ = run(capsys, [
            "eval", "--model", dest, "--test", corpus_path,
            "--seeds", "1,2", "--variant", "p1"])
        assert code == 0
        rows = [float(m) for m in re.findall(r"seed \d+  p1  uas (\d+\.\d+)", out)]
        mean = float(re.search(r"mean  p1  uas (\d+\.\d+)", out).group(1))
        assert len(rows) == 2
        assert abs(mean - sum(rows) / len(rows)) < 1e-9


class TestGradcheckCommand:
    def test_pass_lists_every_tensor(self, capsys):
        code, out, _ = run(capsys, [
            "gradcheck", "--seeds", "2", "--d-pretrained", "5",
            "--d-random", "5", "--bilstm-hidden", "4", "--ptr-hidden", "5"])
        assert code == 0
        for name in ("emb.pretrained", "emb.random", "lstm.l0.fwd.w",
                     "lstm.l1.bwd.b", "ptr.heads.v", "ptr.deps.w"):
            assert name in out
        assert "PASS" in out


class TestConfigFlow:
    def test_save_then_reuse_config(self, capsys, corpus_path, tmp_path):
        saved = str(tmp_path / "run.ini")
        dest1 = str(tmp_path / "m1.bin")
        code, _, _ = run(capsys, [
            "train", "--train", corpus_path, "--dev", corpus_path,
            "--model", dest1, "--save-config", saved] + FAST)
        assert code == 0
        dest2 = str(tmp_path / "m2.bin")
        code, _, _ = run(capsys, [
            "train", "--config", saved, "--model", dest2])
        assert code == 0
        assert open(dest1, "rb").read() == open(dest2, "rb").read()

    def test_flags_override_config_file(self, capsys, tmp_path):
        base = tmp_path / "base.ini"
        base.write_text("[training]\nepochs = 1\n")
        saved = str(tmp_path / "eff.ini")
        code, _, err = run(capsys, [
            "gradcheck", "--config", str(base), "--epochs", "7",
            "--save-config", saved, "--d-pretrained", "4", "--d-random", "4",
            "--bilstm-hidden", "3", "--ptr-hidden", "4"])
        assert code == 0
        assert "epochs = 7" in open(saved).read()

    def test_bad_config_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[mystery]\nx = 1\n")
        code, _, err = run(capsys, ["eval", "--config", str(bad)])
        assert code == 1
        assert err.startswith("error:config:")

    def test_hostile_hyperparameter_is_config_error(self, capsys, corpus_path, tmp_path):
        dest = tmp_path / "m.bin"
        for flag in (["--bilstm-hidden", "0"], ["--seeds", "-1"], ["--adam-beta1", "1"]):
            code, out, err = run(capsys, [
                "train", "--train", corpus_path, "--dev", corpus_path,
                "--model", str(dest)] + FAST + flag)
            assert code == 1 and out == ""
            assert err.startswith("error:config:") and err.count("\n") == 1
            assert "Traceback" not in err
            assert not dest.exists()

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["eval", "--config", str(tmp_path / "no.ini")])
        assert code == 1
        assert err.startswith("error:io:")
