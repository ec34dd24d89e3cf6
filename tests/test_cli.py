"""End-to-end command-line behavior on a small bundled corpus."""
import hashlib
import re
import shutil

import pytest
from corpora import bundled

from dualpointer import cli
from dualpointer.cli import main, seed_model_path
from dualpointer.conll import read_conll, write_conll
from dualpointer.decoding import DepTree, cycle_stats, gold_trees, parse, uas
from dualpointer.modelio import load_model

FAST = [
    "--d-pretrained", "6", "--d-random", "6", "--bilstm-hidden", "5",
    "--ptr-hidden", "6", "--epochs", "2", "--seeds", "4",
]


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.conllu"
    with open(path, "w", encoding="utf-8") as f:
        write_conll(bundled("toy", 12), f)
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


def sentence_heads(path, sentence):
    with open(path, encoding="utf-8") as f:
        return read_conll(f)[sentence - 1].gold_heads()


def rewrite_heads(source, dest, sentence, heads):
    """Copy a CoNLL file, giving the 1-based ``sentence`` the head column
    ``heads`` (strings, "_" for none)."""
    with open(source, encoding="utf-8") as f:
        blocks = f.read().strip("\n").split("\n\n")
    rows = [line.split("\t") for line in blocks[sentence - 1].split("\n")]
    assert len(rows) == len(heads)
    for row, head in zip(rows, heads):
        row[6] = head
    blocks[sentence - 1] = "\n".join("\t".join(row) for row in rows)
    dest.write_text("\n\n".join(blocks) + "\n\n", encoding="utf-8")
    return str(dest)


def blank_head(source, dest, sentence=2):
    """Copy of a CoNLL file whose ``sentence`` has a "_" first head."""
    gold = sentence_heads(source, sentence)
    return rewrite_heads(source, dest, sentence, ["_"] + [str(h) for h in gold[1:]])


def assert_one_error(err, category, *words):
    assert err.startswith(f"error:{category}:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for word in words:
        assert word in err, (word, err)


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

    @pytest.mark.parametrize("seeds", ["1", "1,2"])
    @pytest.mark.parametrize("model, log, role, words", [
        pytest.param("missing/m.bin", None, "model", ["no directory", "missing"],
                     id="model-in-missing-dir"),
        pytest.param("out/", None, "model", ["is a directory"], id="model-dir-slash"),
        pytest.param("out", None, "model", ["is a directory"], id="model-dir"),
        pytest.param("m.bin", "missing/log.txt", "training log", ["no directory", "missing"],
                     id="log-in-missing-dir"),
        pytest.param("m.bin", "out", "training log", ["is a directory"], id="log-dir"),
    ])
    def test_unwritable_path_fails_before_training(self, capsys, corpus_path, tmp_path,
                                                   seeds, model, log, role, words):
        (tmp_path / "out").mkdir()
        # joined as text: a Path would drop the trailing separator of "out/"
        argv = ["train", "--train", corpus_path, "--dev", corpus_path,
                "--model", f"{tmp_path}/{model}"] + FAST
        argv[argv.index("--seeds") + 1] = seeds
        if log:
            argv += ["--output", f"{tmp_path}/{log}"]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert_one_error(err, "io", f"cannot write {role}:", *words)
        assert [p.name for p in tmp_path.rglob("*")] == ["out"]

    @pytest.mark.parametrize("log, seeds, what", [
        pytest.param("./m.bin", "4", "model", id="model"),
        pytest.param("m.seed5.bin", "4,5", "model", id="seed-model"),
        pytest.param("./train.conllu", "4", "train corpus", id="train"),
        pytest.param("sub/../dev.conllu", "4", "dev corpus", id="dev"),
        pytest.param("vec.txt", "4", "pretrained vectors", id="pretrained"),
    ])
    def test_log_naming_another_file_of_the_run_fails_before_training(
            self, capsys, corpus_path, tmp_path, monkeypatch, log, seeds, what):
        """--output may not name a file the run reads or writes, however
        the path is spelled; every file is left as it was."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        with open(corpus_path, encoding="utf-8") as f:
            corpus = f.read()
        files = {"train.conllu": corpus, "dev.conllu": corpus, "vec.txt": "the 1 0 0\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        # the vectors file sets the pretrained width, so FAST's flag for it goes
        argv = ["train", "--train", "train.conllu", "--dev", "dev.conllu",
                "--model", "m.bin", "--pretrained", "vec.txt", "--output", log] + FAST[2:]
        argv[argv.index("--seeds") + 1] = seeds
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert_one_error(err, "config", f"would overwrite the {what}")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*files, "sub"])
        for name, text in files.items():
            assert (tmp_path / name).read_text(encoding="utf-8") == text

    def test_multi_seed_writes_suffixed_files(self, capsys, corpus_path, tmp_path):
        dest = str(tmp_path / "m.bin")
        argv = ["train", "--train", corpus_path, "--dev", corpus_path,
                "--model", dest] + FAST
        argv[argv.index("--seeds") + 1] = "1,2"
        code, out, _ = run(capsys, argv)
        assert code == 0
        paths = [seed_model_path(dest, (1, 2), s) for s in (1, 2)]
        assert paths[0].endswith("m.seed1.bin")
        blobs = []
        for p in paths:
            with open(p, "rb") as f:
                blobs.append(f.read())
        assert blobs[0] != blobs[1]

    def test_corpus_word_unk_trains_and_evaluates(self, capsys, tmp_path):
        """A corpus word spelled like the reserved unknown entry gets its own
        vocabulary id; it used to end training in "duplicate forms"."""
        path = tmp_path / "unk.conllu"
        path.write_text("1\t<UNK>\t_\tX\t_\t_\t2\t_\t_\t_\n"
                        "2\tbark\t_\tX\t_\t_\t0\t_\t_\t_\n\n", encoding="utf-8")
        dest = str(tmp_path / "m.bin")
        code, out, err = run(capsys, [
            "train", "--train", str(path), "--dev", str(path), "--model", dest] + FAST)
        assert code == 0 and err == "", err
        model = load_model(dest)
        assert model.vocab.lookup("<unk>") != 0 and model.vocab.lookup("zzz") == 0
        code, out, err = run(capsys, ["eval", "--model", dest, "--test", str(path)])
        assert code == 0 and err == "", err
        assert "p1  uas" in out

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_seed_is_config_error(self, capsys, corpus_path, tmp_path, source):
        dest = tmp_path / "m.bin"
        argv = ["train", "--train", corpus_path, "--dev", corpus_path,
                "--model", str(dest)] + FAST
        if source == "flag":
            argv[argv.index("--seeds") + 1] = "1,2,1"
        else:
            del argv[argv.index("--seeds"):argv.index("--seeds") + 2]
            config = tmp_path / "run.ini"
            config.write_text("[run]\nseeds = 1,2,1\n")
            argv += ["--config", str(config)]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert_one_error(err, "config", "seeds", "distinct")
        assert not list(tmp_path.glob("m*.bin"))

    def test_missing_corpus_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "train", "--train", str(tmp_path / "nope.conllu"),
            "--dev", str(tmp_path / "nope.conllu"),
            "--model", str(tmp_path / "m.bin")] + FAST)
        assert code == 1
        assert err.startswith("error:io:")

    @pytest.mark.parametrize("role", ["train", "dev"])
    @pytest.mark.parametrize("problem", ["unannotated", "empty"])
    def test_corpus_content_is_corpus_error(self, capsys, corpus_path, tmp_path, role, problem):
        bad = tmp_path / "bad.conllu"
        if problem == "empty":
            bad.write_text("", encoding="utf-8")
            expected = f"empty {role} corpus"
        else:
            blank_head(corpus_path, bad)
            expected = f"{role} corpus sentence 2"
        paths = {"train": corpus_path, "dev": corpus_path, role: str(bad)}
        dest = tmp_path / "m.bin"
        code, _, err = run(capsys, [
            "train", "--train", paths["train"], "--dev", paths["dev"],
            "--model", str(dest)] + FAST)
        assert code == 1
        assert_one_error(err, "corpus", expected)
        assert not dest.exists()

    @pytest.mark.parametrize("role", ["train", "dev"])
    @pytest.mark.parametrize("data, expected", [
        (b"1\tthe\t_\tDET\n", "line 1: expected at least 7"),
        (b"1\tthe\t_\tDET\t_\t_\t0\t_\t_\t_\n\xff\n", "not UTF-8"),
    ], ids=["short-line", "not-utf8"])
    def test_unreadable_corpus_names_its_role(self, capsys, corpus_path, tmp_path, role,
                                              data, expected):
        bad = tmp_path / "bad.conllu"
        bad.write_bytes(data)
        paths = {"train": corpus_path, "dev": corpus_path, role: str(bad)}
        dest = tmp_path / "m.bin"
        code, out, err = run(capsys, [
            "train", "--train", paths["train"], "--dev", paths["dev"],
            "--model", str(dest)] + FAST)
        assert code == 1 and out == ""
        assert_one_error(err, "corpus", f"{role} corpus: {expected}")
        assert not dest.exists()

    def test_missing_model_path_fails_before_training(self, capsys, corpus_path):
        code, out, err = run(capsys, [
            "train", "--train", corpus_path, "--dev", corpus_path] + FAST)
        assert code == 1 and out == ""
        assert_one_error(err, "config", "missing model path")

    def test_unwritable_model_names_its_role(self, capsys, corpus_path, tmp_path):
        code, _, err = run(capsys, [
            "train", "--train", corpus_path, "--dev", corpus_path,
            "--model", str(tmp_path / "no-such-dir" / "m.bin")] + FAST)
        assert code == 1
        assert_one_error(err, "io", "cannot write model")

    def test_unallocatable_model_is_memory_error(self, capsys, corpus_path, tmp_path):
        """A pointer net of 10^11 hidden units at the default sizes asks for
        582 TiB, beyond any user address space, so it fails at once."""
        dest = tmp_path / "m.bin"
        code, _, err = run(capsys, [
            "train", "--train", corpus_path, "--dev", corpus_path,
            "--model", str(dest), "--ptr-hidden", "100000000000"])
        assert code == 1
        assert_one_error(err, "memory", "Unable to allocate")
        assert not dest.exists()


class TestPretrainedWidth:
    VECTORS = "the 1 0 0\ncat 0 1 0\n"

    @pytest.fixture
    def vectors(self, tmp_path):
        path = tmp_path / "vec3.txt"
        path.write_text(self.VECTORS, encoding="utf-8")
        return str(path)

    def train_argv(self, corpus_path, dest):
        sizes = FAST[2:]  # FAST without its --d-pretrained
        assert "--d-pretrained" not in sizes
        return ["train", "--train", corpus_path, "--dev", corpus_path,
                "--model", str(dest)] + sizes

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_flag_beside_pretrained_file_rejected(self, capsys, corpus_path, tmp_path, vectors,
                                                  source):
        given = ["--pretrained", vectors]
        if source == "config":
            ini = tmp_path / "run.ini"
            ini.write_text(f"[paths]\npretrained = {vectors}\n", encoding="utf-8")
            given = ["--config", str(ini)]
        dest = tmp_path / "m.bin"
        code, out, err = run(capsys, self.train_argv(corpus_path, dest) + given + [
            "--d-pretrained", "100"])
        assert code == 1 and out == ""
        assert_one_error(err, "config", "--d-pretrained")
        assert not dest.exists()

    def test_config_key_beside_pretrained_file_takes_the_file_width(
            self, capsys, corpus_path, tmp_path, vectors):
        # --save-config always writes d_pretrained, so a saved config of a
        # pretrained run must load again
        ini = tmp_path / "run.ini"
        ini.write_text("[training]\nd_pretrained = 100\n", encoding="utf-8")
        dest = tmp_path / "m.bin"
        code, _, _ = run(capsys, self.train_argv(corpus_path, dest) + [
            "--config", str(ini), "--pretrained", vectors])
        assert code == 0
        assert load_model(str(dest)).tensors["emb.pretrained"].data.shape[1] == 3

    @pytest.mark.parametrize("component", ["nan", "inf", "-Infinity", "1.5e308", "-1e101"])
    def test_non_finite_component_fails_before_training(self, capsys, corpus_path, tmp_path,
                                                       component):
        vectors = tmp_path / "vec.txt"
        vectors.write_text(f"the 1 0 0\ncat 0 {component} 0\n", encoding="utf-8")
        dest = tmp_path / "m.bin"
        code, out, err = run(capsys, self.train_argv(corpus_path, dest) + [
            "--pretrained", str(vectors)])
        assert code == 1 and out == ""
        assert_one_error(err, "vectors", "pretrained vectors: line 2", "non-finite", "1e+100")
        assert not dest.exists()

    @pytest.mark.parametrize("data, words", [
        (b"the 1 0 0\n\xff 0 1 0\n", ("pretrained vectors: not UTF-8 text: invalid start byte",)),
        (b"the 1 0 0\ncat 0 1\n", ("pretrained vectors: line 2: dimension 2",)),
        (b"the 1 x 0\n", ("pretrained vectors: line 1: non-numeric",)),
        (b"", ("pretrained vectors: empty",)),
    ], ids=["not-utf8", "width", "non-numeric", "empty"])
    def test_bad_vectors_file_is_a_vectors_error(self, capsys, corpus_path, tmp_path,
                                                 data, words):
        vectors = tmp_path / "vec.txt"
        vectors.write_bytes(data)
        dest = tmp_path / "m.bin"
        code, out, err = run(capsys, self.train_argv(corpus_path, dest) + [
            "--pretrained", str(vectors)])
        assert code == 1 and out == ""
        assert_one_error(err, "vectors", *words)
        assert not dest.exists()

    def test_help_names_the_file_width(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--pretrained file's width sets it" in help_text


class TestParse:
    def test_writes_valid_trees(self, capsys, corpus_path, model_path, tmp_path):
        out_path = str(tmp_path / "out.conllu")
        code, out, _ = run(capsys, [
            "parse", "--model", model_path, "--test", corpus_path,
            "--output", out_path])
        assert code == 0
        with open(out_path, encoding="utf-8") as f:
            parsed = read_conll(f)
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

    def test_not_utf8_input_is_corpus_error(self, capsys, model_path, tmp_path):
        src = tmp_path / "latin1.conllu"
        src.write_bytes("1\tcaf\u00e9\t_\tNOUN\t_\t_\t_\t_\t_\t_\n".encode("latin-1"))
        out_path = tmp_path / "out.conllu"
        code, out, err = run(capsys, [
            "parse", "--model", model_path, "--test", str(src), "--output", str(out_path)])
        assert code == 1 and out == ""
        assert_one_error(err, "corpus", "input corpus: not UTF-8")
        assert not out_path.exists()

    def test_missing_output_path_fails_before_parsing(self, capsys, corpus_path, model_path):
        code, out, err = run(capsys, ["parse", "--model", model_path, "--test", corpus_path])
        assert code == 1 and out == ""
        assert_one_error(err, "config", "missing output path")

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
            trees = parse(gold, model, variant)
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

    def test_unannotated_gold_head_is_corpus_error(self, capsys, corpus_path, model_path,
                                                   tmp_path):
        bad = blank_head(corpus_path, tmp_path / "gold.conllu")
        code, out, err = run(capsys, ["eval", "--model", model_path, "--test", bad])
        assert code == 1 and out == ""
        assert_one_error(err, "corpus", "gold corpus sentence 2")

    def test_unannotated_predicted_head_is_corpus_error(self, capsys, corpus_path, tmp_path):
        bad = blank_head(corpus_path, tmp_path / "pred.conllu")
        code, out, err = run(capsys, ["eval", "--test", corpus_path, "--output", bad])
        assert code == 1 and out == ""
        assert_one_error(err, "corpus", "predicted corpus sentence 2")

    def test_predicted_non_tree_is_corpus_error(self, capsys, corpus_path, tmp_path):
        n = len(sentence_heads(corpus_path, 3))
        # token 1 the top, tokens 2 and 3 each other's head: a cycle
        cyclic = ["0", "3", "2"] + ["1"] * (n - 3)
        bad = rewrite_heads(corpus_path, tmp_path / "pred.conllu", 3, cyclic)
        code, out, err = run(capsys, ["eval", "--test", corpus_path, "--output", bad])
        assert code == 1 and out == ""
        assert_one_error(err, "corpus", "predicted corpus sentence 3", "cycle")

    def test_empty_corpus_is_corpus_error(self, capsys, corpus_path, model_path, tmp_path):
        # an empty gold corpus has no score to report, whichever side it is on
        empty = tmp_path / "empty.conllu"
        empty.write_text("", encoding="utf-8")
        for argv, role in ((["--test", str(empty), "--model", model_path], "gold"),
                           (["--test", str(empty), "--output", corpus_path], "gold"),
                           (["--test", corpus_path, "--output", str(empty)], "predicted")):
            code, out, err = run(capsys, ["eval"] + argv)
            assert code == 1 and out == ""
            assert_one_error(err, "corpus", f"empty {role} corpus")

    def test_not_utf8_gold_is_corpus_error(self, capsys, model_path, tmp_path):
        bad = tmp_path / "gold.conllu"
        bad.write_bytes(b"\xff\xfe1\n")
        code, out, err = run(capsys, ["eval", "--model", model_path, "--test", str(bad)])
        assert code == 1 and out == ""
        assert_one_error(err, "corpus", "gold corpus: not UTF-8")

    def test_multi_seed_without_model_is_config_error(self, capsys, corpus_path):
        code, out, err = run(capsys, ["eval", "--test", corpus_path, "--seeds", "1,2"])
        assert code == 1 and out == ""
        assert_one_error(err, "config", "missing model path")

    def test_gold_vs_gold_is_100(self, capsys, corpus_path):
        code, out, _ = run(capsys, [
            "eval", "--test", corpus_path, "--output", corpus_path])
        assert code == 0
        assert float(re.search(r"uas (\d+\.\d+)", out).group(1)) == 100.0

    @pytest.mark.parametrize("columns", [10, 7])
    def test_crlf_line_ends_read(self, capsys, corpus_path, tmp_path, columns):
        """Text mode turns CRLF into LF, so a Windows-edited file reads as
        its LF twin does, the head in the last column included."""
        with open(corpus_path, encoding="utf-8") as f:
            lines = [line.rstrip("\n") for line in f]
        lines = ["\t".join(line.split("\t")[:columns]) if line else line for line in lines]
        crlf = tmp_path / "crlf.conllu"
        crlf.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
        code, out, err = run(capsys, ["eval", "--test", str(crlf), "--output", corpus_path])
        assert code == 0 and err == "", err
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


# sentence 2 of the fixture corpus (4 tokens) given heads that are not a
# tree, each in one of the ways the gold check names
NOT_TREES = {
    "cycle-no-top": (["2", "3", "4", "1"], "0 top tokens"),
    "two-tops": (["0", "0", "1", "1"], "2 top tokens"),
    "head-past-end": (["0", "5", "1", "1"], "head 5 of token 2 out of range"),
    "self-head": (["0", "2", "1", "1"], "token 2 is its own head"),
}


class TestGoldTreeCheck:
    """A corpus used as gold is checked as trees, sentence by sentence; a
    corpus to parse is not, since parsing replaces its heads."""

    @pytest.mark.parametrize("case", NOT_TREES)
    @pytest.mark.parametrize("role", ["train", "dev"])
    def test_training_corpus(self, capsys, corpus_path, tmp_path, role, case):
        heads, problem = NOT_TREES[case]
        bad = rewrite_heads(corpus_path, tmp_path / "bad.conllu", 2, heads)
        paths = {"train": corpus_path, "dev": corpus_path, role: bad}
        log = tmp_path / "train.log"
        code, out, err = run(capsys, [
            "train", "--train", paths["train"], "--dev", paths["dev"],
            "--model", str(tmp_path / "m.bin"), "--output", str(log)] + FAST)
        assert code == 1 and out == ""
        assert_one_error(err, "corpus", f"{role} corpus sentence 2: ", problem)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.conllu"]

    @pytest.mark.parametrize("case", NOT_TREES)
    def test_eval_gold(self, capsys, corpus_path, model_path, tmp_path, case):
        heads, problem = NOT_TREES[case]
        bad = rewrite_heads(corpus_path, tmp_path / "gold.conllu", 2, heads)
        for argv in (["--model", model_path], ["--output", corpus_path]):
            code, out, err = run(capsys, ["eval", "--test", bad] + argv)
            assert code == 1 and out == ""
            assert_one_error(err, "corpus", "gold corpus sentence 2: ", problem)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.conllu"]

    @pytest.mark.parametrize("case", NOT_TREES)
    def test_parse_replaces_the_heads(self, capsys, corpus_path, model_path, tmp_path, case):
        bad = rewrite_heads(corpus_path, tmp_path / "in.conllu", 2, NOT_TREES[case][0])
        out_path = tmp_path / "out.conllu"
        code, _, err = run(capsys, [
            "parse", "--model", model_path, "--test", bad, "--output", str(out_path)])
        assert code == 0 and err == ""
        with open(out_path, encoding="utf-8") as f:
            assert len(gold_trees(read_conll(f), "parsed")) == 12


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
        with open(dest1, "rb") as f1, open(dest2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_flags_override_config_file(self, capsys, tmp_path):
        base = tmp_path / "base.ini"
        base.write_text("[training]\nepochs = 1\n")
        saved = str(tmp_path / "eff.ini")
        code, _, err = run(capsys, [
            "gradcheck", "--config", str(base), "--epochs", "7",
            "--save-config", saved, "--d-pretrained", "4", "--d-random", "4",
            "--bilstm-hidden", "3", "--ptr-hidden", "4"])
        assert code == 0
        with open(saved) as f:
            assert "epochs = 7" in f.read()

    def test_bad_config_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[mystery]\nx = 1\n")
        code, _, err = run(capsys, ["eval", "--config", str(bad)])
        assert code == 1
        assert err.startswith("error:config:")

    def test_not_utf8_config_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[training]\nepochs = 1\n# caf\xe9\n")
        code, out, err = run(capsys, ["eval", "--config", str(bad)])
        assert code == 1 and out == ""
        assert_one_error(err, "config", "config is not UTF-8")

    def test_unwritable_saved_config(self, capsys, tmp_path):
        code, out, err = run(capsys, [
            "gradcheck", "--save-config", str(tmp_path / "no-such-dir" / "run.ini")])
        assert code == 1 and out == ""
        assert_one_error(err, "io", "cannot write config")

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

    def test_config_parse_error_is_one_line(self, capsys, tmp_path):
        # configparser's own messages span several lines
        bad = tmp_path / "bad.ini"
        bad.write_text("epochs = 3\n", encoding="utf-8")
        code, _, err = run(capsys, ["eval", "--config", str(bad)])
        assert code == 1
        assert_one_error(err, "config", "no section headers")


def digests(folder):
    """SHA-256 of every file under ``folder``, by relative path."""
    return {str(p.relative_to(folder)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in folder.rglob("*") if p.is_file()}


class TestWrittenFileClash:
    """No file a run writes may resolve to a file it names or to another
    file it writes, however the path is spelled.  Such a run ends before it
    reads or writes any file."""

    PARSE = ["parse", "--model", "m.bin", "--test", "t.conllu"]
    TRAIN = ["train", "--train", "t.conllu", "--dev", "d.conllu", "--model", "new.bin"] + FAST

    @pytest.fixture
    def folder(self, tmp_path, monkeypatch, corpus_path, model_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        for name in ("t.conllu", "d.conllu", "p.conllu"):
            shutil.copy(corpus_path, tmp_path / name)
        shutil.copy(model_path, tmp_path / "m.bin")
        return tmp_path

    @pytest.mark.parametrize("argv, role, other", [
        pytest.param(PARSE + ["--output", "t.conllu"], "output", "test corpus",
                     id="parse-output-onto-input"),
        pytest.param(PARSE + ["--output", "./m.bin"], "output", "model",
                     id="parse-output-onto-model"),
        pytest.param(TRAIN + ["--save-config", "sub/../t.conllu"], "config", "train corpus",
                     id="save-config-onto-train-corpus"),
        pytest.param(TRAIN + ["--save-config", "new.bin"], "config", "model",
                     id="save-config-onto-model"),
        pytest.param(PARSE + ["--output", "o.conllu", "--save-config", "./o.conllu"],
                     "config", "output", id="save-config-onto-parse-output"),
        pytest.param(["eval", "--test", "t.conllu", "--output", "p.conllu",
                      "--save-config", "p.conllu"], "config", "predicted corpus",
                     id="save-config-onto-eval-predicted"),
    ])
    def test_refused_before_any_file_is_touched(self, capsys, folder, monkeypatch,
                                                argv, role, other):
        monkeypatch.setattr(cli, "read_conll", lambda f: pytest.fail("read a corpus"))
        monkeypatch.setattr(cli, "load_model", lambda f: pytest.fail("loaded the model"))
        before = digests(folder)
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert_one_error(err, "config", f"error:config: {role} ", f"would overwrite the {other}")
        assert digests(folder) == before

    def test_saved_config_may_be_the_config(self, capsys, folder):
        (folder / "run.ini").write_text("[paths]\ntest = t.conllu\noutput = p.conllu\n",
                                        encoding="utf-8")
        code, out, err = run(capsys, ["eval", "--config", "run.ini",
                                      "--save-config", "./run.ini"])
        assert code == 0 and err == "" and "uas 100" in out
        saved = (folder / "run.ini").read_text(encoding="utf-8")
        assert "test = t.conllu" in saved and "root_agg = max" in saved

    def test_unwritable_output_fails_before_parsing(self, capsys, folder, monkeypatch):
        monkeypatch.setattr(cli, "load_model", lambda f: pytest.fail("loaded the model"))
        code, out, err = run(capsys, self.PARSE + ["--output", "missing/o.conllu"])
        assert code == 1 and out == ""
        assert_one_error(err, "io", "cannot write output:", "no directory")


class TestUsageErrors:
    """argparse's own failures end in the one-line error exit too."""

    @pytest.mark.parametrize("argv, words", [
        pytest.param(["train", "--bogus", "1"], ["unrecognized arguments: --bogus 1"],
                     id="unknown-flag"),
        pytest.param(["train", "--epochs"], ["--epochs", "expected one argument"],
                     id="flag-without-value"),
        pytest.param([], ["required", "command"], id="no-subcommand"),
        pytest.param(["fly"], ["invalid choice", "fly"], id="unknown-subcommand"),
    ])
    def test_one_config_line(self, capsys, argv, words):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert_one_error(err, "config", *words)

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_still_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert "usage: dualpointer" in capsys.readouterr().out
