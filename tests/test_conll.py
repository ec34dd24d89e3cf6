"""Treebank reader/writer: column handling, error lines, round trips."""
import io

import pytest

from dualpointer.conll import ConllError, Sentence, Token, read_conll, write_conll
from dualpointer.decoding import DepTree, gold_trees

TWO_TOKENS = (
    "1\tdogs\t_\tNOUN\t_\t_\t2\t_\t_\t_\n"
    "2\tbark\t_\tVERB\t_\t_\t0\t_\t_\t_\n"
    "\n"
)

FIXTURE = (
    "# sent_id = 1\n"
    "# text = dogs bark loudly .\n"
    "1\tdogs\tdog\tNOUN\tNNS\t_\t2\tnsubj\t_\t_\n"
    "2\tbark\tbark\tVERB\tVBP\t_\t0\troot\t_\t_\n"
    "3\tloudly\tloudly\tADV\tRB\t_\t2\tadvmod\t_\t_\n"
    "4\t.\t.\tPUNCT\t.\t_\t2\tpunct\t_\t_\n"
    "\n"
    "1\tIt\tit\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n"
    "2\trains\train\tVERB\tVBZ\t_\t0\troot\t_\t_\n"
    "\n"
)


def test_two_token_sentence():
    sents = read_conll(io.StringIO(TWO_TOKENS))
    assert len(sents) == 1
    s = sents[0]
    assert [t.form for t in s.tokens] == ["dogs", "bark"]
    assert s.gold_heads() == [2, 0]
    assert [t.pos for t in s] == ["NOUN", "VERB"]
    assert s.tokens[1].head == 0  # top


def test_empty_input():
    assert read_conll(io.StringIO("")) == []
    assert read_conll(io.StringIO("\n\n\n")) == []


def test_multiword_range_skipped():
    text = (
        "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\t_\tADP\t_\t_\t2\t_\t_\t_\n"
        "2\tel\t_\tDET\t_\t_\t0\t_\t_\t_\n"
        "\n"
    )
    (s,) = read_conll(io.StringIO(text))
    assert [t.form for t in s.tokens] == ["de", "el"]


def test_empty_node_skipped():
    text = (
        "1\ta\t_\tX\t_\t_\t0\t_\t_\t_\n"
        "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "\n"
    )
    (s,) = read_conll(io.StringIO(text))
    assert [t.form for t in s.tokens] == ["a"]


def test_pos_falls_back_to_fifth_column():
    text = "1\tword\t_\t_\tNN\t_\t0\t_\t_\t_\n\n"
    (s,) = read_conll(io.StringIO(text))
    assert s.tokens[0].pos == "NN"


def test_unannotated_head_allowed_for_parse_input():
    text = "1\tword\t_\tNOUN\t_\t_\t_\t_\t_\t_\n\n"
    (s,) = read_conll(io.StringIO(text))
    assert s.tokens[0].head is None
    with pytest.raises(ConllError, match="has no gold head"):
        s.gold_heads()
    with pytest.raises(ConllError, match="gold corpus sentence 1: .*has no gold head"):
        gold_trees([s], "gold")


class TestErrors:
    def test_too_few_columns_names_line(self):
        with pytest.raises(ConllError, match="line 1"):
            read_conll(io.StringIO("1\tword\n\n"))

    def test_non_integer_head_names_line(self):
        bad = TWO_TOKENS.replace("2\tbark\t_\tVERB\t_\t_\t0", "2\tbark\t_\tVERB\t_\t_\tx")
        with pytest.raises(ConllError, match="line 2.*head"):
            read_conll(io.StringIO(bad))

    def test_head_out_of_range(self):
        """Read as written; the gold check names the corpus and sentence."""
        bad = TWO_TOKENS + TWO_TOKENS.replace("\t2\t_", "\t5\t_")
        sents = read_conll(io.StringIO(bad))
        assert [s.tokens[0].head for s in sents] == [2, 5]
        with pytest.raises(ConllError, match="gold corpus sentence 2: .*head 5 of token 1 out"):
            gold_trees(sents, "gold")

    def test_self_head(self):
        bad = TWO_TOKENS.replace("\t2\t_", "\t1\t_")
        sents = read_conll(io.StringIO(bad))
        with pytest.raises(ConllError, match="dev corpus sentence 1: .*token 1 is its own head"):
            gold_trees(sents, "dev")

    def test_id_out_of_sequence(self):
        bad = "1\ta\t_\tX\t_\t_\t0\t_\t_\t_\n3\tb\t_\tX\t_\t_\t1\t_\t_\t_\n\n"
        with pytest.raises(ConllError, match="sequence"):
            read_conll(io.StringIO(bad))

    @pytest.mark.parametrize("token_id", ["-1", "1-x", "2.x", "-", "1.", ".1"])
    def test_malformed_id_names_line(self, token_id):
        """Only digit ranges N-M and empty nodes N.M are skipped; any other
        ID with a '-' or '.' is an error, not a dropped token."""
        bad = (f"1\ta\t_\tX\t_\t_\t0\t_\t_\t_\n{token_id}\tb\t_\tX\t_\t_\t1\t_\t_\t_\n"
               "2\tc\t_\tX\t_\t_\t1\t_\t_\t_\n\n")
        with pytest.raises(ConllError, match="line 2: .*token id"):
            read_conll(io.StringIO(bad))

    @pytest.mark.parametrize("text", ["+1", "0_1", " 1", "1 ", "１"])
    def test_id_that_int_would_accept_names_line(self, text):
        """Ids are ASCII digits: a sign, an underscore, a space or another
        script's digit is an error although int() reads each as 1."""
        bad = f"{text}\ta\t_\tX\t_\t_\t0\t_\t_\t_\n\n"
        with pytest.raises(ConllError, match="line 1: non-integer token id"):
            read_conll(io.StringIO(bad))

    @pytest.mark.parametrize("text", ["+1", "0_1", " 1", "1 ", "１"])
    def test_head_that_int_would_accept_names_line(self, text):
        bad = f"1\ta\t_\tX\t_\t_\t0\t_\t_\t_\n2\tb\t_\tX\t_\t_\t{text}\t_\t_\t_\n\n"
        with pytest.raises(ConllError, match="line 2: non-integer head field"):
            read_conll(io.StringIO(bad))

    def test_bytes_not_utf8(self):
        stream = io.TextIOWrapper(io.BytesIO(TWO_TOKENS.encode("utf-8") + b"\xff\n"),
                                  encoding="utf-8")
        with pytest.raises(ConllError, match="not UTF-8"):
            read_conll(stream)

    def test_write_rejects_missing_head(self):
        s = Sentence([Token(1, "a", "X", None)])
        with pytest.raises(ValueError, match="no head"):
            write_conll([s], io.StringIO())


class TestRoundTrip:
    def test_read_write_byte_stable(self):
        sents = read_conll(io.StringIO(FIXTURE))
        out = io.StringIO()
        write_conll(sents, out)
        assert out.getvalue() == FIXTURE

    def test_write_read_write_byte_stable(self):
        once = io.StringIO()
        write_conll(read_conll(io.StringIO(FIXTURE)), once)
        twice = io.StringIO()
        write_conll(read_conll(io.StringIO(once.getvalue())), twice)
        assert once.getvalue() == twice.getvalue()

    def test_round_trip_keeps_word_tokens_and_drops_the_rest(self):
        # every line is (kept?, text); what write_conll gives back is the
        # kept lines in order
        lines = [
            (True, "# sent_id = mwt"),
            (True, "# text = del perro"),
            (False, "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_"),
            (True, "1\tde\tde\tADP\tIN\tDefinite=Def\t2\tcase\t2:case\tSpaceAfter=No"),
            (True, "2\tel\tel\tDET\tDT\t_\t3\tdet\t3:det\t_"),
            (True, "3\tperro\tperro\tNOUN\tNN\tNumber=Sing\t0\troot\t0:root\t_\textra"),
            (False, "3.1\tghost\t_\t_\t_\t_\t_\t_\t3:conj\t_"),
            (True, ""),
            (False, ""),
            (False, "# a comment of no sentence"),
            (False, ""),
            (True, "1\tya\t_\tADV\t_\t_\t0\t_\t_\t_"),
            (True, ""),
        ]
        text = "".join(line + "\n" for _, line in lines)
        out = io.StringIO()
        write_conll(read_conll(io.StringIO(text)), out)
        assert out.getvalue() == "".join(line + "\n" for kept, line in lines if kept)

    def test_comments_preserved(self):
        sents = read_conll(io.StringIO(FIXTURE))
        assert sents[0].comments == ["# sent_id = 1", "# text = dogs bark loudly ."]

    def test_with_heads_replaces_column_only(self):
        (s, _) = read_conll(io.StringIO(FIXTURE))
        s2 = s.with_heads([2, 0, 2, 3])
        assert s2.gold_heads() == [2, 0, 2, 3]
        assert [t.form for t in s2.tokens] == [t.form for t in s.tokens]
        # original untouched
        assert s.gold_heads() == [2, 0, 2, 2]
        out = io.StringIO()
        write_conll([s2], out)
        assert "4\t.\t.\tPUNCT\t.\t_\t3\tpunct\t_\t_" in out.getvalue()


class TestGoldTreeCheck:
    def test_valid_tree(self):
        sents = read_conll(io.StringIO(FIXTURE))
        for s in sents:
            DepTree(s.gold_heads())  # raises on a malformed tree
