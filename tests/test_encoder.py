"""Encoder behaviour: dropout law, embedding lookup paths, LSTM math,
bidirectional stacking, gradients against finite differences, and the
BiLSTM level node against the composed per-step cells it replaces."""
import contextlib
import io

import numpy as np
import pytest
from corpora import bundled, sent
from fd import numeric_grad, rel_err
from oracles import add, concat, lstm_cell, mul, stack, sum_all

from dualpointer import autodiff as ad
from dualpointer import encoder as enc
from dualpointer.autodiff import Tensor
from dualpointer import model as model_module
from dualpointer.decoding import parse
from dualpointer.encoder import (
    bilstm_encode,
    bilstm_level,
    dropout_prob,
    encode_tokens,
    token_rows,
)
from dualpointer.model import init_model
from dualpointer.vocab import UNKNOWN_ID, build_vocab, load_pretrained, pretrained_row


def small_model(rng, vocab, pretrained, d_pretrained, d_random, hidden, levels):
    """A freshly drawn model of these sizes."""
    return init_model(rng, vocab, pretrained, d_pretrained=d_pretrained, d_random=d_random,
                      bilstm_hidden=hidden, bilstm_levels=levels)


def tiny_model(rng, vocab, d_pre=3, d_rand=4, hidden=5, levels=2):
    return small_model(rng, vocab, None, d_pre, d_rand, hidden, levels)


def tables(model):
    """The pretrained and random embedding tables, by layout name."""
    return model.tensors["emb.pretrained"], model.tensors["emb.random"]


def lstm_levels(model):
    """Each level's (forward w, forward b, backward w, backward b), by
    layout name, as ``bilstm_encode`` takes them."""
    t = model.tensors
    return [tuple(t[f"lstm.l{li}.{d}.{p}"] for d in ("fwd", "bwd") for p in "wb")
            for li in range(model.shape.bilstm_levels)]


def init_lstm(rng, input_dim, hidden):
    """Glorot-uniform gate matrix (per-gate fan-out) and zero bias: (w, b)."""
    limit = np.sqrt(6.0 / (input_dim + 2 * hidden))
    w = rng.uniform(-limit, limit, size=(4 * hidden, input_dim + hidden))
    return (Tensor(w, requires_grad=True), Tensor(np.zeros(4 * hidden), requires_grad=True))


def embed(sentence, model):
    """Inference-mode token encodings of a sentence."""
    return encode_tokens(token_rows(sentence, model.vocab, model.index), *tables(model))


def rows_of(matrix):
    """The rows of an encoder output matrix as separate (tape-free) vectors."""
    return [Tensor(row) for row in matrix.data]


class TestDropoutProb:
    def test_frequency_one_quarter_alpha(self):
        # 0.25 / (0.25 + 1)
        assert dropout_prob(1, 0.25) == pytest.approx(0.2, abs=1e-15)

    def test_alpha_zero_disables(self):
        for f in (1, 5, 1000):
            assert dropout_prob(f, 0.0) == 0.0

    def test_decreasing_in_frequency(self):
        probs = [dropout_prob(f, 0.25) for f in (1, 2, 10, 100)]
        assert probs == sorted(probs, reverse=True)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            dropout_prob(0, 0.25)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            dropout_prob(1, -0.1)


class TestEncodeTokens:
    def test_dimension_and_determinism(self, rng):
        vocab = build_vocab([sent(["a", "b", "c"])])
        model = tiny_model(rng, vocab)
        s = sent(["a", "c"])
        out1 = rows_of(embed(s, model))
        out2 = rows_of(embed(s, model))
        assert all(v.data.shape == (7,) for v in out1)
        for v1, v2 in zip(out1, out2):
            np.testing.assert_array_equal(v1.data, v2.data)

    def test_oov_takes_both_unknown_vectors(self, rng):
        vocab = build_vocab([sent(["a", "b"])])
        model = tiny_model(rng, vocab)
        (v,) = rows_of(embed(sent(["zzz"]), model))
        expected = np.concatenate([t.data[UNKNOWN_ID] for t in tables(model)])
        np.testing.assert_array_equal(v.data, expected)

    def test_pretrained_file_lookup_separate_from_vocab(self, rng):
        vocab = build_vocab([sent(["cat", "dog"])])
        table = load_pretrained(io.StringIO("cat 1 0 0\nbird 0 1 0\n"))
        model = small_model(rng, vocab, table, d_pretrained=3, d_random=4, hidden=5, levels=1)
        rows = token_rows(sent(["cat", "dog", "bird"]), vocab, model.index)
        # cat: both maps know it; dog: only vocab; bird: only pretrained
        assert rows[0] == (pretrained_row(table.index, "cat"), vocab.lookup("cat"))
        assert rows[1] == (UNKNOWN_ID, vocab.lookup("dog"))
        assert rows[2] == (pretrained_row(table.index, "bird"), UNKNOWN_ID)

    def test_no_dropout_at_inference(self, rng):
        vocab = build_vocab([sent(["rare"])])
        for _ in range(200):
            rows = token_rows(sent(["rare"]), vocab, training=False)
            assert rows[0][1] == vocab.lookup("rare")

    def test_dropout_rate_matches_law(self, rng):
        # frequency-1 word, alpha 0.25: substitution rate near 0.2
        vocab = build_vocab([sent(["rare", "x", "y"])])
        s = sent(["rare"])
        hits = 0
        n = 10000
        for _ in range(n):
            rows = token_rows(s, vocab, training=True, alpha=0.25, rng=rng)
            hits += rows[0][1] == UNKNOWN_ID
        assert abs(hits / n - 0.2) < 0.01

    def test_dropout_hits_both_maps_together(self, rng):
        vocab = build_vocab([sent(["cat", "a", "b"])])
        table = load_pretrained(io.StringIO("cat 1 0 0\n"))
        model = small_model(rng, vocab, table, d_pretrained=3, d_random=4, hidden=5, levels=1)
        s = sent(["cat"])
        saw_hit = False
        for _ in range(500):
            (pre, rnd) = token_rows(s, vocab, model.index, training=True, alpha=5.0, rng=rng)[0]
            assert (pre == UNKNOWN_ID) == (rnd == UNKNOWN_ID)
            saw_hit = saw_hit or pre == UNKNOWN_ID
        assert saw_hit

    def test_training_without_rng_rejected(self, rng):
        vocab = build_vocab([sent(["a"])])
        with pytest.raises(ValueError):
            token_rows(sent(["a"]), vocab, training=True)

    def test_embedding_gradient_reaches_rows(self, rng):
        vocab = build_vocab([sent(["a", "b"])])
        model = tiny_model(rng, vocab, levels=1)
        out = embed(sent(["a", "a"]), model)
        loss = sum_all(mul(out, out))
        loss.backward()
        g = np.asarray(model.tensors["emb.random"].grad)
        row_a = vocab.lookup("a")
        assert g is not None
        assert np.any(g[row_a] != 0.0)
        # repeated token accumulates twice the single-occurrence gradient
        untouched = [i for i in range(len(vocab)) if i != row_a]
        np.testing.assert_array_equal(g[untouched], 0.0)

    @pytest.mark.parametrize("sentences", [
        [["b", "a", "b", "b"]],             # repeated rows in one gather
        [["a", "b", "a"], ["c", "a"]],      # two gathers of one table
    ], ids=["repeated-rows", "two-gathers"])
    def test_row_gradient_matches_dense_reference(self, rng, sentences):
        vocab = build_vocab([sent(["a", "b", "c", "d"])])
        model = tiny_model(rng, vocab, levels=1)
        gathers, parts = [], []
        for words in sentences:
            rows = token_rows(sent(words), vocab)
            g = rng.normal(size=(len(words), 7))
            gathers.append((np.array(rows), g))
            parts.append(sum_all(mul(encode_tokens(rows, *tables(model)), Tensor(g))))
        loss = parts[0] if len(parts) == 1 else add(parts[0], parts[1])
        loss.backward()
        # reference: each gather's dense np.add.at gradient, summed in order
        d = model.shape.d_pretrained
        for k, cols in enumerate((slice(None, d), slice(d, None))):
            table, dense = tables(model)[k], None
            for idx, g in gathers:
                part = np.zeros(table.data.shape)
                np.add.at(part, idx[:, k], g[:, cols])
                dense = part if dense is None else dense + part
            assert isinstance(table.grad, ad.RowGrad)
            used = sorted({int(r) for idx, _ in gathers for r in idx[:, k]})
            assert table.grad.rows.tolist() == used
            assert np.array_equal(np.asarray(table.grad), dense)


class TestLstmCell:
    def test_zero_weights_zero_state(self):
        w, b = Tensor(np.zeros((20, 8))), Tensor(np.zeros(20))
        h, c = lstm_cell(Tensor(np.ones(3)), Tensor(np.zeros(5)), Tensor(np.zeros(5)), w, b)
        np.testing.assert_array_equal(h.data, np.zeros(5))
        np.testing.assert_array_equal(c.data, np.zeros(5))

    def test_saturated_gates_preserve_cell(self, rng):
        # forget bias -> +inf, input bias -> -inf: c == c_prev
        hidden = 4
        w = Tensor(rng.normal(size=(16, 7)) * 0.1)
        b = Tensor(np.concatenate([np.full(4, -50.0), np.full(4, 50.0), np.zeros(8)]))
        c_prev = rng.normal(size=hidden)
        x, h_prev = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=hidden))
        _, c = lstm_cell(x, h_prev, Tensor(c_prev), w, b)
        np.testing.assert_allclose(c.data, c_prev, rtol=0, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        w, b = Tensor(np.zeros((20, 8))), Tensor(np.zeros(20))
        with pytest.raises(ValueError):
            lstm_cell(Tensor(np.ones(3)), Tensor(np.zeros(4)), Tensor(np.zeros(5)), w, b)

    def test_cell_gradient_vs_finite_differences(self, rng):
        hidden, xin = 4, 3
        w0 = rng.normal(size=(16, 7)) * 0.3
        b0 = rng.normal(size=16) * 0.1
        x0 = rng.normal(size=xin)
        h0 = rng.normal(size=hidden) * 0.5
        c0 = rng.normal(size=hidden) * 0.5
        proj = rng.normal(size=hidden)

        def run(w_arr, b_arr, x_arr, h_arr, c_arr):
            h, c = lstm_cell(Tensor(x_arr), Tensor(h_arr), Tensor(c_arr),
                             Tensor(w_arr), Tensor(b_arr))
            return sum_all(mul(add(h, c), Tensor(proj)))

        w = Tensor(w0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        x = Tensor(x0.copy(), requires_grad=True)
        hh, cc = lstm_cell(x, Tensor(h0), Tensor(c0), w, b)
        sum_all(mul(add(hh, cc), Tensor(proj))).backward()

        def fw(arr):
            with ad.no_grad():
                return run(arr, b0, x0, h0, c0).item()

        def fb(arr):
            with ad.no_grad():
                return run(w0, arr, x0, h0, c0).item()

        def fx(arr):
            with ad.no_grad():
                return run(w0, b0, arr, h0, c0).item()

        assert rel_err(w.grad, numeric_grad(fw, w0)) < 1e-4
        assert rel_err(b.grad, numeric_grad(fb, b0)) < 1e-4
        assert rel_err(x.grad, numeric_grad(fx, x0)) < 1e-4


class TestBilstm:
    def test_single_token(self, rng):
        vocab = build_vocab([sent(["a"])])
        model = tiny_model(rng, vocab)
        out = rows_of(bilstm_encode(embed(sent(["a"]), model), lstm_levels(model)))
        assert len(out) == 1
        assert out[0].data.shape == (10,)  # 2 * hidden

    def test_empty_rejected(self, rng):
        vocab = build_vocab([sent(["a"])])
        model = tiny_model(rng, vocab)
        with pytest.raises(ValueError):
            bilstm_encode(Tensor(np.zeros((0, 7))), lstm_levels(model))

    def test_two_levels_stack(self, rng):
        vocab = build_vocab([sent(["a", "b", "c"])])
        model = tiny_model(rng, vocab, levels=2)
        out = rows_of(bilstm_encode(embed(sent(["a", "b", "c"]), model), lstm_levels(model)))
        assert len(out) == 3
        assert all(v.data.shape == (10,) for v in out)

    def test_direction_symmetry_single_level(self, rng):
        # reverse input + swap direction weights = reversed, half-swapped output
        vocab = build_vocab([sent(["a", "b", "c", "d"])])
        model = tiny_model(rng, vocab, hidden=5, levels=1)
        swapped = [(bw, bb, fw, fb) for fw, fb, bw, bb in lstm_levels(model)]
        s = sent(["a", "b", "c", "d"])
        xs = embed(s, model)
        out = rows_of(bilstm_encode(xs, lstm_levels(model)))
        out_sw = rows_of(bilstm_encode(Tensor(xs.data[::-1]), swapped))
        h = 5
        for i, v in enumerate(out):
            mirror = out_sw[len(out) - 1 - i].data
            np.testing.assert_allclose(v.data[:h], mirror[h:], rtol=1e-12)
            np.testing.assert_allclose(v.data[h:], mirror[:h], rtol=1e-12)

    def test_direction_symmetry_stacked(self, rng):
        """Two levels: the swapped model additionally needs the upper level's
        input columns permuted, since level 2 reads concat(fwd, bwd)."""
        h = 5
        vocab = build_vocab([sent(["a", "b", "c", "d"])])
        model = tiny_model(rng, vocab, hidden=h, levels=2)

        def swap_input_halves(weights):
            w = weights.data
            inp, rec = w[:, : 2 * h], w[:, 2 * h :]
            return Tensor(np.concatenate([inp[:, h:], inp[:, :h], rec], axis=1))

        (l1fw, l1fb, l1bw, l1bb), (l2fw, l2fb, l2bw, l2bb) = lstm_levels(model)
        swapped = [(l1bw, l1bb, l1fw, l1fb),
                   (swap_input_halves(l2bw), l2bb, swap_input_halves(l2fw), l2fb)]
        s = sent(["a", "b", "c", "d"])
        xs = embed(s, model)
        out = rows_of(bilstm_encode(xs, lstm_levels(model)))
        out_sw = rows_of(bilstm_encode(Tensor(xs.data[::-1]), swapped))
        for i, v in enumerate(out):
            mirror = out_sw[len(out) - 1 - i].data
            np.testing.assert_allclose(v.data[:h], mirror[h:], rtol=1e-12)
            np.testing.assert_allclose(v.data[h:], mirror[:h], rtol=1e-12)

    def test_context_sensitivity(self, rng):
        # changing any one token moves every position's vector
        vocab = build_vocab([sent(["a", "b", "c", "d", "e", "f"])])
        model = tiny_model(rng, vocab)
        base_words = ["a", "b", "c", "d", "e"]
        encoded = bilstm_encode(embed(sent(base_words), model), lstm_levels(model))
        base = [v.data for v in rows_of(encoded)]
        for j in range(len(base_words)):
            changed = list(base_words)
            changed[j] = "f"
            out = rows_of(bilstm_encode(embed(sent(changed), model), lstm_levels(model)))
            for i in range(len(base_words)):
                assert not np.array_equal(out[i].data, base[i])

    def test_whole_encoder_gradient(self, rng):
        """Gradient of a scalar of the context vectors w.r.t. every encoder
        parameter tensor, against central differences."""
        vocab = build_vocab([sent(["a", "b", "c", "d"])])
        model = tiny_model(rng, vocab, d_pre=2, d_rand=3, hidden=3, levels=2)
        s = sent(["a", "b", "c", "d"])
        proj = rng.normal(size=6)

        def loss_with(model_):
            out = bilstm_encode(embed(s, model_), lstm_levels(model_))
            return sum_all(mul(out, Tensor(np.tile(proj, (4, 1)))))

        named = [(name, t) for name, t in model.tensors.items() if not name.startswith("ptr.")]
        assert len(named) == 2 + 4 * 2

        loss_with(model).backward()
        for name, p in named:
            orig = p.data.copy()

            def f(arr, p=p):
                p.data = arr
                with ad.no_grad():
                    val = loss_with(model).item()
                return val

            num = numeric_grad(f, orig.copy())
            p.data = orig
            assert p.grad is not None, name
            err = rel_err(np.asarray(p.grad), num)
            assert err < 1e-4, f"{name}: rel err {err}"


def composed_bilstm(rows, levels):
    """Reference BiLSTM: chains of the per-step :func:`lstm_cell` over a
    list of per-token vectors, levels stacked by vector concatenation."""
    xs = rows
    for fw, fb, bw, bb in levels:
        states = []
        for (w, b), order in (((fw, fb), xs), ((bw, bb), xs[::-1])):
            h = Tensor(np.zeros(b.data.shape[0] // 4))
            c = Tensor(np.zeros(b.data.shape[0] // 4))
            out = []
            for x in order:
                h, c = lstm_cell(x, h, c, w, b)
                out.append(h)
            states.append(out)
        xs = [concat([f, b]) for f, b in zip(states[0], states[1][::-1])]
    return stack(xs)


def random_levels(rng, d_in, hidden, levels=2):
    out = []
    for _ in range(levels):
        fw, fb = init_lstm(rng, d_in, hidden)
        bw, bb = init_lstm(rng, d_in, hidden)
        for b in (fb, bb):
            b.data[:] = rng.normal(size=4 * hidden) * 0.5
        out.append((fw, fb, bw, bb))
        d_in = 2 * hidden
    return out


class TestLstmSequence:
    """One BiLSTM level, the node that runs both LSTM directions."""

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradient_vs_finite_differences(self, rng, reverse):
        """Only one direction's half of the output reaches the loss: that
        direction's weights and the input get its BPTT gradient, the other
        direction's weights exactly zero."""
        hidden, d_in, T = 3, 2, 4
        arrays = [rng.normal(size=(4 * hidden, d_in + hidden)) * 0.5,
                  rng.normal(size=4 * hidden) * 0.5] * 2 + [rng.normal(size=(T, d_in))]
        proj = np.zeros((T, 2 * hidden))
        half = slice(hidden, None) if reverse else slice(None, hidden)
        proj[:, half] = rng.normal(size=(T, hidden))

        def run(fw, fb, bw, bb, x):
            out = bilstm_level(Tensor(x), Tensor(fw), Tensor(fb), Tensor(bw), Tensor(bb))
            return sum_all(mul(out, Tensor(proj)))

        fw, fb, bw, bb, x = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        sum_all(mul(bilstm_level(x, fw, fb, bw, bb), Tensor(proj))).backward()
        got = dict(fw=np.asarray(fw.grad), fb=fb.grad, bw=np.asarray(bw.grad), bb=bb.grad,
                   x=x.grad)
        idle = ("fw", "fb") if reverse else ("bw", "bb")

        for which, name in enumerate(got):
            def f(arr, which=which):
                with ad.no_grad():
                    return run(*(arr if i == which else a for i, a in enumerate(arrays))).item()

            if name in idle:
                assert not got[name].any(), name
            else:
                assert rel_err(got[name], numeric_grad(f, arrays[which].copy())) < 1e-6, name

    def test_shape_mismatch_rejected(self):
        w, b = Tensor(np.zeros((20, 8))), Tensor(np.zeros(20))
        with pytest.raises(ValueError):
            bilstm_level(Tensor(np.ones((4, 2))), w, b, w, b)
        with pytest.raises(ValueError):
            bilstm_level(Tensor(np.ones((4, 3))), w, b, Tensor(np.zeros((20, 9))), b)
        with pytest.raises(ValueError):
            bilstm_level(Tensor(np.ones((4, 3))), w, b, w, Tensor(np.zeros(16)))

    @pytest.mark.parametrize("T", [1, 2, 7, 120])
    @pytest.mark.parametrize("hidden", [3, 64, 200])
    def test_matches_composed_cells(self, T, hidden):
        """Forward values and every gradient within 1e-12 relative of chains
        of the per-step cell, the two directions joined by concatenation."""
        rng = np.random.default_rng(T * 1000 + hidden)
        d_in = 7
        levels = random_levels(rng, d_in, hidden, levels=1)
        weights = list(levels[0])
        x0 = rng.normal(size=(T, d_in))
        proj = Tensor(rng.normal(size=(T, 2 * hidden)))

        x = Tensor(x0.copy(), requires_grad=True)
        out = bilstm_level(x, *weights)
        sum_all(mul(out, proj)).backward()
        fused = [out.data, x.grad] + [np.asarray(t.grad) for t in weights]
        for t in weights:
            t.grad = None

        rows = [Tensor(r.copy(), requires_grad=True) for r in x0]
        ref_out = composed_bilstm(rows, levels)
        sum_all(mul(ref_out, proj)).backward()
        reference = [ref_out.data, np.stack([r.grad for r in rows])]
        reference += [t.grad for t in weights]

        for got, want in zip(fused, reference):
            assert got.shape == want.shape
            assert rel_err(got, want) <= 1e-12

    def test_decodes_like_composed_cells(self, monkeypatch):
        """Every sentence of the bundled dev corpus gets the same heads from
        one fixed-seed default-size model through either BiLSTM."""
        sentences = bundled("ambiguous-dev")
        model = init_model(np.random.default_rng(7), build_vocab(sentences))
        fused = [parse([s], model)[0].heads for s in sentences]
        monkeypatch.setattr(
            model_module, "bilstm_encode",
            lambda x, levels, lengths, rows: composed_bilstm(
                [Tensor(x.data[r]) for r in rows], levels),
        )
        composed = [parse([s], model)[0].heads for s in sentences]
        assert len(fused) == 200
        assert fused == composed


def relative_gap(got, want):
    """max |got - want| over max |want|."""
    return np.abs(got - want).max() / np.abs(want).max()


def per_token_reference(model, sentences, training=False, alpha=0.25, seed=0):
    """Each sentence's rows by :func:`composed_bilstm` over every token's
    own concatenated (pretrained, random) vector, the pairs drawn by
    :func:`token_rows` with an rng of ``seed``: (contexts, the per-token
    input tensors, the pairs) per sentence."""
    rng = np.random.default_rng(seed)
    pre, rand = tables(model)
    out = []
    for s in sentences:
        pairs = token_rows(s, model.vocab, model.index, training, alpha, rng)
        xs = [Tensor(np.concatenate([pre.data[p], rand.data[r]]), requires_grad=True)
              for p, r in pairs]
        out.append((composed_bilstm(xs, lstm_levels(model)), xs, pairs))
    return out


def encoder_gradients(model, xs=None, pairs=None):
    """The dense gradients of the encoder's tensors after a backward, then
    cleared.  Given the reference's per-token inputs and their pairs, the
    tables' gradients are those of the inputs added onto their rows."""
    grads = {}
    for name, t in model.tensors.items():
        if name.startswith("ptr."):
            continue
        grads[name] = np.zeros(t.data.shape) if t.grad is None else np.asarray(t.grad)
        t.grad = None
    if xs is not None:
        d = model.shape.d_pretrained
        idx = np.array(pairs)
        g = np.stack([x.grad for x in xs])
        np.add.at(grads["emb.pretrained"], idx[:, 0], g[:, :d])
        np.add.at(grads["emb.random"], idx[:, 1], g[:, d:])
    return grads


class TestDistinctRows:
    """``model.sentence_contexts`` embeds each distinct (pretrained row,
    random row) pair of a batch once, and level 0 projects each once,
    against the composition of single LSTM steps over every token's own
    vector: values, and on the tape every encoder gradient, within 1e-12
    relative."""

    WORDS = ["a", "b", "c", "d", "e"]

    def check(self, model, sentences, training=False, alpha=0.25, seed=0):
        """Compare the library with :func:`per_token_reference`; return the
        reference's pairs, all sentences' in order."""
        reference = per_token_reference(model, sentences, training, alpha, seed)
        on_tape = len(sentences) == 1
        with contextlib.nullcontext() if on_tape else ad.no_grad():
            got = model_module.sentence_contexts(
                model, sentences, training, alpha, np.random.default_rng(seed))
        for ctx, (want, _, _) in zip(got, reference, strict=True):
            assert ctx.data.shape == want.data.shape
            assert relative_gap(ctx.data, want.data) <= 1e-12
        if on_tape:
            ((want, xs, pairs),) = reference
            proj = Tensor(np.random.default_rng(seed + 1).normal(size=want.data.shape))
            sum_all(mul(got[0], proj)).backward()
            fused = encoder_gradients(model)
            sum_all(mul(want, proj)).backward()
            composed = encoder_gradients(model, xs, pairs)
            for name, grad in fused.items():
                assert rel_err(grad, composed[name]) <= 1e-12, name
        return [pair for _, _, pairs in reference for pair in pairs]

    def model(self, rng, hidden=5):
        return tiny_model(rng, build_vocab([sent(self.WORDS)]), hidden=hidden)

    @pytest.mark.parametrize("hidden", [5, 64])
    @pytest.mark.parametrize("words", [
        ["a", "b", "c", "d", "e"],
        ["a", "b", "a", "c", "b", "a", "zzz", "zzz"],
        ["c"] * 6,
    ], ids=["all-distinct", "repeated", "one-word"])
    def test_one_sentence_on_the_tape(self, rng, words, hidden):
        pairs = self.check(self.model(rng, hidden), [sent(words)])
        assert len(set(pairs)) == len(set(words))

    def test_packed_batch(self, rng):
        sentences = [sent(w) for w in (["a", "b", "a"], ["c"], ["e", "a", "zzz", "e", "b"],
                                       ["b", "b"], ["zzz", "d", "c", "a"])]
        pairs = self.check(self.model(rng), sentences)
        assert len(pairs) == 15 and len(set(pairs)) == 6

    def test_word_dropout_on_the_tape(self, rng):
        words = ["a", "b", "a", "c", "d", "a", "b", "e", "zzz"]
        pairs = self.check(self.model(rng), [sent(words)], training=True, alpha=2.0, seed=3)
        unknown = (UNKNOWN_ID, UNKNOWN_ID)
        # dropout made unknown pairs of known words, which share one row
        # with the unknown word's own pair
        assert pairs.count(unknown) > 1 and pairs[-1] == unknown
        assert len(set(pairs)) > 1

    def test_rows_shared_across_tables(self, rng):
        """"dog" and "cow", unknown to the pretrained table, share its row
        but not a random row; "cat" and "Cat", one vocabulary entry with a
        pretrained row each, share the random row but not a pretrained
        one."""
        words = ["cat", "Cat", "dog", "cow", "cat", "bird", "dog"]
        vocab = build_vocab([sent(["cat", "dog", "cow"])])
        table = load_pretrained(io.StringIO("cat 1 0 0\nCat 0 1 0\nbird 0 0 1\n"))
        model = small_model(rng, vocab, table, d_pretrained=3, d_random=4, hidden=5, levels=2)
        pairs = self.check(model, [sent(words)])
        cat, big_cat, dog, cow = pairs[:4]
        assert dog[0] == cow[0] == UNKNOWN_ID and dog[1] != cow[1]
        assert cat[1] == big_cat[1] != UNKNOWN_ID and cat[0] != big_cat[0]
        assert len(set(pairs)) == 5

    def test_level_zero_projects_distinct_rows(self, rng, monkeypatch):
        """Twelve tokens of four distinct words: the gather and level 0's
        input product see four rows, and level 0 still gives twelve."""
        model = self.model(rng)
        seen = []

        def gather(rows, pre, rand):
            seen.append(("encode_tokens", len(rows)))
            return encode_tokens(rows, pre, rand)

        def level(x, *weights, **kwargs):
            out = bilstm_level(x, *weights, **kwargs)
            seen.append(("bilstm_level", len(x.data), len(out.data)))
            return out

        monkeypatch.setattr(model_module, "encode_tokens", gather)
        monkeypatch.setattr(enc, "bilstm_level", level)
        words = ["a", "b", "a", "c", "b", "a", "d", "a", "b", "c", "a", "a"]
        with ad.no_grad():
            model_module.sentence_contexts(model, [sent(words[:5]), sent(words[5:])])
        assert seen == [("encode_tokens", 4), ("bilstm_level", 4, 12), ("bilstm_level", 12, 12)]

    def test_encoder_gradient_with_repeated_words(self, rng):
        """Central differences of a scalar of the contexts of a sentence with
        repeated words, w.r.t. every encoder tensor: the gradients of the
        tokens of one word add up on its row."""
        model = tiny_model(rng, build_vocab([sent(["a", "b", "c"])]), d_pre=2, d_rand=3,
                           hidden=3, levels=2)
        s = sent(["a", "b", "a", "a", "c", "b"])
        proj = Tensor(rng.normal(size=(6, 6)))

        def loss():
            (ctx,) = model_module.sentence_contexts(model, [s])
            return sum_all(mul(ctx, proj))

        loss().backward()
        for name, p in model.tensors.items():
            if name.startswith("ptr."):
                continue
            orig = p.data.copy()

            def f(arr, p=p):
                p.data = arr
                with ad.no_grad():
                    return loss().item()

            num = numeric_grad(f, orig.copy())
            p.data = orig
            assert rel_err(np.asarray(p.grad), num) < 1e-6, name


class TestPackedBatch:
    """Several sentences through one BiLSTM pass, their rows packed a step
    at a time, against each sentence encoded alone."""

    LENGTHS = {
        "mixed": [7, 1, 120, 33, 2, 64, 7, 11, 90, 3, 7],
        "many-equal": [9] * 12 + [4] * 6 + [9] * 5,
        "one-token": [1] * 25,
    }

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("hidden", [3, 64, 200])
    @pytest.mark.parametrize("lengths", sorted(LENGTHS))
    def test_matches_sentences_alone(self, lengths, hidden, levels):
        lengths = self.LENGTHS[lengths]
        rng = np.random.default_rng(hidden * 10 + levels)
        d_in = 7
        stack = random_levels(rng, d_in, hidden, levels)
        xs = [rng.normal(size=(n, d_in)) for n in lengths]
        with ad.no_grad():
            batch = bilstm_encode(Tensor(np.concatenate(xs)), stack, lengths).data
            alone = [bilstm_encode(Tensor(x), stack).data for x in xs]
        parts = np.split(batch, np.cumsum(lengths)[:-1])
        for got, want in zip(parts, alone, strict=True):
            assert got.shape == want.shape == (len(want), 2 * hidden)
            assert relative_gap(got, want) <= 1e-12

    def test_packed_row_orders(self):
        """Longest sentence first, ties in batch order; the backward
        direction reads each sentence from its last token."""
        # rows: sentence 0 is 0-1, sentence 1 is 2, sentence 2 is 3-5
        forward, backward, sizes = enc._packing([2, 1, 3])
        assert forward.tolist() == [3, 0, 2, 4, 1, 5]
        assert backward.tolist() == [5, 1, 2, 4, 0, 3]
        assert sizes == [3, 2, 1]
        forward, backward, sizes = enc._packing([3])
        rows = np.arange(3)
        assert rows[forward].tolist() == [0, 1, 2]
        assert rows[backward].tolist() == [2, 1, 0]
        assert sizes == [1, 1, 1]

    def test_sentence_contexts_match_score_path(self, rng):
        """The model's batch encoder splits the rows back per sentence, in
        input order."""
        words = ["a", "b", "c", "d"]
        vocab = build_vocab([sent(words)])
        model = tiny_model(rng, vocab)
        sentences = [sent([words[int(rng.integers(0, 4))] for _ in range(n)])
                     for n in (3, 1, 6, 3, 2)]
        with ad.no_grad():
            batch = model_module.sentence_contexts(model, sentences)
            alone = [bilstm_encode(embed(s, model), lstm_levels(model)).data
                     for s in sentences]
        for got, want in zip(batch, alone, strict=True):
            assert relative_gap(got.data, want) <= 1e-12

    def test_batch_on_tape_rejected(self, rng):
        fw, fb = init_lstm(rng, 3, 4)
        bw, bb = init_lstm(rng, 3, 4)
        with pytest.raises(ValueError, match="no_grad"):
            bilstm_level(Tensor(np.ones((5, 3))), fw, fb, bw, bb, lengths=[2, 3])

    @pytest.mark.parametrize("lengths", [[2, 2], [5, 0], []])
    def test_lengths_must_cover_rows(self, rng, lengths):
        fw, fb = init_lstm(rng, 3, 4)
        with ad.no_grad(), pytest.raises(ValueError):
            bilstm_level(Tensor(np.ones((5, 3))), fw, fb, fw, fb, lengths=lengths)

    @pytest.mark.parametrize("rows", [[0, -1, 2], [0, 5, 1], [[0, 1]]])
    def test_token_rows_must_index_input_rows(self, rng, rows):
        fw, fb = init_lstm(rng, 3, 4)
        with pytest.raises(ValueError, match="token rows out of range for 5 input rows"):
            bilstm_level(Tensor(np.ones((5, 3))), fw, fb, fw, fb, rows=rows)
