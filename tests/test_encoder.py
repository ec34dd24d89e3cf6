"""Encoder behaviour: dropout law, embedding lookup paths, LSTM math,
bidirectional stacking, gradients against finite differences, and the
sequence LSTM node against the composed per-step cell it replaces."""
import io
from pathlib import Path

import numpy as np
import pytest
from fd import numeric_grad, rel_err
from oracles import lstm_cell

from dualpointer import autodiff as ad
from dualpointer import encoder as enc
from dualpointer.autodiff import Tensor
from dualpointer import model as model_module
from dualpointer.conll import Sentence, Token, read_conll
from dualpointer.decoding import parse
from dualpointer.encoder import (
    EncoderParams,
    LstmWeights,
    bilstm_encode,
    dropout_prob,
    encode_tokens,
    lstm_sequence,
    token_rows,
)
from dualpointer.model import init_model
from dualpointer.vocab import UNKNOWN_ID, build_vocab, load_pretrained


def sent(words):
    return Sentence([Token(i + 1, w, None, 0 if i == 0 else 1) for i, w in enumerate(words)])


def init_encoder_params(rng, vocab, pretrained, d_pretrained, d_random, hidden, levels):
    """The encoder of a freshly drawn model of these sizes."""
    model = init_model(rng, vocab, pretrained, d_pretrained=d_pretrained, d_random=d_random,
                       bilstm_hidden=hidden, bilstm_levels=levels)
    return model.encoder


def tiny_params(rng, vocab, d_pre=3, d_rand=4, hidden=5, levels=2):
    return init_encoder_params(rng, vocab, None, d_pre, d_rand, hidden, levels)


def init_lstm(rng, input_dim, hidden):
    """Glorot-uniform gate matrix (per-gate fan-out), zero bias."""
    limit = np.sqrt(6.0 / (input_dim + 2 * hidden))
    w = rng.uniform(-limit, limit, size=(4 * hidden, input_dim + hidden))
    return LstmWeights(Tensor(w, requires_grad=True),
                       Tensor(np.zeros(4 * hidden), requires_grad=True), hidden)


def embed(sentence, params, vocab):
    """Inference-mode token encodings of a sentence."""
    return encode_tokens(token_rows(sentence, params, vocab), params)


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
        params = tiny_params(rng, vocab)
        s = sent(["a", "c"])
        out1 = rows_of(embed(s, params, vocab))
        out2 = rows_of(embed(s, params, vocab))
        assert all(v.data.shape == (7,) for v in out1)
        for v1, v2 in zip(out1, out2):
            np.testing.assert_array_equal(v1.data, v2.data)

    def test_oov_takes_both_unknown_vectors(self, rng):
        vocab = build_vocab([sent(["a", "b"])])
        params = tiny_params(rng, vocab)
        (v,) = rows_of(embed(sent(["zzz"]), params, vocab))
        expected = np.concatenate([
            params.pretrained.weights.data[UNKNOWN_ID],
            params.random.weights.data[UNKNOWN_ID],
        ])
        np.testing.assert_array_equal(v.data, expected)

    def test_pretrained_file_lookup_separate_from_vocab(self, rng):
        vocab = build_vocab([sent(["cat", "dog"])])
        table = load_pretrained(io.StringIO("cat 1 0 0\nbird 0 1 0\n"))
        params = init_encoder_params(rng, vocab, table, d_pretrained=3, d_random=4,
                                     hidden=5, levels=1)
        rows = token_rows(sent(["cat", "dog", "bird"]), params, vocab)
        # cat: both maps know it; dog: only vocab; bird: only pretrained
        assert rows[0] == (table.row_of("cat"), vocab.lookup("cat"))
        assert rows[1] == (UNKNOWN_ID, vocab.lookup("dog"))
        assert rows[2] == (table.row_of("bird"), UNKNOWN_ID)

    def test_no_dropout_at_inference(self, rng):
        vocab = build_vocab([sent(["rare"])])
        params = tiny_params(rng, vocab)
        for _ in range(200):
            rows = token_rows(sent(["rare"]), params, vocab, training=False)
            assert rows[0][1] == vocab.lookup("rare")

    def test_dropout_rate_matches_law(self, rng):
        # frequency-1 word, alpha 0.25: substitution rate near 0.2
        vocab = build_vocab([sent(["rare", "x", "y"])])
        params = tiny_params(rng, vocab)
        s = sent(["rare"])
        hits = 0
        n = 10000
        for _ in range(n):
            rows = token_rows(s, params, vocab, training=True, alpha=0.25, rng=rng)
            hits += rows[0][1] == UNKNOWN_ID
        assert abs(hits / n - 0.2) < 0.01

    def test_dropout_hits_both_maps_together(self, rng):
        vocab = build_vocab([sent(["cat", "a", "b"])])
        table = load_pretrained(io.StringIO("cat 1 0 0\n"))
        params = init_encoder_params(rng, vocab, table, d_pretrained=3, d_random=4,
                                     hidden=5, levels=1)
        s = sent(["cat"])
        saw_hit = False
        for _ in range(500):
            (pre, rnd) = token_rows(s, params, vocab, training=True, alpha=5.0, rng=rng)[0]
            assert (pre == UNKNOWN_ID) == (rnd == UNKNOWN_ID)
            saw_hit = saw_hit or pre == UNKNOWN_ID
        assert saw_hit

    def test_training_without_rng_rejected(self, rng):
        vocab = build_vocab([sent(["a"])])
        params = tiny_params(rng, vocab)
        with pytest.raises(ValueError):
            token_rows(sent(["a"]), params, vocab, training=True)

    def test_embedding_gradient_reaches_rows(self, rng):
        vocab = build_vocab([sent(["a", "b"])])
        params = tiny_params(rng, vocab, levels=1)
        out = embed(sent(["a", "a"]), params, vocab)
        loss = ad.sum_all(ad.mul(out, out))
        loss.backward()
        g = np.asarray(params.random.weights.grad)
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
        params = tiny_params(rng, vocab, levels=1)
        tables = (params.pretrained.weights, params.random.weights)
        gathers, parts = [], []
        for words in sentences:
            rows = token_rows(sent(words), params, vocab)
            g = rng.normal(size=(len(words), 7))
            gathers.append((np.array(rows), g))
            parts.append(ad.sum_all(ad.mul(encode_tokens(rows, params), Tensor(g))))
        loss = parts[0] if len(parts) == 1 else ad.add(parts[0], parts[1])
        loss.backward()
        # reference: each gather's dense np.add.at gradient, summed in order
        d = params.pretrained.dim
        for k, cols in enumerate((slice(None, d), slice(d, None))):
            table, dense = tables[k], None
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
        w = LstmWeights(Tensor(np.zeros((20, 8))), Tensor(np.zeros(20)), hidden=5)
        h, c = lstm_cell(Tensor(np.ones(3)), Tensor(np.zeros(5)), Tensor(np.zeros(5)), w)
        np.testing.assert_array_equal(h.data, np.zeros(5))
        np.testing.assert_array_equal(c.data, np.zeros(5))

    def test_saturated_gates_preserve_cell(self, rng):
        # forget bias -> +inf, input bias -> -inf: c == c_prev
        hidden = 4
        w = LstmWeights(
            Tensor(rng.normal(size=(16, 7)) * 0.1),
            Tensor(np.concatenate([np.full(4, -50.0), np.full(4, 50.0), np.zeros(8)])),
            hidden=hidden,
        )
        c_prev = rng.normal(size=hidden)
        _, c = lstm_cell(Tensor(rng.normal(size=3)), Tensor(rng.normal(size=hidden)), Tensor(c_prev), w)
        np.testing.assert_allclose(c.data, c_prev, rtol=0, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        w = LstmWeights(Tensor(np.zeros((20, 8))), Tensor(np.zeros(20)), hidden=5)
        with pytest.raises(ValueError):
            lstm_cell(Tensor(np.ones(3)), Tensor(np.zeros(4)), Tensor(np.zeros(5)), w)

    def test_cell_gradient_vs_finite_differences(self, rng):
        hidden, xin = 4, 3
        w0 = rng.normal(size=(16, 7)) * 0.3
        b0 = rng.normal(size=16) * 0.1
        x0 = rng.normal(size=xin)
        h0 = rng.normal(size=hidden) * 0.5
        c0 = rng.normal(size=hidden) * 0.5
        proj = rng.normal(size=hidden)

        def run(w_arr, b_arr, x_arr, h_arr, c_arr):
            w = LstmWeights(Tensor(w_arr), Tensor(b_arr), hidden=hidden)
            h, c = lstm_cell(Tensor(x_arr), Tensor(h_arr), Tensor(c_arr), w)
            return ad.sum_all(ad.mul(ad.add(h, c), Tensor(proj)))

        w = Tensor(w0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        x = Tensor(x0.copy(), requires_grad=True)
        hw = LstmWeights(w, b, hidden=hidden)
        hh, cc = lstm_cell(x, Tensor(h0), Tensor(c0), hw)
        ad.sum_all(ad.mul(ad.add(hh, cc), Tensor(proj))).backward()

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
        params = tiny_params(rng, vocab)
        out = rows_of(bilstm_encode(embed(sent(["a"]), params, vocab), params))
        assert len(out) == 1
        assert out[0].data.shape == (10,)  # 2 * hidden

    def test_empty_rejected(self, rng):
        vocab = build_vocab([sent(["a"])])
        params = tiny_params(rng, vocab)
        with pytest.raises(ValueError):
            bilstm_encode(Tensor(np.zeros((0, 7))), params)

    def test_two_levels_stack(self, rng):
        vocab = build_vocab([sent(["a", "b", "c"])])
        params = tiny_params(rng, vocab, levels=2)
        out = rows_of(bilstm_encode(embed(sent(["a", "b", "c"]), params, vocab), params))
        assert len(out) == 3
        assert all(v.data.shape == (10,) for v in out)

    def test_direction_symmetry_single_level(self, rng):
        # reverse input + swap direction weights = reversed, half-swapped output
        vocab = build_vocab([sent(["a", "b", "c", "d"])])
        params = tiny_params(rng, vocab, hidden=5, levels=1)
        swapped = EncoderParams(
            pretrained=params.pretrained,
            random=params.random,
            layers=[(bwd, fwd) for fwd, bwd in params.layers],
        )
        s = sent(["a", "b", "c", "d"])
        xs = embed(s, params, vocab)
        out = rows_of(bilstm_encode(xs, params))
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
        params = tiny_params(rng, vocab, hidden=h, levels=2)

        def swap_input_halves(weights):
            w = weights.w.data
            inp, rec = w[:, : 2 * h], w[:, 2 * h :]
            permuted = np.concatenate([inp[:, h:], inp[:, :h], rec], axis=1)
            return LstmWeights(Tensor(permuted), weights.b, hidden=h)

        l1f, l1b = params.layers[0]
        l2f, l2b = params.layers[1]
        swapped = EncoderParams(
            pretrained=params.pretrained,
            random=params.random,
            layers=[(l1b, l1f), (swap_input_halves(l2b), swap_input_halves(l2f))],
        )
        s = sent(["a", "b", "c", "d"])
        xs = embed(s, params, vocab)
        out = rows_of(bilstm_encode(xs, params))
        out_sw = rows_of(bilstm_encode(Tensor(xs.data[::-1]), swapped))
        for i, v in enumerate(out):
            mirror = out_sw[len(out) - 1 - i].data
            np.testing.assert_allclose(v.data[:h], mirror[h:], rtol=1e-12)
            np.testing.assert_allclose(v.data[h:], mirror[:h], rtol=1e-12)

    def test_context_sensitivity(self, rng):
        # changing any one token moves every position's vector
        vocab = build_vocab([sent(["a", "b", "c", "d", "e", "f"])])
        params = tiny_params(rng, vocab)
        base_words = ["a", "b", "c", "d", "e"]
        encoded = bilstm_encode(embed(sent(base_words), params, vocab), params)
        base = [v.data for v in rows_of(encoded)]
        for j in range(len(base_words)):
            changed = list(base_words)
            changed[j] = "f"
            out = rows_of(bilstm_encode(embed(sent(changed), params, vocab), params))
            for i in range(len(base_words)):
                assert not np.array_equal(out[i].data, base[i])

    def test_whole_encoder_gradient(self, rng):
        """Gradient of a scalar of the context vectors w.r.t. every encoder
        parameter tensor, against central differences."""
        vocab = build_vocab([sent(["a", "b", "c", "d"])])
        params = tiny_params(rng, vocab, d_pre=2, d_rand=3, hidden=3, levels=2)
        s = sent(["a", "b", "c", "d"])
        proj = rng.normal(size=6)

        def loss_with(params_):
            out = bilstm_encode(embed(s, params_, vocab), params_)
            return ad.sum_all(ad.mul(out, Tensor(np.tile(proj, (4, 1)))))

        named = [
            ("pretrained", params.pretrained.weights),
            ("random", params.random.weights),
        ]
        for li, (fwd, bwd) in enumerate(params.layers):
            named += [
                (f"l{li}.fwd.w", fwd.w), (f"l{li}.fwd.b", fwd.b),
                (f"l{li}.bwd.w", bwd.w), (f"l{li}.bwd.b", bwd.b),
            ]

        loss_with(params).backward()
        for name, p in named:
            orig = p.data.copy()

            def f(arr, p=p):
                p.data = arr
                with ad.no_grad():
                    val = loss_with(params).item()
                return val

            num = numeric_grad(f, orig.copy())
            p.data = orig
            assert p.grad is not None, name
            err = rel_err(p.grad, num)
            assert err < 1e-4, f"{name}: rel err {err}"


def composed_bilstm(rows, params):
    """Reference BiLSTM: chains of the per-step :func:`lstm_cell` over a
    list of per-token vectors, levels stacked by vector concatenation."""
    xs = rows
    for fwd, bwd in params.layers:
        states = []
        for weights, order in ((fwd, xs), (bwd, xs[::-1])):
            h = Tensor(np.zeros(weights.hidden))
            c = Tensor(np.zeros(weights.hidden))
            out = []
            for x in order:
                h, c = lstm_cell(x, h, c, weights)
                out.append(h)
            states.append(out)
        xs = [ad.concat([f, b]) for f, b in zip(states[0], states[1][::-1])]
    return ad.stack(xs)


def random_levels(rng, d_in, hidden, levels=2):
    layers = []
    for _ in range(levels):
        pair = (init_lstm(rng, d_in, hidden), init_lstm(rng, d_in, hidden))
        for weights in pair:
            weights.b.data[:] = rng.normal(size=4 * hidden) * 0.5
        layers.append(pair)
        d_in = 2 * hidden
    return layers


class TestLstmSequence:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradient_vs_finite_differences(self, rng, reverse):
        hidden, d_in, T = 3, 2, 4
        w0 = rng.normal(size=(4 * hidden, d_in + hidden)) * 0.5
        b0 = rng.normal(size=4 * hidden) * 0.5
        x0 = rng.normal(size=(T, d_in))
        proj = rng.normal(size=(T, hidden))

        def run(w_arr, b_arr, x_arr):
            weights = LstmWeights(Tensor(w_arr), Tensor(b_arr), hidden=hidden)
            out = lstm_sequence(Tensor(x_arr), weights, reverse=reverse)
            return ad.sum_all(ad.mul(out, Tensor(proj)))

        w = Tensor(w0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        x = Tensor(x0.copy(), requires_grad=True)
        out = lstm_sequence(x, LstmWeights(w, b, hidden=hidden), reverse=reverse)
        ad.sum_all(ad.mul(out, Tensor(proj))).backward()

        def numeric(which):
            args = [w0, b0, x0]

            def f(arr):
                with ad.no_grad():
                    return run(*(arr if i == which else a for i, a in enumerate(args))).item()

            return numeric_grad(f, args[which].copy())

        assert rel_err(w.grad, numeric(0)) < 1e-6
        assert rel_err(b.grad, numeric(1)) < 1e-6
        assert rel_err(x.grad, numeric(2)) < 1e-6

    def test_shape_mismatch_rejected(self):
        w = LstmWeights(Tensor(np.zeros((20, 8))), Tensor(np.zeros(20)), hidden=5)
        with pytest.raises(ValueError):
            lstm_sequence(Tensor(np.ones((4, 2))), w)

    @pytest.mark.parametrize("T", [1, 2, 7, 120])
    @pytest.mark.parametrize("hidden", [3, 64, 200])
    def test_matches_composed_cells(self, T, hidden):
        """Two-level BiLSTM, both directions: forward values and every
        gradient within 1e-12 relative of the per-step reference."""
        rng = np.random.default_rng(T * 1000 + hidden)
        d_in = 7
        layers = random_levels(rng, d_in, hidden)
        params = EncoderParams(pretrained=None, random=None, layers=layers)
        weights = [t for pair in layers for lw in pair for t in (lw.w, lw.b)]
        x0 = rng.normal(size=(T, d_in))
        proj = Tensor(rng.normal(size=(T, 2 * hidden)))

        x = Tensor(x0.copy(), requires_grad=True)
        out = bilstm_encode(x, params)
        ad.sum_all(ad.mul(out, proj)).backward()
        fused = [out.data, x.grad] + [t.grad for t in weights]
        for t in weights:
            t.grad = None

        rows = [Tensor(r.copy(), requires_grad=True) for r in x0]
        ref_out = composed_bilstm(rows, params)
        ad.sum_all(ad.mul(ref_out, proj)).backward()
        reference = [ref_out.data, np.stack([r.grad for r in rows])]
        reference += [t.grad for t in weights]

        for got, want in zip(fused, reference):
            assert got.shape == want.shape
            assert rel_err(got, want) <= 1e-12

    def test_decodes_like_composed_cells(self, monkeypatch):
        """Every sentence of the bundled dev corpus gets the same heads from
        one fixed-seed default-size model through either BiLSTM."""
        path = Path(__file__).resolve().parent.parent / "data" / "ambiguous-dev.conllu"
        with open(path, encoding="utf-8") as f:
            sentences = read_conll(f)
        model = init_model(np.random.default_rng(7), build_vocab(sentences))
        fused = [parse(s, model).heads for s in sentences]
        monkeypatch.setattr(
            model_module, "bilstm_encode",
            lambda x, params: composed_bilstm([Tensor(r) for r in x.data], params),
        )
        composed = [parse(s, model).heads for s in sentences]
        assert len(fused) == 200
        assert fused == composed
