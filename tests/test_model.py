"""Model assembly: init modes, parameter registry, variant gating."""
import numpy as np
import pytest

from dualpointer.conll import Sentence, Token
from dualpointer.model import (
    DEPS_ONLY,
    HEADS_ONLY,
    JOINT,
    MODE_NETS,
    MODE_VARIANTS,
    MODES,
    VARIANTS,
    ModeMismatchError,
    init_model,
    require_variant,
    score_sentence,
)
from dualpointer.vocab import build_vocab


def sent(words, heads=None):
    heads = heads or ([0] + [1] * (len(words) - 1))
    return Sentence([Token(i + 1, w, None, h) for i, (w, h) in enumerate(zip(words, heads))])


@pytest.fixture
def vocab():
    return build_vocab([sent(["a", "b", "c", "d"])])


def small_model(rng, vocab, mode=JOINT):
    return init_model(
        rng, vocab, mode=mode, d_pretrained=3, d_random=4,
        bilstm_hidden=5, bilstm_levels=2, ptr_hidden=6,
    )


def test_variant_table_and_its_derived_tables():
    assert VARIANTS == {
        "p1": (JOINT, ("heads", "deps")),
        "p2": (JOINT, ("heads",)),
        "p3": (JOINT, ("deps",)),
        "p4": (HEADS_ONLY, ("heads",)),
        "p5": (DEPS_ONLY, ("deps",)),
    }
    assert MODES == (JOINT, HEADS_ONLY, DEPS_ONLY)
    assert MODE_VARIANTS == {JOINT: ("p1", "p2", "p3"), HEADS_ONLY: ("p4",),
                             DEPS_ONLY: ("p5",)}
    assert MODE_NETS == {JOINT: ("heads", "deps"), HEADS_ONLY: ("heads",),
                         DEPS_ONLY: ("deps",)}


def nets(model):
    """Tags of the pointer nets whose tensors the model holds."""
    return {name.split(".")[1] for name in model.tensors if name.startswith("ptr.")}


def test_joint_owns_both_nets(rng, vocab):
    assert nets(small_model(rng, vocab)) == {"heads", "deps"}


def test_single_task_models_own_one_net(rng, vocab):
    mh = small_model(rng, vocab, HEADS_ONLY)
    md = small_model(np.random.default_rng(0), vocab, DEPS_ONLY)
    assert nets(mh) == {"heads"}
    assert nets(md) == {"deps"}


def test_named_params_fixed_order(rng, vocab):
    m = small_model(rng, vocab)
    names = list(m.tensors)
    assert names == [
        "emb.pretrained", "emb.random",
        "lstm.l0.fwd.w", "lstm.l0.fwd.b", "lstm.l0.bwd.w", "lstm.l0.bwd.b",
        "lstm.l1.fwd.w", "lstm.l1.fwd.b", "lstm.l1.bwd.w", "lstm.l1.bwd.b",
        "ptr.heads.w", "ptr.heads.b", "ptr.heads.v",
        "ptr.deps.w", "ptr.deps.b", "ptr.deps.v",
    ]
    assert all(t.requires_grad for t in m.tensors.values())


def test_same_seed_same_params(vocab):
    a = small_model(np.random.default_rng(7), vocab)
    b = small_model(np.random.default_rng(7), vocab)
    for (na, ta), (nb, tb) in zip(a.tensors.items(), b.tensors.items()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_default_dims_match_table(vocab):
    m = init_model(np.random.default_rng(0), vocab)
    t = m.tensors
    assert t["emb.pretrained"].data.shape[1] == 100
    assert t["emb.random"].data.shape[1] == 150
    assert {n.split(".")[1] for n in t if n.startswith("lstm.")} == {"l0", "l1"}
    assert t["lstm.l0.fwd.w"].data.shape[0] == 4 * 200
    assert t["ptr.heads.v"].data.shape == (100,)
    assert t["ptr.heads.w"].data.shape == (100, 2 * 400)


def test_unknown_mode_rejected(rng, vocab):
    with pytest.raises(ValueError):
        init_model(rng, vocab, mode="both")
    with pytest.raises(ValueError):
        init_model(rng, vocab, activation="relu")


class TestVariantGate:
    def test_joint_serves_p1_p2_p3(self, rng, vocab):
        m = small_model(rng, vocab)
        for v in ("p1", "p2", "p3"):
            require_variant(m, v)
        for v in ("p4", "p5"):
            with pytest.raises(ModeMismatchError):
                require_variant(m, v)

    def test_heads_only_serves_p4(self, rng, vocab):
        m = small_model(rng, vocab, HEADS_ONLY)
        require_variant(m, "p4")
        for v in ("p1", "p2", "p3", "p5"):
            with pytest.raises(ModeMismatchError):
                require_variant(m, v)

    def test_deps_only_serves_p5(self, rng, vocab):
        m = small_model(rng, vocab, DEPS_ONLY)
        require_variant(m, "p5")
        with pytest.raises(ModeMismatchError):
            require_variant(m, "p4")

    def test_unknown_variant(self, rng, vocab):
        with pytest.raises(ModeMismatchError):
            require_variant(small_model(rng, vocab), "p9")


def test_score_sentence_shapes_and_modes(rng, vocab):
    s = sent(["a", "b", "c"])
    joint = score_sentence(small_model(rng, vocab), s)
    assert joint.heads.data.shape == (3, 3)
    assert joint.deps.data.shape == (3, 3)
    ho = score_sentence(small_model(rng, vocab, HEADS_ONLY), s)
    assert ho.deps is None and ho.heads is not None
