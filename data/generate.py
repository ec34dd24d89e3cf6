"""Build script of the three bundled treebanks in this directory.

    PYTHONPATH=src python3 data/generate.py data

writes ``toy.conllu``, ``ambiguous-train.conllu`` and
``ambiguous-dev.conllu`` into the directory given (default: the one this
script is in).  The output is a deterministic function of this file, so a
run reproduces the committed files byte for byte; a test checks that.

Two grammars share one lexicon style but serve different jobs:

* :func:`toy_treebank` emits a small, fully deterministic corpus (every
  attachment decided by the template), sized for overfitting checks.
  Every lexeme occurs often enough that frequency-scaled word dropout
  stays rare.  Extraposed relative clauses make some trees
  non-projective.

* :func:`ambiguous_treebank` emits a corpus whose PP attachment is
  stochastic but lexically cued (each preposition has its own
  verb-vs-noun attachment bias), so held-out accuracy is learnable yet
  bounded away from trivial.
"""
from __future__ import annotations

import os
import sys

import numpy as np

from dualpointer.conll import Sentence, Token, write_conll

TOY_SENTENCES = 60

DETS = ["the", "a"]
NOUNS = ["dog", "cat", "bird", "fish"]
VERBS_IN = ["barked", "slept", "ran"]
VERBS_TR = ["ate", "chased"]
ADVS = ["today", "loudly"]
REL_VERBS = ["bites", "sees"]


def _sentence(items: list[tuple[str, str, int]]) -> Sentence:
    tokens = [
        Token(i + 1, form, pos, head)
        for i, (form, pos, head) in enumerate(items)
    ]
    return Sentence(tokens)


def toy_treebank() -> list[Sentence]:
    """A fixed corpus of TOY_SENTENCES sentences, lengths 3 to 10.

    Attachment rules are exceptionless: determiners go to their noun,
    adverbs and prepositional phrases to the verb, and "that <verb>"
    modifies the subject noun from sentence-final position, which crosses
    the adverb arc (non-projective).
    """
    sents: list[Sentence] = []
    for i in range(TOY_SENTENCES):
        d1, d2, d3 = DETS[i % 2], DETS[(i + 1) % 2], DETS[i % 2]
        n1, n2, n3 = NOUNS[i % 4], NOUNS[(i + 1) % 4], NOUNS[(i + 2) % 4]
        vi = VERBS_IN[i % 3]
        vt = VERBS_TR[i % 2]
        adv = ADVS[i % 2]
        adv2 = ADVS[(i + 1) % 2]
        rv = REL_VERBS[i % 2]
        templates = [
            # the dog barked
            [(d1, "DET", 2), (n1, "NOUN", 3), (vi, "VERB", 0)],
            # the dog barked today
            [(d1, "DET", 2), (n1, "NOUN", 3), (vi, "VERB", 0), (adv, "ADV", 3)],
            # the dog ate the fish
            [(d1, "DET", 2), (n1, "NOUN", 3), (vt, "VERB", 0),
             (d2, "DET", 5), (n2, "NOUN", 3)],
            # the dog barked today that bites   (arc 6->2 crosses the root)
            [(d1, "DET", 2), (n1, "NOUN", 3), (vi, "VERB", 0), (adv, "ADV", 3),
             ("that", "PRON", 6), (rv, "VERB", 2)],
            # the dog ate the fish today
            [(d1, "DET", 2), (n1, "NOUN", 3), (vt, "VERB", 0),
             (d2, "DET", 5), (n2, "NOUN", 3), (adv, "ADV", 3)],
            # the dog barked near the cat
            [(d1, "DET", 2), (n1, "NOUN", 3), (vi, "VERB", 0),
             ("near", "ADP", 3), (d2, "DET", 6), (n2, "NOUN", 4)],
            # the dog barked today that bites a cat
            [(d1, "DET", 2), (n1, "NOUN", 3), (vi, "VERB", 0), (adv, "ADV", 3),
             ("that", "PRON", 6), (rv, "VERB", 2), (d2, "DET", 8), (n2, "NOUN", 6)],
            # the dog ate the fish near the cat
            [(d1, "DET", 2), (n1, "NOUN", 3), (vt, "VERB", 0),
             (d2, "DET", 5), (n2, "NOUN", 3), ("near", "ADP", 3),
             (d3, "DET", 8), (n3, "NOUN", 6)],
            # the dog ate the fish near the cat today
            [(d1, "DET", 2), (n1, "NOUN", 3), (vt, "VERB", 0),
             (d2, "DET", 5), (n2, "NOUN", 3), ("near", "ADP", 3),
             (d3, "DET", 8), (n3, "NOUN", 6), (adv, "ADV", 3)],
            # the dog ate the fish near the cat today loudly
            [(d1, "DET", 2), (n1, "NOUN", 3), (vt, "VERB", 0),
             (d2, "DET", 5), (n2, "NOUN", 3), ("near", "ADP", 3),
             (d3, "DET", 8), (n3, "NOUN", 6), (adv, "ADV", 3), (adv2, "ADV", 3)],
        ]
        sents.append(_sentence(templates[i % len(templates)]))
    return sents


AMB_DETS = ["the", "a", "every", "some"]
AMB_NOUNS = [
    "man", "woman", "dog", "child", "bird", "teacher", "student", "car",
    "park", "telescope", "house", "garden", "river", "book", "city", "friend",
    "doctor", "artist", "farmer", "singer",
]
AMB_VERBS_TR = ["saw", "chased", "liked", "found", "followed", "visited", "drew", "heard"]
AMB_VERBS_IN = ["slept", "arrived", "laughed", "ran", "waited", "smiled"]
AMB_ADVS = ["yesterday", "quickly", "often", "quietly"]
# preposition -> probability that its phrase attaches to the verb
AMB_PREPS = {"near": 0.85, "with": 0.25, "in": 0.6}
AMB_REL_VERBS = ["sings", "writes", "sleeps"]


def _zipf_pick(rng: np.random.Generator, items: list[str]) -> str:
    # heavier mass on early entries, long tail of rare words
    weights = 1.0 / np.arange(1, len(items) + 1)
    weights /= weights.sum()
    return items[rng.choice(len(items), p=weights)]


def ambiguous_treebank(count: int, seed: int) -> list[Sentence]:
    """``count`` sentences with stochastic, preposition-cued PP attachment
    and occasional non-projective extraposed relatives."""
    rng = np.random.default_rng(seed)
    return [_ambiguous_sentence(rng) for _ in range(count)]


def _np_items(rng, head_of_noun, pos_offset):
    """Determiner + noun; returns (items, noun position)."""
    det = AMB_DETS[rng.integers(0, len(AMB_DETS))]
    noun = _zipf_pick(rng, AMB_NOUNS)
    noun_pos = pos_offset + 2
    return [(det, "DET", noun_pos), (noun, "NOUN", head_of_noun)], noun_pos


def _ambiguous_sentence(rng: np.random.Generator) -> Sentence:
    items: list[tuple[str, str, int]] = []
    # subject
    subj, subj_noun = _np_items(rng, 0, 0)  # head patched once verb placed
    items += subj
    verb_pos = len(items) + 1
    transitive = rng.random() < 0.6
    verb = _zipf_pick(rng, AMB_VERBS_TR if transitive else AMB_VERBS_IN)
    items.append((verb, "VERB", 0))
    items[subj_noun - 1] = (items[subj_noun - 1][0], "NOUN", verb_pos)

    obj_noun = None
    if transitive:
        obj, obj_noun = _np_items(rng, verb_pos, len(items))
        items += obj

    for _ in range(int(rng.integers(0, 3))):
        if len(items) >= 10:
            break
        roll = rng.random()
        if roll < 0.55:
            # prepositional phrase; attachment cued by the preposition
            preps = list(AMB_PREPS)
            prep = preps[rng.integers(0, len(preps))]
            verb_attach = rng.random() < AMB_PREPS[prep]
            attach_to = verb_pos if verb_attach or obj_noun is None else obj_noun
            prep_pos = len(items) + 1
            items.append((prep, "ADP", attach_to))
            pp_np, _ = _np_items(rng, prep_pos, len(items))
            items += pp_np
        elif roll < 0.85:
            adv = AMB_ADVS[rng.integers(0, len(AMB_ADVS))]
            items.append((adv, "ADV", verb_pos))
        else:
            # extraposed relative on the subject: non-projective when
            # anything sits between the verb and the clause
            rel_pos = len(items) + 1
            items.append(("that", "PRON", rel_pos + 1))
            rv = AMB_REL_VERBS[rng.integers(0, len(AMB_REL_VERBS))]
            items.append((rv, "VERB", subj_noun))
            break
    return _sentence(items)


def write_bundled(directory: str) -> list[str]:
    """Write the three bundled treebanks into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, corpus in (
        ("toy.conllu", toy_treebank()),
        ("ambiguous-train.conllu", ambiguous_treebank(2000, seed=100)),
        ("ambiguous-dev.conllu", ambiguous_treebank(200, seed=200)),
    ):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as f:
            write_conll(corpus, f)
        written.append(path)
    return written


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    for path in write_bundled(sys.argv[1] if len(sys.argv) > 1 else here):
        print(path)
