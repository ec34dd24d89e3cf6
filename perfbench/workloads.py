"""Benchmark workloads: corpora built from the bundled treebanks and a seed.

Every input is a pure function of the workload name and the seed.  The
seed chooses which bundled sentences are used; how many sentences there
are and how long each one is are fixed per workload, so token counts (and
with them the work per run) do not depend on the seed.

This module reads and writes CoNLL text itself and validates trees with
its own code, so the checks in ``check.py`` do not lean on the parser
they check.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path("data")
TRAIN_BANK = DATA / "ambiguous-train.conllu"
DEV_BANK = DATA / "ambiguous-dev.conllu"

HEAD = 6  # CoNLL column holding the head index

# A sentence is a list of 10-column rows (lists of strings).
Rows = list[list[str]]


def read_rows(path: Path) -> list[Rows]:
    """Sentences of a CoNLL file; comments and multiword/empty lines dropped."""
    sentences = []
    for block in path.read_text(encoding="utf-8").split("\n\n"):
        rows = [line.split("\t") for line in block.splitlines()
                if line and not line.startswith("#")]
        rows = [r for r in rows if r[0].isdigit()]
        if rows:
            sentences.append(rows)
    return sentences


def write_rows(sentences: list[Rows], path: Path) -> None:
    path.write_text("".join("".join("\t".join(r) + "\n" for r in s) + "\n"
                            for s in sentences), encoding="utf-8")


def heads_of(rows: Rows) -> list[int]:
    return [int(r[HEAD]) for r in rows]


def tree_violation(heads: list[int]) -> str | None:
    """Why ``heads`` is not a dependency tree, or None when it is one.

    A tree has exactly one top (head 0), every head in 0..n, no token
    heading itself, and no cycle.
    """
    n = len(heads)
    tops = sum(h == 0 for h in heads)
    if tops != 1:
        return f"{tops} top tokens"
    for i, h in enumerate(heads, start=1):
        if not 0 <= h <= n:
            return f"head {h} of token {i} out of range"
        if h == i:
            return f"token {i} heads itself"
    state = [0] * (n + 1)  # 0 unseen, 1 on the current walk, 2 reaches the top
    for start in range(1, n + 1):
        walk = []
        j = start
        while j != 0 and state[j] == 0:
            state[j] = 1
            walk.append(j)
            j = heads[j - 1]
        if j != 0 and state[j] == 1:
            return f"cycle through token {j}"
        for k in walk:
            state[k] = 2
    return None


def join(parts: list[Rows]) -> Rows:
    """One sentence from several: tokens renumbered in order, the top of
    the first part stays the top and heads the tops of all later parts."""
    rows: Rows = []
    top = 0
    for part in parts:
        offset = len(rows)
        for r in part:
            r = list(r)
            head = int(r[HEAD])
            r[0] = str(int(r[0]) + offset)
            if head != 0:
                r[HEAD] = str(head + offset)
            elif top:
                r[HEAD] = str(top)
            else:
                top = int(r[0])
            rows.append(r)
    return rows


def by_length(bank: list[Rows]) -> dict[int, list[Rows]]:
    pools: dict[int, list[Rows]] = {}
    for s in bank:
        pools.setdefault(len(s), []).append(s)
    return pools


def sample_profile(bank: list[Rows], lengths: list[int], rng: random.Random) -> list[Rows]:
    """One random bank sentence of each requested length."""
    pools = by_length(bank)
    return [rng.choice(pools[n]) for n in lengths]


def joined_sentence(bank: list[Rows], length: int, rng: random.Random) -> Rows:
    """Random bank sentences joined into one tree of exactly ``length`` tokens."""
    pools = by_length(bank)
    shortest, longest = min(pools), max(pools)
    parts, left = [], length
    while left > longest:
        part = rng.choice([s for s in bank if len(s) <= left - shortest])
        parts.append(part)
        left -= len(part)
    parts.append(rng.choice(pools[left]))
    rows = join(parts)
    problem = tree_violation(heads_of(rows))
    if problem:
        raise ValueError(f"joined sentence is not a tree: {problem}")
    return rows


def spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` lengths evenly spaced from lo to hi inclusive."""
    return [lo + (hi - lo) * i // max(1, count - 1) for i in range(count)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    hidden: int
    epochs: int
    train_short: int  # bundled sentences in the training corpus
    train_long: int   # joined 60-100-token sentences in the training corpus
    dev: int
    test: int
    long_eval: bool   # dev and test corpora made of joined sentences

    def build(self, seed: int, out: Path) -> dict[str, Path]:
        """Write train/dev/test corpora for ``seed`` under ``out``."""
        rng = random.Random(seed)
        train_bank, dev_bank = read_rows(TRAIN_BANK), read_rows(DEV_BANK)
        # The length profile is that of the first sentences of each bank,
        # which does not depend on the seed.
        train = sample_profile(train_bank, [len(s) for s in train_bank[:self.train_short]], rng)
        train += [joined_sentence(train_bank, n, rng) for n in spread(60, 100, self.train_long)]
        if self.long_eval:
            dev = [joined_sentence(dev_bank, n, rng) for n in spread(60, 100, self.dev)]
            test = [joined_sentence(dev_bank, n, rng) for n in spread(60, 100, self.test)]
        else:
            dev = sample_profile(dev_bank, [len(s) for s in dev_bank[:self.dev]], rng)
            test = sample_profile(
                dev_bank, [len(s) for s in dev_bank[self.dev:self.dev + self.test]], rng)
        paths = {}
        for name, corpus in (("train", train), ("dev", dev), ("test", test)):
            for s in corpus:
                problem = tree_violation(heads_of(s))
                if problem:
                    raise ValueError(f"{name} corpus holds a non-tree: {problem}")
            paths[name] = out / f"{name}.conllu"
            write_rows(corpus, paths[name])
        return paths


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="short-h200",
            why="paper-default BiLSTM hidden 200 on bundled 3-11-token sentences: "
                "tape backward and dense Adam take four fifths of a training step",
            hidden=200, epochs=4, train_short=30, train_long=0, dev=10, test=60,
            long_eval=False,
        ),
        Workload(
            name="long-h64",
            why="hidden 64, parsing joined 60-100-token sentences: BiLSTM forward and "
                "the n^2 pointer scorer take inference; Adam's share of training falls "
                "to a fifth",
            hidden=64, epochs=4, train_short=160, train_long=4, dev=4, test=12,
            long_eval=True,
        ),
    )
}
