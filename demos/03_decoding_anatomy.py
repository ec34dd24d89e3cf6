"""Step through the decoder by hand: merged scores, top detection, greedy
head picking, and cycle repair on a matrix built to contain a cycle."""
import numpy as np

import dualpointer.autodiff as ad
from dualpointer.decoding import decode, find_top, fix_cycles, greedy_heads, merge
from dualpointer.pointer import ScoreMatrix


def matrices(h):
    # use the same raw scores for both tasks; merge averages them
    return (ScoreMatrix(ad.Tensor(h), "heads"),
            ScoreMatrix(ad.Tensor(h.T.copy()), "dependents"))


# Row i holds token i+1's affinity for each candidate head.  Tokens 1 and 2
# prefer each other: a 2-cycle the greedy pass will happily produce.
raw = np.array([
    [0.0, 4.0, 0.1],
    [4.0, 0.0, 0.2],
    [0.3, 3.0, 0.0],
])
heads_m, deps_m = matrices(raw)
merged = merge(heads_m, deps_m, "p1")
print("merged probabilities:\n", np.round(merged.m, 3))

top = find_top(merged)
print("top =", top, "(its best candidate-head score is the weakest, "
      "so it is the token least in need of a head)")

assignment = greedy_heads(merged, top)
print("greedy assignment:", assignment, "<- tokens 1 and 2 form a cycle")

tree = fix_cycles(assignment, merged, top)
print("after repair:    ", tree.heads, " top =", tree.top)

# decode() runs the three steps above in one call and also says whether the
# greedy assignment was already a tree (here it was not)
tree, greedy_was_tree = decode(merged)
print("decode():        ", tree.heads, " greedy was a tree:", greedy_was_tree)
