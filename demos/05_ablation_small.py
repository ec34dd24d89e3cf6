"""A scaled-down ablation: joint training against the two single-task
variants on a corpus with genuine attachment ambiguity.

The full-size sweep lives in the slow acceptance test; this one trades
corpus size and epochs for a coffee-break runtime.
"""
from dualpointer.config import RunConfig
from dualpointer.conll import read_conll
from dualpointer.decoding import parse, uas
from dualpointer.training import train

with open("data/ambiguous-train.conllu", encoding="utf-8") as f:
    train_set = read_conll(f)[:300]
with open("data/ambiguous-dev.conllu", encoding="utf-8") as f:
    dev_set = read_conll(f)[:60]
print(f"train {len(train_set)} / dev {len(dev_set)} sentences")

table = {}
for mode, variants in (
    ("joint", ("p1", "p2", "p3")),
    ("heads-only", ("p4",)),
    ("deps-only", ("p5",)),
):
    config = RunConfig(mode=mode, epochs=2, seeds=(1,),
                       bilstm_hidden=64, d_pretrained=50, d_random=50)
    best = train(train_set, dev_set, config)
    model = best.load()
    for variant in variants:
        trees = parse(dev_set, model, variant=variant)
        table[variant] = uas(dev_set, trees)
    print(f"{mode}: trained (best epoch {best.epoch})")

print()
for variant in ("p1", "p2", "p3", "p4", "p5"):
    print(f"  {variant}  dev UAS {table[variant]:5.2f}")
print("\np1 merges both score matrices; p2/p3 read one matrix from the "
      "jointly trained model; p4/p5 are trained on one task alone.")
