"""Train on the bundled toy treebank until it is memorized, then parse a
sentence and compare against gold."""
import io

from dualpointer.config import RunConfig
from dualpointer.conll import read_conll
from dualpointer.decoding import parse, uas
from dualpointer.modelio import load_model
from dualpointer.training import train

with open("data/toy.conllu", encoding="utf-8") as f:
    corpus = read_conll(f)
print(f"{len(corpus)} sentences, "
      f"lengths {min(len(s.tokens) for s in corpus)}"
      f"-{max(len(s.tokens) for s in corpus)}")

# Small hidden size keeps this near-instant; the treebank is tiny enough
# that the model should reach 100% on its own training data.
config = RunConfig(epochs=12, seeds=(1,), bilstm_hidden=64)
best, model_bytes = train(corpus, corpus, config,
                          on_epoch=lambda row: print(
                              f"epoch {row.epoch:2d}  loss {row.mean_loss:.4f}  "
                              f"train-as-dev UAS {row.dev_uas:.2f}"))
print(f"kept epoch {best.epoch} at UAS {best.dev_uas:.2f}")

model = load_model(io.BytesIO(model_bytes))
trees = parse(corpus, model)
print("whole-corpus UAS:", uas(corpus, trees))

sample = corpus[3]
tree = parse([sample], model)[0]
print("\n forms:", " ".join(s.form for s in sample.tokens))
print("  gold:", sample.gold_heads())
print("parsed:", tree.heads, " top =", tree.top)
