"""Two promises about model files: same seed gives the same bytes, and a
round trip through disk changes nothing at all -- plus what happens when a
file is damaged."""
import io

import numpy as np

from dualpointer.config import RunConfig
from dualpointer.conll import read_conll
from dualpointer.decoding import merge
from dualpointer.model import score_sentence
from dualpointer.modelio import ModelFormatError, load_model, save_model
from dualpointer.training import train

with open("data/toy.conllu", encoding="utf-8") as f:
    corpus = read_conll(f)[:16]
config = RunConfig(epochs=2, seeds=(42,), d_pretrained=8, d_random=8,
                   bilstm_hidden=6, ptr_hidden=8)

_, bytes1 = train(corpus, corpus, config)
_, bytes2 = train(corpus, corpus, config)
print("same seed, same bytes:", bytes1 == bytes2, f"({len(bytes1)} bytes)")

model = load_model(io.BytesIO(bytes1))
buffer = io.BytesIO()
save_model(model, buffer)
buffer.seek(0)
reloaded = load_model(buffer)

sentence = corpus[0]
original = score_sentence(model, sentence)
restored = score_sentence(reloaded, sentence)
before = merge(original.heads, original.deps, "p1")
after = merge(restored.heads, restored.deps, "p1")
print("scores bit-exact after round trip:",
      bool(np.array_equal(before, after)))

# flip one byte in the middle of the file: the checksum must catch it
damaged = bytearray(bytes1)
damaged[len(damaged) // 2] ^= 0xFF
try:
    load_model(io.BytesIO(bytes(damaged)))
    print("damaged file loaded -- this should never happen")
except ModelFormatError as exc:
    print("damaged file rejected:", exc)
