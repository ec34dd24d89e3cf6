"""A tour of the tape the parser trains on: one sentence through the
BiLSTM, the heads pointer net and the logistic loss, its backward pass
checked by finite differences, then a few training steps on it."""
from dataclasses import asdict

import numpy as np

import dualpointer.autodiff as ad
from dualpointer.conll import Sentence, Token
from dualpointer.encoder import bilstm_level, encode_tokens, token_rows
from dualpointer.model import ModelShape, init_model
from dualpointer.optim import Adam
from dualpointer.pointer import output_loss, score_all, target_matrix
from dualpointer.training import sentence_loss, train_sentence
from dualpointer.vocab import build_vocab

# "the dog barked": the dog heads the, barked heads dog and is the top
sentence = Sentence([Token(1, "the", "DET", 2), Token(2, "dog", "NOUN", 3),
                     Token(3, "barked", "VERB", 0)])
shape = ModelShape(mode="heads-only", d_pretrained=4, d_random=4,
                   bilstm_hidden=6, bilstm_levels=1, ptr_hidden=5)
rng = np.random.default_rng(0)
model = init_model(rng, build_vocab([sentence]), **asdict(shape))
t = model.tensors

# ---------------------------------------------------------------- forward
# Each call below records one node on the tape, one per layer: the
# embedding gather, the BiLSTM level (both directions over the whole
# sentence, side by side), all n x n head scores at once, and the mean
# logistic loss against the gold head matrix.
x = encode_tokens(token_rows(sentence, model.vocab), t["emb.pretrained"], t["emb.random"])
contexts = bilstm_level(x, *(t[f"lstm.l0.{d}.{p}"] for d in ("fwd", "bwd") for p in "wb"))
scores = score_all(contexts, t["ptr.heads.w"], t["ptr.heads.b"], t["ptr.heads.v"])
loss = output_loss([scores], [target_matrix(sentence, "heads")], shape.activation)
print("contexts", contexts.data.shape, " scores", scores.data.shape)
print("loss =", loss.item())

# The tape is the chain of these four nodes, each holding its inputs.
node, chain = loss, []
while node._parents:
    chain.append(node.data.shape)
    node = node._parents[0]
print("tape, from the loss down:", " <- ".join(str(s) for s in chain))

same = sentence_loss(model, sentence, training=False).item()
print("training's sentence_loss gives the same value:", same == loss.item())

# --------------------------------------------------------------- backward
loss.backward()
w = t["lstm.l0.fwd.w"]
# the gate matrix's gradient is kept as two factors, one row per token
# (an OuterGrad); np.asarray multiplies them out to the dense matrix
grad = np.asarray(w.grad)
print("dloss/d lstm.l0.fwd.w[0, :3] =", grad[0, :3])

# ------------------------------------------------ finite-difference check
# Nudge one weight both ways and compare the slope with the tape's answer.
eps = 1e-6


def loss_at(value):
    saved = w.data[0, 0]
    w.data[0, 0] = value
    with ad.no_grad():
        out = sentence_loss(model, sentence, training=False).item()
    w.data[0, 0] = saved
    return out


w00 = w.data[0, 0]
numeric = (loss_at(w00 + eps) - loss_at(w00 - eps)) / (2 * eps)
print(f"analytic {grad[0, 0]:.10f}  numeric {numeric:.10f}")

# ---------------------------------------------------------------- training
# train_sentence runs the same chain, backpropagates and takes an Adam step;
# alpha=0.0 turns word dropout off.
optimizer = Adam(list(t.values()), alpha=0.01)
optimizer.zero_grad()  # drop the gradients of the backward pass above
for step in range(60):
    value = train_sentence(model, sentence, optimizer, rng, alpha=0.0)
    if step % 15 == 0:
        print(f"step {step:2d}  loss {value:.6f}")
print(f"after 60 steps  loss {sentence_loss(model, sentence, training=False).item():.6f}")
