"""Whole-model gradient verification.

Backpropagated gradients of the joint sentence loss are compared against
central finite differences on a random synthetic sentence, along the unit
directions of :func:`_probes`: sampled entries, and random directions
because a directional derivative mixes every entry, so a systematically
wrong backward rule cannot hide in unsampled entries.
"""
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .conll import Sentence, Token
from .model import ModelShape, init_model
from .training import sentence_loss
from .vocab import build_vocab

# Comparisons are relative above this scale and absolute below it.  With the
# default step 1e-5 the difference quotient carries roundoff noise of about
# 1e-11 in absolute terms, so a pure-relative error on a true-zero gradient
# entry would read as 1.0 no matter how correct the backward pass is.
DENOM_FLOOR = 1e-6


def compare(analytic: float, numeric: float) -> float:
    """Relative error, absolute below ``DENOM_FLOOR``; ``inf`` when either
    side is NaN or infinite, so a non-finite gradient always fails."""
    if not (np.isfinite(analytic) and np.isfinite(numeric)):
        return np.inf
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), DENOM_FLOOR)


def random_sentence(rng: np.random.Generator, n_tokens: int) -> Sentence:
    """Random forms over a small pool (repeats exercise shared embedding
    rows) with a uniformly random valid gold tree."""
    order = rng.permutation(n_tokens)
    heads = [0] * n_tokens
    for pos in range(1, n_tokens):
        heads[order[pos]] = int(order[rng.integers(0, pos)]) + 1
    tokens = [
        Token(i + 1, f"w{rng.integers(0, n_tokens)}", None, heads[i])
        for i in range(n_tokens)
    ]
    return Sentence(tokens)


@dataclass
class TensorCheck:
    name: str
    size: int
    checked: int
    worst: float
    worst_at: str


@dataclass
class GradCheckReport:
    checks: list[TensorCheck] = field(default_factory=list)
    tolerance: float = 1e-4
    seconds: float = 0.0

    @property
    def worst(self) -> float:
        return max((c.worst for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return bool(self.checks) and self.worst < self.tolerance


def _probes(rng: np.random.Generator, size: int, samples: int, directions: int):
    """(label, unit direction) pairs over a tensor of ``size`` entries, one
    at a time: up to ``samples`` distinct entries drawn at random, each as
    the direction along it, then ``directions`` random directions."""
    for idx in rng.choice(size, size=min(samples, size), replace=False):
        yield f"entry {int(idx)}", np.eye(1, size, idx)[0]
    for probe in range(directions):
        direction = rng.standard_normal(size)
        yield f"direction {probe}", direction / np.linalg.norm(direction)


def run_gradcheck(
    seed: int = 1,
    n_tokens: int = 5,
    tolerance: float = 1e-4,
    step: float = 1e-5,
    samples_per_tensor: int = 48,
    directions_per_tensor: int = 2,
    shape: ModelShape = ModelShape(bilstm_hidden=16),
) -> GradCheckReport:
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    sentence = random_sentence(rng, n_tokens)
    vocab = build_vocab([sentence])
    model = init_model(rng, vocab, **asdict(shape))
    config = RunConfig(alpha_word_dropout=0.0, **asdict(shape))

    def loss_value() -> float:
        with ad.no_grad():
            loss = sentence_loss(model, sentence, config, training=False)
        return loss.item()

    loss = sentence_loss(model, sentence, config, training=False)
    loss.backward()
    report = GradCheckReport(tolerance=tolerance)
    for name, param in model.tensors.items():
        if param.grad is None:
            raise RuntimeError(f"no gradient reached {name}")
        grad = np.asarray(param.grad).reshape(-1)
        data = param.data.reshape(-1)
        worst, worst_at, checked = 0.0, "-", 0
        for label, direction in _probes(rng, data.size, samples_per_tensor,
                                        directions_per_tensor):
            saved = data.copy()
            data += step * direction
            hi = loss_value()
            data[:] = saved - step * direction
            lo = loss_value()
            data[:] = saved
            err = compare(float(grad @ direction), (hi - lo) / (2.0 * step))
            if err > worst:
                worst, worst_at = err, label
            checked += 1
        report.checks.append(TensorCheck(name, data.size, checked, worst, worst_at))
    report.seconds = time.perf_counter() - started
    return report


def format_report(report: GradCheckReport) -> str:
    lines = []
    for c in report.checks:
        lines.append(
            f"{c.name:<20} size {c.size:>6}  checked {c.checked:>3}  "
            f"worst {c.worst:.3e}  at {c.worst_at}"
        )
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(
        f"gradcheck: {verdict}  worst {report.worst:.3e}  "
        f"tolerance {report.tolerance:.0e}  ({report.seconds:.1f}s)"
    )
    return "\n".join(lines)
