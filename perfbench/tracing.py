"""Per-layer tracing installed from outside the parser.

``Tracer.install`` replaces public functions of the ``dualpointer``
modules with timing wrappers, at the place each name is looked up: a name
bound by ``from ... import`` is wrapped in the importing module (for
example ``dualpointer.cli.parse`` and ``dualpointer.decoding.score_sentence``).
Each call becomes a span (name, command, start, end, parent span, tape
nodes made so far); spans stay in memory and are written out at the end.
``Tracer.uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import json
from pathlib import Path
from time import perf_counter

from workloads import tree_violation

COMMANDS = ("train", "parse", "eval")

# (module, attribute, span name); "Class.method" attributes patch the class.
TIMED = [
    ("cli", "parse", "decoding.parse"),
    ("cli", "cycle_stats", "decoding.cycle_stats"),
    ("cli", "read_conll", "conll.read"),
    ("cli", "write_conll", "conll.write"),
    ("cli", "load_model", "modelio.load"),
    ("training", "build_vocab", "vocab.build"),
    ("training", "init_model", "model.init"),
    ("training", "train_sentence", "training.step"),
    ("training", "sentence_loss", "training.loss"),
    ("training", "score_sentence", "model.score"),
    ("training", "parse", "training.dev_parse"),
    ("training", "save_model", "modelio.save"),
    ("decoding", "score_sentence", "model.score"),
    ("decoding", "merge", "decoding.merge"),
    ("decoding", "find_top", "decoding.top"),
    ("decoding", "greedy_heads", "decoding.greedy"),
    ("decoding", "fix_cycles", "decoding.repair"),
    ("model", "token_rows", "encoder.embed"),
    ("model", "encode_tokens", "encoder.embed"),
    ("model", "bilstm_encode", "encoder.bilstm"),
    ("model", "score_all", "pointer.score"),
    ("autodiff", "Tensor.backward", "autodiff.backward"),
    ("optim", "Adam.step", "optim.adam"),
]


class Tracer:
    def __init__(self, dp):
        self.dp = dp
        self.spans: list[tuple] = []  # (name, command, t0, t1, parent, nodes0, nodes1)
        self.stack: list[int] = []
        self.command = ""
        self.nodes = 0
        self.greedy = {c: [0, 0] for c in COMMANDS}      # [calls, trees]
        self.repair = {c: [0, 0] for c in COMMANDS}      # [calls, arcs changed]
        self.installed: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self.installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, attr, name in TIMED:
            owner = getattr(self.dp, module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            self._patch(owner, attr, self._timed(getattr(owner, attr), name))
        make_node = self.dp.autodiff.make_node

        @functools.wraps(make_node)
        def counted(*args, **kwargs):
            self.nodes += 1
            return make_node(*args, **kwargs)

        self._patch(self.dp.autodiff, "make_node", counted)

    def uninstall(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def _timed(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            nodes0 = tracer.nodes
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, tracer.command, t0, t1, parent, nodes0, tracer.nodes)
            if name == "decoding.greedy":
                counts = tracer.greedy[tracer.command]
                counts[0] += 1
                counts[1] += tree_violation(result) is None
            elif name == "decoding.repair":
                counts = tracer.repair[tracer.command]
                counts[0] += 1
                counts[1] += sum(a != b for a, b in zip(args[0], result.heads))
            return result

        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for name, command, t0, t1, parent, n0, n1 in self.spans:
                f.write(json.dumps({"name": name, "command": command, "start": t0,
                                    "end": t1, "parent": parent, "nodes": n1 - n0}) + "\n")


def summarize(tracer: Tracer, sizes: dict[str, int]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics and per-command time shares from the spans.

    ``sizes`` holds train_steps, train_tokens, epochs and test_sentences of
    one command run, how many times each command ran (runs) and each
    command's total wall seconds (wall).
    """
    runs = sizes["runs"]
    total: dict[tuple[str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    self_time: dict[tuple[str, str], float] = {}
    nodes_in_steps = 0
    for name, command, t0, t1, parent, n0, n1 in tracer.spans:
        key = (command, name)
        total[key] = total.get(key, 0.0) + (t1 - t0)
        calls[key] = calls.get(key, 0) + 1
        self_time[key] = self_time.get(key, 0.0) + (t1 - t0)
        if parent >= 0:
            p = tracer.spans[parent]
            pkey = (p[1], p[0])
            self_time[pkey] = self_time.get(pkey, 0.0) - (t1 - t0)
        if name == "training.step":
            nodes_in_steps += n1 - n0

    def ms(command: str, name: str, per: float | None = None) -> float:
        per = calls.get((command, name), 0) if per is None else per
        return 1000.0 * total.get((command, name), 0.0) / per if per else 0.0

    metrics: dict[str, float] = {}
    for command in COMMANDS:
        scored = calls.get((command, "model.score"), 0)
        p = f"{command}."
        metrics[p + "encoder.embed_ms"] = ms(command, "encoder.embed", scored)
        metrics[p + "encoder.bilstm_ms"] = ms(command, "encoder.bilstm", scored)
        metrics[p + "pointer.score_ms"] = ms(command, "pointer.score", scored)
        metrics[p + "model.score_ms"] = ms(command, "model.score")
        if command != "train":
            metrics[p + "model.score_calls_per_sent"] = (
                scored / (sizes["test_sentences"] * runs[command]))
        for step in ("merge", "top", "greedy", "repair"):
            metrics[p + f"decoding.{step}_ms"] = ms(command, f"decoding.{step}")
        greedy_calls, trees = tracer.greedy[command]
        repairs, changed = tracer.repair[command]
        metrics[p + "decoding.cycle_free_frac"] = trees / greedy_calls if greedy_calls else 0.0
        metrics[p + "decoding.reattached_per_sent"] = changed / repairs if repairs else 0.0
        metrics[p + "conll.read_ms"] = ms(command, "conll.read", runs[command])
    steps = sizes["train_steps"] * runs["train"]
    metrics["train.training.loss_ms"] = (
        1000.0 * self_time.get(("train", "training.loss"), 0.0) / steps)
    metrics["train.autodiff.backward_ms"] = ms("train", "autodiff.backward", steps)
    metrics["train.autodiff.nodes_per_tok"] = (
        nodes_in_steps / (sizes["train_tokens"] * runs["train"]))
    metrics["train.optim.adam_ms"] = ms("train", "optim.adam", steps)
    metrics["train.training.dev_parse_ms"] = ms(
        "train", "training.dev_parse", sizes["epochs"] * runs["train"])
    metrics["train.modelio.save_ms"] = ms("train", "modelio.save")
    metrics["train.vocab.build_ms"] = ms("train", "vocab.build", runs["train"])
    metrics["train.model.init_ms"] = ms("train", "model.init", runs["train"])
    metrics["parse.conll.write_ms"] = ms("parse", "conll.write", runs["parse"])
    metrics["parse.modelio.load_ms"] = ms("parse", "modelio.load", runs["parse"])
    metrics["eval.modelio.load_ms"] = ms("eval", "modelio.load", runs["eval"])

    # Self time of each layer as a share of its command's wall time.
    shares = {}
    for command in COMMANDS:
        wall = sizes["wall"][command]
        rows = {name: t for (c, name), t in self_time.items() if c == command}
        shares[command] = {name: round(100.0 * t / wall, 2)
                           for name, t in sorted(rows.items(), key=lambda kv: -kv[1])}
        shares[command]["untraced code"] = round(100.0 - sum(shares[command].values()), 2)
    return metrics, shares
