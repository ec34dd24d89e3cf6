"""Train/parse/eval benchmark of the dualpointer parser.

Run from the repository root:

    python3 perfbench/run.py --workload short-h200 --seed 1 --seconds 45 --trace 0

The benchmark writes the workload's corpora for ``--seed``, then repeats
rounds of ``dualpointer train``, ``parse`` and ``eval`` (driven in-process
through ``dualpointer.cli.main``) until ``--seconds`` have passed, checks
every output against computations of its own (``check.py``) and prints
its metrics.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones together with the tracing overhead.
The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Run outputs go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# BLAS runs on one thread; this must be set before numpy loads.  The
# parser's matrix products are at most 800 x 600.  With a BLAS thread on
# each of two cores, a busy neighbour on either core stalled hidden-200
# parsing up to threefold.  On one thread, hidden-200 parsing ran about a
# quarter slower in a quiet period and training about as fast.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import DEV_BANK, TRAIN_BANK, WORKLOADS, Workload, read_rows  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SRC = Path("src")
# Times are scaled to the machine speed at which the reference kernel takes
# this many seconds; on the machine of the README figures it took 0.08-0.11.
REFERENCE_S = 0.08
# Set-up passes measured after each untraced round.
SETUP_PER_ROUND = 10
# Commands of one round and how often each runs: parse is the cheapest, so
# it runs three times to give its median more samples.
ROUND = {"train": 1, "parse": 3, "eval": 1}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def import_parser():
    """Import dualpointer afresh from ``src`` and return its modules."""
    for name in [m for m in sys.modules if m == "dualpointer" or m.startswith("dualpointer.")]:
        del sys.modules[name]
    importlib.import_module("dualpointer.cli")
    return sys.modules["dualpointer"]


def reference_seconds(steps: int = 1500) -> float:
    """Time of a fixed numpy kernel of the benchmark's own.

    The parser spends its time on the same kinds of work: interpreter
    dispatch and small ufuncs (an LSTM loop at hidden 64), GEMVs of the
    hidden-200 size, and streaming updates over megabytes of parameters.
    So how long this kernel takes tracks how fast the machine runs at the
    moment, which on a shared machine drifts by half again within a minute.
    """
    rng = np.random.default_rng(0)
    w = rng.uniform(-0.1, 0.1, (256, 128))
    big = rng.uniform(-0.1, 0.1, (800, 450))
    xs = rng.uniform(-1.0, 1.0, (16, 64))
    moment, grad = np.zeros(1 << 20), np.ones(1 << 20)
    t0 = perf_counter()
    for _ in range(4):  # an Adam-sized streaming update
        moment *= 0.9
        moment += 0.1 * grad
    h, c = np.zeros(64), np.zeros(64)
    for step in range(steps):
        if step % 10 == 0:
            big @ np.resize(h, 450)
        z = w @ np.concatenate([xs[step % 16], h])
        i, f, o = (1.0 / (1.0 + np.exp(-z[k:k + 64])) for k in (0, 64, 128))
        c = f * c + i * np.tanh(z[192:])
        h = o * np.tanh(c)
    return perf_counter() - t0


class Yardstick:
    """Program time measured in segments, each scaled to the machine speed
    at which the reference kernel takes REFERENCE_S, from kernel runs at
    both ends of the segment.  Kernel runs fall between segments, so they
    count in neither figure."""

    def __init__(self):
        self.kernel = reference_seconds()
        self.kernels = [self.kernel]

    def start(self) -> None:
        self.wall = self.scaled = 0.0
        self.t0 = perf_counter()

    def split(self) -> None:
        """End the current segment, run the kernel, start the next one."""
        span = perf_counter() - self.t0
        before, self.kernel = self.kernel, reference_seconds()
        self.kernels.append(self.kernel)
        self.wall += span
        self.scaled += span * REFERENCE_S * 2.0 / (before + self.kernel)
        self.t0 = perf_counter()


class SplittingStdout(io.StringIO):
    """Captured standard output that splits the yardstick's segment at each
    line train prints per epoch and eval prints per variant, so that no
    segment of a long command runs for more than a few seconds."""

    def __init__(self, yardstick: Yardstick):
        super().__init__()
        self.yardstick = yardstick

    def write(self, text: str) -> int:
        written = super().write(text)
        if text.startswith("seed "):
            self.yardstick.split()
        return written


@dataclass
class Corpus:
    paths: dict[str, Path]
    sentences: dict[str, int]
    tokens: dict[str, int]


@dataclass
class Round:
    traced: bool
    wall: dict[str, list[float]] = field(default_factory=dict)
    scaled: dict[str, list[float]] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    failed_commands: list[str] = field(default_factory=list)
    fingerprint: str = ""


def command_lines(w: Workload, corpus: Corpus, work: Path) -> dict[str, list[str]]:
    model, parsed = str(work / "model.bin"), str(work / "parsed.conllu")
    test = str(corpus.paths["test"])
    return {
        "train": ["train", "--train", str(corpus.paths["train"]),
                  "--dev", str(corpus.paths["dev"]), "--model", model,
                  "--bilstm-hidden", str(w.hidden), "--epochs", str(w.epochs),
                  "--seeds", "1"],
        "parse": ["parse", "--model", model, "--test", test, "--output", parsed],
        "eval": ["eval", "--model", model, "--test", test],
    }


def run_round(dp, lines: dict[str, list[str]], work: Path, yardstick: Yardstick,
              tracer=None) -> Round:
    """One round: each command run ROUND[command] times, in order.  The
    fingerprint covers every command's output and the files it wrote."""
    rnd = Round(traced=tracer is not None)
    digest = hashlib.sha256()
    written = (work / "model.bin", work / "parsed.conllu")
    for path in written:
        path.unlink(missing_ok=True)
    for command, argv in lines.items():
        if tracer is not None:
            tracer.command = command
        for _ in range(ROUND[command]):
            out, err = SplittingStdout(yardstick), io.StringIO()
            yardstick.start()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = dp.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    code = "exception"
                    traceback.print_exc()
            yardstick.split()
            rnd.wall.setdefault(command, []).append(yardstick.wall)
            rnd.scaled.setdefault(command, []).append(yardstick.scaled)
            rnd.stdout[command] = out.getvalue()
            digest.update(out.getvalue().encode())
            for path in written:
                if path.exists():
                    digest.update(path.read_bytes())
            if code != 0:
                rnd.failed_commands.append(command)
                print(f"{command} exited with {code}: {err.getvalue().strip()}",
                      file=sys.stderr)
    rnd.fingerprint = digest.hexdigest()
    return rnd


def operations(w: Workload, corpus: Corpus) -> dict[str, int]:
    """Sentences stepped, parsed and evaluated by one run of each command."""
    return {"train": corpus.sentences["train"] * w.epochs,
            "parse": corpus.sentences["test"], "eval": corpus.sentences["test"]}


def check_round(dp, w: Workload, corpus: Corpus, work: Path,
                rnd: Round) -> tuple[list[str], int, float]:
    """Problems found, failed operations, and the recomputed p1 UAS."""
    failed = sum(operations(w, corpus)[c] for c in rnd.failed_commands)
    problems = [f"{c} failed" for c in rnd.failed_commands]
    if rnd.failed_commands:
        return problems, failed, 0.0
    found, skipped = check.train_report(rnd.stdout["train"], w.epochs)
    problems += found
    found, heads, invalid = check.parsed_output(corpus.paths["test"], work / "parsed.conllu")
    problems += found
    failed += skipped + invalid
    printed = check.eval_report(rnd.stdout["eval"])
    found, uas = check.uas_report(corpus.paths["test"], heads, printed)
    problems += found
    problems += check.greedy_report(dp, work / "model.bin", corpus.paths["test"], heads, printed)
    return problems, failed, uas


def setup_seconds(lines: dict[str, list[str]], yardstick: Yardstick) -> float:
    """One pass of the parser's one-time work before its first sentence:
    package import, argument handling, corpus reading, vocabulary build,
    model and optimizer init for ``train``; model load for ``parse`` and
    ``eval``."""
    yardstick.start()
    dp = import_parser()
    cli, training = dp.cli, dp.training
    parser = cli.build_arg_parser()

    def read(path):
        with open(path, encoding="utf-8") as f:
            return cli.read_conll(f)

    run = cli.effective_config(parser.parse_args(lines["train"]))
    train_set, _ = read(run.train_path), read(run.dev_path)
    config = run.train_config(run.seeds[0])
    rng = np.random.default_rng(config.seed)
    model = training.init_model(
        rng, training.build_vocab(train_set), mode=config.mode,
        d_pretrained=config.d_pretrained, d_random=config.d_random,
        bilstm_hidden=config.bilstm_hidden, bilstm_levels=config.bilstm_levels,
        ptr_hidden=config.ptr_hidden, activation=config.activation)
    training.make_optimizer(model, config)
    for command in ("parse", "eval"):
        run = cli.effective_config(parser.parse_args(lines[command]))
        cli.load_model(run.model_path)
        read(run.test_path)
    yardstick.split()
    return yardstick.scaled


@dataclass
class Outcome:
    """What the rounds of one run produced."""

    rounds: list[Round] = field(default_factory=list)
    layers: list[tuple[dict, dict]] = field(default_factory=list)  # per traced round
    setups: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    uas: float = 0.0
    peak_rss_mb: float = 0.0  # at the end of the first round
    tracer: object = None  # that of the last traced round
    kernels: list[float] = field(default_factory=list)


def run_rounds(dp, args, w: Workload, corpus: Corpus, work: Path) -> Outcome:
    """Rounds until ``args.seconds`` have passed.  With tracing every second
    round is traced; without it each round is followed by set-up passes.
    The first round's outputs are checked, later rounds must match them."""
    lines = command_lines(w, corpus, work)
    ops = operations(w, corpus)
    per_round = sum(ops[c] * n for c, n in ROUND.items())
    done = Outcome()
    yardstick = Yardstick()
    start = perf_counter()
    # Start another round only while at least half a round's time is left.
    while len(done.rounds) < 1 + args.trace or (
            perf_counter() - start) * (1 + 0.5 / len(done.rounds)) < args.seconds:
        tracer = tracing.Tracer(dp) if args.trace and len(done.rounds) % 2 else None
        if tracer is not None:
            tracer.install()
        try:
            rnd = run_round(dp, lines, work, yardstick, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        done.attempted += per_round
        if not done.rounds:
            done.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            found, lost, done.uas = check_round(dp, w, corpus, work, rnd)
            done.problems += found
            done.failed += lost
        elif rnd.fingerprint != done.rounds[0].fingerprint:
            done.problems.append(f"round {len(done.rounds) + 1} outputs differ from round 1")
            done.failed += per_round
        done.rounds.append(rnd)
        if not args.trace:
            done.setups += [setup_seconds(lines, yardstick) for _ in range(SETUP_PER_ROUND)]
        if tracer is not None:
            done.tracer = tracer
            sizes = {"train_steps": ops["train"], "epochs": w.epochs,
                     "train_tokens": corpus.tokens["train"] * w.epochs,
                     "test_sentences": corpus.sentences["test"], "runs": ROUND,
                     "wall": {c: sum(t) for c, t in rnd.wall.items()}}
            done.layers.append(tracing.summarize(tracer, sizes))
    done.kernels = yardstick.kernels
    return done


def end_to_end(done: Outcome, w: Workload, corpus: Corpus) -> dict[str, tuple[float, str]]:
    tokens = {"train": corpus.tokens["train"] * w.epochs,
              "parse": corpus.tokens["test"], "eval": corpus.tokens["test"]}
    metrics = {f"{c}_tok_per_s": (statistics.median(
        tokens[c] / t for r in done.rounds for t in r.scaled[c]), "tokens/s") for c in tokens}
    metrics["setup_s"] = (statistics.median(done.setups), "s")
    metrics["uas"] = (done.uas, "%")
    metrics["peak_rss_mb"] = (done.peak_rss_mb, "MB")
    return metrics


def per_layer(done: Outcome) -> dict[str, tuple[float, str]]:
    metrics = {name: (statistics.median(m[name] for m, _ in done.layers), unit_of(name))
               for name in done.layers[0][0]}
    walls = {kind: statistics.median(sum(map(sum, r.scaled.values()))
                                     for r in done.rounds if r.traced == kind)
             for kind in (False, True)}
    overhead = walls[True] - walls[False]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / walls[False], "%")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p) for p in (SRC / "dualpointer" / "cli.py", TRAIN_BANK, DEV_BANK)
               if not p.is_file()]
    if missing:
        print(f"run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    logging.basicConfig(format="%(levelname)s %(message)s")
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        paths = w.build(args.seed, work)
        rows = {k: read_rows(p) for k, p in paths.items()}
        corpus = Corpus(paths, {k: len(v) for k, v in rows.items()},
                        {k: sum(map(len, v)) for k, v in rows.items()})
        done = run_rounds(import_parser(), args, w, corpus, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics = per_layer(done)
        done.tracer.write(OUT / f"{tag}.spans.jsonl")
    else:
        metrics = end_to_end(done, w, corpus)

    env = environment()
    result = {"correct": not done.problems, "attempted": done.attempted, "failed": done.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=w.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, problems=done.problems,
                  corpus={"sentences": corpus.sentences, "tokens": corpus.tokens},
                  reference_kernel_s=statistics.median(done.kernels),
                  rounds=[{"traced": r.traced, "wall_s": r.wall, "scaled_s": r.scaled}
                          for r in done.rounds],
                  shares_pct=done.layers[-1][1] if done.layers else {})
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("environment " + json.dumps(env))
    for problem in done.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
