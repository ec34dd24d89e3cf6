"""Command-line entry point.

Subcommands: train, parse, eval, gradcheck.  A config file (--config)
supplies defaults, individual flags override it, and --save-config records
the effective configuration for exact reruns.  Errors exit nonzero with a
single line of the form "error:<category>: message".
"""
import argparse
import contextlib
import logging
import os
import sys

from .conll import ConllError, read_conll, write_conll
from .config import (FLAGS, ConfigError, RunConfig, dump_config, load_config,
                     parse_value, validate)
# cycle_stats is unused here but stays bound as dualpointer.cli.cycle_stats,
# a name the benchmark's tracer (perfbench/tracing.py) wraps when it installs
from .decoding import (AlignmentError, DepTree, PunctuationPolicy, cycle_stats,
                       decode_corpus, parse, uas)
from .gradcheck import format_report, run_gradcheck
from .model import MODE_VARIANTS, ModeMismatchError
from .modelio import ModelFormatError, load_model
from .training import default_variant, train
from .vocab import load_pretrained


def build_arg_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="FILE", help="config file to start from")
    shared.add_argument("--save-config", metavar="FILE",
                        help="write the effective configuration and continue")
    # flag values stay text here: parse_value reads them as it reads the
    # config file, so a bad value is a ConfigError, not an argparse exit
    for flag, fld in FLAGS.items():
        spec = fld.metadata
        if spec["choices"]:
            metavar = "{" + ",".join(spec["choices"]) + "}"
        else:
            metavar = "FILE" if spec["section"] == "paths" else None
        shared.add_argument(flag, dest=fld.name, metavar=metavar, help=spec["help"])

    parser = argparse.ArgumentParser(prog="dualpointer")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", parents=[shared],
                   help="train one model per seed, keeping the best-dev epoch")
    sub.add_parser("parse", parents=[shared],
                   help="annotate a corpus with predicted heads")
    sub.add_parser("eval", parents=[shared],
                   help="report UAS and cycle-free fraction against gold")
    sub.add_parser("gradcheck", parents=[shared],
                   help="verify model gradients against finite differences")
    return parser


def effective_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        with _opened(args.config, "config") as f:
            try:
                text = f.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config is not UTF-8 text: {exc.reason}") from None
        run = load_config(text)
    else:
        run = RunConfig()
    run.command = args.command
    for flag, fld in FLAGS.items():
        text = getattr(args, fld.name)
        if text is not None:
            setattr(run, fld.name, parse_value(fld, text, flag))
    if args.d_pretrained is not None and run.pretrained_path:
        raise ConfigError("--d-pretrained cannot be set beside a pretrained file, "
                          "whose width sets it")
    validate(run)
    if args.save_config:
        with _opened(args.save_config, "config", "w") as f:
            f.write(dump_config(run))
    return run


def _required(path: str, what: str) -> str:
    if not path:
        raise ConfigError(f"missing {what} path")
    return path


@contextlib.contextmanager
def _opened(path: str, what: str, mode: str = "r"):
    """``path``, the file of the run's ``what`` (e.g. "dev corpus"), open in
    ``mode``, text as UTF-8; an OSError names ``what``."""
    try:
        with open(_required(path, what), mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
    except OSError as exc:
        raise OSError(f"cannot {'write' if 'w' in mode else 'read'} {what}: {exc}") from None


def _read_corpus(path: str, what: str):
    with _opened(path, f"{what} corpus") as f:
        try:
            return read_conll(f)
        except ConllError as exc:
            raise ConllError(f"{what} corpus: {exc}") from None


def _gold_heads(corpus, what: str, trees: bool = False) -> list:
    """Every sentence's annotated heads, as a DepTree when ``trees``; a
    sentence without them is a ConllError naming the corpus and sentence."""
    out = []
    for si, sentence in enumerate(corpus, start=1):
        try:
            heads = sentence.gold_heads()
            out.append(DepTree(heads) if trees else heads)
        except ValueError as exc:
            raise ConllError(f"{what} corpus sentence {si}: {exc}") from None
    return out


def seed_model_path(path: str, seeds, seed: int) -> str:
    if len(seeds) == 1:
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}.seed{seed}{ext}"


def cmd_train(run: RunConfig) -> int:
    train_set = _read_corpus(run.train_path, "train")
    dev_set = _read_corpus(run.dev_path, "dev")
    _required(run.model_path, "model")
    pretrained = None
    if run.pretrained_path:
        with _opened(run.pretrained_path, "pretrained vectors") as f:
            pretrained = load_pretrained(f)
    log_lines = []
    for seed in run.seeds:
        config = run.train_config(seed)

        def show(row, seed=seed):
            skipped = f"  skipped {row.skipped}" if row.skipped else ""
            line = (f"seed {seed} epoch {row.epoch}  loss {row.mean_loss:.4f}  "
                    f"dev-uas {row.dev_uas:.2f}{skipped}")
            print(line)
            log_lines.append(line)

        best, _ = train(train_set, dev_set, config,
                        pretrained=pretrained, on_epoch=show)
        dest = seed_model_path(run.model_path, run.seeds, seed)
        with _opened(dest, "model", "wb") as f:
            f.write(best.model_bytes)
        line = (f"seed {seed} best epoch {best.epoch}  "
                f"dev-uas {best.dev_uas:.2f}  -> {dest}")
        print(line)
        log_lines.append(line)
    if run.output_path:
        with _opened(run.output_path, "training log", "w") as f:
            f.write("\n".join(log_lines) + "\n")
    return 0


def cmd_parse(run: RunConfig) -> int:
    with _opened(run.model_path, "model", "rb") as f:
        model = load_model(f)
    corpus = _read_corpus(run.test_path or run.dev_path, "input")
    _required(run.output_path, "output")
    variant = run.variant or default_variant(model.mode)
    annotated = []
    for sentence in corpus:
        tree = parse(sentence, model, variant=variant, root_agg=run.root_agg)
        annotated.append(sentence.with_heads(tree.heads))
    with _opened(run.output_path, "output", "w") as f:
        write_conll(annotated, f)
    print(f"parsed {len(annotated)} sentences with {variant} -> {run.output_path}")
    return 0


def cmd_eval(run: RunConfig) -> int:
    gold = _read_corpus(run.test_path or run.dev_path, "gold")
    _gold_heads(gold, "gold")
    policy = PunctuationPolicy(frozenset(run.punct_tags))
    if not run.model_path and run.output_path:
        # file-vs-file: the output path names a previously parsed corpus
        trees = _gold_heads(_read_corpus(run.output_path, "predicted"), "predicted", trees=True)
        score = uas(gold, trees, policy)
        print(f"file {run.output_path}  uas {score:.10f}")
        return 0
    _required(run.model_path, "model")
    per_variant: dict = {}
    for seed in run.seeds:
        with _opened(seed_model_path(run.model_path, run.seeds, seed), "model", "rb") as f:
            model = load_model(f)
        variants = (run.variant,) if run.variant else MODE_VARIANTS[model.mode]
        decoded = decode_corpus(gold, model, variants, run.root_agg)
        for variant, (trees, clean) in decoded.items():
            score = float(f"{uas(gold, trees, policy):.10f}")
            print(f"seed {seed}  {variant}  uas {score:.10f}  cycle-free {clean:.4f}")
            per_variant.setdefault(variant, []).append(score)
    if len(run.seeds) > 1:
        for variant, scores in per_variant.items():
            print(f"mean  {variant}  uas {sum(scores) / len(scores):.10f}")
    return 0


def cmd_gradcheck(run: RunConfig) -> int:
    report = run_gradcheck(seed=run.seeds[0], shape=run.shape)
    print(format_report(report))
    if not report.passed:
        print(f"error:gradcheck: worst relative error {report.worst:.3e} "
              f"exceeds {report.tolerance:.0e}", file=sys.stderr)
        return 1
    return 0


COMMANDS = {
    "train": cmd_train,
    "parse": cmd_parse,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}

# first match wins, so ConfigError and ConllError come before their base ValueError
ERROR_CATEGORIES = {
    ConfigError: "config",
    ConllError: "corpus",
    ModelFormatError: "model",
    ModeMismatchError: "mode",
    AlignmentError: "align",
    ValueError: "invalid",
    OSError: "io",
}


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(message)s")
    args = build_arg_parser().parse_args(argv)
    try:
        run = effective_config(args)
        return COMMANDS[run.command](run)
    except Exception as exc:
        for kind, category in ERROR_CATEGORIES.items():
            if isinstance(exc, kind):
                # one line, even for a message that spans several
                message = " ".join(str(exc).splitlines())
                print(f"error:{category}: {message}", file=sys.stderr)
                return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
