"""Command-line entry point.

Subcommands: train, parse, eval, gradcheck.  A config file (--config)
supplies defaults, individual flags override it, and --save-config records
the effective configuration for exact reruns.  Errors exit nonzero with a
single line of the form "error:<category>: message".
"""
import argparse
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


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


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
        try:
            with open(args.config, encoding="utf-8") as f:
                run = load_config(f.read())
        except OSError as exc:
            raise CliError("io", f"cannot read config: {exc}")
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
        try:
            with open(args.save_config, "w", encoding="utf-8") as f:
                f.write(dump_config(run))
        except OSError as exc:
            raise CliError("io", f"cannot write config: {exc}")
    return run


def _read_corpus(path: str, what: str):
    if not path:
        raise CliError("config", f"missing {what} corpus path")
    try:
        with open(path, encoding="utf-8") as f:
            return read_conll(f)
    except OSError as exc:
        raise CliError("io", f"cannot read {what} corpus: {exc}")


def _load_pretrained(run: RunConfig):
    if not run.pretrained_path:
        return None
    from .vocab import load_pretrained
    try:
        with open(run.pretrained_path, encoding="utf-8") as f:
            return load_pretrained(f)
    except OSError as exc:
        raise CliError("io", f"cannot read pretrained embeddings: {exc}")


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
    if not run.model_path:
        raise CliError("config", "missing --model output path")
    pretrained = _load_pretrained(run)
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
        try:
            with open(dest, "wb") as f:
                f.write(best.model_bytes)
        except OSError as exc:
            raise CliError("io", f"cannot write model: {exc}")
        line = (f"seed {seed} best epoch {best.epoch}  "
                f"dev-uas {best.dev_uas:.2f}  -> {dest}")
        print(line)
        log_lines.append(line)
    if run.output_path:
        try:
            with open(run.output_path, "w", encoding="utf-8") as f:
                f.write("\n".join(log_lines) + "\n")
        except OSError as exc:
            raise CliError("io", f"cannot write training log: {exc}")
    return 0


def _load_model(path: str):
    if not path:
        raise CliError("config", "missing --model path")
    try:
        return load_model(path)
    except OSError as exc:
        raise CliError("io", f"cannot read model: {exc}")


def cmd_parse(run: RunConfig) -> int:
    model = _load_model(run.model_path)
    corpus = _read_corpus(run.test_path or run.dev_path, "input")
    if not run.output_path:
        raise CliError("config", "missing --output path")
    variant = run.variant or default_variant(model.mode)
    annotated = []
    for sentence in corpus:
        tree = parse(sentence, model, variant=variant, root_agg=run.root_agg)
        annotated.append(sentence.with_heads(tree.heads))
    try:
        with open(run.output_path, "w", encoding="utf-8") as f:
            write_conll(annotated, f)
    except OSError as exc:
        raise CliError("io", f"cannot write output: {exc}")
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
    per_variant: dict = {}
    for seed in run.seeds:
        path = seed_model_path(run.model_path, run.seeds, seed)
        model = _load_model(path)
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

ERROR_CATEGORIES = [
    (CliError, None),
    (ConfigError, "config"),
    (ConllError, "corpus"),
    (ModelFormatError, "model"),
    (ModeMismatchError, "mode"),
    (AlignmentError, "align"),
    (ValueError, "invalid"),
    (OSError, "io"),
]


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(message)s")
    args = build_arg_parser().parse_args(argv)
    try:
        run = effective_config(args)
        return COMMANDS[run.command](run)
    except Exception as exc:
        for kind, category in ERROR_CATEGORIES:
            if isinstance(exc, kind):
                category = category or exc.category
                print(f"error:{category}: {exc}", file=sys.stderr)
                return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
