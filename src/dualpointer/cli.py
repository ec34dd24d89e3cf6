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
from .config import ConfigError, RunConfig, dump_config, load_config, validate
# cycle_stats is unused here but stays bound as dualpointer.cli.cycle_stats,
# a name the benchmark's tracer (perfbench/tracing.py) wraps when it installs
from .decoding import (AlignmentError, DepTree, PunctuationPolicy, cycle_stats,
                       decode_corpus, parse, uas)
from .gradcheck import format_report, run_gradcheck
from .model import VARIANT_REQUIRES, VARIANTS, ModeMismatchError
from .modelio import ModelFormatError, load_model
from .training import default_variant, train

MODE_ALIASES = {"heads": "heads-only", "deps": "deps-only"}


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def build_arg_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="FILE", help="config file to start from")
    shared.add_argument("--save-config", metavar="FILE",
                        help="write the effective configuration and continue")
    shared.add_argument("--train", dest="train_path", metavar="FILE")
    shared.add_argument("--dev", dest="dev_path", metavar="FILE")
    shared.add_argument("--test", dest="test_path", metavar="FILE")
    shared.add_argument("--pretrained", dest="pretrained_path", metavar="FILE")
    shared.add_argument("--model", dest="model_path", metavar="FILE")
    shared.add_argument("--output", dest="output_path", metavar="FILE")
    shared.add_argument("--seeds", help="comma-separated seed list, e.g. 1,2,3")
    shared.add_argument("--variant", choices=VARIANTS)
    shared.add_argument("--root-agg", dest="root_agg", choices=["max", "sum"])
    shared.add_argument("--punct-tags", dest="punct_tags",
                        help="comma-separated POS tags always counted as punctuation")
    shared.add_argument("--mode",
                        choices=["joint", "heads", "heads-only", "deps", "deps-only"])
    shared.add_argument("--epochs", type=int)
    shared.add_argument("--alpha-word-dropout", dest="alpha_word_dropout", type=float)
    shared.add_argument("--adam-alpha", dest="adam_alpha", type=float)
    shared.add_argument("--adam-beta1", dest="adam_beta1", type=float)
    shared.add_argument("--adam-beta2", dest="adam_beta2", type=float)
    shared.add_argument("--adam-eps", dest="adam_eps", type=float)
    shared.add_argument("--d-pretrained", dest="d_pretrained", type=int)
    shared.add_argument("--d-random", dest="d_random", type=int)
    shared.add_argument("--bilstm-hidden", dest="bilstm_hidden", type=int)
    shared.add_argument("--bilstm-levels", dest="bilstm_levels", type=int)
    shared.add_argument("--ptr-hidden", dest="ptr_hidden", type=int)
    shared.add_argument("--activation", choices=["sigmoid", "tanh"])

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
    for attr in ("train_path", "dev_path", "test_path", "pretrained_path",
                 "model_path", "output_path", "variant", "root_agg", "mode",
                 "epochs", "alpha_word_dropout", "adam_alpha", "adam_beta1",
                 "adam_beta2", "adam_eps", "d_pretrained", "d_random",
                 "bilstm_hidden", "bilstm_levels", "ptr_hidden", "activation"):
        value = getattr(args, attr)
        if value is not None:
            setattr(run, attr, value)
    if args.seeds is not None:
        try:
            run.seeds = tuple(int(p) for p in args.seeds.split(",") if p.strip())
        except ValueError:
            raise CliError("config", f"bad --seeds value: {args.seeds!r}")
    run.mode = MODE_ALIASES.get(run.mode, run.mode)
    if args.punct_tags is not None:
        run.punct_tags = tuple(
            p.strip() for p in args.punct_tags.split(",") if p.strip())
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


def _eval_variants(run: RunConfig, mode: str) -> tuple:
    if run.variant:
        return (run.variant,)
    return tuple(v for v, needs in VARIANT_REQUIRES.items() if needs == mode)


def cmd_eval(run: RunConfig) -> int:
    gold = _read_corpus(run.test_path or run.dev_path, "gold")
    policy = PunctuationPolicy(frozenset(run.punct_tags))
    if not run.model_path and run.output_path:
        # file-vs-file: the output path names a previously parsed corpus
        predicted = _read_corpus(run.output_path, "predicted")
        trees = [DepTree(s.gold_heads()) for s in predicted]
        score = uas(gold, trees, policy)
        print(f"file {run.output_path}  uas {score:.10f}")
        return 0
    per_variant: dict = {}
    for seed in run.seeds:
        path = seed_model_path(run.model_path, run.seeds, seed)
        model = _load_model(path)
        variants = _eval_variants(run, model.mode)
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
    report = run_gradcheck(
        seed=run.seeds[0], mode=run.mode, activation=run.activation,
        d_pretrained=run.d_pretrained, d_random=run.d_random,
        bilstm_hidden=run.bilstm_hidden, bilstm_levels=run.bilstm_levels,
        ptr_hidden=run.ptr_hidden,
    )
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
