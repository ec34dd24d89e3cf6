"""Command-line entry point: the subcommands of :data:`COMMANDS`, each run
from the flags over a --config file, and one "error:<category>: message"
line, by :data:`ERROR_CATEGORIES`, for each error.
"""
import argparse
import contextlib
import dataclasses
import logging
import os
import sys

from .conll import ConllError, read_conll, write_conll
from .config import FLAGS, ConfigError, RunConfig, dump_config, load_config, parse_value
# cycle_stats is unused here but stays bound as dualpointer.cli.cycle_stats,
# a name the benchmark's tracer (perfbench/tracing.py) wraps when it installs
from .decoding import AlignmentError, cycle_stats, decode_corpus, gold_trees, parse, uas
from .gradcheck import format_report, run_gradcheck
from .model import MODE_VARIANTS, ModeMismatchError
from .modelio import ModelFormatError, load_model
from .training import default_variant, train
from .vocab import PretrainedError, load_pretrained


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # the one-line error exit, not argparse's usage text
        raise ConfigError(message)


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

    parser = _ArgumentParser(prog="dualpointer")
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
    text = ""
    if args.config:
        with _opened(args.config, "config") as f:
            try:
                text = f.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config is not UTF-8 text: {exc.reason}") from None
    flags = {fld.name: parse_value(fld, getattr(args, fld.name), flag)
             for flag, fld in FLAGS.items() if getattr(args, fld.name) is not None}
    run = dataclasses.replace(load_config(text), command=args.command, **flags)
    if args.d_pretrained is not None and run.pretrained_path:
        raise ConfigError("--d-pretrained cannot be set beside a pretrained file, "
                          "whose width sets it")
    _check_paths(run, args.config, args.save_config)
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
    ``mode``, text as UTF-8.  An OSError, or a corpus or vectors error that
    reading the file raised, names ``what``."""
    try:
        with open(_required(path, what), mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
    except OSError as exc:
        raise OSError(f"cannot {'write' if 'w' in mode else 'read'} {what}: {exc}") from None
    except (ConllError, PretrainedError) as exc:
        raise type(exc)(f"{what}: {exc}") from None


def _check_writable(path: str, what: str) -> None:
    """Raise now the OSError that writing ``what`` to ``path`` would end in
    later: ``path`` names a directory, or lies in a missing one."""
    if os.path.isdir(path) or path.endswith(os.sep):
        raise OSError(f"cannot write {what}: {path!r} is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise OSError(f"cannot write {what}: no directory {folder!r}")


def _check_paths(run: RunConfig, config: str | None, saved: str | None) -> None:
    """Raise now the OSError that writing a file of the run would end in,
    or a ConfigError if that file resolves to another file the run names
    or writes.  A role never clashes with itself, so the saved config may
    be the config file, which is read before it is written."""
    output = {"train": "training log", "eval": "predicted corpus"}.get(run.command, "output")
    named = [("config", config), ("train corpus", run.train_path), ("dev corpus", run.dev_path),
             ("test corpus", run.test_path), ("pretrained vectors", run.pretrained_path),
             ("model", run.model_path), (output, run.output_path)]
    written = [("config", saved)]
    if run.command in ("train", "parse"):
        written.append((output, run.output_path))
    if run.command == "train":
        written += [("model", path) for path in (run.model_path, *(
            seed_model_path(run.model_path, run.seeds, seed) for seed in run.seeds))]
    for role, path in written:
        if path:
            _check_writable(path, role)
            real = os.path.realpath(path)
            for other, other_path in named + written:
                if other != role and other_path and os.path.realpath(other_path) == real:
                    raise ConfigError(f"{role} {path!r} would overwrite the {other}")


def _read_corpus(path: str, what: str):
    with _opened(path, f"{what} corpus") as f:
        return read_conll(f)


def seed_model_path(path: str, seeds, seed: int) -> str:
    if len(seeds) == 1:
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}.seed{seed}{ext}"


def cmd_train(run: RunConfig) -> int:
    train_set = _read_corpus(run.train_path, "train")
    dev_set = _read_corpus(run.dev_path, "dev")
    _required(run.model_path, "model")
    dests = [seed_model_path(run.model_path, run.seeds, seed) for seed in run.seeds]
    pretrained = None
    if run.pretrained_path:
        with _opened(run.pretrained_path, "pretrained vectors") as f:
            pretrained = load_pretrained(f)
    log_lines = []

    def report(line):
        print(line)
        log_lines.append(line)

    for seed, dest in zip(run.seeds, dests):
        config = run.train_config(seed)

        def show(row, seed=seed):
            skipped = f"  skipped {row.skipped}" if row.skipped else ""
            report(f"seed {seed} epoch {row.epoch}  loss {row.mean_loss:.4f}  "
                   f"dev-uas {row.dev_uas:.2f}{skipped}")

        best = train(train_set, dev_set, config, pretrained=pretrained, on_epoch=show)
        with _opened(dest, "model", "wb") as f:
            f.write(best.model_bytes)
        report(f"seed {seed} best epoch {best.epoch}  dev-uas {best.dev_uas:.2f}  -> {dest}")
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
    trees = parse(corpus, model, variant=variant, root_agg=run.root_agg)
    annotated = [sentence.with_heads(tree.heads) for sentence, tree in zip(corpus, trees)]
    with _opened(run.output_path, "output", "w") as f:
        write_conll(annotated, f)
    print(f"parsed {len(annotated)} sentences with {variant} -> {run.output_path}")
    return 0


def cmd_eval(run: RunConfig) -> int:
    gold = _read_corpus(run.test_path or run.dev_path, "gold")
    gold_trees(gold, "gold")
    if not run.model_path and run.output_path:
        # file-vs-file: the output path names a previously parsed corpus
        trees = gold_trees(_read_corpus(run.output_path, "predicted"), "predicted")
        score = uas(gold, trees, run.punct_tags)
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
            score = float(f"{uas(gold, trees, run.punct_tags):.10f}")
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

# first match wins, so each ValueError subclass comes before ValueError
ERROR_CATEGORIES = {
    ConfigError: "config",
    ConllError: "corpus",
    ModelFormatError: "model",
    PretrainedError: "vectors",
    ModeMismatchError: "mode",
    AlignmentError: "align",
    ValueError: "invalid",
    OSError: "io",
    MemoryError: "memory",
}


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(message)s")
    try:
        run = effective_config(build_arg_parser().parse_args(argv))
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
