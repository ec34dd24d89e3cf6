"""Declarative run configuration.

Every hyperparameter is declared once, as a field of :class:`RunConfig`
(:func:`param`).  Everything else is derived from that field list:

- the INI layout, three sections ``[run]``, ``[paths]`` and ``[training]``,
  which :func:`dump_config` writes and :func:`load_config` reads;
- the command-line flags: INI key ``some_key`` is flag ``--some-key``, and
  its text goes through the same :func:`parse_value` as the file's, so a
  bad value from either source is a :class:`ConfigError`;
- the checks a RunConfig runs when it is built; it is frozen, so every
  RunConfig, a :func:`dataclasses.replace` copy too, holds valid values.

The mode, the output activation and the five sizes take their defaults
from :class:`~dualpointer.model.ModelShape`, which also checks them, the
word dropout's from ``encoder.WORD_DROPOUT`` and Adam's from
:class:`~dualpointer.optim.Adam`.  Dumping and reloading a config
reproduces it exactly.
"""
import configparser
import io
import math
import typing
from dataclasses import Field, dataclass, field, fields, replace

from .encoder import WORD_DROPOUT
from .model import ACTIVATIONS, DEPS_ONLY, HEADS_ONLY, MODES, VARIANTS, ModelShape
from .optim import Adam


class ConfigError(ValueError):
    pass


MODE_ALIASES = {"heads": HEADS_ONLY, "deps": DEPS_ONLY}
SHAPE_FIELDS = tuple(f.name for f in fields(ModelShape))


def param(default, section: str, key: str = "", valid=None, choices: tuple = (),
          aliases: dict | None = None, help: str | None = None, flag: bool = True) -> Field:
    """A RunConfig field: its default, where it lives and which values it takes.

    ``key`` is its INI key and flag stem (the field name when empty), and
    ``flag`` is false for the one key the subcommand sets.  ``valid`` is a
    (test, rule) pair.  ``choices`` are listed in --help; unless ModelShape
    checks the field, a value must be one of them or the default.
    ``aliases`` map other spellings onto a choice when a RunConfig is built.
    """
    return field(default=default, metadata=dict(
        section=section, key=key, valid=valid, choices=choices, aliases=aliases or {},
        help=help, flag=flag))


# the comparisons against inf also reject NaN
POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0")
UNIT_INTERVAL = (lambda v: 0 <= v < 1, "in [0, 1)")


@dataclass(frozen=True)
class RunConfig:
    """One train/parse/eval/gradcheck invocation, checked when it is built;
    ``train`` reads the RunConfig of one seed."""

    command: str = param("", "run", flag=False)
    train_path: str = param("", "paths", key="train")
    dev_path: str = param("", "paths", key="dev")
    test_path: str = param("", "paths", key="test")
    pretrained_path: str = param("", "paths", key="pretrained")
    model_path: str = param("", "paths", key="model")
    output_path: str = param("", "paths", key="output")
    seeds: tuple[int, ...] = param(
        (1,), "run", valid=(lambda v: len(v) > 0 and min(v) >= 0 and len(set(v)) == len(v),
                            "one or more distinct integers >= 0"),
        help="comma-separated seed list, e.g. 1,2,3")
    # empty = the default variant of the model's mode
    variant: str = param("", "run", choices=tuple(VARIANTS))
    root_agg: str = param("max", "run", choices=("max", "sum"))
    punct_tags: tuple[str, ...] = param(
        (), "run",
        help="comma-separated POS tags always counted as punctuation")
    mode: str = param(ModelShape.mode, "training", choices=MODES + tuple(MODE_ALIASES),
                      aliases=MODE_ALIASES)
    epochs: int = param(10, "training", valid=(lambda v: v >= 1, ">= 1"))
    alpha_word_dropout: float = param(
        WORD_DROPOUT, "training", valid=(lambda v: 0 <= v < math.inf, "finite and >= 0"))
    adam_alpha: float = param(Adam.alpha, "training", valid=POSITIVE)
    adam_beta1: float = param(Adam.beta1, "training", valid=UNIT_INTERVAL)
    adam_beta2: float = param(Adam.beta2, "training", valid=UNIT_INTERVAL)
    adam_eps: float = param(Adam.eps, "training", valid=POSITIVE)
    d_pretrained: int = param(
        ModelShape.d_pretrained, "training",
        help="width of the pretrained embeddings; a --pretrained file's width sets it")
    d_random: int = param(ModelShape.d_random, "training")
    bilstm_hidden: int = param(ModelShape.bilstm_hidden, "training")
    bilstm_levels: int = param(ModelShape.bilstm_levels, "training")
    ptr_hidden: int = param(ModelShape.ptr_hidden, "training")
    activation: str = param(ModelShape.activation, "training", choices=ACTIVATIONS)

    def __post_init__(self):
        """Map aliases onto the values they spell, then raise ConfigError
        unless every field holds a valid value."""
        for f in fields(self):
            value, aliases = getattr(self, f.name), f.metadata["aliases"]
            if aliases and value in aliases:  # frozen, so set through object
                value = aliases[value]
                object.__setattr__(self, f.name, value)
            if f.name in SHAPE_FIELDS:  # ModelShape checks these below
                continue
            choices, valid = f.metadata["choices"], f.metadata["valid"]
            if choices and value not in choices + (f.default,):
                raise ConfigError(f"unknown {f.name} {value!r}")
            if valid and not valid[0](value):
                raise ConfigError(f"{f.name} must be {valid[1]}, got {value!r}")
        try:
            self.shape
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def shape(self) -> ModelShape:
        """The model these hyperparameters build."""
        return ModelShape(**{name: getattr(self, name) for name in SHAPE_FIELDS})

    @property
    def seed(self) -> int:
        """The seed of a one-seed run."""
        if len(self.seeds) != 1:
            raise ConfigError(f"one seed expected, got {len(self.seeds)}")
        return self.seeds[0]

    def train_config(self, seed: int) -> "RunConfig":
        """This run with ``seed`` as its one seed."""
        return replace(self, seeds=(seed,))


# section -> {INI key -> field}, in file order
LAYOUT: dict[str, dict[str, Field]] = {}
for _f in fields(RunConfig):
    LAYOUT.setdefault(_f.metadata["section"], {})[_f.metadata["key"] or _f.name] = _f

FLAGS = {"--" + key.replace("_", "-"): f for entries in LAYOUT.values()
         for key, f in entries.items() if f.metadata["flag"]}



def parse_value(f: Field, text: str, where: str):
    """The value of RunConfig field ``f`` that ``text``, from a config file
    or a flag, spells."""
    try:
        if typing.get_origin(f.type) is tuple:
            item = typing.get_args(f.type)[0]
            return tuple(item(p.strip()) for p in text.split(",") if p.strip())
        return f.type(text)
    except ValueError:
        raise ConfigError(f"bad value for {where}: {text!r}") from None


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)   # shortest form that parses back to the same float
    return str(value)


def dump_config(config: RunConfig) -> str:
    out = io.StringIO()
    for section, entries in LAYOUT.items():
        out.write(f"[{section}]\n")
        for key, f in entries.items():
            out.write(f"{key} = {_format(getattr(config, f.name))}\n")
        out.write("\n")
    return out.getvalue()


def load_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unreadable config: {exc}") from None
    # configparser copies [DEFAULT] entries into every other section
    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    values = {}
    for section in parser.sections():
        if section not in LAYOUT:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text_value in parser.items(section):
            if key not in LAYOUT[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            f = LAYOUT[section][key]
            values[f.name] = parse_value(f, text_value, f"{section}.{key}")
    return RunConfig(**values)
