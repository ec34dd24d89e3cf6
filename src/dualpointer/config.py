"""Declarative run configuration: one INI-style file describes a complete
train/parse/eval/gradcheck invocation, and command-line flags override
individual values.  Dumping and reloading a config reproduces it exactly."""
import configparser
import io
import math
from dataclasses import dataclass

from .model import DEPS_ONLY, HEADS_ONLY, JOINT, VARIANTS
from .training import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str = ""
    train_path: str = ""
    dev_path: str = ""
    test_path: str = ""
    pretrained_path: str = ""
    model_path: str = ""
    output_path: str = ""
    seeds: tuple = (1,)
    variant: str = ""          # empty = default for the model's mode
    root_agg: str = "max"
    punct_tags: tuple = ()
    mode: str = JOINT
    epochs: int = 10
    alpha_word_dropout: float = 0.25
    adam_alpha: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    d_pretrained: int = 100
    d_random: int = 150
    bilstm_hidden: int = 200
    bilstm_levels: int = 2
    ptr_hidden: int = 100
    activation: str = "sigmoid"

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            mode=self.mode, epochs=self.epochs, seed=seed,
            alpha_word_dropout=self.alpha_word_dropout,
            adam_alpha=self.adam_alpha, adam_beta1=self.adam_beta1,
            adam_beta2=self.adam_beta2, adam_eps=self.adam_eps,
            d_pretrained=self.d_pretrained, d_random=self.d_random,
            bilstm_hidden=self.bilstm_hidden,
            bilstm_levels=self.bilstm_levels, ptr_hidden=self.ptr_hidden,
            activation=self.activation, root_agg=self.root_agg,
            punct_tags=self.punct_tags,
        )


# section -> [(option, attribute, kind)]; kind drives parsing and dumping
LAYOUT = [
    ("run", [
        ("command", "command", "str"),
        ("seeds", "seeds", "int-list"),
        ("variant", "variant", "str"),
        ("root_agg", "root_agg", "str"),
        ("punct_tags", "punct_tags", "str-list"),
    ]),
    ("paths", [
        ("train", "train_path", "str"),
        ("dev", "dev_path", "str"),
        ("test", "test_path", "str"),
        ("pretrained", "pretrained_path", "str"),
        ("model", "model_path", "str"),
        ("output", "output_path", "str"),
    ]),
    ("training", [
        ("mode", "mode", "str"),
        ("epochs", "epochs", "int"),
        ("alpha_word_dropout", "alpha_word_dropout", "float"),
        ("adam_alpha", "adam_alpha", "float"),
        ("adam_beta1", "adam_beta1", "float"),
        ("adam_beta2", "adam_beta2", "float"),
        ("adam_eps", "adam_eps", "float"),
        ("d_pretrained", "d_pretrained", "int"),
        ("d_random", "d_random", "int"),
        ("bilstm_hidden", "bilstm_hidden", "int"),
        ("bilstm_levels", "bilstm_levels", "int"),
        ("ptr_hidden", "ptr_hidden", "int"),
        ("activation", "activation", "str"),
    ]),
]


def _format(value, kind: str) -> str:
    if kind == "int-list":
        return ",".join(str(v) for v in value)
    if kind == "str-list":
        return ",".join(value)
    if kind == "float":
        return repr(value)   # shortest form that parses back to the same float
    return str(value)


def _parse(text: str, kind: str, where: str):
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "int-list":
            return tuple(int(p) for p in text.split(",") if p.strip() != "")
        if kind == "str-list":
            return tuple(p.strip() for p in text.split(",") if p.strip() != "")
        return text
    except ValueError:
        raise ConfigError(f"bad value for {where}: {text!r}") from None


def dump_config(config: RunConfig) -> str:
    out = io.StringIO()
    for section, entries in LAYOUT:
        out.write(f"[{section}]\n")
        for option, attr, kind in entries:
            out.write(f"{option} = {_format(getattr(config, attr), kind)}\n")
        out.write("\n")
    return out.getvalue()


def load_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unreadable config: {exc}") from None
    known = {section: dict(entries) for section, entries in
             ((s, [(o, (a, k)) for o, a, k in e]) for s, e in LAYOUT)}
    config = RunConfig()
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        for option, text_value in parser.items(section):
            if option not in known[section]:
                raise ConfigError(f"unknown config key {section}.{option}")
            attr, kind = known[section][option]
            setattr(config, attr,
                    _parse(text_value, kind, f"{section}.{option}"))
    validate(config)
    return config


def validate(config: RunConfig) -> None:
    if config.mode not in (JOINT, HEADS_ONLY, DEPS_ONLY):
        raise ConfigError(f"unknown mode {config.mode!r}")
    if config.variant not in ("",) + VARIANTS:
        raise ConfigError(f"unknown variant {config.variant!r}")
    if config.root_agg not in ("max", "sum"):
        raise ConfigError(f"unknown root_agg {config.root_agg!r}")
    if config.activation not in ("sigmoid", "tanh"):
        raise ConfigError(f"unknown activation {config.activation!r}")
    if not config.seeds:
        raise ConfigError("seeds must not be empty")
    if config.epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if any(seed < 0 for seed in config.seeds):
        raise ConfigError("seeds must be >= 0")
    for name in ("d_pretrained", "d_random", "bilstm_hidden", "bilstm_levels",
                 "ptr_hidden"):
        if getattr(config, name) < 1:
            raise ConfigError(f"{name} must be >= 1")
    # the comparisons against inf also reject NaN
    if not 0 <= config.alpha_word_dropout < math.inf:
        raise ConfigError("alpha_word_dropout must be finite and >= 0")
    for name in ("adam_alpha", "adam_eps"):
        if not 0 < getattr(config, name) < math.inf:
            raise ConfigError(f"{name} must be finite and > 0")
    for name in ("adam_beta1", "adam_beta2"):
        if not 0 <= getattr(config, name) < 1:
            raise ConfigError(f"{name} must be in [0, 1)")
