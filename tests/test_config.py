"""Config file round-trips and validation."""
import dataclasses

import pytest

from dualpointer.config import ConfigError, RunConfig, dump_config, load_config


def test_default_round_trip():
    config = RunConfig()
    assert load_config(dump_config(config)) == config


def test_defaults_are_baseline_hyperparameters():
    config = RunConfig()
    assert config.d_pretrained == 100
    assert config.d_random == 150
    assert config.ptr_hidden == 100
    assert config.alpha_word_dropout == 0.25
    assert config.bilstm_levels == 2
    assert config.epochs == 10
    assert (config.adam_alpha, config.adam_beta1, config.adam_beta2,
            config.adam_eps) == (0.001, 0.9, 0.999, 1e-8)


def test_full_round_trip_every_field():
    config = RunConfig(
        command="train",
        train_path="a.conllu", dev_path="b.conllu", test_path="c.conllu",
        pretrained_path="vecs.txt", model_path="m.bin", output_path="o.conllu",
        seeds=(7, 8, 9), variant="p2", root_agg="sum",
        punct_tags=("PUNCT", "$."),
        mode="heads-only", epochs=3,
        alpha_word_dropout=0.123456789012345,
        adam_alpha=0.0025, adam_beta1=0.85, adam_beta2=0.9995,
        adam_eps=1e-8,
        d_pretrained=11, d_random=12, bilstm_hidden=13, bilstm_levels=1,
        ptr_hidden=14, activation="tanh",
    )
    assert load_config(dump_config(config)) == config


def test_round_trip_is_stable_text():
    text = dump_config(RunConfig(seeds=(1, 2)))
    assert dump_config(load_config(text)) == text


def test_partial_file_keeps_defaults():
    config = load_config("[training]\nepochs = 4\n")
    assert config.epochs == 4
    assert config.bilstm_hidden == RunConfig().bilstm_hidden


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="section"):
        load_config("[mystery]\nx = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="training.epoch$"):
        load_config("[training]\nepoch  = 4\n")


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="training.epochs"):
        load_config("[training]\nepochs = soon\n")


def test_bad_enum_values_rejected():
    for text in (
        "[training]\nmode = both\n",
        "[run]\nvariant = p9\n",
        "[run]\nroot_agg = min\n",
        "[training]\nactivation = relu\n",
        "[run]\nseeds = \n",
        "[training]\nepochs = 0\n",
        "[run]\nseeds = 1,-1\n",
        "[training]\nd_pretrained = 0\n",
        "[training]\nd_pretrained = -3\n",
        "[training]\nd_random = 0\n",
        "[training]\nbilstm_hidden = 0\n",
        "[training]\nbilstm_levels = 0\n",
        "[training]\nptr_hidden = -1\n",
        "[training]\nalpha_word_dropout = nan\n",
        "[training]\nalpha_word_dropout = inf\n",
        "[training]\nalpha_word_dropout = -0.5\n",
        "[training]\nadam_alpha = 0\n",
        "[training]\nadam_alpha = inf\n",
        "[training]\nadam_eps = nan\n",
        "[training]\nadam_eps = -1e-8\n",
        "[training]\nadam_beta1 = 1\n",
        "[training]\nadam_beta1 = -0.1\n",
        "[training]\nadam_beta2 = 1.5\n",
        "[training]\nadam_beta2 = nan\n",
    ):
        with pytest.raises(ConfigError):
            load_config(text)


def test_train_config_projection():
    run = RunConfig(seeds=(3, 4), epochs=2, bilstm_hidden=9,
                    punct_tags=("X",), root_agg="sum")
    tc = run.train_config(4)
    assert tc == dataclasses.replace(run, seeds=(4,))
    assert tc.seed == 4
    assert run.seeds == (3, 4)
    assert tc.epochs == 2
    assert tc.bilstm_hidden == 9
    assert tc.punct_tags == ("X",)
    assert tc.root_agg == "sum"


def test_all_fields_appear_in_dump():
    text = dump_config(RunConfig())
    names = {f.name for f in dataclasses.fields(RunConfig)}
    # every dataclass field is written under some option name
    assert text.count("=") == len(names)


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nepochs = 4\n",
    "[DEFAULT]\nepochs = 4\n[training]\nmode = joint\n",
    "[DEFAULT]\nepochs = 4\n[run]\nseeds = 1\n",
])
def test_default_section_rejected(text):
    # configparser copies [DEFAULT] entries into every other section, so
    # without this check they were dropped, leaked into [training], or
    # failed as an unknown [run] key
    with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
        load_config(text)


def test_empty_default_section_allowed():
    assert load_config("[DEFAULT]\n[training]\nepochs = 4\n").epochs == 4


def test_mode_alias_in_file():
    assert load_config("[training]\nmode = heads\n").mode == "heads-only"


@pytest.mark.parametrize("alias, mode", [("heads", "heads-only"), ("deps", "deps-only")])
def test_mode_alias_in_library(alias, mode):
    # the library takes the spellings the flags and the file take
    config = RunConfig(mode=alias)
    assert config.mode == mode
    assert dataclasses.replace(RunConfig(), mode=alias) == config
    assert load_config(dump_config(config)) == config


def test_negative_train_seed_rejected():
    # it constructed, and train() then failed inside numpy's default_rng
    with pytest.raises(ConfigError, match="seeds must be one or more distinct integers >= 0"):
        RunConfig(seeds=(-1,))
    with pytest.raises(ConfigError, match="seeds must be"):
        RunConfig().train_config(-1)
    assert RunConfig(seeds=(0,)).seed == 0


@pytest.mark.parametrize("kw, message", [
    (dict(epochs=0), "epochs must be >= 1"),
    (dict(seeds=(2, 2)), "seeds must be"),
    (dict(root_agg="min"), "unknown root_agg"),
    (dict(bilstm_hidden=0), "bilstm_hidden"),
])
def test_bad_value_fails_where_the_config_is_built(kw, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(**kw)


def test_seed_is_the_one_seed_of_a_run():
    assert RunConfig().seed == 1
    assert RunConfig(seeds=(7,)).seed == 7
    with pytest.raises(ConfigError, match="one seed expected, got 2"):
        RunConfig(seeds=(1, 2)).seed
    with pytest.raises(AttributeError):
        RunConfig().seed = 3
