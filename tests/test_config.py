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
    assert tc.seed == 4
    assert tc.epochs == 2
    assert tc.bilstm_hidden == 9
    assert tc.punct_tags == ("X",)
    assert tc.root_agg == "sum"


def test_all_fields_appear_in_dump():
    text = dump_config(RunConfig())
    names = {f.name for f in dataclasses.fields(RunConfig)}
    # every dataclass field is written under some option name
    assert text.count("=") == len(names)
