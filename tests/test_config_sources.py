"""The two sources of a run configuration, flags and config files, agree:
every RunConfig field takes the same value from either, and a malformed
value from either ends in one error:config: line."""
import dataclasses

import pytest

from dualpointer.cli import build_arg_parser, effective_config, main
from dualpointer.config import FLAGS, LAYOUT, RunConfig

# field name -> (INI section, INI key, field)
PLACES = {f.name: (section, key, f) for section, entries in LAYOUT.items()
          for key, f in entries.items()}
FLAG_OF = {f.name: flag for flag, f in FLAGS.items()}
FIELDS = dataclasses.fields(RunConfig)


def other_value(f) -> str:
    """Text of a valid value of field ``f`` that is not its default."""
    if f.name == "command":
        return "eval"
    choices = f.metadata["choices"]
    if choices:
        return next(c for c in choices if c != f.default)
    if f.type == tuple[int, ...]:
        return "2,3"
    if f.type == tuple[str, ...]:
        return "PUNCT,SYM"
    if f.type is int:
        return str(f.default + 1)
    if f.type is float:
        return repr(f.default / 2)
    return "some/file.conllu"


def bad_value(f):
    """Text that spells no value of field ``f``, or None if every text does."""
    if f.metadata["choices"]:
        return "bogus"
    return {int: "soon", float: "x", tuple[int, ...]: "a,b"}.get(f.type)


def effective(argv):
    return effective_config(build_arg_parser().parse_args(argv))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_field_has_a_place():
    assert set(PLACES) == {f.name for f in FIELDS}
    # the subcommand sets the command; every other field is a flag
    assert set(FLAG_OF) == {f.name for f in FIELDS} - {"command"}


@pytest.mark.parametrize("name", [f.name for f in FIELDS])
def test_flag_and_file_agree(name, tmp_path):
    section, key, f = PLACES[name]
    text = other_value(f)
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\n{key} = {text}\n")
    command = text if name == "command" else "gradcheck"
    from_file = effective([command, "--config", str(ini)])
    if name in FLAG_OF:
        from_flag = effective([command, FLAG_OF[name], text])
    else:
        from_flag = effective([command])
    assert from_flag == from_file
    assert getattr(from_flag, name) != getattr(RunConfig(), name)


@pytest.mark.parametrize("name", [f.name for f in FIELDS if bad_value(f)])
def test_malformed_value_is_one_config_error(name, capsys, tmp_path):
    section, key, f = PLACES[name]
    text = bad_value(f)
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {text}\n")
    for argv in (["eval", FLAG_OF[name], text], ["eval", "--config", str(ini)]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error:config:") and err.count("\n") == 1, err
        assert "Traceback" not in err


@pytest.mark.parametrize("flag", [
    ["--epochs", "soon"], ["--variant", "p9"], ["--activation", "relu"],
    ["--adam-alpha", "x"], ["--seeds", "a,b"]])
def test_bad_flag_exits_one(flag, capsys, tmp_path):
    # these exited 2 with an argparse usage dump (--seeds a,b already gave
    # error:config:); now every source of a bad value fails the same way
    data = tmp_path / "toy.conllu"
    data.write_text("1\ta\t_\t_\t_\t_\t0\t_\t_\t_\n\n")
    code, out, err = run(capsys, ["train", "--train", str(data), "--dev", str(data),
                                  "--model", str(tmp_path / "m.bin")] + flag)
    assert code == 1 and out == ""
    assert err.startswith("error:config:") and err.count("\n") == 1, err
    assert not (tmp_path / "m.bin").exists()


def test_help_lists_choices(capsys):
    with pytest.raises(SystemExit):
        build_arg_parser().parse_args(["train", "--help"])
    out = capsys.readouterr().out
    for listed in ("{p1,p2,p3,p4,p5}", "{max,sum}", "{sigmoid,tanh}",
                   "{joint,heads-only,deps-only,heads,deps}"):
        assert listed in out


@pytest.mark.parametrize("alias, mode", [("heads", "heads-only"), ("deps", "deps-only")])
def test_mode_aliases(alias, mode):
    assert effective(["eval", "--mode", alias]).mode == mode
