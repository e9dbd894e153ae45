"""Property tests of the configuration paths: for each subcommand, flags and
a config file give the same RunConfig, a flag overrides the file, and a
field the subcommand (or solve's mesh kind) does not read is a config
error either way. No subcommand body runs.

Needs hypothesis (the `test` extra); the module is skipped without it.
"""

import contextlib
import dataclasses
import io
import os
import tempfile

import pytest

from lanedual import cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FIELDS = {f.name: f.type for f in dataclasses.fields(cli.RunConfig)}
# text that a config line keeps as it is: no blanks, '#' or '='
WORDS = st.text("abcxyz0123456789-_./", min_size=1, max_size=12)


def _value(key):
    """Valid values of RunConfig field `key`."""
    if key in cli._CHOICES:
        return st.sampled_from(cli._CHOICES[key])
    typ = FIELDS[key]
    if typ is bool:
        return st.booleans()
    if key == "restarts":
        return st.integers(1, 10 ** 6)
    if key == "R":
        return st.floats(min_value=0.0, exclude_min=True,
                         allow_infinity=False)
    if typ is int:
        return st.integers(-10 ** 9, 10 ** 9)
    if typ is str:
        return WORDS
    return st.floats(allow_nan=False, allow_infinity=False)


def _values(data, keys):
    chosen = data.draw(st.lists(st.sampled_from(keys), unique=True))
    return {key: data.draw(_value(key)) for key in chosen}


def _read(sub, *parts):
    """Each of `parts`, less the fields that the run they make together,
    later parts overriding earlier ones, does not read (solve's per-mesh
    fields)."""
    merged = {key: value for part in parts for key, value in part.items()}
    read = cli.RunConfig(subcommand=sub, **merged).read()
    return [{key: value for key, value in part.items() if key in read}
            for part in parts]


def _flags(values):
    """`values` as flags; a false boolean is the flag left out."""
    argv = []
    for key, value in values.items():
        flag = "--" + ("mesh" if key == "mesh_kind"
                       else key.replace("_", "-"))
        if FIELDS.get(key) is bool:
            argv += [flag] if value else []
        else:
            argv.append(f"{flag}={value!r}" if isinstance(value, float)
                        else f"{flag}={value}")
    return argv


def _config_file(tmp, values):
    path = os.path.join(tmp, "run.cfg")
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value!r}\n" if isinstance(value, float)
                     else f"{key} = {value}\n")
    return path


SUBCOMMANDS = pytest.mark.parametrize("sub", list(cli.SUBCOMMANDS))
SETTINGS = settings(max_examples=25, derandomize=True, deadline=None)


@SUBCOMMANDS
@SETTINGS
@given(data=st.data())
def test_flags_and_file_give_the_same_config(sub, data):
    values, = _read(sub, _values(data, cli.SUBCOMMANDS[sub][1]))
    expected = cli.RunConfig(subcommand=sub, **values)
    with tempfile.TemporaryDirectory() as tmp:
        from_file = cli.config_from_args(
            ["--config", _config_file(tmp, values), sub])
    assert from_file == expected
    assert cli.config_from_args([sub, *_flags(values)]) == expected


@SUBCOMMANDS
@SETTINGS
@given(data=st.data())
def test_a_flag_overrides_the_file(sub, data):
    read = cli.SUBCOMMANDS[sub][1]
    in_file, in_flags = _read(sub, _values(data, read), _values(data, read))
    given_flags = {key: value for key, value in in_flags.items()
                   if value is not False}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = cli.config_from_args(["--config", _config_file(tmp, in_file),
                                    sub, *_flags(in_flags)])
    assert cfg == cli.RunConfig(subcommand=sub, **{**in_file, **given_flags})


@SUBCOMMANDS
@SETTINGS
@given(data=st.data())
def test_a_field_not_read_exits_4_before_any_output(sub, data):
    key = data.draw(st.sampled_from(
        [key for key in FIELDS if key not in cli.SUBCOMMANDS[sub][1]]))
    value = data.draw(_value(key))
    as_key = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        outdir = os.path.join(tmp, "out")
        if as_key:
            argv = ["--config", _config_file(tmp, {key: value}), sub]
        else:
            argv = [sub, *_flags({key: True if FIELDS[key] is bool
                                  else value})]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--outdir", outdir])
        assert code == cli.EXIT_CONFIG
        assert err.getvalue().startswith("config error: ")
        assert not os.path.exists(outdir)


@SETTINGS
@given(data=st.data())
def test_a_field_the_mesh_kind_does_not_read_exits_4_before_any_output(data):
    kind, key = data.draw(st.sampled_from(
        [(kind, key) for kind in cli._CHOICES["mesh_kind"]
         for key, word in cli._PER_MESH.items() if word not in kind]))
    values = {"mesh_kind": kind, key: data.draw(_value(key))}
    as_key = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        outdir = os.path.join(tmp, "out")
        if as_key:
            argv = ["--config", _config_file(tmp, values), "solve"]
        else:
            argv = ["solve", *_flags(values)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--p", "2", "--outdir", outdir])
        assert code == cli.EXIT_CONFIG
        assert err.getvalue() == (f"config error: solve --mesh {kind} does "
                                  f"not read {key}\n")
        assert not os.path.exists(outdir)
