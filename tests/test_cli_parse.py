"""The command line's parser against argparse.

``reference._build_parser`` is the argparse parser the CLI had;
``options._parse`` reads the one option table that replaced it.  Every argv that the reference accepts must give
an equal namespace, every argv it refuses must exit 2 with argparse's error
line, and help must exit 0 for the same parser, whatever the tokens.  One
argparse 3.11 defect is corrected in the reference before the comparison: it
stores an explicit ``--flag=--`` as an empty list, whatever the flag's type,
where ``_parse`` takes ``--`` as the value.
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from cycledual import cli, options
from cycledual.cli import main

SRC = str(Path(cli.__file__).resolve().parents[1])

COMMANDS = ["construct", "verify", "distance", "table", "factor"]
FLAGS = [
    "--kind", "--s", "--m", "--mu", "--b", "--out", "--method", "--budget",
    "--partitions", "--trials", "--seed", "--m-max", "--q", "--n", "--help",
]
# every shorter spelling: a unique prefix in some parsers, ambiguous or
# unknown in others ("--m" is --m itself in construct, ambiguous in table)
PREFIXES = sorted({flag[:k] for flag in FLAGS for k in range(3, len(flag))} - set(FLAGS))
VALUES = [
    "0", "1", "3", "7", "-3", "+5", " 5", "1.5", "-1.5", "x", "",
    "euclidean", "hermitian", "exhaustive", "sampled",
]
SPECIAL = ["-", "--", "-x", "-h", "-hh", "-hx", "--help", "--"]
PATHS = ["c.cert", "-x.cert", "my cert", "--x y"]
WORDS = VALUES + SPECIAL + PATHS
TOKENS = (
    COMMANDS + ["nonsense"] + FLAGS + PREFIXES + WORDS
    + [f"{flag}={word}" for flag in FLAGS + PREFIXES for word in WORDS]
)
# per command, the units of one accepted argv, which may come in any order,
# and the units it may add
VALID = {
    "construct": [["--kind", "euclidean"], ["--s", "1"], ["--m", "3"], ["--mu", "1"]],
    "verify": [["c.cert"]],
    "distance": [["c.cert"], ["--method", "sampled"]],
    "table": [["--kind", "hermitian"], ["--s", "1"], ["--m-max", "3"]],
    "factor": [["--q", "2"], ["--n", "7"]],
}
OPTIONAL = {
    "construct": [["--b", "0"], ["--out", "c.cert"], ["--mu", "7"]],
    "distance": [["--budget", "5"], ["--partitions", "2"], ["--trials", "+9"], ["--seed", "-3"]],
    "table": [["--mu", "3"], ["--kind", "euclidean"]],
    "factor": [["--q", "4"], ["--n", " 21"]],
}


def _spellings(unit):
    """The unit with its flag as written, shortened, or joined by "="."""
    if len(unit) == 1:
        return [unit]
    flag, value = unit
    names = [flag[:k] for k in range(3, len(flag) + 1)]
    return [[name, value] for name in names] + [[f"{name}={value}"] for name in names]


@st.composite
def argvs(draw):
    """A command, often with a valid set of flags, and tokens around it."""
    command = draw(st.sampled_from(COMMANDS + ["nonsense"]))
    units = []
    if draw(st.booleans()):
        units = [draw(st.sampled_from(_spellings(unit))) for unit in VALID.get(command, [])]
    own = [v for unit in OPTIONAL.get(command, []) for v in _spellings(unit)]
    pair = st.tuples(st.sampled_from(FLAGS + PREFIXES), st.sampled_from(WORDS)).map(list)
    noise = pair | st.sampled_from(TOKENS).map(lambda t: [t])
    # valid additions twice as often as noise, so that about a third of the
    # argvs are accepted
    extra = st.one_of(st.sampled_from(own), st.sampled_from(own), noise) if own else noise
    units += draw(st.lists(extra, max_size=4))
    units = draw(st.permutations(units))
    before = draw(st.lists(st.sampled_from(TOKENS), max_size=2)) if draw(st.integers(0, 3)) == 0 else []
    return before + [command] + [token for unit in units for token in unit]


def _outcome(parse, argv):
    """(vars of the namespace, or the exit code), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_get_values = argparse.ArgumentParser._get_values


def _keep_explicit_dashes(self, action, arg_strings):
    # argparse 3.11 removes the "--" of an explicit "--flag=--" and stores []
    if action.option_strings and arg_strings == ["--"]:
        value = self._get_value(action, "--")
        self._check_value(action, value)
        return value
    return _get_values(self, action, arg_strings)


def _reference(argv):
    with mock.patch.object(argparse.ArgumentParser, "_get_values", _keep_explicit_dashes):
        return _outcome(lambda a: reference._build_parser().parse_args(a), argv)


def _usage(text):
    """The usage paragraph with argparse's line wrapping undone."""
    return " ".join(text.split("\n\n")[0].split())


@settings(max_examples=1000, deadline=None)
@given(argvs())
# unique prefixes name their flag; --b is --budget in distance
@example(["construct", "--k", "euclidean", "--s", "1", "--m", "3", "--mu", "1"])
@example(["distance", "c", "--me", "exhaustive"])
@example(["distance", "c", "--me", "sampled", "--b", "5"])
# --m could be --m-max or --mu in table
@example(["table", "--kind", "euclidean", "--s", "1", "--m-max", "3", "--m", "5"])
@example(["factor", "--q=4", "--n=21"])
@example(["distance", "c", "--method", "sampled", "--seed", "-3"])
@example(["construct", "--kind", "euclidean", "--s", "1", "--m", "3", "--mu", "1", "--out", "-x"])
@example(["verify", "--", "-x.cert"])
@example(["distance", "--method", "exhaustive", "c", "--seed", "1"])
@example(["factor", "--q", "2", "--q", "4", "--n", "7"])
@example(["factor", "--q", "+4", "--n", " 21"])
@example(["construct", "--kind", "euclidean", "--s", "1", "--m", "3", "--mu", "1", "--out=--"])
def test_parse_matches_argparse(argv):
    expected, ref_out, ref_err = _reference(argv)
    result, out, err = _outcome(options._parse, argv)
    assert result == expected
    if isinstance(expected, dict):
        assert (out, err) == ("", "")
    elif expected == 0:  # help, of the same parser
        assert err == "" and _usage(out) == _usage(ref_out)
    else:
        assert out == ""
        assert _usage(err) == _usage(ref_err)
        assert err.splitlines()[-1] == ref_err.splitlines()[-1]


def test_an_explicit_double_dash_is_a_value():
    # argparse 3.11 stores [] for "--flag=--", whatever the flag's type
    argv = ["distance", "c", "--method", "sampled", "--seed=--"]
    assert _outcome(lambda a: reference._build_parser().parse_args(a), argv)[0]["seed"] == []
    result, out, err = _outcome(options._parse, argv)
    assert (result, out) == (2, "")
    assert err.endswith("cycledual distance: error: argument --seed: invalid int value: '--'\n")
    argv = ["construct", "--kind", "euclidean", "--s", "1", "--m", "3", "--mu", "1", "--out=--"]
    assert _outcome(options._parse, argv)[0]["out"] == "--"


def test_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: cycledual [-h] ")
    for action in reference._build_parser()._subparsers._group_actions[0]._choices_actions:
        assert f"    {action.dest:<20}{action.help}\n" in out


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
def test_help_lists_every_flag(capsys, command, flag):
    assert main([command, flag]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(f"usage: cycledual {command} [-h] ")
    subparsers = reference._build_parser()._subparsers._group_actions[0]
    for action in subparsers.choices[command]._actions:
        if not action.option_strings:
            assert f"\n  {action.dest}\n" in out
            continue
        invocation = "  " + ", ".join(action.option_strings)
        if action.choices:
            invocation += " {" + ",".join(action.choices) + "}"
        elif action.nargs != 0:
            invocation += " " + action.dest.upper()
        assert invocation in out
        if action.help:
            assert action.help in out
    assert ("alphabet exponent (q = 2^s)" in out) == (command in ("construct", "table"))


@pytest.mark.parametrize(
    "argv,command,message",
    [
        (["construct"], "construct",
         "the following arguments are required: --kind, --s, --m, --mu"),
        (["factor", "--q", "x", "--n", "7"], "factor", "argument --q: invalid int value: 'x'"),
        (["construct", "--kind", "unitary", "--s", "1", "--m", "3", "--mu", "1"], "construct",
         "argument --kind: invalid choice: 'unitary' (choose from 'euclidean', 'hermitian')"),
        (["verify", "c.cert", "extra", "-x"], None, "unrecognized arguments: extra -x"),
        (["construct", "--kind", "euclidean", "--s", "1", "--m", "3", "--mu", "1", "--out", "-x"],
         "construct", "argument --out: expected one argument"),
        (["table", "--kind", "euclidean", "--s", "1", "--m-max", "3", "--m", "5"], "table",
         "ambiguous option: --m could match --m-max, --mu"),
        ([], None, "the following arguments are required: command"),
        (["nonsense"], None,
         "argument command: invalid choice: 'nonsense' (choose from 'construct', 'verify', "
         "'distance', 'table', 'factor')"),
    ],
    ids=["required", "int", "choice", "unrecognized", "one-argument", "ambiguous",
         "no-command", "bad-command"],
)
def test_usage_errors_exit_2(capsys, argv, command, message):
    # as with argparse, the command's parser reports what it reads, and the
    # top-level one the command itself and arguments that no parser took
    prog = "cycledual" if command is None else f"cycledual {command}"
    assert main(argv) == 2
    out, err = capsys.readouterr()
    usage, error = err.splitlines()
    assert out == ""
    assert usage.startswith(f"usage: {prog} [-h] ")
    assert error == f"{prog}: error: {message}"


_IMPORTS = """
import sys

import cycledual.cli

rc = cycledual.cli.main(["verify", sys.argv[1]])
print(rc, sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
"""


def test_the_cli_imports_no_argparse(tmp_path, capsys):
    cert = tmp_path / "cert.txt"
    argv = ["construct", "--kind", "euclidean", "--s", "1", "--m", "3", "--mu", "1"]
    assert main(argv + ["--out", str(cert)]) == 0
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS, str(cert)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
