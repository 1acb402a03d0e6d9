"""The command line's options: one table of commands and flags, read with
argparse's grammar but without argparse, whose parsers, and the gettext and
locale imports they trigger, took about half of a small command's time.

``_COMMANDS`` holds each command's help line, positionals and flags, and
``_parse`` reads argv against it.  A flag's value follows it or comes after
"=", a unique prefix names a flag (--k for --kind), a negative number is a
value, any other token that starts with "-" is not, the positional may come
anywhere, "--" makes every later token an argument, and the last of a
repeated flag wins.  ``--help``, after the command or without one, prints
the help from the same table and exits 0; a usage error prints the usage
line and argparse's error message to stderr and exits 2.

The parser is a module of its own, apart from the commands in
:mod:`cycledual.cli`, so that each compiles in less memory: without a
bytecode cache, compiling one module that held both raised the peak RSS of
a small command by about 0.3 MB.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import NoReturn

from .cyclo import KINDS

__all__: list[str] = []

_REQUIRED = object()  # the default of a flag that must be given

# Every command's one-line help, positionals and flags.  A flag is (name,
# type, default, help): the type is int, str or a tuple of choices.
_COMMANDS = {
    "construct": (
        "run one pipeline cell",
        (),
        (
            ("--kind", KINDS, _REQUIRED, "the duality of the family"),
            ("--s", int, _REQUIRED, "alphabet exponent (q = 2^s)"),
            ("--m", int, _REQUIRED, "odd extension degree"),
            ("--mu", int, _REQUIRED, "length divisor"),
            ("--b", int, None, "override the coset count"),
            ("--out", str, None, "write the certificate here"),
        ),
    ),
    "verify": ("re-check a certificate from scratch", ("certificate",), ()),
    "distance": (
        "measure a certificate's outer code",
        ("certificate",),
        (
            ("--method", ("exhaustive", "sampled"), _REQUIRED, "enumerate or sample"),
            ("--budget", int, None, "most codewords to weigh"),
            ("--partitions", int, 1, "must be positive; changes nothing else"),
            ("--trials", int, 10000, "sampled messages to weigh"),
            ("--seed", int, 0, "seed of the sampled messages"),
        ),
    ),
    "table": (
        "sweep a parameter grid",
        (),
        (
            ("--kind", KINDS, _REQUIRED, "the duality of the family"),
            ("--s", int, _REQUIRED, "alphabet exponent (q = 2^s)"),
            ("--m-max", int, _REQUIRED, "largest odd extension degree"),
            ("--mu", int, None, "restrict to one divisor"),
        ),
    ),
    "factor": (
        "cosets and irreducible factors of x^n - 1",
        (),
        (
            ("--q", int, _REQUIRED, "field size, a power of two"),
            ("--n", int, _REQUIRED, "odd length"),
        ),
    ),
}

_DESCRIPTION = (
    "Self-dual repeated-root cyclic codes over GF(2^s) "
    "from dual-containing BCH codes, with re-checkable certificates."
)
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # an argument, not an option


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _metavar(flag: str, kind) -> str:
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else _dest(flag).upper()


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: cycledual [-h] {" + ",".join(_COMMANDS) + "} ...\n"
    _, positionals, flags = _COMMANDS[command]
    words = ["[-h]"]
    for name, kind, default, _ in flags:
        word = f"{name} {_metavar(name, kind)}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    return f"usage: cycledual {command} {' '.join(words + list(positionals))}\n"


def _help(command: str | None) -> str:
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        description = _DESCRIPTION
        arguments = [("{" + ",".join(_COMMANDS) + "}", "")]
        arguments += [(f"  {name}", spec[0]) for name, spec in _COMMANDS.items()]
    else:
        description, positionals, flags = _COMMANDS[command]
        arguments = [(name, "") for name in positionals]
        rows += [(f"{name} {_metavar(name, kind)}", text) for name, kind, _, text in flags]
    sections = [("positional arguments", arguments)] if arguments else []
    text = f"{_usage(command)}\n{description}\n"
    for title, lines in sections + [("options", rows)]:
        text += f"\n{title}:\n"
        for invocation, line in lines:
            if not line:
                text += f"  {invocation}\n"
            elif len(invocation) <= 20:
                text += f"  {invocation:<20}  {line}\n"
            else:
                text += f"  {invocation}\n{' ' * 24}{line}\n"
    return text


def _fail(command: str | None, message: str) -> NoReturn:
    prog = "cycledual" if command is None else f"cycledual {command}"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _classify(command: str | None, token: str, options) -> tuple | None:
    """argparse's reading of one token before any "--": None for an
    argument, else (option, its explicit value or None), with option None
    for an unknown one.  A unique prefix of a long option names it."""
    if not token or token[0] != "-":
        return None
    if token in options:
        return token, None
    if len(token) == 1:
        return None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return name, value
    if token[1] == "-":
        explicit = value if eq else None
        matches = [(option, explicit) for option in options if option.startswith(name)]
    else:  # a short option takes the rest of its token as its value
        matches = [("-h", token[2:])] if token.startswith("-h") else []
    if len(matches) > 1:
        names = ", ".join(option for option, _ in matches)
        _fail(command, f"ambiguous option: {token} could match {names}")
    if matches:
        return matches[0]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _take_help(command: str | None, option: str, value: str | None) -> NoReturn:
    """Print the help and exit 0, or refuse a value given to -h/--help."""
    if value is not None:
        # "-hh" is -h twice, and "-hx" gives -h the value "x"
        rest = value.lstrip("h") if option == "-h" else value
        if rest or not value:
            _fail(command, f"argument -h/--help: ignored explicit argument {rest!r}")
    sys.stdout.write(_help(command))
    raise SystemExit(0)


def _parse_command(command: str, args: list[str], ns: SimpleNamespace) -> list[str]:
    """Parse one command's arguments into ns, the way argparse does;
    returns the arguments left over."""
    _, positionals, flags = _COMMANDS[command]
    spec = {flag[0]: flag for flag in flags}
    options = _HELP + tuple(spec)
    for name, _, default, _ in flags:
        setattr(ns, _dest(name), None if default is _REQUIRED else default)
    # every token after the first "--" is an argument
    cut = args.index("--") if "--" in args else len(args)
    reads = [_classify(command, token, options) for token in args[:cut]]
    reads += ["--"] + [None] * (len(args) - cut - 1) if cut < len(args) else []
    pending, seen, extras = list(positionals), set(), []
    i = 0
    while i < len(args):
        read = reads[i]
        if read is None or read == "--":
            # a positional takes one argument, and one "--" before or after it
            if pending and (read is None or i + 1 < len(args)):
                value = args[i] if read is None else args[i + 1]
                i += 2 if read == "--" or reads[i + 1 : i + 2] == ["--"] else 1
                setattr(ns, pending.pop(0), value)
            else:
                extras.append(args[i])
                i += 1
            continue
        option, value = read
        if option is None:
            extras.append(args[i])
        elif option in _HELP:
            _take_help(command, option, value)
        else:
            if value is None:
                if i + 1 == len(args) or reads[i + 1] is not None:
                    _fail(command, f"argument {option}: expected one argument")
                i += 1
                value = args[i]
            _, kind, _, _ = spec[option]
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _fail(command, f"argument {option}: invalid int value: {value!r}")
            elif isinstance(kind, tuple) and value not in kind:
                choices = ", ".join(map(repr, kind))
                _fail(command, f"argument {option}: invalid choice: {value!r} "
                      f"(choose from {choices})")
            setattr(ns, _dest(option), value)
            seen.add(option)
        i += 1
    missing = pending + [
        name for name, _, default, _ in flags if default is _REQUIRED and name not in seen
    ]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return extras


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and its arguments from argv, as argparse would read them
    with the parsers of ``_COMMANDS``; prints the help and exits 0, or
    prints the usage and an error and exits 2."""
    extras = []
    for i, token in enumerate(argv):
        read = None if token == "--" else _classify(None, token, _HELP)
        if read is None:
            # the first argument is the command; a "--" followed by more
            # arguments is read as one
            if token not in _COMMANDS:
                if token == "--" and i + 1 == len(argv):
                    break
                choices = ", ".join(map(repr, _COMMANDS))
                _fail(None, f"argument command: invalid choice: {token!r} "
                      f"(choose from {choices})")
            ns = SimpleNamespace(command=token)
            extras += _parse_command(token, argv[i + 1 :], ns)
            if extras:
                _fail(None, f"unrecognized arguments: {' '.join(extras)}")
            return ns
        option, value = read
        if option is None:
            extras.append(token)
        else:
            _take_help(None, option, value)
    _fail(None, "the following arguments are required: command")
