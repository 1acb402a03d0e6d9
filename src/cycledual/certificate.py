"""Certificate files: a sectioned key = value text format.

The writer is canonical (fixed section and key order, one space around "=",
one blank line between sections, trailing newline), and the reader rejects
anything that does not round-trip byte for byte or holds a carriage return;
files are read and written as ASCII bytes.  That strictness is what makes
tampering detectable: any edit either breaks parsing or changes a parsed
value that re-verification then contradicts.

The format is one line table, ``_LINES``, that :func:`dumps` and
:func:`loads` both walk.  [checks] ends with "automorphism_subgroup =
not_verified" and the file with "format_version = 1".  Distance reports
appended later by the CLI live in [bounds] as distance_method /
distance_value / distance_exact, all three or none.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import Any, Callable

from .construct import DistanceSummary, SelfDualCertificate, check_inner_length
from .cyclo import KINDS, DefiningSet
from .gf import Field, field_create
from .poly import Poly

__all__ = ["CertificateFormatError", "dumps", "loads", "write_certificate", "read_certificate"]

FORMAT_VERSION = 1


class CertificateFormatError(ValueError):
    """The certificate file does not parse as a canonical certificate."""


def _int(text: str, what: str) -> int:
    try:
        v = int(text, 10)
    except ValueError:
        raise CertificateFormatError(f"bad integer for {what}: {text!r}") from None
    if str(v) != text:
        raise CertificateFormatError(f"non-canonical integer for {what}: {text!r}")
    return v


def _hex(text: str, what: str) -> int:
    try:
        v = int(text, 16)
    except ValueError:
        raise CertificateFormatError(f"bad hex value for {what}: {text!r}") from None
    if format(v, "x") != text:
        raise CertificateFormatError(f"non-canonical hex value for {what}: {text!r}")
    return v


# A codec is a pair (show, read): show(value) gives a line's text, and
# read(text, values) parses it, given the values already read, by record
# attribute.  A value that spans lines keeps its parts there until its last
# line builds it: the field, and the optional distance record.
_Codec = tuple[Callable[[Any], str], Callable[[str, dict], Any]]


def _integer(what: str) -> _Codec:
    return str, lambda text, values: _int(text, what)


def _choice(message: str, texts: dict[str, Any]) -> _Codec:
    """One of a few texts; any other text raises "{message} {text!r}"."""
    def read(text: str, values: dict) -> Any:
        if text not in texts:
            raise CertificateFormatError(f"{message} {text!r}")
        return texts[text]
    return {value: text for text, value in texts.items()}.__getitem__, read


def _verdict(what: str) -> _Codec:
    return _choice(f"bad verdict for {what}:", {"pass": True, "fail": False})


def _parsed(message: str, parse: Callable[[str, dict], Any], show=lambda v: v.to_string()):
    """A value that parse reads, whose ValueError becomes "{message}: ..."."""
    def read(text: str, values: dict) -> Any:
        try:
            return parse(text, values)
        except CertificateFormatError:
            raise
        except ValueError as exc:
            raise CertificateFormatError(f"{message}: {exc}") from None
    return show, read


def _alphabet_field(text: str, values: dict) -> Field:
    return field_create(values["field"], _hex(text, "alphabet_modulus"))  # field is alphabet_s


def _defining_set(text: str, values: dict) -> DefiningSet:
    return DefiningSet.from_string(values["n_inner"], values["field"].order, text)


def _poly(text: str, values: dict) -> Poly:
    return Poly.from_string(values["field"], text)


def _inner_length(text: str, values: dict) -> int:
    n = _int(text, "inner n")
    if n < 1:
        raise CertificateFormatError("inner n must be positive")
    check_inner_length(n)  # before the length-n defining-set mask
    return n


def _paper_floor(text: str, values: dict) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CertificateFormatError(f"bad paper_floor {text!r}") from None
    if repr(value) != text:
        raise CertificateFormatError(f"non-canonical paper_floor {text!r}")
    return value


def _distance(text: str, values: dict) -> DistanceSummary:
    """The record, from distance_exact and the (method, value) above it."""
    method, value = values["distance"]
    if text not in ("true", "false"):
        raise CertificateFormatError(f"bad distance_exact {text!r}")
    if (text == "true") != (method == "exhaustive"):
        message = f"distance_exact = {text} contradicts distance_method = {method}"
        raise CertificateFormatError(message)
    return DistanceSummary(method, value, text == "true")


# Every line but the fixed automorphism_subgroup and format_version ones
_LINES: tuple[tuple[str, str, str, _Codec], ...] = (
    ("params", "kind", "kind", _choice("bad kind", {kind: kind for kind in KINDS})),
    ("params", "s", "s", _integer("s")),
    ("params", "m", "m", _integer("m")),
    ("params", "mu", "mu", _integer("mu")),
    ("params", "b", "b", _integer("b")),
    ("field", "alphabet_s", "field", (lambda f: str(f.s), _integer("alphabet_s")[1])),
    ("field", "alphabet_modulus", "field",
     _parsed("bad alphabet field", _alphabet_field, lambda f: f"{f.modulus:x}")),
    ("field", "extension_modulus", "extension_modulus",
     (lambda v: f"{v:x}", lambda text, values: _hex(text, "extension_modulus"))),
    ("field", "beta_exponent", "beta_exponent", _integer("beta_exponent")),
    ("inner_code", "n", "n_inner", (str, _inner_length)),
    ("inner_code", "k", "k_inner", _integer("inner k")),
    ("inner_code", "defining_set", "defining_set",
     _parsed("bad [inner_code] value", _defining_set)),
    ("inner_code", "generator", "inner_generator", _parsed("bad [inner_code] value", _poly)),
    ("inner_code", "g2", "g2", _parsed("bad [inner_code] value", _poly)),
    ("outer_code", "n", "n_outer", _integer("outer n")),
    ("outer_code", "k", "k_outer", _integer("outer k")),
    ("outer_code", "generator", "outer_generator", _parsed("bad [outer_code] value", _poly)),
    ("bounds", "bch_inner", "bch_inner", _integer("bch_inner")),
    ("bounds", "bch_dual", "bch_dual", _integer("bch_dual")),
    ("bounds", "floor_min", "floor_min", _integer("floor_min")),
    ("bounds", "paper_floor", "paper_floor_value", (repr, _paper_floor)),
    ("bounds", "paper_floor_exact", "paper_floor_exact", (str, lambda text, values: text)),
    ("bounds", "paper_floor_int", "paper_floor_int", _integer("paper_floor_int")),
    ("bounds", "distance_method", "distance", (lambda d: d.method, _choice(
        "bad distance_method", {"exhaustive": "exhaustive", "sampled": "sampled"})[1])),
    ("bounds", "distance_value", "distance", (lambda d: str(d.value), lambda text, values:
     (values["distance"], _int(text, "distance_value")))),
    ("bounds", "distance_exact", "distance", (lambda d: str(d.exact).lower(), _distance)),
    ("checks", "dual_containing", "dual_containing", _verdict("dual_containing")),
    ("checks", "self_dual", "self_dual", _verdict("self_dual")),
    ("checks", "van_lint_equivalence", "van_lint_equivalence", _verdict("van_lint_equivalence")),
    ("checks", "cyclic_invariance", "cyclic_invariance", _verdict("cyclic_invariance")),
)

# the sections in file order, each with its lines
_SECTIONS = {s: tuple(e for e in _LINES if e[0] == s) for s in dict.fromkeys(e[0] for e in _LINES)}
_DISTANCE_KEYS = {key for _, key, attr, _ in _LINES if attr == "distance"}


def dumps(cert: SelfDualCertificate) -> str:
    lines: list[str] = []
    for section, entries in _SECTIONS.items():
        lines += ["", f"[{section}]"]
        for _, key, attr, (show, _) in entries:
            value = getattr(cert, attr)
            if value is not None:  # None only as the absent distance record
                lines.append(f"{key} = {show(value)}")
    lines += ["automorphism_subgroup = not_verified", "", f"format_version = {FORMAT_VERSION}"]
    return "\n".join(lines[1:]) + "\n"


def _split_sections(text: str) -> dict[str, dict[str, str]]:
    if not text.endswith("\n"):
        raise CertificateFormatError("missing trailing newline")
    if "\r" in text:  # a free-text value, such as paper_floor_exact, would keep it
        raise CertificateFormatError("carriage return in certificate")
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    tail_seen = False
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        if line == "":
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name in sections:
                raise CertificateFormatError(f"line {lineno}: duplicate section [{name}]")
            current = sections[name] = {}
            continue
        if " = " not in line:
            raise CertificateFormatError(f"line {lineno}: expected 'key = value'")
        key, value = line.split(" = ", 1)
        if key == "format_version":
            if value != str(FORMAT_VERSION):
                raise CertificateFormatError(f"unsupported format_version {value!r}")
            tail_seen = True
            continue
        if current is None:
            raise CertificateFormatError(f"line {lineno}: key outside any section")
        if key in current:
            raise CertificateFormatError(f"line {lineno}: duplicate key {key!r}")
        current[key] = value
    if not tail_seen:
        raise CertificateFormatError("missing format_version line")
    return sections


def _take(section: dict[str, str], section_name: str, key: str) -> str:
    try:
        return section.pop(key)
    except KeyError:
        raise CertificateFormatError(f"missing key {key!r} in [{section_name}]") from None


def loads(text: str) -> SelfDualCertificate:
    sections = _split_sections(text)
    if missing := [s for s in _SECTIONS if s not in sections]:
        raise CertificateFormatError(f"missing section [{missing[0]}]")
    if unknown := [s for s in sections if s not in _SECTIONS]:
        raise CertificateFormatError(f"unknown section [{unknown[0]}]")

    values: dict[str, Any] = {}
    for section, key, attr, (_, read) in _LINES:
        lines = sections[section]
        # a distance record needs one of its keys, then all three
        if attr == "distance" and attr not in values and not lines.keys() & _DISTANCE_KEYS:
            continue
        values[attr] = read(_take(lines, section, key), values)
    auto = _take(sections["checks"], "checks", "automorphism_subgroup")
    if auto != "not_verified":
        raise CertificateFormatError(f"bad automorphism_subgroup {auto!r}")
    for name in _SECTIONS:
        if sections[name]:
            extra = next(iter(sections[name]))
            raise CertificateFormatError(f"unknown key {extra!r} in [{name}]")

    cert = SelfDualCertificate(**values)
    if dumps(cert) != text:
        raise CertificateFormatError("certificate is not in canonical form")
    return cert


def write_certificate(cert: SelfDualCertificate, path: str | Path) -> None:
    """Write atomically: a temporary file in the same directory replaces the
    target only once it is complete, so a failed write leaves the old file.
    The directory must be writable.  A symlink is followed, so its target is
    replaced, and an existing file keeps its permission bits."""
    path = Path(path).resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            if path.exists():
                os.chmod(fh.fileno(), stat.S_IMODE(path.stat().st_mode))
            fh.write(dumps(cert).encode("ascii"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_certificate(path: str | Path) -> SelfDualCertificate:
    return loads(Path(path).read_bytes().decode("ascii"))
