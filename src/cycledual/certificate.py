"""Certificate files: a sectioned key = value text format.

The writer is canonical (fixed section and key order, one space around "=",
one blank line between sections, trailing newline), and the reader rejects
anything that does not round-trip byte for byte or holds a carriage return;
files are read and written as ASCII bytes.  That strictness is what makes
tampering detectable: any edit either breaks parsing or changes a parsed
value that re-verification then contradicts.

Sections: [params], [field], [inner_code], [outer_code], [bounds], [checks];
the file ends with "format_version = 1".  Distance reports appended later by
the CLI live in [bounds] as distance_method / distance_value / distance_exact.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path

from .construct import DistanceSummary, SelfDualCertificate, check_inner_length
from .cyclo import KINDS, DefiningSet
from .gf import field_create
from .poly import Poly

__all__ = [
    "CertificateFormatError",
    "dumps",
    "loads",
    "write_certificate",
    "read_certificate",
]

FORMAT_VERSION = 1

_SECTIONS = ("params", "field", "inner_code", "outer_code", "bounds", "checks")


class CertificateFormatError(ValueError):
    """The certificate file does not parse as a canonical certificate."""


def dumps(cert: SelfDualCertificate) -> str:
    lines = [
        "[params]",
        f"kind = {cert.kind}",
        f"s = {cert.s}",
        f"m = {cert.m}",
        f"mu = {cert.mu}",
        f"b = {cert.b}",
        "",
        "[field]",
        f"alphabet_s = {cert.field.s}",
        f"alphabet_modulus = {cert.field.modulus:x}",
        f"extension_modulus = {cert.extension_modulus:x}",
        f"beta_exponent = {cert.beta_exponent}",
        "",
        "[inner_code]",
        f"n = {cert.n_inner}",
        f"k = {cert.k_inner}",
        f"defining_set = {cert.defining_set.to_string()}",
        f"generator = {cert.inner_generator.to_string()}",
        f"g2 = {cert.g2.to_string()}",
        "",
        "[outer_code]",
        f"n = {cert.n_outer}",
        f"k = {cert.k_outer}",
        f"generator = {cert.outer_generator.to_string()}",
        "",
        "[bounds]",
        f"bch_inner = {cert.bch_inner}",
        f"bch_dual = {cert.bch_dual}",
        f"floor_min = {cert.floor_min}",
        f"paper_floor = {cert.paper_floor_value!r}",
        f"paper_floor_exact = {cert.paper_floor_exact}",
        f"paper_floor_int = {cert.paper_floor_int}",
    ]
    if cert.distance is not None:
        lines += [
            f"distance_method = {cert.distance.method}",
            f"distance_value = {cert.distance.value}",
            f"distance_exact = {'true' if cert.distance.exact else 'false'}",
        ]
    lines += [
        "",
        "[checks]",
    ]
    for name, ok in cert.checks.items():
        lines.append(f"{name} = {'pass' if ok else 'fail'}")
    lines += [
        "automorphism_subgroup = not_verified",
        "",
        f"format_version = {FORMAT_VERSION}",
    ]
    return "\n".join(lines) + "\n"


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
            current = {}
            sections[name] = current
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


def _bool_check(text: str, what: str) -> bool:
    if text == "pass":
        return True
    if text == "fail":
        return False
    raise CertificateFormatError(f"bad verdict for {what}: {text!r}")


def loads(text: str) -> SelfDualCertificate:
    sections = _split_sections(text)
    missing = [s for s in _SECTIONS if s not in sections]
    if missing:
        raise CertificateFormatError(f"missing section [{missing[0]}]")
    unknown = [s for s in sections if s not in _SECTIONS]
    if unknown:
        raise CertificateFormatError(f"unknown section [{unknown[0]}]")

    p = sections["params"]
    kind = _take(p, "params", "kind")
    if kind not in KINDS:
        raise CertificateFormatError(f"bad kind {kind!r}")
    s = _int(_take(p, "params", "s"), "s")
    m = _int(_take(p, "params", "m"), "m")
    mu = _int(_take(p, "params", "mu"), "mu")
    b = _int(_take(p, "params", "b"), "b")

    f = sections["field"]
    alphabet_s = _int(_take(f, "field", "alphabet_s"), "alphabet_s")
    alphabet_modulus = _hex(_take(f, "field", "alphabet_modulus"), "alphabet_modulus")
    extension_modulus = _hex(_take(f, "field", "extension_modulus"), "extension_modulus")
    beta_exponent = _int(_take(f, "field", "beta_exponent"), "beta_exponent")
    try:
        field = field_create(alphabet_s, alphabet_modulus)
    except ValueError as exc:
        raise CertificateFormatError(f"bad alphabet field: {exc}") from None

    ic = sections["inner_code"]
    n_inner = _int(_take(ic, "inner_code", "n"), "inner n")
    k_inner = _int(_take(ic, "inner_code", "k"), "inner k")
    if n_inner < 1:
        raise CertificateFormatError("inner n must be positive")
    check_inner_length(n_inner)  # before the length-n defining-set mask
    try:
        defining_set = DefiningSet.from_string(
            n_inner, field.order, _take(ic, "inner_code", "defining_set")
        )
        inner_generator = Poly.from_string(field, _take(ic, "inner_code", "generator"))
        g2 = Poly.from_string(field, _take(ic, "inner_code", "g2"))
    except ValueError as exc:
        raise CertificateFormatError(f"bad [inner_code] value: {exc}") from None

    oc = sections["outer_code"]
    n_outer = _int(_take(oc, "outer_code", "n"), "outer n")
    k_outer = _int(_take(oc, "outer_code", "k"), "outer k")
    try:
        outer_generator = Poly.from_string(field, _take(oc, "outer_code", "generator"))
    except ValueError as exc:
        raise CertificateFormatError(f"bad [outer_code] value: {exc}") from None

    bo = sections["bounds"]
    bch_inner = _int(_take(bo, "bounds", "bch_inner"), "bch_inner")
    bch_dual = _int(_take(bo, "bounds", "bch_dual"), "bch_dual")
    floor_min = _int(_take(bo, "bounds", "floor_min"), "floor_min")
    pf_text = _take(bo, "bounds", "paper_floor")
    try:
        paper_floor_value = float(pf_text)
    except ValueError:
        raise CertificateFormatError(f"bad paper_floor {pf_text!r}") from None
    if repr(paper_floor_value) != pf_text:
        raise CertificateFormatError(f"non-canonical paper_floor {pf_text!r}")
    paper_floor_exact = _take(bo, "bounds", "paper_floor_exact")
    paper_floor_int = _int(_take(bo, "bounds", "paper_floor_int"), "paper_floor_int")
    distance = None
    # a stray key is left for the unknown-key check below
    if bo.keys() & {"distance_method", "distance_value", "distance_exact"}:
        method = _take(bo, "bounds", "distance_method")
        if method not in ("exhaustive", "sampled"):
            raise CertificateFormatError(f"bad distance_method {method!r}")
        value = _int(_take(bo, "bounds", "distance_value"), "distance_value")
        exact_text = _take(bo, "bounds", "distance_exact")
        if exact_text not in ("true", "false"):
            raise CertificateFormatError(f"bad distance_exact {exact_text!r}")
        if (exact_text == "true") != (method == "exhaustive"):
            raise CertificateFormatError(
                f"distance_exact = {exact_text} contradicts distance_method = {method}"
            )
        distance = DistanceSummary(method, value, exact_text == "true")

    ch = sections["checks"]
    dual_containing = _bool_check(_take(ch, "checks", "dual_containing"), "dual_containing")
    self_dual = _bool_check(_take(ch, "checks", "self_dual"), "self_dual")
    van_lint = _bool_check(
        _take(ch, "checks", "van_lint_equivalence"), "van_lint_equivalence"
    )
    cyclic_invariance = _bool_check(
        _take(ch, "checks", "cyclic_invariance"), "cyclic_invariance"
    )
    auto = _take(ch, "checks", "automorphism_subgroup")
    if auto != "not_verified":
        raise CertificateFormatError(f"bad automorphism_subgroup {auto!r}")

    for name in _SECTIONS:
        if sections[name]:
            extra = next(iter(sections[name]))
            raise CertificateFormatError(f"unknown key {extra!r} in [{name}]")

    cert = SelfDualCertificate(
        kind=kind,
        s=s,
        m=m,
        mu=mu,
        b=b,
        field=field,
        extension_modulus=extension_modulus,
        beta_exponent=beta_exponent,
        n_inner=n_inner,
        k_inner=k_inner,
        defining_set=defining_set,
        inner_generator=inner_generator,
        g2=g2,
        n_outer=n_outer,
        k_outer=k_outer,
        outer_generator=outer_generator,
        bch_inner=bch_inner,
        bch_dual=bch_dual,
        floor_min=floor_min,
        paper_floor_value=paper_floor_value,
        paper_floor_exact=paper_floor_exact,
        paper_floor_int=paper_floor_int,
        dual_containing=dual_containing,
        self_dual=self_dual,
        van_lint_equivalence=van_lint,
        cyclic_invariance=cyclic_invariance,
        distance=distance,
    )
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
