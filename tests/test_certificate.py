import dataclasses
import functools
import os
import stat
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycledual import (
    KINDS,
    DistanceSummary,
    VerificationError,
    build_family,
    dumps,
    family_parameters,
    loads,
    read_certificate,
    write_certificate,
)
from cycledual.certificate import CertificateFormatError
from cycledual.cli import main
from cycledual.integers import divisors


@pytest.fixture(scope="module")
def cert():
    return build_family("euclidean", 1, 3, 1)


def test_roundtrip(cert):
    text = dumps(cert)
    assert loads(text) == cert
    assert dumps(loads(text)) == text
    assert hash(loads(text)) == hash(cert)


def test_deterministic_bytes(cert):
    again = build_family("euclidean", 1, 3, 1)
    assert dumps(cert) == dumps(again)


def test_expected_layout(cert):
    text = dumps(cert)
    for line in (
        "[params]",
        "kind = euclidean",
        "[field]",
        "alphabet_modulus = 3",
        "extension_modulus = b",
        "beta_exponent = 1",
        "defining_set = 1,2,4",
        "generator = 1,1,0,1",
        "g2 = 1,1",
        "generator = 1,1,1,1,0,0,1,1",
        "floor_min = 4",
        "paper_floor_exact = sqrt(14) - 2",
        "dual_containing = pass",
        "automorphism_subgroup = not_verified",
    ):
        assert line in text
    assert text.endswith("format_version = 1\n")


def test_distance_lines_roundtrip(cert):
    with_distance = dataclasses.replace(
        cert, distance=DistanceSummary("exhaustive", 4, True)
    )
    text = dumps(with_distance)
    assert "distance_method = exhaustive" in text
    assert "distance_value = 4" in text
    assert "distance_exact = true" in text
    assert loads(text) == with_distance


def test_rejects_missing_section(cert):
    text = dumps(cert)
    body = text[: text.index("[checks]")] + "format_version = 1\n"
    with pytest.raises(CertificateFormatError, match="missing section"):
        loads(body)


def test_rejects_missing_key(cert):
    text = dumps(cert).replace("bch_inner = 3\n", "")
    with pytest.raises(CertificateFormatError, match="bch_inner"):
        loads(text)


@pytest.mark.parametrize(
    "section,key",
    [("inner_code", "defining_set"), ("inner_code", "g2"), ("outer_code", "generator"),
     ("bounds", "bch_dual")],
)
def test_a_missing_key_is_named_once(cert, section, key):
    # the same message in every section, never wrapped as a bad value
    text = dumps(cert)
    start = text.index(f"\n{key} = ", text.index(f"[{section}]")) + 1
    edited = text[:start] + text[text.index("\n", start) + 1 :]
    with pytest.raises(CertificateFormatError) as info:
        loads(edited)
    assert str(info.value) == f"missing key {key!r} in [{section}]"


def test_rejects_unknown_key(cert):
    text = dumps(cert).replace("bch_inner = 3", "bch_inner = 3\nextra = 1")
    with pytest.raises(CertificateFormatError):
        loads(text)


def test_rejects_non_canonical_text(cert):
    text = dumps(cert)
    for mutant in (
        text.replace("kind = euclidean", "kind =  euclidean"),
        text.replace("s = 1\nm = 3", "m = 3\ns = 1"),  # reordered keys
        text.replace("paper_floor_int = 2", "paper_floor_int = 02"),
        text.replace("extension_modulus = b", "extension_modulus = B"),
        text.replace("defining_set = 1,2,4", "defining_set = 1,2,04"),
        text.rstrip("\n"),  # no trailing newline
        text.replace("format_version = 1", "format_version = 2"),
        text + "junk\n",
    ):
        with pytest.raises(CertificateFormatError):
            loads(mutant)


def test_rejects_bad_values(cert):
    text = dumps(cert)
    for mutant in (
        text.replace("kind = euclidean", "kind = unitary"),
        text.replace("dual_containing = pass", "dual_containing = maybe"),
        text.replace("alphabet_modulus = 3", "alphabet_modulus = 5"),  # reducible
        text.replace("distance_exact = true", "distance_exact = yes"),
    ):
        if mutant == text:
            continue
        with pytest.raises(CertificateFormatError):
            loads(mutant)


def _structural_edits(text):
    """Every copy of text with one line dropped, duplicated, renamed (a key
    line) or swapped with the next one."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        yield lines[:i] + lines[i + 1 :]
        yield lines[: i + 1] + lines[i:]
        if " = " in line:
            yield lines[:i] + ["renamed_" + line] + lines[i + 1 :]
        if i + 1 < len(lines):
            yield lines[:i] + [lines[i + 1], line] + lines[i + 2 :]


@pytest.mark.parametrize(
    "cell,record,edits",
    [
        (("euclidean", 1, 3, 1), None, 151),
        (("euclidean", 1, 3, 1), DistanceSummary("exhaustive", 4, True), 163),
        (("euclidean", 2, 3, 7), None, 151),
        (("euclidean", 2, 3, 7), DistanceSummary("sampled", 6, False), 163),
    ],
    ids=["E1m3", "E1m3-exhaustive", "E2m3mu7", "E2m3mu7-sampled"],
)
def test_structural_edits_never_load(cell, record, edits):
    text = dumps(dataclasses.replace(build_family(*cell), distance=record))
    mutants = list(_structural_edits(text))
    assert len(mutants) == edits
    for lines in mutants:
        with pytest.raises(CertificateFormatError):
            loads("".join(lines))


def test_value_level_edit_parses_but_differs(cert):
    # a canonical-looking edit parses fine; catching it is verify's job
    text = dumps(cert).replace("defining_set = 1,2,4", "defining_set = 1,2,5")
    parsed = loads(text)
    assert parsed.defining_set.sorted_members == (1, 2, 5)
    assert parsed != cert


def test_write_is_atomic(cert, tmp_path, monkeypatch):
    path = tmp_path / "cert.txt"
    write_certificate(cert, path)
    before = path.read_bytes()

    def full_disk(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", full_disk)
    updated = dataclasses.replace(cert, distance=DistanceSummary("exhaustive", 4, True))
    with pytest.raises(OSError, match="disk full"):
        write_certificate(updated, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cert.txt"]
    monkeypatch.undo()
    write_certificate(updated, path)
    assert read_certificate(path) == updated


def test_write_keeps_symlink_and_mode(cert, tmp_path):
    target = tmp_path / "cert.txt"
    write_certificate(cert, target)
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    updated = dataclasses.replace(cert, distance=DistanceSummary("exhaustive", 4, True))
    write_certificate(updated, link)
    assert link.is_symlink()
    assert read_certificate(target) == updated
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_distance_exact_must_match_method(cert):
    text = dumps(dataclasses.replace(cert, distance=DistanceSummary("exhaustive", 4, True)))
    for method, exact in (("exhaustive", "false"), ("sampled", "true")):
        edited = text.replace("distance_method = exhaustive", f"distance_method = {method}")
        edited = edited.replace("distance_exact = true", f"distance_exact = {exact}")
        with pytest.raises(CertificateFormatError, match="contradicts"):
            loads(edited)


@functools.lru_cache(maxsize=None)
def _small_cells():
    """(kind, s, m, mu, b) of every cell with n_inner <= 63 that builds with
    all checks passing, s <= 3 and m <= 5, at each coset count b from 0 to
    the default."""
    cells = []
    for kind in KINDS:
        for s in (1, 2, 3):
            for m in (1, 3, 5):
                group = (1 << (s * m if kind == "euclidean" else 2 * s * m)) - 1
                for mu in divisors(group):
                    params = family_parameters(kind, s, m, mu)
                    if params.n_inner > 63:
                        continue
                    for b in range(params.b_default + 1):
                        try:
                            cert = build_family(kind, s, m, mu, b_override=b)
                        except (ValueError, VerificationError):
                            continue
                        if cert.all_checks_pass:
                            cells.append((kind, s, m, mu, b))
    return cells


def _value_positions(text):
    """(line index, column) of every value character outside [params] and
    the distance_* lines."""
    section = None
    for i, line in enumerate(text.splitlines()):
        if line.startswith("["):
            section = line
        key, sep, value = line.partition(" = ")
        if sep and section != "[params]" and not key.startswith("distance_"):
            for j in range(len(key) + len(sep), len(line)):
                yield i, j


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_small_certificates_roundtrip_and_catch_a_single_edit(data):
    assert len(_small_cells()) >= 20
    kind, s, m, mu, b = data.draw(st.sampled_from(_small_cells()), label="cell")
    cert = build_family(kind, s, m, mu, b_override=b)
    method = data.draw(st.sampled_from([None, "exhaustive", "sampled"]), label="record")
    if method is not None:
        # a value that verify accepts: exact ones stay within Singleton
        top = cert.n_outer - cert.k_outer + 1 if method == "exhaustive" else cert.n_outer
        value = data.draw(st.integers(cert.floor_min, top), label="distance")
        record = DistanceSummary(method, value, method == "exhaustive")
        cert = dataclasses.replace(cert, distance=record)
    text = dumps(cert)
    assert loads(text) == cert
    assert dumps(loads(text)) == text

    lines = text.splitlines(keepends=True)
    i, j = data.draw(st.sampled_from(list(_value_positions(text))), label="position")
    ch = data.draw(st.sampled_from([c for c in "0123456789abcdef," if c != lines[i][j]]))
    lines[i] = lines[i][:j] + ch + lines[i][j + 1 :]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.txt")
        with open(path, "w") as f:
            f.write(text)
        assert main(["verify", path]) == 0
        with open(path, "w") as f:
            f.write("".join(lines))
        assert main(["verify", path]) != 0, lines[i]
