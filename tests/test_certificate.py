import dataclasses
import os
import stat

import pytest

from cycledual import (
    DistanceSummary,
    build_family,
    dumps,
    loads,
    read_certificate,
    write_certificate,
)
from cycledual.certificate import CertificateFormatError


@pytest.fixture(scope="module")
def cert():
    return build_family("euclidean", 1, 3, 1)


def test_roundtrip(cert):
    text = dumps(cert)
    assert loads(text) == cert
    assert dumps(loads(text)) == text


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
