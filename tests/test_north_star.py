"""The largest cells of the north-star ladder come out byte-identical: the
certificate hashes were captured from the schoolbook polynomial arithmetic,
and the ``factor`` hashes are the benchmark's goldens."""

import hashlib
import json
from pathlib import Path

import pytest

from cycledual import build_family, dumps
from cycledual.cli import main

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"

CERTIFICATE_SHA256 = {
    ("euclidean", 1, 11): "765932eb9fcc9633c836368efb187101adb7f930d927db08a3b5207eef9660af",
    ("euclidean", 2, 5): "7d77c96b94925cba21f8f31b1293a3c25681bf46457d0c3a5ef42f47f8cc6f5b",
    ("hermitian", 1, 5): "cccfa351ce876eb7a690618ca07ed3b6b305d6e7daf0ea853f37e7c4a67a446a",
    ("hermitian", 2, 3): "d80dd084e4b2ef5ed761fbc73bae66e6f68d97d37dd72747d499017c8bc4141e",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("kind,s,m", sorted(CERTIFICATE_SHA256))
def test_large_cell_certificate_is_unchanged(kind, s, m):
    assert _sha256(dumps(build_family(kind, s, m, 1))) == CERTIFICATE_SHA256[kind, s, m]


def _check_factor_golden(q, capsys):
    golden = json.loads(GOLDENS.read_text(encoding="utf-8"))["ops"][f"factor.q{q}"]
    assert main(["factor", "--q", str(q), "--n", "4095"]) == golden["rc"]
    assert _sha256(capsys.readouterr().out) == golden["stdout_sha256"]


def test_factor_q16_matches_benchmark_golden(capsys):
    _check_factor_golden(16, capsys)


@pytest.mark.parametrize("q", [2, 4])
def test_factor_matches_benchmark_golden(q, capsys):
    _check_factor_golden(q, capsys)
