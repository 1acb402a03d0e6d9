import dataclasses
import hashlib
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cycledual
import reference
from cycledual import (
    Poly,
    cli,
    cyclic,
    distance,
    integers,
    linalg,
    read_certificate,
    write_certificate,
)
from cycledual.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def build_cert(tmp_path, capsys, *extra):
    path = tmp_path / "cert.txt"
    rc, out, _ = run(
        capsys, "construct", "--kind", "euclidean", "--s", "1", "--m", "3",
        "--mu", "1", "--out", str(path), *extra,
    )
    assert rc == 0
    return path


def test_construct_binary(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    rc, out, _ = run(
        capsys, "construct", "--kind", "euclidean", "--s", "1", "--m", "3", "--mu", "1"
    )
    assert rc == 0
    assert "[14, 7, ≥4]" in out
    assert "dual_containing: pass" in out
    assert path.exists()


def test_construct_hermitian(capsys):
    rc, out, _ = run(
        capsys, "construct", "--kind", "hermitian", "--s", "1", "--m", "3", "--mu", "3"
    )
    assert rc == 0
    assert "[42, 21, ≥6]" in out


def test_construct_b_override_roundtrip(tmp_path, capsys):
    path = tmp_path / "b0.txt"
    rc, out, _ = run(
        capsys, "construct", "--kind", "euclidean", "--s", "1", "--m", "3",
        "--mu", "1", "--b", "0", "--out", str(path),
    )
    assert rc == 0
    assert "[14, 7, ≥" in out
    assert "b = 0" in path.read_text()
    rc, _, _ = run(capsys, "verify", str(path))
    assert rc == 0


def test_construct_even_m_exits_2(capsys):
    rc, _, err = run(
        capsys, "construct", "--kind", "euclidean", "--s", "1", "--m", "4", "--mu", "1"
    )
    assert rc == 2
    assert "m must be odd" in err


def test_construct_bad_flags_exit_2(capsys):
    rc, _, _ = run(capsys, "construct", "--kind", "unitary", "--s", "1", "--m", "3", "--mu", "1")
    assert rc == 2
    rc, _, _ = run(capsys, "nonsense")
    assert rc == 2


def test_verify_roundtrip(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert "re-derivation from parameters: matches" in out


def test_verify_roundtrip_full_grid(tmp_path, capsys):
    grid = [
        ("euclidean", "1", "3", "1"),
        ("euclidean", "2", "3", "9"),
        ("euclidean", "2", "3", "3"),
        ("hermitian", "1", "3", "3"),
    ]
    for i, (kind, s, m, mu) in enumerate(grid):
        path = tmp_path / f"cell{i}.txt"
        rc, _, _ = run(
            capsys, "construct", "--kind", kind, "--s", s, "--m", m,
            "--mu", mu, "--out", str(path),
        )
        assert rc == 0
        rc, _, _ = run(capsys, "verify", str(path))
        assert rc == 0, (kind, s, m, mu)


def test_verify_flipped_generator_coefficient(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    text = path.read_text()
    path.write_text(text.replace("generator = 1,1,1,1,0,0,1,1", "generator = 1,0,1,1,0,0,1,1"))
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 1
    assert "outer_generator: recorded 1,0,1,1,0,0,1,1, recomputed 1,1,1,1,0,0,1,1" in out


def test_verify_edited_defining_set(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    path.write_text(path.read_text().replace("defining_set = 1,2,4", "defining_set = 1,2,5"))
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 1
    assert "defining_set" in out


def test_verify_inner_generator_not_a_divisor(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    # 1 + x^3 parses cleanly but does not divide x^7 - 1
    path.write_text(path.read_text().replace("generator = 1,1,0,1", "generator = 1,0,0,1"))
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 1
    assert "inner_generator: recorded 1,0,0,1, recomputed 1,1,0,1" in out


CHECKS = ("dual_containing", "self_dual", "van_lint_equivalence", "cyclic_invariance")


def _single_edits(text):
    """Every text that differs from the certificate in one character of a
    value outside [params] and the distance lines, replaced by one of 0-9,
    a-f or a comma."""
    lines = text.splitlines(keepends=True)
    section = None
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip()
        key, sep, _ = line.partition(" = ")
        if not sep or section == "[params]" or key.startswith("distance_"):
            continue
        for j in range(len(key) + len(sep), len(line.rstrip("\n"))):
            for ch in "0123456789abcdef,":
                if ch != line[j]:
                    edited = line[:j] + ch + line[j + 1 :]
                    yield "".join(lines[:i] + [edited] + lines[i + 1 :])


def test_verify_detects_every_single_edit(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    text = path.read_text()
    count = 0
    for edited in _single_edits(text):
        path.write_text(edited)
        rc, _, _ = run(capsys, "verify", str(path))
        assert rc != 0, edited
        count += 1
    assert count > 1000
    for name in CHECKS:
        path.write_text(text.replace(f"{name} = pass", f"{name} = fail"))
        rc, out, _ = run(capsys, "verify", str(path))
        assert rc == 1
        assert out == f"{name}: recorded fail, recomputed pass\n"


def test_a_carriage_return_exits_2_and_leaves_the_file(tmp_path, capsys):
    # the reader sees the file's bytes: universal newlines would read "\r\n"
    # as "\n", and paper_floor_exact's free text would keep a stray "\r"
    path = build_cert(tmp_path, capsys)
    assert run(capsys, "distance", str(path), "--method", "exhaustive")[0] == 0
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    damaged = [
        b"".join(lines[:i] + [line[:-1] + b"\r\n"] + lines[i + 1 :])
        for i, line in enumerate(lines)
    ]
    damaged.append(data.replace(b"\n", b"\r\n"))
    assert len(damaged) == len(lines) + 1 > 40
    for bad in damaged:
        path.write_bytes(bad)
        for argv in (["verify", str(path)], ["distance", str(path), "--method", "exhaustive"]):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (2, ""), bad
            assert err == "error: carriage return in certificate\n"
            assert path.read_bytes() == bad


def test_a_non_ascii_byte_exits_2(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    path.write_bytes(path.read_bytes().replace(b"euclidean", b"eucl\xc3\xa9dean"))
    for argv in (["verify", str(path)], ["distance", str(path), "--method", "exhaustive"]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == (
            "error: 'ascii' codec can't decode byte 0xc3 in position 20: "
            "ordinal not in range(128)\n"
        )


def test_verify_check_failing_in_the_rebuild_exits_1(tmp_path, capsys, monkeypatch):
    path = build_cert(tmp_path, capsys)
    failing = dataclasses.replace(read_certificate(path), self_dual=False)
    write_certificate(failing, path)
    monkeypatch.setattr(cli, "build_family", lambda *args, **kwargs: failing)
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 1
    assert out == "self_dual: recorded fail\n"


def test_distance_partitions_flag(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    outputs, files = [], []
    for p in ("1", "4", "100000000"):
        rc, out, _ = run(
            capsys, "distance", str(path), "--method", "exhaustive", "--partitions", p
        )
        assert rc == 0
        outputs.append(out)
        files.append(path.read_text())
    assert outputs == [outputs[0]] * 3
    assert outputs[0] == "d = 4 (exact, 127 codewords)\n"
    assert files == [files[0]] * 3
    rc, out, err = run(capsys, "distance", str(path), "--method", "exhaustive", "--partitions", "0")
    assert (rc, out) == (2, "")
    assert "partitions must be positive" in err
    assert path.read_text() == files[0]


def test_verify_syntax_damage_exits_2(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    path.write_text(path.read_text().replace("defining_set = 1,2,4", "defining_set = 1;2,4"))
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 2


def test_verify_missing_section_exits_2(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    text = path.read_text()
    path.write_text(text[: text.index("[checks]")] + "format_version = 1\n")
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 2
    assert "missing section" in err


@pytest.mark.parametrize(
    "extra,message",
    [
        ("foo = 1", "unknown key 'foo' in [bounds]"),
        ("distance_value = 4", "missing key 'distance_method' in [bounds]"),
    ],
)
def test_verify_names_a_stray_or_missing_bounds_key(tmp_path, capsys, extra, message):
    path = build_cert(tmp_path, capsys)
    text = path.read_text()
    end = text.index("\n", text.index("paper_floor_int = ")) + 1
    path.write_text(text[:end] + extra + "\n" + text[end:])
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 2
    assert message in err


def test_verify_missing_file_exits_2(tmp_path, capsys):
    rc, _, err = run(capsys, "verify", str(tmp_path / "nope.txt"))
    assert rc == 2


def test_distance_exhaustive(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    rc, out, _ = run(capsys, "distance", str(path), "--method", "exhaustive")
    assert rc == 0
    assert "d = 4 (exact" in out
    cert = read_certificate(path)
    assert cert.distance is not None
    assert (cert.distance.method, cert.distance.value, cert.distance.exact) == (
        "exhaustive", 4, True,
    )
    # appended report keeps the certificate verifiable
    rc, _, _ = run(capsys, "verify", str(path))
    assert rc == 0


def test_verify_checks_recorded_distance(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0 and "distance_value" not in out  # no record, no new output
    rc, _, _ = run(capsys, "distance", str(path), "--method", "exhaustive")
    assert rc == 0
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert "distance_value: 4 within floor_min and the Singleton bound" in out
    exact = path.read_text()
    sampled = exact.replace("exhaustive", "sampled").replace("exact = true", "exact = false")
    # 9 exceeds the Singleton bound 14 - 7 + 1 = 8; 3 is below floor_min 4,
    # for an exact value and for a sampled upper bound alike.  No codeword of
    # length 14 weighs more than 14, so no sampled bound can
    for text, value, why in (
        (exact, 9, "outside 1..8 (Singleton bound)"),
        (exact, 0, "outside 1..8 (Singleton bound)"),
        (exact, 3, "below floor_min 4"),
        (sampled, 0, "outside 1..8 (Singleton bound)"),
        (sampled, 3, "below floor_min 4"),
        (sampled, 15, "above the code length 14"),
        (sampled, 999999, "above the code length 14"),
    ):
        path.write_text(text.replace("distance_value = 4", f"distance_value = {value}"))
        rc, out, _ = run(capsys, "verify", str(path))
        assert (rc, out) == (1, f"distance_value: {value} {why}\n")
    # a sampled value is only an upper bound on d, so one above the Singleton
    # bound is weak but true, up to the length 14: it is a codeword's weight
    for value in (9, 14):
        path.write_text(sampled.replace("distance_value = 4", f"distance_value = {value}"))
        rc, out, _ = run(capsys, "verify", str(path))
        assert rc == 0
        assert f"distance_value: {value} at least floor_min (sampled upper bound" in out


def test_verify_rejects_a_sampled_record_marked_exact(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    rc, _, _ = run(capsys, "distance", str(path), "--method", "sampled", "--trials", "200")
    assert rc == 0
    path.write_text(path.read_text().replace("distance_exact = false", "distance_exact = true"))
    for argv in (
        ["verify", str(path)],
        ["distance", str(path), "--method", "sampled", "--trials", "3"],
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert "contradicts distance_method = sampled" in err


def test_distance_keeps_the_stronger_record(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    rc, _, _ = run(capsys, "distance", str(path), "--method", "exhaustive")
    assert rc == 0
    exact = path.read_text()
    rc, out, err = run(
        capsys, "distance", str(path), "--method", "sampled", "--trials", "3", "--seed", "1"
    )
    assert "d ≤" in out  # the run still reports its own result
    assert "keeps its recorded exhaustive distance 4" in err
    assert path.read_text() == exact

    # of two sampled bounds the smaller one stays
    path.write_text(
        exact.replace("distance_method = exhaustive", "distance_method = sampled")
        .replace("distance_value = 4", "distance_value = 5")
        .replace("distance_exact = true", "distance_exact = false")
    )
    bounds = []
    for seed in range(20):
        rc, out, _ = run(
            capsys, "distance", str(path), "--method", "sampled", "--trials", "3",
            "--seed", str(seed),
        )
        bounds.append(int(out.split("d ≤ ")[1].split()[0]))
        assert read_certificate(path).distance.value == min(bounds + [5])
    assert min(bounds) < 5 < max(bounds)  # both branches ran

    # an exact result replaces a sampled bound
    rc, _, _ = run(capsys, "distance", str(path), "--method", "exhaustive")
    assert rc == 0
    assert path.read_text() == exact
    assert [p.name for p in tmp_path.iterdir()] == ["cert.txt"]  # no temp files left


def test_distance_sampled(tmp_path, capsys):
    path = tmp_path / "c3.txt"
    rc, _, _ = run(
        capsys, "construct", "--kind", "euclidean", "--s", "2", "--m", "3",
        "--mu", "3", "--out", str(path),
    )
    assert rc == 0
    rc, out, _ = run(
        capsys, "distance", str(path), "--method", "sampled",
        "--trials", "20000", "--seed", "7",
    )
    assert rc == 0
    assert "d ≤" in out
    cert = read_certificate(path)
    assert cert.distance.method == "sampled"
    assert cert.distance.value >= 6


def test_distance_rejects_a_negative_seed(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    before = path.read_text()
    rc, out, err = run(capsys, "distance", str(path), "--method", "sampled", "--seed", "-1")
    assert (rc, out, err) == (2, "", "error: expected non-negative integer\n")
    assert path.read_text() == before


def test_distance_refuses_a_negative_seed_before_building_tables(tmp_path, capsys, monkeypatch):
    path = build_cert(tmp_path, capsys)
    monkeypatch.setattr(distance, "_run_tables", None)  # a table build would fail
    rc, out, err = run(
        capsys, "distance", str(path), "--method", "sampled", "--trials", "10", "--seed", "-1"
    )
    assert (rc, out, err) == (2, "", "error: expected non-negative integer\n")


def test_distance_infeasible_exhaustive_exits_2(tmp_path, capsys):
    path = tmp_path / "c3.txt"
    run(
        capsys, "construct", "--kind", "euclidean", "--s", "2", "--m", "3",
        "--mu", "3", "--out", str(path),
    )
    rc, _, err = run(capsys, "distance", str(path), "--method", "exhaustive")
    assert rc == 2
    assert "infeasible" in err


def test_distance_checks_the_budget_before_building_the_basis(tmp_path, capsys, monkeypatch):
    # E s=2 m=3 mu=3 is [42, 21] over GF(4): 4^21 - 1 messages exceed the
    # default budget 2^26, which q and k alone show
    path = tmp_path / "c3.txt"
    rc, _, _ = run(
        capsys, "construct", "--kind", "euclidean", "--s", "2", "--m", "3",
        "--mu", "3", "--out", str(path),
    )
    assert rc == 0
    text = path.read_text()

    def refuse(*args):
        raise AssertionError("the basis was built before the budget check")

    monkeypatch.delenv("CYCLEDUAL_BUDGET", raising=False)
    monkeypatch.setattr(linalg, "shifted_rows", refuse)
    rc, out, err = run(capsys, "distance", str(path), "--method", "exhaustive")
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "4^21 - 1" in err
    assert path.read_text() == text


def test_distance_budget_env_override(tmp_path, capsys, monkeypatch):
    path = build_cert(tmp_path, capsys)
    monkeypatch.setenv("CYCLEDUAL_BUDGET", "10")
    rc, _, err = run(capsys, "distance", str(path), "--method", "exhaustive")
    assert rc == 2
    # a value that is not an integer is named, not reported as int()'s literal
    for value in ("abc", ""):
        monkeypatch.setenv("CYCLEDUAL_BUDGET", value)
        rc, out, err = run(capsys, "distance", str(path), "--method", "exhaustive")
        assert (rc, out) == (2, "")
        assert err == f"error: CYCLEDUAL_BUDGET must be an integer, got {value!r}\n"
    monkeypatch.delenv("CYCLEDUAL_BUDGET")
    rc, _, _ = run(capsys, "distance", str(path), "--method", "exhaustive")
    assert rc == 0


def test_distance_sampled_trials_count_against_the_budget(tmp_path, capsys, monkeypatch):
    # the trials are the codewords a sampled run weighs, so a count past the
    # budget exits 2 before the basis or any table is built
    path = build_cert(tmp_path, capsys)
    text = path.read_text()
    monkeypatch.delenv("CYCLEDUAL_BUDGET", raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "shifted_rows", None)  # building the basis would fail
        trials = "99999999999999999999999"
        rc, out, err = run(capsys, "distance", str(path), "--method", "sampled", "--trials", trials)
        assert (rc, out) == (2, "")
        assert err == f"error: sampled distance infeasible: {trials} trials, budget 67108864\n"
        rc, _, err = run(
            capsys, "distance", str(path), "--method", "sampled", "--trials", "11", "--budget", "10"
        )
        assert (rc, err) == (2, "error: sampled distance infeasible: 11 trials, budget 10\n")
        patch.setenv("CYCLEDUAL_BUDGET", "10")
        rc, _, err = run(capsys, "distance", str(path), "--method", "sampled", "--trials", "11")
        assert (rc, err) == (2, "error: sampled distance infeasible: 11 trials, budget 10\n")
    assert path.read_text() == text
    rc, out, _ = run(
        capsys, "distance", str(path), "--method", "sampled", "--trials", "10", "--budget", "10"
    )
    assert (rc, out) == (0, "d ≤ 6 (sampled, 10 trials, seed 0)\n")


def test_distance_floor_violation_exits_1(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    # inflate the recorded floor; the file stays canonical, so distance runs
    # and must flag the (fabricated) violation
    path.write_text(path.read_text().replace("floor_min = 4", "floor_min = 5"))
    rc, out, err = run(capsys, "distance", str(path), "--method", "exhaustive")
    assert rc == 1
    assert "violated" in err


@pytest.mark.parametrize("method", ["exhaustive", "sampled"])
@pytest.mark.parametrize(
    "old,new,field",
    [
        ("[outer_code]\nn = 14\n", "[outer_code]\nn = 10000000\n", "outer n"),
        ("[inner_code]\nn = 7\n", "[inner_code]\nn = 10000000\n", "inner length n"),
        ("[outer_code]\nn = 14\nk = 7\n", "[outer_code]\nn = 14\nk = 8\n", "outer k"),
        ("generator = 1,1,1,1,0,0,1,1\n", "generator = 1,1,1,1,0,0,1\n", "outer generator"),
    ],
    ids=["outer-n", "inner-n", "outer-k", "outer-generator"],
)
def test_distance_rejects_an_inconsistent_outer_code(tmp_path, capsys, method, old, new, field):
    # each edit leaves a canonical certificate whose outer code no construct
    # run produces; the first would ask for a 10^7 x 10^7 basis
    path = build_cert(tmp_path, capsys)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    edited = path.read_text()
    rc, out, err = run(capsys, "distance", str(path), "--method", method)
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {field} ")
    assert path.read_text() == edited


@pytest.mark.parametrize("method", ["exhaustive", "sampled"])
def test_distance_over_size_limit_exits_2_before_the_basis(tmp_path, capsys, monkeypatch, method):
    # the outer n and k fit the edited inner n = 8193, one above the cap
    path = build_cert(tmp_path, capsys)
    text = path.read_text()
    for old, new in [
        ("[inner_code]\nn = 7\n", "[inner_code]\nn = 8193\n"),
        ("[outer_code]\nn = 14\nk = 7\n", "[outer_code]\nn = 16386\nk = 8193\n"),
    ]:
        assert old in text
        text = text.replace(old, new)
    path.write_text(text)

    def refuse(*args):
        raise AssertionError("the basis was built before the size check")

    monkeypatch.setattr(linalg, "shifted_rows", refuse)
    rc, out, err = run(capsys, "distance", str(path), "--method", method)
    assert rc == 2
    assert out == ""
    assert err == "error: inner length n = 8193 exceeds MAX_INNER_LENGTH = 8191\n"


@pytest.mark.parametrize("argv", [["verify"], ["distance", "--method", "exhaustive"]])
@pytest.mark.parametrize(
    "old,new,error",
    [
        (
            "[inner_code]\nn = 7\n",
            f"[inner_code]\nn = {10**18}\n",
            f"inner length n = {10**18} exceeds MAX_INNER_LENGTH = 8191",
        ),
        (
            "defining_set = 1,2,4\n",
            f"defining_set = 1,2,{2**64}\n",
            "bad [inner_code] value: residues must lie in 0..n-1",
        ),
    ],
    ids=["inner-n-1e18", "residue-2^64"],
)
def test_an_untrusted_inner_n_or_residue_exits_2_before_the_mask(
    tmp_path, capsys, argv, old, new, error
):
    # the defining set is a mask of length n, so the parser bounds n first
    path = build_cert(tmp_path, capsys)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    rc, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (rc, out, err) == (2, "", f"error: {error}\n")


def test_construct_over_size_limit_exits_2(capsys):
    # n = 2^15 - 1 = 32767 exceeds MAX_INNER_LENGTH = 8191
    rc, out, err = run(
        capsys, "construct", "--kind", "euclidean", "--s", "5", "--m", "3", "--mu", "1"
    )
    assert rc == 2
    assert out == ""
    assert "inner length n = 32767 exceeds MAX_INNER_LENGTH = 8191" in err


def test_verify_over_size_limit_exits_1(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    path.write_text(path.read_text().replace("s = 1\n", "s = 9\n", 1))  # n = 2^27 - 1
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 1
    assert "re-derivation: parameters do not rebuild (inner length n = 134217727" in out


def test_table_over_size_limit_prints_error_row(capsys):
    rc, out, _ = run(
        capsys, "table", "--kind", "euclidean", "--s", "5", "--m-max", "3", "--mu", "1"
    )
    assert rc == 0
    assert out.splitlines()[-1] == (
        "5 3 1 - - - error (inner length n = 32767 exceeds MAX_INNER_LENGTH = 8191)"
    )


def _run_capped(*argv, cwd):
    """The CLI in a child whose address space is capped at 600 MB, so that
    an attempt to compute 2^m - 1 for a huge m fails as MemoryError."""
    src = str(Path(cycledual.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env["OPENBLAS_NUM_THREADS"] = "1"  # each thread's stack counts against the cap
    cap = 600 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, "-m", "cycledual.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120, preexec_fn=limit,
    )


HUGE_M = "10000000001"
HUGE_M_ERROR = f"2^{HUGE_M} - 1 is too large: the inner length would exceed 2^63"


def test_construct_with_a_huge_m_exits_2_without_a_traceback(tmp_path):
    proc = _run_capped(
        "construct", "--kind", "euclidean", "--s", "1", "--m", HUGE_M, "--mu", "1", cwd=tmp_path
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {HUGE_M_ERROR}\n")


def test_verify_of_a_huge_m_fails_the_re_derivation(tmp_path, capsys):
    path = build_cert(tmp_path, capsys)
    path.write_text(path.read_text().replace("m = 3\n", f"m = {HUGE_M}\n", 1))
    proc = _run_capped("verify", str(path), cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == f"re-derivation: parameters do not rebuild ({HUGE_M_ERROR})\n"
    assert proc.stderr == ""


def test_table_prints_an_error_row_for_a_huge_cell(capsys):
    # 2^80 - 1 is small, but n = 2^80 - 1 is past 2^63, as is any larger m's
    rc, out, _ = run(
        capsys, "table", "--kind", "euclidean", "--s", "16", "--m-max", "5", "--mu", "1"
    )
    assert rc == 0
    assert out.splitlines()[-1] == (
        "16 5 1 - - - error (2^80 - 1 is too large: the inner length would exceed 2^63)"
    )


def test_divisors_match_trial_division():
    for e in range(1, 37):
        assert integers.divisors((1 << e) - 1) == reference.divisors((1 << e) - 1), e
    for n in (1, 2, 97 * 97, 101 * 103, 2**5 * 3**4 * 1009**2):
        assert integers.divisors(n) == reference.divisors(n), n


def test_divisors_of_large_mersenne_numbers_take_under_a_second():
    # trial division needs about 2e8 steps for 2^55 - 1 and 1.5e9 for the
    # prime 2^61 - 1; 2^80 - 1 has the prime factor 4278255361
    start = time.perf_counter()
    for e, count in ((55, 64), (61, 2), (80, 768)):
        divisors = integers.divisors((1 << e) - 1)
        assert len(divisors) == count
        assert all(((1 << e) - 1) % d == 0 for d in divisors)
        assert divisors == sorted(set(divisors))
    assert integers.divisors((1 << 61) - 1) == [1, (1 << 61) - 1]
    assert 4278255361 in integers.divisors((1 << 80) - 1)
    assert time.perf_counter() - start < 1.0


def test_divisors_refuse_a_prime_past_the_miller_rabin_bound():
    # 2^127 - 1 is prime, but Miller-Rabin cannot prove it, so rho runs out
    with pytest.raises(ValueError, match="no factor of .* within 1048576 Pollard rho steps"):
        integers.divisors((1 << 127) - 1)


def test_table_exits_2_when_factoring_runs_past_the_rho_limit(capsys, monkeypatch):
    # 2^21 - 1 = 7^2 * 127 * 337 leaves 127 * 337 for rho, which gets no step
    monkeypatch.setattr(integers, "MAX_RHO_STEPS", 0)
    rc, out, err = run(capsys, "table", "--kind", "euclidean", "--s", "7", "--m-max", "5")
    assert rc == 2
    assert out == (
        "# s m mu n k floor paper_floor\n"
        "7 1 1 - - - skipped (b < 1)\n"
        "7 1 127 - - - skipped (b < 1)\n"
    )
    assert err == (
        "error: cannot factor 2^21 - 1 for m = 3: "
        "no factor of 42799 within 0 Pollard rho steps\n"
    )


def test_table_euclidean(capsys):
    rc, out, _ = run(capsys, "table", "--kind", "euclidean", "--s", "1", "--m-max", "3")
    assert rc == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert any(l.startswith("1 3 1 14 7 4 ") for l in lines)
    assert "skipped (b < 1)" in out  # the m=1 and mu=7 cells
    # deterministic and sorted by (m, mu)
    rc2, out2, _ = run(capsys, "table", "--kind", "euclidean", "--s", "1", "--m-max", "3")
    assert out2 == out
    cells = [tuple(map(int, l.split()[1:3])) for l in lines]
    assert cells == sorted(cells)


def test_table_hermitian_mu_filter(capsys):
    rc, out, _ = run(
        capsys, "table", "--kind", "hermitian", "--s", "1", "--m-max", "3", "--mu", "1"
    )
    assert rc == 0
    row = next(l for l in out.splitlines() if l.startswith("1 3 1 "))
    assert row.split() == ["1", "3", "1", "126", "63", "14", "7.94"]


@pytest.mark.parametrize(
    "kind,s,extra,message",
    [
        ("euclidean", "0", (), "s must be positive"),
        ("euclidean", "0", ("--mu", "1"), "s must be positive"),
        ("euclidean", "-1", (), "s must be positive"),
        ("hermitian", "0", (), "s must be positive"),
        ("hermitian", "9", (), "s=18 outside supported range 1..16"),
    ],
)
def test_table_rejects_a_bad_s_before_the_header(capsys, kind, s, extra, message):
    rc, out, err = run(capsys, "table", "--kind", kind, "--s", s, "--m-max", "3", *extra)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("mu", ["0", "-1"])
def test_table_rejects_a_bad_mu_before_the_header(capsys, mu):
    rc, out, err = run(
        capsys, "table", "--kind", "euclidean", "--s", "1", "--m-max", "3", "--mu", mu
    )
    assert (rc, out, err) == (2, "", "error: mu must be positive\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--kind", "euclidean", "--s", "1", "--m-max", "7"),
        ("factor", "--q", "2", "--n", "4095"),
    ],
)
def test_a_closed_stdout_exits_without_a_traceback(argv):
    # the reader end is closed before the child starts, so its first write
    # to stdout fails, as when `| head` has already read what it wanted
    src = str(Path(cycledual.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cycledual.cli", *argv],
            stdout=writer, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(writer)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


def test_table_s2_mmax1_all_skipped(capsys):
    rc, out, _ = run(capsys, "table", "--kind", "euclidean", "--s", "2", "--m-max", "1")
    assert rc == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines and all("skipped (b < 1)" in l for l in lines)


def test_factor_q2_n7(capsys):
    rc, out, _ = run(capsys, "factor", "--q", "2", "--n", "7")
    assert rc == 0
    assert out.splitlines() == ["{0}: 1,1", "{1,2,4}: 1,1,0,1", "{3,5,6}: 1,0,1,1"]


def test_factor_q4_n21(capsys):
    rc, out, _ = run(capsys, "factor", "--q", "4", "--n", "21")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 9
    degrees = [len(l.split(": ")[1].split(",")) - 1 for l in lines]
    assert degrees == [1, 3, 3, 3, 3, 1, 3, 3, 1]


def test_factor_trivial_and_errors(capsys):
    rc, out, _ = run(capsys, "factor", "--q", "2", "--n", "1")
    assert rc == 0
    assert out.splitlines() == ["{0}: 1,1"]
    rc, _, _ = run(capsys, "factor", "--q", "3", "--n", "7")
    assert rc == 2
    rc, _, _ = run(capsys, "factor", "--q", "2", "--n", "8")
    assert rc == 2
    rc, _, err = run(capsys, "factor", "--q", "2", "--n", "1000003")
    assert rc == 2  # would need an extension beyond 2^32
    assert "2^32" in err


def test_factor_over_size_limit_exits_2(capsys):
    # n = 2^17 - 1 has a feasible extension, GF(2^17), but exceeds MAX_INNER_LENGTH
    rc, out, err = run(capsys, "factor", "--q", "2", "--n", "131071")
    assert rc == 2
    assert out == ""
    assert "length n = 131071 exceeds MAX_INNER_LENGTH = 8191" in err


def test_factor_checks_the_cap_before_building_the_extension(capsys, monkeypatch):
    # n = 2^16 + 1 needs GF(2^32), which is feasible but costly to build
    def refuse(*args):
        raise AssertionError("the extension was built before the size check")

    monkeypatch.setattr(cyclic, "extension_with_embedding", refuse)
    rc, out, err = run(capsys, "factor", "--q", "2", "--n", "65537")
    assert rc == 2
    assert out == ""
    assert "length n = 65537 exceeds MAX_INNER_LENGTH = 8191" in err


def _change_a_coefficient(mps):
    mp = mps[(0,)]
    return {**mps, (0,): Poly(mp.field, (mp.coeffs[0] ^ 1, *mp.coeffs[1:]))}


def _drop_a_root(mps):
    mp = mps[(0,)]
    return {**mps, (0,): mp.divrem(Poly(mp.field, (1, 1)))[0]}  # only x + 1 is split off


def _scale_a_row(mps):
    # the row still vanishes on its coset, but is not monic
    mp = mps[(1, 4, 16)]
    return {**mps, (1, 4, 16): Poly(mp.field, [mp.field.mul(c, 2) for c in mp.coeffs])}


def _swap_two_rows(mps):
    # {0} and {21} keep their keys and trade their linear rows; the
    # product of all rows is unchanged
    out = dict(mps)
    out[(0,)], out[(21,)] = mps[(21,)], mps[(0,)]
    return out


def _merge_two_cosets(mps):
    # {21} and {42} become one key, closed under r -> 4r, whose row is the
    # product of theirs; the product of all rows is unchanged
    out = {key: mp for key, mp in mps.items() if key not in ((21,), (42,))}
    out[(21, 42)] = mps[(21,)] * mps[(42,)]
    return out


def _drop_a_residue(mps):
    # no key holds 16 any more; the rows, and so their product, are unchanged
    return {(1, 4) if key == (1, 4, 16) else key: mp for key, mp in mps.items()}


@pytest.mark.parametrize(
    "corrupt",
    [
        _change_a_coefficient,
        _drop_a_root,
        _scale_a_row,
        _swap_two_rows,
        _merge_two_cosets,
        _drop_a_residue,
    ],
)
def test_factor_rejects_a_corrupted_factor(capsys, monkeypatch, corrupt):
    build = cli.minimal_polynomial
    monkeypatch.setattr(cli, "minimal_polynomial", lambda ctx: corrupt(build(ctx)))
    rc, out, err = run(capsys, "factor", "--q", "4", "--n", "63")
    assert rc == 1
    assert out == ""
    assert err == "check failed: coset factorization does not multiply back to x^n - 1\n"


_FFT_IMPORT = """
import sys

from cycledual.cli import main

rc = main(["factor", "--q", "16", "--n", "4095"])
print(rc, "numpy.fft" in sys.modules, file=sys.stderr)
"""


def test_factor_does_not_load_the_fft():
    # the coset table is certified root by root, with no product of its rows
    src = str(Path(cycledual.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", _FFT_IMPORT], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.stderr == "0 False\n"


def test_factor_expands_every_coset_in_one_call(capsys, monkeypatch):
    calls = []
    build = cli.minimal_polynomial

    def counted(ctx):
        mps = build(ctx)
        calls.append(len(mps))
        return mps

    monkeypatch.setattr(cli, "minimal_polynomial", counted)
    rc, out, _ = run(capsys, "factor", "--q", "2", "--n", "4095")
    assert rc == 0
    assert calls == [len(out.splitlines())]


def test_factor_over_gf4_in_gf_2_26_is_pinned(capsys):
    # n = 8191 needs GF(2^26), beyond the log/antilog tables, so the cosets
    # are expanded by shift-and-add
    rc, out, err = run(capsys, "factor", "--q", "4", "--n", "8191")
    assert (rc, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "59f796f8ac6e1a05248e88afae32213a2c9a25d08971a26a1f47d4a674c9bdc6"


def test_distance_sampled_refuses_tables_past_the_limit(tmp_path, capsys, monkeypatch):
    # H s=8 m=1 mu=85 is [1542, 771] over GF(2^16): one-row tables of 151 GiB
    path = tmp_path / "h8.txt"
    rc, _, _ = run(
        capsys, "construct", "--kind", "hermitian", "--s", "8", "--m", "1",
        "--mu", "85", "--out", str(path),
    )
    assert rc == 0
    before = path.read_bytes()
    monkeypatch.setattr(distance, "_run_tables", None)  # a table build would fail
    rc, out, err = run(capsys, "distance", str(path), "--method", "sampled", "--trials", "10")
    assert (rc, out) == (2, "")
    assert err == (
        "error: sampled distance infeasible: its row tables need 161690419200 bytes, "
        "limit 536870912\n"
    )
    assert path.read_bytes() == before
