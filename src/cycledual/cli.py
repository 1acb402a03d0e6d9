"""Command line front end.

Subcommands: construct (run a pipeline cell, optionally writing its
certificate), verify (rebuild a certificate from its parameters and compare
every field), distance (exhaustive or sampled minimum distance of a
certificate's outer code), table (sweep a parameter grid), and factor
(cyclotomic cosets and the matching irreducible factors of x^n - 1: the
coset table's record, which :func:`cycledual.cyclo.is_coset_table` proves
one root per coset, with no product, before its arrays are formatted and
written in one write).

The commands and their flags are one table in :mod:`cycledual.options`,
which parses argv with argparse's grammar.

Exit codes: 0 all requested checks passed, 1 a mathematical check failed,
2 usage or parameter error or a ``construct --out`` that cannot be written,
141 stdout was closed before the output was written (as when piped into
``head``).  ``distance`` refuses, with exit 2, more codewords than its
budget: q^k - 1 for exhaustive enumeration, --trials for sampling.
--budget or else CYCLEDUAL_BUDGET overrides the default budget.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import linalg
from .certificate import read_certificate, write_certificate
from .construct import (
    DistanceSummary,
    SelfDualCertificate,
    VerificationError,
    build_family,
    check_inner_length,
    family_parameters,
)
from .cyclic import _extension_degree, root_context
from .cyclo import CosetTable, is_coset_table, minimal_polynomial
from .distance import DEFAULT_BUDGET, exact_min_distance, sampled_weight_upper_bound
from .distance import _check_budget, _check_trials
from .gf import field_create
from .integers import divisors
from .options import _parse

__all__ = ["main"]

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader left


def _cmd_construct(args: SimpleNamespace) -> int:
    cert = build_family(args.kind, args.s, args.m, args.mu, b_override=args.b)
    print(f"[{cert.n_outer}, {cert.k_outer}, ≥{cert.floor_min}]")
    for name, ok in cert.checks.items():
        print(f"{name}: {'pass' if ok else 'fail'}")
    if args.out is not None:
        try:
            write_certificate(cert, args.out)
        except OSError as exc:
            raise ValueError(f"cannot write certificate: {exc}") from exc
        print(f"certificate written to {args.out}")
    return 0 if cert.all_checks_pass else 1


def _reverify(cert: SelfDualCertificate) -> list[str]:
    """Rebuild the certificate from its [params] and compare every recorded
    field except the distance, which is only range-checked; returns mismatch
    lines.  Every input of the four checks is a recorded field, so equal
    fields mean the recorded codes are the ones the rebuild checked."""
    failures: list[str] = []

    # an exact distance must lie between floor_min and the Singleton bound.
    # A sampled value is only an upper bound on d: it may exceed the
    # Singleton bound, but it is the weight of a codeword, so it cannot
    # exceed the length, and it cannot be below floor_min
    if cert.distance is not None:
        d = cert.distance.value
        singleton = cert.n_outer - cert.k_outer + 1
        if d < 1 or (cert.distance.exact and d > singleton):
            failures.append(f"distance_value: {d} outside 1..{singleton} (Singleton bound)")
        elif d > cert.n_outer:
            failures.append(f"distance_value: {d} above the code length {cert.n_outer}")
        elif d < cert.floor_min:
            failures.append(f"distance_value: {d} below floor_min {cert.floor_min}")

    try:
        fresh = build_family(cert.kind, cert.s, cert.m, cert.mu, b_override=cert.b)
    except (ValueError, VerificationError) as exc:
        failures.append(f"re-derivation: parameters do not rebuild ({exc})")
        return failures
    for fld in dataclasses.fields(SelfDualCertificate):
        if fld.name == "distance":
            continue
        a = getattr(cert, fld.name)
        b = getattr(fresh, fld.name)
        if a != b:
            failures.append(f"{fld.name}: recorded {_show(a)}, recomputed {_show(b)}")
        elif a is False:  # a check that fails in the rebuild too
            failures.append(f"{fld.name}: recorded fail")
    return failures


def _show(value) -> str:
    if isinstance(value, bool):
        return "pass" if value else "fail"
    if hasattr(value, "to_string"):
        return value.to_string()
    return repr(value)


def _read(path: str) -> SelfDualCertificate:
    """read_certificate, with an unreadable file as a ValueError (exit 2)."""
    try:
        return read_certificate(path)
    except OSError as exc:
        raise ValueError(f"cannot read certificate: {exc}") from exc


def _cmd_verify(args: SimpleNamespace) -> int:
    cert = _read(args.certificate)
    failures = _reverify(cert)
    if failures:
        for line in failures:
            print(line)
        return 1
    for name in cert.checks:
        print(f"{name}: pass (matches recorded)")
    dist = cert.distance
    if dist is not None and dist.exact:
        print(
            f"distance_value: {dist.value} within floor_min and the "
            "Singleton bound (not re-derived)"
        )
    elif dist is not None:
        print(
            f"distance_value: {dist.value} at least floor_min "
            "(sampled upper bound, not re-derived)"
        )
    print("re-derivation from parameters: matches")
    return 0


def _check_outer_shape(cert: SelfDualCertificate) -> None:
    """Raise ValueError unless the outer code has the shape of every
    construct certificate.  These facts bound the size of the basis, so
    they are checked before it is allocated."""
    n, n_out, k_out = cert.n_inner, cert.n_outer, cert.k_outer
    check_inner_length(n)
    if n_out != 2 * n:
        raise ValueError(f"outer n = {n_out} is not 2 * inner n = {2 * n}")
    if k_out != n:
        raise ValueError(f"outer k = {k_out} is not inner n = {n}")
    deg = cert.outer_generator.degree
    if deg != n_out - k_out:
        raise ValueError(
            f"outer generator degree {deg} is not outer n - outer k = {n_out - k_out}"
        )


def _cmd_distance(args: SimpleNamespace) -> int:
    cert = _read(args.certificate)
    _check_outer_shape(cert)
    budget = args.budget
    if budget is None:
        text = os.environ.get("CYCLEDUAL_BUDGET", str(DEFAULT_BUDGET))
        try:
            budget = int(text)
        except ValueError:
            raise ValueError(f"CYCLEDUAL_BUDGET must be an integer, got {text!r}") from None
    # the budget counts the codewords either method weighs: q and k fix the
    # exhaustive count, --trials the sampled one; refuse before the basis
    if args.method == "exhaustive":
        _check_budget(cert.field.order, cert.k_outer, budget)
    else:
        _check_trials(args.trials, budget)
    basis = linalg.shifted_rows(cert.outer_generator, cert.n_outer)
    if args.method == "exhaustive":
        # --partitions is accepted for compatibility and changes nothing else
        if args.partitions < 1:
            raise ValueError("partitions must be positive")
        report = exact_min_distance(cert.field, basis, budget)
        print(f"d = {report.value} (exact, {report.enumerated} codewords)")
    else:
        report = sampled_weight_upper_bound(cert.field, basis, args.trials, args.seed, budget)
        print(
            f"d ≤ {report.value} (sampled, {report.enumerated} trials, "
            f"seed {report.seed})"
        )
    # never trade an exact record for a sampled bound, or a sampled bound
    # for a weaker one
    old = cert.distance
    if old is not None and not report.exact and (old.exact or old.value <= report.value):
        print(
            f"note: certificate keeps its recorded {old.method} distance {old.value}",
            file=sys.stderr,
        )
    else:
        updated = dataclasses.replace(
            cert, distance=DistanceSummary(report.method, report.value, report.exact)
        )
        try:
            write_certificate(updated, args.certificate)
        except OSError as exc:
            print(f"note: could not append report to certificate: {exc}", file=sys.stderr)
    if report.value < cert.floor_min:
        print(
            f"distance bound violated: {report.value} < floor_min {cert.floor_min}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_table(args: SimpleNamespace) -> int:
    if args.m_max < 1:
        raise ValueError("m-max must be positive")
    if args.mu is not None and args.mu < 1:
        raise ValueError("mu must be positive")
    family_parameters(args.kind, args.s, 1, 1)  # a bad s exits 2 before the header
    print("# s m mu n k floor paper_floor")
    for m in range(1, args.m_max + 1, 2):
        exponent = args.s * m if args.kind == "euclidean" else 2 * args.s * m
        try:
            mus = divisors((1 << exponent) - 1) if args.mu is None else [args.mu]
        except ValueError as exc:
            raise ValueError(f"cannot factor 2^{exponent} - 1 for m = {m}: {exc}") from None
        for mu in mus:
            prefix = f"{args.s} {m} {mu}"
            if pow(2, exponent, mu) != 1 % mu:  # mu does not divide 2^exponent - 1
                print(f"{prefix} - - - skipped (mu does not divide 2^{exponent}-1)")
                continue
            try:
                if family_parameters(args.kind, args.s, m, mu).b_default < 1:
                    print(f"{prefix} - - - skipped (b < 1)")
                    continue
                cert = build_family(args.kind, args.s, m, mu)
            except (ValueError, VerificationError) as exc:
                print(f"{prefix} - - - error ({exc})")
                continue
            print(
                f"{prefix} {cert.n_outer} {cert.k_outer} {cert.floor_min} "
                f"{cert.paper_floor_value:.2f}"
            )
    return 0


def _cmd_factor(args: SimpleNamespace) -> int:
    q, n = args.q, args.n
    if q < 2 or q & (q - 1):
        raise ValueError("q must be a power of two")
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    field = field_create(q.bit_length() - 1)
    _extension_degree(field, n)  # raises when the extension is infeasible
    check_inner_length(n)
    ctx = root_context(field, n)
    table = minimal_polynomial(ctx)
    if not is_coset_table(ctx, table):
        raise VerificationError("coset factorization does not multiply back to x^n - 1")
    sys.stdout.write(_coset_lines(table))
    return 0


def _coset_lines(table: CosetTable) -> str:
    """factor's output, one line "{members}: coefficients" per coset: the
    members ascending, in decimal, and the row low degree first, in hex.
    One template, built from the coset sizes, formats every value at once,
    the values laid out in the order they are printed."""
    sizes = table.sizes
    # the residues stably sorted by coset are each coset's members ascending
    owner = np.empty(len(table.members), dtype=np.intp)
    owner[table.members] = np.repeat(np.arange(len(sizes)), sizes)
    # line i prints 2|C_i| + 1 values: its members, then its row
    counts = 2 * sizes + 1
    line = np.repeat(np.arange(len(sizes)), counts)
    is_member = np.arange(len(line)) - (np.cumsum(counts) - counts)[line] < sizes[line]
    values = np.empty(len(line), dtype=np.int64)
    values[is_member] = np.argsort(owner, kind="stable")
    values[~is_member] = table.coeffs
    per_line = sizes.tolist()
    templates = {
        size: f"{{{','.join(['%d'] * size)}}}: {','.join(['%x'] * (size + 1))}\n"
        for size in set(per_line)
    }
    return "".join([templates[size] for size in per_line]) % tuple(values.tolist())


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "distance": _cmd_distance,
    "table": _cmd_table,
    "factor": _cmd_factor,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rc = _HANDLERS[args.command](args)
        sys.stdout.flush()  # so that a closed stdout raises here
        return rc
    except VerificationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left early (e.g. `| head`); send what is still buffered
        # to devnull, so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
