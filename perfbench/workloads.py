"""The benchmark's workloads: fixed operations on the cycledual CLI and library.

Every operation runs in a fresh interpreter, so caches start cold as they do
for a CLI user.  Paths are relative to the run's scratch directory.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7  # the seed the goldens of seeded operations were captured with


@dataclass(frozen=True)
class Op:
    """One operation.  ``argv`` goes to ``cycledual.cli.main`` with "{seed}"
    replaced by the workload seed; otherwise ``library`` names a direct call
    (see child.py).  ``fresh`` lists (path, source) pairs reset before the
    operation: the path is removed, then copied from source if one is given.
    ``files`` are compared with their goldens afterwards.
    """

    name: str
    argv: tuple[str, ...] = ()
    library: tuple = ()
    files: tuple[str, ...] = ()
    fresh: tuple[tuple[str, str | None], ...] = ()

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    prep: tuple[Op, ...] = ()  # untimed, run once per benchmark run


def _construct(name: str, kind: str, s: int, m: int, mu: int, out: str) -> Op:
    return Op(
        name,
        argv=("construct", "--kind", kind, "--s", str(s), "--m", str(m), "--mu", str(mu),
              "--out", out),
        files=(out,),
        fresh=((out, None),),
    )


def _ladder_ops() -> tuple[Op, ...]:
    ops = []
    for tag, kind, s, m in (
        ("E1m3", "euclidean", 1, 3),
        ("E1m5", "euclidean", 1, 5),
        ("E1m7", "euclidean", 1, 7),
        ("E2m3", "euclidean", 2, 3),
        ("H1m3", "hermitian", 1, 3),
        ("E1m9", "euclidean", 1, 9),
    ):
        cert = f"{tag}.cert"
        ops.append(_construct(f"ladder.{tag}.construct", kind, s, m, 1, cert))
        ops.append(Op(f"ladder.{tag}.verify", argv=("verify", cert), files=(cert,)))
    return tuple(ops)


LADDER = Workload(
    "ladder",
    "construct --out then verify per cell, E s=1 m=3..9, E s=2 m=3, H s=1 m=3: the dense GF(2^s) "
    "linear algebra of the checks dominates, most of it in the n=1022 rung",
    _ladder_ops(),
)

FACTOR = Workload(
    "factor",
    "factor --q 2, 4, 16 --n 4095: minimal polynomials and their product in pure-Python Poly "
    "arithmetic, with no linalg call at all",
    tuple(Op(f"factor.q{q}", argv=("factor", "--q", str(q), "--n", "4095")) for q in (2, 4, 16)),
)

DISTANCE = Workload(
    "distance",
    "exact and sampled minimum distance: codeword enumeration dominates and construct/linalg "
    "do almost nothing; the seed feeds the sampled --seed",
    (
        # The inner [21,12] GF(4) BCH code of the E s=2 m=3 mu=3 cell and its dual.
        Op("distance.inner21", library=("exact_min_distance", "euclidean", 2, 3, 3, "inner")),
        Op("distance.dual21", library=("exact_min_distance", "euclidean", 2, 3, 3, "dual")),
        Op(
            "distance.exhaustive18",
            argv=("distance", "E2m3mu7.cert", "--method", "exhaustive"),
            files=("E2m3mu7.cert",),
            fresh=(("E2m3mu7.cert", "E2m3mu7.master"),),
        ),
        Op(
            "distance.sampled254",
            argv=("distance", "E1m7.cert", "--method", "sampled",
                  "--trials", "200000", "--seed", "{seed}"),
            files=("E1m7.cert",),
            fresh=(("E1m7.cert", "E1m7.master"),),
        ),
    ),
    prep=(
        _construct("distance.prep.E2m3mu7", "euclidean", 2, 3, 7, "E2m3mu7.master"),
        _construct("distance.prep.E1m7", "euclidean", 1, 7, 1, "E1m7.master"),
    ),
)

# Tiny inputs for the benchmark's own tests; not part of BENCHMARK.json.
SMOKE = Workload(
    "smoke",
    "tiny inputs that exercise every kind of operation in about a second",
    (
        _construct("smoke.E1m3.construct", "euclidean", 1, 3, 1, "E1m3.cert"),
        Op("smoke.E1m3.verify", argv=("verify", "E1m3.cert"), files=("E1m3.cert",)),
        Op("smoke.factor", argv=("factor", "--q", "2", "--n", "63")),
        Op(
            "smoke.exhaustive14",
            argv=("distance", "E1m3d.cert", "--method", "exhaustive"),
            files=("E1m3d.cert",),
            fresh=(("E1m3d.cert", "E1m3.cert"),),
        ),
        Op(
            "smoke.sampled14",
            argv=("distance", "E1m3s.cert", "--method", "sampled",
                  "--trials", "1000", "--seed", "{seed}"),
            files=("E1m3s.cert",),
            fresh=(("E1m3s.cert", "E1m3.cert"),),
        ),
        Op("smoke.inner7", library=("exact_min_distance", "euclidean", 1, 3, 1, "inner")),
    ),
)

WORKLOADS = {w.name: w for w in (LADDER, FACTOR, DISTANCE, SMOKE)}
