"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one returns.  A pass is a fixed list of operations
made from the seed; the worker repeats the pass until the run's time is up.
Library functions are always looked up through their module at call time,
so the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

from cantornormal import cli, discrepancy

import checks
from hostspeed import OpClock

ORBIT_TAIL = 64
# O(n) queries stop here at k = 2: q_moment then loops once per position,
# about 4 microseconds each on a 2-core Xeon VM.
HEAVY_N_MAX = 1 << 15


class OpError:
    """Stands in for the answer of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text

    def __repr__(self):
        return f"OpError({self.text!r})"


def stratified_log(rng: random.Random, lo: int, hi: int, m: int, jitter: float = 1.0) -> list[int]:
    """m integers log-uniform on [lo, hi], one in each of m equal strata of log n.

    ``jitter`` is the share of its stratum a draw may move over: 1 gives a
    stratified log-uniform sample; smaller values pin each draw nearer its
    stratum's centre, so that work growing like n does not depend on the seed.
    """
    a, b = math.log(lo), math.log(hi)
    out = []
    for i in range(m):
        u = (i + 0.5 + jitter * (rng.random() - 0.5)) / m
        out.append(min(hi, max(lo, int(round(math.exp(a + (b - a) * u))))))
    return out


def _timed(fn, arg, clock: OpClock):
    with clock.op():
        try:
            return fn(arg)
        except Exception as exc:  # an op that raises is counted as failed
            return OpError(exc)


class Workload:
    """A pass of ops, its checks, and the layers its traced passes must record.

    ``run_pass`` leaves in ``pass_kinds`` the seconds the pass spent on each
    kind of op, for the report of each kind's share of the pass.
    """

    LAYERS: tuple[str, ...] = ()
    pass_kinds: dict[str, float] = {}

    def required_layers(self, per_layer_names) -> set[str]:
        return set(self.LAYERS)


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------


class VerifyAll(Workload):
    """``cnl verify --all --out FILE`` in process: the 13 default jobs.

    An op is one certificate.  The seed is ignored on purpose: the traffic
    is the fixed default job list.  Every certificate and the whole output
    file must hash to the digests recorded at the seed commit.  The time of
    each claim is read from the ``.meta.json`` file the command writes.
    """

    LAYERS = ("cli.main", "constructions.build_P", "blocks.tally_blocks", "weightings.check_eps_k_normal",
              "cantor.orbit_point", "discrepancy.star_discrepancy_from_counts")

    def __init__(self, specs, seed: int, workdir: str, expected: dict):
        self.out = os.path.join(workdir, "verify-all.json")
        self.expected = expected
        self.ops_per_pass = len(expected["certificates"])

    def required_layers(self, per_layer_names) -> set[str]:
        """LAYERS plus every ``verify.<claim>.<params>`` job that BENCHMARK.json names."""
        jobs = {name.rsplit(".", 1)[0] for name in per_layer_names if name.startswith("verify.")}
        return set(self.LAYERS) | jobs

    def run_pass(self, clock: OpClock) -> list:
        result = _timed(lambda argv: cli.main(argv), ["verify", "--all", "--out", self.out], clock)
        if result != 0:
            err = result if isinstance(result, OpError) else OpError(RuntimeError(f"exit code {result}"))
            return [err] * self.ops_per_pass
        with open(self.out, "rb") as fh:
            data = fh.read()
        with open(self.out + ".meta.json", encoding="utf-8") as fh:
            kinds = defaultdict(float)
            for job in json.load(fh)["runtimes"]:
                kinds[job["claim"]] += job["runtime_seconds"]
        self.pass_kinds = dict(kinds)
        return checks.certificate_answers(data, self.ops_per_pass)

    def check(self, answers: list, seed: int) -> dict[int, str]:
        return checks.check_certificates(answers, self.expected)


# ---------------------------------------------------------------------------
# family_queries
# ---------------------------------------------------------------------------


class Query(NamedTuple):
    kind: str  # e.g. "report.qde.k1": command, family, block length or k
    cmd: str
    family: str
    k: int
    block: tuple[int, ...]
    checkpoints: tuple[int, ...]
    argv: tuple[str, ...]


# The read-only query commands of the CLI on the two scaled families:
# (command, family, k, jitter).  ``k`` is the block length of ``report`` and
# the ``--k`` of ``moments``.  Forms whose cost grows like n (k = 2) stop at
# HEAVY_N_MAX and are pinned near their strata centres (jitter 0.1); so are
# the k = 1 reports, whose block count scans the materialized prefix.
# ``report`` on qnex-scaled is left out: its normality ratio materializes the
# prefix, which the default size cap stops above 10^8 positions.
QUERY_FORMS = (
    ("report", "qde-scaled", 1, 0.1),
    ("report", "qde-scaled", 2, 0.1),
    ("orbit", "qnex-scaled", 0, 1.0),
    ("moments", "qnex-scaled", 1, 1.0),
    ("moments", "qde-scaled", 1, 1.0),
    ("moments", "qnex-scaled", 2, 0.1),
    ("moments", "qde-scaled", 2, 0.1),
)


class FamilyQueries(Workload):
    """In-process ``cnl report``, ``cnl orbit`` and ``cnl moments`` calls.

    An op is one command invocation with CHECKPOINTS positions, one in each
    stratum of log n over the range the form accepts.  A pass makes ROUNDS
    invocations of each form in QUERY_FORMS, shuffled.  ``report`` makes one
    normality ratio, one orbit enclosure, one scaled-digit D* and one epsbar
    row per checkpoint; ``orbit`` one enclosure (tail 64); ``moments`` one
    q_moment.  The JSON each command prints is the answer that is checked.
    """

    ROUNDS, CHECKPOINTS = 6, 8
    LAYERS = ("cli.main", "constructions.qnex_spec", "constructions.qde_spec", "cantor.orbit_point",
              "cantor.q_moment", "cantor.scaled_value_counts", "cantor.normality_ratio",
              "discrepancy.star_discrepancy_from_counts", "discrepancy.epsbar")

    def __init__(self, specs, seed: int, workdir: str, expected=None):
        qnex, qde = specs
        totals = {"qnex-scaled": qnex.total_length, "qde-scaled": qde.total_length}
        rng = random.Random(f"{seed}:family_queries")
        ops = []
        for _ in range(self.ROUNDS):
            for cmd, family, k, jitter in QUERY_FORMS:
                hi = HEAVY_N_MAX if k == 2 else totals[family] - (ORBIT_TAIL if cmd == "orbit" else 0)
                points = increasing(stratified_log(rng, 1, hi, self.CHECKPOINTS, jitter))
                block = _block(rng, k) if cmd == "report" else ()
                ops.append(make_query(cmd, family, k, block, points))
        rng.shuffle(ops)
        self.ops = ops
        self.ops_per_pass = len(ops)

    def run_pass(self, clock: OpClock) -> list:
        answers, kinds = [], defaultdict(float)
        for op in self.ops:
            answers.append(_timed(_cli_call, list(op.argv), clock))
            kinds[op.kind] += clock.wall[-1]
        self.pass_kinds = dict(kinds)
        return answers

    def check(self, answers: list, seed: int) -> dict[int, str]:
        return checks.check_family(self.ops, answers, random.Random(f"{seed}:check"))


def make_query(cmd: str, family: str, k: int, block: tuple[int, ...], points) -> Query:
    argv = [cmd, "--family", family, "--checkpoints", ",".join(map(str, points))]
    if cmd == "report":
        argv += ["--block", ",".join(map(str, block))]
    elif cmd == "moments":
        argv += ["--k", str(k)]
    kind = f"{cmd}.{family.split('-')[0]}" + (f".k{k}" if k else "")
    return Query(kind, cmd, family, k, block, tuple(points), tuple(argv))


def increasing(points: list[int]) -> list[int]:
    """The points made strictly increasing, as ``--checkpoints`` requires."""
    out = []
    for p in points:
        out.append(max(p, out[-1] + 1) if out else p)
    return out


def _cli_call(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return (code, buf.getvalue())


def _block(rng: random.Random, k: int) -> tuple[int, ...]:
    return tuple(rng.randrange(12) for _ in range(k))


# ---------------------------------------------------------------------------
# point_sets
# ---------------------------------------------------------------------------


class PointSets(Workload):
    """Rational point sets of the kind ``cnl discrepancy`` receives.

    Sizes are the centres of equal strata of log n over 4 to 20000 points,
    and the i-th set of a class is split into 1 + i % 8 parts, the same in
    every run, so that a pass's cost does not depend on the seed; the seed
    picks the points and where the splits fall.  Half the sets have small
    denominators (heavy ties, few distinct values), half large ones (nearly
    all distinct).  Each set runs star_discrepancy, kn1_bound on
    its sorted copy, and concat_bound over a seeded split into parts.
    """

    SIZE_MIN, SIZE_MAX, SETS_PER_CLASS = 4, 20000, 24
    LAYERS = ("discrepancy.star_discrepancy", "discrepancy.kn1_bound", "discrepancy.concat_bound",
              "discrepancy.star_discrepancy_from_counts", "discrepancy.unit_sequence")

    def __init__(self, specs, seed: int, workdir: str, expected=None):
        rng = random.Random(f"{seed}:point_sets")
        ops = []
        for den_lo, den_hi in ((2, 32), (1 << 30, 1 << 40)):
            sizes = stratified_log(rng, self.SIZE_MIN, self.SIZE_MAX, self.SETS_PER_CLASS, jitter=0)
            for i, n in enumerate(sizes):
                zs = []
                for _ in range(n):
                    q = rng.randint(den_lo, den_hi)
                    zs.append(Fraction(rng.randrange(q), q))
                n_parts = min(n, 1 + i % 8)
                cuts = sorted(rng.sample(range(1, n), n_parts - 1))
                ops.append((tuple(zs), tuple(cuts)))
        rng.shuffle(ops)
        self.ops = ops
        self.ops_per_pass = len(ops)

    def run_pass(self, clock: OpClock) -> list:
        kinds = defaultdict(float)
        answers = [_timed(lambda op: _point_set_op(op, kinds), op, clock) for op in self.ops]
        self.pass_kinds = dict(kinds)
        return answers

    def check(self, answers: list, seed: int) -> dict[int, str]:
        return checks.check_point_sets(self.ops, answers, random.Random(f"{seed}:check"))


def _point_set_op(op, kinds):
    """D*, kn1 and the concatenation bound of one set; adds each step's time to ``kinds``."""
    zs, cuts = op
    t0 = time.perf_counter()
    d = discrepancy.star_discrepancy(zs)
    t1 = time.perf_counter()
    kn1 = discrepancy.kn1_bound(sorted(zs))
    t2 = time.perf_counter()
    edges = (0,) + cuts + (len(zs),)
    parts = [zs[a:b] for a, b in zip(edges, edges[1:])]
    eps = tuple(discrepancy.star_discrepancy(p) for p in parts)
    cb = discrepancy.concat_bound([(1, len(p), e) for p, e in zip(parts, eps)])
    t3 = time.perf_counter()
    kinds["star_discrepancy"] += t1 - t0
    kinds["kn1_bound"] += t2 - t1
    kinds["parts_and_concat_bound"] += t3 - t2
    return (d, kn1, cb, eps)


WORKLOADS = {"verify_all": VerifyAll, "family_queries": FamilyQueries, "point_sets": PointSets}
