"""Output checks for the benchmark, independent of the package under test.

Nothing here imports ``cantornormal``.  The two scaled families are
rebuilt from their definitions as run-length models, and sampled answers
are recomputed with the literal oracles in ``tests/oracles.py``.  Every
check returns ``{op index: reason}`` for the operations it rejects.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


def _load_oracles():
    spec = importlib.util.spec_from_file_location("cnl_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

ORBIT_TAIL = 64
# largest prefix or point set the slow oracles are asked to recompute
ORACLE_N_MAX = 1 << 14
# answers per run recomputed by the oracles
FAMILY_SAMPLE = {"orbit": 16, "dstar": 6, "moment": 6, "ratio": 4}
POINT_SET_SAMPLE = 4


# ---------------------------------------------------------------------------
# verify_all: certificate digests
# ---------------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def certificate_answers(out_bytes: bytes, count: int) -> list:
    """(output-file digest, certificate digest) per certificate of a ``--all`` file.

    A certificate's digest is over its canonical bytes: compact sorted JSON
    plus a newline, as ``Certificate.canonical_bytes`` writes them.
    """
    out_digest = sha256(out_bytes)
    try:
        certs = json.loads(out_bytes)["certificates"]
    except (ValueError, KeyError, TypeError):
        certs = []
    answers = []
    for i in range(count):
        if i < len(certs):
            canonical = json.dumps(certs[i], sort_keys=True, separators=(",", ":")).encode() + b"\n"
            answers.append((out_digest, sha256(canonical)))
        else:
            answers.append((out_digest, None))
    return answers


def check_certificates(answers: list, expected: dict) -> dict[int, str]:
    bad = {}
    for i, (answer, cert) in enumerate(zip(answers, expected["certificates"])):
        if not isinstance(answer, tuple):
            bad[i] = f"{cert['label']}: {answer!r}"
        elif answer[1] != cert["sha256"]:
            bad[i] = f"{cert['label']}: certificate bytes differ"
        elif answer[0] != expected["out_sha256"]:
            bad[i] = f"{cert['label']}: output file differs"
    return bad


# ---------------------------------------------------------------------------
# Run-length models of the scaled families
# ---------------------------------------------------------------------------


class Segment(NamedTuple):
    copies: int
    runs: list  # (pattern, repeat) pairs
    run_ends: list[int]  # cumulative digit counts of the runs
    length: int  # block length
    base: int


class SegmentedModel:
    """Digits and bases of a segmented construction, from its definition.

    ``segments`` lists (copies, runs, base); a segment is ``copies`` copies
    of its block, and the block is the concatenation of ``repeat`` copies
    of each ``pattern`` in ``runs``.
    """

    def __init__(self, segments):
        self.segments = []
        self.ends = []
        pos = 0
        for copies, runs, base in segments:
            run_ends, acc = [], 0
            for pattern, repeat in runs:
                acc += len(pattern) * repeat
                run_ends.append(acc)
            pos += copies * acc
            self.segments.append(Segment(copies, runs, run_ends, acc, base))
            self.ends.append(pos)
        self.total = pos

    def _locate(self, p: int) -> int:
        if not 1 <= p <= self.total:
            raise ValueError(f"position {p} outside 1..{self.total}")
        return bisect_left(self.ends, p)

    def base(self, p: int) -> int:
        return self.segments[self._locate(p)].base

    def digit(self, p: int) -> int:
        s = self._locate(p)
        seg = self.segments[s]
        start = self.ends[s - 1] if s else 0
        r = (p - start - 1) % seg.length
        j = bisect_left(seg.run_ends, r + 1)
        run_start = seg.run_ends[j - 1] if j else 0
        pattern = seg.runs[j][0]
        return pattern[(r - run_start) % len(pattern)]

    def bases(self, n: int) -> list[int]:
        return [self.base(p) for p in range(1, n + 1)]

    def digits(self, n: int) -> list[int]:
        return [self.digit(p) for p in range(1, n + 1)]


def qnex_model() -> SegmentedModel:
    """Segments 6..10: 2**(2i) copies of the weighted enumeration P(i, 2), base 2**i.

    P(i, w) lists the base-(i+1) blocks of length w in order, each repeated
    (2**i - i)**t times, t its number of top digits i.
    """
    segments = [(0, [((0, 1), 1)], 2)] * 5
    for i in range(6, 11):
        rep = 2**i - i
        runs = [((a, b), rep ** ((a == i) + (b == i))) for a in range(i + 1) for b in range(i + 1)]
        segments.append((2 ** (2 * i), runs, 2**i))
    return SegmentedModel(segments)


def qde_model() -> SegmentedModel:
    """Segments 2..12: i**3 copies of the plain enumeration C(i, 2), base i."""
    segments = [(0, [((0, 1), 1)], 2)]
    for i in range(2, 13):
        segments.append((i**3, [((a, b), 1) for a in range(i) for b in range(i)], i))
    return SegmentedModel(segments)


def qde_epsbar(model: SegmentedModel, i: int) -> Fraction:
    """epsbar for a prefix ending in segment i+1: f(0, |x_{i+1}|) of the interpolation bound.

    eps'_s = 1/b_s + eps_s + 1/|x_s| with the qde tolerance eps_1 = 3/5 and
    eps_s = 1/s after that.
    """
    def eps_prime(s, seg):
        return Fraction(1, seg.base) + (Fraction(3, 5) if s == 1 else Fraction(1, s)) + Fraction(1, seg.length)

    included = list(enumerate(model.segments[:i], start=1))
    mass = sum(seg.copies * seg.length * eps_prime(s, seg) for s, seg in included)
    points = sum(seg.copies * seg.length for _, seg in included)
    nxt = model.segments[i].length
    return Fraction(mass + nxt) / (points + nxt)


# ---------------------------------------------------------------------------
# family_queries
# ---------------------------------------------------------------------------


def check_orbit(model: SegmentedModel, n: int, answer, full: bool) -> str | None:
    lo, hi = answer
    prod = 1
    num = 0
    for p in range(n + 1, n + ORBIT_TAIL + 1):
        q = model.base(p)
        prod *= q
        if full:
            num = num * q + model.digit(p)
    if hi - lo != Fraction(1, prod):
        return "enclosure width is not 1/prod(q)"
    if full and lo != Fraction(num, prod):
        return "enclosure differs from the oracle"
    return None


def check_dstar(model: SegmentedModel, n: int, answer, full: bool) -> str | None:
    d, bar = answer
    if not Fraction(1, 2 * n) <= d <= 1:
        return "D* outside [1/(2n), 1]"
    if bar is not None and bar != qde_epsbar(model, bisect_left(model.ends, n)):
        return "epsbar differs from the oracle"
    if full:
        points = [Fraction(model.digit(p), model.base(p)) for p in range(1, n + 1)]
        if d != oracles.sweep_dstar(points):
            return "D* differs from the oracle"
    return None


def check_moment(model: SegmentedModel, n: int, k: int, answer) -> str | None:
    if answer != oracles.slow_q_moment(model.bases(n + k - 1), k):
        return "q_moment differs from the oracle"
    return None


def check_ratio(model: SegmentedModel, n: int, block, answer) -> str | None:
    k = len(block)
    count = oracles.slow_count(block, model.digits(n + k - 1))
    if answer != Fraction(count) / oracles.slow_q_moment(model.bases(n + k - 1), k):
        return "normality ratio differs from the oracle"
    return None


def _sample(rng: random.Random, indices: list, k: int) -> set:
    return set(rng.sample(indices, min(k, len(indices))))


def _frac(text) -> Fraction | None:
    return None if text is None else Fraction(text)


def family_items(op, payload: dict) -> list[tuple]:
    """The answers one command printed: (kind, family, n, extra, value) per checkpoint.

    Raises ValueError if the rows do not answer exactly the requested checkpoints.
    """
    fam = op.family.split("-")[0]
    if op.cmd == "report":
        sections = ("normality_ratios", "orbit_enclosures", "d_star_trajectory", "epsbar_trajectory")
        if any([r["n"] for r in payload[key]] != list(op.checkpoints) for key in sections):
            raise ValueError("report rows differ from the checkpoints")
        items = []
        for ratio, orbit, dstar, bar in zip(*(payload[key] for key in sections)):
            n = ratio["n"]
            items.append(("ratio", fam, n, op.block, Fraction(ratio["ratio"])))
            items.append(("orbit", fam, n, None, (_frac(orbit["lo"]), _frac(orbit["hi"]))))
            items.append(("dstar", fam, n, None, (Fraction(dstar["d_star"]), _frac(bar["epsbar"]))))
        return items
    rows = payload["rows"]
    if [r["n"] for r in rows] != list(op.checkpoints):
        raise ValueError(f"{op.cmd} rows differ from the checkpoints")
    if op.cmd == "orbit":
        return [("orbit", fam, r["n"], None, (Fraction(r["lo"]), Fraction(r["hi"]))) for r in rows]
    return [("moment", fam, r["n"], op.k, Fraction(r["moment"])) for r in rows]


def check_family(ops: list, answers: list, rng: random.Random) -> dict[int, str]:
    """Checks every printed answer; recomputes a seeded sample with the oracles.

    Every enclosure must have width 1/prod(q) (or be absent exactly where the
    tail runs past the construction), every D* lie in [1/(2n), 1] and every
    epsbar match the interpolation bound.  FAMILY_SAMPLE answers of each kind
    with n <= ORACLE_N_MAX (any n for enclosures) are recomputed in full.
    """
    models = {"qnex": qnex_model(), "qde": qde_model()}
    bad: dict[int, str] = {}
    items = []
    for i, (op, answer) in enumerate(zip(ops, answers)):
        try:
            code, text = answer
            if code != 0:
                raise ValueError(f"exit code {code}")
            items += [(i, item) for item in family_items(op, json.loads(text))]
        except (TypeError, ValueError, KeyError) as exc:
            bad[i] = f"{op.kind} {' '.join(op.argv)}: {answer!r:.200} ({exc})"
    eligible: dict[str, list[int]] = {kind: [] for kind in FAMILY_SAMPLE}
    for j, (_, (kind, _fam, n, _extra, _value)) in enumerate(items):
        if kind == "orbit" or n <= ORACLE_N_MAX:
            eligible[kind].append(j)
    sampled = set()
    for kind, idx in eligible.items():
        sampled |= _sample(rng, idx, FAMILY_SAMPLE[kind])
    for j, (i, (kind, fam, n, extra, value)) in enumerate(items):
        model, full = models[fam], j in sampled
        if kind == "orbit":
            if value[0] is None:
                reason = None if n + ORBIT_TAIL > model.total else "enclosure missing"
            else:
                reason = check_orbit(model, n, value, full)
        elif kind == "dstar":
            reason = check_dstar(model, n, value, full)
        elif kind == "moment":
            reason = check_moment(model, n, extra, value) if full else None
        else:
            reason = check_ratio(model, n, extra, value) if full else None
        if reason and i not in bad:
            bad[i] = f"{ops[i].kind} {kind} at n={n}: {reason}"
    return bad


# ---------------------------------------------------------------------------
# point_sets
# ---------------------------------------------------------------------------


def literal_kn1(zs) -> Fraction:
    """1/(2n) + max_i |z_(i) - (2i-1)/(2n)| over the sorted points."""
    n = len(zs)
    return Fraction(1, 2 * n) + max(abs(z - Fraction(2 * i - 1, 2 * n)) for i, z in enumerate(sorted(zs), 1))


def check_point_set(op, answer, full: bool) -> str | None:
    """Every value against the literal formulas; with ``full`` also D* against ``sweep_dstar``.

    On any points, 1/(2n) + max |z_(i) - (2i-1)/(2n)| over the sorted points
    is the star discrepancy itself, so ``literal_kn1`` checks both D* and kn1.
    """
    zs, cuts = op
    d, kn1, cb, eps = answer
    n = len(zs)
    edges = (0,) + cuts + (n,)
    parts = [zs[a:b] for a, b in zip(edges, edges[1:])]
    if not Fraction(1, 2 * n) <= d <= 1:
        return "D* outside [1/(2n), 1]"
    exact = literal_kn1(zs)
    if d != exact:
        return "D* differs from the literal formula"
    if kn1 != exact:
        return "kn1 differs from the literal formula"
    if list(eps) != [literal_kn1(p) for p in parts]:
        return "part D* differs from the literal formula"
    if cb != sum(len(p) * e for p, e in zip(parts, eps)) / Fraction(n):
        return "concatenation bound differs from the weighted average"
    if not d <= cb:
        return "D* above the concatenation bound"
    if full and d != oracles.sweep_dstar(zs):
        return "D* differs from the oracle"
    return None


def check_point_sets(ops: list, answers: list, rng: random.Random) -> dict[int, str]:
    small = [i for i, (zs, _) in enumerate(ops) if len(zs) <= ORACLE_N_MAX]
    sampled = _sample(rng, small, POINT_SET_SAMPLE)
    bad = {}
    for i, (op, answer) in enumerate(zip(ops, answers)):
        if not isinstance(answer, tuple):
            bad[i] = repr(answer)
            continue
        reason = check_point_set(op, answer, i in sampled)
        if reason:
            bad[i] = f"point set of {len(op[0])}: {reason}"
    return bad
