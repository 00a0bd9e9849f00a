"""Executable checks binding each combinatorial claim to a certificate.

Every verifier runs an exhaustive or checkpointed computation in exact
arithmetic and returns a Certificate: claim id, parameters, pass/fail, a
re-checkable counterexample on failure, and supporting details.  A failed
certificate always carries enough structure to reproduce the failure
by hand.

Certificates are deterministic: the canonical JSON form excludes the
wall-clock runtime and the page-fault count (kept on the object for sidecar
metadata), so identical inputs yield byte-identical canonical output.
Verifiers never read the clock: ``run_claim`` and ``run_all`` time each
whole verifier call, set-up such as building a default spec included, and
stamp ``runtime_seconds`` and ``minor_faults``.

Claims never assert limits.  Scaled-family checks pin down finite-horizon
inequalities that the limiting arguments rest on; growth-rate trends are
reported, not judged.
"""
from __future__ import annotations

import inspect
import itertools
import json
import math
import resource
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import constructions as _constructions
from .blocks import exact_type
from .cantor import CantorExpansion, orbit_numerators, orbit_point, scaled_prefix_counts
from .constructions import (
    ConstructionSpec,
    build_P,
    build_P_runs,
    qde_default_eps,
    qde_spec,
    qnex_spec,
)
from .discrepancy import (
    PrefixWeights,
    boundf_hypotheses,
    e1l_bound,
    epsbar,
    star_discrepancy,
    star_discrepancy_of_rows,
)
from .errors import InvalidSpecError, NeedsMoreDigitsError
from .weightings import check_eps_k_normal, first_outside_band, nu


def _jsonable(value):
    """Recursively convert to canonical JSON-safe data (Fractions to 'p/q')."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    return str(value)


@dataclass
class Certificate:
    """Machine-checkable outcome of one verification run."""

    claim: str
    params: dict
    passed: bool
    checked: int
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)
    runtime_seconds: float | None = None
    minor_faults: int | None = None

    def __post_init__(self):
        if not self.passed and self.counterexample is None:
            raise ValueError("a failed certificate must carry a counterexample")

    def to_json(self) -> dict:
        # canonical form: runtime and page faults deliberately excluded so
        # output is byte-identical across runs (they go in a sidecar)
        return {
            "claim": self.claim,
            "params": _jsonable(self.params),
            "passed": self.passed,
            "checked": self.checked,
            "counterexample": _jsonable(self.counterexample),
            "details": _jsonable(self.details),
        }

    def canonical_bytes(self) -> bytes:
        return (
            json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode("utf-8")
            + b"\n"
        )


def verify_lemma_amount(b_range=(2, 3, 4), w_range=(1, 2, 3)) -> Certificate:
    """Repetition identity: copies of each block inside build_P equal the
    block's weighted share 2**(b*w) * nu(b)(block), exactly, for every block.

    Each (b, w) reads build_P_runs' copies vector and run table and checks
    copies * den**w == 2**(b*w) * num for every run at once, num being the
    run's mass numerator over den**w; only a counterexample makes a
    Fraction.  ``checked`` counts the blocks up to the first failure.  An
    empty grid checks nothing and fails.
    """
    params = {"b_range": list(b_range), "w_range": list(w_range)}
    checked = 0
    counterexample = None
    for b, w in itertools.product(b_range, w_range):
        mu, scale = nu(b), 1 << (b * w)
        den = mu.den**w
        for copies, table in build_P_runs(b, w).groups:
            num = mu.numerators(table)
            term_type = exact_type(max(int(copies.max()) * den, int(num.max()) * scale))
            bad = copies.astype(term_type) * den != num.astype(term_type) * scale
            if bad.any():
                i = int(np.argmax(bad))
                checked += i + 1
                counterexample = {"b": b, "w": w, "block": table[i].tolist(), "copies": int(copies[i]),
                                  "expected": Fraction(scale * int(num[i]), den)}
                break
            checked += len(table)
        if counterexample is not None:
            break
    if not checked:
        counterexample = {"reason": "the grid is empty, nothing was checked"}
    return Certificate("lemma-amount", params, counterexample is None, checked, counterexample)


def verify_lemma_pbw(b_range=(2, 3, 4, 5, 6), w_range=(1, 2, 3), max_len: int = 10**6) -> Certificate:
    """Enumeration length: len(build_P(b, w)) == w * 2**(b*w).

    Lengths over ``max_len`` are skipped and reported; a grid whose every
    length is skipped checks nothing and fails.
    """
    params = {"b_range": list(b_range), "w_range": list(w_range), "max_len": max_len}
    checked = 0
    skipped = []
    counterexample = None
    for b, w in itertools.product(b_range, w_range):
        expected = w * (1 << (b * w))
        if expected > max_len:
            skipped.append({"b": b, "w": w, "length": expected})
            continue
        got = len(build_P(b, w))
        checked += 1
        if got != expected:
            counterexample = {"b": b, "w": w, "expected": expected, "observed": got}
            break
    if not checked:
        counterexample = {"reason": "no length within max_len, nothing was checked"}
    return Certificate("lemma-pbw", params, counterexample is None, checked, counterexample, {"skipped": skipped})


def verify_bounds_ng_nl(b: int, w: int, k_max: int) -> Certificate:
    """Occurrence sandwich inside build_P(b, w), for every block length <= k_max.

    Lower bound: whole-copy occurrences alone, mass * n * (w-k+1)/w.  Upper
    bound: mass * n, the generous per-position rate, plus all (k-1)(b+1)**w
    straddling positions.  That is ``first_outside_band`` with (low, high,
    over, slack) = (w-k+1, w, w, (k-1)(b+1)**w) over build_P's runs, whose
    window counts are closed forms (``EnumerationRuns.window_counts``), so
    no run table is built; the (b+1)**k blocks compared at each length
    count against the size cap.  ``checked`` counts blocks to the first
    failure.
    """
    if not (isinstance(k_max, int) and 1 <= k_max <= w):
        raise InvalidSpecError(f"k_max must satisfy 1 <= k_max <= w, got {k_max}")
    params = {"b": b, "w": w, "k_max": k_max}
    checked = 0
    counterexample = None
    text = build_P_runs(b, w)
    for k in range(1, k_max + 1):
        found = first_outside_band(text, text.length, k, b + 1, nu(b), w - k + 1, w, w, (k - 1) * (b + 1) ** w)
        if found is not None:
            rank, witness = found
            checked += rank + 1
            # both bounds are integers: 2**(b*k) * w divides n = w * 2**(b*w)
            counterexample = {"block": list(witness.block), "lower": int(witness.lower),
                              "observed": witness.observed, "upper": int(witness.upper)}
            break
        checked += (b + 1) ** k
    return Certificate("bounds-ng-nl", params, counterexample is None, checked, counterexample)


# module-level so tests can inject a broken inequality side
def _growth_lhs(b: int, w: int, m: int) -> int:
    return (m - 1) * (b + 1) ** w


def _growth_rhs(b: int, w: int, k: int, m: int) -> int:
    return k * (1 << (b * (w - m)))


def verify_lemma_1021(b_range=range(6, 11), w_range=range(2, 13)) -> Certificate:
    """Growth margin: (m-1)*(b+1)**w <= k * 2**(b*(w-m)) for m <= k <= w/2, b >= 6.

    Out-of-hypothesis bases (b < 6) are skipped and reported, not judged;
    a grid that leaves no (b, w, k, m) to check fails.
    """
    params = {"b_range": list(b_range), "w_range": list(w_range)}
    checked = 0
    skipped = []
    counterexample = None
    for b in b_range:
        if b < 6:
            skipped.append(b)
            continue
        triples = ((w, k, m) for w in w_range for k in range(1, w // 2 + 1) for m in range(1, k + 1))
        for w, k, m in triples:
            checked += 1
            lhs, rhs = _growth_lhs(b, w, m), _growth_rhs(b, w, k, m)
            if lhs > rhs:
                counterexample = {"b": b, "w": w, "k": k, "m": m, "lhs": lhs, "rhs": rhs}
                break
        if counterexample is not None:
            break
    if not checked:
        counterexample = {"reason": "no b >= 6 with w >= 2 in the grid, nothing was checked"}
    return Certificate("lemma-1021", params, counterexample is None, checked, counterexample, {"skipped_b": skipped})


def verify_eknu(b: int, w: int, k: int) -> Certificate:
    """build_P(b, w) passes the (k/w, k, nu(b))-normality band check.

    Hypothesis guard: b >= 6 and k <= w/2 (the tolerance is eps = k/w).
    The check reads build_P's window counts from their closed form
    (``EnumerationRuns.window_counts``) and builds neither its
    ``w * 2**(b*w)`` digits nor its ``(b+1)**w`` runs, so the paper's own
    w = b**2 is in reach; the ``(b+1)**k`` blocks compared count against the
    size cap.
    """
    if not (isinstance(b, int) and b >= 6):
        raise InvalidSpecError(f"hypothesis requires b >= 6, got {b}")
    if not (isinstance(k, int) and 1 <= k and 2 * k <= w):
        raise InvalidSpecError(f"hypothesis requires 1 <= k <= w/2, got k={k}, w={w}")
    params = {"b": b, "w": w, "k": k}
    eps = Fraction(k, w)
    verdict = check_eps_k_normal(build_P_runs(b, w), eps, k, nu(b))
    w_ = verdict.witness
    counterexample = None
    if w_ is not None:
        counterexample = {"block": list(w_.block), "observed": w_.observed, "lower": w_.lower, "upper": w_.upper}
    return Certificate(
        claim="eknu",
        params=params,
        passed=counterexample is None,
        checked=sum((b + 1) ** m for m in range(1, k + 1)),
        counterexample=counterexample,
        details={"eps": eps, "length": verdict.length},
    )


def _segment_checkpoints(spec: ConstructionSpec, budget: int) -> list[int]:
    """~budget digit positions spread across every nonempty segment.

    Linear spacing would land almost everything in the last segment (the
    segment lengths grow geometrically), so positions are allocated per
    segment: ceil(budget / segments) points, evenly spaced within each.
    """
    if not (isinstance(budget, int) and budget >= 1):
        raise ValueError(f"checkpoint budget must be an integer >= 1, got {budget}")
    nonempty = [s for s in range(1, len(spec.segments) + 1) if spec.segments[s - 1].length > 0]
    if not nonempty:
        raise InvalidSpecError("construction has no digits to checkpoint")
    per = -(-budget // len(nonempty))
    L = spec.boundaries
    out: set[int] = set()
    for s in nonempty:
        lo, hi = L[s - 1] + 1, L[s]
        if per == 1 or hi == lo:
            out.add((lo + hi) // 2)
            continue
        span = hi - lo
        for i in range(per):
            out.add(lo + span * i // (per - 1))
    return sorted(out)


def _require_family(spec: ConstructionSpec, family: str, claim: str) -> None:
    if spec.family != family:
        raise InvalidSpecError(
            f"claim {claim} applies to {family} constructions; got family {spec.family!r}"
        )


def _orbit_claim_setup(spec: ConstructionSpec | None, claim: str, n_checkpoints: int, M: int):
    """(spec, params, expansion, shift counts n) of the two qnex-scaled orbit claims."""
    if spec is None:
        spec = qnex_spec()
    _require_family(spec, "qnex-scaled", claim)
    if not (isinstance(M, int) and M >= 1):
        raise ValueError(f"M must be an integer >= 1, got {M}")
    total = spec.total_length
    if total < M + 1:
        raise NeedsMoreDigitsError(M + 1, total)
    params = {"n_checkpoints": n_checkpoints, "M": M, "spec_family": spec.family}
    exp = CantorExpansion.from_spec(spec)
    positions = sorted({min(pos - 1, total - M) for pos in _segment_checkpoints(spec, n_checkpoints)})
    return spec, params, exp, positions


def _checked_hi(exp: CantorExpansion, M: int, n: int, num: int, den: int) -> Fraction:
    """``orbit_point``'s upper endpoint at shift n, which must be (num + 1)/den from ``orbit_numerators``."""
    hi = orbit_point(exp, n, tail=M).hi
    if hi != Fraction(num + 1, den):
        raise AssertionError(f"orbit_point gives hi = {hi} at n = {n}, orbit_numerators {num + 1}/{den}")
    return hi


def verify_t0_scaled(
    spec: ConstructionSpec | None = None, n_checkpoints: int = 100, M: int = 64
) -> Certificate:
    """Orbit collapse: at each checkpoint n, the enclosure of the shifted
    value satisfies hi <= (j+1)/2**j + 2**-M, where j is the segment index
    of position n+1; and the next digit satisfies E_{n+1} <= j.

    Every enclosure comes from one ``orbit_numerators`` batch as integers
    (num, den) with hi = (num + 1)/den.  The bound is
    ((j+1) 2**M + 2**j) / 2**(j+M), and both it and each segment's running
    maximum are compared with hi by integer cross-multiplication.  Only
    the reported endpoints, each segment's largest hi and a
    counterexample's hi, are made as Fractions, by ``orbit_point`` at their
    own n.
    """
    spec, params, exp, positions = _orbit_claim_setup(spec, "t0-scaled", n_checkpoints, M)
    checked = 0
    largest: dict[int, tuple[int, int, int]] = {}  # per segment j: (n, num, den) of its largest hi
    for n, (num, den) in zip(positions, orbit_numerators(exp, positions, M)):
        j = spec.t0_index(n)
        digit = spec.digit_at(n + 1)
        checked += 1
        prev = largest.get(j)
        if prev is None or (num + 1) * prev[2] > (prev[1] + 1) * den:
            largest[j] = (n, num, den)
        # the bound (j+1)/2**j + 2**-M over the common denominator 2**(j+M)
        bound = ((j + 1) << M) + (1 << j)
        if digit > j or (num + 1) << (j + M) > bound * den:
            return Certificate(
                claim="t0-scaled",
                params=params,
                passed=False,
                checked=checked,
                counterexample={
                    "n": n,
                    "j": j,
                    "digit": digit,
                    "hi": _checked_hi(exp, M, n, num, den),
                    "bound": Fraction(bound, 1 << (j + M)),
                },
            )
    details = {
        "positions": len(positions),
        "max_hi_by_segment": {str(j): _checked_hi(exp, M, *largest[j]) for j in sorted(largest)},
    }
    return Certificate("t0-scaled", params, True, checked, details=details)


def verify_notdn_scaled(
    spec: ConstructionSpec | None = None, n_checkpoints: int = 100, M: int = 64
) -> Certificate:
    """Orbit non-equidistribution: the orbit upper endpoints all sit below
    (j_min+1)/2**j_min + 2**-M, so their star discrepancy is at least
    1 - (j_min+1)/2**j_min - 2**-M.  j_min is the smallest segment index
    covered and must be >= 6 for the threshold to mean anything.

    The enclosures come from one ``orbit_numerators`` batch; each point is
    the Fraction (num + 1)/den, or num/den when that upper end is 1, and
    ``star_discrepancy`` takes them all.
    """
    spec, params, exp, positions = _orbit_claim_setup(spec, "notdn-scaled", n_checkpoints, M)
    j_min = min(spec.t0_index(n) for n in positions)
    if j_min < 6:
        raise InvalidSpecError(f"checkpoints must lie in segments >= 6, found segment {j_min}")
    # hi == 1 needs every tail digit maximal; fall back to lo then
    points = [Fraction(num + 1 if num + 1 < den else num, den) for num, den in orbit_numerators(exp, positions, M)]
    observed = star_discrepancy(points)
    threshold = 1 - Fraction(j_min + 1, 2**j_min) - Fraction(1, 2**M)
    counterexample = None
    if observed < threshold:
        counterexample = {"discrepancy": observed, "threshold": threshold}
    return Certificate(
        claim="notdn-scaled",
        params=params,
        passed=counterexample is None,
        checked=len(points),
        counterexample=counterexample,
        details={"j_min": j_min, "threshold": threshold, "discrepancy": observed, "points": len(points)},
    )


def _qde_segment_eps_primes(spec: ConstructionSpec, eps_fn) -> list[Fraction]:
    """Per-segment scaled-digit discrepancy budgets eps'_s, 1-based list."""
    out = []
    for s, seg in enumerate(spec.segments, start=1):
        out.append(e1l_bound(seg.base, eps_fn(s), seg.block.length))
    return out


def epsbar_rows(spec: ConstructionSpec, positions) -> list[tuple]:
    """The interpolated prefix bound epsbar_i at each position n.

    Returns one (n, i, hyp, bar) per position: i counts the segments fully
    included in the first n positions; hyp reports the bound's
    preconditions, or is None when no segment is fully included or none
    follows; bar is epsbar_i where they hold, else None.  Segment budgets
    are ``e1l_bound`` at tolerances ``qde_default_eps(s)``.  hyp and bar
    depend on i alone, so they are worked out once per distinct i.
    """
    eps_primes = _qde_segment_eps_primes(spec, qde_default_eps)
    seg_meta = [(seg.multiplicity, seg.block.length) for seg in spec.segments]
    bounds: dict[int, tuple] = {}
    rows = []
    for n in positions:
        i = spec.idef_index(n)
        if not 1 <= i < len(spec.segments):
            rows.append((n, i, None, None))
            continue
        if i not in bounds:
            entries = tuple((seg_meta[j][0], seg_meta[j][1], eps_primes[j]) for j in range(i))
            pw = PrefixWeights(entries, seg_meta[i][1], eps_primes[i])
            hyp = boundf_hypotheses(pw)
            bounds[i] = (hyp, epsbar(pw) if hyp else None)
        rows.append((n, i, *bounds[i]))
    return rows


def verify_mqd_scaled(spec: ConstructionSpec | None = None, checkpoints=40) -> Certificate:
    """Prefix discrepancy control on the both-senses-normal family.

    At each checkpoint n, with i the count of fully included segments, the
    interpolation preconditions are evaluated; where they hold, the exact
    star discrepancy of the scaled digits E_m/q_m (m <= n) must stay below
    epsbar_i.  Checkpoints before the preconditions first hold are reported
    unasserted.  At least one checkpoint must be asserted.  ``checkpoints``
    is a budget of positions spread across the segments, or the positions.
    Every checkpoint's scaled-digit table and the final one are rows of one
    ``scaled_prefix_counts`` matrix, and one ``star_discrepancy_of_rows``
    sweep gives all their D* values.
    """
    if spec is None:
        spec = qde_spec()
    _require_family(spec, "qde-scaled", "mqd-scaled")
    if isinstance(checkpoints, int):
        positions = _segment_checkpoints(spec, checkpoints)
    else:
        positions = sorted(set(int(n) for n in checkpoints))
        if not positions or positions[0] < 1 or positions[-1] > spec.total_length:
            raise InvalidSpecError("checkpoints must be positions within the construction")
    params = {"checkpoints": len(positions), "spec_family": spec.family}
    rows = []
    asserted = 0
    counterexample = None
    ends = [*positions, spec.total_length]
    values = spec.scaled_values
    *d_stars, final_d = star_discrepancy_of_rows(values.p, values.q, scaled_prefix_counts(spec, ends), ends)
    for (n, i, hyp, bar), d_star in zip(epsbar_rows(spec, positions), d_stars):
        row: dict = {"n": n, "i": i, "d_star": d_star, "asserted": bar is not None}
        if bar is not None:
            row["epsbar"] = bar
            asserted += 1
            if d_star > bar and counterexample is None:
                counterexample = {"n": n, "i": i, "d_star": d_star, "epsbar": bar}
        elif hyp is not None:
            row["unmet"] = list(hyp.failures)
        else:
            row["unmet"] = ["no-fully-included-segment"]
        rows.append(row)
    bars = [r["epsbar"] for r in rows if r.get("asserted")]
    trend = all(a >= b for a, b in zip(bars, bars[1:])) if len(bars) >= 2 else None
    details = {
        "rows": rows,
        "asserted": asserted,
        "final_n": spec.total_length,
        "final_d_star": final_d,
        "epsbar_non_increasing": trend,
    }
    if counterexample is None and asserted == 0:
        counterexample = {"reason": "preconditions never held, nothing was asserted"}
    return Certificate(
        claim="mqd-scaled",
        params=params,
        passed=counterexample is None,
        checked=asserted,
        counterexample=counterexample,
        details=details,
    )


def verify_salat_counterexample(m_rows: int = 200) -> Certificate:
    """One notion of normality without the other, on the staircase witness.

    Digit 0 never occurs (so its count-to-normalizer ratio is stuck at 0
    while the normalizer grows), yet the scaled digits E_n/q_n spread out:
    their star discrepancy shrinks across row-complete prefixes.  Asserted:
    zero count of digit 0, strictly decreasing mean reciprocal base across
    rows, decreasing discrepancy across sampled rows, and discrepancy at
    row 200 at most 1/20 when the run reaches that row.

    The staircase comes from ``salat_counterexample_spec`` as one segment
    per row, so its segments have already checked every digit against its
    base.  Every base and digit is read from the spec.  The sum of 1/q_n up
    to each row end is kept as one integer numerator over the lcm of the
    run bases, and consecutive row means are compared by integer
    cross-multiplication; only the reported normalizers and means become
    Fractions.  The scaled digits are read as ``mqd-scaled`` reads them:
    ``spec.scaled_values``, one ``scaled_prefix_counts`` matrix at the
    sampled row ends and one ``star_discrepancy_of_rows`` sweep.  The count
    of digit 0 is the value-0 column of the last row, the whole staircase.
    No digit is materialized and no Fraction is made per position or per
    distinct value.
    """
    if not (isinstance(m_rows, int) and m_rows >= 2):
        raise InvalidSpecError(f"need at least 2 rows, got {m_rows}")
    params = {"m_rows": m_rows}
    n_total = m_rows * (m_rows + 1) // 2
    sample_rows = sorted({m for m in (50, 100, 150, 200) if m <= m_rows} | {m_rows})
    spec = _constructions.salat_counterexample_spec(n_total)
    if spec.total_length != n_total:
        raise InvalidSpecError(f"expected {n_total} positions, got {spec.total_length}")
    # everything below reads the spec's digits and bases, never the row
    # formula, so a tampered generator is caught
    runs = list(spec.q_runs(n_total))
    # sum 1/q_n over the first n positions is recip / lcm, an integer numerator over one denominator
    lcm = math.lcm(*(base for base, _ in runs))
    pending = iter(runs)
    base, length = next(pending)
    before, start = 0, 0  # recip over the positions 1..start, which precede the current run
    row_sums: list[tuple[int, int]] = []  # per row, (recip, row end) at its end
    first_increase = None
    normalizer_samples: list[tuple[int, Fraction]] = []
    for m in range(1, m_rows + 1):
        pos = m * (m + 1) // 2
        while start + length < pos:
            before += length * (lcm // base)
            start += length
            base, length = next(pending)
        recip = before + (pos - start) * (lcm // base)
        # the mean recip / (lcm pos) against the last row's, cross-multiplied
        if row_sums and first_increase is None:
            last, last_pos = row_sums[-1]
            if recip * last_pos >= last * pos:
                first_increase = m
        row_sums.append((recip, pos))
        if m in sample_rows:
            normalizer_samples.append((m, Fraction(recip, lcm)))
    ends = [m * (m + 1) // 2 for m in sample_rows]
    values = spec.scaled_values
    counts = scaled_prefix_counts(spec, ends)
    d_values = star_discrepancy_of_rows(values.p, values.q, counts, ends)
    # the values ascend, so value 0, if it occurs, is column 0
    zero_count = int(counts[-1, 0]) if len(values.p) and values.p[0] == 0 else 0
    d_samples = list(zip(sample_rows, d_values))
    d_decreasing = all(a > b for a, b in zip(d_values, d_values[1:]))
    final_ok = True
    row200 = next((d for m, d in d_samples if m == 200), None)
    if m_rows >= 200:
        final_ok = row200 is not None and row200 <= Fraction(1, 20)
    details = {
        "n_total": n_total,
        "zero_count": zero_count,
        "hypothesis_first_last": [Fraction(r, lcm * pos) for r, pos in (row_sums[0], row_sums[-1])],
        "d_star_samples": [[m, d] for m, d in d_samples],
        "normalizer_samples": [[m, v] for m, v in normalizer_samples],
    }
    failures = []
    if zero_count != 0:
        failures.append({"reason": "digit 0 occurred", "count": zero_count})
    if first_increase is not None:
        failures.append({"reason": "mean reciprocal base rose", "at_row": first_increase})
    if not d_decreasing:
        failures.append({"reason": "discrepancy did not decrease", "samples": details["d_star_samples"]})
    if not final_ok:
        failures.append({"reason": "row-200 discrepancy above 1/20", "value": row200})
    return Certificate(
        claim="salat-counterexample",
        params=params,
        passed=not failures,
        checked=m_rows,
        counterexample={"failures": failures} if failures else None,
        details=details,
    )


# ---------------------------------------------------------------------------
# Claim registry and grid driver.
# ---------------------------------------------------------------------------

# claim id -> (function, kind); kind "range" passes grid lists wholesale as
# *_range arguments, kind "point" expands the grid product into one
# certificate per point, kind "plain" passes scalars straight through
CLAIMS: dict[str, tuple] = {
    "lemma-amount": (verify_lemma_amount, "range"),
    "lemma-pbw": (verify_lemma_pbw, "range"),
    "bounds-ng-nl": (verify_bounds_ng_nl, "point"),
    "lemma-1021": (verify_lemma_1021, "range"),
    "eknu": (verify_eknu, "point"),
    "t0-scaled": (verify_t0_scaled, "plain"),
    "notdn-scaled": (verify_notdn_scaled, "plain"),
    "mqd-scaled": (verify_mqd_scaled, "plain"),
    "salat-counterexample": (verify_salat_counterexample, "plain"),
}

# what `--all` runs when no grid is given
DEFAULT_JOBS: tuple[tuple[str, dict], ...] = (
    ("lemma-amount", {}),
    ("lemma-pbw", {}),
    ("bounds-ng-nl", {"b": 2, "w": 2, "k_max": 2}),
    ("bounds-ng-nl", {"b": 3, "w": 2, "k_max": 2}),
    ("bounds-ng-nl", {"b": 4, "w": 3, "k_max": 2}),
    ("bounds-ng-nl", {"b": 6, "w": 2, "k_max": 2}),
    ("lemma-1021", {}),
    ("eknu", {"b": 6, "w": 2, "k": 1}),
    ("salat-counterexample", {"m_rows": 200}),
    ("mqd-scaled", {}),
    ("t0-scaled", {}),
    ("notdn-scaled", {}),
    ("eknu", {"b": 6, "w": 4, "k": 2}),
)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _timed(fn, kwargs: dict) -> Certificate:
    """Call one verifier with keyword arguments and stamp its wall time and page faults.

    This is the only place a job is timed, so ``runtime_seconds`` covers
    the whole call: default specs, checkpoint selection and other set-up
    included.  ``minor_faults`` counts the pages the process faulted in
    meanwhile, fresh memory the allocator took from the system.
    """
    f0, t0 = _minor_faults(), time.perf_counter()
    cert = fn(**kwargs)
    cert.runtime_seconds = time.perf_counter() - t0
    cert.minor_faults = _minor_faults() - f0
    return cert


def run_claim(claim: str, grid: dict | None = None, **kwargs) -> list[Certificate]:
    """Run one claim over a parameter grid, returning its certificates.

    ``grid`` maps parameter names to lists of integers (from CLI syntax
    like ``b=2..6,w=1..3``).  Range-style claims receive the lists whole;
    point-style claims get one run per Cartesian-product point, and every
    parameter they require must be given.  A name the verifier does not
    take, or a required one left out, is an InvalidSpecError.  Each
    certificate carries the wall time of its verifier call.
    """
    if claim not in CLAIMS:
        raise InvalidSpecError(
            f"unknown claim {claim!r}; choose from {', '.join(sorted(CLAIMS))}"
        )
    fn, kind = CLAIMS[claim]
    grid = dict(grid or {})
    # grids carry integers: a range-style claim takes its *_range lists
    # (named without the suffix), the others their integer parameters
    params = inspect.signature(fn).parameters.values()
    if kind == "range":
        accepted = sorted(p.name.removesuffix("_range") for p in params if p.name.endswith("_range"))
    else:
        accepted = sorted(p.name for p in params if p.default is p.empty or type(p.default) is int)
    unknown = sorted(set(grid) - set(accepted))
    if unknown:
        raise InvalidSpecError(
            f"claim {claim} takes no grid parameter {unknown[0]!r}; accepted: {', '.join(accepted)}"
        )
    if kind == "range":
        calls = [kwargs | {f"{key}_range": list(values) for key, values in grid.items()}]
    elif kind == "point":
        required = [p.name for p in params if p.default is p.empty]
        missing = [name for name in required if name not in grid and name not in kwargs]
        if missing:
            raise InvalidSpecError(
                f"claim {claim} needs grid values for {', '.join(missing)}; "
                f"pass --grid {','.join(f'{name}=N' for name in required)}"
            )
        names = sorted(grid)
        calls = [
            dict(zip(names, combo)) | kwargs
            for combo in itertools.product(*(grid[name] for name in names))
        ]
    else:
        # plain: grid entries must be single values
        single = {}
        for key, values in grid.items():
            vals = list(values)
            if len(vals) != 1:
                raise InvalidSpecError(f"claim {claim} takes a single value for {key}, got {vals}")
            single[key] = vals[0]
        calls = [kwargs | single]
    return [_timed(fn, call) for call in calls]


def run_all(budget_seconds: float | None = None) -> tuple[list[Certificate], list[str], list[str]]:
    """Run the default verification jobs, stopping when the budget runs out.

    Returns (certificates, skipped job labels, overrun job labels).  The
    budget is checked only between jobs, so a job that starts in time may
    finish after the budget has run out; it is kept and named as an
    overrun.  Jobs are ordered cheap first so a tight budget still covers
    most claims.  Each job's verifier is looked up in CLAIMS as it starts
    and timed like run_claim's.
    """
    t0 = time.perf_counter()
    certs: list[Certificate] = []
    skipped: list[str] = []
    overruns: list[str] = []
    for claim, kw in DEFAULT_JOBS:
        label = claim if not kw else f"{claim} {kw}"
        if budget_seconds is not None and time.perf_counter() - t0 > budget_seconds:
            skipped.append(label)
            continue
        certs.append(_timed(CLAIMS[claim][0], kw))
        if budget_seconds is not None and time.perf_counter() - t0 > budget_seconds:
            overruns.append(label)
    return certs, skipped, overruns
