"""Command-line interface: construction, counting, orbits, discrepancy,
verification, and combined reports, with stable machine-readable output.

Exit codes: 0 success; 1 a verification-style check failed (the failing
certificate or verdict is still emitted); 2 usage or validation error;
3 size limit exceeded; 4 internal error, a fault in the library rather
than in the input, reported with its traceback on stderr.

Each subcommand takes only the options its handler reads, and its input
sources (``--spec``, ``--family``, and ``--in`` or ``--const-base`` where
taken) exclude one another: any other option, or a second source, is a
usage error (exit 2).

``--cap N`` is entered once, as ``limits.size_cap(N)`` around the whole
subcommand, so it reaches every path that ``CNL_SIZE_CAP`` reaches.

All numeric output is exact by default: fractions appear as "p/q"
strings, and any float column is suffixed _decimal to mark it as an
approximation.  Identical invocations produce byte-identical output
files; run metadata such as wall-clock time goes to a separate
``<out>.meta.json`` sidecar, never into the data file.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import re
import sys
import traceback
from fractions import Fraction

from .blocks import count_occurrences, count_prefix_occurrences, read_digit_file, write_digit_file
from .cantor import (
    BasicSequence,
    CantorExpansion,
    normality_ratio,
    orbit_point,
    q_moment,
    scaled_value_counts,
)
from .constructions import ConstructionSpec, assemble, qde_spec, qnex_spec
from .discrepancy import (
    concat_bound,
    e1l_bound,
    star_discrepancy,
    star_discrepancy_from_counts,
)
from .errors import InvalidSpecError, NeedsMoreDigitsError, SizeLimitError
from .limits import size_cap
from .verify import CLAIMS, epsbar_rows, run_all, run_claim
from .weightings import check_eps_k_normal, parse_weighting

_FAMILIES = {"qde-scaled": qde_spec, "qnex-scaled": qnex_spec}


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise InvalidSpecError(f"bad {what} {text!r}; expected comma-separated integers") from exc


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidSpecError(f"bad {what} {text!r}; expected p/q or a decimal") from exc


_GRID_PART = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(\d+)(?:\.\.(\d+))?$")


def parse_grid(text: str) -> dict[str, list[int]]:
    """Parse grid syntax like ``b=2..6,w=1..3,k_max=2``."""
    grid: dict[str, list[int]] = {}
    for part in text.split(","):
        m = _GRID_PART.match(part.strip())
        if not m:
            raise InvalidSpecError(
                f"bad grid entry {part!r}; expected name=lo..hi or name=value"
            )
        name, lo, hi = m.group(1), int(m.group(2)), m.group(3)
        values = [lo] if hi is None else list(range(lo, int(hi) + 1))
        if not values:
            raise InvalidSpecError(f"grid entry {part!r} is an empty range")
        grid.setdefault(name, []).extend(values)
    return grid


_BUDGET = re.compile(r"^(\d+(?:\.\d+)?)\s*(s|sec|secs|m|min|mins|h|hr|hrs)?$")


def parse_budget(text: str) -> float:
    """Parse a time budget like ``10min``, ``30s``, ``1h``, or ``90``."""
    m = _BUDGET.match(text.strip())
    if not m:
        raise InvalidSpecError(f"bad budget {text!r}; expected forms like 10min, 30s, 1h")
    value = float(m.group(1))
    unit = m.group(2) or "s"
    scale = {"s": 1, "sec": 1, "secs": 1, "m": 60, "min": 60, "mins": 60, "h": 3600, "hr": 3600, "hrs": 3600}
    return value * scale[unit]


def _load_spec(args) -> ConstructionSpec:
    if args.spec:
        return ConstructionSpec.load(args.spec)
    if args.family:
        return _FAMILIES[args.family]()
    raise InvalidSpecError("pass --spec FILE or --family NAME")


def _load_digit_input(args):
    """Digits for count/normality: a binary file or a spec prefix."""
    if args.infile:
        if args.n_max is not None:
            raise InvalidSpecError("--n-max takes digits from a spec; --in reads the whole file")
        return read_digit_file(args.infile)
    if args.spec or args.family:
        if args.n_max is None:
            raise InvalidSpecError("--n-max is required when reading digits from a spec")
        return _load_spec(args).digits_prefix(args.n_max)
    raise InvalidSpecError("pass --in FILE, or --spec/--family with --n-max")


def _checkpoints(args, lo: int) -> tuple[int, ...]:
    """The required ``--checkpoints``: strictly increasing positions, each >= lo."""
    if not args.checkpoints:
        raise InvalidSpecError(f"--checkpoints is required for {args.subcommand}")
    cps = _parse_int_list(args.checkpoints, "checkpoints")
    if not cps:
        raise InvalidSpecError("checkpoint list is empty")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise InvalidSpecError("checkpoints must be strictly increasing")
    if cps[0] < lo:
        raise InvalidSpecError(f"{args.subcommand} checkpoints must be >= {lo}")
    return cps


def _emit_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _emit_csv(header: list[str], rows: list[list], out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit_text(buf.getvalue(), out)


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns a process exit code.
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    spec = _load_spec(args)
    if args.spec_out:
        spec.save(args.spec_out)
    q, digits = assemble(spec, args.n_max)
    if args.digits_out:
        write_digit_file(args.digits_out, digits)
    if args.fmt == "csv":
        rows = [[n + 1, q[n], digits[n]] for n in range(len(digits))]
        _emit_csv(["n", "q", "digit"], rows, args.out)
    else:
        _emit_json(
            {"n_max": args.n_max, "q": list(q), "digits": list(digits.as_tuple())},
            args.out,
        )
    return 0


def _cmd_count(args) -> int:
    digits = _load_digit_input(args)
    block = _parse_int_list(args.block, "block")
    if not block:
        raise InvalidSpecError("block must have at least one digit")
    if args.prefix is not None:
        count = count_prefix_occurrences(block, digits, args.prefix)
        payload = {"block": list(block), "count": count, "positions": args.prefix}
    else:
        count = count_occurrences(block, digits)
        payload = {"block": list(block), "count": count, "length": len(digits)}
    _emit_json(payload, args.out)
    return 0


def _cmd_weights(args) -> int:
    mu = parse_weighting(args.mu)
    block = _parse_int_list(args.block, "block")
    weight = mu.weight(block)
    _emit_json(
        {
            "weighting": args.mu,
            "block": list(block),
            "weight": str(weight),
            "weight_decimal": float(weight),
        },
        args.out,
    )
    return 0


def _cmd_normality(args) -> int:
    digits = _load_digit_input(args)
    mu = parse_weighting(args.mu)
    eps = _parse_fraction(args.eps, "eps")
    verdict = check_eps_k_normal(digits, eps, args.k, mu)
    _emit_json(verdict.to_json(), args.out)
    return 0 if verdict.passed else 1


def _cmd_moments(args) -> int:
    checkpoints = _checkpoints(args, 1)
    if args.const_base is not None:
        Q = BasicSequence.constant(args.const_base)
    else:
        Q = BasicSequence.from_spec(_load_spec(args))
    rows = []
    for n in checkpoints:
        value = q_moment(Q, n, args.k)
        rows.append({"n": n, "k": args.k, "moment": str(value), "moment_decimal": float(value)})
    if args.fmt == "csv":
        _emit_csv(
            ["n", "k", "moment", "moment_decimal"],
            [[r["n"], r["k"], r["moment"], r["moment_decimal"]] for r in rows],
            args.out,
        )
    else:
        _emit_json({"rows": rows}, args.out)
    return 0


def _cmd_orbit(args) -> int:
    checkpoints = _checkpoints(args, 0)
    spec = _load_spec(args)
    exp = CantorExpansion.from_spec(spec)
    rows = []
    for n in checkpoints:
        iv = orbit_point(exp, n, tail=args.tail)
        j = spec.t0_index(n) if n < spec.total_length else None
        rows.append(
            {
                "n": n,
                "j": j,
                "lo": str(iv.lo),
                "hi": str(iv.hi),
                "lo_decimal": float(iv.lo),
                "hi_decimal": float(iv.hi),
            }
        )
    if args.fmt == "csv":
        _emit_csv(
            ["n", "j", "lo", "hi", "lo_decimal", "hi_decimal"],
            [[r["n"], r["j"], r["lo"], r["hi"], r["lo_decimal"], r["hi_decimal"]] for r in rows],
            args.out,
        )
    else:
        _emit_json({"tail": args.tail, "rows": rows}, args.out)
    return 0


def _read_sequence_file(path: str) -> tuple[Fraction, ...]:
    values: list[Fraction] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            for piece in line.replace(",", " ").split():
                try:
                    values.append(Fraction(piece))
                except (ValueError, ZeroDivisionError) as exc:
                    raise InvalidSpecError(
                        f"{path}:{line_no}: bad value {piece!r}; expected p/q or decimal"
                    ) from exc
    if not values:
        raise InvalidSpecError(f"{path}: no values found")
    return tuple(values)


def _read_families(path: str) -> list[tuple[int, int, Fraction]]:
    """The kn2 families file: a JSON list of [copies, length, eps] triples."""
    with open(path, "r", encoding="utf-8") as fh:
        fams = json.load(fh)
    rows_ok = isinstance(fams, list) and all(
        isinstance(f, list) and len(f) == 3 and type(f[0]) is type(f[1]) is int for f in fams
    )
    if not rows_ok:
        raise InvalidSpecError(f"{path}: expected a JSON list of [copies, length, eps] with integer copies and length")
    return [(c, ln, _parse_fraction(str(e), "family eps")) for c, ln, e in fams]


def _cmd_discrepancy(args) -> int:
    zs = _read_sequence_file(args.infile)
    d_star = star_discrepancy(zs)
    payload: dict = {
        "n": len(zs),
        "discrepancy": str(d_star),
        "discrepancy_decimal": float(d_star),
        "bounds": {},
        "within": {},
    }
    wanted = [b.strip() for b in (args.bounds or "").split(",") if b.strip()]
    for name in wanted:
        if name == "kn1":
            # kn1_bound of the sorted points: the displacement formula is
            # exact on sorted input, so it is the same sweep as D* itself
            bound = d_star
        elif name == "kn2":
            if not args.families:
                raise InvalidSpecError("--families FILE is required for the kn2 bound")
            bound = concat_bound(_read_families(args.families))
        elif name == "e1l":
            if args.e1l_base is None or args.e1l_eps is None:
                raise InvalidSpecError("--e1l-base and --e1l-eps are required for the e1l bound")
            bound = e1l_bound(args.e1l_base, _parse_fraction(args.e1l_eps, "e1l eps"), len(zs))
        else:
            raise InvalidSpecError(f"unknown bound {name!r}; choose from kn1, kn2, e1l")
        payload["bounds"][name] = str(bound)
        payload["within"][name] = d_star <= bound
    _emit_json(payload, args.out)
    return 0 if all(payload["within"].values()) else 1


def _cmd_verify(args) -> int:
    if args.all and (args.claim is not None or args.grid is not None):
        raise InvalidSpecError("--all runs the default jobs; it takes no --claim or --grid")
    if args.budget is not None and not args.all:
        raise InvalidSpecError("--budget applies only to --all")
    if args.all:
        budget = parse_budget(args.budget) if args.budget else None
        certs, skipped, overruns = run_all(budget_seconds=budget)
        meta = {"overruns": overruns}
    else:
        if not args.claim:
            raise InvalidSpecError("pass --claim NAME or --all")
        grid = parse_grid(args.grid) if args.grid else None
        certs = run_claim(args.claim, grid)
        meta = {}
    cert_json = [c.to_json() for c in certs]  # each built once, for the output and the sidecar
    if args.all:
        payload = {"certificates": cert_json, "skipped": skipped}
    else:
        payload = cert_json[0] if len(cert_json) == 1 else cert_json
    _emit_json(payload, args.out)
    if args.out:
        runtimes = [
            {"claim": c.claim, "params": j["params"], "runtime_seconds": c.runtime_seconds,
             "minor_faults": c.minor_faults}
            for c, j in zip(certs, cert_json)
        ]
        with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump({"runtimes": runtimes} | meta, fh, indent=2)
            fh.write("\n")
    return 0 if all(c.passed for c in certs) else 1


def _cmd_report(args) -> int:
    checkpoints = _checkpoints(args, 1)
    spec = _load_spec(args)
    exp = CantorExpansion.from_spec(spec)
    block = _parse_int_list(args.block, "block")
    if not block:
        raise InvalidSpecError("block must have at least one digit")
    ratios = []
    for n in checkpoints:
        ratio = normality_ratio(exp, block, n)
        ratios.append({"n": n, "ratio": str(ratio), "ratio_decimal": float(ratio)})
    orbits = []
    for n in checkpoints:
        if n + args.tail <= spec.total_length:
            iv = orbit_point(exp, n, tail=args.tail)
            orbits.append({"n": n, "lo": str(iv.lo), "hi": str(iv.hi)})
        else:
            orbits.append({"n": n, "lo": None, "hi": None})
    d_traj = []
    for n in checkpoints:
        d = star_discrepancy_from_counts(scaled_value_counts(spec, n), n)
        d_traj.append({"n": n, "d_star": str(d), "d_star_decimal": float(d)})
    bars = []
    if spec.family == "qde-scaled":
        for n, i, hyp, bar in epsbar_rows(spec, checkpoints):
            row: dict = {"n": n, "i": i, "epsbar": None if bar is None else str(bar)}
            if bar is not None:
                row["epsbar_decimal"] = float(bar)
            elif hyp is not None:
                row["unmet"] = list(hyp.failures)
            bars.append(row)
    payload = {
        "family": spec.family,
        "block": list(block),
        "normality_ratios": ratios,
        "orbit_enclosures": orbits,
        "d_star_trajectory": d_traj,
        "epsbar_trajectory": bars,
    }
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _add_sources(p: argparse.ArgumentParser):
    """Add --spec and --family as exclusive input sources; return their group
    so that a subcommand's other source can join it."""
    sources = p.add_mutually_exclusive_group()
    sources.add_argument("--spec", metavar="FILE", help="construction spec JSON file")
    sources.add_argument(
        "--family",
        choices=sorted(_FAMILIES),
        help="use a built-in construction family with default parameters",
    )
    return sources


# the run-wide options; a subcommand takes only those its handler reads
_RUN_FLAGS = {
    "--cap": {
        "type": int,
        "help": "size cap on digits materialized, runs or blocks enumerated and "
        "positions looped over, on every path (default CNL_SIZE_CAP, else 10^8)",
    },
    "--tail": {"type": int, "default": 64, "help": "enclosure tail length M (default 64)"},
    "--checkpoints": {"help": "comma-separated strictly increasing positions"},
    "--format": {"dest": "fmt", "choices": ("json", "csv"), "default": "json"},
}


def _add_run_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_RUN_FLAGS[flag])
    p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnl",
        description="Exact tooling for varying-base digit expansions: "
        "constructions, block counts, orbits, discrepancy, verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="materialize a construction prefix")
    _add_sources(p)
    p.add_argument("--n-max", type=int, required=True, help="how many positions to emit")
    p.add_argument("--digits-out", metavar="FILE", help="also write digits in the binary format")
    p.add_argument("--spec-out", metavar="FILE", help="also write the spec JSON used")
    _add_run_flags(p, "--cap", "--format")

    p = sub.add_parser("count", help="count overlapping occurrences of a block")
    p.add_argument("--block", required=True, help="comma-separated digits, e.g. 1,2")
    _add_sources(p).add_argument("--in", dest="infile", metavar="FILE", help="binary digit file")
    p.add_argument("--n-max", type=int, help="digits to take from the spec")
    p.add_argument("--prefix", type=int, help="count only occurrences starting in the first N positions")
    _add_run_flags(p, "--cap")

    p = sub.add_parser("weights", help="digit weighting operations")
    p.add_argument("weights_op", choices=("eval",))
    p.add_argument("--mu", required=True, help="weighting token: uniform:B or nu:B")
    p.add_argument("--block", required=True, help="comma-separated digits")
    _add_run_flags(p)

    p = sub.add_parser("normality", help="block-frequency normality checks")
    p.add_argument("normality_op", choices=("check",))
    _add_sources(p).add_argument("--in", dest="infile", metavar="FILE", help="binary digit file")
    p.add_argument("--n-max", type=int, help="digits to take from the spec")
    p.add_argument("--eps", required=True, help="tolerance, e.g. 1/2")
    p.add_argument("--k", type=int, required=True, help="maximum block length checked")
    p.add_argument("--mu", required=True, help="weighting token: uniform:B or nu:B")
    _add_run_flags(p, "--cap")

    p = sub.add_parser("moments", help="expected block-count normalizers at checkpoints")
    _add_sources(p).add_argument(
        "--const-base", type=int, help="use a constant base sequence instead of a spec"
    )
    p.add_argument("--k", type=int, default=1, help="block length (default 1)")
    _add_run_flags(p, "--cap", "--checkpoints", "--format")

    p = sub.add_parser("orbit", help="exact enclosures of shifted values")
    _add_sources(p)
    _add_run_flags(p, "--cap", "--tail", "--checkpoints", "--format")

    p = sub.add_parser("discrepancy", help="exact star discrepancy of a point file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE",
                   help="values in [0,1), one or more per line, p/q or decimal")
    p.add_argument("--bounds", help="comma-separated bound names: kn1,kn2,e1l")
    p.add_argument("--families", metavar="FILE", help="JSON [[copies,length,eps],...] for kn2")
    p.add_argument("--e1l-base", type=int, help="digit base for the e1l bound")
    p.add_argument("--e1l-eps", help="frequency tolerance for the e1l bound")
    _add_run_flags(p)

    p = sub.add_parser("verify", help="run claim verifications, emit certificates")
    p.add_argument("--claim", choices=sorted(CLAIMS), help="claim id")
    p.add_argument("--grid", help="parameter grid, e.g. b=2..6,w=1..3")
    p.add_argument("--all", action="store_true", help="run the default verification jobs")
    p.add_argument("--budget", help="time budget for --all, e.g. 10min")
    _add_run_flags(p, "--cap")

    p = sub.add_parser("report", help="combined document for a construction")
    _add_sources(p)
    p.add_argument("--block", default="0", help="block for normality ratios (default: 0)")
    _add_run_flags(p, "--cap", "--tail", "--checkpoints")

    return parser


_DISPATCH = {
    "construct": _cmd_construct,
    "count": _cmd_count,
    "weights": _cmd_weights,
    "normality": _cmd_normality,
    "moments": _cmd_moments,
    "orbit": _cmd_orbit,
    "discrepancy": _cmd_discrepancy,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # weights and discrepancy reach no size check, so they take no --cap
    cap = getattr(args, "cap", None)
    try:
        with size_cap(cap) if cap is not None else contextlib.nullcontext():
            return _DISPATCH[args.subcommand](args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidSpecError, NeedsMoreDigitsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault in the library, not in the input
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
