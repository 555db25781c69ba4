"""Command-line interface.

Subcommands: halve, group, check, torsion-scan, selftest.  All results are
emitted as JSON lines with sorted keys, so output is byte-deterministic for
fixed inputs.

Exit codes: 0 on success, 1 for a failed selftest or an internal error (a
library bug, never an input error), and otherwise the ``exit_code`` that the
raised error's class declares in errors.py, which lists what each code means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .errors import InfinityInput, InvalidDivisor, JachalfError, ParseError
from .field import ctx_new
from .poly import Poly
from .jacobian import (
    Curve,
    MumfordDivisor,
    Point,
    add,
    curve_new,
    double,
    negate,
    scalar_mul,
    to_class,
    torsion_scan,
)
from .halving import halve
from .rationality import (
    all_halves_rational_report,
    class_is_rational,
    divisible_by_two_report,
)

_KEEP = 200  # characters kept at each end of a long error message


def _clip(message):
    """A long message keeps its head, which names the input, and its tail,
    which says what is wrong with it; the middle is cut and marked."""
    cut = len(message) - 2 * _KEEP
    if cut <= 40:  # no shorter than with the mark
        return message
    return f"{message[:_KEEP]} [... {cut} characters cut ...] {message[-_KEEP:]}"


def _emit(obj):
    sys.stdout.write(json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n")


@contextlib.contextmanager
def _parsing(what):
    """Turn the builtin errors of reading `what` into a ParseError naming it."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{what} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ParseError(f"{what}: {exc}") from exc
    except RecursionError as exc:  # JSON nested deeper than the parser recurses
        raise ParseError(f"{what} is nested too deeply") from exc


def _read_json(path, what):
    try:
        with open(path) as fh, _parsing(f"{what} {path}"):
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc


def load_curve(path):
    data = _read_json(path, "curve file")
    with _parsing(f"curve file {path}"):
        p = data["p"]
        modulus = data["modulus"]
        roots = data["roots"]
        ctx = ctx_new(p, modulus)
        roots = [ctx.decode(r) for r in roots]
    return curve_new(ctx, roots)


def parse_point(curve, text):
    text = text.strip()
    if text.lower() in ("inf", "infinity"):
        return Point.infinity(curve)
    ctx = curve.ctx
    if text.startswith("["):
        with _parsing(f"point {text!r}"):
            enc = json.loads(text)
            if not isinstance(enc, list) or len(enc) != 2:
                raise ParseError(f"point encoding must be [a, b]: {text!r}")
            a, b = ctx.decode(enc[0]), ctx.decode(enc[1])
        return Point(curve, a, b)
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 'a,b' or JSON [a, b]: {text!r}")
    with _parsing(f"point {text!r}"):
        a, b = int(parts[0]), int(parts[1])
    return Point(curve, a, b)


def load_divisor(curve, path):
    data = _read_json(path, "divisor file")
    try:
        return parse_divisor(curve, data)
    except (InvalidDivisor, ParseError) as exc:
        raise type(exc)(f"divisor file {path}: {exc}") from exc


def parse_divisor(curve, data):
    ctx = curve.ctx
    with _parsing(f"divisor {data!r}"):
        u = Poly(ctx, [ctx.decode(c) for c in data["U"]])
        v = Poly(ctx, [ctx.decode(c) for c in data["V"]])
    return MumfordDivisor(curve, u, v, validate=True)


def _halve_records(point, rational_only):
    for half in halve(point):
        rational = class_is_rational(half)
        if rational_only and not rational:
            continue
        yield {
            "U": half.U.encode(),
            "V": half.V.encode(),
            "rational": rational,
            "tuple_index": half.index,
        }


def cmd_halve(args):
    curve = load_curve(args.curve)
    point = parse_point(curve, args.point)
    for record in _halve_records(point, args.rational_only):
        _emit(record)
    return 0


def cmd_group(args):
    curve = load_curve(args.curve)
    operands = [load_divisor(curve, path) for path in args.divisor]
    operands += [to_class(parse_point(curve, text)) for text in args.point]
    need = {"add": 2, "double": 1, "neg": 1, "mul": 1}[args.op]
    if len(operands) != need:
        raise ParseError(f"op {args.op} needs {need} operand(s), got {len(operands)}")
    if args.op == "add":
        out = add(operands[0], operands[1])
    elif args.op == "double":
        out = double(operands[0])
    elif args.op == "neg":
        out = negate(operands[0])
    else:
        if args.scalar is None:
            raise ParseError("mul needs --scalar")
        with _parsing("--scalar"):
            n = int(args.scalar)
        out = scalar_mul(n, operands[0])
    _emit(out.encode())
    return 0


def cmd_check(args):
    curve = load_curve(args.curve)
    point = parse_point(curve, args.point)
    if point.infinite:
        raise InfinityInput("check needs an affine point")
    if args.which == "divisible-by-2":
        _emit(divisible_by_two_report(point))
    else:
        _emit(all_halves_rational_report(point))
    return 0


def cmd_torsion_scan(args):
    curve = load_curve(args.curve)
    report = torsion_scan(curve, args.max_order)
    _emit(report)
    return 0


def _selftest_curve():
    ctx = ctx_new(7, [1])
    return curve_new(ctx, [0, 1, 6])


def cmd_selftest(args):
    """F_7 fixtures; exits nonzero if any frozen expectation fails."""
    curve = _selftest_curve()
    ok = True

    # the four halves of (1, 0): the points (4, 2), (5, 6), (5, 1), (4, 5)
    expected_halves = [
        {"U": [[3], [1]], "V": [[2]], "rational": True, "tuple_index": 0},
        {"U": [[2], [1]], "V": [[6]], "rational": True, "tuple_index": 1},
        {"U": [[2], [1]], "V": [[1]], "rational": True, "tuple_index": 2},
        {"U": [[3], [1]], "V": [[5]], "rational": True, "tuple_index": 3},
    ]
    records = list(_halve_records(Point(curve, 1, 0), False))
    for record in records:
        _emit(record)
    ok &= records == expected_halves

    d = to_class(Point(curve, 4, 2))
    doubled = double(d)
    _emit(doubled.encode())
    ok &= doubled.encode() == {"U": [[6], [1]], "V": []}  # (x - 1, 0)
    quadrupled = scalar_mul(4, d)
    _emit(quadrupled.encode())
    ok &= quadrupled.is_zero()

    report = divisible_by_two_report(Point(curve, 1, 0))
    _emit({"result": report["result"], "witness": report["witness"]})
    ok &= report["result"] is True
    report = divisible_by_two_report(Point(curve, 4, 2))
    _emit({"result": report["result"], "witness": report["witness"]})
    ok &= report["result"] is False

    report = all_halves_rational_report(Point(curve, 1, 0))
    _emit(report)
    ok &= report["result"] is True

    scan = torsion_scan(curve, 4)
    _emit(scan)
    ok &= scan["violations"] == []

    _emit({"selftest": "pass" if ok else "fail"})
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jachalf",
        description="Divisor-class arithmetic and point halving on odd-degree "
        "hyperelliptic Jacobians over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("halve", help="all 2^{2g} halves of a curve point")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--point", required=True, help="point as 'a,b' or JSON [a, b]")
    p.add_argument("--rational-only", action="store_true", dest="rational_only")
    p.set_defaults(func=cmd_halve)

    p = sub.add_parser("group", help="Jacobian group operations on Mumford pairs")
    p.add_argument("--curve", required=True)
    p.add_argument("op", choices=["add", "double", "neg", "mul"])
    p.add_argument("--divisor", action="append", default=[], help="divisor JSON file")
    p.add_argument("--point", action="append", default=[], help="point operand 'a,b'")
    p.add_argument("--scalar", help="decimal multiplier for mul")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("check", help="rationality predicates for a point")
    p.add_argument("--curve", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("which", choices=["divisible-by-2", "all-rational"])
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("torsion-scan", help="exhaustive small-order scan")
    p.add_argument("--curve", required=True)
    p.add_argument("--max-order", type=int, default=4, dest="max_order")
    p.set_defaults(func=cmd_torsion_scan)

    p = sub.add_parser("selftest", help="run the built-in F_7 fixtures")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except JachalfError as exc:
        if exc.exit_code != 1:
            print(f"error: {_clip(str(exc))}", file=sys.stderr)
            return exc.exit_code
        bug = exc
    except Exception as exc:
        bug = exc
    # a library bug, never an input error
    print(f"internal error: {_clip(f'{type(bug).__name__}: {bug}')}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
