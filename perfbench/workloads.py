"""The four workloads: their inputs, timed operations and output checks.

Each workload builds its fixed contexts in `__init__` (the program's
set-up), then hands out rounds.  A round is a fixed list of operation
slots; the seed only chooses the curves, points and scalars that fill them,
so every run times the same mix of operation kinds and the latency
percentiles fall inside a slot group rather than on the edge between two.

Inputs go to jachalf only as what a caller would pass: context parameters,
encoded field elements, ints, and curve files for the CLI.  The checks use
`ffcheck`, the JSON encodings of the results, and group-law identities.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import namedtuple

from ffcheck import (
    Tower,
    euler,
    primes_between,
    smallest_nonresidue,
    sqrt_mod,
)

_towers = {}


def tower(p, modulus):
    key = (p, tuple(modulus))
    if key not in _towers:
        _towers[key] = Tower(p, modulus)
    return _towers[key]


def _int_poly(roots, p):
    f = [1]
    for r in roots:
        f = [(a - r * b) % p for a, b in zip([0] + f, f + [0])]
    return f


def _eval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _rational_point(f, p, rng):
    """(a, b) in F_p^2 on y^2 = f(x), a uniform among x with f(x) a square."""
    while True:
        a = rng.randrange(p)
        fa = _eval(f, a, p)
        if euler(fa, p) >= 0:
            b = sqrt_mod(fa, p)
            return a, (p - b) % p if rng.random() < 0.5 else b


def _count_affine(f, p):
    return sum(1 + euler(_eval(f, x, p), p) for x in range(p))


def _check_records(out, rc, p, modulus, roots_enc, g, problems):
    """A `jachalf halve` stdout: 4^g JSON records, each a valid half."""
    if rc != 0:
        problems.append(f"halve request exited {rc}")
        return
    try:
        records = [json.loads(line) for line in out.splitlines()]
    except json.JSONDecodeError as exc:
        problems.append(f"stdout line is not JSON: {exc}")
        return
    n = 4**g
    if len(records) != n:
        problems.append(f"{len(records)} records for genus {g}, expected {n}")
    if sorted(r["tuple_index"] for r in records) != list(range(n)):
        problems.append("tuple_index values are not 0..4^g-1")
    if len({json.dumps([r["U"], r["V"]]) for r in records}) != len(records):
        problems.append("halves are not pairwise distinct")
    T = tower(p, modulus)
    f = T.from_roots([T.decode(r) for r in roots_enc])
    for r in records:
        problems.extend(T.check_mumford(f, r["U"], r["V"], g, exact_degree=True))
        rational = all(T.q_in_prime_field(T.decode(c)) for c in r["U"] + r["V"])
        if r["rational"] is not rational:
            problems.append("'rational' disagrees with the coefficients")


class Workload:
    """Interface the runner drives; see run.py.

    Each subclass says in its docstring what one timed op is and what one
    item (the unit of items_per_s) is.
    """

    name = ""

    def make_round(self, rng):
        """Untimed: the inputs of one round, as a list of op inputs."""
        raise NotImplementedError

    def side_calls(self, ops):
        """Library calls made once per round outside the timed ops."""
        return None

    def run(self, op, state):
        """The timed operation; `state` holds this round's earlier outputs."""
        raise NotImplementedError

    def items(self, op):
        return 1

    def check(self, ops, side, outs):
        """Problems found in one round's outputs, as a list of strings."""
        raise NotImplementedError

    def fingerprint(self, out):
        """A plain-data form of an output, to compare traced with untraced."""
        return out

    def expected_counts(self, ops):
        """Exact span counts the traced run must show for one round."""
        return {}


# -- halve-small-fields --------------------------------------------------------


Cell = namedtuple("Cell", "g p ctx T elements")


class HalveSmallFields(Workload):
    """Op: halve(P, verify=True), then class_is_rational on every class
    (k = 1 cells only), for a point on the acceptance grid.  Item: the point."""

    name = "halve-small-fields"
    GRID = [(g, p) for g in (1, 2, 3) for p in (5, 7, 11, 13)]

    def __init__(self, J, rng, tmp):
        self.J = J
        self.cells = []
        for g, p in self.GRID:
            # F_p when it holds the 2g+1 roots and two more x-values, else F_{p^2}
            modulus = [1] if p >= 2 * g + 3 else [(-smallest_nonresidue(p)) % p, 0, 1]
            T = tower(p, modulus)
            self.cells.append(Cell(g, p, J.ctx_new(p, modulus), T, list(T.elements())))
        for cell in self.cells:  # first call per context: the lazy non-square search
            J.halve(self._draw(cell, rng)["P"])

    def _draw(self, cell, rng):
        T, ctx = cell.T, cell.ctx
        roots = rng.sample(cell.elements, 2 * cell.g + 1)
        while True:
            a = rng.choice(cell.elements)
            fa = T.one
            for r in roots:
                fa = T.mul(fa, T.sub(a, r))
            if T.is_square(fa):
                break
        b = T.sqrt(fa)
        if rng.random() < 0.5:
            b = T.sub(T.zero, b)
        J = self.J
        curve = J.curve_new(ctx, [ctx.decode(list(r)) for r in roots])
        point = J.Point(curve, ctx.decode(list(a)), ctx.decode(list(b)))
        return {"cell": cell, "roots": roots, "a": a, "P": point}

    def make_round(self, rng):
        return [self._draw(cell, rng) for cell in self.cells]

    def run(self, op, state):
        J = self.J
        halves = J.halve(op["P"], verify=True)
        if op["cell"].T.k != 1:
            # class_is_rational raises on some halves of points outside F_p
            return halves, []
        return halves, [J.class_is_rational(h) for h in halves]

    def fingerprint(self, out):
        halves, flags = out
        return [h.divisor.encode() for h in halves], flags

    def expected_counts(self, ops):
        return {
            "halving.mumford_from_tuple": sum(4 ** op["cell"].g for op in ops),
            "jacobian.torsion_scan": 0,
            "cli.main": 0,
        }

    def check(self, ops, side, outs):
        J = self.J
        problems = []
        for op, (halves, flags) in zip(ops, outs):
            g, p, T = op["cell"].g, op["cell"].p, op["cell"].T
            n = 4**g
            encs = [h.divisor.encode() for h in halves]
            if len(encs) != n or len({json.dumps(e, sort_keys=True) for e in encs}) != n:
                problems.append(f"g={g} p={p}: {len(encs)} classes, expected {n} distinct")
            f = T.from_roots([T.lift(r) for r in op["roots"]])
            for e in encs:
                problems.extend(T.check_mumford(f, e["U"], e["V"], g, exact_degree=True))
            target = J.to_class(op["P"]).encode()
            if any(J.double(h.divisor).encode() != target for h in halves):
                problems.append(f"g={g} p={p}: double(half) != cl(P)")
            for e, flag in zip(encs, flags):
                if flag is not all(T.q_in_prime_field(T.decode(c)) for c in e["U"] + e["V"]):
                    problems.append("class_is_rational disagrees with the coefficients")
            if T.k == 1:
                n_rational = sum(flags)
                all_rat = J.all_halves_rational(op["P"])
                by_two = J.divisible_by_two(op["P"])
                squares = all(euler(op["a"][0] - r[0], p) >= 0 for r in op["roots"])
                if (n_rational == n) is not all_rat or all_rat is not squares:
                    problems.append(f"g={g} p={p}: all_halves_rational disagrees")
                if (n_rational >= 1) is not by_two:
                    problems.append(f"g={g} p={p}: divisible_by_two disagrees")
        return problems


# -- cli-fresh-curve -------------------------------------------------------------

_SMALL = (5, 7, 11, 13)


def _fresh_request(kind, g, p, rng, tmp, tag):
    """A curve file over a field no earlier request used, and its argv."""
    n = 2 * g + 1
    if kind == "k2":
        ns0 = smallest_nonresidue(p)
        modulus = [(-ns0) % p, 0, 1]
        n_pairs = rng.randint(1, g)
        base = rng.sample(range(p), n - 2 * n_pairs)
        roots = [[r, 0] for r in base]
        f = _int_poly(base, p)
        pairs = set()
        while len(pairs) < n_pairs:
            pairs.add((rng.randrange(p), rng.randrange(1, (p + 1) // 2)))
        for c0, c1 in sorted(pairs):  # roots c0 +- c1*t with t^2 = ns0
            roots += [[c0, c1], [c0, p - c1]]
            quad = [(c0 * c0 - ns0 * c1 * c1) % p, (-2 * c0) % p, 1]
            f = [
                sum(f[i] * quad[j - i] for i in range(len(f)) if 0 <= j - i < 3) % p
                for j in range(len(f) + 2)
            ]
        rng.shuffle(roots)
    else:
        modulus = [1]
        base = rng.sample(range(p), n)
        roots = [[r] for r in base]
        f = _int_poly(base, p)
    a, b = _rational_point(f, p, rng)
    path = tmp / f"{tag}-{kind}-g{g}-p{p}-{rng.getrandbits(32):08x}.json"
    path.write_text(json.dumps({"p": p, "modulus": modulus, "roots": roots}))
    return {
        "kind": kind,
        "g": g,
        "p": p,
        "modulus": modulus,
        "roots": roots,
        "argv": ["halve", "--curve", str(path), "--point", f"{a},{b}"],
    }


class CliFreshCurve(Workload):
    """Op and item: one `jachalf halve` request on a new curve file, run in
    process through jachalf.cli.main with stdout captured."""

    name = "cli-fresh-curve"
    # (kind, genus) per slot; cost rises from small to k1 to k2
    SLOTS = [("small", 1), ("small", 2), ("small", 1), ("small", 2)]
    SLOTS += [("k1", 1), ("k1", 2), ("k1", 1), ("k1", 2), ("k2", 1), ("k2", 2)]
    K1_PRIMES = primes_between(10000, 10100)
    K2_PRIMES = (101, 103)

    def __init__(self, J, rng, tmp):
        self.J = J
        self.tmp = tmp
        # one untimed request pays for the interpreter-wide first calls
        self.run(_fresh_request("small", 1, 7, rng, tmp, "warm"), {})

    def make_round(self, rng):
        ops = []
        for kind, g in self.SLOTS:
            if kind == "small":
                p = rng.choice([p for p in _SMALL if p >= 2 * g + 3])
            elif kind == "k1":
                p = rng.choice(self.K1_PRIMES)
            else:
                p = rng.choice(self.K2_PRIMES)
            ops.append(_fresh_request(kind, g, p, rng, self.tmp, "req"))
        return ops

    def run(self, op, state):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.J.cli.main(op["argv"])
        return rc, buf.getvalue()

    def expected_counts(self, ops):
        return {
            "halving.mumford_from_tuple": sum(4 ** op["g"] for op in ops),
            "jacobian.torsion_scan": 0,
            "cli.main": len(ops),
        }

    def check(self, ops, side, outs):
        problems = []
        for op, (rc, out) in zip(ops, outs):
            _check_records(out, rc, op["p"], op["modulus"], op["roots"], op["g"], problems)
        return problems


# -- torsion-scan ---------------------------------------------------------------


class TorsionScan(Workload):
    """Op: one torsion_scan(curve, 4) over a whole tower field F_{q^2}.
    Item: one x-value of F_{q^2} examined."""

    name = "torsion-scan"
    # y^2 = x^5 - x over F_49 = F_7[t]/(t^2 + 1): roots 0, 1, -1, t, -t
    F49_ROOTS = ([0], [1], [6], [0, 1], [0, 6])
    PRIMES = (7, 11, 13)  # genus-1 curves over F_p, scanned over F_{p^2}
    PER_PRIME = 20

    def __init__(self, J, rng, tmp):
        self.J = J
        ctx = J.ctx_new(7, [1, 0, 1])
        self.f49 = J.curve_new(ctx, [ctx.decode(r) for r in self.F49_ROOTS])
        self.ctxs = {p: J.ctx_new(p, [1]) for p in self.PRIMES}
        self._f49_count = None

    def make_round(self, rng):
        ops = [{"curve": self.f49, "p": 7, "x_values": 7**4, "f": None}]
        for _ in range(self.PER_PRIME):
            for p in self.PRIMES:
                roots = rng.sample(range(p), 3)
                curve = self.J.curve_new(self.ctxs[p], roots)
                ops.append({"curve": curve, "p": p, "x_values": p * p, "f": _int_poly(roots, p)})
        return ops

    def run(self, op, state):
        return self.J.torsion_scan(op["curve"], 4)

    def items(self, op):
        return op["x_values"]

    def expected_counts(self, ops):
        return {
            "halving.mumford_from_tuple": 0,
            "jacobian.torsion_scan": len(ops),
            "cli.main": 0,
        }

    def f49_count(self):
        """Affine points of y^2 = x^5 - x over F_{7^4}, counted directly."""
        if self._f49_count is None:
            T = tower(7, [1, 0, 1])
            f = T.from_roots([T.decode(r) for r in self.F49_ROOTS])
            n = 0
            for x in T.qelements():
                fx = T.peval(f, x)
                n += 1 if fx == T.qzero else 2 * T.qis_square(fx)
            self._f49_count = n
        return self._f49_count

    def expected_points(self, op):
        if op["f"] is None:
            return self.f49_count()
        p = op["p"]
        t = p - _count_affine(op["f"], p)  # trace of Frobenius over F_p
        return p * p + 2 * p - t * t  # affine points over F_{p^2}

    def check(self, ops, side, outs):
        problems = []
        for op, report in zip(ops, outs):
            if report["violations"] != []:
                problems.append(f"p={op['p']}: violations {report['violations'][:3]}")
            want = self.expected_points(op)
            if report["points_scanned"] != want:
                problems.append(f"p={op['p']}: {report['points_scanned']} points, expected {want}")
        return problems


# -- large-prime-group -----------------------------------------------------------

P61 = 2**61 - 1


class LargePrimeGroup(Workload):
    """Op and item: one scalar_mul by a 61-bit scalar over F_p, p = 2^61 - 1."""

    name = "large-prime-group"
    GENERA = (1, 2, 3)

    def __init__(self, J, rng, tmp):
        self.J = J
        ctx = J.ctx_new(P61, [1])
        self.curves = {}
        for g in self.GENERA:
            roots = rng.sample(range(P61), 2 * g + 1)
            self.curves[g] = (J.curve_new(ctx, roots), roots, _int_poly(roots, P61))

    def _point(self, g, rng):
        curve, roots, f = self.curves[g]
        a, b = _rational_point(f, P61, rng)
        return self.J.Point(curve, a, b), a, b

    def make_round(self, rng):
        J = self.J
        ops = []
        for g in self.GENERA:
            points = [self._point(g, rng) for _ in range(g)]
            d = J.to_class(points[0][0])
            for pt, _, _ in points[1:]:
                d = J.add(d, J.to_class(pt))
            m, n = (rng.getrandbits(60) | 1 << 60 for _ in range(2))
            common = {"g": g, "D": d, "m": m, "n": n, "points": points}
            ops += [dict(common, slot="mD"), dict(common, slot="nD"), dict(common, slot="mnD")]
        return ops

    def side_calls(self, ops):
        """divisible_by_two and all_halves_rational on every summed point."""
        J = self.J
        return [
            (J.divisible_by_two(pt), J.all_halves_rational(pt))
            for op in ops
            if op["slot"] == "mD"
            for pt, _, _ in op["points"]
        ]

    def run(self, op, state):
        J = self.J
        if op["slot"] == "mD":
            out = J.scalar_mul(op["m"], op["D"])
        elif op["slot"] == "nD":
            out = state[op["g"]] = J.scalar_mul(op["n"], op["D"])
        else:  # m * (n * D), from the nD output of the same round
            out = J.scalar_mul(op["m"], state[op["g"]])
        return out

    def fingerprint(self, out):
        return out.encode()

    def expected_counts(self, ops):
        return {"halving.mumford_from_tuple": 0, "jacobian.torsion_scan": 0, "cli.main": 0}

    def check(self, ops, side, outs):
        J = self.J
        T = tower(P61, [1])
        zero = {"U": [[1]], "V": []}
        problems = []
        by_g = {}
        for op, out in zip(ops, outs):
            by_g.setdefault(op["g"], {"op": op})[op["slot"]] = out
        flags = iter(side)
        for g, r in by_g.items():
            op = r["op"]
            d, m, n = op["D"], op["m"], op["n"]
            sums = [J.scalar_mul(m + n, d), J.scalar_mul(m * n, d), J.add(d, J.negate(d))]
            f = T.from_roots([T.lift((a,)) for a in self.curves[g][1]])
            for div in [d, r["mD"], r["nD"], r["mnD"]] + sums:
                e = div.encode()
                problems.extend(T.check_mumford(f, e["U"], e["V"], g, exact_degree=False))
            if sums[0].encode() != J.add(r["mD"], r["nD"]).encode():
                problems.append(f"g={g}: (m+n)D != mD + nD")
            if sums[1].encode() != r["mnD"].encode():
                problems.append(f"g={g}: m(nD) != (mn)D")
            if sums[2].encode() != zero:
                problems.append(f"g={g}: D + (-D) is not zero")
            roots = self.curves[g][1]
            for _, a, _ in op["points"]:
                by_two, all_rat = next(flags)
                squares = all(euler(a - alpha, P61) >= 0 for alpha in roots)
                if not (by_two is all_rat is squares):
                    problems.append(f"g={g}: rationality predicates disagree with Euler")
        return problems


WORKLOADS = {w.name: w for w in (HalveSmallFields, CliFreshCurve, TorsionScan, LargePrimeGroup)}
