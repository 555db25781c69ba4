"""Acceptance suite: one test and one summary line per criterion.

A shared randomized corpus (fixed seed) of curves, points, and their halves
backs criteria 1-4 and 6; the remaining criteria use fixed fixtures.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from jachalf.field import ctx_new
from jachalf.halving import halve, recover_tuple
from jachalf.jacobian import Point, add, curve_new, negate, to_class, torsion_scan, zero_class
from jachalf.poly import Poly, gcd
from jachalf.rationality import (
    all_halves_rational,
    class_is_rational,
    divisible_by_two,
    frobenius_divisor,
)

from conftest import ACCEPTANCE_LINES
from helpers import affine_points, make_ctx, random_curve

SEED = 20250824
GENERA = (1, 2, 3)
PRIMES = (5, 7, 11, 13)
CURVES_PER_CELL = 25
POINTS_PER_CURVE = 4


def _report(n, ok, detail):
    ACCEPTANCE_LINES.append(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


class Sample:
    __slots__ = ("curve", "point", "halves")

    def __init__(self, curve, point, halves):
        self.curve = curve
        self.point = point
        self.halves = halves


class Corpus:
    def __init__(self):
        rng = random.Random(SEED)
        self.cells = {}
        t0 = time.perf_counter()
        for g in GENERA:
            for p in PRIMES:
                ctx = make_ctx(p, g)
                samples = []
                for _ in range(CURVES_PER_CELL):
                    curve = random_curve(ctx, g, rng)
                    pts = affine_points(curve)
                    for _ in range(POINTS_PER_CURVE):
                        point = rng.choice(pts)
                        samples.append(Sample(curve, point, halve(point, verify=False)))
                self.cells[(g, p)] = samples
        self.build_seconds = time.perf_counter() - t0

    def samples(self):
        for cell in self.cells.values():
            yield from cell


@pytest.fixture(scope="module")
def corpus():
    return Corpus()


def test_criterion_1_halving_correctness(corpus):
    """2^{2g} pairwise-distinct halves, each doubling back to the point."""
    t0 = time.perf_counter()
    bad = 0
    n_points = 0
    for s in corpus.samples():
        n_points += 1
        g = s.curve.g
        keys = {h.divisor.key() for h in s.halves}
        if len(s.halves) != 4**g or len(keys) != 4**g:
            bad += 1
            continue
        target = to_class(s.point)
        if any(add(h.divisor, h.divisor) != target for h in s.halves):
            bad += 1
    elapsed = corpus.build_seconds + (time.perf_counter() - t0)
    _report(
        1,
        bad == 0 and elapsed < 60,
        f"{n_points} points across g in {GENERA} x p in {PRIMES}, "
        f"{bad} failures, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_eq3_identity(corpus):
    """f - v_D^2 = (x - a) * U^2 coefficient-exactly for every half."""
    bad = 0
    total = 0
    for s in corpus.samples():
        ctx = s.curve.ctx
        f = s.curve.f
        a = s.point.a
        xma = Poly(ctx.tower, (-a, 1))
        for h in s.halves:
            total += 1
            if f - h.v_d * h.v_d != xma * h.U * h.U:
                bad += 1
    _report(2, bad == 0, f"identity holds for {total - bad}/{total} classes")


def test_criterion_3_structure(corpus):
    """U monic of degree g, gcd(U, f) = 1, deg V < g, and the sampled point
    never lies in a half's support (a root of U at x = a forces V(a) = -b,
    i.e. only the involuted point can appear there)."""
    bad = 0
    total = 0
    for s in corpus.samples():
        g = s.curve.g
        f = s.curve.f
        a = s.point.a
        b = s.point.b
        for h in s.halves:
            total += 1
            ok = (
                h.U.degree() == g
                and h.U.is_monic()
                and h.V.degree() < g
                and gcd(h.U, f).degree() == 0
            )
            if ok and h.U(a).is_zero():
                ok = (not b.is_zero()) and h.V(a) == -b
            if not ok:
                bad += 1
    _report(3, bad == 0, f"structure + support exclusion on {total} classes, {bad} bad")


@pytest.mark.xfail(
    strict=True,
    reason="a stronger reading - U never vanishing at x = a - fails whenever the "
    "input has odd order and a half's support contains the involuted point; "
    "see the order-3 counterexample",
)
def test_criterion_3_strict_u_at_a_nonvanishing():
    curve = curve_new(ctx_new(13, [1]), [0, 2, 5])
    p = Point(curve, 1, 2)  # order 3: 2*cl(P) = cl(iota(P))
    a = p.a
    assert all(not h.U(a).is_zero() for h in halve(p, verify=False))


def test_criterion_4_root_recovery(corpus):
    """recover_tuple inverts mumford_from_tuple on every generated tuple."""
    bad = 0
    total = 0
    for s in corpus.samples():
        for h in s.halves:
            total += 1
            if recover_tuple(h).r != h.tuple.r:
                bad += 1
    _report(4, bad == 0, f"round-trip exact on {total - bad}/{total} tuples")


def test_criterion_5_order_four_example():
    """halve((1,0)) on y^2 = x^3 - x over F_7 is the four order-4 classes."""
    curve = curve_new(ctx_new(7, [1]), [0, 1, 6])
    w = Point(curve, 1, 0)
    halves = halve(w)
    got = {
        (h.U.encode()[0][0], h.V.encode()[0][0] if h.V.coeffs else 0) for h in halves
    }
    expected = {(3, 2), (3, 5), (2, 1), (2, 6)}  # (x-4, +-2), (x-5, +-1)
    target = to_class(w)
    ok = got == expected
    for h in halves:  # order exactly 4: 2a = cl(W) != 0 and 4a = 0
        two = add(h.divisor, h.divisor)
        four = add(two, two)
        ok = ok and two == target and not two.is_zero() and four.is_zero()
    _report(5, ok, "halve((1,0)) = {(x-4,2),(x-4,5),(x-5,1),(x-5,6)}, each of order 4")


def test_criterion_6_rationality_equivalences(corpus):
    """Over prime-field cells: class rationality = Frobenius-fixedness;
    all-rational and divisible-by-two match the rational-class count."""
    points = 0
    bad = 0
    for (g, p), samples in corpus.cells.items():
        if samples[0].curve.ctx.k != 1:
            continue  # rationality statements need f in F_p[x]
        for s in samples:
            points += 1
            count = 0
            for h in s.halves:
                rational = class_is_rational(h)
                if rational != (frobenius_divisor(h.divisor) == h.divisor):
                    bad += 1
                count += rational
            if all_halves_rational(s.point) != (count == 4**g):
                bad += 1
            if divisible_by_two(s.point) != (count >= 1):
                bad += 1
    _report(
        6,
        bad == 0 and points >= 500,
        f"{points} rational points (>= 500), {bad} counterexamples",
    )


def test_criterion_7_torsion_scan():
    """Exhaustive scan of y^2 = x^5 - x over F_49: no order-3/4 points and
    every non-2-torsion double has deg U = 2."""
    ctx = ctx_new(7, [1, 0, 1])
    t = ctx.generator()
    curve = curve_new(ctx, [ctx.from_int(0), ctx.from_int(1), ctx.from_int(6), t, -t])
    t0 = time.perf_counter()
    report = torsion_scan(curve, 4)
    elapsed = time.perf_counter() - t0
    ok = report["violations"] == [] and report["points_scanned"] > 0 and elapsed < 30
    _report(
        7,
        ok,
        f"{report['points_scanned']} points scanned, "
        f"{len(report['violations'])} violations, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_8_group_law_consistency(corpus):
    """Associativity, identity, inverse on 200 random triples per cell;
    every sum passes Mumford validation."""
    rng = random.Random(SEED + 8)
    bad = 0
    triples = 0
    for (g, p), samples in corpus.cells.items():
        curve = samples[0].curve
        pts = affine_points(curve)
        pool = [to_class(rng.choice(pts)) for _ in range(20)]
        pool += [add(rng.choice(pool), rng.choice(pool)) for _ in range(12)]
        zero = zero_class(curve)
        for _ in range(200):
            triples += 1
            d1, d2, d3 = (rng.choice(pool) for _ in range(3))
            lhs = add(add(d1, d2), d3)
            rhs = add(d1, add(d2, d3))
            try:
                lhs.validate()
                rhs.validate()
            except Exception:
                bad += 1
                continue
            if lhs != rhs:
                bad += 1
            if add(d1, zero) != d1 or not add(d1, negate(d1)).is_zero():
                bad += 1
    _report(8, bad == 0, f"{triples} triples across 12 cells, {bad} failures")


def test_criterion_9_cli_determinism(tmp_path):
    """Two consecutive selftest runs emit byte-identical output."""
    runs = [
        subprocess.run(
            [sys.executable, "-m", "jachalf.cli", "selftest"],
            capture_output=True,
        )
        for _ in range(2)
    ]
    ok = (
        runs[0].returncode == 0
        and runs[1].returncode == 0
        and runs[0].stdout == runs[1].stdout
        and runs[0].stdout
    )
    _report(9, bool(ok), f"{len(runs[0].stdout)} bytes, identical across two runs")
