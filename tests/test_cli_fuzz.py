"""Fuzzing the CLI in process: every input maps to the README exit-code table.

Most cases are well-formed curves with points on them, so that the halving,
group and rationality paths run; the rest are malformed curve files,
divisor files and point texts: bad primes, bad moduli, floats, strings,
duplicate roots, points off the curve and `inf`.  Whatever the input,
`main` must return a code from the table that is never 1 (1 means a library
bug), let no exception escape, and start stderr with "error:" on every
nonzero exit.
"""

import contextlib
import io
import json
import math
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jachalf import errors
from jachalf.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TABLE_CODES = {int(c) for c in re.findall(r"^\|\s*(\d+)\s*\|", README.read_text(), re.M)}

# (curve, points on it, divisors on it) over F_{p^2}; the F_25 point's
# halves need the tower
TOWER_CASES = [
    (
        {"p": 7, "modulus": [1, 0, 1], "roots": [[0, 0], [1, 0], [6, 0], [0, 1], [0, 6]]},
        ["[[3,0],[3,0]]", "[[1,0],[0,0]]"],
        [{"U": [[0, 1], [1]], "V": []}],
    ),
    (
        {"p": 5, "modulus": [3, 0, 1], "roots": [[4, 1], [0, 3], [1, 4], [1, 3], [0, 4]]},
        ["[[3,1],[2,0]]"],
        [],
    ),
]

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
junk = st.one_of(
    st.floats(),
    text,
    st.booleans(),
    st.none(),
    st.integers(-(10**30), 10**30),
    st.dictionaries(text, st.integers(), max_size=2),
)
primes = st.sampled_from([3, 5, 7, 11, 13, 2**61 - 1])
bad_p = st.one_of(st.sampled_from([-7, 0, 1, 2, 4, 9, 15, 2**89 - 1, 7.0, "7"]), junk)
moduli = st.one_of(
    st.just([1]),
    st.sampled_from([[1, 0, 1], [2, 0, 1], [3, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0, 1]]),
    st.lists(st.integers(-3, 14), max_size=4),
    st.lists(junk, max_size=3),
    junk,
)
small = st.integers(-2, 14)
base_elem = st.lists(small, min_size=1, max_size=2)
elems = st.one_of(
    base_elem,
    base_elem,
    st.lists(base_elem, min_size=2, max_size=2),
    st.lists(st.one_of(small, junk), max_size=3),
    junk,
)
malformed_curves = st.one_of(
    st.fixed_dictionaries(
        {
            "p": st.one_of(primes, bad_p),
            "modulus": moduli,
            "roots": st.one_of(st.lists(elems, max_size=7), junk),
        }
    ),
    st.fixed_dictionaries({"p": primes, "modulus": moduli}),
    st.lists(small, max_size=2),
    junk,
)
points = st.one_of(
    st.builds("{},{}".format, small, small),
    st.builds(lambda a, b: json.dumps([a, b]), elems, elems),
    st.sampled_from(
        [
            "inf",
            "Infinity",
            "",
            ",",
            "1,2,3",
            "1.5,2",
            "[1]",
            "[[1e400],[1]]",
            "[[[0],[1]],[[3],[5]]]",
            "[" * 5000 + "]" * 5000,
        ]
    ),
    text,
)
divisors = st.one_of(
    st.fixed_dictionaries(
        {"U": st.lists(elems, max_size=4), "V": st.lists(elems, max_size=3)}
    ),
    junk,
)
commands = st.sampled_from(
    [
        ["halve"],
        ["halve", "--rational-only"],
        ["check", "divisible-by-2"],
        ["check", "all-rational"],
        ["group", "double"],
        ["group", "neg"],
        ["group", "mul", "--scalar=-5"],
        ["group", "mul", "--scalar=2.5"],
        ["group", "add"],
        ["torsion-scan"],
    ]
).flatmap(
    # a max order below 3 is refused with exit 2; the fuzz curves have
    # p <= 13, so every accepted order scans fast
    lambda c: st.integers(-3, 8).map(lambda n: [*c, f"--max-order={n}"])
    if c == ["torsion-scan"]
    else st.just(c)
)


@st.composite
def prime_field_curves(draw):
    """(curve, points on it as 'a,b', divisors (x - a, b) of those points)
    over F_p with distinct roots, or rarely a curve with a repeated root.

    For p <= 13 the points come from a search of F_p x F_p; for p = 2^61 - 1
    they are the Weierstrass points.
    """
    p = draw(primes)
    hi = min(p, 14)
    n = draw(st.sampled_from([n for n in (3, 5, 7) if n <= hi]))
    roots = draw(st.lists(st.integers(0, hi - 1), min_size=n, max_size=n, unique=True))
    if draw(st.integers(0, 9)) == 0:
        roots[-1] = roots[0] + p
    on_curve = [(r, 0) for r in roots]
    if p < 14:
        for a in range(p):
            fa = math.prod(a - r for r in roots) % p
            on_curve += [(a, b) for b in range(1, p) if b * b % p == fa]
    return (
        {"p": p, "modulus": [1], "roots": [[r] for r in roots]},
        [f"{a},{b}" for a, b in on_curve],
        [{"U": [[-a], [1]], "V": [[b]] if b else []} for a, b in on_curve],
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_every_exit_code_is_in_the_table(workdir, data):
    command = data.draw(commands)
    scan = command[0] == "torsion-scan"
    kind = data.draw(st.sampled_from(["prime", "prime", "tower", "malformed"]))
    if kind == "prime":
        curve, on_curve, on_divisors = data.draw(prime_field_curves())
    elif kind == "tower" and not scan:  # a scan of F_{7^4} alone takes seconds
        curve, on_curve, on_divisors = data.draw(st.sampled_from(TOWER_CASES))
    else:
        curve, on_curve, on_divisors = data.draw(malformed_curves), [], []
        if scan and not (isinstance(curve, dict) and curve.get("modulus") == [1]):
            # only F_p with p <= 13 scans fast; F_1009 is refused as too large
            curve = {"p": 1009, "modulus": [1], "roots": curve}
    point_texts = st.one_of(st.sampled_from(on_curve), points) if on_curve else points
    divisor_data = st.one_of(st.sampled_from(on_divisors), divisors) if on_divisors else divisors

    curve_file = workdir / "curve.json"
    curve_file.write_text(json.dumps(curve))
    argv = [command[0], f"--curve={curve_file}", *command[1:]]
    if command[0] == "group":
        # zero to three operands, so wrong operand counts are exercised too
        argv += [f"--point={data.draw(point_texts)}" for _ in range(data.draw(st.integers(0, 2)))]
        if data.draw(st.booleans()):
            divisor_file = workdir / "divisor.json"
            divisor_file.write_text(json.dumps(data.draw(divisor_data)))
            argv.append(f"--divisor={divisor_file}")
    elif not scan:
        argv.append(f"--point={data.draw(point_texts)}")

    code, _, err = run(argv)

    assert code in TABLE_CODES and code != 1, (argv, curve, err)
    if code:
        assert err.startswith("error:"), err


@pytest.mark.parametrize("g", [8, 12, 18])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_halving_above_the_genus_bound_is_exit_2(workdir, g, data):
    """A curve of genus g > 7 over F_37 and a point on it: `halve` is refused
    with exit 2 and empty stdout before any of the 4^g halves is built."""
    p, n = 37, 2 * g + 1
    roots = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n, unique=True))
    on_curve = [
        f"{a},{b}"
        for a in range(p)
        for b in range(p)
        if b * b % p == math.prod(a - r for r in roots) % p
    ]
    curve_file = workdir / f"g{g}.json"
    curve_file.write_text(json.dumps({"p": p, "modulus": [1], "roots": [[r] for r in roots]}))
    argv = ["halve", f"--curve={curve_file}", f"--point={data.draw(st.sampled_from(on_curve))}"]
    if data.draw(st.booleans()):
        argv.append("--rational-only")

    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1, argv
    assert (code, out) == (2, ""), (argv, err)
    assert err.startswith("error:") and f"genus {g}" in err


def test_scan_above_the_work_bound_is_exit_5(workdir):
    """101 roots over F_997 give g = 50, whose scan to order 4 would take
    hours: `torsion-scan` is refused with exit 5 and empty stdout before
    any square root."""
    curve_file = workdir / "g50.json"
    curve_file.write_text(json.dumps({"p": 997, "modulus": [1], "roots": [[r] for r in range(101)]}))
    start = time.perf_counter()
    code, out, err = run(["torsion-scan", f"--curve={curve_file}", "--max-order=4"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (5, ""), err
    assert err.startswith("error:") and "genus 50" in err


# the exit code of each error class, as the README table documents it
EXIT_CODES = {
    "JachalfError": 1,
    "NotPrime": 2,
    "CharacteristicTwo": 2,
    "ReducibleModulus": 2,
    "DivisionByZero": 1,
    "CtxMismatch": 2,
    "TowerExhausted": 2,
    "DuplicateRoot": 2,
    "EvenDegree": 2,
    "NotOnCurve": 3,
    "CurveMismatch": 3,
    "InvalidDivisor": 3,
    "FieldTooLarge": 5,
    "MaxOrderTooSmall": 2,
    "InfinityInput": 4,
    "InternalInvariantViolation": 1,
    "NotAHalf": 3,
    "GenusTooLarge": 2,
    "PointNotRational": 2,
    "NonRationalCurve": 2,
    "ParseError": 2,
}


def test_each_error_class_keeps_its_exit_code():
    """Every class keeps its code, and codes 2 and 3 come only from the two
    categories: a leaf class placed in the wrong category, or declaring a
    code of its own, fails here."""
    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.JachalfError)
    }
    categories = {"InputError": 2, "InvalidOperand": 3}
    assert {name: cls.exit_code for name, cls in classes.items()} == {**EXIT_CODES, **categories}
    for name, code in EXIT_CODES.items():
        if code in (2, 3):
            assert "exit_code" not in vars(classes[name]), name


def test_every_error_class_declares_a_tabled_code():
    classes = [
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.JachalfError)
    ]
    for cls in classes:
        assert cls.exit_code in {1, 2, 3, 4, 5}, cls
        assert cls.exit_code in TABLE_CODES, cls


def test_the_table_lists_exactly_the_declared_codes():
    """The README exit-code table holds 0 and each code that a class declares,
    and no other code: a row left after its class goes fails here too."""
    section = README.read_text().split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    tabled = {int(c) for c in re.findall(r"^\|\s*(\d+)\s*\|", section, re.M)}
    declared = {
        cls.exit_code
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.JachalfError)
    }
    assert tabled == {0} | declared
