"""The library's own surface: the repr of each value class, and library
calls on junk arguments, which are refused with an error and never end in
a traceback from a library bug."""

import pytest
from hypothesis import given, settings, strategies as st

from jachalf.errors import JachalfError
from jachalf.field import ctx_new
from jachalf.halving import halve
from jachalf.jacobian import MumfordDivisor, Point, curve_new, to_class
from jachalf.poly import Poly


@pytest.fixture(scope="module")
def curve():
    # y^2 = x^3 - x over F_7
    return curve_new(ctx_new(7, [1]), [0, 1, 6])


def test_reprs_over_f7(curve):
    ctx = curve.ctx
    half = halve(Point(curve, 1, 0))[0]
    assert [
        repr(x)
        for x in (
            ctx,
            ctx.tower,
            ctx.from_int(3),
            ctx.tower.generator(),
            curve,
            Point(curve, 4, 2),
            Point.infinity(curve),
            to_class(Point(curve, 4, 2)),
            half.tuple,
            half,
        )
    ] == [
        "FieldCtx(p=7, k=1)",
        "TowerField(p=7, k=1)",
        "FieldElement([3] over F_7^1)",
        "FieldElement([[0], [1]] over F_7^1)",
        "Curve(g=1, p=7, k=1)",
        "Point([4], [2])",
        "Point(infinity)",
        "MumfordDivisor(U=[[3], [1]], V=[[2]])",
        "SqrtTuple(index=0, r=[[1], [0], [3]])",
        "HalfClass(index=0, MumfordDivisor(U=[[3], [1]], V=[[2]]))",
    ]


JUNK = st.one_of(
    st.integers(-(10**20), 10**20),
    st.sampled_from([3, 5, 7, 13, 2**61 - 1]),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-10, 10), max_size=4),
)


def _refused_cleanly(call, *args):
    """Run call(*args); an exception must be a JachalfError of an input
    category (exit code other than 1), a TypeError or a ValueError."""
    try:
        call(*args)
    except JachalfError as exc:
        assert exc.exit_code != 1, (args, exc)
    except (TypeError, ValueError):
        pass


@settings(max_examples=200, deadline=None)
@given(p=JUNK, modulus=st.one_of(JUNK, st.lists(JUNK, max_size=4)))
def test_ctx_new_on_junk(p, modulus):
    _refused_cleanly(ctx_new, p, modulus)


@settings(max_examples=300, deadline=None)
@given(a=JUNK, b=JUNK)
def test_point_on_junk(curve, a, b):
    _refused_cleanly(Point, curve, a, b)


@settings(max_examples=300, deadline=None)
@given(u=st.lists(st.integers(-20, 20), max_size=4), v=st.lists(st.integers(-20, 20), max_size=4))
def test_mumford_divisor_on_small_coefficient_lists(curve, u, v):
    ctx = curve.ctx
    _refused_cleanly(MumfordDivisor, curve, Poly(ctx, u), Poly(ctx, v))
