"""Random curve and point generators used by the property and acceptance tests.

Curves live over F_p directly when the prime field has room for 2g+1 distinct
roots plus a couple of non-root x-coordinates, and over F_{p^2} (modulus
x^2 - c for the smallest non-square c) otherwise.
"""

from jachalf.field import ctx_new
from jachalf.jacobian import Point, curve_new


def make_ctx(p, g):
    """Context large enough to host a genus-g curve: k = 1 or 2."""
    if p >= 2 * g + 3:
        return ctx_new(p, [1])
    probe = ctx_new(p, [1])
    c = probe.nonsquare
    return ctx_new(p, [(-c) % p, 0, 1])


def random_curve(ctx, g, rng):
    """Curve with 2g+1 distinct roots drawn from the base field."""
    elements = list(ctx.elements())
    roots = rng.sample(elements, 2 * g + 1)
    return curve_new(ctx, roots)


def random_rational_curve(ctx, g, rng):
    """Curve whose f has F_p coefficients: roots drawn from F_p inside the
    base field, plus Frobenius-conjugate pairs when F_p alone is too small."""
    p = ctx.p
    prime_els = [ctx.from_int(i) for i in range(p)]
    n = 2 * g + 1
    if ctx.k == 1 or p >= n:
        roots = rng.sample(prime_els, n)
        return curve_new(ctx, roots)
    # pad with conjugate pairs {beta, beta^p} of non-rational elements
    roots = rng.sample(prime_els, p if n - p >= 2 else n - 2)
    pool = [e for e in ctx.elements() if not e.in_prime_field()]
    rng.shuffle(pool)
    for beta in pool:
        if len(roots) >= n:
            break
        conj = beta.frobenius()
        if beta == conj or any(beta == r or conj == r for r in roots):
            continue
        roots.extend([beta, conj])
    assert len(roots) == n
    return curve_new(ctx, roots)


def affine_points(curve, prime_only=False, field=None):
    """All affine points with coordinates in field (default: the base
    field), in scan order."""
    out = []
    for a in (field or curve.ctx).elements():
        if prime_only and not a.in_prime_field():
            continue
        fa = curve.f(a)
        if fa.is_zero():
            out.append(Point(curve, a, curve.ctx.zero()))
        elif fa.is_square():
            b = fa.sqrt()
            out.extend([Point(curve, a, b), Point(curve, a, -b)])
    return out


def random_point(curve, rng, prime_only=False):
    pts = affine_points(curve, prime_only=prime_only)
    return rng.choice(pts) if pts else None
