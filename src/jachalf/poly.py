"""Dense univariate polynomials over a field object (a context or its tower).

The arithmetic lives in module-level kernels on lists of coefficient
payloads, low-to-high, with no trailing zeros (cut by field._trim, the one
payload trim): padd, psub, pneg, pdivmod, pmonic, peval and pxgcd, each
taking the field object first, and the field's own F.polymul for products.
A payload is an int for k = 1, a k-tuple otherwise, and a pair of base
payloads in the tower (see field.py).  For k = 1, F.polymul and the
division under pdivmod sum raw int products and reduce mod p once per
coefficient; division and monic skip the inversion when the leading
coefficient is 1.

A Poly holds its field object and a tuple of coefficient payloads; the zero
polynomial has an empty tuple and degree -1.  Its +, -, *, divmod, // and
% follow the one operator rule of field.py, _binary(kernel, build), on the
payload tuples that Poly._pair gives, the three divisions all on pdivmod,
and its == is field.py's one equality rule, _equal, on the same pair;
xgcd and gcd are from_payloads(F, kernel(...)) too, gcd being the first
part of pxgcd.
Code that chains many operations (Cantor composition in jacobian.add, the
halving formulas and their certificate) runs the kernels directly and
builds a Poly only for its result.  ``coeffs`` gives the coefficients as
FieldElements.  lifted(field, *values) is the one lift rule for
Polys, FieldElements and ints: it joins their field objects in field.join
and moves every payload to that join with its lift(); Poly construction,
the operators, xgcd, gcd, from_roots and elementary_symmetric, the
Jacobian group law and halving all start from it.  Equality and hashing go
by value, a longer polynomial hashing by the lowest payload (field.lowest)
of each coefficient.  Degrees stay tiny here (at most 2g+1), so everything
is plain schoolbook arithmetic.
"""

from __future__ import annotations

from .errors import DivisionByZero
from .field import FieldElement, _binary, _equal, _int_value, _rsub, _trim, join


def from_payloads(F, cs):
    """Poly over F from a sequence of payloads, trailing zeros trimmed."""
    poly = object.__new__(Poly)
    poly.field = F
    poly.pc = tuple(_trim(cs, F._zero))
    return poly


# -- kernels on payload lists ------------------------------------------------


def padd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = F.add
    out = [add(x, y) for x, y in zip(a, b)]
    out += a[len(b):]
    return _trim(out, F._zero)


def psub(F, a, b):
    sub, n = F.sub, len(b)
    out = [sub(x, y) for x, y in zip(a, b)]
    if len(a) > n:
        out += a[n:]
    else:
        out += map(F.neg, b[len(a):])
    return _trim(out, F._zero)


def pneg(F, a):
    return list(map(F.neg, a))


def pdivmod(F, a, b):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    return F.polydivmod(a, b)


def _scale(F, a, c):
    mul = F.mul
    return [mul(x, c) for x in a]


def pmonic(F, a):
    if not a or a[-1] == F._one:
        return a
    return _scale(F, a, F.inv(a[-1]))


def peval(F, a, x):
    """The value of a at the payload x, by Horner."""
    add, mul = F.add, F.mul
    acc = F._zero
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def pxgcd(F, a, b):
    """Extended gcd with monic result: (g, s, t) with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = [F._one], []
    t0, t1 = [], [F._one]
    while r1:
        q, r = pdivmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(F, s0, F.polymul(q, s1))
        t0, t1 = t1, psub(F, t0, F.polymul(q, t1))
    if not r0 or r0[-1] == F._one:
        return r0, s0, t0
    inv = F.inv(r0[-1])
    return _scale(F, r0, inv), _scale(F, s0, inv), _scale(F, t0, inv)


def lifted(field, *values):
    """(F, payloads): the values moved to F, which is field joined with the
    field of every Poly and FieldElement among them.  A Poly gives its tuple
    of coefficient payloads, a FieldElement its payload and an int its
    residue; a bool, a float or any other value raises TypeError."""
    F = field
    for v in values:
        G = getattr(v, "field", F)
        if G is not F:
            F = join(F, G)
    out = []
    for v in values:
        if isinstance(v, FieldElement):
            out.append(v.payload if v.field is F else F.lift(v.field, v.payload))
        elif isinstance(v, Poly):
            out.append(v.pc if v.field is F else tuple([F.lift(v.field, c) for c in v.pc]))
        else:
            out.append(F._int_payload(_int_value(v, "field value")))
    return F, out


class Poly:
    """A polynomial over ``field``; ``pc`` holds its coefficient payloads."""

    __slots__ = ("field", "pc")

    def __init__(self, field, coeffs):
        """Coefficients are ints or FieldElements, low-to-high; the polynomial
        lies over their join with field (see lifted), which is field.tower
        when any coefficient lies there."""
        F, cs = lifted(field, *coeffs)
        self.field = F
        self.pc = tuple(_trim(cs, F._zero))

    @classmethod
    def zero(cls, field):
        return from_payloads(field, ())

    @classmethod
    def x(cls, field):
        return from_payloads(field, (field._zero, field._one))

    @property
    def coeffs(self):
        F = self.field
        return tuple(FieldElement(F, c) for c in self.pc)

    def degree(self):
        return len(self.pc) - 1

    def is_zero(self):
        return not self.pc

    def is_monic(self):
        return bool(self.pc) and self.pc[-1] == self.field._one

    def _pair(self, other):
        """(F, a, b): both operands as payload tuples over F, from lifted."""
        if isinstance(other, FieldElement):
            other = from_payloads(other.field, (other.payload,))
        elif isinstance(other, int):
            other = from_payloads(self.field, (self.field._int_payload(other),))
        elif not isinstance(other, Poly):
            return None, None, None
        F, (a, b) = lifted(self.field, self, other)
        return F, a, b

    __add__ = __radd__ = _binary(padd, from_payloads)
    __sub__ = _binary(psub, from_payloads)
    __rsub__ = _rsub
    __mul__ = __rmul__ = _binary(lambda F, a, b: F.polymul(a, b), from_payloads)

    def __neg__(self):
        F = self.field
        return from_payloads(F, pneg(F, self.pc))

    __divmod__ = _binary(pdivmod, lambda F, qr: tuple(from_payloads(F, c) for c in qr))
    __floordiv__ = _binary(lambda F, a, b: pdivmod(F, a, b)[0], from_payloads)
    __mod__ = _binary(lambda F, a, b: pdivmod(F, a, b)[1], from_payloads)
    __eq__ = _equal

    def __hash__(self):
        """A constant hashes like its coefficient (the zero polynomial like 0),
        as it compares equal to it; a longer polynomial by the lowest payload
        of each coefficient, so a tower polynomial with base coefficients
        hashes like its base twin.  As for a FieldElement, an int outside
        [0, p) may equal a constant yet hash apart."""
        F, pc = self.field, self.pc
        if len(pc) < 2:
            return hash(FieldElement(F, pc[0])) if pc else hash(0)
        return hash(tuple([F.lowest(c)[1] for c in pc]) if F.tower is F else pc)

    def monic(self):
        F = self.field
        return from_payloads(F, pmonic(F, self.pc))

    def __call__(self, x0):
        """Horner evaluation at a field element or int; compose() substitutes
        a polynomial."""
        F, a, b = self._pair(x0)
        if F is None or isinstance(x0, Poly):
            raise TypeError(f"cannot evaluate a polynomial at {x0!r}")
        return FieldElement(F, peval(F, a, b[0] if b else F._zero))

    def compose(self, inner):
        acc = Poly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def encode(self):
        return [c.encode() for c in self.coeffs]

    def __repr__(self):
        return f"Poly({self.encode()!r})"


def xgcd(a, b):
    """Extended gcd with monic result: returns (g, s, t) with s*a + t*b = g."""
    F, (x, y) = lifted(a.field, a, b)
    return tuple(from_payloads(F, c) for c in pxgcd(F, x, y))


def gcd(a, b):
    """The monic gcd of a and b, the first part of pxgcd."""
    F, (x, y) = lifted(a.field, a, b)
    return from_payloads(F, pxgcd(F, x, y)[0])


def _symmetric(F, vs):
    """[e_0, e_1, ..., e_n] of the payloads vs, by the product recurrence."""
    add, mul = F.add, F.mul
    es = [F._one]
    for v in vs:
        es.append(F._zero)
        for j in range(len(es) - 1, 0, -1):
            es[j] = add(es[j], mul(v, es[j - 1]))
    return es


def from_roots(field, roots):
    """Monic product of linear factors x - r_i, which is sum_j e_j(-r) x^(n-j)."""
    F, rs = lifted(field, *roots)
    return from_payloads(F, _symmetric(F, map(F.neg, rs))[::-1])


def elementary_symmetric(field, vals):
    """(s_1, ..., s_n) for the given values."""
    F, vs = lifted(field, *vals)
    return tuple(FieldElement(F, e) for e in _symmetric(F, vs)[1:])
