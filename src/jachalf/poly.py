"""Dense univariate polynomials over a field object (a context or its tower).

A Poly holds its field object and a tuple of coefficient payloads,
low-to-high, with no trailing zeros; the zero polynomial has an empty tuple
and degree -1.  Arithmetic runs on the payloads through the field object's
operations; ``coeffs`` gives the coefficients as FieldElements.  Operands
over different field objects meet in field.join, and equality and hashing
go by value.  Degrees stay tiny here (at most 2g+1), so everything is plain
schoolbook arithmetic.
"""

from __future__ import annotations

from .errors import DivisionByZero
from .field import FieldElement, join


def _trim(F, cs):
    z = F._zero
    n = len(cs)
    while n and cs[n - 1] == z:
        n -= 1
    return tuple(cs[:n])


def _make(F, cs):
    """Poly over F from a sequence of payloads, trailing zeros trimmed."""
    poly = object.__new__(Poly)
    poly.field = F
    poly.pc = _trim(F, cs)
    return poly


def _payloads(field, values):
    """(F, payloads) for ints and FieldElements, F being field joined with
    the field of every FieldElement among the values."""
    F = field
    for v in values:
        if isinstance(v, FieldElement):
            F = join(F, v.field)
    return F, [
        F.lift(v.field, v.payload) if isinstance(v, FieldElement) else F.from_int(v).payload
        for v in values
    ]


class Poly:
    """A polynomial over ``field``; ``pc`` holds its coefficient payloads."""

    __slots__ = ("field", "pc")

    def __init__(self, field, coeffs):
        """Coefficients are ints or FieldElements, low-to-high; the polynomial
        lies over field.tower when any coefficient does."""
        F, cs = _payloads(field, list(coeffs))
        self.field = F
        self.pc = _trim(F, cs)

    @classmethod
    def zero(cls, field):
        return _make(field, ())

    @classmethod
    def constant(cls, c):
        return _make(c.field, (c.payload,))

    @classmethod
    def x(cls, field):
        return _make(field, (field._zero, field._one))

    @property
    def coeffs(self):
        F = self.field
        return tuple(FieldElement(F, c) for c in self.pc)

    def degree(self):
        return len(self.pc) - 1

    def is_zero(self):
        return not self.pc

    def leading(self):
        if not self.pc:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return FieldElement(self.field, self.pc[-1])

    def is_monic(self):
        return bool(self.pc) and self.pc[-1] == self.field._one

    def _pair(self, other):
        """(H, a, b): both operands as payload tuples over H = join(their fields)."""
        F, a = self.field, self.pc
        if isinstance(other, Poly):
            G, b = other.field, other.pc
        elif isinstance(other, FieldElement):
            G, b = other.field, (other.payload,)
        elif isinstance(other, int):
            G, b = F, (F.from_int(other).payload,)
        else:
            return None, None, None
        if b and b[-1] == G._zero:
            b = ()
        if G is not F:
            H = join(F, G)
            if H is not F:
                a = tuple([H.lift(F, c) for c in a])
            if H is not G:
                b = tuple([H.lift(G, c) for c in b])
            F = H
        return F, a, b

    def __add__(self, other):
        F, a, b = self._pair(other)
        if F is None:
            return NotImplemented
        if len(a) < len(b):
            a, b = b, a
        add = F.add
        return _make(F, [add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other):
        F, a, b = self._pair(other)
        if F is None:
            return NotImplemented
        sub, n = F.sub, len(b)
        out = [sub(x, y) for x, y in zip(a, b)]
        if len(a) > n:
            out += a[n:]
        else:
            out += map(F.neg, b[len(a):])
        return _make(F, out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        F = self.field
        return _make(F, tuple(map(F.neg, self.pc)))

    def __mul__(self, other):
        F, a, b = self._pair(other)
        if F is None:
            return NotImplemented
        if not a or not b:
            return _make(F, ())
        add, mul, z = F.add, F.mul, F._zero
        out = [z] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == z:
                continue
            for j, y in enumerate(b):
                out[i + j] = add(out[i + j], mul(x, y))
        return _make(F, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        F, a, b = self._pair(other)
        if F is None:
            return NotImplemented
        if not b:
            raise DivisionByZero("polynomial division by zero")
        if len(a) < len(b):
            return _make(F, ()), _make(F, a)
        sub, mul, z = F.sub, F.mul, F._zero
        lcinv = F.inv(b[-1])
        r = list(a)
        q = [z] * (len(a) - len(b) + 1)
        db = len(b) - 1
        for i in range(len(q) - 1, -1, -1):
            c = mul(r[i + db], lcinv)
            if c != z:
                q[i] = c
                for j, bc in enumerate(b):
                    r[i + j] = sub(r[i + j], mul(c, bc))
        return _make(F, q), _make(F, r[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if isinstance(other, (Poly, FieldElement)):
            if not self.field.base.same_field(other.field.base):
                return False
        elif not isinstance(other, int):
            return NotImplemented
        _, a, b = self._pair(other)
        return a == b

    def __hash__(self):
        return hash(self.coeffs)

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        F = self.field
        mul, inv = F.mul, F.inv(self.pc[-1])
        return _make(F, [mul(c, inv) for c in self.pc])

    def __call__(self, x0):
        """Horner evaluation at a field element or int; compose() substitutes
        a polynomial."""
        F, a, b = self._pair(x0)
        if F is None or isinstance(x0, Poly):
            raise TypeError(f"cannot evaluate a polynomial at {x0!r}")
        x = b[0] if b else F._zero
        add, mul = F.add, F.mul
        acc = F._zero
        for c in reversed(a):
            acc = add(mul(acc, x), c)
        return FieldElement(F, acc)

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
    one, zero = Poly.constant(a.field.one()), Poly.zero(a.field)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = r0.leading().inverse()
    return r0.monic(), s0 * inv, t0 * inv


def gcd(a, b):
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


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
    F, rs = _payloads(field, list(roots))
    return _make(F, _symmetric(F, map(F.neg, rs))[::-1])


def elementary_symmetric(field, vals):
    """(s_1, ..., s_n) for the given values."""
    F, vs = _payloads(field, list(vals))
    return tuple(FieldElement(F, e) for e in _symmetric(F, vs)[1:])
