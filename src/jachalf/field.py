"""Exact arithmetic in F_p, an extension F_{p^k}, and one quadratic tower step.

A context fixes an odd prime p and a monic irreducible modulus of degree k,
giving the *base* field F_{p^k} in the power basis of the modulus.  On top of
it the context eagerly prepares a quadratic step F_{p^{2k}} = F_{p^k}[u]/(u^2 - ns)
where ns is the smallest non-square of the base field; every base element has
a square root within this tower, which is all the halving formulas ever need.

Square roots and square tests cost O(log q) base-field operations at both
levels (q = p^k), plus Tonelli-Shanks' O(e^2) where 2^e exactly divides
q - 1.  A base element is tested by Euler's criterion and rooted by
Tonelli-Shanks with ns.  A quadratic element x0 + x1*u is a square exactly
when its norm x0^2 - ns*x1^2 is a base square, and its root comes in closed
form from base roots; a base non-square c has the root sqrt(c/ns)*u.

Base-level elements are coefficient tuples over F_p (low-to-high, length k);
quadratic-level elements are pairs of such tuples (c0, c1) standing for
c0 + c1*u.  All values are immutable.
"""

from __future__ import annotations

import operator

from sympy import isprime

from . import _intpoly
from .errors import (
    CharacteristicTwo,
    CtxMismatch,
    DivisionByZero,
    InternalInvariantViolation,
    NotPrime,
    ReducibleModulus,
    TowerExhausted,
)

BASE = "base"
QUAD = "quad"


def _divisors(n):
    return [d for d in range(1, n) if n % d == 0]


def _int_value(v, what):
    """v as an int; floats, strings and bools are refused, not truncated."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {v!r}")


class FieldCtx:
    """Shared, immutable arithmetic context for F_{p^k} and F_{p^{2k}}."""

    __slots__ = (
        "p",
        "k",
        "modulus",
        "_mt",
        "q",
        "q2",
        "nonsquare",
        "_ns_inv",
        "_half",
        "_ts",
        "_zero_b",
        "_one_b",
        "_badd",
        "_bsub",
        "_bneg",
        "_bmul",
        "_bpow",
        "_qadd",
        "_qsub",
        "_qneg",
        "_qmul",
    )

    def __init__(self, p, modulus):
        p = _int_value(p, "p")
        if p == 2:
            raise CharacteristicTwo("characteristic 2 is not supported")
        if p < 2 or not isprime(p):
            raise NotPrime(f"{p} is not an odd prime")
        if p.bit_length() > 62:
            raise NotPrime(f"{p} exceeds the machine-word bound (< 2^62)")
        self.p = p

        mod = _intpoly.trim(_int_value(c, "modulus coefficient") % p for c in modulus)
        if mod == (1,):
            # CLI convention: modulus [1] means the prime field itself.
            mod = (0, 1)
        if len(mod) < 2:
            raise ReducibleModulus("modulus must have degree >= 1 (or be [1])")
        if mod[-1] != 1:
            raise ReducibleModulus("modulus must be monic")
        self.k = len(mod) - 1
        self.modulus = mod
        self._mt = mod[:-1]  # low k coefficients, used during reduction
        self.q = p**self.k
        self.q2 = self.q * self.q
        self._zero_b = (0,) * self.k
        self._one_b = (1,) + (0,) * (self.k - 1)
        if self.k > 1:
            self._check_irreducible()
        self._bind_base_ops()
        self.nonsquare = self._find_base_nonsquare()
        self._ns_inv = self._binv(self.nonsquare)
        self._half = ((p + 1) // 2,) + self._zero_b[1:]
        m, e = self.q - 1, 0
        while m % 2 == 0:
            m //= 2
            e += 1
        self._ts = (m, e, self._bpow(self.nonsquare, m))
        self._bind_quad_ops()

    def _bind_base_ops(self):
        """Install per-k specialized payload operations (hot path)."""
        p, k = self.p, self.k
        self._bpow = self._bpow_gen
        if k == 1:
            self._badd = lambda a, b: ((a[0] + b[0]) % p,)
            self._bsub = lambda a, b: ((a[0] - b[0]) % p,)
            self._bneg = lambda a: ((-a[0]) % p,)
            self._bmul = lambda a, b: ((a[0] * b[0]) % p,)
            self._bpow = lambda a, e: (pow(a[0], e, p),)
        elif k == 2:
            mt0, mt1 = self._mt

            def bmul2(a, b):
                a0, a1 = a
                b0, b1 = b
                c2 = a1 * b1
                return (
                    (a0 * b0 - c2 * mt0) % p,
                    (a0 * b1 + a1 * b0 - c2 * mt1) % p,
                )

            self._badd = lambda a, b: ((a[0] + b[0]) % p, (a[1] + b[1]) % p)
            self._bsub = lambda a, b: ((a[0] - b[0]) % p, (a[1] - b[1]) % p)
            self._bneg = lambda a: ((-a[0]) % p, (-a[1]) % p)
            self._bmul = bmul2
        else:
            self._badd = self._badd_gen
            self._bsub = self._bsub_gen
            self._bneg = self._bneg_gen
            self._bmul = self._bmul_gen

    def _bind_quad_ops(self):
        badd, bsub, bneg, bmul = self._badd, self._bsub, self._bneg, self._bmul
        if self.k == 1:
            p = self.p
            ns = self.nonsquare[0]

            def qmul1(a, b):
                a0 = a[0][0]
                a1 = a[1][0]
                b0 = b[0][0]
                b1 = b[1][0]
                return (
                    ((a0 * b0 + ns * a1 * b1) % p,),
                    ((a0 * b1 + a1 * b0) % p,),
                )

            self._qmul = qmul1
        else:
            ns = self.nonsquare

            def qmul(a, b):
                a0, a1 = a
                b0, b1 = b
                t0 = bmul(a0, b0)
                t1 = bmul(a1, b1)
                m = bmul(badd(a0, a1), badd(b0, b1))
                return (badd(t0, bmul(ns, t1)), bsub(bsub(m, t0), t1))

            self._qmul = qmul
        self._qadd = lambda a, b: (badd(a[0], b[0]), badd(a[1], b[1]))
        self._qsub = lambda a, b: (bsub(a[0], b[0]), bsub(a[1], b[1]))
        self._qneg = lambda a: (bneg(a[0]), bneg(a[1]))

    # -- construction-time validation ------------------------------------

    def _check_irreducible(self):
        p, k, mod = self.p, self.k, self.modulus
        x = (0, 1)
        # x^{p^k} == x mod m, and gcd(x^{p^d} - x, m) trivial for proper d | k.
        xpk = _intpoly.powmod(x, p**k, mod, p)
        if xpk != _intpoly.mod(x, mod, p):
            raise ReducibleModulus("modulus is not irreducible over F_p")
        for d in _divisors(k):
            xpd = _intpoly.powmod(x, p**d, mod, p)
            g = _intpoly.gcd(_intpoly.sub(xpd, x, p), mod, p)
            if len(g) != 1:
                raise ReducibleModulus("modulus has a factor of degree dividing k")

    def _find_base_nonsquare(self):
        e = (self.q - 1) // 2
        minus_one = self._bneg(self._one_b)
        # For even k all of F_p (indices below p) are squares in F_{p^k}.
        for i in range(self.p if self.k % 2 == 0 else 1, self.q):
            cand = self._b_from_index(i)
            if self._bpow(cand, e) == minus_one:
                return cand
        raise InternalInvariantViolation(
            "no non-square found in an odd-order field"
        )  # pragma: no cover

    # -- base-level payload arithmetic (tuples of ints, length k) --------

    def _b_from_index(self, i):
        p, k = self.p, self.k
        digits = []
        for _ in range(k):
            digits.append(i % p)
            i //= p
        return tuple(digits)

    def _badd_gen(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _bsub_gen(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _bneg_gen(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _bmul_gen(self, a, b):
        p = self.p
        k = self.k
        out = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        mt = self._mt
        for idx in range(2 * k - 2, k - 1, -1):
            c = out[idx] % p
            if c:
                base = idx - k
                for j in range(k):
                    out[base + j] -= c * mt[j]
            out[idx] = 0
        return tuple(v % p for v in out[:k])

    def _binv(self, a):
        if a == self._zero_b:
            raise DivisionByZero("inverse of zero")
        p = self.p
        if self.k == 1:
            return (pow(a[0], p - 2, p),)
        # extended Euclid against the modulus
        r0, r1 = self.modulus, _intpoly.trim(a)
        t0, t1 = (), (1,)
        while len(r1) > 1:
            q, r = _intpoly.divmod_(r0, r1, p)
            r0, r1 = r1, r
            t0, t1 = t1, _intpoly.sub(t0, _intpoly.mul(q, t1, p), p)
        if not r1:
            raise DivisionByZero("element not invertible")  # pragma: no cover
        scale = pow(r1[0], p - 2, p)
        inv = tuple((c * scale) % p for c in t1)
        return inv + (0,) * (self.k - len(inv))

    def _bpow_gen(self, a, e):
        result = self._one_b
        while e:
            if e & 1:
                result = self._bmul(result, a)
            a = self._bmul(a, a)
            e >>= 1
        return result

    def _bsqrt(self, a):
        """A square root of the base payload a, or None when a is a non-square.

        Tonelli-Shanks with q - 1 = m * 2^e and c = ns^m; one exponentiation
        gives both the first root guess r = a^((m+1)/2) and t = a^m.  A
        non-square shows as t of full order 2^e.  For q = 3 (mod 4), e = 1
        and this is the single power a^((q+1)/4).
        """
        bmul, one = self._bmul, self._one_b
        if a == self._zero_b:
            return a
        m, e, c = self._ts
        w = self._bpow(a, (m - 1) // 2)
        r = bmul(a, w)
        t = bmul(r, w)
        while t != one:
            i, t2 = 0, t
            while t2 != one:
                t2 = bmul(t2, t2)
                i += 1
            if i == e:
                return None
            b = self._bpow(c, 1 << (e - i - 1))
            r = bmul(r, b)
            c = bmul(b, b)
            t = bmul(t, c)
            e = i
        return r

    # -- quadratic-level payload arithmetic (pairs of base tuples) -------

    def _qnorm(self, a):
        """N(a0 + a1*u) = a0^2 - ns*a1^2, a base payload."""
        bmul = self._bmul
        a0, a1 = a
        return self._bsub(bmul(a0, a0), bmul(self.nonsquare, bmul(a1, a1)))

    def _qinv(self, a):
        ninv = self._binv(self._qnorm(a))
        return (self._bmul(a[0], ninv), self._bneg(self._bmul(a[1], ninv)))

    def _qpow(self, a, e):
        result = (self._one_b, self._zero_b)
        while e:
            if e & 1:
                result = self._qmul(result, a)
            a = self._qmul(a, a)
            e >>= 1
        return result

    def _qsqrt(self, a):
        """A square root of the quadratic payload a, or None for a non-square.

        Only base-field roots are taken.  With x1 = 0, x0 is a base square or
        x0/ns is, and then (sqrt(x0/ns)*u)^2 = x0.  Otherwise, with
        n^2 = N(a), d = (x0 +- n)/2 and r^2 = d, the root is r + x1/(2r)*u.
        The two candidates for d multiply to ns*x1^2/4, a non-square, so
        exactly one of them is a base square.
        """
        bmul, bsqrt, zero = self._bmul, self._bsqrt, self._zero_b
        x0, x1 = a
        if x1 == zero:
            r = bsqrt(x0)
            if r is not None:
                return (r, zero)
            return (zero, bsqrt(bmul(x0, self._ns_inv)))
        n = bsqrt(self._qnorm(a))
        if n is None:
            return None
        r = bsqrt(bmul(self._badd(x0, n), self._half))
        if r is None:
            r = bsqrt(bmul(self._bsub(x0, n), self._half))
        return (r, bmul(x1, self._binv(self._badd(r, r))))

    def _q_from_index(self, i):
        return (self._b_from_index(i % self.q), self._b_from_index(i // self.q))

    # -- element construction --------------------------------------------

    def zero(self, level=BASE):
        return self.elem(self._zero_b if level == BASE else (self._zero_b,) * 2, level)

    def one(self, level=BASE):
        if level == BASE:
            return self.elem(self._one_b, BASE)
        return self.elem((self._one_b, self._zero_b), QUAD)

    def from_int(self, n, level=BASE):
        c = (n % self.p,) + (0,) * (self.k - 1)
        if level == BASE:
            return self.elem(c, BASE)
        return self.elem((c, self._zero_b), QUAD)

    def elem(self, payload, level=BASE):
        return FieldElement(self, level, payload)

    def from_coeffs(self, coeffs, level=BASE):
        """Build an element from F_p coefficients, low-to-high (length <= k)."""
        c = tuple(_int_value(v, "field element coefficient") % self.p for v in coeffs)
        if len(c) > self.k:
            raise ValueError(f"expected at most {self.k} coefficients")
        c = c + (0,) * (self.k - len(c))
        if level == BASE:
            return self.elem(c, BASE)
        return self.elem((c, self._zero_b), QUAD)

    def generator(self):
        """The power-basis generator t of F_{p^k} (t = 0 when k = 1)."""
        if self.k == 1:
            return self.zero()
        return self.elem((0, 1) + (0,) * (self.k - 2), BASE)

    def tower_generator(self):
        """The element u of F_{p^{2k}} with u^2 = nonsquare."""
        return self.elem((self._zero_b, self._one_b), QUAD)

    def base_elements(self):
        for i in range(self.q):
            yield self.elem(self._b_from_index(i), BASE)

    def quad_elements(self):
        for i in range(self.q2):
            yield self.elem(self._q_from_index(i), QUAD)

    def decode(self, obj, level=None):
        """Parse the JSON encoding: [ints] (base) or [[ints], [ints]] (quadratic)."""
        if not isinstance(obj, (list, tuple)) or not obj:
            raise ValueError(f"bad field element encoding: {obj!r}")
        if isinstance(obj[0], (list, tuple)):
            if len(obj) != 2:
                raise ValueError(f"quadratic encoding needs two parts: {obj!r}")
            c0 = self.from_coeffs(obj[0]).payload
            c1 = self.from_coeffs(obj[1]).payload
            el = self.elem((c0, c1), QUAD)
        else:
            el = self.from_coeffs(obj, BASE)
        if level == QUAD:
            el = el.promote()
        return el

    # -- context identity --------------------------------------------------

    def same_field(self, other):
        return self.p == other.p and self.modulus == other.modulus

    def check_same(self, other):
        if not self.same_field(other):
            raise CtxMismatch(
                f"contexts differ: F_{self.p}^{self.k} vs F_{other.p}^{other.k}"
            )

    def __repr__(self):
        return f"FieldCtx(p={self.p}, k={self.k})"


def ctx_new(p, modulus):
    """Validated field context; see FieldCtx."""
    return FieldCtx(p, modulus)


class FieldElement:
    """Immutable element of F_{p^k} (base level) or F_{p^{2k}} (quad level)."""

    __slots__ = ("ctx", "level", "payload")

    def __init__(self, ctx, level, payload):
        self.ctx = ctx
        self.level = level
        self.payload = payload

    # -- level handling ----------------------------------------------------

    def promote(self):
        if self.level == QUAD:
            return self
        return FieldElement(self.ctx, QUAD, (self.payload, self.ctx._zero_b))

    def try_demote(self):
        """Base-level view when the tower coordinate vanishes, else self."""
        if self.level == QUAD and self.payload[1] == self.ctx._zero_b:
            return FieldElement(self.ctx, BASE, self.payload[0])
        return self

    def _pair(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other, self.level)
        elif not isinstance(other, FieldElement):
            return None, None
        elif self.ctx is not other.ctx:
            self.ctx.check_same(other.ctx)
        if self.level == other.level:
            return self, other
        return self.promote(), other.promote()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        op = a.ctx._badd if a.level == BASE else a.ctx._qadd
        return FieldElement(a.ctx, a.level, op(a.payload, b.payload))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        op = a.ctx._bsub if a.level == BASE else a.ctx._qsub
        return FieldElement(a.ctx, a.level, op(a.payload, b.payload))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        op = a.ctx._bmul if a.level == BASE else a.ctx._qmul
        return FieldElement(a.ctx, a.level, op(a.payload, b.payload))

    __rmul__ = __mul__

    def __neg__(self):
        op = self.ctx._bneg if self.level == BASE else self.ctx._qneg
        return FieldElement(self.ctx, self.level, op(self.payload))

    def inverse(self):
        op = self.ctx._binv if self.level == BASE else self.ctx._qinv
        return FieldElement(self.ctx, self.level, op(self.payload))

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        op = self.ctx._bpow if self.level == BASE else self.ctx._qpow
        return FieldElement(self.ctx, self.level, op(self.payload, e))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other, self.level)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if not self.ctx.same_field(other.ctx):
            return False
        a, b = (self, other) if self.level == other.level else (
            self.promote(),
            other.promote(),
        )
        return a.payload == b.payload

    def __hash__(self):
        c = self.try_demote()
        return hash((c.ctx.p, c.ctx.modulus, c.level, c.payload))

    def is_zero(self):
        if self.level == BASE:
            return self.payload == self.ctx._zero_b
        return self.payload[0] == self.ctx._zero_b and self.payload[1] == self.ctx._zero_b

    def __bool__(self):
        return not self.is_zero()

    # -- field structure ---------------------------------------------------

    def is_square(self):
        """Euler's criterion at base level; the norm criterion at the quadratic
        level, where x is a square exactly when N(x) is a base square."""
        ctx = self.ctx
        a = self.payload if self.level == BASE else ctx._qnorm(self.payload)
        return a == ctx._zero_b or ctx._bpow(a, (ctx.q - 1) // 2) == ctx._one_b

    def sqrt(self):
        """Canonical square root; promotes to the quadratic level when needed.

        Among {s, -s} the root with the lexicographically smaller integer
        encoding is returned.  Raises TowerExhausted for a quadratic-level
        non-square: that would need a context one level higher.
        """
        ctx = self.ctx
        base = self.level == BASE
        s = ctx._qsqrt((self.payload, ctx._zero_b) if base else self.payload)
        if s is None:
            raise TowerExhausted(
                "element is not a square in F_{p^{2k}}; rebuild the context one level up"
            )
        # pairs of equal-length tuples order like their encoding_key()
        s = min(s, ctx._qneg(s))
        if base and s[1] == ctx._zero_b:
            return FieldElement(ctx, BASE, s[0])
        return FieldElement(ctx, QUAD, s)

    def frobenius(self):
        """The p-power map x -> x^p."""
        if self.level == BASE and self.ctx.k == 1:
            return self
        return self ** self.ctx.p

    def in_prime_field(self):
        """Whether x^p = x, i.e. x lies in F_p.

        In the power basis this is exactly "all non-constant coordinates
        vanish", which is what gets checked.
        """
        if self.level == QUAD:
            if self.payload[1] != self.ctx._zero_b:
                return False
            c = self.payload[0]
        else:
            c = self.payload
        return all(v == 0 for v in c[1:])

    def as_prime_int(self):
        """Integer representative in [0, p); requires in_prime_field()."""
        if not self.in_prime_field():
            raise ValueError("element does not lie in the prime field")
        c = self.payload[0] if self.level == QUAD else self.payload
        return c[0]

    # -- encoding ----------------------------------------------------------

    def encoding_key(self):
        if self.level == BASE:
            return self.payload
        return self.payload[0] + self.payload[1]

    def encode(self):
        """JSON form: [ints] at base level, [[ints], [ints]] at quadratic level.

        Quadratic elements with zero tower coordinate demote to the base form
        so that equal values always serialize identically.
        """
        c = self.try_demote()
        if c.level == BASE:
            return list(c.payload)
        return [list(c.payload[0]), list(c.payload[1])]

    def __repr__(self):
        return f"FieldElement({self.encode()!r} over F_{self.ctx.p}^{self.ctx.k})"


def arith(x, y, op):
    """Named-operation wrapper: op in {'add', 'sub', 'mul', 'div'}."""
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        if y.is_zero():
            raise DivisionByZero("division by zero")
        return x / y
    raise ValueError(f"unknown op {op!r}")


def is_square(x):
    return x.is_square()


def sqrt(x):
    return x.sqrt()


def frobenius(x):
    return x.frobenius()


def in_prime_field(x):
    return x.in_prime_field()
