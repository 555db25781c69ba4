"""Exact arithmetic in F_p, an extension F_{p^k}, and one quadratic tower step.

A context fixes an odd prime p and a monic irreducible modulus of degree k,
giving the *base* field F_q = F_{p^k} (q = p^k) in the power basis of the
modulus.  Its attribute ``tower`` is the quadratic step F_{q^2} =
F_q[u]/(u^2 - ns), where ns is the smallest non-square of the base field;
every base element has a square root there, which is all the halving
formulas ever need.

p must lie below 2^62, which is checked first; primality is then decided by
Miller-Rabin to the first twelve prime bases, which is exact in that range.
The modulus degree k must satisfy k^3 * bits(p) <= 2^18, checked before any
power, since the irreducibility test and every power cost about k^3 log p.

Square roots and square tests cost O(log q) base-field operations in both
fields, plus Tonelli-Shanks' O(e^2) where 2^e exactly divides q - 1.  A base
element is tested by Euler's criterion and rooted by Tonelli-Shanks with ns.
A tower element x0 + x1*u is a square exactly when its norm x0^2 - ns*x1^2
is a base square, and its root comes in closed form from base roots; a base
non-square c has the root sqrt(c/ns)*u.

The two field objects share one interface on raw payloads (add, sub, neg,
mul, inv, pow, is_square, sqrt, and polymul and polydivmod on lists of
payloads) and build elements with zero, one, from_int and elem.  A base
payload is a plain int in [0, p) when k = 1 and otherwise the k-tuple of
its coefficients over F_p, low-to-high; a tower payload is a pair of base
payloads (c0, c1) standing for c0 + c1*u.  Both forms order like their
encode(), which keeps the choice of canonical square root unchanged.

The payload ops of each field come from one of five constructions:
  - F_p: int lambdas, plus the kernels _int_polymul and _int_polydivmod,
    which sum raw integer products and reduce mod p once per coefficient;
    they are F_p's polymul and polydivmod.
  - _quadratic(p, c0, c1), F_p[w] with w^2 = c0 + c1*w on pairs of ints:
    F_{p^2} from the modulus t^2 + m1*t + m0 as (-m0, -m1), and the tower
    of F_p as (ns, 0).  Its polymul on lists of pairs sums the raw
    products x0*y0, x0*y1 + x1*y0 and x1*y1 per coefficient and reduces
    once, by w^2 and mod p.
  - _quartic(p, c0, c1, n0, n1), the tower of F_{p^2} (k = 2) on pairs of
    pairs of ints, with ns = n0 + n1*t: add, sub, neg and a product that
    is one call on raw int products, reduced once per output coordinate.
    Its inverse runs on the base field's ops through the norm.
  - F_{p^k}, k >= 3: k-tuples, the product being the kernel product reduced
    by the modulus with the kernel division; the inverse is Fermat's.
  - The tower of F_{p^k}, k >= 3: Karatsuba on the base field's payload ops.
Fields without a polymul kernel (k = 2 towers and k >= 3) run polymul on
their payload ops; every field but F_p runs polydivmod on its payload ops,
and Ben-Or's irreducibility test runs Euclid over F_p on _int_polydivmod.

A FieldElement holds the field object of its payload.  Two operands meet
in join(F, G), the one rule for mixing field objects: the tower when
exactly one side is a tower, else F; each side's payload is then moved
there by that field's lift(); poly.lifted applies the same rule to any
number of values.  The binary operators of FieldElement and poly.Poly are
one rule, _binary(op, build): the class's _pair gives both operands as
payloads x, y over one field object F, and the result is
build(F, op(F, x, y)); an operand _pair does not take gives NotImplemented.
Equality, hashing and encode() go by value;
a value in F_p hashes like its int in [0, p).  All values are immutable.
"""

from __future__ import annotations

import operator

from .errors import (
    CharacteristicTwo,
    CtxMismatch,
    DivisionByZero,
    InternalInvariantViolation,
    NotPrime,
    ReducibleModulus,
    TowerExhausted,
)


# The first twelve primes.  As Miller-Rabin bases they are exact below 2^62:
# the least strong pseudoprime to all of them is about 3.2e23 (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_odd_prime(n):
    """Whether n is an odd prime; exact for n < 2^62, the only n asked."""
    if n < 3 or n % 2 == 0:
        return False
    for b in _MR_BASES[1:]:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_value(v, what):
    """v as an int; floats, strings and bools are refused, not truncated."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {v!r}")


def _square_multiply(mul, one, a, e):
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _int_polymul(p):
    """Product of two lists of ints mod p, low-to-high: raw int products are
    summed and reduced once per coefficient."""

    def polymul(a, b):
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return [c % p for c in out]

    return polymul


def _int_polydivmod(p):
    """(quotient, remainder) of lists of ints mod p, b with a nonzero leading
    coefficient and len(a) >= len(b); no inversion when b is monic."""

    def polydivmod(a, b):
        db = len(b) - 1
        inv_lc = pow(b[-1], -1, p) if b[-1] != 1 else 1
        r = list(a)
        q = [0] * (len(a) - db)
        low = b[:db]
        for i in range(len(q) - 1, -1, -1):
            c = r[i + db] % p
            if c:
                if inv_lc != 1:
                    c = c * inv_lc % p
                q[i] = c
                for j, y in enumerate(low, i):
                    r[j] -= c * y
        r = [c % p for c in r[:db]]
        while r and not r[-1]:
            r.pop()
        return q, r

    return polydivmod


def _quadratic(p, c0, c1):
    """add, sub, neg, mul, inv and polymul of F_p[w]/(w^2 - c1*w - c0),
    w^2 = c0 + c1*w irreducible, on pairs of ints (a0, a1) standing for
    a0 + a1*w."""

    def mul(a, b):
        a0, a1 = a
        b0, b1 = b
        c = a1 * b1
        return ((a0 * b0 + c0 * c) % p, (a0 * b1 + a1 * b0 + c1 * c) % p)

    def polymul(a, b):
        # per coefficient, the raw sums of x0*y0, x0*y1 + x1*y0 and x1*y1,
        # then one reduction by w^2 = c0 + c1*w and mod p
        if not a or not b:
            return []
        n = len(a) + len(b) - 1
        s0, s1, s2 = [0] * n, [0] * n, [0] * n
        for i, (x0, x1) in enumerate(a):
            if x0 or x1:
                for j, (y0, y1) in enumerate(b, i):
                    s0[j] += x0 * y0
                    s1[j] += x0 * y1 + x1 * y0
                    s2[j] += x1 * y1
        return [((u + c0 * w) % p, (v + c1 * w) % p) for u, v, w in zip(s0, s1, s2)]

    def inv(a):
        # a * conj(a) = N(a) in F_p, with conj(w) = c1 - w
        a0, a1 = a
        n = (a0 * a0 + c1 * a0 * a1 - c0 * a1 * a1) % p
        if not n:
            raise DivisionByZero("inverse of zero")
        n = pow(n, -1, p)
        return ((a0 + c1 * a1) * n % p, -a1 * n % p)

    return (
        lambda a, b: ((a[0] + b[0]) % p, (a[1] + b[1]) % p),
        lambda a, b: ((a[0] - b[0]) % p, (a[1] - b[1]) % p),
        lambda a: (-a[0] % p, -a[1] % p),
        mul,
        inv,
        polymul,
    )


def _quartic(p, c0, c1, n0, n1):
    """add, sub, neg and mul of F_p[t, u]/(t^2 - c1*t - c0, u^2 - n0 - n1*t)
    on pairs of pairs of ints ((a00, a01), (a10, a11)), standing for
    a00 + a01*t + (a10 + a11*t)*u.  The product sums raw int products and
    reduces mod p once per output coordinate."""

    def add(a, b):
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        return ((a00 + b00) % p, (a01 + b01) % p), ((a10 + b10) % p, (a11 + b11) % p)

    def sub(a, b):
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        return ((a00 - b00) % p, (a01 - b01) % p), ((a10 - b10) % p, (a11 - b11) % p)

    def neg(a):
        (a00, a01), (a10, a11) = a
        return (-a00 % p, -a01 % p), (-a10 % p, -a11 % p)

    def mul(a, b):
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        # A1*B1 with t^2 folded in, then A0*B0 + ns*A1*B1 and A0*B1 + A1*B0
        # as polynomials of degree 2 in t
        q2 = a11 * b11
        q0 = a10 * b10 + c0 * q2
        q1 = a10 * b11 + a11 * b10 + c1 * q2
        s2 = a01 * b01 + n1 * q1
        s0 = a00 * b00 + n0 * q0 + c0 * s2
        s1 = a00 * b01 + a01 * b00 + n0 * q1 + n1 * q0 + c1 * s2
        r2 = a01 * b11 + a11 * b01
        r0 = a00 * b10 + a10 * b00 + c0 * r2
        r1 = a00 * b11 + a01 * b10 + a10 * b01 + a11 * b00 + c1 * r2
        return ((s0 % p, s1 % p), (r0 % p, r1 % p))

    return add, sub, neg, mul


class _Field:
    """Element construction and the payload-op polynomial loops, shared by
    the base field and its tower."""

    __slots__ = ()

    def elem(self, payload):
        return FieldElement(self, payload)

    def zero(self):
        return FieldElement(self, self._zero)

    def one(self):
        return FieldElement(self, self._one)

    def from_int(self, n):
        return FieldElement(self, self._int_payload(_int_value(n, "field element")))

    def elements(self):
        for i in range(self.q):
            yield FieldElement(self, self._from_index(i))

    def _polymul_loop(self, a, b):
        """Product of two payload lists, low-to-high."""
        if not a or not b:
            return []
        add, mul, z = self.add, self.mul, self._zero
        out = [z] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x != z:
                for j, y in enumerate(b, i):
                    out[j] = add(out[j], mul(x, y))
        return out

    def _polydivmod_loop(self, a, b):
        """(quotient, remainder) of payload lists, b nonzero and len(a) >= len(b);
        no inversion when b is monic."""
        sub, mul, z = self.sub, self.mul, self._zero
        db = len(b) - 1
        inv = None if b[-1] == self._one else self.inv(b[-1])
        r = list(a)
        q = [z] * (len(a) - db)
        low = b[:db]
        for i in range(len(q) - 1, -1, -1):
            c = r[i + db] if inv is None else mul(r[i + db], inv)
            if c != z:
                q[i] = c
                for j, y in enumerate(low, i):
                    r[j] = sub(r[j], mul(c, y))
        del r[db:]
        while r and r[-1] == z:
            r.pop()
        return q, r


class FieldCtx(_Field):
    """Shared, immutable context for the base field F_q; ``tower`` is F_{q^2}."""

    __slots__ = (
        "p",
        "k",
        "modulus",
        "q",
        "q2",
        "nonsquare",
        "base",
        "tower",
        "_ns_inv",
        "_half",
        "_ts",
        "_zero",
        "_one",
        "add",
        "sub",
        "neg",
        "mul",
        "inv",
        "pow",
        "polymul",
        "polydivmod",
    )

    def __init__(self, p, modulus):
        p = _int_value(p, "p")
        if p == 2:
            raise CharacteristicTwo("characteristic 2 is not supported")
        if p >= 2**62:
            raise NotPrime(f"{p} exceeds the machine-word bound (< 2^62)")
        if not _is_odd_prime(p):
            raise NotPrime(f"{p} is not an odd prime")
        self.p = p

        given = [_int_value(c, "modulus coefficient") for c in modulus]
        mod = [c % p for c in given]
        while mod and mod[-1] == 0:
            mod.pop()
        mod = tuple(mod)
        if mod == (1,) or len(mod) == 2 and mod[1] == 1:
            # [1], the CLI convention, and every monic degree-1 modulus give
            # F_p itself; one form keeps same_field exact, and k = 1
            # arithmetic and encodings never read it
            mod = (0, 1)
        if len(mod) < 2:
            raise ReducibleModulus(
                f"modulus {given} over F_{p} must have degree >= 1 (or be [1])"
            )
        if mod[-1] != 1:
            raise ReducibleModulus(f"modulus {given} over F_{p} must be monic")
        self.k = k = len(mod) - 1
        if k**3 * p.bit_length() > 2**18:
            # bounds the cost of the irreducibility test and of every power
            raise ReducibleModulus(
                f"modulus of degree {k} over F_{p} is too large (k^3 * bits(p) > 2^18)"
            )
        self.modulus = mod
        self.q = p**self.k
        self.q2 = self.q * self.q
        self.base = self
        self._zero = self._pack((0,) * self.k)
        self._one = self._int_payload(1)
        self._bind_ops()
        if self.k > 1:
            self._check_irreducible()
        self.nonsquare = self._find_nonsquare()
        self._ns_inv = self.inv(self.nonsquare)
        self._half = self._int_payload((p + 1) // 2)
        m, e = self.q - 1, 0
        while m % 2 == 0:
            m //= 2
            e += 1
        self._ts = (m, e, self.pow(self.nonsquare, m))
        self.tower = TowerField(self)

    def _bind_ops(self):
        """Install the payload operations for this k (hot path)."""
        p, k, zero = self.p, self.k, self._zero
        self.polymul, self.polydivmod = self._polymul_loop, self._polydivmod_loop
        if k == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p
            self.pow = lambda a, e: pow(a, e, p)

            def inv(a):
                if not a:
                    raise DivisionByZero("inverse of zero")
                return pow(a, -1, p)

            self.inv = inv
            self.polymul, self.polydivmod = _int_polymul(p), _int_polydivmod(p)
        elif k == 2:
            m0, m1 = self.modulus[:2]
            ops = _quadratic(p, -m0 % p, -m1 % p)
            self.add, self.sub, self.neg, self.mul, self.inv, self.polymul = ops
        else:
            polymul, polydivmod, mod = _int_polymul(p), _int_polydivmod(p), self.modulus
            self.add = lambda a, b: tuple([(x + y) % p for x, y in zip(a, b)])
            self.sub = lambda a, b: tuple([(x - y) % p for x, y in zip(a, b)])
            self.neg = lambda a: tuple([-x % p for x in a])

            def mul(a, b):
                r = polydivmod(polymul(a, b), mod)[1]
                return tuple(r) + (0,) * (k - len(r))

            def inv(a):
                if a == zero:
                    raise DivisionByZero("inverse of zero")
                return self.pow(a, self.q - 2)

            self.mul, self.inv = mul, inv
        if k > 1:
            mul, one = self.mul, self._one
            self.pow = lambda a, e: _square_multiply(mul, one, a, e)

    # -- construction-time validation ------------------------------------

    def _check_irreducible(self):
        """Ben-Or's test: the modulus m of degree k is irreducible exactly when
        gcd(m, t^(p^d) - t) = 1 for d = 1 .. k/2.  One Frobenius step per d,
        Euclid over F_p, and a refusal at the first d that shares a factor."""
        p, k, m = self.p, self.k, self.modulus
        polydivmod = _int_polydivmod(p)
        t = x = (0, 1) + (0,) * (k - 2)
        for _ in range(k // 2):
            x = self.pow(x, p)
            a, b = m, list(self.sub(x, t))
            while b and not b[-1]:
                b.pop()
            while b:
                a, b = b, polydivmod(a, b)[1]
            if len(a) != 1:
                raise ReducibleModulus(f"modulus {list(m)} is not irreducible over F_{p}")

    def _find_nonsquare(self):
        # For even k all of F_p (indices below p) are squares in F_{p^k}.
        for i in range(self.p if self.k % 2 == 0 else 1, self.q):
            cand = self._from_index(i)
            if not self.is_square(cand):
                return cand
        raise InternalInvariantViolation(
            "no non-square found in an odd-order field"
        )  # pragma: no cover

    # -- payload arithmetic (an int for k = 1, else a k-tuple of ints) ----

    def _pack(self, coords):
        """The payload whose k coordinates over F_p are the tuple coords."""
        return coords[0] if self.k == 1 else coords

    def _coords(self, a):
        """The k coordinates over F_p of the payload a, as a tuple."""
        return (a,) if self.k == 1 else a

    def _int_payload(self, n):
        return self._pack((n % self.p,) + (0,) * (self.k - 1))

    def _prime_value(self, a):
        """The int in [0, p) equal to the payload a, or None outside F_p."""
        c = self._coords(a)
        return None if any(c[1:]) else c[0]

    def _from_index(self, i):
        p, k = self.p, self.k
        digits = []
        for _ in range(k):
            digits.append(i % p)
            i //= p
        return self._pack(tuple(digits))

    def is_square(self, a):
        """Euler's criterion."""
        return a == self._zero or self.pow(a, (self.q - 1) // 2) == self._one

    def sqrt(self, a):
        """A square root of the payload a, or None when a is a non-square.

        Tonelli-Shanks with q - 1 = m * 2^e and c = ns^m; one exponentiation
        gives both the first root guess r = a^((m+1)/2) and t = a^m.  A
        non-square shows as t of full order 2^e.  For q = 3 (mod 4), e = 1
        and this is the single power a^((q+1)/4).
        """
        bmul, one = self.mul, self._one
        if a == self._zero:
            return a
        m, e, c = self._ts
        w = self.pow(a, (m - 1) // 2)
        r = bmul(a, w)
        t = bmul(r, w)
        while t != one:
            i, t2 = 0, t
            while t2 != one:
                t2 = bmul(t2, t2)
                i += 1
            if i == e:
                return None
            b = self.pow(c, 1 << (e - i - 1))
            r = bmul(r, b)
            c = bmul(b, b)
            t = bmul(t, c)
            e = i
        return r

    def lowest(self, a):
        """(field object, payload) of the smallest field holding the value."""
        return self, a

    def encode(self, a):
        return list(self._coords(a))

    def lift(self, G, a):
        """The payload a of G, a field object for this same field, as one of self."""
        return a

    # -- element construction --------------------------------------------

    def from_coeffs(self, coeffs):
        """Build an element from F_p coefficients, low-to-high (length <= k)."""
        c = tuple(_int_value(v, "field element coefficient") % self.p for v in coeffs)
        if len(c) > self.k:
            raise ValueError(f"expected at most {self.k} coefficients")
        return FieldElement(self, self._pack(c + (0,) * (self.k - len(c))))

    def generator(self):
        """The power-basis generator t of F_{p^k} (t = 0 when k = 1)."""
        if self.k == 1:
            return self.zero()
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    def decode(self, obj):
        """Parse the JSON encoding: [ints] (base) or [[ints], [ints]] (tower).

        A tower encoding whose u-coordinate is zero gives a base element.
        """
        if not isinstance(obj, (list, tuple)) or not obj:
            raise ValueError(f"bad field element encoding: {obj!r}")
        if not isinstance(obj[0], (list, tuple)):
            return self.from_coeffs(obj)
        if len(obj) != 2:
            raise ValueError(f"quadratic encoding needs two parts: {obj!r}")
        c0 = self.from_coeffs(obj[0]).payload
        c1 = self.from_coeffs(obj[1]).payload
        if c1 == self._zero:
            return FieldElement(self, c0)
        return FieldElement(self.tower, (c0, c1))

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


class TowerField(_Field):
    """F_{q^2} = F_q[u]/(u^2 - ns) over a base context, on pairs of base payloads."""

    __slots__ = (
        "base",
        "tower",
        "p",
        "q",
        "_zero",
        "_one",
        "add",
        "sub",
        "neg",
        "mul",
        "inv",
        "polymul",
        "polydivmod",
    )

    def __init__(self, base):
        self.base = base
        self.tower = self
        self.p = base.p
        self.q = base.q2
        z = base._zero
        self._zero = (z, z)
        self._one = (base._one, z)
        self.polymul, self.polydivmod = self._polymul_loop, self._polydivmod_loop
        ns = base.nonsquare
        if base.k == 1:
            ops = _quadratic(base.p, ns, 0)
            self.add, self.sub, self.neg, self.mul, self.inv, self.polymul = ops
            return
        badd, bsub, bneg, bmul, binv = base.add, base.sub, base.neg, base.mul, base.inv

        def inv(a):
            ninv = binv(self._norm(a))
            return (bmul(a[0], ninv), bneg(bmul(a[1], ninv)))

        self.inv = inv
        if base.k == 2:
            p, (m0, m1) = base.p, base.modulus[:2]
            self.add, self.sub, self.neg, self.mul = _quartic(p, -m0 % p, -m1 % p, *ns)
            return

        def mul(a, b):
            # Karatsuba: three base products
            a0, a1 = a
            b0, b1 = b
            t0 = bmul(a0, b0)
            t1 = bmul(a1, b1)
            m = bmul(badd(a0, a1), badd(b0, b1))
            return (badd(t0, bmul(ns, t1)), bsub(bsub(m, t0), t1))

        self.mul = mul
        self.add = lambda a, b: (badd(a[0], b[0]), badd(a[1], b[1]))
        self.sub = lambda a, b: (bsub(a[0], b[0]), bsub(a[1], b[1]))
        self.neg = lambda a: (bneg(a[0]), bneg(a[1]))

    def _norm(self, a):
        """N(a0 + a1*u) = a0^2 - ns*a1^2, a base payload."""
        base = self.base
        bmul = base.mul
        a0, a1 = a
        return base.sub(bmul(a0, a0), bmul(base.nonsquare, bmul(a1, a1)))

    def pow(self, a, e):
        return _square_multiply(self.mul, self._one, a, e)

    def is_square(self, a):
        """The norm criterion: a is a square exactly when N(a) is a base square."""
        return self.base.is_square(self._norm(a))

    def sqrt(self, a):
        """A square root of the payload a, or None for a non-square.

        Only base-field roots are taken.  With x1 = 0, x0 is a base square or
        x0/ns is, and then (sqrt(x0/ns)*u)^2 = x0.  Otherwise, with
        n^2 = N(a), d = (x0 +- n)/2 and r^2 = d, the root is r + x1/(2r)*u.
        The two candidates for d multiply to ns*x1^2/4, a non-square, so
        exactly one of them is a base square.
        """
        base = self.base
        bmul, bsqrt, zero = base.mul, base.sqrt, base._zero
        x0, x1 = a
        if x1 == zero:
            r = bsqrt(x0)
            if r is not None:
                return (r, zero)
            return (zero, bsqrt(bmul(x0, base._ns_inv)))
        n = bsqrt(self._norm(a))
        if n is None:
            return None
        r = bsqrt(bmul(base.add(x0, n), base._half))
        if r is None:
            r = bsqrt(bmul(base.sub(x0, n), base._half))
        return (r, bmul(x1, base.inv(base.add(r, r))))

    def lowest(self, a):
        if a[1] == self.base._zero:
            return self.base, a[0]
        return self, a

    def encode(self, a):
        return [self.base.encode(a[0]), self.base.encode(a[1])]

    def lift(self, G, a):
        """The payload a of G, a tower or a base of this same field, as one of self."""
        return a if G.tower is G else (a, self.base._zero)

    def _from_index(self, i):
        q, b = self.base.q, self.base._from_index
        return (b(i % q), b(i // q))

    def _int_payload(self, n):
        return (self.base._int_payload(n), self.base._zero)

    def _prime_value(self, a):
        return self.base._prime_value(a[0]) if a[1] == self.base._zero else None

    def generator(self):
        """The element u with u^2 = nonsquare."""
        return FieldElement(self, (self.base._zero, self.base._one))

    def __repr__(self):
        return f"TowerField(p={self.p}, k={self.base.k})"


def ctx_new(p, modulus):
    """Validated field context; see FieldCtx."""
    return FieldCtx(p, modulus)


def join(F, G):
    """The field object that holds operands of field objects F and G.

    That is the tower when exactly one of them is a tower, and F otherwise,
    including two distinct objects for the same field; raises CtxMismatch
    when F and G belong to different fields.
    """
    if G is F:
        return F
    if G.base is not F.base:
        F.base.check_same(G.base)
    return G if G.tower is G and F.tower is not F else F


def _binary(op, build):
    """The binary operator method of a value class: self._pair(other) gives
    both operands as payloads x, y over one field object F, and the result
    is build(F, op(F, x, y)); an operand _pair does not take (F is None)
    gives NotImplemented, so Python tries the reflected operator."""

    def method(self, other):
        F, x, y = self._pair(other)
        if F is None:
            return NotImplemented
        return build(F, op(F, x, y))

    return method


def _rsub(self, other):
    """other - self, as (-self) + other."""
    return (-self).__add__(other)


def _element(F, x):
    return FieldElement(F, x)


class FieldElement:
    """Immutable element of a base field F_q or of its tower F_{q^2}."""

    __slots__ = ("field", "payload")

    def __init__(self, field, payload):
        self.field = field
        self.payload = payload

    def _pair(self, other):
        """(H, x, y): both operands as payloads of H = join(their fields)."""
        F = self.field
        if isinstance(other, int):
            return F, self.payload, F._int_payload(other)
        if not isinstance(other, FieldElement):
            return None, None, None
        G = other.field
        if G is F:
            return F, self.payload, other.payload
        H = join(F, G)
        return H, H.lift(F, self.payload), H.lift(G, other.payload)

    # -- arithmetic --------------------------------------------------------

    __add__ = __radd__ = _binary(lambda F, x, y: F.add(x, y), _element)
    __sub__ = _binary(lambda F, x, y: F.sub(x, y), _element)
    __rsub__ = _rsub
    __mul__ = __rmul__ = _binary(lambda F, x, y: F.mul(x, y), _element)
    __truediv__ = _binary(lambda F, x, y: F.mul(x, F.inv(y)), _element)
    __rtruediv__ = _binary(lambda F, x, y: F.mul(y, F.inv(x)), _element)

    def __neg__(self):
        F = self.field
        return FieldElement(F, F.neg(self.payload))

    def inverse(self):
        F = self.field
        return FieldElement(F, F.inv(self.payload))

    def __pow__(self, e):
        e = _int_value(e, "exponent")
        if e < 0:
            return self.inverse() ** (-e)
        F = self.field
        return FieldElement(F, F.pow(self.payload, e))

    def __eq__(self, other):
        """Equality by value, across field objects of one field.  An int n
        equals x when n = x (mod p); only n in [0, p) also hashes like x."""
        if isinstance(other, int):
            return self.payload == self.field._int_payload(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field is self.field:
            return self.payload == other.payload
        if not self.field.base.same_field(other.field.base):
            return False
        return self._lowest()[1] == other._lowest()[1]

    def __hash__(self):
        """A value in F_p hashes like its int in [0, p), as it compares equal
        to it; any other value by its field and lowest payload.  An int
        outside [0, p) may equal x yet hash apart: hash() cannot reduce mod p."""
        n = self.field._prime_value(self.payload)
        if n is not None:
            return hash(n)
        F, x = self._lowest()
        return hash((F.p, F.base.modulus, x))

    def _lowest(self):
        return self.field.lowest(self.payload)

    def is_zero(self):
        return self.payload == self.field._zero

    def __bool__(self):
        return not self.is_zero()

    # -- field structure ---------------------------------------------------

    def is_square(self):
        return self.field.is_square(self.payload)

    def sqrt(self):
        """Canonical square root, in the tower when the base has none.

        Among {s, -s} the root with the lexicographically smaller integer
        encoding is returned.  Raises TowerExhausted for a non-square of the
        tower: that would need a context one level higher.
        """
        F, x = self.field, self.payload
        s = F.sqrt(x)
        if s is None:
            if F.tower is F:
                raise TowerExhausted(
                    "element is not a square in F_{p^{2k}}; rebuild the context one level up"
                )
            s, F = (F._zero, F.sqrt(F.mul(x, F._ns_inv))), F.tower
        # payloads order like their encode()
        return FieldElement(F, min(s, F.neg(s)))

    def frobenius(self):
        """The p-power map x -> x^p."""
        return self ** self.field.p

    def in_prime_field(self):
        """Whether x^p = x, i.e. x lies in F_p.

        In the power basis this is exactly "a base value whose non-constant
        coordinates vanish", which is what gets checked.
        """
        return self.field._prime_value(self.payload) is not None

    def as_prime_int(self):
        """Integer representative in [0, p); requires in_prime_field()."""
        n = self.field._prime_value(self.payload)
        if n is None:
            raise ValueError("element does not lie in the prime field")
        return n

    # -- encoding ----------------------------------------------------------

    def encode(self):
        """JSON form: [ints] for a base value, [[ints], [ints]] otherwise.

        Tower elements with zero u-coordinate take the base form so that
        equal values always serialize identically.
        """
        F, x = self._lowest()
        return F.encode(x)

    def __repr__(self):
        k = self.field.base.k
        return f"FieldElement({self.encode()!r} over F_{self.field.p}^{k})"
