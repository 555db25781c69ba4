"""Finite-field and polynomial arithmetic for the benchmark's output checks.

This module does not import jachalf.  It re-derives, from integers alone,
what the library's outputs must satisfy: a field F_q = F_p[t]/(m) with
q = p^k, its quadratic step F_{q^2} = F_q[u]/(u^2 - ns), and dense
polynomials over F_{q^2}.  `ns` follows the library's documented encoding:
the non-square of F_q with the smallest index, where index i stands for the
element whose base-p digits, low first, are its power-basis coordinates.

Base elements are k-tuples of ints; tower elements are pairs of those.
Polynomials are lists of tower elements, low-to-high, with no trailing zeros.
"""

from __future__ import annotations

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin; exact for n < 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo, hi):
    return [n for n in range(lo, hi + 1) if is_prime(n)]


def euler(a, p):
    """Legendre symbol of a mod an odd prime p, as 0, 1 or -1."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def smallest_nonresidue(p):
    return next(c for c in range(2, p) if euler(c, p) == -1)


def sqrt_mod(a, p):
    """A square root of a square a mod an odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if euler(a, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = smallest_nonresidue(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


class Tower:
    """F_q = F_p[t]/(m) and F_{q^2} = F_q[u]/(u^2 - ns)."""

    def __init__(self, p, modulus):
        mod = [c % p for c in modulus]
        while mod and mod[-1] == 0:
            mod.pop()
        if mod == [1]:
            mod = [0, 1]
        self.p = p
        self.k = len(mod) - 1
        self.mt = mod[:-1]
        self.q = p**self.k
        self.zero = (0,) * self.k
        self.one = (1,) + (0,) * (self.k - 1)
        self.ns = next(
            e for e in map(self.from_index, range(1, self.q)) if not self.is_square(e)
        )
        self.qzero = (self.zero, self.zero)
        self.qone = (self.one, self.zero)

    # -- F_q ---------------------------------------------------------------

    def from_index(self, i):
        digits = []
        for _ in range(self.k):
            digits.append(i % self.p)
            i //= self.p
        return tuple(digits)

    def elements(self):
        return map(self.from_index, range(self.q))

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        p, k, mt = self.p, self.k, self.mt
        out = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        for idx in range(2 * k - 2, k - 1, -1):
            c = out[idx]
            for j in range(k):
                out[idx - k + j] -= c * mt[j]
        return tuple(v % p for v in out[:k])

    def pow(self, a, e):
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def is_square(self, a):
        return a == self.zero or self.pow(a, (self.q - 1) // 2) == self.one

    def sqrt(self, a):
        """A square root of a square of F_q, by search when q is small."""
        if self.k == 1:
            return (sqrt_mod(a[0], self.p),)
        return next(r for r in self.elements() if self.mul(r, r) == a)

    def in_prime_field(self, a):
        return all(c == 0 for c in a[1:])

    # -- F_{q^2} -----------------------------------------------------------

    def qadd(self, a, b):
        return (self.add(a[0], b[0]), self.add(a[1], b[1]))

    def qsub(self, a, b):
        return (self.sub(a[0], b[0]), self.sub(a[1], b[1]))

    def qmul(self, a, b):
        m = self.mul
        t0 = self.add(m(a[0], b[0]), m(self.ns, m(a[1], b[1])))
        t1 = self.add(m(a[0], b[1]), m(a[1], b[0]))
        return (t0, t1)

    def qpow(self, a, e):
        result = self.qone
        while e:
            if e & 1:
                result = self.qmul(result, a)
            a = self.qmul(a, a)
            e >>= 1
        return result

    def qis_square(self, a):
        return a == self.qzero or self.qpow(a, (self.q * self.q - 1) // 2) == self.qone

    def qelements(self):
        base = list(self.elements())
        return ((c0, c1) for c1 in base for c0 in base)

    def lift(self, a):
        return (a, self.zero)

    def decode(self, enc):
        """The library's JSON element encoding as a tower element."""
        if enc and isinstance(enc[0], list):
            c0, c1 = enc
            return (self._coords(c0), self._coords(c1))
        return (self._coords(enc), self.zero)

    def _coords(self, cs):
        if len(cs) > self.k or not all(isinstance(c, int) for c in cs):
            raise ValueError(f"bad coordinates {cs!r}")
        return tuple(c % self.p for c in cs) + (0,) * (self.k - len(cs))

    def q_in_prime_field(self, a):
        return a[1] == self.zero and self.in_prime_field(a[0])

    # -- polynomials over F_{q^2} -----------------------------------------

    def ptrim(self, f):
        f = list(f)
        while f and f[-1] == self.qzero:
            f.pop()
        return f

    def pmul(self, f, g):
        if not f or not g:
            return []
        out = [self.qzero] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] = self.qadd(out[i + j], self.qmul(x, y))
        return self.ptrim(out)

    def psub(self, f, g):
        n = max(len(f), len(g))
        f = list(f) + [self.qzero] * (n - len(f))
        g = list(g) + [self.qzero] * (n - len(g))
        return self.ptrim(self.qsub(x, y) for x, y in zip(f, g))

    def pmod_monic(self, f, m):
        """f mod a monic m."""
        r = list(f)
        dm = len(m) - 1
        for i in range(len(r) - 1, dm - 1, -1):
            c = r[i]
            if c != self.qzero:
                for j in range(dm + 1):
                    r[i - dm + j] = self.qsub(r[i - dm + j], self.qmul(c, m[j]))
        return self.ptrim(r[:dm])

    def from_roots(self, roots):
        f = [self.qone]
        for r in roots:
            f = self.pmul(f, [self.qsub(self.qzero, r), self.qone])
        return f

    def peval(self, f, x):
        acc = self.qzero
        for c in reversed(f):
            acc = self.qadd(self.qmul(acc, x), c)
        return acc

    def check_mumford(self, f, U_enc, V_enc, g, exact_degree):
        """Problems with a Mumford pair (U, V) on y^2 = f, as a list of strings.

        U must be monic of degree g (or at most g when exact_degree is off),
        deg V < deg U, and U | V^2 - f.
        """
        U = self.ptrim(self.decode(c) for c in U_enc)
        V = self.ptrim(self.decode(c) for c in V_enc)
        problems = []
        if not U or U[-1] != self.qone:
            return ["U is not monic"]
        du = len(U) - 1
        if du > g or (exact_degree and du != g):
            problems.append(f"deg U = {du} for genus {g}")
        if len(V) - 1 >= du and V:
            problems.append("deg V >= deg U")
        if self.pmod_monic(self.psub(self.pmul(V, V), f), U):
            problems.append("U does not divide V^2 - f")
        return problems
