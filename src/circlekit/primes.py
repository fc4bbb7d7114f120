"""Prime numbers and the number theory over them that the other modules
share, in pure Python: the sieve of Eratosthenes, a primality test, integer
factorisation, the p-adic valuation, the Jacobi symbol (the Legendre symbol
at a prime) and a congruence diagonaliser of symmetric matrices over Q or
mod an odd prime.

The primality test is deterministic below 2^64 (Miller-Rabin to the twelve
bases 2..37) and Baillie-PSW above.  Factorisation is trial division by the
primes up to 37, perfect powers, then Pollard's rho.  Rho takes about
sqrt(p) steps, p the second-largest prime factor, so an integer with two
prime factors above about 10^16 takes minutes.
"""
from fractions import Fraction
from itertools import compress, count
from math import gcd, inf, isqrt

from .poly import _charge


def primes_up_to(N):
    """The primes p <= N, by a sieve of N + 1 entries charged up front.

    Only the odd numbers are stored, one byte each: entry i is 2 i + 1, so
    an odd prime p strikes out every p-th entry from p^2 on.
    """
    if N < 2:
        return []
    _charge(N + 1, f"sieve to {N}")
    sieve = bytearray([1]) * ((N + 1) // 2)
    sieve[0] = 0                                # 1 is not prime
    for i in range(1, (isqrt(N) + 1) // 2):
        if sieve[i]:
            start, p = 2 * i * (i + 1), 2 * i + 1   # (p^2 - 1) / 2, p
            sieve[start::p] = bytes((len(sieve) - 1 - start) // p + 1)
    return [2, *(2 * i + 1 for i in compress(range(len(sieve)), sieve))]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_probable_prime(n, a):
    """One Miller-Rabin round for odd n > a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0."""
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """Strong Lucas test with Selfridge's parameters, for odd n > 37 with
    no prime factor up to 37."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5                       # first of 5, -7, 9, -11, ... with (D/n) = -1
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4            # P = 1
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    U, V, Qk = 1, 1, Q          # U_k, V_k, Q^k for k = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U, V = (U + n * (U % 2)) // 2 % n, (V + n * (V % 2)) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _is_prime(n):
    """Primality of an integer: deterministic below 2^64 (Miller-Rabin to
    the twelve bases 2..37), Baillie-PSW above (no counterexample known)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 1 << 64:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _perfect_power(n):
    """(r, k) with n = r^k and k > 1 prime, or None."""
    for k in range(2, n.bit_length() + 1):
        if not _is_prime(k):
            continue
        r = 1 << -(-n.bit_length() // k)        # Newton from above: floor root
        while (y := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = y
        if r ** k == n:
            return r, k
    return None


def _rho(n):
    """A proper factor of the odd composite n that is not a perfect power
    (Pollard's rho with Brent's cycle search)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:              # the batch overshot: retrace it step by step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _factorint(n):
    """Prime factorisation {p: e} of an integer n >= 1: trial division by
    2..37, then perfect powers and Pollard's rho on what is left."""
    out = {}
    for p in _MR_BASES:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + e
        elif power := _perfect_power(m):
            stack.append((power[0], e * power[1]))
        else:
            d = _rho(m)
            stack += [(d, e), (m // d, e)]
    return out


def _valuation(a, p):
    """(v, u) with a = p^v u and u prime to p, u of a's sign; v is infinite
    and u is 0 for a = 0."""
    if a == 0:
        return inf, 0
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def _diagonal(M, p=None):
    """The nonzero entries of a diagonal form congruent to the symmetric
    matrix M, over Q (``p`` None, entries made Fractions) or mod an odd
    prime p: pivot on a nonzero diagonal entry, or make one from a nonzero
    M_ij with M_ii = M_jj = 0 by x_i -> x_i + x_j (new M_ii = 2 M_ij), and
    pass to the Schur complement.  Their number is the rank of M; at full
    rank their product is det(M) times a nonzero square."""
    M, d = [[v % p if p else Fraction(v) for v in row] for row in M], []
    while M:
        k = next((i for i, row in enumerate(M) if row[i]), None)
        if k is None:
            k, j = next(((i, j) for i, row in enumerate(M)
                         for j in range(i) if row[j]), (None, None))
            if k is None:
                break
            for row in M:
                row[k] += row[j]
            M[k] = [u + v for u, v in zip(M[k], M[j])]
        pivot = M.pop(k)
        a = pivot.pop(k)
        d.append(a % p if p else a)
        inv = pow(a, -1, p) if p else 1 / a
        for row in M:
            r = row.pop(k) * inv
            row[:] = [(v - r * u) % p if p else v - r * u
                      for v, u in zip(row, pivot)]
    return d
