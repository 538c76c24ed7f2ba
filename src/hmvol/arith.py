"""Elementary integer arithmetic: primality, factorization, symbols.

Everything here is deterministic and exact for inputs below 2**64; the
factorizer falls back to Pollard rho for composites that survive trial
division.
"""

from __future__ import annotations

import math

# The trial-division primes, and a deterministic Miller-Rabin witness set
# for n < 3.3 * 10**24.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(factors.items()))


def squarefree_split(factors: dict[int, int]) -> tuple[int, int]:
    """(c, t) with c squarefree and c * t**2 = prod p^e, from {p: e}."""
    c = t = 1
    for p, e in factors.items():
        if e % 2:
            c *= p
        t *= p ** (e // 2)
    return c, t


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s * t**2 with s squarefree (sign carried by s). n != 0."""
    if n == 0:
        raise ValueError("squarefree_decompose expects a nonzero integer")
    c, t = squarefree_split(factorize(abs(n)))
    return (-c if n < 0 else c), t


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def kronecker(a: int, n: int) -> int:
    """Full Kronecker symbol (a|n), extending Jacobi to all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # split off the 2-part of n
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        two_val = 0
        while n % 2 == 0:
            n //= 2
            two_val += 1
        if two_val % 2 and a % 8 in (3, 5):
            result = -result
    # Jacobi symbol (a|n) for odd n > 0 by quadratic reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0

