"""Readers of one p-part `FiniteQuadraticForm` for the tests: values of q in
Q/2Z and of b in Q/Z as `Fraction`s, the elements of A_p and their orders.
The program reads only the integer tables `q` and `b` at the scale of the
exponent n; these readers turn them back into the values they stand for."""

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import mul


def element_order(form, x: tuple[int, ...]) -> int:
    return lcm(*(d // gcd(d, xi) for xi, d in zip(x, form.orders)))


def q_of(form, x: tuple[int, ...]) -> Fraction:
    n = form.exponent
    total = 0
    for i, xi in enumerate(x):
        total += xi * (xi * form.q[i] + 2 * sum(map(mul, x[i + 1:], form.b[i][i + 1:])))
    return Fraction(total % (2 * n), n)


def b_of(form, x: tuple[int, ...], y: tuple[int, ...]) -> Fraction:
    n = form.exponent
    total = sum(xi * sum(map(mul, y, row)) for xi, row in zip(x, form.b))
    return Fraction(total % n, n)


def elements(form):
    return itertools.product(*(range(d) for d in form.orders))
