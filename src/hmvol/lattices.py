"""Integral lattices given by symmetric Gram matrices, with exact invariants.

A lattice here is a free Z-module of finite rank with an integer-valued
symmetric bilinear form.  Determinant and signature are exact, and no
fraction or floating point enters anywhere.  A Gram literal gets them from
one fraction-free (Bareiss) congruence elimination over Z.  The named atoms
U(k) and <k> have them in closed form, E8(k) rescales one E8 eliminated at
import, and rescaling multiplies det by c^rank and swaps the signature when
c < 0.  A direct sum records its atoms (`summands`, nested sums flattened)
and takes det as their product and the signature as their sum, so no
elimination runs on its Gram; `jordan_decompose` splits the atoms too.

Constructors also track whether a hyperbolic-plane direct summand is
syntactically present, which downstream code uses to justify the
one-class-per-genus assumption for index computations.
"""

from __future__ import annotations

from math import prod
from operator import index
from typing import Iterable, NamedTuple, Sequence

from .arith import factorize
from .errors import PreconditionError

RANK_CAP = 64
ENTRY_CAP = 2**63

Gram = tuple[tuple[int, ...], ...]


class Signature(NamedTuple):
    positive: int
    negative: int

    def __repr__(self) -> str:
        return f"({self.positive},{self.negative})"


def _entry(x, what: str = "Gram entry") -> int:
    """x as an int; a float, str or Fraction is refused, never truncated.
    Every entry or scale that comes from outside passes through here."""
    try:
        return index(x)
    except TypeError:
        raise PreconditionError(f"{what} {x!r} is not an integer") from None


def _freeze(rows: Iterable[Sequence[int]]) -> Gram:
    try:
        return tuple(tuple(map(_entry, row)) for row in rows)
    except TypeError:
        raise PreconditionError("a Gram matrix is a sequence of rows of integers") from None


def _det_and_signature(rows: Gram) -> tuple[int, Signature]:
    """Determinant and Sylvester signature by symmetric fraction-free
    (Bareiss) elimination over Z.

    Pivot search: prefer the first nonzero diagonal entry; if the remaining
    block has zero diagonal but a nonzero off-diagonal entry (i,j), the
    row/column operation R_i += R_j surfaces the nonzero diagonal value
    2*a_ij.  `m` is always the remaining block, scaled by the previous pivot
    `prev` (a leading principal minor of the transformed matrix), so the
    update m_ik <- (m_ik d - m_i,piv m_piv,k) / prev divides exactly.  The
    rational pivot of each step is d/prev, so its sign gives the signature,
    and the last pivot is det: every step is a congruence by a
    determinant-1 matrix.
    """
    m = [list(row) for row in rows]
    pos = neg = 0
    prev = 1
    while m:
        pivot = next((i for i, row in enumerate(m) if row[i]), None)
        if pivot is None:
            pair = next(
                ((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if i != j and x),
                None,
            )
            if pair is None:
                raise PreconditionError("Gram matrix is singular")
            i, j = pair
            m[i] = [x + y for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] += row[j]
            pivot = i
        d = m[pivot][pivot]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        prow = m.pop(pivot)
        del prow[pivot]
        for i, row in enumerate(m):
            f = row.pop(pivot)
            m[i] = [(x * d - f * y) // prev for x, y in zip(row, prow)]
        prev = d
    return prev, Signature(pos, neg)


class Lattice:
    """Nondegenerate integral lattice with cached rank/det/signature.

    `Lattice(gram)` validates a Gram literal and eliminates it; it has no
    hyperbolic summand.  The constructors below build the named atoms,
    rescalings and direct sums through `_known`, from invariants they
    already have.  `summands` holds
    the atoms of a direct sum in order, nested sums flattened, and is empty
    for an atom.
    """

    __slots__ = (
        "gram", "rank", "det", "signature", "has_hyperbolic_summand", "summands", "_det_factors",
    )

    def __init__(self, gram: Iterable[Sequence[int]]):
        g = _freeze(gram)
        n = len(g)
        if n == 0:
            raise PreconditionError("lattice must have positive rank")
        _check_rank(n)
        if any(len(row) != n for row in g):
            raise PreconditionError("Gram matrix must be square")
        _check_entries(g)
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] != g[j][i]:
                    raise PreconditionError(
                        f"Gram matrix is not symmetric at ({i},{j}): {g[i][j]} != {g[j][i]}"
                    )
        det, signature = _det_and_signature(g)
        self._fill(g, det, signature, False, ())

    @classmethod
    def _known(
        cls, gram: Gram, det: int, signature: Signature, hyperbolic_summand: bool,
        summands: tuple[Lattice, ...] = (),
    ) -> Lattice:
        """A lattice whose Gram is already valid (square, symmetric, entries
        under the cap) and whose det and signature are known: no elimination."""
        lattice = object.__new__(cls)
        lattice._fill(gram, det, signature, hyperbolic_summand, summands)
        return lattice

    def _fill(self, gram, det, signature, hyperbolic_summand, summands) -> None:
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "rank", len(gram))
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "has_hyperbolic_summand", bool(hyperbolic_summand))
        object.__setattr__(self, "summands", summands)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice instances are immutable")

    @property
    def det_factors(self) -> dict[int, int]:
        """{p: v_p(det)} in increasing p; factored on first use, not at
        construction."""
        if not hasattr(self, "_det_factors"):
            object.__setattr__(self, "_det_factors", factorize(abs(self.det)))
        return self._det_factors

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def is_definite(self) -> bool:
        return self.signature.positive == 0 or self.signature.negative == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self) -> str:
        return f"Lattice(rank={self.rank}, det={self.det}, signature={self.signature})"


def _check_rank(n: int) -> None:
    if n > RANK_CAP:
        raise PreconditionError(f"rank {n} exceeds cap {RANK_CAP}")


def _check_entries(gram: Gram) -> None:
    big = next((x for row in gram for x in row if abs(x) >= ENTRY_CAP), None)
    if big is not None:
        raise PreconditionError(f"entry {big} exceeds cap 2^63")


_E8_EDGES = ((1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def _e8_gram() -> Gram:
    m = [[0] * 8 for _ in range(8)]
    for i in range(8):
        m[i][i] = 2
    for a, b in _E8_EDGES:
        m[a - 1][b - 1] = m[b - 1][a - 1] = -1
    return _freeze(m)


_E8 = Lattice(_e8_gram())


def hyperbolic_plane(scale: int = 1) -> Lattice:
    """U(scale): Gram [[0, scale], [scale, 0]]; U(1) and U(-1) are hyperbolic planes."""
    scale = _entry(scale, "scale")
    if scale == 0:
        raise PreconditionError("scale must be nonzero")
    gram = ((0, scale), (scale, 0))
    _check_entries(gram)
    return Lattice._known(gram, -scale * scale, Signature(1, 1), scale in (1, -1))


def e8(scale: int = 1) -> Lattice:
    """The E8 root lattice Gram (standard Cartan matrix), rescaled by `scale`."""
    return rescale(_E8, scale)


def rank_one(k: int) -> Lattice:
    """<k>: the rank-1 lattice with Gram [k]."""
    k = _entry(k)
    if k == 0:
        raise PreconditionError("rank-1 Gram entry must be nonzero")
    gram = ((k,),)
    _check_entries(gram)
    return Lattice._known(gram, k, Signature(1, 0) if k > 0 else Signature(0, 1), False)


def from_gram(rows: Iterable[Sequence[int]]) -> Lattice:
    return Lattice(rows)


def rescale(lattice: Lattice, c: int) -> Lattice:
    """L(c): multiply every Gram entry by c; det gains c^rank and c < 0
    swaps the signature."""
    c = _entry(c, "scale")
    if c == 0:
        raise PreconditionError("scale must be nonzero")
    gram = tuple(tuple(c * x for x in row) for row in lattice.gram)
    _check_entries(gram)
    pos, neg = lattice.signature
    return Lattice._known(
        gram,
        c**lattice.rank * lattice.det,
        Signature(pos, neg) if c > 0 else Signature(neg, pos),
        lattice.has_hyperbolic_summand and c in (1, -1),
    )


def direct_sum(*lattices: Lattice) -> Lattice:
    """Orthogonal (block-diagonal) sum: det is the product and the signature
    the sum of the summands', whose Grams are already validated."""
    if not lattices:
        raise PreconditionError("direct_sum needs at least one summand")
    n = sum(l.rank for l in lattices)
    _check_rank(n)
    rows = []
    offset = 0
    for lat in lattices:
        left, right = (0,) * offset, (0,) * (n - offset - lat.rank)
        rows.extend(left + row + right for row in lat.gram)
        offset += lat.rank
    return Lattice._known(
        tuple(rows),
        prod(l.det for l in lattices),
        Signature(sum(l.signature.positive for l in lattices),
                  sum(l.signature.negative for l in lattices)),
        any(l.has_hyperbolic_summand for l in lattices),
        tuple(atom for l in lattices for atom in (l.summands or (l,))),
    )


def direct_sum_of_copies(*pairs: tuple[Lattice, int]) -> Lattice:
    """direct_sum of `count` copies of each lattice of the (lattice, count)
    pairs, in order; the rank cap is checked on the counts, before any copy
    is listed."""
    _check_rank(sum(lattice.rank * count for lattice, count in pairs))
    return direct_sum(*(lattice for lattice, count in pairs for _ in range(count)))
