"""Quotient groups G = F_d / N and their word-metric balls.

The alphabet for the free group F_d = <g_1, ..., g_d> is the 2d-letter set

    V = (g_1, g_1^-1, g_2, g_2^-1, ..., g_d, g_d^-1),

encoded by integer codes 0..2d-1 in that order, so that ``code ^ 1`` is the
code of the inverse letter.  A word is a tuple of letter codes; reduced words
(no letter is followed by its inverse) are exactly the admissible words of
the non-backtracking Markov shift used throughout the package.

A backend is an identity and a right action of the 2d letters on hashable
elements: ``identity()`` and ``apply_letter(g, c)``, the product of g with
the image of letter c, are all it must define.  Three backends ship:

* ``FinitePermQuotient``  -- generator images are permutations on n points;
  elements are the permutations their products reach.
* ``FreeAbelianQuotient`` -- generator images are integer vectors; G is a
  subgroup of Z^k (the abelianization for standard basis images).
* ``FreeQuotient``        -- a subset of the generators is killed; the
  survivors generate a free group and elements are reduced words in them.

The numerics see G only through ``ball``: a word-metric ball around the
identity, indexed breadth-first, given by its distances to the identity (the
word metric) and its move table (the Cayley graph cut to the ball); no
element is kept once the ball is built.  A backend is built with its ball
cap, the most elements any of its balls may hold; no backend explores its
group otherwise, so every search is capped, and ``ball`` is the one place
that refuses a search the cap stops.  ``ball(G)`` is the ball of radius
``G.ball_cap``: the whole group when it has at most that many elements,
else a refusal.  All objects are immutable after construction and safe to
share across workers.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from functools import cached_property
from typing import Hashable, Sequence

import numpy as np

from .errors import CapExceededError, ConfigError

DEFAULT_BALL_CAP = 2_000_000


# ---------------------------------------------------------------------------
# Letters
# ---------------------------------------------------------------------------

@functools.cache
def letter_name(code: int) -> str:
    """Display name of a letter code: ``g1``, ``g1~`` (its inverse), ``g2``, ..."""
    return f"g{code // 2 + 1}" + ("~" if code & 1 else "")


# ---------------------------------------------------------------------------
# Quotient groups
# ---------------------------------------------------------------------------

class QuotientGroup(ABC):
    """A quotient G = F_d / N given by the images of the 2d letters."""

    d: int
    finite: bool = False  # exactly when G is a finite group
    ball_cap: int = DEFAULT_BALL_CAP  # the most elements a ball may hold

    @abstractmethod
    def identity(self) -> Hashable:
        ...

    @abstractmethod
    def apply_letter(self, g: Hashable, code: int) -> Hashable:
        """Right-multiply ``g`` by the image of the letter ``code``."""

    def letter_image(self, code: int) -> Hashable:
        """The image of a single letter under the quotient homomorphism."""
        return self.apply_letter(self.identity(), code)

    def kernel_is_trivial(self) -> bool:
        """True iff N = {id}, in which case no nonempty word is a kernel word."""
        return False

    def generating_codes(self) -> list[int]:
        """Codes of the letters with distinct non-identity images, first per image.

        Their images form the Cayley generating set.
        """
        codes: list[int] = []
        seen = set()
        e = self.identity()
        for c in range(2 * self.d):
            img = self.letter_image(c)
            if img != e and img not in seen:
                seen.add(img)
                codes.append(c)
        return codes

    @cached_property
    def _balls(self) -> dict[int, "Ball"]:
        """Memo of ``ball``: radius -> Ball (the group is immutable)."""
        return {}

    @cached_property
    def _kernel_tables(self) -> dict[int, np.ndarray]:
        """Memo of ``kernel.kernel_counts`` at s = 0, read-only log word
        counts keyed by n_max: a cap refuses a table's ball, never cuts it."""
        return {}

    def _build_ball(self, radius: int) -> "Ball":
        """Uncached construction of the ball of the largest radius <=
        ``radius`` that fits the ball cap; ``ball`` memoises it."""
        return bfs_ball(self, radius)


class FinitePermQuotient(QuotientGroup):
    """Finite quotient given by generator images in a permutation group.

    ``images[i]`` is the image of g_{i+1} as a permutation of {0, ..,
    degree-1} in one-line notation.  The group is generated by the images;
    elements are permutation tuples, met only as ``ball`` reaches them.
    """

    finite = True

    def __init__(
        self, degree: int, images: Sequence[Sequence[int]], ball_cap: int = DEFAULT_BALL_CAP
    ):
        self.degree = degree
        self.ball_cap = ball_cap
        self.d = len(images)
        if self.d < 1:
            raise ConfigError("need at least one generator image")
        self._images: dict[int, tuple[int, ...]] = {}
        for i, img in enumerate(images):
            perm = tuple(img)
            if sorted(perm) != list(range(degree)):
                raise ConfigError(
                    f"image of g{i + 1} is not a permutation of 0..{degree - 1}: {img}"
                )
            self._images[2 * i] = perm
            self._images[2 * i + 1] = self._inverse(perm)

    @staticmethod
    def _mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        # (p*q)(x) = q(p(x)): apply p first, matching left-to-right word folds.
        return tuple(q[v] for v in p)

    @staticmethod
    def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
        inv = [0] * len(p)
        for a, b in enumerate(p):
            inv[b] = a
        return tuple(inv)

    def identity(self):
        return tuple(range(self.degree))

    def apply_letter(self, g, code: int):
        return self._mul(g, self._images[code])


class FreeAbelianQuotient(QuotientGroup):
    """Quotient landing in Z^rank; generator images are integer vectors.

    For standard-basis images this is the abelianization of F_d, whose word
    metric is the L1 norm; all-zero images give the trivial group, the one
    ``finite`` case.  Balls of any images are built by array lookups
    on packed integer keys (``_build_ball``), which reproduce ``bfs_ball``;
    a ball whose keys would not fit int64 comes from ``bfs_ball`` itself.
    """

    def __init__(
        self, rank: int, images: Sequence[Sequence[int]], ball_cap: int = DEFAULT_BALL_CAP
    ):
        self.rank = rank
        self.ball_cap = ball_cap
        self.d = len(images)
        if self.d < 1:
            raise ConfigError("need at least one generator image")
        self._images: dict[int, tuple[int, ...]] = {}
        for i, img in enumerate(images):
            vec = tuple(int(x) for x in img)
            if len(vec) != rank:
                raise ConfigError(f"image of g{i + 1} must have {rank} entries")
            self._images[2 * i] = vec
            self._images[2 * i + 1] = tuple(-x for x in vec)
        self.finite = not any(map(any, self._images.values()))

    def identity(self):
        return (0,) * self.rank

    def apply_letter(self, g, code: int):
        return tuple(a + b for a, b in zip(g, self._images[code]))

    def _build_ball(self, radius: int) -> "Ball":
        """The ball by array lookups, one sphere at a time.

        A product of at most ``reach`` letters has |x_i| <= reach * max_c
        |image_c[i]| in each coordinate, so x packs into one int64 key in
        mixed radix, and right multiplication by a letter adds that letter's
        key step; a ball whose key range does not fit int64 is left to
        ``bfs_ball``.  The products of sphere r lie in spheres r - 1, r and
        r + 1, so each is looked up by ``searchsorted`` in the sorted keys of
        spheres r - 1 and r, and those found in neither form sphere r + 1,
        numbered in the order in which ``bfs_ball`` first meets them
        (element by element, letters in code order).  A sphere that would
        take the ball past its cap is dropped and the radius shrinks to the
        one below, as in ``bfs_ball``.
        """
        n_codes = 2 * self.d
        images = np.array([self._images[c] for c in range(n_codes)], dtype=np.int64)
        images = images.reshape(n_codes, self.rank)
        reach = min(radius, self.ball_cap) + 1
        bound = [reach * int(b) for b in np.abs(images).max(axis=0)]
        if math.prod(2 * b + 1 for b in bound) >= 2**63:
            return bfs_ball(self, radius)
        strides = np.cumprod([1] + [2 * b + 1 for b in bound], dtype=np.int64)[:-1]
        step = images @ strides
        spheres = [np.array([sum(b * int(t) for b, t in zip(bound, strides))], dtype=np.int64)]
        starts = [0, 1]  # starts[r]: index of the first element of sphere r
        rows = []
        for r in range(radius + 1):
            if r == len(spheres):
                break  # the group ran out of elements
            known = np.concatenate(spheres[max(r - 1, 0) : r + 1])
            order = np.argsort(known)
            ranked = known[order]
            products = (spheres[r][:, None] + step).ravel()
            pos = np.minimum(np.searchsorted(ranked, products), len(known) - 1)
            found = ranked[pos] == products
            moves = np.where(found, starts[max(r - 1, 0)] + order[pos], -1)
            new = products[~found]
            if r < radius and new.size:
                keys, first = np.unique(new, return_index=True)
                if starts[-1] + keys.size > self.ball_cap:
                    radius = r
                else:
                    seen = np.argsort(first)
                    number = np.empty_like(seen)
                    number[seen] = np.arange(starts[-1], starts[-1] + keys.size)
                    moves[~found] = number[np.searchsorted(keys, new)]
                    spheres.append(keys[seen])
                    starts.append(starts[-1] + keys.size)
            rows.append(moves.reshape(-1, n_codes))
        dist = np.repeat(np.arange(len(spheres), dtype=np.int64), np.diff(starts))
        return Ball(radius, dist, np.ascontiguousarray(np.concatenate(rows).T))


class FreeQuotient(QuotientGroup):
    """Quotient of F_d by the normal closure of a subset of the generators.

    Killed generators map to the identity; the survivors generate a free
    group whose elements are reduced code tuples.  ``kill=()`` gives the
    trivial kernel (G = F_d itself); killing everything gives the trivial
    group (N = F_d), the one ``finite`` free quotient.
    """

    def __init__(self, d: int, kill: Sequence[int] = (), ball_cap: int = DEFAULT_BALL_CAP):
        self.d = d
        self.ball_cap = ball_cap
        self.kill = frozenset(int(k) for k in kill)
        if any(k < 1 or k > d for k in self.kill):
            raise ConfigError(f"killed generator index out of range 1..{d}")
        self.killed_codes = frozenset(c for c in range(2 * d) if c // 2 + 1 in self.kill)
        self.finite = len(self.kill) == d

    def identity(self):
        return ()

    def apply_letter(self, g, code: int):
        if code in self.killed_codes:
            return g
        if g and g[-1] == (code ^ 1):
            return g[:-1]
        return g + (code,)

    def kernel_is_trivial(self) -> bool:
        return not self.kill

    def surviving_rank(self) -> int:
        return self.d - len(self.kill)

    def _build_ball(self, radius: int) -> "Ball":
        """The Cayley tree ball by array indexing, one sphere at a time.

        Each element of sphere r has one child per surviving letter except
        the inverse of its last letter; listing the children element by
        element, letters in code order, reproduces the breadth-first order of
        ``bfs_ball``.  Moves: a child maps back to its parent under the
        inverse of its last letter, killed letters fix every element, and
        children beyond the radius fall off the ball (-1).  The sphere sizes
        are known in advance, so the radius shrinks to fit the ball cap first;
        the identity always fits, as in ``bfs_ball``.
        """
        codes = np.flatnonzero([c not in self.killed_codes for c in range(2 * self.d)])
        sizes = [1]
        while len(sizes) <= radius and codes.size:
            size = codes.size * (codes.size - 1) ** (len(sizes) - 1)
            if sum(sizes) + size > self.ball_cap:
                radius = len(sizes) - 1
                break
            sizes.append(size)
        n = sum(sizes)
        starts = np.cumsum([0] + sizes)
        last = np.full(n, -1, dtype=np.int64)
        moves = np.full((2 * self.d, n), -1, dtype=np.int64)
        moves[sorted(self.killed_codes)] = np.arange(n)
        for r in range(len(sizes) - 1):
            lo, hi = starts[r], starts[r + 1]
            # identity: last = -1, and -1 ^ 1 = -2 matches no code
            rows, cols = np.nonzero(codes[None, :] != (last[lo:hi, None] ^ 1))
            child = np.arange(hi, starts[r + 2])
            last[child] = codes[cols]
            moves[codes[cols], lo + rows] = child
            moves[codes[cols] ^ 1, child] = lo + rows
        dist = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        return Ball(radius, dist, moves)


# ---------------------------------------------------------------------------
# Balls and indexing
# ---------------------------------------------------------------------------

class Ball:
    """A word-metric ball around the identity: its radius, distances and moves.

    Elements are indexed in breadth-first order, ties broken by generator
    code, so index 0 is the identity, ``dist`` is nondecreasing (every
    sphere is a contiguous index range) and indices are reproducible across
    runs.  ``dist`` is the word metric to the identity, and ``letter_moves``
    gives, per letter, the index map of right multiplication (-1 when the
    product leaves the ball): together they are the Cayley graph cut to the
    ball.  Every element but the identity is one move from a nearer one, so
    the two arrays determine the elements; the ball keeps no element itself.
    Both arrays are read-only because memoised balls are shared by every
    caller.
    """

    def __init__(self, radius: int, dist: np.ndarray, moves: np.ndarray):
        self.radius = radius
        self.dist = _read_only(dist)
        self._moves = _read_only(moves)

    def __len__(self):
        return len(self.dist)

    def sphere_sizes(self) -> list[int]:
        """Elements per distance, through the farthest element: a whole
        finite group stops at its diameter, not at its radius (the cap)."""
        return np.bincount(self.dist).tolist()

    def letter_moves(self) -> np.ndarray:
        """Array of shape (2d, |ball|): moves[c][i] = index of elem_i * Psi(letter c)."""
        return self._moves

    def inverse_index(self) -> np.ndarray:
        """Index of each element's inverse (always inside the ball).

        An element g at distance r > 0 is parent * c for a code c whose
        inverse move reaches the sphere below; so g is a geodesic word
        c_1 ... c_r, and g^-1 is the identity moved along c_r^-1, ..., c_1^-1,
        one move per radius for all elements at once.
        """
        moves, dist = self._moves, self.dist
        back = moves[np.arange(len(moves)) ^ 1]
        last = ((back >= 0) & (dist[back] == dist - 1)).argmax(axis=0)
        parent = back[last, np.arange(len(self))]
        node = np.arange(len(self))
        out = np.zeros(len(self), dtype=np.int64)
        for _ in range(int(dist[-1])):
            live = dist[node] > 0
            out[live] = moves[last[node[live]] ^ 1, out[live]]
            node[live] = parent[node[live]]
        return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def ball(G: QuotientGroup, radius: int | None = None) -> Ball:
    """All elements at word-metric distance <= radius, BFS-indexed; with no
    radius, the ball of radius ``G.ball_cap``.

    No ball holds more than ``G.ball_cap`` elements.  When this one would,
    ``ball`` raises ``CapExceededError`` before materializing them, naming
    the largest radius that fits, found in the same one search: a cap
    refuses a ball, it never cuts one, and this is the only place a search
    is refused.  ``ball(G)`` is the whole group when G has at most
    ``G.ball_cap`` elements, since its diameter is then smaller and the
    search runs out of elements first; a larger group is refused.  Balls
    are memoised per group and radius, so repeated calls return the same
    ``Ball``.  A smaller radius is the breadth-first prefix of a memoised
    larger ball, or of the whole group once a ball holds it.  Otherwise the
    backend's builder stops where the cap stops it and keeps the spheres it
    completed, a ball memoised at its own radius; the refusal itself is not
    remembered, so a refused radius asked again is searched again.
    """
    if radius is None:
        radius = G.ball_cap
    if radius < 0:
        raise ConfigError("ball radius must be >= 0")
    B = G._balls.get(radius)
    if B is None:
        # every memoised ball fits the cap, and one whose search ran out of
        # elements before its radius is the group
        larger = [A for A in G._balls.values() if A.radius >= radius or A.dist[-1] < A.radius]
        B = _prefix(min(larger, key=len), radius) if larger else G._build_ball(radius)
        B = G._balls.setdefault(B.radius, B)
    if B.radius < radius:
        raise CapExceededError(
            f"ball of radius {radius} exceeds cap {G.ball_cap} "
            f"(largest radius that fits: {B.radius})"
        )
    return B


def _prefix(B: Ball, radius: int) -> Ball:
    """The ball of this radius cut from the larger ball ``B``.

    Breadth-first search lists the same elements in the same order whatever
    its radius, so the cut is ``bfs_ball(G, radius)``: the first elements of
    ``B``, with the moves that leave them set to -1.
    """
    n = int(np.searchsorted(B.dist, radius, side="right"))
    moves = B.letter_moves()[:, :n].copy()
    moves[moves >= n] = -1
    return Ball(radius, B.dist[:n], moves)


def bfs_ball(G: QuotientGroup, radius: int) -> Ball:
    """Breadth-first ball over group elements, uncached: the ball of the
    largest radius <= ``radius`` that fits ``G.ball_cap``.

    The construction for backends without an array builder and for
    abelian balls whose packed keys would overflow, and the reference the
    array builders are tested against.  The move table is
    recorded from the products the search forms anyway; only the last
    sphere's products are formed just to tell which stay in the ball.  A
    search that needs more than the cap drops the sphere it was adding and
    finishes the ball one radius down: every sphere below it is complete,
    since breadth-first search adds no element at distance r - 1 after one
    at distance r.  The identity always fits.
    """
    cap = G.ball_cap
    n_codes = 2 * G.d
    e = G.identity()
    index = {e: 0}
    elements = [e]
    dist = [0]
    moves: list[int] = []  # moves[2d * i + c]: index of elements[i] * letter c
    # the growing element list is the breadth-first queue
    for i, g in enumerate(elements):
        r = dist[i] + 1
        for c in range(n_codes):
            h = G.apply_letter(g, c)
            j = index.get(h, -1)
            if j < 0 and r <= radius:
                if len(elements) < cap:
                    j = index[h] = len(elements)
                    elements.append(h)
                    dist.append(r)
                else:
                    while dist[-1] == r:
                        dist.pop()
                        elements.pop()
                    radius = r - 1
            moves.append(j)
    table = np.array(moves, dtype=np.int64).reshape(len(elements), n_codes)
    table[table >= len(elements)] = -1  # elements dropped to fit the cap
    return Ball(radius, np.array(dist, dtype=np.int64), np.ascontiguousarray(table.T))

