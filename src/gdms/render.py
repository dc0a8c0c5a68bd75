"""Geometric realizations, attractor clouds, box counting, and PGM output.

A linear system is realized by one phase set per letter (intervals on a line
or disks in the plane) and one similarity per admissible letter pair, with
ratio depending only on the initial letter.  Realizations are laid out
automatically so that the images of distinct edges have disjoint interiors
(the open set condition); infeasible ratio data fails loudly with the
violated inequality.

Attractor approximations follow one construction: a cloud composes
``depth`` pieces, and each composition contributes the image of its terminal
phase-set center under the composed similarity.  The pieces are single
letters for the full limit set, and first-return loops of an induced system
for the radial limit set of the corresponding normal subgroup; the rendered
induced cloud approximates the core limit set of the induced system, which
carries the full dimension but visually understates the radial set (a
countable family of Lipschitz images of it is not drawn).  A cloud with a
level of more than ``point_cap`` compositions is refused, from the level
counts alone, before any level is built.

Box counting of the clouds provides the numerical cross-check that measured
dimensions track the pressure-equation roots.

Memory: a render holds its cloud (the points and two int32 index arrays per
level) plus one stage's working set.  The level build adds the level before
the last and one block of ``reports.BLOCK_ROWS`` children; box counting one
copy of the points; the raster and the CSV one block each.  At depth 12 in
dimension 1 (708,588 points, 14.2 MB retained) a render peaks at 51 MB of
RSS, 29.7 MB of it importing gdms and numpy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import reports
from .errors import CapExceededError, ConfigError, GdmsError, LayoutInfeasibleError
from .groups import letter_name
from .pressure import LinearGdmsSpec

if TYPE_CHECKING:  # a full render never loads the kernel layer
    from .kernel import InducedSystem

DEFAULT_POINT_CAP = 2_000_000
# render_image allocates one byte per pixel; 2**26 pixels is 64 MiB
MAX_RASTER_PIXELS = 2**26


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricRealization:
    """Phase sets and edge similarities of a realized linear system.

    ``phase`` holds per-letter intervals (a, b) in dimension 1 or disks
    (cx, cy, r) in dimension 2.  ``slot_offsets[v]`` positions the image of
    the w-th successor inside the phase set of v; every edge map is
    x -> c(v) * x + t with a translation depending on the slot.
    """

    spec: LinearGdmsSpec
    dimension: int
    phase: tuple
    slot_offsets: tuple

    def successors(self, v: int) -> list[int]:
        return [w for w in range(2 * self.spec.d) if w != (v ^ 1)]

    def edge_map(self, v: int, w: int):
        """(scale, offset) of the similarity taking phase set w into phase set v."""
        if w == (v ^ 1):
            raise ConfigError("backtracking pair has no edge map")
        slot = self.successors(v).index(w)
        c = self.spec.ratios[v]
        if self.dimension == 1:
            a_w = self.phase[w][0]
            a_v = self.phase[v][0]
            # maps [a_w, a_w + |X_w|] onto a subinterval at the slot offset
            return c, a_v + self.slot_offsets[v][slot] - c * a_w
        cx_w, cy_w, _ = self.phase[w]
        cx_v, cy_v, _ = self.phase[v]
        ox, oy = self.slot_offsets[v][slot]
        return c, np.array([cx_v + ox - c * cx_w, cy_v + oy - c * cy_w])

    def center(self, v: int) -> np.ndarray:
        if self.dimension == 1:
            a, b = self.phase[v]
            return np.array([0.5 * (a + b)])
        cx, cy, _ = self.phase[v]
        return np.array([cx, cy])

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if self.dimension == 1:
            los = [p[0] for p in self.phase]
            his = [p[1] for p in self.phase]
            return np.array([min(los)]), np.array([max(his)])
        los = [(cx - r, cy - r) for cx, cy, r in self.phase]
        his = [(cx + r, cy + r) for cx, cy, r in self.phase]
        return np.array(los).min(axis=0), np.array(his).max(axis=0)

    def osc_margin(self) -> float:
        """Smallest gap between sibling first-level images (0 = touching)."""
        worst = math.inf
        for v in range(2 * self.spec.d):
            c = self.spec.ratios[v]
            if self.dimension == 1:
                length = self.phase[v][1] - self.phase[v][0]
                spans = sorted(
                    (off, off + c * (self.phase[w][1] - self.phase[w][0]))
                    for off, w in zip(self.slot_offsets[v], self.successors(v))
                )
                worst = min(worst, spans[0][0] - 0.0)
                worst = min(worst, length - spans[-1][1])
                for (_, b0), (a1, _) in zip(spans, spans[1:]):
                    worst = min(worst, a1 - b0)
            else:
                r_v = self.phase[v][2]
                subs = [
                    (np.array(off), c * self.phase[w][2])
                    for off, w in zip(self.slot_offsets[v], self.successors(v))
                ]
                for i in range(len(subs)):
                    oi, ri = subs[i]
                    worst = min(worst, r_v - (float(np.linalg.norm(oi)) + ri))
                    for j in range(i + 1, len(subs)):
                        oj, rj = subs[j]
                        worst = min(
                            worst, float(np.linalg.norm(oi - oj)) - (ri + rj)
                        )
        return worst


def auto_layout(spec: LinearGdmsSpec, dimension: int, phase=None) -> GeometricRealization:
    """Place phase sets and sub-copies so the open set condition holds.

    Dimension 1 uses unit intervals on a line, sub-intervals packed left to
    right with equal slack; feasibility requires (2d-1) * c(v) <= 1.
    Dimension 2 uses unit disks on a circle with sub-disks on an inner
    angular ring; feasibility requires the ring chord to fit the sub-disk
    diameter.  Explicit phase sets, one per letter, replace the automatic
    ones when given: intervals [a, b] in dimension 1, disks [cx, cy, r] in 2.
    """
    if dimension not in (1, 2):
        raise ConfigError("dimension must be 1 or 2")
    n = 2 * spec.d
    k = n - 1  # sub-copies per phase set
    if dimension == 1:
        if phase is not None:
            if len(phase) != n:
                raise ConfigError(f"geometry.intervals must list {n} intervals")
            phase = tuple((float(a), float(b)) for a, b in phase)
            if any(b <= a for a, b in phase):
                raise ConfigError("phase intervals must have positive length")
            for i in range(n):
                for j in range(i + 1, n):
                    if phase[i][0] < phase[j][1] and phase[j][0] < phase[i][1]:
                        raise ConfigError("phase intervals must be disjoint")
        else:
            phase = tuple((i * 1.25, i * 1.25 + 1.0) for i in range(n))
        offsets = []
        for v in range(n):
            c = spec.ratios[v]
            length = phase[v][1] - phase[v][0]
            widths = [c * (phase[w][1] - phase[w][0]) for w in range(n) if w != (v ^ 1)]
            need = sum(widths)
            if need > length:
                raise LayoutInfeasibleError(
                    f"sum of sub-copy lengths {need:.6g} exceeds |X_v| = {length:.6g} "
                    f"for letter code {v} ((2d-1) * c(v) > 1: the dimension root "
                    f"would exceed the ambient dimension 1)"
                )
            slack = (length - need) / (k + 1)
            offs = []
            pos = slack
            for wdt in widths:
                offs.append(pos)
                pos += wdt + slack
            offsets.append(tuple(offs))
        real = GeometricRealization(spec, 1, phase, tuple(offsets))
    else:
        if phase is not None:
            if len(phase) != n:
                raise ConfigError(f"geometry.disks must list {n} disks")
            phase = tuple((float(x), float(y), float(r)) for x, y, r in phase)
            if any(r <= 0 for _, _, r in phase):
                raise ConfigError("phase disks must have positive radius")
        else:
            big_r = 1.1 / math.sin(math.pi / n)
            phase = tuple(
                (
                    big_r * math.cos(2 * math.pi * i / n),
                    big_r * math.sin(2 * math.pi * i / n),
                    1.0,
                )
                for i in range(n)
            )
        for i in range(n):
            for j in range(i + 1, n):
                dx = phase[i][0] - phase[j][0]
                dy = phase[i][1] - phase[j][1]
                if math.hypot(dx, dy) < phase[i][2] + phase[j][2]:
                    raise ConfigError("phase disks must be disjoint")
        offsets = []
        for v in range(n):
            c = spec.ratios[v]
            r_v = phase[v][2]
            sub_r = [c * phase[w][2] for w in range(n) if w != (v ^ 1)]
            r_max = max(sub_r)
            ring = 0.97 * (r_v - r_max)
            if ring <= 0 or 2 * ring * math.sin(math.pi / k) < 2 * r_max:
                ring = r_v - r_max  # tangent ring as a last resort
            if ring <= 0 or 2 * ring * math.sin(math.pi / k) < 2 * r_max:
                raise LayoutInfeasibleError(
                    f"{k} sub-disks of radius {r_max:.6g} do not fit on a ring "
                    f"inside a radius-{r_v:.6g} disk for letter code {v} "
                    f"(ring chord 2*{ring:.6g}*sin(pi/{k}) < 2*{r_max:.6g})"
                )
            offs = tuple(
                (
                    ring * math.cos(2 * math.pi * slot / k),
                    ring * math.sin(2 * math.pi * slot / k),
                )
                for slot in range(k)
            )
            offsets.append(offs)
        real = GeometricRealization(spec, 2, phase, tuple(offsets))
    margin = real.osc_margin()
    if margin < -1e-12:
        raise LayoutInfeasibleError(
            f"open set condition violated by {-margin:.3g} after layout"
        )
    return real


# ---------------------------------------------------------------------------
# Attractor point clouds
# ---------------------------------------------------------------------------

class Words(Sequence):
    """The words of a cloud as one pair of int32 index arrays per level
    (int64 for a level of 2**31 words or more).

    Word i of level k is word ``parent[k-1][i]`` of level k - 1 followed by
    piece ``piece[k-1][i]``, and level 0 holds only the empty word; so a
    word is the path of piece indices back to the root.  Each level lists
    the children of its parent level parent by parent, so ``parent[k-1]`` is
    nondecreasing and the words of an index range have their parents in one
    contiguous range one level up.  Indexing returns a word as a tuple of
    letter codes, built on demand (for tests and small clouds); ``names``
    returns display strings without building those tuples.
    """

    def __init__(self, pieces: tuple, parent: tuple, piece: tuple):
        self.pieces = pieces
        self.parent = parent
        self.piece = piece

    def __len__(self):
        return len(self.piece[-1])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        i = range(len(self))[i]
        word = ()
        for parent, piece in zip(reversed(self.parent), reversed(self.piece)):
            word = self.pieces[piece[i]] + word
            i = parent[i]
        return word

    def names(self) -> "WordNames":
        """The words' display names (``g1 g2~ g1``) as a lazy sequence."""
        return WordNames(self)


class WordNames(Sequence):
    """Display names of a cloud's words, made per slice by prefix sharing.

    The names of words start..stop-1 need the names of their parents, one
    contiguous range one level up, and so on to level 1; each name is then
    its parent's name + " " + its piece's name, one concatenation per word
    and level.  A slice costs its own rows plus the shrinking parent ranges,
    so a writer that slices in blocks holds one block of names at a time.
    """

    def __init__(self, words: Words):
        self.words = words
        self._names = [" ".join(map(letter_name, p)) for p in words.pieces]
        self._spaced = [" " + name for name in self._names]

    def __len__(self):
        return len(self.words)

    def __getitem__(self, i):
        if not isinstance(i, slice):
            k = range(len(self))[i]
            return self[k:k + 1][0]
        start, stop, step = i.indices(len(self))
        if step != 1:
            raise ValueError("word names slice with step 1 only")
        if start >= stop:
            return []
        spans = [(start, stop)]
        for parent in reversed(self.words.parent[1:]):
            start, stop = int(parent[start]), int(parent[stop - 1]) + 1
            spans.append((start, stop))
        spans.reverse()
        (a, b), *higher = spans
        out = [self._names[j] for j in self.words.piece[0][a:b].tolist()]
        for (a, b), parent, piece in zip(higher, self.words.parent[1:], self.words.piece[1:]):
            base, spaced = int(parent[a]), self._spaced
            out = [
                out[p - base] + spaced[j]
                for p, j in zip(parent[a:b].tolist(), piece[a:b].tolist())
            ]
        return out


@dataclass(frozen=True)
class PointCloud:
    """Finite-depth attractor approximation with one point per word.

    ``words[i]`` is the word of ``points[i]``: a ``Words`` index tree for
    clouds from ``attractor_points``, which holds no per-point Python
    object, or any sequence of letter-code tuples.  ``provenance`` is
    "full" for all admissible words or "induced" for loop compositions;
    points always lie inside the union of phase sets, and a depth-(n+1)
    point lies in the depth-n cell of its word prefix.
    """

    points: np.ndarray
    words: Sequence
    depth: int
    provenance: str
    lo: np.ndarray
    hi: np.ndarray

    def __len__(self):
        return len(self.points)


def _pieces(n: int, subset: str | InducedSystem) -> tuple[tuple, str]:
    """The pieces a cloud composes, and its provenance."""
    if isinstance(subset, str):
        if subset != "full":
            raise ConfigError(f"unknown subset {subset!r}")
        return tuple((v,) for v in range(n)), "full"
    if len(subset) == 0:
        raise GdmsError("induced system has no loops")
    return subset.loops, "induced"


def _follows(n: int, pieces: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each piece's first and last letter, and which piece may follow a word
    ending in each letter: a piece may unless its first letter backtracks on
    that last letter.  Row n stands for the empty word, which every piece
    follows."""
    first = np.array([p[0] for p in pieces], dtype=np.int32)
    last = np.array([p[-1] for p in pieces], dtype=np.int32)
    follows = np.ones((n + 1, len(pieces)), dtype=bool)
    follows[:n] = first[None, :] != (np.arange(n) ^ 1)[:, None]
    return first, last, follows


def level_sizes(spec: LinearGdmsSpec, subset: str | InducedSystem = "full") -> Iterator[int]:
    """The number of words at levels 1, 2, ... of a cloud, as Python ints.

    Which pieces may follow a word depends only on its last letter, so the
    words ending in each letter evolve by the matrix M[t, t'] = #{pieces j
    that may follow t and end in t'}; a full cloud has 2d (2d-1)^(k-1) words
    at level k.  Nothing of the cloud is built.
    """
    n = 2 * spec.d
    _, last, follows = _follows(n, _pieces(n, subset)[0])
    moves = (follows.astype(np.int64) @ (last[:, None] == np.arange(n + 1))).tolist()
    count = [0] * n + [1]  # the empty word
    while True:
        count = [sum(c * m for c, m in zip(count, col)) for col in zip(*moves)]
        yield sum(count)


def attractor_points(
    real: GeometricRealization,
    depth: int,
    subset: str | InducedSystem = "full",
    point_cap: int = DEFAULT_POINT_CAP,
) -> PointCloud:
    """One representative point per composition of ``depth`` pieces.

    The pieces are the letters for ``"full"`` and the first-return loops of
    an induced system otherwise; a piece may follow another unless its first
    letter backtracks on the other's last.  Representative = image of the
    terminal phase-set center under the composed similarity; words are
    listed depth-first in piece order, so clouds are reproducible.  Each
    level keeps only its parent and piece index arrays (``Words``), so the
    cloud costs a few numbers per point.  If any level has more than
    ``point_cap`` words, the cloud is refused before a level is built.

    Each level is built ``reports.BLOCK_ROWS`` children at a time into
    preallocated arrays: the scale, offset and last letter of every word,
    and on the last level only its point.  The peak is the retained cloud,
    the level before the last and one block: 19.1 MB traced at depth 12 in
    dimension 1 (708,588 points, 14.2 MB retained).
    """
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    n = 2 * real.spec.d
    pieces, provenance = _pieces(n, subset)
    sizes = []
    for level, size in zip(range(1, depth + 1), level_sizes(real.spec, subset)):
        if size > point_cap:
            raise CapExceededError(
                f"{provenance} cloud level {level} has {size} points > cap {point_cap}"
            )
        sizes.append(size)
    dim = real.dimension
    # edge tables; row n stands for the empty word, which every piece
    # follows through the identity map
    edge_c = np.ones((n + 1, n))
    edge_t = np.zeros((n + 1, n, dim))
    for v in range(n):
        for w in real.successors(v):
            edge_c[v, w], edge_t[v, w] = real.edge_map(v, w)
    first, last, follows = _follows(n, pieces)
    # each piece's internal map, folded left to right
    c_in = np.ones(len(pieces))
    t_in = np.zeros((len(pieces), dim))
    for j, piece in enumerate(pieces):
        for a, b in zip(piece, piece[1:]):
            t_in[j] += c_in[j] * edge_t[a, b]
            c_in[j] *= edge_c[a, b]
    edge_c, edge_t = edge_c.reshape(-1), edge_t.reshape(-1, dim)
    centers = np.stack([real.center(v) for v in range(n)])
    # the pieces that may follow each last letter, in piece order
    n_next = follows.sum(axis=1)
    allowed = np.zeros((n + 1, n_next.max()), dtype=np.int32)
    for t in range(n + 1):
        allowed[t, : n_next[t]] = np.flatnonzero(follows[t])
    # parents per block: at most BLOCK_ROWS children below the root
    per_block = max(reports.BLOCK_ROWS // n_next[:n].max(), 1)

    tail = np.array([n], dtype=np.int32)
    scale = np.ones(1)
    offset = np.zeros((1, dim))
    parents, piece_of = [], []
    for level, size in enumerate(sizes, 1):
        index = np.int32 if size <= np.iinfo(np.int32).max else np.int64
        parent, piece = np.empty(size, dtype=index), np.empty(size, dtype=index)
        final = level == depth
        if final:
            pts = np.empty((size, dim))
        else:
            next_scale, next_offset = np.empty(size), np.empty((size, dim))
            next_tail = np.empty(size, dtype=np.int32)
        stop = 0
        for p in range(0, len(tail), per_block):
            counts = n_next[tail[p:p + per_block]]
            i = np.repeat(np.arange(p, p + len(counts)), counts)
            rank = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
            j = allowed[tail[i], rank]
            start, stop = stop, stop + len(i)
            scale_i = scale[i]
            edge = tail[i] * n + first[j]  # flat index into the edge tables
            c_j = scale_i * edge_c[edge]
            off = offset[i]
            off += scale_i[:, None] * edge_t[edge]
            off += c_j[:, None] * t_in[j]
            c_j *= c_in[j]  # the child's scale
            if final:
                off += c_j[:, None] * centers[last[j]]
                pts[start:stop] = off
            else:
                next_scale[start:stop] = c_j
                next_offset[start:stop] = off
                next_tail[start:stop] = last[j]
            parent[start:stop] = i
            piece[start:stop] = j
        parents.append(parent)
        piece_of.append(piece)
        if not final:
            scale, offset, tail = next_scale, next_offset, next_tail
    lo, hi = real.bounds()
    words = Words(pieces, tuple(parents), tuple(piece_of))
    return PointCloud(pts, words, depth, provenance, lo, hi)


# ---------------------------------------------------------------------------
# Box counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxCountResult:
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float
    residual: float


def _distinct(key: np.ndarray) -> int:
    """``len(np.unique(key))``, without the ``numpy.ma`` import that
    ``np.unique`` costs: sort, then count where neighbours differ.  A
    C-contiguous ``key`` is sorted in place."""
    aux = key.reshape(-1)
    aux.sort()
    return int(aux.size > 0) + int(np.count_nonzero(aux[1:] != aux[:-1]))


def box_counting(cloud: PointCloud, scales: Sequence[float]) -> BoxCountResult:
    """Least-squares slope of log N(eps) against log(1/eps).

    Requires at least three scales spanning two octaves and three distinct
    counts; the slope estimates the box dimension, which matches the
    pressure-equation root for these self-similar clouds once the cell size
    at the cloud's depth is below the smallest scale.  Beyond the cloud it
    holds one copy of the points and a flag per point: 6.4 MB traced at
    depth 12 in dimension 1 (708,588 points).
    """
    scales = sorted(float(e) for e in scales)
    if len(scales) < 3:
        raise ConfigError("need at least 3 scales")
    # first, so that a scale that underflowed to 0 never reaches the ratio
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = np.log(1.0 / np.array(scales))
    if not np.isfinite(x).all():  # then so is the smallest scale's
        raise ConfigError(f"scale {scales[0]!r} is too small: log(1/eps) is not finite")
    if scales[-1] / scales[0] < 4.0:
        raise ConfigError("scales must span at least two octaves")
    # one C-ordered buffer, whatever the order of the points, is divided,
    # floored and sorted in place per scale; one sort key per point: in 2-D
    # the floored pair read as one complex number, which sorts and compares
    # like the pair
    boxes = np.empty(cloud.points.shape)
    key = boxes if boxes.shape[1] == 1 else boxes.view(np.complex128)
    counts = []
    for eps in scales:
        np.divide(cloud.points, eps, out=boxes)
        np.floor(boxes, out=boxes)
        counts.append(_distinct(key))
    if len(set(counts)) < 3:
        raise GdmsError("degenerate regression: fewer than 3 distinct box counts")
    y = np.log(np.array(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return BoxCountResult(tuple(scales), tuple(counts), float(slope), residual)


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def raster_shape(dimension: int, resolution: int) -> tuple[int, int]:
    """(height, width) of the raster ``render_image`` draws: a strip of
    height resolution // 16 in dimension 1, a square in dimension 2.  A
    raster over ``MAX_RASTER_PIXELS`` is refused before it is allocated."""
    if resolution < 1:
        raise ConfigError("resolution must be >= 1")
    shape = (max(resolution // 16, 1), resolution) if dimension == 1 else (resolution, resolution)
    if shape[0] * shape[1] > MAX_RASTER_PIXELS:
        raise CapExceededError(
            f"raster of {shape[0]} x {shape[1]} pixels exceeds cap {MAX_RASTER_PIXELS}"
        )
    return shape


def render_image(cloud: PointCloud, resolution: int = 512) -> np.ndarray:
    """Deterministic binary raster of a cloud on its realization's bounds.

    Dimension-1 clouds render as a strip.  Returns a uint8 array (0
    background, 255 where a point lands); serialize with ``write_pgm``.
    Points are placed ``reports.BLOCK_ROWS`` at a time, so beyond the
    raster the peak is one block's pixel indices.
    """
    dim = cloud.points.shape[1] if len(cloud) else len(cloud.lo)
    img = np.zeros(raster_shape(dim, resolution), dtype=np.uint8)
    lo, hi = cloud.lo, cloud.hi
    span = np.maximum(hi - lo, 1e-12)
    for start in range(0, len(cloud), reports.BLOCK_ROWS):
        pts = cloud.points[start:start + reports.BLOCK_ROWS]
        cols = (pts[:, 0] - lo[0]) / span[0] * (resolution - 1)
        cols = np.clip(np.rint(cols).astype(int), 0, resolution - 1)
        if dim == 1:
            img[:, cols] = 255
            continue
        rows = (hi[1] - pts[:, 1]) / span[1] * (resolution - 1)
        rows = np.clip(np.rint(rows).astype(int), 0, resolution - 1)
        img[rows, cols] = 255
    return img


def write_pgm(img: np.ndarray, path) -> None:
    """Binary (P5) PGM with maxval 255."""
    with open(path, "wb") as fh:
        fh.write(pgm_bytes(img))


def pgm_bytes(img: np.ndarray) -> bytes:
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + img.astype(np.uint8).tobytes()
