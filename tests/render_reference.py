"""Reference cloud builder: each level built at once, as one set of arrays.

``render.attractor_points`` builds a level in blocks of children and writes
the last level's points directly.  This is the level-at-once builder it
replaced: ``np.nonzero`` of the follows table gives every (parent, piece)
pair of a level, and each float operation runs over the whole level in the
same order as the block builder's.  The tests require the two clouds to be
equal bit for bit.  No command reads it.
"""

import numpy as np

from gdms.render import PointCloud, Words


def level_at_once_points(real, depth: int, subset="full") -> PointCloud:
    """The cloud of ``attractor_points(real, depth, subset)``, without a cap."""
    n = 2 * real.spec.d
    if isinstance(subset, str):
        pieces = tuple((v,) for v in range(n))
        provenance = "full"
    else:
        pieces = subset.loops
        provenance = "induced"
    edge_c = np.ones((n + 1, n))
    edge_t = np.zeros((n + 1, n, real.dimension))
    for v in range(n):
        for w in real.successors(v):
            edge_c[v, w], edge_t[v, w] = real.edge_map(v, w)
    first = np.array([p[0] for p in pieces], dtype=np.int32)
    last = np.array([p[-1] for p in pieces], dtype=np.int32)
    c_in = np.ones(len(pieces))
    t_in = np.zeros((len(pieces), real.dimension))
    for j, piece in enumerate(pieces):
        for a, b in zip(piece, piece[1:]):
            t_in[j] += c_in[j] * edge_t[a, b]
            c_in[j] *= edge_c[a, b]
    follows = np.ones((n + 1, len(pieces)), dtype=bool)
    follows[:n] = first[None, :] != (np.arange(n) ^ 1)[:, None]

    tail = np.array([n])
    scale = np.ones(1)
    offset = np.zeros((1, real.dimension))
    parents, piece_of = [], []
    for _ in range(depth):
        i, j = np.nonzero(follows[tail])
        index = np.int32 if len(i) <= np.iinfo(np.int32).max else np.int64
        i, j = i.astype(index), j.astype(index)
        scale_i = scale[i]
        edge = tail[i] * n + first[j]
        c_j = scale_i * edge_c.reshape(-1)[edge]
        offset = offset[i]
        offset += scale_i[:, None] * edge_t.reshape(-1, real.dimension)[edge]
        offset += c_j[:, None] * t_in[j]
        scale = c_j
        scale *= c_in[j]
        tail = last[j]
        parents.append(i)
        piece_of.append(j)
    pts = scale[:, None] * real.centers[tail] + offset
    return PointCloud(pts, Words(pieces, tuple(parents), tuple(piece_of)), provenance, real.lo, real.hi)
