"""Layouts, attractor clouds, box counting, PGM rendering."""

import hashlib
import json
import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from gdms import (
    CapExceededError,
    ConfigError,
    FreeAbelianQuotient,
    GdmsError,
    LayoutInfeasibleError,
    LinearGdmsSpec,
    PointCloud,
    attractor_points,
    auto_layout,
    bowen_root,
    box_counting,
    cli,
    induced_loops,
    render_image,
)
from gdms import reports
from gdms.groups import letter_name
from gdms.render import MAX_RASTER_PIXELS, _distinct, level_sizes, pgm_bytes, raster_shape
from gdms.reports import write_csv

from render_reference import level_at_once_points
from test_acceptance import REFERENCE_RUNS


class TestAutoLayout:
    def test_exact_packing_third(self, spec_third):
        real = auto_layout(spec_third, 1)
        assert real.osc_margin() == pytest.approx(0.0, abs=1e-12)
        for v in range(4):
            a, b = real.phase[v]
            assert b - a == pytest.approx(1.0)

    def test_strict_gaps_quarter(self, spec_quarter):
        real = auto_layout(spec_quarter, 1)
        assert real.osc_margin() > 0.0

    def test_infeasible_ratio_names_inequality(self):
        spec = LinearGdmsSpec.equal_ratios(2, 0.6)
        with pytest.raises(LayoutInfeasibleError, match="exceeds"):
            auto_layout(spec, 1)

    def test_disks_pass_osc_scan(self, spec_third):
        real = auto_layout(spec_third, 2)
        assert real.osc_margin() > 0.0

    def test_explicit_intervals_respected(self, spec_quarter):
        real = auto_layout(spec_quarter, 1, phase=[[0, 1], [2, 3], [4, 5], [6, 7]])
        assert real.phase[3] == (6.0, 7.0)

    def test_overlapping_intervals_rejected(self, spec_quarter):
        with pytest.raises(ConfigError, match="disjoint"):
            auto_layout(spec_quarter, 1, phase=[[0, 1], [0.5, 1.5], [4, 5], [6, 7]])

    def test_edge_maps_contract_into_parent(self, spec_quarter):
        real = auto_layout(spec_quarter, 1)
        for v in range(4):
            av, bv = real.phase[v]
            for w in real.successors(v):
                c, t = real.edge_map(v, w)
                aw, bw = real.phase[w]
                lo, hi = c * aw + t, c * bw + t
                assert av - 1e-12 <= lo < hi <= bv + 1e-12


class TestAttractorPoints:
    def test_depth1_one_point_per_letter(self, spec_third):
        real = auto_layout(spec_third, 1)
        cloud = attractor_points(real, 1)
        assert len(cloud) == 4

    def test_depth2_cell_containment(self, spec_third):
        real = auto_layout(spec_third, 1)
        cloud = attractor_points(real, 2)
        assert len(cloud) == 12
        for pt, wd in zip(cloud.points, cloud.words):
            v, w = wd
            c, t = real.edge_map(v, w)
            aw, bw = real.phase[w]
            lo, hi = c * aw + t, c * bw + t
            assert lo - 1e-12 <= pt[0] <= hi + 1e-12

    def test_nested_containment_depth3(self, spec_quarter):
        real = auto_layout(spec_quarter, 1)
        shallow = {wd: i for i, wd in enumerate(attractor_points(real, 2).words)}
        deep = attractor_points(real, 3)
        for pt, wd in zip(deep.points, deep.words):
            assert wd[:2] in shallow
            v, w = wd[0], wd[1]
            c, t = real.edge_map(v, w)
            aw, bw = real.phase[w]
            assert c * aw + t - 1e-12 <= pt[0] <= c * bw + t + 1e-12

    def test_first_level_cells_disjoint(self, spec_quarter):
        real = auto_layout(spec_quarter, 1)
        for v in range(4):
            spans = []
            for w in real.successors(v):
                c, t = real.edge_map(v, w)
                aw, bw = real.phase[w]
                spans.append((c * aw + t, c * bw + t))
            spans.sort()
            for (_, b0), (a1, _) in zip(spans, spans[1:]):
                assert a1 >= b0 - 1e-12

    def test_induced_cloud_inside_kernel_cells(self, spec_third, z2):
        real = auto_layout(spec_third, 1)
        sys = induced_loops(spec_third, z2, 2)
        cloud = attractor_points(real, 3, sys)
        assert len(cloud) == 12 * 9 * 9
        full = attractor_points(real, 2)
        cells = {}
        for wd in full.words:
            v, w = wd
            c, t = real.edge_map(v, w)
            aw, bw = real.phase[w]
            cells[wd] = (c * aw + t, c * bw + t)
        for pt, wd in zip(cloud.points, cloud.words):
            lo, hi = cells[tuple(wd[:2])]
            assert lo - 1e-12 <= pt[0] <= hi + 1e-12

    def test_2d_points_inside_disks(self, spec_third):
        real = auto_layout(spec_third, 2)
        cloud = attractor_points(real, 3)
        centers = np.array([real.phase[v][:2] for v in range(4)])
        radii = np.array([real.phase[v][2] for v in range(4)])
        dists = np.linalg.norm(
            cloud.points[:, None, :] - centers[None, :, :], axis=2
        )
        assert (dists.min(axis=1) <= radii.max() + 1e-9).all()

    def test_point_cap(self, spec_third):
        real = auto_layout(spec_third, 1)
        with pytest.raises(GdmsError):
            attractor_points(real, 12, point_cap=1000)

    def test_point_cap_boundary_full(self, spec_third):
        real = auto_layout(spec_third, 1)
        assert len(attractor_points(real, 3, point_cap=36)) == 36
        with pytest.raises(CapExceededError):
            attractor_points(real, 3, point_cap=35)

    def test_point_cap_boundary_induced(self, spec_third, z2):
        real = auto_layout(spec_third, 1)
        sys = induced_loops(spec_third, z2, 2)
        assert len(attractor_points(real, 2, sys, point_cap=108)) == 108
        with pytest.raises(CapExceededError):
            attractor_points(real, 2, sys, point_cap=107)


def _folded_point(real, word):
    """Left-to-right fold of the word's edge maps applied to its terminal centre."""
    scale, offset = 1.0, np.zeros(real.dimension)
    for v, w in zip(word, word[1:]):
        c, t = real.edge_map(v, w)
        offset = offset + scale * np.atleast_1d(t)
        scale *= c
    return scale * real.center(word[-1]) + offset


UNEQUAL = LinearGdmsSpec.symmetric_ratios([0.3, 0.2])


class TestPointsAreWordFolds:
    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("spec", [LinearGdmsSpec.equal_ratios(2, 1 / 3), UNEQUAL],
                             ids=["third", "unequal"])
    def test_full(self, spec, dimension):
        real = auto_layout(spec, dimension)
        cloud = attractor_points(real, 4)
        assert cloud.provenance == "full"
        assert len(cloud) == 4 * 3 ** 3
        for pt, wd in zip(cloud.points, cloud.words):
            assert len(wd) == 4
            assert np.abs(pt - _folded_point(real, wd)).max() <= 1e-12

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("spec", [LinearGdmsSpec.equal_ratios(2, 1 / 3), UNEQUAL],
                             ids=["third", "unequal"])
    def test_induced(self, spec, dimension):
        real = auto_layout(spec, dimension)
        sys = induced_loops(spec, FreeAbelianQuotient(2, [[1, 0], [0, 1]]), 4)
        cloud = attractor_points(real, 2, sys)
        assert cloud.provenance == "induced"
        assert len(cloud) > len(sys)
        loops = set(sys.loops)
        for pt, wd in zip(cloud.points, cloud.words):
            assert any(wd[:k] in loops and wd[k:] in loops for k in range(1, len(wd)))
            assert np.abs(pt - _folded_point(real, wd)).max() <= 1e-12


def tuple_words(real, depth, subset="full"):
    """Reference: the cloud's words as the builder listed them when each word
    was a code tuple, ``words[a] + pieces[b]`` for every (a, b) that the
    follows table allows, level by level."""
    n = 2 * real.spec.d
    pieces = tuple((v,) for v in range(n)) if subset == "full" else subset.loops
    first = np.array([p[0] for p in pieces])
    last = np.array([p[-1] for p in pieces])
    follows = np.ones((n + 1, len(pieces)), dtype=bool)
    follows[:n] = first[None, :] != (np.arange(n) ^ 1)[:, None]
    tail = np.array([n])
    words = [()]
    for _ in range(depth):
        i, j = np.nonzero(follows[tail])
        tail = last[j]
        words = [words[a] + pieces[b] for a, b in zip(i.tolist(), j.tolist())]
    return words


def _name(word):
    return " ".join(map(letter_name, word))


class TestWordsMatchTupleBuilder:
    """Index-array words give the tuple builder's words in its order."""

    def check(self, cloud, want):
        assert len(cloud.words) == len(want)
        assert list(cloud.words) == want
        assert cloud.words[-1] == want[-1]
        assert cloud.words[3:9] == tuple(want[3:9])
        names = cloud.words.names()
        assert names[:] == [_name(w) for w in want]
        # any row range, as a block writer slices it
        for a, b in [(0, 1), (5, 6), (1, len(want) - 1), (len(want) // 3, len(want) // 2)]:
            assert names[a:b] == [_name(w) for w in want[a:b]]
        assert names[7] == _name(want[7])
        assert names[-1] == _name(want[-1])
        assert names[4:4] == []

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("d, depth", [(2, 5), (3, 3)])
    def test_full(self, dimension, d, depth):
        real = auto_layout(LinearGdmsSpec.equal_ratios(d, 0.15), dimension)
        cloud = attractor_points(real, depth)
        self.check(cloud, tuple_words(real, depth))
        assert cloud.words.parent[0].dtype == cloud.words.piece[0].dtype == np.int32

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("spec", [LinearGdmsSpec.equal_ratios(2, 1 / 3), UNEQUAL],
                             ids=["third", "unequal"])
    def test_induced(self, spec, dimension):
        real = auto_layout(spec, dimension)
        sys = induced_loops(spec, FreeAbelianQuotient(2, [[1, 0], [0, 1]]), 4)
        self.check(attractor_points(real, 2, sys), tuple_words(real, 2, sys))


def test_render_memory_budget(tmp_path):
    """A depth-10 F_2 render (78,732 points), from its cloud to its
    points.csv, peaks within 12 MB traced: 6.4 MB with index-array words
    and block-written rows, 26.8 MB when every word was held as a code
    tuple, a name and a row."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"gdms": {"d": 2, "ratio": 1 / 3}, "params": {"depth": 10}}))
    argv = ["render", "--config", str(cfg_path), "--output-dir"]
    assert cli.main([*argv, str(tmp_path / "warm")]) == 0  # first-call imports
    tracemalloc.start()
    try:
        assert cli.main([*argv, str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(tmp_path / "out" / "points.csv") as fh:
        assert sum(1 for _ in fh) == 1 + 4 * 3 ** 9
    assert peak <= 12e6


class TestBlocksMatchLevelAtOnce:
    """Building a level in blocks moves no bit: at any block size the points
    and every parent and piece array equal the level-at-once builder's, and
    the levels have the sizes ``level_sizes`` counts."""

    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("subset", ["full", "induced"])
    def test_depths_1_to_7(self, monkeypatch, block, dimension, subset):
        monkeypatch.setattr(reports, "BLOCK_ROWS", block)
        if subset == "induced":  # 6 loops, 41,634 words at depth 7
            subset = induced_loops(UNEQUAL, FreeAbelianQuotient(1, [[1], [0]]), 3)
        real = auto_layout(UNEQUAL, dimension)
        for depth in range(1, 8):
            got = attractor_points(real, depth, subset)
            want = level_at_once_points(real, depth, subset)
            assert got.points.shape == want.points.shape
            assert got.points.tobytes() == want.points.tobytes()
            for ours, theirs in [(got.words.parent, want.words.parent),
                                 (got.words.piece, want.words.piece)]:
                assert len(ours) == len(theirs) == depth
                for a, b in zip(ours, theirs):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            sizes = list(islice(level_sizes(real.spec, subset), depth))
            assert [len(p) for p in got.words.piece] == sizes


DEEP_CLOUD_POINTS = 4 * 3 ** 11  # depth 12 over F_2


def test_deep_cloud_memory_budget():
    """A depth-12 F_2 cloud (708,588 points, 14.2 MB retained) builds within
    24 MB traced: 19.1 MB when each level is built in blocks into
    preallocated arrays and the last level writes its points directly, 36.9 MB
    when each level was built at once."""
    real = auto_layout(LinearGdmsSpec.equal_ratios(2, 1 / 3), 1)
    attractor_points(real, 2)  # first-call allocations
    tracemalloc.start()
    try:
        cloud = attractor_points(real, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cloud) == DEEP_CLOUD_POINTS
    assert peak <= 24e6


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deep_render_stage_memory(tmp_path):
    """Beyond the depth-12 cloud, each later render stage holds one copy of
    the points or one block, traced: box counting 6.4 MB (17.0 MB when each
    scale divided, floored and sorted into fresh arrays), the raster 0.07 MB
    (17.0 MB when it indexed every point at once) and points.csv 0.64 MB
    (5.0 MB in blocks of 2**14 rows).  The CSV is traced over its first 2**16
    rows, which its shorter x column sets: the peak is one block's, and
    tracing slows the write of every row about tenfold."""
    real = auto_layout(LinearGdmsSpec.equal_ratios(2, 1 / 3), 1)
    cloud = attractor_points(real, 12)
    scales = [3.0 ** -k for k in range(2, 7)]
    csv_path = tmp_path / "points.csv"
    rows = 1 << 16
    stages = [
        (lambda: box_counting(cloud, scales), 8e6),
        (lambda: render_image(cloud, 512), 1e6),
        (lambda: write_csv(csv_path, ["x", "word"], [cloud.points[:rows, 0], cloud.words.names()]), 2e6),
    ]
    for call, bound in stages:
        call()  # first-call allocations
        assert _traced_peak(call) <= bound
    with open(csv_path) as fh:
        assert sum(1 for _ in fh) == 1 + rows


def test_over_cap_cloud_refused_before_any_level():
    """Depth 13 of the 2-D F_2 cloud (2,125,764 points) is refused from the
    level counts alone, within 1 MB traced; building the levels that fit
    first took 97 MB of RSS."""
    real = auto_layout(LinearGdmsSpec.equal_ratios(2, 1 / 3), 2)
    attractor_points(real, 1)  # first-call allocations

    def refuse():
        with pytest.raises(CapExceededError, match=r"^full cloud level 13 has 2125764 points > cap 2000000$"):
            attractor_points(real, 13)

    assert _traced_peak(refuse) < 1e6


# sha256 of the payloads of the two render runs in REFERENCE_RUNS: any change to
# point arithmetic, word order, word names or CSV formatting shows here
RENDER_DIGESTS = [
    {
        "points.csv": "79839709ccacffb28e126ed0eacbdf5ad9c2a657de22940af0bbc30f6a09f1ff",
        "attractor.pgm": "e420bcd2db00e9a30185389dcc854650084e5e2dadd1f8dcaadf26e238c725e0",
    },
    {
        "points.csv": "d2bdc47cfb9ef31d09407ee72ef25a289716c5419b0b74b5dd57068656434868",
        "attractor.pgm": "e420bcd2db00e9a30185389dcc854650084e5e2dadd1f8dcaadf26e238c725e0",
    },
]


@pytest.mark.parametrize(
    "cfg, digests",
    list(zip([cfg for command, cfg in REFERENCE_RUNS if command == "render"], RENDER_DIGESTS)),
    ids=["full", "induced"],
)
def test_render_payload_digests(tmp_path, cfg, digests):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outdir = tmp_path / "out"
    assert cli.main(["render", "--config", str(cfg_path), "--output-dir", str(outdir)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest, name


class TestBoxCounting:
    def test_full_interval_dimension(self, spec_third):
        real = auto_layout(spec_third, 1)
        cloud = attractor_points(real, 10)
        bc = box_counting(cloud, [3.0 ** -k for k in range(2, 7)])
        assert abs(bc.slope - bowen_root(spec_third)) <= 0.1

    def test_cantor_dimension(self, spec_quarter):
        real = auto_layout(spec_quarter, 1)
        cloud = attractor_points(real, 10)
        bc = box_counting(cloud, [4.0 ** -k for k in range(2, 6)])
        assert abs(bc.slope - math.log(3) / math.log(4)) <= 0.05

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_counts_match_rowwise_unique(self, spec_quarter, dimension):
        cloud = attractor_points(auto_layout(spec_quarter, dimension), 6)
        # also a Fortran-ordered cloud with negative coordinates
        pts = np.asfortranarray(np.random.default_rng(7).normal(size=(2000, dimension)))
        scattered = type(cloud)(pts, (), 1, "full", pts.min(axis=0), pts.max(axis=0))
        scales = [2.0 ** k for k in range(-5, 2)]
        for c in (cloud, scattered):
            want = [len(np.unique(np.floor(c.points / e), axis=0)) for e in scales]
            assert list(box_counting(c, scales).counts) == want

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_counts_equal_unique_of_the_box_key(self, dimension):
        # Negative coordinates, 500 points given twice, and signed zeros in
        # every combination: -0.0 and 0.0 compare equal, so they share a box.
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(1500, dimension))
        zeros = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
        pts = np.concatenate([pts, pts[:500], zeros[:, :dimension]])
        cloud = PointCloud(pts, (), 1, "full", pts.min(axis=0), pts.max(axis=0))
        scales = [2.0 ** k for k in range(-5, 2)]
        want = []
        for eps in scales:
            boxes = np.ascontiguousarray(np.floor(pts / eps))
            key = boxes if dimension == 1 else boxes.view(np.complex128)
            want.append(len(np.unique(key)))
        assert list(box_counting(cloud, scales).counts) == want

    def test_distinct_keys(self):
        signed = np.array([0.0, -0.0, 1.0, -1.0, 1.0])
        assert _distinct(signed) == len(np.unique(signed)) == 3
        pairs = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1j, 1 + 0j, 1j])
        assert _distinct(pairs) == len(np.unique(pairs)) == 3
        assert _distinct(np.empty((0, 1))) == 0

    def test_single_point_degenerate(self, spec_third):
        real = auto_layout(spec_third, 1)
        cloud = attractor_points(real, 1)
        tiny = type(cloud)(
            cloud.points[:1], cloud.words[:1], 1, "full", cloud.lo, cloud.hi
        )
        with pytest.raises(GdmsError, match="degenerate"):
            box_counting(tiny, [0.5, 0.1, 0.02])

    def test_scale_validation(self, spec_third):
        real = auto_layout(spec_third, 1)
        cloud = attractor_points(real, 6)
        with pytest.raises(ConfigError, match="octaves"):
            box_counting(cloud, [0.5, 0.4, 0.3])
        with pytest.raises(ConfigError, match="3 scales"):
            box_counting(cloud, [0.5, 0.1])

    def test_scales_with_infinite_log_refused(self, spec_third):
        # 1/eps overflows to inf below 1/DBL_MAX (about 5.6e-309), so the
        # fit would see log(1/eps) = inf; the smallest such scale is named
        cloud = attractor_points(auto_layout(spec_third, 1), 6)
        with pytest.raises(ConfigError, match=r"scale 1e-320 is too small"):
            box_counting(cloud, [1e-320, 1e-310, 1e-300])
        with pytest.raises(ConfigError, match=r"scale 1e-310 is too small"):
            box_counting(cloud, [1e-300, 1e-310, 1e-290])

    def test_underflowed_scale_refused_before_octave_ratio(self, spec_third):
        # ratio 1e-100: the default scales c^2 .. c^6 are 1e-200, 1e-300 and
        # three zeros; the span check would divide by the smallest
        cloud = attractor_points(auto_layout(spec_third, 1), 6)
        scales = [1e-100**k for k in range(2, 7)]
        assert scales[2:] == [0.0, 0.0, 0.0]
        with pytest.raises(ConfigError, match=r"scale 0\.0 is too small"):
            box_counting(cloud, scales)


class TestRenderImage:
    def test_empty_cloud_background(self, spec_third):
        real = auto_layout(spec_third, 1)
        cloud = attractor_points(real, 1)
        empty = type(cloud)(
            np.zeros((0, 1)), (), 1, "full", cloud.lo, cloud.hi
        )
        img = render_image(empty, 64)
        assert (img == 0).all()

    def test_depth1_lights_four_regions(self, spec_third):
        real = auto_layout(spec_third, 1)
        img = render_image(attractor_points(real, 1), 64)
        assert (img[0] > 0).sum() == 4

    def test_lit_count_monotone_until_saturation(self, spec_third):
        real = auto_layout(spec_third, 1)
        lit = [
            int((render_image(attractor_points(real, k), 200) > 0).sum())
            for k in range(1, 7)
        ]
        assert all(b >= a for a, b in zip(lit, lit[1:]))

    def test_pgm_header_and_determinism(self, spec_third):
        real = auto_layout(spec_third, 2)
        cloud = attractor_points(real, 4)
        data1 = pgm_bytes(render_image(cloud, 128))
        data2 = pgm_bytes(render_image(attractor_points(real, 4), 128))
        assert data1.startswith(b"P5\n128 128\n255\n")
        assert data1 == data2

    @pytest.mark.parametrize("dimension, resolution, shape", [
        (1, 512, (32, 512)), (1, 8, (1, 8)), (2, 64, (64, 64)),
        # the largest rasters within MAX_RASTER_PIXELS = 2**26
        (1, 2**15, (2**11, 2**15)), (2, 2**13, (2**13, 2**13)),
    ])
    def test_raster_shape(self, dimension, resolution, shape):
        assert raster_shape(dimension, resolution) == shape

    @pytest.mark.parametrize("dimension, resolution, pixels", [
        (1, 2**15 + 1, 2**11 * (2**15 + 1)), (2, 2**13 + 1, (2**13 + 1) ** 2),
        (2, 100_000, 10**10),
    ])
    def test_raster_over_cap_refused(self, spec_third, dimension, resolution, pixels):
        assert pixels > MAX_RASTER_PIXELS
        with pytest.raises(CapExceededError, match=f"exceeds cap {MAX_RASTER_PIXELS}"):
            raster_shape(dimension, resolution)
        cloud = attractor_points(auto_layout(spec_third, dimension), 1)
        with pytest.raises(CapExceededError):
            render_image(cloud, resolution)
