"""Unit tests for SDN chunks and the layered lower-bound DP."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.polyline import Polyline
from repro.geometry.primitives import BoundingBox
from repro import TriangleMesh, bearhead_like, eagle_peak_like, fractal_dem
from repro.msdn.msdn import MSDN
from repro.msdn.sdn import (
    SdnFamily,
    _box_distance,
    _box_distances,
    _hop_totals,
    _point_to_boxes,
    chain_length,
    lower_bound_via_planes_arrays,
    nearest_row,
)
from repro.testkit.reference import (
    SdnChunk,
    _boxes_to_boxes,
    _layer_boxes,
    build_sdn_chunks,
    chain_length_arrays,
    chain_upper_bound,
    crossing_rows_reference,
    lower_bound_via_planes,
    planes_between_reference,
    witness_chain,
)


def make_line(y: float, n: int = 9, z: float = 0.0) -> Polyline:
    xs = np.linspace(0.0, 8.0, n)
    pts = np.column_stack([xs, np.full(n, y), np.full(n, z)])
    return Polyline(pts)


class TestChunks:
    def test_full_resolution(self):
        chunks = build_sdn_chunks(make_line(0.0), 1, 0, 0.0, 1.0)
        assert len(chunks) == 8
        assert all(c.resolution == 1.0 for c in chunks)

    def test_keys_unique(self):
        chunks = build_sdn_chunks(make_line(0.0), 1, 3, 0.0, 0.5)
        keys = [c.key for c in chunks]
        assert len(set(keys)) == len(keys)

    def test_encode_decode_roundtrip(self):
        chunk = build_sdn_chunks(make_line(2.5, z=7.0), 0, 11, 2.5, 0.25)[0]
        back = SdnChunk.decode(chunk.encode())
        assert back.axis == chunk.axis
        assert back.plane_index == chunk.plane_index
        assert back.plane_value == pytest.approx(chunk.plane_value)
        assert back.resolution == pytest.approx(chunk.resolution)
        assert back.first == chunk.first and back.last == chunk.last
        assert np.allclose(back.mbr.lo, chunk.mbr.lo)
        assert np.allclose(back.mbr.hi, chunk.mbr.hi)


def boxes(layer) -> tuple[np.ndarray, np.ndarray]:
    """A layer's chunk MBRs as the DP's ``(lo, hi)`` row arrays."""
    lo = np.array([c.mbr.lo for c in layer], dtype=float).reshape(-1, 3)
    hi = np.array([c.mbr.hi for c in layer], dtype=float).reshape(-1, 3)
    return lo, hi


def dp(a, b, layers):
    return lower_bound_via_planes_arrays(a, b, [boxes(layer) for layer in layers])


class TestLowerBoundDP:
    def test_no_planes_gives_euclid(self):
        lb, path = dp((0, 0, 0), (3, 4, 0), [])
        assert lb == pytest.approx(5.0)
        assert path == []

    def test_empty_layer_rejected(self):
        with pytest.raises(GeometryError):
            dp((0, 0, 0), (0, 5, 0), [[]])

    def test_single_flat_plane(self):
        layer = build_sdn_chunks(make_line(1.0), 1, 0, 1.0, 1.0)
        a, b = (4.0, 0.0, 0.0), (4.0, 2.0, 0.0)
        lb, path = dp(a, b, [layer])
        assert lb == pytest.approx(2.0)
        assert len(path) == 1

    def test_elevated_plane_forces_detour(self):
        """A crossing line high above the endpoints makes the bound
        exceed the straight xy distance."""
        layer = build_sdn_chunks(make_line(1.0, z=10.0), 1, 0, 1.0, 1.0)
        a, b = (4.0, 0.0, 0.0), (4.0, 2.0, 0.0)
        lb, _ = dp(a, b, [layer])
        climb = np.hypot(1.0, 10.0)
        assert lb == pytest.approx(2 * climb, rel=1e-6)

    def test_multi_layer_monotone_with_count(self):
        """More planes can only raise (or keep) the bound."""
        a, b = (4.0, 0.0, 0.0), (4.0, 4.0, 0.0)
        layers = [
            build_sdn_chunks(make_line(y, z=3.0), 1, i, y, 1.0)
            for i, y in enumerate((1.0, 2.0, 3.0))
        ]
        values = []
        for count in (1, 2, 3):
            lb, _ = dp(a, b, layers[:count])
            values.append(lb)
        assert values == sorted(values)

    def test_coarser_chunks_weaker(self):
        """The enclosure property makes lower resolutions weaker."""
        rng = np.random.default_rng(2)
        pts = np.column_stack(
            [
                np.linspace(0, 8, 17),
                np.full(17, 1.0),
                rng.uniform(0.0, 6.0, 17),
            ]
        )
        line = Polyline(pts)
        a, b = (4.0, 0.0, 0.0), (4.0, 2.0, 0.0)
        prev = -1.0
        for res in (0.25, 0.5, 1.0):
            layer = build_sdn_chunks(line, 1, 0, 1.0, res)
            lb, _ = dp(a, b, [layer])
            assert lb >= prev - 1e-9
            prev = lb

    def test_path_keys_one_per_layer(self):
        a, b = (4.0, 0.0, 0.0), (4.0, 4.0, 0.0)
        layers = [
            build_sdn_chunks(make_line(y), 1, i, y, 0.5)
            for i, y in enumerate((1.0, 2.0, 3.0))
        ]
        _lb, path = dp(a, b, layers)
        assert len(path) == 3


# Coordinates: a few exact values (so boxes touch, coincide and give
# signed-zero gaps) mixed with arbitrary floats (so a change in the
# order the squares are summed shows in the last bit).
_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
_extent = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
)
_SPACING = 10.0


def _chunks(plane: int, *mbrs) -> list[SdnChunk]:
    """One y-plane's chunks from ``(lo, hi)`` corner pairs; the key
    names the row."""
    return [
        SdnChunk(1, plane, float(plane), 1.0, row, row + 1, BoundingBox(lo, hi))
        for row, (lo, hi) in enumerate(mbrs)
    ]


# Coordinates that are not finite, which the plain-float price must
# carry as the arrays do: a chain holding one prices to NaN or
# infinity, so it decides nothing and the DP runs.
_wild_coord = st.one_of(
    _coord, st.sampled_from([math.inf, -math.inf, math.nan, 1e200, -1e200])
)
_wild_extent = st.one_of(_extent, st.sampled_from([math.inf, math.nan, 1e200]))


@st.composite
def _family(draw, coord=_coord, extent=_extent):
    """``(layers, a, b)``: the chunk layers of y-planes between ``a``
    and ``b``.  Boxes scatter in x and z, so chains zigzag and the
    bound clears the straight line; they keep whatever extent they
    draw along y, the plane axis, as interpolated crossing lines may.
    Layers may hold one chunk, and some boxes repeat an earlier one,
    so argmin sees exact ties.  A box may also touch, overlap or sit
    inside the one before it, or be a point."""
    planes = draw(st.integers(min_value=1, max_value=5))
    layers = []
    for plane in range(planes):
        mbrs = []
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            if mbrs and draw(st.booleans()):
                mbrs.append(draw(st.sampled_from(mbrs)))
                continue
            if mbrs and draw(st.booleans()):
                # Against the previous box: touching it (lo at its
                # hi), overlapping it (lo inside it) or degenerate.
                prev_lo, prev_hi = mbrs[-1]
                kind = draw(st.sampled_from(["touch", "overlap", "point"]))
                if kind == "touch":
                    lo = prev_hi
                elif kind == "overlap":
                    lo = tuple((l + h) / 2.0 for l, h in zip(prev_lo, prev_hi))
                else:
                    lo = prev_lo
                hi = lo if kind == "point" else tuple(v + draw(extent) for v in lo)
                mbrs.append((lo, hi))
                continue
            y = _SPACING * (plane + 1) + draw(coord) / _SPACING
            lo = (draw(coord), y, draw(coord))
            mbrs.append((lo, tuple(v + draw(extent) for v in lo)))
        layers.append(_chunks(plane, *mbrs))
    a = (draw(coord), 0.0, draw(coord))
    b = (draw(coord), _SPACING * (planes + 1), draw(coord))
    return layers, a, b


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _same(got: float, want: float) -> bool:
    """Bit-equal, or both NaN (which NaN a max or a sum carries is not
    part of the recipe: any NaN decides nothing)."""
    return _bits(got) == _bits(want) or (math.isnan(got) and math.isnan(want))


_TIED = ((0.0, 1.0, 0.0), (1.0, 1.0, 0.5))


class TestHopKernelBitIdentity:
    """The per-coordinate hop kernel against the broadcast oracle:
    the same bound to the bit and the same chain of picks (the keys
    name the row, so a tie broken differently shows)."""

    @given(_family())
    @example(  # duplicate boxes: argmin ties go to the first row
        (
            [_chunks(0, _TIED, _TIED, _TIED), _chunks(1, _TIED, _TIED)],
            (0.0, 0.0, 0.0),
            (0.0, 2.0, 0.0),
        )
    )
    @example(  # touching at a signed zero: lo2 - hi1 is -0.0
        (
            [
                _chunks(0, ((-1.0, 0.0, -1.0), (0.0, 0.0, 0.0))),
                _chunks(1, ((-0.0, 1.0, -0.0), (1.0, 1.0, 1.0))),
            ],
            (-0.5, -1.0, 0.0),
            (0.5, 2.0, 0.0),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_broadcast_oracle(self, family):
        layers, a, b = family
        got, picks = dp(a, b, layers)
        want, keys = lower_bound_via_planes(a, b, layers)
        assert _bits(got) == _bits(want)
        assert [layer[row].key for layer, row in zip(layers, picks)] == keys
        # Every hop matrix too, not only the entries on the best chain:
        # a last-bit difference off the chain cannot reach the bound.
        family_boxes = [_layer_boxes(layer) for layer in layers]
        for (lo1, hi1), (lo2, hi2) in zip(family_boxes, family_boxes[1:]):
            hop = _hop_totals(np.zeros(lo1.shape[0]), lo1, hi1, lo2, hi2)
            want_hop = _boxes_to_boxes(lo1, hi1, lo2, hi2).T
            assert hop.tobytes() == np.ascontiguousarray(want_hop).tobytes()


def _on_axis(axis: int, family):
    """``family``'s DP input with the planes across ``axis``: its
    y-planes as they are for axis 1, x and y swapped for axis 0."""
    layers, a, b = family
    swap = [1, 0, 2] if axis == 0 else [0, 1, 2]
    boxes = [(lo[:, swap], hi[:, swap]) for lo, hi in map(_layer_boxes, layers)]
    return boxes, np.asarray(a, dtype=float)[swap], np.asarray(b, dtype=float)[swap]


def _as_family(boxes) -> SdnFamily:
    """The layers ``boxes`` as the rows of one family, layer ``i`` its
    plane ``i``."""
    counts = [lo.shape[0] for lo, _ in boxes]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    plane = np.repeat(np.arange(len(boxes), dtype=np.int64), counts)
    first = np.arange(offsets[-1], dtype=np.int64) - offsets[plane]
    return SdnFamily(
        np.concatenate([lo for lo, _ in boxes]),
        np.concatenate([hi for _, hi in boxes]),
        offsets,
        plane,
        first,
        first,
    )


def _priced_by_dp_steps(a, b, boxes, picks) -> float:
    """The chain ``picks`` priced through the DP's own kernels: the
    first layer's :func:`_point_to_boxes` entry, then per hop the
    :func:`_hop_totals` entry ``[next, current]`` with the running
    prefix at ``current``, then the last layer's entry for ``b``;
    clamped by the straight line as the DP clamps its bound."""
    total = _point_to_boxes(a, *boxes[0])[picks[0]]
    for (lo1, hi1), (lo2, hi2), p1, p2 in zip(boxes, boxes[1:], picks, picks[1:]):
        dist = np.zeros(lo1.shape[0])
        dist[p1] = total
        total = _hop_totals(dist, lo1, hi1, lo2, hi2)[p2, p1]
    total = total + _point_to_boxes(b, *boxes[-1])[picks[-1]]
    return max(float(total), float(np.linalg.norm(a - b)))


class TestWitnessChain:
    """The dummy-lb screen's witness against the DP it stands in for:
    it must never undercut the DP's bound (else a screen could skip a
    candidate the DP would keep), and it must price its chain with the
    DP's own float steps, so the two agree to the bit on one chain."""

    @given(_family(), st.sampled_from([0, 1]))
    @example(
        (
            [_chunks(0, _TIED, _TIED, _TIED), _chunks(1, _TIED, _TIED)],
            (0.0, 0.0, 0.0),
            (0.0, 2.0, 0.0),
        ),
        1,
    )
    @settings(max_examples=300, deadline=None)
    def test_never_below_the_dp_and_priced_by_its_steps(self, family, axis):
        boxes, a, b = _on_axis(axis, family)
        witness = chain_upper_bound(a, b, axis, boxes)
        bound, _picks = lower_bound_via_planes_arrays(a, b, boxes)
        assert witness >= bound
        picks = witness_chain(a, b, axis, boxes)
        assert len(picks) == len(boxes)
        assert all(0 <= p < lo.shape[0] for p, (lo, _) in zip(picks, boxes))
        assert _bits(witness) == _bits(_priced_by_dp_steps(a, b, boxes, picks))

    @given(_family(), st.sampled_from([0, 1]))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_dp_on_one_box_per_layer(self, family, axis):
        boxes, a, b = _on_axis(axis, family)
        single = [(lo[:1], hi[:1]) for lo, hi in boxes]
        bound, _picks = lower_bound_via_planes_arrays(a, b, single)
        assert _bits(chain_upper_bound(a, b, axis, single)) == _bits(bound)

    @given(_family(), st.sampled_from([0, 1]))
    @example(
        (
            [_chunks(0, _TIED, _TIED, _TIED), _chunks(1, _TIED, _TIED)],
            (0.0, 0.0, 0.0),
            (0.0, 2.0, 0.0),
        ),
        1,
    )
    @example(  # three non-zero gaps whose squares sum to another
        # last bit in any other order
        (
            [_chunks(0, ((3.0, 10.0, 1.0), (3.0, 10.0, 1.0)))],
            (0.3, 0.0, 4.2),
            (3.0, 20.0, 1.0),
        ),
        1,
    )
    @example(  # one non-finite box on the chain: NaN as the arrays give it
        (
            [_chunks(0, ((math.nan, 10.0, 0.0), (math.nan, 10.0, 1.0)))],
            (0.0, 0.0, 0.0),
            (0.0, 20.0, 0.0),
        ),
        1,
    )
    @example(  # an unbounded box and an overflowing square: infinity
        (
            [
                _chunks(0, ((-math.inf, 10.0, 0.0), (1e200, 10.0, 0.0))),
                _chunks(1, ((-1e200, 20.0, 0.0), (-1e200, 20.0, 0.0))),
            ],
            (0.0, 0.0, 0.0),
            (0.0, 30.0, 0.0),
        ),
        1,
    )
    @settings(max_examples=300, deadline=None)
    def test_crossing_chain_priced_as_the_dp_prices_it(self, family, axis):
        """The screen's chain with every row kept: the layers as one
        family, the crossing row of each plane picked among all its
        rows (the argmin the masked witness takes), priced on those
        rows alone.  The plain-float price equals, to the bit, the
        array price and the chain re-priced through the DP's own
        kernels, and so does each of its terms: the end distances as
        the DP's over its whole first and last layers, each hop as the
        DP's hop matrix entry.  Where a coordinate is not finite, the
        price is NaN or infinity exactly where the arrays' is; a
        finite price is never below the DP."""
        with np.errstate(over="ignore", invalid="ignore"):
            self._check_crossing_chain(family, axis)

    @staticmethod
    def _check_crossing_chain(family, axis):
        boxes, a, b = _on_axis(axis, family)
        sdn = _as_family(boxes)
        rows = crossing_rows_reference(sdn, np.arange(len(boxes)), axis, a, b)
        picks = (rows - sdn.offsets[:-1]).tolist()
        assert picks == witness_chain(a, b, axis, boxes)
        lo, hi = sdn.lo[rows], sdn.hi[rows]
        (lo0, hi0), (lo_n, hi_n) = boxes[0], boxes[-1]
        ends = (a.tolist(), b.tolist())
        lo_rows, hi_rows = lo.tolist(), hi.tolist()
        # The end distances: the point box (p, p), against the DP's
        # over its whole layers.
        first = _box_distance(ends[0], ends[0], lo_rows[0], hi_rows[0])
        last = _box_distance(ends[1], ends[1], lo_rows[-1], hi_rows[-1])
        assert _same(first, _point_to_boxes(a, lo0, hi0)[picks[0]])
        assert _same(last, _point_to_boxes(b, lo_n, hi_n)[picks[-1]])
        hops = _box_distances(lo[:-1].T, hi[:-1].T, lo[1:].T, hi[1:].T, len(rows) - 1)
        for i, ((lo1, hi1), (lo2, hi2), p1, p2) in enumerate(
            zip(boxes, boxes[1:], picks, picks[1:])
        ):
            hop = _box_distance(lo_rows[i], hi_rows[i], lo_rows[i + 1], hi_rows[i + 1])
            dp_hop = _hop_totals(np.zeros(lo1.shape[0]), lo1, hi1, lo2, hi2)[p2, p1]
            assert _same(hop, hops[i])
            assert _same(hop, dp_hop)
        euclid = float(np.linalg.norm(a - b))
        length = chain_length(*ends, lo_rows, hi_rows, euclid)
        assert _same(length, chain_length_arrays(a, b, lo, hi))
        assert _same(length, _priced_by_dp_steps(a, b, boxes, picks))
        assert _same(length, chain_upper_bound(a, b, axis, boxes))
        bound = lower_bound_via_planes_arrays(a, b, boxes)[0]
        if not (math.isnan(length) or math.isnan(bound)):
            assert length >= bound

    @given(
        st.lists(_wild_coord, min_size=3, max_size=3),
        st.lists(_wild_extent, min_size=3, max_size=3),
        st.lists(_wild_coord, min_size=3, max_size=3),
        st.lists(_wild_extent, min_size=3, max_size=3),
        st.sampled_from(["apart", "touching", "overlapping", "same"]),
    )
    @example(  # signed-zero gaps
        [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [-0.0, 1.0, -0.0], [1.0, 0.0, 1.0], "apart"
    )
    @example(  # three non-zero gaps whose squares sum to another last bit
        # in any other order
        [0.3, 0.0, 4.2], [0.0, 0.0, 0.0], [3.0, 10.0, 1.0], [0.0, 0.0, 0.0], "apart"
    )
    @settings(max_examples=500, deadline=None)
    def test_one_box_distance_is_the_array_recipe(self, lo1, ext1, lo2, ext2, kind):
        """:func:`_box_distance` against :func:`_box_distances` for one
        pair of boxes, both ways round, and against
        :func:`_point_to_boxes` with box 1 a point: apart, touching
        (box 2's low corner at box 1's high one), overlapping or the
        same box; points; signed zeros; infinities, overflows and
        NaN."""
        with np.errstate(over="ignore", invalid="ignore"):
            self._check_box_distance(lo1, ext1, lo2, ext2, kind)

    @staticmethod
    def _check_box_distance(lo1, ext1, lo2, ext2, kind):
        hi1 = [l + e for l, e in zip(lo1, ext1)]
        if kind == "touching":
            lo2 = list(hi1)
        elif kind == "overlapping":
            lo2 = [(l + h) / 2.0 for l, h in zip(lo1, hi1)]
        elif kind == "same":
            lo2, ext2 = list(lo1), list(ext1)
        hi2 = [l + e for l, e in zip(lo2, ext2)]
        corners = [np.array([c], dtype=float) for c in (lo1, hi1, lo2, hi2)]
        for one, two in ((corners[:2], corners[2:]), (corners[2:], corners[:2])):
            (l1, h1), (l2, h2) = one, two
            want = _box_distances(l1.T, h1.T, l2.T, h2.T, 1)[0]
            got = _box_distance(*(c[0].tolist() for c in (l1, h1, l2, h2)))
            assert _same(got, want), (got, want)
        point = corners[0][0]
        want = _point_to_boxes(point, corners[2], corners[3])[0]
        got = _box_distance(lo1, lo1, lo2, hi2)
        assert _same(got, float(want)), (got, want)

    def test_crossing_ties_go_to_the_lowest_row(self):
        """Two chunks of the plane y = 1 meet at x = 4, where the
        segment crosses: both miss by zero, and the first wins."""
        lo, hi = boxes(build_sdn_chunks(make_line(1.0), 1, 0, 1.0, 0.25))
        sdn = _as_family([(lo, hi)])
        a, b = np.array([4.0, 0.0, 0.0]), np.array([4.0, 2.0, 0.0])
        assert hi[0, 0] == lo[1, 0] == 4.0
        assert sdn.crossing_rows(np.array([0]), 1, a, b) == [0]

    def test_no_layers_gives_euclid(self):
        assert chain_upper_bound((0, 0, 0), (3, 4, 0), 1, []) == 5.0
        assert chain_length((0, 0, 0), (3, 4, 0), [], [], 5.0) == 5.0
        empty = np.empty((0, 3))
        assert chain_length_arrays((0, 0, 0), (3, 4, 0), empty, empty) == 5.0

    def test_empty_layer_rejected(self):
        with pytest.raises(GeometryError):
            chain_upper_bound((0, 0, 0), (0, 5, 0), 1, [(np.empty((0, 3)),) * 2])

    def test_takes_the_box_the_straight_line_crosses(self):
        """Three boxes on the plane y = 1; the segment from (4, 0) to
        (4, 2) crosses it at x = 4, inside the middle box only."""
        layer = build_sdn_chunks(make_line(1.0), 1, 0, 1.0, 0.375)
        lo, hi = boxes(layer)
        assert witness_chain((4.0, 0.0, 0.0), (4.0, 2.0, 0.0), 1, [(lo, hi)]) == [1]


_TERRAINS = {
    "BH 25": (lambda: bearhead_like(size=25), 0.0),
    "EP 33": (lambda: eagle_peak_like(size=33), 0.0),
    "fractal 25": (lambda: fractal_dem(25, 90.0, 500.0, 0.7), 0.0),
    "BH 25 adaptive": (lambda: bearhead_like(size=25), 1.0),
}


@pytest.fixture(scope="module", params=sorted(_TERRAINS))
def terrain_msdn(request):
    """The MSDN of each of the benchmark's terrains at its default
    resolutions, and of BH 25 with adaptive planes."""
    make_dem, adaptive = _TERRAINS[request.param]
    return MSDN(TriangleMesh.from_dem(make_dem()), adaptive_planes=adaptive)


def _argmin_rows(lo: np.ndarray, hi: np.ndarray, at: np.ndarray) -> np.ndarray:
    """For each of ``at``, the argmin over the rows of ``max(lo - at,
    at - hi)``: the crossing row as one pass over the plane picks it."""
    miss = np.maximum(lo[np.newaxis, :] - at[:, np.newaxis], at[:, np.newaxis] - hi)
    return np.argmin(miss, axis=1)


class TestBisectedCrossing:
    """The bisected crossing row against the argmin over every row of
    the plane, on every plane of every family (both axes, all five
    resolutions) of real crossing lines, whose chunks ascend along
    the line."""

    def test_nearest_row_is_the_argmin_on_every_plane(self, terrain_msdn):
        checked = 0
        for (axis, _res), family in terrain_msdn._families.items():
            other = 1 - axis
            lo_col, hi_col = family.xy[:, other], family.xy[:, other + 2]
            lo_view, hi_view = memoryview(lo_col), memoryview(hi_col)
            offsets = family.offsets.tolist()
            for start, stop in zip(offsets, offsets[1:]):
                lo, hi = lo_col[start:stop], hi_col[start:stop]
                # Every chunk boundary (exact ties between neighbours),
                # a point inside every chunk, and beyond both ends.
                at = np.concatenate(
                    [lo, hi, (lo + hi) / 2.0, [lo[0] - 1.0, hi[-1] + 1.0, -1e9, 1e9]]
                )
                want = _argmin_rows(lo, hi, at) + start
                got = [
                    nearest_row(lo_view, hi_view, start, stop, x) for x in at.tolist()
                ]
                assert got == want.tolist()
                checked += 1
        assert checked > 0

    def test_crossing_rows_are_the_argmin_rows(self, terrain_msdn):
        """Between mesh vertex pairs, at every resolution: the rows
        :meth:`SdnFamily.crossing_rows` picks are the one-pass argmin's
        (:func:`crossing_rows_reference`), and the planes are the
        plane mask's."""
        msdn = terrain_msdn
        vertices = msdn.mesh.vertices
        rng = np.random.default_rng(31)
        for a, b in rng.integers(0, len(vertices), size=(40, 2)).tolist():
            if a == b:
                continue
            for res in msdn.resolutions:
                axis, pa, pb, family, planes = msdn._selection(
                    vertices[a], vertices[b], res
                )
                lo, hi = sorted((float(pa[axis]), float(pb[axis])))
                want = planes_between_reference(
                    msdn, axis, lo, hi, msdn.plane_stride(res)
                )
                assert planes.tolist() == want.tolist()
                assert family.crossing_rows(planes, axis, pa, pb) == (
                    crossing_rows_reference(family, planes, axis, pa, pb)
                )

    def test_planes_between_at_plane_values(self, terrain_msdn):
        """Bounds on plane values exactly (excluded), between them,
        beyond both ends and NaN, at every stride."""
        msdn = terrain_msdn
        for axis in (0, 1):
            values = msdn._planes[axis]
            probes = np.concatenate(
                [values, (values[:-1] + values[1:]) / 2.0, [-1e9, 1e9, np.nan]]
            ).tolist()
            for lo, hi in zip(probes, probes[3:] + probes[:3]):
                lo, hi = min(lo, hi), max(lo, hi)
                for stride in (1, 2, 3):
                    got = msdn._planes_between(axis, lo, hi, stride)
                    want = planes_between_reference(msdn, axis, lo, hi, stride)
                    assert got.tolist() == want.tolist(), (lo, hi, stride)
