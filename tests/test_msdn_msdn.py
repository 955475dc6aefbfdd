"""Unit tests for the MSDN facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError, StorageError
from repro.geodesic.exact import ExactGeodesic
from repro.geometry.ellipse import EllipseRegion
from repro.geometry.primitives import BoundingBox
from repro.msdn.msdn import MSDN
from repro.storage.pages import PageManager
from repro.storage.stats import IOStatistics
from repro.msdn.sdn import SdnFamily
from repro.testkit.reference import (
    msdn_lower_bound_reference,
    msdn_screen_reference,
    spine_chain_reference,
)


@pytest.fixture(scope="module")
def msdn(request):
    mesh = request.getfixturevalue("rough_mesh")
    return MSDN(mesh)


@pytest.fixture(scope="module")
def exact_pairs(request):
    mesh = request.getfixturevalue("rough_mesh")
    rng = np.random.default_rng(12)
    pairs = {}
    for _ in range(4):
        a, b = rng.integers(0, mesh.num_vertices, size=2)
        if a == b:
            continue
        pairs[(int(a), int(b))] = ExactGeodesic(mesh, int(a)).distance_to(int(b))
    return pairs


class TestLowerBounds:
    def test_valid_bounds(self, msdn, exact_pairs):
        mesh = msdn.mesh
        for (a, b), ds in exact_pairs.items():
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            de = float(np.linalg.norm(pa - pb))
            for res in msdn.resolutions:
                lb = msdn.lower_bound(pa, pb, res).value
                assert lb <= ds + 1e-6
                assert lb >= de - 1e-6

    def test_roi_restriction_stays_valid(self, msdn, exact_pairs):
        mesh = msdn.mesh
        for (a, b), ds in exact_pairs.items():
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            ellipse = EllipseRegion(pa[:2], pb[:2], ds * 1.02)
            lb = msdn.lower_bound(pa, pb, 1.0, roi=[ellipse.mbr()]).value
            assert lb <= ds + 1e-6

    def test_axis_choice(self, msdn):
        assert MSDN.choose_axis((0, 0, 0), (10, 1, 0)) == 0
        assert MSDN.choose_axis((0, 0, 0), (1, 10, 0)) == 1

    def test_resolution_snapping(self, msdn):
        assert msdn.nearest_resolution(0.3) in msdn.resolutions

    def test_plane_stride_reduces_at_low_res(self, msdn):
        assert msdn.plane_stride(0.25) > msdn.plane_stride(1.0)

    def test_corridor_is_overestimate(self, msdn, exact_pairs):
        """Dummy lower bound (corridor-restricted) >= true lower bound
        at the same resolution — the inequality MR3's skip test uses."""
        mesh = msdn.mesh
        for (a, b), _ds in exact_pairs.items():
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            full = msdn.lower_bound(pa, pb, 0.5)
            if not full.path_keys:
                continue
            corridor = msdn.corridor_from_path(full.path_keys, 0.5)
            dummy = msdn.lower_bound(pa, pb, 0.5, corridor=corridor)
            assert dummy.value >= full.value - 1e-9

    def test_batch_rejects_rois_of_another_length(self, msdn):
        """A short ``rois`` must not silently drop targets."""
        mesh = msdn.mesh
        pa, pb, pc = mesh.vertices[[0, 40, 200]]
        with pytest.raises(QueryError, match="rois"):
            msdn.lower_bound_batch(pa, [pb, pc], 0.5, rois=[None])
        with pytest.raises(QueryError, match="rois"):
            msdn.lower_bound_batch(pa, [pb], 0.5, rois=[None, None])
        assert len(msdn.lower_bound_batch(pa, [pb, pc], 0.5, rois=[None, None])) == 2

    def test_stats_structure(self, msdn):
        stats = msdn.stats()
        assert stats["planes_x"] > 0
        assert stats["planes_y"] > 0
        assert all(count > 0 for count in stats["chunks"].values())


class TestResolutions:
    @pytest.mark.parametrize(
        "resolutions",
        [(), (0.0, 0.5), (-0.25,), (0.5, 1.5), (float("nan"),), (0.5, 0.5004)],
    )
    def test_rejected_at_construction(self, flat_mesh, resolutions):
        """Empty, outside (0, 1], or two values sharing a per-mille
        page-record resolution: refused before anything is built."""
        with pytest.raises(QueryError):
            MSDN(flat_mesh, resolutions=resolutions)

    def test_equal_values_share_one_family(self, flat_mesh):
        twice = MSDN(flat_mesh, resolutions=(1.0, 0.5, 0.5, 1.0))
        once = MSDN(flat_mesh, resolutions=(0.5, 1.0))
        assert twice.resolutions == once.resolutions == (0.5, 1.0)
        assert twice.stats() == once.stats()
        pages_twice, pages_once = PageManager(), PageManager()
        twice.attach_storage(pages_twice)
        once.attach_storage(pages_once)
        assert pages_twice.num_pages == pages_once.num_pages
        assert [
            (pages_twice.page_length(i), pages_twice.page_class_of(i))
            for i in range(pages_twice.num_pages)
        ] == [
            (pages_once.page_length(i), pages_once.page_class_of(i))
            for i in range(pages_once.num_pages)
        ]


class TestStorage:
    def test_lower_bound_charges_io(self, request):
        mesh = request.getfixturevalue("rough_mesh")
        stats = IOStatistics()
        pm = PageManager(page_size=1024, buffer_pages=4, stats=stats)
        msdn = MSDN(mesh)
        msdn.attach_storage(pm)
        pa = mesh.vertices[3]
        pb = mesh.vertices[mesh.num_vertices - 5]
        before = stats.snapshot()
        msdn.lower_bound(pa, pb, 0.5)
        assert stats.delta_since(before).physical_reads > 0
        # charge_io=False leaves the counters untouched.
        pm.drop_buffer()
        before = stats.snapshot()
        msdn.lower_bound(pa, pb, 0.5, charge_io=False)
        assert stats.delta_since(before).physical_reads == 0

    def test_chunk_record_larger_than_page_rejected(self, flat_mesh):
        """2 + 2 + 71 bytes do not fit a 64-byte page."""
        with pytest.raises(StorageError, match="cannot fit"):
            MSDN(flat_mesh).attach_storage(PageManager(page_size=64))

    def test_touch_region(self, request):
        mesh = request.getfixturevalue("rough_mesh")
        stats = IOStatistics()
        pm = PageManager(page_size=1024, buffer_pages=4, stats=stats)
        msdn = MSDN(mesh)
        msdn.attach_storage(pm)
        before = stats.snapshot()
        msdn.touch_region(0.25, None, axes=(0,))
        assert stats.delta_since(before).physical_reads > 0


def _screen_pairs(mesh, count: int = 6) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(5)
    pairs = []
    while len(pairs) < count:
        a, b = rng.integers(0, mesh.num_vertices, size=2)
        if a != b:
            pairs.append((mesh.vertices[a], mesh.vertices[b]))
    return pairs


def _near(msdn, point) -> list[BoundingBox]:
    """A corridor of the chunks near ``point`` only: planes farther
    along keep no chunk and are dropped whole."""
    return [BoundingBox.of_points(np.array([point[:2]])).expanded(2.0 * msdn.spacing)]


class TestCorridorScreen:
    """``corridor_reaches`` is defined as the corridor bound reaching
    the threshold; the witness chain and the straight line may only
    decide it sooner, never differently."""

    def test_equals_its_definition(self, msdn):
        mesh = msdn.mesh
        checked = 0
        for pa, pb in _screen_pairs(mesh):
            euclid = float(np.linalg.norm(pa - pb))
            pair_box = BoundingBox.of_points(np.array([pa[:2], pb[:2]]))
            for res in msdn.resolutions:
                full = msdn.lower_bound(pa, pb, res, charge_io=False)
                corridors = {
                    "none": None,
                    "path": msdn.corridor_from_path(full.path_keys, res),
                    "corners": msdn.corridor_corners(full.path_keys, res),
                    "near a": _near(msdn, pa),
                    "empty": [],
                }
                for name, corridor in corridors.items():
                    for roi in (None, [pair_box.expanded(0.25 * euclid)]):
                        value = msdn.lower_bound(
                            pa, pb, res, roi=roi, corridor=corridor,
                            charge_io=False,
                        ).value
                        for t in (
                            value,
                            float(np.nextafter(value, -np.inf)),
                            float(np.nextafter(value, np.inf)),
                            value / 2,
                            2 * value,
                            euclid,
                        ):
                            got = msdn.corridor_reaches(
                                pa, pb, res, t, roi=roi, corridor=corridor
                            )
                            assert got == (value >= t), (name, res, roi, t)
                            checked += 1
        assert checked == 6 * len(msdn.resolutions) * 5 * 2 * 6

    def test_corner_corridor_bounds_as_its_boxes(self, msdn):
        """A corridor passed as its corner array gives the bound and
        path its boxes give."""
        for pa, pb in _screen_pairs(msdn.mesh):
            for res in msdn.resolutions:
                keys = msdn.lower_bound(pa, pb, res, charge_io=False).path_keys
                by_boxes, by_corners = (
                    msdn.lower_bound(pa, pb, res, corridor=corridor, charge_io=False)
                    for corridor in (
                        msdn.corridor_from_path(keys, res),
                        msdn.corridor_corners(keys, res),
                    )
                )
                assert np.float64(by_corners.value).tobytes() == (
                    np.float64(by_boxes.value).tobytes()
                )
                assert by_corners.path_keys == by_boxes.path_keys

    def test_corridors_drop_planes_and_chunks(self, msdn):
        """The corridors above do what their names say: "near a"
        drops whole planes, and "empty" drops every chunk, which leaves
        the straight line as the bound."""
        pa, pb = _screen_pairs(msdn.mesh)[0]
        full = msdn.lower_bound(pa, pb, 1.0, charge_io=False)
        partial = msdn.lower_bound(
            pa, pb, 1.0, corridor=_near(msdn, pa), charge_io=False
        )
        assert 0 < len(partial.path_keys) < len(full.path_keys)
        empty = msdn.lower_bound(pa, pb, 1.0, corridor=[], charge_io=False)
        assert empty.path_keys == []
        assert empty.value == float(np.linalg.norm(pa - pb))

    def test_counts_only_dp_fallbacks(self, msdn, obs_context):
        fallbacks = obs_context.registry.counter("msdn.screen_dp_fallbacks")
        pa, pb = _screen_pairs(msdn.mesh)[0]
        value = msdn.lower_bound(pa, pb, 1.0, charge_io=False).value
        euclid = float(np.linalg.norm(pa - pb))
        assert value > euclid
        # The straight line decides: no chain priced, no DP.
        assert msdn.corridor_reaches(pa, pb, 1.0, euclid)
        assert fallbacks.value == 0
        # At the bound itself the witness (never below it) cannot
        # settle the screen, so the DP runs once.
        assert msdn.corridor_reaches(pa, pb, 1.0, value)
        assert fallbacks.value == 1


def _nan_corner(box: BoundingBox) -> BoundingBox:
    return BoundingBox((float("nan"), box.lo[1]), tuple(box.hi[:2]))


@st.composite
def _screen_cases(draw, msdn):
    """``(pa, pb, resolution, roi, corridor)`` of a screen on ``msdn``.

    The endpoints are two mesh vertices, or (a tie) a segment along x
    at the height, in y, where two consecutive chunks of an x-plane
    meet, so the crossing lies on the edge of both and the lowest row
    must win.  Every resolution is drawn, 0.25 (plane stride 2)
    included.  ROIs and corridors may hold a NaN corner, and both
    may drop crossing rows and whole planes (random boxes, or boxes
    near ``pa`` only); corridors also come from a bound's path (as
    boxes or as corners, whole or with one box dropped), or are
    empty."""
    mesh = msdn.mesh
    res = draw(st.sampled_from(msdn.resolutions))
    if draw(st.booleans()):
        family = msdn._families[(0, res)]
        joints = np.flatnonzero(family.plane[1:] == family.plane[:-1])
        row = int(joints[draw(st.integers(0, joints.size - 1))])
        x = float(family.lo[row, 0])
        y = float(family.hi[row, 1])
        near = draw(st.floats(0.1, 0.9)) * msdn.spacing
        far = draw(st.floats(0.1, 6.0)) * msdn.spacing
        z = draw(st.lists(st.floats(0.0, 700.0), min_size=2, max_size=2))
        pa = np.array([x - near, y, z[0]])
        pb = np.array([x + far, y, z[1]])
    else:
        a, b = draw(
            st.lists(
                st.integers(0, mesh.num_vertices - 1),
                min_size=2, max_size=2, unique=True,
            )
        )
        pa, pb = mesh.vertices[a], mesh.vertices[b]
    euclid = float(np.linalg.norm(pa - pb))
    pair = BoundingBox.of_points(np.array([pa[:2], pb[:2]]))
    bounds = mesh.xy_bounds()

    def random_box():
        cx = draw(st.floats(bounds.lo[0], bounds.hi[0]))
        cy = draw(st.floats(bounds.lo[1], bounds.hi[1]))
        half = draw(st.floats(0.0, 3.0)) * msdn.spacing
        return BoundingBox((cx - half, cy - half), (cx + half, cy + half))

    roi = draw(
        st.sampled_from(["none", "pair", "two", "nan", "random", "near a", "beside"])
    )
    grown = pair.expanded(draw(st.floats(0.0, 0.5)) * euclid)
    # The pair's box moved off the segment across the planes: each
    # plane keeps rows, but not the ones the segment crosses.
    other = 1 - MSDN.choose_axis(pa, pb)
    shift = np.zeros(2)
    shift[other] = draw(st.sampled_from([-1.0, 1.0])) * (
        pair.hi[other] - pair.lo[other] + draw(st.floats(0.5, 3.0)) * msdn.spacing
    )
    beside = BoundingBox(tuple(pair.lo + shift), tuple(pair.hi + shift))
    roi = {
        "none": lambda: None,
        "pair": lambda: [grown],
        "two": lambda: [grown, random_box()],
        "nan": lambda: [_nan_corner(grown), grown],
        "random": lambda: [random_box()],
        "near a": lambda: _near(msdn, pa),
        "beside": lambda: [beside],
    }[roi]()
    kind = draw(
        st.sampled_from(
            ["none", "path", "corners", "drop one", "random", "near a", "empty", "nan"]
        )
    )
    corridor = None
    if kind in ("path", "corners", "drop one", "nan"):
        path = msdn.lower_bound(
            pa, pb, draw(st.sampled_from(msdn.resolutions)), roi=roi, charge_io=False
        )
        corridor = msdn.corridor_from_path(path.path_keys, path.resolution)
        if kind == "corners":
            corridor = msdn.corridor_corners(path.path_keys, path.resolution)
        elif kind == "drop one" and corridor:
            del corridor[draw(st.integers(0, len(corridor) - 1))]
        elif kind == "nan" and corridor:
            corridor[0] = _nan_corner(corridor[0])
    elif kind == "random":
        corridor = [random_box() for _ in range(draw(st.integers(1, 3)))]
    elif kind == "near a":
        corridor = _near(msdn, pa)
    elif kind == "empty":
        corridor = []
    return pa, pb, res, roi, corridor


class TestScreenEqualsReference:
    """The crossing-row screen against
    :func:`~repro.testkit.reference.msdn_screen_reference` (the
    object-walk corridor bound against the threshold) at the bound
    and an ulp either side, where a chain priced an ulp off, a stale
    layer set or a wrong tie would flip the answer."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_at_the_bound(self, msdn, data):
        pa, pb, res, roi, corridor = data.draw(_screen_cases(msdn))
        value = msdn_lower_bound_reference(
            msdn, pa, pb, res, roi=roi, corridor=corridor, charge_io=False
        ).value
        for t in (value, np.nextafter(value, -np.inf), np.nextafter(value, np.inf)):
            t = float(t)
            got = msdn.corridor_reaches(pa, pb, res, t, roi=roi, corridor=corridor)
            assert got == msdn_screen_reference(msdn, pa, pb, res, t, roi, corridor)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_interval_holds_the_bound_and_decides(self, msdn, data):
        """``corridor_interval`` holds the reference corridor bound
        and decides its threshold, whichever of the straight line,
        the crossing chain, the masks or the DP settled it."""
        pa, pb, res, roi, corridor = data.draw(_screen_cases(msdn))
        value = msdn_lower_bound_reference(
            msdn, pa, pb, res, roi=roi, corridor=corridor, charge_io=False
        ).value
        drawn = data.draw(st.floats(0.0, 2.0 * value, allow_nan=False))
        for t in (
            value,
            np.nextafter(value, -np.inf),
            np.nextafter(value, np.inf),
            float(np.linalg.norm(pa - pb)),
            2.0 * value,
            drawn,
        ):
            t = float(t)
            lo, hi = msdn.corridor_interval(pa, pb, res, t, roi=roi, corridor=corridor)
            assert lo <= value <= hi, (lo, value, hi, t)
            assert lo >= t or hi < t, (lo, hi, t)

    def test_dropped_crossing_row_masks_and_still_decides(self, msdn, obs_context):
        """A corridor of every crossing row but one (their own boxes,
        unthickened) keeps no row of that plane, so the chain is not
        one of the DP's chains: the screen masks, and the DP decides
        as the reference does."""
        masked = obs_context.registry.counter("msdn.screen_masked")
        checked = 0
        for pa, pb in _screen_pairs(msdn.mesh):
            axis, qa, qb, family, planes = msdn._selection(pa, pb, 1.0)
            rows = family.crossing_rows(planes, axis, qa, qb)
            if len(rows) < 3:
                continue
            corridor = np.delete(family.xy[rows], len(rows) // 2, axis=0)
            value = msdn_lower_bound_reference(
                msdn, pa, pb, 1.0, corridor=corridor, charge_io=False
            ).value
            before = masked.value
            for t in (value, float(np.nextafter(value, -np.inf))):
                got = msdn.corridor_reaches(pa, pb, 1.0, t, corridor=corridor)
                assert got == msdn_screen_reference(msdn, pa, pb, 1.0, t, None, corridor)
            assert masked.value == before + 2
            checked += 1
        assert checked > 0

    def test_kept_crossing_rows_decide_without_a_mask(self, msdn, obs_context):
        """With no region every crossing row is kept, so a threshold
        above the chain's length is refused without a mask."""
        masked = obs_context.registry.counter("msdn.screen_masked")
        for pa, pb in _screen_pairs(msdn.mesh):
            value = msdn.lower_bound(pa, pb, 1.0, charge_io=False).value
            assert not msdn.corridor_reaches(pa, pb, 1.0, 2 * value)
        assert masked.value == 0


def _off_line_corridors(msdn, count: int = 4):
    """``(pa, pb, corridor)`` whose corridor lies off the straight
    line: the corner array of a resolution-1 bound's path through a
    box that is the pair's own box moved six plane spacings across
    the planes, so no crossing row of the segment meets it."""
    mesh = msdn.mesh
    rng = np.random.default_rng(5)
    cases = []
    while len(cases) < count:
        a, b = rng.integers(0, mesh.num_vertices, size=2).tolist()
        if a == b:
            continue
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        other = 1 - MSDN.choose_axis(pa, pb)
        pair = BoundingBox.of_points(np.array([pa[:2], pb[:2]]))
        for sign in (-1.0, 1.0):
            shift = np.zeros(2)
            shift[other] = sign * 6.0 * msdn.spacing
            beside = BoundingBox(tuple(pair.lo + shift), tuple(pair.hi + shift))
            path = msdn.lower_bound(
                pa, pb, 1.0, roi=[beside.expanded(0.5 * msdn.spacing)], charge_io=False
            )
            if path.path_keys:
                cases.append((pa, pb, msdn.corridor_corners(path.path_keys, 1.0)))
                break
    return cases


class TestSpineChain:
    """The second witness: when the crossing chain cannot decide, the
    chain along the corridor's spine is tried before the DP.  It is
    one of the DP's chains, so it may decide "below" and nothing
    else."""

    def test_spine_decides_below_without_the_dp(self, msdn, obs_context):
        registry = obs_context.registry
        for pa, pb, corridor in _off_line_corridors(msdn):
            spine = spine_chain_reference(msdn, pa, pb, 1.0, None, corridor)
            value = msdn_lower_bound_reference(
                msdn, pa, pb, 1.0, corridor=corridor, charge_io=False
            ).value
            euclid = float(np.linalg.norm(pa - pb))
            assert euclid < value <= spine
            threshold = float(np.nextafter(spine, np.inf))
            counts = [
                registry.counter(name).value
                for name in (
                    "msdn.screen_masked",
                    "msdn.screen_spine",
                    "msdn.screen_dp_fallbacks",
                )
            ]
            lo, hi = msdn.corridor_interval(pa, pb, 1.0, threshold, corridor=corridor)
            # The spine chain, priced to the bit as the object walk
            # prices it: a chain that skipped a kept plane, or picked
            # a row off the spine, would not be this value.
            assert (lo, hi) == (euclid, spine)
            assert not msdn_screen_reference(
                msdn, pa, pb, 1.0, threshold, None, corridor
            )
            assert [
                registry.counter(name).value
                for name in (
                    "msdn.screen_masked",
                    "msdn.screen_spine",
                    "msdn.screen_dp_fallbacks",
                )
            ] == [counts[0] + 1, counts[1] + 1, counts[2]]

    def test_dp_decides_what_the_spine_cannot(self, msdn, obs_context):
        registry = obs_context.registry
        spine_count = registry.counter("msdn.screen_spine")
        fallbacks = registry.counter("msdn.screen_dp_fallbacks")
        for pa, pb, corridor in _off_line_corridors(msdn):
            value = msdn_lower_bound_reference(
                msdn, pa, pb, 1.0, corridor=corridor, charge_io=False
            ).value
            for threshold, reaches in (
                (value, True),
                (float(np.nextafter(value, np.inf)), False),
            ):
                before = spine_count.value, fallbacks.value
                lo, hi = msdn.corridor_interval(
                    pa, pb, 1.0, threshold, corridor=corridor
                )
                assert lo == hi == value
                assert (lo >= threshold) is reaches
                assert (spine_count.value, fallbacks.value) == (before[0], before[1] + 1)


def _unordered(msdn, seed: int = 7):
    """A copy of ``msdn`` whose families hold each plane's rows in a
    seeded random order, so they no longer ascend along the crossing
    line."""
    rng = np.random.default_rng(seed)
    copy = object.__new__(MSDN)
    copy.__dict__.update(msdn.__dict__)
    copy._families = {}
    for key, family in msdn._families.items():
        offsets = family.offsets.tolist()
        order = np.concatenate(
            [rng.permutation(np.arange(start, stop)) for start, stop in zip(offsets, offsets[1:])]
        )
        copy._families[key] = SdnFamily(
            family.lo[order],
            family.hi[order],
            family.offsets,
            family.plane[order],
            family.first[order],
            family.last[order],
        )
    return copy


class TestUnorderedRows:
    """The bisection assumes each plane's rows ascend along its
    crossing line; where they do not, it still picks one row per
    plane, which is one of the DP's chains, so the decisions stand."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_decisions_equal_the_reference(self, msdn, data):
        unordered = _unordered(msdn)
        pa, pb, res, roi, corridor = data.draw(_screen_cases(msdn))
        value = msdn_lower_bound_reference(
            msdn, pa, pb, res, roi=roi, corridor=corridor, charge_io=False
        ).value
        for t in (value, np.nextafter(value, -np.inf), np.nextafter(value, np.inf)):
            t = float(t)
            got = unordered.corridor_reaches(pa, pb, res, t, roi=roi, corridor=corridor)
            assert got == msdn_screen_reference(msdn, pa, pb, res, t, roi, corridor)
            lo, hi = unordered.corridor_interval(pa, pb, res, t, roi=roi, corridor=corridor)
            assert lo <= value <= hi

    def test_rows_do_not_ascend(self, msdn):
        unordered = _unordered(msdn)
        family = unordered._families[(0, 1.0)]
        offsets = family.offsets.tolist()
        lo_y = family.xy[:, 1]
        assert any(
            np.any(np.diff(lo_y[start:stop]) < 0) for start, stop in zip(offsets, offsets[1:])
        )

