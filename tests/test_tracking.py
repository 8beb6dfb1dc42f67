"""Track ingestion, motion weights, heatmap, nearest queries, motion transfer."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from motionsketch import (
    DensityMap,
    FitSamples,
    FrameRatePlan,
    MaskAreas,
    MotionHeatmap,
    ParseError,
    TrackSet,
    ValidationError,
    build_motion_heatmap,
    load_tracks,
    motion_weight,
    motion_weights,
    nearest_sample,
    save_tracks,
    transfer_point,
)


def simple_tracks():
    coords = np.array(
        [
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            [[10.0, 10.0], [10.0, 10.0], [10.0, 10.0]],
        ]
    )
    return TrackSet(ids=np.array([3, 7]), coords=coords)


def per_row_heatmap(tracks, width, height, bandwidth):
    """Unnormalized Shepard map from its definition: one exp per pixel and site."""
    weights = motion_weights(tracks)
    sites = tracks.coords[:, 0, :]
    xs = np.arange(width) + 0.5
    values = np.empty((height, width))
    inv = 1.0 / (2.0 * bandwidth * bandwidth)
    for y in range(height):
        centers = np.stack([xs, np.full(width, y + 0.5)], axis=1)
        d2 = np.sum((centers[:, None, :] - sites[None, :, :]) ** 2, axis=2)
        kernels = np.exp(-d2 * inv)
        values[y] = (kernels @ weights) / (kernels.sum(axis=1) + 1e-12)
    return values


def brute_force_rows(queries, sites):
    d2 = np.sum((queries[:, None, :] - sites[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


class TestLoading:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "tracks.json"
        save_tracks(simple_tracks(), str(path))
        loaded = load_tracks(str(path))
        assert loaded.num_frames == 3 and loaded.num_points == 2
        assert_allclose(loaded.coords, simple_tracks().coords)

    @pytest.mark.parametrize("ids", [[5], [-3, 0, 2**40]])
    def test_json_bytes_match_one_dump(self, tmp_path, ids):
        values = [-0.0, 5e-324, 1e300, 0.1, -7.25, 3.0]
        coords = np.resize(values, (len(ids), 3, 2))
        tracks = TrackSet(ids=np.array(ids), coords=coords)
        path = tmp_path / "tracks.json"
        save_tracks(tracks, str(path))
        doc = {"num_frames": 3, "points": [
            {"id": pid, "xy": coords[k].tolist()} for k, pid in enumerate(ids)
        ]}
        assert path.read_text() == json.dumps(doc) + "\n"

    def test_json_two_points_three_frames(self, tmp_path):
        doc = {
            "num_frames": 3,
            "points": [
                {"id": 1, "xy": [[0, 0], [1, 1], [2, 2]]},
                {"id": 2, "xy": [[5, 5], [5, 5], [5, 5]]},
            ],
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        tracks = load_tracks(str(path))
        assert tracks.num_frames == 3

    def test_json_ragged_names_point(self, tmp_path):
        doc = {
            "num_frames": 3,
            "points": [
                {"id": 9, "xy": [[0, 0], [1, 1]]},
            ],
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="9"):
            load_tracks(str(path))

    def test_json_visibility_ignored(self, tmp_path):
        doc = {
            "num_frames": 2,
            "points": [{"id": 1, "xy": [[0, 0], [1, 1]], "visible": [True, False]}],
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert load_tracks(str(path)).num_points == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("")
        with pytest.raises(ValidationError, match="no points"):
            load_tracks(str(path))

    def test_whitespace_only_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(" \n\t\r\n  ")
        with pytest.raises(ValidationError, match="no points"):
            load_tracks(str(path))

    def test_malformed_json_parse_error(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"num_frames": 3, ')
        with pytest.raises(ParseError):
            load_tracks(str(path))

    @pytest.mark.parametrize("doc", [
        '{"num_frames": 1, "points": [{"id": 0, "xy": 5}]}',
        '{"num_frames": 1, "points": [{"id": 0, "xy": [["a", "b"]]}]}',
        '{"num_frames": 2, "points": [{"id": 0, "xy": [[1, 2], [3]]}]}',
        '{"num_frames": 1, "points": [{"id": 0, "xy": [[1, 2]]}, {"id": 1, "xy": [[1, 2, 3]]}]}',
        '{"num_frames": "one", "points": []}',
        '{"num_frames": 1e999, "points": []}',
        '{"num_frames": 1, "points": 5}',
        '{"num_frames": 1, "points": [{"id": "a", "xy": [[1, 2]]}]}',
    ], ids=["xy-number", "xy-strings", "xy-ragged", "xy-widths", "frames-text", "frames-inf",
            "points-number", "id-text"])
    def test_malformed_points_parse_error(self, tmp_path, doc):
        path = tmp_path / "t.json"
        path.write_text(doc)
        with pytest.raises(ParseError):
            load_tracks(str(path))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        lines = ["frame,point_id,x,y"]
        for f in range(3):
            for pid, (x, y) in ((3, (f, 0.0)), (7, (10.0, 10.0))):
                lines.append(f"{f},{pid},{x},{y}")
        path.write_text("\n".join(lines) + "\n")
        tracks = load_tracks(str(path))
        assert tracks.num_frames == 3
        assert list(tracks.ids) == [3, 7]

    def test_csv_row_count_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("frame,point_id,x,y\n0,1,0,0\n0,2,1,1\n1,1,0,0\n")
        with pytest.raises(ValidationError, match="divisible"):
            load_tracks(str(path))

    def test_csv_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("frame,point_id,x,y\n")
        with pytest.raises(ValidationError, match="no points"):
            load_tracks(str(path))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            TrackSet(ids=np.array([1, 1]), coords=np.zeros((2, 3, 2)))


class TestMotionWeight:
    def test_static_point_zero(self):
        assert motion_weight(simple_tracks(), 7) == 0.0

    def test_one_pixel_per_frame(self):
        coords = np.zeros((1, 5, 2))
        coords[0, :, 0] = np.arange(5)
        tracks = TrackSet(ids=np.array([0]), coords=coords)
        assert motion_weight(tracks, 0) == pytest.approx(2.0)

    def test_single_jump(self):
        coords = np.zeros((1, 4, 2))
        coords[0, 1:, 0] = 9.0
        tracks = TrackSet(ids=np.array([0]), coords=coords)
        assert motion_weight(tracks, 0) == pytest.approx(3.0)

    def test_unknown_id(self):
        with pytest.raises(LookupError):
            motion_weight(simple_tracks(), 99)

    @pytest.mark.parametrize("source", ["demo", "random-300"])
    def test_each_row_is_motion_weights(self, rng, source):
        # One formula: each point's weight is its row of `motion_weights`, bit for bit.
        if source == "demo":
            tracks = load_tracks("data/demo_tracks.json")
        else:
            tracks = TrackSet(ids=rng.permutation(300), coords=rng.uniform(0, 100, (300, 40, 2)))
        weights = motion_weights(tracks)
        assert all(motion_weight(tracks, pid) == weights[k] for k, pid in enumerate(tracks.ids))


class TestHeatmap:
    def test_single_mover_peaks_at_nearest_pixel(self):
        coords = np.array([[[3.2, 4.7], [8.2, 4.7]]])
        tracks = TrackSet(ids=np.array([5]), coords=coords)
        heatmap = build_motion_heatmap(tracks, 10, 10, bandwidth=1.5)
        peak = np.unravel_index(np.argmax(heatmap.values), heatmap.values.shape)
        assert peak == (4, 3)
        assert heatmap.values[peak] == 1.0

    def test_all_static_all_zero(self):
        coords = np.repeat(np.array([[[1.0, 1.0]], [[5.0, 5.0]]]), 4, axis=1)
        static = TrackSet(ids=np.array([0, 1]), coords=coords)
        assert not build_motion_heatmap(static, 8, 8).values.any()

    def test_two_points_near_binary(self):
        coords = np.array(
            [[[2.0, 4.0], [2.0, 4.0]], [[12.0, 4.0], [17.0, 4.0]]]
        )
        tracks = TrackSet(ids=np.array([0, 1]), coords=coords)
        heatmap = build_motion_heatmap(tracks, 16, 8, bandwidth=0.8)
        # Kernel oracle at both sites: mover's site ~ V, static site ~ 0.
        assert heatmap.values[4, 12] > 0.99
        assert heatmap.values[4, 2] < 0.01

    def test_range_invariant(self, rng):
        coords = rng.uniform(0, 32, (15, 6, 2))
        tracks = TrackSet(ids=np.arange(15), coords=coords)
        heatmap = build_motion_heatmap(tracks, 32, 24)
        assert heatmap.values.min() == 0.0
        assert heatmap.values.max() == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        num_points=st.integers(1, 6),
        width=st.integers(1, 24),
        height=st.integers(1, 24),
        bandwidth=st.sampled_from([0.3, 0.7, 2.0, 6.0]),
        spread=st.sampled_from([1.0, 30.0, 80.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(num_points=1, width=20, height=16, bandwidth=0.3, spread=1.0, seed=0)
    @example(num_points=3, width=24, height=24, bandwidth=0.3, spread=80.0, seed=1)
    def test_separable_matches_per_row_formula(
        self, num_points, width, height, bandwidth, spread, seed
    ):
        # Sites spread up to 80 px around the canvas with bandwidths down to
        # 0.3 px leave most pixels far from every site.
        rng = np.random.default_rng(seed)
        start = rng.uniform(-spread, 24 + spread, (num_points, 2))
        coords = np.stack([start, start + rng.uniform(-5, 5, (num_points, 2))], axis=1)
        tracks = TrackSet(ids=np.arange(num_points), coords=coords)
        raw = per_row_heatmap(tracks, width, height, bandwidth)
        lo, hi = raw.min(), raw.max()
        values = build_motion_heatmap(tracks, width, height, bandwidth=bandwidth).values
        if hi == lo:
            assert not values.any()
            return
        # Normalization magnifies roundoff by max/spread; below these floors
        # both maps are rounding noise (a near-constant map, or one whose
        # every pixel is a subnormal-scale kernel tail).
        if hi - lo < 1e-6 * hi or hi < 1e-250:
            return
        assert_allclose(values, (raw - lo) / (hi - lo), rtol=0, atol=1e-8)

    def test_bad_bandwidth(self):
        with pytest.raises(ValidationError):
            build_motion_heatmap(simple_tracks(), 8, 8, bandwidth=0.0)


class TestNearestSample:
    def test_exact_position(self):
        tracks = simple_tracks()
        assert nearest_sample(np.array([10.0, 10.0]), 1, tracks) == 7

    def test_tie_breaks_to_lowest_id(self):
        tracks = simple_tracks()
        # frame 0: point 3 at (0,0), point 7 at (10,10); (5,5) is equidistant
        assert nearest_sample(np.array([5.0, 5.0]), 0, tracks) == 3

    def test_brute_force_oracle(self, rng):
        # 16 points take the scan, 300 and 600 the KD-tree; the lattice has exact
        # ties, which go to the lowest row (not the lowest id when ids are reversed).
        for num_points, lattice, reverse_ids in ((16, False, False), (300, False, False),
                                                 (600, True, True)):
            coords = rng.uniform(0, 100, (num_points, 4, 2))
            if lattice:
                coords = np.round(coords / 10) * 10
            ids = np.arange(num_points)[::-1] if reverse_ids else np.arange(num_points)
            tracks = TrackSet(ids=ids, coords=coords)
            for _ in range(200):
                p = rng.uniform(0, 100, 2)
                if lattice:
                    p = np.round(p / 5) * 5
                frame = int(rng.integers(0, 4))
                best, best_d = None, np.inf
                for k in range(num_points):
                    d = float(np.sum((coords[k, frame] - p) ** 2))
                    if d < best_d:
                        best, best_d = k, d
                assert nearest_sample(p, frame, tracks) == ids[best]

    def test_kdtree_path_matches_scan(self, rng):
        # Enough points to engage the KD-tree inside batched queries.
        from motionsketch.tracking import nearest_rows

        coords = rng.uniform(0, 50, (600, 2, 2))
        tracks = TrackSet(ids=np.arange(600), coords=coords)
        queries = rng.uniform(0, 50, (64, 2))
        rows = nearest_rows(queries, 1, tracks)
        d2 = np.sum((queries[:, None, :] - coords[None, :, 1, :]) ** 2, axis=2)
        assert np.array_equal(rows, np.argmin(d2, axis=1))

    @pytest.mark.parametrize("side", [10, 20])
    def test_lattice_ties_pick_lowest_row(self, side):
        # 100 points take the scan, 400 the KD-tree. Queries at lattice
        # points, edge midpoints and cell centers are equidistant from 1, 2
        # and 4 sites; rows are shuffled so the lowest row is anywhere.
        from motionsketch.tracking import nearest_rows

        grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2)
        sites = 2.0 * grid[np.random.default_rng(side).permutation(len(grid))]
        coords = np.repeat(sites[:, None, :], 2, axis=1)
        tracks = TrackSet(ids=np.arange(len(sites)), coords=coords)
        offsets = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        queries = np.concatenate([2.0 * grid[:60] + off for off in offsets])
        rows = nearest_rows(queries, 1, tracks)
        assert np.array_equal(rows, brute_force_rows(queries, sites))

    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.integers(1, 4),
        queries=st.integers(1, 30),
        sites=st.integers(1, 20),
        lattice=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scan_rows_equal_summed_squares(self, frames, queries, sites, lattice, seed):
        # The scan's dx*dx + dy*dy rows equal the argmin of the squares summed
        # over the coordinate axis, ties included: on a half-integer lattice
        # many queries are equidistant from two or four sites.
        from motionsketch.tracking import _scan_rows_radius

        rng = np.random.default_rng(seed)
        points = rng.uniform(-50, 50, (frames, queries, 2))
        centers = rng.uniform(-50, 50, (frames, sites, 2))
        if lattice:
            points, centers = np.round(points / 4) / 2, np.round(centers / 4)
        d2 = np.sum((points[..., :, None, :] - centers[..., None, :, :]) ** 2, axis=-1)
        frame_of = np.repeat(np.arange(frames), queries)
        rows, _ = _scan_rows_radius(points.reshape(-1, 2), centers, frame_of)
        assert np.array_equal(rows, np.argmin(d2, axis=-1).reshape(-1))

    def test_kdtree_three_way_tie(self):
        # Rows 5, 7 and 250 are equidistant from the query; the rest are far.
        from motionsketch.tracking import nearest_rows

        sites = np.full((300, 2), 1000.0) + np.arange(300)[:, None]
        sites[[5, 7, 250]] = [(3.0, 0.0), (0.0, 3.0), (-3.0, 0.0)]
        tracks = TrackSet(ids=np.arange(300), coords=sites[:, None, :])
        assert nearest_rows(np.zeros((1, 2)), 0, tracks)[0] == 5

    @pytest.mark.parametrize("num_points", [40, 300])
    def test_per_frame_rows_match_nearest_rows(self, rng, num_points):
        # One query over all frames, in an unsorted frame order, gives each
        # frame's queries the rows of `nearest_rows` on both routes.
        from motionsketch.tracking import _nearest, nearest_rows

        coords = np.round(rng.uniform(0, 20, (num_points, 7, 2)))  # many exact ties
        tracks = TrackSet(ids=np.arange(num_points), coords=coords)
        points = np.round(rng.uniform(0, 20, (7, 3, 5, 2)) * 2) / 2
        order = rng.permutation(7 * 15)
        frame_of = np.repeat(np.arange(7), 15)[order]
        rows = np.empty(7 * 15, dtype=np.intp)
        rows[order], _ = _nearest(points.reshape(-1, 2)[order], frame_of, tracks)
        rows = rows.reshape(7, 3, 5)
        for f in range(7):
            assert np.array_equal(rows[f], nearest_rows(points[f], f, tracks))
            flat = brute_force_rows(points[f].reshape(-1, 2), coords[:, f])
            assert np.array_equal(rows[f].reshape(-1), flat)

    @pytest.mark.parametrize("block_elements", [1, 1200])
    def test_per_frame_blocks_match_nearest_rows(self, rng, monkeypatch, block_elements):
        # 40 points a query: 1200 elements scan the 105 queries of 7 frames in
        # blocks of 30, 30, 30 and a partial 15; a single element forces one
        # query per block.
        from motionsketch import tracking
        from motionsketch.tracking import _nearest, nearest_rows

        monkeypatch.setattr(tracking, "_SCAN_BLOCK_ELEMENTS", block_elements)
        coords = np.round(rng.uniform(0, 20, (40, 7, 2)))  # many exact ties
        tracks = TrackSet(ids=np.arange(40), coords=coords)
        points = np.round(rng.uniform(0, 20, (7 * 15, 2)) * 2) / 2
        frame_of = rng.integers(0, 7, len(points))
        scans = []
        scan = tracking._scan_distances

        def recording_scan(block_points, block_sites):
            scans.append(len(block_points))
            return scan(block_points, block_sites)

        monkeypatch.setattr(tracking, "_scan_distances", recording_scan)
        rows, _ = _nearest(points, frame_of, tracks)
        assert scans == ([30, 30, 30, 15] if block_elements == 1200 else [1] * 105)
        monkeypatch.setattr(tracking, "_scan_distances", scan)
        for f in range(7):
            mine = frame_of == f
            assert np.array_equal(rows[mine], nearest_rows(points[mine], f, tracks))

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_lattice_queries_from_unsorted_frames(self, monkeypatch, cpus):
        # 400 lattice sites take the KD-tree route, rows shuffled per frame;
        # queries on lattice points, edge midpoints and cell centers tie
        # between 1, 2 and 4 sites. Queries from five frames in random order
        # get the brute-force rows from a pool of one worker per usable CPU;
        # queries from one frame, and zero queries, start no pool, and the
        # scan's frame-major copy of the tracks is never built.
        from motionsketch import tracking
        from motionsketch.tracking import _nearest

        monkeypatch.setattr(tracking.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        pools = []
        pool_type = tracking.ThreadPoolExecutor

        def recording_pool(max_workers):
            pools.append(max_workers)
            return pool_type(max_workers=max_workers)

        monkeypatch.setattr(tracking, "ThreadPoolExecutor", recording_pool)
        num_frames, side = 5, 20
        grid = 2.0 * np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
        perms = [np.random.default_rng(f).permutation(len(grid)) for f in range(num_frames)]
        tracks = TrackSet(ids=np.arange(len(grid)),
                          coords=np.stack([grid[p] for p in perms], axis=1))
        rng = np.random.default_rng(cpus)
        points = rng.integers(0, 2 * side - 1, (300, 2)).astype(np.float64)
        frame_of = rng.integers(0, num_frames, len(points))
        rows, radius = _nearest(points, frame_of, tracks)
        assert pools == [min(cpus, num_frames)]
        for f in range(num_frames):
            mine = frame_of == f
            assert np.array_equal(rows[mine], brute_force_rows(points[mine], tracks.coords[:, f]))
        assert np.any(radius > 0) and np.any(radius == 0)
        mine = frame_of == 2
        rows, radius = _nearest(points[mine], frame_of[mine], tracks)
        assert np.array_equal(rows, brute_force_rows(points[mine], tracks.coords[:, 2]))
        rows, radius = _nearest(np.empty((0, 2)), np.empty(0, dtype=np.intp), tracks)
        assert rows.shape == radius.shape == (0,) and pools == [min(cpus, num_frames)]
        assert "_frame_sites" not in vars(tracks)

    def test_frame_out_of_range(self):
        with pytest.raises(ValidationError):
            nearest_sample(np.array([0.0, 0.0]), 5, simple_tracks())

    @pytest.mark.parametrize("num_points", [2, 300])
    def test_non_finite_point_rejected(self, rng, num_points):
        tracks = TrackSet(ids=np.arange(num_points), coords=rng.uniform(0, 9, (num_points, 2, 2)))
        for p in ([np.nan, 1.0], [1.0, np.inf]):
            with pytest.raises(ValidationError, match="finite"):
                nearest_sample(np.array(p), 0, tracks)

    @pytest.mark.parametrize("num_points", [2, 300])
    @pytest.mark.parametrize("p", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0], [3.0, 4.0]]])
    def test_point_of_wrong_shape_rejected(self, rng, num_points, p):
        tracks = TrackSet(ids=np.arange(num_points), coords=rng.uniform(0, 9, (num_points, 2, 2)))
        with pytest.raises(ValidationError, match="shape"):
            nearest_sample(p, 0, tracks)
        with pytest.raises(ValidationError, match="shape"):
            transfer_point(p, 0, 1, tracks)


class TestTransferPoint:
    def test_identity_at_same_frame(self, rng):
        tracks = simple_tracks()
        for _ in range(20):
            p = rng.uniform(-5, 15, 2)
            frame = int(rng.integers(0, 3))
            assert_allclose(transfer_point(p, frame, frame, tracks), p)

    def test_rigid_translation(self):
        coords = np.array([[[1.0, 2.0], [4.0, 6.0]]])
        tracks = TrackSet(ids=np.array([0]), coords=coords)
        p = np.array([10.0, 10.0])
        assert_allclose(transfer_point(p, 0, 1, tracks), p + np.array([3.0, 4.0]))

    def test_two_point_hand_evaluation(self):
        tracks = simple_tracks()
        # p=(1,1) in frame 0 is nearer to point 3 at (0,0) than 7 at (10,10).
        # T = p - (0,0) + coords(3, frame 2) = (1,1) + (2,0)
        assert_allclose(transfer_point(np.array([1.0, 1.0]), 0, 2, tracks), [3.0, 1.0])

    def test_offset_preservation(self, rng):
        coords = rng.uniform(0, 100, (5, 4, 2))
        tracks = TrackSet(ids=np.arange(5), coords=coords)
        for _ in range(50):
            anchor = coords[int(rng.integers(0, 5)), 1]
            p = anchor + rng.uniform(-0.5, 0.5, 2)
            q = anchor + rng.uniform(-0.5, 0.5, 2)
            if nearest_sample(p, 1, tracks) != nearest_sample(q, 1, tracks):
                continue
            dp = transfer_point(p, 1, 3, tracks) - transfer_point(q, 1, 3, tracks)
            assert_allclose(dp, p - q, atol=1e-12)


# Each frozen value type, with arguments that are fresh arrays on every call.
VALUE_TYPES = [
    (TrackSet, lambda: {"ids": np.arange(3), "coords": np.zeros((3, 4, 2))}),
    (MotionHeatmap, lambda: {"width": 4, "height": 3, "values": np.zeros((3, 4))}),
    (FitSamples, lambda: {"times": np.linspace(0, 1, 5), "positions": np.zeros((5, 2))}),
    (FrameRatePlan,
     lambda: {"input_fps": 6.0, "output_fps": 12.0, "output_frame_times": np.linspace(0, 1, 5)}),
    (DensityMap, lambda: {"width": 4, "height": 3, "probabilities": np.full((3, 4), 1 / 12),
                          "unnormalized": np.ones((3, 4))}),
    (MaskAreas, lambda: {"areas": np.ones(4), "canvas": (4, 3)}),
]


@pytest.mark.parametrize(("kind", "arguments"), VALUE_TYPES,
                         ids=[kind.__name__ for kind, _ in VALUE_TYPES])
def test_value_types_copy_the_callers_arrays(kind, arguments):
    # A frozen value owns its arrays: the caller's arrays stay writable, and
    # writing through them (or through views taken earlier) leaves it as is.
    kwargs = arguments()
    views = {name: arr[...] for name, arr in kwargs.items() if isinstance(arr, np.ndarray)}
    value = kind(**kwargs)
    for name, view in views.items():
        field_array = getattr(value, name)
        before = field_array.copy()
        assert kwargs[name].flags.writeable
        assert not np.shares_memory(kwargs[name], field_array)
        view[(0,) * view.ndim] += 1
        assert np.array_equal(field_array, before)
