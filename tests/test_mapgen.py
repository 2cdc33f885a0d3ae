import math
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omninav.core import FREE, OCCUPIED, UNKNOWN, OccupancyGrid, PointCloud, Pose2D
from omninav.mapgen import (
    MapGenConfig,
    denoise,
    extract_map,
    fill_unknown,
    height_filter,
    rasterize,
    read_map,
    read_point_cloud,
    write_map,
    write_point_cloud,
)

from conftest import random_grid


def oracle_denoise(grid, min_cluster):
    """Reference implementation: label 8-connected OCCUPIED components via
    explicit flood fill, drop the small ones."""
    out = grid.copy()
    occ = grid.cells == OCCUPIED
    h, w = occ.shape
    seen = np.zeros_like(occ, dtype=bool)
    for r in range(h):
        for c in range(w):
            if not occ[r, c] or seen[r, c]:
                continue
            comp = []
            stack = [(r, c)]
            seen[r, c] = True
            while stack:
                rr, cc = stack.pop()
                comp.append((rr, cc))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        r2, c2 = rr + dr, cc + dc
                        if 0 <= r2 < h and 0 <= c2 < w and occ[r2, c2] and not seen[r2, c2]:
                            seen[r2, c2] = True
                            stack.append((r2, c2))
            if len(comp) < min_cluster:
                for rr, cc in comp:
                    out.cells[rr, cc] = FREE
    return out


def oracle_fill_unknown(grid):
    """Reference implementation: 4-connected flood from the border over FREE
    cells; reached cells become UNKNOWN."""
    out = grid.copy()
    free = grid.cells == FREE
    h, w = free.shape
    reach = np.zeros_like(free, dtype=bool)
    queue = deque((r, c) for r in range(h) for c in range(w)
                  if free[r, c] and (r in (0, h - 1) or c in (0, w - 1)))
    for r, c in queue:
        reach[r, c] = True
    while queue:
        r, c = queue.popleft()
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < h and 0 <= cc < w and free[rr, cc] and not reach[rr, cc]:
                reach[rr, cc] = True
                queue.append((rr, cc))
    out.cells[reach] = UNKNOWN
    return out


# The cloud and map file readers and writer before they became array code,
# kept as they were: the oracles for the array versions.
_CELL_TO_BYTE = {OCCUPIED: 0, FREE: 255, UNKNOWN: 205}
_BYTE_TO_CELL = {v: k for k, v in _CELL_TO_BYTE.items()}


def oracle_read_map(path) -> OccupancyGrid:
    """Read a map written by write_map."""
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError("not a binary PGM (P5) file")
    # header: magic, width height, maxval, single whitespace, then raster
    tokens = []
    i = 2
    while len(tokens) < 3:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if data[i : i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        tokens.append(data[i:j])
        i = j
    width, height, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    i += 1
    raster = np.frombuffer(data[i : i + width * height], dtype=np.uint8)
    if raster.size != width * height:
        raise ValueError("truncated PGM raster")
    bad = set(np.unique(raster).tolist()) - set(_BYTE_TO_CELL)
    if bad:
        raise ValueError(f"unexpected pixel values {sorted(bad)}")
    cells = np.zeros(raster.shape, dtype=np.int8)
    for byte, cell in _BYTE_TO_CELL.items():
        cells[raster == byte] = cell
    cells = np.flipud(cells.reshape(height, width)).copy()

    meta_path = path.with_suffix(path.suffix + ".meta")
    fields = {}
    for line in meta_path.read_text().splitlines():
        if ":" in line:
            key, val = line.split(":", 1)
            fields[key.strip()] = val.strip()
    for key in ("resolution", "origin"):
        if key not in fields:
            raise ValueError(f"{meta_path}: no `{key}:` line")
    resolution = float(fields["resolution"])
    ox, oy, oth = (float(t) for t in fields["origin"].split())
    return OccupancyGrid(width, height, resolution, Pose2D(ox, oy, oth), cells)


def oracle_read_point_cloud(path) -> PointCloud:
    """ASCII cloud: one `x y z` per line, `#` starts a comment."""
    pts = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected `x y z`, got {line!r}")
        pts.append(tuple(float(p) for p in parts))
    return PointCloud(pts)


def oracle_write_point_cloud(cloud: PointCloud, path) -> None:
    with open(path, "w") as f:
        for x, y, z in cloud.points:
            f.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")


class TestHeightFilter:
    def test_band_inclusive(self):
        pc = PointCloud([(0, 0, 0.05), (0, 0, 1.2), (0, 0, 0.0), (0, 0, 1.21)])
        kept = height_filter(pc, 0.05, 1.2)
        assert len(kept) == 2

    def test_bad_band_rejected(self):
        with pytest.raises(ValueError):
            height_filter(PointCloud([(0, 0, 0)]), 1.0, 1.0)


class TestRasterize:
    def test_origin_is_bbox_min_corner(self):
        pc = PointCloud([(1.0, 2.0, 0.5), (3.0, 5.0, 0.5)])
        grid = rasterize(pc, 0.5)
        assert (grid.origin.x, grid.origin.y) == (1.0, 2.0)
        assert grid.width == math.floor(2.0 / 0.5) + 1
        assert grid.height == math.floor(3.0 / 0.5) + 1

    def test_points_mark_their_cells(self):
        pc = PointCloud([(0.0, 0.0, 0.5), (0.9, 0.9, 0.5)])
        grid = rasterize(pc, 0.3)
        assert grid.cells[0, 0] == OCCUPIED
        assert grid.cells[3, 3] == OCCUPIED
        assert grid.cells[1, 1] == FREE

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            rasterize(PointCloud(np.zeros((0, 3))), 0.1)


class TestDenoiseOracle:
    def test_small_cluster_removed_diagonal_kept(self):
        g = OccupancyGrid(5, 5, 0.1)
        g.cells[0, 0] = OCCUPIED  # singleton
        g.cells[2, 2] = OCCUPIED
        g.cells[3, 3] = OCCUPIED
        g.cells[4, 4] = OCCUPIED  # diagonal chain of 3
        out = denoise(g, 3)
        assert out.cells[0, 0] == FREE
        assert out.cells[2, 2] == OCCUPIED

    def test_matches_oracle_on_random_grids(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            g = random_grid(rng)
            k = int(rng.integers(1, 6))
            assert np.array_equal(denoise(g, k).cells, oracle_denoise(g, k).cells)

    def test_min_cluster_one_is_identity(self):
        rng = np.random.default_rng(0)
        g = random_grid(rng)
        assert np.array_equal(denoise(g, 1).cells, g.cells)


class TestFillUnknownOracle:
    def test_enclosed_free_space_preserved(self):
        g = OccupancyGrid(5, 5, 0.1)
        for i in range(1, 4):
            g.cells[1, i] = OCCUPIED
            g.cells[3, i] = OCCUPIED
            g.cells[i, 1] = OCCUPIED
            g.cells[i, 3] = OCCUPIED
        out = fill_unknown(g)
        assert out.cells[2, 2] == FREE  # inside the box
        assert out.cells[0, 0] == UNKNOWN  # outside

    def test_diagonal_gap_leaks(self):
        # 4-connectivity: a diagonal wall does not seal the interior
        g = OccupancyGrid(3, 3, 0.1)
        g.cells[1, 0] = OCCUPIED
        g.cells[0, 1] = OCCUPIED
        out = fill_unknown(g)
        assert out.cells[0, 0] == UNKNOWN

    def test_matches_oracle_on_random_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_grid(rng)
            assert np.array_equal(fill_unknown(g).cells, oracle_fill_unknown(g).cells)


class TestExtractPipeline:
    def test_band_excluding_everything_rejected(self):
        pc = PointCloud([(0, 0, 5.0)])
        with pytest.raises(ValueError):
            extract_map(pc, MapGenConfig())

    def test_small_room(self):
        # square room walls plus a stray noise point and a ceiling point
        pts = []
        for t in np.linspace(0.0, 2.0, 81):
            for z in (0.3, 0.8):
                pts += [(t, 0.0, z), (t, 2.0, z), (0.0, t, z), (2.0, t, z)]
        pts.append((1.0, 1.0, 2.0))  # ceiling: height-filtered
        pts.append((1.5, 0.7, 0.5))  # lone in-band stray: denoised
        grid = extract_map(PointCloud(pts), MapGenConfig(resolution=0.1))
        c = grid.cells
        inside = c[c.shape[0] // 2, c.shape[1] // 2]
        assert inside == FREE
        assert np.count_nonzero(c == OCCUPIED) > 0
        # the stray cluster of one cell must be gone
        col = math.floor((1.5 - grid.origin.x) / grid.resolution)
        row = math.floor((0.7 - grid.origin.y) / grid.resolution)
        assert grid.cells[row, col] == FREE


class TestMapFiles:
    def test_pgm_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        g = random_grid(rng)
        g = OccupancyGrid(g.width, g.height, 0.05, Pose2D(-1.25, 0.75, 0.0), g.cells)
        path = tmp_path / "m.pgm"
        write_map(g, path)
        back = read_map(path)
        assert np.array_equal(back.cells, g.cells)
        assert back.resolution == g.resolution
        assert (back.origin.x, back.origin.y) == (g.origin.x, g.origin.y)

    def test_pgm_byte_encoding(self, tmp_path):
        g = OccupancyGrid(2, 1, 0.05)
        g.cells[0, 0] = OCCUPIED
        g.cells[0, 1] = UNKNOWN
        path = tmp_path / "m.pgm"
        write_map(g, path)
        data = path.read_bytes()
        raster = data.split(b"255\n", 1)[1]
        assert raster == bytes([0, 205])

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(9)
        g = random_grid(rng)
        write_map(g, tmp_path / "a.pgm")
        write_map(g, tmp_path / "b.pgm")
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
        assert (tmp_path / "a.pgm.meta").read_text() == (tmp_path / "b.pgm.meta").read_text()

    def test_reject_non_pgm(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            read_map(p)

    def test_reject_foreign_pixel_values(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n1 1\n255\n\x7f")
        with pytest.raises(ValueError):
            read_map(p)

    @pytest.mark.parametrize("data, token", [
        (b"P5\n1_0 1\n255\n" + bytes(10), "1_0"),
        (b"P5\n+2 1\n255\n\xff\xff", "+2"),
        (b"P5\n2 1\n0x ff\n\xff\xff", "0x"),
        ("P5\n\u0662 1\n255\n".encode() + bytes(2), "\xd9\xa2"),  # ARABIC-INDIC DIGIT TWO
        (b"P5\n2 1", ""),  # the file ends before the maxval
    ], ids=["underscore", "plus-sign", "hex", "arabic-indic-digit", "truncated"])
    def test_header_fields_must_be_ascii_digits(self, tmp_path, data, token):
        p = tmp_path / "x.pgm"
        p.write_bytes(data)
        (tmp_path / "x.pgm.meta").write_text("resolution: 0.05\norigin: 0 0 0\n")
        with pytest.raises(ValueError) as e:
            read_map(p)
        assert str(e.value) == f"{p}: PGM header field {token!r} is not a decimal number"

    def test_header_with_comment_and_leading_zeros(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n# two by one\n02 1\n0255\n\xff\x00")
        (tmp_path / "x.pgm.meta").write_text("resolution: 0.05\norigin: 0 0 0\n")
        assert read_map(p).cells.tolist() == [[FREE, OCCUPIED]]

    @pytest.mark.parametrize("raster", [bytes([b, 205, 0]) for b in range(256)] + [bytes(range(256))],
                             ids=[f"byte-{b}" for b in range(256)] + ["all-bytes"])
    def test_read_map_matches_oracle(self, tmp_path, raster):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n%d 1\n255\n" % len(raster) + raster)
        (tmp_path / "x.pgm.meta").write_text("resolution: 0.05\norigin: -1.5 2.0 0.0\n")
        try:
            want = oracle_read_map(p)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                read_map(p)
            assert str(got.value) == str(e)
            return
        got = read_map(p)
        assert got.cells.dtype == want.cells.dtype
        assert np.array_equal(got.cells, want.cells)
        assert (got.width, got.height, got.resolution) == (want.width, want.height, want.resolution)
        assert got.origin == want.origin

    @pytest.mark.parametrize("meta, message", [
        ("resolution: abc\norigin: 0 0 0\n", "expected `resolution: <cell size>`, got 'abc'"),
        ("resolution: 0.1 0.2\norigin: 0 0 0\n", "expected `resolution: <cell size>`"),
        ("resolution: 0.1\norigin: 1 2\n", "expected `origin: <x> <y> <theta>`, got '1 2'"),
        ("resolution: 0.1\norigin: 1 2 x\n", "expected `origin: <x> <y> <theta>`"),
    ])
    def test_bad_meta_value_names_sidecar_and_key(self, tmp_path, meta, message):
        g = OccupancyGrid(2, 2, 0.1)
        write_map(g, tmp_path / "m.pgm")
        (tmp_path / "m.pgm.meta").write_text(meta)
        with pytest.raises(ValueError) as e:
            read_map(tmp_path / "m.pgm")
        assert str(e.value).startswith(f"{tmp_path / 'm.pgm.meta'}: ")
        assert message in str(e.value)


# what cloud texts are made of: number characters (a non-ASCII digit among
# them), the whitespace str.split splits on, and the line breaks of str.splitlines
_NUMBER_CHARS = "0123456789+-.e_\u0663"
_SPACES = [" ", "\t", "\xa0", "\x1f", "\u2003", "\u3000"]
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c"]
_CHARS = [*_NUMBER_CHARS, *_SPACES, *_BREAKS[:2], *_BREAKS[3:], "#", "n", "a", "i", "f", "\x00"]
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-999, 999).map(str),
    st.sampled_from(["1_0", "\u0663", "+1.5E3", "-0", ".5", "5.", "1e500", "nan", "-inf"]),
)
_TOKEN = st.one_of(_NUMBER, st.text(alphabet=_NUMBER_CHARS, min_size=1, max_size=6))


@st.composite
def _cloud_texts(draw):
    """Lines of 2 to 4 tokens, with whitespace around them, comments and any
    line break; most files hold only well-formed lines of 3 numbers."""
    token = draw(st.sampled_from([_NUMBER, _NUMBER, _TOKEN]))
    count = draw(st.sampled_from([st.just(3), st.just(3), st.sampled_from([2, 3, 3, 4])]))
    text = ""
    for _ in range(draw(st.integers(0, 5))):
        tokens = [draw(token) for _ in range(draw(count))]
        gaps = [draw(st.text(alphabet=_SPACES, min_size=1, max_size=2)) for _ in tokens]
        text += draw(st.text(alphabet=_SPACES, max_size=2))
        text += "".join(t + g for t, g in zip(tokens, gaps))
        if draw(st.booleans()):
            text += "#" + draw(st.text(alphabet=_CHARS, max_size=5))
        text += draw(st.sampled_from(_BREAKS))
    return text


def _read_or_error(reader, path):
    try:
        return reader(path).points, None
    except ValueError as e:
        return None, str(e)


def _first_bad_line(path):
    """The number of the first line with a wrong token count or a bad number."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            list(map(float, parts))
        except ValueError:
            return lineno
        if len(parts) != 3:
            return lineno
    return None


class TestCloudFiles:
    def test_round_trip(self, tmp_path):
        pc = PointCloud([(0.1, -2.5, 0.333333333333), (1e-9, 4.0, 1.2)])
        path = tmp_path / "c.xyz"
        write_point_cloud(pc, path)
        back = read_point_cloud(path)
        assert np.array_equal(back.points, pc.points)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# header\n\n1 2 3  # trailing\n")
        assert len(read_point_cloud(path)) == 1

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3\n1 2\n")
        with pytest.raises(ValueError, match=":2:"):
            read_point_cloud(path)

    @pytest.mark.parametrize("text, lineno, token", [
        ("0x1 2 3\n", 1, "'0x1'"), ('1 2 3\n"1" 2 3\n', 2, "'\"1\"'"), ("1 2 3\n\n1 2 3e\n", 3, "'3e'"),
    ])
    def test_bad_number_reports_line(self, tmp_path, text, lineno, token):
        path = tmp_path / "c.xyz"
        path.write_text(text)
        with pytest.raises(ValueError) as e:
            read_point_cloud(path)
        assert str(e.value) == f"{path}:{lineno}: could not convert string to float: {token}"

    @pytest.mark.parametrize("text", ["1 2\x0c3\n", "1 2\x1c3\n", "1 2\u20283\n"])
    def test_splitlines_breaks_are_line_breaks(self, tmp_path, text):
        # numpy's reader breaks a file only at \n; these must still split the line
        path = tmp_path / "c.xyz"
        path.write_text(text)
        with pytest.raises(ValueError, match=r":1: expected `x y z`, got '1 2'"):
            read_point_cloud(path)

    @pytest.mark.parametrize("text, point", [
        ("1_0 2 3\n", (10.0, 2.0, 3.0)), ("\u0663 2\xa03\n", (3.0, 2.0, 3.0)),
    ])
    def test_accepts_what_float_accepts(self, tmp_path, text, point):
        path = tmp_path / "c.xyz"
        path.write_text(text)
        assert read_point_cloud(path).points.tolist() == [list(point)]

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "\n  \t\n# a\n"])
    def test_empty_and_comment_only_files_warn_nothing(self, tmp_path, text):
        path = tmp_path / "c.xyz"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cloud = read_point_cloud(path)
        assert caught == []
        assert cloud.points.shape == (0, 3)

    def test_non_finite_cloud_rejected(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3\nnan 0 0\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_point_cloud(path)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_cloud_texts(), st.text(alphabet="".join(_CHARS), max_size=40)))
    def test_reader_matches_oracle(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("cloud") / "c.xyz"
        path.write_bytes(text.encode())
        want, want_err = _read_or_error(oracle_read_point_cloud, path)
        got, got_err = _read_or_error(read_point_cloud, path)
        if want_err is None:
            assert got_err is None, got_err
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        else:
            if want_err.startswith("could not convert"):  # the reader names the line
                want_err = f"{path}:{_first_bad_line(path)}: {want_err}"
            assert got_err == want_err

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 5e-324, -5e-324], [2.2250738585072014e-308, 1e-310, 1e308, -1e308],
        [1.7976931348623157e308, 0.1, 1 / 3, -123456.789],
    ])
    def test_writer_bytes_match_oracle(self, tmp_path, values):
        pc = PointCloud(np.array(values * 3).reshape(-1, 3))
        write_point_cloud(pc, tmp_path / "a.xyz")
        oracle_write_point_cloud(pc, tmp_path / "b.xyz")
        assert (tmp_path / "a.xyz").read_bytes() == (tmp_path / "b.xyz").read_bytes()
        assert read_point_cloud(tmp_path / "a.xyz").points.tobytes() == pc.points.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3), max_size=20))
    def test_writer_bytes_match_oracle_on_any_cloud(self, tmp_path_factory, points):
        d = tmp_path_factory.mktemp("write")
        pc = PointCloud(np.array(points, dtype=float))
        write_point_cloud(pc, d / "a.xyz")
        oracle_write_point_cloud(pc, d / "b.xyz")
        assert (d / "a.xyz").read_bytes() == (d / "b.xyz").read_bytes()
