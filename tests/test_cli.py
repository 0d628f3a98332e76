"""Tests for the CLI, PGM I/O, parameter files and image synthesis."""

import csv
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import sliceblur
from sliceblur import approx, filtering, oracle
from sliceblur.cli import CSV_HEADER, build_parser, main
from sliceblur.filtering import separable_filter_2d
from sliceblur.params import FilterParams, load_params, save_params
from sliceblur.pgm import read_pgm, write_pgm
from sliceblur.synth import make_image


class TestPgm:
    def test_roundtrip_8bit(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((13, 17))
        path = tmp_path / "a.pgm"
        write_pgm(path, img)
        back, maxval = read_pgm(path)
        assert maxval == 255
        assert back.shape == (13, 17) and back.dtype == np.float32
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12

    def test_roundtrip_16bit(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.random((8, 8))
        path = tmp_path / "a.pgm"
        write_pgm(path, img, maxval=65535)
        back, maxval = read_pgm(path)
        assert maxval == 65535
        assert back.dtype == np.float64
        assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12

    @pytest.mark.parametrize("maxval, default", [(255, np.float32), (65535, np.float64)])
    def test_read_pixel_type(self, tmp_path, maxval, default):
        # 16-bit files read as float64 unless float32 is asked for, as
        # `sliceblur filter` asks
        path = tmp_path / "a.pgm"
        write_pgm(path, make_image("one-over-f", 9, 7, seed=1), maxval)
        image, _ = read_pgm(path)
        assert image.dtype == default
        for pixels in (np.float32, np.float64):
            got, _ = read_pgm(path, pixels=pixels)
            assert got.dtype == pixels
            np.testing.assert_allclose(got, image, rtol=1e-7)

    def test_comment_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img, maxval = read_pgm(path)
        assert img[0, 1] == pytest.approx(128 / 255)

    def test_rejects_other_formats(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ValueError):
            read_pgm(path)

    @pytest.mark.parametrize("data", [b"", b"P5 4 4", b"# only a comment\n", b"P5 4 4 #x"])
    def test_truncated_header_names_the_file(self, tmp_path, data):
        path = tmp_path / "t.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated PGM header$"):
            read_pgm(path)

    @pytest.mark.parametrize("maxval, pixels", [(255, b"\x00" * 15), (65535, b"\x00" * 31)])
    def test_truncated_pixel_data_names_the_file(self, tmp_path, maxval, pixels):
        # one byte short of a 4x4 image
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n%d\n" % maxval + pixels)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated pixel data$"):
            read_pgm(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        assert read_pgm(path)[0].shape == (4, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_rejects_non_finite(self, tmp_path, bad):
        for dtype in (np.float64, np.float32):
            img = np.full((4, 5), 0.5, dtype)
            img[1, 2] = bad
            img[3, 0] = np.nan
            path = tmp_path / "n.pgm"
            with pytest.raises(ValueError, match=r"^cannot quantize 2 non-finite"):
                write_pgm(path, img)
            assert not path.exists()

    @pytest.mark.parametrize("maxval", [255.5, 65535.5, 255.0, "255"])
    def test_write_rejects_maxval_that_is_not_an_integer(self, tmp_path, maxval):
        # 255.5 would get a "255" header but 2-byte samples
        path = tmp_path / "m.pgm"
        with pytest.raises(ValueError, match="^bad maxval"):
            write_pgm(path, [[0, 0.5, 1, 0.999]], maxval)
        assert not path.exists()

    # 1024 bytes per block: 1 row of 128 float64 or 2 of float32 pixels
    @staticmethod
    def _small_blocks(monkeypatch, shape):
        monkeypatch.setattr(filtering, "_BLOCK", 1024)
        assert filtering._block_rows(*shape, np.float32) == 2

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_write_in_blocks_same_bytes(self, tmp_path, monkeypatch, maxval):
        rng = np.random.default_rng(maxval)
        img = rng.uniform(-0.1, 1.1, (37, 128))
        img[rng.random(img.shape) < 0.8] = rng.random()
        for dtype in (np.float64, np.float32):
            one, blocks = tmp_path / "one.pgm", tmp_path / "blocks.pgm"
            assert filtering._block_rows(*img.shape, dtype) == 37
            write_pgm(one, img.astype(dtype), maxval)
            with monkeypatch.context() as m:
                self._small_blocks(m, img.shape)
                write_pgm(blocks, img.astype(dtype), maxval)
            assert blocks.read_bytes() == one.read_bytes()

    def test_write_refuses_nan_in_last_block_only(self, tmp_path, monkeypatch):
        self._small_blocks(monkeypatch, (9, 128))
        for dtype in (np.float64, np.float32):
            img = np.full((9, 128), 0.5, dtype)
            img[-1, -1] = np.nan
            path = tmp_path / "n.pgm"
            with pytest.raises(ValueError, match=r"^cannot quantize 1 non-finite"):
                write_pgm(path, img)
            assert not path.exists()

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_write_clips_one_block_only(self, tmp_path, monkeypatch, maxval):
        self._small_blocks(monkeypatch, (9, 128))
        img = np.random.default_rng(5).random((9, 128))
        img[4, :3] = [1.7, -0.3, 1e308]
        path = tmp_path / "c.pgm"
        write_pgm(path, img, maxval)
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        raw = np.frombuffer(path.read_bytes()[-img.size * dtype.itemsize :], dtype)
        np.testing.assert_array_equal(raw.reshape(img.shape), np.rint(np.clip(img, 0, 1) * maxval))

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_write_float32_within_one_level_of_float64(self, tmp_path, maxval):
        # float32 pixels are quantized in float32: next to the half-level
        # ties (n + 0.5) / maxval that may round the other way
        ties = np.arange(-1, maxval + 1) + 0.5
        near = np.divide(ties, maxval, dtype=np.float32)
        img = np.stack([np.nextafter(near, -1), near, np.nextafter(near, 2)])
        rng = np.random.default_rng(maxval)
        img = np.concatenate([img, rng.random((3, img.shape[1]), np.float32)])
        levels = {}
        for dtype in (np.float32, np.float64):
            path = tmp_path / f"{np.dtype(dtype).name}.pgm"
            write_pgm(path, img.astype(dtype), maxval)
            levels[dtype], _ = read_pgm(path)
        diff = np.abs(levels[np.float32] * maxval - levels[np.float64] * maxval)
        assert np.rint(diff).max() <= 1

    def test_write_huge_finite_pixels(self, tmp_path):
        # x * maxval overflows to +-inf; the pixels still clip to maxval and 0
        img = np.array([[1e308, -1e308, 0.5], [np.finfo(float).max, -1e-300, 1.0]])
        for maxval in (255, 65535):
            path = tmp_path / "h.pgm"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                write_pgm(path, img, maxval)
            dtype = np.dtype(">u2" if maxval > 255 else "u1")
            raw = np.frombuffer(path.read_bytes()[-img.size * dtype.itemsize :], dtype)
            np.testing.assert_array_equal(
                raw.reshape(img.shape),
                [[maxval, 0, np.rint(0.5 * maxval)], [maxval, 0, maxval]],
            )

    def test_write_quantizes_like_clip_then_round(self, tmp_path):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        specials = [0.0, -0.0, 1.0, 1e308, -1e308, -0.5, 1.5, np.nextafter(1.0, 2.0)]

        @hyp.settings(derandomize=True, max_examples=60, deadline=None)
        @hyp.given(data=st.data())
        def check(data):
            maxval = data.draw(st.sampled_from([1, 255, 1000, 65535]), label="maxval")
            h = data.draw(st.integers(1, 12), label="h")
            w = data.draw(st.integers(1, 12), label="w")
            # exact .5 ties of x * maxval, out-of-range values and the specials
            pixel = st.one_of(
                st.floats(-2.0, 3.0),
                st.integers(-2, 2 * maxval).map(lambda n: (n + 0.5) / maxval),
                st.sampled_from(specials),
            )
            vals = data.draw(st.lists(pixel, min_size=h * w, max_size=h * w), label="px")
            img = np.array(vals, dtype=np.float64).reshape(h, w)
            path = tmp_path / "q.pgm"
            write_pgm(path, img, maxval)
            dtype = np.dtype(">u2" if maxval > 255 else "u1")
            raw = np.frombuffer(path.read_bytes()[-img.size * dtype.itemsize :], dtype)
            want = np.rint(np.clip(img, 0.0, 1.0) * maxval)
            np.testing.assert_array_equal(raw.reshape(h, w), want)

        check()

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_write_rejects_empty(self, tmp_path, shape):
        with pytest.raises(ValueError, match="non-empty"):
            write_pgm(tmp_path / "e.pgm", np.zeros(shape))

    def test_write_read_write_is_byte_identical(self, tmp_path):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(derandomize=True, max_examples=40, deadline=None)
        @hyp.given(
            h=st.integers(1, 40),
            w=st.integers(1, 40),
            maxval=st.sampled_from([255, 65535]),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(h, w, maxval, seed):
            img = np.random.default_rng(seed).random((h, w))
            a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
            write_pgm(a, img, maxval)
            back, got_maxval = read_pgm(a)
            assert got_maxval == maxval and back.shape == (h, w)
            write_pgm(b, back, maxval)
            assert a.read_bytes() == b.read_bytes()

        check()

    def test_trailing_bytes_are_ignored(self, tmp_path):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(derandomize=True, max_examples=40, deadline=None)
        @hyp.given(
            h=st.integers(1, 12),
            w=st.integers(1, 12),
            maxval=st.sampled_from([255, 65535]),
            tail=st.binary(min_size=1, max_size=64),
        )
        def check(h, w, maxval, tail):
            img = np.random.default_rng(h * 100 + w).random((h, w))
            path = tmp_path / "t.pgm"
            write_pgm(path, img, maxval)
            want = read_pgm(path)
            path.write_bytes(path.read_bytes() + tail)
            got = read_pgm(path)
            assert got[1] == want[1]
            np.testing.assert_array_equal(got[0], want[0])

        check()

    def test_write_non_contiguous(self, tmp_path):
        img = np.random.default_rng(2).random((9, 14)).T
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(a, img)
        write_pgm(b, np.ascontiguousarray(img))
        assert a.read_bytes() == b.read_bytes()


class TestParamsFile:
    def test_roundtrip(self, tmp_path):
        part, sigma0 = approx.table_defaults(4)
        params = FilterParams(part, sigma0, "qf", 1.25e-6)
        path = tmp_path / "p.txt"
        save_params(path, params)
        back = load_params(path)
        assert np.array_equal(back.partition.breakpoints, part.breakpoints)
        np.testing.assert_array_equal(back.partition.constants, part.constants)
        assert back.sigma0 == sigma0
        assert back.error_model == "qf"
        assert back.e2 == 1.25e-6

    def test_missing_key(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("k = 3\nsigma0 = 1.0\n")
        with pytest.raises(ValueError):
            load_params(path)

    def test_comments_blank_lines_and_k_mismatch(self, tmp_path):
        part, sigma0 = approx.table_defaults(3)
        path = tmp_path / "p.txt"
        save_params(path, FilterParams(part, sigma0, "qf", 0.0))
        path.write_text("# a comment\n\n" + path.read_text().replace("\n", "\n\n  # note\n"))
        np.testing.assert_array_equal(load_params(path).partition.breakpoints, part.breakpoints)
        path.write_text(path.read_text().replace("k = 3", "k = 4"))
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(path))}: k does not match parameter lengths$"
        ):
            load_params(path)

    def test_inconsistent_weights(self, tmp_path):
        part, sigma0 = approx.table_defaults(3)
        path = tmp_path / "p.txt"
        save_params(path, FilterParams(part, sigma0, "qf", 0.0))
        text = path.read_text().replace("0.3993", "0.5")
        path.write_text(text)
        with pytest.raises(ValueError):
            load_params(path)

    @pytest.mark.parametrize("key, value", [
        ("k", "three"), ("sigma0", "1.0.0"), ("breakpoints", "23, x, 76"),
        ("constants", "0.9, , 0.1"), ("weights", "0.4, nope, 0.2"), ("e2", ""),
        ("sigma0", "0"), ("sigma0", "-5"), ("sigma0", "nan"), ("sigma0", "inf"),
        ("constants", "nan, 0.5, 0.1"), ("constants", "0.9, -inf, 0.1"),
        ("k", "+3"), ("k", "-3"), ("k", "3.0"), ("breakpoints", "2_3, 46, 76"),
        ("breakpoints", "23, +46, 76"), ("error_model", "foo"), ("error_model", ""),
    ])
    def test_malformed_number_names_file_and_key(self, tmp_path, key, value):
        part, sigma0 = approx.table_defaults(3)
        path = tmp_path / "p.txt"
        save_params(path, FilterParams(part, sigma0, "qf", 0.0))
        lines = [
            f"{key} = {value}" if line.split("=")[0].strip() == key else line
            for line in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(path))}: bad value for {key}: "
        ):
            load_params(path)


class TestSynth:
    def test_constant(self):
        img = make_image("constant", 16, 16)
        assert np.all(img == 0.5)

    def test_impulse(self):
        img = make_image("impulse", 9, 9)
        assert img.sum() == 1.0 and img[4, 4] == 1.0

    def test_determinism(self):
        a = make_image("one-over-f", 64, 64, seed=7)
        b = make_image("one-over-f", 64, 64, seed=7)
        np.testing.assert_array_equal(a, b)
        c = make_image("one-over-f", 64, 64, seed=8)
        assert not np.array_equal(a, c)

    def test_range(self):
        for kind in ("one-over-f", "uniform-noise"):
            img = make_image(kind, 32, 32, seed=2)
            assert img.min() >= 0.0 and img.max() <= 1.0

    @pytest.mark.parametrize("width, height", [(0, 8), (8, 0), (0, 0)])
    def test_rejects_empty(self, width, height):
        with pytest.raises(ValueError, match="^image dimensions must be positive$"):
            make_image("constant", width, height)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_image("perlin", 8, 8)

    def test_one_over_f_spectral_slope(self):
        img = make_image("one-over-f", 256, 256, seed=3)
        f = np.abs(np.fft.fft2(img - img.mean()))
        fy = np.fft.fftfreq(256)[:, None] * 256
        fx = np.fft.fftfreq(256)[None, :] * 256
        rad = np.hypot(fy, fx)
        bins = np.arange(2, 64)
        amps = [f[(rad >= b - 0.5) & (rad < b + 0.5)].mean() for b in bins]
        slope = np.polyfit(np.log(bins), np.log(amps), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)


class TestFilterCommand:
    def test_constant_roundtrip(self, tmp_path):
        src = tmp_path / "c.pgm"
        dst = tmp_path / "o.pgm"
        assert main(["synth", "constant", str(src), "--width", "64", "--height", "64"]) == 0
        assert main(["filter", str(src), str(dst), "--sigma", "10", "--k", "3"]) == 0
        assert src.read_bytes() == dst.read_bytes()

    def test_impulse_matches_library_path(self, tmp_path):
        src = tmp_path / "i.pgm"
        dst = tmp_path / "o.pgm"
        assert main(["synth", "impulse", str(src), "--width", "64", "--height", "64"]) == 0
        assert main(["filter", str(src), str(dst), "--sigma", "4", "--k", "4"]) == 0
        image, _ = read_pgm(src)
        part, sigma0 = approx.table_defaults(4)
        kernel = approx.scale_to_sigma(approx.to_slices(part, sigma0), 4.0)
        expected = np.rint(
            np.clip(separable_filter_2d(image, kernel), 0, 1) * 255
        )
        got, _ = read_pgm(dst)
        np.testing.assert_array_equal(np.rint(got * 255), expected)

    def test_params_file_overrides_defaults(self, tmp_path):
        src = tmp_path / "n.pgm"
        out_a = tmp_path / "a.pgm"
        out_b = tmp_path / "b.pgm"
        rng = np.random.default_rng(5)
        write_pgm(src, rng.random((48, 48)))
        part, sigma0 = approx.table_defaults(3)
        pfile = tmp_path / "p.txt"
        save_params(pfile, FilterParams(part, sigma0, "qf", 0.0))
        assert main(["filter", str(src), str(out_a), "--sigma", "3", "--k", "3"]) == 0
        assert main(
            ["filter", str(src), str(out_b), "--sigma", "3", "--k", "5",
             "--params", str(pfile)]
        ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["filter", str(tmp_path / "nope.pgm"), str(tmp_path / "o.pgm"),
                   "--sigma", "3"])
        assert rc == 2
        assert capsys.readouterr().err != ""

    def test_truncated_file_one_line_exit_2(self, tmp_path, capsys):
        src = tmp_path / "t.pgm"
        src.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        rc = main(["filter", str(src), str(tmp_path / "o.pgm"), "--sigma", "2"])
        assert rc == 2
        assert capsys.readouterr().err == f"sliceblur: {src}: truncated pixel data\n"

    def test_malformed_params_one_line_exit_2(self, tmp_path, capsys):
        src, pfile = tmp_path / "n.pgm", tmp_path / "p.txt"
        write_pgm(src, np.random.default_rng(3).random((8, 8)))
        part, sigma0 = approx.table_defaults(3)
        save_params(pfile, FilterParams(part, sigma0, "qf", 0.0))
        text = pfile.read_text()
        pfile.write_text(text.replace("breakpoints = 23, 46, 76", "breakpoints = 23, x, 76"))
        rc = main(["filter", str(src), str(tmp_path / "o.pgm"), "--sigma", "2",
                   "--params", str(pfile)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"sliceblur: {pfile}: bad value for breakpoints: '23, x, 76'\n"

    def test_sigma_beyond_image_roundtrip(self, tmp_path):
        # radius 119 on a 32x32 image: the constant comes back unchanged
        src = tmp_path / "c.pgm"
        dst = tmp_path / "o.pgm"
        main(["synth", "constant", str(src), "--width", "32", "--height", "32"])
        assert main(["filter", str(src), str(dst), "--sigma", "50"]) == 0
        assert dst.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize(
        "size",
        [b"0 4", b"4 0", b"-2 -3", b"3x 2", b"2_0 1", b"+2 2",
         pytest.param(b"0" * 4400 + b"4 4", id="4400-digits")],
    )
    def test_bad_size_exit_2(self, tmp_path, capsys, size):
        src = tmp_path / "s.pgm"
        src.write_bytes(b"P5 " + size + b" 255\n" + bytes(16))
        rc = main(["filter", str(src), str(tmp_path / "o.pgm"), "--sigma", "2"])
        assert rc == 2
        assert f"{src}: bad image size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "maxval", [b"2x5", b"0", b"65536", b"+255", pytest.param(b"0" * 4400 + b"255", id="4400-digits")]
    )
    def test_bad_maxval_exit_2(self, tmp_path, capsys, maxval):
        src = tmp_path / "s.pgm"
        src.write_bytes(b"P5 4 4 " + maxval + b"\n" + bytes(32))
        rc = main(["filter", str(src), str(tmp_path / "o.pgm"), "--sigma", "2"])
        assert rc == 2
        assert f"{src}: bad maxval" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exit_2(self, tmp_path, capsys, sigma):
        src = tmp_path / "c.pgm"
        main(["synth", "constant", str(src), "--width", "8", "--height", "8"])
        rc = main(["filter", str(src), str(tmp_path / "o.pgm"), "--sigma", sigma])
        assert rc == 2
        assert sigma in capsys.readouterr().err

    @pytest.mark.parametrize("maxval", [255, 65535])
    @pytest.mark.parametrize("sigma", ["0.2", "0.3", "0.41"])
    def test_sigma_below_cut_is_identity(self, tmp_path, maxval, sigma):
        # every slice radius floors to 0, so the kernel is the identity
        src = tmp_path / "n.pgm"
        dst = tmp_path / "o.pgm"
        write_pgm(src, make_image("one-over-f", 64, 48, seed=4), maxval)
        assert main(["filter", str(src), str(dst), "--sigma", sigma]) == 0
        assert dst.read_bytes() == src.read_bytes()


    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_output_matches_float64_path(self, tmp_path, maxval):
        # 8-bit and 16-bit files are both filtered in float32: within 1
        # level of the float64 result
        src, dst, ref = (tmp_path / f"{n}.pgm" for n in ("s", "o", "r"))
        write_pgm(src, make_image("one-over-f", 200, 150, seed=7), maxval)
        image, _ = read_pgm(src)
        assert image.dtype == (np.float32 if maxval == 255 else np.float64)
        for sigma in (2.0, 5.0, 30.0):
            assert main(["filter", str(src), str(dst), "--sigma", repr(sigma)]) == 0
            kernel = approx.gaussian_kernel(sigma, 3)
            write_pgm(ref, separable_filter_2d(image.astype(np.float64), kernel), maxval)
            got, want = read_pgm(dst)[0], read_pgm(ref)[0]
            assert np.rint(np.abs(got - want) * maxval).max() <= 1

    # (height, width): one pixel, one row, one column, both column paths
    # (rows of at most filtering._NARROW = 256 samples and wider), and a
    # height of three row blocks on each path (655 float32 rows of 100
    # samples, 218 of 300, per block); at sigma 400 the largest radius passes
    # every height
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 257), (300, 3),
                                       (40, 64), (1400, 100), (600, 300)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_in_place_output_is_library_output(self, tmp_path, shape, maxval):
        # the filter writes into the image that read_pgm returned, and must
        # write what separable_filter_2d returns for that image
        src, dst, ref = (tmp_path / f"{n}.pgm" for n in ("s", "o", "r"))
        write_pgm(src, np.random.default_rng(shape).random(shape), maxval)
        image = read_pgm(src, pixels=np.float32)[0]
        # a buffer of its own, which the filter's stores find on a cache line
        assert image.flags.writeable and image.flags.c_contiguous
        assert image.ctypes.data % 64 == 0
        assert image.base is None or (image.base.base is None and image.base.flags.owndata)
        for sigma in ("0.3", "2", "5", "50", "400"):
            for k in (3, 5):
                assert main(["filter", str(src), str(dst), "--sigma", sigma, "--k", str(k)]) == 0
                kernel = approx.gaussian_kernel(float(sigma), k)
                write_pgm(ref, separable_filter_2d(image, kernel), maxval)
                assert dst.read_bytes() == ref.read_bytes(), (sigma, k)

    @pytest.mark.parametrize(
        "sigma, message",
        [
            ("1e300", "sigma 1e+300 is too large"),
            # the radius fits int64, but the buffers would not fit any
            # address space: numpy's allocation fails before touching
            # memory, with a message of its own
            ("1e17", ""),
            ("1e9", ""),
        ],
        ids=["1e300", "1e17", "1e9"],
    )
    def test_huge_sigma_one_line_exit_2(self, tmp_path, capsys, sigma, message):
        src = tmp_path / "n.pgm"
        write_pgm(src, np.random.default_rng(8).random((8, 16384)))
        rc = main(["filter", str(src), str(tmp_path / "o.pgm"), "--sigma", sigma])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("sliceblur: ") and err.count("\n") == 1
        assert message in err


class TestFilterMemory:
    """Peak traced allocation of one ``filter`` request at 1024^2, sigma 50,
    and of ``write_pgm`` at 1024^2."""

    def test_filter_8bit(self, tmp_path):
        src, dst = tmp_path / "s.pgm", tmp_path / "o.pgm"
        write_pgm(src, make_image("one-over-f", 1024, 1024, seed=3))
        tracemalloc.start()
        try:
            assert main(["filter", str(src), str(dst), "--sigma", "50"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 image, which the filter overwrites, and the column
        # running sum's buffer of 3(2P + 1) rows, 717 at P = 119, with a block
        # of slice-term scratch; no separate output
        assert peak < 2.0 * 1024 * 1024 * np.dtype(np.float32).itemsize

    @pytest.mark.parametrize("maxval", [255, 65535])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_write_pgm(self, tmp_path, dtype, maxval):
        img = make_image("one-over-f", 1024, 1024, seed=3).astype(dtype)
        tracemalloc.start()
        try:
            write_pgm(tmp_path / "o.pgm", img, maxval)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file's samples and one block of scratch, not a copy of the image
        samples = img.size * (1 if maxval == 255 else 2)
        assert peak < samples + 2 * filtering._BLOCK


class TestMain:
    def test_calls_share_no_state(self, tmp_path, capsys):
        src = tmp_path / "n.pgm"
        write_pgm(src, np.random.default_rng(6).random((48, 48)))
        pfile = tmp_path / "p.txt"
        assert main(["optimize", "--k", "2", "--params", str(pfile),
                     "--samples", "20"]) == 0
        outs = [tmp_path / f"o{i}.pgm" for i in range(3)]
        assert main(["filter", str(src), str(outs[0]), "--sigma", "3"]) == 0
        assert main(["filter", str(src), str(outs[1]), "--sigma", "3",
                     "--k", "5", "--params", str(pfile)]) == 0
        assert main(["psnr", str(src), str(src)]) == 0
        assert main(["filter", str(src), str(outs[2]), "--sigma", "3"]) == 0
        assert outs[1].read_bytes() != outs[0].read_bytes()
        assert outs[2].read_bytes() == outs[0].read_bytes()
        assert capsys.readouterr().out.strip() == "inf"

    def test_build_parser_is_fresh(self):
        assert build_parser() is not build_parser()


def test_all_names_resolve():
    assert len(set(sliceblur.__all__)) == len(sliceblur.__all__)
    for name in sliceblur.__all__:
        assert hasattr(sliceblur, name), name


class TestOptimizeCommand:
    def test_k1_l2_is_windowed_mean(self, tmp_path):
        pfile = tmp_path / "p.txt"
        assert main(["optimize", "--k", "1", "--model", "l2",
                     "--params", str(pfile), "--samples", "40"]) == 0
        loaded = load_params(pfile)
        target = approx.sample_gaussian(40 / math.pi, 40)
        p = int(loaded.partition.breakpoints[0])
        expected = target.values[: p + 1].mean()
        assert loaded.partition.constants[0] == pytest.approx(expected, rel=1e-12)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert main(["optimize", "--k", "2", "--params", str(path),
                         "--samples", "20"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k5_few_samples(self, tmp_path):
        pfile = tmp_path / "p.txt"
        assert main(["optimize", "--k", "5", "--params", str(pfile),
                     "--samples", "16"]) == 0
        assert load_params(pfile).partition.k == 5
        src = tmp_path / "n.pgm"
        write_pgm(src, np.random.default_rng(7).random((24, 24)))
        assert main(["filter", str(src), str(tmp_path / "o.pgm"), "--sigma", "3",
                     "--params", str(pfile)]) == 0

    def test_toy_matches_enumeration(self, tmp_path):
        n = 13
        pfile = tmp_path / "p.txt"
        assert main(["optimize", "--k", "2", "--params", str(pfile),
                     "--samples", str(n)]) == 0
        loaded = load_params(pfile)
        target = approx.sample_gaussian(n / math.pi, n)
        model = approx.build_autocorr(n - 1)
        best_bp, best_e2 = None, math.inf
        for bp in itertools.combinations(range(1, n), 2):
            cand = approx.optimal_constants(target, bp, model)
            e2 = approx.quadratic_error(
                target, approx.partition_profile(cand, n), model
            )
            if e2 < best_e2:
                best_bp, best_e2 = bp, e2
        assert tuple(loaded.partition.breakpoints) == best_bp
        assert loaded.e2 == pytest.approx(best_e2, rel=1e-9)


class TestBenchCommand:
    @pytest.mark.parametrize("l2", [[], ["--l2"]], ids=["qf", "l2"])
    def test_rows_and_schema(self, tmp_path, l2):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["synth", "uniform-noise", str(corpus / "img.pgm"),
              "--width", "64", "--height", "64", "--seed", "1"])
        out = tmp_path / "bench.csv"
        assert main(["bench", str(corpus), "--sigma", "2", "--sigma", "4",
                     "--k", "3", "--reps", "3", "--csv", str(out), *l2]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [*rows[0]] == CSV_HEADER
        methods = [(r["method"], r["sigma"]) for r in rows]
        assert len(rows) == 4 + 2 * len(l2)
        assert sum(m == "exact" for m, _ in methods) == 2
        assert sum(m == "slices-qf" for m, _ in methods) == 2
        assert sum(m == "slices-l2" for m, _ in methods) == 2 * len(l2)
        for r in rows:
            assert int(r["wall_time_ns"]) > 0
            assert float(r["psnr_db"]) > 0 or math.isinf(float(r["psnr_db"]))
            # numeric fields parse back losslessly
            for field in ("sigma", "adds_per_px", "muls_per_px"):
                assert repr(float(r[field])) == r[field]

    @pytest.mark.timing
    def test_sigma_ratio_and_psnr_order(self, tmp_path):
        # slice timing is sigma-independent; accuracy grows with k
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["synth", "one-over-f", str(corpus / "img.pgm"),
              "--width", "512", "--height", "512", "--seed", "9"])
        out = tmp_path / "bench.csv"
        assert main(["bench", str(corpus), "--sigma", "5", "--sigma", "50",
                     "--k", "3", "--k", "5", "--reps", "5", "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        times = {
            (r["sigma"], r["k"]): int(r["wall_time_ns"])
            for r in rows if r["method"] == "slices-qf"
        }
        ratio = times[("50.0", "3")] / times[("5.0", "3")]
        assert 0.8 <= ratio <= 1.25, (
            f"sigma 50/5 ratio {ratio:.3f}: median {times[('50.0', '3')]} ns "
            f"at sigma 50, {times[('5.0', '3')]} ns at sigma 5"
        )
        psnrs = {
            (r["sigma"], r["k"]): float(r["psnr_db"])
            for r in rows if r["method"] == "slices-qf"
        }
        # k ordering holds once radii are large enough that the floor in
        # the radius scaling is negligible (sigma >= 10 or so)
        assert psnrs[("50.0", "5")] >= psnrs[("50.0", "3")]

    def test_cost_columns_are_the_merged_kernels(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["synth", "uniform-noise", str(corpus / "img.pgm"),
              "--width", "32", "--height", "32"])
        out = tmp_path / "bench.csv"
        assert main(["bench", str(corpus), "--sigma", "1", "--sigma", "8",
                     "--k", "3", "--k", "5", "--reps", "3", "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["method"] == "slices-qf"]
        costs = {(r["sigma"], r["k"]): (r["adds_per_px"], r["muls_per_px"])
                 for r in rows}
        # k=5 at sigma 1 merges to 3 slices; sigma 8 keeps all of them
        assert costs == {
            ("1.0", "3"): ("12.0", "6.0"), ("1.0", "5"): ("12.0", "6.0"),
            ("8.0", "3"): ("12.0", "6.0"), ("8.0", "5"): ("20.0", "10.0"),
        }

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exit_2(self, tmp_path, capsys, sigma):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["synth", "constant", str(corpus / "img.pgm"),
              "--width", "8", "--height", "8"])
        rc = main(["bench", str(corpus), "--sigma", sigma, "--k", "3",
                   "--reps", "3", "--csv", str(tmp_path / "o.csv")])
        assert rc == 2
        assert sigma in capsys.readouterr().err

    def test_k_outside_builtin_exits_before_timing(self, tmp_path, capsys,
                                                   monkeypatch):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["synth", "constant", str(corpus / "img.pgm"),
              "--width", "8", "--height", "8"])
        timed, median_time_ns = [], sliceblur.cli._median_time_ns
        monkeypatch.setattr(sliceblur.cli, "_median_time_ns",
                            lambda fn, reps: timed.append(fn) or median_time_ns(fn, reps))
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(corpus), "--sigma", "2", "--k", "3", "--k", "6",
                  "--reps", "3", "--csv", str(out)])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err
        assert timed == []
        assert not out.exists()

    def test_refused_run_writes_no_csv(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["synth", "constant", str(corpus / "img.pgm"),
              "--width", "8", "--height", "8"])
        out = tmp_path / "o.csv"
        rc = main(["bench", str(corpus), "--sigma", "2", "--sigma", "nan", "--k", "3",
                   "--reps", "3", "--csv", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        rc = main(["bench", str(corpus), "--sigma", "2", "--k", "3",
                   "--reps", "3", "--csv", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_reps_floor(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["synth", "constant", str(corpus / "img.pgm"),
              "--width", "32", "--height", "32"])
        rc = main(["bench", str(corpus), "--sigma", "2", "--k", "3",
                   "--reps", "1", "--csv", str(tmp_path / "o.csv")])
        assert rc == 2


class TestPsnrCommand:
    def test_identical_reports_inf(self, tmp_path, capsys):
        img = tmp_path / "a.pgm"
        main(["synth", "uniform-noise", str(img), "--width", "16", "--height", "16"])
        assert main(["psnr", str(img), str(img)]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_value_matches_library(self, tmp_path, capsys):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        main(["synth", "uniform-noise", str(a), "--width", "16", "--height", "16",
              "--seed", "1"])
        main(["synth", "uniform-noise", str(b), "--width", "16", "--height", "16",
              "--seed", "2"])
        assert main(["psnr", str(a), str(b)]) == 0
        printed = float(capsys.readouterr().out)
        ia, _ = read_pgm(a, pixels=np.float64)
        ib, _ = read_pgm(b, pixels=np.float64)
        assert printed == oracle.psnr(ia, ib)

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_value_is_of_float64_levels(self, tmp_path, capsys, maxval):
        # at both depths the printed PSNR is that of level / maxval in float64
        rng = np.random.default_rng(maxval)
        levels = rng.integers(0, maxval, (2, 19, 23), endpoint=True)
        files = [tmp_path / "a.pgm", tmp_path / "b.pgm"]
        for f, lv in zip(files, levels):
            f.write_bytes(b"P5\n23 19\n%d\n" % maxval
                          + lv.astype(">u2" if maxval > 255 else np.uint8).tobytes())
        assert main(["psnr", *map(str, files)]) == 0
        printed = float(capsys.readouterr().out)
        d = (levels[0] - levels[1]) / maxval
        assert printed == -10.0 * math.log10(np.mean(d * d))
