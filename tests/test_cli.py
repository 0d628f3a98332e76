"""Tests for the CLI, PGM I/O, parameter files and image synthesis."""

import csv
import itertools
import math
import warnings

import numpy as np
import pytest

from sliceblur import approx, oracle
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
        assert back.shape == (13, 17)
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12

    def test_roundtrip_16bit(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.random((8, 8))
        path = tmp_path / "a.pgm"
        write_pgm(path, img, maxval=65535)
        back, maxval = read_pgm(path)
        assert maxval == 65535
        assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_rejects_non_finite(self, tmp_path, bad):
        img = np.full((4, 5), 0.5)
        img[1, 2] = bad
        img[3, 0] = np.nan
        path = tmp_path / "n.pgm"
        with pytest.raises(ValueError, match=r"\b2 non-finite"):
            write_pgm(path, img)
        assert not path.exists()

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

    def test_inconsistent_weights(self, tmp_path):
        part, sigma0 = approx.table_defaults(3)
        path = tmp_path / "p.txt"
        save_params(path, FilterParams(part, sigma0, "qf", 0.0))
        text = path.read_text().replace("0.3993", "0.5")
        path.write_text(text)
        with pytest.raises(ValueError):
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

    def test_kernel_too_large_exit_2(self, tmp_path):
        src = tmp_path / "c.pgm"
        main(["synth", "constant", str(src), "--width", "32", "--height", "32"])
        rc = main(["filter", str(src), str(tmp_path / "o.pgm"), "--sigma", "50"])
        assert rc == 2


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
    def test_rows_and_schema(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["synth", "uniform-noise", str(corpus / "img.pgm"),
              "--width", "64", "--height", "64", "--seed", "1"])
        out = tmp_path / "bench.csv"
        assert main(["bench", str(corpus), "--sigma", "2", "--sigma", "4",
                     "--k", "3", "--reps", "3", "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [*rows[0]] == CSV_HEADER
        methods = [(r["method"], r["sigma"]) for r in rows]
        assert len(rows) == 4
        assert sum(m == "exact" for m, _ in methods) == 2
        assert sum(m == "slices-qf" for m, _ in methods) == 2
        for r in rows:
            assert int(r["wall_time_ns"]) > 0
            assert float(r["psnr_db"]) > 0 or math.isinf(float(r["psnr_db"]))
            # numeric fields parse back losslessly
            for field in ("sigma", "adds_per_px", "muls_per_px"):
                assert repr(float(r[field])) == r[field]

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
        ia, _ = read_pgm(a)
        ib, _ = read_pgm(b)
        assert printed == oracle.psnr(ia, ib)
