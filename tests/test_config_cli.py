"""Configuration parsing and the command-line interface."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualspike import bounds, experiments, solver
from dualspike.cli import EXIT_CONFIG, EXIT_NO_SUPPORT, EXIT_OK, EXIT_SOLVER, main
from dualspike.config import _KNOWN_KEYS, ExperimentConfig, parse_config
from dualspike.errors import ConfigError

TINY_CONFIG = """\
# one source, quick solve
sources = 0.5
amplitudes = 1.0
sigma = 0.1
m = 7
tau = 100
pi = 2
alpha = 0.25
iterations = 60
seed = 3
"""


class TestParsing:
    def test_full_roundtrip(self):
        cfg = parse_config(TINY_CONFIG)
        np.testing.assert_array_equal(cfg.sources, [0.5])
        np.testing.assert_array_equal(cfg.samples, np.linspace(0, 1, 7))
        assert cfg.tau == 100.0 and cfg.pi == 2.0 and cfg.seed == 3
        assert cfg.iterations == 60
        assert len(cfg.digest) == 12

    def test_defaults(self):
        cfg = parse_config("sources=0.2,0.6\namplitudes=1,0.5\nsigma=0.1\nm=9\n")
        assert cfg.tau == 1e5
        assert cfg.pi == pytest.approx(3.0)  # 2 * sum(amplitudes)
        assert cfg.alpha == 0.25
        assert cfg.seed == 0
        assert (cfg.window_start, cfg.window_end) == (20, 270)
        assert cfg.iterations is None and cfg.noise_grid is None

    def test_explicit_samples(self):
        cfg = parse_config("sources=0.5\namplitudes=1\nsigma=0.1\nsamples=0.1,0.5,0.9\n")
        np.testing.assert_array_equal(cfg.samples, [0.1, 0.5, 0.9])

    @pytest.mark.parametrize("text,key", [
        ("amplitudes=1\nsigma=0.1\nm=5\n", "sources"),
        ("sources=0.5\namplitudes=1\nm=5\n", "sigma"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\n", "m"),
        ("sources=0.5\namplitudes=1\nsigma=abc\nm=5\n", "sigma"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\nbogus=1\n", "bogus"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\nsamples=0.1,0.9\n", "samples"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\ntau=-1\n", "tau"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\nalpha=1.5\n", "alpha"),
        ("sources=0.7,0.2\namplitudes=1,1\nsigma=0.1\nm=5\n", "sources"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\nwindow_start=9\nwindow_end=4\n",
         "window_start"),
        # non-finite numbers and negative noise coefficients
        ("sources=nan\namplitudes=1\nsigma=0.1\nm=5\n", "sources"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nsamples=nan\n", "samples"),
        ("sources=0.5\namplitudes=inf\nsigma=0.1\nm=5\n", "amplitudes"),
        ("sources=0.5\namplitudes=1\nsigma=inf\nm=5\n", "sigma"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\ntau=inf\n", "tau"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\npi=inf\n", "pi"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\nnoise_grid=-1\n", "noise_grid"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\nnoise_grid=0.01,nan\n", "noise_grid"),
        # finite inputs that overflow: the default pi, a location difference
        ("sources=0.2,0.6\namplitudes=1e308,1e308\nsigma=0.1\nm=5\n", "pi"),
        ("sources=-1e308,1e308\namplitudes=1,1\nsigma=0.1\nm=5\n", "sources"),
        # a seed numpy's generators reject; a kernel the certificate scan
        # cannot resolve (below ten of its 2.5e-4 spacings)
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\nseed=-3\n", "seed"),
        ("sources=0.5\namplitudes=1\nsigma=2.4e-3\nm=5\n", "sigma"),
    ])
    def test_errors_name_the_key(self, text, key):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert excinfo.value.key == key

    def test_narrowest_resolved_kernel(self):
        assert parse_config("sources=0.5\namplitudes=1\nsigma=2.5e-3\nm=5\n").sigma == 2.5e-3

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("sigma=0.1\nsigma=0.2\nsources=0.5\namplitudes=1\nm=5\n")

    def test_noise_grid_override(self):
        cfg = parse_config("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\nnoise_grid=0.01,0.02\n")
        np.testing.assert_array_equal(cfg.noise_grid, [0.01, 0.02])


_SPECIAL = st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "1e308", "-1e308",
                            "1e-320", "0.5"])
# integers stay small: a valid m allocates an m-sample grid
_NUMBERS = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                     st.integers(-10_000, 10_000).map(str), _SPECIAL, _SPECIAL)
_JUNK = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
# repeated branches are drawn more often: mostly numbers, some junk
_VALUES = st.one_of(_NUMBERS, _NUMBERS, _NUMBERS,
                    st.lists(_NUMBERS, min_size=1, max_size=4).map(", ".join), _JUNK)


@st.composite
def config_texts(draw):
    """A valid base config with keys dropped, overridden, added and mangled."""
    lines = {"sources": "0.5", "amplitudes": "1", "sigma": "0.1", "m": "9"}
    dropped = draw(st.sampled_from([None] * 12 + sorted(lines)))
    lines.pop(dropped, None)
    keys = st.sampled_from(sorted(_KNOWN_KEYS) * 3 + ["bogus", "SIGMA", " tau "])
    lines.update(draw(st.dictionaries(keys, _VALUES, max_size=3)))
    text = [f"{key} = {value}" for key, value in lines.items()]
    text += draw(st.one_of(st.just([]), st.just([]), st.just([]),
                           st.lists(_VALUES, min_size=1, max_size=2)))
    return "\n".join(draw(st.permutations(text)))


class TestParseProperty:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(config_texts())
    def test_config_error_or_finite_numbers(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        for field in dataclasses.fields(ExperimentConfig):
            value = getattr(cfg, field.name)
            if field.name == "digest" or value is None:
                continue
            assert np.all(np.isfinite(np.asarray(value, dtype=float))), (field.name, value)


class TestCli:
    def test_solve_writes_artifacts(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        for name in ("convergence.csv", "certificate.csv", "recovery.csv"):
            path = out / name
            assert path.exists()
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# config=")
            assert "seed=3" in lines[0]
            assert "," in lines[1]  # header row

    def test_solve_deterministic(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out1)]) == EXIT_OK
        assert main(["solve", "--config", str(cfg_path), "--out", str(out2)]) == EXIT_OK
        for name in ("convergence.csv", "certificate.csv", "recovery.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_recovered_location(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg_path), "--out", str(out)])
        rows = (out / "recovery.csv").read_text().splitlines()[2:]
        locs = [float(r.split(",")[0]) for r in rows]
        assert len(locs) == 1
        assert abs(locs[0] - 0.5) < 1e-4

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("sources=0.5\namplitudes=1\nsigma=-1\nm=5\n")
        assert main(["solve", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert "sigma" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_negative_noise_grid_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG + "noise_grid = -1\n")
        code = main(["exp-noise", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "noise_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,flags", [("seed = -3\n", []), ("", ["--seed", "-3"])])
    def test_negative_seed_exit_code(self, tmp_path, monkeypatch, capsys, extra, flags):
        # rejected before the clean reference solve, in the config or on the
        # command line
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran")

        monkeypatch.setattr(experiments, "solve", no_solve)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG.replace("seed = 3\n", extra))
        code = main(["exp-noise", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     *flags])
        assert code == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    def test_zero_jobs_exit_code(self, tmp_path, monkeypatch, capsys):
        # rejected before the clean reference solve, not run serially
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran")

        monkeypatch.setattr(experiments, "solve", no_solve)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        code = main(["exp-noise", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--jobs", "0"])
        assert code == EXIT_CONFIG
        assert "jobs" in capsys.readouterr().err

    def test_lp_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # no pivot allowed: the second cut's LP has no optimal basis and the
        # solve fails loud
        monkeypatch.setattr(solver, "LP_PIVOTS_PER_ROW", 0)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_SOLVER
        assert "no optimal basis after 0 pivots" in capsys.readouterr().err

    def test_missing_reference_constant_exit_code(self, tmp_path, monkeypatch, capsys):
        # a singular translate matrix leaves the report without the amplitude
        # rate exp-t-a compares against: a solver error naming the report's
        # errors, not a crash
        monkeypatch.setattr(bounds, "phi_singular_values", lambda *args: np.zeros(1))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG + "window_start=5\nwindow_end=20\n"
                            "reference_iterations=40\n")
        code = main(["exp-t-a", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "amp_rate_log10" in err and "translate matrix is singular" in err

    def test_zero_iterations_no_support(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        code = main(["solve", "--config", str(cfg_path), "--out",
                     str(tmp_path / "o"), "--iters", "0"])
        assert code == EXIT_NO_SUPPORT

    def test_window_precondition(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG + "window_start=2\nwindow_end=50\n"
                            "reference_iterations=40\n")
        code = main(["exp-lambda-t", "--config", str(cfg_path), "--out",
                     str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_seed_override_recorded(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg_path), "--out", str(out), "--seed", "77"])
        first = (out / "convergence.csv").read_text().splitlines()[0]
        assert "seed=77" in first

    def test_ratio_experiment_row_count(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG + "window_start=5\nwindow_end=20\n"
                            "reference_iterations=40\n")
        out = tmp_path / "out"
        assert main(["exp-lambda-t", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        lines = (out / "exp_lambda_t.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header[:5] == ["iter", "source", "loc_err", "dual_err", "ratio"]
        data = [l for l in lines[2:] if l]
        # one row per (iteration, source) across the window
        assert len(data) == 16

    def test_noise_experiment_with_override(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG + "noise_grid=0.001,0.01\n")
        out = tmp_path / "out"
        assert main(["exp-noise", "--config", str(cfg_path), "--out", str(out),
                     "--iters", "40"]) == EXIT_OK
        lines = (out / "exp_noise.csv").read_text().splitlines()
        data = [l for l in lines[2:] if l]
        assert len(data) == 2
        ratios = [float(r.split(",")[3]) for r in data]
        assert all(r > 0 for r in ratios)
        # the source sits on a sample: the reference Jacobian's sigma_min is
        # exactly 0, and the noise rate column reads inf
        assert [r.split(",")[4] for r in data] == ["inf", "inf"]

    def test_bounds_report_files(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg_path), "--out", str(out),
                     "--iters", "80"]) == EXIT_OK
        text = (out / "bounds_report.txt").read_text()
        assert "noise_rate" in text
        assert "error_noise_rate = reduced Jacobian is singular" in text.splitlines()
        # plain numbers, as in the other CSVs: every field parses as a float
        lines = (out / "bounds_report.csv").read_text().splitlines()
        header, row = lines[1].split(","), lines[2].split(",")
        assert len(header) == len(row)
        for name, field in zip(header, row):
            if field:
                float(field)
        for line in text.splitlines():
            if not line.startswith(("#", "error_")):
                for field in line.split(" = ", 1)[1].split(","):
                    if field:
                        float(field)
