"""Configuration parsing and the command-line interface."""

import dataclasses
import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualspike import bounds, experiments, solver
from dualspike.cli import (EXIT_CONFIG, EXIT_NO_SUPPORT, EXIT_OK, EXIT_SOLVER, _parse, main)
from dualspike.config import _KNOWN_KEYS, ExperimentConfig, load_config, parse_config
from dualspike.errors import ConfigError, DualSpikeError

from conftest import five_spike_config, three_spike_config

ROOT = Path(__file__).resolve().parents[1]

TINY_CONFIG = """\
# one source, quick solve
sources = 0.5
amplitudes = 1.0
sigma = 0.1
m = 7
tau = 100
pi = 2
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
        assert cfg.seed == 0
        assert cfg.iterations is None

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
        ("sources=0.7,0.2\namplitudes=1,1\nsigma=0.1\nm=5\n", "sources"),
        # non-finite numbers
        ("sources=nan\namplitudes=1\nsigma=0.1\nm=5\n", "sources"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nsamples=nan\n", "samples"),
        ("sources=0.5\namplitudes=inf\nsigma=0.1\nm=5\n", "amplitudes"),
        ("sources=0.5\namplitudes=1\nsigma=inf\nm=5\n", "sigma"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\ntau=inf\n", "tau"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\npi=inf\n", "pi"),
        # finite inputs that overflow: the default pi, a location difference
        ("sources=0.2,0.6\namplitudes=1e308,1e308\nsigma=0.1\nm=5\n", "pi"),
        ("sources=-1e308,1e308\namplitudes=1,1\nsigma=0.1\nm=5\n", "sources"),
        # a seed numpy's generators reject, a negative iteration count; a
        # kernel the certificate scan cannot resolve (below ten of its 2.5e-4
        # spacings)
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\nseed=-3\n", "seed"),
        ("sources=0.5\namplitudes=1\nsigma=0.1\nm=5\niterations=-3\n", "iterations"),
        ("sources=0.5\namplitudes=1\nsigma=2.4e-3\nm=5\n", "sigma"),
    ])
    def test_errors_name_the_key(self, text, key):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert f"'{key}'" in str(excinfo.value)

    @pytest.mark.parametrize("key,raw", [("sigma", "2.4e-3"), ("tau", "-1"), ("pi", "0"),
                                         ("seed", "-1"), ("iterations", "-1")])
    def test_scalar_keys_are_checked_before_the_grid(self, key, raw, monkeypatch):
        # m = 1e12 samples would need 8 TB: a bad scalar key must be named
        # before anything is allocated for them
        def no_grid(*args, **kwargs):
            raise AssertionError("the sample grid was allocated")

        monkeypatch.setattr(np, "linspace", no_grid)
        pairs = {"sources": "0.5", "amplitudes": "1", "sigma": "0.1", "m": "1000000000000",
                 key: raw}
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config("".join(f"{k}={v}\n" for k, v in pairs.items()))

    def test_narrowest_resolved_kernel(self):
        assert parse_config("sources=0.5\namplitudes=1\nsigma=2.5e-3\nm=5\n").sigma == 2.5e-3

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("sigma=0.1\nsigma=0.2\nsources=0.5\namplitudes=1\nm=5\n")

    @pytest.mark.parametrize("line", ["alpha=0.25", "reference_iterations=500",
                                      "window_start=20", "window_end=270",
                                      "noise_grid=0.01,0.02"])
    def test_constants_are_not_keys(self, line):
        # the level parameter, the ratio window and the noise sweep are
        # module constants; one iterations key serves every command
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(f"sources=0.5\namplitudes=1\nsigma=0.1\nm=5\n{line}\n")


class TestDigest:
    def test_is_the_sha256_prefix(self):
        digest = hashlib.sha256(TINY_CONFIG.encode()).hexdigest()[:12]
        assert parse_config(TINY_CONFIG).digest == digest

    @pytest.mark.parametrize("name,digest", [("three_spikes.cfg", "ff24e65e9bb5"),
                                             ("five_spikes.cfg", "3bb62d8642fa")])
    def test_checked_in_digests(self, name, digest):
        # line 1 of every artifact the benchmark configs produce
        path = ROOT / "configs" / name
        text = path.read_text(encoding="utf-8")
        assert load_config(path).digest == digest == hashlib.sha256(text.encode()).hexdigest()[:12]

    def test_hashlib_fallback(self):
        # an interpreter without the built-in SHA-256 modules digests
        # through hashlib, to the same bytes
        script = ("import sys\n"
                  "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                  "import hashlib\n"
                  "from dualspike import config\n"
                  "print(config.sha256 is hashlib.sha256, config.parse_config(sys.argv[1]).digest)\n")
        result = subprocess.run([sys.executable, "-c", script, TINY_CONFIG], capture_output=True,
                                text=True, check=True,
                                env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert result.stdout.split() == ["True", parse_config(TINY_CONFIG).digest]


class TestCheckedInConfigs:
    @pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.cfg")), ids=lambda p: p.name)
    def test_loads(self, path):
        load_config(path)

    @pytest.mark.parametrize("name,fixture", [("three_spikes.cfg", three_spike_config),
                                              ("five_spikes.cfg", five_spike_config)])
    def test_fixture_matches_file(self, name, fixture):
        parsed, expected = load_config(ROOT / "configs" / name), fixture()
        for key in ("sources", "amplitudes", "sigma", "samples", "tau", "pi", "seed"):
            np.testing.assert_array_equal(getattr(parsed, key), getattr(expected, key),
                                          err_msg=key)

    def test_benchmark_commands_parse(self):
        # the benchmark's command lines, as its runner completes them, parse
        # with this CLI, and the configs they name load
        workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
        for workload in workloads.values():
            config = str(ROOT / workload.config)
            load_config(config)
            for command in workload.commands:
                _parse([*command, "--config", config, "--out", "out", "--seed", "0"])


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

    @pytest.mark.parametrize("command,key,flags", [
        ("exp-noise", "seed", []),
        ("exp-noise", "seed", ["--seed", "-3"]),
        ("exp-noise", "iterations", []),
        ("bounds", "iterations", ["--iters", "-5"]),
    ])
    def test_negative_seed_or_iterations_exit_code(self, tmp_path, monkeypatch, capsys,
                                                   command, key, flags):
        # rejected before the clean reference solve, in the config or on the
        # command line
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran")

        monkeypatch.setattr(experiments, "solve", no_solve)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG if flags
                            else TINY_CONFIG.replace(f"{key} = ", f"{key} = -"))
        code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     *flags])
        assert code == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "exp-lambda-t", "exp-t-a", "exp-noise",
                                         "bounds"])
    def test_config_iterations_reach_every_command(self, tmp_path, monkeypatch, command):
        # one iterations key: without --iters, the first solve of every
        # command runs for the config's count
        caps = []

        def first_solve(problem, max_iters):
            caps.append(max_iters)
            raise DualSpikeError("stop after the first solve")

        monkeypatch.setattr(experiments, "solve", first_solve)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG.replace("iterations = 60", "iterations = 300"))
        code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_SOLVER
        assert caps == [300]

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

    def test_out_that_cannot_be_created_exit_code(self, tmp_path, monkeypatch, capsys):
        # a path under a file: rejected before the reference solve, in one line
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran")

        monkeypatch.setattr(experiments, "solve", no_solve)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["bounds", "--config", str(cfg_path), "--out", str(blocker / "sub")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert str(blocker) in err

    def test_unwritable_output_file_exit_code(self, tmp_path, capsys):
        # the directory exists, but one artifact's path is a directory
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        (tmp_path / "o" / "convergence.csv").mkdir(parents=True)
        code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert "convergence.csv" in err

    def test_lp_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # no pivot allowed: the second cut's LP has no optimal basis and the
        # solve fails loud
        monkeypatch.setattr(solver, "LP_PIVOTS_PER_ROW", 0)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_SOLVER
        assert "no optimal basis after 0 pivots" in capsys.readouterr().err

    @staticmethod
    def assert_one_source_solves(tmp_path, sigma):
        # a unit source at 0.5 on 21 samples, solved in process: exit 0 and
        # criterion 2's tolerances
        cfg_path = tmp_path / "wide.cfg"
        cfg_path.write_text(f"sources = 0.5\namplitudes = 1\nsigma = {sigma}\nm = 21\n")
        out = tmp_path / "out"
        assert main(["solve", "--iters", "150", "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        rows = [row.split(",") for row in (out / "recovery.csv").read_text().splitlines()[2:]]
        assert len(rows) == 1
        assert abs(float(rows[0][0]) - 0.5) <= 5e-4
        assert abs(float(rows[0][1]) - 1.0) <= 1e-3

    def test_repeated_cut_planes_solve(self, tmp_path):
        # a kernel wider than the interval: cuts 2-4 are one plane, at one
        # certificate maximizer, whose copies would make the LP cycle to
        # its pivot cap (exit 3) if each could enter it
        self.assert_one_source_solves(tmp_path, 2)

    def test_negative_gap_solves(self, tmp_path):
        # at iteration 18 round-off lifts the lower bound 7.8e-11 over the
        # upper one; the solve must run on to its fixed point and return an
        # iterate its oracle evaluated: a gap exit there would return the
        # unevaluated projection, whose recovery fails with exit 4
        self.assert_one_source_solves(tmp_path, 5)

    @pytest.mark.xfail(strict=True, reason="exits 0 with a wrong support (ROADMAP item 2)")
    @pytest.mark.parametrize("sigma,m,iters", [(0.5, 21, 150), (0.3, 31, 300)])
    def test_one_source_is_correct_or_loud(self, tmp_path, capsys, sigma, m, iters):
        # ROADMAP item 2's property on its known counterexamples: exit 0 with
        # exactly one spike within criterion 2's tolerances, or exit 2, 3 or
        # 4 with a one-line message.  sigma = 0.5 writes spikes at 0.473 and
        # 0.505; sigma = 0.3 a spurious 0.4968 beside 0.50001
        cfg_path = tmp_path / "one.cfg"
        cfg_path.write_text(f"sources = 0.5\namplitudes = 1\nsigma = {sigma}\nm = {m}\n")
        out = tmp_path / "out"
        code = main(["solve", "--iters", str(iters), "--config", str(cfg_path),
                     "--out", str(out)])
        if code != EXIT_OK:
            assert code in (EXIT_CONFIG, EXIT_SOLVER, EXIT_NO_SUPPORT)
            assert capsys.readouterr().err.count("\n") == 1
            return
        rows = [row.split(",") for row in (out / "recovery.csv").read_text().splitlines()[2:]]
        assert len(rows) == 1
        assert abs(float(rows[0][0]) - 0.5) <= 5e-4
        assert abs(float(rows[0][1]) - 1.0) <= 1e-3

    def test_missing_reference_constant_exit_code(self, tmp_path, monkeypatch, capsys):
        # a singular translate matrix leaves the report without the amplitude
        # rate exp-t-a compares against: a solver error naming the report's
        # errors, not a crash
        monkeypatch.setattr(bounds, "phi_singular_values", lambda *args: np.zeros(1))
        monkeypatch.setattr(experiments, "WINDOW_START", 5)
        monkeypatch.setattr(experiments, "WINDOW_END", 20)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        code = main(["exp-t-a", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--iters", "40"])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "amp_rate_log10" in err and "translate matrix is singular" in err

    @pytest.mark.parametrize("pi,code", [(2.0, EXIT_SOLVER), (2.3, EXIT_OK)])
    def test_penalty_below_the_primal_mass_exit_code(self, tmp_path, capsys, pi, code):
        # the three-spike primal mass is 2.2: at pi = 2 y.lam / max(1, sup q)
        # proves the penalty too small, and the solve fails in one line
        # naming the key, before writing anything; pi = 2.3 is exact
        text = (ROOT / "configs" / "three_spikes.cfg").read_text()
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text.replace("pi = 100", f"pi = {pi}"))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == EXIT_SOLVER:
            assert err.startswith("solver error: key 'pi': ") and err.count("\n") == 1
            assert not any(out.iterdir())
        else:
            assert err == ""

    @pytest.mark.parametrize("command,flags", [
        ("solve", []),
        ("exp-lambda-t", ["--iters", "300"]),
        ("exp-t-a", ["--iters", "300"]),
        ("exp-noise", ["--iters", "20"]),
        ("bounds", []),
    ])
    def test_stdout_lists_the_files_written(self, tmp_path, capsys, command, flags):
        # one path per line for every artifact the command wrote, and every
        # artifact starts with the same comment line
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out), *flags]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert sorted(printed) == sorted(str(path) for path in out.iterdir())
        comment = f"# config={parse_config(TINY_CONFIG).digest} seed=3 rng=pcg64"
        for path in printed:
            assert Path(path).read_text().splitlines()[0] == comment

    def test_zero_iterations_no_support(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        code = main(["solve", "--config", str(cfg_path), "--out",
                     str(tmp_path / "o"), "--iters", "0"])
        assert code == EXIT_NO_SUPPORT

    @pytest.mark.parametrize("command", ["bounds", "exp-noise"])
    def test_zero_iteration_reference_exit_code(self, tmp_path, capsys, command):
        # a reference solve that ran no iteration is the zero vector, not a
        # reference: a solver error naming the key, and no report written
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "o"
        code = main([command, "--config", str(cfg_path), "--out", str(out), "--iters", "0"])
        assert code == EXIT_SOLVER
        assert "iterations" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_window_precondition(self, tmp_path, capsys):
        # the iteration cap must exceed the window's last iteration
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        code = main(["exp-lambda-t", "--config", str(cfg_path), "--out",
                     str(tmp_path / "o"), "--iters", str(experiments.WINDOW_END)])
        assert code == EXIT_CONFIG
        assert "'iterations'" in capsys.readouterr().err

    def test_seed_override_recorded(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg_path), "--out", str(out), "--seed", "77"])
        first = (out / "convergence.csv").read_text().splitlines()[0]
        assert "seed=77" in first

    def test_ratio_experiment_row_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "WINDOW_START", 5)
        monkeypatch.setattr(experiments, "WINDOW_END", 20)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "out"
        assert main(["exp-lambda-t", "--config", str(cfg_path), "--out", str(out),
                     "--iters", "40"]) == EXIT_OK
        lines = (out / "exp_lambda_t.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header[:5] == ["iter", "source", "loc_err", "dual_err", "ratio"]
        data = [l for l in lines[2:] if l]
        # one row per (iteration, source) across the window
        assert len(data) == 16

    def test_noise_experiment_two_points(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "noise_grid", lambda: np.array([0.001, 0.01]))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
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


COMMANDS = ("solve", "exp-lambda-t", "exp-t-a", "exp-noise", "bounds")


class TestCommandLine:
    """The command line as users type it: the commands, their flags, help,
    and the usage errors that stop before any config is read."""

    @pytest.fixture
    def config(self, tmp_path, monkeypatch):
        # a valid config outside the working directory, which starts empty
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        (tmp_path / "run").mkdir()
        monkeypatch.chdir(tmp_path / "run")
        return str(cfg_path)

    @pytest.fixture
    def driver_calls(self, monkeypatch):
        """(command's driver, seed, iterations, out, keyword arguments) per
        driver call; each driver is replaced after import and writes nothing."""
        calls = []
        for name in ("run_solve", "run_lambda_t", "run_t_a", "run_noise", "run_bounds"):
            def spy(cfg, out_dir, name=name, **kwargs):
                calls.append((name, cfg.seed, cfg.iterations, out_dir, kwargs))
                return [], None
            monkeypatch.setattr(experiments, name, spy)
        return calls

    @pytest.mark.parametrize("args", [
        [],
        ["fit", "--config", "CFG"],
        ["solve"],
        ["solve", "--out", "o"],
        ["solve", "--config", "CFG", "--bogus", "1"],
        ["solve", "--config", "CFG", "--jobs", "2"],
        ["solve", "--config", "CFG", "--seed", "x"],
        ["exp-noise", "--config", "CFG", "--jobs", "two"],
        ["bounds", "--config", "CFG", "--iters"],
        ["--config", "CFG", "solve"],
        ["solve", "--config", "CFG", "extra"],
    ])
    def test_usage_error(self, config, capsys, args):
        # exit 2 by SystemExit, the usage and one error line on stderr, and
        # no output directory
        with pytest.raises(SystemExit) as exc:
            main([config if arg == "CFG" else arg for arg in args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: dualspike")
        assert [line for line in lines if ": error: " in line] == [lines[-1]]
        assert lines[-1].startswith("dualspike")
        assert os.listdir() == []

    @pytest.mark.parametrize("args", [["--help"], ["-h"]])
    def test_help_names_every_command(self, config, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("usage: dualspike")
        assert all(name in captured.out for name in COMMANDS)
        assert os.listdir() == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_names_its_flags(self, config, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: dualspike") and command in out
        flags = ("--config", "--out", "--seed", "--iters", "-h")
        assert all(flag in out for flag in flags + (("--jobs",) if command == "exp-noise" else ()))
        assert os.listdir() == []

    def test_flag_forms(self, config, driver_calls):
        # --flag value and --flag=value, unique prefixes, the last of a
        # repeated flag, a negative number as a value; --out defaults to out
        assert main(["solve", "--conf", config, "--iters=5", "--seed", "1", "--seed=4"]) == EXIT_OK
        assert main(["exp-noise", f"--config={config}", "--o", "sweep", "--jobs", "2",
                     "--j=3"]) == EXIT_OK
        assert main(["bounds", "--se", "0", "--config", config, "--out=b", "--i", "0"]) == EXIT_OK
        assert driver_calls == [("run_solve", 4, 5, "out", {}),
                                ("run_noise", 3, 60, "sweep", {"jobs": 3}),
                                ("run_bounds", 0, 0, "b", {})]
        assert sorted(os.listdir()) == ["b", "out", "sweep"]

    @pytest.mark.parametrize("command,driver", zip(COMMANDS, ("run_solve", "run_lambda_t",
                                                              "run_t_a", "run_noise",
                                                              "run_bounds")))
    def test_each_command_runs_its_driver(self, config, driver_calls, command, driver):
        # looked up when the command runs: the replaced driver is the one run,
        # and exp-noise alone passes --jobs, 1 by default
        assert main([command, "--config", config]) == EXIT_OK
        assert driver_calls == [(driver, 3, 60, "out",
                                 {"jobs": 1} if command == "exp-noise" else {})]
