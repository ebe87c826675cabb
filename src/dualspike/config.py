"""Plain-text key=value experiment configuration.

Recognized keys (comma-separated lists where plural):

    sources, amplitudes        spike locations / weights (required)
    sigma                      kernel width (required)
    m | samples                equispaced sample count, or explicit samples
    tau                        dual box radius          (default 1e5)
    pi                         penalty weight           (default 2*sum(amplitudes))
    alpha                      level interpolation      (default 0.25)
    iterations                 solve length             (default per command)
    reference_iterations       reference-solve length   (default per command)
    seed                       base RNG seed            (default 0)
    window_start, window_end   ratio-experiment window  (default 20, 270)
    noise_grid                 optional sweep override

Lines starting with '#' and blank lines are ignored.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .kernel import Kernel
from .model import SampleGrid, SourceModel


@dataclass
class ExperimentConfig:
    sources: np.ndarray
    amplitudes: np.ndarray
    sigma: float
    samples: np.ndarray
    tau: float = 1e5
    pi: float = 0.0
    alpha: float = 0.25
    iterations: int | None = None
    reference_iterations: int | None = None
    seed: int = 0
    window_start: int = 20
    window_end: int = 270
    noise_grid: np.ndarray | None = None
    digest: str = field(default="", repr=False)

    def source_model(self) -> SourceModel:
        return SourceModel(self.sources, self.amplitudes)

    def sample_grid(self) -> SampleGrid:
        return SampleGrid(self.samples)

    def kernel(self) -> Kernel:
        return Kernel(self.sigma)


def _parse_float(raw, key):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {raw!r}", key=key) from None


def _parse_int(raw, key):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {raw!r}", key=key) from None


def _parse_floats(raw, key):
    try:
        return np.array([float(v) for v in raw.split(",") if v.strip() != ""])
    except ValueError:
        raise ConfigError(f"key '{key}': expected comma-separated numbers, got {raw!r}",
                          key=key) from None


_OPTIONAL_KEYS = {
    "tau": _parse_float, "pi": _parse_float, "alpha": _parse_float,
    "iterations": _parse_int, "reference_iterations": _parse_int, "seed": _parse_int,
    "window_start": _parse_int, "window_end": _parse_int, "noise_grid": _parse_floats,
}
_KNOWN_KEYS = {"sources", "amplitudes", "sigma", "m", "samples", *_OPTIONAL_KEYS}


def parse_config(text: str) -> ExperimentConfig:
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip().lower()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key '{key}'", key=key)
        if key in pairs:
            raise ConfigError(f"duplicate key '{key}'", key=key)
        pairs[key] = raw.strip()

    for required in ("sources", "amplitudes", "sigma"):
        if required not in pairs:
            raise ConfigError(f"missing required key '{required}'", key=required)
    sources = _parse_floats(pairs["sources"], "sources")
    amplitudes = _parse_floats(pairs["amplitudes"], "amplitudes")
    sigma = _parse_float(pairs["sigma"], "sigma")

    if "samples" in pairs and "m" in pairs:
        raise ConfigError("give either 'm' or 'samples', not both", key="samples")
    if "samples" in pairs:
        samples = _parse_floats(pairs["samples"], "samples")
    elif "m" in pairs:
        m = _parse_int(pairs["m"], "m")
        if m < 2:
            raise ConfigError("key 'm': need at least 2 samples", key="m")
        samples = np.linspace(0.0, 1.0, m)
    else:
        raise ConfigError("missing required key 'm' (or 'samples')", key="m")

    # absent keys take the ExperimentConfig defaults, except pi's computed one
    optional = {key: parse(pairs[key], key)
                for key, parse in _OPTIONAL_KEYS.items() if key in pairs}
    optional.setdefault("pi", 2.0 * float(np.sum(amplitudes)))
    cfg = ExperimentConfig(sources=sources, amplitudes=amplitudes, sigma=sigma, samples=samples,
                           digest=hashlib.sha256(text.encode()).hexdigest()[:12], **optional)

    # cross-field checks route through the domain constructors
    try:
        cfg.source_model()
    except ValueError as exc:
        raise ConfigError(f"key 'sources': {exc}", key="sources") from None
    try:
        cfg.sample_grid()
    except ValueError as exc:
        raise ConfigError(f"key 'samples': {exc}", key="samples") from None
    try:
        cfg.kernel()
    except ValueError as exc:
        raise ConfigError(f"key 'sigma': {exc}", key="sigma") from None
    if not cfg.tau > 0:
        raise ConfigError("key 'tau': must be positive", key="tau")
    if not cfg.pi > 0:
        raise ConfigError("key 'pi': must be positive", key="pi")
    if not 0.0 < cfg.alpha < 1.0:
        raise ConfigError("key 'alpha': must lie strictly between 0 and 1", key="alpha")
    if cfg.window_start < 1 or cfg.window_end < cfg.window_start:
        raise ConfigError("key 'window_start': need 1 <= window_start <= window_end",
                          key="window_start")
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
