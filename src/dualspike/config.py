"""Plain-text key=value experiment configuration.

Recognized keys (comma-separated lists where plural):

    sources, amplitudes        spike locations / weights (required)
    sigma                      kernel width (required, >= 2.5e-3: ten spacings
                               of the certificate's 4001-point scan)
    m | samples                equispaced sample count, or explicit samples
    tau                        dual box radius          (default 1e5)
    pi                         penalty weight           (default 2*sum(amplitudes))
    iterations                 solve length, >= 0       (default per command)
    seed                       base RNG seed, >= 0      (default 0)

Lines starting with '#' and blank lines are ignored.  Every number must be
finite: nan and inf are rejected.
"""

from dataclasses import dataclass, field

import numpy as np

from .certificate import min_kernel_width
from .errors import ConfigError
from .kernel import Kernel
from .model import SampleGrid, SourceModel

# the interpreter's built-in SHA-256, as random.py takes its SHA-512:
# hashlib maps OpenSSL, about 3.5 MB of every process, for one digest
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


@dataclass
class ExperimentConfig:
    sources: np.ndarray
    amplitudes: np.ndarray
    sigma: float
    samples: np.ndarray
    tau: float = 1e5
    pi: float = 0.0
    iterations: int | None = None
    seed: int = 0
    digest: str = field(default="", repr=False)

    def source_model(self) -> SourceModel:
        return SourceModel(self.sources, self.amplitudes)

    def sample_grid(self) -> SampleGrid:
        return SampleGrid(self.samples)

    def kernel(self) -> Kernel:
        return Kernel(self.sigma)


def _parse_float(raw, key):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"key '{key}': expected a finite number, got {raw!r}")
    return value


def _parse_int(raw, key):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {raw!r}") from None


def _parse_floats(raw, key):
    try:
        values = np.array([float(v) for v in raw.split(",") if v.strip() != ""])
    except ValueError:
        raise ConfigError(
            f"key '{key}': expected comma-separated numbers, got {raw!r}") from None
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"key '{key}': expected finite numbers, got {raw!r}")
    return values


_OPTIONAL_KEYS = {"tau": _parse_float, "pi": _parse_float, "iterations": _parse_int,
                  "seed": _parse_int}
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
            raise ConfigError(f"unknown key '{key}'")
        if key in pairs:
            raise ConfigError(f"duplicate key '{key}'")
        pairs[key] = raw.strip()

    for required in ("sources", "amplitudes", "sigma"):
        if required not in pairs:
            raise ConfigError(f"missing required key '{required}'")
    sources = _parse_floats(pairs["sources"], "sources")
    amplitudes = _parse_floats(pairs["amplitudes"], "amplitudes")
    sigma = _parse_float(pairs["sigma"], "sigma")

    if "samples" in pairs and "m" in pairs:
        raise ConfigError("give either 'm' or 'samples', not both")

    # absent keys take the ExperimentConfig defaults, except pi's computed one
    optional = {key: parse(pairs[key], key)
                for key, parse in _OPTIONAL_KEYS.items() if key in pairs}
    if "pi" not in optional:
        with np.errstate(over="ignore"):  # an infinite sum fails the pi check
            optional["pi"] = 2.0 * float(np.sum(amplitudes))

    # every scalar key is checked before the sample grid is allocated
    try:
        Kernel(sigma)
    except ValueError as exc:
        raise ConfigError(f"key 'sigma': {exc}") from None
    if sigma < min_kernel_width():
        raise ConfigError(f"key 'sigma': below {min_kernel_width():g}, the narrowest kernel "
                          "the certificate scan resolves")
    for key in ("seed", "iterations"):
        if key in optional:
            check_non_negative(key, optional[key])
    if "tau" in optional and not optional["tau"] > 0:
        raise ConfigError("key 'tau': must be positive")
    if not 0 < optional["pi"] < np.inf:
        raise ConfigError("key 'pi': must be positive and finite")

    if "samples" in pairs:
        samples = _parse_floats(pairs["samples"], "samples")
    elif "m" in pairs:
        m = _parse_int(pairs["m"], "m")
        if m < 2:
            raise ConfigError("key 'm': need at least 2 samples")
        samples = np.linspace(0.0, 1.0, m)
    else:
        raise ConfigError("missing required key 'm' (or 'samples')")
    cfg = ExperimentConfig(sources=sources, amplitudes=amplitudes, sigma=sigma, samples=samples,
                           digest=sha256(text.encode()).hexdigest()[:12], **optional)

    # cross-field checks route through the domain constructors
    try:
        cfg.source_model()
    except ValueError as exc:
        raise ConfigError(f"key 'sources': {exc}") from None
    try:
        cfg.sample_grid()
    except ValueError as exc:
        raise ConfigError(f"key 'samples': {exc}") from None
    return cfg


def check_non_negative(key, value):
    """Raise ConfigError for a negative seed (the package's seed sequence,
    ``model._seed_state``, rejects one) or iteration count, from the config or
    the command line."""
    if value < 0:
        raise ConfigError(f"key '{key}': must be non-negative, got {value}")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
