"""Scenario configuration, the array-response kernel and the angle draw.

The BS array is a uniform linear array whose steering vector a(phi) has
entries exp(-j pi k phi) / sqrt(N_BS), k = 0..N_BS-1, at half-wavelength
spacing. Angle conventions: configurations use physical degrees; the
normalized angle is sin(physical), so it lives in [-1, 1]. Misalignment
offsets are drawn in physical degrees and added before normalization.
Channel gains are configured in dB with |beta|^2 = 10^(dB/10) and phase 0.

Random draws come from a stateless counter hash (SplitMix64) of the key
(seed, trial, cluster, user), so any block of trials is drawn at once and
every draw is independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import UnionType
from typing import get_args, get_type_hints

import numpy as np

from .errors import ConfigError

CACHE_SIZE = 64  # configurations whose per-configuration arrays are kept
_type_hints = lru_cache(maxsize=None)(get_type_hints)  # evaluating annotations takes 0.2 ms


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster: beam AoD and per-user gains in dB, held as floats so equal ones hash equal."""

    aod_deg: float
    gains_db: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "aod_deg", *_floats([self.aod_deg]))
        object.__setattr__(self, "gains_db", _floats(self.gains_db))


@dataclass(frozen=True)
class ScenarioConfig:
    """Experiment-facing scenario description (angles in degrees, gains in dB)."""

    clusters: tuple[ClusterSpec, ...]
    n_bs: int = 32
    n_ue: int = 8
    misalign_deg: float = 0.0
    snr_db: float = 10.0


def _reduced_ratio(delta, n_elements: int) -> tuple[np.ndarray, ...]:
    """k, pi r / 2, sin(n pi r / 2) / (n sin(pi r / 2)) of the exact split delta = 2 k + r, |r| <= 1."""
    k = np.round(0.5 * np.atleast_1d(delta))
    half = delta - 2.0 * k  # r
    half *= 0.5 * math.pi
    denom = np.sin(half)
    aligned = denom == 0.0
    denom[aligned] = 1.0
    denom *= n_elements
    ratio = np.multiply(half, n_elements)
    np.sin(ratio, out=ratio)
    ratio /= denom
    ratio[aligned] = 1.0
    return k, half, ratio


def dirichlet_kernel(delta, n_elements: int) -> np.ndarray:
    """Complex inner product a^H(phi) a(phi + delta) of n-element steering vectors.

    Elementwise over delta (at least 1-D), of period 2 in delta: exp(-j pi (n-1) r / 2)
    times the ratio, with r and the ratio of _reduced_ratio(delta).
    """
    _, half, ratio = _reduced_ratio(delta, n_elements)
    half *= n_elements - 1
    out = np.empty(half.shape, dtype=np.complex128)
    np.cos(half, out=out.real)
    np.sin(half, out=out.imag)
    np.negative(out.imag, out=out.imag)  # exp(-j (n-1) pi r / 2)
    out *= ratio
    return out


def centred_kernel(delta, n_elements: int) -> np.ndarray:
    """Real g(delta) = sin(n pi delta / 2) / (n sin(pi delta / 2)): the kernel of the centred array.

    a^H(phi) a(phi + delta) = psi(phi + delta) conj(psi(phi)) g(delta), psi(phi) =
    exp(-j pi (n-1) phi / 2); g = (-1)^((n-1) k) ratio with k, ratio of _reduced_ratio(delta).
    """
    k, _, ratio = _reduced_ratio(delta, n_elements)
    if n_elements % 2 == 0:  # k is odd where round(k / 2) != k / 2: a third of np.fmod's time
        k *= 0.5
        np.negative(ratio, out=ratio, where=np.round(k) != k)
    return ratio


def gain_db_to_beta(gain_db: float) -> complex:
    """Linear channel gain with |beta|^2 = 10^(dB/10), phase 0."""
    return complex(10.0 ** (gain_db / 20.0), 0.0)


def _db_to_linear(value_db: float, name: str) -> float:
    """10^(value_db / 10); ConfigError naming the field if value_db or that is no finite float."""
    if not _finite_real(value_db):
        raise ConfigError(f"{name} must be finite, got {value_db}")
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ConfigError(f"{name} {value_db} dB overflows a float on the linear scale") from None


def _real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and type(value) is not bool


def _finite_real(value) -> bool:
    try:
        return _real(value) and math.isfinite(value)
    except OverflowError:  # an int past the float range, which float() cannot convert either
        return False


def _floats(values) -> tuple | None:
    """values as floats in a tuple; any entry but a finite real stays, for _check_fields to name."""
    return None if values is None else tuple(float(v) if _finite_real(v) else v for v in values)


def _check_fields(obj) -> None:
    """Raise ConfigError for a non-finite number in a field of obj, or a field of the wrong type."""
    # NaN or inf ends in NaN rates or a numpy error, 8.0 in a TypeError, "10" dB in one late;
    # True would count as 1 and "no" as true. A float field or entry takes any real number but a bool
    for name, hint in _type_hints(type(obj)).items():
        value = getattr(obj, name)
        kinds = get_args(hint) if isinstance(hint, UnionType) else (hint,)
        floats = (value,) if _real(value) else ()
        if tuple[float, ...] in kinds and isinstance(value, tuple):  # a cluster has its own check
            if not all(map(_real, value)):
                raise ConfigError(f"{name} entries must be real numbers, got {value!r}")
            floats = value
        if not all(map(_finite_real, floats)):
            raise ConfigError(f"{name} must be finite, got {value}")
        for kind in {int, float, bool, str}.intersection(kinds):
            if type(value) not in kinds and not (kind is float and _real(value)):  # None if optional
                article = "an" if kind is int else "a"
                raise ConfigError(f"{name} must be {article} {kind.__name__}, got {value!r}")


def validate_config(cfg: ScenarioConfig) -> None:
    """Raise ConfigError for a value draws cannot be made from (overflow: see montecarlo._power)."""
    _check_fields(cfg)
    if not cfg.clusters:
        raise ConfigError("configuration has no clusters")
    if cfg.n_bs < 1 or cfg.n_ue < 1:
        raise ConfigError("antenna counts must be at least 1")
    if cfg.misalign_deg < 0:
        raise ConfigError(f"misalignment spread must be >= 0, got {cfg.misalign_deg}")
    for idx, cluster in enumerate(cfg.clusters, start=1):
        _check_fields(cluster)
        if len(cluster.gains_db) == 0:
            raise ConfigError(f"cluster {idx} has no users")
        if abs(cluster.aod_deg) >= 90.0:
            raise ConfigError(f"cluster {idx} AoD {cluster.aod_deg} deg outside (-90, 90)")
    _db_to_linear(max(max(cluster.gains_db) for cluster in cfg.clusters), "gains_db entry")


def first_user_index(gains_db) -> int:
    """Index of the strongest user (largest gain, ties to the lowest index)."""
    return max(range(len(gains_db)), key=gains_db.__getitem__)  # max keeps the first of ties


def counter_uniform(seed: int, trial, cluster, user) -> np.ndarray:
    """Uniform [0, 1) numbers from a stateless hash of the key (seed, trial, cluster, user).

    Each key part is folded into a SplitMix64 state in turn; the top 53 bits
    of the result give the uniform (Salmon et al., "Parallel Random
    Numbers: As Easy as 1, 2, 3", SC'11). trial, cluster and user are
    non-negative integers or integer arrays that broadcast together; the
    result has their broadcast shape (at least one dimension).
    """
    state = np.full(1, int(seed) & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    for part in (trial, cluster, user):
        state = _splitmix64(state) ^ np.asarray(part, dtype=np.uint64)
    return (_splitmix64(state) >> 11) * 2.0**-53


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x + 0x9E3779B97F4A7C15  # uint64 arithmetic wraps modulo 2^64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


@lru_cache(maxsize=CACHE_SIZE)
def _user_keys(clusters: tuple[ClusterSpec, ...]) -> tuple[np.ndarray, ...]:
    """0-based (cluster, user), base AoD and anchor mask of every user, in flat order."""
    sizes = [len(c.gains_db) for c in clusters]
    cluster = np.repeat(np.arange(len(clusters)), sizes)
    user = np.arange(len(cluster)) - np.cumsum([0] + sizes[:-1], dtype=np.int64)[cluster]
    first = np.array([first_user_index(c.gains_db) for c in clusters], dtype=np.int64)
    return cluster, user, np.repeat([c.aod_deg for c in clusters], sizes), user == first[cluster]


def user_angles(cfg: ScenarioConfig, seed: int, trials, spread=None) -> tuple[np.ndarray, ...]:
    """AoDs in degrees and normalized angles of every user for a block of trials.

    Both arrays are (len(trials), users) with users in flat order (cluster by
    cluster, configured order inside each). The strongest user of each
    cluster keeps the configured cluster AoD exactly; every other user's AoD
    is the cluster AoD plus an offset -b + 2 b u degrees, where the uniform
    u = counter_uniform(seed, trial, cluster, user) does not depend on b:
    b is cfg.misalign_deg, or spread[r] for row r when spread is given.
    """
    cluster, user, base, anchor = _user_keys(cfg.clusters)
    trials = np.asarray(trials, dtype=np.uint64).reshape(-1, 1)
    b = np.reshape(cfg.misalign_deg if spread is None else spread, (-1, 1))
    if not b.any():
        aod = np.broadcast_to(base, (len(trials), len(base)))
    else:
        u = counter_uniform(seed, trials, cluster, user)
        aod = np.where(anchor, base, base + (-b + 2.0 * b * u))
    return aod, np.sin(np.radians(aod))
