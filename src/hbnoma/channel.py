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
from typing import get_args, get_origin, get_type_hints

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
        _check_fields(self)


@dataclass(frozen=True)
class ScenarioConfig:
    """Experiment-facing scenario description (angles in degrees, gains in dB), valid once built."""

    clusters: tuple[ClusterSpec, ...]
    n_bs: int = 32
    n_ue: int = 8
    misalign_deg: float = 0.0
    snr_db: float = 10.0

    def __post_init__(self):
        _check_fields(self)
        if not self.clusters:
            raise ConfigError("configuration has no clusters", "clusters")
        if self.n_bs < 1 or self.n_ue < 1:
            raise ConfigError("antenna counts must be at least 1")
        if self.misalign_deg < 0:
            raise ConfigError(f"misalignment spread must be >= 0, got {self.misalign_deg}")
        for idx, cluster in enumerate(self.clusters, start=1):  # rules that name its index
            if type(cluster) is not ClusterSpec:
                raise ConfigError(f"cluster {idx} must be a ClusterSpec, got {cluster!r}")
            if not cluster.gains_db:
                raise ConfigError(f"cluster {idx} has no users", f"clusters.{idx - 1}.gains_db")
            if abs(cluster.aod_deg) >= 90.0:
                raise ConfigError(f"cluster {idx} AoD {cluster.aod_deg} deg outside (-90, 90)")
        _db_to_linear(max(max(cluster.gains_db) for cluster in self.clusters), "gains_db entry")
        _db_to_linear(self.snr_db, "snr_db")


def _reduced_ratio(
    delta: np.ndarray, n_elements: int, out: np.ndarray, denom: np.ndarray | None = None
) -> tuple | None:
    """Turn float64 delta, in place, into pi r / 2 of the exact split delta = 2 k + r, |r| <= 1.

    Writes the ratio sin(n pi r / 2) / (n sin(pi r / 2)) into out, which may be delta itself,
    and returns (wrapped, k): the mask of |delta| > 1 and k there, or None if no |delta| > 1.
    Elsewhere k = round(delta / 2) is +-0, so r is delta (up to a zero's sign, which the
    ratio's 1 at r = 0 hides). The denominator is computed in denom, an array of delta's shape,
    or in a new one if None.
    """
    split = None
    if delta.max(initial=0.0) > 1.0 or delta.min(initial=0.0) < -1.0:
        wrapped = (delta > 1.0) | (delta < -1.0)
        split = wrapped, np.round(0.5 * delta[wrapped])
        delta[wrapped] -= 2.0 * split[1]
    delta *= 0.5 * math.pi
    denom = np.sin(delta, out=denom)  # the one block-sized temporary, unless denom is given
    aligned = denom == 0.0
    denom[aligned] = 1.0
    denom *= n_elements
    np.multiply(delta, n_elements, out=out)
    np.sin(out, out=out)
    out /= denom
    out[aligned] = 1.0
    return split


def dirichlet_kernel(delta, n_elements: int) -> np.ndarray:
    """Complex inner product a^H(phi) a(phi + delta) of n-element steering vectors.

    Elementwise over delta (at least 1-D), of period 2 in delta: exp(-j pi (n-1) r / 2)
    times the ratio, with r and the ratio of _reduced_ratio(delta).
    """
    half = np.array(delta, dtype=np.float64, ndmin=1)  # a copy: the reduction works in place
    ratio = np.empty_like(half)
    _reduced_ratio(half, n_elements, ratio)
    half *= n_elements - 1
    out = np.empty(half.shape, dtype=np.complex128)
    np.cos(half, out=out.real)
    np.sin(half, out=out.imag)
    np.negative(out.imag, out=out.imag)  # exp(-j (n-1) pi r / 2)
    out *= ratio
    return out


def centred_kernel(delta, n_elements: int, denom: np.ndarray | None = None) -> np.ndarray:
    """Real g(delta) = sin(n pi delta / 2) / (n sin(pi delta / 2)): the kernel of the centred array.

    a^H(phi) a(phi + delta) = psi(phi + delta) conj(psi(phi)) g(delta), psi(phi) =
    exp(-j pi (n-1) phi / 2); g = (-1)^((n-1) k) ratio with k, ratio of _reduced_ratio(delta).
    Computed in delta's buffer: a float64 array delta is overwritten with g and returned. denom,
    if given, is the float64 buffer of delta's shape that the ratio's denominator takes.
    """
    g = np.atleast_1d(np.asarray(delta, dtype=np.float64))
    split = _reduced_ratio(g, n_elements, g, denom)
    if split is not None and n_elements % 2 == 0:  # k is odd where round(k / 2) != k / 2
        wrapped, k = split
        k *= 0.5
        g[wrapped] = np.where(np.round(k) != k, -g[wrapped], g[wrapped])
    return g


def gain_db_to_beta(gain_db: float) -> complex:
    """Linear channel gain with |beta|^2 = 10^(dB/10), phase 0."""
    return complex(10.0 ** (gain_db / 20.0), 0.0)


def _db_to_linear(value_db, name: str) -> float:
    """10^(value_db / 10) as a Python float; ConfigError naming the field if either is not finite."""
    if not _finite_real(value_db):
        raise ConfigError(f"{name} must be finite, got {value_db}")
    try:
        return 10.0 ** (float(value_db) / 10.0)  # a numpy float32 would plan the power in float32
    except OverflowError:
        raise ConfigError(f"{name} {value_db} dB overflows a float on the linear scale") from None


def _real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and type(value) is not bool


def _finite_real(value) -> bool:
    try:
        return _real(value) and math.isfinite(value)
    except OverflowError:  # an int past the float range, which float() cannot convert either
        return False


def _check_fields(obj) -> None:
    """Check each field of the dataclass obj against its annotation; ConfigError names a bad one.

    A float field or entry takes any finite real number but a bool, and holds it as a Python
    float; a float tuple also takes a list or array. Any other field takes its exact type (a
    tuple of clusters: a tuple). The error's field is the field, or its first bad entry.
    """
    # NaN or inf ends in NaN rates or a numpy error, 8.0 in a TypeError, "10" dB in one late;
    # True would count as 1 and "no" as true; a list of clusters fails in the layout cache's hash
    for name, hint in _type_hints(type(obj)).items():
        value = getattr(obj, name)
        kinds = get_args(hint) if isinstance(hint, UnionType) else (hint,)
        if value is None and type(None) in kinds:
            continue
        kind, floats = get_origin(kinds[0]) or kinds[0], kinds[0] == tuple[float, ...]
        if floats and isinstance(value, (list, np.ndarray)):
            value = tuple(value)
        if type(value) is not kind and not (kind is float and _real(value)):
            article = "an" if kind is int else "a"
            raise ConfigError(f"{name} must be {article} {kind.__name__}, got {value!r}", name)
        if floats or kind is float:
            entries = value if floats else (value,)
            held = tuple(float(v) for v in entries if _finite_real(v))
            if len(held) < len(entries):  # name the first entry that is no real, else no finite one
                shown = tuple(float(v) if _finite_real(v) else v for v in entries) if floats else value
                for rule, problem in ((_real, "entries must be real numbers, got {!r}"),
                                      (_finite_real, "must be finite, got {}")):
                    bad = [i for i, v in enumerate(entries) if not rule(v)]
                    if bad:
                        where = f"{name}.{bad[0]}" if floats else name
                        raise ConfigError(f"{name} {problem.format(shown)}", where)
            value = held if floats else held[0]
        object.__setattr__(obj, name, value)


def first_user_index(gains_db) -> int:
    """Index of the strongest user (largest gain, ties to the lowest index)."""
    return max(range(len(gains_db)), key=gains_db.__getitem__)  # max keeps the first of ties


# SplitMix64's increment and multipliers, as Python integers and as uint64 scalars, and its shifts
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U_GOLDEN, _U_MIX1, _U_MIX2, _U11, _U27, _U30, _U31 = (
    np.uint64(k) for k in (_GOLDEN, _MIX1, _MIX2, 11, 27, 30, 31)
)


def counter_uniform(seed: int, trial, cluster, user) -> np.ndarray:
    """Uniform [0, 1) numbers from a stateless hash of the key (seed, trial, cluster, user).

    Each key part is folded into a SplitMix64 state in turn; the top 53 bits
    of the result give the uniform (Salmon et al., "Parallel Random
    Numbers: As Easy as 1, 2, 3", SC'11). trial, cluster and user are
    non-negative integers or integer arrays that broadcast together; the
    result has their broadcast shape (at least one dimension).
    """
    s = (int(seed) + _GOLDEN) & _MASK64  # the seed's round, on Python integers
    s = ((s ^ (s >> 30)) * _MIX1) & _MASK64
    s = ((s ^ (s >> 27)) * _MIX2) & _MASK64
    state = np.uint64(s ^ (s >> 31))
    for part in (trial, cluster, user):
        # a new array of the broadcast shape, then a round in place
        state = _splitmix64(np.atleast_1d(state ^ np.asarray(part, dtype=np.uint64)))
    state >>= _U11
    return state * 2.0**-53


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One SplitMix64 round of a uint64 array, in place (uint64 arithmetic wraps modulo 2^64)."""
    tmp = np.empty_like(x)
    x += _U_GOLDEN
    x ^= np.right_shift(x, _U30, out=tmp)
    x *= _U_MIX1
    x ^= np.right_shift(x, _U27, out=tmp)
    x *= _U_MIX2
    x ^= np.right_shift(x, _U31, out=tmp)
    return x


@lru_cache(maxsize=CACHE_SIZE)
def _user_keys(clusters: tuple[ClusterSpec, ...]) -> tuple[np.ndarray, ...]:
    """0-based (cluster, user), base AoD and anchor mask of every user, in flat order, then
    (cluster, user) again as the uint64 keys of counter_uniform."""
    sizes = [len(c.gains_db) for c in clusters]
    cluster = np.repeat(np.arange(len(clusters)), sizes)
    user = np.arange(len(cluster)) - np.cumsum([0] + sizes[:-1], dtype=np.int64)[cluster]
    first = np.array([first_user_index(c.gains_db) for c in clusters], dtype=np.int64)
    keys = (cluster, user, np.repeat([c.aod_deg for c in clusters], sizes), user == first[cluster])
    keys += (cluster.astype(np.uint64), user.astype(np.uint64))
    for array in keys:
        array.flags.writeable = False
    return keys


def user_angles(cfg: ScenarioConfig, seed: int, trials, spread=None) -> tuple[np.ndarray, ...]:
    """AoDs in degrees and normalized angles of every user for a block of trials.

    Both arrays are (len(trials), users) with users in flat order (cluster by
    cluster, configured order inside each). The strongest user of each
    cluster keeps the configured cluster AoD exactly; every other user's AoD
    is the cluster AoD plus an offset -b + 2 b u degrees, where the uniform
    u = counter_uniform(seed, trial, cluster, user) does not depend on b:
    b is cfg.misalign_deg, or spread[r] for row r when spread is given.
    """
    _, _, base, anchor, cluster, user = _user_keys(cfg.clusters)
    trials = np.asarray(trials, dtype=np.uint64).reshape(-1, 1)
    b = np.reshape(cfg.misalign_deg if spread is None else spread, (-1, 1))
    if not b.any():
        aod = np.broadcast_to(base, (len(trials), len(base)))
    else:
        u = counter_uniform(seed, trials, cluster, user)
        aod = np.where(anchor, base, base + (-b + 2.0 * b * u))
    return aod, np.sin(np.radians(aod))
