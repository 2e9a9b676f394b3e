"""Keyed, deterministic Brownian-increment source.

A multi-index -- a finite tuple of signed integers -- labels one member
of a family of mutually independent Brownian motions.  The sampler is a
pure function of (seed, key, dimension, start, times): the key is folded
into a 128-bit lane state by a mixing chain, the state drives a
counter-based bit generator (:mod:`mlpicard._bits`), and uniforms are
mapped to Gaussians through the inverse normal CDF.  There are no
rejection loops and no sequential generator state, so results do not
depend on evaluation order, batching, or thread count.

Within one path the draw for (time rank j, coordinate c) sits at stream
position j * d + c.  Querying the same key with a prefix of a time list
therefore reproduces the same physical path; extending the list extends
the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np
from scipy.special import ndtri

from ._bits import uniforms_from_states

__all__ = [
    "MultiIndex",
    "PathIncrements",
    "derive_key",
    "sample_path",
    "state_for_key",
]

MultiIndex = Tuple[int, ...]

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_GAMMA2 = np.uint64((2 * 0x9E3779B97F4A7C15) & _MASK64)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_ABSORB_A = np.uint64(0xD1B54A32D192ED03)
_ABSORB_B = np.uint64(0x8CB92BA72F3D8DD7)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; bijective on uint64."""
    z = (z ^ (z >> _S30)) * _MIX_A
    z = (z ^ (z >> _S27)) * _MIX_B
    return z ^ (z >> _S31)


def _root_state(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """128-bit state for the empty key; shape-(1,) uint64 words."""
    s = np.full(1, int(seed), dtype=np.uint64)
    return _mix64(s + _GAMMA), _mix64(s + _GAMMA2)


def _extend_state(h0: np.ndarray, h1: np.ndarray, label) -> tuple[np.ndarray, np.ndarray]:
    """Absorb one signed integer label into the state.

    ``label`` may be a scalar or an integer array broadcastable against
    the state words; broadcasting is what lets a whole batch of sibling
    keys be derived in one call.
    """
    v = np.asarray(label, dtype=np.int64).astype(np.uint64)
    n0 = _mix64(h0 + (v * _GAMMA ^ _ABSORB_A))
    n1 = _mix64((h1 ^ n0) + _ABSORB_B)
    return n0, n1


def state_for_key(seed: int, key: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Fold (seed, key) into the shape-(1,) lane state words; seed in [0, 2**64)."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    h0, h1 = _root_state(seed)
    for label in key:
        h0, h1 = _extend_state(h0, h1, int(label))
    return h0, h1


def derive_key(parent: Sequence[int], extension: Sequence[int]) -> MultiIndex:
    """Child key: the parent's labels followed by the extension's labels."""
    out = tuple(parent) + tuple(extension)
    for label in out:
        if not isinstance(label, (int, np.integer)) or isinstance(label, bool):
            raise ValueError(f"multi-index labels must be integers, got {label!r}")
        if not -(2**63) <= label < 2**63:
            raise ValueError(f"multi-index labels must lie in [-2**63, 2**63), got {label}")
    return tuple(int(label) for label in out)


def _standard_normals(h0: np.ndarray, h1: np.ndarray, n_vals: int) -> np.ndarray:
    """n_vals independent N(0, 1) draws per lane, shape ``h0.shape + (n_vals,)``."""
    return ndtri(uniforms_from_states(h0, h1, n_vals))


@dataclass(frozen=True)
class PathIncrements:
    """Increments of one Brownian path observed at sorted times.

    ``increments[j]`` is W(times[j]) - W(times[j-1]) with times[-1]
    meaning the start time; each coordinate is N(0, times[j] - times[j-1]).
    """

    dimension: int
    start: float
    times: np.ndarray
    increments: np.ndarray

    def displacements(self) -> np.ndarray:
        """W(times[j]) - W(start) for every j, shape (len(times), dimension)."""
        return np.cumsum(self.increments, axis=0)


def sample_path(seed: int, key: Sequence[int], dimension: int, start: float, times: Sequence[float]) -> PathIncrements:
    """Sample one keyed Brownian path at the given times.

    Parameters
    ----------
    seed : int
        Global seed (64-bit).
    key : sequence of int
        Multi-index labelling the path.
    dimension : int
        Spatial dimension d >= 1.
    start : float
        Time the path is anchored at.
    times : sequence of float
        Strictly increasing observation times, all greater than ``start``.

    Returns
    -------
    PathIncrements
        Deterministic function of all arguments.
    """
    if dimension < 1:
        raise ValueError(f"need dimension >= 1, got {dimension}")
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(t)) or not np.isfinite(start):
        raise ValueError("start and times must be finite")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("times must be strictly increasing")
    if not t[0] > start:
        raise ValueError(f"all times must exceed start={start}, got first time {t[0]}")

    h0, h1 = state_for_key(seed, derive_key((), tuple(key)))
    z = _standard_normals(h0, h1, t.size * dimension)[0].reshape(t.size, dimension)
    dt = np.diff(t, prepend=start)
    increments = z * np.sqrt(dt)[:, None]
    return PathIncrements(dimension=dimension, start=float(start), times=t, increments=increments)
