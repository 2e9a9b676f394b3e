"""Keyed, deterministic Brownian-increment source.

A multi-index -- a finite tuple of signed integers -- labels one member
of a family of mutually independent Brownian motions.  The sampler is a
pure function of (seed, key, dimension, start, times): the key is folded
into a 128-bit lane state by a mixing chain, the state drives a
counter-based bit generator (:mod:`mlpicard._bits`), and uniforms are
mapped to Gaussians through the inverse normal CDF.  There are no
rejection loops and no sequential generator state, so results do not
depend on evaluation order, batching, or thread count.

The estimator asks for whole Brownian paths at once:
``_standard_normals`` with per-node scales returns the running sums of
scaled Gaussians, and ``_extend_state`` absorbs a chain of labels into
every state and then each of a batch of labels.  Each allocates its
output once and passes it, with the sizes, to one entry of the compiled
kernel of :mod:`mlpicard._bits` (``brownian_paths`` fuses bits, inverse
CDF, scaling and sum, and ``extend_states`` runs the whole absorb chain)
or, when the kernel did not load, to ``_NUMPY``: the numpy and scipy
references below, under the entry names, with the same arguments and bits.
Only these references call scipy (``ndtri``), which loads on first use,
so a process whose estimates run on the kernel never imports it.

Within one path the draw for (time rank j, coordinate c) sits at stream
position j * d + c.  Querying the same key with a prefix of a time list
therefore reproduces the same physical path; extending the list extends
the path.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import _bits
from ._bits import uniforms_from_states
from .errors import _check_integer, _check_real, _real_array

__all__ = [
    "MultiIndex",
    "PathIncrements",
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


def _extend_numpy(h0, h1, chain, labels, out: np.ndarray, A: int, C: int) -> None:
    """Reference for the kernel's ``extend_states``: state a * C + c absorbs ``chain``, then label l into
    word (a * len(labels) + l) * C + c of out[0] and out[1]."""
    h0, h1 = np.reshape(h0, (A, 1, C)), np.reshape(h1, (A, 1, C))
    for label in (*chain, np.reshape(labels, (1, -1, 1))):
        v = np.asarray(label, dtype=np.int64).astype(np.uint64)
        h0 = _mix64(h0 + (v * _GAMMA ^ _ABSORB_A))
        h1 = _mix64((h1 ^ h0) + _ABSORB_B)
    out.reshape(2, A, np.size(labels), C)[...] = h0, h1


def _extend_state(h0: np.ndarray, h1: np.ndarray, chain: np.ndarray, labels: np.ndarray, A: int = 1):
    """Every state absorbs the int64 ``chain`` in order, then each int64 label: two (A, len(labels), C) word arrays.

    The states form A blocks of C = h0.size // A, and word (a, l, c) is
    state a * C + c extended by label l.  A = 1 derives one batch of
    sibling keys, label-major over the states; A = h0.size gives each
    state its own run of labels.
    """
    out = np.empty((2, A, labels.size, h0.size // A), dtype=np.uint64)
    (_bits._KERNEL or _NUMPY).extend_states(h0, h1, chain, labels, out, A, out.shape[3])
    return out[0], out[1]


def state_for_key(seed: int, key: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Fold (seed, key) into shape-(1,) state words; seed an integer in [0, 2**64), key a sequence of int64 integers."""
    _check_integer("seed", seed, 0, _MASK64)
    h0, h1 = _root_state(seed)
    labels = np.array(_key("key", key), dtype=np.int64)
    words = _extend_state(h0, h1, labels[:-1], labels[-1:]) if labels.size else (h0, h1)
    return words[0].reshape(1), words[1].reshape(1)


def _key(name: str, labels: Sequence[int]) -> MultiIndex:
    """``labels`` as a tuple of Python ints; a ValueError names ``name`` or the label unless each is an int64.

    A key is a sequence or a 1-d array: an iterator read here would reach
    the caller's next use of the key empty, and a set or dict has no order.
    """
    if not (isinstance(labels, Sequence) or (isinstance(labels, np.ndarray) and labels.ndim == 1)):
        raise ValueError(f"{name} must be a sequence of integers, got {labels!r}")
    for label in labels:
        _check_integer("multi-index label", label, -(2**63), 2**63 - 1)
    return tuple(int(label) for label in labels)


def ndtri(u, *out):
    """scipy's inverse normal CDF, imported on first use: only the numpy references call it."""
    from scipy.special import ndtri as scipy_ndtri

    return scipy_ndtri(u, *out)


def _paths_numpy(h0, h1, scales, out: np.ndarray, B: int, Q: int, d: int) -> None:
    """Reference for the kernel's ``brownian_paths``, same arguments: bits, ndtri, scaling and sum as numpy passes."""
    z = ndtri(uniforms_from_states(h0, h1, Q * d)).reshape(-1, B, Q, d)
    np.cumsum(z * np.reshape(scales, (B, Q, 1)), axis=2, out=out.reshape(z.shape))


# ndtri_array and units_from_words, stages of brownian_paths no estimate calls alone: scipy's ndtri, the word map
_NUMPY = types.SimpleNamespace(brownian_paths=_paths_numpy, extend_states=_extend_numpy, ndtri_array=ndtri,
                               units_from_words=_bits._units_numpy)


def _standard_normals(h0: np.ndarray, h1: np.ndarray, d: int, scales: np.ndarray) -> np.ndarray:
    """Scaled running sums of N(0, 1) draws, shape ``h0.shape + (Q * d,)``.

    ``scales`` is a C-contiguous float array of shape (Q,), or (B, Q)
    with a lane count that is a multiple of B.  A lane's draws form Q
    rows of d, and the result holds their running sums over rows after
    row j is multiplied by ``scales[lane % B, j]``: the Brownian
    displacements at Q times when the scales are the square roots of
    the time steps.
    """
    Q = scales.shape[-1]
    out = np.empty(h0.shape + (Q * d,))
    (_bits._KERNEL or _NUMPY).brownian_paths(h0, h1, scales, out, scales.size // Q, Q, d)
    return out


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


def sample_path(seed: int, key: Sequence[int], dimension: int, start: float, times: Sequence[float]) -> PathIncrements:
    """The Brownian path labelled by (64-bit seed, key) in dimension d >= 1, anchored at ``start``.

    ``times`` are strictly increasing and all greater than ``start``; the
    result is a deterministic function of all arguments.
    """
    _check_integer("dimension", dimension, 1)
    start = _check_real("start", start)
    t = _real_array("times", times)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("times must be strictly increasing")
    if not t[0] > start:
        raise ValueError(f"all times must exceed start={start}, got first time {t[0]}")

    h0, h1 = state_for_key(seed, key)
    z = _standard_normals(h0, h1, t.size * dimension, np.ones(1))[0].reshape(t.size, dimension)
    dt = np.diff(t, prepend=start)
    increments = z * np.sqrt(dt)[:, None]
    return PathIncrements(dimension=dimension, start=start, times=t, increments=increments)
