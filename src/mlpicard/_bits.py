"""Counter-based raw bit generation (Philox-4x32, 10 rounds).

Each lane is identified by a 128-bit state (two uint64 words): the
first word keys the generator, the second fills the upper counter
words, and the block index occupies the lower counter words.  One block
yields 128 bits, i.e. two doubles.  Distinct states therefore own
disjoint, order-independent streams, and any block is addressable in
O(1) -- no sequential state to advance, which is what makes the whole
sampler reproducible under batching and threading.

A small C kernel, compiled at import by the system ``cc`` into
``__pycache__`` (later imports load the cached library), does the heavy
lifting; ``ctypes`` releases the GIL around it, so replication threads
overlap.  Without a compiler or a writable cache the numpy pipeline runs
instead; its output is bit-identical and the tests use it as reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

__all__ = ["uniforms_from_states", "HAVE_NUMBA"]

_MASK32 = np.uint64(0xFFFFFFFF)
_MUL_HI = np.uint64(0xD2511F53)
_MUL_LO = np.uint64(0xCD9E8D57)
_WEYL_0 = np.uint64(0x9E3779B9)
_WEYL_1 = np.uint64(0xBB67AE85)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_INV53 = 2.0**-53

# numba is no longer used (the compiled kernel below replaced it); the
# flag stays because the benchmark's machine record reads it.
HAVE_NUMBA = False


def _uniforms_numpy(h0: np.ndarray, h1: np.ndarray, n_vals: int) -> np.ndarray:
    """Vectorized reference pipeline; bit-identical to the compiled kernel."""
    n_blocks = (n_vals + 1) // 2
    pos = np.arange(n_blocks, dtype=np.uint64)
    c0 = (pos & _MASK32)[None, :]
    c1 = (pos >> _S32)[None, :]
    c2 = (h1 & _MASK32)[:, None]
    c3 = (h1 >> _S32)[:, None]
    k0 = (h0 & _MASK32)[:, None]
    k1 = (h0 >> _S32)[:, None]
    for _ in range(10):
        p0 = _MUL_HI * c0
        p1 = _MUL_LO * c2
        c0 = (p1 >> _S32) ^ c1 ^ k0
        c1 = p1 & _MASK32
        c2 = (p0 >> _S32) ^ c3 ^ k1
        c3 = p0 & _MASK32
        k0 = (k0 + _WEYL_0) & _MASK32
        k1 = (k1 + _WEYL_1) & _MASK32
    word_a = (c0 << _S32) | c1
    word_b = (c2 << _S32) | c3
    out = np.empty((h0.shape[0], 2 * n_blocks))
    out[:, 0::2] = ((word_a >> _S11).astype(np.float64) + 0.5) * _INV53
    out[:, 1::2] = ((word_b >> _S11).astype(np.float64) + 0.5) * _INV53
    return out[:, :n_vals]


# The same rounds, constants and word-to-double map as _uniforms_numpy.
_C_SOURCE = r"""
#include <stdint.h>
void philox_uniforms(const uint64_t *h0, const uint64_t *h1, int64_t lanes, int64_t n_vals, double *out)
{
    for (int64_t lane = 0; lane < lanes; lane++, out += n_vals) {
        for (int64_t j = 0; j < n_vals; j += 2) {
            uint64_t pos = (uint64_t)j / 2;
            uint32_t c0 = (uint32_t)pos, c1 = (uint32_t)(pos >> 32), c2 = (uint32_t)h1[lane], c3 = (uint32_t)(h1[lane] >> 32);
            uint32_t k0 = (uint32_t)h0[lane], k1 = (uint32_t)(h0[lane] >> 32);
            for (int r = 0; r < 10; r++, k0 += 0x9E3779B9u, k1 += 0xBB67AE85u) {
                uint64_t p0 = (uint64_t)0xD2511F53u * c0, p1 = (uint64_t)0xCD9E8D57u * c2;
                c0 = (uint32_t)(p1 >> 32) ^ c1 ^ k0, c1 = (uint32_t)p1;
                c2 = (uint32_t)(p0 >> 32) ^ c3 ^ k1, c3 = (uint32_t)p0;
            }
            uint64_t a = ((uint64_t)c0 << 32) | c1, b = ((uint64_t)c2 << 32) | c3;
            out[j] = ((double)(a >> 11) + 0.5) * 0x1p-53;
            if (j + 1 < n_vals)
                out[j + 1] = ((double)(b >> 11) + 0.5) * 0x1p-53;
        }
    }
}
"""
_CC_FLAGS = ("-O2", "-shared", "-fPIC")


def _load_kernel(cache_dir: str):
    """The compiled ``philox_uniforms``, built into ``cache_dir`` on first use.

    Returns None when the compiler is missing or fails, or the directory
    cannot be written; the caller then uses the numpy pipeline.
    """
    tag = hashlib.sha256((_C_SOURCE + " ".join(_CC_FLAGS)).encode()).hexdigest()[:16]
    path = os.path.join(cache_dir, f"_philox-{tag}.so")
    try:
        if not os.path.exists(path):
            os.makedirs(cache_dir, exist_ok=True)
            # build under a private name, then rename atomically, so a
            # concurrent build in another process never exposes a torn file
            fd, tmp = tempfile.mkstemp(prefix="_philox-", suffix=".tmp", dir=cache_dir)
            os.close(fd)
            try:
                cmd = ["cc", *_CC_FLAGS, "-x", "c", "-", "-o", tmp]
                subprocess.run(cmd, input=_C_SOURCE.encode(), capture_output=True, check=True, timeout=120)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        kernel = ctypes.CDLL(path).philox_uniforms
    except (OSError, subprocess.SubprocessError):
        return None
    kernel.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
    kernel.restype = None
    return kernel


_KERNEL = _load_kernel(os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__"))


def uniforms_from_states(h0: np.ndarray, h1: np.ndarray, n_vals: int, *, force_numpy: bool = False) -> np.ndarray:
    """Per-lane uniforms in the open interval (0, 1).

    Parameters
    ----------
    h0, h1 : np.ndarray
        uint64 state words, any common shape.
    n_vals : int
        Number of uniforms per lane.
    force_numpy : bool
        Use the numpy reference pipeline even when the kernel is loaded.

    Returns
    -------
    np.ndarray
        float64 array of shape ``h0.shape + (n_vals,)``.
    """
    if n_vals < 1:
        raise ValueError(f"need n_vals >= 1, got {n_vals}")
    shape = np.shape(h0)
    flat0 = np.ascontiguousarray(h0, dtype=np.uint64).reshape(-1)
    flat1 = np.ascontiguousarray(h1, dtype=np.uint64).reshape(-1)
    if flat0.shape != flat1.shape:
        raise ValueError("state words must have matching shapes")
    if _KERNEL is not None and not force_numpy:
        # contiguous uint64 inputs and float64 output, all referenced during the call
        out = np.empty((flat0.shape[0], n_vals))
        _KERNEL(flat0.ctypes.data, flat1.ctypes.data, flat0.shape[0], n_vals, out.ctypes.data)
    else:
        out = _uniforms_numpy(flat0, flat1, n_vals)
    return out.reshape(shape + (n_vals,))
