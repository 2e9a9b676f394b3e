"""Counter-based raw bits (Philox-4x32, 10 rounds) and the compiled sampler.

Each lane is identified by a 128-bit state (two uint64 words): the
first word keys the generator, the second fills the upper counter
words, and the block index occupies the lower counter words.  One block
yields 128 bits, i.e. two doubles.  Distinct states therefore own
disjoint, order-independent streams, and any block is addressable in
O(1) -- no sequential state to advance, which is what makes the whole
sampler reproducible under batching and threading.

One C source, compiled at import by the system ``cc`` against the
Python headers into a CPython extension module in ``__pycache__``
(later imports load the cached module; a build removes those it
replaces), holds the hot loops.  That module is ``_KERNEL``, whose
entries :mod:`mlpicard.randomness` and :mod:`mlpicard.mlp_core` call
directly; in each, a ``_NUMPY`` namespace of numpy references stands in
for it under the same entry names and arguments.  An entry takes its
inputs, the outputs its caller allocated and the sizes, checks each
buffer's item type, contiguity and length in C, and releases the GIL
around its loop, so that replication threads
overlap.  The kernel fuses the whole Gaussian path draw into passes over
chunks of 512 values: the Philox blocks of the chunk's lane segments in
one counted loop into a word buffer, the words to doubles, then the
inverse normal CDF -- a port of cephes ``ndtri`` (Moshier), which scipy
runs, evaluated as passes over arrays: the central rational for every
value, then the tail values (beyond exp(-2)) gathered and run through
``log``, ``sqrt``, ``log`` and the tail rationals -- and last the
per-node scaling and the running sum over nodes.  That driver is built
once per instruction set with GCC's ``target_clones`` (``avx512f``,
``avx2`` and ``default``) and the loader runs the first one the CPU
supports; ``kernel_isa`` names it.  A compiler or libc without the
attribute builds the default only.  The kernel also derives key states
(the SplitMix64 absorb chain of :mod:`mlpicard.randomness`): every state
absorbs one chain of labels and then each of a batch of labels, in one
call.  And it does the array work of a node group of
``mlp_core._mlp_batch``: it writes the group's shifted points x + dW as
one contiguous array, and it adds each node's weighted term into the
estimate, node by node, with numpy's operations, after summing f and
f * dW over the sample axis in numpy's order, as it also does for the
terminal term.
Every clone is built with ``-ffp-contract=off``, no fast-math and the
scalar libm ``log``, so no fused multiply-add or vector approximation
changes a rounding: every result is bit-identical to the numpy/scipy
references, which run instead when there is no compiler, no
``Python.h`` or no writable cache (``_FALLBACK_REASON`` says which),
and which one case table, ``selfcheck._kernel_cases``, compares against
under ``mlpicard selfcheck`` and the tests alike.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import re
import shutil
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
# the largest double below 1; the one word that would round to 1.0 maps here
_BELOW_ONE = 1.0 - 2.0**-53

# numba is no longer used (the compiled kernel below replaced it); the
# flag stays because the benchmark's machine record reads it.
HAVE_NUMBA = False


def _units_numpy(words: np.ndarray, out: np.ndarray) -> None:
    """Reference for the kernel's ``units_from_words``: the top 53 bits of each uint64 word as a double in (0, 1)."""
    np.minimum(((words >> _S11).astype(np.float64) + 0.5) * _INV53, _BELOW_ONE, out=out)


def uniforms_from_states(h0: np.ndarray, h1: np.ndarray, n_vals: int) -> np.ndarray:
    """Per-lane uniforms in the open interval (0, 1): the numpy reference pipeline.

    Parameters
    ----------
    h0, h1 : np.ndarray
        uint64 state words, any common shape.
    n_vals : int
        Number of uniforms per lane, at least 1.

    Returns
    -------
    np.ndarray
        float64 array of shape ``h0.shape + (n_vals,)``.
    """
    shape = h0.shape + (n_vals,)
    h0, h1 = h0.reshape(-1, 1), h1.reshape(-1, 1)
    n_blocks = (n_vals + 1) // 2
    pos = np.arange(n_blocks, dtype=np.uint64)
    c0 = (pos & _MASK32)[None, :]
    c1 = (pos >> _S32)[None, :]
    c2 = h1 & _MASK32
    c3 = h1 >> _S32
    k0 = h0 & _MASK32
    k1 = h0 >> _S32
    for _ in range(10):
        p0 = _MUL_HI * c0
        p1 = _MUL_LO * c2
        c0 = (p1 >> _S32) ^ c1 ^ k0
        c1 = p1 & _MASK32
        c2 = (p0 >> _S32) ^ c3 ^ k1
        c3 = p0 & _MASK32
        k0 = (k0 + _WEYL_0) & _MASK32
        k1 = (k1 + _WEYL_1) & _MASK32
    out = np.empty((h0.size, 2 * n_blocks))
    _units_numpy((c0 << _S32) | c1, out[:, 0::2])
    _units_numpy((c2 << _S32) | c3, out[:, 1::2])
    return out[:, :n_vals].reshape(shape)


# The same rounds, constants and word-to-double map as uniforms_from_states,
# the cephes ndtri coefficients and branches as scipy.special.ndtri, and
# the absorb chain of randomness._extend_state.
_C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif

/* the clone that the loader's resolver picks: the first in CLONES the CPU supports */
#ifdef CLONES
const char *kernel_isa(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") ? "avx512f" : __builtin_cpu_supports("avx2") ? "avx2" : "default";
}
#else
#define CLONES
const char *kernel_isa(void) { return "default"; }
#endif

#ifdef __GNUC__
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

enum { CHUNK = 512 };

/* words 2j and 2j + 1 of w are block ctr[j] of the lane keyed (h0[j], h1[j]), j < n */
INLINE void philox_blocks(const uint64_t *h0, const uint64_t *h1, const uint64_t *ctr, int64_t n, uint64_t *w)
{
    for (int64_t j = 0; j < n; j++) {
        uint32_t c0 = (uint32_t)ctr[j], c1 = (uint32_t)(ctr[j] >> 32), c2 = (uint32_t)h1[j], c3 = (uint32_t)(h1[j] >> 32);
        uint32_t k0 = (uint32_t)h0[j], k1 = (uint32_t)(h0[j] >> 32);
        for (int r = 0; r < 10; r++, k0 += 0x9E3779B9u, k1 += 0xBB67AE85u) {
            uint64_t p0 = (uint64_t)0xD2511F53u * c0, p1 = (uint64_t)0xCD9E8D57u * c2;
            c0 = (uint32_t)(p1 >> 32) ^ c1 ^ k0, c1 = (uint32_t)p1;
            c2 = (uint32_t)(p0 >> 32) ^ c3 ^ k1, c3 = (uint32_t)p0;
        }
        w[2 * j] = ((uint64_t)c0 << 32) | c1, w[2 * j + 1] = ((uint64_t)c2 << 32) | c3;
    }
}

/* the top 53 bits as a double in (0, 1), converted exactly as two 32-bit halves,
   which vectorize where a 64-bit integer conversion does not */
INLINE double unit(uint64_t w)
{
    double u = ((double)(int32_t)(w >> 43) * 0x1p32 + ((double)(int32_t)((uint32_t)(w >> 11) ^ 0x80000000u) + 0x1p31) + 0.5) * 0x1p-53;
    return u < 1.0 ? u : 1.0 - 0x1p-53;
}

void units_from_words(const uint64_t *w, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = unit(w[i]);
}

static const double P0[5] = {-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
                             1.39312609387279679503E1, -1.23916583867381258016E0};
static const double Q0[8] = {1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
                             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
                             1.59056225126211695515E1, -1.18331621121330003142E0};
static const double P1[9] = {4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
                             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
                             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4};
static const double Q1[8] = {1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
                             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
                             -3.80806407691578277194E-2, -9.33259480895457427372E-4};
static const double P2[9] = {3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
                             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
                             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9};
static const double Q2[8] = {6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
                             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
                             2.89247864745380683936E-6, 6.79019408009981274425E-9};
static const double S2PI = 2.50662827463100050242E0, EXPM2 = 0.13533528323661269189;

INLINE double polevl(double x, const double *c, int n)
{
    double a = *c++;
    while (n--)
        a = a * x + *c++;
    return a;
}

INLINE double p1evl(double x, const double *c, int n)
{
    double a = x + *c++;
    while (--n)
        a = a * x + *c++;
    return a;
}

INLINE double central(double y)
{
    y = y - 0.5;
    double y2 = y * y;
    return (y + y * (y2 * polevl(y2, P0, 4) / p1evl(y2, Q0, 8))) * S2PI;
}

/* z = ndtri(u) for n <= CHUNK values, cephes' branches as passes over arrays:
   the central rational for every value; the tail values (u <= exp(-2), or 1 - u
   for u > 1 - exp(-2)) gathered with their places and signs; then log, sqrt,
   log and the tail rationals, each over all gathered values.  A u of 0 or 1
   gives an infinity, one outside [0, 1] NaN, as cephes' early returns do. */
INLINE void ndtri_chunk(const double *u, int64_t n, double *z)
{
    double y[CHUNK], x[CHUNK], l[CHUNK];
    int64_t at[CHUNK], tail[CHUNK], m = 0;
    for (int64_t i = 0; i < n; i++)
        z[i] = central(u[i]);
    for (int64_t i = 0; i < n; i++)
        tail[i] = !((u[i] > EXPM2) & (u[i] <= 1.0 - EXPM2));
    for (int64_t i = 0; i < n; i++)
        at[m] = i, m += tail[i];
    for (int64_t j = 0; j < m; j++) {
        int upper = u[at[j]] > 1.0 - EXPM2;
        y[j] = upper ? 1.0 - u[at[j]] : u[at[j]], at[j] = upper ? at[j] : ~at[j];
    }
    for (int64_t j = 0; j < m; j++)
        l[j] = log(y[j]);
    for (int64_t j = 0; j < m; j++)
        x[j] = sqrt(-2.0 * l[j]);
    for (int64_t j = 0; j < m; j++)
        l[j] = log(x[j]);
    for (int64_t j = 0; j < m; j++) {
        double r = 1.0 / x[j];
        r = x[j] < 8.0 ? r * polevl(r, P1, 8) / p1evl(r, Q1, 8) : r * polevl(r, P2, 8) / p1evl(r, Q2, 8);
        r = y[j] == 0.0 ? INFINITY : x[j] - l[j] / x[j] - r;
        z[at[j] < 0 ? ~at[j] : at[j]] = y[j] < 0.0 ? NAN : at[j] < 0 ? -r : r;
    }
}

CLONES void ndtri_array(const double *u, int64_t n, double *z)
{
    for (int64_t start = 0; start < n; start += CHUNK)
        ndtri_chunk(u + start, n - start < CHUNK ? n - start : CHUNK, z + start);
}

/* out[lane, k, c] = sum over j <= k of ndtri(u[lane, j * d + c]) * scales[lane % B, j]; per chunk of
   CHUNK values: the Philox blocks of the chunk's lane segments in one loop, their words to uniforms,
   ndtri, then the scaling and the running sum */
CLONES void brownian_paths(const uint64_t *h0, const uint64_t *h1, int64_t lanes, int64_t Q, int64_t d,
                           const double *scales, int64_t B, double *out)
{
    /* every block holds a value of the chunk, so a chunk has at most CHUNK blocks */
    uint64_t key0[CHUNK], key1[CHUNK], ctr[CHUNK], words[2 * CHUNK];
    double u[CHUNK];
    int64_t n_vals = Q * d, total = lanes * n_vals, b = 0, k = 0, c = 0;
    for (int64_t start = 0; start < total; start += CHUNK) {
        int64_t n = total - start < CHUNK ? total - start : CHUNK, nb = 0, len;
        double *z = out + start;
        /* the chunk holds value p.. of its first lane, then whole lanes, then a first part */
        for (int64_t i = 0, lane = start / n_vals, p = start % n_vals; i < n; i += len, lane++, p = 0) {
            len = n_vals - p < n - i ? n_vals - p : n - i;
            for (int64_t blk = p / 2; blk < (p + len + 1) / 2; blk++)
                key0[nb] = h0[lane], key1[nb] = h1[lane], ctr[nb++] = (uint64_t)blk;
        }
        philox_blocks(key0, key1, ctr, nb, words);
        /* a segment's value p sits at word p % 2 of its first block */
        for (int64_t i = 0, w = 0, p = start % n_vals; i < n; i += len, p = 0) {
            len = n_vals - p < n - i ? n_vals - p : n - i;
            for (int64_t j = 0; j < len; j++)
                u[i + j] = unit(words[w + p % 2 + j]);
            w += 2 * ((p + len + 1) / 2 - p / 2);
        }
        ndtri_chunk(u, n, z);
        for (int64_t i = 0; i < n; i++) {
            double v = z[i] * scales[b * Q + k];
            z[i] = k ? z[i - d] + v : v;
            if (++c == d) {
                c = 0;
                if (++k == Q)
                    k = 0, b = b + 1 == B ? 0 : b + 1;
            }
        }
    }
}

/* sf[b - b0, j] = sum over i of f[i, b, j] and sfw[b - b0, j, c] = sum over i of f[i, b, j] * dw[i, b, k0 + j, c]
   for lanes b0 <= b < b1, f of shape (m, B, g) and dw of shape (m, B, Q, d): added in order of i, starting
   from 0.0 as numpy's reduction does when B (for sf) or B * d (for sfw) exceeds 1, and from the first term,
   as its cumsum does, otherwise (-0.0 + v == v for every v) */
INLINE void lane_sums(const double *f, const double *dw, int64_t m, int64_t B, int64_t g, int64_t Q, int64_t d,
                      int64_t k0, int64_t b0, int64_t b1, double *sf, double *sfw)
{
    double zf = B > 1 ? 0.0 : -0.0, zw = B * d > 1 ? 0.0 : -0.0;
    for (int64_t j = 0; j < (b1 - b0) * g; j++)
        sf[j] = zf;
    for (int64_t j = 0; j < (b1 - b0) * g * d; j++)
        sfw[j] = zw;
    for (int64_t i = 0; i < m; i++)
        for (int64_t b = b0; b < b1; b++) {
            const double *fi = f + (i * B + b) * g, *wi = dw + ((i * B + b) * Q + k0) * d;
            double *sfb = sf + (b - b0) * g, *swb = sfw + (b - b0) * g * d;
            for (int64_t j = 0; j < g; j++) {
                sfb[j] += fi[j];
                for (int64_t c = 0; c < d; c++)
                    swb[j * d + c] += fi[j] * wi[j * d + c];
            }
        }
}

/* sf[b] = sum over i of f[i, b] and sfw[b, c] = sum over i of f[i, b] * dw[i, b, c], f (m, B) and dw (m, B, d) */
void node_sums(const double *f, const double *dw, int64_t m, int64_t B, int64_t d, double *sf, double *sfw)
{
    lane_sums(f, dw, m, B, 1, 1, d, 0, 0, B, sf, sfw);
}

/* row (i * B + b) * g + j of y = x[b] + dw[i, b, k0 + j], for x (B, d) and dw (m, B, Q, d) */
void shifted_points(const double *x, const double *dw, int64_t m, int64_t B, int64_t Q, int64_t d, int64_t k0,
                    int64_t g, double *y)
{
    for (int64_t i = 0; i < m * B; i++)
        for (int64_t j = 0; j < g * d; j += d)
            for (int64_t c = 0; c < d; c++)
                *y++ = x[i % B * d + c] + dw[(i * Q + k0) * d + j + c];
}

/* out[b, 0] += w * sf[b, j] and out[b, 1 + c] += (w / (nodes[k] - s)) * sfw[b, j, c], w = weights[k] / m, for
   k = k0 + j in order, with the sums of lane_sums taken lane by lane: numpy's operations.  weights and nodes
   are (Q,) and s (1,), or (B, Q) and (B,) with lane = 1.  Returns -1 if the sums cannot be allocated. */
int node_terms(const double *f, const double *dw, int64_t m, int64_t B, int64_t g, int64_t Q, int64_t d, int64_t k0,
               const double *weights, const double *nodes, const double *s, int64_t lane, double *out)
{
    double *sf = malloc(sizeof(double) * g * (d + 1)), *sfw = sf + g;
    if (!sf)
        return -1;
    for (int64_t b = 0; b < B; b++, out += d + 1) {
        lane_sums(f, dw, m, B, g, Q, d, k0, b, b + 1, sf, sfw);
        for (int64_t j = 0, k = lane * b * Q + k0; j < g; j++, k++) {
            double w = weights[k] / (double)m, r = w / (nodes[k] - s[lane * b]);
            out[0] += w * sf[j];
            for (int64_t c = 0; c < d; c++)
                out[1 + c] += r * sfw[j * d + c];
        }
    }
    free(sf);
    return 0;
}

static uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

static void absorb(uint64_t *h0, uint64_t *h1, int64_t label)
{
    *h0 = mix64(*h0 + ((uint64_t)label * 0x9E3779B97F4A7C15u ^ 0xD1B54A32D192ED03u));
    *h1 = mix64((*h1 ^ *h0) + 0x8CB92BA72F3D8DD7u);
}

/* state a * C + c absorbs chain[0..n_chain), then each label l of labels[0..n_labels)
   into word (a * n_labels + l) * C + c of out0 and out1, the two halves of one buffer */
void extend_states(const uint64_t *h0, const uint64_t *h1, int64_t A, int64_t C, const int64_t *chain,
                   int64_t n_chain, const int64_t *labels, int64_t n_labels, uint64_t *out0)
{
    uint64_t *out1 = out0 + A * n_labels * C;
    for (int64_t a = 0; a < A; a++)
        for (int64_t c = 0; c < C; c++) {
            uint64_t s0 = h0[a * C + c], s1 = h1[a * C + c];
            for (int64_t j = 0; j < n_chain; j++)
                absorb(&s0, &s1, chain[j]);
            for (int64_t l = 0; l < n_labels; l++) {
                uint64_t t0 = s0, t1 = s1;
                absorb(&t0, &t1, labels[l]);
                out0[(a * n_labels + l) * C + c] = t0, out1[(a * n_labels + l) * C + c] = t1;
            }
        }
}

/* The CPython binding.  Each entry takes its arrays through the buffer protocol and checks, before
   its loop runs, that each is C-contiguous, holds 8-byte items of the loop's type and has the length
   that the sizes given imply (and, for an output, that it is writable); the loop runs with the GIL
   released.  Sizes are integers in [0, 2^60), so no length product overflows. */

#define MAX_SIZE ((int64_t)1 << 60)
#define ANY ((Py_ssize_t)-1)
#define SIZES(...) ((const int64_t[]){__VA_ARGS__})
#define ENTRY(name) static PyObject *py_##name(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
#define UNLOCKED(call) do { Py_BEGIN_ALLOW_THREADS call; Py_END_ALLOW_THREADS } while (0)

/* the product of n sizes, or MAX_SIZE once it reaches that: a count no buffer holds */
static Py_ssize_t count(int n, const int64_t *dims)
{
    int64_t p = 1;
    for (int i = 0; i < n; i++)
        p = dims[i] && p >= MAX_SIZE / dims[i] ? MAX_SIZE : p * dims[i];
    return (Py_ssize_t)p;
}

static int arity(Py_ssize_t nargs, Py_ssize_t want, const char *entry)
{
    if (nargs != want)
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", entry, want, nargs);
    return nargs == want;
}

/* z[0..n) = args[0..n) as integers in [low, MAX_SIZE) */
static int sizes(PyObject *const *args, int n, int64_t low, int64_t *z, const char *what)
{
    for (int i = 0; i < n; i++) {
        long long v = PyLong_AsLongLong(args[i]);
        if (v == -1 && PyErr_Occurred())
            return 0;
        if (v < low || v >= MAX_SIZE) {
            PyErr_Format(PyExc_ValueError, "%s: size %lld is outside [%lld, 2^60)", what, v, (long long)low);
            return 0;
        }
        z[i] = v;
    }
    return 1;
}

/* *v = the buffer of obj as n (or ANY number of) items of type t: 'd' double, 'u' uint64, 'i' int64,
   upper case for a writable output.  On failure *v is released and an exception set. */
static int take(PyObject *obj, Py_buffer *v, char t, Py_ssize_t n, const char *what, const char *name)
{
    int output = t == 'D' || t == 'U';
    if (PyObject_GetBuffer(obj, v, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (output ? PyBUF_WRITABLE : 0)) < 0)
        return 0;
    const char *f = v->format ? v->format : "B", *codes = t == 'd' || t == 'D' ? "d" : t == 'i' ? "lq" : "LQ";
    f += *f == '@';
    if (v->itemsize != 8 || !f[0] || f[1] || !strchr(codes, f[0]))
        PyErr_Format(PyExc_TypeError, "%s: %s must hold %s items, got format '%s' of %zd bytes", what, name,
                     *codes == 'd' ? "float64" : *codes == 'l' ? "int64" : "uint64", f, v->itemsize);
    else if (n != ANY && v->len / 8 != n)
        PyErr_Format(PyExc_ValueError, "%s: %s holds %zd items, need %zd", what, name, v->len / 8, n);
    else
        return 1;
    PyBuffer_Release(v);
    return 0;
}

/* nodes k0..k0 + g - 1 lie among the Q nodes */
static int nodes_in(int64_t k0, int64_t g, int64_t Q, const char *what)
{
    if (k0 + g > Q)
        PyErr_Format(PyExc_ValueError, "%s: nodes %lld..%lld are not among Q=%lld", what, (long long)k0,
                     (long long)(k0 + g - 1), (long long)Q);
    return k0 + g <= Q;
}

static PyObject *finish(Py_buffer *v, int n, int ok)
{
    for (int i = 0; i < n; i++)
        PyBuffer_Release(v + i);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *py_kernel_isa(PyObject *self, PyObject *unused)
{
    return PyUnicode_FromString(kernel_isa());
}

/* units_from_words(words, out) */
ENTRY(units_from_words)
{
    const char *e = "cannot map words to units";
    Py_buffer v[2] = {{0}};
    int ok = arity(nargs, 2, "units_from_words") && take(args[0], v, 'u', ANY, e, "words")
             && take(args[1], v + 1, 'D', v[0].len / 8, e, "out");
    if (ok)
        UNLOCKED(units_from_words(v[0].buf, v[0].len / 8, v[1].buf));
    return finish(v, 2, ok);
}

/* ndtri_array(u, out) */
ENTRY(ndtri_array)
{
    const char *e = "cannot run ndtri";
    Py_buffer v[2] = {{0}};
    int ok = arity(nargs, 2, "ndtri_array") && take(args[0], v, 'd', ANY, e, "u")
             && take(args[1], v + 1, 'D', v[0].len / 8, e, "out");
    if (ok)
        UNLOCKED(ndtri_array(v[0].buf, v[0].len / 8, v[1].buf));
    return finish(v, 2, ok);
}

/* brownian_paths(h0, h1, scales, out, B, Q, d), one lane per state word, a multiple of B lanes */
ENTRY(brownian_paths)
{
    const char *e = "cannot draw paths";
    Py_buffer v[4] = {{0}};
    int64_t z[3];
    int ok = arity(nargs, 7, "brownian_paths") && sizes(args + 4, 3, 1, z, e)
             && take(args[0], v, 'u', ANY, e, "h0") && take(args[1], v + 1, 'u', v[0].len / 8, e, "h1")
             && take(args[2], v + 2, 'd', count(2, z), e, "scales")
             && take(args[3], v + 3, 'D', count(3, SIZES(v[0].len / 8, z[1], z[2])), e, "out");
    if (ok && v[0].len / 8 % z[0])
        ok = 0, PyErr_Format(PyExc_ValueError, "%s: %zd lanes are not a multiple of B=%lld", e, v[0].len / 8,
                             (long long)z[0]);
    if (ok)
        UNLOCKED(brownian_paths(v[0].buf, v[1].buf, v[0].len / 8, z[1], z[2], v[2].buf, z[0], v[3].buf));
    return finish(v, 4, ok);
}

/* extend_states(h0, h1, chain, labels, out, A, C) */
ENTRY(extend_states)
{
    const char *e = "cannot extend states";
    Py_buffer v[5] = {{0}};
    int64_t z[2]; /* A, C */
    int ok = arity(nargs, 7, "extend_states") && sizes(args + 5, 2, 0, z, e)
             && take(args[0], v, 'u', count(2, z), e, "h0") && take(args[1], v + 1, 'u', count(2, z), e, "h1")
             && take(args[2], v + 2, 'i', ANY, e, "chain") && take(args[3], v + 3, 'i', ANY, e, "labels")
             && take(args[4], v + 4, 'U', count(4, SIZES(2, z[0], v[3].len / 8, z[1])), e, "out");
    if (ok)
        UNLOCKED(extend_states(v[0].buf, v[1].buf, z[0], z[1], v[2].buf, v[2].len / 8, v[3].buf, v[3].len / 8, v[4].buf));
    return finish(v, 5, ok);
}

/* node_sums(f, dw, sf, sfw, m, B, d) */
ENTRY(node_sums)
{
    const char *e = "cannot sum f against dw";
    Py_buffer v[4] = {{0}};
    int64_t z[3]; /* m, B, d */
    int ok = arity(nargs, 7, "node_sums") && sizes(args + 4, 3, 0, z, e)
             && take(args[0], v, 'd', count(2, z), e, "f") && take(args[1], v + 1, 'd', count(3, z), e, "dw")
             && take(args[2], v + 2, 'D', z[1], e, "sf") && take(args[3], v + 3, 'D', count(2, z + 1), e, "sfw");
    if (ok)
        UNLOCKED(node_sums(v[0].buf, v[1].buf, z[0], z[1], z[2], v[2].buf, v[3].buf));
    return finish(v, 4, ok);
}

/* shifted_points(x, dw, y, m, B, Q, d, k0, g) */
ENTRY(shifted_points)
{
    const char *e = "cannot shift x by dw";
    Py_buffer v[3] = {{0}};
    int64_t z[6]; /* m, B, Q, d, k0, g */
    int ok = arity(nargs, 9, "shifted_points") && sizes(args + 3, 6, 0, z, e) && nodes_in(z[4], z[5], z[2], e)
             && take(args[0], v, 'd', count(2, SIZES(z[1], z[3])), e, "x")
             && take(args[1], v + 1, 'd', count(4, z), e, "dw")
             && take(args[2], v + 2, 'D', count(4, SIZES(z[0], z[1], z[5], z[3])), e, "y");
    if (ok)
        UNLOCKED(shifted_points(v[0].buf, v[1].buf, z[0], z[1], z[2], z[3], z[4], z[5], v[2].buf));
    return finish(v, 3, ok);
}

/* node_terms(f, dw, weights, nodes, s, out, m, B, g, Q, d, k0, lane): weights and nodes (Q,) and s (1,),
   or with a true lane (B, Q) and (B,) */
ENTRY(node_terms)
{
    const char *e = "cannot add the terms of f";
    Py_buffer v[6] = {{0}};
    int64_t z[7] = {0}; /* m, B, g, Q, d, k0, lane */
    int ok = arity(nargs, 13, "node_terms") && sizes(args + 6, 7, 0, z, e) && nodes_in(z[5], z[2], z[3], e), status = 0;
    int64_t lane = z[6] != 0, per = lane ? z[1] : 1;
    ok = ok && take(args[0], v, 'd', count(3, z), e, "f")
         && take(args[1], v + 1, 'd', count(4, SIZES(z[0], z[1], z[3], z[4])), e, "dw")
         && take(args[2], v + 2, 'd', count(2, SIZES(per, z[3])), e, "weights")
         && take(args[3], v + 3, 'd', count(2, SIZES(per, z[3])), e, "nodes")
         && take(args[4], v + 4, 'd', per, e, "s")
         && take(args[5], v + 5, 'D', count(2, SIZES(z[1], z[4] + 1)), e, "out");
    if (ok && count(3, z))
        UNLOCKED(status = node_terms(v[0].buf, v[1].buf, z[0], z[1], z[2], z[3], z[4], z[5], v[2].buf, v[3].buf,
                                     v[4].buf, lane, v[5].buf));
    if (status)
        ok = 0, PyErr_Format(PyExc_MemoryError, "%s: cannot allocate the node sums", e);
    return finish(v, 6, ok);
}

#define FAST(name, doc) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}
static PyMethodDef methods[] = {
    {"kernel_isa", py_kernel_isa, METH_NOARGS, "kernel_isa() -> the name of the clone that runs"},
    FAST(units_from_words, "units_from_words(words, out)"),
    FAST(ndtri_array, "ndtri_array(u, out)"),
    FAST(brownian_paths, "brownian_paths(h0, h1, scales, out, B, Q, d)"),
    FAST(extend_states, "extend_states(h0, h1, chain, labels, out, A, C)"),
    FAST(node_sums, "node_sums(f, dw, sf, sfw, m, B, d)"),
    FAST(shifted_points, "shifted_points(x, dw, y, m, B, Q, d, k0, g)"),
    FAST(node_terms, "node_terms(f, dw, weights, nodes, s, out, m, B, g, Q, d, k0, lane)"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_kernel", NULL, 0, methods};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModuleDef_Init(&module);
}
"""
_CC_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def _build(source: str, path: str) -> None:
    """Compile ``source`` into the extension module at ``path``; an ImportError says why it cannot."""
    import sysconfig  # only a build needs the headers

    include = sysconfig.get_path("include")
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise ImportError(f"no Python.h in {include}")
    cache_dir = os.path.dirname(path)
    try:
        os.makedirs(cache_dir, exist_ok=True)
        # build under a private name, then rename atomically, so a
        # concurrent build in another process never exposes a torn file
        fd, tmp = tempfile.mkstemp(prefix="_kernel-", suffix=".tmp", dir=cache_dir)
        os.close(fd)
    except OSError as exc:
        raise ImportError(f"cannot write the kernel cache {cache_dir}: {exc.strerror}") from None
    try:
        if shutil.which("cc") is None:
            raise ImportError("no C compiler: cc is not on PATH")
        cmd = ["cc", *_CC_FLAGS, f"-I{include}", "-x", "c", "-", "-o", tmp, "-lm"]
        subprocess.run(cmd, input=source.encode(), capture_output=True, check=True, timeout=120)
        os.replace(tmp, path)
        _prune(cache_dir, os.path.basename(path))
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.decode(errors="replace").splitlines() or [f"exit status {exc.returncode}"]
        raise ImportError(f"cc failed: {next((ln for ln in lines if 'error' in ln), lines[0])}") from None
    except subprocess.TimeoutExpired:
        raise ImportError("cc took over 120 s") from None
    except OSError as exc:  # running cc, or the rename
        raise ImportError(f"cannot build the kernel in {cache_dir}: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _prune(cache_dir: str, live: str) -> None:
    """Remove this interpreter's kernels other than ``live`` and the ``ctypes``-era ``_kernel-<hex>.so`` files.

    Other interpreters' modules and every ``*.tmp`` stay: another process may load or be building them.
    """
    stale = re.compile(rf"_kernel-.*{re.escape(importlib.machinery.EXTENSION_SUFFIXES[0])}|_kernel-[0-9a-f]{{16}}\.so")
    for name in set(filter(stale.fullmatch, os.listdir(cache_dir))) - {live}:
        with contextlib.suppress(OSError):  # gone already, or not ours to remove
            os.unlink(os.path.join(cache_dir, name))


def _load_kernel(cache_dir: str, source: str = _C_SOURCE):
    """The extension module compiled from ``source``, built into ``cache_dir`` on first use.

    Raises ImportError with the reason when there is no ``cc``, no
    ``Python.h``, a failed compile or an unwritable directory; the
    callers then use the numpy pipeline.
    """
    tag = hashlib.sha256((source + " ".join(_CC_FLAGS)).encode()).hexdigest()[:16]
    path = os.path.join(cache_dir, f"_kernel-{tag}{importlib.machinery.EXTENSION_SUFFIXES[0]}")
    if not os.path.exists(path):
        _build(source, path)
    loader = importlib.machinery.ExtensionFileLoader("mlpicard._kernel", path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader, origin=path))
    loader.exec_module(module)
    return module


# the loaded kernel module, or None and the reason the numpy pipeline runs
try:
    _KERNEL, _FALLBACK_REASON = _load_kernel(os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")), None
except ImportError as exc:
    _KERNEL, _FALLBACK_REASON = None, str(exc)

