import importlib.machinery
import os
import re
import shutil
import sysconfig
import threading
import time

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from mlpicard import _bits, mlp_core, randomness, selfcheck
from mlpicard._bits import uniforms_from_states
from mlpicard.randomness import (
    _extend_state,
    _standard_normals,
    sample_path,
    state_for_key,
)


def test_key_labels_reject_non_integers():
    for key in ((1.5,), (True, 1), (1, True)):  # a float or bool would alias label 1 if not rejected
        with pytest.raises(ValueError):
            state_for_key(0, key)


def test_key_labels_reject_values_outside_int64():
    for label in (2**63, -(2**63) - 1):
        for key in ((label,), (0, -3, label)):
            with pytest.raises(ValueError, match=str(label)):
                state_for_key(0, key)
    state_for_key(0, (2**63 - 1, -(2**63)))


def test_state_for_key_rejects_seeds_outside_uint64():
    for seed in (-1, 2**64, 1.5, True):  # a float or bool seed would alias seed 1
        with pytest.raises(ValueError, match="seed"):
            state_for_key(seed, ())
    low, high = state_for_key(0, ()), state_for_key(2**64 - 1, ())
    assert (low[0][0], low[1][0]) != (high[0][0], high[1][0])


def _siblings(h0, h1, n):
    """States of the keys key + (r,), r < n, from the shape-(1,) state of key; shape (n,)."""
    r0, r1 = _extend_state(h0, h1, np.zeros(0, dtype=np.int64), np.arange(n, dtype=np.int64))
    return r0.reshape(n), r1.reshape(n)


def _scheme_extensions(rng):
    """Extension shapes the estimator actually derives."""
    l = int(rng.integers(0, 7))
    i = int(rng.integers(1, 10**6))
    rank = int(rng.integers(1, 65))
    shape = rng.integers(0, 4)
    if shape == 0:
        return (0, -i)
    if shape == 1:
        return (l, i)
    if shape == 2:
        return (l, i, rank)
    return (-max(l, 1), i, rank)


def test_key_scheme_collision_scan():
    # estimator keys grow by blocks of 2 or 3 labels from block-structured
    # parents, so distinct (parent, extension) pairs cannot join to the
    # same sequence; scan a large random sample for collisions
    rng = np.random.default_rng(99)
    seen = {}
    for _ in range(100_000):
        depth = int(rng.integers(0, 3))
        parent = ()
        for _ in range(depth):
            parent += (int(rng.integers(0, 7)), int(rng.integers(1, 1000)), int(rng.integers(1, 65)))
        ext = _scheme_extensions(rng)
        key = parent + ext
        pair = (parent, ext)
        if key in seen:
            assert seen[key] == pair
        seen[key] = pair


def test_sample_path_bitwise_deterministic():
    a = sample_path(123, (4, -2, 1), 3, 0.25, [0.5, 0.75, 1.0])
    b = sample_path(123, (4, -2, 1), 3, 0.25, [0.5, 0.75, 1.0])
    assert np.array_equal(a.increments, b.increments)
    c = sample_path(123, (4, -2, 2), 3, 0.25, [0.5, 0.75, 1.0])
    assert not np.array_equal(a.increments, c.increments)
    d = sample_path(124, (4, -2, 1), 3, 0.25, [0.5, 0.75, 1.0])
    assert not np.array_equal(a.increments, d.increments)


def test_sample_path_prefix_consistency():
    # positions are indexed by (time rank, coordinate), so a prefix of the
    # time list reproduces the same physical path
    times = [0.2, 0.35, 0.6, 0.9]
    full = sample_path(7, (1, 2, 3), 2, 0.1, times)
    for j in range(1, len(times)):
        part = sample_path(7, (1, 2, 3), 2, 0.1, times[:j])
        assert np.array_equal(part.increments, full.increments[:j])
        assert np.array_equal(np.cumsum(part.increments, axis=0), np.cumsum(full.increments, axis=0)[:j])


def test_sample_path_validation():
    with pytest.raises(ValueError):
        sample_path(0, (), 0, 0.0, [1.0])
    with pytest.raises(ValueError):
        sample_path(0, (), 1, 0.0, [])
    with pytest.raises(ValueError):
        sample_path(0, (), 1, 0.0, [0.5, 0.4])
    with pytest.raises(ValueError):
        sample_path(0, (), 1, 0.5, [0.4, 0.6])
    with pytest.raises(ValueError):
        sample_path(0, (), 1, 0.0, [float("nan")])
    for dimension in (2.5, True, "2", 2.0, None):
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            sample_path(0, (), dimension, 0.0, [1.0])
    assert np.array_equal(sample_path(0, (), np.int64(2), 0.0, [1.0]).increments, sample_path(0, (), 2, 0.0, [1.0]).increments)
    for start in (True, None, "0", float("inf")):  # True would be start 1.0
        with pytest.raises(ValueError, match="^start must be a finite real number"):
            sample_path(0, (), 1, start, [2.0])
    for times in (["a", "b"], [1 + 2j, 2.0], [None]):
        with pytest.raises(ValueError, match=f"^times must hold finite real numbers, got {re.escape(repr(times))}$"):
            sample_path(0, (), 1, 0.0, times)


def test_increment_variance_over_keys():
    # chi-square oracle: the sample variance of N(0, T - s) over R keys has
    # standard error (T - s) sqrt(2 / (R - 1))
    R, s, T = 100_000, 0.25, 1.5
    h0, h1 = state_for_key(11, ())
    rh0, rh1 = _siblings(h0, h1, R)
    z = _standard_normals(rh0, rh1, 1, np.ones(1))[:, 0] * np.sqrt(T - s)
    var = z.var(ddof=1)
    se = (T - s) * np.sqrt(2.0 / (R - 1))
    assert abs(var - (T - s)) <= 3.0 * se
    assert abs(z.mean()) <= 4.0 * np.sqrt(T - s) / np.sqrt(R)


def test_marginal_law_kolmogorov_smirnov():
    dt = 0.37
    path_times = [0.6, 0.6 + dt]
    draws = np.array(
        [sample_path(3, (9, r), 1, 0.5, path_times).increments[1, 0] for r in range(400)]
    )
    # cheap loop only builds 400 paths; the heavy sample reuses one batch
    h0, h1 = state_for_key(3, (1,))
    rh0, rh1 = _siblings(h0, h1, 100_000)
    sample = _standard_normals(rh0, rh1, 2, np.ones(1))[:, 1] * np.sqrt(dt)
    stat = kstest(sample, "norm", args=(0.0, np.sqrt(dt)))
    assert stat.pvalue > 1e-3
    stat_small = kstest(draws, "norm", args=(0.0, np.sqrt(dt)))
    assert stat_small.pvalue > 1e-3


def test_cross_key_independence():
    # independence oracle: sample correlation of independent streams over
    # R draws is below 4 / sqrt(R) with very high probability
    R = 100_000
    h0, h1 = state_for_key(5, (2,))
    a0, a1 = _siblings(h0, h1, R)
    g0, g1 = state_for_key(5, (3,))
    b0, b1 = _siblings(g0, g1, R)
    za = _standard_normals(a0, a1, 1, np.ones(1))[:, 0]
    zb = _standard_normals(b0, b1, 1, np.ones(1))[:, 0]
    corr = np.corrcoef(za, zb)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(R)


def _require_kernel():
    if shutil.which("cc") is not None:
        assert _bits._KERNEL is not None, "a C compiler is present but the kernel did not load"
    if _bits._KERNEL is None:
        pytest.skip("no C compiler; only the numpy pipeline exists")


def _random_states(rng, shape):
    # full 64-bit range, so the top bit of every state word is exercised
    return tuple(rng.integers(0, 2**64, size=shape, dtype=np.uint64) for _ in range(2))


def _kernel_map(name, values):
    """Doubles from the kernel's elementwise test entry ``name``."""
    out = np.empty(values.shape)
    getattr(_bits._KERNEL, name)(values, out)
    return out


def test_compiled_and_numpy_pipelines_agree():
    _require_kernel()
    rng = np.random.default_rng(17)
    for shape in ((257,), (0,), (3, 5)):
        h0, h1 = _random_states(rng, shape)
        for n_vals in (1, 2, 3, 7, 8):
            assert uniforms_from_states(h0, h1, n_vals).shape == shape + (n_vals,)
    h0, h1 = _random_states(rng, (4, 3))
    assert np.array_equal(_standard_normals(h0, h1, 5, np.ones(1)), ndtri(uniforms_from_states(h0, h1, 5)))


# the kernel's entries: the names of their numpy stand-ins
_ENTRIES = (*vars(randomness._NUMPY), *vars(mlp_core._NUMPY))


@pytest.mark.parametrize("name", _ENTRIES)
def test_kernel_entry_matches_numpy_reference(name):
    # selfcheck's bit-kernel cases of the entry: on copies of each case's arguments, the kernel and the
    # numpy stand-in leave the same bytes in every array, outputs and inputs alike
    _require_kernel()
    for entry, args in selfcheck._kernel_cases(np.random.default_rng(41)):
        if entry == name:
            assert selfcheck._matches_reference(name, args), [a for a in args if isinstance(a, int)]


def test_kernel_cases_reach_the_layouts_estimates_use():
    # every entry has cases, among them A = 1 block over C > 1 states (sibling keys), one row of scales
    # over several lanes, a lane longer than the 512-value chunk, and a zero f of either sign
    cases = list(selfcheck._kernel_cases(np.random.default_rng(41)))
    assert {name for name, _ in cases} == set(_ENTRIES)
    assert any(args[5] == 1 and args[6] > 1 for name, args in cases if name == "extend_states")
    paths = [(args[0].size, *args[4:]) for name, args in cases if name == "brownian_paths"]
    assert any(B == 1 and lanes > 1 for lanes, B, Q, d in paths) and any(Q * d > 512 for _, _, Q, d in paths)
    for entry in ("node_sums", "node_terms"):
        signs = [np.signbit(args[0]) for name, args in cases if name == entry and not args[0].any()]
        assert any(sign.all() for sign in signs) and any(not sign.any() for sign in signs), entry


def test_default_build_matches_dispatched_clone(tmp_path):
    # the kernel built for the baseline ISA only must give the bits of the
    # clone the loader picked for this CPU
    _require_kernel()
    # the build removes this interpreter's other kernels and the ctypes-era libraries, and keeps other
    # interpreters' modules and the temporary files of builds that may still run
    stale = ["_kernel-0123456789abcdef" + importlib.machinery.EXTENSION_SUFFIXES[0], "_kernel-0123456789abcdef.so"]
    kept = ["_kernel-0123456789abcdef.pypy39-pp73-x86_64-linux-gnu.so", "_kernel-k2j4x9.tmp"]
    for name in stale + kept:
        (tmp_path / name).write_text("")
    attr = '#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))'
    assert _bits._C_SOURCE.count(attr) == 1
    default = _bits._load_kernel(str(tmp_path), _bits._C_SOURCE.replace(attr, ""))
    assert sorted(os.listdir(tmp_path)) == sorted(kept + [os.path.basename(default.__spec__.origin)])
    assert default is not _bits._KERNEL and default.kernel_isa() == "default"
    assert _bits._KERNEL.kernel_isa() in ("avx512f", "avx2", "default")
    rng = np.random.default_rng(31)
    # (lanes, B, Q, d): the benchmark shapes, one-value lanes, odd Q * d, and
    # 511 / 513 / 1026 values around the 512-value chunk
    cases = [(16384, 16, 4, 10), (65536, 64, 4, 2), (700, 7, 1, 1), (301, 1, 3, 3), (5, 5, 1, 511),
             (1, 1, 1, 511), (3, 3, 1, 513), (1, 1, 1, 1026), (2, 1, 2, 513), (4, 2, 3, 57)]
    for lanes, B, Q, d in cases:
        h0, h1 = _random_states(rng, (lanes,))
        scales = rng.uniform(0.1, 2.0, size=(B, Q))
        want, got = np.empty(lanes * Q * d), np.empty(lanes * Q * d)
        _bits._KERNEL.brownian_paths(h0, h1, scales, want, B, Q, d)
        default.brownian_paths(h0, h1, scales, got, B, Q, d)
        assert got.tobytes() == want.tobytes(), (lanes, B, Q, d)
    u = np.concatenate([[0.0, 1.0, 2.0**-54, 1.0 - 2.0**-53], rng.uniform(size=1000), np.exp(-rng.uniform(2, 700, 1000))])
    z = np.empty_like(u)
    default.ndtri_array(u, z)
    assert z.tobytes() == _kernel_map("ndtri_array", u).tobytes()


def test_word_to_double_map_stays_below_one():
    # ((w >> 11) + 0.5) * 2^-53 rounds to 1.0 for the top 53-bit value only
    words = np.array([0, 1, 2**63, 2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1], dtype=np.uint64)
    old = np.array([((int(w) >> 11) + 0.5) * 2.0**-53 for w in words])
    assert old[-1] == 1.0
    want = np.where(old < 1.0, old, 1.0 - 2.0**-53)
    got = np.empty(words.size)
    _bits._units_numpy(words, got)  # the kernel's units_from_words meets it in selfcheck's bit-kernel cases
    assert np.array_equal(got, want)
    assert np.isfinite(ndtri(want)).all()


def _broadcast_chain(h0, h1, labels):
    """The absorb chain on numpy's broadcast of the labels against the states."""
    for label in labels:
        v = np.asarray(label, dtype=np.int64).astype(np.uint64)
        h0 = randomness._mix64(h0 + (v * randomness._GAMMA ^ randomness._ABSORB_A))
        h1 = randomness._mix64((h1 ^ h0) + randomness._ABSORB_B)
    return h0, h1


def test_compiled_key_states_match_numpy_chain():
    # word (a, l, c) of _extend_state is state a * C + c after the chain and label l: numpy's broadcast
    # of the states shaped (A, 1, C) against the labels shaped (1, L, 1)
    _require_kernel()
    rng = np.random.default_rng(8)
    extremes = np.array([-(2**63), -(2**63) + 1, -7, -1, 0, 1, 2**63 - 1], dtype=np.int64)
    h0, h1 = _random_states(rng, (6,))
    cases = [  # (states, chain, labels, A)
        ((h0, h1), (0,), -extremes, 1),  # terminal keys, label-major over the states
        ((h0, h1), (2**63 - 1,), extremes, 1),  # path keys
        ((h0, h1), (), extremes, 6),  # rank keys, state-major
        ((h0[:1], h1[:1]), (), extremes, 1),  # replication lanes
        ((h0[:1], h1[:1]), (-(2**63), 0), extremes[6:], 1),  # a whole key, as state_for_key derives it
        ((h0, h1), (-1,), extremes, 2),  # two blocks of three states
        ((h0[:0], h1[:0]), (5,), extremes, 1),  # no states
        ((h0, h1), (1, 2), extremes[:0], 3),  # no labels
    ]
    for (a0, a1), chain, labels, A in cases:
        chain = np.array(chain, dtype=np.int64)
        got = _extend_state(a0, a1, chain, labels, A)
        C = a0.size // A
        want = _broadcast_chain(a0.reshape(A, 1, C), a1.reshape(A, 1, C), (*chain, labels.reshape(1, -1, 1)))
        assert got[0].shape == got[1].shape == (A, labels.size, C)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (chain, labels, A)


def test_kernel_build_failure_falls_back_to_numpy(tmp_path, monkeypatch):
    # each failure raises ImportError with its reason and leaves no partial library behind;
    # the include path points at a stand-in Python.h, and then at an empty directory
    headers = tmp_path / "include"
    headers.mkdir()
    (headers / "Python.h").write_text("")
    monkeypatch.setattr(sysconfig, "get_path", lambda name, *args, **kwargs: str(headers))
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\necho 'fatal error: out of cheese' >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    with pytest.raises(ImportError, match="cc failed: fatal error: out of cheese"):
        _bits._load_kernel(str(tmp_path / "cache"))
    assert list((tmp_path / "cache").iterdir()) == []
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    with pytest.raises(ImportError, match="no C compiler"):
        _bits._load_kernel(str(tmp_path / "cache"))
    (tmp_path / "file").write_text("")
    with pytest.raises(ImportError, match="cannot write the kernel cache"):
        _bits._load_kernel(str(tmp_path / "file" / "cache"))
    (headers / "Python.h").unlink()
    with pytest.raises(ImportError, match="no Python.h"):
        _bits._load_kernel(str(tmp_path / "cache"))
    assert list((tmp_path / "cache").iterdir()) == []
    monkeypatch.undo()
    monkeypatch.setattr(_bits, "_FALLBACK_REASON", "no Python.h in /nowhere")

    rng = np.random.default_rng(5)
    h0, h1 = _random_states(rng, (4, 3))
    labels = np.arange(-3, 3)
    scales = rng.uniform(0.1, 1.0, size=(3, 2))
    expected = (
        _standard_normals(h0, h1, 3, scales),
        _standard_normals(h0, h1, 3, np.ones(1)),
        *_extend_state(h0, h1, np.array([2]), labels, 4),  # A = 4 blocks of C = 3 states
    )
    monkeypatch.setattr(_bits, "_KERNEL", None)
    fallback = (
        _standard_normals(h0, h1, 3, scales),
        _standard_normals(h0, h1, 3, np.ones(1)),
        *_extend_state(h0, h1, np.array([2]), labels, 4),  # A = 4 blocks of C = 3 states
    )
    for got, want in zip(fallback, expected):
        assert got.shape == want.shape and np.array_equal(got, want)
    ok, message = selfcheck._check_bit_kernel()
    assert ok and "numpy fallback runs (no Python.h in /nowhere)" in message


def test_kernel_entries_guard_their_buffers():
    # a wrong item type, a strided view, a short buffer or a read-only output
    # raises before any loop runs, and leaves the output untouched
    _require_kernel()
    k = _bits._KERNEL
    u64, f64, i64 = np.arange(24, dtype=np.uint64), np.linspace(0.1, 0.9, 48), np.arange(24, dtype=np.int64)
    # entry -> (arrays, sizes, index of the output among the arrays); each call is valid as given
    valid = {
        "units_from_words": ([u64, np.empty(24)], [], 1),
        "ndtri_array": ([f64, np.empty(48)], [], 1),
        "brownian_paths": ([u64[:6], u64[6:12], f64[:6], np.empty(6 * 3 * 4)], [2, 3, 4], 3),
        "extend_states": ([u64[:6], u64[6:12], i64[20:22], i64[:4], np.empty(2 * 6 * 4, dtype=np.uint64)], [6, 1], 4),
        "node_sums": ([f64[:6], f64[:12], np.empty(3), np.empty(6)], [2, 3, 2], 2),
        "shifted_points": ([f64[:6], f64, np.empty(24)], [2, 3, 4, 2, 1, 2], 2),
        "node_terms": ([f64[:12], f64, f64[:4], f64[4:8], f64[:1], np.zeros(9)], [2, 3, 2, 4, 2, 1, 0], 5),
    }
    # every entry: an entry added later gets these cases too
    assert set(valid) == set(_ENTRIES)
    for name, (arrays, sizes, at) in valid.items():
        getattr(k, name)(*arrays, *sizes)
        buffers = [i for i, a in enumerate(arrays) if isinstance(a, np.ndarray)]
        for i in buffers:
            a = arrays[i]
            bads = [a.astype(np.float64 if a.dtype != np.float64 else np.uint64), a.tolist()]  # wrong type
            if (name, i) != ("extend_states", 2):  # short; a chain of any length is valid
                bads.append(a[:-1].copy())
            if a.size > 1:  # strided; a one-item view counts as contiguous
                bads.append(np.empty(2 * a.size, a.dtype)[::2])
            for bad in bads:
                args = arrays[:i] + [bad] + arrays[i + 1 :]
                before = arrays[at].copy()
                with pytest.raises((TypeError, ValueError)):
                    getattr(k, name)(*args, *sizes)
                assert arrays[at].tobytes() == before.tobytes(), (name, i)
        out = arrays[at].copy()
        out.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            getattr(k, name)(*arrays[:at], out, *arrays[at + 1 :], *sizes)
        if sizes:  # a size that does not match the buffers, and a negative one
            for bad in ([s + 1 for s in sizes], [-1] + sizes[1:]):
                with pytest.raises(ValueError):
                    getattr(k, name)(*arrays, *bad)
        with pytest.raises(TypeError):
            getattr(k, name)(*(arrays + sizes)[:-1])  # an argument short
    # a float chain, and states that are not A * C words
    with pytest.raises(TypeError, match="chain must hold int64 items"):
        k.extend_states(u64[:6], u64[6:12], np.array([1.0, 2.0]), i64[:4], np.empty(48, dtype=np.uint64), 6, 1)
    with pytest.raises(ValueError, match="h0 holds 5 items, need 6"):
        k.extend_states(u64[:5], u64[6:12], i64[:2], i64[:4], np.empty(48, dtype=np.uint64), 6, 1)
    # lanes that are not a multiple of the B rows of scales, nodes k0..k0 + g - 1 that are not among
    # the Q, and per-lane weights without per-lane times
    with pytest.raises(ValueError, match="not a multiple of B=2"):
        k.brownian_paths(u64[:5], u64[5:10], f64[:6], np.empty(5 * 3 * 4), 2, 3, 4)
    with pytest.raises(ValueError, match="cannot shift"):
        k.shifted_points(f64[:6], f64, np.empty(24), 2, 3, 4, 2, 3, 2)
    with pytest.raises(ValueError, match="cannot add"):
        k.node_terms(f64[:12], f64, f64[:4], f64[4:8], f64[:1], np.zeros(9), 2, 3, 2, 4, 2, 3, 0)
    with pytest.raises(ValueError, match="cannot add"):
        k.node_terms(f64[:6], f64[:12], f64[:6], f64[6:12], f64[:1], np.zeros(6), 2, 3, 1, 2, 1, 0, 1)


def test_kernel_releases_the_gil():
    # a second thread keeps stamping the clock while one long path draw runs;
    # a call that held the GIL would leave no stamp inside its window
    _require_kernel()
    lanes, Q, d = 12288, 16, 16  # about 3 million Gaussians, some 60 ms of kernel work
    h0, h1 = _random_states(np.random.default_rng(2), (lanes,))
    scales, out = np.ones((1, Q)), np.empty(lanes * Q * d)
    stamps, stop = [], threading.Event()

    def stamp():
        while not stop.is_set():
            stamps.append(time.perf_counter())

    worker = threading.Thread(target=stamp)
    worker.start()
    try:
        while not stamps:
            time.sleep(0.001)
        windows = []
        for _ in range(3):
            start = time.perf_counter()
            _bits._KERNEL.brownian_paths(h0, h1, scales, out, 1, Q, d)
            windows.append((start, time.perf_counter()))
    finally:
        stop.set()
        worker.join()
    # stamps in the middle half of a call: not the edges, where the GIL may change hands
    inside = [t for a, b in windows for t in stamps if a + (b - a) / 4 < t < b - (b - a) / 4]
    assert inside, [b - a for a, b in windows]


def _philox_reference(h0: int, h1: int, block: int) -> tuple[int, int]:
    """Scalar big-int reimplementation of the 10-round generator."""
    mask = 0xFFFFFFFF
    c0, c1 = block & mask, (block >> 32) & mask
    c2, c3 = h1 & mask, (h1 >> 32) & mask
    k0, k1 = h0 & mask, (h0 >> 32) & mask
    for _ in range(10):
        p0 = (0xD2511F53 * c0) & 0xFFFFFFFFFFFFFFFF
        p1 = (0xCD9E8D57 * c2) & 0xFFFFFFFFFFFFFFFF
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & mask, (p0 >> 32) ^ c3 ^ k1, p0 & mask
        k0 = (k0 + 0x9E3779B9) & mask
        k1 = (k1 + 0xBB67AE85) & mask
    return (c0 << 32) | c1, (c2 << 32) | c3


def test_bits_match_scalar_reference():
    rng = np.random.default_rng(23)
    h0 = rng.integers(0, 2**63, size=16).astype(np.uint64)
    h1 = rng.integers(0, 2**63, size=16).astype(np.uint64)
    got = uniforms_from_states(h0, h1, 4)
    for lane in range(16):
        for block in range(2):
            wa, wb = _philox_reference(int(h0[lane]), int(h1[lane]), block)
            assert got[lane, 2 * block] == ((wa >> 11) + 0.5) * 2.0**-53
            assert got[lane, 2 * block + 1] == ((wb >> 11) + 0.5) * 2.0**-53


def test_within_stream_autocorrelation_small():
    # successive positions of one keyed stream behave like fresh draws:
    # lag-1 and lag-7 sample autocorrelations stay below 4 / sqrt(R)
    R = 200_000
    h0, h1 = state_for_key(29, (1, 1))
    z = _standard_normals(h0, h1, R, np.ones(1))[0]
    for lag in (1, 7):
        a, b = z[:-lag], z[lag:]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4.0 / np.sqrt(R - lag)


def test_extension_order_matters():
    # absorbing (a, b) and (b, a) must give different states
    h0, h1 = state_for_key(0, ())
    three, five = np.array([3], dtype=np.int64), np.array([5], dtype=np.int64)
    ab, ba = _extend_state(h0, h1, three, five), _extend_state(h0, h1, five, three)
    assert (ab[0].item(), ab[1].item()) != (ba[0].item(), ba[1].item())


def test_uniforms_strictly_inside_unit_interval():
    h0, h1 = state_for_key(0, (42,))
    rh0, rh1 = _siblings(h0, h1, 10_000)
    u = uniforms_from_states(rh0, rh1, 4)
    assert np.all(u > 0.0) and np.all(u < 1.0)
