import shutil

import numpy as np
import pytest
from scipy.stats import kstest

from mlpicard import _bits
from mlpicard._bits import uniforms_from_states
from mlpicard.randomness import (
    _extend_state,
    _standard_normals,
    derive_key,
    sample_path,
    state_for_key,
)


def test_derive_key_examples():
    assert derive_key((), (0, -3)) == (0, -3)
    assert derive_key((0, -3), (2, 5, 1)) == (0, -3, 2, 5, 1)
    assert derive_key((), ()) == ()


def test_derive_key_rejects_non_integers():
    with pytest.raises(ValueError):
        derive_key((), (1.5,))
    with pytest.raises(ValueError):
        derive_key((True,), (1,))


def test_derive_key_rejects_labels_outside_int64():
    for label in (2**63, -(2**63) - 1):
        with pytest.raises(ValueError, match=str(label)):
            derive_key((), (label,))
    assert derive_key((2**63 - 1,), (-(2**63),)) == (2**63 - 1, -(2**63))
    state_for_key(0, (2**63 - 1, -(2**63)))


def test_state_for_key_rejects_seeds_outside_uint64():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            state_for_key(seed, ())
    low, high = state_for_key(0, ()), state_for_key(2**64 - 1, ())
    assert (low[0][0], low[1][0]) != (high[0][0], high[1][0])


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


def test_derive_key_collision_scan():
    # estimator keys grow by blocks of 2 or 3 labels from block-structured
    # parents, so distinct (parent, extension) pairs cannot concatenate to
    # the same sequence; scan a large random sample for collisions
    rng = np.random.default_rng(99)
    seen = {}
    for _ in range(100_000):
        depth = int(rng.integers(0, 3))
        parent = ()
        for _ in range(depth):
            parent = derive_key(parent, (int(rng.integers(0, 7)), int(rng.integers(1, 1000)), int(rng.integers(1, 65))))
        ext = _scheme_extensions(rng)
        key = derive_key(parent, ext)
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
        assert np.array_equal(part.displacements(), full.displacements()[:j])


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


def test_increment_variance_over_keys():
    # chi-square oracle: the sample variance of N(0, T - s) over R keys has
    # standard error (T - s) sqrt(2 / (R - 1))
    R, s, T = 100_000, 0.25, 1.5
    h0, h1 = state_for_key(11, ())
    rh0, rh1 = _extend_state(h0, h1, np.arange(R, dtype=np.int64))
    z = _standard_normals(rh0, rh1, 1)[:, 0] * np.sqrt(T - s)
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
    rh0, rh1 = _extend_state(h0, h1, np.arange(100_000, dtype=np.int64))
    sample = _standard_normals(rh0, rh1, 2)[:, 1] * np.sqrt(dt)
    stat = kstest(sample, "norm", args=(0.0, np.sqrt(dt)))
    assert stat.pvalue > 1e-3
    stat_small = kstest(draws, "norm", args=(0.0, np.sqrt(dt)))
    assert stat_small.pvalue > 1e-3


def test_cross_key_independence():
    # independence oracle: sample correlation of independent streams over
    # R draws is below 4 / sqrt(R) with very high probability
    R = 100_000
    h0, h1 = state_for_key(5, (2,))
    a0, a1 = _extend_state(h0, h1, np.arange(R, dtype=np.int64))
    g0, g1 = state_for_key(5, (3,))
    b0, b1 = _extend_state(g0, g1, np.arange(R, dtype=np.int64))
    za = _standard_normals(a0, a1, 1)[:, 0]
    zb = _standard_normals(b0, b1, 1)[:, 0]
    corr = np.corrcoef(za, zb)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(R)


def test_compiled_and_numpy_pipelines_agree():
    if shutil.which("cc") is not None:
        assert _bits._KERNEL is not None, "a C compiler is present but the Philox kernel did not load"
    if _bits._KERNEL is None:
        pytest.skip("no C compiler; only the numpy pipeline exists")
    # full 64-bit range, so the top bit of every state word is exercised
    rng = np.random.default_rng(17)
    for shape in ((257,), (0,), (3, 5)):
        h0 = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        h1 = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        for n_vals in (1, 2, 3, 7, 8):
            fast = uniforms_from_states(h0, h1, n_vals)
            slow = uniforms_from_states(h0, h1, n_vals, force_numpy=True)
            assert fast.shape == shape + (n_vals,)
            assert np.array_equal(fast, slow)


def test_kernel_build_failure_falls_back_to_numpy(tmp_path, monkeypatch):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    assert _bits._load_kernel(str(tmp_path / "cache")) is None
    assert list((tmp_path / "cache").iterdir()) == []  # no partial library left behind
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert _bits._load_kernel(str(tmp_path / "cache")) is None
    (tmp_path / "file").write_text("")
    assert _bits._load_kernel(str(tmp_path / "file" / "cache")) is None

    rng = np.random.default_rng(5)
    h0 = rng.integers(0, 2**64, size=(4, 3), dtype=np.uint64)
    h1 = rng.integers(0, 2**64, size=(4, 3), dtype=np.uint64)
    expected = uniforms_from_states(h0, h1, 5, force_numpy=True)
    monkeypatch.setattr(_bits, "_KERNEL", None)
    assert np.array_equal(uniforms_from_states(h0, h1, 5), expected)


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
    z = _standard_normals(h0, h1, R)[0]
    for lag in (1, 7):
        a, b = z[:-lag], z[lag:]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4.0 / np.sqrt(R - lag)


def test_extension_order_matters():
    # absorbing (a, b) and (b, a) must give different states
    h0, h1 = state_for_key(0, ())
    ab = _extend_state(*_extend_state(h0, h1, 3), 5)
    ba = _extend_state(*_extend_state(h0, h1, 5), 3)
    assert (ab[0][0], ab[1][0]) != (ba[0][0], ba[1][0])


def test_uniforms_strictly_inside_unit_interval():
    h0, h1 = state_for_key(0, (42,))
    rh0, rh1 = _extend_state(h0, h1, np.arange(10_000, dtype=np.int64))
    u = uniforms_from_states(rh0, rh1, 4)
    assert np.all(u > 0.0) and np.all(u < 1.0)
