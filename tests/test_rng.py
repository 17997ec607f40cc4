import math

import numpy as np
import pytest

from sptlab import rng as rng_module
from sptlab.rng import CounterRng, derive_seed, standard_normal_ppf


def erf_cdf(z):
    # independent of the package's scipy-based CDF
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def test_ppf_center():
    assert standard_normal_ppf(0.5) == 0.0


def test_ppf_975_quantile():
    assert standard_normal_ppf(0.975) == pytest.approx(1.959963985, abs=1e-9)


def test_ppf_symmetry():
    u = np.asarray([0.01, 0.2, 0.3, 0.49, 0.6, 0.9, 0.999])
    np.testing.assert_allclose(standard_normal_ppf(u),
                               -standard_normal_ppf(1.0 - u), atol=1e-12)


def test_ppf_inverts_cdf():
    for u in [1e-10, 1e-4, 0.025, 0.31, 0.5, 0.77, 0.975, 1 - 1e-6]:
        z = standard_normal_ppf(u)
        assert erf_cdf(z) == pytest.approx(u, rel=1e-10, abs=1e-13)


def test_ppf_domain():
    with pytest.raises(ValueError):
        standard_normal_ppf(0.0)
    with pytest.raises(ValueError):
        standard_normal_ppf(1.0)


def test_uniforms_open_interval_and_determinism():
    a = CounterRng(42).uniforms(10000)
    b = CounterRng(42).uniforms(10000)
    assert np.array_equal(a, b)
    assert a.min() > 0.0 and a.max() < 1.0
    assert abs(a.mean() - 0.5) < 0.01


def test_stream_position_advances():
    r = CounterRng(1)
    first = r.uniforms(5)
    second = r.uniforms(5)
    assert not np.array_equal(first, second)
    both = CounterRng(1).uniforms(10)
    assert np.array_equal(both, np.concatenate([first, second]))


def test_substreams_differ():
    root = CounterRng(3)
    s0 = root.substream(0).uniforms(100)
    s1 = root.substream(1).uniforms(100)
    assert not np.array_equal(s0, s1)
    again = CounterRng(3).substream(0).uniforms(100)
    assert np.array_equal(s0, again)


def test_normals_moments():
    z = CounterRng(7).normals(200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    z2 = CounterRng(7).normals(100, mean=3.0, sd=0.5)
    assert abs(z2.mean() - 3.0) < 0.2


def _single_shot_uniforms(seed, n, skip=0):
    """Uniforms ``skip .. skip + n - 1`` of a stream, from one raw draw."""
    raw = CounterRng(seed)._raw(skip + n)[skip:]
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


@pytest.mark.parametrize("block", [3, rng_module._DRAW_BLOCK])
def test_blocked_draws_equal_one_block(monkeypatch, block):
    """Draws are filled block by block; the values, and where the stream
    stands afterwards, are those of one block of them all."""
    monkeypatch.setattr(rng_module, "_DRAW_BLOCK", block)
    n = 2 * rng_module._DRAW_BLOCK + 5 if block > 3 else 11
    r = CounterRng(9)
    u = _single_shot_uniforms(9, n + 4)
    z = r.normals(n, mean=2.0, sd=3.0)
    assert z.tobytes() == (2.0 + 3.0 * standard_normal_ppf(u[:n])).tobytes()
    assert r.uniforms(4).tobytes() == u[n:].tobytes()
    shaped = CounterRng(9).normals((n // 2, 2))  # row-major
    assert shaped.shape == (n // 2, 2)
    assert shaped.tobytes() == CounterRng(9).normals(n - n % 2).tobytes()
    assert CounterRng(9).normals(0).shape == (0,)


def test_permutation_is_permutation():
    perm = CounterRng(11).permutation(500)
    assert np.array_equal(np.sort(perm), np.arange(500))


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(5, 1) == derive_seed(5, 1)
    assert derive_seed(5, 1) != derive_seed(5, 2)
    assert derive_seed(5, 1) != derive_seed(6, 1)
