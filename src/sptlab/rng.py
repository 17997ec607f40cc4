"""Deterministic counter-based random number generation.

Experiment reproducibility is a hard requirement here, including across
platforms and across reimplementations in other languages, so all sampled
randomness flows through one small, fully documented scheme rather than a
library generator whose stream may change between versions.

Raw stream
    ``raw(key, i) = mix64(key + (i + 1) * GOLDEN)  (mod 2**64)``
    where ``mix64`` is the SplitMix64 finalizer (Steele, Lea & Flood 2014)
    and ``GOLDEN = 0x9E3779B97F4A7C15``. ``i`` is the zero-based counter
    position, so any draw can be regenerated in isolation.

Uniforms
    The top 53 bits of the raw word, offset by half an ulp:
    ``u = ((raw >> 11) + 0.5) * 2**-53`` which lies strictly inside (0, 1).

Normals
    Inverse-CDF transform of a uniform using Wichura's AS241 ``PPND16``
    rational approximations (absolute error below 1e-15), then scaled by
    the standard deviation and shifted by the mean. One uniform per normal.

Substreams
    ``substream(key, s) = mix64(key ^ ((s + 1) * WEYL))`` with
    ``WEYL = 0xD1B54A32D192ED03``; used to give features, prices, noise and
    coefficient draws independent counters under one user-facing seed.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
WEYL = np.uint64(0xD1B54A32D192ED03)

_U64 = np.uint64

# Draws per block. The uint64 and float temporaries of a block take about
# 40 bytes a draw, 2.6 MB at 2**16, where one block of n draws would take
# 40 MB for the million feature draws of a 50k-row, 20-feature sample.
_DRAW_BLOCK = 1 << 16


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64 arrays."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def derive_seed(seed: int, salt: int) -> int:
    """Derive an independent integer seed from (seed, salt), documented above."""
    key = _mix64(np.asarray(_U64(seed % (1 << 64))) ^ GOLDEN)
    with np.errstate(over="ignore"):
        return int(_mix64(key ^ (_U64((salt + 1) % (1 << 64)) * WEYL)))


class CounterRng:
    """Stateless-keyed, stateful-positioned generator over the raw stream."""

    def __init__(self, seed: int, _key: int | None = None):
        if _key is None:
            self._key = _mix64(np.asarray(_U64(seed % (1 << 64))) ^ GOLDEN)
        else:
            self._key = np.asarray(_U64(_key))
        self._pos = 0

    def substream(self, index: int) -> "CounterRng":
        """Independent generator addressed by a small non-negative index."""
        with np.errstate(over="ignore"):
            child = _mix64(self._key ^ (_U64(index + 1) * WEYL))
        return CounterRng(0, _key=int(child))

    def _raw(self, n: int) -> np.ndarray:
        counters = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        with np.errstate(over="ignore"):
            return _mix64(self._key + counters * GOLDEN)

    def _draws(self, size, transform) -> np.ndarray:
        """An array of shape ``size`` (an int or a tuple) filled in row-major
        order with ``transform`` of the next uniforms, in blocks of
        ``_DRAW_BLOCK``: the counters advance as for one block of them all,
        and the transforms are elementwise, so the values do not depend on
        the blocks while the temporaries stay block-sized."""
        out = np.empty(size)
        flat = out.reshape(-1)  # a view: out is contiguous
        for s in range(0, flat.size, _DRAW_BLOCK):
            e = min(flat.size, s + _DRAW_BLOCK)
            bits = self._raw(e - s) >> _U64(11)
            flat[s:e] = transform((bits.astype(np.float64) + 0.5) * 2.0**-53)
        return out

    def uniforms(self, size) -> np.ndarray:
        """Uniforms strictly inside (0, 1), ``size`` an int or a shape."""
        return self._draws(size, lambda u: u)

    def normals(self, size, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        """Normals of the given mean and sd, ``size`` an int or a shape."""
        return self._draws(size, lambda u: mean + sd * standard_normal_ppf(u))

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) (argsort of n uniforms)."""
        return np.argsort(self.uniforms(n), kind="stable")


# AS241 PPND16 coefficients (Wichura 1988, Applied Statistics 37).
_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
    6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9,
)
_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
    1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15,
)


def _poly(coeffs, r):
    acc = np.full_like(r, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * r + c
    return acc


def standard_normal_ppf(u):
    """Inverse standard normal CDF via AS241 PPND16; u must lie in (0, 1)."""
    u = np.asarray(u, dtype=np.float64)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("standard_normal_ppf requires 0 < u < 1")
    q = u - 0.5
    out = np.empty_like(u)

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * _poly(_A, r) / _poly(_B, r)

    tail = ~central
    if np.any(tail):
        qt = q[tail]
        r = np.sqrt(-np.log(np.where(qt < 0.0, u[tail], 1.0 - u[tail])))
        near = r <= 5.0
        val = np.empty_like(r)
        val[near] = _poly(_C, r[near] - 1.6) / _poly(_D, r[near] - 1.6)
        val[~near] = _poly(_E, r[~near] - 5.0) / _poly(_F, r[~near] - 5.0)
        out[tail] = np.where(qt < 0.0, -val, val)

    return float(out[0]) if scalar else out
