"""Seeded random streams plus the primitive variate generators everything
else is built on: open-interval uniforms and an exact sampler of the
standard one-sided stable law, ``_standard_stable``.  At alpha = 1/2 that law
is the Levy distribution, S = 1/(2*N^2) for standard normal N; every other
alpha uses Kanter's (1975) construction.  Its two callers, the path-integral
and Mittag-Leffler samplers of :mod:`sievesim.limitlaw`, scale standard draws
themselves (an increment over time h with Laplace scale c is
(c*h)^(1/alpha) * S).

Every sampler here and in the modules built on it takes a
``numpy.random.Generator``, which it advances, and a required ``size``, and
returns an array of that shape; one draw is a size-1 call.

An ``RngStream`` is the address of a generator: counter-based Philox keyed
by ``(seed, stream_id)``, so stream ``i`` of a Monte Carlo run can be
re-created in isolation with ``RngStream(seed, i).generator()``, and
distinct streams never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "sample_uniform01",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: (seed, stream_id) -> reproducible sequence."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def sample_uniform01(rng, size):
    """Uniform draws strictly inside (0,1) (endpoints are never returned):
    (k + 1/2) 2^-53 for the 53-bit integer k that ``rng.random`` scales."""
    u = rng.random(size) + 2.0**-54
    return np.minimum(u, 1.0 - 2.0**-53)  # k + 1/2 rounds to 2**53 at k = 2**53 - 1


def _standard_stable(alpha: float, rng: np.random.Generator, size):
    """Exact draws of the standard one-sided stable law: S > 0 with
    E exp(-s*S) = exp(-s**alpha).

    At alpha = 1/2 this is the Levy law, S = 1/(2*N^2) with N standard
    normal (its Laplace transform is exp(-sqrt(s))); an exact N = 0 gives
    S = +inf, like E = 0 in Kanter's route.  Every other alpha goes through
    ``_kanter_stable``.  Both work in place on arrays of shape ``size``.
    """
    if alpha != 0.5:
        return _kanter_stable(alpha, rng, size)
    n = rng.standard_normal(size=size)
    with np.errstate(divide="ignore"):
        return np.divide(0.5, np.square(n, out=n), out=n)


def _log_sin_double(h):
    """log sin(2h) = log(2t / (1 + t^2)) with t = tan(h), in h's buffer."""
    t = np.tan(h, out=h)
    t /= t * t + 1.0
    return np.log(np.multiply(t, 2.0, out=t), out=t)


def _kanter_stable(alpha: float, rng: np.random.Generator, size):
    """Kanter's exact construction of the standard one-sided stable law:
        S = (A(U) / E)^((1-alpha)/alpha),
        A(u) = sin(a*pi*u)^(a/(1-a)) * sin((1-a)*pi*u) / sin(pi*u)^(1/(1-a)).
    Evaluated in log space: the sines underflow near the endpoints of (0,1).
    Each sine is sin(2h) = 2t/(1+t^2) with t = tan(h), h = (pi/2)*u*{a, 1-a, 1}:
    numpy 2.4's float64 ``tan`` has a SIMD loop on x86-64 and ``sin`` does not,
    so a draw is a third cheaper.  Only the rounding of A(U) differs.
    """
    u = sample_uniform01(rng, size=size)
    e = rng.standard_exponential(size=size)
    frac = alpha / (1.0 - alpha)
    h = (0.5 * np.pi) * u
    log_a = frac * _log_sin_double(alpha * h) + _log_sin_double((1.0 - alpha) * h)
    log_a -= (1.0 + frac) * _log_sin_double(h)
    log_a -= np.log(e)
    log_a *= 1.0 / frac
    return np.exp(log_a, out=log_a)

