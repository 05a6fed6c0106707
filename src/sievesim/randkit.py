"""Seeded random streams plus the primitive variate generators everything
else is built on: open-interval uniforms and an exact sampler of the
standard one-sided stable law, ``_standard_stable``.  At alpha = 1/2 that law
is the Levy distribution, and one uniform U and one exponential E give two
independent draws, 1/(4E cos^2(pi U/2)) and 1/(4E sin^2(pi U/2)) (Kanter's
formula at U and at 1 - U; independent by Box-Muller); every other alpha
uses Kanter's (1975) construction.  Its two callers, the path-integral
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


def sample_uniform01(rng, size, out=None):
    """Uniform draws strictly inside (0,1) (endpoints are never returned):
    (k + 1/2) 2^-53 for the 53-bit integer k that ``rng.random`` scales.
    With ``out`` (a float64 array of shape ``size``) the draws are written
    there."""
    u = rng.random(size, out=out)
    u += 2.0**-54
    return np.minimum(u, 1.0 - 2.0**-53, out=u)  # k + 1/2 rounds to 2**53 at k = 2**53 - 1


def _stable_buffer(count: int):
    """Scratch rows for ``_standard_stable`` draws of up to ``count`` values."""
    return np.empty((5, count + count % 2))


def _standard_stable(alpha: float, rng: np.random.Generator, size, buf=None):
    """Exact draws of the standard one-sided stable law: S > 0 with
    E exp(-s*S) = exp(-s**alpha), returned as a view of ``buf``, the
    scratch rows of ``_stable_buffer`` for at least prod(size) values (a
    fresh set when None).

    At alpha = 1/2 this is the Levy law (Laplace transform exp(-sqrt(s))),
    drawn in pairs: for k draws, h = ceil(k/2) uniforms U and then h
    exponentials E give t = tan(pi U/2), S1 = (1 + t^2)/(4E) =
    1/(4E cos^2(pi U/2)) in the first half and S2 = S1/t^2 =
    1/(4E sin^2(pi U/2)) in the second, trimmed to k.  S1 and S2 are
    independent: (sqrt(2E) cos, sqrt(2E) sin) of the angle pi U/2 are the
    absolute values of Box-Muller's two normals N, and S = 1/(2N^2).  An
    exact E = 0 gives S = +inf in both halves, like E = 0 in Kanter's
    route.  Every other alpha goes through ``_kanter_stable``.
    """
    if alpha != 0.5:
        return _kanter_stable(alpha, rng, size, buf)
    count = int(np.prod(size))
    if buf is None:
        buf = _stable_buffer(count)
    half = count - count // 2
    t = sample_uniform01(rng, half, out=buf[1, :half])
    e = rng.standard_exponential(half, out=buf[2, :half])
    t = np.tan(np.multiply(0.5 * np.pi, t, out=t), out=t)
    s1, s2 = buf[0, :half], buf[0, half:2 * half]
    np.add(np.square(t, out=s2), 1.0, out=s1)
    e *= 4.0
    with np.errstate(divide="ignore"):
        s1 /= e
    np.divide(s1, s2, out=s2)
    return buf[0, :count].reshape(size)


def _log_sin_double(h, scratch):
    """log sin(2h) = log(2t / (1 + t^2)) with t = tan(h), in h's buffer;
    ``scratch`` has h's shape."""
    t = np.tan(h, out=h)
    t /= np.add(np.square(t, out=scratch), 1.0, out=scratch)
    return np.log(np.multiply(t, 2.0, out=t), out=t)


def _kanter_stable(alpha: float, rng: np.random.Generator, size, buf=None):
    """Kanter's exact construction of the standard one-sided stable law:
        S = (A(U) / E)^((1-alpha)/alpha),
        A(u) = sin(a*pi*u)^(a/(1-a)) * sin((1-a)*pi*u) / sin(pi*u)^(1/(1-a)).
    Evaluated in log space: the sines underflow near the endpoints of (0,1).
    Each sine is sin(2h) = 2t/(1+t^2) with t = tan(h), h = (pi/2)*u*{a, 1-a, 1}:
    numpy 2.4's float64 ``tan`` has a SIMD loop on x86-64 and ``sin`` does not,
    so a draw is a third cheaper.  Only the rounding of A(U) differs.  The
    draw works in the five rows of ``buf`` (see ``_standard_stable``) and
    returns a view of one.
    """
    count = int(np.prod(size))
    if buf is None:
        buf = _stable_buffer(count)
    u, e, log_a, tmp, scratch = (row[:count].reshape(size) for row in buf)
    sample_uniform01(rng, size, out=u)
    rng.standard_exponential(size, out=e)
    frac = alpha / (1.0 - alpha)
    h = np.multiply(0.5 * np.pi, u, out=u)
    log_a = _log_sin_double(np.multiply(alpha, h, out=log_a), scratch)
    log_a *= frac
    log_a += _log_sin_double(np.multiply(1.0 - alpha, h, out=tmp), scratch)
    log_a -= np.multiply(1.0 + frac, _log_sin_double(h, scratch), out=h)
    log_a -= np.log(e, out=e)
    log_a *= 1.0 / frac
    return np.exp(log_a, out=log_a)
