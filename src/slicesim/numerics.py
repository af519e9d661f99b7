"""Reproducible complex Gaussian sampling.

Random sampling is counter-based: each :class:`RngStream` (seed, stream_id)
pair keys an independent Philox stream, so one stream per Monte Carlo trial
makes results bit-identical regardless of execution order or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "RngStream",
    "sample_complex_gaussian",
    "keyed_uniforms",
]

# Guard against u == 0.0 from Generator.random(); ndtri(0) would be -inf.
_TINY_U = 1e-300

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class RngStream:
    """One counter-based random stream, keyed Philox(seed, stream_id).

    A stream is a value: the same (seed, stream_id) reproduces the same
    sample sequence on every platform, and distinct stream_ids give
    statistically independent sequences. One stream per Monte Carlo trial.
    """

    seed: int
    stream_id: int

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not 0 <= v <= _UINT64_MAX:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))


def _normals_from_uniforms(u: np.ndarray) -> np.ndarray:
    # Inverse-CDF transform: exactly one uniform per normal, so consumption
    # per entry is fixed and sub-vectors sit at fixed stream offsets.
    return ndtri(np.maximum(u, _TINY_U))


def sample_complex_gaussian(
    gen: np.random.Generator, length: int, variance: float
) -> np.ndarray:
    """Draw `length` zero-mean circular complex Gaussians from `gen`.

    Each entry has real and imaginary parts N(0, variance/2), so
    E|entry|^2 = variance. Consumes exactly 2*length uniforms from the
    generator (real part first, then imaginary, per entry).
    """
    if length < 1:
        raise ValueError(f"length must be a positive integer, got {length}")
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    z = _normals_from_uniforms(gen.random(2 * length))
    scale = math.sqrt(variance / 2.0)
    return scale * (z[0::2] + 1j * z[1::2])


def keyed_uniforms(seed: int, first_stream: int, n_streams: int, n_per: int) -> np.ndarray:
    """Uniform block for consecutive streams; row i equals the first `n_per`
    uniforms of RngStream(seed, first_stream + i).

    Reuses a single Philox instance with per-row state resets, which is
    bit-identical to constructing a fresh generator per stream but avoids
    the per-object construction cost, and fills each row in place. Medians
    over 40 blocks of 4096 streams (numpy 2.4, one thread on a 2-vCPU Xeon
    VM): 3.0 us per stream at 22 uniforms and 5.0 us at 352, against 15
    and 16 us with a fresh generator per stream.
    """
    if n_streams < 0 or n_per < 0:
        raise ValueError("n_streams and n_per must be nonnegative")
    out = np.empty((n_streams, n_per))
    if n_streams == 0 or n_per == 0:
        return out
    bg = np.random.Philox(key=[seed, first_stream])
    gen = np.random.Generator(bg)
    state = bg.state
    key = state["state"]["key"]
    counter = state["state"]["counter"]
    for i in range(n_streams):
        key[1] = first_stream + i
        counter[:] = 0
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        bg.state = state
        gen.random(out=out[i])
    return out
