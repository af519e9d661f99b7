"""The scipy.special incomplete-gamma functions on the operating point's
domain (integer order up to 64, x up to 700), and the keyed sampler."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1, gammainc, gammaincc, gammaincinv, ndtri

from slicesim.channel import SystemConfig
from slicesim.numerics import (
    _TINY_U,
    _Z_MAX,
    RngStream,
    _normals_from_uniforms,
    keyed_uniforms,
    sample_complex_gaussian,
)

# E1(1.0) frozen from adaptive quadrature of the defining integral (below)
E1_AT_1 = 0.2193839343955203


def upper_incomplete_gamma(a: int, x: float) -> float:
    """Gamma(a, x) as `operating_point` forms its target-SNR denominator:
    E1(x) at a = 0, else (a-1)! Q(a, x)."""
    return float(exp1(x)) if a == 0 else math.factorial(a - 1) * float(gammaincc(a, x))


def quad_upper_gamma(a: int, x: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    val, _ = quad(lambda t: t ** (a - 1) * math.exp(-t), x, np.inf,
                  epsabs=1e-14, epsrel=1e-13)
    return val


def config_with(L: int, eps_B: float) -> SystemConfig:
    return SystemConfig(L=L, M=0, gamma_bar_B=1.0, gamma_bar_M=1.0, eps_B=eps_B, eps_M=0.1)


class TestUpperIncompleteGamma:
    def test_order_one_is_exponential(self):
        assert upper_incomplete_gamma(1, 0.5) == pytest.approx(0.6065306597, abs=1e-10)

    def test_at_zero_is_factorial(self):
        assert upper_incomplete_gamma(3, 0.0) == 2.0
        assert upper_incomplete_gamma(5, 0.0) == 24.0

    def test_order_zero_matches_quadrature(self):
        got = upper_incomplete_gamma(0, 1.0)
        oracle, _ = quad(lambda t: math.exp(-t) / t, 1.0, np.inf,
                         epsabs=1e-14, epsrel=1e-13)
        assert got == pytest.approx(E1_AT_1, rel=1e-10)
        assert got == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("a,x", [(2, 0.7), (8, 3.0), (16, 20.0), (64, 50.0)])
    def test_matches_quadrature(self, a, x):
        assert upper_incomplete_gamma(a, x) == pytest.approx(
            quad_upper_gamma(a, x), rel=1e-10
        )

    def test_extreme_arguments_stay_accurate(self):
        # a <= 64, x <= 700 must hold ~10 significant digits against the
        # finite Poisson sum Q(a, x) = sum_{k<a} e^{-x} x^k / k!
        for a, x in [(64, 700.0), (1, 700.0), (64, 1e-3), (32, 300.0)]:
            q = math.fsum(
                math.exp(k * math.log(x) - x - math.lgamma(k + 1)) for k in range(a)
            )
            assert upper_incomplete_gamma(a, x) == pytest.approx(
                math.factorial(a - 1) * q, rel=1e-10
            )

    def test_domain_errors(self):
        # scipy answers inf or nan outside the domain instead of raising, so
        # the configuration is what keeps the operating point inside it:
        # Gamma(0, 0) diverges (the L = 1 threshold at eps_B = 0), and L = 0
        # would ask for Gamma(-1, x)
        assert upper_incomplete_gamma(0, 0.0) == math.inf
        assert math.isnan(upper_incomplete_gamma(2, -0.5))
        for L, eps_B in ((1, 0.0), (0, 1e-3)):
            with pytest.raises(ValueError):
                config_with(L, eps_B)

    @given(a=st.integers(1, 64), x=st.floats(0.0, 700.0))
    @settings(max_examples=200)
    def test_complement_identity(self, a, x):
        # Gamma(a, x) + gamma(a, x) = (a-1)!
        total = upper_incomplete_gamma(a, x) + (
            math.factorial(a - 1) * gammainc(a, x)
        )
        assert total == pytest.approx(math.factorial(a - 1), rel=1e-12)

    @given(a=st.integers(0, 16), x=st.floats(1e-6, 50.0), step=st.floats(1e-3, 5.0))
    @settings(max_examples=200)
    # a truncated Poisson sum times exp(-x) rounds upward past (a-1)! here
    @example(a=12, x=0.125, step=0.125)
    @example(a=14, x=0.125, step=0.25)
    def test_strictly_decreasing_in_x(self, a, x, step):
        fx = upper_incomplete_gamma(a, x)
        fs = upper_incomplete_gamma(a, x + step)
        assert fx >= fs
        # strictness only where the decrement is resolvable in doubles
        if a == 0 or gammainc(a, x + step) - gammainc(a, x) > 1e-12:
            assert fx > fs


class TestInverseRegularizedLowerGamma:
    def test_order_one_closed_form(self):
        p = 1.0 - math.exp(-1.0)
        assert gammaincinv(1, p) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("a", [1, 2, 5, 16, 64])
    def test_p_zero_maps_to_zero(self, a):
        assert gammaincinv(a, 0.0) == 0.0

    def test_order_two_against_bisection_oracle(self):
        # oracle: bisection on 1 - e^-x (1 + x) = 1/2
        lo, hi = 0.0, 10.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if 1.0 - math.exp(-mid) * (1.0 + mid) < 0.5:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert oracle == pytest.approx(1.6783469900, abs=1e-9)
        assert gammaincinv(2, 0.5) == pytest.approx(oracle, abs=1e-10)

    def test_domain_errors(self):
        # no finite inverse outside [0, 1); the configuration refuses those
        # outage targets (and 0, whose threshold is 0) before scipy sees them
        assert gammaincinv(2, 1.0) == math.inf
        assert all(math.isnan(gammaincinv(2, p)) for p in (-0.1, 1.5))
        for bad_p in (-0.1, 0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                config_with(2, bad_p)

    @given(a=st.integers(1, 64), p=st.floats(0.0, 0.999))
    @settings(max_examples=200)
    def test_right_inverse(self, a, p):
        x = gammaincinv(a, p)
        assert gammainc(a, x) == pytest.approx(p, abs=1e-9)

    def test_grid_round_trip(self):
        for a in (1, 2, 4, 8, 16, 64):
            for p in np.linspace(0.0, 0.999, 41):
                x = gammaincinv(a, float(p))
                assert gammainc(a, x) == pytest.approx(
                    float(p), abs=1e-9
                )


class TestComplexGaussianSampler:
    def test_entry_variance(self):
        gen = RngStream(2024, 0).generator()
        v = sample_complex_gaussian(gen, 250_000, 1.0)
        assert np.mean(np.abs(v) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_vector_norm_mean(self):
        # E ||v||^2 = L * variance
        L, var = 8, 2.5
        total = 0.0
        n = 20_000
        for t in range(n):
            v = sample_complex_gaussian(RngStream(7, t).generator(), L, var)
            total += np.sum(np.abs(v) ** 2)
        mean = total / n
        assert mean == pytest.approx(L * var, rel=0.01)

    def test_determinism(self):
        a = sample_complex_gaussian(RngStream(123, 456).generator(), 16, 3.0)
        b = sample_complex_gaussian(RngStream(123, 456).generator(), 16, 3.0)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_complex_gaussian(RngStream(123, 0).generator(), 8, 1.0)
        b = sample_complex_gaussian(RngStream(123, 1).generator(), 8, 1.0)
        c = sample_complex_gaussian(RngStream(124, 0).generator(), 8, 1.0)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_order_independence(self):
        # consuming streams in any order yields the same per-stream output
        ids = [5, 1, 9, 3]
        first = {
            i: sample_complex_gaussian(RngStream(9, i).generator(), 4, 1.0) for i in ids
        }
        second = {
            i: sample_complex_gaussian(RngStream(9, i).generator(), 4, 1.0)
            for i in reversed(ids)
        }
        for i in ids:
            assert np.array_equal(first[i], second[i])

    def test_fixed_consumption_makes_prefixes_agree(self):
        # the first k entries do not depend on how many more are drawn
        long = sample_complex_gaussian(RngStream(5, 5).generator(), 32, 1.0)
        short = sample_complex_gaussian(RngStream(5, 5).generator(), 8, 1.0)
        assert np.array_equal(long[:8], short)

    def test_input_validation(self):
        gen = RngStream(0, 0).generator()
        with pytest.raises(ValueError):
            sample_complex_gaussian(gen, 0, 1.0)
        with pytest.raises(ValueError):
            sample_complex_gaussian(gen, 4, 0.0)


class TestKeyedUniforms:
    def test_matches_fresh_generators(self):
        block = keyed_uniforms(99, 10, 20, 12, out=np.empty((20, 12)))
        for i in (0, 7, 19):
            want = RngStream(99, 10 + i).generator().random(12)
            assert np.array_equal(block[i], want)

    @pytest.mark.parametrize("n_per", [1, 3, 5, 22, 352, 1040])
    def test_rows_match_fresh_generators_at_any_width(self, n_per):
        # Philox yields 4 words per counter step: a width that is not a
        # multiple of 4 leaves words buffered that the next row must not see
        block = keyed_uniforms(7, 1000, 9, n_per, out=np.empty((9, n_per)))
        assert block.shape == (9, n_per)
        for i in range(9):
            want = RngStream(7, 1000 + i).generator().random(n_per)
            assert np.array_equal(block[i], want)

    def test_empty_shapes(self):
        for shape in ((0, 5), (3, 0)):
            assert keyed_uniforms(1, 0, *shape, out=np.empty(shape)).shape == shape

    def test_fills_rows_of_a_caller_buffer(self):
        # a column prefix of a wider buffer and rows of a taller one take a
        # fresh buffer's values; nothing else in either buffer is written
        want = keyed_uniforms(99, 10, 5, 12, out=np.empty((5, 12)))
        wide, tall = np.zeros((5, 20)), np.zeros((9, 12))
        for buffer, rows in ((wide[:, :12], wide), (tall[2:7], tall)):
            filled = keyed_uniforms(99, 10, 5, 12, out=buffer)
            assert filled is buffer and np.array_equal(filled, want)
            assert np.count_nonzero(rows) == np.count_nonzero(want)

    def test_rejects_a_buffer_of_another_shape(self):
        with pytest.raises(ValueError, match="out"):
            keyed_uniforms(1, 0, 3, 4, out=np.empty((3, 5)))
        with pytest.raises(ValueError, match="out"):
            keyed_uniforms(1, 0, 3, 4, out=np.empty((3, 4), np.float32))


class TestNormalsFromUniforms:
    def test_in_place_transform_is_the_out_of_place_one(self):
        # the clamp and ndtri overwrite their input, bit for bit as the
        # allocating calls; u = 0 becomes -_Z_MAX
        u = np.concatenate([[0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53],
                            keyed_uniforms(3, 0, 1, 1000, out=np.empty((1, 1000)))[0]])
        want = ndtri(np.maximum(u, _TINY_U))
        z = _normals_from_uniforms(u)
        assert z is u and z.tobytes() == want.tobytes()
        assert z[0] == -_Z_MAX and np.isfinite(z).all()
