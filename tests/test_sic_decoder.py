"""Per-realization MRC-SIC decoding: hand examples and structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim.sic_decoder import decode_non_orthogonal, decode_orthogonal, sic_order


def random_channels(seed, L, M, gain_M=10**0.5, gain_B=100.0):
    rng = np.random.default_rng(seed)
    G = (rng.normal(size=(L, M)) + 1j * rng.normal(size=(L, M))) * np.sqrt(gain_M / 2)
    g_B = (rng.normal(size=L) + 1j * rng.normal(size=L)) * np.sqrt(gain_B / 2)
    return G, g_B


class TestSicOrder:
    def test_single_device(self):
        assert sic_order(np.array([[1.5 + 0j]])).tolist() == [0]

    def test_sorts_by_norm_descending(self):
        G = np.array([[1.0, 2.0, np.sqrt(2)]]) + 0j  # norms 1, 4, 2
        assert sic_order(G).tolist() == [1, 2, 0]

    def test_ties_break_by_original_index(self):
        G = np.array([[1.0, -1.0, 1j]])  # all norm 1
        assert sic_order(G).tolist() == [0, 1, 2]

    def test_empty(self):
        assert sic_order(np.zeros((2, 0), complex)).tolist() == []


class TestDecodeOrthogonalHandExamples:
    # M = 2, L = 1, g1 = 2, g2 = 1, P_M = 1:
    # sinr_1 = 16 / (4 + 4) = 2, sinr_2 = 1
    G = np.array([[2.0 + 0j, 1.0 + 0j]])

    def test_both_decode_at_rate_one(self):
        out = decode_orthogonal(self.G, 1.0, 1.0)
        assert out.mtc_decoded.tolist() == [True, True]
        assert not out.embb_decoded

    def test_weak_fails_at_rate_1p2(self):
        assert decode_orthogonal(self.G, 1.0, 1.2).mtc_decoded.tolist() == [True, False]

    def test_stop_on_first_failure_at_rate_1p7(self):
        assert decode_orthogonal(self.G, 1.0, 1.7).mtc_decoded.tolist() == [False, False]

    def test_single_user_collapses_to_snr(self):
        G = np.array([[np.sqrt(3) + 0j]])
        assert decode_orthogonal(G, 1.0, 2.0).mtc_decoded.tolist() == [True]
        assert decode_orthogonal(G, 1.0, 2.0 + 1e-9).mtc_decoded.tolist() == [False]

    def test_zero_rate_decodes_all(self):
        G, _ = random_channels(0, 4, 9)
        assert decode_orthogonal(G, 1.0, 0.0).mtc_decoded.all()

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            decode_orthogonal(self.G, 1.0, -0.1)


class TestDecodeNonOrthogonalHandExamples:
    # M = 2, L = 1, g1 = 2, g2 = 1, g_B = 1, P_M = 1, P_B = 4
    G = np.array([[2.0 + 0j, 1.0 + 0j]])
    g_B = np.array([1.0 + 0j])

    def test_broadband_rescue_then_all_decode(self):
        # step 1 fails (sinr 2/3); broadband attempt sinr 2/3, log2(5/3) >= 0.5
        # decodes; retry succeeds (sinr 2); second device follows (sinr 1)
        out = decode_non_orthogonal(self.G, self.g_B, 1.0, 4.0, 1.0, 0.5)
        assert out.mtc_decoded.tolist() == [True, True]
        assert out.embb_decoded and out.embb_decode_step == 0

    def test_broadband_failure_kills_remaining(self):
        # same attempt fails at r_B = 1 (log2(5/3) = 0.737 < 1)
        out = decode_non_orthogonal(self.G, self.g_B, 1.0, 4.0, 1.0, 1.0)
        assert out.mtc_decoded.tolist() == [False, False]
        assert not out.embb_decoded and out.embb_decode_step is None

    def test_interference_free_tail_decode(self):
        # both devices decode at rate 0; broadband decoded last at step M
        out = decode_non_orthogonal(self.G, self.g_B, 1.0, 4.0, 0.0, 1.0)
        assert out.mtc_decoded.all()
        assert out.embb_decoded and out.embb_decode_step == 2


class TestReductionAndProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_zero_broadband_power_reduces_to_orthogonal(self, seed):
        G, g_B = random_channels(seed, 2, 6)
        r_M = 0.7
        non = decode_non_orthogonal(G, g_B, 1.0, 0.0, r_M, 0.0)
        orth = decode_orthogonal(G, 1.0, r_M)
        assert np.array_equal(non.mtc_decoded, orth.mtc_decoded)
        assert non.embb_decoded  # r_B = 0 always decodes
        # with a positive rate a zero-power broadband signal never decodes
        assert not decode_non_orthogonal(G, g_B, 1.0, 0.0, r_M, 0.1).embb_decoded

    @given(seed=st.integers(0, 10_000), r=st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_orthogonal_decoded_set_is_prefix(self, seed, r):
        G, _ = random_channels(seed, 3, 7)
        out = decode_orthogonal(G, 1.0, r)
        order = sic_order(G)
        flags = out.mtc_decoded[order]
        k = int(flags.sum())
        assert flags[:k].all() and not flags[k:].any()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_orthogonal_monotone_in_rate(self, seed):
        G, _ = random_channels(seed, 2, 8)
        counts = [
            decode_orthogonal(G, 1.0, r).mtc_decoded.sum()
            for r in (0.0, 0.3, 0.8, 1.5, 3.0)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_removing_broadband_never_hurts_mtc_sinr(self, seed):
        # denominator loses a nonnegative term for every device
        G, g_B = random_channels(seed, 4, 5)
        order = sic_order(G)
        Gs = G[:, order]
        P_B = 3.0
        for k in range(5):
            c = np.sum(np.abs(Gs[:, k]) ** 2)
            interf = sum(np.abs(np.vdot(Gs[:, k], Gs[:, j])) ** 2 for j in range(k + 1, 5))
            b_k = np.abs(np.vdot(Gs[:, k], g_B)) ** 2
            with_b = c * c / (interf + P_B * b_k + c)
            without = c * c / (interf + c)
            assert without >= with_b

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_cauchy_schwarz_guard(self, seed):
        G, g_B = random_channels(seed, 3, 6)
        cols = [G[:, m] for m in range(6)] + [g_B]
        for i, u in enumerate(cols):
            for v in cols[i + 1 :]:
                lhs = np.abs(np.vdot(u, v)) ** 2
                rhs = np.sum(np.abs(u) ** 2) * np.sum(np.abs(v) ** 2)
                assert lhs <= rhs * (1 + 1e-9)

    def test_single_device_sinr_is_received_power(self):
        # M = 1: orthogonal SINR equals P_M ||g||^2 exactly
        G, _ = random_channels(3, 5, 1)
        p = 2.0 * np.sum(np.abs(G[:, 0]) ** 2)
        r_pass = np.log2(1 + p) - 1e-9
        r_fail = np.log2(1 + p) + 1e-9
        assert decode_orthogonal(G, 2.0, r_pass).mtc_decoded.all()
        assert not decode_orthogonal(G, 2.0, r_fail).mtc_decoded.any()
