"""Monte Carlo estimators: route equivalence, determinism, calibration."""

import math
from dataclasses import replace

import numpy as np
import pytest

from slicesim import monte_carlo
from slicesim.channel import SystemConfig, draw_realization
from slicesim.monte_carlo import (
    OutageEstimate,
    TrialTable,
    build_trial_table,
    wilson_half_width,
)
from slicesim.sic_decoder import decode_non_orthogonal, decode_orthogonal


def make_cfg(**kw):
    base = dict(
        L=2, M=5, gamma_bar_B=100.0, gamma_bar_M=10**0.5,
        eps_B=1e-3, eps_M=0.1, trials=600, seed=314,
    )
    base.update(kw)
    return SystemConfig(**base)


class TestOutageEstimate:
    def test_from_counts(self):
        est = OutageEstimate.from_counts(25, 1000)
        assert est.p_hat == 0.025
        assert est.trials == 1000
        assert est.half_width_95 == pytest.approx(wilson_half_width(0.025, 1000))

    def test_wilson_sane(self):
        # symmetric in p, shrinks with n, positive even at p = 0
        assert wilson_half_width(0.1, 100) == pytest.approx(wilson_half_width(0.9, 100))
        assert wilson_half_width(0.1, 10_000) < wilson_half_width(0.1, 100)
        assert wilson_half_width(0.0, 1000) > 0


class TestRouteEquivalence:
    """The vectorized trial table must reproduce the per-realization
    reference decoders exactly, trial for trial."""

    @pytest.mark.parametrize("L,M", [(1, 1), (1, 4), (2, 5), (4, 3), (8, 2)])
    def test_orthogonal_counts(self, L, M):
        cfg = make_cfg(L=L, M=M, trials=400)
        table = build_trial_table(cfg)
        reals = [draw_realization(cfg, t) for t in range(cfg.trials)]
        for r_M in (0.0, 0.25, 0.7, 1.4, 3.0):
            fast = table.mmtc_orth_error_count(r_M)
            ref = sum(
                M - int(decode_orthogonal(real.G_M, cfg.P_M, r_M).mtc_decoded.sum())
                for real in reals
            )
            assert fast == ref

    @pytest.mark.parametrize("L,M", [(1, 1), (1, 3), (2, 5), (4, 2), (12, 300)])
    def test_nonorthogonal_counts(self, L, M):
        # M = 300 takes 44-trial chunks: its 60 trials span two of them.
        # r_M = 0 decodes every device first, so the broadband attempt comes
        # last; M = 1 puts every other attempt at the last SIC position
        cfg = make_cfg(L=L, M=M, trials=400 if M < 100 else 60)
        table = build_trial_table(cfg)
        reals = [draw_realization(cfg, t) for t in range(cfg.trials)]
        cases = [
            (0.3, 1.0, 12.0), (0.8, 2.5, 40.0), (0.1, 0.0, 1e-9), (1.5, 4.0, 200.0),
            (0.0, 1.0, 12.0),
        ]
        # random probes: target SNRs from just above 2^r_B - 1 to ~150 times it
        rng = np.random.default_rng(L * 1000 + M)
        for _ in range(8):
            r_M = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 2.5))
            r_B = float(rng.uniform(0.0, 5.0))
            gamma = (2.0**r_B - 1.0) * float(np.exp(rng.uniform(1e-9, 5.0))) + 1e-9
            cases.append((r_M, r_B, gamma))
        for r_M, r_B, gamma in cases:
            mm_fast, eb_fast = table.nonorth_error_counts(r_M, r_B, gamma)
            mm_ref = eb_ref = 0
            for real in reals:
                P_B = gamma / float(np.real(np.vdot(real.g_B, real.g_B)))
                out = decode_non_orthogonal(real.G_M, real.g_B, cfg.P_M, P_B, r_M, r_B)
                mm_ref += M - int(out.mtc_decoded.sum())
                eb_ref += int(not out.embb_decoded)
            assert (mm_fast, eb_fast) == (mm_ref, eb_ref)

    def test_table_gains_match_realizations(self):
        cfg = make_cfg(trials=50)
        table = build_trial_table(cfg)
        gains = build_trial_table(replace(cfg, M=0)).d
        for t in (0, 13, 49):
            d = float(np.sum(np.abs(draw_realization(cfg, t).g_B) ** 2))
            assert table.d[t] == pytest.approx(d, rel=1e-12)
            assert gains[t] == pytest.approx(d, rel=1e-12)


def first_failures(table, r_M, gamma):
    """Per trial, the devices decoded while the broadband signal is pending:
    the length of the leading run of SINRs that reach the threshold."""
    sig = (table.cfg.P_M * table.c**2) / (
        table.interf + (gamma / table.d)[:, None] * table.b + table.c
    )
    return np.logical_and.accumulate(sig >= 2.0**r_M - 1.0, axis=1).sum(axis=1)


class TestColumnMajorLayout:
    @pytest.mark.parametrize("L,M", [(1, 1), (4, 8), (12, 300)])
    def test_counts_do_not_depend_on_layout(self, L, M):
        cfg = make_cfg(L=L, M=M, trials=400 if M < 100 else 60)
        table = build_trial_table(cfg)
        for name in ("c", "interf", "b", "b_suffix", "sigma_no_b", "prefix_min"):
            field = getattr(table, name)
            assert field.shape == (cfg.trials, M) and field.flags.f_contiguous, name
        fields = ("c", "interf", "b", "b_suffix", "d", "sigma_no_b")
        rows = TrialTable(cfg, *(np.ascontiguousarray(getattr(table, n)) for n in fields))
        assert rows.c.flags.c_contiguous and rows.prefix_min.flags.c_contiguous
        # r_M = 0 decodes every device with the broadband signal pending
        # (k == M); no device reaches rate 20 (k == 0)
        probes = [(0.0, 1.0, 12.0), (20.0, 1.0, 12.0)]
        rng = np.random.default_rng(L * 1000 + M)
        for _ in range(12):
            r_M = float(rng.uniform(0.0, 2.5))
            r_B = float(rng.uniform(0.0, 5.0))
            gamma = (2.0**r_B - 1.0) * float(np.exp(rng.uniform(1e-9, 5.0))) + 1e-9
            probes.append((r_M, r_B, gamma))
        reached = set()
        for r_M, r_B, gamma in probes:
            want = rows.nonorth_error_counts(r_M, r_B, gamma)
            assert table.nonorth_error_counts(r_M, r_B, gamma) == want
            assert table.mmtc_orth_error_count(r_M) == rows.mmtc_orth_error_count(r_M)
            k = first_failures(table, r_M, gamma)
            cases = (("k == 0", k == 0), ("0 < k < M", (k > 0) & (k < M)), ("k == M", k == M))
            reached |= {case for case, hit in cases if hit.any()}
        assert reached == {"k == 0", "k == M"} | ({"0 < k < M"} if M > 1 else set())


class TestDeterminism:
    def test_same_seed_same_estimates(self):
        cfg = make_cfg(trials=2000)
        a = build_trial_table(cfg).mmtc_orth_error_count(0.5)
        b = build_trial_table(cfg).mmtc_orth_error_count(0.5)
        assert a == b

    def test_worker_count_does_not_change_table(self):
        cfg = make_cfg(trials=3000)
        t1 = build_trial_table(cfg, workers=1)
        t3 = build_trial_table(cfg, workers=3)
        for name in ("c", "interf", "b", "b_suffix", "d", "sigma_no_b"):
            assert np.array_equal(getattr(t1, name), getattr(t3, name))

    def test_joint_estimates_deterministic(self):
        cfg = make_cfg(L=4, M=10, trials=2000)
        a = build_trial_table(cfg).nonorth_error_counts(0.4, 2.0, 50.0)
        b = build_trial_table(cfg, workers=4).nonorth_error_counts(0.4, 2.0, 50.0)
        assert a == b

    def test_table_over_physical_memory_raises_before_allocating(self):
        with pytest.raises(MemoryError, match="physical memory"):
            build_trial_table(make_cfg(M=4096, trials=10**8))

    def test_memory_check_counts_the_count_pass(self, monkeypatch):
        # at M = 1 and T = 32768 the table is 7 * T * 8 bytes, a chunk's Gram
        # block 16384 * 16 bytes, and one count pass's temporaries 2 * T * 8
        # bytes: the table and its Gram fit, the table and its evaluation not
        T = 32768
        need = 7 * T * 8 + 2 * T * 8

        def physical(n):
            sysconf = lambda name: n if name == "SC_PHYS_PAGES" else 1  # noqa: E731
            monkeypatch.setattr(monte_carlo.os, "sysconf", sysconf)

        physical(need - 1)
        with pytest.raises(MemoryError, match="count temporaries"):
            build_trial_table(make_cfg(M=1, trials=T))
        physical(need)
        assert build_trial_table(make_cfg(M=1, trials=T)).c.shape == (T, 1)

    def test_seed_changes_estimates(self):
        r = 0.62
        a = build_trial_table(make_cfg(trials=3000, seed=1)).mmtc_orth_error_count(r)
        b = build_trial_table(make_cfg(trials=3000, seed=2)).mmtc_orth_error_count(r)
        assert a != b


class TestOrthogonalEstimator:
    def test_zero_rate_no_errors(self):
        assert build_trial_table(make_cfg()).mmtc_orth_error_count(0.0) == 0

    def test_huge_rate_all_errors(self):
        cfg = make_cfg()
        assert build_trial_table(cfg).mmtc_orth_error_count(30.0) == cfg.M * cfg.trials

    def test_requires_devices(self):
        with pytest.raises(ValueError):
            build_trial_table(make_cfg(M=0)).mmtc_orth_error_count(0.5)

    def test_single_user_rayleigh_calibration(self):
        # closed form: Pr{P_M |g|^2 < 2^r - 1} = 1 - exp(-(2^r-1)/gamma_bar)
        gamma_bar = 10**0.5
        eps = 0.1
        thr = -gamma_bar * math.log(1 - eps)
        r = math.log2(1 + thr)
        cfg = make_cfg(L=1, M=1, gamma_bar_M=gamma_bar, trials=40_000)
        p_hat = build_trial_table(cfg).mmtc_orth_error_count(r) / cfg.trials
        se = math.sqrt(eps * (1 - eps) / cfg.trials)
        assert abs(p_hat - eps) < 3 * se

    def test_monotone_in_rate_exactly(self):
        cfg = make_cfg(trials=5000)
        table = build_trial_table(cfg)
        counts = [table.mmtc_orth_error_count(r) for r in np.linspace(0, 3, 13)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestNonOrthogonalEstimator:
    def test_gamma_precondition(self):
        table = build_trial_table(make_cfg())
        with pytest.raises(ValueError):
            table.nonorth_error_counts(0.5, 2.0, 3.0)  # 3.0 == 2^2 - 1

    def test_zero_rate_b_never_fails_embb(self):
        cfg = make_cfg(trials=3000)
        mm, eb = build_trial_table(cfg).nonorth_error_counts(0.5, 0.0, 5.0)
        assert eb == 0

    def test_vanishing_power_reduces_to_orthogonal(self):
        cfg = make_cfg(trials=3000)
        table = build_trial_table(cfg)
        for r_M in (0.2, 0.6, 1.1):
            mm, eb = table.nonorth_error_counts(r_M, 0.0, 1e-12)
            assert mm == table.mmtc_orth_error_count(r_M)
            assert eb == 0

    def test_mmtc_error_dominates_orthogonal(self):
        # broadband interference can only hurt the MTC devices (per trial the
        # non-orthogonal decoded set is contained in the orthogonal one)
        cfg = make_cfg(L=4, M=8, trials=4000)
        table = build_trial_table(cfg)
        for r_M in (0.3, 0.8):
            orth = table.mmtc_orth_error_count(r_M)
            for gamma in (5.0, 50.0, 300.0):
                mm, _ = table.nonorth_error_counts(r_M, 2.0, gamma)
                assert mm >= orth

    @pytest.mark.parametrize("L,M", [(1, 1), (1, 6), (4, 8), (8, 10), (16, 20)])
    def test_mmtc_error_dominates_orthogonal_sweep(self, L, M):
        # the same containment at any rate pair and admissible target SNR;
        # the non-orthogonal rate search stops at the orthogonal endpoint on it
        table = build_trial_table(make_cfg(L=L, M=M, trials=1500))
        for r_M in np.linspace(0.0, 2.5, 11):
            orth = table.mmtc_orth_error_count(r_M)
            for r_B in (0.0, 2.0, 4.0):
                for gamma in np.geomspace(2.0**r_B - 1.0 + 1e-6, 1e4, 7):
                    mm, _ = table.nonorth_error_counts(r_M, r_B, gamma)
                    assert mm >= orth

    def test_mmtc_monotone_in_rate_exactly(self):
        # at fixed broadband power, raising the MTC rate can only shrink each
        # trial's decoded set (checked as exact count monotonicity)
        cfg = make_cfg(L=4, M=8, trials=4000)
        table = build_trial_table(cfg)
        for gamma in (5.0, 60.0, 300.0):
            counts = [
                table.nonorth_error_counts(r, 2.0, gamma)[0]
                for r in np.linspace(0.0, 2.0, 9)
            ]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_interleaving_breaks_gamma_monotonicity(self):
        # set-level monotonicity in the broadband power does NOT hold: a
        # strong broadband signal is decoded and removed early, which can
        # rescue later devices. The error curve is a hump, low at both ends;
        # the gamma searches therefore never assume a monotone error count.
        cfg = make_cfg(L=4, M=8, trials=4000)
        table = build_trial_table(cfg)
        counts = [
            table.nonorth_error_counts(0.5, 2.0, g)[0]
            for g in np.geomspace(3.5, 300.0, 10)
        ]
        assert max(counts) > counts[0] and max(counts) > counts[-1]

    def test_per_attempt_sinr_monotonicity_in_power(self):
        # the trial-level guarantees behind the searches: broadband SINR at
        # any fixed attempt grows with its power, MTC SINRs shrink
        cfg = make_cfg(L=2, M=4, trials=500)
        table = build_trial_table(cfg)
        g_lo, g_hi = 5.0, 50.0
        P_lo, P_hi = g_lo / table.d, g_hi / table.d
        for j in range(cfg.M):
            sB_lo = P_lo * table.d**2 / (table.b_suffix[:, j] + table.d)
            sB_hi = P_hi * table.d**2 / (table.b_suffix[:, j] + table.d)
            assert (sB_hi >= sB_lo).all()
            c = table.c[:, j]
            num = cfg.P_M * c * c
            m_lo = num / (table.interf[:, j] + P_lo * table.b[:, j] + c)
            m_hi = num / (table.interf[:, j] + P_hi * table.b[:, j] + c)
            assert (m_hi <= m_lo).all()

    def test_requires_devices(self):
        with pytest.raises(ValueError):
            build_trial_table(make_cfg(M=0)).nonorth_error_counts(0.5, 1.0, 10.0)


def embb_power(gains, gamma_min, gamma_tar):
    """Mean truncated-inversion transmit power over the broadband gains."""
    return float(np.where(gains >= gamma_min, gamma_tar / gains, 0.0).mean())


class TestEmbbPowerEstimator:
    def test_never_transmits_at_infinite_threshold(self):
        gains = build_trial_table(make_cfg(M=0, trials=2000)).d
        assert embb_power(gains, 1e12, 50.0) == 0.0

    def test_linear_in_target(self):
        gains = build_trial_table(make_cfg(M=0, trials=2000)).d
        a = embb_power(gains, 1.0, 10.0)
        b = embb_power(gains, 1.0, 20.0)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_truncation_outage_counts_low_gains(self):
        gains = build_trial_table(make_cfg(M=0, trials=1000)).d
        med = float(np.median(gains))
        assert int((gains < med).sum()) / len(gains) == pytest.approx(0.5, abs=0.05)


class TestCauchySchwarzGuard:
    def test_cross_terms_bounded(self):
        # every interference term is below the product of received powers
        cfg = make_cfg(L=4, M=6, trials=2000)
        table = build_trial_table(cfg)
        # b = |g_m^H g_B|^2 <= c_m * d
        assert (table.b <= table.c * table.d[:, None] * (1 + 1e-9)).all()
