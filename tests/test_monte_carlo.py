"""Monte Carlo estimators: route equivalence, determinism, calibration."""

import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from conftest import nonorth_counts
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import binomtest, norm

from slicesim import monte_carlo
from slicesim.channel import SystemConfig, draw_realization, rate_threshold
from slicesim.cli import _nonorth_stats, parse_spec, run_outage
from slicesim.embb_analysis import operating_point
from slicesim.monte_carlo import (
    TrialTable,
    build_trial_table,
    build_trial_tables,
    wilson_half_width,
)
from slicesim.numerics import _Z_MAX
from slicesim.sic_decoder import decode_non_orthogonal, decode_orthogonal
from slicesim.slicing_search import (
    _gamma_bracket,
    max_mmtc_rate_nonorth,
    max_mmtc_rate_orth,
    nonorthogonal_region,
)


def make_cfg(**kw):
    base = dict(
        L=2, M=5, gamma_bar_B=100.0, gamma_bar_M=10**0.5,
        eps_B=1e-3, eps_M=0.1, trials=600, seed=314,
    )
    base.update(kw)
    return SystemConfig(**base)


def chunk_count(cfg, L_values):
    """Chunks of trials a build of cfg's tables at L_values draws, each as
    wide as the widest L."""
    return -(-cfg.trials // monte_carlo._chunk_size(cfg.M, 2 * max(L_values) * (cfg.M + 1)))


def two_chunks(L, M):
    """Trials that make two chunks at (L, M), the second one trial short of
    a full chunk."""
    return 2 * monte_carlo._chunk_size(M, 2 * L * (M + 1)) - 1


class TestOutageEstimate:
    def test_from_counts(self):
        # an estimate is errors / n with its Wilson half-width; n is M * trials
        # for device-slot failures and trials for broadband failures
        cfg = make_cfg(M=2, trials=500)
        p_B, p_M, hw_B, hw_M = _nonorth_stats(cfg, (25, 25))
        assert (p_B, p_M) == (0.05, 0.025)
        assert hw_M == pytest.approx(wilson_half_width(0.025, 1000))
        assert hw_B == pytest.approx(wilson_half_width(0.05, 500))

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
        for r_M in (0.0, 0.25, 0.7, 1.4, 3.0, 1024.0):
            fast = table.mmtc_orth_error_count(r_M)
            ref = sum(
                M - int(decode_orthogonal(real.G_M, cfg.P_M, r_M).mtc_decoded.sum())
                for real in reals
            )
            assert fast == ref

    @pytest.mark.parametrize("L,M", [(1, 1), (1, 3), (2, 5), (4, 2), (12, 200)])
    def test_nonorthogonal_counts(self, L, M):
        # M = 200 at L = 12 takes two chunks of trials. r_M = 0 decodes
        # every device first, so the broadband attempt comes last; no device
        # reaches r_M = 1024, whose threshold is +inf; M = 1 puts every
        # other attempt at the last SIC position
        cfg = make_cfg(L=L, M=M, trials=400 if M < 100 else two_chunks(L, M))
        assert M < 100 or chunk_count(cfg, (L,)) == 2
        table = build_trial_table(cfg)
        reals = [draw_realization(cfg, t) for t in range(cfg.trials)]
        cases = [
            (0.3, 1.0, 12.0), (0.8, 2.5, 40.0), (0.1, 0.0, 1e-9), (1.5, 4.0, 200.0),
            (0.0, 1.0, 12.0), (1024.0, 1.0, 12.0),
        ]
        # random probes: target SNRs from just above 2^r_B - 1 to ~150 times it
        rng = np.random.default_rng(L * 1000 + M)
        for _ in range(8):
            r_M = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 2.5))
            r_B = float(rng.uniform(0.0, 5.0))
            gamma = (2.0**r_B - 1.0) * float(np.exp(rng.uniform(1e-9, 5.0))) + 1e-9
            cases.append((r_M, r_B, gamma))
        for r_M, r_B, gamma in cases:
            mm_fast, eb_fast = nonorth_counts(table, r_M, r_B, gamma)
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


def replay_counts(table, r_M, r_B, gamma_tar):
    """Reference for `TrialTable.nonorth_error_counts`: the decode replayed at
    one operating point, the first device failure along the SIC order found
    by argmin and the broadband attempt's SINR gathered at that position."""
    cfg = table.cfg
    T, M = cfg.trials, cfg.M
    thr_M = 2.0**r_M - 1.0
    thr_B = 2.0**r_B - 1.0
    P_B = gamma_tar / table.d
    sig_with_b = (cfg.P_M * table.c * table.c) / (
        table.interf + P_B[:, None] * table.b + table.c
    )
    ok = sig_with_b >= thr_M
    k = np.where(ok.all(axis=1), M, ok.argmin(axis=1))
    b_k = table.b_suffix[np.arange(T), np.minimum(k, M - 1)]
    embb_ok = np.where(
        k < M, P_B * table.d * table.d / (b_k + table.d) >= thr_B, P_B * table.d >= thr_B
    )
    n_orth = (table.prefix_min >= thr_M).sum(axis=1)
    n_dec = np.where(embb_ok, n_orth, k)
    return M * T - int(n_dec.sum()), T - int(embb_ok.sum())


class TestNonorthPass:
    """The non-orthogonal count pass: a comparison of per-trial target-SNR
    thresholds, checked against the replayed decode."""

    @pytest.mark.parametrize("L,M", [(1, 1), (1, 3), (2, 5), (4, 2), (12, 200)])
    def test_one_pass_answers_every_rate_as_the_replay(self, L, M):
        # the shapes of TestRouteEquivalence: M = 200 spans two chunks. At
        # each r_B its broadband threshold and, per rate, one set of MTC
        # thresholds answer the bracket's two ends and its geometric
        # middle at r_M = 0 (k == M), the r_M the search accepts there,
        # random rates and r_M = 20 (k == 0)
        cfg = make_cfg(L=L, M=M, trials=400 if M < 100 else two_chunks(L, M))
        assert M < 100 or chunk_count(cfg, (L,)) == 2
        table = build_trial_table(cfg)
        op = operating_point(cfg)
        r_M_out = max_mmtc_rate_orth(table)
        rng = np.random.default_rng(L * 1000 + M)
        for r_B in (0.0, 0.3 * op.r_B_out, 0.7 * op.r_B_out):
            lo, hi = _gamma_bracket(op, r_B)
            accepted = max_mmtc_rate_nonorth(table, r_B, r_M_out)[0]
            rates = [0.0, accepted, 20.0, *rng.uniform(0.0, 2.5, 4)]
            for r_M in rates:
                mtc = table.mmtc_thresholds(r_M)
                assert mtc[1].tolist() == table.orth_decoded(r_M).tolist()
                for gamma in (lo, float(np.sqrt(lo * hi)), hi):
                    want = replay_counts(table, r_M, r_B, gamma)
                    found = table.nonorth_error_counts(mtc, r_B, gamma)
                    assert found == want, (r_B, gamma, r_M)


def first_failures(table, r_M, gamma):
    """Per trial, the devices decoded while the broadband signal is pending:
    the length of the leading run of SINRs that reach the threshold."""
    sig = (table.cfg.P_M * table.c**2) / (
        table.interf + (gamma / table.d)[:, None] * table.b + table.c
    )
    return np.logical_and.accumulate(sig >= 2.0**r_M - 1.0, axis=1).sum(axis=1)


class TestBoundaryInclusive:
    """A rate is decoded when log2(1 + SINR) reaches it exactly, as in
    `sic_decoder`. Three M = 1 trials on two antennas, P_M = 1, at r_M = r_B
    = 1 (both thresholds 1.0) and target SNR 3, with channels whose
    statistics are exact in floating point:
      A  g = (2, 0), g_B = (1, 0): with the broadband signal pending the
         device SINR is 16 / (3 * 4 + 4) = 1; a broadband attempt before it
         would see 3 / (4 + 1) < 1
      B  g = g_B = (1, 1): the device SINR is 4 / (1.5 * 4 + 2) < 1, the
         broadband attempt then sees 1.5 * 4 / (4 + 2) = 1, and the device
         alone decodes at SINR 2
      C  g = (1, 0), g_B = (1, 1): the device SINR is 1 / (1.5 + 1) < 1, the
         broadband attempt sees 1.5 * 4 / (1 + 2) = 2, and the device alone
         decodes at SINR 1
    """

    G_M = [np.array([[2.0], [0.0]]), np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]])]
    g_B = [np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0])]

    @pytest.fixture
    def table(self):
        cfg = make_cfg(L=2, M=1, P_M=1.0, trials=3)

        def column(*values):
            return np.array(values, dtype=float).reshape(3, 1)

        b = column(4.0, 4.0, 1.0)
        return TrialTable(cfg, c=column(4.0, 2.0, 1.0), interf=column(0.0, 0.0, 0.0), b=b,
                          b_suffix=b.copy(), d=np.array([1.0, 2.0, 2.0]),
                          prefix_min=column(4.0, 2.0, 1.0))

    def test_statistics_are_those_of_the_channels(self, table):
        for t, (G, g_B) in enumerate(zip(self.G_M, self.g_B)):
            c = float(G[:, 0] @ G[:, 0])
            assert (table.c[t, 0], table.b[t, 0], table.d[t]) == (
                c, float(G[:, 0] @ g_B) ** 2, float(g_B @ g_B))
            assert table.prefix_min[t, 0] == c * c / c

    def test_threshold_sinr_decodes(self, table):
        assert table.orth_decoded(1.0).tolist() == [1, 1, 1]
        assert table.mmtc_orth_error_count(1.0) == 0
        assert nonorth_counts(table, 1.0, 1.0, 3.0) == (0, 0)
        for G, g_B in zip(self.G_M, self.g_B):
            assert decode_orthogonal(G, 1.0, 1.0).mtc_decoded.all()
            out = decode_non_orthogonal(G, g_B, 1.0, 3.0 / float(g_B @ g_B), 1.0, 1.0)
            assert out.mtc_decoded.all() and out.embb_decoded

    def test_device_the_broadband_signal_does_not_reach(self):
        # an M = 2 trial with g_B = (1, 0): device 0, g = (0, 1), is
        # orthogonal to g_B (b = 0) and to device 1, and decodes at SINR 1
        # with or without the broadband signal; device 1, g = (0.5, 0), has
        # b = 0.25 and SINR 0.25 / (1.125 + 1) < 1 at target SNR 1.125. The
        # broadband attempt after device 0 then sees 1.125 / (0.25 + 1) < 1,
        # so device 0 decodes and nothing else does. The threshold of device
        # 0 is 0 / 0 as algebra, and +inf as a rule: it decodes at every
        # target SNR
        G = np.array([[0.0, 0.5], [1.0, 0.0]])
        g_B = np.array([1.0, 0.0])
        cfg = make_cfg(L=2, M=2, P_M=1.0, trials=1)

        def row(*values):
            return np.array([values], dtype=float)

        table = TrialTable(cfg, c=row(1.0, 0.25), interf=row(0.0, 0.0), b=row(0.0, 0.25),
                           b_suffix=row(0.25, 0.25), d=np.array([1.0]),
                           prefix_min=row(1.0, 0.25))
        for m in range(2):
            assert (table.c[0, m], table.b[0, m]) == (G[:, m] @ G[:, m], (G[:, m] @ g_B) ** 2)
        assert (table.interf[0, 0], table.d[0]) == ((G[:, 0] @ G[:, 1]) ** 2, g_B @ g_B)
        with np.errstate(all="raise"):
            U, orth_decoded = table.mmtc_thresholds(1.0)
            # the broadband attempt after device 0 needs (b_suffix + d) thr_B / d
            least = (table.b_suffix[0, 1] + table.d[0]) * rate_threshold(1.0) / table.d[0]
            assert U[0, 0] == np.inf and U[0, 1] < 1.125 < least
            assert orth_decoded.tolist() == [1]
            assert table.mmtc_thresholds(0.0)[0].tolist() == [[np.inf, np.inf]]
            assert nonorth_counts(table, 1.0, 1.0, 1.125) == (1, 1)
        out = decode_non_orthogonal(G, g_B, 1.0, 1.125, 1.0, 1.0)
        assert out.mtc_decoded.tolist() == [True, False] and not out.embb_decoded


class TestColumnMajorLayout:
    @pytest.mark.parametrize("L,M", [(1, 1), (4, 8), (12, 300)])
    def test_counts_do_not_depend_on_layout(self, L, M):
        cfg = make_cfg(L=L, M=M, trials=400 if M < 100 else 60)
        table = build_trial_table(cfg)
        for name in ("c", "interf", "b", "b_suffix", "prefix_min"):
            field = getattr(table, name)
            assert field.shape == (cfg.trials, M) and field.flags.f_contiguous, name
        fields = ("c", "interf", "b", "b_suffix", "d", "prefix_min")
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
            want = nonorth_counts(rows, r_M, r_B, gamma)
            assert nonorth_counts(table, r_M, r_B, gamma) == want
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
        for name in ("c", "interf", "b", "b_suffix", "d", "prefix_min"):
            assert np.array_equal(getattr(t1, name), getattr(t3, name))

    def test_joint_estimates_deterministic(self):
        cfg = make_cfg(L=4, M=10, trials=2000)
        a = nonorth_counts(build_trial_table(cfg), 0.4, 2.0, 50.0)
        b = nonorth_counts(build_trial_table(cfg, workers=4), 0.4, 2.0, 50.0)
        assert a == b

    def test_held_draw_of_another_seed_is_rejected(self):
        held = monte_carlo.HeldDraw(seed=1)
        build_trial_table(make_cfg(seed=1), held=held)
        with pytest.raises(ValueError, match="seed"):
            build_trial_table(make_cfg(seed=2), held=held)

    def test_table_over_physical_memory_raises_before_allocating(self):
        with pytest.raises(MemoryError, match="physical memory"):
            build_trial_table(make_cfg(M=4096, trials=10**8))

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("L_values,M,trials", [
        # 55 chunks at the L = 16 width, the last one 20 trials short; at
        # L = 1, one chunk of all 777 trials, fewer than a chunk can hold
        ((1, 8, 16), 10, 20_000), ((1,), 5, 777),
    ])
    def test_counts_are_those_of_the_whole_tables(self, workers, L_values, M, trials):
        # every count of both slicing modes, summed over the chunks, equals
        # the count on the whole table of each L, and each L has a count
        # that is neither 0 nor every device slot
        cfg = make_cfg(M=M, trials=trials)

        def count(table):
            counts = ()
            for r_M in (0.4, 1.5):
                counts += (table.mmtc_orth_error_count(r_M),)
                counts += table.nonorth_error_counts(table.mmtc_thresholds(r_M), 2.0, 60.0)
            return counts

        want = [count(table) for table in build_trial_tables(cfg, L_values)]
        assert monte_carlo.count_trials(cfg, L_values, count, workers) == want
        assert all(any(0 < n < M * trials for n in counts) for counts in want)

    def test_memory_check_counts_the_count_pass(self, monkeypatch):
        # at L = 1, M = 1 and T = 2^17 the table is 6 * T * 8 bytes and a
        # chunk 16384 trials of 186 bytes; a search on the table holds U, the
        # decoded counts and a count pass's transients, 45 bytes per trial
        # and one reduction buffer, which is the larger peak
        T = 2**17
        count = T * 45 + 8 * np.getbufsize()
        assert monte_carlo._chunk_size(1, 4) == 16384
        assert 16384 * monte_carlo._trial_bytes(1, 4) < count
        need = 6 * T * 8 + count

        def physical(n):
            sysconf = lambda name: n if name == "SC_PHYS_PAGES" else 1  # noqa: E731
            monkeypatch.setattr(monte_carlo.os, "sysconf", sysconf)

        cfg = make_cfg(L=1, M=1, trials=T)
        physical(need - 1)
        with pytest.raises(MemoryError, match=f"count temporaries of {count} bytes"):
            build_trial_table(cfg)
        physical(need)
        assert build_trial_table(cfg).c.shape == (T, 1)

    def test_memory_check_counts_every_table_of_a_sweep(self, monkeypatch):
        # at M = 1 and T = 32768 each table is 6 * T * 8 bytes; the sweep at
        # L = 1, 2 holds both tables and, with two workers, two chunks in
        # flight of 14768 trials at the L = 2 width, 284 bytes each, which
        # outweigh the count temporaries of either table
        T = 32768
        chunk = monte_carlo._chunk_size(1, 8) * monte_carlo._trial_bytes(1, 8)
        physical = 6 * T * 8 + 2 * chunk  # the L = 2 build
        assert T * 45 + 8 * np.getbufsize() < 2 * chunk
        sysconf = lambda name: physical if name == "SC_PHYS_PAGES" else 1  # noqa: E731
        monkeypatch.setattr(monte_carlo.os, "sysconf", sysconf)
        cfg = make_cfg(L=1, M=1, trials=T)
        for L in (1, 2):
            assert build_trial_table(replace(cfg, L=L), workers=2).d.shape == (T,)
        with pytest.raises(MemoryError, match=r"2 trial table.*2 chunk\(s\) in flight"):
            monte_carlo.build_trial_tables(cfg, (1, 2), workers=2)

    def test_memory_check_reserves_every_chunk_in_flight(self, monkeypatch):
        # at L = 1 and M = 200 a chunk's Grams dominate: two chunks of
        # trials, and two workers hold both at once. The reservation before
        # counted one Gram block (16 bytes per entry) beside every chunk's
        # draw (16 bytes per column), however many chunks were in flight: the
        # build fits under it and not under both chunks
        M, width = 200, 2 * 201
        step = monte_carlo._chunk_size(M, width)
        T = 2 * step
        tables = T * (5 * M + 1) * 8
        old_step = monte_carlo._CHUNK_BUDGET // (16 * (width + M * M))
        assert -(-T // old_step) == 2
        one_gram = tables + 2 * old_step * width * 16 + old_step * M * M * 16
        need = tables + 2 * step * monte_carlo._trial_bytes(M, width)
        assert one_gram < need

        def physical(n):
            sysconf = lambda name: n if name == "SC_PHYS_PAGES" else 1  # noqa: E731
            monkeypatch.setattr(monte_carlo.os, "sysconf", sysconf)

        cfg = make_cfg(L=1, M=M, trials=T)
        for short in (need - one_gram, 1):
            physical(need - short)
            with pytest.raises(MemoryError, match="2 chunk"):
                build_trial_table(cfg, workers=2)
        physical(need)
        assert build_trial_table(cfg, workers=2).c.shape == (T, M)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sweep_equals_its_parts(self, workers):
        # at M = 64 and the L = 16 width, two full chunks and half of one,
        # and every table of the sweep reads a column prefix of the L = 16 draw
        L_values = (1, 2, 4, 8, 16)
        step = monte_carlo._chunk_size(64, 2 * 16 * 65)
        cfg = make_cfg(M=64, trials=2 * step + step // 2)
        assert chunk_count(cfg, L_values) == 3
        sweep = monte_carlo.build_trial_tables(cfg, L_values, workers=workers)
        assert [t.cfg for t in sweep] == [replace(cfg, L=L) for L in L_values]
        for table in sweep:
            alone = build_trial_table(table.cfg)
            for name in ("c", "interf", "b", "b_suffix", "d", "prefix_min"):
                assert np.array_equal(getattr(table, name), getattr(alone, name))

    @pytest.mark.parametrize("rule", [
        # the Gram-only rule
        lambda M, width: max(1, min(16384, 4_000_000 // max(M * M, 1))),
        # the byte bound at a 64 MiB budget
        lambda M, width: max(1, min(16384, 2**26 // monte_carlo._trial_bytes(M, width))),
        # the peak of a chunk that allocated its own temporaries, at 16 MiB
        lambda M, width: max(1, min(16384, 2**24 // (24 * (width + M * M) + 80 * (M + 1)))),
    ], ids=["gram-only", "64-mib", "16-mib"])
    @pytest.mark.parametrize("L_values,M,trials", [((1, 8, 16), 10, 20_000), ((8,), 64, 2000)])
    def test_tables_do_not_depend_on_the_chunk_rule(self, monkeypatch, rule, L_values, M,
                                                    trials):
        # the outage sweep is 55 chunks under the workspace bound, 14 under
        # the 16 MiB rule, four at a 64 MiB budget and two under the
        # Gram-only rule; at (L = 8, M = 64) the rules make 63, 16, four and
        # three chunks. Each workspace serves several chunks
        cfg = make_cfg(M=M, trials=trials)
        width = 2 * max(L_values) * (M + 1)
        new = build_trial_tables(cfg, L_values)
        assert rule(M, width) != monte_carlo._chunk_size(M, width)
        monkeypatch.setattr(monte_carlo, "_chunk_size", rule)
        old = build_trial_tables(cfg, L_values)
        for a, b in zip(new, old):
            for name in ("c", "interf", "b", "b_suffix", "d", "prefix_min"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_builds_share_no_state(self, workers):
        # the outage sweep, then L = 8 at M = 57, then the sweep again, each
        # in more chunks than workers with a short last one, so every
        # workspace serves several chunks and tables. Every table equals one
        # built alone, later builds leave earlier tables as they were, and
        # no two tables share memory
        fields = ("c", "interf", "b", "b_suffix", "d", "prefix_min")
        sweep = (make_cfg(M=10, trials=999), (1, 8, 16))
        built = []
        for cfg, L_values in (sweep, (make_cfg(M=57, trials=999), (8,)), sweep):
            step = monte_carlo._chunk_size(cfg.M, 2 * max(L_values) * (cfg.M + 1))
            assert chunk_count(cfg, L_values) > workers and cfg.trials % step
            for table in build_trial_tables(cfg, L_values, workers=workers):
                built.append((table, [getattr(table, name).copy() for name in fields]))
        for table, as_built in built:
            alone = build_trial_table(table.cfg)
            for name, value in zip(fields, as_built):
                assert np.array_equal(getattr(table, name), value)
                assert np.array_equal(value, getattr(alone, name))
        arrays = [getattr(table, name) for table, _ in built for name in fields]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_workspaces_are_not_shared_under_thread_switching(self):
        # four workers, switching threads every microsecond, over 11 chunks:
        # a workspace that two chunks used at once would corrupt a table or
        # a chunk's rows and so its counts, and a workspace not handed back
        # would stall the pass
        cfg = make_cfg(M=10, trials=4000)
        assert chunk_count(cfg, (1, 8, 16)) > 4
        want = build_trial_tables(cfg, (1, 8, 16))

        def count(table):
            return (table.mmtc_orth_error_count(0.9),) + nonorth_counts(table, 0.9, 2.0, 60.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            got = pool.submit(build_trial_tables, cfg, (1, 8, 16), 4).result(timeout=120)
            counts = pool.submit(monte_carlo.count_trials, cfg, (1, 8, 16), count,
                                 4).result(timeout=120)
        finally:
            pool.shutdown(wait=False)
            sys.setswitchinterval(interval)
        for a, b in zip(want, got):
            for name in ("c", "interf", "b", "b_suffix", "d", "prefix_min"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        assert counts == [count(table) for table in want]

    @pytest.mark.parametrize("M", [0, 1, 10, 64, 300, 1000, 2047, 2048, 4096])
    def test_chunk_is_the_most_trials_within_the_budget(self, M):
        # a trial's peak bytes, `_trial_bytes` (checked against measured
        # peaks in TestMemoryBounds); past the bound a chunk is one trial
        bound = monte_carlo._CHUNK_BUDGET
        for L in (1, 2, 8, 16, 64, 256):
            width = 2 * L * (M + 1)
            step = monte_carlo._chunk_size(M, width)
            trial = monte_carlo._trial_bytes(M, width)
            assert step == 1 or step * trial <= bound
            assert step == 16384 or (step + 1) * trial > bound

    def test_seed_changes_estimates(self):
        r = 0.62
        a = build_trial_table(make_cfg(trials=3000, seed=1)).mmtc_orth_error_count(r)
        b = build_trial_table(make_cfg(trials=3000, seed=2)).mmtc_orth_error_count(r)
        assert a != b


def traced_peak(run):
    """tracemalloc's peak of the bytes allocated while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    """The byte counts of the memory check hold what the code allocates."""

    @pytest.mark.parametrize("L_values,M", [
        *(pytest.param((L,), M, id=f"L{L}-M{M}")
          for L in (1, 2, 8, 12, 16) for M in (1, 10, 60, 300)),
        # the region workload's sweep, and the outage workload's antenna
        # counts, whose chunks count_trials reduces the same way; max-devices
        # builds L = 8
        pytest.param((1, 8), 10, id="region"),
        pytest.param((1, 8, 16), 10, id="outage"),
    ])
    def test_chunk_peak_is_within_its_trial_bytes(self, L_values, M):
        # a build of one chunk: its draw at the widest L, then each table's
        # reduction from its column prefix, beside the tables it fills
        width = 2 * max(L_values) * (M + 1)
        step = monte_carlo._chunk_size(M, width)
        peak = traced_peak(lambda: build_trial_tables(make_cfg(M=M, trials=step), L_values))
        tables = len(L_values) * step * (5 * M + 1) * 8
        assert peak - tables <= step * monte_carlo._trial_bytes(M, width)

    @pytest.mark.parametrize("L,M,trials", [
        (2, 1, 32768), (8, 10, 10_000), (8, 60, 1000), (12, 300, 200),
    ])
    def test_search_peak_is_within_the_count_bytes(self, L, M, trials):
        # the rate search of three r_B points, as the CLI runs it, and one
        # count, on a built table
        table = build_trial_table(make_cfg(L=L, M=M, trials=trials))
        op = operating_point(table.cfg)
        r_M_out = max_mmtc_rate_orth(table)

        def search():
            nonorthogonal_region(table, [f * op.r_B_out for f in (0.0, 0.3, 0.7)], r_M_out)
            nonorth_counts(table, 0.5 * r_M_out, 0.3 * op.r_B_out, op.gamma_tar)

        assert traced_peak(search) <= monte_carlo._count_bytes(trials, M)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_outage_peak_does_not_grow_with_trials(self, tmp_path, monkeypatch, workers):
        # the benchmark's outage shape (L = 1, 8, 16, M = 10, both modes) at
        # 2 and at 16 chunks of trials. The command counts chunk by chunk
        # and holds, per worker, a workspace, one chunk's table rows and one
        # count's temporaries, however many chunks it counts; its memory
        # check reserves exactly those
        M, width = 10, 2 * 16 * 11
        step = monte_carlo._chunk_size(M, width)
        rows = step * (5 * M + 1) * 8
        reserved = workers * (step * monte_carlo._trial_bytes(M, width) + rows
                              + monte_carlo._count_bytes(step, M))
        text = "r_M = 1.0\nr_B = 4.0\nL = 1,8,16\n"
        out = str(tmp_path / "outage.csv")
        peaks = []
        for chunks in (2, 16):
            spec = parse_spec("outage", text, "fig3", seed=1, trials=chunks * step)
            peaks.append(traced_peak(lambda: run_outage(spec, out, workers)))
        assert max(peaks) <= reserved
        assert peaks[1] <= peaks[0] + rows

        def physical(n):
            sysconf = lambda name: n if name == "SC_PHYS_PAGES" else 1  # noqa: E731
            monkeypatch.setattr(monte_carlo.os, "sysconf", sysconf)

        physical(reserved - 1)
        with pytest.raises(MemoryError, match=f"{workers} chunk"):
            run_outage(spec, out, workers)
        physical(reserved)
        run_outage(spec, out, workers)

    def test_max_devices_peak_is_within_its_reservation(self, monkeypatch):
        # the benchmark's max-devices shape (L = 8, 1000 trials), whose widest
        # probed count, 64, holds 1000 trials of 1040 columns: each build
        # reserves its table, the held draw and the larger of its chunk and
        # its count temporaries. The run's peak is within the largest
        # reservation, one byte short of it raises and the exact size runs
        import slicesim.slicing_search as search

        cfg = make_cfg(L=8, trials=1000)
        points = [(0.0, "orth"), (0.0, "nonorth")]
        probed, build = [], search.build_trial_table

        def recording(c, **kw):
            probed.append(c.M)
            return build(c, **kw)

        monkeypatch.setattr(search, "build_trial_table", recording)
        want = search.max_devices(cfg, 0.25, points)
        monkeypatch.setattr(search, "build_trial_table", build)
        assert max(probed) == 64
        T, widest, need = cfg.trials, 0, 0
        for M in probed:
            width = 2 * cfg.L * (M + 1)
            widest = max(widest, width)
            held = min(T, monte_carlo._HELD_BUDGET // (8 * widest)) * widest * 8
            step = monte_carlo._chunk_size(M, width)
            chunk = min(step, T) * monte_carlo._trial_bytes(M, width)
            need = max(need, T * (5 * M + 1) * 8 + held
                       + max(chunk, monte_carlo._count_bytes(T, M)))
        assert traced_peak(lambda: search.max_devices(cfg, 0.25, points)) <= need

        def physical(n):
            sysconf = lambda name: n if name == "SC_PHYS_PAGES" else 1  # noqa: E731
            monkeypatch.setattr(monte_carlo.os, "sysconf", sysconf)

        physical(need - 1)
        with pytest.raises(MemoryError, match="a held draw of 8320000 bytes"):
            search.max_devices(cfg, 0.25, points)
        physical(need)
        assert search.max_devices(cfg, 0.25, points) == want


class TestMmtcThresholds:
    @pytest.mark.parametrize("L,M,r_M", [(1, 1, 0.7), (4, 10, 0.4), (16, 10, 1.0)])
    def test_plain_division_is_the_masked_formula(self, L, M, r_M):
        # with every coupling positive the thresholds divide by b without a
        # mask, and equal the masked formula that a zero coupling needs
        table = build_trial_table(make_cfg(L=L, M=M, trials=2000))
        assert (table.b > 0).all()
        U, orth_decoded = table.mmtc_thresholds(r_M)
        want = table.cfg.P_M * table.c * table.c / rate_threshold(r_M) - table.interf - table.c
        want *= table.d[:, None]
        np.divide(want, table.b, out=want, where=table.b > 0)
        unreached = table.b == 0
        want[unreached] = np.where(want[unreached] >= 0.0, np.inf, -np.inf)
        np.minimum.accumulate(want, axis=1, out=want)
        assert np.array_equal(U, want)
        assert np.array_equal(orth_decoded, table.orth_decoded(r_M))


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
            nonorth_counts(table, 0.5, 2.0, 3.0)  # 3.0 == 2^2 - 1

    def test_zero_rate_b_never_fails_embb(self):
        cfg = make_cfg(trials=3000)
        mm, eb = nonorth_counts(build_trial_table(cfg), 0.5, 0.0, 5.0)
        assert eb == 0

    def test_vanishing_power_reduces_to_orthogonal(self):
        cfg = make_cfg(trials=3000)
        table = build_trial_table(cfg)
        for r_M in (0.2, 0.6, 1.1):
            mm, eb = nonorth_counts(table, r_M, 0.0, 1e-12)
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
                mm, _ = nonorth_counts(table, r_M, 2.0, gamma)
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
                    mm, _ = nonorth_counts(table, r_M, r_B, gamma)
                    assert mm >= orth

    def test_mmtc_monotone_in_rate_exactly(self):
        # at fixed broadband power, raising the MTC rate can only shrink each
        # trial's decoded set (checked as exact count monotonicity)
        cfg = make_cfg(L=4, M=8, trials=4000)
        table = build_trial_table(cfg)
        for gamma in (5.0, 60.0, 300.0):
            counts = [
                nonorth_counts(table, r, 2.0, gamma)[0]
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
            nonorth_counts(table, 0.5, 2.0, g)[0]
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
            nonorth_counts(build_trial_table(make_cfg(M=0)), 0.5, 1.0, 10.0)


def single_device_error_rates(cfg, r_M, r_B, gamma):
    """(MTC, broadband) error probabilities at M = 1 as 1-D integrals.

    Split the device channel g into a = |g^H g_B|^2 / ||g_B||^2 ~ Exp(mean
    gamma_bar_M) and e = ||g||^2 - a ~ Gamma(L-1, gamma_bar_M), independent of
    each other and of g_B (e = 0 at L = 1). The device decodes with the
    broadband signal pending iff a + e >= c_plus(a), the positive root of
    P_M c^2 = thr_M (gamma a + c). The broadband attempt beneath the device
    succeeds iff a <= a0 = (gamma / thr_B - 1) / P_M, and alone it always
    succeeds. So the broadband signal fails iff a > a0 and a + e < c_plus(a),
    which needs a < a* = thr_M (1 + gamma) / P_M, where c_plus(a) = a. The
    device fails then, or when a <= a0 and a + e < thr_M / P_M.
    """
    thr_M, thr_B, P_M, scale = 2.0**r_M - 1.0, 2.0**r_B - 1.0, cfg.P_M, cfg.gamma_bar_M

    def cdf_e(y):
        if cfg.L == 1:
            return float(y > 0)
        return gammainc(cfg.L - 1, max(y, 0.0) / scale)

    def c_plus(a):
        return (thr_M + math.sqrt(thr_M**2 + 4 * P_M * thr_M * gamma * a)) / (2 * P_M)

    def integral(f, lo, hi):
        if hi <= lo:
            return 0.0
        return quad(lambda a: math.exp(-a / scale) / scale * f(a), lo, hi,
                    epsabs=1e-14, epsrel=1e-10)[0]

    a0 = (gamma / thr_B - 1.0) / P_M
    p_B = integral(lambda a: cdf_e(c_plus(a) - a), a0, thr_M * (1.0 + gamma) / P_M)
    p_M = p_B + integral(lambda a: cdf_e(thr_M / P_M - a), 0.0, min(a0, thr_M / P_M))
    return p_M, p_B


@pytest.fixture(scope="module")
def single_device_tables():
    """Criterion 9's scenario at M = 1, 2e5 trials, seed 2718, by L."""
    cfg = SystemConfig(L=1, M=1, gamma_bar_B=100.0, gamma_bar_M=10**0.5,
                       eps_B=1e-3, eps_M=0.1, trials=200_000, seed=2718)
    return {t.cfg.L: t for t in build_trial_tables(cfg, (1, 2, 4))}


def assert_counts_match_quadrature(table, r_M, r_B_fraction, end):
    """Both counts at (r_M, r_B_fraction * r_B_out), at either end of the
    admissible target-SNR bracket (lower end as the rate search forms it),
    pass an exact two-sided binomial test against
    `single_device_error_rates` at the level of a 4-sigma normal bound."""
    op = operating_point(table.cfg)
    r_B = r_B_fraction * op.r_B_out
    thr_B = 2.0**r_B - 1.0
    gamma = thr_B + (op.gamma_tar - thr_B) * 1e-9 if end == "lower" else op.gamma_tar
    T = table.cfg.trials
    for count, p in zip(nonorth_counts(table, r_M, r_B, gamma),
                        single_device_error_rates(table.cfg, r_M, r_B, gamma)):
        assert binomtest(count, T, p).pvalue >= 2 * norm.sf(4), (count, p)


class TestSingleDeviceQuadrature:
    @pytest.mark.parametrize("end", ["lower", "cap"])
    @pytest.mark.parametrize("L", [1, 2, 4])
    def test_counts_match_quadrature(self, single_device_tables, L, end):
        # criterion 9's operating point
        assert_counts_match_quadrature(single_device_tables[L], 0.25, 0.5, end)

    @pytest.mark.parametrize("L, r_M, r_B_fraction, end", [
        case for case in itertools.product(
            (1, 2, 4), (0.1, 0.25, 0.5), (0.25, 0.5, 0.75), ("lower", "cap"))
        if case[1:3] != (0.25, 0.5)  # criterion 9's point, tested above
    ])
    def test_more_operating_points(self, single_device_tables, L, r_M, r_B_fraction, end):
        assert_counts_match_quadrature(single_device_tables[L], r_M, r_B_fraction, end)


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


class TestLargestGains:
    def test_gains_at_the_bound_keep_every_statistic_finite(self):
        # gains that put SystemConfig's two bounds at about 1e308, and a
        # draw whose every normal is at the largest magnitude: all channels
        # are equal, so the interference and coupling sums reach the bounds
        L, M = 4, 10
        top = _Z_MAX**2 * L
        gain = math.sqrt(1e308 / M) / top
        cfg = make_cfg(L=L, M=M, gamma_bar_B=gain, gamma_bar_M=gain, trials=3)
        Z = np.full((3, 2 * L * (M + 1)), -_Z_MAX)
        stats = [np.empty((3, M)) for _ in range(4)] + [np.empty(3), np.empty((3, M))]
        with np.errstate(all="raise"):
            monte_carlo._table_chunk(cfg, Z, monte_carlo._Workspace(3, M, Z.shape[1]), stats)
        assert all(np.isfinite(s).all() for s in stats)
        assert stats[1].max() == pytest.approx((M - 1) / M * 1e308, rel=1e-9)
        for field in ("gamma_bar_B", "gamma_bar_M"):
            with pytest.raises(ValueError, match=f"{field} = .* overflow"):
                replace(cfg, **{field: 2 * gain})


class TestCauchySchwarzGuard:
    def test_cross_terms_bounded(self):
        # every interference term is below the product of received powers
        cfg = make_cfg(L=4, M=6, trials=2000)
        table = build_trial_table(cfg)
        # b = |g_m^H g_B|^2 <= c_m * d
        assert (table.b <= table.c * table.d[:, None] * (1 + 1e-9)).all()
