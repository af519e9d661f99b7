"""Rate-region and device-count searches (small budgets; the full-scale
protocol runs live in the acceptance suite)."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import assert_thresholds_built_once
from hypothesis import given
from hypothesis import strategies as st

from slicesim.channel import SystemConfig, rate_threshold
from slicesim.embb_analysis import operating_point
from slicesim.monte_carlo import build_trial_table
from slicesim.sic_decoder import decode_non_orthogonal, decode_orthogonal
from slicesim.slicing_search import (
    RATE_TOL,
    _error_budget,
    _gamma_bracket,
    _gamma_search,
    max_devices,
    max_mmtc_rate_nonorth,
    max_mmtc_rate_orth,
    min_feasible_gamma_tar,
    nonorthogonal_region,
    orthogonal_region,
)


def make_cfg(**kw):
    base = dict(
        L=2, M=4, gamma_bar_B=100.0, gamma_bar_M=10**0.5,
        eps_B=1e-2, eps_M=0.1, trials=4000, seed=99,
    )
    base.update(kw)
    return SystemConfig(**base)


NAN = float("nan")
G_M, G_B = np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 0.0])


@pytest.mark.parametrize("call", [
    pytest.param(lambda t: t.orth_decoded(NAN), id="orth_decoded"),
    pytest.param(lambda t: t.mmtc_orth_error_count(NAN), id="mmtc_orth_error_count"),
    pytest.param(lambda t: t.mmtc_thresholds(NAN), id="mmtc_thresholds"),
    pytest.param(lambda t: t.embb_thresholds(NAN), id="embb_thresholds"),
    pytest.param(lambda t: t.nonorth_error_counts(NAN, 1.0, 50.0), id="nonorth-r_M"),
    pytest.param(lambda t: max_mmtc_rate_nonorth(t, NAN, 1.0), id="max_mmtc_rate_nonorth"),
    pytest.param(lambda t: max_mmtc_rate_nonorth(t, 0.5, NAN),
                 id="max_mmtc_rate_nonorth-r_M_out"),
    pytest.param(lambda t: max_mmtc_rate_nonorth(t, 0.5, -5.0),
                 id="max_mmtc_rate_nonorth-negative-r_M_out"),
    pytest.param(lambda t: min_feasible_gamma_tar(t.cfg, NAN, 0.3),
                 id="min_feasible_gamma_tar-r_B"),
    pytest.param(lambda t: min_feasible_gamma_tar(t.cfg, 0.5, NAN),
                 id="min_feasible_gamma_tar-r_M"),
    pytest.param(lambda t: max_devices(t.cfg, NAN, [(0.0, "orthogonal")]),
                 id="max_devices-r_M"),
    pytest.param(lambda t: max_devices(t.cfg, 0.25, [(NAN, "orthogonal")]),
                 id="max_devices-orthogonal-r_B"),
    pytest.param(lambda t: max_devices(t.cfg, 0.25, [(NAN, "non_orthogonal")]),
                 id="max_devices-non_orthogonal-r_B"),
    pytest.param(lambda t: rate_threshold(NAN), id="rate_threshold"),
    pytest.param(lambda t: rate_threshold(-1.0), id="rate_threshold-negative"),
    pytest.param(lambda t: decode_orthogonal(G_M, 1.0, NAN), id="decode_orthogonal"),
    pytest.param(lambda t: decode_non_orthogonal(G_M, G_B, 1.0, 2.0, 0.5, NAN),
                 id="decode_non_orthogonal-r_B"),
])
def test_nan_rate_is_rejected(call):
    # every rate check is written so that NaN fails it, as a negative rate does
    table = build_trial_table(make_cfg(trials=500))
    with pytest.raises(ValueError):
        call(table)


@pytest.mark.parametrize("r", [0.0, 0.25, 1.0, 64.0, 1023.0, math.nextafter(1024.0, 0.0)])
def test_rate_threshold_is_two_to_the_rate_minus_one(r):
    assert rate_threshold(r) == 2.0**r - 1.0


@pytest.mark.parametrize("r", [1024.0, 2000.0, math.inf])
def test_rate_threshold_is_infinite_where_two_to_the_rate_overflows(r):
    # no SINR decodes such a rate; 2.0**r overflows a double there
    assert rate_threshold(r) == math.inf


@given(n=st.integers(1, 10**9), eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_error_budget_is_the_largest_count_within_eps(n, eps):
    e = _error_budget(n, eps)
    assert 0 <= e < n
    assert e / n <= eps < (e + 1) / n


def test_min_feasible_gamma_tar_rejects_rates_before_any_build(monkeypatch):
    import slicesim.slicing_search as search

    def no_build(*args, **kw):
        raise AssertionError("built a table")

    monkeypatch.setattr(search, "build_trial_table", no_build)
    for r_B, r_M in ((-1.0, 0.3), (NAN, 0.3), (0.5, -1.0), (0.5, NAN)):
        with pytest.raises(ValueError, match="nonnegative"):
            min_feasible_gamma_tar(make_cfg(), r_B, r_M)


class TestMaxMmtcRateOrth:
    def test_single_user_against_closed_form(self):
        # Rayleigh closed form at eps_M = 0.1: r = log2(1 - gamma ln 0.9)
        want = math.log2(1.0 - 10**0.5 * math.log(0.9))
        cfg = make_cfg(L=1, M=1, trials=40_000)
        assert max_mmtc_rate_orth(build_trial_table(cfg)) == pytest.approx(want, abs=0.02)

    def test_result_is_feasible_and_near_boundary(self):
        # exact on the table: the result is feasible and the next double is
        # not; the last input is one device at gains so large that no
        # interference limits the SINR, with its endpoint above 64 bits/s/Hz
        slack = dict(M=1, gamma_bar_M=1e25, trials=300)
        for kw in (dict(), dict(L=1, M=10), dict(L=4, M=3, eps_M=0.01), slack):
            cfg = make_cfg(**kw)
            table = build_trial_table(cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = max_mmtc_rate_orth(table)
            r_next = float(np.nextafter(r, np.inf))
            n = cfg.M * cfg.trials
            assert table.mmtc_orth_error_count(r) / n <= cfg.eps_M
            assert table.mmtc_orth_error_count(r_next) / n > cfg.eps_M
        assert r > 64.0

    def test_diversity_gain(self):
        r1 = max_mmtc_rate_orth(build_trial_table(make_cfg(L=1, trials=20_000)))
        r2 = max_mmtc_rate_orth(build_trial_table(make_cfg(L=2, trials=20_000)))
        assert r2 > r1


class TestOrthogonalRegion:
    def test_endpoints_and_midpoint(self):
        cfg = make_cfg()
        r_M_out = max_mmtc_rate_orth(build_trial_table(cfg))
        (r_B0, r_M0), (r_B1, r_M1), (r_B2, r_M2) = orthogonal_region(
            cfg, [0.0, 0.5, 1.0], r_M_out
        )
        op = operating_point(cfg)
        assert r_B0 == 0.0 and r_M2 == 0.0
        assert r_B2 == pytest.approx(op.r_B_out)
        assert r_B1 == pytest.approx(0.5 * r_B2)
        assert r_M1 == pytest.approx(0.5 * r_M0)

    def test_line_identity(self):
        cfg = make_cfg()
        pts = orthogonal_region(
            cfg, np.linspace(0, 1, 11), max_mmtc_rate_orth(build_trial_table(cfg))
        )
        r_B_out = pts[-1][0]
        r_M_out = pts[0][1]
        for r_B, r_M in pts:
            assert r_B / r_B_out + r_M / r_M_out == pytest.approx(1.0, abs=1e-12)

    def test_invalid_grids(self):
        cfg = make_cfg(trials=500)
        with pytest.raises(ValueError):
            orthogonal_region(cfg, [], 1.0)
        with pytest.raises(ValueError):
            orthogonal_region(cfg, [0.0, 1.2], 1.0)


class TestMinFeasibleGammaTar:
    def test_zero_broadband_rate_returns_lower_bracket(self):
        cfg = make_cfg()
        op = operating_point(cfg)
        g = min_feasible_gamma_tar(cfg, 0.0, 0.5)
        assert g is not None and g == pytest.approx(op.gamma_tar * 1e-9, rel=1e-6)

    def test_respects_average_power_cap(self):
        cfg = make_cfg(L=4, M=4)
        op = operating_point(cfg)
        for r_B in (0.0, 0.3 * op.r_B_out, 0.9 * op.r_B_out):
            g = min_feasible_gamma_tar(cfg, r_B, 0.3)
            if g is not None:
                assert g <= op.gamma_tar * (1 + 1e-9)
                assert g > 2.0**r_B - 1.0

    def test_bisection_result_meets_eps_B(self):
        cfg = make_cfg(L=4, M=4)
        table = build_trial_table(cfg)
        op = operating_point(cfg)
        r_B = 0.3 * op.r_B_out
        g = min_feasible_gamma_tar(cfg, r_B, 0.3)
        assert g is not None
        assert table.nonorth_error_counts(0.3, r_B, g)[1] / cfg.trials <= cfg.eps_B


class TestMaxMmtcRateNonorth:
    def test_zero_broadband_rate_matches_orthogonal(self):
        cfg = make_cfg(trials=20_000)
        table = build_trial_table(cfg)
        r_orth = max_mmtc_rate_orth(table)
        r_non, gamma, _ = max_mmtc_rate_nonorth(table, 0.0, r_orth)
        assert r_non == pytest.approx(r_orth, abs=0.02)
        op = operating_point(cfg)
        assert gamma == pytest.approx(op.gamma_tar * 1e-9, rel=1e-6)

    @pytest.mark.parametrize("M", [1, 3, 10, 40])
    @pytest.mark.parametrize("L", [1, 2, 8, 16])
    def test_rate_zero_is_accepted_at_the_lower_end_without_errors(self, L, M):
        # the search starts from this answer instead of probing rate 0: every
        # device decodes with the broadband signal pending, which is then
        # decoded interference-free at every admissible target SNR
        for seed in (1, 2, 3):
            cfg = make_cfg(L=L, M=M, trials=300, seed=seed)
            table = build_trial_table(cfg)
            op = operating_point(cfg)
            for r_B in np.linspace(0.0, op.r_B_out, 7)[:-1]:
                bracket = _gamma_bracket(op, r_B)
                found = _gamma_search(table, bracket, table.embb_thresholds(r_B),
                                      table.mmtc_thresholds(0.0),
                                      _error_budget(M * cfg.trials, cfg.eps_M))
                assert found == (bracket[0], (0, 0)), (seed, r_B)

    def test_outage_rate_endpoint_degenerates(self):
        cfg = make_cfg()
        op = operating_point(cfg)
        r_M, gamma, _ = max_mmtc_rate_nonorth(build_trial_table(cfg), op.r_B_out, 1.0)
        assert r_M == 0.0
        assert gamma == pytest.approx(op.gamma_tar)

    def test_rate_just_below_outage_rate_degenerates(self):
        # so close to r_B_out that the lower end of the admissible target-SNR
        # interval rounds onto 2^r_B - 1: the interval is empty, not an error
        cfg = make_cfg(trials=500)
        table = build_trial_table(cfg)
        op = operating_point(cfg)
        for rel in (1e-8, 1e-10, 1e-12):
            r_B = op.r_B_out * (1.0 - rel)
            got = max_mmtc_rate_nonorth(table, r_B, max_mmtc_rate_orth(table))
            assert got == (0.0, op.gamma_tar, None)
            assert min_feasible_gamma_tar(cfg, r_B, 0.25) is None
            assert max_devices(cfg, 0.25, [(r_B, "non_orthogonal")]) == [0]

    def test_rejects_rate_beyond_outage_rate(self):
        cfg = make_cfg(trials=500)
        op = operating_point(cfg)
        with pytest.raises(ValueError):
            max_mmtc_rate_nonorth(build_trial_table(cfg), op.r_B_out * 1.01, 1.0)

    def test_never_exceeds_orthogonal_ceiling(self):
        # broadband interference cannot raise the MTC rate above the
        # interference-free maximum: on common random numbers the
        # non-orthogonal decoded set is a subset of the orthogonal one, and
        # the orthogonal endpoint is exact, so no slack is needed
        for L in (1, 4):
            cfg = make_cfg(L=L, M=4)
            table = build_trial_table(cfg)
            op = operating_point(cfg)
            ceiling = max_mmtc_rate_orth(table)
            for frac in (0.0, 0.05, 0.1, 0.25, 0.75):
                r_M, _, _ = max_mmtc_rate_nonorth(table, frac * op.r_B_out, ceiling)
                assert r_M <= ceiling

    @pytest.mark.parametrize("L", [1, 8])
    def test_no_operating_point_is_counted_twice(self, L, count_events):
        # the count that accepts a target SNR also gives the MTC count, and
        # the search answers as one that counts again at that SNR; the
        # broadband thresholds are built once per r_B point and the MTC ones
        # once per rate probe
        cfg = make_cfg(L=L, trials=2000)
        table = build_trial_table(cfg)
        op = operating_point(cfg)
        r_B_points = (0.0, 0.1 * op.r_B_out, 0.99 * op.r_B_out)
        want = [two_pass_max_rate(cfg, r_B, table) for r_B in r_B_points]
        r_M_out = max_mmtc_rate_orth(table)
        for r_B, expected in zip(r_B_points, want):
            count_events.clear()
            assert max_mmtc_rate_nonorth(table, r_B, r_M_out)[:2] == expected
            assert_thresholds_built_once(count_events)
            assert [event[2] for event in count_events if event[0] == "V"] == [r_B]
            assert len([event for event in count_events if event[0] == "U"]) > 1, r_B


def gamma_on(table, r_B, r_M):
    """`min_feasible_gamma_tar` on a table already built: the target-SNR
    search with no MTC budget."""
    bracket = _gamma_bracket(operating_point(table.cfg), r_B)
    if bracket is None:
        return None
    found = _gamma_search(table, bracket, table.embb_thresholds(r_B),
                          table.mmtc_thresholds(r_M), table.cfg.M * table.cfg.trials)
    return None if found is None else found[0]


def two_pass_max_rate(cfg, r_B, table):
    """The non-orthogonal rate search as it ran before the accepted target
    SNR kept its counts: every probe counts again at the accepted SNR."""
    n = cfg.M * cfg.trials
    lo, best_g = 0.0, gamma_on(table, r_B, 0.0)
    hi = max_mmtc_rate_orth(table) + RATE_TOL
    while hi - lo > RATE_TOL:
        mid = 0.5 * (lo + hi)
        g = gamma_on(table, r_B, mid)
        if g is not None and table.nonorth_error_counts(mid, r_B, g)[0] / n <= cfg.eps_M:
            lo, best_g = mid, g
        else:
            hi = mid
    return lo, best_g


class TestNonorthogonalRegion:
    def test_default_grid_size_and_monotone_trend(self):
        cfg = make_cfg(L=4, M=4, trials=8000)
        table = build_trial_table(cfg)
        op = operating_point(cfg)
        grid = np.linspace(0.0, op.r_B_out, 7)
        pts = nonorthogonal_region(table, grid, max_mmtc_rate_orth(table))
        assert len(pts) == 7
        assert pts[0][0] == 0.0
        assert pts[-1][0] == pytest.approx(op.r_B_out)
        for _, _, gamma, _ in pts:
            assert gamma is not None
            assert gamma <= op.gamma_tar * (1 + 1e-9)
        # nonincreasing within combined bisection tolerance
        for a, b in zip(pts, pts[1:]):
            assert b[1] <= a[1] + 0.02

    def test_single_point_grid_reduces_to_orthogonal_endpoint(self):
        cfg = make_cfg(trials=20_000)
        table = build_trial_table(cfg)
        r_orth = max_mmtc_rate_orth(table)
        pts = nonorthogonal_region(table, [0.0], r_orth)
        assert len(pts) == 1
        assert pts[0][1] == pytest.approx(r_orth, abs=0.02)

    def test_points_carry_the_counts_that_accepted_them(self):
        # each point keeps the counts of the pass that accepted it, which a
        # recount at its (r_M, r_B, target SNR) reproduces; a point whose
        # target-SNR interval is empty (r_B at the outage rate) has none
        cfg = make_cfg(L=4, M=4, trials=3000)
        table = build_trial_table(cfg)
        op = operating_point(cfg)
        grid = np.linspace(0.0, op.r_B_out, 6)
        pts = nonorthogonal_region(table, grid, max_mmtc_rate_orth(table))
        for r_B, r_M, gamma, counts in pts:
            if counts is None:
                assert (r_M, gamma) == (0.0, op.gamma_tar)
                continue
            assert counts == table.nonorth_error_counts(r_M, r_B, gamma)
            assert counts[0] / (cfg.M * cfg.trials) <= cfg.eps_M
            assert counts[1] / cfg.trials <= cfg.eps_B
        assert sum(counts is not None and r_M > 0 for _, r_M, _, counts in pts) >= 3

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            nonorthogonal_region(build_trial_table(make_cfg(trials=500)), [], 1.0)


class TestMaxDevices:
    def test_orthogonal_no_time_left(self):
        cfg = make_cfg(trials=500)
        op = operating_point(cfg)
        points = [(op.r_B_out, "orthogonal"), (op.r_B_out * 1.3, "orthogonal")]
        assert max_devices(cfg, 0.25, points) == [0, 0]

    def test_rejects_nonpositive_rate_and_bad_mode(self):
        cfg = make_cfg(trials=500)
        with pytest.raises(ValueError):
            max_devices(cfg, 0.0, [(0.5, "orthogonal")])
        with pytest.raises(ValueError):
            max_devices(cfg, 0.25, [(0.5, "tdma")])

    def test_orthogonal_against_linear_scan_oracle(self):
        cfg = make_cfg(L=2, trials=6000)
        (got,) = max_devices(cfg, 0.25, [(0.0, "orthogonal")])
        assert got >= 1
        # oracle: evaluate every candidate directly with the estimator
        def feasible(m):
            errors = build_trial_table(replace(cfg, M=m)).mmtc_orth_error_count(0.25)
            return errors / (m * cfg.trials) <= cfg.eps_M

        scan = 0
        for m in range(1, got + 4):
            if feasible(m):
                scan = m
        assert got == scan

    def test_single_device_infeasible_gives_zero(self):
        # demand an absurd per-device rate so even M = 1 fails
        cfg = make_cfg(trials=2000)
        assert max_devices(cfg, 40.0, [(0.0, "orthogonal")]) == [0]

    def test_orthogonal_rate_of_1024_or_more_gives_zero(self):
        # r_M / (1 - alpha) = 30 / 0.025 = 1200, where 2^r - 1 overflows a double
        cfg = make_cfg(trials=500)
        r_B = 0.975 * operating_point(cfg).r_B_out
        assert max_devices(cfg, 30.0, [(r_B, "orthogonal")]) == [0]

    def test_nonorthogonal_small_case_positive(self):
        cfg = make_cfg(L=4, trials=6000)
        op = operating_point(cfg)
        (m,) = max_devices(cfg, 0.25, [(0.2 * op.r_B_out, "non_orthogonal")])
        assert m >= 1

    def test_nonorthogonal_endpoint_zero(self):
        cfg = make_cfg(trials=2000)
        op = operating_point(cfg)
        assert max_devices(cfg, 0.25, [(op.r_B_out, "non_orthogonal")]) == [0]

    def test_empty_points(self):
        assert max_devices(make_cfg(trials=500), 0.25, []) == []

    @pytest.mark.parametrize("L", [1, 4, 8])
    def test_matches_search_point_by_point(self, L, monkeypatch, count_events):
        # the shared search gives, at every point, the count of a search
        # that runs on its own and builds a new table for every probe; the
        # non-orthogonal points share r_M, so each table's MTC thresholds
        # are built at most once
        import slicesim.slicing_search as search

        cfg = make_cfg(L=L, trials=600)
        op = operating_point(cfg)
        points = [
            (float(r_B), mode)
            for mode in ("orthogonal", "non_orthogonal")
            for r_B in np.linspace(0.0, op.r_B_out, 4)
        ]
        want = [per_point_max_devices(cfg, 0.25, r_B, mode) for r_B, mode in points]
        count_events.clear()
        built, build = [], search.build_trial_table

        def counting(c, **kw):
            built.append(c.M)
            count_events.append(("build", c.M))
            return build(c, **kw)

        monkeypatch.setattr(search, "build_trial_table", counting)
        assert max_devices(cfg, 0.25, points) == want
        assert want[0] == want[4] >= 1 and want[3] == want[7] == 0
        assert any(m > 0 for m in want[1:3] + want[5:7])
        assert len(built) == len(set(built))
        u_builds = []  # per table built, its MTC threshold builds
        for kind, *_ in count_events:
            if kind == "build":
                u_builds.append(0)
            elif kind == "U":
                u_builds[-1] += 1
        assert len(u_builds) == len(built) and max(u_builds) == 1


class TestHeldDraw:
    """`max_devices` reduces each probed count's held trials from a column
    prefix of the draw of the widest count probed so far."""

    @staticmethod
    def recorded_run(monkeypatch, budget, workers=1):
        """The device counts at L = 4 and 3000 trials, with the chunk and
        held-draw budgets both set to `budget` bytes (None keeps them), and
        per build in probe order: M, the build, the held draw's shape before
        and after it, and the (first stream, streams, width) of each keyed
        draw it made. The widest count probed is 32, a held draw of 264
        columns."""
        import slicesim.slicing_search as search
        from slicesim import monte_carlo

        if budget is not None:
            monkeypatch.setattr(monte_carlo, "_CHUNK_BUDGET", budget)
            monkeypatch.setattr(monte_carlo, "_HELD_BUDGET", budget)
        builds = []
        build, draw = search.build_trial_table, monte_carlo.keyed_uniforms

        def building(c, workers, held):
            builds.append(dict(M=c.M, before=held.normals.shape, draws=[]))
            builds[-1]["table"] = build(c, workers=workers, held=held)
            builds[-1]["after"] = held.normals.shape
            return builds[-1]["table"]

        def drawing(seed, first_stream, n_streams, n_per, out=None):
            builds[-1]["draws"].append((first_stream, n_streams, n_per))
            return draw(seed, first_stream, n_streams, n_per, out=out)

        monkeypatch.setattr(search, "build_trial_table", building)
        monkeypatch.setattr(monte_carlo, "keyed_uniforms", drawing)
        cfg = make_cfg(L=4, trials=3000)
        points = [(0.0, "orthogonal"), (0.3 * operating_point(cfg).r_B_out, "non_orthogonal")]
        result = max_devices(cfg, 0.25, points, workers=workers)
        assert max(b["M"] for b in builds) == 32
        return cfg, result, builds

    @staticmethod
    def held_rows(builds, T, whole):
        # per build, the trials held after it: the full hold holds every
        # trial; the partial one ends mid-table from M = 16 on, and mid-chunk
        # in some builds
        from slicesim import monte_carlo

        rows = [b["after"][0] for b in builds]
        if whole:
            assert rows == [T] * len(builds)
        else:
            assert all(r < T for r, b in zip(rows, builds) if b["M"] >= 16)
            steps = [monte_carlo._chunk_size(b["M"], 8 * (b["M"] + 1)) for b in builds]
            assert any(r < T and r % step for r, step in zip(rows, steps))
        return rows

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("budget", [None, 2**20], ids=["full-hold", "partial-hold"])
    def test_tables_equal_those_built_alone(self, monkeypatch, budget, workers):
        cfg, result, builds = self.recorded_run(monkeypatch, budget, workers)
        self.held_rows(builds, cfg.trials, budget is None)
        assert result == [31, 26]
        for b in builds:
            alone = build_trial_table(replace(cfg, M=b["M"]))
            for name in ("c", "interf", "b", "b_suffix", "d", "prefix_min"):
                assert np.array_equal(getattr(b["table"], name), getattr(alone, name))

    @pytest.mark.parametrize("budget", [None, 2**20], ids=["full-hold", "partial-hold"])
    def test_draws_only_when_the_width_grows(self, monkeypatch, budget):
        # a build wider than every one before it draws all its trials, at
        # its own width, into a new held draw; any other build draws only
        # its trials beyond the held rows. No draw spans the held rows' end
        cfg, _, builds = self.recorded_run(monkeypatch, budget)
        T = cfg.trials
        rows = self.held_rows(builds, T, budget is None)
        widest = 0
        for b, held in zip(builds, rows):
            width = 8 * (b["M"] + 1)
            grows = b["M"] > widest
            widest = max(widest, b["M"])
            assert b["after"] == ((held, width) if grows else b["before"])
            streams = [s for first, n, _ in b["draws"] for s in range(first, first + n)]
            assert streams == list(range(0 if grows else held, T))
            assert all(w == width for *_, w in b["draws"])
            assert all(first + n <= held or first >= held for first, n, _ in b["draws"])
        # the doubling phase widens the draw: M = 1, 2, 4, 8, 16, 32
        assert [b["M"] for b in builds if b["before"][1] < 8 * (b["M"] + 1)] == [
            1, 2, 4, 8, 16, 32]


def per_point_max_devices(cfg, r_M, r_B, mode):
    """The device-count search for one (r_B, mode) point, as it ran before
    the points shared their tables: every probe builds its own table."""
    op = operating_point(cfg)
    if mode == "orthogonal":
        alpha = r_B / op.r_B_out
        if alpha >= 1.0:
            return 0
        required = r_M / (1.0 - alpha)

    def feasible(m):
        table = build_trial_table(replace(cfg, M=m))
        n = m * cfg.trials
        if mode == "non_orthogonal":
            g = gamma_on(table, r_B, r_M)
            return g is not None and table.nonorth_error_counts(r_M, r_B, g)[0] / n <= cfg.eps_M
        return table.mmtc_orth_error_count(required) / n <= cfg.eps_M

    if not feasible(1):
        return 0
    lo, hi = 1, 2
    while hi <= 4096 and feasible(hi):
        lo = hi
        hi *= 2
    if hi > 4096:
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
