"""CLI: config parsing, CSV contracts, exit codes, determinism."""

import csv
import io
import math
import warnings
from pathlib import Path

import pytest
from conftest import assert_thresholds_built_once

import slicesim.cli
import slicesim.monte_carlo
import slicesim.slicing_search
from slicesim.cli import (
    ConfigError,
    PRESETS,
    main,
    parse_spec,
    run_embb_analytic,
    run_outage,
    run_region,
)

GOOD_CONFIG = """
# minimal scenario
L = 2
M = 3
gamma_bar_B_db = 20
gamma_bar_M_db = 5
eps_B = 1e-3
eps_M = 0.1
trials = 800
seed = 7
"""


FIG3_CSV = Path(__file__).parent / "data" / "embb_fig3.csv"
REGION_CSV = Path(__file__).parent / "data" / "region_small.csv"
MAX_DEVICES_CSV = Path(__file__).parent / "data" / "max_devices_small.csv"
OUTAGE_CSV = Path(__file__).parent / "data" / "outage_sweep.csv"


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture
def builds(monkeypatch):
    """(L, M) of every trial table that `cli`'s sweep builds or counts chunk
    by chunk, or the device search builds, in the order asked for."""
    built = []

    def sweep(cfg, L_values, _build=slicesim.cli.build_trial_tables, **kw):
        built.extend((L, cfg.M) for L in L_values)
        return _build(cfg, L_values, **kw)

    def counted(cfg, L_values, count, _count=slicesim.cli.count_trials, **kw):
        built.extend((L, cfg.M) for L in L_values)
        return _count(cfg, L_values, count, **kw)

    def single(cfg, _build=slicesim.slicing_search.build_trial_table, **kw):
        built.append((cfg.L, cfg.M))
        return _build(cfg, **kw)

    monkeypatch.setattr(slicesim.cli, "build_trial_tables", sweep)
    monkeypatch.setattr(slicesim.cli, "count_trials", counted)
    monkeypatch.setattr(slicesim.slicing_search, "build_trial_table", single)
    return built


def serialize_spec(spec):
    """Canonical flat key-value form (linear gains); parse(serialize(s)) == s."""
    cfg = spec.scenario
    lines = [
        f"L = {','.join(str(v) for v in spec.L_values)}",
        f"M = {cfg.M}",
        f"gamma_bar_B = {cfg.gamma_bar_B!r}",
        f"gamma_bar_M = {cfg.gamma_bar_M!r}",
        f"eps_B = {cfg.eps_B!r}",
        f"eps_M = {cfg.eps_M!r}",
        f"P_M = {cfg.P_M!r}",
        f"trials = {cfg.trials}",
        f"seed = {cfg.seed}",
        f"mode = {spec.mode}",
        f"alpha_points = {spec.alpha_points}",
        f"r_b_points = {spec.r_b_points}",
    ]
    for key in ("r_M", "r_B", "gamma_tar"):
        value = getattr(spec, key)
        if value is not None:
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


class TestParseSpec:
    def test_db_conversion(self):
        spec = parse_spec("region", GOOD_CONFIG)
        assert spec.scenario.gamma_bar_B == pytest.approx(100.0)
        assert spec.scenario.gamma_bar_M == pytest.approx(10**0.5)
        assert spec.L_values == (2,)
        assert spec.scenario.P_M == 1.0

    def test_linear_form_accepted(self):
        text = GOOD_CONFIG.replace("gamma_bar_B_db = 20", "gamma_bar_B = 100")
        spec = parse_spec("region", text)
        assert spec.scenario.gamma_bar_B == pytest.approx(100.0)

    def test_both_forms_rejected(self):
        text = GOOD_CONFIG + "gamma_bar_B = 100\n"
        with pytest.raises(ConfigError, match="gamma_bar_B"):
            parse_spec("region", text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bandwidth"):
            parse_spec("region", GOOD_CONFIG + "bandwidth = 5\n")

    def test_missing_field_named(self):
        text = "\n".join(
            line for line in GOOD_CONFIG.splitlines() if not line.startswith("eps_B")
        )
        with pytest.raises(ConfigError, match="eps_B"):
            parse_spec("region", text)

    def test_invalid_value_named(self):
        with pytest.raises(ConfigError, match="eps_M"):
            parse_spec("region", GOOD_CONFIG.replace("eps_M = 0.1", "eps_M = 1.5"))

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_spec("region", GOOD_CONFIG + "L = 4\n")

    def test_antenna_sweep(self):
        spec = parse_spec("region", GOOD_CONFIG.replace("L = 2", "L = 1,2,4"))
        assert spec.L_values == (1, 2, 4)

    def test_overrides(self):
        spec = parse_spec("region", GOOD_CONFIG, seed=123, trials=50)
        assert spec.scenario.seed == 123
        assert spec.scenario.trials == 50

    def test_round_trip(self):
        spec = parse_spec("region", GOOD_CONFIG + "mode = orth\nalpha_points = 5\n")
        again = parse_spec("region", serialize_spec(spec))
        assert again == spec

    def test_presets(self):
        for name in PRESETS:
            spec = parse_spec("region", preset=name)
            assert spec.L_values == (1, 2, 4, 8, 16)
            assert spec.scenario.M == 10
            assert spec.scenario.eps_B == 1e-3
            assert spec.scenario.gamma_bar_B == pytest.approx(100.0)
        assert parse_spec("max-devices", preset="fig5").r_M == 0.25

    def test_preset_with_config_override(self):
        spec = parse_spec("region", "L = 4\ntrials = 90\n", preset="fig3")
        assert spec.L_values == (4,)
        assert spec.scenario.trials == 90
        assert spec.scenario.M == 10  # inherited from the preset

    def test_nothing_given(self):
        with pytest.raises(ConfigError):
            parse_spec("region", None, None)

    def test_bad_grid_controls(self):
        with pytest.raises(ConfigError, match="alpha_points"):
            parse_spec("region", GOOD_CONFIG + "alpha_points = 0\n")

    @pytest.mark.parametrize("r_M", ["0.0", "-0.25"])
    def test_max_devices_needs_positive_rate(self, r_M):
        with pytest.raises(ConfigError, match="r_M"):
            parse_spec("max-devices", GOOD_CONFIG + f"r_M = {r_M}\n")
        # the other commands check their rates where they use them
        assert parse_spec("region", GOOD_CONFIG + f"r_M = {r_M}\n").r_M == float(r_M)

    @pytest.mark.parametrize("field", ["r_M", "r_B"])
    def test_rates_lie_below_1024(self, field):
        # 2^r - 1 is a finite double below r = 1024 and overflows at it
        below = math.nextafter(1024.0, 0.0)
        assert getattr(parse_spec("outage", GOOD_CONFIG + f"{field} = {below!r}\n"),
                       field) == below
        with pytest.raises(ConfigError, match=f"{field}.*1024"):
            parse_spec("outage", GOOD_CONFIG + f"{field} = 1024\n")


class TestEmbbAnalytic:
    def test_single_row_csv(self):
        spec = parse_spec("embb-analytic", "L = 1\n" + GOOD_CONFIG.replace("L = 2\n", ""))
        text = run_embb_analytic(spec)
        rows = rows_of(text)
        assert len(rows) == 1
        row = rows[0]
        assert float(row["gamma_min"]) == pytest.approx(0.100050, abs=1e-5)
        assert float(row["a_B"]) == pytest.approx(0.999, abs=1e-5)
        assert float(row["r_B_out"]) == pytest.approx(
            math.log2(1 + float(row["gamma_tar"])), abs=1e-4
        )

    def test_tiny_eps_keeps_L2_at_full_gain(self, capsys):
        text = run_embb_analytic(
            parse_spec("embb-analytic", GOOD_CONFIG.replace("eps_B = 1e-3", "eps_B = 1e-300"))
        )
        capsys.readouterr()
        row = rows_of(text)[0]
        assert float(row["gamma_tar"]) == pytest.approx(100.0, rel=1e-4)

    def test_fig3_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "embb.csv"
        assert main(["embb-analytic", "--preset", "fig3", "--out", str(out)]) == 0
        assert out.read_bytes() == FIG3_CSV.read_bytes()


class TestRunRegion:
    def test_orth_rows_contract(self, tmp_path):
        spec = parse_spec("region", GOOD_CONFIG + "mode = orth\nalpha_points = 5\n")
        out = tmp_path / "region.csv"
        text = run_region(spec, out=str(out))
        assert out.read_text() == text
        rows = rows_of(text)
        assert len(rows) == 5
        assert rows[0]["mode"] == "orth"
        assert rows[0]["gamma_tar"] == ""
        # endpoints: alpha 0 -> (0, r_M_out), alpha 1 -> (r_B_out, 0)
        assert float(rows[0]["alpha"]) == 0.0 and float(rows[0]["r_B"]) == 0.0
        assert float(rows[-1]["alpha"]) == 1.0 and float(rows[-1]["r_M"]) == 0.0
        # straight line: r_B/r_B_out + r_M/r_M_out = 1 (at CSV precision)
        r_B_out, r_M_out = float(rows[-1]["r_B"]), float(rows[0]["r_M"])
        for row in rows:
            total = float(row["r_B"]) / r_B_out + float(row["r_M"]) / r_M_out
            assert total == pytest.approx(1.0, abs=1e-4)
            assert float(row["eps_B_hat"]) == pytest.approx(1e-3, abs=1e-6)

    def test_nonorth_rows_contract(self):
        spec = parse_spec(
            "region",
            GOOD_CONFIG.replace("trials = 800", "trials = 600")
            + "mode = nonorth\nr_b_points = 3\n",
        )
        rows = rows_of(run_region(spec))
        assert len(rows) == 3
        for row in rows:
            assert row["mode"] == "nonorth" and row["alpha"] == ""
            assert float(row["gamma_tar"]) > 0
            assert float(row["eps_M_hat"]) <= 0.1
            assert float(row["eps_B_hat"]) <= 1e-3 + 1e-9
        assert float(rows[-1]["r_M"]) == 0.0  # degenerate endpoint at r_B_out

    def test_mode_both_emits_both(self):
        spec = parse_spec(
            "region",
            GOOD_CONFIG.replace("trials = 800", "trials = 400")
            + "mode = both\nalpha_points = 3\nr_b_points = 3\n",
        )
        modes = {row["mode"] for row in rows_of(run_region(spec))}
        assert modes == {"orth", "nonorth"}

    def test_one_endpoint_per_table_and_no_recount(self, tmp_path, monkeypatch,
                                                   count_events):
        # the orthogonal endpoint is read once per table and is the ceiling
        # of the non-orthogonal search; the rows print the counts the search
        # accepted, so no operating point of a table is counted twice; the
        # MTC thresholds are built once per rate a table's points probe
        endpoints = []
        endpoint = slicesim.slicing_search.max_mmtc_rate_orth

        def counting_endpoint(*args, **kwargs):
            endpoints.append(args)
            return endpoint(*args, **kwargs)

        for module in (slicesim.cli, slicesim.slicing_search):
            monkeypatch.setattr(module, "max_mmtc_rate_orth", counting_endpoint)
        cfg = tmp_path / "region.cfg"
        cfg.write_text(
            GOOD_CONFIG.replace("L = 2", "L = 1,4")
            + "mode = both\nalpha_points = 3\nr_b_points = 11\n"
        )
        out = tmp_path / "region.csv"
        assert main(["region", "--config", str(cfg), "--trials", "400", "--out", str(out)]) == 0
        assert len(rows_of(out.read_text())) == 2 * (3 + 11)
        assert len(endpoints) == 2  # one per antenna count
        assert len([event for event in count_events if event[0] == "count"]) > 2 * 11
        assert_thresholds_built_once(count_events)
        # every r_B point but the last, whose target-SNR interval is empty
        counts = [event[1:] for event in count_events if event[0] == "count"]
        assert len({(L, thr_B) for L, _, thr_B, _ in counts}) == 2 * 10
        # the points share their rates: fewer builds than (point, rate) probes
        mtc_builds = [event for event in count_events if event[0] == "U"]
        assert len(mtc_builds) < len({count[:3] for count in counts})
        # rate 0 is accepted without a probe: no MTC thresholds are built there
        assert all(event[2] > 0 for event in mtc_builds)

    def test_small_sweep_bytes_are_pinned(self, tmp_path):
        # both modes of a fig3 sweep at L = 1, 8 on 2000 trials of seed 1
        cfg = tmp_path / "small.cfg"
        cfg.write_text("L = 1,8\nalpha_points = 5\nr_b_points = 11\n")
        out = tmp_path / "region.csv"
        argv = ["region", "--preset", "fig3", "--config", str(cfg), "--trials", "2000",
                "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == REGION_CSV.read_bytes()

    def test_dense_low_l_bytes_are_pinned(self, tmp_path, count_events):
        # 41 r_B points at L = 2 on 2000 trials of seed 1, whose rate probes
        # share the walk's rates and then part ways
        cfg = tmp_path / "l2.cfg"
        cfg.write_text("L = 2\nalpha_points = 2\nr_b_points = 41\n")
        out = tmp_path / "region.csv"
        argv = ["region", "--preset", "fig3", "--config", str(cfg), "--trials", "2000",
                "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (REGION_CSV.parent / "region_l2_41.csv").read_bytes()
        assert_thresholds_built_once(count_events)
        mtc_builds = [event for event in count_events if event[0] == "U"]
        paths = {}  # per point (its thr_B), the rates it probed
        for event in count_events:
            if event[0] == "count":
                paths.setdefault(event[3], set()).add(event[2])
        assert len(paths) == 40  # every point but r_B_out
        # the paths part ways, and the points share the builds of their rates
        assert len({frozenset(rates) for rates in paths.values()}) > 1
        assert len(mtc_builds) < sum(len(rates) for rates in paths.values())

    def test_deterministic_output(self):
        spec = parse_spec(
            "region",
            GOOD_CONFIG.replace("trials = 800", "trials = 500")
            + "mode = both\nalpha_points = 3\nr_b_points = 3\n",
        )
        assert run_region(spec) == run_region(spec)

    def test_slack_endpoint_bounds_every_nonorthogonal_rate(self, tmp_path, capsys):
        # one device at huge gains: no interference limits its SINR, so the
        # orthogonal endpoint (above 64 bits/s/Hz) is where eps_M binds, and
        # broadband interference can only lower the rate below it
        cfg = tmp_path / "huge1.cfg"
        cfg.write_text("L = 2\nM = 1\ngamma_bar_M = 1e25\nalpha_points = 3\nr_b_points = 3\n")
        out = tmp_path / "region.csv"
        argv = ["region", "--preset", "fig3", "--config", str(cfg), "--trials", "300",
                "--seed", "1", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        rows = rows_of(out.read_text())
        orth = [row for row in rows if row["mode"] == "orth"]
        nonorth = [row for row in rows if row["mode"] == "nonorth"]
        assert float(orth[0]["alpha"]) == 0.0 and orth[0]["eps_M_hat"] == "0.100000"
        r_M_out = float(orth[0]["r_M"])
        assert len(nonorth) == 3
        assert all(float(row["r_M"]) <= r_M_out for row in nonorth)


class TestRunOutage:
    def test_orth_row(self):
        spec = parse_spec("outage", GOOD_CONFIG + "mode = orth\nr_M = 0.5\n")
        rows = rows_of(run_outage(spec))
        assert len(rows) == 1
        assert rows[0]["eps_B_hat"] == "" and float(rows[0]["eps_M_hat"]) >= 0.0

    def test_nonorth_requires_r_B(self):
        spec = parse_spec("outage", GOOD_CONFIG + "mode = nonorth\nr_M = 0.5\n")
        with pytest.raises(ConfigError, match="r_B"):
            run_outage(spec)

    def test_nonorth_defaults_gamma(self):
        spec = parse_spec("outage", GOOD_CONFIG + "mode = nonorth\nr_M = 0.5\nr_B = 1.0\n")
        row = rows_of(run_outage(spec))[0]
        assert float(row["gamma_tar"]) > 0
        assert row["eps_B_hat"] != ""

    def test_missing_r_M_rejected(self):
        spec = parse_spec("outage", GOOD_CONFIG + "mode = orth\n")
        with pytest.raises(ConfigError, match="r_M"):
            run_outage(spec)

    @pytest.mark.parametrize(
        "extra",
        ["r_B = 2.0\ngamma_tar = 3.0\n", "r_B = 12.0\n"],
        ids=["gamma_tar_at_threshold", "r_B_past_outage_rate"],
    )
    def test_inadmissible_target_snr_is_2(self, tmp_path, capsys, extra):
        cfg = tmp_path / "snr.cfg"
        cfg.write_text(GOOD_CONFIG + "mode = nonorth\nr_M = 0.5\n" + extra)
        assert main(["outage", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "gamma_tar" in err and "r_B" in err

    def test_inadmissible_later_antenna_count_builds_nothing(self, builds):
        # r_B = 5 is below r_B_out at L = 8 but above it at L = 1
        text = GOOD_CONFIG.replace("L = 2", "L = 8,1") + "mode = nonorth\nr_M = 0.5\nr_B = 5.0\n"
        with pytest.raises(ConfigError, match="L = 1"):
            run_outage(parse_spec("outage", text))
        assert builds == []

    @pytest.mark.parametrize(
        "mode, rates",
        [("orth", "r_M = -0.5\n"), ("nonorth", "r_M = 0.5\nr_B = -0.5\n")],
        ids=["r_M", "r_B"],
    )
    def test_negative_rate_is_2_before_any_build(self, tmp_path, capsys, builds, mode, rates):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(GOOD_CONFIG + f"mode = {mode}\n" + rates)
        assert main(["outage", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "-0.5" in err
        assert builds == []

    def test_one_table_per_antenna_count(self, builds):
        text = GOOD_CONFIG.replace("L = 2", "L = 1,2") + "mode = both\nr_M = 0.5\nr_B = 1.0\n"
        run_outage(parse_spec("outage", text))
        # mode both counts both slicing modes in one pass over the trials
        assert builds == [(1, 3), (2, 3)]

    def test_sweep_bytes_are_pinned(self, tmp_path):
        # both modes at L = 1, 8, 16 on 20000 trials of the fig3 preset's seed
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("r_M = 1.0\nr_B = 4.0\nL = 1,8,16\n")
        out = tmp_path / "outage.csv"
        argv = ["outage", "--preset", "fig3", "--config", str(cfg), "--trials", "20000",
                "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == OUTAGE_CSV.read_bytes()


class TestRunMaxDevices:
    def test_csv_through_main(self, tmp_path):
        cfg = tmp_path / "md.cfg"
        cfg.write_text(GOOD_CONFIG + "mode = both\nr_b_points = 3\nr_M = 0.25\n")
        out = tmp_path / "md.csv"
        assert main(["max-devices", "--config", str(cfg), "--trials", "300", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "mode,L,r_B,M_max"
        rows = rows_of(text)
        assert [row["mode"] for row in rows] == ["orth"] * 3 + ["nonorth"] * 3
        orth, nonorth = rows[:3], rows[3:]
        assert float(orth[0]["r_B"]) == 0.0 and float(orth[-1]["r_B"]) > 0.0
        # r_B = 0: no time-sharing and a vanishing broadband target SNR,
        # both modes decode the same devices
        assert int(orth[0]["M_max"]) == int(nonorth[0]["M_max"]) >= 1
        # r_B = r_B_out: no slot time left, and an empty target-SNR interval
        assert int(orth[-1]["M_max"]) == int(nonorth[-1]["M_max"]) == 0

    def test_one_table_per_device_count(self, tmp_path, monkeypatch):
        # every r_B point and both modes share the tables of one antenna count
        built, build = [], slicesim.slicing_search.build_trial_table
        counting = lambda cfg, **kw: built.append((cfg.L, cfg.M)) or build(cfg, **kw)  # noqa: E731
        monkeypatch.setattr(slicesim.slicing_search, "build_trial_table", counting)
        cfg = tmp_path / "md.cfg"
        cfg.write_text(
            GOOD_CONFIG.replace("L = 2", "L = 1,4") + "mode = both\nr_b_points = 4\nr_M = 0.25\n"
        )
        out = tmp_path / "md.csv"
        assert main(["max-devices", "--config", str(cfg), "--trials", "300", "--out", str(out)]) == 0
        assert len(rows_of(out.read_text())) == 16
        assert {L for L, _ in built} == {1, 4}
        assert len(built) == len(set(built))

    def test_small_sweep_bytes_are_pinned(self, tmp_path):
        # both modes of a fig5 sweep at L = 1, 8, five r_B points, 1000 trials of seed 1
        cfg = tmp_path / "md.cfg"
        cfg.write_text("L = 1,8\nr_b_points = 5\n")
        out = tmp_path / "md.csv"
        argv = ["max-devices", "--preset", "fig5", "--config", str(cfg), "--trials", "1000",
                "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == MAX_DEVICES_CSV.read_bytes()

    def test_bytes_do_not_depend_on_workers(self, tmp_path, builds):
        # the benchmark's max-devices sweep (fig5 at L = 8, three r_B points,
        # 1000 trials): its larger probed tables span two chunks or more, so
        # three workers run chunks of one table at once
        cfg = tmp_path / "md.cfg"
        cfg.write_text("L = 8\nr_b_points = 3\n")
        outputs = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}.csv"
            argv = ["max-devices", "--preset", "fig5", "--config", str(cfg), "--trials",
                    "1000", "--workers", workers, "--out", str(out)]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        chunks = [-(-1000 // slicesim.monte_carlo._chunk_size(M, 2 * L * (M + 1)))
                  for L, M in builds]
        assert max(chunks) >= 2

    def test_orthogonal_rate_of_1024_or_more_gives_zero(self, tmp_path, capsys):
        # near r_B_out the orthogonal rate r_M / (1 - alpha) reaches 1024,
        # where 2^r - 1 overflows a double: 30 / (1 - 39 / 40) = 1200
        cfg = tmp_path / "md.cfg"
        cfg.write_text("L = 1\nr_M = 30\nr_b_points = 41\n")
        out = tmp_path / "md.csv"
        argv = ["max-devices", "--preset", "fig5", "--config", str(cfg), "--trials", "200",
                "--out", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        rows = rows_of(out.read_text())
        assert len(rows) == 82 and all(row["M_max"] == "0" for row in rows)

    @pytest.mark.parametrize("r_M", ["0.0", "-0.25"])
    def test_nonpositive_rate_is_2(self, tmp_path, capsys, builds, r_M):
        cfg = tmp_path / "md.cfg"
        cfg.write_text(GOOD_CONFIG + f"r_b_points = 3\nr_M = {r_M}\n")
        assert main(["max-devices", "--config", str(cfg)]) == 2
        assert "r_M" in capsys.readouterr().err
        assert builds == []


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(GOOD_CONFIG)
        assert main(["embb-analytic", "--config", str(cfg)]) == 0
        assert "gamma_min" in capsys.readouterr().out

    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(GOOD_CONFIG + "nonsense_key = 1\n")
        assert main(["region", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        assert main(["region", "--config", "/nonexistent/path.cfg"]) == 2
        capsys.readouterr()

    def test_empty_grid_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(GOOD_CONFIG + "alpha_points = 0\n")
        assert main(["region", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_write_failure_is_1(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(
            GOOD_CONFIG.replace("trials = 800", "trials = 200")
            + "mode = orth\nalpha_points = 2\n"
        )
        code = main(["region", "--config", str(cfg), "--out", "/nonexistent/dir/x.csv"])
        assert code == 1
        capsys.readouterr()

    def test_table_over_memory_is_1(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(GOOD_CONFIG.replace("M = 3", "M = 4096") + "r_M = 0.5\nr_B = 1.0\n")
        assert main(["region", "--config", str(cfg), "--trials", str(10**8)]) == 1
        assert "bytes" in capsys.readouterr().err

    def test_outage_trial_over_memory_is_1(self, tmp_path, capsys):
        # outage holds no table, only one chunk per worker: at M = 10^5 a
        # one-trial chunk's Gram block alone is 160 GB
        cfg = tmp_path / "big.cfg"
        cfg.write_text(GOOD_CONFIG.replace("M = 3", f"M = {10**5}") + "r_M = 0.5\nr_B = 1.0\n")
        assert main(["outage", "--config", str(cfg), "--trials", "1"]) == 1
        assert "bytes" in capsys.readouterr().err

    def test_byte_identical_across_worker_counts(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(
            GOOD_CONFIG.replace("trials = 800", "trials = 400")
            + "mode = both\nalpha_points = 3\nr_b_points = 3\n"
        )
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(["region", "--config", str(cfg), "--workers", "1", "--out", str(out1)]) == 0
        assert main(["region", "--config", str(cfg), "--workers", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("workers", ["1", "3"])
    @pytest.mark.parametrize("command", ["outage", "region"])
    def test_sweep_csv_is_its_single_antenna_runs(self, tmp_path, command, workers):
        # at M = 50 and the L = 16 width the trials are two chunks, the
        # second one trial short, and the L = 1 and L = 8 tables read column
        # prefixes of the L = 16 draw
        trials = 2 * slicesim.monte_carlo._chunk_size(50, 2 * 16 * 51) - 1
        text = (
            GOOD_CONFIG.replace("M = 3", "M = 50").replace("trials = 800", f"trials = {trials}")
            + "mode = both\nr_M = 0.1\nr_B = 1.0\nalpha_points = 3\nr_b_points = 3\n"
        )

        def csv_lines(L):
            cfg, out = tmp_path / f"L{L}.cfg", tmp_path / f"L{L}.csv"
            cfg.write_text(text.replace("L = 2", f"L = {L}"))
            argv = [command, "--config", str(cfg), "--workers", workers, "--out", str(out)]
            assert main(argv) == 0
            return out.read_bytes().splitlines(keepends=True)

        parts = [csv_lines(L) for L in ("1", "8", "16")]
        assert len(parts[0]) > 1
        assert csv_lines("1,8,16") == parts[0][:1] + [row for p in parts for row in p[1:]]

    @pytest.mark.parametrize("command", ["embb-analytic", "outage", "region", "max-devices"])
    def test_every_antenna_count_is_checked_before_any_build(self, tmp_path, capsys, builds,
                                                           command):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOOD_CONFIG.replace("L = 2", "L = 1,0") + "r_M = 0.5\nr_B = 1.0\n")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "L must be >= 1, got 0" in err
        assert builds == []

    @pytest.mark.parametrize("command", ["outage", "region"])
    def test_no_devices_is_2_before_any_build(self, tmp_path, capsys, builds, command):
        cfg = tmp_path / "m0.cfg"
        cfg.write_text(GOOD_CONFIG.replace("M = 3", "M = 0") + "r_M = 0.5\nr_B = 1.0\n")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "M >= 1" in err
        assert builds == []

    @pytest.mark.parametrize(
        "command, old, new, field",
        [
            ("embb-analytic", "gamma_bar_B_db = 20", "gamma_bar_B = nan", "gamma_bar_B"),
            ("region", "gamma_bar_M_db = 5", "gamma_bar_M = inf", "gamma_bar_M"),
            ("outage", "seed = 7", "seed = 7\nr_M = nan\nr_B = 1.0", "r_M"),
            ("outage", "seed = 7", "seed = 7\nr_M = 0.5\nr_B = nan", "r_B"),
            ("outage", "seed = 7", "seed = 7\nr_M = 0.5\nr_B = 1.0\ngamma_tar = inf",
             "gamma_tar"),
            ("max-devices", "seed = 7", "seed = 7\nr_M = nan", "r_M"),
        ],
        ids=["gamma_bar_B-nan", "gamma_bar_M-inf", "r_M-nan", "r_B-nan", "gamma_tar-inf",
             "max-devices-r_M-nan"],
    )
    def test_non_finite_input_is_2_before_any_build(self, tmp_path, capsys, builds,
                                                    command, old, new, field):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(GOOD_CONFIG.replace(old, new))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err and "finite" in err
        assert builds == []

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("gamma_bar_B_db = 20", "gamma_bar_B = abc", "gamma_bar_B"),
            ("gamma_bar_M_db = 5", "gamma_bar_M_db = x", "gamma_bar_M_db"),
            # 10^400 overflows a double
            ("gamma_bar_B_db = 20", "gamma_bar_B_db = 4000", "gamma_bar_B_db"),
        ],
        ids=["linear-abc", "db-x", "db-4000"],
    )
    def test_malformed_gain_is_2_before_any_build(self, tmp_path, capsys, builds,
                                                  old, new, field):
        cfg = tmp_path / "gain.cfg"
        cfg.write_text(GOOD_CONFIG.replace(old, new))
        assert main(["region", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert builds == []

    @pytest.mark.parametrize(
        "command, edits, field",
        [
            # at L = 2, MTC received powers of about 1e163 square past a double
            ("outage", {"gamma_bar_M_db = 5": "gamma_bar_M = 1e160\nr_M = 0.5\nr_B = 1.0"},
             "gamma_bar_M"),
            ("region", {"gamma_bar_M_db = 5": "gamma_bar_M = 1e160"}, "gamma_bar_M"),
            ("max-devices", {"gamma_bar_M_db = 5": "gamma_bar_M = 1e160"}, "gamma_bar_M"),
            # at M = 3 the statistics fit, and at the search's M_CAP devices not
            ("max-devices", {"gamma_bar_M_db = 5": "gamma_bar_M = 1e150"}, "gamma_bar_M"),
            ("embb-analytic", {"gamma_bar_B_db = 20": "gamma_bar_B = 1e308"}, "gamma_bar_B"),
            ("max-devices", {"gamma_bar_B_db = 20": "gamma_bar_B = 1e308"}, "gamma_bar_B"),
            # the received powers fit, and with eps_B near 1 the target SNR,
            # far in the tail, overflows
            ("embb-analytic", {"gamma_bar_B_db = 20": "gamma_bar_B = 1e300",
                               "eps_B = 1e-3": "eps_B = 0.999999999"}, "gamma_bar_B"),
        ],
        ids=["outage-M", "region-M", "max-devices-M", "max-devices-M_CAP", "embb-B",
             "max-devices-B", "embb-target"],
    )
    def test_overflowing_gain_is_2_before_any_build(self, tmp_path, capsys, builds,
                                                    command, edits, field):
        text = GOOD_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "gain.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{field} = " in err and "overflow" in err
        assert builds == []

    def test_gain_within_the_bound_at_its_device_count_runs(self, tmp_path, capsys):
        # the gain the device search rejects at M_CAP runs at the M = 3 it is
        # given, with every outage estimate finite
        cfg = tmp_path / "gain.cfg"
        cfg.write_text(GOOD_CONFIG.replace("gamma_bar_M_db = 5", "gamma_bar_M = 1e150")
                       + "r_M = 0.5\nr_B = 1.0\n")
        out = tmp_path / "o.csv"
        assert main(["outage", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert rows and all(math.isfinite(float(r["eps_M_hat"])) for r in rows)

    @pytest.mark.parametrize(
        "command, rates, field",
        [
            ("outage", "r_M = 2000\nr_B = 1.0", "r_M"),
            ("max-devices", "r_M = 2000", "r_M"),
            ("outage", "r_M = 0.5\nr_B = 2000", "r_B"),
        ],
        ids=["outage-r_M", "max-devices-r_M", "outage-r_B"],
    )
    def test_rate_of_1024_or_more_is_2_before_any_build(self, tmp_path, capsys, builds,
                                                        command, rates, field):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(GOOD_CONFIG + rates + "\n")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err and "1024" in err
        assert builds == []

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("command", ["outage", "region", "max-devices"])
    def test_nonpositive_workers_is_2_before_any_build(self, tmp_path, capsys, builds,
                                                       command, workers):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(GOOD_CONFIG + "r_M = 0.5\nr_B = 1.0\n")
        assert main([command, "--config", str(cfg), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith("slicesim: config error:") and "--workers" in err
        assert builds == []

    def test_seed_and_trials_flags(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(GOOD_CONFIG + "mode = orth\nr_M = 0.5\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["outage", "--config", str(cfg), "--seed", "1", "--trials", "300", "--out", str(a)])
        main(["outage", "--config", str(cfg), "--seed", "2", "--trials", "300", "--out", str(b)])
        assert a.read_text() != b.read_text()
