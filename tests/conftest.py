"""Shared test configuration: slow-test marker, the acceptance summary, and a
recorder of the non-orthogonal count seam."""

import pytest

from slicesim.channel import rate_threshold
from slicesim.monte_carlo import TrialTable

ACCEPTANCE_RESULTS = []  # (criterion number, label, passed, detail)


def record_criterion(number: int, label: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS.append((number, label, passed, detail))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: full-budget acceptance runs (minutes each)"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} [{status}] {label}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture
def count_events(monkeypatch):
    """Every threshold build and count on the non-orthogonal count seam, in
    call order: ("U", L, r_M) per `TrialTable.mmtc_thresholds` and ("count",
    L, r_M, thr_B, gamma_tar) per `TrialTable.nonorth_error_counts`, with
    thr_B the broadband threshold 2^r_B - 1 of the r_B it was passed."""
    events = []
    rate_of = {}  # id of a threshold build -> (the build, kept alive; its rate)
    build = TrialTable.mmtc_thresholds

    def recording(self, rate):
        found = build(self, rate)
        rate_of[id(found)] = (found, rate)
        events.append(("U", self.cfg.L, rate))
        return found

    def counting(self, mtc, r_B, gamma_tar, _count=TrialTable.nonorth_error_counts):
        events.append(("count", self.cfg.L, rate_of[id(mtc)][1], rate_threshold(r_B),
                       gamma_tar))
        return _count(self, mtc, r_B, gamma_tar)

    monkeypatch.setattr(TrialTable, "mmtc_thresholds", recording)
    monkeypatch.setattr(TrialTable, "nonorth_error_counts", counting)
    return events


def nonorth_counts(table, r_M, r_B, gamma_tar):
    """`TrialTable.nonorth_error_counts` at (r_M, r_B, gamma_tar), on MTC
    thresholds built for this one count."""
    return table.nonorth_error_counts(table.mmtc_thresholds(r_M), r_B, gamma_tar)


def assert_thresholds_built_once(events):
    """`count_events` of rate searches count no (L, r_M, thr_B, gamma_tar)
    twice and build the MTC thresholds once per (L, r_M), whose counts all
    follow that build before the next one: a table's points share each
    probed rate's thresholds, and one set is in use at a time."""
    counts = [event[1:] for event in events if event[0] == "count"]
    assert len(counts) == len(set(counts))
    builds = [event[1:] for event in events if event[0] == "U"]
    assert len(builds) == len(set(builds))
    runs = [c[:2] for i, c in enumerate(counts) if i == 0 or c[:2] != counts[i - 1][:2]]
    assert builds == runs
