"""Shared test configuration: slow-test marker, the acceptance summary, and a
recorder of the non-orthogonal count seam."""

import pytest

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
    call order: ("V", L, r_B) per `TrialTable.embb_thresholds`, ("U", L,
    r_M) per `TrialTable.mmtc_thresholds` and ("count", L, r_M, r_B,
    gamma_tar) per `TrialTable.threshold_counts`."""
    events = []
    rate_of = {}  # id of a threshold build -> (the build, kept alive; its rate)

    def recording(kind, build):
        def wrapped(self, rate):
            found = build(self, rate)
            rate_of[id(found)] = (found, rate)
            events.append((kind, self.cfg.L, rate))
            return found
        return wrapped

    def counting(self, mtc, V, gamma_tar, _count=TrialTable.threshold_counts):
        events.append(("count", self.cfg.L, rate_of[id(mtc)][1], rate_of[id(V)][1], gamma_tar))
        return _count(self, mtc, V, gamma_tar)

    monkeypatch.setattr(TrialTable, "embb_thresholds",
                        recording("V", TrialTable.embb_thresholds))
    monkeypatch.setattr(TrialTable, "mmtc_thresholds",
                        recording("U", TrialTable.mmtc_thresholds))
    monkeypatch.setattr(TrialTable, "threshold_counts", counting)
    return events


def assert_thresholds_built_once(events):
    """`count_events` of rate searches count no (L, r_M, r_B, gamma_tar)
    twice, build the broadband thresholds once per (L, r_B) and the MTC
    thresholds once per rate probe: per run of counts at one (L, r_M, r_B)."""
    counts = [event[1:] for event in events if event[0] == "count"]
    assert len(counts) == len(set(counts))
    runs = [c[:3] for i, c in enumerate(counts) if i == 0 or c[:3] != counts[i - 1][:3]]
    assert [event[1:] for event in events if event[0] == "U"] == [run[:2] for run in runs]
    points = list(dict.fromkeys((c[0], c[2]) for c in counts))
    assert [event[1:] for event in events if event[0] == "V"] == points
