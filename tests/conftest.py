"""Shared test configuration: slow-test marker, the acceptance summary, and a
recorder of the non-orthogonal decode seam."""

import weakref

import pytest

from slicesim.monte_carlo import NonorthPass, TrialTable

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
def decodes(monkeypatch):
    """Every decode and count on the `NonorthPass` seam, in call order:
    ("pass", L, r_B, gamma_tar, passes alive with it) per decode and
    ("count", L, r_M, r_B, gamma_tar) per count."""
    events = []
    decoded_at = weakref.WeakKeyDictionary()  # live pass -> (r_B, gamma_tar)
    decode, count = TrialTable.nonorth_pass, NonorthPass.counts

    def decoding(self, r_B, gamma_tar):
        found = decode(self, r_B, gamma_tar)
        decoded_at[found] = (r_B, gamma_tar)
        events.append(("pass", self.cfg.L, r_B, gamma_tar, len(decoded_at)))
        return found

    def counting(self, r_M, *args):
        events.append(("count", self.table.cfg.L, r_M, *decoded_at[self]))
        return count(self, r_M, *args)

    monkeypatch.setattr(TrialTable, "nonorth_pass", decoding)
    monkeypatch.setattr(NonorthPass, "counts", counting)
    return events


def rate_probes(events):
    """The rate probes of `decodes` events, in order: one ((L, r_B), target
    SNRs counted in order, target SNRs decoded) per run of counts at one
    (L, r_M, r_B). A decode belongs to the probe that counts next."""
    probes, pending, key = [], [], None
    for event in events:
        if event[0] == "pass":
            pending.append(event[3])
            continue
        if event[1:4] != key:
            key = event[1:4]
            probes.append(((key[0], key[2]), [], []))
        probes[-1][1].append(event[4])
        probes[-1][2].extend(pending)
        pending = []
    return probes


def assert_walks_share_passes(events, bound):
    """Each rate probe of `decodes` events decodes a target SNR at most once
    and never one that the previous probe at its (L, r_B) counted, and no
    more than `bound` passes are alive at once."""
    previous = {}
    for point, walk, decoded in rate_probes(events):
        assert len(decoded) == len(set(decoded)) and set(decoded) <= set(walk)
        assert not set(decoded) & set(previous.get(point, ())), point
        previous[point] = walk
    assert max(event[4] for event in events if event[0] == "pass") <= bound
