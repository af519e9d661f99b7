"""The benchmark's workloads: one slicesim command each, with every scenario
parameter written out in the config so that the checks read their inputs
from here and never from the program under test.

The seed is not part of a workload: `run.py` passes it as `--seed`.
"""

from dataclasses import dataclass, field
from typing import Dict, Tuple

# reference scenario of the paper's figures (the fig3 / fig5 presets)
_SCENARIO = dict(
    gamma_bar_B_db=20.0,
    gamma_bar_M_db=5.0,
    eps_B=1e-3,
    eps_M=0.1,
    P_M=1.0,
    M=10,
    mode="both",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    preset: str
    params: Dict = field(default_factory=dict)
    workers: int = 1

    @property
    def L(self) -> Tuple[int, ...]:
        return tuple(self.params["L"])

    def config_text(self) -> str:
        lines = []
        for key, value in self.params.items():
            if key == "L":
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def argv(self, seed: int, config_path: str, out_path: str, trials=None):
        argv = [self.command, "--preset", self.preset, "--config", config_path,
                "--seed", str(seed), "--workers", str(self.workers), "--out", out_path]
        if trials is not None:
            argv += ["--trials", str(trials)]
        return argv

    def rows(self) -> int:
        """CSV rows (operations) one command writes."""
        p, n_L = self.params, len(self.L)
        if self.command == "region":
            return n_L * (p["alpha_points"] + p["r_b_points"])
        if self.command == "max-devices":
            return n_L * 2 * p["r_b_points"]
        return n_L * 2


WORKLOADS = {
    w.name: w
    for w in (
        # evaluation-bound: one table per L, thousands of decode evaluations
        Workload("region", "region", "fig3", dict(
            _SCENARIO, L=(1, 8), trials=10_000, alpha_points=41, r_b_points=11)),
        # build-bound: a fresh table per probed device count M
        Workload("max-devices", "max-devices", "fig5", dict(
            _SCENARIO, L=(8,), trials=1_000, r_b_points=3, r_M=0.25)),
        # RNG- and ndtri-bound: large T at small M, chunk thread pool in use.
        # r_M sits between the L=8 and L=16 orthogonal endpoints and r_B just
        # under the L=1 outage rate, so the estimates are not all 0 or 1.
        Workload("outage", "outage", "fig3", dict(
            _SCENARIO, L=(1, 8, 16), trials=32_768, r_M=1.0, r_B=4.0), workers=2),
    )
}
