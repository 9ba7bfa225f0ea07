"""The benchmark's workloads: one domfw config each, built from a seed.

Every workload is a flat domfw config without its ``seeds.master`` line. The
benchmark's ``--seed N`` sets ``seeds.master = base_seed + N``, so seed 0 is
the workload's reference draw, the one whose output digests are recorded in
``digests.json``. The program only ever sees the resulting config text.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    base_seed: int
    config: str
    why: str
    sweep_values: tuple[str, ...] = ()   # non-empty: one operation is a gamma sweep

    def master_seed(self, seed: int) -> int:
        return self.base_seed + seed

    def config_text(self, seed: int) -> str:
        return self.config + f"seeds.master = {self.master_seed(seed)}\n"

    def run_dirs(self) -> list[str]:
        """Artifact directories of one operation, relative to its output directory."""
        if self.sweep_values:
            return [f"run_gamma={value}" for value in self.sweep_values]
        return ["."]


WORKLOADS = {w.name: w for w in [
    Workload(
        name="reference",
        base_seed=101,
        config=(
            "problem.n = 20\nproblem.d = 8\nproblem.T = 150\nproblem.constraint = simplex\n"
            "schedule.mode = per_round\nschedule.epsilon = 4\nschedule.gamma = 0.5\nschedule.rho = 4\n"
            "network.edge_prob = 0.3\n"
        ),
        why="paper reference shape (n=20 d=8 per-round schedule) at T=150; the lockstep inner loop carries the run",
    ),
    Workload(
        name="wide-network",
        base_seed=7,
        config=(
            "problem.n = 200\nproblem.d = 8\nproblem.T = 50\nproblem.constraint = simplex\n"
            "schedule.mode = fixed\nschedule.fixed_count = 4\nnetwork.edge_prob = 0.05\n"
        ),
        why="n=200, T=50, 4 inner steps a round; graph building, mixing check and CSV writers carry the run",
    ),
    Workload(
        name="l1-redraw",
        base_seed=11,
        config=(
            "problem.n = 32\nproblem.d = 16\nproblem.T = 30\nproblem.constraint = l1ball\n"
            "problem.radius = 2\nproblem.redraw_features = true\nschedule.mode = per_round\n"
        ),
        why="l1 ball with per-round features, n=32 d=16 T=30; the round-optimum solver carries the run",
    ),
    Workload(
        name="gamma-sweep",
        base_seed=5,
        config=(
            "problem.n = 20\nproblem.d = 8\nproblem.T = 60\nproblem.constraint = simplex\n"
            "schedule.mode = per_round\nschedule.epsilon = 2\nschedule.rho = 3\n"
        ),
        sweep_values=("0.3", "0.5", "0.7"),
        why="gamma sweep 0.3/0.5/0.7 at T=60; its three runs share one stream, schedule and optima set",
    ),
]}
