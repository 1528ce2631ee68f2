"""The four benchmark workloads: the epichaos configs they run, made from a seed.

A workload is a round of one or more ``epichaos`` experiments.  Every run
repeats whole rounds; round ``r`` of a run with seed ``s`` uses the epichaos
seed ``round_seed(s, r)``, so the same (seed, round) always gives the same
inputs.  Each experiment carries the name of the output check that judges it
(see ``checks.py``) and the config sections that check reads.
"""

from dataclasses import dataclass

import numpy as np

#: The acceptance model: unit torus, r0 = 0.1, lambda = 1, gamma = 0.5.
ACCEPTANCE_MODEL = {"d": 1.0, "r0": 0.1, "lambda": 1.0, "gamma": 0.5}
ACCEPTANCE_INITIAL = {"s": 0.9, "i": 0.1, "r": 0.0}


@dataclass(frozen=True)
class Experiment:
    """One ``epichaos <kind>`` run and the check that judges its outputs."""

    kind: str
    sections: dict
    check: str

    def config_text(self) -> str:
        lines = []
        for name, entries in self.sections.items():
            lines.append(f"[{name}]")
            lines += [f"{key} = {_fmt(value)}" for key, value in entries.items()]
            lines.append("")
        return "\n".join(lines)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_round: object  # (epichaos seed, bench seed, round) -> list[Experiment]

    def round(self, seed: int, index: int) -> list:
        return self.make_round(round_seed(seed, index), seed, index)


def _fmt(value) -> str:
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], (list, tuple)):
            return "; ".join(_fmt(row) for row in value)
        return " ".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def round_seed(seed: int, index: int) -> int:
    """The epichaos [run] seed of round ``index`` of a run with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _study_coupled(epi_seed, seed, index):
    sections = {
        "model": {"n": 100, **ACCEPTANCE_MODEL},
        "grid": {"m": 32, "k": 8, "dt": 5e-3},
        "initial": dict(ACCEPTANCE_INITIAL),
        "run": {"t": 1.0, "sample_times": [0.0, 0.5, 1.0], "replicas": 12,
                "seed": epi_seed, "n_values": [100, 200, 400, 800], "threads": 1},
    }
    return [Experiment("study", sections, "study")]


def _kinetic_fine(epi_seed, seed, index):
    # distinct piecewise-constant weights on a 4x4 grid, so transport moves mass
    rng = np.random.default_rng([seed, index])
    weights = (1.0 + rng.permutation(16)).reshape(4, 4).tolist()
    sections = {
        "model": {"n": 100, **ACCEPTANCE_MODEL},
        "grid": {"m": 64, "k": 16, "dt": 1e-3},
        "initial": {**ACCEPTANCE_INITIAL, "weights": weights},
        "run": {"t": 0.2, "snapshot_times": [0.0, 0.1, 0.2], "seed": epi_seed},
    }
    return [Experiment("kinetic", sections, "kinetic")]


SMALL_N_REPLICAS = 2500


def _replicas_small_n(epi_seed, seed, index):
    # r0 > side/sqrt(2): every pair is always in range, so the label counts
    # form a closed Markov chain and the field intensity is the I mass
    sections = {
        "model": {"n": 3, "d": 1.0, "r0": 0.75, "lambda": 1.0, "gamma": 1.0},
        "grid": {"m": 8, "k": 8, "dt": 1e-2},
        "initial": {"s": 0.5, "i": 0.4, "r": 0.1},
        "run": {"t": 1.0, "sample_times": [0.0, 0.5, 1.0],
                "replicas": SMALL_N_REPLICAS, "seed": epi_seed, "threads": 2},
    }
    return [Experiment("particle", sections, "chain"),
            Experiment("meanfield", sections, "meanfield_ode")]


def _particle_large_n(epi_seed, seed, index):
    sections = {
        "model": {"n": 100_000, **ACCEPTANCE_MODEL},
        "grid": {"m": 32, "k": 8, "dt": 5e-3},  # cell_counts bins on this m
        "initial": dict(ACCEPTANCE_INITIAL),
        "run": {"t": 1.0, "sample_times": [0.0, 0.25, 0.5, 0.75, 1.0],
                "replicas": 1, "seed": epi_seed, "cell_counts": "true", "threads": 1},
    }
    return [Experiment("particle", sections, "particle_ode")]


WORKLOADS = {w.name: w for w in (
    Workload("study-coupled",
             "run_coupled grows about as n^2 per replica and dominates the acceptance "
             "suite; the field solve is a few percent",
             _study_coupled),
    Workload("kinetic-fine",
             "only the solver and snapshot writing run, so a change to the event loops "
             "must leave it unchanged",
             _kinetic_fine),
    Workload("replicas-small-n",
             "per-replica overhead (generators, BlockDraws, sampling, pickling, CSV rows) "
             "dominates; the only workload on the process pool",
             _replicas_small_n),
    Workload("particle-large-n",
             "per-event cost of the exact simulator with almost no per-run overhead, and "
             "the largest pre-drawn arrays",
             _particle_large_n),
)}
