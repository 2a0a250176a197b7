"""Seeded input generators: the same seed always gives the same inputs.

The program under test only ever sees what these functions produce:
command lines for ``repro-hmeans pipeline``, ``/score`` and
``/analyze`` bodies, and data seeds for the large SOM fits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.data.partitions import partition_chain
from repro.data.table3 import SPEEDUP_TABLE

# Bodies are encoded exactly as the client sends them, so the bytes the
# daemon parses and the dict the checks recompute from are one value.
_JSON = {"sort_keys": True, "separators": (",", ":")}

# The characterizations a CLI run or an /analyze request draws from:
# SAR counters on machine A or B, or the machine-independent methods.
CHARACTERIZATIONS = (("sar", "A"), ("sar", "B"), ("methods", None))

SEED_RANGE = 2**31 - 1


def encode(body: dict[str, Any]) -> bytes:
    """The wire form of a request body."""
    return json.dumps(body, **_JSON).encode("utf-8")


@dataclass(frozen=True)
class CliConfig:
    """One ``repro-hmeans pipeline`` invocation."""

    characterization: str
    machine: str | None
    seed: int

    def argv(self) -> list[str]:
        """Arguments after ``python -m repro.cli``."""
        args = ["--seed", str(self.seed), "pipeline"]
        if self.characterization == "sar":
            args += ["--machine", str(self.machine)]
        else:
            args += ["--characterization", self.characterization]
        return args


def cli_configs(seed: int, count: int) -> list[CliConfig]:
    """``count`` configs cycling through every characterization.

    Cycling (rather than drawing the characterization) keeps each run's
    mix the same, so a run's latency percentiles and peak memory do not
    depend on which characterizations the seed happened to pick.
    """
    rng = np.random.default_rng([seed, 1])
    return [
        CliConfig(*CHARACTERIZATIONS[index % len(CHARACTERIZATIONS)],
                  int(rng.integers(1, SEED_RANGE)))
        for index in range(count)
    ]


def score_bodies(seed: int) -> Iterator[dict[str, Any]]:
    """An endless stream of distinct ``POST /score`` bodies.

    Each body measures 2-4 machines, every column a Table III column
    scaled per workload by a factor in [0.9, 1.1]; it scores them under
    a recovered Table IV partition with k = 2..8, with the geometric
    mean in 3 of 4 requests and the arithmetic or harmonic otherwise.
    """
    rng = np.random.default_rng([seed, 2])
    chain = partition_chain("table4")
    counts = sorted(chain)
    workloads = sorted(SPEEDUP_TABLE["A"])
    index = 0
    while True:
        machines = {}
        for column in range(int(rng.integers(2, 5))):
            base = SPEEDUP_TABLE["AB"[int(rng.integers(0, 2))]]
            factors = rng.uniform(0.9, 1.1, size=len(workloads))
            machines[f"m{index}-{column}"] = {
                name: float(base[name] * factor)
                for name, factor in zip(workloads, factors)
            }
        partition = chain[counts[int(rng.integers(0, len(counts)))]]
        if rng.random() < 0.75:
            mean = "geometric"
        else:
            mean = ("arithmetic", "harmonic")[int(rng.integers(0, 2))]
        yield {
            "measurements": machines,
            "partition": [list(block) for block in partition.blocks],
            "mean": mean,
        }
        index += 1


def analyze_bodies(seed: int) -> Iterator[dict[str, Any]]:
    """An endless stream of ``POST /analyze`` bodies.

    Three of every four draw a fresh pipeline seed (so the daemon
    computes the whole stage chain); the fourth repeats one of the
    three before it (so it replays from the engine memo).
    """
    rng = np.random.default_rng([seed, 3])
    recent: list[dict[str, Any]] = []
    index = 0
    while True:
        if index % 4 == 3:
            body = recent[int(rng.integers(0, len(recent)))]
        else:
            characterization, machine = CHARACTERIZATIONS[
                int(rng.integers(0, len(CHARACTERIZATIONS)))
            ]
            body = {
                "characterization": characterization,
                "seed": int(rng.integers(1, SEED_RANGE)),
            }
            if machine is not None:
                body["machine"] = machine
            recent = (recent + [body])[-3:]
        yield body
        index += 1


def som_data_seeds(seed: int, pool: list[int]) -> Iterator[int]:
    """Data seeds for the large fits: the pinned pool, in a seeded order."""
    rng = np.random.default_rng([seed, 4])
    while True:
        yield from (pool[index] for index in rng.permutation(len(pool)))


def som_data(data_seed: int) -> np.ndarray:
    """The standardized ``big_suite(1000, 64)`` matrix for one data seed."""
    from repro.synthetic import big_suite

    matrix = big_suite(1000, 64, seed=data_seed)
    return (matrix - matrix.mean(axis=0)) / matrix.std(axis=0)
