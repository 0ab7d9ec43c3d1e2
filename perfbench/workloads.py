"""Workload table and input generation for the cvilab benchmark.

Every input is a pure function of the benchmark seed. The program only
ever sees what is written here: a flat ``key = value`` config file and,
for the ingestion workload, a readings CSV.

One benchmark run covers several *populations*. Population ``j`` of
seed ``s`` uses the cvilab seed ``s * populations + j``, so different
benchmark seeds never share a population, and benchmark seed 0 starts
with cvilab seed 0, the one the pinned expectations below were taken at.
The cost of an FCM k-selection depends on the data: a few populations
in ten need restarts that run far longer than the rest. The median over
several populations keeps one such population from setting the figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Seed at which the pinned expectations hold.
DEFAULT_SEED = 0

READINGS_HOUSEHOLDS = 300
READINGS_DAYS = 28
SLOTS_PER_DAY = 96
READINGS_FIRST_DAY = np.datetime64("2024-03-04")


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    config: dict[str, str]
    # Each operation runs these cvilab subcommands in order.
    commands: tuple[str, ...]
    populations: int
    readings: bool = False
    # Pinned at the default seed; None means nothing pinned.
    pinned_k: int | None = None
    pinned_verdicts: dict[str, dict[str, str]] = field(default_factory=dict)
    notes: str = ""

    def population_seeds(self, seed: int, traced: bool = False) -> list[int]:
        """cvilab seeds of one run's populations; a traced run uses the first."""
        seeds = [seed * self.populations + j for j in range(self.populations)]
        return seeds[:1] if traced else seeds

    @property
    def trials(self) -> int:
        return int(self.config.get("trials", "100"))

    @property
    def experiments(self) -> tuple[str, ...]:
        raw = self.config.get("experiments", "")
        return tuple(e for e in raw.split(",") if e)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synth-trials",
            config={
                "synth.clusters": "4",
                "synth.cluster-size": "100",
                "synth.outliers": "3",
                "k": "fpc",
                "experiments": "outliers,density,diameter",
                "trials": "100",
            },
            commands=("run",),
            populations=6,
            pinned_k=7,
            pinned_verdicts={
                "outliers": {
                    "sh": "IMPROVES_ON_REMOVAL",
                    "ch": "IMPROVES_ON_REMOVAL",
                    "db": "IMPROVES_ON_ADDITION",
                    "xb": "IMPROVES_ON_ADDITION",
                    "di": "UNAFFECTED",
                },
                "density": {
                    "sh": "NEGATIVE",
                    "ch": "POSITIVE",
                    "db": "NEGATIVE",
                    "di": "NEGATIVE",
                    "xb": "NEGATIVE",
                },
                "diameter": {name: "POSITIVE" for name in ("sh", "ch", "db", "di", "xb")},
            },
        ),
        # Runnable by name but not listed in BENCHMARK.json: its FCM cost
        # differs by up to 1.7x between populations, so within the time a
        # run may take its run-to-run spread exceeded the largest bound.
        Workload(
            name="synth-core",
            config={
                "synth.clusters": "4",
                "synth.cluster-size": "500",
                "synth.outliers": "3",
                "k": "fpc",
            },
            commands=("run",),
            populations=4,
            pinned_k=5,
            notes=(
                "Known defect, not covered: with experiments=outliers this population "
                "aborts the run. FPC picks k=5, the 3 far outliers share one cluster, "
                "and the outlier experiment raises 'no singleton clusters to toggle'."
            ),
        ),
        Workload(
            name="readings-staged",
            config={"k": "fpc"},
            commands=("preprocess", "cluster", "validate", "report"),
            populations=4,
            readings=True,
            pinned_k=4,
        ),
    )
}


def config_text(workload: Workload, cvilab_seed: int, readings: Path | None) -> str:
    """The flat config file cvilab reads for one population."""
    lines = [f"seed = {cvilab_seed}"]
    if readings is not None:
        lines.append(f"input = {readings}")
    lines += [f"{key} = {value}" for key, value in workload.config.items()]
    return "\n".join(lines) + "\n"


# --- readings CSV: 4 household archetypes, 28 days of 15-minute meter data ---


def _archetypes() -> np.ndarray:
    """Four daily kW shapes: evening peak, office hours, night load, and a
    morning-plus-evening double peak."""
    hours = np.arange(SLOTS_PER_DAY) * 0.25

    def bump(center: float, width: float) -> np.ndarray:
        gap = np.minimum(np.abs(hours - center), 24.0 - np.abs(hours - center))
        return np.exp(-0.5 * (gap / width) ** 2)

    return np.array(
        [
            0.3 + 1.6 * bump(19.0, 1.8),
            0.2 + 1.4 * bump(12.5, 3.0),
            0.3 + 1.5 * bump(2.0, 2.2),
            0.3 + 1.0 * bump(7.5, 1.2) + 1.0 * bump(20.5, 1.2),
        ]
    )


def _timestamps() -> list[str]:
    slots = np.arange(READINGS_DAYS * SLOTS_PER_DAY) * np.timedelta64(15, "m")
    stamps = READINGS_FIRST_DAY.astype("datetime64[m]") + slots
    return [f"{s}:00Z" for s in stamps.astype(str)]


def write_readings_csv(path: Path, seed: int) -> int:
    """Write a seeded meter export and return its row count.

    Rows are household-major and time-ascending, with one fixed ISO offset
    (``Z``), as a meter export would be. The same seed gives the same bytes.
    """
    rng = np.random.default_rng([seed, 0x5EAD])
    shapes = _archetypes()
    stamps = _timestamps()
    days = READINGS_DAYS
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("household_id,timestamp,kw\n")
        for h in range(READINGS_HOUSEHOLDS):
            shape = shapes[h % len(shapes)]
            scale = rng.lognormal(0.0, 0.3)
            day_level = rng.normal(1.0, 0.1, size=(days, 1))
            noise = rng.normal(0.0, 0.08, size=(days, SLOTS_PER_DAY))
            kw = np.maximum(scale * (shape * day_level + noise), 0.0) + 0.0
            hid = f"hh-{h:04d}"
            fh.write(
                "".join(
                    f"{hid},{stamp},{value:.3f}\n"
                    for stamp, value in zip(stamps, kw.ravel().tolist())
                )
            )
            rows += len(stamps)
    return rows
