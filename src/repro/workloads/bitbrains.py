"""Statistical model of the Bitbrains VM traces.

The paper derives its two VM memory-provisioning classes (100MB
low-memory and 700MB high-memory) from the Bitbrains dataset of 1750
business-critical VMs (Shen et al., CCGrid 2015).  The raw traces are
not redistributable, so this module provides a statistical generator
that reproduces the published shape of the distribution: memory usage
is heavily right-skewed (log-normal-like) with a large population of
small VMs and a long tail of large ones.

The generator is deterministic given a seed and produces per-VM samples
(memory usage, CPU utilisation) plus the derived class statistics the
paper consumes: the representative low-memory and high-memory
provisioning levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.utils.units import MB
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class VmTraceSample:
    """One synthetic VM observation."""

    vm_id: int
    memory_bytes: float
    cpu_utilization: float


@dataclass(frozen=True)
class BitbrainsTraceModel:
    """Synthetic Bitbrains-like VM population.

    Parameters
    ----------
    vm_count:
        Number of VMs in the population (1750 in the dataset).
    seed:
        Seed of the deterministic random generator.
    log_mean / log_sigma:
        Parameters of the log-normal memory-usage distribution, in
        natural-log space of megabytes.  The defaults put the bulk of
        VMs around 100MB of actively used memory with a tail reaching
        several GB, consistent with the published characterisation.
    """

    vm_count: int = 1750
    seed: int = 2016
    log_mean: float = 4.7
    log_sigma: float = 1.4

    def __post_init__(self) -> None:
        check_positive("vm_count", self.vm_count)
        check_positive("log_sigma", self.log_sigma)

    def _draws(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every VM's memory usage (MB) and clipped CPU utilisation,
        drawn in that order from the seeded generator."""
        rng = np.random.default_rng(self.seed)
        memory_mb = rng.lognormal(self.log_mean, self.log_sigma, self.vm_count)
        return memory_mb, np.clip(rng.beta(2.0, 5.0, self.vm_count), 0.01, 1.0)

    def cpu_utilization(self) -> np.ndarray:
        """Every VM's CPU utilisation, in ``vm_id`` order: the samples'
        ``cpu_utilization`` values as one array, without the samples."""
        return self._draws()[1]

    def memory_bytes(self) -> np.ndarray:
        """Every VM's memory usage in bytes, in ``vm_id`` order: the
        samples' ``memory_bytes`` (the same products) as one array."""
        return self._draws()[0] * MB

    def samples(self) -> List[VmTraceSample]:
        """Generate the synthetic VM population."""
        memory = self.memory_bytes().tolist()
        cpu = self.cpu_utilization().tolist()
        return [
            VmTraceSample(index, memory[index], cpu[index])
            for index in range(self.vm_count)
        ]

    def memory_percentile(self, percentile: float) -> float:
        """Memory usage (bytes) at the given percentile of the population."""
        if not (0.0 <= percentile <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {percentile}")
        return float(np.percentile(self.memory_bytes(), percentile))

    def representative_classes(self) -> dict:
        """Low-memory / high-memory provisioning levels (bytes).

        Following the paper, the low-memory class provisions for the
        typical (median) VM and the high-memory class for the heavy
        (90th percentile) VMs; the defaults land near the paper's 100MB
        and 700MB figures.
        """
        return {
            "low-mem": self.memory_percentile(50.0),
            "high-mem": self.memory_percentile(90.0),
        }

    def class_populations(self, threshold_bytes: float = 300 * MB) -> dict:
        """Number of VMs below/above a provisioning threshold."""
        check_positive("threshold_bytes", threshold_bytes)
        memory = self.memory_bytes()
        low = int(np.count_nonzero(memory <= threshold_bytes))
        return {"low-mem": low, "high-mem": len(memory) - low}
