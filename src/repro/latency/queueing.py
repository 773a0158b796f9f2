"""Queueing models for loaded scale-out servers.

The paper measures its baseline 99th-percentile latencies "in a
near-zero contention configuration" and scales them with throughput.
The consolidation discussion (Section V-C), however, asks how much load
can be added before the tail blows up; these classical queueing models
provide that extension:

* :class:`MM1Queue` -- exponential service times; closed-form response
  time distribution, so percentiles are exact.
* :class:`MG1Queue` -- general service times via the
  Pollaczek-Khinchine formula, with a percentile approximation based on
  an exponential tail matched to the mean response time.

:data:`waiting_tail_log` is the one log behind the corrected M/G/1
percentile, for :class:`MG1Queue` and the fleet tail kernel alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

waiting_tail_log = np.log
"""The log in the corrected M/G/1 waiting tail, ``log(rho / p)``.

:meth:`MG1Queue.response_time_percentile` applies it to one Python
float and :func:`repro.kernels.fleet.tail_latencies` to a whole array
of ratios, so the scalar queue and the kernel agree bit for bit on any
host: NumPy's ``log`` gives a scalar the value it gives the same
element of an array, whichever SIMD path it dispatches to, whereas
``math.log`` (the C library's) may differ from it in the last bit.
"""


@dataclass(frozen=True)
class MM1Queue:
    """M/M/1 queue: Poisson arrivals, exponential service."""

    arrival_rate: float
    service_rate: float

    def __post_init__(self) -> None:
        check_positive("arrival_rate", self.arrival_rate)
        check_positive("service_rate", self.service_rate)
        if self.arrival_rate >= self.service_rate:
            raise ValueError(
                f"unstable queue: arrival rate {self.arrival_rate} >= "
                f"service rate {self.service_rate}"
            )

    @property
    def utilization(self) -> float:
        """Server utilisation (rho)."""
        return self.arrival_rate / self.service_rate

    @property
    def mean_response_time(self) -> float:
        """Mean time in system (wait + service), seconds."""
        return 1.0 / (self.service_rate - self.arrival_rate)

    @property
    def mean_waiting_time(self) -> float:
        """Mean time in queue (excluding service), seconds."""
        return self.utilization / (self.service_rate - self.arrival_rate)

    def response_time_percentile(self, percentile: float) -> float:
        """Exact response-time percentile (response time is exponential)."""
        if not (0.0 < percentile < 100.0):
            raise ValueError(f"percentile must be in (0, 100), got {percentile}")
        return -math.log(1.0 - percentile / 100.0) * self.mean_response_time


@dataclass(frozen=True)
class MG1Queue:
    """M/G/1 queue: Poisson arrivals, general service distribution."""

    arrival_rate: float
    mean_service_time: float
    service_time_cv: float = 1.0

    def __post_init__(self) -> None:
        check_positive("arrival_rate", self.arrival_rate)
        check_positive("mean_service_time", self.mean_service_time)
        check_positive("service_time_cv", self.service_time_cv)
        if self.utilization >= 1.0:
            raise ValueError(
                f"unstable queue: utilisation {self.utilization:.3f} >= 1"
            )

    @property
    def utilization(self) -> float:
        """Server utilisation (rho)."""
        return self.arrival_rate * self.mean_service_time

    @property
    def mean_waiting_time(self) -> float:
        """Pollaczek-Khinchine mean waiting time, seconds."""
        rho = self.utilization
        cv_squared = self.service_time_cv * self.service_time_cv
        return (rho * self.mean_service_time * (1.0 + cv_squared)) / (
            2.0 * (1.0 - rho)
        )

    @property
    def mean_response_time(self) -> float:
        """Mean time in system, seconds."""
        return self.mean_waiting_time + self.mean_service_time

    def response_time_percentile(
        self, percentile: float, *, corrected: bool = False
    ) -> float:
        """Approximate response-time percentile.

        The default (``corrected=False``) fits an exponential tail to
        the mean response time: the service-time variability only enters
        through the Pollaczek-Khinchine mean, not the tail *shape*, so
        high-CV services are under-penalised at the far percentiles and
        low-CV ones over-penalised at light load.

        ``corrected=True`` applies the standard two-moment
        (Marchal-style) refinement: the waiting time is modelled as an
        atom of mass ``1 - rho`` at zero (the probability of finding the
        server idle) plus an exponential tail whose conditional mean is
        the P-K mean waiting time over ``rho``, and the service time is
        added back deterministically.  For the M/M/1 special case this
        converges to the exact percentile as ``rho -> 1``, and the
        squared CV now scales the tail itself, not just the mean.  The
        tail's log is :data:`waiting_tail_log`, the fleet tail kernel's
        own, and the result is a Python float.
        """
        if not (0.0 < percentile < 100.0):
            raise ValueError(f"percentile must be in (0, 100), got {percentile}")
        tail_probability = 1.0 - percentile / 100.0
        if not corrected:
            return -math.log(tail_probability) * self.mean_response_time
        rho = self.utilization
        if tail_probability >= rho:
            # The (1 - rho) idle atom already covers the percentile:
            # the request never waits.
            waiting_tail = 0.0
        else:
            waiting_tail = (self.mean_waiting_time / rho) * float(
                waiting_tail_log(rho / tail_probability)
            )
        return self.mean_service_time + waiting_tail

    def max_stable_arrival_rate(self, safety_margin: float = 0.05) -> float:
        """Largest arrival rate keeping utilisation below 1 - margin."""
        if not (0.0 <= safety_margin < 1.0):
            raise ValueError("safety_margin must be in [0, 1)")
        return (1.0 - safety_margin) / self.mean_service_time
