"""Vectorized replay kernels over frozen frequency tables.

The replay layer's hot path -- :meth:`GovernorSimulator.replay` and
:meth:`FleetSimulator.run` -- used to step Python objects one trace
step (and one node) at a time.  This package makes that path columnar:

* :mod:`repro.kernels.table` -- :class:`FrequencyTable`, one
  (context, workload) pair's reachable grid as frozen NumPy columns
  (power, capacity, QoS, latency), built once from the context's
  memoized records via
  :meth:`~repro.sweep.context.ModelContext.frequency_table`.
* :mod:`repro.kernels.governors` -- whole-array governor kernels
  (memoryless policies as batched ``searchsorted``-style index
  selections, ``conservative`` as a tight scalar chain).
* :mod:`repro.kernels.replay` -- the single-server whole-trace replay
  as index selection plus column gathers.
* :mod:`repro.kernels.fleet` -- the fleet stages over the node axis:
  vectorized routing shares, the synchronized ``least_loaded`` index
  chain, closed-form queueing tails and exact node-axis sums, plus
  :func:`fleet_replay_columns`, one fleet replay as a one-row batch.
* :mod:`repro.kernels.batch` -- the batch axis on top: B replays
  stacked into ``(B, T)`` / ``(B, N, T)`` tensors and evaluated in
  single NumPy passes, driven by :class:`BatchReplayRunner`; the one
  fleet engine, single replays included.

The simulators dispatch here by default and keep the object-based path
as a ``reference=`` fallback; kernel and reference columns are
bit-for-bit identical (pinned by the equivalence property tests), so
every golden fixture is byte-stable across the two paths.
"""

from repro.kernels.batch import (
    BatchReplayResult,
    BatchReplayRunner,
    FleetReplayBatch,
    GovernorReplayBatch,
    ReplaySpec,
    unique_specs,
)
from repro.kernels.fleet import fleet_replay_columns, tail_latencies
from repro.kernels.fleet import supports as fleet_kernel_supports
from repro.kernels.governors import (
    has_kernel,
    is_memoryless_kernel,
    select_batch_trace_indices,
    select_step_indices,
    select_trace_indices,
)
from repro.kernels.replay import governor_replay_columns
from repro.kernels.table import FrequencyTable

__all__ = [
    "BatchReplayResult",
    "BatchReplayRunner",
    "FleetReplayBatch",
    "FrequencyTable",
    "GovernorReplayBatch",
    "ReplaySpec",
    "fleet_kernel_supports",
    "fleet_replay_columns",
    "governor_replay_columns",
    "has_kernel",
    "is_memoryless_kernel",
    "select_batch_trace_indices",
    "select_step_indices",
    "select_trace_indices",
    "tail_latencies",
    "unique_specs",
]
