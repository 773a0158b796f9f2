"""Workload models: CloudSuite-like scale-out apps and virtualized VMs.

The paper evaluates two application classes (Section III-A):

* **Scale-out applications** from CloudSuite: Data Serving, Web Search,
  Web Serving and Media Streaming, each with a strict tail-latency QoS.
* **Virtualized applications**: synthetic banking VMs (batch financial
  analysis built on matrix manipulation) whose memory provisioning is
  derived from the Bitbrains trace statistics -- a low-memory (100MB)
  and a high-memory (700MB) class -- and whose QoS is a bound on batch
  execution-time degradation (2x..4x).

Because the real software stacks cannot run inside this library, each
workload is represented by its *characteristics* (instruction mix, MPKI,
memory-level parallelism, per-request instruction count, switching
activity), which is exactly the information the paper's methodology
consumes, plus synthetic trace generators that exercise the detailed
cache/DRAM simulators with matching behaviour.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("WorkloadCharacteristics", "WorkloadClass"),
        "cloudsuite": (
            "DATA_SERVING",
            "WEB_SEARCH",
            "WEB_SERVING",
            "MEDIA_STREAMING",
            "scale_out_workloads",
        ),
        "banking_vm": (
            "VMS_LOW_MEM",
            "VMS_HIGH_MEM",
            "virtualized_workloads",
            "BankingVmGenerator",
        ),
        "bitbrains": ("BitbrainsTraceModel", "VmTraceSample"),
        "trace_gen": ("SyntheticTraceGenerator", "TraceRecord"),
    },
)

__all__ = [
    "WorkloadCharacteristics",
    "WorkloadClass",
    "DATA_SERVING",
    "WEB_SEARCH",
    "WEB_SERVING",
    "MEDIA_STREAMING",
    "scale_out_workloads",
    "VMS_LOW_MEM",
    "VMS_HIGH_MEM",
    "virtualized_workloads",
    "BankingVmGenerator",
    "BitbrainsTraceModel",
    "VmTraceSample",
    "SyntheticTraceGenerator",
    "TraceRecord",
]
