"""repro — reproduction of *Improving Disk Throughput in Data-Intensive
Servers* (Carrera & Bianchini, HPCA 2004).

The package implements the paper's two disk-controller cache techniques
— **File-Oriented Read-ahead (FOR)** and **Host-guided Device Caching
(HDC)** — on top of a from-scratch event-driven simulator of a striped
SCSI disk array, plus the host-side substrates (file-system layout,
buffer cache, prefetching, coalescing) and workload generators needed
to regenerate every figure and table of the paper's evaluation.

Quick start::

    from repro import (
        SyntheticWorkload, SyntheticSpec, TechniqueRunner,
        ultrastar_36z15_config, SEGM, FOR,
    )

    layout, trace = SyntheticWorkload(SyntheticSpec(n_requests=2000)).build()
    runner = TechniqueRunner(layout, trace)
    config = ultrastar_36z15_config()
    base = runner.run(config, SEGM)
    fancy = runner.run(config, FOR)
    print(f"FOR cuts I/O time by {fancy.speedup_vs(base):.0%}")
"""

from repro.config import (
    ArrayParams,
    BusParams,
    BlockPolicy,
    CacheOrganization,
    CacheParams,
    DiskParams,
    ReadAheadKind,
    SchedulerKind,
    SeekParams,
    SegmentPolicy,
    SimConfig,
    make_config,
    ultrastar_36z15_config,
)
from repro.errors import (
    AddressError,
    CacheError,
    ConfigError,
    LayoutError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import (
    ALL_TECHNIQUES,
    BLOCK,
    FOR,
    FOR_HDC,
    NORA,
    SEGM,
    SEGM_HDC,
    Technique,
    technique_config,
)
from repro.fs.layout import FileSystemLayout
from repro.fs.bitmap_builder import build_bitmaps, measure_sequential_runs
from repro.hdc.manager import HdcManager
from repro.hdc.planner import HdcPlan, plan_pin_sets
from repro.hdc.profiler import BlockAccessProfiler
from repro.hdc.victim import VictimCacheManager
from repro.array.raid import MirroredArray, Raid5Array, RebuildStream
from repro.faults import (
    FaultPlan,
    FaultProfile,
    FaultRuntime,
    FaultSummary,
    PROFILES,
    RetryPolicy,
    fault_profile,
    get_profile,
    install_fault_profile,
    uninstall_fault_profile,
)
from repro.hdc.cooperative import CooperativeHdc, plan_cooperative_pins
from repro.loadgen import (
    ClientClass,
    PopulationSpec,
    RateShaper,
    ShaperSpec,
    generate_records,
    population_trace,
    preset_population,
)
from repro.host.openloop import OpenLoopDriver
from repro.host.streams import ReplayDriver
from repro.host.system import System
from repro.metrics.collector import RunResult
from repro.obs import (
    Histogram,
    NULL_TRACER,
    Tracer,
    active_tracer,
    chrome_trace_dict,
    drive_time_in_state,
    install_tracer,
    spans_time_in_state,
    tracing,
    uninstall_tracer,
    write_chrome_trace,
    write_jsonl,
)
from repro.perfkit import (
    AttributionReport,
    PhaseDetector,
    attribute_shift,
    detect_phases,
)
from repro.service.qos import QoSPolicy
from repro.sim.engine import Simulator
from repro.workloads.fileserver import FileServerSpec, FileServerWorkload
from repro.workloads.proxy import ProxyServerSpec, ProxyServerWorkload
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload
from repro.workloads.trace import (
    DiskAccess,
    TimedAccess,
    Trace,
    TraceMeta,
    open_trace,
    save_trace,
)
from repro.workloads.webserver import WebServerSpec, WebServerWorkload

__version__ = "1.0.0"

# The service server/client are re-exported lazily (PEP 562):
# ``python -m repro.service.server`` imports this package on its way to
# the target module, and an eager import here would load that module
# before runpy executes it, tripping the double-import warning.
_SERVICE_EXPORTS = {"BlockService", "ServiceConfig", "ServiceClient"}


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        import repro.service

        return getattr(repro.service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    # configuration
    "ArrayParams",
    "BusParams",
    "BlockPolicy",
    "CacheOrganization",
    "CacheParams",
    "DiskParams",
    "ReadAheadKind",
    "SchedulerKind",
    "SeekParams",
    "SegmentPolicy",
    "SimConfig",
    "make_config",
    "ultrastar_36z15_config",
    # errors
    "AddressError",
    "CacheError",
    "ConfigError",
    "LayoutError",
    "ReproError",
    "SimulationError",
    "WorkloadError",
    # running experiments
    "TechniqueRunner",
    "Technique",
    "technique_config",
    "ALL_TECHNIQUES",
    "SEGM",
    "BLOCK",
    "NORA",
    "FOR",
    "SEGM_HDC",
    "FOR_HDC",
    # system pieces
    "System",
    "Simulator",
    "ReplayDriver",
    "OpenLoopDriver",
    "RunResult",
    "FileSystemLayout",
    "build_bitmaps",
    "measure_sequential_runs",
    # HDC management + extensions
    "HdcManager",
    "HdcPlan",
    "plan_pin_sets",
    "BlockAccessProfiler",
    "VictimCacheManager",
    "MirroredArray",
    "Raid5Array",
    "RebuildStream",
    "CooperativeHdc",
    "plan_cooperative_pins",
    # fault injection
    "FaultProfile",
    "RetryPolicy",
    "FaultPlan",
    "FaultRuntime",
    "FaultSummary",
    "PROFILES",
    "get_profile",
    "fault_profile",
    "install_fault_profile",
    "uninstall_fault_profile",
    # observability
    "Tracer",
    "NULL_TRACER",
    "tracing",
    "install_tracer",
    "uninstall_tracer",
    "active_tracer",
    "Histogram",
    "chrome_trace_dict",
    "write_chrome_trace",
    "write_jsonl",
    "drive_time_in_state",
    "spans_time_in_state",
    # workloads
    "DiskAccess",
    "TimedAccess",
    "Trace",
    "TraceMeta",
    "open_trace",
    "save_trace",
    "SyntheticSpec",
    "SyntheticWorkload",
    "WebServerSpec",
    "WebServerWorkload",
    "ProxyServerSpec",
    "ProxyServerWorkload",
    "FileServerSpec",
    "FileServerWorkload",
    # block service
    "BlockService",
    "ServiceConfig",
    "ServiceClient",
    "QoSPolicy",
    # load generation
    "ClientClass",
    "PopulationSpec",
    "ShaperSpec",
    "RateShaper",
    "preset_population",
    "generate_records",
    "population_trace",
    # performance analytics
    "PhaseDetector",
    "detect_phases",
    "AttributionReport",
    "attribute_shift",
    "__version__",
]
