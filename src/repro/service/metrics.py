"""Per-tenant service latency histograms.

One :class:`ServiceMetrics` holds two tenant-keyed tables of
:class:`~repro.obs.metrics.Histogram`: request latency (admission →
completion, simulated ms) and queue wait (admission → dispatch). The
request counts (admitted, completed, shed) live on the tenant's
:class:`~repro.service.qos.TenantQueue`, their one home. The STATS op
and the server's shutdown summary both render the same per-tenant
documents (counts plus :meth:`ServiceMetrics.tenant_summary`), so the
wire numbers and the console numbers can never drift apart.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, DefaultDict, Dict

from repro.obs.metrics import Histogram


class ServiceMetrics:
    """Tenant-keyed latency and queue-wait histograms."""

    def __init__(self) -> None:
        self.latency_ms: DefaultDict[str, Histogram] = defaultdict(Histogram)
        self.queue_ms: DefaultDict[str, Histogram] = defaultdict(Histogram)

    def latency_histogram(self, tenant: str) -> Histogram:
        """The tenant's admission→completion latency histogram (ms)."""
        return self.latency_ms[tenant]

    def record_completion(
        self, tenant: str, latency_ms: float, queue_ms: float
    ) -> None:
        """One finished request: both histograms."""
        self.latency_ms[tenant].observe(latency_ms)
        self.queue_ms[tenant].observe(queue_ms)

    def tenant_summary(self, tenant: str) -> Dict[str, Any]:
        """JSON-safe percentile snapshot for one tenant (empty if idle)."""
        latency = self.latency_ms.get(tenant)
        if latency is None or not latency.count:
            return {}
        queue = self.queue_ms[tenant]
        return {
            "latency_ms": {
                "mean": latency.mean,
                "p50": latency.p50,
                "p95": latency.p95,
                "p99": latency.p99,
                "max": latency.max,
            },
            "queue_ms": {
                "mean": queue.mean,
                "p95": queue.p95,
                "max": queue.max,
            },
        }
