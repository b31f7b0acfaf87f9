"""Fault injection: unreliable origin servers and budget-aware recovery.

The paper assumes the proxy's pulls always succeed; real volatile sources
do not. This package makes unreliability a first-class, *deterministic*
part of the model:

* :class:`FaultSpec` / :class:`FaultInjector` — declarative fault model
  (drops, timeouts, outages, rate limiting, stale reads) with seeded,
  order-independent draws: the same spec reproduces its run on every
  engine, and a recording injector logs each decision;
* :class:`UnreliableServer` — a fault-injecting wrapper over any
  :class:`~repro.runtime.server.OriginServer`;
* :class:`RetryConfig` / :class:`CircuitBreaker` — in-chronon retries
  from leftover budget, and exponential-backoff quarantine of
  persistently dead resources;
* :func:`execute_probes` — the synchronous driver of the one retry
  cascade (:func:`repro.faults.engine.cascade`) every executor shares,
  so all of them account for faults identically.
"""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".breaker": ("CircuitBreaker", "RetryConfig"),
    ".engine": ("ProbeRound", "execute_probes"),
    ".model": (
        "FaultDecision",
        "FaultInjector",
        "FaultRecord",
        "FaultSpec",
        "Outage",
    ),
    ".server": ("UnreliableServer",),
    "repro.runtime.server": (
        "PROBE_FAILED",
        "PROBE_OK",
        "PROBE_THROTTLED",
        "ProbeOutcome",
    ),
})
