"""The asyncio proxy service layer.

Everything the synchronous runtime does — pull under budget, push
notifications — plus what a *service* needs: concurrent probing with
deadlines and a concurrency cap, jittered-backoff retries,
hedged quarantine exits, an HTTP/SSE API with quotas and admission
control, a crash-recovery journal, and a deterministic chaos harness
that proves the whole stack degrades without losing or duplicating a
single notification.
"""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".admission": (
        "AdmissionController",
        "AdmissionDecision",
        "AdmissionStats",
    ),
    ".engine": ("execute_probes_async",),
    ".journal": ("Journal", "JournalState", "replay_journal"),
    ".proxy": ("AsyncMonitoringProxy", "ProxyEvent", "notification_payload"),
    ".service": ("ProxyService",),
})
