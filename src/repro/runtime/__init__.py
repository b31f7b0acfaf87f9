"""The proxy runtime: origin servers, clients, and push notifications."""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".clients": ("Client", "Notification"),
    ".proxy": ("MonitoringProxy", "ProxyStats"),
    ".server": ("OriginServer", "Snapshot"),
    ".sharding": (
        "BudgetLedger",
        "ConsistentHashRing",
        "ShardLoad",
        "split_budget",
        "steal_plan",
    ),
})
