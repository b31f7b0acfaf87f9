"""Workload construction: restrictions, Zipf sampling, templates, generator."""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".generator": ("GeneratorConfig", "ProfileGenerator"),
    ".restrictions": (
        "DeliveryRestriction",
        "OverwriteRestriction",
        "WindowRestriction",
    ),
    ".templates": (
        "AuctionWatchTemplate",
        "PeriodicWatchTemplate",
        "ProfileTemplate",
        "SingleResourceTemplate",
    ),
    ".zipf": ("BoundedZipf",),
})
