"""Update-event traces, update models, and trace synthesizers."""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".auctions": ("BRAND_CATALOG", "AuctionSpec", "AuctionTraceSynthesizer"),
    ".events": ("UpdateEvent", "UpdateTrace"),
    ".feeds": ("FeedTraceSynthesizer",),
    ".models": (
        "FPNUpdateModel",
        "PeriodicUpdateModel",
        "PoissonUpdateModel",
        "UpdateModel",
    ),
    ".stocks": ("MarketQuote", "StockMarketSynthesizer"),
})
