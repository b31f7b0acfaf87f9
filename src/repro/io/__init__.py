"""JSON persistence for model objects and results."""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".json_codec": (
        "budget_from_jsonable",
        "budget_to_jsonable",
        "load_profiles",
        "load_result",
        "profiles_from_jsonable",
        "profiles_to_jsonable",
        "result_from_jsonable",
        "result_to_jsonable",
        "save_profiles",
        "save_result",
        "schedule_from_jsonable",
        "schedule_to_jsonable",
    ),
})
