"""chartqa: quality assessment for declarative cloud-application charts.

Each exported name is imported from its module on first access (PEP 562),
so a command loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# defaults of the duplicate detector; here so the CLI's help reaches them
# without loading the detector (``chartqa.quality`` re-exports them)
DEFAULT_THRESHOLD = 3
# v1 and extensions/v1beta1 are mandatory API markers; the rest are
# analytically meaningless as deduplication targets.
DEFAULT_BLACKLIST = ("v1", "extensions/v1beta1", "", "true", "false", "0", "1")

# module -> the names it exports
_EXPORTS = {
    "analytics": "ActivityProfile ChangeSet IrregularityReport MaintainerIdentity "
                 "MaintainerSet adjacent_changes change_histories classify_activity "
                 "compute_maintainer_sets detect_changes detect_irregularities period_metrics",
    "core": "ChartMetadata ChartPackage ChartRef Maintainer mangle_stem "
            "parse_chart_archive versioning_overhead",
    "ingest": "RepoIndex Snapshot SnapshotStore fetch_archive parse_repo_index",
    "quality": "DuplicateConfig DuplicateReport QualityReport VariabilityKnowledgeBase "
               "analyze_chart detect_duplicates",
    "render": "BuiltinEngine ExternalEngine RenderFailure RenderResult render_chart",
    "rewrite": "IssueDigest RewritePlan build_issue_digests emit_diff plan_rewrite "
               "verify_rewrite",
    "stats": "resampled_group_test wilcoxon_signed_rank",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
