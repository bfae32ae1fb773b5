"""chartqa: quality assessment for declarative cloud-application charts."""

from .analytics import (
    ActivityProfile,
    ChangeSet,
    IrregularityReport,
    MaintainerIdentity,
    MaintainerSet,
    adjacent_changes,
    change_histories,
    classify_activity,
    compute_maintainer_sets,
    detect_changes,
    detect_irregularities,
    period_metrics,
)
from .core import (
    ChartMetadata,
    ChartPackage,
    ChartRef,
    Maintainer,
    mangle_stem,
    parse_chart_archive,
    versioning_overhead,
)
from .ingest import (
    RepoIndex,
    Snapshot,
    SnapshotStore,
    fetch_archive,
    ingest_local_dir,
    parse_repo_index,
)
from .quality import (
    DuplicateConfig,
    DuplicateReport,
    QualityReport,
    VariabilityKnowledgeBase,
    analyze_chart,
    detect_duplicates,
    learn_variability,
    stabilize_render,
)
from .render import (
    BuiltinEngine,
    ExternalEngine,
    RenderFailure,
    RenderResult,
    flatten_documents,
    render_chart,
)
from .rewrite import (
    IssueDigest,
    RewritePlan,
    build_issue_digests,
    emit_diff,
    plan_rewrite,
    verify_rewrite,
)
from .stats import resampled_group_test, wilcoxon_signed_rank

__version__ = "0.1.0"

__all__ = [
    "ActivityProfile", "BuiltinEngine", "ChangeSet", "ChartMetadata",
    "ChartPackage", "ChartRef", "DuplicateConfig", "DuplicateReport",
    "ExternalEngine", "IrregularityReport", "IssueDigest", "Maintainer",
    "MaintainerIdentity", "MaintainerSet", "QualityReport", "RenderFailure",
    "RenderResult", "RepoIndex", "RewritePlan", "Snapshot",
    "SnapshotStore", "VariabilityKnowledgeBase", "adjacent_changes", "analyze_chart",
    "build_issue_digests", "change_histories", "classify_activity",
    "compute_maintainer_sets", "detect_changes", "detect_duplicates",
    "detect_irregularities", "emit_diff", "fetch_archive", "flatten_documents",
    "ingest_local_dir", "learn_variability", "mangle_stem",
    "parse_chart_archive", "parse_repo_index", "period_metrics",
    "plan_rewrite", "render_chart", "resampled_group_test",
    "stabilize_render", "verify_rewrite", "versioning_overhead",
    "wilcoxon_signed_rank",
]
