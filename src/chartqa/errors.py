"""Exception hierarchy for chartqa."""


class ChartQAError(Exception):
    """Base class for all chartqa errors."""


class SettingError(ChartQAError, ValueError):
    """A setting or argument is out of its range (a ValueError too, as it was before)."""


# --- chart parsing ---

class MalformedArchive(ChartQAError):
    """Archive bytes are not a readable gzipped tar."""


class MissingMetadata(ChartQAError):
    """Chart archive or directory has no Chart.yaml."""


class MetadataParseError(ChartQAError):
    """A chart file is not UTF-8, a chart YAML file is invalid, or mandatory fields are absent."""


class EmptyCorpus(ChartQAError):
    """An operation that needs at least one chart got none."""


# --- repository ingestion ---

class IndexParseError(ChartQAError):
    """Repository index is not a usable YAML document."""


class EmptyIndex(ChartQAError):
    """Repository index carries no entries."""


class FetchError(ChartQAError):
    """Archive could not be retrieved (network or IO)."""


class ChecksumMismatch(FetchError):
    """Fetched archive bytes do not match the digest the index declared."""


class DuplicateSnapshot(ChartQAError):
    """A snapshot for this UTC day already exists in the store."""


class StorageError(ChartQAError):
    """Snapshot store could not be written."""


# --- rendering ---

class EngineUnavailable(ChartQAError):
    """External renderer binary is not present or not executable."""


class RenderFailed(ChartQAError):
    """No template of the chart produced a rendered document."""


# --- quality / rewriting ---

class SpanLocationFailed(ChartQAError):
    """A reported duplicate occurrence cannot be located as a literal in any template."""


class EmptyReport(ChartQAError):
    """Rewrite planning needs a non-empty duplicate report."""


class KnowledgeBaseError(ChartQAError):
    """Variability knowledge-base file is not a JSON object of string values."""


# --- statistics ---

class AllZeroDifferences(ChartQAError):
    """Signed-rank test is undefined when every paired difference is zero."""
