"""Exception hierarchy for chartqa."""


class ChartQAError(Exception):
    """Base class for all chartqa errors."""


class SettingError(ChartQAError, ValueError):
    """A setting or argument is out of its range (a ValueError too, as it was before)."""


class InputFileError(ChartQAError):
    """A config or groups file is special or too large, not UTF-8, or not of the shape wanted."""


class WorkerFailed(ChartQAError):
    """A worker process ended without sending back its results (killed, say)."""


# --- chart parsing ---

class MalformedArchive(ChartQAError):
    """Archive bytes are not a readable gzipped tar."""


class MissingMetadata(ChartQAError):
    """Chart archive or directory has no Chart.yaml."""


class MetadataParseError(ChartQAError):
    """A chart file is not UTF-8, a chart YAML file is invalid, or mandatory fields are absent."""


class TooManyLeaves(ChartQAError):
    """A chart's templates hold more scalar leaves than a chart may (``core.MAX_CHART_LEAVES``)."""


class EmptyCorpus(ChartQAError):
    """An operation that needs at least one chart got none."""


# --- repository ingestion ---

class IndexParseError(ChartQAError):
    """Repository index is not a usable YAML document."""


class EmptyIndex(ChartQAError):
    """Repository index carries no entries."""


class FetchError(ChartQAError):
    """An index, archive or chart file could not be read: network, IO, a special file or a bound."""


class ChecksumMismatch(FetchError):
    """Fetched archive bytes do not match the digest the index declared."""


class DuplicateSnapshot(ChartQAError):
    """A snapshot for this UTC day already exists in the store."""


class StorageError(ChartQAError):
    """Snapshot store could not be written, or a snapshot in it read."""


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


class SuggestionsDefined(ChartQAError, ValueError):
    """values.yaml already holds the ``suggestions`` block a rewrite would add
    (a ValueError too, as it was before)."""


class KnowledgeBaseError(ChartQAError):
    """Variability knowledge-base file is special or too large, or not a JSON object of strings."""


# --- statistics ---

class AllZeroDifferences(ChartQAError):
    """Signed-rank test is undefined when every paired difference is zero."""
