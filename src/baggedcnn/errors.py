"""Exception taxonomy shared by all modules.

Exit-code mapping used by the CLI: ConfigError and BuildError (a model the
configured widths cannot build for the images) -> 2, data/format errors -> 3,
NumericError -> 4.
"""


class BaggedCnnError(Exception):
    """Base class for all library errors."""


class DimensionError(BaggedCnnError):
    """Array shapes are incompatible; the message names the offending axis."""


class LabelError(BaggedCnnError):
    """A class label is out of range; the message carries the sample index."""


class NumericError(BaggedCnnError):
    """Non-finite values where finite ones are required."""


class InputError(BaggedCnnError):
    """A precondition on plain (non-shape) input values was violated."""


class BuildError(BaggedCnnError):
    """A model spec cannot be realized; the message names the layer."""


class FormatError(BaggedCnnError):
    """A serialized file is malformed; the message carries the byte offset."""


class MetricError(BaggedCnnError):
    """A requested metric is undefined for the given counts."""


class ConfigError(BaggedCnnError):
    """A run configuration is invalid; the message names the field."""


class CheckpointError(BaggedCnnError):
    """A checkpoint file cannot be loaded."""
