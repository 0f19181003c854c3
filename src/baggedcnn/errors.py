"""Exception taxonomy shared by all modules.

Exit-code mapping used by the CLI: ConfigError and BuildError (a model the
config cannot build: a layer size below 1, or widths that shrink the images
below a kernel) -> 2, data/format errors -> 3, NumericError -> 4,
WorkerError -> 5.
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


class PayloadError(FormatError, InputError):
    """A container file holds values a container refuses, such as a pixel
    outside [0, 1]: a malformed file to a loader's caller, and the same
    InputError an in-memory container with those values raises."""


class MetricError(BaggedCnnError):
    """A requested metric is undefined for the given counts."""


class ConfigError(BaggedCnnError):
    """A run configuration is invalid; the message names the field."""


class CheckpointError(BaggedCnnError):
    """A checkpoint file cannot be loaded."""


class WorkerError(BaggedCnnError):
    """A process training sub-models ended without a result, such as one the
    operating system killed; the message names the sub-model."""
