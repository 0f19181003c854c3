"""Exception taxonomy shared by all modules.

Each class carries the code the CLI exits with and the label its one
stderr line starts with: a data error (3) unless a class says otherwise.
"""


class BaggedCnnError(Exception):
    """Base class for all library errors."""

    exit_code, label = 3, "data error"


class DimensionError(BaggedCnnError):
    """Array shapes are incompatible; the message names the offending axis."""


class LabelError(BaggedCnnError):
    """A class label is out of range; the message carries the sample index."""


class NumericError(BaggedCnnError):
    """Non-finite values where finite ones are required."""

    exit_code, label = 4, "numeric error"


class InputError(BaggedCnnError):
    """A precondition on plain (non-shape) input values was violated."""


class BuildError(BaggedCnnError):
    """A model spec cannot be realized; the message names the layer.  A
    config error to the CLI: the config asks for a model that cannot be
    built, such as widths that shrink the images below a kernel."""

    exit_code, label = 2, "config error"


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

    exit_code, label = 2, "config error"


class CheckpointError(BaggedCnnError):
    """A checkpoint file cannot be loaded."""


class WorkerError(BaggedCnnError):
    """A process training sub-models ended without a result, such as one the
    operating system killed; the message names the sub-model."""

    exit_code, label = 5, "worker error"
