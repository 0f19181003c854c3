"""Dataset container I/O, a synthetic labeled image generator for desk-scale
experiments, and stratified splits.

Container file layout (little-endian):
  magic "BSEC" | version u32 | N u64 | H u32 | W u32 | C u32 | dtype tag u8
  (1 = float32) | image payload (N*H*W*C scalars, row-major) | N bytes
  multi-class labels | N bytes binary labels | u32 metadata length | UTF-8
  metadata.  Readers reject unknown magic or version.
"""

import contextlib
import csv
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FormatError, InputError, LabelError, PayloadError
from .metrics import binarize_labels

MAGIC = b"BSEC"
VERSION = 1
DTYPE_F32 = 1


@dataclass
class DatasetContainer:
    images: np.ndarray  # [N, H, W, C] float32 in [0, 1]
    labels_multi: np.ndarray  # [N] ints in [0, 5)
    labels_binary: np.ndarray  # [N] ints in {0, 1}
    metadata: str = ""

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels_multi = np.asarray(self.labels_multi, dtype=np.uint8)
        self.labels_binary = np.asarray(self.labels_binary, dtype=np.uint8)
        validate_container(self)

    def __len__(self):
        return self.images.shape[0]


def validate_container(ds):
    if ds.images.ndim != 4:
        raise InputError(f"images must be [N,H,W,C], got shape {ds.images.shape}")
    n = ds.images.shape[0]
    if ds.labels_multi.shape != (n,) or ds.labels_binary.shape != (n,):
        raise InputError("label arrays do not match image count")
    if n and (ds.labels_multi.max(initial=0) >= 5):
        raise LabelError("multi-class label out of range [0, 5)")
    if n and np.any(ds.labels_binary != binarize_labels(ds.labels_multi)):
        raise LabelError("binary labels inconsistent with binarized multi-class labels")
    # written so that NaN, which fails every comparison, is rejected too
    if n and not (ds.images.min() >= 0 and ds.images.max() <= 1):
        raise InputError("image values must be finite and lie in [0, 1]")


def save_container(ds: DatasetContainer, path):
    """Write the container with `replace_file`, so a write that fails
    leaves any earlier file at path whole."""
    n, h, w, c = ds.images.shape
    meta = ds.metadata.encode("utf-8")
    with replace_file(path) as tmp, open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQIIIB", VERSION, n, h, w, c, DTYPE_F32))
        fh.write(np.ascontiguousarray(ds.images, dtype="<f4").tobytes())
        fh.write(ds.labels_multi.astype(np.uint8).tobytes())
        fh.write(ds.labels_binary.astype(np.uint8).tobytes())
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)


def read_exact(fh, count, what, error=FormatError):
    """Read `count` bytes of `what`, or raise `error` if the file is too short.

    The count is checked against the file size first, so a corrupt size in a
    header never allocates.
    """
    at = fh.tell()
    if not 0 <= count <= os.fstat(fh.fileno()).st_size - at:
        raise error(f"truncated file: expected {count} bytes for {what} at offset {at}")
    return fh.read(count)


def _writer_gone(pid):
    """Whether no process has this pid (one of another user's counts as live)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):
        pass
    return False


@contextlib.contextmanager
def replace_file(path):
    """The name of a temporary file beside path, for the block to write,
    renamed onto path when the block ends.  A block that raises removes it
    and leaves any earlier file at path whole; a killed writer leaves it
    behind, and the next write of path removes each such <path>.<pid>.tmp
    whose writer's process no longer exists.  No fsync: this guards
    against a failing writer, not a power cut."""
    folder, name = os.path.split(os.fspath(path))
    for entry in os.listdir(folder or "."):
        pid = entry[len(name) + 1 : -len(".tmp")]
        if (entry.startswith(f"{name}.") and entry.endswith(".tmp") and pid.isdecimal()
                and _writer_gone(int(pid))):
            with contextlib.suppress(FileNotFoundError):  # another writer was first
                os.remove(os.path.join(folder, entry))
    tmp = f"{path}.{os.getpid()}.tmp"  # same directory, so the rename cannot cross devices
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows):
    """Write a CSV file of the header row, then rows, with `replace_file`."""
    with replace_file(path) as tmp, open(tmp, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def load_container(path) -> DatasetContainer:
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r} at offset 0")
        header = read_exact(fh, struct.calcsize("<IQIIIB"), "header")
        version, n, h, w, c, dtag = struct.unpack("<IQIIIB", header)
        if version != VERSION:
            raise FormatError(f"unsupported container version {version} at offset 4")
        if dtag != DTYPE_F32:
            raise FormatError(f"unknown dtype tag {dtag} at offset 24")
        count = n * h * w * c
        images = np.frombuffer(read_exact(fh, count * 4, "image payload"), dtype="<f4")
        images = images.reshape(n, h, w, c).copy()
        lm = np.frombuffer(read_exact(fh, n, "multi-class labels"), dtype=np.uint8).copy()
        lb = np.frombuffer(read_exact(fh, n, "binary labels"), dtype=np.uint8).copy()
        (mlen,) = struct.unpack("<I", read_exact(fh, 4, "metadata length"))
        try:
            meta = read_exact(fh, mlen, "metadata").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"metadata is not UTF-8: {exc}") from exc
    try:
        return DatasetContainer(images=images, labels_multi=lm, labels_binary=lb, metadata=meta)
    except (InputError, LabelError) as exc:
        raise PayloadError(f"payload: {exc}") from exc


def _draw_disk(img, cy, cx, radius, value):
    h, w = img.shape[:2]
    yy, xx = np.ogrid[:h, :w]
    img[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2] = value


def _draw_cross(img, cy, cx, arm, thickness, value):
    img[cy - thickness : cy + thickness + 1, cx - arm : cx + arm + 1] = value
    img[cy - arm : cy + arm + 1, cx - thickness : cx + thickness + 1] = value


def synth_dataset(n_per_class, n_classes=5, image_size=32, seed=0, noise=0.1,
                  channels=1, metadata=""):
    """Synthetic labeled images: each class renders a distinct geometric
    template (blank, small disk, large disk, small cross, large cross) plus
    seeded additive noise, clipped to [0, 1]."""
    for name, value in (("n_per_class", n_per_class), ("n_classes", n_classes),
                        ("image_size", image_size), ("channels", channels)):
        if not isinstance(value, (int, np.integer)):
            raise InputError(f"{name} must be an integer, got {value!r}")
    if not 2 <= n_classes <= 5:
        raise InputError("n_classes must be in [2, 5]")
    if image_size < 16:
        raise InputError("image_size must be >= 16 to fit the patterns")
    if n_per_class < 1:
        raise InputError(f"n_per_class must be >= 1, got {n_per_class}")
    if channels < 1:
        raise InputError(f"channels must be >= 1, got {channels}")
    if not (np.isfinite(noise) and noise >= 0):
        raise InputError(f"noise must be finite and >= 0, got {noise}")
    s = image_size
    c = s // 2
    templates = []
    for k in range(n_classes):
        img = np.full((s, s), 0.1, dtype=np.float64)
        if k == 1:
            _draw_disk(img, c, c, s // 8, 0.9)
        elif k == 2:
            _draw_disk(img, c, c, s // 3, 0.9)
        elif k == 3:
            _draw_cross(img, c, c, s // 8, max(1, s // 16), 0.9)
        elif k == 4:
            _draw_cross(img, c, c, s // 3, max(1, s // 16), 0.9)
        templates.append(img)
    rng = np.random.default_rng(seed)
    n = n_per_class * n_classes
    images = np.empty((n, s, s, channels), dtype=np.float32)
    labels = np.repeat(np.arange(n_classes, dtype=np.uint8), n_per_class)
    # one draw per class fills the generator's stream in the order that one
    # draw per image would; the add is in place to keep the peak down
    for k, template in enumerate(templates):
        img = rng.normal(0, noise, size=(n_per_class, s, s, channels))
        img += template[None, :, :, None]
        images[k * n_per_class:(k + 1) * n_per_class] = np.clip(img, 0, 1, out=img)
    meta = metadata or f"synthetic seed={seed} noise={noise}"
    return DatasetContainer(images=images, labels_multi=labels,
                           labels_binary=binarize_labels(labels), metadata=meta)


@dataclass
class DatasetView:
    """Index-based view into a container; shares image storage."""

    dataset: DatasetContainer
    indices: np.ndarray

    @property
    def images(self):
        return self.dataset.images[self.indices]

    @property
    def labels_multi(self):
        return self.dataset.labels_multi[self.indices].astype(np.int64)

    @property
    def labels_binary(self):
        return self.dataset.labels_binary[self.indices].astype(np.int64)

    def __len__(self):
        return len(self.indices)


class Split(NamedTuple):
    """The four parts of a dataset split, in this order: their views, or
    their fractions."""

    train: DatasetView
    validation: DatasetView
    stacking: DatasetView
    test: DatasetView


DEFAULT_FRACTIONS = (0.6, 0.1, 0.2, 0.1)  # of train, validation, stacking, test

# The split's fractions -> (ok, must), as training.RULES; the CLI's
# dataset.split setting carries the same rule.
FRACTIONS_RULE = ((lambda v, owner: len(v) == 4 and all(0 <= f <= 1 for f in v)  # NaN fails
                   and abs(sum(v) - 1) <= 1e-9),
                  "four fractions train/validation/stacking/test in [0, 1] that sum to 1")


def split(dataset: DatasetContainer, fractions=DEFAULT_FRACTIONS, seed=0):
    """Stratified train/validation/stacking/test split: a Split of four
    disjoint views covering the dataset.

    Each class is divided by the fractions, so a small dataset can leave a
    part empty even at a fraction above 0; the caller decides whether an
    empty part is an error.
    """
    fractions = tuple(float(f) for f in fractions)
    ok, must = FRACTIONS_RULE
    if not ok(fractions, None):
        raise InputError(f"fractions must be {must}, got {fractions}")
    rng = np.random.default_rng(seed)
    parts = [[], [], [], []]
    labels = dataset.labels_multi
    for k in np.unique(labels):
        idx = np.nonzero(labels == k)[0]
        idx = rng.permutation(idx)
        n = len(idx)
        # largest-remainder allocation so counts sum to n exactly
        raw = [f * n for f in fractions]
        base = [int(np.floor(r)) for r in raw]
        rem = n - sum(base)
        order = np.argsort([b - r for b, r in zip(base, raw)], kind="stable")
        for j in order[:rem]:
            base[j] += 1
        lo = 0
        for p, cnt in enumerate(base):
            parts[p].append(idx[lo : lo + cnt])
            lo += cnt
    views = []
    for part in parts:
        idx = np.sort(np.concatenate(part)) if part else np.array([], dtype=np.int64)
        views.append(DatasetView(dataset=dataset, indices=idx.astype(np.int64)))
    return Split(*views)
