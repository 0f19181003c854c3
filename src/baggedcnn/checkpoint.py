"""Versioned binary checkpoints for trained ensembles.

Layout (little-endian): magic "BCKP" | version u32 | header length u32 |
UTF-8 JSON header | concatenated raw parameter blobs in header manifest
order.  The JSON header carries the model spec, combiner, the forest as one
list of [feature, threshold, left, right, label] node rows per tree, the
run-config snapshot, and the array manifest.  Loading validates the header,
the combiner, the forest and the parameter names, shapes and dtypes against
the model.
"""

import json
import math
import struct

import numpy as np

from . import bagging, combiners, forest, network
from .data import read_exact, replace_file
from .errors import BaggedCnnError, CheckpointError

MAGIC = b"BCKP"
VERSION = 1


def _layer_to_dict(layer):
    return {"kind": layer.kind, "kernel": list(layer.kernel),
            "out_channels": layer.out_channels, "stride": layer.stride,
            "units": layer.units}


def _layer_from_dict(d):
    return network.LayerSpec(kind=d["kind"], kernel=tuple(d["kernel"]),
                             out_channels=d["out_channels"], stride=d["stride"],
                             units=d["units"])


def _forest_to_dict(rf):
    if rf is None:
        return None
    return {
        "n_classes": rf.n_classes,
        "n_features": rf.n_features,
        "trees": [
            [list(row) for row in zip(t.feature.tolist(), t.threshold.tolist(),
                                      t.left.tolist(), t.right.tolist(), t.label.tolist())]
            for t in rf.trees
        ],
    }


def _forest_from_dict(d):
    """Node rows [feature, threshold, left, right, label] per tree -> forest,
    validated for the whole forest in one pass.

    Children must come after their parent, as in preorder, which also
    guarantees that every walk from the root ends at a leaf.
    """
    if d is None:
        return None
    n_features, n_classes = int(d["n_features"]), int(d["n_classes"])
    sizes = [len(rows) for rows in d["trees"]]
    if not sizes or min(sizes) == 0:
        raise CheckpointError("forest has no trees or a tree with no nodes")
    rows = [row for tree in d["trees"] for row in tree]
    if set(map(len, rows)) != {5}:
        raise CheckpointError("forest node rows must have 5 fields")
    cols = list(zip(*rows))
    feature, left, right, label = (np.array(cols[i], dtype=np.int64) for i in (0, 2, 3, 4))
    threshold = np.array(cols[1], dtype=np.float64)
    starts = np.cumsum([0] + sizes[:-1])
    own = np.arange(len(rows)) - np.repeat(starts, sizes)
    n_nodes = np.repeat(sizes, sizes)
    leaf = feature == -1
    inner = ~leaf
    if np.any(inner & ((feature < 0) | (feature >= n_features))):
        raise CheckpointError(f"forest node feature outside [0, {n_features})")
    for child in (left, right):
        if np.any(inner & ((child <= own) | (child >= n_nodes))):
            raise CheckpointError("forest child index must follow its parent within the tree")
    if np.any(leaf & ((label < 0) | (label >= n_classes))):
        raise CheckpointError(f"forest leaf label outside [0, {n_classes})")
    trees = [forest.DecisionTree(feature[lo:hi], threshold[lo:hi], left[lo:hi],
                                 right[lo:hi], label[lo:hi])
             for lo, hi in zip(starts.tolist(), (starts + sizes).tolist())]
    return forest.RandomForest(trees=trees, n_classes=n_classes, n_features=n_features)


def _check_manifest(model, n_models, manifest, header_bytes):
    """Every sub-model must store exactly the model's arrays, with its shapes,
    and every array must have one dtype, float32 or float64: sub-models of two
    dtypes could not share the prediction's wide first conv.

    n_models is bounded before any per-sub-model list is built: the manifest
    must list n_models times the model's arrays, and since a model without
    parameters lists none, no checkpoint may hold more sub-models than its
    header has bytes.
    """
    if type(n_models) is not int or not 1 <= n_models <= header_bytes:
        raise CheckpointError(
            f"checkpoint holds {n_models!r} sub-models in a {header_bytes}-byte header")
    expected = network._param_shapes(model)
    need = n_models * len(expected)
    if len(manifest) != need:
        kind = "missing" if len(manifest) < need else "extra"
        raise CheckpointError(f"{n_models} sub-models of {len(expected)} arrays need {need}, "
                              f"manifest lists {len(manifest)}: arrays {kind}")
    stored = {}  # (sub-model, name) -> dtype
    for m, name, dtype, shape in manifest:
        if type(m) is not int or not 0 <= m < n_models:
            raise CheckpointError(f"array {name} belongs to sub-model {m!r} of {n_models}")
        if name not in expected or (m, name) in stored:
            raise CheckpointError(f"sub-model {m}: unexpected or repeated array {name}")
        if shape != expected[name]:
            raise CheckpointError(
                f"sub-model {m}: {name} has shape {shape}, model needs {expected[name]}")
        if dtype not in (np.float32, np.float64):
            raise CheckpointError(f"sub-model {m}: {name} has dtype {dtype}")
        stored[m, name] = dtype
    # n_models * len(expected) distinct (sub-model, name) pairs: none is missing
    mixed = sorted({str(dtype) for dtype in stored.values()})
    if len(mixed) > 1:
        raise CheckpointError(f"arrays mix dtypes {mixed}")


def _check_combiner(model, n_models, combiner, rf):
    """The combiner must be known, stacking needs a forest, and a forest must
    read the model's classes from n_models * n_classes meta-features."""
    if combiner not in combiners.COMBINERS:
        raise CheckpointError(f"unknown combiner {combiner!r}")
    if combiner == "stacking" and rf is None:
        raise CheckpointError("stacking combiner without a forest")
    need = (model.n_classes, n_models * model.n_classes)
    if rf is not None and (rf.n_classes, rf.n_features) != need:
        raise CheckpointError(
            f"forest has {rf.n_classes} classes and {rf.n_features} features, "
            f"{n_models} sub-models of {model.n_classes} classes need {need[0]} and {need[1]}")


def save_checkpoint(path, ensemble: bagging.EnsembleModel, config=None):
    """Write the checkpoint with `data.replace_file`, so a write that fails
    leaves any earlier file at path whole."""
    manifest = []
    blobs = []
    for m, params in enumerate(ensemble.param_sets):
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name])
            manifest.append({"model": m, "name": name, "dtype": str(arr.dtype),
                             "shape": list(arr.shape)})
            blobs.append(arr.tobytes())
    header = {
        "model": {
            "input_shape": list(ensemble.model.input_shape),
            "layers": [_layer_to_dict(l) for l in ensemble.model.layers],
            "n_classes": ensemble.model.n_classes,
        },
        "n_models": ensemble.n_models,
        "combiner": ensemble.combiner,
        "forest": _forest_to_dict(ensemble.forest),
        "config": config or {},
        "arrays": manifest,
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    with replace_file(path) as tmp, open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(payload)))
        fh.write(payload)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path):
    """Returns (EnsembleModel, config snapshot dict)."""
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, "magic", CheckpointError)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r} at offset 0")
        version, hlen = struct.unpack("<II", read_exact(fh, 8, "header sizes", CheckpointError))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} at offset 4")
        try:
            header = json.loads(
                read_exact(fh, hlen, "JSON header", CheckpointError).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
        try:
            model = network.ModelSpec(
                input_shape=tuple(header["model"]["input_shape"]),
                layers=tuple(_layer_from_dict(d) for d in header["model"]["layers"]),
                n_classes=header["model"]["n_classes"],
            )
            n_models = header["n_models"]
            manifest = [(e["model"], str(e["name"]), np.dtype(e["dtype"]),
                         tuple(int(x) for x in e["shape"])) for e in header["arrays"]]
            combiner = header["combiner"]
            rf = _forest_from_dict(header["forest"])
        except CheckpointError:
            raise
        except (KeyError, IndexError, TypeError, ValueError, ArithmeticError,
                BaggedCnnError) as exc:
            raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
        _check_manifest(model, n_models, manifest, hlen)
        _check_combiner(model, n_models, combiner, rf)
        # laid out as trained: the manifest lists each sub-model's arrays sorted
        dtype = manifest[0][2] if manifest else np.float32
        flats = [np.zeros(network.count_params(model), dtype) for _ in range(n_models)]
        param_sets = [network.zero_params(model, dtype, flat) for flat in flats]
        for m, name, _, shape in manifest:
            blob = read_exact(fh, math.prod(shape) * dtype.itemsize, f"array {name}",
                              CheckpointError)
            param_sets[m][name][...] = np.frombuffer(blob, dtype=dtype).reshape(shape)
    # prediction adds a conv's bias after its pool, which gives the conv's own
    # sums only for finite parameters; one pass per sub-model
    for m, flat in enumerate(flats):
        if not np.isfinite(flat).all():
            name = next(name for name, values in param_sets[m].items()
                        if not np.isfinite(values).all())
            raise CheckpointError(f"sub-model {m}: array {name} holds non-finite values")
    ensemble = bagging.EnsembleModel(model=model, param_sets=param_sets, combiner=combiner,
                                     forest=rf)
    return ensemble, header.get("config", {})
