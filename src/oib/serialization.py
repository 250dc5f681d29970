"""On-disk formats for compressors, re-expanders, models, and reports.

Every artifact is a pair of files sharing a stem: a small JSON manifest
(sorted keys, so identical objects serialize identically) and a raw binary
blob of little-endian numbers in row-major order.  Matrices round-trip
bit-exactly; manifests carry enough shape information to validate the blob
length before anything is read, and loaders read the blob straight into
the arrays they return.  The loaders raise DataFormatError, naming the
stem, for any damaged artifact: a manifest that is not a JSON object or
lacks a field, a missing blob or one of the wrong length, or a blob
holding a NaN or an infinity.

Every manifest has a ``key`` field: the hash of the settings the artifact
was made from, or null.  A loader given a key checks it in ``_artifact``,
the one place that decides whether an artifact belongs to the settings a
caller runs with: a missing manifest or one of another key raises
ConfigError, naming the stem, before the blob is opened.  A rendered digit
corpus is an artifact too (``corpus-v1``): train and test pixels, then
train and test labels.

Evaluation reports are plain JSON validated against the packaged schema,
and configs hash to a stable SHA-256 over their canonical JSON form.
"""

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict
from importlib import resources

import jsonschema
import numpy as np

from .datasets import DIGIT_CLASSES, LabeledImageSet
from .errors import ConfigError, DataFormatError, DimensionError
from .gib_compressor import Compressor
from .inference_net import MlpModel
from .reexpander import Reexpander
from .tensor_stats import DataMatrix

F64 = np.dtype("<f8")
F32 = np.dtype("<f4")
I64 = np.dtype("<i8")


def write_json(payload, fh):
    """``payload`` as JSON with indent 2, sorted keys and a final newline:
    the layout of every manifest, report and ``oib`` command output."""
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _write_pair(stem, manifest, *parts):
    """The manifest, then each buffer of ``parts`` in order as the blob."""
    with open(str(stem) + ".json", "w") as fh:
        write_json(manifest, fh)
    with open(str(stem) + ".bin", "wb") as fh:
        for part in parts:
            fh.write(part)


def _remedy(stem, fmt):
    """What to do about an artifact that does not belong to the caller's
    settings.  A corpus is only ever written where there is none, and
    ``train-base`` refuses one of other settings, so rerunning cannot
    replace it."""
    if fmt == "corpus-v1":
        return "use another --out, or remove %s.json and %s.bin" % (stem,
                                                                     stem)
    return ("run train-base and fit-oib with these settings into --out, or "
            "use another --out")


@contextmanager
def _artifact(stem, fmt, key=None):
    """The manifest and open blob file of ``stem`` for the body of a with
    statement; invalid JSON, a wrong format, a missing blob and any error
    the body meets while building an object from them raise
    DataFormatError naming the stem.  Given a ``key``, a missing manifest
    or one of another key raises ConfigError before the blob is opened."""
    path = str(stem) + ".json"
    try:
        if key is not None and not os.path.exists(path):
            raise ConfigError("%s is missing; %s" % (path,
                                                     _remedy(stem, fmt)))
        with open(path) as fh:
            manifest = json.load(fh)
        if manifest.get("format") != fmt:
            raise DataFormatError("%s declares format %r, expected %r; %s"
                                  % (path, manifest.get("format"), fmt,
                                     _remedy(stem, fmt)))
        if key is not None and manifest.get("key") != key:
            raise ConfigError("%s was written for other settings; %s"
                              % (path, _remedy(stem, fmt)))
        with open(str(stem) + ".bin", "rb") as blob:
            yield manifest, blob
    except (AttributeError, KeyError, OSError, TypeError, ValueError,
            DimensionError) as exc:
        raise DataFormatError("damaged artifact %s: %s: %s"
                              % (stem, type(exc).__name__, exc)) from exc


def _read_arrays(stem, blob, specs):
    """One array per ``(shape, dtype)`` of ``specs``, read in order from
    the open ``blob`` straight into its own memory; a blob of any other
    length raises DataFormatError before anything is allocated, and one
    holding a NaN or an infinity raises it once read."""
    expected = sum(math.prod(shape) * dtype.itemsize
                   for shape, dtype in specs)
    size = os.fstat(blob.fileno()).st_size
    if size != expected:
        raise DataFormatError("%s.bin holds %d bytes, expected %d"
                              % (stem, size, expected))
    arrays = [np.empty(shape, dtype) for shape, dtype in specs]
    for a in arrays:
        blob.readinto(memoryview(a).cast("B"))
        if not np.isfinite(a).all():
            raise DataFormatError("%s.bin holds a non-finite value" % stem)
    return arrays


def save_compressor(comp, stem, key=None):
    manifest = {
        "format": "compressor-v2",
        "key": key,
        "n_x": comp.n_x,
        "n_z": comp.n_z,
        "beta": comp.beta,
        "mi_nats": comp.mi_nats,
        "dtype": F64.str,
    }
    blob = np.ascontiguousarray(comp.matrix_a, dtype=F64).tobytes()
    _write_pair(stem, manifest, blob)


def load_compressor(stem, key=None):
    with _artifact(stem, "compressor-v2", key) as (manifest, blob):
        matrix, = _read_arrays(stem, blob, [
            ((manifest["n_z"], manifest["n_x"]), F64)])
        return Compressor(matrix_a=matrix, beta=manifest["beta"],
                          mi_nats=manifest["mi_nats"])


def save_reexpander(rx, stem, key=None):
    manifest = {
        "format": "reexpander-v1",
        "key": key,
        "n_y": rx.n_y,
        "n_z": rx.n_z,
        "dtype": F64.str,
    }
    _write_pair(stem, manifest,
                np.ascontiguousarray(rx.theta, dtype=F64),
                np.ascontiguousarray(rx.target_mean, dtype=F64))


def load_reexpander(stem, key=None):
    with _artifact(stem, "reexpander-v1", key) as (manifest, blob):
        n_y = manifest["n_y"]
        theta, mean = _read_arrays(stem, blob, [
            ((n_y, manifest["n_z"]), F64), ((n_y,), F64)])
        return Reexpander(theta=theta, target_mean=mean)


def save_model(model, stem, train_config=None, seed=None, key=None):
    manifest = {
        "format": "mlp-v1",
        "key": key,
        "layer_sizes": model.layer_sizes,
        "activation": "relu",
        "dtype": F32.str,
        "seed": seed,
        "train_config": asdict(train_config) if train_config else None,
    }
    _write_pair(stem, manifest, *(np.ascontiguousarray(p, dtype=F32)
                                  for layer in model.layers
                                  for p in layer))


def load_model(stem, key=None):
    with _artifact(stem, "mlp-v1", key) as (manifest, blob):
        sizes = manifest["layer_sizes"]
        arrays = _read_arrays(stem, blob, [
            (shape, F32) for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
            for shape in ((fan_out, fan_in), (fan_out,))])
        return MlpModel(list(zip(arrays[::2], arrays[1::2])))


def save_corpus(train_set, test_set, key, stem):
    """A rendered corpus and the ``key`` of the settings it came from."""
    manifest = {
        "format": "corpus-v1",
        "n_train": train_set.n_samples,
        "n_test": test_set.n_samples,
        "height": train_set.height,
        "width": train_set.width,
        "key": key,
    }
    _write_pair(stem, manifest,
                *(np.ascontiguousarray(s.images.values, dtype=F64)
                  for s in (train_set, test_set)),
                *(np.ascontiguousarray(s.labels, dtype=I64)
                  for s in (train_set, test_set)))


def load_corpus(stem, key):
    """The train and test LabeledImageSets saved at ``stem``, or None when
    there is no manifest; labels outside the digit classes count as
    damage."""
    if not os.path.exists(str(stem) + ".json"):
        return None
    with _artifact(stem, "corpus-v1", key) as (manifest, blob):
        n_train, n_test = manifest["n_train"], manifest["n_test"]
        height, width = manifest["height"], manifest["width"]
        x_train, x_test, y_train, y_test = _read_arrays(stem, blob, [
            ((n_train, height * width), F64), ((n_test, height * width), F64),
            ((n_train,), I64), ((n_test,), I64)])
        for labels in (y_train, y_test):
            bad = labels[(labels < 0) | (labels >= DIGIT_CLASSES)]
            if bad.size:
                raise DataFormatError("%s.bin holds label %d outside the %d "
                                      "digit classes"
                                      % (stem, bad[0], DIGIT_CLASSES))
        return tuple(LabeledImageSet(images=DataMatrix(x), labels=y,
                                     height=height, width=width)
                     for x, y in ((x_train, y_train), (x_test, y_test)))


def config_hash(config_dict):
    """Stable SHA-256 of a config's canonical JSON form.

    ``output_dir`` is left out: where a run writes does not change what it
    computes, so one config hashes alike in every output directory.
    """
    kept = {k: v for k, v in config_dict.items() if k != "output_dir"}
    canonical = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def report_schema():
    with resources.files("oib").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def validate_report(report):
    """Check an evaluation report against the packaged schema."""
    try:
        jsonschema.validate(report, report_schema())
    except jsonschema.ValidationError as exc:
        raise DataFormatError("report failed schema validation: %s"
                              % exc.message)
