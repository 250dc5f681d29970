"""On-disk formats for compressors, re-expanders, models, and reports.

Every artifact is a pair of files sharing a stem: a small JSON manifest
(sorted keys, so identical objects serialize identically) and a raw binary
blob of little-endian floats in row-major order.  Matrices round-trip
bit-exactly; manifests carry enough shape information to validate the blob
length before any reshaping.  The loaders raise DataFormatError, naming
the stem, for any damaged artifact: a manifest that is not a JSON object
or lacks a key, an unknown kind, a blob of the wrong length, or values
the loaded object rejects.

Evaluation reports are plain JSON validated against the packaged schema,
and configs hash to a stable SHA-256 over their canonical JSON form.
"""

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict
from importlib import resources

import jsonschema
import numpy as np

from .errors import DataFormatError, DimensionError
from .gib_compressor import Compressor, CompressorKind
from .inference_net import MlpModel
from .reexpander import FitMethod, Reexpander

F64 = np.dtype("<f8")
F32 = np.dtype("<f4")


def write_json(payload, fh):
    """``payload`` as JSON with indent 2, sorted keys and a final newline:
    the layout of every manifest, report and ``oib`` command output."""
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _write_pair(stem, manifest, blob):
    with open(str(stem) + ".json", "w") as fh:
        write_json(manifest, fh)
    with open(str(stem) + ".bin", "wb") as fh:
        fh.write(blob)


@contextmanager
def _artifact(stem, fmt):
    """The manifest and blob of ``stem`` for the body of a with statement;
    invalid JSON, a wrong format and any error the body meets while
    building an object from them raise DataFormatError naming the stem."""
    try:
        with open(str(stem) + ".json") as fh:
            manifest = json.load(fh)
        with open(str(stem) + ".bin", "rb") as fh:
            blob = fh.read()
        if manifest.get("format") != fmt:
            raise DataFormatError("%s.json declares format %r, expected %r"
                                  % (stem, manifest.get("format"), fmt))
        yield manifest, blob
    except (AttributeError, KeyError, TypeError, ValueError,
            DimensionError) as exc:
        raise DataFormatError("damaged artifact %s: %s: %s"
                              % (stem, type(exc).__name__, exc)) from exc


def _check_blob(stem, blob, n_values, dtype):
    expected = n_values * dtype.itemsize
    if len(blob) != expected:
        raise DataFormatError("%s.bin holds %d bytes, expected %d"
                              % (stem, len(blob), expected))


def save_compressor(comp, stem):
    manifest = {
        "format": "compressor-v1",
        "kind": comp.kind.value,
        "n_x": comp.n_x,
        "n_z": comp.n_z,
        "beta": comp.beta,
        "dtype": F64.str,
    }
    blob = np.ascontiguousarray(comp.matrix_a, dtype=F64).tobytes()
    _write_pair(stem, manifest, blob)


def load_compressor(stem):
    with _artifact(stem, "compressor-v1") as (manifest, blob):
        n_z, n_x = manifest["n_z"], manifest["n_x"]
        _check_blob(stem, blob, n_z * n_x, F64)
        matrix = np.frombuffer(blob, dtype=F64).reshape(n_z, n_x)
        return Compressor(kind=CompressorKind(manifest["kind"]),
                          matrix_a=matrix.astype(np.float64),
                          beta=manifest["beta"])


def save_reexpander(rx, stem):
    manifest = {
        "format": "reexpander-v1",
        "fit_method": rx.fit_method.value,
        "n_y": rx.n_y,
        "n_z": rx.n_z,
        "dtype": F64.str,
    }
    blob = (np.ascontiguousarray(rx.theta, dtype=F64).tobytes()
            + np.ascontiguousarray(rx.target_mean, dtype=F64).tobytes())
    _write_pair(stem, manifest, blob)


def load_reexpander(stem):
    with _artifact(stem, "reexpander-v1") as (manifest, blob):
        n_y, n_z = manifest["n_y"], manifest["n_z"]
        _check_blob(stem, blob, n_y * n_z + n_y, F64)
        theta = np.frombuffer(blob, dtype=F64,
                              count=n_y * n_z).reshape(n_y, n_z)
        mean = np.frombuffer(blob, dtype=F64, offset=theta.nbytes)
        return Reexpander(theta=theta.astype(np.float64),
                          fit_method=FitMethod(manifest["fit_method"]),
                          target_mean=mean.astype(np.float64))


def save_model(model, stem, train_config=None, seed=None):
    manifest = {
        "format": "mlp-v1",
        "layer_sizes": model.layer_sizes,
        "activation": "relu",
        "dtype": F32.str,
        "seed": seed,
        "train_config": asdict(train_config) if train_config else None,
    }
    parts = []
    for w, b in model.layers:
        parts.append(np.ascontiguousarray(w, dtype=F32).tobytes())
        parts.append(np.ascontiguousarray(b, dtype=F32).tobytes())
    _write_pair(stem, manifest, b"".join(parts))


def load_model(stem):
    with _artifact(stem, "mlp-v1") as (manifest, blob):
        sizes = manifest["layer_sizes"]
        pairs = list(zip(sizes[:-1], sizes[1:]))
        _check_blob(stem, blob, sum(fi * fo + fo for fi, fo in pairs), F32)
        layers = []
        offset = 0
        for fan_in, fan_out in pairs:
            w = np.frombuffer(blob, dtype=F32, count=fan_out * fan_in,
                              offset=offset).reshape(fan_out, fan_in)
            offset += w.nbytes
            b = np.frombuffer(blob, dtype=F32, count=fan_out, offset=offset)
            offset += b.nbytes
            layers.append((w.astype(np.float32), b.astype(np.float32)))
        return MlpModel(layers)


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
