"""The .mmf feature container and the NPY import bridge.

One .mmf file holds every modality's feature sequence for one video.
Layout, little-endian throughout:

    magic            4 bytes  b"MMF1"
    format version   u16      currently 1
    modality count   u16
    per modality (sorted ascending by name):
        name length  u8
        name         UTF-8 bytes
        T            u32      number of time steps (0 allowed)
        D            u32      feature width
        data         T*D float32, row-major

Round-trips are bit-exact. Structural problems are reported with the byte
offset at which parsing failed.
"""

import json
import os
import struct

import numpy as np

from .errors import DataError, MmfFormatError

MAGIC = b"MMF1"
FORMAT_VERSION = 1
_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF


def write_mmf(features: dict[str, np.ndarray], path: str):
    """Write a modality-name -> (T, D) float array mapping to ``path``."""
    if len(features) > _U16_MAX:
        raise MmfFormatError(f"too many modalities: {len(features)}")
    blobs = [MAGIC, struct.pack("<HH", FORMAT_VERSION, len(features))]
    for name in sorted(features):
        arr = np.asarray(features[name])
        if arr.ndim != 2:
            raise MmfFormatError(f"modality {name!r} must be rank 2, got shape {arr.shape}")
        nb = name.encode("utf-8")
        if len(nb) == 0 or len(nb) > 255:
            raise MmfFormatError(f"modality name length {len(nb)} outside 1..255")
        t, d = arr.shape
        if t > _U32_MAX or d > _U32_MAX:
            raise MmfFormatError(f"modality {name!r} dimensions {arr.shape} overflow u32")
        data = np.ascontiguousarray(arr, dtype="<f4")
        if not np.all(np.isfinite(data)):
            raise MmfFormatError(f"modality {name!r} contains non-finite values")
        blobs.append(struct.pack("<B", len(nb)))
        blobs.append(nb)
        blobs.append(struct.pack("<II", t, d))
        blobs.append(data.tobytes())
    write_atomic(path, b"".join(blobs))


def write_atomic(path: str, data: bytes):
    """Write ``data`` to a temporary file and move it over ``path``, so a
    write that fails part way leaves any previous ``path`` whole."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def read_mmf(path: str) -> dict[str, np.ndarray]:
    """Read a .mmf file back into a modality -> float32 array mapping."""
    with open(path, "rb") as fh:
        buf = fh.read()

    def need(offset, n, what):
        if offset + n > len(buf):
            raise MmfFormatError(f"{path}: truncated while reading {what} at byte {offset}")
        return offset + n

    pos = need(0, 4, "magic")
    if buf[:4] != MAGIC:
        raise MmfFormatError(f"{path}: bad magic {buf[:4]!r} at byte 0")
    end = need(pos, 4, "header")
    version, count = struct.unpack_from("<HH", buf, pos)
    pos = end
    if version != FORMAT_VERSION:
        raise MmfFormatError(f"{path}: unsupported format version {version} at byte 4")
    features = {}
    prev_name = None
    for _ in range(count):
        end = need(pos, 1, "name length")
        (nlen,) = struct.unpack_from("<B", buf, pos)
        pos = end
        end = need(pos, nlen, "modality name")
        try:
            name = buf[pos:end].decode("utf-8")
        except UnicodeDecodeError:
            raise MmfFormatError(f"{path}: modality name is not valid UTF-8 at byte {pos}") from None
        pos = end
        if prev_name is not None and name <= prev_name:
            raise MmfFormatError(f"{path}: modalities not sorted ascending ({prev_name!r} then {name!r}) at byte {pos}")
        prev_name = name
        end = need(pos, 8, "shape")
        t, d = struct.unpack_from("<II", buf, pos)
        pos = end
        nbytes = t * d * 4
        end = need(pos, nbytes, f"{name} data")
        arr = np.frombuffer(buf, dtype="<f4", count=t * d, offset=pos).reshape(t, d)
        pos = end
        features[name] = arr.copy()
    if pos != len(buf):
        raise MmfFormatError(f"{path}: {len(buf) - pos} trailing bytes at byte {pos}")
    return features


# -- NPY import -----------------------------------------------------------


def _check_npy_array(arr: np.ndarray, expect_dim: int, label: str):
    if arr.ndim != 2:
        raise DataError(f"{label}: rank must be 2 (T, D), got rank {arr.ndim} shape {arr.shape}")
    if arr.dtype not in (np.float32, np.float64):
        raise DataError(f"{label}: dtype must be float32 or float64, got {arr.dtype}")
    if arr.ndim == 2 and arr.shape[0] > 1 and arr.shape[1] > 1 and arr.flags["F_CONTIGUOUS"] and not arr.flags["C_CONTIGUOUS"]:
        raise DataError(f"{label}: array is Fortran-ordered; re-export in C order")
    if arr.shape[1] != expect_dim:
        raise DataError(f"{label}: feature width {arr.shape[1]} != expected {expect_dim}")


def import_npy(npy_dir: str, manifest_path: str, out_dir: str, specs) -> dict:
    """Convert a directory of per-video NPY arrays into .mmf files.

    The source manifest is JSON: ``{"samples": [{"id", "duration_s",
    "genres", "features": {modality: relative .npy path}}]}``. NPY arrays
    must be v1.0/2.0, C-order, float32/float64, shape (T, D) with D
    matching the modality; float64 is narrowed to float32. Per-file
    failures are collected and the rest of the import continues.

    Returns a summary dict with the output manifest samples, the number
    imported, and the per-file error messages.
    """
    from .vocab import GENRES

    with open(manifest_path) as fh:
        src = json.load(fh)
    spec_by_name = {s.name: s for s in specs}
    os.makedirs(out_dir, exist_ok=True)
    samples = []
    errors = []
    dropped_genres = 0
    for entry in src.get("samples", []):
        vid = entry["id"]
        try:
            features = {}
            for mod, rel in entry.get("features", {}).items():
                if mod not in spec_by_name:
                    raise DataError(f"{vid}/{mod}: unknown modality")
                path = os.path.join(npy_dir, rel)
                try:
                    arr = np.load(path, allow_pickle=False)
                except Exception as exc:
                    raise DataError(f"{vid}/{mod}: cannot read {path}: {exc}")
                _check_npy_array(arr, spec_by_name[mod].input_dim, f"{vid}/{mod} ({rel})")
                features[mod] = np.ascontiguousarray(arr, dtype=np.float32)
            known = [g for g in entry.get("genres", []) if g in GENRES]
            dropped_genres += len(entry.get("genres", [])) - len(known)
            if not known:
                raise DataError(f"{vid}: no genres from the fixed vocabulary")
            out_path = os.path.join(out_dir, f"{vid}.mmf")
            write_mmf(features, out_path)
            samples.append({
                "id": vid,
                "duration_s": entry.get("duration_s"),
                "genres": known,
                "path": f"{vid}.mmf",
            })
        except DataError as exc:
            errors.append(str(exc))
    manifest = {"genres": list(GENRES), "samples": samples}
    if samples:
        write_atomic(os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=1).encode())
    return {
        "imported": len(samples),
        "failed": len(errors),
        "errors": errors,
        "dropped_genre_labels": dropped_genres,
        "manifest": manifest,
    }
