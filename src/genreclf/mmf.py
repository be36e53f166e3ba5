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

Every file the package writes goes through ``write_atomic``, every JSON
document it writes through ``write_json`` and every one it reads through
``read_json``.
"""

import contextlib
import json
import mmap
import os
import struct

import numpy as np

from .errors import ConfigError, DataError, MmfFormatError, config_field, reading

MAGIC = b"MMF1"
FORMAT_VERSION = 1
_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF
_COMPARE_CHUNK = 1 << 20   # bytes read per step when comparing a file with new data


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


def write_atomic(path: str, data: bytes, *, recycle: bool = False):
    """Write ``data`` to ``<path>.tmp`` and move it over ``path``, so a write
    that fails part way leaves any previous ``path`` whole. A ``path`` that
    already holds exactly ``data`` is left untouched.

    Freeing a replaced file's blocks can cost far more than writing the new
    one (tens of milliseconds or more per file, even a 1-byte one, on an
    ext4 disk mounted with ``discard``). With ``recycle`` the replaced file
    becomes ``<path>.tmp`` and the next write overwrites it in place, so
    writes of one size allocate and free no blocks: ``path`` is hard-linked
    to ``<path>.swap`` for the move, and the link is then renamed to
    ``<path>.tmp``, so ``path`` always names a complete file and no file
    loses its last name. A scratch file with other names (a hard-linked
    snapshot) is never overwritten, and where hard links fail the write is
    a plain replace. Only for files read by copy: a reader holding ``path``
    open sees it change two writes later.
    """
    if _holds(path, data):
        return
    tmp = path + ".tmp"
    reuse = False
    if recycle:
        with contextlib.suppress(FileNotFoundError):
            reuse = os.stat(tmp).st_nlink == 1
            if not reuse:
                os.remove(tmp)
    with open(tmp, "r+b" if reuse else "wb") as fh:
        fh.write(data)
        fh.truncate()
    if recycle:
        swap = path + ".swap"
        with contextlib.suppress(FileNotFoundError):
            os.remove(swap)   # left by a write that stopped after taking the link
        try:
            os.link(path, swap)
        except OSError:   # no previous generation, or no hard links here
            recycle = False
    os.replace(tmp, path)
    if recycle:
        os.replace(swap, tmp)


def _holds(path: str, data: bytes) -> bool:
    """Whether the file at ``path`` holds exactly ``data``; reads stop at the
    first chunk that differs."""
    try:
        if os.stat(path).st_size != len(data):
            return False
        view = memoryview(data)
        with open(path, "rb") as fh:
            for lo in range(0, len(data), _COMPARE_CHUNK):
                if fh.read(_COMPARE_CHUNK) != view[lo:lo + _COMPARE_CHUNK]:
                    return False
    except FileNotFoundError:
        return False
    return True


def write_json(path: str, doc):
    """Write ``doc`` to ``path`` as standard JSON, one item a line, through
    ``write_atomic``: a NaN or an infinity is a ValueError, and nothing is
    written."""
    write_atomic(path, json.dumps(doc, indent=1, allow_nan=False).encode())


def read_json(path: str):
    """Parse the JSON file at ``path`` as standard JSON, UTF-8 whatever the
    locale. Bytes that are not UTF-8, text that is not JSON (named by line
    and column), an integer past Python's digit limit, nesting past its
    recursion limit, ``NaN``, ``Infinity`` and numbers past the float range,
    and a string holding a lone surrogate (``"\\ud800"``, which no UTF-8
    file can hold) are a DataError."""
    def reject(text):
        raise DataError(f"{path}: {text} is not a standard JSON number")
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        decoded = raw.decode("utf-8")
        doc = json.loads(decoded, parse_constant=reject,
                         parse_float=lambda text: float(text) if np.isfinite(float(text)) else reject(text))
        if "\\ud" in decoded or "\\uD" in decoded:   # only a \u escape can decode to a surrogate
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except UnicodeEncodeError as exc:
        raise DataError(f"{path}: a string holds a lone surrogate: "
                        f"{exc.object[max(exc.start - 40, 0):exc.end]!r}") from None
    except (ValueError, RecursionError) as exc:   # json.JSONDecodeError is a ValueError
        raise DataError(f"{path}: not standard JSON: {exc}") from None


def read_mmf(path: str) -> dict[str, np.ndarray]:
    """Read a .mmf file into a modality -> float32 array mapping of read-only
    views of the mapped file, which stays mapped while any view lives.
    Replacing the file through ``write_atomic`` leaves the views intact, as
    long as the write does not ``recycle``; truncating it in place makes a
    later access fault (SIGBUS)."""
    with open(path, "rb") as fh:
        try:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:   # an empty file cannot be mapped; it is truncated at byte 0
            buf = b""

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
        features[name] = np.frombuffer(buf, dtype="<f4", count=t * d, offset=pos).reshape(t, d)
        pos = end
    if pos != len(buf):
        raise MmfFormatError(f"{path}: {len(buf) - pos} trailing bytes at byte {pos}")
    return features


# -- NPY import -----------------------------------------------------------


def _check_npy_array(arr: np.ndarray, expect_dim: int, label: str):
    if arr.ndim != 2:
        raise DataError(f"{label}: rank must be 2 (T, D), got rank {arr.ndim} shape {arr.shape}")
    if arr.dtype not in (np.float32, np.float64):
        raise DataError(f"{label}: dtype must be float32 or float64, got {arr.dtype}")
    if arr.shape[0] > 1 and arr.shape[1] > 1 and arr.flags["F_CONTIGUOUS"] and not arr.flags["C_CONTIGUOUS"]:
        raise DataError(f"{label}: array is Fortran-ordered; re-export in C order")
    if arr.shape[1] != expect_dim:
        raise DataError(f"{label}: feature width {arr.shape[1]} != expected {expect_dim}")


def import_npy(npy_dir: str, manifest_path: str, out_dir: str, specs) -> dict:
    """Convert a directory of per-video NPY arrays into .mmf files.

    The source manifest is JSON: ``{"samples": [{"id", "duration_s",
    "genres", "features": {modality: relative .npy path}}]}``. NPY arrays
    must be v1.0/2.0, C-order, float32/float64, shape (T, D) with D
    matching the modality; float64 is narrowed to float32. An ``id`` must be
    a file name (it names the output ``.mmf``); an entry whose id an earlier
    entry was imported under fails. Per-entry failures are collected and the
    rest of the import continues.

    Returns a summary dict with the number imported, the number failed,
    the per-file error messages and the unknown genre labels dropped.
    """
    from .data import VideoRecord, write_manifest
    from .vocab import GENRES

    src = read_json(manifest_path)
    with reading(manifest_path):
        samples = config_field(src, "samples", list, [], "source manifest")
    spec_by_name = {s.name: s for s in specs}
    records = {}   # by id
    errors = []
    dropped_genres = 0
    for i, entry in enumerate(samples):
        where = f"sample {i}"
        try:
            with reading(manifest_path):
                vid = config_field(entry, "id", str, where=where)
                genres = config_field(entry, "genres", list, where=where)
                feature_paths = config_field(entry, "features", dict, {}, where)
                duration = config_field(entry, "duration_s", float | None, None, where)
                if vid in ("", ".", "..") or any(c in vid for c in ("/", os.sep, "\0")):
                    raise ConfigError(f"{where} field 'id' must be a file name, got {vid!r}")
            if vid in records:
                raise DataError(f"{vid}: duplicate id; an earlier entry was imported under it")
            features = {}
            for mod, rel in feature_paths.items():
                if mod not in spec_by_name:
                    raise DataError(f"{vid}/{mod}: unknown modality")
                try:
                    arr = np.load(os.path.join(npy_dir, rel), allow_pickle=False)
                except Exception as exc:   # a path that is not a string fails in the join
                    raise DataError(f"{vid}/{mod}: cannot read {rel!r} under {npy_dir}: {exc}")
                _check_npy_array(arr, spec_by_name[mod].input_dim, f"{vid}/{mod} ({rel})")
                features[mod] = np.ascontiguousarray(arr, dtype=np.float32)
            known = [g for g in genres if g in GENRES]
            dropped_genres += len(genres) - len(known)
            if not known:
                raise DataError(f"{vid}: no genres from the fixed vocabulary")
        except DataError as exc:
            errors.append(str(exc))
            continue
        if not records:   # out_dir is made before the first .mmf; one that cannot be made stops the import
            os.makedirs(out_dir, exist_ok=True)
        out_path = os.path.join(out_dir, f"{vid}.mmf")
        try:
            write_mmf(features, out_path)
        except (DataError, OSError) as exc:   # the entry's .mmf cannot be written
            errors.append(str(exc))
            continue
        records[vid] = VideoRecord(id=vid, duration_s=duration, genres=tuple(known), path=out_path)
    if records:
        write_manifest(list(records.values()), os.path.join(out_dir, "manifest.json"))
    return {"imported": len(records), "failed": len(errors), "errors": errors, "dropped_genre_labels": dropped_genres}
