"""File formats: raw images and sinograms, PGM, CSV tables, key-value files.

Raw formats are byte-stable: little-endian 64-bit floats behind one-line
text headers (``TVTOMO-IMG <n>``, ``TVTOMO-SINO <num_angles> <num_det>``).
Images are laid out row-major on disk regardless of the in-memory
column-major vector.  A sweep CSV has one row per (alpha, n) cell: alpha, n
and the fields of `tvtomo.table.Cell`, the cell record of that leaf module.
"""

import csv
import warnings

import numpy as np

from .errors import FormatError
from .geometry import ScanGeometry, Sinogram
from .grid import ImageGrid
from .table import Cell, SweepTable, check_cell

__all__ = [
    "write_image", "read_image", "write_pgm",
    "write_sinogram", "read_sinogram",
    "write_sinogram_csv", "read_sinogram_csv",
    "write_sweep_csv", "read_sweep_csv",
    "write_curve_csv", "write_diagnostics_csv",
    "read_config", "write_config",
]

_IMG_MAGIC = b"TVTOMO-IMG"
_SINO_MAGIC = b"TVTOMO-SINO"
_SWEEP_HEADER = ("alpha", "n") + Cell._fields
_CELL_TYPES = tuple(Cell.__annotations__.values())  # a sweep row's cell fields are read as these


def _write_raw(path, magic, dims, values):
    """Header line '<magic> <dims...>', then the values as row-major LE float64."""
    with open(path, "wb") as fh:
        fh.write(b" ".join([magic, *(b"%d" % d for d in dims)]) + b"\n")
        fh.write(values.astype("<f8").tobytes())


def _read_raw(path, magic, num_dims):
    """(dims, flat float64 payload) of a raw file written by `_write_raw`.

    Every malformed header, size or value is a FormatError at its byte offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: missing header line terminator", byte_offset=len(raw))
    header, offset = raw[:nl], nl + 1
    parts = header.split()
    if len(parts) != num_dims + 1 or parts[0] != magic:
        raise FormatError(f"{path}: bad {magic.decode()} header {header!r}", byte_offset=0)
    try:
        dims = [int(p) for p in parts[1:]]
    except ValueError:
        raise FormatError(f"{path}: non-integer header fields {header!r}", byte_offset=len(magic) + 1)
    if min(dims) < 1:
        raise FormatError(f"{path}: dimensions {dims} are not positive", byte_offset=len(magic) + 1)
    # one size n means an n x n image
    expected = dims[0] * dims[-1] * 8
    payload = raw[offset:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}",
            byte_offset=offset + min(len(payload), expected),
        )
    values = np.frombuffer(payload, dtype="<f8")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FormatError(f"{path}: non-finite value {values[bad[0]]!r}",
                          byte_offset=offset + 8 * int(bad[0]))
    return dims, values


def _text_lines(path, newline=None):
    """The lines of a text file; bytes that do not decode are a FormatError."""
    try:
        with open(path, newline=newline) as fh:
            return list(fh)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file ({exc.reason})") from exc


def write_image(path, img):
    """Raw image file: header 'TVTOMO-IMG <n>' + row-major LE float64."""
    _write_raw(path, _IMG_MAGIC, [img.n], img.to_matrix())


def read_image(path):
    (n,), values = _read_raw(path, _IMG_MAGIC, 1)
    return ImageGrid.from_matrix(values.reshape(n, n))


def write_pgm(path, img):
    """Plain-text PGM (P2), 0 black and the largest pixel (or 1) white."""
    mat = img.to_matrix()
    vmax = float(mat.max()) if mat.max() > 0.0 else 1.0
    scaled = np.clip(mat / vmax * 255.0, 0, 255).astype(int)
    # visual top row = largest y
    scaled = scaled[::-1, :]
    lines = [f"P2", f"{img.n} {img.n}", "255"]
    lines += [" ".join(str(v) for v in row) for row in scaled]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sinogram(path, s):
    """Raw sinogram: 'TVTOMO-SINO <angles> <detectors>' + angle-major LE f64."""
    geom = s.geometry
    _write_raw(path, _SINO_MAGIC, [geom.num_angles, geom.num_detector_pixels], s.data)


def _attach_geometry(path, dims, data, geometry):
    """A Sinogram of the angle-major readings of ``dims`` read from ``path``.

    When no geometry is supplied, a parallel-beam geometry with uniform
    angles on [0, pi) and a diagonal-spanning detector is attached (the file
    only fixes the array dimensions).  A supplied geometry of other
    dimensions is a FormatError.
    """
    num_angles, num_det = dims
    if geometry is None:
        geometry = ScanGeometry(num_angles=num_angles, num_detector_pixels=num_det)
    elif (geometry.num_angles, geometry.num_detector_pixels) != (num_angles, num_det):
        raise FormatError(
            f"{path}: dims ({num_angles}, {num_det}) do not match supplied geometry"
        )
    return Sinogram(geometry=geometry, data=data)


def read_sinogram(path, geometry=None):
    """Read a raw sinogram; see `_attach_geometry` for its geometry."""
    dims, data = _read_raw(path, _SINO_MAGIC, 2)
    return _attach_geometry(path, dims, data.copy(), geometry)


def write_sinogram_csv(path, s):
    """CSV export: one row per angle, comma-separated detector values."""
    geom = s.geometry
    mat = s.data.reshape(geom.num_angles, geom.num_detector_pixels)
    np.savetxt(path, mat, delimiter=",", fmt="%.17g")


def read_sinogram_csv(path, geometry=None):
    """Generic CSV import: rows = angles, columns = detector pixels; see
    `_attach_geometry` for its geometry."""
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, as a FormatError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            mat = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: cannot parse CSV sinogram: {exc}") from exc
    if mat.size == 0:
        raise FormatError(f"{path}: CSV sinogram contains no data")
    bad = np.argwhere(~np.isfinite(mat))
    if bad.size:
        row, col = bad[0]
        raise FormatError(f"{path}: non-finite value {float(mat[row, col])!r} "
                          f"in data row {row + 1}, column {col + 1}")
    return _attach_geometry(path, mat.shape, mat.ravel(), geometry)


def write_sweep_csv(path, table):
    """One row per cell of ``table``, row by row: alpha, n, then the `Cell`'s fields."""
    rows = [(*key, *cell) for key, cell in table.cells()]
    write_curve_csv(path, dict(zip(_SWEEP_HEADER, zip(*rows))))


def read_sweep_csv(path):
    """The `SweepTable` of a sweep CSV; a malformed row is a FormatError naming its line."""
    rows = list(csv.reader(_text_lines(path, newline="")))
    if not rows or rows[0] != list(_SWEEP_HEADER):
        raise FormatError(f"{path}: bad sweep CSV header", byte_offset=0)
    cells = {}
    for lineno, row in enumerate(rows[1:], 2):
        try:
            alpha, n, *fields = row
            key = float(alpha), int(n)
            cell = Cell._make(kind(text) for kind, text in zip(_CELL_TYPES, fields, strict=True))
            check_cell(key, cell)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: malformed sweep row {row!r}: {exc}") from exc
        if key in cells:
            raise FormatError(f"{path}:{lineno}: second row for alpha={alpha}, n={n}")
        cells[key] = cell
    if not cells:
        raise FormatError(f"{path}: sweep CSV has a header and no rows")
    return SweepTable.from_cells(cells)


def _write_columns(fh, columns):
    """A header row of the column names, then one CSV row per index of the
    equal-length arrays; float and bool cells are written as repr(float)."""
    w = csv.writer(fh)
    w.writerow(list(columns))
    for row in zip(*(np.asarray(a).ravel() for a in columns.values())):
        w.writerow([repr(float(v)) if isinstance(v, (float, np.floating, np.bool_)) else v
                    for v in row])


def write_curve_csv(path, columns):
    """Write named columns (dict of equal-length arrays) as CSV."""
    with open(path, "w", newline="") as fh:
        _write_columns(fh, columns)


def write_diagnostics_csv(path, diagnostics):
    """Selection diagnostics: scalars as comments, then the equal-length
    array-valued entries as columns."""
    arrays = {k: v for k, v in diagnostics.items() if isinstance(v, np.ndarray)}
    scalars = {k: v for k, v in diagnostics.items() if not isinstance(v, np.ndarray)}
    with open(path, "w", newline="") as fh:
        for k, v in scalars.items():
            fh.write(f"# {k}={v}\n")
        if arrays:
            _write_columns(fh, arrays)


def read_config(path):
    """A flat key=value file, such as the ``manifest.txt`` every CLI command writes."""
    out = {}
    for lineno, line in enumerate(_text_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def write_config(path, entries):
    """One key=value line per entry; a value with a line break is a FormatError."""
    for k, v in entries.items():
        if "\n" in str(v) or "\r" in str(v):
            raise FormatError(f"{path}: the value of {k} holds a line break: {str(v)!r}")
    with open(path, "w") as fh:
        for k, v in entries.items():
            fh.write(f"{k}={v}\n")
