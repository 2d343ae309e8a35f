"""File formats: raw images and sinograms, PGM, CSV tables, key-value files.

Raw formats are byte-stable: little-endian 64-bit floats behind one-line
text headers (``TVTOMO-IMG <n>``, ``TVTOMO-SINO <num_angles> <num_det>``).
Images are laid out row-major on disk regardless of the in-memory
column-major vector.
"""

import csv
import io
import warnings

import numpy as np

from .errors import FormatError
from .geometry import ScanGeometry, Sinogram
from .grid import ImageGrid
from .phantoms import Phantom
from .select import SweepTable

__all__ = [
    "write_image", "read_image", "write_pgm",
    "write_sinogram", "read_sinogram",
    "write_sinogram_csv", "read_sinogram_csv",
    "write_sweep_csv", "read_sweep_csv",
    "write_curve_csv", "write_diagnostics_csv",
    "write_phantom_file", "read_phantom_file",
    "read_config", "write_config", "parse_pairs",
]

_IMG_MAGIC = b"TVTOMO-IMG"
_SINO_MAGIC = b"TVTOMO-SINO"


def _read_header_line(raw, path):
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: missing header line terminator", byte_offset=len(raw))
    return raw[:nl], nl + 1


def _text_lines(path, newline=None):
    """The lines of a text file; bytes that do not decode are a FormatError."""
    try:
        with open(path, newline=newline) as fh:
            return list(fh)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file ({exc.reason})") from exc


def write_image(path, img):
    """Raw image file: header 'TVTOMO-IMG <n>' + row-major LE float64."""
    with open(path, "wb") as fh:
        fh.write(b"%s %d\n" % (_IMG_MAGIC, img.n))
        fh.write(img.to_matrix().astype("<f8").tobytes(order="C"))


def read_image(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    header, offset = _read_header_line(raw, path)
    parts = header.split()
    if len(parts) != 2 or parts[0] != _IMG_MAGIC:
        raise FormatError(f"{path}: bad image header {header!r}", byte_offset=0)
    try:
        n = int(parts[1])
    except ValueError:
        raise FormatError(f"{path}: non-integer grid size {parts[1]!r}", byte_offset=len(_IMG_MAGIC) + 1)
    if n < 1:
        raise FormatError(f"{path}: grid size {n} is not positive", byte_offset=len(_IMG_MAGIC) + 1)
    expected = n * n * 8
    payload = raw[offset:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}",
            byte_offset=offset + min(len(payload), expected),
        )
    mat = np.frombuffer(payload, dtype="<f8").reshape(n, n)
    return ImageGrid.from_matrix(mat)


def write_pgm(path, img, vmin=0.0, vmax=None):
    """Plain-text PGM (P2) with caller-supplied value scaling."""
    mat = img.to_matrix()
    if vmax is None:
        vmax = float(mat.max()) if mat.max() > vmin else vmin + 1.0
    if vmax <= vmin:
        raise FormatError(f"PGM scaling needs vmax > vmin, got [{vmin}, {vmax}]")
    scaled = np.clip((mat - vmin) / (vmax - vmin) * 255.0, 0, 255).astype(int)
    # visual top row = largest y
    scaled = scaled[::-1, :]
    lines = [f"P2", f"{img.n} {img.n}", "255"]
    lines += [" ".join(str(v) for v in row) for row in scaled]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sinogram(path, s):
    """Raw sinogram: 'TVTOMO-SINO <angles> <detectors>' + angle-major LE f64."""
    geom = s.geometry
    if geom is None:
        raise FormatError("sinogram without geometry cannot be written in raw format")
    with open(path, "wb") as fh:
        fh.write(b"%s %d %d\n" % (_SINO_MAGIC, geom.num_angles, geom.num_detector_pixels))
        fh.write(s.data.astype("<f8").tobytes())


def read_sinogram(path, geometry=None):
    """Read a raw sinogram.

    When no geometry is supplied, a parallel-beam geometry with uniform
    angles on [0, pi) and a diagonal-spanning detector is attached (the
    raw header only fixes the array dimensions).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    header, offset = _read_header_line(raw, path)
    parts = header.split()
    if len(parts) != 3 or parts[0] != _SINO_MAGIC:
        raise FormatError(f"{path}: bad sinogram header {header!r}", byte_offset=0)
    try:
        num_angles, num_det = int(parts[1]), int(parts[2])
    except ValueError:
        raise FormatError(f"{path}: non-integer header fields {header!r}", byte_offset=len(_SINO_MAGIC) + 1)
    expected = num_angles * num_det * 8
    payload = raw[offset:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}",
            byte_offset=offset + min(len(payload), expected),
        )
    data = np.frombuffer(payload, dtype="<f8").copy()
    if geometry is None:
        geometry = ScanGeometry(num_angles=num_angles, num_detector_pixels=num_det)
    elif (geometry.num_angles, geometry.num_detector_pixels) != (num_angles, num_det):
        raise FormatError(
            f"{path}: header dims ({num_angles}, {num_det}) do not match supplied geometry"
        )
    return Sinogram(geometry=geometry, data=data)


def write_sinogram_csv(path, s):
    """CSV export: one row per angle, comma-separated detector values."""
    geom = s.geometry
    mat = s.data.reshape(geom.num_angles, geom.num_detector_pixels)
    np.savetxt(path, mat, delimiter=",", fmt="%.17g")


def read_sinogram_csv(path, geometry=None):
    """Generic CSV import: rows = angles, columns = detector pixels."""
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, as a FormatError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            mat = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: cannot parse CSV sinogram: {exc}") from exc
    if mat.size == 0:
        raise FormatError(f"{path}: CSV sinogram contains no data")
    num_angles, num_det = mat.shape
    if geometry is None:
        geometry = ScanGeometry(num_angles=num_angles, num_detector_pixels=num_det)
    return Sinogram(geometry=geometry, data=mat.ravel())


def write_sweep_csv(path, table):
    """Sweep table rows: alpha,n,tv,residual,iterations,status."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "n", "tv", "residual", "iterations", "status"])
        for i, alpha in enumerate(table.alphas):
            for j, n in enumerate(table.resolutions):
                w.writerow([
                    repr(float(alpha)), n,
                    repr(float(table.tv[i, j])), repr(float(table.residual[i, j])),
                    int(table.iterations[i, j]), table.status[i, j],
                ])


def read_sweep_csv(path):
    rows = list(csv.reader(_text_lines(path, newline="")))
    if not rows or rows[0] != ["alpha", "n", "tv", "residual", "iterations", "status"]:
        raise FormatError(f"{path}: bad sweep CSV header", byte_offset=0)
    cells = {}
    for lineno, row in enumerate(rows[1:], 2):
        try:
            alpha, n, t, r, it, st = row
            key, cell = (float(alpha), int(n)), (float(t), float(r), int(it), st)
            if not np.isfinite(key[0]):
                raise ValueError(f"alpha {alpha!r} is not finite")
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: malformed sweep row {row!r}: {exc}") from exc
        if key in cells:
            raise FormatError(f"{path}:{lineno}: second row for alpha={alpha}, n={n}")
        cells[key] = cell
    alphas = sorted({a for a, _ in cells})
    resolutions = sorted({n for _, n in cells})
    shape = (len(alphas), len(resolutions))
    tv = np.full(shape, np.nan)
    residual = np.full(shape, np.nan)
    iterations = np.zeros(shape, dtype=int)
    status = np.full(shape, "absent", dtype=object)
    for (alpha, n), (t, r, it, st) in cells.items():
        i, j = alphas.index(alpha), resolutions.index(n)
        tv[i, j], residual[i, j], iterations[i, j], status[i, j] = t, r, it, st
    return SweepTable(
        alphas=np.asarray(alphas), resolutions=resolutions, tv=tv,
        residual=residual, iterations=iterations, status=status,
    )


def write_curve_csv(path, columns):
    """Write named columns (dict of equal-length arrays) as CSV."""
    names = list(columns)
    arrays = [np.asarray(columns[k]).ravel() for k in names]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for row in zip(*arrays):
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                        for v in row])


def write_diagnostics_csv(path, diagnostics):
    """Selection diagnostics: array-valued entries as columns, scalars as comments."""
    arrays = {k: v for k, v in diagnostics.items() if isinstance(v, np.ndarray)}
    scalars = {k: v for k, v in diagnostics.items() if not isinstance(v, np.ndarray)}
    with open(path, "w", newline="") as fh:
        for k, v in scalars.items():
            fh.write(f"# {k}={v}\n")
    if arrays:
        lengths = {v.size for v in arrays.values()}
        if len(lengths) == 1:
            with open(path, "a", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(list(arrays))
                for row in zip(*[a.ravel() for a in arrays.values()]):
                    w.writerow([repr(float(v)) if np.isreal(v) else v for v in row])


def write_phantom_file(path, phantom):
    """Flat key-value phantom description (kind=disc, r=0.25, ...)."""
    lines = [f"kind={phantom.kind}"]
    p = phantom.params
    if phantom.kind == "disc":
        lines += [f"r={p['r']!r}", f"value={p['value']!r}",
                  f"cx={p['center'][0]!r}", f"cy={p['center'][1]!r}"]
    elif phantom.kind == "nested-shells":
        shells = ",".join(f"{r!r}:{v!r}" for r, v in p["shells"])
        cx, cy = p["center"]
        lines += [f"shells={shells}", f"cx={cx!r}", f"cy={cy!r}"]
    elif phantom.kind == "piecewise-polygon":
        verts = ",".join(f"{x!r}:{y!r}" for x, y in p["vertices"])
        lines += [f"vertices={verts}", f"value={p['value']!r}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_pairs(text):
    """Parse ``x1:y1,x2:y2,...`` into a list of float pairs."""
    pairs = []
    for part in text.split(","):
        try:
            x, y = (float(v) for v in part.split(":"))
        except ValueError as exc:
            raise FormatError(f"expected a number pair x:y, got {part!r}") from exc
        pairs.append((x, y))
    return pairs


def read_phantom_file(path):
    kv = read_config(path)

    def get(key, cast=float, default=None):
        if key not in kv and default is None:
            raise FormatError(f"{path}: missing key {key!r}")
        try:
            return cast(kv.get(key, default))
        except ValueError as exc:
            raise FormatError(f"{path}: bad value {key}={kv[key]!r}: {exc}") from exc

    kind = kv.get("kind")
    if kind == "disc":
        return Phantom.disc(
            r=get("r"), value=get("value"), center=(get("cx", default=0.5), get("cy", default=0.5)),
        )
    if kind == "nested-shells":
        return Phantom.nested_shells(
            get("shells", parse_pairs), center=(get("cx", default=0.5), get("cy", default=0.5)),
        )
    if kind == "piecewise-polygon":
        return Phantom.polygon(get("vertices", parse_pairs), value=get("value"))
    if kind == "empty":
        return Phantom.empty()
    raise FormatError(f"{path}: unknown phantom kind {kind!r}")


def read_config(path):
    """Flat key-value config with dotted section prefixes (solver.tol_gap=...)."""
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
    with open(path, "w") as fh:
        for k, v in entries.items():
            fh.write(f"{k}={v}\n")
