"""Command-line pipeline: phantom -> project -> noise -> reconstruct/sweep ->
select -> report.

Every subcommand writes its artifacts plus a ``manifest.txt`` (inputs,
seeds, version, shell-quoted argv) into the output directory, so any run
can be reproduced bit-identically by replaying the manifest's command line.

Exit codes: 0 success, 2 usage/parse error, 3 solver failure, 4 selection
failure.
"""

import argparse
import os
import shlex
import sys
from dataclasses import fields

import numpy as np

from . import __version__, fileio
from .errors import (
    FormatError,
    NoSelectionError,
    OutOfRangeError,
    SolverFailureError,
    TvTomoError,
)
from .geometry import ScanGeometry, assemble_system_matrix, forward_project, usable_cpus
from .grid import tv_norm
from .pdip import HISTORY_COLUMNS, reconstruct
from .phantoms import NoiseSpec, Phantom, add_noise, render_phantom
from .select import (
    BLAS_THREAD_ENV,
    estimate_s_hat,
    run_sweep,
    select_lcurve,
    select_multiresolution,
    select_scurve,
    stable_rows,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_SELECTION = 4

_DEFAULT_ALPHAS = [10.0 ** k for k in range(-4, 7)]


def _out(args, name):
    """The path of ``name`` in the ``--out`` directory, made at the first write."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_manifest(args, extra):
    entries = {
        "command": shlex.join(args.argv),
        "subcommand": args.command,
        "version": __version__,
    }
    entries.update(extra)
    fileio.write_config(_out(args, "manifest.txt"), entries)


def _geometry_from_args(args):
    """Build a ScanGeometry from the ``args.geometry_<field>`` flags that were
    given; every other field keeps its dataclass default."""
    values = {f.name: getattr(args, f"geometry_{f.name}", None) for f in fields(ScanGeometry)}
    return ScanGeometry(**{name: v for name, v in values.items() if v is not None})


def _comma_list(cast):
    """argparse type for comma-separated ``cast`` values; a bad one is a usage error."""
    parse = lambda text: [cast(x) for x in text.split(",")]
    parse.__name__ = f"comma-separated {cast.__name__.lstrip('_')}"  # argparse's error names it
    return parse


def _pair(text):
    x, y = text.split(":")
    return float(x), float(y)


def _add_geometry_flags(p):
    p.add_argument("--mode", dest="geometry_mode", choices=["parallel", "fan"])
    p.add_argument("--angles", dest="geometry_num_angles", type=int, help="projection angles")
    p.add_argument("--detectors", dest="geometry_num_detector_pixels", type=int, help="per angle")
    p.add_argument("--extent", dest="geometry_detector_extent", type=float, help="domain units")
    p.add_argument("--source-radius", dest="geometry_source_radius", type=float)
    p.add_argument("--detector-radius", dest="geometry_detector_radius", type=float)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tvtomo",
        description="TV-regularized 2D tomography with automatic parameter selection",
    )
    parser.add_argument("--out", default="tvtomo_out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="render a synthetic phantom image")
    p.add_argument("--kind", choices=["disc", "shells", "polygon"], default="disc")
    p.add_argument("--r", type=float, default=0.25)
    p.add_argument("--value", type=float, default=1.0)
    p.add_argument("--shells", type=_comma_list(_pair), help="r1:v1,r2:v2,... (radii decreasing)")
    p.add_argument("--vertices", type=_comma_list(_pair), help="x1:y1,x2:y2,... polygon vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--name", default="phantom")

    p = sub.add_parser("project", help="forward-project an image to a sinogram")
    p.add_argument("--image", required=True)
    p.add_argument("--name", default="sinogram")
    _add_geometry_flags(p)

    p = sub.add_parser("noise", help="add reproducible Gaussian noise to a sinogram")
    p.add_argument("--sino", required=True)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="noisy")

    p = sub.add_parser("reconstruct", help="TV reconstruction at one alpha")
    p.add_argument("--sino", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--name", default="recon")
    _add_geometry_flags(p)

    p = sub.add_parser("sweep", help="reconstruct over an (alpha, resolution) grid")
    p.add_argument("--sino", required=True)
    p.add_argument("--alphas", type=_comma_list(float), default=_DEFAULT_ALPHAS,
                   help="comma-separated alphas (default decades 1e-4..1e6)")
    p.add_argument("--resolutions", type=_comma_list(int), required=True,
                   help="comma-separated n values")
    p.add_argument("--name", default="sweep")
    _add_geometry_flags(p)

    p = sub.add_parser("select", help="choose alpha from a sweep table")
    p.add_argument("--table", required=True, help="sweep CSV file")
    p.add_argument("--method", choices=["multires", "scurve", "lcurve"], required=True)
    p.add_argument("--tol", type=float, default=0.05, help="multires stability tolerance")
    p.add_argument("--n", type=int, help="resolution column (scurve/lcurve); default largest")
    p.add_argument("--prior", nargs="*", help="prior image files (scurve)")
    p.add_argument("--sino", help="measured sinogram (scurve prior scaling)")
    _add_geometry_flags(p)

    p = sub.add_parser("report", help="render a sweep table with stable rows marked")
    p.add_argument("--table", required=True)
    p.add_argument("--tol", type=float, default=0.05)

    return parser


def _cmd_phantom(args):
    if args.kind == "disc":
        phantom = Phantom.disc(r=args.r, value=args.value)
    elif args.kind == "shells":
        if not args.shells:
            raise FormatError("--shells required for kind=shells")
        phantom = Phantom.nested_shells(args.shells)
    else:
        if not args.vertices:
            raise FormatError("--vertices required for kind=polygon")
        phantom = Phantom.polygon(args.vertices, value=args.value)
    img = render_phantom(phantom, args.n)
    tv = tv_norm(img)  # refuses n = 1 before anything is written
    img_path = _out(args, f"{args.name}.img")
    fileio.write_image(img_path, img)
    fileio.write_pgm(_out(args, f"{args.name}.pgm"), img)
    _write_manifest(args, {
        "phantom.kind": phantom.kind, "phantom.n": args.n,
        "output.image": img_path, "output.tv_norm": repr(tv),
    })
    print(f"phantom written to {img_path} (tv_norm={tv:.12g})")


def _cmd_project(args):
    img = fileio.read_image(args.image)
    geom = _geometry_from_args(args)
    A = assemble_system_matrix(geom, img.n)
    sino = forward_project(A, img)
    path = _out(args, f"{args.name}.sino")
    fileio.write_sinogram(path, sino)
    fileio.write_sinogram_csv(_out(args, f"{args.name}.csv"), sino)
    _write_manifest(args, {
        "input.image": args.image, "geometry.mode": geom.mode,
        "geometry.num_angles": geom.num_angles,
        "geometry.num_detector_pixels": geom.num_detector_pixels,
        "geometry.detector_extent": repr(geom.detector_extent),
        "output.sinogram": path,
    })
    print(f"sinogram written to {path} (M={geom.num_rays})")


def _cmd_noise(args):
    sino = fileio.read_sinogram(args.sino)
    spec = NoiseSpec(relative_level=args.level, seed=args.seed)
    noisy = add_noise(sino, spec)
    path = _out(args, f"{args.name}.sino")
    fileio.write_sinogram(path, noisy)
    _write_manifest(args, {
        "input.sinogram": args.sino, "noise.relative_level": repr(args.level),
        "noise.seed": args.seed, "output.sinogram": path,
    })
    print(f"noisy sinogram written to {path}")


def _cmd_reconstruct(args):
    geom = _geometry_from_args(args)
    sino = fileio.read_sinogram(args.sino, geometry=geom)
    A = assemble_system_matrix(geom, args.n)
    img, report = reconstruct(A, sino, args.alpha)
    img_path = _out(args, f"{args.name}.img")
    fileio.write_image(img_path, img)
    fileio.write_pgm(_out(args, f"{args.name}.pgm"), img)
    fileio.write_curve_csv(
        _out(args, f"{args.name}_convergence.csv"),
        dict(zip(HISTORY_COLUMNS, map(np.array, zip(*report.history)))),
    )
    tv = tv_norm(img)
    _write_manifest(args, {
        "input.sinogram": args.sino, "alpha": repr(args.alpha), "n": args.n,
        "output.image": img_path, "output.tv_norm": repr(tv),
        "solver.iterations": report.iterations, "solver.reason": report.reason,
    })
    print(
        f"reconstruction written to {img_path} "
        f"(tv_norm={tv:.12g}, {report.iterations} iterations, {report.reason})"
    )
    if report.reason != "converged":
        raise SolverFailureError(
            f"solver stopped without converging: {report.reason}", report=report)


def _cmd_sweep(args):
    geom = _geometry_from_args(args)
    sino = fileio.read_sinogram(args.sino, geometry=geom)
    table = run_sweep(geom, sino, args.alphas, args.resolutions)
    path = _out(args, f"{args.name}.csv")
    fileio.write_sweep_csv(path, table)
    _write_manifest(args, {
        "input.sinogram": args.sino,
        "alphas": ",".join(repr(a) for a in table.alphas),
        "resolutions": ",".join(str(r) for r in table.resolutions),
        "output.table": path,
        # the worker count depends on these
        "nproc": usable_cpus(),
        **BLAS_THREAD_ENV,
    })
    print(f"sweep table written to {path}")


def _cmd_select(args):
    table = fileio.read_sweep_csv(args.table)
    n = max(table.resolutions) if args.n is None else args.n
    table.column(n)  # multires reads no single column, but --n must still name one
    if args.method == "multires":
        alpha, diagnostics = select_multiresolution(table, stability_tol=args.tol)
    elif args.method == "scurve":
        if not args.prior or not args.sino:
            raise FormatError("select --method scurve needs --prior files and --sino")
        geom = _geometry_from_args(args)
        sino = fileio.read_sinogram(args.sino, geometry=geom)
        priors = [fileio.read_image(p) for p in args.prior]
        A = assemble_system_matrix(geom, n)
        prior = estimate_s_hat(priors, A, sino)
        alpha, diagnostics = select_scurve(table, prior, n)
    else:
        alpha, diagnostics = select_lcurve(table, n)
    fileio.write_diagnostics_csv(
        _out(args, f"select_{args.method}.csv"), diagnostics)
    _write_manifest(args, {
        "input.table": args.table, "method": args.method,
        "selected_alpha": repr(alpha),
    })
    print(f"selected alpha = {alpha:.12g} ({args.method})")


def _cmd_report(args):
    table = fileio.read_sweep_csv(args.table)
    spreads, stable = stable_rows(table, args.tol)
    header = "alpha      " + "  ".join(f"n={n:<8d}" for n in table.resolutions) + "spread    stable"
    lines = [header]
    for i, alpha in enumerate(table.alphas):
        tv_cells = "  ".join(f"{table.tv[i, j]:<10.4g}" for j in range(len(table.resolutions)))
        mark = "*" if stable[i] else ""
        lines.append(f"{alpha:<10.3g} {tv_cells}{spreads[i]:<10.3g}{mark}")
    fileio.write_curve_csv(_out(args, "report.csv"), {
        "alpha": table.alphas, "spread": spreads,
        "stable": stable.astype(int),
        **{f"tv_n{n}": table.tv[:, j] for j, n in enumerate(table.resolutions)},
    })
    _write_manifest(args, {"input.table": args.table, "output.report": "report.csv"})
    print("\n".join(lines))


_COMMANDS = {
    "phantom": _cmd_phantom,
    "project": _cmd_project,
    "noise": _cmd_noise,
    "reconstruct": _cmd_reconstruct,
    "sweep": _cmd_sweep,
    "select": _cmd_select,
    "report": _cmd_report,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if any("\n" in a or "\r" in a for a in argv):
        # the manifest holds argv on its one command= line, so it could not be replayed
        print("error: an argument holds a line break", file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args.argv = ["tvtomo"] + argv
    try:
        _COMMANDS[args.command](args)
    except SolverFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (NoSelectionError, OutOfRangeError) as exc:
        print(f"selection failure: {exc}", file=sys.stderr)
        return EXIT_SELECTION
    except (TvTomoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
