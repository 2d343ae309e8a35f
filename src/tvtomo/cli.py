"""Command-line pipeline: phantom -> project -> noise -> reconstruct/sweep ->
select -> report.

Every subcommand writes its artifacts plus a ``manifest.txt`` (inputs,
seeds, versions, recorded argv) into the output directory, so any run can
be reproduced bit-identically by replaying the manifest's command line.

Exit codes: 0 success, 2 usage/parse error, 3 solver failure, 4 selection
failure.
"""

import argparse
import os
import sys
from dataclasses import fields
from importlib.metadata import PackageNotFoundError, version as pkg_version

import numpy as np

from . import fileio
from .errors import (
    FormatError,
    NoSelectionError,
    OutOfRangeError,
    ParameterError,
    SolverFailureError,
    TvTomoError,
)
from .geometry import ScanGeometry, assemble_system_matrix, forward_project
from .grid import build_difference_operators, tv_norm
from .pdip import SolverConfig, reconstruct
from .phantoms import NoiseSpec, Phantom, add_noise, render_phantom
from .select import (
    estimate_s_hat,
    run_sweep,
    select_lcurve,
    select_multiresolution,
    select_scurve,
    spread_profile,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_SELECTION = 4

_DEFAULT_ALPHAS = [10.0 ** k for k in range(-4, 7)]


def _version():
    try:
        return pkg_version("tvtomo")
    except PackageNotFoundError:
        return "unknown"


def _out_dir(args):
    out = args.out or os.environ.get("TVTOMO_OUT") or "tvtomo_out"
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out, args, extra):
    entries = {
        "command": " ".join(args.argv),
        "subcommand": args.command,
        "version": _version(),
    }
    entries.update(extra)
    fileio.write_config(os.path.join(out, "manifest.txt"), entries)


def _load_config(args):
    """Solver config from file keys (solver.*) overridden by CLI flags."""
    kv = fileio.read_config(args.config) if getattr(args, "config", None) else {}
    values = {}
    for f in fields(SolverConfig):
        key = f"solver.{f.name}"
        if key in kv:
            try:
                values[f.name] = f.type(kv[key])
            except ValueError as exc:
                raise ParameterError(f"{key}={kv[key]!r}: {exc}") from exc
        flag = getattr(args, f"solver_{f.name}", None)
        if flag is not None:
            values[f.name] = flag
    return SolverConfig(**values), kv


def _geometry_from_args(args, kv=None):
    kv = kv or {}
    get = lambda flag, key, cast, default: (
        flag if flag is not None else cast(kv[key]) if key in kv else default
    )
    mode = get(getattr(args, "mode", None), "geometry.mode", str, "parallel")
    num_angles = get(getattr(args, "angles", None), "geometry.num_angles", int, 90)
    detectors = get(getattr(args, "detectors", None), "geometry.num_detector_pixels", int, 96)
    extent = get(getattr(args, "extent", None), "geometry.detector_extent", float, float(np.sqrt(2)))
    kwargs = dict(
        mode=mode, num_angles=num_angles,
        num_detector_pixels=detectors, detector_extent=extent,
    )
    if mode == "fan":
        kwargs["source_radius"] = get(
            getattr(args, "source_radius", None), "geometry.source_radius", float, None)
        kwargs["detector_radius"] = get(
            getattr(args, "detector_radius", None), "geometry.detector_radius", float, None)
    return ScanGeometry(**kwargs)


def _add_solver_flags(p):
    p.add_argument("--config", help="key-value config file (solver.*, geometry.*)")
    p.add_argument("--solver-tol-primal", dest="solver_tol_primal", type=float)
    p.add_argument("--solver-tol-dual", dest="solver_tol_dual", type=float)
    p.add_argument("--solver-tol-gap", dest="solver_tol_gap", type=float)
    p.add_argument("--solver-max-iterations", dest="solver_max_iterations", type=int)
    p.add_argument("--solver-backend", dest="solver_backend", choices=["auto", "dense", "cg"])


def _add_geometry_flags(p):
    p.add_argument("--mode", choices=["parallel", "fan"])
    p.add_argument("--angles", type=int, help="number of projection angles")
    p.add_argument("--detectors", type=int, help="detector pixels per angle")
    p.add_argument("--extent", type=float, help="detector extent in domain units")
    p.add_argument("--source-radius", type=float)
    p.add_argument("--detector-radius", type=float)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tvtomo",
        description="TV-regularized 2D tomography with automatic parameter selection",
    )
    parser.add_argument("--out", help="output directory (default $TVTOMO_OUT or ./tvtomo_out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="render a synthetic phantom image")
    p.add_argument("--kind", choices=["disc", "shells", "polygon"], default="disc")
    p.add_argument("--r", type=float, default=0.25)
    p.add_argument("--value", type=float, default=1.0)
    p.add_argument("--shells", help="r1:v1,r2:v2,... (radii decreasing)")
    p.add_argument("--vertices", help="x1:y1,x2:y2,... polygon vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--name", default="phantom")

    p = sub.add_parser("project", help="forward-project an image to a sinogram")
    p.add_argument("--image", required=True)
    p.add_argument("--name", default="sinogram")
    _add_geometry_flags(p)
    p.add_argument("--config")

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
    _add_solver_flags(p)

    p = sub.add_parser("sweep", help="reconstruct over an (alpha, resolution) grid")
    p.add_argument("--sino", required=True)
    p.add_argument("--alphas", help="comma-separated alphas (default decades 1e-4..1e6)")
    p.add_argument("--resolutions", required=True, help="comma-separated n values")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--name", default="sweep")
    _add_geometry_flags(p)
    _add_solver_flags(p)

    p = sub.add_parser("select", help="choose alpha from a sweep table")
    p.add_argument("--table", required=True, help="sweep CSV file")
    p.add_argument("--method", choices=["multires", "scurve", "lcurve"], required=True)
    p.add_argument("--tol", type=float, default=0.05, help="multires stability tolerance")
    p.add_argument("--n", type=int, help="resolution column (scurve/lcurve); default largest")
    p.add_argument("--prior", nargs="*", help="prior image files (scurve)")
    p.add_argument("--sino", help="measured sinogram (scurve prior scaling)")
    _add_geometry_flags(p)
    p.add_argument("--config")

    p = sub.add_parser("report", help="render a sweep table with stable rows marked")
    p.add_argument("--table", required=True)
    p.add_argument("--tol", type=float, default=0.05)

    return parser


def _cmd_phantom(args, out):
    if args.kind == "disc":
        phantom = Phantom.disc(r=args.r, value=args.value)
    elif args.kind == "shells":
        if not args.shells:
            raise FormatError("--shells required for kind=shells")
        shells = [tuple(float(x) for x in part.split(":")) for part in args.shells.split(",")]
        phantom = Phantom.nested_shells(shells)
    else:
        if not args.vertices:
            raise FormatError("--vertices required for kind=polygon")
        verts = [tuple(float(x) for x in part.split(":")) for part in args.vertices.split(",")]
        phantom = Phantom.polygon(verts, value=args.value)
    img = render_phantom(phantom, args.n)
    img_path = os.path.join(out, f"{args.name}.img")
    fileio.write_image(img_path, img)
    fileio.write_pgm(os.path.join(out, f"{args.name}.pgm"), img)
    fileio.write_phantom_file(os.path.join(out, f"{args.name}.phantom"), phantom)
    tv = tv_norm(img)
    _write_manifest(out, args, {
        "phantom.kind": phantom.kind, "phantom.n": args.n,
        "output.image": img_path, "output.tv_norm": repr(tv),
    })
    print(f"phantom written to {img_path} (tv_norm={tv:.12g})")


def _cmd_project(args, out):
    img = fileio.read_image(args.image)
    kv = fileio.read_config(args.config) if args.config else {}
    geom = _geometry_from_args(args, kv)
    A = assemble_system_matrix(geom, img.n)
    sino = forward_project(A, img)
    path = os.path.join(out, f"{args.name}.sino")
    fileio.write_sinogram(path, sino)
    fileio.write_sinogram_csv(os.path.join(out, f"{args.name}.csv"), sino)
    _write_manifest(out, args, {
        "input.image": args.image, "geometry.mode": geom.mode,
        "geometry.num_angles": geom.num_angles,
        "geometry.num_detector_pixels": geom.num_detector_pixels,
        "geometry.detector_extent": repr(geom.detector_extent),
        "output.sinogram": path,
    })
    print(f"sinogram written to {path} (M={geom.num_rays})")


def _cmd_noise(args, out):
    sino = fileio.read_sinogram(args.sino)
    spec = NoiseSpec(relative_level=args.level, seed=args.seed)
    noisy = add_noise(sino, spec)
    path = os.path.join(out, f"{args.name}.sino")
    fileio.write_sinogram(path, noisy)
    _write_manifest(out, args, {
        "input.sinogram": args.sino, "noise.relative_level": repr(args.level),
        "noise.seed": args.seed, "output.sinogram": path,
    })
    print(f"noisy sinogram written to {path}")


def _cmd_reconstruct(args, out):
    cfg, kv = _load_config(args)
    geom = _geometry_from_args(args, kv)
    sino = fileio.read_sinogram(args.sino, geometry=geom)
    A = assemble_system_matrix(geom, args.n)
    img, report = reconstruct(A, sino, args.alpha, config=cfg)
    img_path = os.path.join(out, f"{args.name}.img")
    fileio.write_image(img_path, img)
    fileio.write_pgm(os.path.join(out, f"{args.name}.pgm"), img)
    fileio.write_curve_csv(
        os.path.join(out, f"{args.name}_convergence.csv"),
        {k: np.array(v) for k, v in zip(
            ["iteration", "mu", "r_primal", "r_dual", "step_primal", "step_dual"],
            zip(*report.history))},
    )
    tv = tv_norm(img)
    _write_manifest(out, args, {
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


def _cmd_sweep(args, out):
    cfg, kv = _load_config(args)
    geom = _geometry_from_args(args, kv)
    sino = fileio.read_sinogram(args.sino, geometry=geom)
    alphas = ([float(a) for a in args.alphas.split(",")] if args.alphas
              else _DEFAULT_ALPHAS)
    resolutions = [int(r) for r in args.resolutions.split(",")]
    table = run_sweep(geom, sino, alphas, resolutions, config=cfg, jobs=args.jobs)
    path = os.path.join(out, f"{args.name}.csv")
    fileio.write_sweep_csv(path, table)
    _write_manifest(out, args, {
        "input.sinogram": args.sino,
        "alphas": ",".join(repr(a) for a in table.alphas),
        "resolutions": ",".join(str(r) for r in table.resolutions),
        "output.table": path,
    })
    print(f"sweep table written to {path}")


def _cmd_select(args, out):
    table = fileio.read_sweep_csv(args.table)
    n = args.n or max(table.resolutions)
    if args.method == "multires":
        alpha, diagnostics = select_multiresolution(table, stability_tol=args.tol)
    elif args.method == "scurve":
        if not args.prior or not args.sino:
            raise FormatError("select --method scurve needs --prior files and --sino")
        kv = fileio.read_config(args.config) if args.config else {}
        geom = _geometry_from_args(args, kv)
        sino = fileio.read_sinogram(args.sino, geometry=geom)
        priors = [fileio.read_image(p) for p in args.prior]
        A = assemble_system_matrix(geom, n)
        prior = estimate_s_hat(priors, A, sino)
        alpha, diagnostics = select_scurve(table, prior, n)
        diagnostics["s_hat"] = prior.s_hat
    else:
        alpha, diagnostics = select_lcurve(table, n)
    fileio.write_diagnostics_csv(
        os.path.join(out, f"select_{args.method}.csv"), diagnostics)
    _write_manifest(out, args, {
        "input.table": args.table, "method": args.method,
        "selected_alpha": repr(alpha),
    })
    print(f"selected alpha = {alpha:.12g} ({args.method})")


def _cmd_report(args, out):
    table = fileio.read_sweep_csv(args.table)
    spreads = spread_profile(table)
    stable = spreads <= args.tol
    header = "alpha      " + "  ".join(f"n={n:<8d}" for n in table.resolutions) + "spread    stable"
    lines = [header]
    for i, alpha in enumerate(table.alphas):
        tv_cells = "  ".join(f"{table.tv[i, j]:<10.4g}" for j in range(len(table.resolutions)))
        mark = "*" if stable[i] else ""
        lines.append(f"{alpha:<10.3g} {tv_cells}{spreads[i]:<10.3g}{mark}")
    text = "\n".join(lines)
    print(text)
    fileio.write_curve_csv(os.path.join(out, "report.csv"), {
        "alpha": table.alphas, "spread": spreads,
        "stable": stable.astype(int),
        **{f"tv_n{n}": table.tv[:, j] for j, n in enumerate(table.resolutions)},
    })
    _write_manifest(out, args, {"input.table": args.table, "output.report": "report.csv"})


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args.argv = ["tvtomo"] + argv
    out = _out_dir(args)
    try:
        _COMMANDS[args.command](args, out)
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
