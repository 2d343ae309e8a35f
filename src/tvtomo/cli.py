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
    BLAS_THREAD_ENV,
    estimate_s_hat,
    run_sweep,
    select_lcurve,
    select_multiresolution,
    select_scurve,
    stable_rows,
    usable_cpus,
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


_SECTIONS = {"solver": SolverConfig, "geometry": ScanGeometry}


def _config_keys(args):
    """The ``--config`` file's keys, each ``<section>.<field>`` of ``_SECTIONS``."""
    if not args.config:
        return {}
    kv = fileio.read_config(args.config)
    # geometry.angles is no key: an angle array cannot be cast from text
    known = {f"{section}.{f.name}" for section, cls in _SECTIONS.items()
             for f in fields(cls) if f.name != "angles"}
    unknown = sorted(set(kv) - known)
    if unknown:
        raise ParameterError(f"{args.config}: unknown config keys {', '.join(unknown)}")
    return kv


def _from_args(section, args, kv):
    """Build a section's dataclass: flag ``args.<section>_<field>`` over the
    ``<section>.<field>`` config key over the dataclass default."""
    cls = _SECTIONS[section]
    values = {}
    for f in fields(cls):
        key = f"{section}.{f.name}"
        if key in kv:
            try:
                values[f.name] = f.type(kv[key])
            except ValueError as exc:
                raise ParameterError(f"{key}={kv[key]!r}: {exc}") from exc
        flag = getattr(args, f"{section}_{f.name}", None)
        if flag is not None:
            values[f.name] = flag
    return cls(**values)


def _comma_list(cast):
    """argparse type for comma-separated ``cast`` values; a bad one is a usage error."""
    parse = lambda text: [cast(x) for x in text.split(",")]
    parse.__name__ = f"comma-separated {cast.__name__}"  # argparse names it in the error
    return parse


def _add_solver_flags(p):
    p.add_argument("--solver-tol-primal", dest="solver_tol_primal", type=float)
    p.add_argument("--solver-tol-dual", dest="solver_tol_dual", type=float)
    p.add_argument("--solver-tol-gap", dest="solver_tol_gap", type=float)
    p.add_argument("--solver-max-iterations", dest="solver_max_iterations", type=int)


def _add_geometry_flags(p):
    p.add_argument("--config", help="key-value config file (solver.*, geometry.*)")
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
    p.add_argument("--alphas", type=_comma_list(float), default=_DEFAULT_ALPHAS,
                   help="comma-separated alphas (default decades 1e-4..1e6)")
    p.add_argument("--resolutions", type=_comma_list(int), required=True,
                   help="comma-separated n values")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (>= 1); default one per CPU the BLAS threads "
                        "leave free, so OPENBLAS_NUM_THREADS=1 uses every CPU")
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
        phantom = Phantom.nested_shells(fileio.parse_pairs(args.shells))
    else:
        if not args.vertices:
            raise FormatError("--vertices required for kind=polygon")
        phantom = Phantom.polygon(fileio.parse_pairs(args.vertices), value=args.value)
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
    geom = _from_args("geometry", args, _config_keys(args))
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
    kv = _config_keys(args)
    cfg, geom = _from_args("solver", args, kv), _from_args("geometry", args, kv)
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
    kv = _config_keys(args)
    cfg, geom = _from_args("solver", args, kv), _from_args("geometry", args, kv)
    sino = fileio.read_sinogram(args.sino, geometry=geom)
    table = run_sweep(geom, sino, args.alphas, args.resolutions, config=cfg, jobs=args.jobs)
    path = os.path.join(out, f"{args.name}.csv")
    fileio.write_sweep_csv(path, table)
    _write_manifest(out, args, {
        "input.sinogram": args.sino,
        "alphas": ",".join(repr(a) for a in table.alphas),
        "resolutions": ",".join(str(r) for r in table.resolutions),
        "output.table": path,
        # the default worker count depends on these
        "nproc": usable_cpus(),
        **BLAS_THREAD_ENV,
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
        geom = _from_args("geometry", args, _config_keys(args))
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
    spreads, stable = stable_rows(table, args.tol)
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
