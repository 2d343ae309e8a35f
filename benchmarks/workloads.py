"""The benchmark's workloads: set-up, timed body and output checks.

Each workload is built from the benchmark's seed and a size ("full" for
measurement, "toy" with every grid at n <= 16 for the benchmark's own
tests).  `setup` makes the inputs, `body` is the timed work and `check`
verifies its outputs, counting every operation into an `Outcome`.

Why these three:
- sweep-multires is the paper's use case end to end: an (alpha, resolution)
  sweep, all three selection rules and the file formats.  It runs both
  Newton backends (dense at n <= 32, CG at n = 64); select and fileio run
  only here.
- recon-fine is one fine-grid reconstruction, where the CG backend (splu
  preconditioner, SuperLU solves, A/A^T matvecs) dominates and neither the
  dense branch nor ray tracing is in the timed body.
- assemble-rays is ray tracing alone, for parallel rays (one direction per
  angle) and fan rays (one direction per ray); pdip is absent.
"""

import time

import numpy as np

SIZES = {
    "full": {
        "phantom_n": 256, "angles": 30, "detectors": 96,
        "resolutions": (16, 32, 64), "curve_n": 64, "recon_n": 128,
        "parallel_n": 256, "fan_n": 128, "fan_angles": 90, "fan_detectors": 192,
    },
    "toy": {
        "phantom_n": 16, "angles": 8, "detectors": 24,
        "resolutions": (8, 16), "curve_n": 16, "recon_n": 16,
        "parallel_n": 16, "fan_n": 8, "fan_angles": 6, "fan_detectors": 12,
    },
}

NOISE_LEVEL = 0.05
ALPHAS = 10.0 ** np.arange(-2, 3)
RECON_ALPHA = 0.1
STABILITY_TOL = 0.05
PRIOR_RADII = (0.2, 0.3)
REL_TOL = 1e-6
CHORD_TOL = 1e-12
OBJECTIVE_TOL = 1e-4


class Outcome:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def op(self, name, fn, *args, **kwargs):
        """Run one operation; one that raises is a failure and gives None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation, reported below
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def close(actual, expected, rel=REL_TOL):
    """Elementwise |a - e| <= rel * max(|e|, largest |e|): entries near zero
    are compared at the scale of the largest one."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False
    scale = np.maximum(np.abs(expected), np.max(np.abs(expected), initial=0.0))
    return bool(np.all(np.abs(actual - expected) <= rel * scale))


def clipped_chords(geom):
    """Length of every ray's chord through the unit square, by slab clipping."""
    rays = list(geom.rays())
    origin = np.array([o for o, _ in rays])
    d = np.array([v for _, v in rays])
    d = d / np.hypot(d[:, 0], d[:, 1])[:, None]
    t0 = np.full(len(rays), -np.inf)
    t1 = np.full(len(rays), np.inf)
    missed = np.zeros(len(rays), dtype=bool)
    for k in range(2):
        moving = d[:, k] != 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (0.0 - origin[:, k]) / d[:, k]
            tb = (1.0 - origin[:, k]) / d[:, k]
        t0 = np.where(moving, np.maximum(t0, np.minimum(ta, tb)), t0)
        t1 = np.where(moving, np.minimum(t1, np.maximum(ta, tb)), t1)
        missed |= ~moving & ((origin[:, k] < 0.0) | (origin[:, k] > 1.0))
    return np.where(missed | (t0 >= t1), 0.0, t1 - t0)


class Workload:
    name = None

    def __init__(self, tv, size, seed, tmpdir):
        self.tv = tv
        self.size = SIZES[size]
        self.seed = seed
        self.tmpdir = tmpdir

    def warm_up(self):
        """One toy solve per Newton backend, so lazy loading is paid in set-up."""
        tv = self.tv
        geom = tv.ScanGeometry(num_angles=4, num_detector_pixels=6)
        A = tv.assemble_system_matrix(geom, 4)
        g = tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.25), 4))
        for backend in ("dense", "cg"):
            tv.reconstruct(A, g, 1.0, config=tv.SolverConfig(backend=backend))

    def noisy_data(self):
        """The disc phantom projected at phantom_n, with the seed's noise."""
        tv, s = self.tv, self.size
        phantom = tv.render_phantom(tv.Phantom.disc(r=0.25), s["phantom_n"])
        geom = tv.ScanGeometry(num_angles=s["angles"], num_detector_pixels=s["detectors"])
        clean = tv.forward_project(tv.assemble_system_matrix(geom, s["phantom_n"]), phantom)
        noisy = tv.add_noise(clean, tv.NoiseSpec(relative_level=NOISE_LEVEL, seed=self.seed))
        return geom, noisy


class SweepMultires(Workload):
    name = "sweep-multires"

    def setup(self):
        tv, s = self.tv, self.size
        self.geom, self.noisy = self.noisy_data()
        self.A_curve = tv.assemble_system_matrix(self.geom, s["curve_n"])
        self.priors = [tv.render_phantom(tv.Phantom.disc(r=r), s["curve_n"]) for r in PRIOR_RADII]
        self.warm_up()

    def body(self, outcome):
        tv, s = self.tv, self.size
        n = s["curve_n"]
        out = {}
        table = outcome.op("run_sweep", tv.run_sweep, self.geom, self.noisy, ALPHAS,
                           s["resolutions"])
        out["table"] = table
        if table is not None:
            out["multires"] = outcome.op("select_multiresolution", tv.select_multiresolution,
                                         table, stability_tol=STABILITY_TOL)
            out["lcurve"] = outcome.op("select_lcurve", tv.select_lcurve, table, n)
            prior = outcome.op("estimate_s_hat", tv.estimate_s_hat, self.priors,
                               self.A_curve, self.noisy)
            if prior is not None:
                out["scurve"] = outcome.op("select_scurve", tv.select_scurve, table, prior, n)
        sino_path = self.tmpdir / "sweep.sino"
        csv_path = self.tmpdir / "sweep.csv"
        outcome.op("write_sinogram", tv.write_sinogram, sino_path, self.noisy)
        out["sinogram"] = outcome.op("read_sinogram", tv.read_sinogram, sino_path,
                                     geometry=self.geom)
        if table is not None:
            outcome.op("write_sweep_csv", tv.write_sweep_csv, csv_path, table)
            out["csv"] = outcome.op("read_sweep_csv", tv.read_sweep_csv, csv_path)
        return out

    def check(self, out, outcome, reference):
        table = out["table"]
        read = out["sinogram"]
        outcome.check("sinogram round trip bit-exact",
                      read is not None and read.data.tobytes() == self.noisy.data.tobytes())
        if table is None:
            return
        for (i, j), status in np.ndenumerate(table.status):
            outcome.check(f"cell alpha={table.alphas[i]:g} n={table.resolutions[j]}",
                          status == "converged", f"status {status}")
        csv = out.get("csv")
        outcome.check("sweep CSV round trip bit-exact", csv is not None and all(
            getattr(csv, k).tobytes() == getattr(table, k).tobytes()
            for k in ("alphas", "tv", "residual", "iterations")
        ) and list(csv.status.ravel()) == list(table.status.ravel()))
        spreads = self.tv.spread_profile(table)
        outcome.check(f"a multires row with spread <= {STABILITY_TOL}",
                      bool(np.nanmin(spreads) <= STABILITY_TOL), f"spreads {spreads}")
        outcome.check("TV columns non-increasing in alpha",
                      bool(np.all(np.diff(table.tv, axis=0) <= 0.0)), f"tv {table.tv}")
        if reference is None:
            return
        for rule in ("multires", "lcurve"):
            got = out.get(rule)
            outcome.check(f"{rule} alpha == {reference[rule]}",
                          got is not None and got[0] == reference[rule], f"got {got and got[0]}")
        got = out.get("scurve")
        outcome.check("scurve alpha", got is not None and close(got[0], reference["scurve"]),
                      f"got {got and got[0]}, want {reference['scurve']}")
        outcome.check("TV table", close(table.tv, reference["tv"]), f"got {table.tv.tolist()}")
        outcome.check("residual table", close(table.residual, reference["residual"]),
                      f"got {table.residual.tolist()}")

    def observed(self, out):
        table = out["table"]
        return {
            "multires": out["multires"][0], "lcurve": out["lcurve"][0],
            "scurve": out["scurve"][0], "tv": table.tv.tolist(),
            "residual": table.residual.tolist(),
        }


class ReconFine(Workload):
    name = "recon-fine"

    def setup(self):
        tv = self.tv
        self.geom, self.noisy = self.noisy_data()
        self.A = tv.assemble_system_matrix(self.geom, self.size["recon_n"])
        self.warm_up()

    def body(self, outcome):
        return outcome.op("reconstruct", self.tv.reconstruct, self.A, self.noisy, RECON_ALPHA)

    def check(self, out, outcome, reference):
        if out is None:
            return
        f, report = out
        outcome.check("reconstruction converged", report.reason == "converged",
                      f"reason {report.reason}")
        tv_value = self.tv.tv_norm(f)
        r = self.A.matrix @ f.values - self.noisy.data
        direct = 0.5 * float(r @ r) + RECON_ALPHA * tv_value
        # the solver's objective is of the split variables at mu <= tol_gap,
        # which may exceed the direct objective by the remaining duality gap
        outcome.check("objective equals 1/2|Af-g|^2 + alpha TV(f)",
                      close(direct, report.objective, rel=OBJECTIVE_TOL),
                      f"direct {direct}, solver {report.objective}")
        if reference is None:
            return
        outcome.check("TV", close(tv_value, reference["tv"]),
                      f"got {tv_value!r}, want {reference['tv']!r}")
        outcome.check("objective", close(report.objective, reference["objective"]),
                      f"got {report.objective!r}, want {reference['objective']!r}")

    def observed(self, out):
        f, report = out
        return {"tv": self.tv.tv_norm(f), "objective": report.objective}


class AssembleRays(Workload):
    name = "assemble-rays"

    def setup(self):
        tv, s = self.tv, self.size
        self.parallel = tv.ScanGeometry.default_parallel(s["parallel_n"])
        self.fan = tv.ScanGeometry(
            mode="fan", num_angles=s["fan_angles"], num_detector_pixels=s["fan_detectors"],
            detector_extent=2.4, source_radius=2.0, detector_radius=1.0,
        )
        self.phantom = tv.render_phantom(tv.Phantom.disc(r=0.25), s["parallel_n"])
        self.warm_up()
        self.assemble_s = {}

    def body(self, outcome):
        tv, s = self.tv, self.size
        out = {}
        for mode, geom, n in (("parallel", self.parallel, s["parallel_n"]),
                              ("fan", self.fan, s["fan_n"])):
            start = time.perf_counter()
            out[mode] = outcome.op(f"assemble {mode}", tv.assemble_system_matrix, geom, n)
            self.assemble_s.setdefault(mode, []).append(time.perf_counter() - start)
        if out["parallel"] is not None:
            sino = tv.forward_project(out["parallel"], self.phantom)
            out["projection"] = (sino, tv.adjoint_project(out["parallel"], sino))
        return out

    def check(self, out, outcome, reference):
        for mode in ("parallel", "fan"):
            A = out[mode]
            if A is None:
                continue
            row_sums = np.asarray(A.matrix.sum(axis=1)).ravel()
            gap = float(np.max(np.abs(row_sums - clipped_chords(A.geometry))))
            outcome.check(f"{mode} row sums equal clipped chords", gap <= CHORD_TOL,
                          f"largest gap {gap:.3e}")
            if reference is not None:
                outcome.check(f"{mode} nnz", A.matrix.nnz == reference[f"{mode}_nnz"],
                              f"got {A.matrix.nnz}, want {reference[f'{mode}_nnz']}")
        if "projection" in out:
            sino, back = out["projection"]
            lhs = float(sino.data @ sino.data)
            rhs = float(self.phantom.values @ back.values)
            outcome.check("<Af, Af> equals <f, A^T A f>", close(lhs, rhs, rel=1e-12),
                          f"{lhs!r} vs {rhs!r}")

    def observed(self, out):
        return {f"{mode}_nnz": int(out[mode].matrix.nnz) for mode in ("parallel", "fan")}


WORKLOADS = {w.name: w for w in (SweepMultires, ReconFine, AssembleRays)}
