"""One TV-regularized reconstruction, with a look at the solver's path.

The nonsmooth objective is rewritten as a bound-constrained QP by
splitting the horizontal and vertical differences into positive and
negative parts, then solved by a Mehrotra predictor-corrector
interior-point method. The convergence report records the
complementarity measure mu, the KKT residuals, the inner CG iterations
of the predictor and corrector solves and the corrector's Newton residual
per iteration; mu should fall superlinearly in the final iterations.
"""

import numpy as np

import tvtomo as tv

n = 32
phantom = tv.render_phantom(tv.Phantom.disc(r=0.25), n)
geom = tv.ScanGeometry(num_angles=24, num_detector_pixels=48)
A = tv.assemble_system_matrix(geom, n)
g = tv.add_noise(tv.forward_project(A, phantom),
                 tv.NoiseSpec(relative_level=0.02, seed=3))

f, report = tv.reconstruct(A, g, alpha=0.1)

print(f"terminated: {report.reason} after {report.iterations} iterations")
print(f"objective {report.objective:.6e}, mu {report.mu:.2e}")
print("\n  it        mu      r_primal    r_dual   step_p  step_d   cg_p  cg_c  newton_res")
for it, mu, rp, rd, sp, sd, cg_p, cg_c, res in report.history:
    print(f"  {it:2d}  {mu:9.2e}  {rp:9.2e}  {rd:9.2e}   {sp:.3f}   {sd:.3f}  {cg_p:5d} {cg_c:5d}"
          f"   {res:9.2e}")

err = np.linalg.norm(f.values - phantom.values) / np.linalg.norm(phantom.values)
print(f"\nrelative L2 error vs phantom: {err:.2%}")
print(f"tv(reconstruction) = {tv.tv_norm(f):.4f}, tv(phantom) = 2.0")
