import numpy as np
import pytest

import tvtomo as tv


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def small_geom():
    return tv.ScanGeometry(num_angles=8, num_detector_pixels=12)


def make_tv_instance(n, num_angles, alpha, seed, noise=0.0):
    """Small TV tomography instance from a random nonnegative image."""
    rng = np.random.default_rng(seed)
    img = tv.ImageGrid(n, rng.uniform(0.0, 1.0, n * n))
    geom = tv.ScanGeometry(num_angles=num_angles, num_detector_pixels=int(np.ceil(1.5 * n)))
    A = tv.assemble_system_matrix(geom, n)
    g = tv.forward_project(A, img)
    if noise > 0:
        g = tv.add_noise(g, tv.NoiseSpec(relative_level=noise, seed=seed))
    problem = tv.build_qp(A, g, alpha)
    return img, A, g, problem.ops, problem


def projected_subgradient(problem, iterations=20000, seed=0):
    """Independent long-run oracle for min_{f>=0} 1/2|Af-g|^2 + alpha*TV(f).

    Projected subgradient descent with diminishing, normalized steps;
    returns the best objective value seen.
    """
    A = problem.A.matrix
    g = problem.g
    dh, dv = problem.ops.d_h, problem.ops.d_v
    alpha = problem.alpha
    N = problem.N

    f = np.maximum(A.T @ g, 0.0)
    scale = max(1.0, np.linalg.norm(f))
    f = f / scale * min(scale, 1.0)

    def objective(f):
        r = A @ f - g
        return 0.5 * r @ r + alpha * (np.abs(dh @ f).sum() + np.abs(dv @ f).sum())

    best = objective(f)
    step0 = max(1.0, np.linalg.norm(f)) if np.linalg.norm(f) > 0 else 1.0
    for k in range(iterations):
        sub = A.T @ (A @ f - g) + alpha * (dh.T @ np.sign(dh @ f) + dv.T @ np.sign(dv @ f))
        norm = np.linalg.norm(sub)
        if norm == 0:
            break
        f = np.maximum(f - step0 / (norm * np.sqrt(k + 1.0)) * sub, 0.0)
        val = objective(f)
        if val < best:
            best = val
    return best
