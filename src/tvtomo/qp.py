"""Variable-split quadratic program for the TV reconstruction problem.

The objective 1/2 |A f - g|^2 + alpha (|D_h f|_1 + |D_v f|_1) over f >= 0
becomes, after splitting the differences into positive/negative parts
h+ - h- and v+ - v-,

    min  1/2 z^T Q z + c^T z + d
    s.t. B z = 0,  z >= 0,

with z = [f; h+; h-; v+; v-] (length 5N), Q carrying A^T A in its first
block only, c = [-A^T g; alpha 1; ...], d = 1/2 g^T g and
B = [[D_h, -I, I, 0, 0], [D_v, 0, 0, -I, I]].
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, ShapeMismatchError, check_real
from .grid import ImageGrid, build_difference_operators, tv_norm

__all__ = ["QpProblem", "build_qp"]


@dataclass(frozen=True, eq=False)
class QpProblem:
    """Split-variable QP data; Q is applied functionally via A."""

    A: object  # SparseSystemMatrix
    g: np.ndarray
    ops: object  # DifferenceOperators
    alpha: float
    n: int
    c: np.ndarray = field(repr=False)
    d: float
    B: sp.csr_matrix = field(repr=False)
    b: np.ndarray = field(repr=False)

    @property
    def N(self):
        return self.n * self.n

    @property
    def z_dim(self):
        return 5 * self.N

    @property
    def y_dim(self):
        return 2 * self.N

    def apply_Q(self, z):
        """Q z = [A^T (A f); 0; 0; 0; 0] without materializing A^T A."""
        N = self.N
        out = np.zeros_like(z)
        out[:N] = self.A.matrix.T @ (self.A.matrix @ z[:N])
        return out

    def objective(self, z):
        return float(0.5 * z @ self.apply_Q(z) + self.c @ z + self.d)

    def objective_of_image(self, f_values):
        """Direct evaluation 1/2 |Af - g|^2 + alpha * TV(f)."""
        r = self.A.matrix @ f_values - self.g
        return float(0.5 * r @ r + self.alpha * tv_norm(ImageGrid(self.n, f_values)))


def build_qp(A, g_tilde, alpha):
    """Assemble the QpProblem for one (system matrix, sinogram, alpha) triple."""
    check_real("alpha", alpha, ParameterError)
    n = A.n
    N = n * n
    ops = build_difference_operators(n)
    g = np.asarray(g_tilde.data, dtype=float)
    if g.size != A.matrix.shape[0]:
        raise ShapeMismatchError(f"data length {g.size} != M={A.matrix.shape[0]}")

    c = np.concatenate([-(A.matrix.T @ g), np.full(4 * N, float(alpha))])
    d = float(0.5 * g @ g)
    I = sp.identity(N, format="csr")
    Z = sp.csr_matrix((N, N))
    B = sp.bmat(
        [[ops.d_h, -I, I, Z, Z], [ops.d_v, Z, Z, -I, I]], format="csr"
    )
    return QpProblem(
        A=A, g=g, ops=ops, alpha=float(alpha), n=n,
        c=c, d=d, B=B, b=np.zeros(2 * N),
    )
