"""Matrix-free Krylov solvers for the Newton polish and the Riesz solves.

``gmres`` is GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986)
without restarts.  It minimizes the true residual over x0 + K_k(A, r0), so
it stops on ||b - A x|| <= rtol ||b||, the quantity an inexact-Newton
forcing term is written for.  It takes no preconditioner: a caller
preconditions on the right by passing A M, which it may apply cheaper than
A after M, and applying M to the solution.  ``cg`` is preconditioned conjugate gradients
for a symmetric positive definite A and a symmetric positive definite M.

A is anything with ``shape``, ``dtype`` and ``matvec`` (an `Operator`, or a
scipy ``LinearOperator``); M is a plain callable.  Both return (x, info):
info == 0 when the tolerance is met, otherwise 1 (GMRES) or the budget
spent (CG iterations), with x the last iterate.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

EPS = np.finfo(float).eps
GMRES_MAX_ITERS = 60  # products of the one Arnoldi pass, the Krylov dimension
CG_MAX_ITERS = 400


class Operator(NamedTuple):
    """A linear map given only by its action on a vector."""

    shape: tuple
    dtype: type
    matvec: Callable[[np.ndarray], np.ndarray]


def gmres(A, b, *, rtol=1e-5):
    """Solve A x = b from x0 = 0 by GMRES, one Arnoldi pass of at most
    GMRES_MAX_ITERS products, without restarts.

    Arnoldi runs with modified Gram-Schmidt and Givens rotations until the
    rotated residual, equal to the true one in exact arithmetic, meets the
    tolerance (or is NaN, or the basis breaks down, or the budget is spent);
    the true residual of x, one product, then decides.  So the last product
    is taken at the x returned, itself passed, unless b = 0.
    """
    b = np.asarray(b, dtype=float)
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b), 0
    tol = rtol * beta
    m = min(GMRES_MAX_ITERS, b.size)
    basis = np.empty((m + 1, b.size))
    hess = np.zeros((m, m))  # the rotated Hessenberg matrix: upper triangular
    cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
    basis[0] = b / beta
    g[0] = beta
    for j in range(m):
        w = np.array(A.matvec(basis[j]), dtype=float)
        w_norm = np.linalg.norm(w)
        for i in range(j + 1):
            hess[i, j] = w @ basis[i]
            w -= hess[i, j] * basis[i]
        h_next = np.linalg.norm(w)
        for i in range(j):
            hi, hn = hess[i, j], hess[i + 1, j]
            hess[i, j], hess[i + 1, j] = cs[i] * hi + sn[i] * hn, cs[i] * hn - sn[i] * hi
        d = np.hypot(hess[j, j], h_next)
        cs[j], sn[j] = (hess[j, j] / d, h_next / d) if d > 0.0 else (1.0, 0.0)
        hess[j, j] = d
        g[j + 1], g[j] = -sn[j] * g[j], cs[j] * g[j]
        if h_next <= EPS * w_norm or not abs(g[j + 1]) > tol:
            break
        basis[j + 1] = w / h_next
    k = j + 1
    y = g[:k].copy()
    for i in range(k - 1, -1, -1):  # back substitution; a zero pivot drops its direction
        y[i] = (y[i] - hess[i, i + 1:k] @ y[i + 1:]) / hess[i, i] if hess[i, i] else 0.0
    x = y @ basis[:k]
    return x, (0 if np.linalg.norm(b - A.matvec(x)) <= tol else 1)


def cg(A, b, *, M: Callable, rtol=1e-5):
    """Solve A x = b by preconditioned CG from x0 = 0, at most CG_MAX_ITERS
    iterations, stopping on the recursive residual."""
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    if not b.any():
        return x, 0
    tol = rtol * np.linalg.norm(b)
    r = b.copy()
    p = rho_prev = None
    for _ in range(CG_MAX_ITERS):
        if np.linalg.norm(r) <= tol:
            return x, 0
        z = M(r)
        rho = r @ z
        p = z.copy() if p is None else z + (rho / rho_prev) * p  # M may return r itself
        q = A.matvec(p)
        alpha = rho / (p @ q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, (0 if np.linalg.norm(r) <= tol else CG_MAX_ITERS)
