import numpy as np


def einsum_expectation(pi, conn):
    """Reference expectation stack from one three-operand einsum: the formed
    (L, n, n) array of rho * Pi @ B_l @ Pi.T, symmetrised as 0.5 * (W + W.T)."""
    omega = conn.rho * np.einsum("ik,lkm,jm->lij", pi.rows, conn.matrices, pi.rows)
    return 0.5 * (omega + omega.transpose(0, 2, 1))


def population_sums(pi, conn):
    """The reference stack's sum over layers and sum of squared layers."""
    omega = einsum_expectation(pi, conn)
    return omega.sum(axis=0), sum(o @ o for o in omega)


def relative_error(got, want):
    """max |got - want| over max |want|, and 0 when both are zero."""
    scale = np.abs(want).max()
    return np.abs(got - want).max() / scale if scale else float(np.abs(got).max())
