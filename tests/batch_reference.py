"""The folded lockstep ascent without compaction, frozen as a reference.

Every step gathers the active rows by index, rebuilds their state rows at
the candidate angles, evaluates them with the optimizer's kernels, and
scatters the accepted factors, angles, POVM elements, state rows, values,
gradient weights, dI/du and velocities back into full-length arrays.  The
candidate is (a + h (a @ g) + v, u + h dI/du + v_u), written out of place,
with each velocity _MOMENTUM times the accepted move after an accepted step
and 0 after a rejected one.  Rows without an angle (``u`` None) keep their
states at angle 0.  The kernels themselves are checked against einsum
formulas in test_optimizer; this batch pins the bookkeeping, and the
optimizer's _Batch must leave every row with the same bits as this one.
"""

import numpy as np

import qkdattack.optimizer as op


class ReferenceBatch:
    def __init__(self, factors, tensor, coeffs, u=None):
        n = factors.shape[0]
        self.tensor, self.coeffs, self.moves = tensor, np.array(coeffs), u is not None
        self.u = np.zeros(n) if u is None else np.array(u, dtype=float)
        self.a, self.m = op._renormalize(factors)
        self.rho, self.d_rho = op._state_rows(tensor, self.coeffs, self.u)
        self.f, self.w = op._objective(op._probs(self.m, self.rho))
        self.dfdu = op._angle_slope(self.m, self.w, self.d_rho)
        self.v = np.zeros_like(self.a)
        self.vu = np.zeros(n)
        self.step = np.full(n, op._INIT_STEP)
        self.stall = np.zeros(n, dtype=int)
        self.active = np.ones(n, dtype=bool)
        self.converged = np.zeros(n, dtype=bool)
        self.iters = 0
        self.row_iters = np.zeros(n, dtype=int)

    def step_once(self):
        idx = np.flatnonzero(self.active)
        if idx.size == 0:
            return
        a, u, h = self.a[idx], self.u[idx], self.step[idx]
        g = op._gradient(self.w[idx], self.rho[idx])
        cand = a + h[:, None, None, None] * (a @ g) + self.v[idx]
        a_n, m_n = op._renormalize(cand)
        u_n = u + h * self.dfdu[idx] + self.vu[idx] if self.moves else u
        rho_n, d_rho_n = op._state_rows(self.tensor, self.coeffs[idx], u_n)
        f_n, w_n = op._objective(op._probs(m_n, rho_n))
        dfdu_n = op._angle_slope(m_n, w_n, d_rho_n)
        improved = f_n > self.f[idx]
        significant = f_n > self.f[idx] + op._STEP_TOLERANCE + 1e-7 * np.abs(f_n)
        up = idx[improved]
        self.v[idx], self.vu[idx] = 0.0, 0.0
        self.v[up] = op._MOMENTUM * (a_n[improved] - a[improved])
        self.vu[up] = op._MOMENTUM * (u_n[improved] - u[improved])
        self.a[up], self.m[up], self.u[up] = a_n[improved], m_n[improved], u_n[improved]
        self.rho[up], self.d_rho[up], self.dfdu[up] = rho_n[improved], d_rho_n[improved], dfdu_n[improved]
        self.f[up], self.w[up] = f_n[improved], w_n[improved]
        self.step[up] *= 1.2
        self.step[idx[~improved]] *= 0.5
        np.maximum(self.step, op._STEP_FLOOR, out=self.step)
        self.stall[idx] += 1
        self.stall[idx[significant]] = 0
        done = idx[self.stall[idx] >= op._STALL_LIMIT]
        self.converged[done] = True
        self.active[done] = False
        self.row_iters[idx] += 1
        self.iters += 1

    def run(self, max_iters):
        while self.iters < max_iters and self.active.any():
            self.step_once()
