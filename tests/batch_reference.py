"""The folded lockstep ascent without compaction, frozen as a reference.

Every step gathers the active rows by index, rebuilds their s s^T and its
derivative at the candidate angles, evaluates them with the optimizer's
kernels, and scatters the accepted factors, angles, POVM elements, s s^T
and its derivative, values, G = w @ T, dI/du and velocities back into
full-length arrays.  The
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
        self.s, self.ds = op._outer(self.coeffs, self.u)
        self.f, w = op._objective(op._probs(self.m, self.s, tensor))
        self.g = op._gradient(w, tensor)
        self.dfdu = op._angle_slope(self.m, self.g, self.ds)
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
        grad = (self.g[idx] * self.s[idx][:, None, :]).reshape(a.shape)
        cand = a + h[:, None, None, None] * (a @ grad) + self.v[idx]
        a_n, m_n = op._renormalize(cand)
        u_n = u + h * self.dfdu[idx] + self.vu[idx] if self.moves else u
        s_n, ds_n = op._outer(self.coeffs[idx], u_n)
        f_n, w_n = op._objective(op._probs(m_n, s_n, self.tensor))
        g_n = op._gradient(w_n, self.tensor)
        dfdu_n = op._angle_slope(m_n, g_n, ds_n)
        improved = f_n > self.f[idx]
        significant = f_n > self.f[idx] + op._STEP_TOLERANCE + 1e-7 * np.abs(f_n)
        up = idx[improved]
        self.v[idx], self.vu[idx] = 0.0, 0.0
        self.v[up] = op._MOMENTUM * (a_n[improved] - a[improved])
        self.vu[up] = op._MOMENTUM * (u_n[improved] - u[improved])
        self.a[up], self.m[up], self.u[up] = a_n[improved], m_n[improved], u_n[improved]
        self.s[up], self.ds[up], self.dfdu[up] = s_n[improved], ds_n[improved], dfdu_n[improved]
        self.f[up], self.g[up] = f_n[improved], g_n[improved]
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
