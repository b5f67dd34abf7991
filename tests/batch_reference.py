"""The lockstep ascent as it stood before compaction, frozen as a reference.

Every step gathers the active rows by index, evaluates them with kernels
that read the probabilities p, and scatters the accepted factors, POVM
elements, probabilities, values and velocities back into full-length arrays.
The candidate is a + h (a @ g) + v, written out of place, with the velocity
v = _MOMENTUM (a_new - a_old) after an accepted step and 0 after a rejected
one.  It works in real arithmetic, on real symmetric conditional-state
stacks, like the optimizer.  The optimizer's _Batch must leave every row
with the same bits as this one.
"""

import numpy as np

import qkdattack.optimizer as op


def _lam(t):
    return np.where(t > 1e-14, -t * np.log2(np.maximum(t, 1e-300)), 0.0)


def _row_groups(group):
    """(stack, first row, end row) of each run of rows sharing a conditional-state stack."""
    cuts = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), group.size]
    return [(int(group[s]), s, e) for s, e in zip(cuts, cuts[1:])]


def _probs(m, rho_xt, group):
    r, k, d = m.shape[0], m.shape[1], m.shape[-1]
    n_key, n_side = rho_xt.shape[-4:-2]
    mv = m.reshape(r * k, d * d)
    rv = rho_xt.mT.reshape(-1, n_key * n_side, d * d)
    p = np.empty((r * k, n_key * n_side))
    for grp, s, e in _row_groups(group):
        np.matmul(mv[s * k : e * k], rv[grp].T, out=p[s * k : e * k])
    return np.clip(p.reshape(r, k, n_key, n_side), 0.0, 1.0)


def _objective(p):
    n_key, n_side = p.shape[2:]
    h_k_key_side = _lam(p).sum(axis=(1, 2, 3)) / (n_key * n_side)
    h_marg = _lam(op._key_marginal(p)).sum(axis=(1, 2)) / n_side
    return h_marg - h_k_key_side


def _gradient(p, rho_xt, group):
    r, k, n_key, n_side = p.shape
    n, d = n_key * n_side, rho_xt.shape[-1]
    pbar = op._key_marginal(p)[:, :, None, :]
    ratio = (np.log2(np.maximum(p, 1e-18)) - np.log2(np.maximum(pbar, 1e-18))) / n
    ratio = ratio.reshape(r * k, n)
    rv = rho_xt.reshape(-1, n, d * d)
    g = np.empty((r * k, d * d))
    for grp, s, e in _row_groups(group):
        np.matmul(ratio[s * k : e * k], rv[grp], out=g[s * k : e * k])
    return g.reshape(r, k, d, d)


class ReferenceBatch:
    def __init__(self, factors, rho_xt, group):
        self.rho_xt = rho_xt
        self.group = group
        self.a, self.m = op._renormalize(factors)
        self.p = _probs(self.m, rho_xt, group)
        self.f = _objective(self.p)
        n = factors.shape[0]
        self.v = np.zeros_like(self.a)
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
        group = self.group[idx]
        a = self.a[idx]
        g = _gradient(self.p[idx], self.rho_xt, group)
        cand = a + self.step[idx][:, None, None, None] * (a @ g) + self.v[idx]
        a_n, m_n = op._renormalize(cand)
        p_n = _probs(m_n, self.rho_xt, group)
        f_n = _objective(p_n)
        improved = f_n > self.f[idx]
        significant = f_n > self.f[idx] + op._STEP_TOLERANCE + 1e-7 * np.abs(f_n)
        up = idx[improved]
        self.v[idx] = 0.0
        self.v[up] = op._MOMENTUM * (a_n[improved] - a[improved])
        self.a[up], self.m[up] = a_n[improved], m_n[improved]
        self.p[up], self.f[up] = p_n[improved], f_n[improved]
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
