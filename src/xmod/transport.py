"""Entropic optimal transport: log-domain Sinkhorn scaling and its two uses,
the cross-modality instance affinity and the balanced cluster-label init."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    NonFiniteError,
    NotConvergedWarning,
    ShapeMismatchError,
    SoftLabelMatrix,
    feature_data,
    pairwise_sq_dists,
)
from .affinity import row_normalize
from .clustering import MemoryBank


@dataclass(frozen=True)
class TransportProblem:
    cost: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    lam: float
    max_iters: int = 10_000
    tol: float = 1e-9

    def __post_init__(self):
        c = np.asarray(self.cost, dtype=np.float64)
        r = np.asarray(self.row_marginal, dtype=np.float64)
        s = np.asarray(self.col_marginal, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] == 0:
            raise ShapeMismatchError("cost must be a nonempty 2-d matrix")
        if r.shape != (c.shape[0],) or s.shape != (c.shape[1],):
            raise ShapeMismatchError("marginal lengths do not match the cost matrix")
        if not np.isfinite(c).all():
            raise NonFiniteError("transport cost")
        if r.min() < 0.0 or s.min() < 0.0:
            raise ValueError("marginals must be nonnegative")
        if abs(r.sum() - 1.0) > 1e-9 or abs(s.sum() - 1.0) > 1e-9:
            raise ValueError("marginals must each sum to 1")
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        if self.max_iters < 1 or self.tol <= 0.0:
            raise ValueError("bad solver parameters")
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "row_marginal", r)
        object.__setattr__(self, "col_marginal", s)


@dataclass(frozen=True)
class TransportPlan:
    plan: np.ndarray
    iterations_used: int
    marginal_error: float
    converged: bool


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)  # rows of all -inf stay -inf below
    out = np.log(np.exp(a - m).sum(axis=axis)) + np.squeeze(m, axis=axis)
    return out


def _dual_value(f, g, log_k, r, c) -> float:
    """Entropic dual: f.r + g.c - total plan mass, to be maximized.

    The dot products run over the support: a zero-mass entry has potential
    -inf, and -inf * 0 would turn the whole dual into nan.
    """
    with np.errstate(over="ignore"):
        total = np.exp(f[:, None] + log_k + g[None, :]).sum()
    rs = r > 0.0
    cs = c > 0.0
    return float(f[rs] @ r[rs] + g[cs] @ c[cs] - total)


def _newton_step(f, g, log_k, r, c):
    """One damped Newton step on the dual potentials, or None if it fails.

    The dual Hessian is -[[diag(P1), P], [P^T, diag(P^T 1)]]; it is singular
    along the constant shift (f+s, g-s), so a tiny ridge pins the solve. A
    halving line search accepts the first step that strictly increases the
    dual, which keeps the plan mass finite at every accepted state.
    """
    plan = np.exp(f[:, None] + log_k + g[None, :])
    a = plan.sum(axis=1)
    b = plan.sum(axis=0)
    grad = np.concatenate([r - a, c - b])
    n, m = plan.shape
    h = np.zeros((n + m, n + m))
    h[:n, :n] = np.diag(a)
    h[n:, n:] = np.diag(b)
    h[:n, n:] = plan
    h[n:, :n] = plan.T
    h[np.diag_indices(n + m)] += 1e-12 * max(a.max(), b.max()) + 1e-300
    try:
        delta = np.linalg.solve(h, grad)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(delta).all():
        return None
    base = _dual_value(f, g, log_k, r, c)
    t = 1.0
    while t > 1e-8:
        f_new = f + t * delta[:n]
        g_new = g + t * delta[n:]
        val = _dual_value(f_new, g_new, log_k, r, c)
        if np.isfinite(val) and val > base:
            return f_new, g_new
        t *= 0.5
    return None


_STALL = 0.5  # a plain sweep that keeps more than this share of the error has stalled


def sinkhorn(problem: TransportProblem) -> TransportPlan:
    """Sinkhorn-Knopp scaling of the Gibbs kernel exp(-lam * cost).

    The returned plan is diag(u) exp(-lam*C) diag(v) with the potentials
    iterated in log domain, so lam*cost up to ~1e3 stays finite. Plain
    alternating sweeps contract fast on well-separated problems and slow to
    a crawl on sharply regularized ones whose unregularized optimum is nearly
    tied. So plain sweeps run until one of them shrinks the marginal error
    by less than half (``_STALL``); from then on the potentials are polished
    by damped Newton steps on the dual, which share the sweeps' fixed point.
    A Newton step whose line search fails falls back to a plain sweep, and
    the next attempt waits for more plain sweeps: one after the first
    rejection, doubling with each consecutive rejection, back to one after
    an accepted step. Stops when the worse of the two marginal L1 errors
    drops below ``tol``; if the iteration cap is hit with error above
    10*tol a NotConvergedWarning is emitted and the plan is returned anyway.
    """
    log_k = -problem.lam * problem.cost
    r = problem.row_marginal
    c = problem.col_marginal
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
        log_c = np.log(c)
    f = np.zeros_like(log_r)
    g = np.zeros_like(log_c)
    err = np.inf
    used = 0
    stalled = False
    wait = 0  # plain sweeps left before the next Newton attempt
    backoff = 1  # plain sweeps to wait after the next rejection
    while used < problem.max_iters:
        used += 1
        step = None
        if stalled and wait == 0:
            step = _newton_step(f, g, log_k, r, c)
            if step is None:
                wait, backoff = backoff, 2 * backoff
            else:
                backoff = 1
        if step is not None:
            f, g = step
        else:
            wait = max(wait - 1, 0)
            f = log_r - _logsumexp(log_k + g[None, :], axis=1)
            g = log_c - _logsumexp(log_k + f[:, None], axis=0)
        plan = np.exp(f[:, None] + log_k + g[None, :])
        if not np.isfinite(plan).all():
            raise NonFiniteError("transport plan")
        row_err = np.abs(plan.sum(axis=1) - r).sum()
        col_err = np.abs(plan.sum(axis=0) - c).sum()
        prev, err = err, max(row_err, col_err)
        stalled = stalled or err > _STALL * prev
        if err < problem.tol:
            break
    converged = err < problem.tol
    if not converged and err > 10.0 * problem.tol:
        warnings.warn(
            f"sinkhorn stopped at iteration {used} with marginal error {err:.3e}",
            NotConvergedWarning,
            stacklevel=2,
        )
    return TransportPlan(plan, used, float(err), converged)


def heterogeneous_plan(features_v, features_r, lam: float) -> TransportPlan:
    """Uniform-marginal transport between the two modalities' instances.

    Cost is squared Euclidean distance; rows carry mass 1/Nv each, columns
    1/Nr each, so every instance contributes equal total affinity.
    """
    fv = feature_data(features_v)
    fr = feature_data(features_r)
    cost = pairwise_sq_dists(fv, fr)
    nv, nr = cost.shape
    problem = TransportProblem(cost, np.full(nv, 1.0 / nv), np.full(nr, 1.0 / nr), lam)
    return sinkhorn(problem)


def heterogeneous_affinity(
    features_v, features_r, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized transport plan in both directions: (S_vr, S_rv)."""
    plan = heterogeneous_plan(features_v, features_r, lam).plan
    return row_normalize(plan, False), row_normalize(plan.T.copy(), False)


def otla_init(features_tgt, bank_src: MemoryBank, lam: float) -> SoftLabelMatrix:
    """Balanced one-hot init of the target instances onto source clusters.

    Transport between target features (uniform mass 1/N) and source
    prototypes (uniform mass 1/K), then one-hot at each row's argmax. The
    equal column marginals spread the instances across clusters instead of
    letting one prototype absorb everything.
    """
    ft = feature_data(features_tgt)
    cost = pairwise_sq_dists(ft, bank_src.prototypes)
    n, k = cost.shape
    problem = TransportProblem(
        cost, np.full(n, 1.0 / n), np.full(k, 1.0 / k), lam
    )
    plan = sinkhorn(problem).plan
    hard = np.argmax(plan, axis=1)
    probs = np.zeros((n, k), dtype=np.float64)
    probs[np.arange(n), hard] = 1.0
    return SoftLabelMatrix(probs)
