"""Entropic optimal transport: log-domain Sinkhorn scaling and its two uses,
the cross-modality instance affinity and the balanced cluster-label init."""
from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field

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
    """Positive marginals and the log-kernel -lam * cost; the cost is not kept."""

    cost: InitVar[np.ndarray]
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    lam: float
    log_k: np.ndarray = field(init=False)

    def __post_init__(self, cost):
        c = np.asarray(cost, dtype=np.float64)
        r = np.asarray(self.row_marginal, dtype=np.float64)
        s = np.asarray(self.col_marginal, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] == 0:
            raise ShapeMismatchError("cost must be a nonempty 2-d matrix")
        if r.shape != (c.shape[0],) or s.shape != (c.shape[1],):
            raise ShapeMismatchError("marginal lengths do not match the cost matrix")
        if not np.isfinite(c).all():
            raise NonFiniteError("transport cost")
        if r.min() <= 0.0 or s.min() <= 0.0:
            raise ValueError("marginals must be positive")
        if abs(r.sum() - 1.0) > 1e-9 or abs(s.sum() - 1.0) > 1e-9:
            raise ValueError("marginals must each sum to 1")
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        top = max(c.max(), -c.min())
        if self.lam * top >= 2.0**52:
            raise ValueError(f"lam {self.lam:g} times the largest cost {top:g} reaches 2**52, "
                             "where the log-kernel keeps no fractional bits")
        object.__setattr__(self, "log_k", -self.lam * c)
        object.__setattr__(self, "row_marginal", r)
        object.__setattr__(self, "col_marginal", s)


@dataclass(frozen=True)
class TransportPlan:
    plan: np.ndarray
    iterations_used: int
    marginal_error: float
    converged: bool


def _log_scaling(log_k, other, log_marginal, axis: int, buf) -> np.ndarray:
    """log_marginal - logsumexp(log_k + other, axis), for a row (axis=1,
    other = g) or a column (axis=0, other = f) update of the potentials.

    Every N x M intermediate is written into ``buf``.
    """
    np.add(log_k, np.expand_dims(other, 1 - axis), out=buf)
    top = buf.max(axis=axis, keepdims=True)
    buf -= top
    np.exp(buf, out=buf)
    out = np.log(buf.sum(axis=axis))
    out += np.squeeze(top, axis=axis)
    return np.subtract(log_marginal, out, out=out)


def _gibbs(f, log_k, g, out) -> np.ndarray:
    """exp(f + log_k + g) written into ``out``."""
    np.add(f[:, None], log_k, out=out)
    out += g[None, :]
    return np.exp(out, out=out)


def _dual_value(f, g, r, c, mass) -> float:
    """Entropic dual: f.r + g.c - total plan mass, to be maximized."""
    return float(f @ r + g @ c - mass)


# Plan entries below the smallest normal float64 are flushed to zero before
# the conjugate-gradient mat-vecs: they slow BLAS several-fold and carry
# nothing the solve resolves.
_TINY = np.finfo(np.float64).tiny


def _conjugate_gradient(apply_s, rhs, diag, forcing):
    """Solve S x = rhs by conjugate gradient preconditioned by diag(S).

    ``apply_s`` maps p to S p. Starts from zero and stops once the residual
    norm is at most ``forcing`` times rhs's, or after as many iterations as
    S has unknowns. A breakdown (p^T S p <= 0 or a non-finite value) ends
    the solve at the current iterate.
    """
    x = np.zeros_like(rhs)
    res = rhs.copy()
    z = res / diag
    p = z.copy()
    rz = res @ z
    stop_sq = forcing * forcing * (rhs @ rhs)
    for _ in range(rhs.size):
        if res @ res <= stop_sq:
            break
        q = apply_s(p)
        pq = p @ q
        if not 0.0 < pq < np.inf:
            break
        alpha = rz / pq
        x += alpha * p
        res -= alpha * q
        np.divide(res, diag, out=z)
        rz, rz_old = res @ z, rz
        p *= rz / rz_old
        p += z
    return x


def _newton_direction(plan, a, b, r, c, work, forcing):
    """Newton direction (df, dg) of the dual at ``plan``, by block elimination.

    The ridged system is ([[diag a, P], [P^T, diag b]] + ridge*I) [df; dg] =
    [r - a; c - b] with a = P1 and b = P^T 1, the plan's row and column
    sums, which the caller passes in. Eliminating the diagonal block
    of the longer side leaves the min(n, m)-square Schur complement: for
    n >= m, S = diag(b + ridge) - P^T diag(1/(a + ridge)) P solves for dg,
    and df follows by back-substitution. S is never formed: conjugate
    gradient applies it as two plan mat-vecs per iteration, preconditioned
    by its diagonal b + ridge - sum_i P_ij^2 / (a_i + ridge), and stops once
    the residual falls to ``forcing`` times the right-hand side's norm
    (inexact Newton) or after dim(S) iterations. The subnormal entries of
    ``plan`` are flushed to zero in place, after a and b were summed; the
    squared plan for the diagonal is written into ``work``, a plan-sized
    buffer.
    """
    ridge = 1e-12 * max(a.max(), b.max()) + 1e-300
    plan[plan < _TINY] = 0.0
    squared = np.square(plan, out=work)
    flip = plan.shape[0] < plan.shape[1]
    if flip:
        plan, squared, a, b, r, c = plan.T, squared.T, b, a, c, r
    da = a + ridge
    db = b + ridge
    diag = db - (1.0 / da) @ squared
    rhs = (c - b) - ((r - a) / da) @ plan

    def apply_s(p):
        return db * p - ((plan @ p) / da) @ plan

    y = _conjugate_gradient(apply_s, rhs, diag, forcing)
    x = ((r - a) - plan @ y) / da
    return (y, x) if flip else (x, y)


def _newton_step(f, g, log_k, r, c, plan, a, b, buf, forcing):
    """One damped Newton step on the dual potentials, or None if it fails.

    ``plan`` is exp(f + log_k + g), the plan at the current potentials, and
    a and b are its row and column sums, so the step neither rebuilds the
    plan nor sums it along either axis again. The dual Hessian is
    -[[diag(P1), P], [P^T, diag(P^T 1)]]; it is singular
    along the constant shift (f+s, g-s), so a tiny ridge pins the solve,
    which conjugate gradient runs to relative residual ``forcing``
    (``_newton_direction``). A halving line search accepts the first step
    that strictly increases the dual, which keeps the plan mass finite at
    every accepted state. The direction flushes ``plan``'s subnormals and
    works in ``buf``, as does each trial plan, so after an accepted step
    ``buf`` holds exp(f + log_k + g) at the returned potentials.
    """
    base = _dual_value(f, g, r, c, plan.sum())
    df, dg = _newton_direction(plan, a, b, r, c, buf, forcing)
    if not (np.isfinite(df).all() and np.isfinite(dg).all()):
        return None
    t = 1.0
    while t > 1e-8:
        f_new = f + t * df
        g_new = g + t * dg
        with np.errstate(over="ignore"):
            mass = _gibbs(f_new, log_k, g_new, buf).sum()
        val = _dual_value(f_new, g_new, r, c, mass)
        if np.isfinite(val) and val > base:
            return f_new, g_new
        t *= 0.5
    return None


_STALL = 0.5  # a plain sweep that keeps more than this share of the error has stalled
_MAX_ITERS = 10_000  # iteration cap: plain sweeps and Newton steps together
_TOL = 1e-9  # converged once both marginal L1 errors fall below this


def sinkhorn(problem: TransportProblem) -> TransportPlan:
    """Sinkhorn-Knopp scaling of the Gibbs kernel exp(-lam * cost).

    The returned plan is diag(u) exp(-lam*C) diag(v) with the potentials
    iterated in log domain, so lam*cost up to ~1e3 stays finite. Plain
    alternating sweeps contract fast on well-separated problems and slow to
    a crawl on sharply regularized ones whose unregularized optimum is nearly
    tied. So plain sweeps run until one of them shrinks the marginal error
    by less than half (``_STALL``); from then on the potentials are polished
    by damped Newton steps on the dual, which share the sweeps' fixed point.
    Each Newton step starts from the plan the previous error check built and
    solves a min(n, m)-unknown system by conjugate gradient, to a relative
    residual of min(0.1, error) (``_newton_step``), so a K-column OTLA init
    solves K-unknown systems however many rows it has.
    A Newton step whose line search fails falls back to a plain sweep, and
    the next attempt waits for more plain sweeps: one after the first
    rejection, doubling with each consecutive rejection, back to one after
    an accepted step. Stops when the worse of the two marginal L1 errors
    drops below ``_TOL``; if ``_MAX_ITERS`` is hit with error above
    10*_TOL a NotConvergedWarning is emitted and the plan is returned anyway.
    Besides ``log_k`` the solve holds two N x M arrays: the plan, which is
    rebuilt from f and g after every sweep, and one buffer that every sweep
    and Newton step works in. An accepted Newton step leaves its trial plan,
    exp(f + log_k + g) at the new potentials, in the buffer, so the two swap.
    """
    log_k = problem.log_k
    r = problem.row_marginal
    c = problem.col_marginal
    log_r = np.log(r)
    log_c = np.log(c)
    f = np.zeros_like(log_r)
    g = np.zeros_like(log_c)
    buf = np.empty_like(log_k)
    plan = np.empty_like(log_k)
    err = np.inf
    used = 0
    stalled = False
    wait = 0  # plain sweeps left before the next Newton attempt
    backoff = 1  # plain sweeps to wait after the next rejection
    while used < _MAX_ITERS:
        used += 1
        step = None
        if stalled and wait == 0:
            step = _newton_step(f, g, log_k, r, c, plan, row_mass, col_mass, buf,
                                min(0.1, err))
            if step is None:
                wait, backoff = backoff, 2 * backoff
            else:
                backoff = 1
        if step is not None:
            f, g = step
            plan, buf = buf, plan  # the accepted trial plan
        else:
            wait = max(wait - 1, 0)
            f = _log_scaling(log_k, g, log_r, 1, buf)
            g = _log_scaling(log_k, f, log_c, 0, buf)
            _gibbs(f, log_k, g, plan)
        if not np.isfinite(plan).all():
            raise NonFiniteError("transport plan")
        row_mass = plan.sum(axis=1)
        col_mass = plan.sum(axis=0)
        row_err = np.abs(row_mass - r).sum()
        col_err = np.abs(col_mass - c).sum()
        prev, err = err, max(row_err, col_err)
        stalled = stalled or err > _STALL * prev
        if err < _TOL:
            break
    converged = err < _TOL
    if not converged and err > 10.0 * _TOL:
        warnings.warn(
            f"sinkhorn stopped at iteration {used} with marginal error {err:.3e}",
            NotConvergedWarning,
            stacklevel=2,
        )
    return TransportPlan(plan, used, float(err), converged)


def heterogeneous_plan(features_v, features_r, lam: float) -> TransportPlan:
    """Uniform-marginal transport between two row sets.

    Cost is squared Euclidean distance; rows carry mass 1/Nv each, columns
    1/Nr each, so every row of either set contributes equal total mass.
    """
    fv = feature_data(features_v)
    fr = feature_data(features_r)
    nv, nr = fv.shape[0], fr.shape[0]
    problem = TransportProblem(
        pairwise_sq_dists(fv, fr), np.full(nv, 1.0 / nv), np.full(nr, 1.0 / nr), lam
    )
    return sinkhorn(problem)


def _row_order(a: np.ndarray, b: np.ndarray) -> int:
    """-1, 0 or 1 as a sorts before, ties with or sorts after b by (row
    count, bytes); the byte copies are freed on return."""
    key_a, key_b = (a.shape[0], a.tobytes()), (b.shape[0], b.tobytes())
    return (key_a > key_b) - (key_a < key_b)


def heterogeneous_affinity(
    features_a, features_b, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized transport plan in both directions: (S_ab, S_ba), float32.

    The plan's rows are the set that sorts first by (row count, bytes), so
    swapping the arguments swaps the outputs bit for bit; byte-identical sets
    share one row-normalized plan, which is symmetric only up to rounding.
    Each factor is normalized in float64 and then rounded to float32 once:
    first the transposed copy, then the plan in its own array. So no more
    than two float64 plans and one float32 factor are alive after the solve,
    and none of the float64 ones outlives the call.
    """
    a, b = feature_data(features_a), feature_data(features_b)
    order = _row_order(a, b)
    rows, cols = (b, a) if order > 0 else (a, b)
    plan = heterogeneous_plan(rows, cols, lam).plan
    if order == 0:
        shared = row_normalize(plan).astype(np.float32)
        return shared, shared
    s_cols = row_normalize(plan.T.copy()).astype(np.float32)
    s_rows = row_normalize(plan).astype(np.float32)
    return (s_cols, s_rows) if order > 0 else (s_rows, s_cols)


def otla_init(features_tgt, bank_src: MemoryBank, lam: float) -> SoftLabelMatrix:
    """Balanced one-hot init of the target instances onto source clusters.

    Transport between target features (uniform mass 1/N) and source
    prototypes (uniform mass 1/K), then one-hot at each row's argmax. The
    equal column marginals spread the instances across clusters instead of
    letting one prototype absorb everything.
    """
    plan = heterogeneous_plan(features_tgt, bank_src.prototypes, lam).plan
    return SoftLabelMatrix.one_hot(np.argmax(plan, axis=1), plan.shape[1])
