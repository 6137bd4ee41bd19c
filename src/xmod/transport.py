"""Entropic optimal transport: stabilized Sinkhorn scaling and its two uses,
the cross-modality instance affinity and the balanced cluster-label init."""
from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .core import (
    NotConvergedWarning,
    SoftLabelMatrix,
    XmodError,
    feature_data,
    finite_matrix,
    pairwise_sq_dists,
)
from .affinity import row_normalize
from .clustering import MemoryBank


def _group_index(groups, n: int, side: str) -> np.ndarray | None:
    """``groups`` as indices 0..k-1, one per group label, or None if None."""
    if groups is None:
        return None
    labels = np.asarray(groups)
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
        raise XmodError(f"{side} groups must be {n} integers, one per {side}")
    return np.unique(labels, return_inverse=True)[1].reshape(n)


@dataclass(frozen=True)
class TransportProblem:
    """Positive marginals and the log-kernel -lam * cost; the cost is not kept.

    ``row_groups`` / ``col_groups`` optionally label the rows / columns by
    group (equal labels, one group; e.g. cluster ids). They change no
    optimum: the Newton steps use the Schur side's groups as a coarse space
    for their conjugate gradient (``_newton_direction``). Kept as indices
    0..k-1.
    """

    cost: InitVar[np.ndarray]
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    lam: float
    row_groups: np.ndarray | None = None
    col_groups: np.ndarray | None = None
    log_k: np.ndarray = field(init=False)

    def __post_init__(self, cost):
        c = finite_matrix(cost, "transport cost")
        object.__setattr__(self, "row_groups", _group_index(self.row_groups, c.shape[0], "row"))
        object.__setattr__(self, "col_groups", _group_index(self.col_groups, c.shape[1], "column"))
        r = np.asarray(self.row_marginal, dtype=np.float64)
        s = np.asarray(self.col_marginal, dtype=np.float64)
        if r.shape != (c.shape[0],) or s.shape != (c.shape[1],):
            raise XmodError("marginal lengths do not match the cost matrix")
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
    """A solved plan kept in scaling form: diag(u) · kernel · diag(v).

    ``kernel`` is exp(f + log_k + g) at the potentials last absorbed into it,
    with entries below the smallest normal float64 flushed to zero; ``u`` and
    ``v`` are the scalings on top of it.
    """

    kernel: np.ndarray
    u: np.ndarray
    v: np.ndarray
    iterations_used: int
    marginal_error: float
    converged: bool

    @property
    def plan(self) -> np.ndarray:
        """The dense plan diag(u) · kernel · diag(v), built anew on each access."""
        return _scaled(self.kernel, self.u, self.v, np.empty_like(self.kernel))


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


# Kernel and plan entries below the smallest normal float64 are flushed to
# zero: they slow BLAS several-fold and carry nothing the solve resolves.
_TINY = np.finfo(np.float64).tiny


def _kernel(f, log_k, g, out) -> np.ndarray:
    """exp(f + log_k + g) written into ``out``, subnormals flushed to zero."""
    np.add(f[:, None], log_k, out=out)
    out += g[None, :]
    np.exp(out, out=out)
    out[out < _TINY] = 0.0
    return out


def _scaled(kernel, u, v, out) -> np.ndarray:
    """diag(u) · kernel · diag(v) written into ``out``."""
    np.multiply(kernel, u[:, None], out=out)
    out *= v
    return out


def _dual_value(f, g, r, c, mass) -> float:
    """Entropic dual: f.r + g.c - total plan mass, to be maximized."""
    return float(f @ r + g @ c - mass)


def _conjugate_gradient(apply_s, rhs, diag, forcing, coarse=None):
    """Solve S x = rhs by conjugate gradient preconditioned by diag(S), or by
    the two-level diag(S)^-1 + Z E^-1 Z^T when ``coarse`` is given.

    ``apply_s`` maps p to S p, and ``coarse`` maps a residual to
    Z E^-1 Z^T res, the exact solve on the coarse space Z (E = Z^T S Z).
    Without it CG starts from zero; with it, from the coarse solution
    x0 = Z E^-1 Z^T rhs, whose residual has no component in Z, so a coarse
    space that spans everything ends the solve at the first residual check.
    Stops once the residual norm is at most ``forcing`` times rhs's, or after
    as many iterations as S has unknowns. A breakdown (p^T S p <= 0 or a
    non-finite value) ends the solve at the current iterate.
    """
    if coarse is None:
        x = np.zeros_like(rhs)
        res = rhs.copy()
        z = res / diag
    else:
        x = coarse(rhs)
        res = rhs - apply_s(x)
        z = res / diag + coarse(res)
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
        if coarse is not None:
            z += coarse(res)
        rz, rz_old = res @ z, rz
        p *= rz / rz_old
        p += z
    return x


def _coarse_solve(plan, da, db, groups):
    """Z E^-1 Z^T as a map on the Schur side's vectors, or None if there are
    no groups.

    Z is the 0/1 indicator of ``groups`` (indices 0..k-1) on the plan's
    columns and S = diag(db) - P^T diag(1/da) P, so E = Z^T S Z is
    diag(group sums of db) - (PZ)^T diag(1/da) (PZ): one plan product with
    an m x k matrix, made for that product alone. Z^T x is a bincount and
    Z y an index, so the map holds no indicator.
    """
    if groups is None:
        return None
    k = int(groups.max()) + 1
    pz = plan @ np.eye(k)[groups]
    e = np.diag(np.bincount(groups, weights=db, minlength=k)) - (pz / da[:, None]).T @ pz
    e_inv = np.linalg.inv(e)

    def coarse(res):
        return (e_inv @ np.bincount(groups, weights=res, minlength=k))[groups]

    return coarse


def _newton_direction(plan, a, b, r, c, forcing, row_groups=None, col_groups=None):
    """Newton direction (df, dg) of the dual at ``plan``, by block elimination.

    The ridged system is ([[diag a, P], [P^T, diag b]] + ridge*I) [df; dg] =
    [r - a; c - b] with a = P1 and b = P^T 1, the plan's row and column
    sums, which the caller passes in. Eliminating the diagonal block
    of the longer side leaves the min(n, m)-square Schur complement: for
    n >= m, S = diag(b + ridge) - P^T diag(1/(a + ridge)) P solves for dg,
    and df follows by back-substitution. S is never formed: conjugate
    gradient applies it as two plan mat-vecs per iteration and stops once
    the residual falls to ``forcing`` times the right-hand side's norm
    (inexact Newton) or after dim(S) iterations. It is preconditioned by
    S's diagonal b + ridge - sum_i P_ij^2 / (a_i + ridge), and, when the
    Schur side (the columns for n >= m, else the rows) has groups, by the
    exact solve on the span of their indicators too (``_coarse_solve``):
    the groups' near-null block shifts, which the diagonal cannot see, are
    then solved in one k x k system, so cluster groups cut the CG several-
    fold and singleton groups solve S exactly before the first iteration.
    The subnormal entries of ``plan`` are flushed to zero in place, after a
    and b were summed; the diagonal is one pass over the plan, so no squared
    plan is stored.
    """
    ridge = 1e-12 * max(a.max(), b.max()) + 1e-300
    plan[plan < _TINY] = 0.0
    flip = plan.shape[0] < plan.shape[1]
    if flip:
        plan, a, b, r, c, col_groups = plan.T, b, a, c, r, row_groups
    da = a + ridge
    db = b + ridge
    diag = db - np.einsum("ij,ij,i->j", plan, plan, 1.0 / da)
    rhs = (c - b) - ((r - a) / da) @ plan

    def apply_s(p):
        return db * p - ((plan @ p) / da) @ plan

    y = _conjugate_gradient(apply_s, rhs, diag, forcing, _coarse_solve(plan, da, db, col_groups))
    x = ((r - a) - plan @ y) / da
    return (y, x) if flip else (x, y)


def _newton_step(f, g, kernel, u, v, r, c, a, b, plan, forcing, groups=(None, None)):
    """One damped Newton step on the dual potentials f + log u and g + log v,
    or None if it fails.

    a and b are the plan's row and column sums at (u, v). The step builds
    that plan once, diag(u) K diag(v), into ``plan`` (a multiply, no
    ``exp``) for the direction (``_newton_direction``, with the problem's
    (row, column) ``groups``). The dual Hessian is
    -[[diag(P1), P], [P^T, diag(P^T 1)]]; it is singular along the constant
    shift (f+s, g-s), so a tiny ridge pins the solve, which conjugate
    gradient runs to relative residual ``forcing``. A halving line search
    accepts the first step that strictly increases the dual, which keeps the
    plan mass finite at every accepted state. A trial moves the scalings to
    u e^{t df} and v e^{t dg}, and its mass is one kernel mat-vec and one dot
    product, so no trial writes an N x M array. Returns the accepted
    scalings and K v at them.
    """
    _scaled(kernel, u, v, plan)
    pot_f = f + np.log(u)
    pot_g = g + np.log(v)
    base = _dual_value(pot_f, pot_g, r, c, a.sum())
    df, dg = _newton_direction(plan, a, b, r, c, forcing, *groups)
    if not (np.isfinite(df).all() and np.isfinite(dg).all()):
        return None
    t = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        while t > 1e-8:
            u_new = u * np.exp(t * df)
            v_new = v * np.exp(t * dg)
            kv = kernel @ v_new
            val = _dual_value(pot_f + t * df, pot_g + t * dg, r, c, u_new @ kv)
            if np.isfinite(val) and val > base:
                return u_new, v_new, kv
            t *= 0.5
    return None


def _masses(u, v, kv, ktu, r, c):
    """The plan's row and column sums u * Kv and v * K^T u, and the worse of
    the two marginal L1 errors."""
    row_mass = u * kv
    col_mass = v * ktu
    if not (np.isfinite(row_mass).all() and np.isfinite(col_mass).all()):
        raise XmodError("non-finite value in transport plan")
    err = max(np.abs(row_mass - r).sum(), np.abs(col_mass - c).sum())
    return row_mass, col_mass, err


_STALL = 0.5  # a plain sweep that keeps more than this share of the error has stalled
_MAX_ITERS = 10_000  # iteration cap: plain sweeps and Newton steps together
_TOL = 1e-9  # converged once both marginal L1 errors fall below this
_ABSORB = 1e50  # a scaling outside [1/_ABSORB, _ABSORB] is folded into the kernel


def _absorb(f, g, u, v, log_k, kernel):
    """The potentials f + log u and g + log v, with ``kernel`` rebuilt at
    them, so the plan is the same with both scalings at one."""
    f = f + np.log(u)
    g = g + np.log(v)
    _kernel(f, log_k, g, kernel)
    return f, g


def sinkhorn(problem: TransportProblem) -> TransportPlan:
    """Sinkhorn-Knopp scaling of the Gibbs kernel exp(-lam * cost), stabilized.

    The plan is diag(u) K diag(v) with K = exp(f + log_k + g). The first
    iteration is one log-domain sweep from zero potentials; it gives f and g,
    and K is built from them once. Every later plain sweep is u = r / (K v),
    v = c / (K^T u): two kernel mat-vecs, which also give the plan's row and
    column sums, so no sweep writes an N x M array. When a scaling leaves
    [1e-50, 1e50] (``_ABSORB``), the next iteration first absorbs log u and
    log v into f and g, rebuilds K (one ``exp``) and restarts the scalings
    at one, so large lam*cost stays finite.
    Plain alternating sweeps contract fast on well-separated problems and
    slow to a crawl on sharply regularized ones whose unregularized optimum
    is nearly tied. So plain sweeps run until one of them shrinks the
    marginal error by less than half (``_STALL``); from then on the
    potentials are polished by damped Newton steps on the dual, which share
    the sweeps' fixed point. Each Newton step builds the plan at the current
    scalings once and solves a min(n, m)-unknown system by conjugate
    gradient, to a relative residual of min(0.1, error) (``_newton_step``),
    so a K-column OTLA init solves K-unknown systems however many rows it
    has; its line search costs one kernel mat-vec per trial. The problem's
    groups on that side (``TransportProblem.row_groups`` / ``col_groups``)
    give the CG a coarse space (``_newton_direction``): cluster groups cut
    the hard plan solve's CG several-fold, and the OTLA init's singleton
    prototype groups make each K-unknown solve exact.
    A Newton step whose line search fails falls back to a plain sweep, and
    the next attempt waits for more plain sweeps: one after the first
    rejection, doubling with each consecutive rejection, back to one after
    an accepted step. Stops when the worse of the two marginal L1 errors
    drops below ``_TOL``; if ``_MAX_ITERS`` is hit with error above
    10*_TOL a NotConvergedWarning is emitted and the plan is returned anyway.
    Besides ``log_k`` the solve holds one N x M array, the kernel, which the
    first sweep also works in; the first Newton step adds a second, the
    plan it builds for its direction.
    """
    log_k = problem.log_k
    r = problem.row_marginal
    c = problem.col_marginal
    groups = (problem.row_groups, problem.col_groups)
    kernel = np.empty_like(log_k)
    f = _log_scaling(log_k, np.zeros_like(c), np.log(r), 1, kernel)
    g = _log_scaling(log_k, f, np.log(c), 0, kernel)
    _kernel(f, log_k, g, kernel)
    u = np.ones_like(r)
    v = np.ones_like(c)
    kv = kernel @ v
    row_mass, col_mass, err = _masses(u, v, kv, u @ kernel, r, c)
    used = 1
    plan = None  # the Newton steps' plan buffer, made at the first step
    stalled = False
    wait = 0  # plain sweeps left before the next Newton attempt
    backoff = 1  # plain sweeps to wait after the next rejection
    while err >= _TOL and used < _MAX_ITERS:
        used += 1
        if max(u.max(), v.max()) > _ABSORB or min(u.min(), v.min()) < 1.0 / _ABSORB:
            f, g = _absorb(f, g, u, v, log_k, kernel)
            u = np.ones_like(r)
            v = np.ones_like(c)
            kv = kernel @ v
        step = None
        if stalled and wait == 0:
            if plan is None:
                plan = np.empty_like(kernel)
            step = _newton_step(f, g, kernel, u, v, r, c, row_mass, col_mass, plan,
                                min(0.1, err), groups)
            if step is None:
                wait, backoff = backoff, 2 * backoff
            else:
                backoff = 1
        if step is not None:
            u, v, kv = step
            ktu = u @ kernel
        else:
            wait = max(wait - 1, 0)
            u = r / kv
            ktu = u @ kernel
            v = c / ktu
            kv = kernel @ v
        prev = err
        row_mass, col_mass, err = _masses(u, v, kv, ktu, r, c)
        stalled = stalled or err > _STALL * prev
    converged = err < _TOL
    if not converged and err > 10.0 * _TOL:
        warnings.warn(
            f"sinkhorn stopped at iteration {used} with marginal error {err:.3e}",
            NotConvergedWarning,
            stacklevel=2,
        )
    return TransportPlan(kernel, u, v, used, float(err), converged)


def heterogeneous_plan(features_v, features_r, lam: float, row_groups=None,
                       col_groups=None) -> TransportPlan:
    """Uniform-marginal transport between two row sets.

    Cost is squared Euclidean distance; rows carry mass 1/Nv each, columns
    1/Nr each, so every row of either set contributes equal total mass.
    Optional groups of either set go to the problem (``TransportProblem``),
    checked against the row counts before the cost is built.
    """
    fv = feature_data(features_v)
    fr = feature_data(features_r)
    nv, nr = fv.shape[0], fr.shape[0]
    row_groups = _group_index(row_groups, nv, "row")
    col_groups = _group_index(col_groups, nr, "column")
    problem = TransportProblem(pairwise_sq_dists(fv, fr), np.full(nv, 1.0 / nv),
                               np.full(nr, 1.0 / nr), lam, row_groups, col_groups)
    return sinkhorn(problem)


def _row_order(a: np.ndarray, b: np.ndarray) -> int:
    """-1, 0 or 1 as a sorts before, ties with or sorts after b by (row
    count, bytes); the byte copies are freed on return."""
    key_a, key_b = (a.shape[0], a.tobytes()), (b.shape[0], b.tobytes())
    return (key_a > key_b) - (key_a < key_b)


# float64 entries in one row block of a plan factor (512 KiB)
_BLOCK = 1 << 16


def _factor(kernel, scale) -> np.ndarray:
    """Rows of kernel * scale normalized to sum 1 in float64, then rounded to
    float32 once. Built in row blocks, so no float64 array of the kernel's
    size is made; ``kernel`` may be a transposed view."""
    n, m = kernel.shape
    out = np.empty((n, m), dtype=np.float32)
    rows = max(1, _BLOCK // m)
    block = np.empty((min(rows, n), m))
    for start in range(0, n, rows):
        part = block[: min(rows, n - start)]
        np.multiply(kernel[start:start + rows], scale, out=part)
        out[start:start + rows] = row_normalize(part)
    return out


def heterogeneous_affinity(
    features_a, features_b, lam: float, groups_a=None, groups_b=None
) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized transport plan in both directions: (S_ab, S_ba), float32.

    The plan's rows are the set that sorts first by (row count, bytes), so
    swapping the arguments swaps the outputs bit for bit; byte-identical sets
    share one row-normalized plan, which is symmetric only up to rounding.
    Both factors come straight from the solve's kernel and scalings, because
    the other side's scaling cancels in a row normalization: the rows factor
    is K diag(v) and the columns factor K^T diag(u), each row-normalized in
    float64 and rounded to float32 once, a row block at a time. So no
    float64 plan or transposed copy is made; the kernel is the one float64
    N x M array alive after the solve, and it does not outlive the call.
    Optional groups of either set (its cluster ids) go with their set to the
    solve's coarse space, so the swap stays bit for bit with them too.
    """
    a, b = feature_data(features_a), feature_data(features_b)
    order = _row_order(a, b)
    rows, cols = (b, a) if order > 0 else (a, b)
    row_groups, col_groups = (groups_b, groups_a) if order > 0 else (groups_a, groups_b)
    result = heterogeneous_plan(rows, cols, lam, row_groups, col_groups)
    s_rows = _factor(result.kernel, result.v)
    if order == 0:
        return s_rows, s_rows
    s_cols = _factor(result.kernel.T, result.u)
    return (s_cols, s_rows) if order > 0 else (s_rows, s_cols)


def otla_init(features_tgt, bank_src: MemoryBank, lam: float) -> SoftLabelMatrix:
    """Balanced one-hot init of the target instances onto source clusters.

    Transport between target features (uniform mass 1/N) and source
    prototypes (uniform mass 1/K), then one-hot at each row's argmax. The
    equal column marginals spread the instances across clusters instead of
    letting one prototype absorb everything. A row's scaling u_i does not
    move its argmax, so it is taken over K_ij v_j. Each prototype is its own
    group, so with at most as many prototypes as instances every Newton
    direction solves its K-unknown Schur system exactly, in one K x K solve.
    """
    k = bank_src.prototypes.shape[0]
    result = heterogeneous_plan(features_tgt, bank_src.prototypes, lam, col_groups=np.arange(k))
    return SoftLabelMatrix.one_hot(np.argmax(result.kernel * result.v, axis=1),
                                   result.kernel.shape[1])
