"""Independent re-implementations of library arithmetic, used as oracles.

The loss and metric oracles work element by element with python floats and
math.exp, so the library's vectorized code is checked against a genuinely
independent route. The Newton oracle solves the transport dual's full
Hessian directly, the route the library's block elimination replaces, and
the factored transfer step applies the four affinities one by one, the route
the library's composite operators replace. The label CSV writer and reader
go through the ``csv`` module, the route the library's split-and-join code
replaces. The k-reciprocal sets come from a full stable argsort, the Jaccard
matrix from a dense float64 product, and the distances, the Sinkhorn loop,
the transfer step and the label fusion (through a one-hot array) allocate
every temporary: the routes the library's partition, exact-count and
in-place code replaces with the same arithmetic, so those are compared bit
for bit. DBSCAN walks per-row neighbor lists with
a queue, the route the library's boolean component fronts replace, so its
labels are compared exactly. The synthetic generator draws one
Box-Muller normal at a time through the splitmix64 scalar reference, the
route the library's batch draw and vectorised center rejection replace, so
its bytes are compared too. The greedy centroid match sorts python
(distance, row, column) tuples, the route the library's stable flat argsort
replaces, so its matches are compared exactly.
"""
import csv
import io
import math
from collections import deque
from dataclasses import replace

import numpy as np

from xmod import transport
from xmod.clustering import ClusterAssignment, DistanceMetric, _pairwise_distance
from xmod.core import (
    FeatureMatrix,
    Modality,
    XmodError,
    feature_data,
    l2_normalize_rows,
)
from xmod.losses import TrainingMode
from xmod.metrics import GroundTruth
from xmod.synth import GapMode, SplitMix64

NOISE = -1


def pair_counts(pred_a, pred_b, gt_a, gt_b, include_self=True):
    """Double-loop enumeration of (hits, gt pairs, predicted pairs)."""
    hits = gt_pairs = pred_pairs = 0
    for i in range(len(pred_a)):
        for j in range(len(pred_b)):
            if not include_self and i == j:
                continue
            pred_match = (pred_a[i] == pred_b[j]
                          and pred_a[i] != NOISE and pred_b[j] != NOISE)
            gt_match = gt_a[i] == gt_b[j]
            if gt_match:
                gt_pairs += 1
            if pred_match:
                pred_pairs += 1
            if pred_match and gt_match:
                hits += 1
    return hits, gt_pairs, pred_pairs


def pair_accuracy(pred_a, pred_b, gt_a, gt_b, include_self=True):
    hits, gt_pairs, _ = pair_counts(pred_a, pred_b, gt_a, gt_b, include_self)
    return hits / gt_pairs if gt_pairs else None


def pair_recall(pred_a, pred_b, gt_a, gt_b, include_self=True):
    hits, _, pred_pairs = pair_counts(pred_a, pred_b, gt_a, gt_b, include_self)
    return hits / pred_pairs if pred_pairs else None


def metrics_report_oracle(hard, gt, include_self=True):
    """All eight metrics from the double-loop counts, in report field order."""
    intra_v, cross_r, intra_r, cross_v = (hard[n] for n in ("intra_v", "cross_r",
                                                             "intra_r", "cross_v"))
    return (
        pair_accuracy(cross_v, cross_v, gt.ids_v, gt.ids_v, include_self),
        pair_accuracy(cross_r, cross_r, gt.ids_r, gt.ids_r, include_self),
        pair_accuracy(intra_v, cross_r, gt.ids_v, gt.ids_r),
        pair_accuracy(cross_v, intra_r, gt.ids_v, gt.ids_r),
        pair_recall(cross_v, cross_v, gt.ids_v, gt.ids_v, include_self),
        pair_recall(cross_r, cross_r, gt.ids_r, gt.ids_r, include_self),
        pair_recall(intra_v, cross_r, gt.ids_v, gt.ids_r),
        pair_recall(cross_v, intra_r, gt.ids_v, gt.ids_r),
    )


def greedy_match_tuples(dist):
    """Greedy matching from a sort of (distance, row, column) tuples: pairs
    without replacement, then each leftover row's first nearest column."""
    n_r, n_c = dist.shape
    triples = sorted((float(dist[i, j]), i, j) for i in range(n_r) for j in range(n_c))
    match = [-1] * n_r
    used = set()
    for _, i, j in triples:
        if match[i] == -1 and j not in used:
            match[i] = j
            used.add(j)
    for i in range(n_r):
        if match[i] == -1:
            match[i] = min(range(n_c), key=lambda j: dist[i, j])
    return match


def softmax_row(feature, prototypes, tau):
    logits = [
        sum(float(feature[d]) * float(p[d]) for d in range(len(feature))) / tau
        for p in prototypes
    ]
    top = max(logits)
    exps = [math.exp(v - top) for v in logits]
    z = sum(exps)
    return [e / z for e in exps]

def cross_entropy_row(pred, target):
    return -sum(float(t) * math.log(max(float(p), 1e-30))
                for p, t in zip(pred, target))

def mean_ce(features, prototypes, tau, targets):
    vals = [
        cross_entropy_row(softmax_row(f, prototypes, tau), t)
        for f, t in zip(features, targets)
    ]
    return sum(vals) / len(vals)


def loss_report_oracle(batch, banks, tau, sharpen_divisor):
    """All five components, assembled term by term from scalar arithmetic."""
    fv, fr, y = batch
    m_v, m_r = banks.intra_v.prototypes, banks.intra_r.prototypes
    m_sh, m_ic = banks.shared.prototypes, banks.intra_cross.prototypes

    if banks.mode is TrainingMode.V_BASED:
        l_im_v = mean_ce(fv, m_v, tau, y["intra_v"])
        l_im_r = (mean_ce(fr, m_r, tau, y["intra_r"])
                  + mean_ce(fr, m_ic, tau, y["cross_r"]))
        l_cm = (mean_ce(fv, m_sh, tau, y["intra_v"])
                + mean_ce(fr, m_sh, tau, y["cross_r"]))
        sharp_bank = m_v
    else:
        l_im_v = (mean_ce(fr, m_v, tau, y["intra_v"])
                  + mean_ce(fv, m_ic, tau, y["cross_v"]))
        l_im_r = mean_ce(fr, m_r, tau, y["intra_r"])
        l_cm = (mean_ce(fv, m_sh, tau, y["cross_v"])
                + mean_ce(fr, m_sh, tau, y["intra_r"]))
        sharp_bank = m_r

    def oclr_one(features):
        total = 0.0
        for f in features:
            base = softmax_row(f, m_sh, tau)
            t1 = softmax_row(f, sharp_bank, tau / sharpen_divisor)
            t2 = softmax_row(f, m_ic, tau / sharpen_divisor)
            total += cross_entropy_row(base, t1) + cross_entropy_row(base, t2)
        return total / len(features)

    l_oclr_v = oclr_one(fv)
    l_oclr_r = oclr_one(fr)
    return l_im_v, l_im_r, l_cm, l_oclr_v, l_oclr_r


def newton_direction_dense(plan, r, c):
    """Newton direction (df, dg) of the entropic transport dual at ``plan``.

    Builds the dense (n+m)-square Hessian [[diag a, P], [P^T, diag b]] with
    a = P1 and b = P^T 1, adds the solver's ridge 1e-12 * max(a, b) + 1e-300
    on the diagonal, and solves it against the marginal residual [r - a; c - b].
    """
    a = plan.sum(axis=1)
    b = plan.sum(axis=0)
    n, m = plan.shape
    h = np.zeros((n + m, n + m))
    h[:n, :n] = np.diag(a)
    h[n:, n:] = np.diag(b)
    h[:n, n:] = plan
    h[n:, :n] = plan.T
    h[np.diag_indices(n + m)] += 1e-12 * max(a.max(), b.max()) + 1e-300
    delta = np.linalg.solve(h, np.concatenate([r - a, c - b]))
    return delta[:n], delta[n:]


def transfer_step_factored(state, aff, alpha):
    """One transfer step with the four affinities applied as separate products.

    Each side is pulled across its transport affinity and toward its own init,
    z = (1 - alpha) * he @ other + alpha * init, then smoothed as
    0.5 * (ho @ z + z); values below 1e-12 are zeroed and rows renormalized.
    intra is pulled from the previous cross labels, cross from the new intra.
    Returns the state advanced by one step with epsilon the larger L1 update.
    """

    def clamp_renorm(probs):
        out = np.where(probs < 1e-12, 0.0, probs)
        return out / out.sum(axis=1, keepdims=True)

    z = (1.0 - alpha) * (aff.he_st @ state.cross) + alpha * state.intra0
    intra_new = clamp_renorm(0.5 * (aff.ho_src @ z + z))
    w = (1.0 - alpha) * (aff.he_ts @ intra_new) + alpha * state.cross0
    cross_new = clamp_renorm(0.5 * (aff.ho_tgt @ w + w))
    eps = max(
        float(np.abs(intra_new - state.intra).sum()),
        float(np.abs(cross_new - state.cross).sum()),
    )
    return replace(state, intra=intra_new, cross=cross_new, t=state.t + 1, epsilon=eps)


def transfer_steps(state, aff, cfg):
    """The float64 transfer loop: transfer_step_factored over aff's graphs and
    factors until the update falls to cfg.epsilon0 or cfg.max_transfer_iters
    steps have run. Returns (last state, the state before it)."""
    before = state
    while state.epsilon > cfg.epsilon0 and state.t < cfg.max_transfer_iters:
        before, state = state, transfer_step_factored(state, aff, cfg.alpha)
    return state, before


def transfer_fixed_point(aff, anchors, alpha):
    """Where the transfer loop ends if its 1e-12 clamp never fires.

    Without the clamp one step sets intra <- (1 - alpha) * A_st @ cross + b_s,
    then cross <- (1 - alpha) * A_ts @ intra + b_t from that new intra, with
    the composites A = 0.5 * (ho + I) @ he rebuilt here from aff's four
    affinities and (b_s, b_t) the anchors. Its fixed point is that of
    x <- (1 - alpha) * M @ x + b on the stacked labels x = [intra; cross],
    with M = [[0, A_st], [A_ts, 0]] and b the stacked anchors, so x* solves
    (I - (1 - alpha) * M) x* = b: one dense solve for all K columns. Returns
    (intra*, cross*).
    """
    ns, nt = aff.he_st.shape
    assert ns <= 300 and nt <= 300, "a dense (ns + nt)-square solve"
    system = np.eye(ns + nt)
    system[:ns, ns:] -= (1.0 - alpha) * (0.5 * (aff.ho_src + np.eye(ns)) @ aff.he_st)
    system[ns:, :ns] -= (1.0 - alpha) * (0.5 * (aff.ho_tgt + np.eye(nt)) @ aff.he_ts)
    x = np.linalg.solve(system, np.vstack(anchors))
    return x[:ns], x[ns:]


def write_labels_csv(path, hard, soft=None):
    """Label CSV through ``csv.writer``: ``index,hard_label`` plus ``p0..``
    columns holding ``repr(float(v))``, LF line ends."""
    hard = np.asarray(hard)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["index", "hard_label"]
    if soft is not None:
        soft = np.asarray(soft, dtype=np.float64)
        header += [f"p{k}" for k in range(soft.shape[1])]
    writer.writerow(header)
    for i, h in enumerate(hard):
        row = [i, int(h)]
        if soft is not None:
            row += [repr(float(v)) for v in soft[i]]
        writer.writerow(row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_labels_csv(path):
    """(hard, soft-or-None) of a label CSV read through ``csv.reader``, with
    the library's checks: header and soft column names, field count, integer
    index and label, contiguous index, numeric and finite soft values; blank
    rows skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["index", "hard_label"]:
            raise XmodError(f"{path}: expected an index,hard_label header")
        if header[2:] != [f"p{k}" for k in range(len(header) - 2)]:
            raise XmodError(
                f"{path}: expected soft columns p0..p{len(header) - 3} after hard_label"
            )
        hard, soft = [], []
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise XmodError(
                    f"{path}: line {line} has {len(row)} fields, the header {len(header)}"
                )
            try:
                index, label = int(row[0]), int(row[1])
            except ValueError:
                raise XmodError(
                    f"{path}: line {line} needs an integer index and hard_label"
                ) from None
            if index != len(hard):
                raise XmodError(f"{path}: non-contiguous index at line {line}")
            hard.append(label)
            if row[2:]:
                try:
                    values = [float(v) for v in row[2:]]
                except ValueError:
                    raise XmodError(
                        f"{path}: non-numeric soft label at line {line}"
                    ) from None
                if not all(math.isfinite(v) for v in values):
                    raise XmodError(f"{path}: non-finite soft label at line {line}")
                soft.append(values)
    if not hard:
        raise XmodError(f"{path}: no label rows")
    return (np.asarray(hard, dtype=np.int64),
            np.asarray(soft, dtype=np.float64) if soft else None)


def pairwise_sq_dists_broadcast(a, b):
    """|a_i|² + |b_j|² − 2·a_i·b_j by broadcasting, floored at 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


def _clamp_renorm_allocating(probs):
    """Entries below 1e-12 zeroed and rows rescaled to sum 1, in a new array."""
    out = np.where(probs < 1e-12, 0.0, probs)
    return out / out.sum(axis=1, keepdims=True)


def transfer_step_allocating(state, aff, alpha, anchors):
    """The library's composite transfer step with a fresh array per operation:
    the float32 composite times the labels rounded to float32, the rest in
    float64; cross is pulled from the intra labels just computed."""

    def pull(a, other):
        return (1.0 - alpha) * (a @ other.astype(np.float32)).astype(np.float64)

    intra_new = _clamp_renorm_allocating(pull(aff.a_st, state.cross) + anchors[0])
    cross_new = _clamp_renorm_allocating(pull(aff.a_ts, intra_new) + anchors[1])
    eps = max(float(np.abs(intra_new - state.intra).sum()),
              float(np.abs(cross_new - state.cross).sum()))
    return replace(state, intra=intra_new, cross=cross_new, t=state.t + 1, epsilon=eps)


def fuse_labels_allocating(state, beta):
    """fuse_labels through a one-hot array: each matrix becomes
    clamp_renorm(beta * one_hot(argmax) + (1 - beta) * soft), with soft the
    row-renormalized matrix, as two float64 arrays."""

    def fuse(probs):
        soft = probs / probs.sum(axis=1, keepdims=True)
        hard = np.zeros_like(soft)
        hard[np.arange(soft.shape[0]), np.argmax(soft, axis=1)] = 1.0
        return _clamp_renorm_allocating(beta * hard + (1.0 - beta) * soft)

    return fuse(state.intra), fuse(state.cross)


def k_reciprocal_sets_argsort(features, kappa):
    """Mutual k-reciprocal sets from a full stable argsort of each row.

    Self is forced to rank 0 (diagonal -1), the other kappa - 1 slots go by
    squared distance with ties broken toward the lower index.
    """
    data = feature_data(features)
    n = data.shape[0]
    k = min(kappa, n)
    d = pairwise_sq_dists_broadcast(data, data)
    np.fill_diagonal(d, -1.0)
    order = np.argsort(d, axis=1, kind="stable")
    member = np.zeros((n, n), dtype=bool)
    member[np.repeat(np.arange(n), k), order[:, :k].ravel()] = True
    return member & member.T


def jaccard_affinity_dense(mask):
    """|R(i) n R(j)| / |R(i) u R(j)| from a float64 0/1 membership product,
    for the sets in the rows of a boolean mask."""
    member = np.where(mask, 1.0, 0.0)
    inter = member @ member.T
    sizes = member.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    return inter / union


def dbscan_queue(features, eps, min_samples,
                 metric=DistanceMetric.EUCLIDEAN, kappa=30):
    """DBSCAN by a queue BFS over per-row neighbor index lists.

    Points are scanned in index order; cluster ids are assigned in order of
    first core-point discovery, and a border point reachable from several
    clusters stays with the first one that claimed it.
    """
    dist = _pairwise_distance(features, metric, kappa)
    n = dist.shape[0]
    neighborhoods = [np.flatnonzero(row) for row in dist <= eps]
    labels = np.full(n, NOISE, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    cid = 0
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        seeds = neighborhoods[i]
        if seeds.size < min_samples:
            continue  # stays noise unless a later cluster claims it as border
        labels[i] = cid
        queue = deque(seeds)
        while queue:
            j = queue.popleft()
            if not visited[j]:
                visited[j] = True
                reach = neighborhoods[j]
                if reach.size >= min_samples:
                    queue.extend(reach)
            if labels[j] == NOISE:
                labels[j] = cid
        cid += 1
    return ClusterAssignment(labels, cid)


def _logsumexp(a, axis):
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.log(np.exp(a - m).sum(axis=axis)) + np.squeeze(m, axis=axis)


def _kernel_allocating(f, log_k, g):
    kernel = np.exp(f[:, None] + log_k + g[None, :])
    kernel[kernel < transport._TINY] = 0.0
    return kernel


def _newton_step_allocating(f, g, kernel, u, v, r, c, a, b, forcing, groups):
    """The library's damped Newton step on f + log u and g + log v, with the
    step's plan and every trial scaling allocated anew.

    The direction itself comes from ``transport._newton_direction``, with
    the problem's (row, column) ``groups``, which ``newton_direction_dense``
    checks on its own.
    """
    plan = kernel * u[:, None] * v
    pot_f, pot_g = f + np.log(u), g + np.log(v)
    base = transport._dual_value(pot_f, pot_g, r, c, a.sum())
    df, dg = transport._newton_direction(plan, a, b, r, c, forcing, *groups)
    if not (np.isfinite(df).all() and np.isfinite(dg).all()):
        return None
    t = 1.0
    while t > 1e-8:
        with np.errstate(over="ignore", invalid="ignore"):
            u_new, v_new = u * np.exp(t * df), v * np.exp(t * dg)
            kv = kernel @ v_new
            val = transport._dual_value(pot_f + t * df, pot_g + t * dg, r, c, u_new @ kv)
        if np.isfinite(val) and val > base:
            return u_new, v_new, kv
        t *= 0.5
    return None


def sinkhorn_allocating(problem):
    """The TransportPlan of the library's stabilized Sinkhorn schedule,
    written with a fresh array for the first log-domain sweep, every kernel
    and every Newton plan: scaling sweeps until one keeps more than half of
    the error, then Newton steps with the same back-off on rejection, and
    the scalings absorbed into the kernel when one leaves [1e-50, 1e50]."""
    log_k = problem.log_k
    r, c = problem.row_marginal, problem.col_marginal
    g = np.zeros_like(c)
    f = np.log(r) - _logsumexp(log_k + g[None, :], axis=1)
    g = np.log(c) - _logsumexp(log_k + f[:, None], axis=0)
    kernel = _kernel_allocating(f, log_k, g)
    u, v = np.ones_like(r), np.ones_like(c)
    kv, ktu = kernel @ v, u @ kernel
    err, used, stalled, wait, backoff = np.inf, 1, False, 0, 1
    while True:
        row_mass, col_mass = u * kv, v * ktu
        if not (np.isfinite(row_mass).all() and np.isfinite(col_mass).all()):
            raise XmodError("non-finite value in transport plan")
        prev, err = err, max(np.abs(row_mass - r).sum(), np.abs(col_mass - c).sum())
        stalled = stalled or err > 0.5 * prev
        if err < transport._TOL or used >= transport._MAX_ITERS:
            break
        used += 1
        if min(u.min(), v.min()) < 1e-50 or max(u.max(), v.max()) > 1e50:
            f, g = f + np.log(u), g + np.log(v)
            kernel = _kernel_allocating(f, log_k, g)
            u, v = np.ones_like(r), np.ones_like(c)
            kv = kernel @ v
        step = None
        if stalled and wait == 0:
            step = _newton_step_allocating(f, g, kernel, u, v, r, c, row_mass, col_mass,
                                           min(0.1, err), (problem.row_groups, problem.col_groups))
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
    return transport.TransportPlan(kernel, u, v, used, float(err), err < transport._TOL)


def _gibbs(f, log_k, g, out):
    np.add(f[:, None], log_k, out=out)
    out += g[None, :]
    return np.exp(out, out=out)


def _newton_step_log_domain(f, g, log_k, r, c, plan, a, b, buf, forcing):
    base = transport._dual_value(f, g, r, c, plan.sum())
    df, dg = transport._newton_direction(plan, a, b, r, c, forcing)
    if not (np.isfinite(df).all() and np.isfinite(dg).all()):
        return None
    t = 1.0
    while t > 1e-8:
        f_new = f + t * df
        g_new = g + t * dg
        with np.errstate(over="ignore"):
            mass = _gibbs(f_new, log_k, g_new, buf).sum()
        val = transport._dual_value(f_new, g_new, r, c, mass)
        if np.isfinite(val) and val > base:
            return f_new, g_new
        t *= 0.5
    return None


def sinkhorn_log_domain(problem):
    """The log-domain Sinkhorn loop that the scaling form replaced, as the
    independent reference for its plans: every sweep is two full-matrix
    logsumexps and the plan exp(f + log_k + g) is rebuilt after each one,
    and every Newton line-search trial is a full-plan ``exp``. The stall,
    Newton and back-off schedule is the library's. Returns a TransportPlan
    whose kernel is that plan, with unit scalings."""
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
    wait = 0
    backoff = 1
    while used < transport._MAX_ITERS:
        used += 1
        step = None
        if stalled and wait == 0:
            step = _newton_step_log_domain(f, g, log_k, r, c, plan, row_mass, col_mass, buf,
                                           min(0.1, err))
            if step is None:
                wait, backoff = backoff, 2 * backoff
            else:
                backoff = 1
        if step is not None:
            f, g = step
            plan, buf = buf, plan
        else:
            wait = max(wait - 1, 0)
            f = transport._log_scaling(log_k, g, log_r, 1, buf)
            g = transport._log_scaling(log_k, f, log_c, 0, buf)
            _gibbs(f, log_k, g, plan)
        if not np.isfinite(plan).all():
            raise XmodError("non-finite value in transport plan")
        row_mass = plan.sum(axis=1)
        col_mass = plan.sum(axis=0)
        row_err = np.abs(row_mass - r).sum()
        col_err = np.abs(col_mass - c).sum()
        prev, err = err, max(row_err, col_err)
        stalled = stalled or err > 0.5 * prev
        if err < transport._TOL:
            break
    return transport.TransportPlan(plan, np.ones_like(r), np.ones_like(c), used, float(err),
                                   err < transport._TOL)


def _scalar_normal_vector(rng, dim):
    return np.array([rng.normal() for _ in range(dim)], dtype=np.float64)


def _unit(v):
    return v / np.linalg.norm(v)


def _draw_centers_scalar(rng, spec, max_tries=1000):
    centers = []
    for g in range(spec.num_ids):
        for _ in range(max_tries):
            candidate = _unit(_scalar_normal_vector(rng, spec.dim))
            if all(
                np.linalg.norm(candidate - c) >= spec.id_separation for c in centers
            ):
                centers.append(candidate)
                break
        else:
            raise XmodError(
                f"could not place center {g} of {spec.num_ids} in dim {spec.dim} "
                f"with separation {spec.id_separation} after {max_tries} tries"
            )
    return np.stack(centers)


def generate_scalar(spec):
    """``synth.generate`` drawing one ``SplitMix64.normal()`` at a time and
    testing each candidate center against each placed one with
    ``np.linalg.norm``, in the documented draw order."""
    rng = SplitMix64(spec.seed)
    centers = _draw_centers_scalar(rng, spec)

    n_offsets = 1 if spec.gap_mode is GapMode.SHARED_OFFSET else spec.num_ids
    offsets = np.stack(
        [spec.modality_gap * _unit(_scalar_normal_vector(rng, spec.dim))
         for _ in range(n_offsets)]
    )

    def blob(gap_row):
        rows = []
        per_id = spec.per_id_v if gap_row is None else spec.per_id_r
        for g in range(spec.num_ids):
            base = centers[g] if gap_row is None else centers[g] + offsets[gap_row(g)]
            for _ in range(per_id):
                rows.append(base + spec.blob_std * _scalar_normal_vector(rng, spec.dim))
        return l2_normalize_rows(np.stack(rows))

    visible = blob(None)
    infrared = blob((lambda g: 0) if spec.gap_mode is GapMode.SHARED_OFFSET else (lambda g: g))

    ids_v = np.repeat(np.arange(spec.num_ids, dtype=np.int64), spec.per_id_v)
    ids_r = np.repeat(np.arange(spec.num_ids, dtype=np.int64), spec.per_id_r)
    return (
        FeatureMatrix(visible, Modality.VISIBLE),
        FeatureMatrix(infrared, Modality.INFRARED),
        GroundTruth(ids_v, ids_r),
    )
