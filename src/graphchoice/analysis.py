"""Deterministic analysis of the reinforced dynamics.

Everything here works with the noiseless preference weights
f_i(x) = (mu_i * x_i)**alpha on the interior of the probability simplex:

  * the limiting transition kernel and its stationary distribution, which has
    a closed form thanks to local (detailed) balance on symmetric graphs;
  * the potential Psi(x) = (1/(2*alpha)) * sum_ij A_ij f_i f_j whose local
    maxima are the stable rest points, with analytic gradient
    phi_i = f_i * sum_{j in N(i)} f_j / x_i;
  * the growth-rate ODE zdot_i = z_i (phi_i - sum_j z_j phi_j) and its
    time-rescaled companion xdot_i = x_i phi_i / sum_k x_k phi_k - x_i, whose
    rest points solve the fixed-point equation pi = h(pi) with
    h_i = f_i sum_{N(i)} f_j / sum_k f_k sum_{N(k)} f_l;
  * closed forms for the complete-graph case (exponent alpha in (0,1)) and
    the strong-exploration expansion around the uniform distribution;
  * the eigenvalue floor eps/m_i of the move-indicator covariance restricted
    to the zero-sum hyperplane, which quantifies how much exploration noise
    survives the simplex constraint.

Powers are evaluated in log space wherever a normalization lets the shift
cancel, so arbitrarily large exponents are safe there; the potential itself
is not shift-invariant and is intended for moderate exponents.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph

_DT_MIN = 1e-6  # RK4 step-halving floor
_PERTURB_TOL = 1e-13  # epsilon_perturbation stops below this residual,
_PERTURB_ITERS = 20_000  # or after this many iterations


def _as_interior(x, m: int | None = None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a probability vector")
    if m is not None and x.size != m:
        raise ValueError(f"vector length {x.size} != node count {m}")
    if not (0.0 < x.min() and x.max() < np.inf):  # False on NaN too
        raise ValueError("boundary point rejected: all components must be "
                         "positive and finite")
    return x


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < np.inf:  # False on NaN too
        raise ValueError("alpha must be positive and finite")
    return float(alpha)


def _as_rewards(mu, m: int) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (m,):
        raise ValueError(f"reward vector length {mu.size} != node count {m}")
    if not (0.0 < mu.min() and mu.max() < np.inf):
        raise ValueError("rewards must be positive and finite")
    return mu


def pref_weights(x, mu, alpha: float) -> np.ndarray:
    """f_i(x) = (mu_i x_i)**alpha, evaluated directly (moderate alpha)."""
    return (np.asarray(mu, float) * np.asarray(x, float)) ** alpha


def limit_kernel(x, g: Graph, mu, alpha: float) -> np.ndarray:
    """Row-stochastic limit kernel P with P_ij proportional to f_j on N(i).

    Log-space row shifts make any positive alpha safe; rows sum to one and
    vanish off the neighborhood pattern.
    """
    alpha = _check_alpha(alpha)
    x = _as_interior(x, g.m)
    mu = _as_rewards(mu, g.m)
    logf = alpha * (np.log(mu) + np.log(x))
    rows = np.where(g.adjacency_bool, logf[None, :], -np.inf)
    rowmax = rows.max(axis=1)
    w = np.exp(rows - rowmax[:, None])
    return w / w.sum(axis=1)[:, None]


def stationary_closed_form(x, g: Graph, mu, alpha: float) -> np.ndarray:
    """Stationary distribution of the limit kernel, via local balance.

    pi_i is proportional to f_i * sum_{k in N(i)} f_k; the identity
    pi_i P_ij == pi_j P_ji holds on every edge because both sides reduce to
    f_i f_j / normalizer on symmetric graphs.
    """
    alpha = _check_alpha(alpha)
    x = _as_interior(x, g.m)
    mu = _as_rewards(mu, g.m)
    logf = alpha * (np.log(mu) + np.log(x))
    gbar = np.exp(logf - logf.max())
    w = gbar * (g.adjacency_bool @ gbar)
    return w / w.sum()


def local_balance_violation(x, g: Graph, mu, alpha: float) -> float:
    """max_edges |pi_i P_ij - pi_j P_ji| for the closed-form pi."""
    pi = stationary_closed_form(x, g, mu, alpha)
    P = limit_kernel(x, g, mu, alpha)
    flow = pi[:, None] * P
    return float(np.abs(flow - flow.T).max())


@dataclass
class PowerIterationResult:
    pi: np.ndarray
    iterations: int
    residual: float  # ||pi P - pi||_inf of the returned vector
    converged: bool


def stationary_power_iteration(P, tol: float = 1e-13,
                               max_iters: int = 1_000_000) -> PowerIterationResult:
    """Stationary distribution by plain power iteration from the uniform start.

    Independent of the closed form above: only repeated application of the
    kernel. Non-convergence within max_iters is reported, not raised.
    """
    P = np.asarray(P, dtype=float)
    m = P.shape[0]
    if P.shape != (m, m):
        raise ValueError("kernel must be square")
    pi = np.full(m, 1.0 / m)
    res = np.inf
    iters = 0
    while iters < max_iters:
        nxt = pi @ P
        nxt /= nxt.sum()
        res = float(np.abs(nxt - pi).max())
        pi = nxt
        iters += 1
        if res < tol:
            break
    final_res = float(np.abs(pi @ P - pi).max())
    return PowerIterationResult(pi=pi, iterations=iters, residual=final_res,
                                converged=res < tol)


@dataclass
class PotentialReport:
    """Potential value, its analytic gradient, and the dissipation form.

    `lyapunov` is sum_i x_i (phi_i - phibar)^2 with phibar = sum_j x_j phi_j:
    the instantaneous growth rate of the potential along the dynamics, a sum
    of squares and therefore nonnegative.
    """

    value: float
    gradient: np.ndarray
    lyapunov: float


def _gradient(x: np.ndarray, g: Graph, mu, alpha: float) -> np.ndarray:
    """phi_i = f_i * sum_{j in N(i)} f_j / x_i at a validated interior x."""
    f = pref_weights(x, mu, alpha)
    return f * (g.adjacency_bool @ f) / x


def potential(x, g: Graph, mu, alpha: float) -> PotentialReport:
    alpha = _check_alpha(alpha)
    x = _as_interior(x, g.m)
    mu = _as_rewards(mu, g.m)
    grad = _gradient(x, g, mu, alpha)
    mean = float(x @ grad)
    lyap = float(x @ (grad - mean) ** 2)
    return PotentialReport(value=potential_value(x, g, mu, alpha),
                           gradient=grad, lyapunov=lyap)


def potential_value(x, g: Graph, mu, alpha: float) -> float:
    """Psi alone, usable off the simplex (finite-difference probes)."""
    f = pref_weights(np.asarray(x, float), _as_rewards(mu, g.m), alpha)
    return float(f @ (g.adjacency_bool @ f)) / (2.0 * alpha)


# The two right-hand sides run once per RK4 stage, so they validate once and
# evaluate only the gradient, not the whole potential report.
def replicator_rhs(z, g: Graph, mu, alpha: float) -> np.ndarray:
    """Growth-rate dynamics zdot_i = z_i (phi_i - sum_j z_j phi_j)."""
    alpha = _check_alpha(alpha)
    z = _as_interior(z, g.m)
    phi = _gradient(z, g, mu, alpha)
    return z * (phi - float(z @ phi))


def scaled_rhs(x, g: Graph, mu, alpha: float) -> np.ndarray:
    """Normalized-share dynamics xdot_i = x_i phi_i / sum_k x_k phi_k - x_i.

    This is also h(x) - x for the stationary fixed-point map h, so its sup
    norm doubles as the fixed-point residual.
    """
    alpha = _check_alpha(alpha)
    x = _as_interior(x, g.m)
    v = x * _gradient(x, g, mu, alpha)
    return v / v.sum() - x


def fixed_point_residual(x, g: Graph, mu, alpha: float) -> float:
    return float(np.abs(scaled_rhs(x, g, mu, alpha)).max())


def _rk4_window(rhs, z, h, steps):
    """Fixed-step RK4 with step halving when an iterate, or an intermediate
    stage point, leaves the simplex; a step below _DT_MIN raises. Returns
    (path, h, halvings). The numpy reference of `_engine.c`'s window."""
    path = np.empty((steps + 1, z.size))
    path[0] = z
    halvings = 0
    for k in range(steps):
        while True:
            try:
                k1 = rhs(z)
                k2 = rhs(z + 0.5 * h * k1)
                k3 = rhs(z + 0.5 * h * k2)
                k4 = rhs(z + h * k3)
            except ValueError:  # stage point hit the boundary
                z_new = None
            else:
                z_new = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ok = (z_new is not None and np.isfinite(z_new).all()
                  and (z_new > 0.0).all())
            if ok:
                break
            h *= 0.5
            halvings += 1
            if h < _DT_MIN:
                raise RuntimeError(f"RK4 step fell below {_DT_MIN}")
        s = z_new.sum()
        if abs(s - 1.0) > 1e-12:
            z_new = z_new / s
        z = z_new
        path[k + 1] = z
    return path, h, halvings


def _window(dynamics: str, g: Graph, mu, alpha: float, z, h, steps):
    """`_rk4_window` of the dynamics in one call to `_engine.c`, or in numpy
    where the library cannot be built or loaded; the two agree to the ulp."""
    from . import _engine  # at the first window: importing stays lean
    out = _engine.rk4_window(dynamics, g, mu, alpha, z, h, steps, _DT_MIN)
    if out is None:
        rhs = replicator_rhs if dynamics == "replicator" else scaled_rhs
        out = _rk4_window(lambda v: rhs(v, g, mu, alpha), z, h, steps)
    return out


def integrate_replicator(z0, g: Graph, mu, alpha: float, dt: float = 0.01,
                         steps: int = 1000) -> np.ndarray:
    """RK4 path of the growth-rate dynamics from an interior start.

    Returns the (steps+1, m) sequence of iterates. A step that exits the
    simplex (or blows up) is retried with half the step size; failure below
    _DT_MIN raises.
    """
    alpha = _check_alpha(alpha)
    z = _as_interior(z0, g.m).copy()
    mu = _as_rewards(mu, g.m)
    return _window("replicator", g, mu, alpha, z, float(dt), int(steps))[0]


@dataclass
class FixedPointResult:
    """An equilibrium candidate with its fixed-point residual, never thresholded."""

    point: np.ndarray
    residual: float
    classification: str  # 'interior' | 'boundary'
    alpha: float
    converged: bool
    path: np.ndarray | None = None
    windows: int = 0  # RK4 windows run
    halvings: int = 0  # RK4 step halvings over all windows


def find_fixed_point(g: Graph, mu, alpha: float, z0=None, dt: float = 0.02,
                     window: int = 400, max_windows: int = 400,
                     residual_tol: float = 1e-8, dynamics: str = "replicator",
                     return_path: bool = False) -> FixedPointResult:
    """Locate a rest point by integrating the dynamics until the residual
    of the fixed-point map drops below residual_tol.

    Which rest point is found depends on z0 (default: uniform); no claim of
    completeness is made. The step size is adapted between windows from the
    current stiffness estimate max|phi - phibar| so the slow tail near a
    corner does not crawl; each window still uses the halving RK4 core.
    The result counts the windows run and the step halvings in them.
    """
    alpha = _check_alpha(alpha)
    if z0 is None:
        z0 = np.full(g.m, 1.0 / g.m)
    z = _as_interior(z0, g.m).copy()
    mu = _as_rewards(mu, g.m)
    if dynamics not in ("replicator", "scaled"):
        raise ValueError(f"unknown dynamics {dynamics!r}")

    pieces = [z[None, :].copy()] if return_path else None
    h = float(dt)
    res = fixed_point_residual(z, g, mu, alpha)
    converged = res < residual_tol
    w = halvings = 0
    while not converged and w < max_windows:
        h_in = h
        path, h, n_half = _window(dynamics, g, mu, alpha, z, h, window)
        halvings += n_half
        z = path[-1]
        if return_path:
            pieces.append(path[1:])
        res = fixed_point_residual(z, g, mu, alpha)
        converged = res < residual_tol
        if h == h_in:  # clean window: grow the step for the slow tail
            h = min(2.0 * h, 0.25)
        w += 1

    cls = "interior" if z.min() > 1e-6 else "boundary"
    return FixedPointResult(
        point=z, residual=res, classification=cls, alpha=alpha,
        converged=converged,
        path=np.concatenate(pieces, axis=0) if return_path else None,
        windows=w, halvings=halvings)


def optimal_set(mu) -> np.ndarray:
    """0-based indices of maximal-reward nodes (ties to a relative 1e-12)."""
    mu = np.asarray(mu, dtype=float)
    return np.flatnonzero(mu >= mu.max() * (1.0 - 1e-12))


def unconstrained_fixed_point(mu, alpha: float) -> np.ndarray:
    """Complete-graph rest point for alpha in (0, 1):

        x_i = mu_i**(alpha/(1-alpha)) / sum_k mu_k**(alpha/(1-alpha)),

    evaluated in log space (scale-independent in mu by construction).
    """
    alpha = _check_alpha(alpha)
    if alpha >= 1.0:
        raise ValueError("closed form requires alpha in (0, 1)")
    mu = _as_rewards(mu, np.size(mu))
    expo = alpha / (1.0 - alpha)
    logw = expo * np.log(mu)
    w = np.exp(logw - logw.max())
    return w / w.sum()


@dataclass
class PerturbationResult:
    """Strong-exploration expansion around the uniform distribution."""

    first_order: np.ndarray
    exact: np.ndarray
    gap: float
    residual: float
    iterations: int
    converged: bool


def epsilon_perturbation(mu, alpha: float, eps: float) -> PerturbationResult:
    """First-order expansion of the complete-graph rest point near eps = 1,

        x_i ~ 1/m + (1 - eps) * (mu_i**alpha / sum_k mu_k**alpha - 1/m),

    together with the exact solution of
    x_i = (1 - eps) f_i(x)/sum f(x) + eps/m found by fixed-point iteration
    damped by 1/2 (a contraction near eps = 1), stopped once the sup-norm
    residual is below _PERTURB_TOL or after _PERTURB_ITERS steps. Both are
    returned with the gap.
    """
    alpha = _check_alpha(alpha)
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must be in [0, 1]")
    mu = _as_rewards(mu, np.size(mu))
    m = mu.size
    logw = alpha * np.log(mu)
    share = np.exp(logw - logw.max())
    share /= share.sum()
    first = 1.0 / m + (1.0 - eps) * (share - 1.0 / m)

    x = first.copy()
    res = np.inf
    it = 0
    while it < _PERTURB_ITERS:
        f = pref_weights(x, mu, alpha)
        target = (1.0 - eps) * f / f.sum() + eps / m
        res = float(np.abs(target - x).max())
        if res < _PERTURB_TOL:
            break
        x = 0.5 * x + 0.5 * target
        it += 1
    return PerturbationResult(
        first_order=first, exact=x, gap=float(np.abs(x - first).max()),
        residual=res, iterations=it, converged=res < _PERTURB_TOL)


@dataclass
class ConcentrationEntry:
    alpha: float
    fixed_point: FixedPointResult
    optimal_mass: float


def alpha_concentration_check(g: Graph, mu, alpha_list,
                              z0=None) -> list[ConcentrationEntry]:
    """Rest points along an increasing exponent ladder.

    For each alpha, integrates the dynamics from z0 (default uniform) and
    reports the mass the located rest point puts on the maximal-reward set.
    The time-rescaled dynamics is used: its speed does not decay with alpha,
    so large exponents converge too. Integration failures surface as
    unconverged entries, not exceptions.
    """
    alphas = [float(a) for a in alpha_list]
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha_list must be strictly increasing")
    mu = _as_rewards(mu, g.m)
    d = optimal_set(mu)
    out = []
    for a in alphas:
        try:
            fp = find_fixed_point(g, mu, a, z0=z0, dynamics="scaled")
        except RuntimeError:
            nan = np.full(g.m, np.nan)
            fp = FixedPointResult(point=nan, residual=np.inf,
                                  classification="boundary", alpha=a,
                                  converged=False)
        mass = float(fp.point[d].sum()) if np.isfinite(fp.point).all() else float("nan")
        out.append(ConcentrationEntry(alpha=a, fixed_point=fp, optimal_mass=mass))
    return out


@dataclass
class EigenBoundResult:
    lam_min: float
    bound: float
    margin: float
    p: np.ndarray


def covariance_eigen_bound(p, eps: float, m_i: int | None = None) -> EigenBoundResult:
    """Least eigenvalue of the move-indicator covariance on the zero-sum plane.

    p is a probability vector over a neighborhood of size m_i whose entries
    all carry the exploration floor eps/m_i (None: the worst-case corner of
    the floored simplex). The covariance diag(p) - p p^T restricted to
    {y : sum y = 0} then has smallest eigenvalue >= eps/m_i; the achieved
    eigenvalue, the floor and their margin are returned, with p itself so a
    caller that passed None can report the corner.
    """
    m_i = np.size(p) if m_i is None else m_i
    if m_i < 2 or (p is not None and np.size(p) != m_i):
        raise ValueError(f"p must have length m_i >= 2 (length {np.size(p)}, "
                         f"m_i = {m_i})")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must be in (0, 1]")
    floor = eps / m_i
    if p is None:
        p = np.full(m_i, floor)
        p[0] = 1.0 - (m_i - 1) * eps / m_i
    p = np.asarray(p, dtype=float)
    if not abs(p.sum() - 1.0) <= 1e-9:  # False on NaN too
        raise ValueError("p must sum to 1")
    if not np.all(p >= floor - 1e-12):
        raise ValueError("p violates the exploration floor eps/m_i")

    q = np.diag(p) - np.outer(p, p)
    basis = np.column_stack([np.ones(m_i), np.eye(m_i)[:, : m_i - 1]])
    qmat, _ = np.linalg.qr(basis)
    b = qmat[:, 1:]  # orthonormal basis of the zero-sum hyperplane
    lam = float(np.linalg.eigvalsh(b.T @ q @ b)[0])
    if not lam >= floor - 1e-12:  # an explicit raise survives python -O
        raise RuntimeError(f"covariance eigenvalue {lam!r} fell below its "
                           f"floor {floor!r}")
    return EigenBoundResult(lam_min=lam, bound=floor, margin=lam - floor, p=p)
