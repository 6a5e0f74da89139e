import math
import shutil

import numpy as np
import pytest

from graphchoice import _engine, analysis, graphs

MU4 = np.array([2.0, 0.25, 0.5, 1.0])


def random_valid_graph(rng, m):
    """Path backbone plus random extra edges; always passes validate."""
    edges = [(i, i + 1) for i in range(1, m)]
    for i in range(1, m + 1):
        for j in range(i + 2, m + 1):
            if rng.random() < 0.4:
                edges.append((i, j))
    return graphs.from_edges(m, edges, repair=True)


def random_instance(rng, alpha_hi=5.0, floor=0.05, m_hi=8):
    m = int(rng.integers(3, m_hi))
    g = random_valid_graph(rng, m)
    mu = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=m))
    x = rng.dirichlet(np.ones(m))
    x = (1.0 - floor * m) * x + floor
    alpha = float(rng.uniform(0.05, alpha_hi))
    return g, mu, x, alpha


# ---------------------------------------------------------------- kernels

def test_limit_kernel_symmetric_case_is_uniform():
    g = graphs.make_complete(3)
    P = analysis.limit_kernel(np.full(3, 1 / 3), g, np.ones(3), 2.0)
    assert np.allclose(P, np.full((3, 3), 1 / 3), atol=1e-15)


def test_limit_kernel_three_chain_row():
    g = graphs.make_linear(3)
    P = analysis.limit_kernel(np.array([0.5, 0.25, 0.25]), g,
                              np.array([2.0, 1.0, 1.0]), 1.0)
    assert np.allclose(P[1], [2 / 3, 1 / 6, 1 / 6], atol=1e-14)


def test_limit_kernel_rows_stochastic_and_patterned():
    rng = np.random.default_rng(10)
    for _ in range(50):
        g, mu, x, alpha = random_instance(rng)
        P = analysis.limit_kernel(x, g, mu, alpha)
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(P[~g.adjacency_bool] == 0.0)


def test_boundary_points_rejected():
    g = graphs.make_linear(3)
    x = np.array([0.5, 0.5, 0.0])
    inner = np.full(3, 1 / 3)
    nan, inf = float("nan"), float("inf")
    point_fns = (analysis.limit_kernel, analysis.stationary_closed_form,
                 analysis.potential, analysis.replicator_rhs,
                 analysis.scaled_rhs)
    for fn in point_fns:
        with pytest.raises(ValueError):
            fn(x, g, np.ones(3), 1.0)
        for bad in ([0.5, nan, 0.5], [0.5, inf, 0.5], [-inf, 0.5, 0.5]):
            with pytest.raises(ValueError):
                fn(np.array(bad), g, np.ones(3), 1.0)
        for alpha in (nan, inf, -inf, -1.0, 0.0):
            with pytest.raises(ValueError):
                fn(inner, g, np.ones(3), alpha)
    # every function that reads the rewards validates them once at entry
    reward_fns = (
        analysis.limit_kernel, analysis.stationary_closed_form,
        analysis.potential, analysis.potential_value,
        lambda x, g, mu, a: analysis.find_fixed_point(g, mu, a, z0=x),
        analysis.integrate_replicator,
        lambda x, g, mu, a: analysis.epsilon_perturbation(mu, a, 0.5),
        lambda x, g, mu, a: analysis.unconstrained_fixed_point(mu, 0.5),
        lambda x, g, mu, a: analysis.alpha_concentration_check(g, mu, [a]))
    for fn in reward_fns:
        for mu in ([2.0, nan, 1.0], [2.0, inf, 1.0], [2.0, 0.0, 1.0]):
            with pytest.raises(ValueError):
                fn(inner, g, np.array(mu), 1.0)
    with pytest.raises(ValueError):
        analysis.find_fixed_point(g, np.ones(3), inf)
    with pytest.raises(ValueError):
        analysis.integrate_replicator(np.array([0.5, nan, 0.5]), g,
                                      np.ones(3), 1.0)


# ------------------------------------------------------------- stationary

def test_stationary_symmetric_case_uniform():
    g = graphs.make_complete(4)
    pi = analysis.stationary_closed_form(np.full(4, 0.25), g, np.ones(4), 3.0)
    assert np.allclose(pi, 0.25, atol=1e-15)


def test_stationary_star_matches_power_iteration():
    g = graphs.make_star(4, 4)
    x = np.full(4, 0.25)
    pi = analysis.stationary_closed_form(x, g, np.ones(4), 1.0)
    P = analysis.limit_kernel(x, g, np.ones(4), 1.0)
    res = analysis.stationary_power_iteration(P, tol=1e-14)
    assert res.converged
    assert np.abs(pi - res.pi).max() < 1e-10


def test_local_balance_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g, mu, x, alpha = random_instance(rng)
        assert analysis.local_balance_violation(x, g, mu, alpha) < 1e-12


def test_power_iteration_lazy_uniform_chain():
    P = np.full((4, 4), 1 / 8)
    np.fill_diagonal(P, 1 / 8 + 0.5)
    res = analysis.stationary_power_iteration(P)
    assert res.converged
    assert np.allclose(res.pi, 0.25, atol=1e-12)


def test_power_iteration_two_state_hand_oracle():
    # p12 = 0.25, p21 = 0.5, self-loops take the rest: balance gives (2/3, 1/3)
    P = np.array([[0.75, 0.25], [0.5, 0.5]])
    res = analysis.stationary_power_iteration(P)
    assert np.allclose(res.pi, [2 / 3, 1 / 3], atol=1e-12)
    assert res.residual < 1e-12


def test_power_iteration_reports_non_convergence():
    # nearly-absorbing chain mixes far too slowly for 50 iterations
    P = np.array([[1.0 - 1e-6, 1e-6], [2e-6, 1.0 - 2e-6]])
    res = analysis.stationary_power_iteration(P, tol=1e-13, max_iters=50)
    assert not res.converged
    assert res.iterations == 50
    assert np.abs(res.pi - np.array([2 / 3, 1 / 3])).max() > 0.1


def test_closed_form_agrees_with_power_iteration_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        g, mu, x, alpha = random_instance(rng, alpha_hi=2.5, floor=0.08)
        pi = analysis.stationary_closed_form(x, g, mu, alpha)
        P = analysis.limit_kernel(x, g, mu, alpha)
        res = analysis.stationary_power_iteration(P, tol=1e-13)
        assert res.converged
        assert np.abs(pi - res.pi).max() < 1e-8


# -------------------------------------------------------------- potential

def test_potential_two_node_hand_value():
    # complete m=2, mu=(1,1), alpha=1: Psi = (x1+x2)^2/2 = 0.5 on the simplex
    g = graphs.make_complete(2)
    rep = analysis.potential(np.array([0.5, 0.5]), g, np.ones(2), 1.0)
    assert rep.value == pytest.approx(0.5, abs=1e-15)
    assert rep.lyapunov == pytest.approx(0.0, abs=1e-15)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(100):
        g, mu, x, alpha = random_instance(rng, alpha_hi=4.0, floor=0.06)
        grad = analysis.potential(x, g, mu, alpha).gradient
        fd = np.empty(g.m)
        for i in range(g.m):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (analysis.potential_value(xp, g, mu, alpha)
                     - analysis.potential_value(xm, g, mu, alpha)) / (2 * h)
        rel = np.abs(grad - fd).max() / max(1.0, np.abs(grad).max())
        assert rel < 1e-5


def test_dissipation_form_nonnegative():
    rng = np.random.default_rng(14)
    for _ in range(200):
        g, mu, x, alpha = random_instance(rng)
        assert analysis.potential(x, g, mu, alpha).lyapunov >= 0.0


# ---------------------------------------------------------------- the ODEs

def test_rhs_tangent_to_simplex():
    rng = np.random.default_rng(15)
    for _ in range(100):
        g, mu, x, alpha = random_instance(rng)
        assert abs(analysis.replicator_rhs(x, g, mu, alpha).sum()) < 1e-12
        assert abs(analysis.scaled_rhs(x, g, mu, alpha).sum()) < 1e-12


def test_rhs_vanishes_toward_corner():
    g = graphs.make_complete(3)
    z = np.array([1.0 - 2e-9, 1e-9, 1e-9])
    assert np.abs(analysis.replicator_rhs(z, g, np.array([2.0, 1.0, 1.0]), 2.0)).max() < 1e-7


def test_rhs_zero_at_symmetric_point():
    g = graphs.make_complete(4)
    v = analysis.replicator_rhs(np.full(4, 0.25), g, np.ones(4), 1.5)
    assert np.abs(v).max() < 1e-15


def test_rhs_arithmetic_matches_the_potential_gradient():
    # the right-hand sides evaluate the gradient themselves; pin them, bit for
    # bit, to the formulas written with potential()'s gradient
    rng = np.random.default_rng(18)
    for _ in range(50):
        g, mu, z, alpha = random_instance(rng)
        grad = analysis.potential(z, g, mu, alpha).gradient
        assert np.array_equal(analysis.replicator_rhs(z, g, mu, alpha),
                              z * (grad - z @ grad))
        v = z * grad
        assert np.array_equal(analysis.scaled_rhs(z, g, mu, alpha),
                              v / v.sum() - z)


def test_rk4_window_halves_the_step_when_a_stage_leaves_the_simplex(
        monkeypatch):
    # on both loops: the numpy reference, whose rhs records each rejected
    # stage point, and the window of _engine.c (numpy again without cc).
    # In the second case a new iterate leaves the simplex with every stage
    # inside it: fewer stages are rejected than steps are halved.
    g = graphs.make_complete(3)
    cases = [((2.0, 1.0, 1.0), 2.0, (0.98, 0.01, 0.01), 0.0625, 6, 6),
             ((1.0, 2.0, 1.0), 1.0, (0.5, 0.25, 0.25), 0.5, 3, 2)]
    for mu, alpha, z0, h_end, halved, stages in cases:
        mu, z0 = np.array(mu), np.array(z0)
        raised = []

        def rhs(v):
            try:
                return analysis.replicator_rhs(v, g, mu, alpha)
            except ValueError:
                raised.append(v)
                raise

        windows = [lambda: analysis._rk4_window(rhs, z0, 4.0, 5),
                   lambda: analysis._window("replicator", g, mu, alpha, z0,
                                            4.0, 5)]
        for window in windows:
            path, h, halvings = window()
            assert (h, halvings) == (h_end, halved)
            assert path.shape == (6, 3)
            assert (path > 0.0).all()
            assert np.abs(path.sum(axis=1) - 1.0).max() < 1e-12
        assert len(raised) == stages
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_DT_MIN", 1.0)  # the floor is reached
            for window in windows:
                with pytest.raises(RuntimeError, match="below 1.0"):
                    window()


def test_numpy_fallback_matches_compiled_rk4(monkeypatch):
    # the same windows through _engine.c and through the numpy reference:
    # equal decisions and work, points equal to the ulp (libm pow against
    # numpy's power, BLAS sums against sequential ones)
    if shutil.which("cc") is not None:
        assert _engine.load() is not None  # the compiled window is compared
    rng = np.random.default_rng(10)
    cases = []
    for j in range(32):
        g, mu, z0, alpha = random_instance(rng)
        cases.append((g, mu, z0, alpha, (0.02, 0.5, 4.0)[j % 3]))

    def solve():
        out = []
        for g, mu, z0, alpha, dt in cases:
            fps = [analysis.find_fixed_point(g, mu, alpha, z0=z0, dt=dt,
                                             window=100, max_windows=40,
                                             dynamics=d, return_path=True)
                   for d in ("replicator", "scaled")]
            out.append((fps, analysis.integrate_replicator(
                z0, g, mu, alpha, dt=dt, steps=100)))
        return out

    compiled = solve()
    monkeypatch.setattr(_engine, "load", lambda: None)
    halvings = 0
    for (fps, path), (want_fps, want_path) in zip(solve(), compiled):
        for fp, want in zip(fps, want_fps):
            assert fp.converged == want.converged
            assert fp.classification == want.classification
            assert (fp.windows, fp.halvings) == (want.windows, want.halvings)
            assert np.abs(fp.point - want.point).max() <= 1e-12
            assert np.abs(fp.path - want.path).max() <= 1e-12
            halvings += fp.halvings
        assert np.abs(path - want_path).max() <= 1e-12
    assert halvings > 0  # the halving rule ran on both loops


def test_unconstrained_point_is_a_fixed_point():
    x = analysis.unconstrained_fixed_point(MU4, 0.85)
    g = graphs.make_complete(4)
    assert analysis.fixed_point_residual(x, g, MU4, 0.85) < 1e-12


def test_integration_stationary_at_fixed_point():
    g = graphs.make_complete(4)
    x = analysis.unconstrained_fixed_point(MU4, 0.85)
    path = analysis.integrate_replicator(x, g, MU4, 0.85, dt=0.01, steps=500)
    assert np.abs(path[-1] - x).max() < 1e-8


def test_linear_chain_alpha2_converges_to_potential_maximum():
    g = graphs.make_linear(4)
    z0 = np.array([0.26, 0.25, 0.25, 0.24])
    fp = analysis.find_fixed_point(g, MU4, 2.0, z0=z0, return_path=True)
    assert fp.converged
    assert fp.residual < 1e-6
    psi = [analysis.potential_value(z, g, MU4, 2.0) for z in fp.path]
    drops = np.diff(psi) + 1e-9 * np.maximum(1.0, np.abs(psi[:-1]))
    assert drops.min() >= 0.0


def test_potential_monotone_along_random_trajectories():
    rng = np.random.default_rng(16)
    for _ in range(20):
        g, mu, z0, _ = random_instance(rng, floor=0.04, m_hi=7)
        alpha = float(rng.uniform(0.6, 3.0))
        path = analysis.integrate_replicator(z0, g, mu, alpha, dt=0.02,
                                             steps=600)
        psi = np.array([analysis.potential_value(z, g, mu, alpha)
                        for z in path])
        tol = 1e-9 * np.maximum(1.0, np.abs(psi[:-1]))
        assert float((np.diff(psi) + tol).min()) >= 0.0


def test_both_dynamics_reach_the_same_limit():
    rng = np.random.default_rng(17)
    for _ in range(5):
        g, mu, z0, _ = random_instance(rng, floor=0.06, m_hi=6)
        alpha = float(rng.uniform(0.6, 2.5))
        a = analysis.find_fixed_point(g, mu, alpha, z0=z0, dynamics="replicator")
        b = analysis.find_fixed_point(g, mu, alpha, z0=z0, dynamics="scaled")
        assert a.converged and b.converged
        assert np.abs(a.point - b.point).max() < 1e-6


# ------------------------------------------------------------ closed forms

def test_closed_form_matches_reported_optimum():
    x = analysis.unconstrained_fixed_point(MU4, 0.85)
    assert np.abs(x - np.array([0.98, 0.0, 0.0, 0.019])).max() < 5e-3


def test_closed_form_alpha_half_proportional_to_mu():
    x = analysis.unconstrained_fixed_point(MU4, 0.5)
    assert np.allclose(x, MU4 / MU4.sum(), atol=1e-14)
    assert np.allclose(x, [0.5333, 0.0667, 0.1333, 0.2667], atol=1e-4)


def test_closed_form_uniform_mu_gives_uniform():
    for alpha in (0.1, 0.5, 0.9):
        x = analysis.unconstrained_fixed_point(np.ones(5), alpha)
        assert np.allclose(x, 0.2, atol=1e-15)


def test_closed_form_rejects_alpha_at_least_one():
    with pytest.raises(ValueError):
        analysis.unconstrained_fixed_point(MU4, 1.0)


def test_closed_form_scale_invariance():
    a = analysis.unconstrained_fixed_point(MU4, 0.85)
    b = analysis.unconstrained_fixed_point(7.3 * MU4, 0.85)
    assert np.abs(a - b).max() < 1e-12


# ------------------------------------------------------------ perturbation

def test_perturbation_at_eps_one_is_uniform():
    res = analysis.epsilon_perturbation(MU4, 2.0, 1.0)
    assert np.array_equal(res.first_order, np.full(4, 0.25))
    assert np.allclose(res.exact, 0.25, atol=1e-13)


def test_perturbation_first_order_arithmetic():
    res = analysis.epsilon_perturbation(np.array([2.0, 1.0]), 1.0, 0.9)
    expect = 0.5 + 0.1 * (2.0 / 3.0 - 0.5)
    assert res.first_order[0] == pytest.approx(expect, abs=1e-15)
    assert res.converged


def test_perturbation_gap_is_second_order():
    mu = np.array([2.0, 1.0])
    g_09 = analysis.epsilon_perturbation(mu, 1.0, 0.9).gap
    g_099 = analysis.epsilon_perturbation(mu, 1.0, 0.99).gap
    assert 50.0 <= g_09 / g_099 <= 200.0


# ----------------------------------------------------------- concentration

def test_concentration_trend_on_complete_graph():
    entries = analysis.alpha_concentration_check(graphs.make_complete(4),
                                                 MU4, [1, 2, 4, 8, 16])
    masses = [e.optimal_mass for e in entries]
    assert all(e.fixed_point.converged for e in entries)
    assert all(b >= a - 1e-6 for a, b in zip(masses, masses[1:]))
    assert masses[-1] > 0.99


def test_concentration_uniform_mu_puts_mass_everywhere():
    entries = analysis.alpha_concentration_check(graphs.make_star(4, 4),
                                                 np.ones(4), [1, 2, 4])
    for e in entries:
        assert e.optimal_mass == pytest.approx(1.0, abs=1e-9)


def test_two_clique_trap_at_fixed_alpha():
    g = graphs.make_two_cliques(2, 8)
    mu = np.array([1.0, 1.0] + [0.5] * 8)
    z0 = np.full(10, 0.005)
    z0[2:] = 0.99 / 8
    fp = analysis.find_fixed_point(g, mu, 10.0, z0=z0, dynamics="scaled")
    assert fp.converged
    assert fp.point[2:].sum() > 0.9  # stays a clique-2 local maximum


def test_concentration_rejects_non_increasing_ladder():
    with pytest.raises(ValueError):
        analysis.alpha_concentration_check(graphs.make_complete(3),
                                           np.ones(3), [2, 1])


# ------------------------------------------------------------- eigen bound

def test_eigen_bound_equality_case():
    res = analysis.covariance_eigen_bound(np.array([0.5, 0.5]), 1.0, 2)
    assert res.lam_min == pytest.approx(0.5, abs=1e-15)
    assert res.bound == 0.5
    assert res.margin >= -1e-12


def test_eigen_bound_extreme_corner():
    rng = np.random.default_rng(18)
    for _ in range(100):
        m_i = int(rng.integers(2, 9))
        eps = float(rng.uniform(1e-3, 1.0))
        p = np.full(m_i, eps / m_i)
        p[0] = 1.0 - (m_i - 1) * eps / m_i
        res = analysis.covariance_eigen_bound(p, eps, m_i)
        assert res.margin >= -1e-12
        # p None stands for this corner
        corner = analysis.covariance_eigen_bound(None, eps, m_i)
        assert np.array_equal(corner.p, p) and corner.lam_min == res.lam_min


def test_eigen_bound_random_mixtures():
    rng = np.random.default_rng(19)
    for _ in range(300):
        m_i = int(rng.integers(2, 9))
        eps = float(rng.uniform(1e-3, 1.0))
        p = eps / m_i + (1.0 - eps) * rng.dirichlet(np.ones(m_i))
        res = analysis.covariance_eigen_bound(p, eps, m_i)
        assert res.margin >= -1e-12


def test_eigen_bound_rejects_floor_violation():
    with pytest.raises(ValueError):
        analysis.covariance_eigen_bound(np.array([0.9, 0.05, 0.05]), 0.6, 3)


@pytest.mark.parametrize("p, m_i", [([np.nan, 0.5, 0.5], 3),
                                    ([np.inf, 0.5, 0.5], 3),
                                    (None, 0), (None, 1), (None, None)])
def test_eigen_bound_rejects_bad_arguments_before_solving(p, m_i):
    # a NaN entry is an argument error, not an eigenvalue below the floor
    with pytest.raises(ValueError):
        analysis.covariance_eigen_bound(p, 0.3, m_i)


def test_eigen_bound_raises_when_eigenvalue_below_floor(monkeypatch):
    # an explicit raise, not an assert, so the check also runs under python -O
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([0.0, 1.0]))
    with pytest.raises(RuntimeError, match="below its floor"):
        analysis.covariance_eigen_bound(np.array([0.5, 0.25, 0.25]), 0.6, 3)


# --------------------------------------------------------- scale invariance

def test_kernel_and_stationary_scale_invariance():
    rng = np.random.default_rng(20)
    g, mu, x, alpha = random_instance(rng)
    assert np.abs(analysis.limit_kernel(x, g, mu, alpha)
                  - analysis.limit_kernel(x, g, 7.3 * mu, alpha)).max() < 1e-12
    assert np.abs(analysis.stationary_closed_form(x, g, mu, alpha)
                  - analysis.stationary_closed_form(x, g, 7.3 * mu, alpha)).max() < 1e-12
