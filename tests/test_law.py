"""The engine's final visit counts against the exact law of the model.

The enumerator follows README's definitions in x form with plain floats,
and shares nothing with the engine but the scalar schedule recurrence
`schedules.advance`. With noise 0, mu_hat is mu on visited nodes and 0
elsewhere. The start node is neither counted nor observed, and x(0) is
uniform. Every path of K steps is enumerated, and its probability goes to
its final counts S(K). A chi-square test then compares that law with the
final counts of the engine over seeds 1-20000. The set-up and the threshold
were fixed before the test first ran.
"""
import math

import numpy as np
import pytest

from graphchoice import baselines, graphs, schedules, walk
from graphchoice.schedules import ScheduleConfig

G = graphs.make_linear(4)
MU = (2.0, 0.25, 0.5, 1.0)
K = 6
SEEDS = range(1, 20_001)
Z_MAX = 4.0  # Wilson-Hilferty z of Pearson's statistic


def reinforced_row(i, x, mu_hat, eps, alpha):
    nb = G.nbrs[i]
    w = [(mu_hat[j] * x[j]) ** alpha if mu_hat[j] * x[j] > 0 else 0.0
         for j in nb]
    if sum(w) == 0:  # no visited neighbour: uniform on N(i)
        w = [1.0] * len(nb)
    return {j: (1 - eps) * wj / sum(w) + eps / len(nb)
            for j, wj in zip(nb, w)}


def sa_row(i, mu_hat, temp):
    nb = G.nbrs[i]
    row = {j: math.exp(-max(0.0, mu_hat[i] - mu_hat[j]) / temp) / len(nb)
           for j in nb if j != i}
    row[i] = 1 - sum(row.values())  # the self-loop takes the rest
    return row


def greedy_row(i, mu_hat, eps):
    nb = G.nbrs[i]
    best = max(nb, key=lambda j: (mu_hat[j], -j))  # ties: the lowest id
    return {j: eps / len(nb) + (1 - eps) * (j == best) for j in nb}


def exact_law(row, start):
    """{S(K): probability} from the 1-based `start`, where `row(n, i, x,
    mu_hat)` is the move law from node i on step n -> n+1."""
    law = {}

    def paths(n, i, x, counts, p):
        if n == K:
            law[counts] = law.get(counts, 0.0) + p
            return
        mu_hat = [MU[j] if counts[j] else 0.0 for j in range(G.m)]
        for j, q in row(n, i, x, mu_hat).items():
            if q > 0:
                x_next = [xv + ((v == j) - xv) / (n + 1)
                          for v, xv in enumerate(x)]
                paths(n + 1, j, x_next,
                      tuple(c + (v == j) for v, c in enumerate(counts)), p * q)

    paths(0, start - 1, [1 / G.m] * G.m, (0,) * G.m, 1.0)
    return law


def reinforced_law(cfg, start):
    sched = [schedules.initial_state(cfg)]
    for _ in range(K):
        sched.append(schedules.advance(sched[-1], cfg))
    return exact_law(lambda n, i, x, mu_hat: reinforced_row(
        i, x, mu_hat, sched[n].eps, sched[n].alpha), start)


def chi_square_z(law, counts):
    """Wilson-Hilferty z of Pearson's statistic for the observed `counts`.
    Categories expecting fewer than 5 are pooled, smallest first, until the
    pool expects 5 or more."""
    seen = {}
    for c in counts:
        seen[c] = seen.get(c, 0) + 1
    outside = set(seen) - set(law)
    assert not outside, f"counts outside the law's support: {sorted(outside)}"
    cats = sorted(law, key=law.get)
    expected = [len(counts) * law[c] for c in cats]
    observed = [seen.get(c, 0) for c in cats]
    k = pooled = 0
    while k < len(cats) and (expected[k] < 5 or 0 < pooled < 5):
        pooled += expected[k]
        k += 1
    bins = list(zip(observed[k:], expected[k:]))
    if k:
        bins.append((sum(observed[:k]), pooled))
    chi2 = sum((o - e) ** 2 / e for o, e in bins)
    dof = len(bins) - 1
    v = 2 / (9 * dof)
    return ((chi2 / dof) ** (1 / 3) - (1 - v)) / math.sqrt(v)


WALK_FIXED = ScheduleConfig(c_mode="explicit_log", alpha_mode="fixed", T0=0.5)
WALK_COOLED = ScheduleConfig(c_mode="constant", epsilon0=0.9, c_const=0.3,
                             eps_hold=1, alpha_mode="cooled", alpha_burn=0.5,
                             burn_in=2, cool_scale=0.7)
# case: (the engine's runs on rewards rm, the exact law); SA reads
# T = gamma/log(n+2) and greedy eps = 1/(n+1) on step n -> n+1
CASES = {
    "reinforced_explicit_log_fixed": (
        lambda rm: walk.run_batch(G, rm, WALK_FIXED, K, SEEDS, K, start=1),
        lambda: reinforced_law(WALK_FIXED, 1)),
    "reinforced_constant_cooled": (
        lambda rm: walk.run_batch(G, rm, WALK_COOLED, K, SEEDS, K, start=1),
        lambda: reinforced_law(WALK_COOLED, 1)),
    "sa": (
        lambda rm: baselines.run_sa_batch(G, rm, baselines.SAConfig(gamma=0.5),
                                          K, SEEDS, K, start=2),
        lambda: exact_law(lambda n, i, x, mu_hat: sa_row(
            i, mu_hat, 0.5 / math.log(n + 2)), 2)),
    "greedy": (
        lambda rm: baselines.run_greedy_batch(G, rm, baselines.GreedyConfig(),
                                              K, SEEDS, K, start=2),
        lambda: exact_law(lambda n, i, x, mu_hat: greedy_row(
            i, mu_hat, 1 / (n + 1)), 2)),
}


@pytest.mark.parametrize("case", CASES)
def test_final_counts_follow_the_exact_law(case):
    run, law = CASES[case]
    trajs = run(walk.RewardModel(mu=np.array(MU), noise_std=0.0))
    law = law()
    assert abs(sum(law.values()) - 1) < 1e-12
    z = chi_square_z(law, [tuple(t.final_state.counts.tolist()) for t in trajs])
    assert z <= Z_MAX, f"{case}: chi-square z {z:.2f} over {len(law)} categories"
