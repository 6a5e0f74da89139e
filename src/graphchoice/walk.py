"""Reinforced random walk on a constraint graph.

The process: an agent at node i observes a noisy reward at each node it
visits, keeps running-mean estimates mu_hat, and moves to a successor j with
probability proportional to (mu_hat_j * x_j)**alpha, mixed with an eps(n)
chance of a uniform random neighbor. x is the vector of visit frequencies,
driven by the stochastic-approximation recursion

    x(n+1) = x(n) + (I[next = j] - x(n)) / (n + 1),   x(0) = uniform,

so reinforcement feeds back into the move distribution. For n >= 1 the
recursion has the closed form x(n) = S(n)/n, S the integer visit counts (the
uniform x(0) is forgotten after one step), so the engine keeps only S and
forms x at snapshots. The kernel is fed S directly: the common factor
1/n**alpha cancels when a row is normalised. Unvisited nodes (and
nodes whose current estimate is nonpositive) carry zero preference weight;
when every neighbor has zero weight the reinforced part falls back to uniform
on N(i), which keeps the kernel stochastic at the start of a run.

Kernels work on neighbor slots, not on all m nodes. `Graph.neighbor_slots`
lists N(i) in d_max slots padded with the sentinel id m, and the engine keeps
S and mu_hat as (R, m+1) arrays whose last column stays zero. A step reads
each row's neighborhood through flat indices row*(m+1) + id as a d_max slot
row; a padding slot reads weight 0, so it carries log-weight -inf and
probability 0 without a mask. A step therefore costs O(R*d_max), however
large m is; on a graph with a node of degree m (complete, star hub) that is
O(R*m) again. The steps run in C: `_engine.c` holds one row kernel per
algorithm (reinforced, SA, greedy), built at the first engine call and
called once per block of `_BLOCK` steps for all rows. Where it cannot be
built (no C compiler, no writable cache directory) the same steps run as a
numpy loop over all rows at once, through the three numpy row kernels kept
here, with the same arithmetic, so the nodes, counts and estimates agree;
`engine_name()` says which one runs. This batched engine is the only way to
advance a run: there is no stepwise API, and one move is a run of one step.
An algorithm reaches either loop as its kernel's name and the eps and
temperature columns its trajectory records, read at the state it leaves
(walk) or one step ahead (`_LAG`). `Trajectory.to_csv` writes each float as
its `repr`; the same library formats the rows, exactly, and `_csv_rows` is
the reference and fallback.

Randomness protocol (recorded in run metadata): each seed expands through
numpy's SeedSequence into three independent PCG64 streams, [init, select,
noise]. The init stream is consumed only when the start node is drawn
uniformly; the select stream yields exactly one uniform per step (the slot
draw via the cumulative kernel row); the noise stream yields exactly one
standard normal per step. The engine draws them per block of steps, each
refill sized to its block, so a run of n steps draws n of each. Because the
streams are separate and consumed in fixed order, a batched run over many
seeds is bit-identical to running each seed alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schedules
from .graphs import Graph
from .schedules import ScheduleConfig, ScheduleState

_BLOCK = 1 << 12  # steps per engine block: the most values a refill draws


@dataclass(frozen=True)
class RewardModel:
    """True node rewards mu_i > 0 plus i.i.d. zero-mean Gaussian noise."""

    mu: np.ndarray
    noise_std: float = 0.0

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1 or mu.size == 0:
            raise ValueError("mu must be a nonempty vector")
        if not np.all((mu > 0) & (mu < np.inf)):
            raise ValueError("all rewards must be positive and finite")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be nonnegative and finite")
        mu = mu.copy()
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


class WalkRng:
    """Per-run random streams: [init, select, noise], spawned from one seed."""

    ALGORITHM = "numpy-pcg64 seedsequence-spawn3 [init,select,noise]"

    def __init__(self, seed: int):
        self.seed = int(seed)
        kids = np.random.SeedSequence(self.seed).spawn(3)
        self.init, self.select, self.noise = (
            np.random.Generator(np.random.PCG64(k)) for k in kids)


@dataclass
class WalkState:
    """The state a run ends in at step n (0-based node): the engine returns
    one per seed as its trajectory's `final_state`.

    One state serves the reinforced walk and both baselines. The start node
    is neither counted nor observed, so sum(counts) == n and mu_hat_i is the
    mean of exactly S_i observations. `sched` holds the values recorded at n.
    """

    n: int
    current: int
    counts: np.ndarray  # int64 visit counts S, sum(counts) == n
    x: np.ndarray       # visit frequencies counts/n (uniform at n = 0)
    mu_hat: np.ndarray  # running-mean reward estimates, 0 until first visit
    sched: ScheduleState


@dataclass
class Trajectory:
    """Recorded (n, node, x, eps, alpha) snapshots at a fixed stride.

    `nodes` are 0-based internally; the CSV emits 1-based ids. Every
    algorithm's run carries its end-of-run state in `final_state`, whose
    `sched` holds the last recorded eps and alpha. Observed rewards are not
    stored: the one at step t, arriving at node v, is mu[v] + noise_std *
    z[t], with z the first n_steps normals of `WalkRng(seed).noise`.
    """

    seed: int
    ns: np.ndarray
    nodes: np.ndarray
    xs: np.ndarray
    eps: np.ndarray
    alphas: np.ndarray
    final_state: WalkState | None = None

    def to_csv(self, path) -> None:
        """The header, then one row per snapshot, each float as its `repr`,
        formatted in blocks by `gc_format_rows` or, where it cannot run or
        refuses a value, by `_csv_rows`: the same bytes either way."""
        from . import _writer  # at the first write: importing stays lean
        with open(path, "wb") as fh:
            fh.write(_writer.header(self.xs.shape[1]))
            _writer.write_rows(fh, self.ns, self.nodes, self.eps, self.alphas,
                               self.xs, _csv_rows)


def _csv_rows(ns, nodes, eps, alphas, xs) -> str:
    """The CSV rows of `Trajectory.to_csv` as text, one f-string per row:
    the reference for `gc_format_rows` and the writer where it cannot run."""
    return "".join(
        f"{n},{node + 1},{e!r},{a!r},{','.join(map(repr, x))}\n"
        for n, node, e, a, x in zip(ns.tolist(), nodes.tolist(), eps.tolist(),
                                    alphas.tolist(), xs.tolist()))


def read_trajectory_csv(path, seed: int = -1) -> Trajectory:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        m = len(header) - 4
        rows = [line.strip().split(",") for line in fh if line.strip()]
    ns = np.array([int(r[0]) for r in rows], dtype=np.int64)
    nodes = np.array([int(r[1]) - 1 for r in rows], dtype=np.int64)
    eps = np.array([float(r[2]) for r in rows])
    alphas = np.array([float(r[3]) for r in rows])
    xs = np.array([[float(v) for v in r[4:4 + m]] for r in rows])
    return Trajectory(seed=seed, ns=ns, nodes=nodes, xs=xs, eps=eps, alphas=alphas)


def _reinforced_slots(S, mu_hat, unif, alpha: float, eps: float) -> np.ndarray:
    """Reinforced move rows over neighbor slots: (R, d_max) -> (R, d_max).

    `S` and `mu_hat` are the visit counts (or frequencies: rows are
    normalised, so a common positive factor per row does not change them) and
    the estimates read on each row's slots, padding slots reading 0; `unif` is
    the matching uniform slot rows. Preference weights are evaluated in log
    space with a per-row shift so arbitrarily large alpha cannot overflow;
    weights that underflow to zero relative to the row maximum are genuinely
    negligible. Padding, unvisited slots and nonpositive estimates carry zero
    weight (log of the clamped product is -inf). Callers are expected to
    silence divide/invalid warnings via errstate.
    """
    p = mu_hat * S
    np.maximum(p, 0.0, out=p)
    np.log(p, out=p)
    p *= alpha
    rowmax = p.max(axis=1)
    if rowmax.min() == -np.inf:  # some row has no visited neighbor yet
        live = rowmax > -np.inf
        p -= np.where(live, rowmax, 0.0)[:, None]
        np.exp(p, out=p)
        dead = ~live
        p[dead] = unif[dead] > 0  # uniform on N(cur) keeps the row stochastic
    else:
        p -= rowmax[:, None]
        np.exp(p, out=p)
    scale = (1.0 - eps) / p.sum(axis=1)
    p *= scale[:, None]
    p += eps * unif
    return p


def _sa_slots(mu_hat, mu_cur, own, unif, temp: float) -> np.ndarray:
    """Annealing rows over neighbor slots; the own slot takes the leftover mass.

    `mu_hat` holds the estimates on each row's (R, d_max) slots, `mu_cur` the
    estimate at the current node, `own` marks the current node's slot (its
    self-loop) and `unif` is the uniform slot rows, 0 on padding.
    """
    drop = mu_cur[:, None] - mu_hat  # positive part penalizes downhill
    p = np.exp(-np.maximum(drop, 0.0) / temp) * unif
    p[own] = 0.0
    p[own] = 1.0 - p.sum(axis=1)
    return p


def _greedy_slots(mu_hat, unif, eps: float) -> np.ndarray:
    """Epsilon-greedy rows over neighbor slots; argmax ties go to the lowest
    slot, which is the lowest node id because slots are sorted."""
    best = np.where(unif > 0, mu_hat, -np.inf).argmax(axis=1)
    p = eps * unif
    p[np.arange(best.size), best] += 1.0 - eps
    return p


def _sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row; zero-probability entries (padding slots
    among them) are never selected."""
    cum = probs.cumsum(axis=1)
    sel = (u[:, None] >= cum).sum(axis=1)
    d = probs.shape[1]
    if sel.max() >= d:  # u beyond a short final cumsum: last supported slot
        for r in np.flatnonzero(sel >= d):
            sel[r] = np.flatnonzero(probs[r] > 0)[-1]
    return sel


def check_run(g: Graph, rm: RewardModel, n_steps: int, seeds,
              record_stride: int, start) -> None:
    """A batched run's input rules, checked before any work. `start` is None,
    a node id or a nonempty pool of ids."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be nonempty and distinct")
    if rm.mu.size != g.m:
        raise ValueError(f"{rm.mu.size} rewards for a {g.m}-node graph")
    pool = [] if start is None else [start] if isinstance(start, int) else list(start)
    if start is not None and not (pool and all(1 <= s <= g.m for s in pool)):
        raise ValueError(f"start {start!r} is not a node or a node pool in 1..{g.m}")


def _resolve_starts(g: Graph, start, rngs: list[WalkRng]) -> np.ndarray:
    """Start nodes per run (0-based). Uniform policies consume the init stream."""
    if start is None:
        return np.array([r.init.integers(0, g.m) for r in rngs], dtype=np.int64)
    if isinstance(start, int):
        return np.full(len(rngs), start - 1, dtype=np.int64)
    pool = np.array([int(s) - 1 for s in start], dtype=np.int64)
    return np.array([pool[r.init.integers(0, pool.size)] for r in rngs],
                    dtype=np.int64)


# The schedule row n = t + lag that each kernel reads on step t -> t+1: the
# walk moves at the state it leaves, the baselines at T_{n+1} and eps_{n+1}.
_LAG = {"reinforced": 0, "sa": 1, "greedy": 1}


def engine_name() -> str:
    """"c" where the compiled row kernels load, "numpy" otherwise."""
    from . import _engine
    return "numpy" if _engine.load() is None else "c"


def _run_engine(g: Graph, rm: RewardModel, kind: str, columns, n_steps: int,
                seeds, record_stride: int, start) -> list[Trajectory]:
    """The batched loop behind `run_batch` and the baselines' batch runners.

    `kind` names the row kernel ("reinforced", "sa" or "greedy") and
    `columns(n_steps)` returns the eps and temperature values at
    n = 0..n_steps, the ones the trajectory records: its alpha column is
    1/temp, and each `final_state` gets the schedule state at n_steps. The
    kernel reads all three columns `_LAG[kind]` rows ahead of the step.
    `S` (int64 visit counts) and `mu_hat` are flat (R, m+1) arrays whose
    column m stays zero; a step reads each row's neighbor slots through
    flat indices row*(m+1) + id, padding reading column m. Before each
    block of at most `_BLOCK` steps, every row draws one uniform and one
    normal per step of the block, no more, into (R, min(_BLOCK, n_steps))
    buffers; a fill is sequential, so the values do not depend on the
    block size. Each block runs through the compiled row kernels of
    `_engine.c` in one call, or, where they cannot be built, through the
    numpy loop of `_numpy_block`, one step for all rows at a time, with the
    arithmetic that the C header lists. Both loops record the node and the
    S row at each snapshot, and x = S/n is formed from them afterwards.
    """
    seeds = [int(s) for s in seeds]
    check_run(g, rm, n_steps, seeds, record_stride, start)
    eps_col, temp_col = columns(n_steps)
    alpha_col = 1.0 / temp_col  # as ScheduleState.alpha and schedule_arrays
    cols = [col[_LAG[kind]:] for col in (eps_col, alpha_col, temp_col)]

    rngs = [WalkRng(s) for s in seeds]
    R, m = len(seeds), g.m
    cur = _resolve_starts(g, start, rngs)
    S = np.zeros(R * (m + 1), dtype=np.int64)
    mu_hat = np.zeros(R * (m + 1))
    S_rows = S.reshape(R, m + 1)[:, :m]
    mu_rows = mu_hat.reshape(R, m + 1)[:, :m]
    U = np.empty((R, min(_BLOCK, n_steps)))
    Z = np.empty(U.shape)
    ns = np.arange(0, n_steps + 1, record_stride)
    if ns[-1] != n_steps:
        ns = np.append(ns, n_steps)
    node_mat = np.empty((R, ns.size), dtype=np.int64)  # snapshot j: n = ns[j]
    S_snap = np.zeros((R, ns.size, m), dtype=np.int64)
    node_mat[:, 0] = cur

    from . import _engine  # at the first engine call: importing stays lean
    buffers = (cur, S, mu_hat, node_mat, S_snap)
    run_block = (_engine.compiled_block(g, rm, kind, cols, n_steps,
                                        record_stride, *buffers)
                 or _numpy_block(g, rm, kind, cols, n_steps, record_stride,
                                 *buffers))
    for t0 in range(0, n_steps, _BLOCK):
        t1 = min(t0 + _BLOCK, n_steps)
        for r in range(R):
            rngs[r].select.random(out=U[r, :t1 - t0])
            rngs[r].noise.standard_normal(out=Z[r, :t1 - t0])
        run_block(t0, t1, U, Z)

    x_mat = np.empty(S_snap.shape)
    x_mat[:, 0] = 1.0 / m
    np.divide(S_snap[:, 1:], ns[1:, None], out=x_mat[:, 1:])
    del S_snap
    eps_snap = eps_col[ns]
    alpha_snap = alpha_col[ns]
    sched = ScheduleState(n=n_steps, eps=float(eps_col[n_steps]),
                          temp=float(temp_col[n_steps]))

    out = []
    for r in range(R):
        final = WalkState(n=n_steps, current=int(node_mat[r, -1]),
                          counts=S_rows[r].copy(), x=S_rows[r] / n_steps,
                          mu_hat=mu_rows[r].copy(), sched=sched)
        out.append(Trajectory(
            seed=seeds[r], ns=ns.copy(), nodes=node_mat[r].copy(),
            xs=x_mat[r].copy(), eps=eps_snap.copy(), alphas=alpha_snap.copy(),
            final_state=final))
    return out


def _rows(kind: str, S, mu_hat, at, nbr, unif, eps: float, alpha: float,
          temp: float) -> np.ndarray:
    """One step's (R, d_max) move rows of the `kind` kernel for all rows, the
    current nodes at flat indices `at` and their neighbor slots at `nbr`:
    the reinforced walk reads alpha and eps, SA temp and greedy eps."""
    if kind == "reinforced":
        return _reinforced_slots(S.take(nbr), mu_hat.take(nbr), unif, alpha, eps)
    if kind == "sa":
        return _sa_slots(mu_hat.take(nbr), mu_hat.take(at), nbr == at[:, None],
                         unif, temp)
    return _greedy_slots(mu_hat.take(nbr), unif, eps)


def _numpy_block(g: Graph, rm: RewardModel, kind: str, columns, n_steps: int,
                 stride: int, cur, S, mu_hat, node_mat, S_snap):
    """`run_block(t0, t1, U, Z)` as a numpy loop over steps, all rows at
    once: the reference for `_engine.c` and the path where it cannot be
    built. `columns` are the eps, alpha and temp columns indexed by t."""
    ids, uniform = g.neighbor_slots
    mu, noise_std = rm.mu, rm.noise_std
    R, m = S_snap.shape[0], g.m
    base = np.arange(R) * (m + 1)         # flat index of each row's node 0
    base_col = base[:, None]
    slot_base = np.arange(R) * ids.shape[1]
    S_rows = S.reshape(R, m + 1)[:, :m]
    eps, alpha, temp = columns

    def run_block(t0, t1, U, Z):
        nonlocal cur
        at = base + cur
        with np.errstate(divide="ignore", invalid="ignore"):
            for t in range(t0, t1):
                k = t - t0
                nb = ids.take(cur, axis=0)
                p = _rows(kind, S, mu_hat, at, nb + base_col,
                          uniform.take(cur, axis=0), eps[t], alpha[t], temp[t])
                slot = _sample_rows(p, U[:, k])
                cur = nb.take(slot_base + slot)
                at = base + cur
                S[at] += 1
                obs = mu.take(cur) + noise_std * Z[:, k]
                est = mu_hat.take(at)
                mu_hat[at] = est + (obs - est) / S.take(at)
                n = t + 1
                if n % stride == 0 or n == n_steps:
                    j = -(-n // stride)
                    node_mat[:, j] = cur
                    S_snap[:, j] = S_rows
    return run_block


def run_batch(g: Graph, rm: RewardModel, cfg: ScheduleConfig, n_steps: int,
              seeds, record_stride: int = 1, start=None) -> list[Trajectory]:
    """Run one walk per seed, vectorized across seeds.

    All runs share (g, rm, cfg) and differ only in their random streams, so
    the schedule scalars are common. Results are bit-identical to running
    each seed through `run` alone. `start` is None (uniform over V), a
    1-based node id, or a pool of 1-based ids to draw from uniformly.
    """
    def columns(n_steps):
        return schedules.schedule_arrays(cfg, n_steps)[::2]  # eps, temp

    return _run_engine(g, rm, "reinforced", columns, n_steps, seeds,
                       record_stride, start)


def run(g: Graph, rm: RewardModel, cfg: ScheduleConfig, n_steps: int,
        seed: int, record_stride: int = 1, start=None) -> Trajectory:
    """Run a single seeded walk; deterministic given (inputs, seed)."""
    return run_batch(g, rm, cfg, n_steps, [seed], record_stride=record_stride,
                     start=start)[0]
