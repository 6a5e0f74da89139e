"""Exploration and sharpening schedules for the walk dynamics.

Two coupled sequences drive a run: the exploration probability eps(n), which
decays slowly toward zero, and the preference exponent alpha(n) = 1/T(n),
which either stays fixed or grows ("cooling" the temperature T). The update
rules implemented here:

  eps(n+1) = (1 - c(n)) * eps(n)          (recursion mode)
  eps(n)   = min(1, 1/log(n+1))           (explicit log mode)
  T(n+1)   = (1 - b(n)) * T(n),  b(n) = cool_scale / (n log n)   (cooled mode)

with c(n) = 1/(1 + (n+1) log(n+1)) as the stock choice, which makes
eps(n) = Theta(1/log n). Logs are natural throughout. Schedule indexing
starts at n = 1: c(0) would equal 1 and annihilate eps, and the cooling
divisor n*log(n) vanishes below n = 2, so step 0 (and step 1 for cooling)
leave the values unchanged.

All functions are pure; ScheduleState is plain data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_COOL_B_MAX = 0.75  # cap on a single cooling step so T stays positive;
# chosen above 1/(2 log 2) so the stock rate is never distorted


@dataclass(frozen=True)
class ScheduleConfig:
    """Parameters of the eps/T sequences.

    epsilon0   initial exploration probability, in (0, 1]
    T0         fixed-mode temperature (alpha = 1/T0 forever)
    c_mode     'recursion_example' | 'explicit_log' | 'constant'
    c_const    decay constant for c_mode='constant' (0 keeps eps fixed)
    eps_hold   steps during which eps stays at epsilon0 before decaying
               (the decay clock restarts when the hold ends)
    eps_floor  lower clamp on eps (0 = none); a small floor keeps every
               node visited at a positive rate even under fast decay
    alpha_mode 'fixed' | 'cooled'
    burn_in    steps to hold alpha at alpha_burn before cooling starts
    alpha_burn exponent held during burn-in (cooled mode starts from it)
    cool_scale multiplier on the cooling step b(n) = cool_scale/(n log n)
    gamma_sa   temperature scale of the simulated-annealing baseline,
               checked by `baselines.SAConfig`, which reads it
    """

    # The fields the walk reads under each mode; the annealing baseline reads
    # gamma_sa alone. The explicit log formula is a function of n alone.
    EPS_READS = {"explicit_log": ("eps_floor",),
                 "recursion_example": ("epsilon0", "eps_hold", "eps_floor"),
                 "constant": ("epsilon0", "c_const", "eps_hold", "eps_floor")}
    ALPHA_READS = {"fixed": ("T0",), "cooled": ("burn_in", "alpha_burn", "cool_scale")}

    epsilon0: float = 1.0
    T0: float = 100.0
    c_mode: str = "explicit_log"
    c_const: float = 0.0
    eps_hold: int = 0
    eps_floor: float = 0.0
    alpha_mode: str = "fixed"
    burn_in: int = 50
    alpha_burn: float = 1e-2
    cool_scale: float = 1.0
    gamma_sa: float = 0.1

    def __post_init__(self):
        for name in ("epsilon0", "T0", "c_const", "eps_hold", "eps_floor",
                     "burn_in", "alpha_burn", "cool_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number")
            if name in ("eps_hold", "burn_in"):  # step counts: 100 or 1e2
                if value != int(value):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
                object.__setattr__(self, name, int(value))
        if not 0.0 < self.epsilon0 <= 1.0:
            raise ValueError("epsilon0 must be in (0, 1]")
        if self.T0 <= 0 or self.alpha_burn <= 0:
            raise ValueError("scale parameters must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.c_mode not in self.EPS_READS:
            raise ValueError(f"unknown c_mode {self.c_mode!r}")
        if self.alpha_mode not in self.ALPHA_READS:
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if not 0.0 <= self.c_const < 1.0:
            raise ValueError("c_const must be in [0, 1)")
        if self.eps_hold < 0:
            raise ValueError("eps_hold must be nonnegative")
        if not 0.0 <= self.eps_floor <= 1.0:
            raise ValueError("eps_floor must be in [0, 1]")
        if self.cool_scale <= 0:
            raise ValueError("cool_scale must be positive")


@dataclass(frozen=True)
class ScheduleState:
    """Schedule values at step n; alpha is derived as exactly 1/temp, so an
    infinite temp (the baselines' records) gives alpha 0."""

    n: int
    eps: float
    temp: float
    alpha: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must be in [0, 1]")
        if not self.temp > 0:  # NaN too
            raise ValueError("temp must be positive")
        object.__setattr__(self, "alpha", 1.0 / self.temp)


def default_c(n: int) -> float:
    """The stock decay sequence c(n) = 1/(1 + (n+1) log(n+1)), n >= 1."""
    if n < 1:
        raise ValueError("c(n) is defined for n >= 1 (c(0) would equal 1)")
    return 1.0 / (1.0 + (n + 1) * math.log(n + 1))


def explicit_log_eps(n: int) -> float:
    """eps(n) = 1/log(n+1), clamped into (0, 1] (the clamp binds for n <= 2)."""
    if n < 1:
        return 1.0
    return min(1.0, 1.0 / math.log(n + 1))


def step_epsilon(state: ScheduleState, cfg: ScheduleConfig) -> float:
    """Exploration probability at step n+1 given the state at step n.

    The decay clock starts after the hold, so the recursion always applies
    its early (large) factors first regardless of eps_hold.
    """
    n = state.n
    if cfg.c_mode == "explicit_log":
        nxt = explicit_log_eps(n + 1)
    elif n < cfg.eps_hold + 1:
        nxt = state.eps
    elif cfg.c_mode == "constant":
        nxt = (1.0 - cfg.c_const) * state.eps
    else:
        nxt = (1.0 - default_c(n - cfg.eps_hold)) * state.eps
    return max(nxt, cfg.eps_floor)


def _cooling_b(n: int, cfg: ScheduleConfig) -> float:
    """Temperature step b(n); zero during burn-in and for n < 2."""
    if cfg.alpha_mode != "cooled" or n < max(2, cfg.burn_in):
        return 0.0
    return min(_COOL_B_MAX, cfg.cool_scale / (n * math.log(n)))


def step_temperature(state: ScheduleState, cfg: ScheduleConfig) -> float:
    """T at step n+1. Fixed mode never changes it."""
    return (1.0 - _cooling_b(state.n, cfg)) * state.temp


def initial_state(cfg: ScheduleConfig) -> ScheduleState:
    """Schedule values at n = 0: cooled mode starts from temp = 1/alpha_burn,
    explicit-log mode from eps = 1."""
    eps = explicit_log_eps(0) if cfg.c_mode == "explicit_log" else cfg.epsilon0
    temp = 1.0 / cfg.alpha_burn if cfg.alpha_mode == "cooled" else cfg.T0
    return ScheduleState(n=0, eps=eps, temp=temp)


def advance(state: ScheduleState, cfg: ScheduleConfig) -> ScheduleState:
    """Schedule state at step n+1."""
    return ScheduleState(n=state.n + 1, eps=step_epsilon(state, cfg),
                         temp=step_temperature(state, cfg))


def exact_log(lo: int, hi: int) -> np.ndarray:
    """math.log(k) for the integers k = lo..hi-1.

    Not np.log: it differs from math.log, which the scalar functions use, in
    the last bit at some integers (9170, 19143 and 94869 below 1e5).
    """
    return np.fromiter(map(math.log, range(lo, hi)), float, hi - lo)


def _products(carry: float, j0: int, j1: int, first: int, rate) -> np.ndarray:
    """carry times the running products of the factors 1 - rate(s, j1) of the
    steps j = s..j1-1, s = max(j0, first); the steps before s have factor 1."""
    f = np.ones(j1 - j0)
    s = min(max(j0, first), j1)
    f[s - j0:] = 1.0 - rate(s, j1)
    f[0] *= carry
    return np.multiply.accumulate(f)  # in order, as the scalar loop multiplies


def schedule_chunks(cfg: ScheduleConfig, n_max: int, chunk: int = 1 << 16):
    """Yield (ns, eps, temp) blocks covering n = 0..n_max in order.

    The one schedule source, bit-identical to stepping `advance` from
    `initial_state`. temp, and eps in the recursive modes, are running
    products of the per-step factors of `step_temperature` and
    `step_epsilon`, carried from block to block. The eps floor is applied
    after the product. That is exact because eps never increases, so once
    clamped the recurrence stays at the floor. eps(0) is not clamped, as in
    `advance`.
    """
    klogk = lambda k0, k1: np.arange(k0, k1) * exact_log(k0, k1)
    hold = cfg.eps_hold
    if cfg.c_mode == "constant":
        eps_rate = lambda s, e: np.full(e - s, cfg.c_const)
    else:  # default_c(j - hold)
        eps_rate = lambda s, e: 1.0 / (1.0 + klogk(s - hold + 1, e - hold + 1))
    cool_from = max(2, cfg.burn_in) if cfg.alpha_mode == "cooled" else n_max
    cool_rate = lambda s, e: np.minimum(_COOL_B_MAX, cfg.cool_scale / klogk(s, e))
    st = initial_state(cfg)
    raw, temp = [st.eps], [st.temp]  # the unclamped products at n = lo - 1
    for lo in range(0, n_max + 1, chunk):
        hi = min(lo + chunk, n_max + 1)
        # steps lo-1..hi-2 lead to n = lo..hi-1; "step -1" has factor 1
        temp = _products(temp[-1], lo - 1, hi - 1, cool_from, cool_rate)
        if cfg.c_mode == "explicit_log":
            with np.errstate(divide="ignore"):  # n = 0: 1/log(1) = inf -> 1
                raw = np.minimum(1.0, 1.0 / exact_log(lo + 1, hi + 1))
        else:
            raw = _products(raw[-1], lo - 1, hi - 1, hold + 1, eps_rate)
        eps = np.maximum(raw, cfg.eps_floor)
        if lo == 0:
            eps[0] = raw[0]
        yield np.arange(lo, hi), eps, temp


def schedule_arrays(cfg: ScheduleConfig, n_steps: int):
    """(eps, alpha, temp) for n = 0..n_steps: `schedule_chunks` in one block.

    temp is the multiplicatively maintained primary and alpha its
    reciprocal, as in `advance`, so the engines index these arrays and still
    agree bit for bit with stepwise updates.
    """
    ((_, eps, temp),) = schedule_chunks(cfg, n_steps, chunk=n_steps + 1)
    return eps, 1.0 / temp, temp


@dataclass
class ConditionCheck:
    """One diagnosed schedule condition: values at checkpoints plus a verdict."""

    name: str
    checkpoints: list[int]
    values: list[float]
    satisfied: bool
    note: str = ""


@dataclass
class ConditionReport:
    n_max: int
    checks: list[ConditionCheck]

    @property
    def ok(self) -> bool:
        return all(c.satisfied for c in self.checks)

    def flagged(self) -> list[str]:
        return [f"{c.name}: {c.note}" for c in self.checks if not c.satisfied]


def verify_conditions(cfg: ScheduleConfig, n_max: int,
                      m: int = 4) -> ConditionReport:
    """Numeric trend report for the schedule admissibility conditions.

    Every check reads the sequence a run actually uses, as `schedule_chunks`
    yields it (floor and hold included); c(n) = 1 - eps(n+1)/eps(n) is
    derived from that sequence. Checks, up to n_max (diagnostic, not a proof):
      eps_to_zero     eps(n) still decreasing over the last decade, or 0
      sum_eps_pow_m   partial sums of eps(n)^m keep growing (divergence)
      sum_a_eps       partial sums of eps(n)/(n+1) keep growing
      eps_sqrt_n      eps(n)*sqrt(n) rising over the last decade
                      (eps = omega(1/sqrt n))
      n_c_to_zero     n*c(n) trending down to zero
      n_b_to_zero     n*b(n) trending down to zero (vacuous when not cooling)
      b_small_o_c     b(n)/c(n) trending to zero

    Checkpoints are n_max/1000, n_max/100, n_max/10 and n_max. A sum "keeps
    growing" when its last decade adds at least half what the decade before
    added (increments shrinking faster than that per decade converge). When
    eps is held constant at the end (a floor), there is no exploration decay
    for the cooling to outpace, so b_small_o_c is not judged; eps_to_zero
    reports the floor. Anything drifting the wrong way or flattening is
    flagged.
    """
    if n_max < 100:
        raise ValueError("n_max too small for a meaningful trend report")
    cps = sorted({n_max // 1000, n_max // 100, n_max // 10, n_max} - {0})
    wanted = np.array(sorted(set(cps) | {cp + 1 for cp in cps}))

    eps_at, sum_eps_m, sum_a_eps = {}, {}, {}
    run_m = run_a = 0.0
    for ns, eps, _ in schedule_chunks(cfg, n_max + 1):
        live = (ns >= 1) & (ns <= n_max)
        cum_m = run_m + np.cumsum(np.where(live, eps ** m, 0.0))
        cum_a = run_a + np.cumsum(np.where(live, eps / (ns + 1.0), 0.0))
        for k in np.flatnonzero(np.isin(ns, wanted)):
            n = int(ns[k])
            eps_at[n], sum_eps_m[n], sum_a_eps[n] = float(eps[k]), cum_m[k], cum_a[k]
        run_m, run_a = float(cum_m[-1]), float(cum_a[-1])

    checks: list[ConditionCheck] = []

    v = [eps_at[c] for c in cps]
    to_zero = v[-1] == 0.0 or v[-1] < v[-2]
    checks.append(ConditionCheck(
        "eps_to_zero", cps, v, to_zero,
        "" if to_zero else
        f"eps(n) stays at {v[-1]:.3g} over the last decade: eps -> 0 violated"))

    def growing(vals):  # divergence heuristic, judged on the tail
        last, prev = vals[-1] - vals[-2], vals[-2] - vals[-3]
        return last > 0 and last >= 0.5 * prev

    for name, sums in ((f"sum_eps_pow_m (m={m})", sum_eps_m),
                       ("sum_a_eps", sum_a_eps)):
        v = [sums[c] for c in cps]
        checks.append(ConditionCheck(
            name, cps, v, growing(v),
            "" if growing(v) else "partial sums flattening: divergence doubtful"))

    v = [eps_at[c] * math.sqrt(c) for c in cps]
    up = v[-1] > v[-2]  # the tail, not the hold/decay transient before it
    checks.append(ConditionCheck(
        "eps_sqrt_n", cps, v, up,
        "" if up else "eps(n)*sqrt(n) not increasing: eps(n)=omega(1/sqrt n) violated"))

    cvals = [cp * (1.0 - eps_at[cp + 1] / eps_at[cp]) if eps_at[cp] > 0
             else math.nan for cp in cps]
    down = all(b <= a for a, b in zip(cvals, cvals[1:])) and cvals[-1] < 0.5
    checks.append(ConditionCheck(
        "n_c_to_zero", cps, cvals, down,
        "" if down else "n*c(n) -> 0 violated"))

    bvals = [cp * _cooling_b(cp, cfg) for cp in cps]
    if all(b == 0 for b in bvals):
        checks.append(ConditionCheck("n_b_to_zero", cps, bvals, True,
                                     "no cooling: b(n) = 0"))
        checks.append(ConditionCheck("b_small_o_c", cps, [0.0] * len(cps), True,
                                     "no cooling: b(n) = 0"))
    else:
        bdown = all(b <= a for a, b in zip(bvals, bvals[1:])) and bvals[-1] < 0.5
        checks.append(ConditionCheck(
            "n_b_to_zero", cps, bvals, bdown,
            "" if bdown else "n*b(n) -> 0 violated"))
        ratios = [_cooling_b(cp, cfg) / (ncp / cp) if ncp > 0 else math.inf
                  for cp, ncp in zip(cps, cvals)]
        if cvals[-1] == 0.0:
            vanishing, note = True, "eps(n) held constant: no decay to outpace"
        else:
            vanishing = ratios[-1] < 0.1 and all(
                b < a for a, b in zip(ratios, ratios[1:]))
            note = "" if vanishing else \
                f"b(n)/c(n) not vanishing (last ratio {ratios[-1]:.3g})"
        checks.append(ConditionCheck("b_small_o_c", cps, ratios, vanishing, note))

    return ConditionReport(n_max=n_max, checks=checks)
