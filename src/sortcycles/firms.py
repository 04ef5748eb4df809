"""Firm-level closed forms, the wage schedule, the moments of a seeded
Monte-Carlo cross-section, and the exact revenue-concentration shares.

A firm is a point (theta, eps1, eps2).  Its allocation is an exponential tilt
of the equilibrium scale constants, so every firm-level statistic reduces to
moments of an exponential type mixed with Gaussian wedges: log quantities are
Pareto-lognormal convolutions with Pareto upper tails.  Sampling realizes the
continuum as a finite panel with counter-based draws, which makes panels
deterministic in (n, seed) and independent of chunking.  :func:`panel_moments`
is the one reduction of a panel: it draws and reduces it chunk by chunk, each
chunk holding only the columns of panel.csv, so a panel is never held whole,
and chunks can be dealt to forked worker processes, which send their results
and rows home through pipes, with the same result.  The workers are
processes, not threads: a thread pool gave the same bytes but ran slower and
larger on the measured 2-core machine (README, ``--threads``).

Every function here takes a solved equilibrium and reads ``eq.params`` and
``eq.shock`` from it.  The closed-form dispersions, which need lambda_t
alone, live in :mod:`sortcycles.statics`.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Callable, Iterator
from typing import NoReturn, TextIO

import numpy as np

from .errors import EmptyPanel, NonFinite, SortCyclesError
from .params import require_ints
from .rng import block_uniforms, exponential_icdf, normal_icdf
from .statics import EXP_CAP, StaticEquilibrium, _type_loadings, tfpr_type_loading

#: the columns of a sampled chunk and of panel.csv, in order
PANEL_COLUMNS = ("theta", "eps1", "eps2", "Q", "k", "l", "chi", "revenue", "log_tfpq",
                 "log_tfpr")

#: firms per sampling chunk, the unit of the moments' reduction, of panel.csv
#: and of the work dealt to worker processes; a chunk's 10 columns and their
#: temporaries peak at about 3 MB.  Since each firm owns one Philox block the
#: panel does not depend on it
SAMPLE_CHUNK = 1 << 14

_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
#: the top-share threshold is found once its step is this fraction of |t| + s
_TOPSHARE_XTOL = 4.0 * sys.float_info.epsilon


def matching(eq: StaticEquilibrium, x) -> float | np.ndarray:
    """Job type h assigned to a worker of type x: h = (lambda_x/lambda_t) x."""
    return (eq.params.lambda_x / eq.lambda_t) * np.asarray(x, dtype=float)[()]


def _wage_slope(eq: StaticEquilibrium) -> float:
    """d log w / dx = (psi/gamma)(lambda_x/lambda_t)^(1-psi)."""
    p = eq.params
    return (p.psi / p.gamma) * (p.lambda_x / eq.lambda_t) ** (1.0 - p.psi)


def wage(eq: StaticEquilibrium, x) -> float | np.ndarray:
    """Wage schedule w(x) = w0 exp((psi/gamma)(lambda_x/lambda_t)^(1-psi) x)."""
    return eq.w0 * np.exp(_wage_slope(eq) * np.asarray(x, dtype=float))[()]


def _log_wage(eq: StaticEquilibrium, theta: np.ndarray) -> np.ndarray:
    """log w(x) of the worker type x = (lambda_t/lambda_x) theta that a type-theta
    firm employs, log w0 + slope x in closed form, so nothing is exponentiated."""
    return math.log(eq.w0) + (_wage_slope(eq) * (eq.lambda_t / eq.params.lambda_x)) * theta


def _wedge(sigma: float, u: np.ndarray) -> np.ndarray:
    """sigma * normal_icdf(u).  A zero-width wedge skips the inverse cdf: the
    normal deviate has the sign of u - 0.5 (+0 at u = 0.5), so the product's
    signed zeros are sigma times that sign."""
    if sigma == 0.0:
        return sigma * np.copysign(1.0, u - 0.5)
    return sigma * normal_icdf(u)


def _sample_chunk(eq: StaticEquilibrium, seed: int, start: int,
                  stop: int) -> dict[str, np.ndarray]:
    """Firms start to stop - 1 of the seeded panel: the PANEL_COLUMNS, in order.

    theta ~ Exp(lambda_theta) and eps_i ~ N(0, sigma_i^2), i.i.d.  Firm i
    consumes exactly one counter block of the (seed, "panel") stream, so the
    panel is a pure function of (n, seed) whatever the chunk size.  A log
    quantity beyond EXP_CAP raises NonFinite.
    """
    params, shock, c = eq.params, eq.shock, eq.coefficients
    a, g, xi = params.alpha, params.gamma, params.xi
    kappa, eta_q = params.kappa, params.eta_q
    u = block_uniforms(seed, "panel", start, stop - start)
    theta = exponential_icdf(u[:, 0], params.lambda_theta)
    eps1 = _wedge(params.sigma1, u[:, 1])
    eps2 = _wedge(params.sigma2, u[:, 2])

    core = c.eta_q_theta * theta - g * eps1 - a * eps2
    logs = (math.log(eq.Q_bar) + eta_q * core,
            math.log(eq.k_bar) + kappa * eta_q * core - eps2,
            (math.log(eq.l_bar) + c.eta_l_theta * theta
             - (kappa * eta_q * g + 1.0) * eps1 - kappa * eta_q * a * eps2),
            math.log(eq.chi_bar) - (eta_q / xi) * core)
    worst = max(np.max(np.abs(v), initial=0.0) for v in logs)
    if worst > EXP_CAP:
        raise NonFinite(f"firm log magnitude {worst:.3g} exceeds the exp cap {EXP_CAP:g}")
    Q, k, l, chi = (np.exp(v) for v in logs)
    ratio, _ = _type_loadings(params, shock, eq.lambda_t)
    return dict(zip(PANEL_COLUMNS, (
        theta, eps1, eps2, Q, k, l, chi,
        (xi / (xi - 1.0)) * chi * Q,  # revenue: price times quantity
        ratio * theta,  # log TFPQ
        # log TFPR = log P + log TFPQ; the chi_bar term keeps it a true revenue
        # residual rather than the dispersion-only display that drops the
        # period constant
        (math.log(xi / (xi - 1.0)) + math.log(eq.chi_bar)
         + tfpr_type_loading(params, shock, eq.lambda_t) * theta
         + (eta_q / xi) * (g * eps1 + a * eps2)))))


_Spread = tuple[float, float, float]


def _spread(values: np.ndarray, weights: np.ndarray | None = None) -> _Spread:
    """(total weight, mean, M2) of one chunk, with unit weights where none are given."""
    if weights is None:
        mean = values.mean()
        return float(values.shape[0]), float(mean), float(((values - mean) ** 2).sum())
    total = weights.sum()
    mean = (values * weights).sum() / total
    return float(total), float(mean), float((((values - mean) ** 2) * weights).sum())


def _merge_spread(a: _Spread, b: _Spread) -> _Spread:
    """Pairwise update of Chan, Golub & LeVeque (1979); exact when a is (0, 0, 0)."""
    wa, ma, qa = a
    wb, mb, qb = b
    w = wa + wb
    delta = mb - ma
    return w, ma + delta * (wb / w), qa + qb + delta * delta * (wa * wb / w)


def panel_moments(eq: StaticEquilibrium, n: int, seed: int, workers: int = 1,
                  out: TextIO | None = None) -> dict[str, float | int]:
    """Empirical dispersion and concentration moments of the seeded n-firm panel,
    as the ``moments.json`` dict: var_log_wage, var_log_tfpq, var_log_tfpr,
    labor_share, rev_share_top10 and rev_share_p50_p90, then n as n_firms and
    the seed.

    The panel is drawn in chunks of SAMPLE_CHUNK firms (:func:`_sample_chunk`),
    each reduced to a weight, mean and M2 per log-variance as it comes; the
    chunks' spreads are merged pairwise in chunk order.  Only the revenue
    column, 8 bytes per firm, outlives its chunk.  Revenue ranks are
    descending; percentile boundaries use the nearest-rank convention, so the
    top-10% block of n firms is exactly round(n/10) firms, and tied revenues
    are equal values, so the shares do not depend on how ties are ordered.
    The wage variance weights each firm's (single) worker type by its
    employment l, which reproduces the worker-level variance through
    labor-market clearing; the log wage is the closed form of
    :func:`_log_wage`.  The labor share is the aggregate Y_l/Y of the
    underlying equilibrium, matching the way the empirical target is
    constructed.

    With w = min(workers, number of chunks), chunk i is reduced by the calling
    process where i % w == 0 and otherwise by a process forked for i % w
    (POSIX only); each holds one chunk at a time, and all of them write their
    revenues into one shared anonymous map.  The calling process takes the
    chunks' spreads in chunk order (:func:`_in_workers`), so the moments are
    bit for bit the same whatever ``workers``.

    With ``out``, the header and then each chunk's PANEL_COLUMNS rows, in draw
    order, are written to ``out`` by :func:`csvtext.write_rows`: the calling
    process's own chunks straight, a worker's as the text it sends.  A
    worker's exception is raised here with its own class, the lowest failing
    chunk's first, as in one process.  A revenue map that the system refuses
    raises MemoryError at the call.
    """
    import mmap

    require_ints(n=n, workers=workers)
    if n < 1:
        raise EmptyPanel("panel size must be at least 1")
    if out is not None:
        from .csvtext import write_rows  # before the workers fork

        out.write(",".join(PANEL_COLUMNS) + "\n")
    n_chunks = -(-n // SAMPLE_CHUNK)
    try:
        shared = mmap.mmap(-1, 8 * n)
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"cannot map {8 * n} bytes for the revenue column: {exc}") from exc
    revenue = np.frombuffer(shared, dtype=np.float64)

    def reduce_chunk(i: int, fh: TextIO | None) -> tuple[_Spread, _Spread, _Spread]:
        """Chunk i's (log wage, log TFPQ, log TFPR) spreads, with its revenues
        copied into the shared column and its rows written to ``fh``."""
        start = i * SAMPLE_CHUNK
        stop = min(start + SAMPLE_CHUNK, n)
        chunk = _sample_chunk(eq, seed, start, stop)
        if fh is not None:
            write_rows(fh, [chunk[name] for name in PANEL_COLUMNS])
        revenue[start:stop] = chunk["revenue"]
        return (_spread(_log_wage(eq, chunk["theta"]), chunk["l"]),
                _spread(chunk["log_tfpq"]), _spread(chunk["log_tfpr"]))

    log_w = log_q = log_r = (0.0, 0.0, 0.0)
    for w, q, r in _in_workers(reduce_chunk, n_chunks, max(1, min(workers, n_chunks)), out):
        log_w = _merge_spread(log_w, w)
        log_q = _merge_spread(log_q, q)
        log_r = _merge_spread(log_r, r)
    revenue.sort()
    descending = revenue[::-1]
    total = float(descending.sum())
    k10 = int(round(0.10 * n))
    k50 = int(round(0.50 * n))
    return {
        "var_log_wage": log_w[2] / log_w[0],
        "var_log_tfpq": log_q[2] / log_q[0],
        "var_log_tfpr": log_r[2] / log_r[0],
        "labor_share": eq.labor_share,
        "rev_share_top10": float(descending[:k10].sum()) / total,
        "rev_share_p50_p90": float(descending[k10:k50].sum()) / total,
        "n_firms": n,
        "seed": seed,
    }


class _Blocks(list):
    """The text blocks written to it, in order: a worker's stand-in for ``out``."""

    write = list.append


def _in_workers(task: Callable[[int, TextIO | None], object], count: int, workers: int,
                out: TextIO | None) -> Iterator:
    """Yield task(i, fh_i) for i in range(count), in order: task i runs here
    with fh_i = out where i % workers == 0, and otherwise in the process forked
    for i % workers (:func:`_work`), which sends the result and any text the
    task wrote home through its pipe; here that text is written to ``out``, so
    ``out`` receives all text in task order.

    The first failure in task order is raised, a worker's exception with its
    own class.  A worker whose pipe ends early raises SortCyclesError("worker
    process <pid> ended without a result (exit status <n>)"), and an OSError in
    creating a worker's pipe or process SortCyclesError("cannot start a worker
    process: <reason>") before any task runs.  Workers write nothing to stdout
    or stderr; every worker is reaped, and one still running when the
    iteration stops or raises is killed first.
    """
    import pickle
    import signal

    procs, reaped = [], set()  # procs: (pid, the read end of its pipe)
    sys.stdout.flush()  # so that no worker holds a copy of unwritten output
    sys.stderr.flush()
    try:
        try:
            for k in range(1, workers):
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:
                    _work(task, range(k, count, workers), out is not None, write)
                os.close(write)
                procs.append((pid, open(read, "rb")))
        except OSError as exc:
            raise SortCyclesError(f"cannot start a worker process: {exc.strerror or exc}") from exc
        for i in range(count):
            if i % workers == 0:
                yield task(i, out)
                continue
            pid, pipe = procs[i % workers - 1]
            try:
                ok, value, blocks = pickle.load(pipe)
                for _ in range(blocks):
                    out.write(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                _, status = os.waitpid(pid, 0)
                reaped.add(pid)
                raise SortCyclesError(f"worker process {pid} ended without a result (exit "
                                      f"status {os.waitstatus_to_exitcode(status)})") from None
            if not ok:
                raise value
            yield value
        for pid, _ in procs:
            os.waitpid(pid, 0)
            reaped.add(pid)
    finally:
        for pid, pipe in procs:
            pipe.close()
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _work(task: Callable[[int, TextIO | None], object], tasks: range, text: bool,
          write: int) -> NoReturn:
    """A forked worker: run task(i, fh) for each i in ``tasks``, fh a
    :class:`_Blocks` if ``text`` else None, and send each outcome down the pipe
    ``write`` once its text is whole, so that a full pipe holds the worker up
    only between tasks: (True, result, number of blocks) and then one pickle
    per block, or (False, exception, 0), which ends the run.  The process ends
    through os._exit, without the clean-up that belongs to its parent."""
    import pickle

    status = 1
    try:
        with open(write, "wb") as pipe:
            for i in tasks:
                fh = _Blocks() if text else None
                try:
                    value = task(i, fh)
                except BaseException as exc:  # the parent raises it again
                    pickle.dump((False, exc, 0), pipe)
                    break
                blocks = fh or []
                pickle.dump((True, value, len(blocks)), pipe)
                for block in blocks:
                    pickle.dump(block, pipe)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _ndtr(x: float) -> float:
    """Standard normal cdf, 0.5·erfc(-x/sqrt 2)."""
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _log_ndtr(x: float) -> float:
    """log of the standard normal cdf, accurate in both tails.

    Above 0 it is log1p of minus the upper tail, so that it keeps its
    relative accuracy where the cdf rounds to one; below -20, where the cdf
    nears underflow, it is the asymptotic series of Abramowitz & Stegun
    26.2.12, log Phi(x) = -x²/2 - log(-x·sqrt(2 pi)) + log(1 - 1/x² + 3/x⁴ - ...),
    whose terms fall below 1e-17 of the first by the eleventh.
    """
    if x > 0.0:
        return math.log1p(-_ndtr(-x))
    if x > -20.0:
        return math.log(_ndtr(x))
    inv = 1.0 / (x * x)
    term = series = 1.0
    for k in range(1, 12):
        term *= -(2 * k - 1) * inv
        series += term
    return -0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI + math.log(series)


def _tail_prob(t: float, a: float, s: float, m: float) -> tuple[float, float]:
    """(P(a*theta + s*Z > t), m*rest) for a != 0 and s > 0, where m is the
    rate of |a|*theta and rest the tail probability's type term.

    The tail probability's slope in t is -m*rest: differentiating rest also
    gives a normal density that cancels the one of the first term once the
    square is completed.
    """
    u = t / s
    if a > 0.0:
        rest = math.exp(min(-m * t + 0.5 * (m * s) ** 2 + _log_ndtr(u - m * s), 0.0))
        return _ndtr(-u) + rest, m * rest
    rest = math.exp(min(m * t + 0.5 * (m * s) ** 2 + _log_ndtr(-u - m * s), 0.0))
    return _ndtr(-u) - rest, m * rest


def _upper_share(t: float, a: float, s: float, rate: float, m: float) -> float:
    """Share of E[exp(a*theta + s*Z)] earned where a*theta + s*Z > t."""
    u = t / s
    lead = _ndtr(s - u)
    if a > 0.0:
        return lead + math.exp(-(rate - a) * t / a + 0.5 * ((m * s) ** 2 - s * s)
                               + _log_ndtr(u - m * s))
    return lead - math.exp((rate + abs(a)) * t / abs(a) + 0.5 * ((m * s) ** 2 - s * s)
                           + _log_ndtr(-u - m * s))


def pareto_lognormal_topshare(a: float, s: float, rate: float, q: float) -> float:
    """Share of E[exp(a*theta + s*Z)] earned above its upper q-quantile,
    theta ~ Exp(rate), Z ~ N(0,1) independent.

    Conditioning on Z makes the tail probability, its slope and the truncated
    mean closed forms (exponential survival times normal cdfs), so the
    threshold is found by safeguarded Newton on the tail probability
    (``rtsafe``, Press et al., Numerical Recipes, 9.4): a Newton step is
    taken while it stays inside the sign-change bracket and at least halves
    the step before last, a bisection step otherwise.  Products
    exp(big)*ndtr(-big) are assembled through log_ndtr to avoid overflow.
    Requires rate > a for a finite mean, which the capital-demand guard
    already enforces.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    if a >= rate:
        raise ValueError("mean revenue diverges: need rate > a")

    if s == 0.0:
        if a > 0.0:
            return q ** (1.0 - a / rate)
        if a < 0.0:
            cut = -math.log1p(-q) / rate
            return 1.0 - math.exp((a - rate) * cut)
        return q
    if a == 0.0:
        # pure lognormal
        return _ndtr(s - float(normal_icdf(1.0 - q)))

    m = rate / abs(a)  # type-tail rate per unit of log revenue
    lo = -60.0 * s - 60.0 / m * (a < 0.0) - 1.0
    hi = 60.0 * s + (60.0 * a / rate if a > 0.0 else 0.0) + 1.0
    # the pure-Pareto quantile for a > 0, the top of the type term for a < 0:
    # math-only guesses, since one scalar numpy call costs more than the
    # steps a better guess would save
    t = -math.log(q) / m if a > 0.0 else 0.0
    if not lo < t < hi:
        t = 0.5 * (lo + hi)
    step = before = hi - lo  # the last step and the one before it
    for _ in range(200):
        p, slope = _tail_prob(t, a, s, m)
        excess = p - q  # the root is above t while the tail holds more than q
        if excess > 0.0:
            lo = t
        else:
            hi = t
        dt = excess / slope if slope > 0.0 else math.inf  # the Newton step
        if not (lo <= t + dt <= hi and 2.0 * abs(dt) <= abs(before)):
            dt = 0.5 * (lo + hi) - t  # bisect
        before, step = step, dt
        t += dt
        if abs(dt) <= _TOPSHARE_XTOL * (abs(t) + s):
            break
    return _upper_share(t, a, s, rate, m)


def revenue_concentration(eq: StaticEquilibrium) -> tuple[float, float]:
    """(top-10% share, top-50%-minus-top-10% share) of the firm continuum.

    log revenue is kappa eta_q (eta_q_theta theta - gamma eps1 - alpha eps2)
    up to a constant, a Pareto-lognormal.  The shares are evaluated in closed
    form rather than by panel sampling: with tail indices barely above one,
    finite panels understate concentration at any feasible size, while the
    continuum value is what the model's cross-section actually implies.
    """
    c, params = eq.coefficients, eq.params
    ke = params.kappa * params.eta_q
    a = ke * c.eta_q_theta
    s = ke * math.sqrt((params.gamma * params.sigma1) ** 2
                       + (params.alpha * params.sigma2) ** 2)
    top10 = pareto_lognormal_topshare(a, s, params.lambda_theta, 0.10)
    top50 = pareto_lognormal_topshare(a, s, params.lambda_theta, 0.50)
    return top10, top50 - top10

