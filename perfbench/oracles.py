"""Reference computations the benchmark checks program outputs against.

Everything here is written from the model's definitions and shares no code
with the `pspin_glauber` package:

* the Gibbs magnetisation-level law from `math.lgamma`;
* the birth-death rates of the magnetisation chain from the update rule;
* mixing times from powers of the dense level-chain matrix;
* the U/L boundary curves from the zero-field inflection pair of H''.
"""

from __future__ import annotations

import math

import numpy as np


# -- magnetisation chain ------------------------------------------------------


def log_gibbs_level_law(p: int, beta: float, h: float, N: int) -> list[float]:
    """log Gibbs law of the magnetisation sum on k = -N, -N+2, ..., N.

    log w(k) = log C(N, (N+k)/2) + N (beta c^p + h c), c = k/N, normalised
    in log space so that no level underflows.
    """
    logw = []
    for n_plus in range(N + 1):
        c = (2 * n_plus - N) / N
        logw.append(math.lgamma(N + 1) - math.lgamma(n_plus + 1)
                    - math.lgamma(N - n_plus + 1) + N * (beta * c**p + h * c))
    top = max(logw)
    log_z = top + math.log(math.fsum(math.exp(v - top) for v in logw))
    return [v - log_z for v in logw]


def gibbs_level_law(p: int, beta: float, h: float, N: int) -> np.ndarray:
    return np.exp(log_gibbs_level_law(p, beta, h, N))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def level_rates(p: int, beta: float, h: float, N: int):
    """(up, down) one-step probabilities of the magnetisation sum per level.

    A step picks a uniform site and sets it to +1 with probability
    (1 + tanh(d))/2 = sigmoid(2d), d = p*beta*c^(p-1) + h, c = k/N.
    """
    up, down = [], []
    for n_plus in range(N + 1):
        c = (2 * n_plus - N) / N
        d = p * beta * c ** (p - 1) + h
        up.append(0.5 * (1.0 - c) * _sigmoid(2.0 * d))
        down.append(0.5 * (1.0 + c) * _sigmoid(-2.0 * d))
    return up, down


def dense_level_matrix(p: int, beta: float, h: float, N: int) -> np.ndarray:
    up, down = level_rates(p, beta, h, N)
    P = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        if i + 1 <= N:
            P[i, i + 1] = up[i]
        if i - 1 >= 0:
            P[i, i - 1] = down[i]
        P[i, i] = 1.0 - up[i] - down[i]
    return P


def mixing_time_by_power(p: int, beta: float, h: float, N: int, eps: float,
                         cap: int) -> int | None:
    """Worst of the all-plus/all-minus TV crossing times, by dense powers."""
    P = dense_level_matrix(p, beta, h, N)
    pi = gibbs_level_law(p, beta, h, N)
    worst = 0
    for start in (N, 0):  # level index of sum +N and of sum -N
        mu = np.zeros(N + 1)
        mu[start] = 1.0
        for t in range(cap + 1):
            if 0.5 * np.abs(mu - pi).sum() <= eps:
                break
            mu = mu @ P
        else:
            return None
        worst = max(worst, t)
    return worst


def log_phi_star(p: int, beta: float, h: float, N: int) -> float:
    """log of the smallest Q(A, A^c)/pi(A) over interval cuts with pi(A) <= 1/2."""
    log_pi = log_gibbs_level_law(p, beta, h, N)
    up, down = level_rates(p, beta, h, N)
    best = math.inf
    acc = -math.inf
    for i in range(N):  # A = {levels <= i}
        acc = np.logaddexp(acc, log_pi[i])
        if acc <= math.log(0.5):
            best = min(best, log_pi[i] + math.log(up[i]) - acc)
    acc = -math.inf
    for i in range(N, 0, -1):  # A = {levels >= i}
        acc = np.logaddexp(acc, log_pi[i])
        if acc <= math.log(0.5):
            best = min(best, log_pi[i] + math.log(down[i]) - acc)
    return float(best)


def tv(hist: np.ndarray, law: np.ndarray) -> float:
    return 0.5 * float(np.abs(hist - law).sum())


# -- phase geometry -----------------------------------------------------------


def beta_hat(p: int) -> float:
    """Zero-field concavity threshold, closed form."""
    return 1.0 / (2.0 * (p - 1)) * (p / (p - 2.0)) ** ((p - 2.0) / 2.0)


def _golden_min(f, a: float, b: float, iters: int = 200) -> float:
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return f(0.5 * (a + b))


def beta_tilde(p: int) -> float:
    """min over x in (0, 1) of I(x) / x^p; for even p, C = 0 above it."""
    ent = lambda x: 0.5 * ((1 + x) * math.log1p(x) + (1 - x) * math.log1p(-x))
    return _grid_golden_min(lambda x: ent(x) / x**p)


def _grid_golden_min(f) -> float:
    xs = [1e-3 + i * (1.0 - 2e-3) / 4000 for i in range(4001)]
    i = min(range(len(xs)), key=lambda j: f(xs[j]))
    return _golden_min(f, xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)])


def beta_prime(p: int) -> float:
    """min over x in (0, 1) of atanh(x) / (p x^(p-1))."""
    return _grid_golden_min(lambda x: math.atanh(x) / (p * x ** (p - 1)))


def _bisect(f, a: float, b: float) -> float:
    fa = f(a)
    for _ in range(200):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def ul_curves(p: int, beta: float, b_prime: float):
    """(U, L) at beta > beta_hat(p); L is None for even p above beta_prime.

    a1 < a2 are the positive roots of H''(x) = p(p-1)beta x^(p-2) - 1/(1-x^2)
    at zero field; with g(x) = p beta x^(p-1) - atanh(x) = H'(x; h=0),
    odd p has U = -g(a1), L = -g(a2), and even p (where g is odd) has
    U = max(-g(a1), g(a2)), L = -g(a2) up to beta_prime.
    """
    d2 = lambda x: p * (p - 1) * beta * x ** (p - 2) - 1.0 / (1.0 - x * x)
    g = lambda x: p * beta * x ** (p - 1) - math.atanh(x)
    w = math.sqrt(1.0 - 2.0 / p)  # where x^(p-2) (1 - x^2) peaks
    a1 = _bisect(d2, 0.0, w)
    a2 = _bisect(d2, w, 1.0 - 1e-9)
    g1, g2 = g(a1), g(a2)
    if p % 2 == 1:
        return -g1, -g2
    return max(-g1, g2), (-g2 if beta <= b_prime else None)


class CurveBand:
    """Two-phase verdict from the U/L band: 1 inside, 0 outside, None near a line.

    Same decision rule as the repository's phase-classification acceptance
    check, evaluated from this module's own curves.
    """

    def __init__(self, p: int, tol: float = 1e-4):
        self.p, self.tol = p, tol
        self.b_hat = beta_hat(p)
        self.b_prime = beta_prime(p)
        self._cache: dict[float, tuple] = {}

    def curves(self, beta: float):
        if beta not in self._cache:
            self._cache[beta] = ul_curves(self.p, beta, self.b_prime)
        return self._cache[beta]

    def verdict(self, beta: float, h: float):
        p, tol = self.p, self.tol
        if beta <= self.b_hat - tol:
            return 0
        if beta <= self.b_hat + tol:
            return None
        U, L = self.curves(beta)
        href = abs(h) if p % 2 == 0 else h
        if p % 2 == 1 or beta <= self.b_prime - tol:
            lo, hi = L, U
        elif beta <= self.b_prime + tol:
            return None
        else:
            lo, hi = -2 * tol, U
        if lo + tol < href < hi - tol:
            return 1
        if href > hi + tol or href < lo - tol:
            return 0
        return None

    def margin(self, beta: float, h: float):
        """Distance of (|h| for even p, else h) to the nearest of U and L."""
        U, L = self.curves(beta)
        href = abs(h) if self.p % 2 == 0 else h
        return min(abs(href - v) for v in (U, L) if v is not None)
