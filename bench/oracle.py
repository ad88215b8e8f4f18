"""Independent Gaussian-process oracle for checking tracksim's GP outputs.

Written apart from ``tracksim.gp``: the kernel is built from explicit
pairwise differences (not the ``|a|^2 + |b|^2 - 2ab`` expansion), and the
marginal likelihood and posterior mean come from a dense LU ``solve`` and
``slogdet`` instead of a Cholesky factor. Only the model definition is
shared: a zero-mean squared-exponential ARD GP per output on standardized
inputs and targets, with the kernel matrix regularized by the documented
factorization jitter (1e-10 of its mean diagonal).

Run ``python3 bench/oracle.py`` for the self-check against a double-loop
kernel on a tiny case.
"""

from __future__ import annotations

import math
import sys

import numpy as np

JITTER_REL = 1e-10


def kernel(a: np.ndarray, b: np.ndarray, log_lengthscales, log_signal_var: float) -> np.ndarray:
    """Squared-exponential ARD covariance from per-dimension differences."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    ls = np.exp(np.asarray(log_lengthscales, dtype=float))
    sq = np.zeros((a.shape[0], b.shape[0]))
    for d in range(a.shape[1]):
        diff = (a[:, d][:, None] - b[:, d][None, :]) / ls[d]
        sq += diff * diff
    return math.exp(log_signal_var) * np.exp(-0.5 * sq)


def noisy_gram(xs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """K + noise I, plus the jitter the model definition adds."""
    d = xs.shape[1]
    k = kernel(xs, xs, theta[:d], float(theta[d]))
    k[np.diag_indices_from(k)] += math.exp(float(theta[d + 1]))
    k[np.diag_indices_from(k)] += JITTER_REL * float(np.mean(np.diag(k)))
    return k


def nll(theta, xs: np.ndarray, zs: np.ndarray) -> float:
    """Negative log marginal likelihood of one standardized output."""
    theta = np.asarray(theta, dtype=float)
    ky = noisy_gram(xs, theta)
    sign, logdet = np.linalg.slogdet(ky)
    if sign <= 0:
        raise ValueError("oracle Gram matrix is not positive definite")
    alpha = np.linalg.solve(ky, zs)
    return 0.5 * float(zs @ alpha) + 0.5 * logdet + 0.5 * len(zs) * math.log(2.0 * math.pi)


def data_scaled_start(xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The documented optimizer start: data scales of the standardized set."""
    std = xs.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    var = float(zs.var())
    d = xs.shape[1]
    theta = np.concatenate([np.log(std), [0.0], [math.log(0.01)]])
    if var > 0.0:
        theta[d] = math.log(var)
        theta[d + 1] = math.log(0.01 * var)
    return theta


class OracleModel:
    """Posterior of a two-output model rebuilt from a model.json payload."""

    def __init__(self, payload: dict):
        std = payload["standardization"]
        self.input_mean = np.asarray(std["input_mean"], dtype=float)
        self.input_std = np.asarray(std["input_std"], dtype=float)
        self.target_mean = np.asarray(std["target_mean"], dtype=float)
        self.target_std = np.asarray(std["target_std"], dtype=float)
        inputs = np.asarray(payload["inputs"], dtype=float)
        targets = np.asarray(payload["targets"], dtype=float)
        self.xs = (inputs - self.input_mean) / self.input_std
        self.zs = (targets - self.target_mean) / self.target_std
        self.thetas = [
            np.concatenate(
                [out["log_lengthscales"], [out["log_signal_variance"], out["log_noise_variance"]]]
            )
            for out in payload["outputs"]
        ]
        self.reported_nll = [out["final_nll"] for out in payload.get("report", {}).get("outputs", [])]
        self._weights: list[np.ndarray] = []

    def nll(self, j: int) -> float:
        return nll(self.thetas[j], self.xs, self.zs[:, j])

    def start_nll(self, j: int) -> float:
        zs = self.zs[:, j]
        return nll(data_scaled_start(self.xs, zs), self.xs, zs)

    def mean(self, w: np.ndarray) -> np.ndarray:
        """Posterior mean command at raw queries (M, 6) -> (M, 2)."""
        if not self._weights:
            self._weights = [
                np.linalg.solve(noisy_gram(self.xs, th), self.zs[:, j])
                for j, th in enumerate(self.thetas)
            ]
        ws = (np.atleast_2d(w) - self.input_mean) / self.input_std
        d = self.xs.shape[1]
        cols = [
            kernel(ws, self.xs, th[:d], float(th[d])) @ wt
            for th, wt in zip(self.thetas, self._weights)
        ]
        return np.column_stack(cols) * self.target_std + self.target_mean


def check_fit(payload: dict, rel_tol: float = 1e-6) -> list[str]:
    """Oracle checks of a fitted model; returns failure messages.

    For every output, the oracle NLL at the fitted hyperparameters must
    match the reported one to rel_tol and must not exceed the oracle NLL
    at the data-scaled start.
    """
    model = OracleModel(payload)
    problems = []
    if len(model.reported_nll) != len(model.thetas):
        return [f"model reports {len(model.reported_nll)} NLLs for {len(model.thetas)} outputs"]
    for j, reported in enumerate(model.reported_nll):
        ours = model.nll(j)
        if not abs(ours - reported) <= rel_tol * abs(reported):
            problems.append(f"output {j}: oracle NLL {ours!r} vs reported {reported!r}")
        start = model.start_nll(j)
        if not ours <= start:
            problems.append(f"output {j}: fitted NLL {ours!r} above start NLL {start!r}")
    return problems


def _loop_kernel(a, b, log_lengthscales, log_signal_var):
    ls = [math.exp(v) for v in log_lengthscales]
    out = np.empty((len(a), len(b)))
    for i in range(len(a)):
        for j in range(len(b)):
            s = 0.0
            for d in range(len(ls)):
                s += ((a[i][d] - b[j][d]) / ls[d]) ** 2
            out[i, j] = math.exp(log_signal_var) * math.exp(-0.5 * s)
    return out


def selfcheck() -> list[str]:
    """Oracle vs a double-loop kernel and an eigendecomposition on 9 points."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(9, 6))
    q = rng.normal(size=(4, 6))
    z = rng.normal(size=9)
    theta = np.concatenate([rng.normal(0.0, 0.3, 6), [0.2], [math.log(0.05)]])
    problems = []
    k_fast = kernel(x, q, theta[:6], theta[6])
    k_loop = _loop_kernel(x.tolist(), q.tolist(), theta[:6].tolist(), float(theta[6]))
    if not np.allclose(k_fast, k_loop, rtol=1e-13, atol=0.0):
        problems.append("vectorized kernel disagrees with the double loop")
    ky = _loop_kernel(x.tolist(), x.tolist(), theta[:6].tolist(), float(theta[6]))
    ky += math.exp(theta[7]) * np.eye(9)
    ky += JITTER_REL * float(np.mean(np.diag(ky))) * np.eye(9)
    evals, evecs = np.linalg.eigh(ky)
    proj = evecs.T @ z
    ref = 0.5 * float(np.sum(proj**2 / evals)) + 0.5 * float(np.sum(np.log(evals))) + 4.5 * math.log(2 * math.pi)
    if not math.isclose(nll(theta, x, z), ref, rel_tol=1e-12):
        problems.append("oracle NLL disagrees with the eigendecomposition")
    mean_loop = _loop_kernel(q.tolist(), x.tolist(), theta[:6].tolist(), float(theta[6])) @ (evecs @ (proj / evals))
    mean_fast = kernel(q, x, theta[:6], theta[6]) @ np.linalg.solve(noisy_gram(x, theta), z)
    if not np.allclose(mean_fast, mean_loop, rtol=1e-10, atol=1e-12):
        problems.append("oracle posterior mean disagrees with the double loop")
    return problems


if __name__ == "__main__":
    failures = selfcheck()
    for msg in failures:
        print(f"oracle selfcheck FAIL: {msg}", file=sys.stderr)
    print("oracle selfcheck", "FAIL" if failures else "ok")
    sys.exit(1 if failures else 0)
