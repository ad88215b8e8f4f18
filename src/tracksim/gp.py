"""Gaussian-process regression of the vehicle's inverse command model.

Each training sample pairs a six-dimensional context
(next realized offset delta, current offset delta, heading) with the
two-dimensional track command that produced it. The two command outputs
are modeled by two independent zero-mean GPs over the shared inputs
(conditional independence given the context), each with its own
squared-exponential ARD kernel and noise level.

Each output's hyperparameters are one log-space vector theta = [log
lengthscales (D), log signal variance, log noise variance], chosen by
maximizing the exact log marginal likelihood with analytic gradients
under a bounded quasi-Newton optimizer, from a data-scaled start plus
seeded random restarts. Each start stops at max_iter iterations, at the
gradient tolerance, or once an iteration lowers the objective by less
than OPTIMIZER_FTOL of its value, and its report says which. Inputs and
targets are standardized internally; the stored transform is inverted at
prediction time.

A fitted or loaded model is complete from the start: _output_model
builds each output at once from its theta and the standardized training
data, with the training inputs divided by that output's lengthscales,
their squared row norms, the Cholesky factor of the noisy kernel matrix,
its jitter and the weight vector. A query then scales only itself and
pays for one 1 x N kernel row, its exp and a dot product per output.

One evaluation of the fit's objective holds two N x N buffers: the
kernel matrix, and a work buffer that LAPACK factors, inverts and that
is multiplied by the kernel matrix, each step in place. The gradient is
read from thin N x (D + 1) products, so no inverse is mirrored and no
outer product formed. The objective and _output_model share one factor
helper, _chol_with_jitter, the only code that adds the noise variance
and the jitter to a diagonal, in its own work buffer. So no kernel
matrix is ever written, and a fitted and a loaded model take the same
factor.

The optimizations, one per (output, start) pair, are independent jobs
of one list: on a machine with two or more usable CPUs, fits of
_PARALLEL_MIN_N samples or more run the list in a pool of forked worker
processes that ends with the fit, otherwise in the process itself. The
results are merged per output in list order either way, so the model
file has the same bytes on one CPU or several.

scipy loads scipy.linalg and scipy.optimize on first use, so a command
that never factors or fits a GP never imports them; a parallel fit loads
scipy.optimize before its pool forks, so no worker imports it again.

The fit, model_from_dict and held_out_error's batched prediction run
their BLAS and LAPACK calls on one OpenBLAS thread, whatever
OPENBLAS_NUM_THREADS says, and restore the previous thread count
afterwards. Threaded reductions sum in another order, which made the
fitted hyperparameters depend on the thread count, and at these problem
sizes two threads made the fit about three times slower than one. Only
the OpenBLAS bundled with the numpy and scipy Linux wheels is pinned;
any other BLAS keeps its own setting.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy

KERNEL_KIND = "squared_exponential_ard"
MODEL_FORMAT = "tracksim-gp"
MODEL_FORMAT_VERSION = 1

# jitter added to the noisy kernel matrix before factorization, relative
# to its mean diagonal; escalates by 10x on failure up to the max
JITTER_REL_INIT = 1e-10
JITTER_REL_MAX = 1e-4

# log-space optimizer bounds (standardized data): lengthscales, signal
# variance, noise variance
BOUND_LOG_LENGTHSCALE = (math.log(1e-3), math.log(1e4))
BOUND_LOG_SIGNAL_VAR = (math.log(1e-6), math.log(1e6))
BOUND_LOG_NOISE_VAR = (math.log(1e-12), math.log(1e3))

# most optimizer restarts per output. Every start is drawn before the
# first one runs, so an unbounded count exhausts memory before the fit
# begins (200,000 starts of one output: 74 MB). One start of the recipe
# fit (N=1000) takes about 1.3 s on one CPU, so this cap is already
# about 45 minutes of fitting, far past any gain, in start lists of 0.4 MB.
MAX_RESTARTS = 1000

# L-BFGS-B stops a start once an iteration lowers the NLL by less than
# this share of its value. Clean figure-8 fit at N=500, 2 CPUs, objective
# evaluations: 153-171 for 1e-6, 3e-7, 1e-7 and 3e-8, 253 for 1e-8 and
# 268 at scipy's default (2.2e-9), with the same held-out error.
OPTIMIZER_FTOL = 1e-7

# why a start stopped, by the prefix of L-BFGS-B's message upper-cased,
# as older scipy spells some in mixed case
_STOP_REASONS = {"CONVERGENCE: REL": "ftol", "CONVERGENCE: NORM": "gtol",
                 "STOP: TOTAL NO. OF ITERATIONS": "max_iter", "ABNORMAL": "line_search"}


# Training sets smaller than this are fitted serially, because starting
# the worker pool costs about as much as running the optimizations side
# by side saves. Measured on 2 CPUs with the two-buffer objective,
# medians of 8 fits of the clean figure-8 data (restarts 1), serial
# against pool, two runs: 0.11/0.13 s vs 0.10/0.13 s at N=100 (one run
# a tie), 0.17/0.20 s vs 0.10/0.11 s at N=150, 0.32/0.40 s vs 0.21/0.22 s
# at N=200.
_PARALLEL_MIN_N = 150

# The cgroup v2 CPU quota of this process, "<quota> <period>" or
# "max <period>". A container held to one CPU's time still lists every
# host CPU in its affinity mask, so the mask alone overstates the CPUs.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


class ConditioningError(RuntimeError):
    """Kernel matrix could not be factorized even at maximum jitter."""


@functools.cache
def _bundled_openblas() -> tuple:
    """(get, set) thread-count functions of each wheel-bundled OpenBLAS.

    numpy's copy exports the symbols with the ILP64 suffix "64_", scipy's
    without; the tuple is empty when neither wheel bundles one.
    """
    found = []
    for module, suffix in ((np, "64_"), (scipy, "")):
        site = os.path.dirname(os.path.dirname(module.__file__))
        pattern = os.path.join(site, f"{module.__name__}.libs", "libscipy_openblas*.so")
        for path in sorted(glob.glob(pattern)):
            lib = ctypes.CDLL(path)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.append((get, put))
    return tuple(found)


@contextlib.contextmanager
def _single_blas_thread():
    """Run the enclosed block on one OpenBLAS thread, then restore each
    library's previous thread count (also when the block raises)."""
    libs = _bundled_openblas()
    previous = [get() for get, _ in libs]
    for _, put in libs:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(libs, previous):
            put(count)


def kernel_matrix(theta: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix between two input sets (M,D) x (P,D) under
    the hyperparameters theta = [log lengthscales (D), log signal
    variance, log noise variance]; the noise variance is not read."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or not np.all(np.isfinite(theta)):
        raise ValueError("hyperparameters must be a finite 1-D array")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d = theta.shape[0] - 2
    if a.shape[1] != d or b.shape[1] != d:
        raise ValueError(
            f"inputs must have {d} columns, got {a.shape[1]} and {b.shape[1]}"
        )
    lengthscales = np.exp(theta[:d])
    ua = a / lengthscales
    ub = ua if b is a else b / lengthscales
    return _scaled_kernel(math.exp(theta[d]), ua, _sq_norms(ua), ub, _sq_norms(ub))


def _sq_norms(u: np.ndarray) -> np.ndarray:
    return np.sum(u**2, axis=1)


def _scaled_kernel(
    signal_var: float, ua: np.ndarray, na: np.ndarray, ub: np.ndarray, nb: np.ndarray
) -> np.ndarray:
    """kernel_matrix from the signal variance and inputs already divided
    by the lengthscales, with their squared row norms na and nb."""
    sq = ua @ ub.T
    sq *= -2.0
    sq += na[:, None]
    sq += nb[None, :]
    np.maximum(sq, 0.0, out=sq)
    sq *= -0.5
    np.exp(sq, out=sq)
    sq *= signal_var
    return sq


@dataclass(frozen=True)
class Dataset:
    """Paired regression data: inputs (N, 6), targets (N, 2)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.inputs, dtype=float)
        z = np.asarray(self.targets, dtype=float)
        if w.ndim != 2 or z.ndim != 2:
            raise ValueError("inputs and targets must be 2-D arrays")
        if w.shape[0] != z.shape[0]:
            raise ValueError(
                f"row mismatch: {w.shape[0]} inputs vs {z.shape[0]} targets"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(z))):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "inputs", w)
        object.__setattr__(self, "targets", z)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameter-optimization settings.

    The defaults are the experiment config's: one seeded restart and a
    1000-sample cap is the setting the multi-variant recipe in the README
    was tuned under, and more optimizer effort does not help closed-loop
    tracking when the data covers a thin tube of the input space.
    """

    max_iter: int = 200
    grad_tol: float = 1e-6
    restarts: int = 1
    restart_spread: float = 0.5
    seed: int = 0
    max_train: int = 1000

    def __post_init__(self) -> None:
        # a GP needs two samples to fit, as train demands of its dataset
        for name, low in (("max_iter", 1), ("grad_tol", 0.0), ("restarts", 0),
                          ("restart_spread", 0.0), ("max_train", 2)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.restarts > MAX_RESTARTS:
            raise ValueError(f"restarts must be at most {MAX_RESTARTS}, got {self.restarts}")


def _chol_with_jitter(k: np.ndarray, noise_var: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of k + (noise_var + jitter) I, k a symmetric
    kernel matrix, with escalating jitter: the only code that adds either
    variance to a diagonal.

    Each attempt copies k into one work buffer, adds noise_var and then
    the jitter, a share of the noisy mean diagonal, to its diagonal and
    factors it there with LAPACK dpotrf on its Fortran-ordered view, so k
    is never written. Returns (L, jitter), L that Fortran-ordered view
    with its upper triangle zeroed. Raises ConditioningError when even the
    maximum jitter cannot rescue the factorization.
    """
    n = k.shape[0]
    work = np.empty((n, n))
    rel = JITTER_REL_INIT
    while True:
        np.copyto(work, k)
        work.flat[:: n + 1] += noise_var
        jitter = rel * (float(np.trace(work)) / n)
        work.flat[:: n + 1] += jitter
        # Fortran-ordered work.T (the noisy k up to rounding) is factored without a copy
        l, info = scipy.linalg.lapack.dpotrf(work.T, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return l, jitter
        if rel >= JITTER_REL_MAX:
            raise ConditioningError(
                f"Cholesky failed at maximum jitter {jitter:.3e} "
                f"(relative level {rel:.0e})"
            )
        rel *= 10.0


def nll_and_grad(
    theta: np.ndarray, inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood of one output, with gradient.

    theta = [log lengthscales (D), log signal variance, log noise
    variance]. The value is that of the jittered matrix the Cholesky
    factor was taken of, and the gradient is its exact derivative: the
    jitter is a fixed share of the mean diagonal, so it contributes to
    both variance components.

    Two N x N buffers do all the work: K, and the factor that is inverted
    in place and then multiplied by K. The gradient needs P = (alpha
    alpha' - K_y^-1) o K only through P [U, 1], U the scaled inputs, so
    the lower triangle of K_y^-1 is never mirrored.
    """
    n, d = inputs.shape
    signal_var, noise_var = math.exp(theta[d]), math.exp(theta[d + 1])
    k = kernel_matrix(theta, inputs, inputs)
    l, jitter = _chol_with_jitter(k, noise_var)
    alpha, _ = scipy.linalg.lapack.dpotrs(l, targets, lower=1)
    nll = (
        0.5 * float(targets @ alpha)
        + float(np.sum(np.log(np.diag(l))))
        + 0.5 * n * math.log(2.0 * math.pi)
    )
    k_inv, info = scipy.linalg.lapack.dpotri(l, lower=1, overwrite_c=1)
    if info != 0:
        # dpotri checks L's diagonal before it writes, so L is still whole
        k_inv[...] = scipy.linalg.cho_solve((l, True), np.eye(n))
    trace_m = float(alpha @ alpha) - float(np.trace(k_inv))
    k_inv *= k.T  # lower triangle of K_y^-1 o K, both Fortran-ordered
    scaled = inputs / np.exp(theta[:d])
    v = np.column_stack([scaled, np.ones(n)])
    # P [U, 1] = alpha o (K (alpha o [U, 1])) - (K_y^-1 o K) [U, 1]
    pv = k @ (alpha[:, None] * v)
    pv *= alpha[:, None]
    pv -= scipy.linalg.blas.dsymm(1.0, k_inv, v, lower=1)
    row_sums = pv[:, d]
    grad = np.empty(d + 2)
    # d/d(log l_d) of -log p: -(sum_i u_id^2 s_i - u_d' P u_d)
    grad[:d] = -(
        np.einsum("nd,n->d", scaled**2, row_sums)
        - np.einsum("nd,nd->d", scaled, pv[:, :d])
    )
    share = jitter / (signal_var + noise_var)
    grad[d] = -0.5 * float(row_sums.sum()) - 0.5 * trace_m * share * signal_var
    grad[d + 1] = -0.5 * noise_var * trace_m * (1.0 + share)
    return nll, grad


@dataclass(frozen=True)
class OutputModel:
    """One output's hyperparameters theta plus what predict reads of it:
    the standardized training inputs divided by the lengthscales, their
    squared row norms, the Cholesky factor of the noisy kernel matrix,
    the jitter that factorization needed and the weight vector."""

    theta: np.ndarray
    scaled_inputs: np.ndarray
    scaled_sq_norms: np.ndarray
    chol: np.ndarray
    jitter: float
    alpha: np.ndarray


def _output_model(theta: np.ndarray, xs: np.ndarray, zs_col: np.ndarray) -> OutputModel:
    """The complete model of one output, from its hyperparameters theta,
    the standardized training inputs and its standardized target column;
    the factor helper adds the noise variance to a copy of K."""
    d = xs.shape[1]
    u = xs / np.exp(theta[:d])
    norms = _sq_norms(u)
    k = _scaled_kernel(math.exp(theta[d]), u, norms, u, norms)
    chol, jitter = _chol_with_jitter(k, math.exp(theta[d + 1]))
    alpha, _ = scipy.linalg.lapack.dpotrs(chol, zs_col, lower=1)
    return OutputModel(theta, u, norms, chol, jitter, alpha)


@dataclass
class GpModel:
    """Two independent GPs over shared inputs, with standardization."""

    inputs: np.ndarray  # raw training inputs (N, 6)
    targets: np.ndarray  # raw training targets (N, 2)
    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray
    outputs: list[OutputModel]
    report: dict


def _safe_std(x: np.ndarray) -> np.ndarray:
    std = x.std(axis=0)
    return np.where(std > 0.0, std, 1.0)


def _bounds(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(low, high): the fit's search box over theta."""
    pairs = [BOUND_LOG_LENGTHSCALE] * d + [BOUND_LOG_SIGNAL_VAR, BOUND_LOG_NOISE_VAR]
    return tuple(np.array(pairs).T)


def _starts(
    xs: np.ndarray, zs_col: np.ndarray, config: FitConfig, seed_key: list
) -> list[np.ndarray]:
    """One output's optimizer starts: the data-scaled base start, then
    config.restarts seeded draws around it, all clipped to the bounds."""
    n, d = xs.shape
    rng = np.random.default_rng(seed_key)
    base = np.concatenate([np.zeros(d), [0.0], [math.log(0.01)]])
    # standardized data: unit input scales and unit target variance
    base[:d] = np.log(_safe_std(xs))
    var_z = float(zs_col.var())
    if var_z > 0.0:
        base[d] = math.log(var_z)
        base[d + 1] = math.log(0.01 * var_z)
    low, high = _bounds(d)
    starts = [base]
    for _ in range(config.restarts):
        starts.append(base + rng.normal(0.0, config.restart_spread, size=d + 2))
    return [np.clip(s, low, high) for s in starts]


def _run_start(problem: tuple, job: tuple[int, int]) -> tuple[np.ndarray, dict]:
    """Job (j, idx) of the fit problem (xs, zs, starts, config): one
    L-BFGS-B run of output j from its start idx; returns (theta, info)."""
    xs, zs, starts, config = problem
    j, idx = job
    zs_col = zs[:, j]
    rejected = 0
    top, last = -math.inf, None  # the start's highest finite value, its last finite probe

    def objective(theta):
        nonlocal rejected, top, last
        try:
            value, grad = nll_and_grad(theta, xs, zs_col)
        except ConditioningError:
            rejected += 1
            if last is None:
                return 1e25, np.zeros_like(theta)
            # unfactorizable probe: a steep bowl around the last finite one,
            # above every value of the start, so the line search steps back
            # and never accepts it (curvatures 1 to 1e8 gave the same fit)
            step = theta - last
            return top + 1e4 * (1.0 + float(step @ step)), 2e4 * step
        top, last = max(top, value), theta.copy()
        return value, grad

    trace: list[float] = []

    def callback(intermediate_result):
        # the objective at each accepted iterate
        trace.append(float(intermediate_result.fun))

    result = scipy.optimize.minimize(
        objective,
        starts[j][idx],
        jac=True,
        method="L-BFGS-B",
        bounds=scipy.optimize.Bounds(*_bounds(xs.shape[1])),
        callback=callback,
        options={"maxiter": config.max_iter, "gtol": config.grad_tol, "ftol": OPTIMIZER_FTOL},
    )
    info = {
        "nll": float(result.fun),
        "iterations": int(result.nit),
        "evaluations": int(result.nfev),
        "rejected_probes": rejected,
        "stop": next((stop for prefix, stop in _STOP_REASONS.items()
                      if result.message.upper().startswith(prefix)), result.message),
        "objective_trace": trace,
    }
    return np.array(result.x), info


def _pick_best(runs: list[tuple[np.ndarray, dict]]) -> tuple[np.ndarray, dict]:
    """The run with the lowest finite NLL, the first one on ties;
    returns (theta, info)."""
    best = None
    for idx, (_, info) in enumerate(runs):
        info["start"] = idx
        if np.isfinite(info["nll"]) and (best is None or info["nll"] < runs[best][1]["nll"]):
            best = idx
    if best is None:
        raise ConditioningError("every optimizer start ended non-finite")
    return runs[best][0], {
        "chosen_start": best,
        "final_nll": runs[best][1]["nll"],
        "starts": [info for _, info in runs],
    }


# The fit problem a worker process serves, set by the pool's initializer.
# A forked worker receives the initializer's arguments as the parent's
# own objects, not as pickled copies: the fit's last bits changed when
# the training arrays went through pickle, and these must not.
_worker_problem: Optional[tuple] = None


def _init_worker(problem: tuple) -> None:
    global _worker_problem
    _worker_problem = problem


def _run_worker_job(job: tuple[int, int]) -> tuple[np.ndarray, dict]:
    return _run_start(_worker_problem, job)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, capped by the
    whole CPUs of its cgroup v2 quota when that file is readable."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    try:
        with open(_CPU_MAX) as fh:
            quota, period = fh.read().split()[:2]
        if quota != "max":
            cpus = min(cpus, max(1, int(quota) // int(period)))
    except (OSError, ValueError):
        pass
    return cpus


def _optimize_outputs(
    xs: np.ndarray, zs: np.ndarray, config: FitConfig
) -> list[tuple[np.ndarray, dict]]:
    """(theta, info) of every output.

    Every (output, start) pair is one independent job of a flat list.
    With two or more usable CPUs and at least _PARALLEL_MIN_N samples the
    list runs in a pool of forked workers, otherwise in this process; the
    results are merged per output in list order, so the outcome is the
    same to the bit either way.
    """
    n, m = zs.shape
    starts = [_starts(xs, zs[:, j], config, [config.seed, j]) for j in range(m)]
    problem = (xs, zs, starts, config)
    jobs = [(j, idx) for j in range(m) for idx in range(len(starts[j]))]
    workers = min(_usable_cpus(), len(jobs))
    if n < _PARALLEL_MIN_N or workers < 2:
        runs = [_run_start(problem, job) for job in jobs]
    else:
        # imported here, as only a parallel fit needs them and every command imports gp
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # the parent never calls minimize here, so without this every worker would import it
        import scipy.optimize  # noqa: F401

        # fork, not spawn or forkserver: those start every pool by importing
        # numpy and scipy again, which eats the saving (N=500 clean fit on
        # 2 CPUs, medians of 4: fork 1.84 s, spawn 2.99 s, forkserver 3.13 s,
        # serial about 3.4 s), and they pickle the training arrays. Forking
        # after OpenBLAS started its threads is safe: OpenBLAS stops them in
        # its own at-fork handler, and the pool forks all its workers before
        # it starts a thread of its own, so Python 3.12's warning about
        # forking a multi-threaded process does not fire. The workers
        # inherit the parent's single BLAS thread.
        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(problem,),
        )
        try:
            runs = list(pool.map(_run_worker_job, jobs))
        finally:
            # also when a job raised: drop the queued jobs and join every worker
            pool.shutdown(cancel_futures=True)
    return [_pick_best([run for (k, _), run in zip(jobs, runs) if k == j]) for j in range(m)]


@_single_blas_thread()
def fit(inputs: np.ndarray, targets: np.ndarray, config: FitConfig = FitConfig()) -> GpModel:
    """Fit both command outputs independently over the shared inputs.

    Training sets larger than config.max_train are subsampled uniformly
    (seeded) before standardization. Each output gets its own RNG stream
    derived from (seed, output index), so one output's data can never
    influence the other's optimization path.
    """
    data = Dataset(inputs, targets)
    w, z = data.inputs, data.targets
    if len(data) > config.max_train:
        pick_rng = np.random.default_rng([config.seed, 2])
        idx = np.sort(
            pick_rng.choice(len(data), size=config.max_train, replace=False)
        )
        w, z = w[idx], z[idx]
    input_mean, input_std = w.mean(axis=0), _safe_std(w)
    target_mean, target_std = z.mean(axis=0), _safe_std(z)
    xs = (w - input_mean) / input_std
    zs = (z - target_mean) / target_std
    outputs, per_output = [], []
    for j, (theta, info) in enumerate(_optimize_outputs(xs, zs, config)):
        out = _output_model(theta, xs, zs[:, j])
        info["jitter"] = out.jitter
        outputs.append(out)
        per_output.append(info)
    report = {
        "n_train": int(w.shape[0]),
        "restarts": config.restarts,
        "max_iter": config.max_iter,
        "outputs": per_output,
    }
    return GpModel(w, z, input_mean, input_std, target_mean, target_std, outputs, report)


def predict(
    model: GpModel, w: np.ndarray, variance: bool = True
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Posterior mean and observation variance of the command at w.

    Accepts a single 6-vector or an (M, 6) batch; returns arrays shaped
    (2,)/(M, 2). Variance includes the fitted noise level. With
    variance=False the triangular solve against the N x N factor is
    skipped and the variance comes back as None; the means are the same.
    The bytes are independent of the OpenBLAS thread count only inside
    _single_blas_thread(), which the CLI commands enter; predict does not
    pin itself, as the pin costs 8-9 us against a 31 us query at N = 1000.
    """
    w = np.asarray(w, dtype=float)
    single = w.ndim == 1
    w2 = np.atleast_2d(w)
    if w2.shape[1] != model.inputs.shape[1]:
        raise ValueError(
            f"query must have {model.inputs.shape[1]} columns, got {w2.shape[1]}"
        )
    if not np.all(np.isfinite(w2)):
        raise ValueError("prediction query contains non-finite values")
    d = w2.shape[1]
    ws = (w2 - model.input_mean) / model.input_std
    means = np.empty((w2.shape[0], len(model.outputs)))
    variances = np.empty_like(means) if variance else None
    for j, out in enumerate(model.outputs):
        signal_var = math.exp(out.theta[d])
        uq = ws / np.exp(out.theta[:d])
        ks = _scaled_kernel(signal_var, uq, _sq_norms(uq), out.scaled_inputs, out.scaled_sq_norms)
        mean_s = ks @ out.alpha
        means[:, j] = mean_s * model.target_std[j] + model.target_mean[j]
        if variance:
            v = scipy.linalg.solve_triangular(out.chol, ks.T, lower=True)
            latent = np.maximum(signal_var - np.sum(v**2, axis=0), 0.0)
            var_s = latent + math.exp(out.theta[d + 1])
            variances[:, j] = var_s * model.target_std[j] ** 2
    if single:
        return means[0], None if variances is None else variances[0]
    return means, variances


@_single_blas_thread()
def held_out_error(model: GpModel, inputs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-point Euclidean command errors on a held-out set, plus mean."""
    data = Dataset(inputs, targets)
    if len(data) == 0:
        raise ValueError("held-out set is empty")
    mean, _ = predict(model, data.inputs, variance=False)
    errors = np.linalg.norm(mean - data.targets, axis=1)
    return errors, float(errors.mean())


# ---------------------------------------------------------------------------
# persistence


def model_to_dict(model: GpModel) -> dict:
    n, d = model.inputs.shape
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "kernel_kind": KERNEL_KIND,
        "n_train": n,
        "input_dim": d,
        "output_dim": len(model.outputs),
        "inputs": model.inputs.tolist(),
        "targets": model.targets.tolist(),
        "standardization": {
            "input_mean": model.input_mean.tolist(),
            "input_std": model.input_std.tolist(),
            "target_mean": model.target_mean.tolist(),
            "target_std": model.target_std.tolist(),
        },
        "outputs": [
            {
                "log_lengthscales": out.theta[:d].tolist(),
                "log_signal_variance": float(out.theta[d]),
                "log_noise_variance": float(out.theta[d + 1]),
            }
            for out in model.outputs
        ],
        "report": model.report,
    }


@_single_blas_thread()
def model_from_dict(payload: dict) -> GpModel:
    for key in ("format", "kernel_kind", "inputs", "targets", "standardization", "outputs"):
        if key not in payload:
            raise ValueError(f"model file missing field {key!r}")
    if payload["format"] != MODEL_FORMAT:
        raise ValueError(f"unrecognized model format {payload['format']!r}")
    if payload["kernel_kind"] != KERNEL_KIND:
        raise ValueError(f"unsupported kernel kind {payload['kernel_kind']!r}")
    # LAPACK does not check finiteness, so the training arrays are checked here
    data = Dataset(payload["inputs"], payload["targets"])
    inputs, targets = data.inputs, data.targets
    if inputs.shape != (payload["n_train"], payload["input_dim"]):
        raise ValueError(
            f"declared dims {(payload['n_train'], payload['input_dim'])} do not "
            f"match stored inputs {inputs.shape}"
        )
    d, m = inputs.shape[1], targets.shape[1]
    std = payload["standardization"]
    sizes = {"input_mean": d, "input_std": d, "target_mean": m, "target_std": m}
    arrays = [np.asarray(std[key], dtype=float) for key in sizes]
    for (key, size), arr in zip(sizes.items(), arrays):
        if arr.shape != (size,) or not np.all(np.isfinite(arr)):
            raise ValueError(f"standardization.{key} must be {size} finite numbers")
        if key.endswith("_std") and not np.all(arr > 0.0):
            raise ValueError(f"standardization.{key} must be positive")
    input_mean, input_std, target_mean, target_std = arrays
    if len(payload["outputs"]) != m:
        raise ValueError("output blocks do not match target dim")
    # every fitted model lies inside the fit's own bounds
    low, high = _bounds(d)
    thetas = []
    for j, out in enumerate(payload["outputs"]):
        theta = np.array([*out["log_lengthscales"], out["log_signal_variance"],
                          out["log_noise_variance"]], dtype=float)
        if theta.shape != (d + 2,) or not np.all((low <= theta) & (theta <= high)):
            raise ValueError(
                f"output {j}: hyperparameters must be {d} log lengthscales, a log signal "
                "variance and a log noise variance inside the fit's bounds"
            )
        thetas.append(theta)
    xs = (inputs - input_mean) / input_std
    zs = (targets - target_mean) / target_std
    outputs = [_output_model(theta, xs, zs[:, j]) for j, theta in enumerate(thetas)]
    return GpModel(inputs, targets, input_mean, input_std, target_mean, target_std, outputs,
                   payload.get("report", {}))


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model: GpModel, path: str) -> None:
    """Serialize to JSON atomically (temp file + rename)."""
    atomic_write_text(path, json.dumps(model_to_dict(model), indent=1, sort_keys=True))


def load_model(path: str) -> GpModel:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(payload)
