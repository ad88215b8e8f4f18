"""Gaussian-process regression of the vehicle's inverse command model.

Each training sample pairs D inputs with M outputs (the learned slot's
are sim.SLOT_INPUTS and sim.SLOT_TARGETS). The outputs are modeled by M
independent zero-mean GPs over the shared inputs, each with its own
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

A fitted or loaded model is complete from the start. Each optimizer
start ends by solving the weights alpha = K_y^-1 z at the theta it
reached, and the fit keeps the best start's theta and alpha, not the
N x N factor: the mean needs the weights alone (Rasmussen & Williams
2006, Alg. 2.1). The model file stores alpha, so loading a model factors
nothing, and predict, which returns the mean alone, never forms the
factor. GpModel keeps what a query reads of every output in two arrays:
the augmented training rows of all outputs and their block-diagonal
weights.

One path, _weights, takes theta to alpha, for every evaluation of the
fit's objective and for each start's final solve. It works in two N x N
buffers: K, and LAPACK's copy of it, whose lower triangle is factored in
place; the objective then inverts that triangle through Level-3 blocks
and turns it in place into the gradient's weights (alpha alpha' -
K_y^-1) o K, negated. The buffers belong to the fit job: each (output,
start) optimization allocates its pair once and hands it to every call,
so the fit's speed does not depend on how the allocator treats blocks
freed before it. The gradient is read from one product of that triangle
with an N x (D + 1) array, so no triangle is mirrored into a full
matrix. K, from kernel_matrix(theta, x), is exactly symmetric and a
function of the values of theta and x alone, so a model depends only on
the bytes of its training data.

The optimizations, one per (output, start) pair, are the independent
jobs of one list: where two or more CPUs are usable, they run in one pool
of forked worker processes that ends with the fit, otherwise in the
process itself. So a pooled fit's parent never forms an N x N array. On
Linux a worker dies with the process that forked it, even when that
process is killed. Each job takes the training data and its start
through pickle, which the parent tries once before the pool starts, so
a job pickle cannot send raises before any worker exists. The results
are merged per output in list order either way, so the model file has
the same bytes on one CPU or several.

Only the fit needs scipy: it calls scipy.linalg's LAPACK wrappers, and
the optimizer is scipy.optimize's. Each function that calls scipy imports
it, and loading and querying a model needs numpy alone, so a command that
never fits a GP imports no part of scipy. A parallel fit loads
scipy.optimize before its pool forks, so no worker imports it again.

_single_blas_thread() runs a block on one thread of each OpenBLAS the
process has loaded, whatever OPENBLAS_NUM_THREADS says, and restores the
previous thread counts afterwards. Every CLI command runs inside it, and
the fit and held_out_error's batched prediction enter it themselves.
Threaded reductions sum in another order, which made the fitted
hyperparameters depend on the thread count, and at these problem sizes
two threads made the fit about three times slower than one. Only the
OpenBLAS bundled with the numpy and scipy Linux wheels is pinned, and
scipy's only where the process has loaded it: the fit loads it before it
pins, and a command that never fits does not load it just to pin it. Any
other BLAS keeps its own setting. The pin writes each library's thread
count in place and starts no thread: a pooled fit's fork stops the
parent's OpenBLAS thread pools, and they stay stopped after the fit until
a threaded call needs them, when OpenBLAS restarts them itself.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import json
import math
import os
import signal
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

KERNEL_KIND = "squared_exponential_ard"
MODEL_FORMAT = "tracksim-gp"
MODEL_FORMAT_VERSION = 2

# jitter added to the noisy kernel matrix before factorization, relative
# to its mean diagonal: JITTER_REL_INIT first, then ten times the level
# before on each failure, the last attempt at JITTER_REL_MAX (1e-10, 1e-9,
# ..., 1e-3: eight attempts)
JITTER_REL_INIT = 1e-10
JITTER_REL_MAX = 1e-3
JITTER_ATTEMPTS = round(math.log10(JITTER_REL_MAX / JITTER_REL_INIT)) + 1

# log-space optimizer bounds (standardized data): lengthscales, signal
# variance, noise variance
BOUND_LOG_LENGTHSCALE = (math.log(1e-3), math.log(1e4))
BOUND_LOG_SIGNAL_VAR = (math.log(1e-6), math.log(1e6))
BOUND_LOG_NOISE_VAR = (math.log(1e-12), math.log(1e3))

# most optimizer restarts per output. Every start is drawn before the
# first one runs, so an unbounded count exhausts memory before the fit
# begins (200,000 starts of one output: 74 MB). One start of the recipe
# fit (N=1000) takes about 0.8 s on one CPU (a 2-vCPU machine, the fit
# pinned to one with taskset: 0.70-0.89 s over 9 fits), so this cap is
# already about 27 minutes of fitting, far past any gain, in start lists
# of 0.4 MB.
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

# queries predict forms exponents for at a time, M N doubles a row. A
# sweep of 2,000 mean-only queries on one BLAS thread (2 vCPUs with 2 MB
# of L2 each, medians of 15, three passes), in ms by rows per block:
#   N = 500:  16: 3.4-5.6, 32: 3.2-5.2, 64: 2.9-3.4, 128: 3.3-3.5, 256: 3.6-5.2, 512: 4.8-5.1
#   N = 1000: 16: 6.0-6.3, 32: 5.9-6.0, 64: 6.6-6.9, 128: 7.2-9.8, 256: 9.3-9.5, 512: 9.8-10.1
# 64 rows, the fastest at N = 500, are 0.5 MB there and 1 MB at N = 1000; 8-128 give equal bits.
_QUERY_ROWS = 64

# rows of the blocks _invert_lower hands to dtrtri, and of the panels it
# streams through dtrmm; a block of up to this many rows is not split
_INVERSE_LEAF = 64

# The cgroup v2 CPU quota of this process, "<quota> <period>" or
# "max <period>". A container held to one CPU's time still lists every
# host CPU in its affinity mask, so the mask alone overstates the CPUs.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


class ConditioningError(RuntimeError):
    """Kernel matrix could not be factorized even at maximum jitter."""


# (count, set) of each wheel OpenBLAS, by library path
_OPENBLAS_BINDINGS: dict[str, tuple] = {}


@functools.cache
def _wheel_openblas_paths(module) -> list[str]:
    """The OpenBLAS files in the .libs directory of module's wheel, listed
    once, as one listing costs about 15 us, more than the rest of a pin."""
    site = os.path.dirname(os.path.dirname(module.__file__))
    return sorted(glob.glob(f"{site}/{module.__name__}.libs/libscipy_openblas*.so"))


def _bundled_openblas() -> tuple:
    """(count, set) of each OpenBLAS bundled with the numpy and scipy Linux
    wheels that this process has loaded: numpy's, which importing numpy
    loads, and scipy's once the fit's scipy.linalg or another of its BLAS
    users has loaded it. A command that never fits does not load scipy's
    copy to pin it (a fresh process paid 2.8-6.6 ms, 1.5 MB and a thread).
    The tuple is empty when neither wheel bundles one.

    count is the library's blas_cpu_number as a ctypes int, the thread
    count its get_num_threads returns and its threaded calls read. Writing
    it starts and stops no thread. set is the library's set_num_threads,
    which stores the count and also starts the thread pool when it is
    stopped, or grows it to a larger count. A count written in place must
    not exceed the pool's size: a threaded call then waits on a thread
    that does not exist."""
    found = []
    for module, suffix in ((np, "64_"), (sys.modules.get("scipy"), "")):  # numpy's is ILP64
        if module is None:  # scipy not imported, so its copy is not loaded
            continue
        for path in _wheel_openblas_paths(module):
            if path not in _OPENBLAS_BINDINGS:
                try:  # RTLD_NOLOAD opens a library only if it is loaded already
                    lib = ctypes.CDLL(path, os.RTLD_NOLOAD)
                except OSError:  # not loaded, so nothing is bound: the next call looks again
                    continue
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                put.argtypes, put.restype = [ctypes.c_int], None
                _OPENBLAS_BINDINGS[path] = (ctypes.c_int.in_dll(lib, "blas_cpu_number"), put)
            found.append(_OPENBLAS_BINDINGS[path])
    return tuple(found)


@contextlib.contextmanager
def _single_blas_thread():
    """Run the enclosed block on one thread of each OpenBLAS loaded at
    its start, then restore each library's previous thread count (also
    when the block raises). Every CLI command, the fit and held_out_error
    enter it; predict does not.

    The pin writes each count in place, 1 and then the count it read,
    neither above the pool's size, and never calls set_num_threads: that
    call restarts a pool the fit's fork stopped, whose fresh threads spin
    beside whatever the caller runs next. So after a pooled fit each pool
    stays stopped until a threaded call needs it, and OpenBLAS restarts it
    then."""
    libs = _bundled_openblas()
    previous = [count.value for count, _ in libs]
    for count, _ in libs:
        count.value = 1
    try:
        yield
    finally:
        for (count, _), value in zip(libs, previous):
            count.value = value


def kernel_matrix(theta: np.ndarray, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Gram matrix of the inputs a (M, D) under the hyperparameters theta =
    [log lengthscales (D), log signal variance, log noise variance]; the
    noise variance is not read. It is exactly symmetric, and its bits
    depend only on the values of theta and a, not on how a is held: with u
    the inputs over the lengthscales and n their squared row norms, each
    entry is signal_var exp(g - (n_i/2 + n_j/2)), g from u u', the bits of
    halving -(n_i + n_j - 2g). The norms meet g as one sum, symmetric where
    (g + n_i) + n_j is not, and numpy forms u u' with a symmetric rank-k
    update. The sums are formed 64 rows at a time, never as a second M x M
    array. out, a C-ordered (M, M) float array, receives the result in
    place of a new one, with the same bits."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or not np.all(np.isfinite(theta)):
        raise ValueError("hyperparameters must be a finite 1-D array")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    d = theta.shape[0] - 2
    if a.shape[1] != d:
        raise ValueError(f"inputs must have {d} columns, got {a.shape[1]}")
    u = a / np.exp(theta[:d])
    sq = np.matmul(u, u.T, out=out)
    half = 0.5 * np.sum(u**2, axis=1)
    for i in range(0, sq.shape[0], 64):
        sq[i:i + 64] -= half[i:i + 64, None] + half
    np.minimum(sq, 0.0, out=sq)
    np.exp(sq, out=sq)
    sq *= math.exp(theta[d])
    return sq


@dataclass(frozen=True)
class Dataset:
    """Paired regression data: inputs (N, D), targets (N, M)."""

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
    1000-sample cap, the values the README's multi-variant recipe and the
    benchmark use; whether another cap tracks better is an open item of
    ROADMAP.md. More optimizer effort does not help closed-loop tracking
    when the data covers a thin tube of the input space.
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
                          ("restart_spread", 0.0), ("seed", 0), ("max_train", 2)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.restarts > MAX_RESTARTS:
            raise ValueError(f"restarts must be at most {MAX_RESTARTS}, got {self.restarts}")


def _chol_with_jitter(k: np.ndarray, a: np.ndarray, noise_var: float) -> float:
    """Lower Cholesky factor of K + (noise_var + jitter) I, K a symmetric
    kernel matrix, with escalating jitter: the only code that adds either
    variance to a diagonal, and the one caller of _lapack_factor.

    Each of the JITTER_ATTEMPTS attempts copies k into a, Fortran-ordered,
    through its transpose, adds noise_var and then the jitter, a share of
    the noisy mean diagonal, to a's diagonal, and factors a in place with
    _lapack_factor, which says whether it was numerically positive
    definite. k is only read. Returns the jitter, a holding L. Raises
    ConditioningError when the last attempt, at relative level
    JITTER_REL_MAX, fails too.
    """
    n = a.shape[0]
    rel = JITTER_REL_INIT
    for attempt in range(1, JITTER_ATTEMPTS + 1):
        np.copyto(a, k.T)  # K is symmetric: its transpose copies straight into Fortran order
        a.flat[:: n + 1] += noise_var
        jitter = rel * (float(np.trace(a)) / n)
        a.flat[:: n + 1] += jitter
        if _lapack_factor(a):
            return jitter
        if attempt == JITTER_ATTEMPTS:
            raise ConditioningError(
                f"Cholesky failed at maximum jitter {jitter:.3e} (relative level "
                f"{rel:.0e}, attempt {attempt} of {JITTER_ATTEMPTS})"
            )
        rel *= 10.0


def _objective_buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two N x N arrays _weights works in: K, C-ordered, and the
    factor's, Fortran-ordered as LAPACK wants it."""
    return np.empty((n, n)), np.empty((n, n), order="F")


def _lapack_factor(a: np.ndarray) -> bool:
    """The factor step of _chol_with_jitter: a, Fortran-ordered, factored
    in its own memory by dpotrf, with its upper triangle zeroed, ready for
    dpotrs and the in-place inverse."""
    import scipy.linalg
    _, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1, overwrite_a=1)
    return info == 0


def _invert_lower(l: np.ndarray) -> None:
    """Overwrite the lower triangle of l, a lower triangular factor, with
    that of its inverse, leaving the strict upper triangle as it was. l's
    diagonal is positive: dpotrf accepts a factor only when every pivot is.

    The recursion splits l into [[A, 0], [B, C]] down to _INVERSE_LEAF
    rows, which dtrtri inverts; B becomes -C^-1 B A^-1 through dtrmm, a
    Level-3 product. scipy's wrappers copy any strided block, so each
    inverse triangle is copied once into a contiguous array, the first
    freed before the second is made, and B passes through dtrmm in panels
    of _INVERSE_LEAF columns, then rows: at the top split the copies peak
    near N^2 / 4 doubles, never a second N x N array."""
    from scipy.linalg import blas, lapack
    n = l.shape[0]
    if n <= _INVERSE_LEAF:
        l[...] = lapack.dtrtri(l, lower=1)[0]
        return
    h = n // 2
    _invert_lower(l[:h, :h])
    _invert_lower(l[h:, h:])
    b = l[h:, :h]
    tri = np.array(l[h:, h:], order="F")
    for c in range(0, h, _INVERSE_LEAF):
        b[:, c:c + _INVERSE_LEAF] = blas.dtrmm(-1.0, tri, b[:, c:c + _INVERSE_LEAF], lower=1)
    del tri  # freed before the second copy is made
    tri = np.array(l[:h, :h], order="F")
    for r in range(0, n - h, _INVERSE_LEAF):
        b[r:r + _INVERSE_LEAF] = blas.dtrmm(1.0, tri, b[r:r + _INVERSE_LEAF], side=1, lower=1)


def _weights(theta: np.ndarray, xs: np.ndarray, zs_col: np.ndarray,
             buffers: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """(K, L, jitter, alpha) of one output at theta, over the inputs xs
    and its target column zs_col: every objective evaluation and each
    start's final solve take this path. K, noise-free, is written into
    the first of buffers, the pair _objective_buffers(N) makes, and L into
    the second, whose entry contents are never read; dpotrs solves
    alpha = K_y^-1 z from L."""
    import scipy.linalg
    k_buf, work = buffers
    k = kernel_matrix(theta, xs, out=k_buf)
    jitter = _chol_with_jitter(k, work, math.exp(theta[xs.shape[1] + 1]))
    alpha, _ = scipy.linalg.lapack.dpotrs(work, zs_col, lower=1)
    return k, work, jitter, alpha


def nll_and_grad(
    theta: np.ndarray, inputs: np.ndarray, targets: np.ndarray,
    buffers: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood of one output, with gradient.

    theta = [log lengthscales (D), log signal variance, log noise
    variance]. The value is that of the jittered matrix the Cholesky
    factor was taken of, and the gradient is its exact derivative: the
    jitter is a fixed share of the mean diagonal, so it contributes to
    both variance components.

    Two N x N buffers do all the work: K, left noise-free, and the
    factor's, which _weights fills and factors; its lower triangle
    becomes in place L^-1 (_invert_lower), then K_y^-1 (dlauum),
    then -P, P = (alpha alpha' - K_y^-1) o K (a rank-1 update by dsyr and
    a Hadamard product with K). The gradient needs P only through
    P [U, 1], U the scaled inputs, which one dsymm reads from that
    triangle, so no triangle is mirrored. buffers is that pair as
    _objective_buffers(N) makes it; what they hold on entry is never
    read, so a fit job passes one pair to every call of its start. A call
    without them allocates its own; the results have the same bits.
    """
    import scipy.linalg
    inputs = np.asarray(inputs, dtype=float)
    n, d = inputs.shape
    signal_var, noise_var = math.exp(theta[d]), math.exp(theta[d + 1])
    k, l, jitter, alpha = _weights(theta, inputs, targets,
                                   _objective_buffers(n) if buffers is None else buffers)
    nll = (
        0.5 * float(targets @ alpha)
        + float(np.sum(np.log(np.diag(l))))
        + 0.5 * n * math.log(2.0 * math.pi)
    )
    _invert_lower(l)
    p = scipy.linalg.lapack.dlauum(l, lower=1, overwrite_c=1)[0]
    trace_m = float(alpha @ alpha) - float(np.trace(p))
    # -P in the lower triangle: K_y^-1 - alpha alpha', times K (Fortran-ordered as p)
    p = scipy.linalg.blas.dsyr(-1.0, alpha, lower=1, a=p, overwrite_a=1)
    p *= k.T
    scaled = inputs / np.exp(theta[:d])
    v = np.column_stack([scaled, np.ones(n)])
    pv = scipy.linalg.blas.dsymm(-1.0, p, v, lower=1)  # P [U, 1]
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
    """One output's hyperparameters theta and its weights alpha = K_y^-1 z:
    all the mean needs, and all a model file stores of the output. The
    N x N factor is not kept; _weights solves both again from theta."""

    theta: np.ndarray
    alpha: np.ndarray


@dataclass
class GpModel:
    """M independent GPs over D shared inputs, with standardization.

    query is predict's block of all M outputs: the augmented training
    rows [x / l^2, -0.5 / l^2, -0.5 |x / l|^2] of each output's
    lengthscales l, stacked (M N, 2 D + 1) column-major so that the
    augmented queries [q, q o q, 1] times its transpose, read in order,
    are the exponents -|q - x|^2 / (2 l^2); and the weights signal_var
    alpha, block-diagonal (M N, M), that turn their exps into the M means.
    scales: input_mean, input_std, target_mean, target_std as float lists."""

    inputs: np.ndarray  # raw training inputs (N, D)
    targets: np.ndarray  # raw training targets (N, M)
    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray
    outputs: list[OutputModel]
    report: dict
    query: tuple = field(init=False, repr=False)
    scales: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scales = tuple(a.tolist() for a in (self.input_mean, self.input_std,
                                                 self.target_mean, self.target_std))
        xs = (self.inputs - self.input_mean) / self.input_std
        n, d = xs.shape
        m = len(self.outputs)
        block = np.empty((m * n, 2 * d + 1), order="F")
        weights = np.zeros((m * n, m))
        for j, out in enumerate(self.outputs):
            rows = slice(j * n, (j + 1) * n)
            sq_scales = np.exp(2.0 * out.theta[:d])
            block[rows, :d] = xs / sq_scales
            block[rows, d:2 * d] = -0.5 / sq_scales
            block[rows, 2 * d] = -0.5 * np.sum((xs / np.exp(out.theta[:d])) ** 2, axis=1)
            weights[rows, j] = math.exp(out.theta[d]) * out.alpha
        self.query = (block, weights)


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


def _run_start(xs: np.ndarray, zs: np.ndarray, config: FitConfig, j: int,
               start: np.ndarray) -> tuple[Optional[tuple[OutputModel, float]], dict]:
    """One L-BFGS-B run of output j, whose targets are the column j of
    the standardized targets zs, from theta start; returns (built, info),
    built the finished (model, jitter) at the theta it reached, or None
    when no probe of the run factored."""
    import scipy.optimize
    # the column is taken here, in the job: one handed to a worker arrives
    # contiguous, and that changes the bits of the objective's targets @ alpha
    zs_col = zs[:, j]
    buffers = _objective_buffers(xs.shape[0])  # every objective call of the start works in these
    rejected = 0
    top, last = -math.inf, None  # the start's highest finite value, its last finite probe

    def objective(theta):
        nonlocal rejected, top, last
        try:
            value, grad = nll_and_grad(theta, xs, zs_col, buffers)
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
        start,
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
    if last is None:  # the run never left its unfactorizable start
        return None, info
    # the run accepts only probes that factored, so its theta factors again
    theta = np.array(result.x)
    _, _, jitter, alpha = _weights(theta, xs, zs_col, buffers)
    return (OutputModel(theta, alpha), jitter), info


def _pick_best(runs: list[tuple[Optional[tuple[OutputModel, float]], dict]]
               ) -> tuple[OutputModel, dict]:
    """The finished model of the run with the lowest finite NLL, the
    first one on ties; returns (model, info), info holding its jitter."""
    best = None
    for idx, (built, info) in enumerate(runs):
        info["start"] = idx
        if (built is not None and np.isfinite(info["nll"])
                and (best is None or info["nll"] < runs[best][1]["nll"])):
            best = idx
    if best is None:
        raise ConditioningError("no optimizer start ended on a factored, finite fit")
    (model, jitter), info = runs[best]
    return model, {
        "chosen_start": best,
        "final_nll": info["nll"],
        "starts": [info for _, info in runs],
        "jitter": jitter,
    }


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


def _die_with_parent(parent: int) -> None:
    """Pool worker initializer: on Linux, have the kernel SIGKILL this
    worker when the process that forked it dies, so a killed fit leaves no
    worker running. A parent that died before the request took effect has
    already handed this worker to another process, so it exits at once."""
    if not sys.platform.startswith("linux"):
        return
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1: PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def _fit_outputs(
    xs: np.ndarray, zs: np.ndarray, config: FitConfig
) -> list[tuple[OutputModel, dict]]:
    """(model, info) of every output, info holding the jitter of its
    factor.

    Every (output, start) pair is one independent job of a flat list that
    returns a finished model. Where two or more CPUs are usable and there
    are two or more jobs, they run in one pool of forked workers,
    otherwise in this process; the results are merged per output in list
    order, and a worker's pickled copy of the data gives the parent's
    bits, so the outcome is the same to the bit either way.
    """
    m = zs.shape[1]
    jobs = [(j, start) for j in range(m) for start in _starts(xs, zs[:, j], config, [config.seed, j])]
    optimize = functools.partial(_run_start, xs, zs, config)
    workers = min(_usable_cpus(), len(jobs))
    if workers < 2:
        runs = list(map(optimize, *zip(*jobs)))
    else:
        # imported here, as only a parallel fit needs them and every command imports gp
        import multiprocessing
        import pickle
        from concurrent.futures import ProcessPoolExecutor
        # the parent never calls minimize here, so without this every worker would import it
        import scipy.optimize  # noqa: F401

        # a job pickle cannot send raises here, before any worker exists; inside
        # the pool it could leave pool.shutdown waiting on a job never sent
        pickle.dumps(optimize)
        # fork, not spawn or forkserver: those start every pool by importing
        # numpy and scipy again, which eats the saving (N=500 clean fit on
        # 2 CPUs, medians of 4: fork 1.84 s, spawn 2.99 s, forkserver 3.13 s,
        # serial about 3.4 s). Forking after OpenBLAS started its threads is
        # safe: OpenBLAS stops them in its own at-fork handler, and the pool
        # forks all its workers before it starts a thread of its own, so
        # Python 3.12's warning about forking a multi-threaded process does
        # not fire. The workers inherit the parent's single BLAS thread. The
        # parent's pools stay stopped after the fit, as the pin's restore
        # starts no thread, until a threaded call needs them.
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_die_with_parent, initargs=(os.getpid(),))
        try:
            runs = list(pool.map(optimize, *zip(*jobs)))
        finally:
            # also when a job raised: drop the queued jobs and join every worker
            pool.shutdown(cancel_futures=True)
    return [_pick_best([run for (k, _), run in zip(jobs, runs) if k == j]) for j in range(m)]


def fit(inputs: np.ndarray, targets: np.ndarray, config: FitConfig = FitConfig()) -> GpModel:
    """Fit each output independently over the shared inputs.

    Training sets larger than config.max_train are subsampled uniformly
    (seeded) before standardization. Each output gets its own RNG stream
    derived from (seed, output index), so one output's data can never
    influence the other's optimization path.
    """
    # the objective calls scipy.linalg's LAPACK: loaded before the pin, so
    # that the pin finds scipy's OpenBLAS too
    import scipy.linalg  # noqa: F401

    with _single_blas_thread():
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
        fitted = _fit_outputs(xs, zs, config)
        report = {
            "n_train": int(w.shape[0]),
            "restarts": config.restarts,
            "max_iter": config.max_iter,
            "outputs": [info for _, info in fitted],
        }
        return GpModel(w, z, input_mean, input_std, target_mean, target_std,
                       [out for out, _ in fitted], report)


def predict(model: GpModel, w: np.ndarray | tuple | list) -> np.ndarray:
    """Posterior mean of the M outputs at w.

    Accepts one row of D inputs (a tuple or list of D reals, or a 1-D
    array) or a (K, D) batch (a 2-D array, or a list of rows); returns the
    means shaped (M,)/(K, M). The mean reads the weights alone, so a query
    needs numpy and no factor. Each query q, standardized, becomes the row
    [q, q o q, 1], whose product with the model's augmented rows gives the
    exponents of all outputs at once; their exps times the block-diagonal
    weights are the means. Exponents are not clamped at 0: one rounds
    above 0, by at most a few 1e-6 (2.2e-15 on the recipe's rows), only
    within about 1e-7 lengthscales of a training row, so a clamp alters
    only such queries. kernel_matrix clamps, as the fit's factor reads K's
    diagonal. A single row, the learned slot's query, is standardized, and
    its means un-standardized, in floats against model.scales, and only
    the two products and the exp run on arrays, its own. A batch runs
    _QUERY_ROWS rows at a time through one block of exponents allocated
    per call, so its memory does not grow with its length. Both make the
    same IEEE operations in the same order, so a row's mean, a new array,
    has the bits of the row queried as a one-row batch or as the lone last
    row of a batch. A row that shares a block of a batch with others goes
    through one matrix product instead, whose sums may round otherwise: it
    agrees with the same row queried alone to about 1e-9 relative, not to
    the bit. The bytes are independent of the OpenBLAS thread count only
    inside _single_blas_thread(), which every CLI command enters; predict
    does not pin itself, as the pin costs about 2.5 us (2 vCPUs, both
    wheel OpenBLAS loaded), a fifth of a one-row query at N = 1000.
    ndarray.dot makes np.matmul's BLAS call at less overhead per call.
    """
    d = model.inputs.shape[1]
    block, weights = model.query
    if type(w) is not tuple:
        w = np.asarray(w, dtype=float)
        if w.ndim == 1:
            w = w.tolist()
    if not isinstance(w, np.ndarray):  # one row, as the learned slot asks per step
        if len(w) != d:
            raise ValueError(f"query must have {d} columns, got {len(w)}")
        if not all(map(math.isfinite, w)):
            raise ValueError("prediction query contains non-finite values")
        in_mean, in_std, out_mean, out_std = model.scales
        q = [(v - m) / s for v, m, s in zip(w, in_mean, in_std)]
        e = np.array(q + [v * v for v in q] + [1.0]).dot(block.T)
        np.exp(e, out=e)
        z = e.dot(weights).tolist()
        return np.array([v * s + m for v, s, m in zip(z, out_std, out_mean)])
    width = w.shape[-1] if w.ndim else 1
    if w.ndim != 2 or width != d:
        raise ValueError(f"query must have {d} columns, got {width}")
    if not np.isfinite(w).all():
        raise ValueError("prediction query contains non-finite values")
    # augmented queries [q, q o q, 1], q the standardized inputs
    aug = np.empty((w.shape[0], 2 * d + 1))
    q = aug[:, :d]
    np.subtract(w, model.input_mean, out=q)
    q /= model.input_std
    np.multiply(q, q, out=aug[:, d:2 * d])
    aug[:, 2 * d] = 1.0
    means = np.empty((aug.shape[0], weights.shape[1]))
    # exponents -|q - x|^2 / 2 under each output's lengthscales, (rows, M N),
    # allocated once: glibc mapped or trimmed a fresh 1 MB block per 64 rows
    # once the build freed no N x N array (the recipe's held-out predictions
    # at N = 1000, 2 vCPUs, medians of 20 processes: 13.7 ms against 10.4 ms)
    exponents = np.empty((min(aug.shape[0], _QUERY_ROWS), block.shape[0]))
    for i in range(0, aug.shape[0], _QUERY_ROWS):
        e = aug[i:i + _QUERY_ROWS].dot(block.T, out=exponents[:aug.shape[0] - i])
        np.exp(e, out=e)
        e.dot(weights, out=means[i:i + _QUERY_ROWS])
    means *= model.target_std
    means += model.target_mean
    return means


@_single_blas_thread()
def held_out_error(model: GpModel, inputs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-point Euclidean output errors on a held-out set, plus mean."""
    data = Dataset(inputs, targets)
    if len(data) == 0:
        raise ValueError("held-out set is empty")
    errors = np.linalg.norm(predict(model, data.inputs) - data.targets, axis=1)
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
                "alpha": out.alpha.tolist(),
            }
            for out in model.outputs
        ],
        "report": model.report,
    }


def model_from_dict(payload: dict) -> GpModel:
    """The model a model_to_dict payload describes, checked field by field.
    Each output's stored weights alpha are read back, not solved again, so
    loading factors nothing and makes no BLAS or LAPACK call; a file of
    another format version, or one without N finite weights per output,
    raises ValueError."""
    for key in ("format", "kernel_kind", "inputs", "targets", "standardization", "outputs"):
        if key not in payload:
            raise ValueError(f"model file missing field {key!r}")
    if payload["format"] != MODEL_FORMAT:
        raise ValueError(f"unrecognized model format {payload['format']!r}")
    version = payload.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"model file version {version!r} is not supported (this tracksim reads "
                         f"version {MODEL_FORMAT_VERSION}); retrain the model")
    if payload["kernel_kind"] != KERNEL_KIND:
        raise ValueError(f"unsupported kernel kind {payload['kernel_kind']!r}")
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
    outputs = []
    for j, out in enumerate(payload["outputs"]):
        theta = np.array([*out["log_lengthscales"], out["log_signal_variance"],
                          out["log_noise_variance"]], dtype=float)
        if theta.shape != (d + 2,) or not np.all((low <= theta) & (theta <= high)):
            raise ValueError(
                f"output {j}: hyperparameters must be {d} log lengthscales, a log signal "
                "variance and a log noise variance inside the fit's bounds"
            )
        alpha = out.get("alpha")
        if not (isinstance(alpha, list) and len(alpha) == len(data)
                and all(type(a) in (int, float) and math.isfinite(a) for a in alpha)):
            raise ValueError(f"output {j}: alpha must be {len(data)} finite numbers; "
                             "retrain the model")
        outputs.append(OutputModel(theta, np.array(alpha, dtype=float)))
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
