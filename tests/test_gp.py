"""Tests for the GP inverse-model regressor.

Oracles: the kernel is checked against an elementwise loop over pairwise
differences, gradients against central finite differences, and
predictions against a dense np.linalg.solve of the full noisy kernel
system built independently of the model's Cholesky factor.
"""

import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from conftest import blas_thread_counts, wheel_openblas_count

from tracksim import cli, gp
from tracksim.control import Gains
from tracksim.gp import (
    ConditioningError,
    Dataset,
    FitConfig,
    GpModel,
    _chol_with_jitter,
    fit,
    held_out_error,
    kernel_matrix,
    load_model,
    model_from_dict,
    model_to_dict,
    nll_and_grad,
    predict,
    save_model,
)
from tracksim.kinematics import VehicleParams
from tracksim.sim import extract_dataset, make_figure8, rollout, save_dataset, split_dataset


def kernel_oracle(log_ls, log_sf2, a, b):
    """Direct per-pair evaluation of the SE-ARD covariance."""
    ls = np.exp(np.asarray(log_ls))
    sf2 = math.exp(log_sf2)
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            d = (a[i] - b[j]) / ls
            out[i, j] = sf2 * math.exp(-0.5 * float(d @ d))
    return out


def make_problem(rng, n, d=6, noise=0.05):
    """Smooth vector-valued regression data on random inputs."""
    w = rng.normal(0.0, 1.0, size=(n, d))
    z1 = np.sin(w[:, 0] + 0.5 * w[:, min(3, d - 1)])
    z2 = np.cos(0.7 * w[:, 1]) - 0.3 * w[:, min(2, d - 1)]
    z = np.column_stack([z1, z2]) + rng.normal(0.0, noise, size=(n, 2))
    return w, z


def hyperparameters(log_ls, log_sf2, log_sn2=0.0):
    """theta = [log lengthscales, log signal variance, log noise variance]."""
    return np.concatenate([np.asarray(log_ls, dtype=float), [log_sf2, log_sn2]])


def manual_model(w, z, log_ls, log_sf2, log_sn2, input_mean=None, input_std=None):
    """Model with pinned hyperparameters and identity target
    standardization; the input standardization is the identity unless
    given."""
    d, m = w.shape[1], z.shape[1]
    input_mean = np.zeros(d) if input_mean is None else input_mean
    input_std = np.ones(d) if input_std is None else input_std
    xs = (w - input_mean) / input_std
    theta = hyperparameters(log_ls, log_sf2, log_sn2)
    outputs = [gp.OutputModel(theta, solved(theta, xs, z[:, j])[2]) for j in range(m)]
    return GpModel(w, z, input_mean, input_std, np.zeros(m), np.ones(m), outputs, {})


def solved(theta, xs, zs_col):
    """(L, jitter, alpha) of one output at theta, through the fit's one
    path from theta to the weights, in buffers of their own."""
    _, l, jitter, alpha = gp._weights(theta, xs, zs_col, gp._objective_buffers(xs.shape[0]))
    return l, jitter, alpha


def standardized_inputs(model):
    return (model.inputs - model.input_mean) / model.input_std


def standardized_targets(model):
    return (model.targets - model.target_mean) / model.target_std


class TestKernel:
    def test_identical_single_inputs_give_signal_variance(self):
        theta = hyperparameters(np.zeros(3), math.log(1.7))
        k = kernel_matrix(theta, np.array([[0.2, -1.0, 4.0]]))
        assert k.shape == (1, 1)
        assert abs(k[0, 0] - 1.7) < 1e-12

    def test_one_lengthscale_separation_decays_by_exp_half(self):
        log_ls = np.log(np.array([0.4, 2.0]))
        theta = hyperparameters(log_ls, math.log(3.0))
        # exactly one lengthscale apart in dim 0
        k = kernel_matrix(theta, np.array([[1.0, 5.0], [1.4, 5.0]]))
        assert abs(k[0, 1] - 3.0 * math.exp(-0.5)) < 1e-12

    def test_matches_elementwise_oracle_on_random_inputs(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(5, 6))
        log_ls = rng.normal(0.0, 0.4, size=6)
        expected = kernel_oracle(log_ls, 0.3, a, b)
        k = kernel_matrix(hyperparameters(log_ls, 0.3), np.vstack([a, b]))
        assert np.allclose(k[:4, 4:], expected, atol=1e-12)

    def test_gram_matrix_is_symmetric_psd(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(20, 6))
        k = kernel_matrix(hyperparameters(rng.normal(size=6) * 0.2, 0.1), x)
        assert np.array_equal(k, k.T)
        assert np.linalg.eigvalsh(k).min() > -1e-9

    @pytest.mark.parametrize("n", [30, 60, 200])
    def test_gram_matrix_is_exactly_symmetric(self, n):
        # the factor reads one triangle of K and the gradient both, so
        # both see one matrix only when K equals its transpose
        rng = np.random.default_rng(13)
        x = rng.normal(size=(n, 6))
        k = kernel_matrix(hyperparameters(rng.normal(0.0, 0.3, size=6), 0.2), x)
        assert np.array_equal(k, k.T)

    def test_gram_matrix_is_the_cross_kernel_of_its_input_with_itself(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(30, 6))
        theta = hyperparameters(rng.normal(0.0, 0.3, size=6), 0.2)
        assert np.allclose(kernel_matrix(theta, x), kernel_oracle(theta[:6], theta[6], x, x),
                           rtol=1e-13, atol=1e-15)

    def test_rejects_wrong_input_width(self):
        with pytest.raises(ValueError, match="columns"):
            kernel_matrix(hyperparameters(np.zeros(6), 0.0), np.zeros((3, 4)))

    def test_rejects_non_finite_hyperparameters(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kernel_matrix(hyperparameters(np.array([0.0, np.nan]), 0.0), x)
        with pytest.raises(ValueError):
            kernel_matrix(hyperparameters(np.zeros(2), math.inf), x)


class TestInputBytes:
    """The objective and an output's factor depend on the values of their
    inputs alone: an unpickled copy, whose dtype is not numpy's own
    float64 object, or a list of the same values gives the same bits."""

    @pytest.mark.parametrize("n", [30, 60])
    def test_objective_bits_depend_on_the_values_alone(self, n):
        rng = np.random.default_rng(15)
        w, z = make_problem(rng, n)
        theta = np.concatenate([rng.normal(0.0, 0.3, size=6), [0.2], [math.log(0.05)]])
        value, grad = nll_and_grad(theta, w, z[:, 0])
        for form in (pickle.loads(pickle.dumps(w)), w.tolist()):
            other_value, other_grad = nll_and_grad(theta, form, z[:, 0])
            assert other_value == value and np.array_equal(other_grad, grad)

    @pytest.mark.parametrize("n", [30, 60])
    def test_output_model_bits_depend_on_the_values_alone(self, n):
        rng = np.random.default_rng(16)
        w, z = make_problem(rng, n)
        theta = hyperparameters(rng.normal(0.0, 0.3, size=6), 0.2, math.log(0.05))
        unpickled = pickle.loads(pickle.dumps(w))
        (chol, _, alpha), (copy_chol, _, copy_alpha) = (solved(theta, w, z[:, 1]),
                                                        solved(theta, unpickled, z[:, 1]))
        assert np.array_equal(copy_chol, chol) and np.array_equal(copy_alpha, alpha)


class TestLikelihoodGradient:
    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_analytic_gradient_matches_central_differences(self, n):
        rng = np.random.default_rng(100 + n)
        w, z = make_problem(rng, n)
        y = z[:, 0]
        theta = np.concatenate(
            [rng.normal(0.0, 0.3, size=6), [0.2], [math.log(0.05)]]
        )
        _, grad = nll_and_grad(theta, w, y)
        h = 1e-5
        for k in range(theta.size):
            up = theta.copy()
            dn = theta.copy()
            up[k] += h
            dn[k] -= h
            fd = (nll_and_grad(up, w, y)[0] - nll_and_grad(dn, w, y)[0]) / (2 * h)
            rel = abs(fd - grad[k]) / max(abs(fd), abs(grad[k]), 1e-8)
            assert rel < 1e-4, f"component {k}: analytic {grad[k]}, fd {fd}"

    def test_gradient_where_the_jitter_dominates_the_noise(self):
        # noise-free figure-8 data, with the hyperparameters an earlier fit
        # chose for output 0: the noise variance (1.4e-12) is far below the
        # jitter (2.4e-10), so the jitter's own dependence on the signal and
        # noise variances sets the sign of their components
        traj = make_figure8(amplitude=2.0, period_steps=2001, sample_time=0.05)
        gains = Gains(kp=(0.1, 0.1), kd=(0.3, 0.3))
        data = extract_dataset(rollout(traj, gains, 2, VehicleParams(), plant="nominal"))
        train, _ = split_dataset(data, train_fraction=0.8, seed=0)
        pick = np.sort(np.random.default_rng([0, 2]).choice(len(train), size=200, replace=False))
        w, y = train.inputs[pick], train.targets[pick, 0]
        xs = (w - w.mean(axis=0)) / w.std(axis=0)
        ys = (y - y.mean()) / y.std()
        theta = np.array([0.8267239067717798, 1.2258207550113642, 0.7331235695326072,
                          1.2588809398057446, 1.8692156212617475, 0.1340009069387757,
                          0.8726235005916962, -27.307453408703633])
        _, grad = nll_and_grad(theta, xs, ys)
        h = 1e-3
        fd = np.empty_like(theta)
        for k in range(theta.size):
            step = np.zeros_like(theta)
            step[k] = h
            fd[k] = (nll_and_grad(theta + step, xs, ys)[0]
                     - nll_and_grad(theta - step, xs, ys)[0]) / (2 * h)
        assert np.max(np.abs(grad - fd)) < 0.01 * np.max(np.abs(fd)), (grad, fd)

    def test_value_matches_direct_dense_formula(self):
        rng = np.random.default_rng(7)
        w, z = make_problem(rng, 15)
        y = z[:, 1]
        theta = np.concatenate([np.full(6, 0.1), [0.0], [math.log(0.1)]])
        value, _ = nll_and_grad(theta, w, y)
        k = kernel_oracle(theta[:6], theta[6], w, w)
        ky = k + math.exp(theta[7]) * np.eye(15)
        ky += 1e-10 * (np.trace(ky) / 15) * np.eye(15)  # factorization jitter
        expected = 0.5 * float(y @ np.linalg.solve(ky, y))
        expected += 0.5 * math.log(np.linalg.det(ky))
        expected += 0.5 * 15 * math.log(2 * math.pi)
        assert abs(value - expected) < 1e-8


def dense_nll_and_grad(theta, w, y, rel):
    """The jittered NLL and its exact gradient from a dense inverse and
    log-determinant, the jitter being rel times the mean diagonal."""
    n, d = w.shape
    sf2, sn2 = math.exp(theta[d]), math.exp(theta[d + 1])
    k = kernel_oracle(theta[:d], theta[d], w, w)
    ky = k + (sn2 + rel * (sf2 + sn2)) * np.eye(n)
    ky_inv = np.linalg.inv(ky)
    alpha = ky_inv @ y
    value = 0.5 * float(y @ alpha) + 0.5 * np.linalg.slogdet(ky)[1] + 0.5 * n * math.log(2 * math.pi)
    m = np.outer(alpha, alpha) - ky_inv
    sq_steps = ((w[:, None, :] - w[None, :, :]) / np.exp(theta[:d])) ** 2
    grad = np.empty(d + 2)
    grad[:d] = [-0.5 * np.sum(m * k * sq_steps[:, :, c]) for c in range(d)]
    grad[d] = -0.5 * (np.sum(m * k) + np.trace(m) * rel * sf2)
    grad[d + 1] = -0.5 * np.trace(m) * sn2 * (1.0 + rel)
    return value, grad


class TestObjectiveBuffers:
    # 65, 130 and 257 rows split the factor's inverse once, twice and three times
    @pytest.mark.parametrize("n, escalate", [(12, False), (25, False), (40, True), (65, False),
                                             (130, False), (257, False)])
    def test_value_and_gradient_match_a_dense_reference(self, n, escalate, monkeypatch):
        rng = np.random.default_rng(200 + n)
        w, z = make_problem(rng, n)
        theta = np.concatenate([rng.normal(0.0, 0.3, size=6), [0.3], [math.log(0.02)]])
        rel = gp.JITTER_REL_INIT
        calls = []
        if escalate:
            # the first factorization of each call writes its buffer and
            # then reports failure, so the retry must copy the matrix again
            potrf = scipy.linalg.lapack.dpotrf

            def failing_once(*args, **kwargs):
                calls.append(1)
                c, info = potrf(*args, **kwargs)
                return c, 1 if len(calls) == 1 else info

            monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", failing_once)
            rel *= 10.0
        expected, expected_grad = dense_nll_and_grad(theta, w, z[:, 0], rel)
        # a call that allocates its buffers, then one handed a pair
        for buffers in (None, gp._objective_buffers(n)):
            calls.clear()
            value, grad = nll_and_grad(theta, w, z[:, 0], buffers)
            assert abs(value - expected) < 1e-10 * abs(expected)
            assert np.max(np.abs(grad - expected_grad)) < 1e-8 * np.max(np.abs(expected_grad))
            assert not escalate or len(calls) == 2

    def test_owned_buffers_give_the_allocating_bits(self):
        rng = np.random.default_rng(213)
        w, z = make_problem(rng, 60)
        theta = np.concatenate([rng.normal(0.0, 0.3, size=6), [0.2], [math.log(0.03)]])
        value, grad = nll_and_grad(theta, w, z[:, 0])
        buffers = gp._objective_buffers(60)
        for buf in buffers:
            buf.fill(np.nan)
        # once on fresh buffers, once on what another theta left in them,
        # and once on what the same theta left
        got = [nll_and_grad(theta, w, z[:, 0], buffers)]
        nll_and_grad(theta + 0.4, w, z[:, 1], buffers)
        got += [nll_and_grad(theta, w, z[:, 0], buffers) for _ in range(2)]
        for value_b, grad_b in got:
            assert value_b == value and np.array_equal(grad_b, grad)

    def test_owned_buffers_allocate_no_square_array(self):
        # with K and the factor's buffer handed in, one call allocates only
        # the thin N x 7 arrays and the kernel's 64-row sums
        n = 400
        rng = np.random.default_rng(214)
        w, z = make_problem(rng, n)
        theta = np.concatenate([np.zeros(6), [0.0], [math.log(0.05)]])
        buffers = gp._objective_buffers(n)
        nll_and_grad(theta, w, z[:, 0], buffers)  # load scipy's LAPACK wrappers first
        tracemalloc.start()
        try:
            nll_and_grad(theta, w, z[:, 0], buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * n * 8, peak

    def test_a_start_passes_one_buffer_pair_to_every_call(self, monkeypatch):
        seen = []
        nll = gp.nll_and_grad

        def recording(*args):
            seen.append(args[3])
            return nll(*args)

        monkeypatch.setattr(gp, "nll_and_grad", recording)
        rng = np.random.default_rng(215)
        w, z = make_problem(rng, 30)
        xs, zs = (w - w.mean(axis=0)) / w.std(axis=0), (z - z.mean(axis=0)) / z.std(axis=0)
        config = FitConfig(max_iter=20, restarts=1)
        pairs = []
        for j, idx in [(0, 0), (1, 1)]:
            seen.clear()
            gp._run_start(xs, zs, config, j, gp._starts(xs, zs[:, j], config, [config.seed, j])[idx])
            assert len(seen) > 1
            k_buf, work = seen[0]
            assert k_buf.shape == work.shape == (30, 30)
            assert k_buf.flags.c_contiguous and work.flags.f_contiguous
            assert all(b[0] is k_buf and b[1] is work for b in seen)
            pairs.append(seen[0])
        # each job owns its pair
        assert pairs[0][0] is not pairs[1][0] and pairs[0][1] is not pairs[1][1]

    def test_arguments_unchanged(self):
        rng = np.random.default_rng(210)
        w, z = make_problem(rng, 30)
        y = z[:, 1]
        before = w.copy(), y.copy()
        nll_and_grad(np.concatenate([np.zeros(6), [0.0], [math.log(0.1)]]), w, y)
        assert np.array_equal(w, before[0]) and np.array_equal(y, before[1])

    def test_one_call_allocates_two_square_buffers(self):
        # K and the factor's work buffer, plus thin N x 7 arrays; a third
        # N x N array, such as a copy LAPACK makes of a C-ordered argument,
        # would exceed the bound
        n = 400
        rng = np.random.default_rng(212)
        w, z = make_problem(rng, n)
        theta = np.concatenate([np.zeros(6), [0.0], [math.log(0.05)]])
        nll_and_grad(theta, w, z[:, 0])  # load scipy's LAPACK wrappers first
        tracemalloc.start()
        try:
            nll_and_grad(theta, w, z[:, 0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * n * 8, peak


class TestInvertLower:
    @pytest.mark.parametrize("n", [1, 64, 65, 129, 300])
    def test_lower_triangle_becomes_the_inverse(self, n):
        rng = np.random.default_rng(220 + n)
        a = rng.normal(size=(n, n))
        l = np.linalg.cholesky(a @ a.T + n * np.eye(n))
        work = np.array(l, order="F")
        upper = np.triu_indices(n, 1)
        work[upper] = rng.normal(size=upper[0].size)  # must survive as it is
        before = work[upper].copy()
        gp._invert_lower(work)
        expected = np.linalg.inv(l)
        assert np.max(np.abs(np.tril(work) - expected)) < 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(work[upper], before)


def factored(matrix):
    """(a, jitter): _chol_with_jitter of matrix in a Fortran-ordered array
    a of its own, which holds L on return."""
    a = np.empty(matrix.shape, order="F")
    return a, _chol_with_jitter(matrix, a, 0.0)


class TestCholeskyJitter:
    def test_well_conditioned_matrix_uses_base_jitter(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8))
        spd = a @ a.T + 8 * np.eye(8)
        l, jitter = factored(spd)
        assert np.allclose(l @ l.T, spd + jitter * np.eye(8), atol=1e-9)
        assert jitter <= 2e-10 * np.trace(spd) / 8

    def test_escalates_until_factorization_succeeds(self):
        nearly = np.ones((3, 3))
        nearly[0, 0] -= 1e-8  # smallest eigenvalue just below zero
        l, jitter = factored(nearly)
        assert np.all(np.isfinite(l))
        assert np.allclose(l @ l.T, nearly + jitter * np.eye(3), atol=1e-9)
        assert jitter >= 1e-9  # base level was not enough

    def test_raises_on_indefinite_matrix(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ConditioningError,
                           match=r"maximum jitter .*relative level 1e-03, attempt 8 of 8"):
            factored(indefinite)

    def test_objective_leaves_k_noise_free_after_escalation_or_failure(self, monkeypatch):
        # nll_and_grad multiplies by K read from buffers[0] after the
        # factor: each jitter attempt must fill and factor the other
        # buffer only. Inputs far from the origin next to their spread lose
        # digits in kernel_matrix's row norms, so K needs a higher jitter
        # level at an offset of 1e3 and fails at every level at 1e6
        attempts = []
        lapack_factor = gp._lapack_factor

        def counting(a):
            attempts.append(1)
            return lapack_factor(a)

        monkeypatch.setattr(gp, "_lapack_factor", counting)
        rng = np.random.default_rng(8)
        theta = hyperparameters(np.zeros(6), 0.0, math.log(1e-12))
        for offset in (1e3, 1e6):
            xs = offset + 1e-3 * rng.normal(size=(40, 6))
            zs = rng.normal(size=40)
            buffers = gp._objective_buffers(40)
            attempts.clear()
            if offset < 1e6:
                nll_and_grad(theta, xs, zs, buffers)
                assert 1 < len(attempts) < gp.JITTER_ATTEMPTS
            else:
                with pytest.raises(ConditioningError):
                    nll_and_grad(theta, xs, zs, buffers)
                assert len(attempts) == gp.JITTER_ATTEMPTS
            assert np.array_equal(buffers[0], kernel_matrix(theta, xs))

    def test_an_accepted_objective_factor_has_a_positive_diagonal(self):
        # the objective inverts the factor with no check of its diagonal:
        # dpotrf accepts a factor only when every pivot is positive, also
        # on a matrix that needs the last jitter level, and refuses a zero
        # pivot
        assert not gp._lapack_factor(np.ones((2, 2), order="F"))
        n = 50
        rng = np.random.default_rng(5)
        a = rng.normal(size=(n, n))
        nearly = np.ones((n, n)) - 5e-4 * np.eye(n)  # eigenvalues n - 5e-4 and -5e-4
        for matrix, rel in ((a @ a.T + n * np.eye(n), gp.JITTER_REL_INIT),
                            (nearly, gp.JITTER_REL_MAX)):
            l, jitter = factored(matrix)
            assert jitter == pytest.approx(rel * float(np.trace(matrix)) / n, rel=1e-12)
            assert np.all(np.diag(l) > 0.0)

    def test_objective_factor_factors_its_argument_in_place(self):
        # _chol_with_jitter leaves L in the caller's array, so a dpotrf
        # wrapper that factored a copy would hand the objective an unfactored K
        n = 70
        rng = np.random.default_rng(6)
        a = rng.normal(size=(n, n))
        spd = a @ a.T + n * np.eye(n)
        work = np.array(spd, order="F")
        assert gp._lapack_factor(work)
        expected = np.linalg.cholesky(spd)
        assert np.max(np.abs(np.tril(work) - expected)) < 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(np.triu(work, 1), np.zeros((n, n)))


def failing_factor(monkeypatch, fails):
    """Make the factor step report failure on each call whose number (from
    1) fails(number) holds true for. dpotrf still overwrites the matrix
    first, as a failed attempt may. Returns the (0, 0) entry of the matrix
    each call was handed, filled in as the calls come."""
    seen = []
    factor = gp._lapack_factor

    def step(a):
        seen.append(a[0, 0])
        return factor(a) and not fails(len(seen))

    monkeypatch.setattr(gp, "_lapack_factor", step)
    return seen


class TestModelBuild:
    @pytest.mark.parametrize("n, escalate", [(12, False), (25, False), (40, True)])
    def test_factor_and_weights_match_a_dense_solve(self, n, escalate, monkeypatch):
        rng = np.random.default_rng(220 + n)
        w, z = make_problem(rng, n)
        theta = np.concatenate([rng.normal(0.0, 0.3, size=6), [0.3], [math.log(0.02)]])
        rel = gp.JITTER_REL_INIT
        calls = []
        if escalate:
            # the first attempt fails, so the second factors at ten times the jitter
            calls = failing_factor(monkeypatch, lambda call: call == 1)
            rel *= 10.0
        k_noise_free, chol, out_jitter, alpha = gp._weights(theta, w, z[:, 0],
                                                            gp._objective_buffers(n))
        assert not escalate or len(calls) == 2
        assert np.array_equal(k_noise_free, kernel_matrix(theta, w))
        k = kernel_oracle(theta[:6], theta[6], w, w)
        jitter = rel * (float(np.trace(k)) / n + math.exp(theta[7]))
        assert out_jitter == pytest.approx(jitter)
        k_y = k + (math.exp(theta[7]) + jitter) * np.eye(n)
        expected_alpha = np.linalg.solve(k_y, z[:, 0])
        assert np.max(np.abs(chol @ chol.T - k_y)) < 1e-10 * np.max(np.abs(k_y))
        assert np.array_equal(chol, np.tril(chol))
        assert np.max(np.abs(alpha - expected_alpha)) < 1e-10 * np.max(np.abs(expected_alpha))

    def test_raises_at_maximum_jitter(self, monkeypatch):
        rng = np.random.default_rng(223)
        w, z = make_problem(rng, 12)
        levels = failing_factor(monkeypatch, lambda call: True)
        with pytest.raises(ConditioningError,
                           match=r"maximum jitter .*relative level 1e-03, attempt 8 of 8"):
            solved(hyperparameters(np.zeros(6), 0.0, math.log(0.1)), w, z[:, 0])
        # 1e-10, 1e-9, ..., 1e-3: the last level tried is the documented cap
        assert gp.JITTER_REL_MAX == 1e-3 and gp.JITTER_ATTEMPTS == 8
        assert len(levels) == gp.JITTER_ATTEMPTS
        # the diagonal is 1.1 (1 + rel) at relative jitter rel
        assert levels[-1] / levels[0] - 1.0 == pytest.approx(gp.JITTER_REL_MAX, rel=1e-6)

    def test_build_allocates_two_square_arrays(self):
        # a start builds its output's model: its two buffers, the objective's
        # in-place inverse (copies near N^2 / 4) and vectors; a final solve
        # for the weights that needed another N x N array would exceed the
        # bound (TestInPlaceFactor bounds each call in the buffers tighter)
        n = 400
        rng = np.random.default_rng(224)
        w, z = make_problem(rng, n)
        config = FitConfig(max_iter=2, restarts=0)
        start = gp._starts(w, z[:, 0], config, [0, 0])[0]
        gp._run_start(w, z, config, 0, start)  # load scipy's optimizer and LAPACK wrappers first
        tracemalloc.start()
        try:
            built, _ = gp._run_start(w, z, config, 0, start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built is not None
        assert peak < 2.5 * n * n * 8, peak


class TestInPlaceFactor:
    """A start's final solve against its objective's factor: the two share
    one path, in the start's own buffers, so one set of bits."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 400])
    def test_both_paths_give_the_same_bits(self, n, monkeypatch):
        # a fitted output's alpha is dpotrs on the objective's factor at its
        # theta; each factor step's result is copied before the objective
        # inverts it
        factors = []
        factor = gp._lapack_factor

        def recording(a):
            accepted = factor(a)
            factors.append(np.array(a))
            return accepted

        monkeypatch.setattr(gp, "_lapack_factor", recording)
        rng = np.random.default_rng(240 + n)
        w, z = make_problem(rng, n)
        config = FitConfig(max_iter=3, restarts=0)
        (out, _), info = gp._run_start(w, z, config, 0, gp._starts(w, z[:, 0], config, [0, 0])[0])
        assert len(factors) == info["evaluations"] + 1
        final = factors[-1]
        nll_and_grad(out.theta, w, z[:, 0])
        objective = factors[-1]
        assert final.flags.f_contiguous
        assert np.array_equal(final, objective)
        assert np.array_equal(out.alpha, scipy.linalg.lapack.dpotrs(objective, z[:, 0], lower=1)[0])

    def test_a_failed_level_refills_k(self, monkeypatch):
        # dpotrf overwrites K and then reports failure once: the next level
        # must factor K itself again, at ten times the jitter
        rng = np.random.default_rng(246)
        w, z = make_problem(rng, 130)
        theta = np.concatenate([rng.normal(0.0, 0.3, size=6), [0.3], [math.log(0.02)]])
        base_jitter = solved(theta, w, z[:, 0])[1]
        calls = failing_factor(monkeypatch, lambda call: call == 1)
        chol, jitter, _ = solved(theta, w, z[:, 0])
        assert len(calls) == 2
        assert jitter == pytest.approx(10.0 * base_jitter)
        expected = kernel_matrix(theta, w) + (math.exp(theta[7]) + jitter) * np.eye(130)
        assert np.max(np.abs(chol @ chol.T - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_final_solve_allocates_no_square_array(self, monkeypatch):
        # every call of the one path in a start, its final solve included,
        # works in the start's two buffers: K, factored in their copy, plus
        # vectors and kernel_matrix's 64-row sums. A factor or a solve for
        # the weights that needed another N x N array would exceed the bound
        n = 400
        peaks = []
        weights = gp._weights

        def measured(*args):
            tracemalloc.start()
            try:
                return weights(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        rng = np.random.default_rng(247)
        w, z = make_problem(rng, n)
        config = FitConfig(max_iter=2, restarts=0)
        start = gp._starts(w, z[:, 0], config, [0, 0])[0]
        nll_and_grad(start, w, z[:, 0])  # load scipy's LAPACK wrappers first
        monkeypatch.setattr(gp, "_weights", measured)
        _, info = gp._run_start(w, z, config, 0, start)
        assert len(peaks) == info["evaluations"] + 1
        assert max(peaks) < 0.5 * n * n * 8, peaks


def square_arrays(obj, n):
    """Shapes of the arrays of n^2 or more elements reachable from obj
    through dataclass fields, lists, tuples, dict values and the buffers
    arrays are views of."""
    if isinstance(obj, np.ndarray):
        found = [obj.shape] if obj.size >= n * n else []
        if obj.base is not None and not isinstance(obj.base, np.ndarray):
            if memoryview(obj.base).nbytes >= n * n * obj.itemsize:
                found.append(type(obj.base).__name__)
        return found + ([] if obj.base is None else square_arrays(obj.base, n))
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [shape for item in obj for shape in square_arrays(item, n)]
    return []


class TestModelHoldsNoFactor:
    """A model keeps O(N D) numbers: a fitted, a loaded and a pooled
    model hold no N x N array, and neither a pooled fit's parent nor a
    load ever forms one."""

    @pytest.mark.parametrize("how", ["fitted", "loaded", "pooled"])
    def test_no_square_array_is_reachable_from_a_model(self, how, monkeypatch, tmp_path):
        n = 60
        rng = np.random.default_rng(250)
        w, z = make_problem(rng, n)
        config = FitConfig(max_iter=5, restarts=1)
        if how == "pooled":
            force_pool(monkeypatch, tmp_path)
        else:
            monkeypatch.setattr(gp, "_usable_cpus", lambda: 1)
        model = fit(w, z, config)
        if how == "loaded":
            model = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert square_arrays(model, n) == []
        assert square_arrays(np.ones((n, n))[:1], n) == [(n, n)]  # the walker sees views

    def test_pooled_fit_forms_no_square_array_in_the_parent(self, forced_pool):
        # every start solves its own weights in a worker, so the parent
        # holds vectors only
        n = 400
        rng = np.random.default_rng(251)
        w, z = make_problem(rng, n)
        tracemalloc.start()
        try:
            fit(w, z, FitConfig(max_iter=3, restarts=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * n * 8, peak

    def test_load_forms_no_square_array(self):
        # the file holds the weights, so a load forms no kernel matrix: the
        # query rows (2 N x 13) and weights (2 N x 2) stay far below the bound
        n = 800
        rng = np.random.default_rng(252)
        w, z = make_problem(rng, n)
        payload = json.loads(json.dumps(model_to_dict(
            manual_model(w, z, np.zeros(6), 0.0, math.log(0.05)))))
        model_from_dict(payload)
        tracemalloc.start()
        try:
            model_from_dict(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n * n * 8, peak

    def test_load_factors_nothing(self, monkeypatch):
        rng = np.random.default_rng(253)
        w, z = make_problem(rng, 30)
        model = manual_model(w, z, rng.normal(0.0, 0.3, size=6), 0.2, math.log(0.03))
        payload = json.loads(json.dumps(model_to_dict(model)))

        def no_factor(*args):
            raise AssertionError("loading a model factored a kernel matrix")

        monkeypatch.setattr(gp, "_chol_with_jitter", no_factor)
        loaded = model_from_dict(payload)
        for out, other in zip(model.outputs, loaded.outputs):
            assert np.array_equal(other.alpha, out.alpha)
        for a, b in zip(model.query, loaded.query):
            assert np.array_equal(a, b)


class TestPrediction:
    def test_mean_matches_dense_solve(self):
        rng = np.random.default_rng(21)
        w, z = make_problem(rng, 30)
        log_ls = rng.normal(0.0, 0.2, size=6)
        model = manual_model(w, z, log_ls, 0.15, math.log(0.02))
        queries = rng.normal(size=(7, 6))
        mean = predict(model, queries)
        for j in range(2):
            out = model.outputs[j]
            k = kernel_oracle(log_ls, 0.15, w, w)
            jitter = solved(out.theta, w, z[:, j])[1]
            ky = k + (math.exp(out.theta[7]) + jitter) * np.eye(30)
            ks = kernel_oracle(log_ls, 0.15, queries, w)
            mean_o = ks @ np.linalg.solve(ky, z[:, j])
            assert np.allclose(mean[:, j], mean_o, atol=1e-10)

    def test_single_query_equals_batch_row(self):
        rng = np.random.default_rng(22)
        w, z = make_problem(rng, 12)
        model = manual_model(w, z, np.zeros(6), 0.0, math.log(0.05))
        m1 = predict(model, w[3])
        m2 = predict(model, w[3:4])
        assert m1.shape == (2,)
        assert np.array_equal(m1, m2[0])

    def test_near_zero_noise_interpolates_training_targets(self):
        rng = np.random.default_rng(23)
        w = rng.uniform(-1.0, 1.0, size=(20, 2))
        z = np.column_stack([np.sin(w[:, 0]), np.cos(w[:, 1])])
        model = manual_model(w, z, np.zeros(2), 0.0, math.log(1e-10))
        mean = predict(model, w)
        assert np.max(np.abs(mean - z)) < 1e-6

    def test_far_query_reverts_to_prior(self):
        rng = np.random.default_rng(24)
        w, z = make_problem(rng, 15)
        model = manual_model(w, z, np.zeros(6), 0.3, math.log(0.01))
        mean = predict(model, np.full(6, 1e6))
        # prior mean is zero under identity standardization
        assert np.max(np.abs(mean)) < 1e-12

    def test_a_query_loads_no_scipy(self, tmp_path):
        # the mean needs the weights alone, so querying a loaded model, as
        # evaluate does, imports numpy and no part of scipy
        rng = np.random.default_rng(40)
        w, z = make_problem(rng, 20)
        path = tmp_path / "model.json"
        save_model(manual_model(w, z, np.zeros(6), 0.0, math.log(0.1)), str(path))
        assert json.loads(run_probe(QUERY_PROBE, str(path)).stdout) == []

    def test_rejects_bad_queries(self):
        rng = np.random.default_rng(26)
        w, z = make_problem(rng, 8)
        model = manual_model(w, z, np.zeros(6), 0.0, math.log(0.1))
        with pytest.raises(ValueError, match="columns"):
            predict(model, np.zeros(5))
        with pytest.raises(ValueError, match="finite"):
            predict(model, np.full(6, np.nan))


class TestPredictionCaches:
    def uncached_predict(self, model, w):
        """predict written against kernel_oracle, with nothing cached but
        the weights."""
        ws = (np.atleast_2d(w) - model.input_mean) / model.input_std
        xs = standardized_inputs(model)
        d = xs.shape[1]
        means = []
        for j, out in enumerate(model.outputs):
            ks = kernel_oracle(out.theta[:d], out.theta[d], ws, xs)
            means.append((ks @ out.alpha) * model.target_std[j] + model.target_mean[j])
        return np.column_stack(means)

    def test_matches_the_uncached_kernel(self):
        # the stacked query sums q (x / l^2) in its exponents where the
        # oracle sums squared differences: a few ulps apart per exponent,
        # which the weights alpha, large where the noise is small, amplify
        # in the sums, so the two agree to 1e-10 relative and not bitwise
        rng = np.random.default_rng(28)
        w, z = make_problem(rng, 40)
        model = manual_model(w, z, rng.normal(0.0, 0.3, size=6), 0.2, math.log(0.02),
                             input_mean=w.mean(axis=0), input_std=w.std(axis=0))
        queries = rng.normal(size=(9, 6))
        mean = predict(model, queries)
        mean_o = self.uncached_predict(model, queries)
        assert np.max(np.abs(mean - mean_o)) <= 1e-10 * np.max(np.abs(mean_o))
        for q in queries:
            m1 = predict(model, q)
            m_q = self.uncached_predict(model, q)
            assert np.max(np.abs(m1 - m_q[0])) <= 1e-10 * np.max(np.abs(m_q[0]))

    def test_a_batch_runs_in_blocks(self, monkeypatch):
        # 7 rows in blocks of 3: every row, the short last block's too, is
        # the query of that row alone
        rng = np.random.default_rng(31)
        w, z = make_problem(rng, 30)
        model = manual_model(w, z, rng.normal(0.0, 0.3, size=6), 0.1, math.log(0.02))
        queries = rng.normal(size=(7, 6))
        monkeypatch.setattr(gp, "_QUERY_ROWS", 3)
        mean = predict(model, queries)
        alone = [predict(model, q) for q in queries]
        assert np.allclose(mean, alone, rtol=1e-12, atol=0.0)

    def test_fit_and_load_build_the_same_stacked_block(self):
        rng = np.random.default_rng(29)
        w, z = make_problem(rng, 20)
        fitted = fit(w, z, FitConfig(max_iter=15, restarts=0))
        loaded = model_from_dict(json.loads(json.dumps(model_to_dict(fitted))))
        assert len(fitted.query) == 2
        for a, b in zip(fitted.query, loaded.query):
            assert np.array_equal(a, b)
        for out, other in zip(fitted.outputs, loaded.outputs):
            assert np.array_equal(other.alpha, out.alpha)
        xs = standardized_inputs(fitted)
        block, weights = fitted.query
        assert block.shape == (40, 13) and block.flags.f_contiguous
        assert weights.shape == (40, 2)
        for j, out in enumerate(fitted.outputs):
            rows, other = slice(20 * j, 20 * (j + 1)), slice(20 * (1 - j), 20 * (2 - j))
            sq_scales = np.exp(2.0 * out.theta[:6])
            assert np.array_equal(block[rows, :6], xs / sq_scales)
            assert np.array_equal(block[rows, 6:12], np.tile(-0.5 / sq_scales, (20, 1)))
            assert np.allclose(block[rows, 12],
                               -0.5 * np.sum((xs / np.exp(out.theta[:6])) ** 2, axis=1),
                               rtol=1e-14, atol=0.0)
            assert np.array_equal(weights[rows, j], math.exp(out.theta[6]) * out.alpha)
            assert not np.any(weights[other, j])
        # [q, q o q, 1] times a row is the exponent -|q - x|^2 / (2 l^2)
        q = standardized_inputs(fitted)[3]
        aug = np.concatenate([q, q * q, [1.0]])
        for j, out in enumerate(fitted.outputs):
            k = kernel_oracle(out.theta[:6], out.theta[6], q[None], xs)[0] / math.exp(out.theta[6])
            assert np.allclose(np.exp(np.minimum(block[20 * j:20 * (j + 1)] @ aug, 0.0)), k,
                               rtol=1e-12, atol=1e-300)

    def test_factor_is_of_the_kernel_matrix_plus_noise_and_jitter(self):
        # the fit's one path adds the noise variance and the jitter the fit
        # reported to K, and solves the weights the model holds, for a
        # fitted model and for the same model loaded back
        rng = np.random.default_rng(30)
        w, z = make_problem(rng, 25)
        fitted = fit(w, z, FitConfig(max_iter=15, restarts=0))
        loaded = model_from_dict(json.loads(json.dumps(model_to_dict(fitted))))
        for model in (fitted, loaded):
            xs, zs = standardized_inputs(model), standardized_targets(model)
            for j, (out, info) in enumerate(zip(model.outputs, model.report["outputs"])):
                chol, jitter, alpha = solved(out.theta, xs, zs[:, j])
                assert jitter == info["jitter"]
                assert np.array_equal(alpha, out.alpha)
                k = kernel_matrix(out.theta, xs)
                expected = k + (math.exp(out.theta[7]) + jitter) * np.eye(25)
                error = np.max(np.abs(chol @ chol.T - expected))
                assert error <= 1e-12 * np.max(np.abs(expected)), error


def recipe_shaped_model(seed=40, n=1000):
    """A model of the recipe's shape: N = 1000 training rows of six inputs
    and two outputs, standardized both ways. The weights are drawn, not
    solved: the mean reads only them, so no factor is formed."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, 6)) * np.array([0.02, 0.02, 0.02, 0.02, 0.01, 1.5])
    z = rng.normal(0.2, 0.3, size=(n, 2))
    outputs = [gp.OutputModel(np.append(rng.normal(0.0, 0.3, size=6), [0.2, -6.0]),
                              rng.normal(size=n)) for _ in range(2)]
    return GpModel(w, z, w.mean(axis=0), w.std(axis=0), z.mean(axis=0), z.std(axis=0),
                   outputs, {})


class TestOneRowQuery:
    """The learned slot's query: one row, as a 1-D array, or a tuple or
    list of floats."""

    def test_one_row_mean_is_the_bits_of_the_row_queried_alone(self):
        # a row alone in its block of a batch takes the one-row products
        # too; rows that share a block are one matrix product, whose sums
        # may round apart from these in the last bits
        model = recipe_shaped_model()
        rng = np.random.default_rng(41)
        queries = model.inputs[rng.choice(1000, size=20)] + rng.normal(0.0, 0.01, size=(20, 6))
        for q in queries:
            mean = predict(model, q)
            assert mean.shape == (2,)
            assert np.array_equal(mean, predict(model, q[None])[0])
            tail = np.vstack([model.inputs[:gp._QUERY_ROWS], q])
            assert np.array_equal(mean, predict(model, tail)[-1])

    def test_a_float_row_is_the_bits_of_the_array_row(self):
        # the learned slot hands its six inputs as a tuple of floats; a
        # list of them is one row too, not a batch
        model = recipe_shaped_model()
        rng = np.random.default_rng(42)
        queries = model.inputs[rng.choice(1000, size=20)] + rng.normal(0.0, 0.01, size=(20, 6))
        for q in queries:
            mean = predict(model, tuple(q.tolist()))
            assert mean.shape == (2,)
            assert np.array_equal(mean, predict(model, q.tolist()))
            assert np.array_equal(mean, predict(model, q))
            assert np.array_equal(mean, predict(model, q[None])[0])

    def test_a_loaded_model_gives_the_fitted_models_bits(self, tmp_path):
        # the float scales the one-row query reads are built by the model
        # itself, so a file read back queries exactly as the fit it holds
        rng = np.random.default_rng(43)
        w, z = make_problem(rng, 40)
        fitted = fit(w, z, FitConfig(max_iter=15, restarts=0))
        path = str(tmp_path / "model.json")
        save_model(fitted, path)
        loaded = load_model(path)
        for model in (fitted, loaded):
            assert model.scales == (model.input_mean.tolist(), model.input_std.tolist(),
                                    model.target_mean.tolist(), model.target_std.tolist())
            assert all(type(v) is float for scale in model.scales for v in scale)
        queries = w[rng.choice(40, size=12)] + rng.normal(0.0, 0.05, size=(12, 6))
        for q in queries:
            mean = predict(fitted, tuple(q.tolist()))
            for model in (fitted, loaded):
                assert np.array_equal(predict(model, tuple(q.tolist())), mean)
                assert np.array_equal(predict(model, q), mean)
                assert np.array_equal(predict(model, q[None])[0], mean)

    def test_a_returned_mean_is_not_overwritten_by_the_next_call(self):
        model = recipe_shaped_model()
        first = predict(model, model.inputs[0])
        kept = first.copy()
        second = predict(model, model.inputs[1])
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("batch", [False, True])
    def test_a_bad_row_raises_the_batch_error(self, batch):
        # one row as an array, a tuple or a list, or a batch as a 2-D
        # array or a list of rows: each form raises the same error
        def forms(row):
            if batch:
                return (np.vstack([np.zeros(len(row)), row]), [[0.0] * len(row), list(row)])
            return (np.asarray(row), tuple(row), list(row))

        model = recipe_shaped_model(n=20)
        for width in (5, 7):
            for row in forms([0.0] * width):
                with pytest.raises(ValueError, match=f"query must have 6 columns, got {width}"):
                    predict(model, row)
        for bad in (math.nan, math.inf, -math.inf):
            q = [0.0] * 6
            q[4] = bad
            for row in forms(q):
                with pytest.raises(ValueError, match="prediction query contains non-finite values"):
                    predict(model, row)


class TestFit:
    def test_learns_smooth_inverse_map(self):
        rng = np.random.default_rng(31)
        w, z = make_problem(rng, 120, noise=1e-4)
        config = FitConfig(max_iter=80, restarts=1, seed=5)
        model = fit(w[:100], z[:100], config)
        _, mean_err = held_out_error(model, w[100:], z[100:])
        scale = float(np.linalg.norm(z[100:], axis=1).mean())
        assert mean_err < 0.05 * scale

    def test_objective_trace_is_monotone_decreasing(self):
        rng = np.random.default_rng(32)
        w, z = make_problem(rng, 40)
        model = fit(w, z, FitConfig(max_iter=60, restarts=1, seed=3))
        for out_info in model.report["outputs"]:
            for start in out_info["starts"]:
                trace = np.asarray(start["objective_trace"])
                assert trace.size > 0
                drops = np.diff(trace)
                assert np.all(drops <= 1e-7 * (1.0 + np.abs(trace[:-1])))

    def test_outputs_fit_independently(self):
        rng = np.random.default_rng(33)
        w, z = make_problem(rng, 24)
        z_alt = z.copy()
        z_alt[:, 0] = z[::-1, 0]  # disturb output 1 only
        config = FitConfig(max_iter=40, restarts=1, seed=9)
        m1 = fit(w, z, config)
        m2 = fit(w, z_alt, config)
        t1, t2 = m1.outputs[1].theta, m2.outputs[1].theta
        assert np.array_equal(t1[:6], t2[:6])
        assert t1[6] == t2[6]
        assert t1[7] == t2[7]

    def test_fit_is_deterministic_for_a_seed(self):
        rng = np.random.default_rng(34)
        w, z = make_problem(rng, 30)
        config = FitConfig(max_iter=40, restarts=2, seed=17)
        m1 = fit(w, z, config)
        m2 = fit(w, z, config)
        q = rng.normal(size=(5, 6))
        assert np.array_equal(predict(m1, q), predict(m2, q))

    def test_oversized_training_set_is_subsampled(self):
        rng = np.random.default_rng(35)
        w, z = make_problem(rng, 40)
        config = FitConfig(max_iter=20, restarts=0, seed=2, max_train=15)
        model = fit(w, z, config)
        assert model.inputs.shape == (15, 6)
        assert model.report["n_train"] == 15
        # every retained row must come from the original set
        for row in model.inputs:
            assert np.any(np.all(np.isclose(w, row, atol=0.0), axis=1))

    def test_constant_input_dimension_is_tolerated(self):
        rng = np.random.default_rng(36)
        w, z = make_problem(rng, 25)
        w[:, 5] = 3.0  # zero variance column
        model = fit(w, z, FitConfig(max_iter=30, restarts=0, seed=1))
        assert np.all(np.isfinite(predict(model, w[:3])))

    def test_restart_count_is_respected(self):
        rng = np.random.default_rng(37)
        w, z = make_problem(rng, 20)
        model = fit(w, z, FitConfig(max_iter=25, restarts=3, seed=4))
        for out_info in model.report["outputs"]:
            assert len(out_info["starts"]) == 4  # base start plus restarts

    def test_rejects_invalid_configuration(self):
        with pytest.raises(ValueError):
            FitConfig(max_iter=0)
        with pytest.raises(ValueError):
            FitConfig(restarts=-1)
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            FitConfig(seed=-1)
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 6)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.full((3, 6), np.nan), np.zeros((3, 2)))


class TestBlasThreads:
    # a forked pool cannot pickle the local _run_start these tests patch in
    def test_fit_runs_on_one_thread_and_restores_the_count(self, two_blas_threads, serial_fit,
                                                            monkeypatch):
        seen = []
        run_start = gp._run_start

        def recording(*args):
            seen.append(blas_thread_counts())
            return run_start(*args)

        monkeypatch.setattr(gp, "_run_start", recording)
        rng = np.random.default_rng(36)
        w, z = make_problem(rng, 20)
        fit(w, z, FitConfig(max_iter=10, restarts=0))
        assert seen == [[1] * len(two_blas_threads)] * 2
        assert blas_thread_counts() == two_blas_threads

    def test_thread_count_restored_when_fit_raises(self, two_blas_threads, serial_fit,
                                                   monkeypatch):
        def failing(*args):
            raise ConditioningError("no optimizer start ended on a factored, finite fit")

        monkeypatch.setattr(gp, "_run_start", failing)
        rng = np.random.default_rng(37)
        w, z = make_problem(rng, 10)
        with pytest.raises(ConditioningError):
            fit(w, z, FitConfig(max_iter=10, restarts=0))
        assert blas_thread_counts() == two_blas_threads

    def test_output_builds_run_on_one_thread(self, two_blas_threads, serial_fit,
                                             monkeypatch):
        # every factor step of the fit runs on one thread: each objective
        # evaluation's and each start's final solve for its output model
        seen = []
        factor = gp._lapack_factor

        def recording_factor(a):
            seen.append(blas_thread_counts())
            return factor(a)

        monkeypatch.setattr(gp, "_lapack_factor", recording_factor)
        rng = np.random.default_rng(38)
        w, z = make_problem(rng, 10)
        model = fit(w, z, FitConfig(max_iter=5, restarts=0))
        evaluations = sum(s["evaluations"] for out in model.report["outputs"] for s in out["starts"])
        assert seen == [[1] * len(two_blas_threads)] * (evaluations + 2)
        assert blas_thread_counts() == two_blas_threads

    def test_lookup_finds_scipys_openblas_once_loaded(self):
        # every CLI command looks the libraries up before train's fit loads
        # scipy's OpenBLAS, and that miss must not hide it from the fit's pin
        if wheel_openblas_count() < 2:
            pytest.skip("numpy and scipy do not both bundle an OpenBLAS here")
        assert json.loads(run_probe(LOOKUP_PROBE).stdout) == [1, 2]

    @pytest.mark.skipif(not os.path.exists("/proc/self/task"), reason="needs Linux /proc")
    def test_pooled_fit_leaves_the_thread_pools_stopped(self):
        # the fit's fork stops each OpenBLAS pool; the pin's restore must not
        # restart them, or their fresh threads spin beside what runs next
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs two usable CPUs for OpenBLAS to start a pool")
        env = probe_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        proc = subprocess.run([sys.executable, "-c", STOPPED_POOL_PROBE], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        probe = json.loads(proc.stdout)
        assert probe["tasks"] == 1
        assert probe["after"] == probe["before"]
        assert probe["product"]

    def test_pin_leaves_raised_counts_usable(self):
        # one thread per pool at start, raised to two through the library's
        # own setter; a pin that wrote a count above its pool's size would
        # leave the product waiting on a thread never started
        if not wheel_openblas_count():
            pytest.skip("numpy and scipy bundle no OpenBLAS here")
        proc = run_probe(PIN_AFTER_RAISE_PROBE, timeout=60, env={"OPENBLAS_NUM_THREADS": "1"})
        probe = json.loads(proc.stdout)
        assert probe["raised"] == [2] * len(probe["raised"])
        assert probe["after"] == probe["raised"]
        assert probe["product"]

    def test_held_out_error_predicts_on_one_thread(self, two_blas_threads, monkeypatch):
        seen = []
        predict_batch = gp.predict

        def recording(*args, **kwargs):
            seen.append(blas_thread_counts())
            return predict_batch(*args, **kwargs)

        rng = np.random.default_rng(39)
        w, z = make_problem(rng, 10)
        model = manual_model(w, z, np.zeros(6), 0.0, math.log(0.1))
        monkeypatch.setattr(gp, "predict", recording)
        held_out_error(model, w, z)
        assert seen == [[1] * len(two_blas_threads)]
        assert blas_thread_counts() == two_blas_threads


@pytest.fixture
def serial_fit(monkeypatch):
    """Fit in this process, as on a one-CPU machine."""
    monkeypatch.setattr(gp, "_usable_cpus", lambda: 1)


def force_pool(monkeypatch, tmp_path):
    """Fit in forked workers, as on a two-CPU machine with no CPU quota."""
    monkeypatch.setattr(gp, "_CPU_MAX", str(tmp_path / "no_cpu_max"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def forced_pool(monkeypatch, tmp_path):
    force_pool(monkeypatch, tmp_path)


def refuse_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)


def model_bytes(model):
    return json.dumps(model_to_dict(model), sort_keys=True)


# Run in a fresh interpreter, so that no thread of the test runner counts
# and the at-fork hook ends with the process.
FORK_PROBE = """
import json, os, sys, warnings
import numpy as np
from tracksim import gp

def os_thread_count():
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[17])

after_fork = []
os.register_at_fork(after_in_parent=lambda: after_fork.append(os_thread_count()))
gp._CPU_MAX = os.devnull
os.sched_getaffinity = lambda pid: {0, 1}
rng = np.random.default_rng(65)
w = rng.normal(0.0, 1.0, size=(20, 6))
z = np.column_stack([np.sin(w[:, 0]), np.cos(w[:, 1])])
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    gp.fit(w, z, gp.FitConfig(max_iter=10, restarts=1))
forks = [str(c.message) for c in caught if "fork" in str(c.message)]
print(json.dumps({"after_fork": after_fork, "fork_warnings": forks}))
"""


# Run in a fresh interpreter, where nothing has loaded scipy.optimize yet;
# each job appends to the file named by argv[1] the pid that ran it and
# whether it found scipy.optimize loaded, and the probe prints its own pid.
PRELOAD_PROBE = """
import json, os, sys
import numpy as np
from tracksim import gp

run_start = gp._run_start

def recording(*args):
    with open(sys.argv[1], "a") as fh:
        fh.write(json.dumps([os.getpid(), "scipy.optimize" in sys.modules]) + "\\n")
    return run_start(*args)

gp._run_start = recording
gp._CPU_MAX = os.devnull
os.sched_getaffinity = lambda pid: {0, 1}
rng = np.random.default_rng(70)
w = rng.normal(0.0, 1.0, size=(20, 6))
z = np.column_stack([np.sin(w[:, 0]), np.cos(w[:, 1])])
gp.fit(w, z, gp.FitConfig(max_iter=10, restarts=1))
print(os.getpid())
"""


# Run in a fresh interpreter: a pooled fit whose _run_start is a local
# function, which pickle cannot send to a worker; the probe prints the
# forks the fit made and the child processes left after it.
UNPICKLABLE_PROBE = """
import multiprocessing, os
import numpy as np
from tracksim import gp

forks = []
os.register_at_fork(before=lambda: forks.append(1))
gp._CPU_MAX = os.devnull
os.sched_getaffinity = lambda pid: {0, 1}

def main():
    run_start = gp._run_start

    def local(*args):
        return run_start(*args)

    gp._run_start = local
    rng = np.random.default_rng(71)
    w = rng.normal(0.0, 1.0, size=(20, 6))
    z = np.column_stack([np.sin(w[:, 0]), np.cos(w[:, 1])])
    try:
        gp.fit(w, z, gp.FitConfig(max_iter=10, restarts=1))
    finally:
        print(len(forks), len(multiprocessing.active_children()), flush=True)

main()
"""


# Run in a fresh interpreter, where nothing has loaded scipy's OpenBLAS
# yet, with two OpenBLAS threads: a serial, then a pooled fit. Each
# objective call appends to the file named by argv[1] its pid and the
# thread counts of every wheel OpenBLAS then loaded; the probe prints its
# own pid.
THREADS_PROBE = """
import json, os, sys
import numpy as np
from tracksim import gp

nll = gp.nll_and_grad

def recording(*args):
    with open(sys.argv[1], "a") as fh:
        fh.write(json.dumps([os.getpid(), [count.value for count, _ in gp._bundled_openblas()]]) + "\\n")
    return nll(*args)

gp.nll_and_grad = recording
rng = np.random.default_rng(72)
w = rng.normal(0.0, 1.0, size=(20, 6))
z = np.column_stack([np.sin(w[:, 0]), np.cos(w[:, 1])])
for cpus in (1, 2):
    gp._usable_cpus = lambda: cpus
    gp.fit(w, z, gp.FitConfig(max_iter=3, restarts=0))
print(os.getpid())
"""


# Run in a fresh interpreter: a pooled fit whose optimizer starts write
# their worker's pid to the file named by argv[1] and then stall.
STALLED_POOL_PROBE = """
import os, sys, time
import numpy as np
from tracksim import gp

def stalled(*args):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(30)

gp._run_start = stalled
gp._CPU_MAX = os.devnull
os.sched_getaffinity = lambda pid: {0, 1}
rng = np.random.default_rng(74)
w = rng.normal(0.0, 1.0, size=(20, 6))
z = np.column_stack([np.sin(w[:, 0]), np.cos(w[:, 1])])
gp.fit(w, z, gp.FitConfig(max_iter=10, restarts=1))
"""


# Run in a fresh interpreter, where nothing has imported scipy yet: load
# the model file argv[1], query it for a batch and for its held-out error.
# Prints the scipy modules loaded by then.
QUERY_PROBE = """
import json, sys
from tracksim import gp

model = gp.load_model(sys.argv[1])
gp.predict(model, model.inputs[:3])
gp.held_out_error(model, model.inputs, model.targets)
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


# Run in a fresh interpreter: the OpenBLAS libraries found before and after
# scipy.linalg is imported.
LOOKUP_PROBE = """
import json
from tracksim import gp
before = len(gp._bundled_openblas())
import scipy.linalg
print(json.dumps([before, len(gp._bundled_openblas())]))
"""


# Run in a fresh interpreter at OpenBLAS's default thread count, with two
# usable CPUs: a pooled fit, after which the probe prints the thread
# counts before and after it, the process's thread count, and whether a
# 1000 x 1000 product then completed with the right value. The pool's own
# threads are joined by the fit's end but may take a moment more to leave
# /proc/self/task, so the probe waits up to 5 s for one thread; a restarted
# OpenBLAS pool keeps its threads for the life of the process.
STOPPED_POOL_PROBE = """
import json, os, time
import numpy as np
import scipy.linalg
from tracksim import gp

counts = lambda: [count.value for count, _ in gp._bundled_openblas()]
gp._CPU_MAX = os.devnull
os.sched_getaffinity = lambda pid: {0, 1}
rng = np.random.default_rng(75)
w = rng.normal(0.0, 1.0, size=(20, 6))
z = np.column_stack([np.sin(w[:, 0]), np.cos(w[:, 1])])
before = counts()
gp.fit(w, z, gp.FitConfig(max_iter=10, restarts=1))
after, deadline = counts(), time.monotonic() + 5.0
while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
    time.sleep(0.01)
tasks = len(os.listdir("/proc/self/task"))
a = np.eye(1000) * 2.0
product = bool(np.array_equal(a @ a, np.eye(1000) * 4.0))
print(json.dumps({"before": before, "after": after, "tasks": tasks, "product": product}))
"""


# Run in a fresh interpreter started with one OpenBLAS thread: raise every
# wheel OpenBLAS to two threads as the two_blas_threads fixture does, enter
# and leave the pin, then multiply two 2000 x 2000 matrices on two threads.
PIN_AFTER_RAISE_PROBE = """
import json
import numpy as np
import scipy.linalg
from tracksim import gp

counts = lambda: [count.value for count, _ in gp._bundled_openblas()]
for _, put in gp._bundled_openblas():
    put(2)
raised = counts()
with gp._single_blas_thread():
    pass
a = np.eye(2000) * 2.0
product = bool(np.array_equal(a @ a, np.eye(2000) * 4.0))
print(json.dumps({"raised": raised, "after": counts(), "product": product}))
"""


def probe_env(extra=None):
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gp.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **(extra or {}))


def run_probe(probe, *args, check=True, timeout=None, env=None):
    """Run a probe script in a fresh interpreter that imports this tracksim."""
    return subprocess.run(
        [sys.executable, "-c", probe, *args], env=probe_env(env),
        check=check, capture_output=True, text=True, timeout=timeout,
    )


def process_alive(pid):
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


class TestParallelFit:
    @pytest.mark.parametrize("n", [2, 30])
    def test_pool_gives_the_serial_model_bytes(self, monkeypatch, tmp_path, n):
        # each worker job gets the training arrays through pickle, which
        # keeps the serial bits only while the kernel matrix depends on the
        # input values alone: at 30 samples an unpickled copy can reach
        # another BLAS path; 2 is the smallest fit FitConfig allows
        rng = np.random.default_rng(61)
        w, z = make_problem(rng, n)
        config = FitConfig(max_iter=40, restarts=2, seed=6)
        with monkeypatch.context() as one_cpu:
            one_cpu.setattr(gp, "_usable_cpus", lambda: 1)
            serial = model_bytes(fit(w, z, config))
        force_pool(monkeypatch, tmp_path)
        assert model_bytes(fit(w, z, config)) == serial

    def test_worker_conditioning_error_reaches_the_caller(self, forced_pool, monkeypatch):
        parent, minimize = os.getpid(), scipy.optimize.minimize

        def failing_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                raise ConditioningError("raised in a worker")
            return minimize(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", failing_in_workers)
        rng = np.random.default_rng(62)
        w, z = make_problem(rng, 20)
        with pytest.raises(ConditioningError, match="raised in a worker"):
            fit(w, z, FitConfig(max_iter=10, restarts=1))
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_starts_no_worker(self, forced_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        refuse_pool(monkeypatch)
        rng = np.random.default_rng(63)
        w, z = make_problem(rng, 20)
        model = fit(w, z, FitConfig(max_iter=10, restarts=1))
        assert len(model.outputs) == 2

    @pytest.mark.parametrize("cpu_max, cpus", [
        ("100000 100000\n", 1), ("150000 100000\n", 1), ("200000 100000\n", 2),
        ("max 100000\n", 2), ("", 2),
    ])
    def test_cpu_quota_caps_the_usable_cpus(self, forced_pool, monkeypatch, tmp_path,
                                            cpu_max, cpus):
        quota = tmp_path / "cpu.max"
        quota.write_text(cpu_max)
        monkeypatch.setattr(gp, "_CPU_MAX", str(quota))
        assert gp._usable_cpus() == cpus

    def test_one_cpu_quota_starts_no_worker(self, forced_pool, monkeypatch, tmp_path):
        quota = tmp_path / "cpu.max"
        quota.write_text("100000 100000\n")
        monkeypatch.setattr(gp, "_CPU_MAX", str(quota))
        refuse_pool(monkeypatch)
        rng = np.random.default_rng(69)
        w, z = make_problem(rng, 20)
        assert len(fit(w, z, FitConfig(max_iter=10, restarts=1)).outputs) == 2

    def test_usable_cpus_size_the_pool(self, monkeypatch, tmp_path):
        # run under `taskset -c 0` this checks the real one-CPU fallback
        sizes = []
        pool = concurrent.futures.ProcessPoolExecutor

        def recording(workers, **kwargs):
            sizes.append(workers)
            return pool(workers, **kwargs)

        monkeypatch.setattr(gp, "_CPU_MAX", str(tmp_path / "no_cpu_max"))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
        rng = np.random.default_rng(68)
        w, z = make_problem(rng, 20)
        fit(w, z, FitConfig(max_iter=10, restarts=1))
        cpus = len(os.sched_getaffinity(0))
        assert sizes == ([] if cpus == 1 else [min(cpus, 4)])

    def test_workers_fit_on_one_blas_thread(self, two_blas_threads, forced_pool,
                                            monkeypatch, tmp_path):
        log = tmp_path / "threads.jsonl"
        nll = gp.nll_and_grad

        def recording(*args):
            with open(log, "a") as fh:
                fh.write(json.dumps([os.getpid(), blas_thread_counts()]) + "\n")
            return nll(*args)

        monkeypatch.setattr(gp, "nll_and_grad", recording)
        rng = np.random.default_rng(64)
        w, z = make_problem(rng, 20)
        fit(w, z, FitConfig(max_iter=10, restarts=1))
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert rows and os.getpid() not in {pid for pid, _ in rows}
        assert all(counts == [1] * len(two_blas_threads) for _, counts in rows)
        assert blas_thread_counts() == two_blas_threads

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs Linux /proc")
    def test_pool_forks_a_single_threaded_process(self):
        # Python 3.12 warns when it forks a process that has other threads;
        # OpenBLAS stops its own threads in its at-fork handler, so the
        # parent is down to one thread right after each fork
        probe = json.loads(run_probe(FORK_PROBE).stdout)
        assert probe["after_fork"][:2] == [1, 1]
        assert probe["fork_warnings"] == []

    def test_a_job_pickle_cannot_send_raises_before_any_worker_starts(self):
        # tried inside the pool, such a job could hang pool.shutdown
        proc = run_probe(UNPICKLABLE_PROBE, check=False, timeout=60)
        assert proc.returncode != 0
        assert "Can't pickle local object" in proc.stderr, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_fit_pins_scipys_openblas_it_loads(self, tmp_path):
        # in a process that had not loaded scipy's OpenBLAS, the fit loads
        # it before the pin, so the serial objective calls and the
        # workers' run on one thread of it too
        libs = wheel_openblas_count()
        if libs < 2:
            pytest.skip("numpy and scipy do not both bundle an OpenBLAS here")
        log = tmp_path / "threads.jsonl"
        parent = int(run_probe(THREADS_PROBE, str(log), env={"OPENBLAS_NUM_THREADS": "2"}).stdout)
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        pids = {pid for pid, _ in rows}
        assert parent in pids and len(pids) > 1
        assert all(counts == [1] * libs for _, counts in rows)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="workers die with their parent on Linux only")
    def test_workers_die_with_a_killed_fit(self, tmp_path):
        log = tmp_path / "workers.txt"
        probe = subprocess.Popen([sys.executable, "-c", STALLED_POOL_PROBE, str(log)],
                                 env=probe_env())
        pids = []
        try:
            deadline = time.monotonic() + 60
            while len(pids) < 2 and time.monotonic() < deadline and probe.poll() is None:
                time.sleep(0.05)
                if log.exists():  # whole lines only
                    pids = sorted({int(pid) for pid in log.read_text().split("\n")[:-1]})
            assert len(pids) == 2, pids
            probe.kill()
            probe.wait()
            deadline = time.monotonic() + 5
            while any(map(process_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if process_alive(pid)] == []
        finally:
            probe.kill()
            probe.wait()
            for pid in pids:
                if process_alive(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_workers_start_with_scipy_optimize_loaded(self, tmp_path):
        # the parent loads it before forking, so no worker imports it again
        log = tmp_path / "preloaded.jsonl"
        parent = int(run_probe(PRELOAD_PROBE, str(log)).stdout)
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert rows and parent not in {pid for pid, _ in rows}
        assert all(loaded for _, loaded in rows)


def fail_factors_during_starts(monkeypatch, fails):
    """Make the factor step report failure wherever fails(call, j) holds:
    call numbers the fit's _run_start calls from 1 and j is that call's
    output, both None outside every start. Returns the output of each
    call, in order."""
    outputs, now = [], [None, None]
    run_start, factor = gp._run_start, gp._lapack_factor

    def start(xs, zs, config, j, theta):
        outputs.append(j)
        now[:] = len(outputs), j
        try:
            return run_start(xs, zs, config, j, theta)
        finally:
            now[:] = None, None

    monkeypatch.setattr(gp, "_run_start", start)
    monkeypatch.setattr(gp, "_lapack_factor", lambda a: not fails(*now) and factor(a))
    return outputs


class TestFitReport:
    def test_counters_match_the_objective_calls(self, serial_fit, monkeypatch):
        calls = []
        nll = gp.nll_and_grad

        def flaky(*args):
            calls.append(1)
            if len(calls) == 2:  # the first line-search probe of the first start
                raise ConditioningError("probe rejected")
            return nll(*args)

        monkeypatch.setattr(gp, "nll_and_grad", flaky)
        rng = np.random.default_rng(66)
        w, z = make_problem(rng, 20)
        model = fit(w, z, FitConfig(max_iter=30, restarts=1, seed=2))
        starts = [s for out in model.report["outputs"] for s in out["starts"]]
        assert [s["rejected_probes"] for s in starts] == [1, 0, 0, 0]
        assert sum(s["evaluations"] for s in starts) == len(calls)

    def test_rejected_probe_does_not_end_its_start(self, serial_fit, monkeypatch):
        rng = np.random.default_rng(66)
        w, z = make_problem(rng, 20)
        config = FitConfig(max_iter=30, restarts=1, seed=2)
        unrejected = fit(w, z, config).report["outputs"][0]["starts"][0]
        calls = []
        nll = gp.nll_and_grad

        def flaky(*args):
            calls.append(1)
            if len(calls) == 2:  # the first line-search probe of the first start
                raise ConditioningError("probe rejected")
            return nll(*args)

        monkeypatch.setattr(gp, "nll_and_grad", flaky)
        start = fit(w, z, config).report["outputs"][0]["starts"][0]
        assert start["rejected_probes"] == 1
        assert start["iterations"] == config.max_iter
        assert start["stop"] == "max_iter"
        assert math.isclose(start["nll"], unrejected["nll"], rel_tol=1e-3)

    def test_each_start_says_why_it_stopped(self):
        rng = np.random.default_rng(68)
        w, z = make_problem(rng, 20)
        model = fit(w, z, FitConfig(max_iter=1, restarts=1, seed=2))
        starts = [s for out in model.report["outputs"] for s in out["starts"]]
        assert [s["stop"] for s in starts] == ["max_iter"] * 4
        model = fit(w, z, FitConfig(max_iter=200, restarts=1, seed=2))
        starts = [s for out in model.report["outputs"] for s in out["starts"]]
        assert all(s["stop"] in ("ftol", "gtol") for s in starts), starts

    def test_a_start_that_never_factored_is_passed_over(self, serial_fit, monkeypatch):
        # every factor of output 0's first start fails: the start ends at
        # once on its 1e25 value, has no model, and the next start is chosen
        outputs = fail_factors_during_starts(monkeypatch, lambda call, j: call == 1)
        rng = np.random.default_rng(69)
        w, z = make_problem(rng, 20)
        model = fit(w, z, FitConfig(max_iter=30, restarts=1, seed=2))
        assert outputs == [0, 0, 1, 1]
        info = model.report["outputs"][0]
        assert info["chosen_start"] == 1
        assert info["starts"][0]["nll"] == 1e25
        assert info["starts"][0]["rejected_probes"] == info["starts"][0]["evaluations"] > 0

    def test_an_output_whose_every_start_failed_raises(self, serial_fit, monkeypatch, tmp_path):
        # every factor fails but those of output 1's starts: output 0 has
        # no finished model, so the fit raises and train exits 3
        fail_factors_during_starts(monkeypatch, lambda call, j: j != 1)
        rng = np.random.default_rng(69)
        w, z = make_problem(rng, 20)
        with pytest.raises(ConditioningError):
            fit(w, z, FitConfig(max_iter=30, restarts=1, seed=2))
        dataset = tmp_path / "dataset.csv"
        save_dataset(Dataset(w, z), str(dataset))
        config = tmp_path / "cfg.yaml"
        config.write_text(json.dumps({"gp": {"restarts": 1, "max_iter": 30}}))
        out = tmp_path / "model"
        assert cli.main(["train", str(dataset), "--config", str(config), "--out", str(out)]) == 3
        assert not (out / "model.json").exists()

    def test_jitter_is_the_base_level_of_the_fitted_matrix(self):
        rng = np.random.default_rng(67)
        w, z = make_problem(rng, 20)
        model = fit(w, z, FitConfig(max_iter=30, restarts=0, seed=2))
        xs, zs = standardized_inputs(model), standardized_targets(model)
        for j, (info, out) in enumerate(zip(model.report["outputs"], model.outputs)):
            mean_diag = math.exp(out.theta[6]) + math.exp(out.theta[7])
            jitter = solved(out.theta, xs, zs[:, j])[1]
            assert info["jitter"] == jitter
            assert math.isclose(jitter, gp.JITTER_REL_INIT * mean_diag, rel_tol=1e-12)


class TestHeldOutError:
    def test_mean_is_average_of_per_point_norms(self):
        rng = np.random.default_rng(41)
        w, z = make_problem(rng, 20)
        model = manual_model(w, z, np.zeros(6), 0.0, math.log(0.05))
        errors, mean_err = held_out_error(model, w[:8], z[:8] + 0.1)
        assert errors.shape == (8,)
        assert abs(mean_err - errors.mean()) < 1e-15
        expected = np.linalg.norm(predict(model, w[:8]) - (z[:8] + 0.1), axis=1)
        assert np.allclose(errors, expected, atol=1e-14)

    def test_empty_set_raises(self):
        rng = np.random.default_rng(42)
        w, z = make_problem(rng, 10)
        model = manual_model(w, z, np.zeros(6), 0.0, math.log(0.05))
        with pytest.raises(ValueError):
            held_out_error(model, np.zeros((0, 6)), np.zeros((0, 2)))


class TestPersistence:
    def test_json_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(51)
        w, z = make_problem(rng, 30)
        model = fit(w, z, FitConfig(max_iter=40, restarts=1, seed=8))
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        q = rng.normal(size=(9, 6))
        m1 = predict(model, q)
        m2 = predict(loaded, q)
        assert np.max(np.abs(m1 - m2)) < 1e-12
        for a, b in zip(model.outputs, loaded.outputs):
            assert np.array_equal(a.theta[:6], b.theta[:6])
            assert a.theta[7] == b.theta[7]
        assert loaded.report["n_train"] == model.report["n_train"]

    def test_round_trip_dict_preserves_training_arrays_exactly(self):
        rng = np.random.default_rng(52)
        w, z = make_problem(rng, 12)
        model = manual_model(w, z, rng.normal(size=6) * 0.1, 0.2, math.log(0.03))
        clone = model_from_dict(model_to_dict(model))
        assert np.array_equal(clone.inputs, model.inputs)
        assert np.array_equal(clone.targets, model.targets)
        assert np.array_equal(clone.input_std, model.input_std)

    def test_load_rejects_corrupt_payloads(self, tmp_path):
        rng = np.random.default_rng(53)
        w, z = make_problem(rng, 10)
        payload = model_to_dict(manual_model(w, z, np.zeros(6), 0.0, math.log(0.1)))
        bad = dict(payload)
        bad["kernel_kind"] = "linear"
        with pytest.raises(ValueError, match="kernel"):
            model_from_dict(bad)
        bad = dict(payload)
        bad["n_train"] = 99
        with pytest.raises(ValueError, match="dims"):
            model_from_dict(bad)
        bad = dict(payload)
        del bad["standardization"]
        with pytest.raises(ValueError, match="standardization"):
            model_from_dict(bad)
        for version in (1, 3, None):
            bad = dict(payload, version=version)
            with pytest.raises(ValueError, match=rf"version {version} is not supported.*retrain"):
                model_from_dict(bad)
        for alpha in (None, [0.5] * 9, [0.5] * 9 + [math.nan], [0.5] * 9 + ["0.5"]):
            bad = json.loads(json.dumps(payload))
            bad["outputs"][1]["alpha"] = alpha
            with pytest.raises(ValueError, match="output 1: alpha must be 10 finite numbers"):
                model_from_dict(bad)
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_model(str(broken))

    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        rng = np.random.default_rng(54)
        w, z = make_problem(rng, 8)
        model = manual_model(w, z, np.zeros(6), 0.0, math.log(0.1))
        path = tmp_path / "m.json"
        save_model(model, str(path))
        save_model(model, str(path))  # overwrite in place
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert load_model(str(path)).inputs.shape == (8, 6)
