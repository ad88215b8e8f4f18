"""Tests for the GP inverse-model regressor.

Oracles: the kernel is checked against an elementwise loop, gradients
against central finite differences, and predictions against a dense
np.linalg.solve of the full noisy kernel system built independently of
the model's Cholesky cache.
"""

import concurrent.futures
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from conftest import blas_thread_counts

from tracksim import gp
from tracksim.control import Gains
from tracksim.gp import (
    ConditioningError,
    Dataset,
    FitConfig,
    GpModel,
    _chol_with_jitter,
    _output_model,
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
from tracksim.sim import extract_dataset, make_figure8, rollout, split_dataset


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
    outputs = [_output_model(theta, xs, z[:, j]) for j in range(m)]
    return GpModel(w, z, input_mean, input_std, np.zeros(m), np.ones(m), outputs, {})


def standardized_inputs(model):
    return (model.inputs - model.input_mean) / model.input_std


class TestKernel:
    def test_identical_single_inputs_give_signal_variance(self):
        theta = hyperparameters(np.zeros(3), math.log(1.7))
        k = kernel_matrix(theta, np.array([[0.2, -1.0, 4.0]]), np.array([[0.2, -1.0, 4.0]]))
        assert k.shape == (1, 1)
        assert abs(k[0, 0] - 1.7) < 1e-12

    def test_one_lengthscale_separation_decays_by_exp_half(self):
        log_ls = np.log(np.array([0.4, 2.0]))
        theta = hyperparameters(log_ls, math.log(3.0))
        a = np.array([[1.0, 5.0]])
        b = np.array([[1.4, 5.0]])  # exactly one lengthscale apart in dim 0
        k = kernel_matrix(theta, a, b)
        assert abs(k[0, 0] - 3.0 * math.exp(-0.5)) < 1e-12

    def test_matches_elementwise_oracle_on_random_inputs(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(5, 6))
        log_ls = rng.normal(0.0, 0.4, size=6)
        expected = kernel_oracle(log_ls, 0.3, a, b)
        assert np.allclose(kernel_matrix(hyperparameters(log_ls, 0.3), a, b), expected, atol=1e-12)

    def test_gram_matrix_is_symmetric_psd(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(20, 6))
        k = kernel_matrix(hyperparameters(rng.normal(size=6) * 0.2, 0.1), x, x)
        assert np.allclose(k, k.T, atol=1e-14)
        assert np.linalg.eigvalsh(k).min() > -1e-9

    def test_rejects_wrong_input_width(self):
        with pytest.raises(ValueError, match="columns"):
            kernel_matrix(hyperparameters(np.zeros(6), 0.0), np.zeros((3, 4)), np.zeros((2, 6)))

    def test_rejects_non_finite_hyperparameters(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kernel_matrix(hyperparameters(np.array([0.0, np.nan]), 0.0), x, x)
        with pytest.raises(ValueError):
            kernel_matrix(hyperparameters(np.zeros(2), math.inf), x, x)


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
    @pytest.mark.parametrize("n, escalate", [(12, False), (25, False), (40, True)])
    def test_value_and_gradient_match_a_dense_reference(self, n, escalate, monkeypatch):
        rng = np.random.default_rng(200 + n)
        w, z = make_problem(rng, n)
        theta = np.concatenate([rng.normal(0.0, 0.3, size=6), [0.3], [math.log(0.02)]])
        rel = gp.JITTER_REL_INIT
        if escalate:
            # the first factorization writes its buffer and then reports
            # failure, so the retry must copy the matrix again
            potrf, calls = scipy.linalg.lapack.dpotrf, []

            def failing_once(*args, **kwargs):
                calls.append(1)
                c, info = potrf(*args, **kwargs)
                return c, 1 if len(calls) == 1 else info

            monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", failing_once)
            rel *= 10.0
        value, grad = nll_and_grad(theta, w, z[:, 0])
        expected, expected_grad = dense_nll_and_grad(theta, w, z[:, 0], rel)
        assert abs(value - expected) < 1e-10 * abs(expected)
        assert np.max(np.abs(grad - expected_grad)) < 1e-8 * np.max(np.abs(expected_grad))
        assert not escalate or len(calls) == 2

    def test_arguments_unchanged(self):
        rng = np.random.default_rng(210)
        w, z = make_problem(rng, 30)
        y = z[:, 1]
        before = w.copy(), y.copy()
        nll_and_grad(np.concatenate([np.zeros(6), [0.0], [math.log(0.1)]]), w, y)
        assert np.array_equal(w, before[0]) and np.array_equal(y, before[1])

    def test_inverse_fallback_gives_the_same_value_and_gradient(self, monkeypatch):
        rng = np.random.default_rng(211)
        w, z = make_problem(rng, 40)
        theta = np.concatenate([rng.normal(0.0, 0.3, size=6), [0.1], [math.log(0.05)]])
        value, grad = nll_and_grad(theta, w, z[:, 0])
        monkeypatch.setattr(scipy.linalg.lapack, "dpotri", lambda c, lower, overwrite_c: (c, 1))
        value_fb, grad_fb = nll_and_grad(theta, w, z[:, 0])
        assert abs(value_fb - value) < 1e-10 * abs(value)
        assert np.max(np.abs(grad_fb - grad)) < 1e-10 * np.max(np.abs(grad))

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


class TestCholeskyJitter:
    def test_well_conditioned_matrix_uses_base_jitter(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8))
        spd = a @ a.T + 8 * np.eye(8)
        l, jitter = _chol_with_jitter(spd, 0.0)
        assert np.allclose(l @ l.T, spd + jitter * np.eye(8), atol=1e-9)
        assert jitter <= 2e-10 * np.trace(spd) / 8

    def test_escalates_until_factorization_succeeds(self):
        nearly = np.ones((3, 3))
        nearly[0, 0] -= 1e-8  # smallest eigenvalue just below zero
        l, jitter = _chol_with_jitter(nearly, 0.0)
        assert np.all(np.isfinite(l))
        assert jitter >= 1e-9  # base level was not enough

    def test_raises_on_indefinite_matrix(self):
        with pytest.raises(ConditioningError, match="jitter"):
            _chol_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.0)

    def test_argument_unchanged_after_escalation_or_failure(self):
        nearly = np.ones((3, 3))
        nearly[0, 0] -= 1e-8
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        for matrix in (nearly, indefinite):
            before = matrix.copy()
            try:
                _, jitter = _chol_with_jitter(matrix, 1e-12)
                assert jitter >= 1e-9  # base level was not enough
            except ConditioningError:
                pass
            assert np.array_equal(matrix, before)


class TestPrediction:
    def test_mean_and_variance_match_dense_solve(self):
        rng = np.random.default_rng(21)
        w, z = make_problem(rng, 30)
        log_ls = rng.normal(0.0, 0.2, size=6)
        model = manual_model(w, z, log_ls, 0.15, math.log(0.02))
        queries = rng.normal(size=(7, 6))
        mean, var = predict(model, queries)
        for j in range(2):
            out = model.outputs[j]
            k = kernel_oracle(log_ls, 0.15, w, w)
            ky = k + (math.exp(out.theta[7]) + out.jitter) * np.eye(30)
            ks = kernel_oracle(log_ls, 0.15, queries, w)
            mean_o = ks @ np.linalg.solve(ky, z[:, j])
            var_o = (
                math.exp(out.theta[6])
                + math.exp(out.theta[7])
                - np.einsum("ij,ij->i", ks, np.linalg.solve(ky, ks.T).T)
            )
            assert np.allclose(mean[:, j], mean_o, atol=1e-10)
            assert np.allclose(var[:, j], var_o, atol=1e-10)

    def test_single_query_equals_batch_row(self):
        rng = np.random.default_rng(22)
        w, z = make_problem(rng, 12)
        model = manual_model(w, z, np.zeros(6), 0.0, math.log(0.05))
        m1, v1 = predict(model, w[3])
        m2, v2 = predict(model, w[3:4])
        assert m1.shape == (2,) and v1.shape == (2,)
        assert np.array_equal(m1, m2[0])
        assert np.array_equal(v1, v2[0])

    def test_mean_only_query_gives_the_same_means(self):
        rng = np.random.default_rng(27)
        w, z = make_problem(rng, 25)
        model = manual_model(w, z, rng.normal(0.0, 0.2, size=6), 0.1, math.log(0.03))
        queries = rng.normal(size=(6, 6))
        for q in (queries[2], queries):
            mean, var = predict(model, q)
            mean_only, none = predict(model, q, variance=False)
            assert none is None and var is not None
            assert mean_only.shape == mean.shape
            assert np.array_equal(mean_only, mean)

    def test_near_zero_noise_interpolates_training_targets(self):
        rng = np.random.default_rng(23)
        w = rng.uniform(-1.0, 1.0, size=(20, 2))
        z = np.column_stack([np.sin(w[:, 0]), np.cos(w[:, 1])])
        model = manual_model(w, z, np.zeros(2), 0.0, math.log(1e-10))
        mean, var = predict(model, w)
        assert np.max(np.abs(mean - z)) < 1e-6
        assert np.all(var >= 0.0)

    def test_far_query_reverts_to_prior(self):
        rng = np.random.default_rng(24)
        w, z = make_problem(rng, 15)
        model = manual_model(w, z, np.zeros(6), 0.3, math.log(0.01))
        mean, var = predict(model, np.full(6, 1e6))
        # prior mean is zero under identity standardization
        assert np.max(np.abs(mean)) < 1e-12
        prior_var = math.exp(0.3) + 0.01
        assert np.allclose(var, prior_var, atol=1e-12)

    def test_variance_never_negative(self):
        rng = np.random.default_rng(25)
        w = np.vstack([rng.normal(size=(10, 6))] * 3)  # duplicated rows
        z = np.vstack([rng.normal(size=(10, 2))] * 3)
        model = manual_model(w, z, np.zeros(6), 0.0, math.log(1e-9))
        _, var = predict(model, w)
        assert np.all(var >= 0.0)

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
        """predict written against kernel_matrix, with nothing cached but
        the factor and weights."""
        ws = (np.atleast_2d(w) - model.input_mean) / model.input_std
        xs = standardized_inputs(model)
        d = xs.shape[1]
        means, variances = [], []
        for j, out in enumerate(model.outputs):
            ks = kernel_matrix(out.theta, ws, xs)
            means.append((ks @ out.alpha) * model.target_std[j] + model.target_mean[j])
            v = scipy.linalg.solve_triangular(out.chol, ks.T, lower=True)
            latent = np.maximum(math.exp(out.theta[d]) - np.sum(v**2, axis=0), 0.0)
            variances.append((latent + math.exp(out.theta[d + 1])) * model.target_std[j] ** 2)
        return np.column_stack(means), np.column_stack(variances)

    def test_same_bits_as_the_uncached_kernel(self):
        rng = np.random.default_rng(28)
        w, z = make_problem(rng, 40)
        model = manual_model(w, z, rng.normal(0.0, 0.3, size=6), 0.2, math.log(0.02),
                             input_mean=w.mean(axis=0), input_std=w.std(axis=0))
        queries = rng.normal(size=(9, 6))
        mean, var = predict(model, queries)
        mean_o, var_o = self.uncached_predict(model, queries)
        assert np.array_equal(mean, mean_o) and np.array_equal(var, var_o)
        for q in queries:
            m1, v1 = predict(model, q)
            mean_only, _ = predict(model, q, variance=False)
            m_q, v_q = self.uncached_predict(model, q)
            assert np.array_equal(m1, m_q[0]) and np.array_equal(v1, v_q[0])
            assert np.array_equal(mean_only, m_q[0])

    def test_fit_and_load_fill_the_caches(self):
        rng = np.random.default_rng(29)
        w, z = make_problem(rng, 20)
        fitted = fit(w, z, FitConfig(max_iter=15, restarts=0))
        loaded = model_from_dict(json.loads(json.dumps(model_to_dict(fitted))))
        for model in (fitted, loaded):
            xs = standardized_inputs(model)
            for out in model.outputs:
                scaled = xs / np.exp(out.theta[:6])
                assert np.array_equal(out.scaled_inputs, scaled)
                assert np.array_equal(out.scaled_sq_norms, np.sum(scaled**2, axis=1))

    def test_factor_is_of_the_kernel_matrix_plus_noise_and_jitter(self):
        # the factor helper adds the noise variance and the jitter to a copy
        # of K, for a fitted model and for the same model loaded back
        rng = np.random.default_rng(30)
        w, z = make_problem(rng, 25)
        fitted = fit(w, z, FitConfig(max_iter=15, restarts=0))
        loaded = model_from_dict(json.loads(json.dumps(model_to_dict(fitted))))
        for model in (fitted, loaded):
            xs = standardized_inputs(model)
            for out in model.outputs:
                k = kernel_matrix(out.theta, xs, xs)
                expected = k + (math.exp(out.theta[7]) + out.jitter) * np.eye(25)
                error = np.max(np.abs(out.chol @ out.chol.T - expected))
                assert error <= 1e-12 * np.max(np.abs(expected)), error


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
        assert np.array_equal(predict(m1, q)[0], predict(m2, q)[0])

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
        mean, var = predict(model, w[:3])
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))

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
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 6)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.full((3, 6), np.nan), np.zeros((3, 2)))


class TestBlasThreads:
    def test_fit_runs_on_one_thread_and_restores_the_count(self, two_blas_threads, monkeypatch):
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

    def test_thread_count_restored_when_fit_raises(self, two_blas_threads, monkeypatch):
        def failing(*args):
            raise ConditioningError("every optimizer start ended non-finite")

        monkeypatch.setattr(gp, "_run_start", failing)
        rng = np.random.default_rng(37)
        w, z = make_problem(rng, 10)
        with pytest.raises(ConditioningError):
            fit(w, z, FitConfig(max_iter=10, restarts=0))
        assert blas_thread_counts() == two_blas_threads

    def test_refresh_caches_runs_on_one_thread(self, two_blas_threads, monkeypatch):
        # loading builds every output model's caches on one thread
        rng = np.random.default_rng(38)
        w, z = make_problem(rng, 10)
        payload = model_to_dict(manual_model(w, z, np.zeros(6), 0.0, math.log(0.1)))
        seen = []
        chol = gp._chol_with_jitter

        def recording(k, noise_var):
            seen.append(blas_thread_counts())
            return chol(k, noise_var)

        monkeypatch.setattr(gp, "_chol_with_jitter", recording)
        model_from_dict(payload)
        assert seen == [[1] * len(two_blas_threads)] * 2
        assert blas_thread_counts() == two_blas_threads

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
    """Fit every problem size in this process."""
    monkeypatch.setattr(gp, "_PARALLEL_MIN_N", 10**9)


def force_pool(monkeypatch, tmp_path):
    """Fit every problem size in forked workers, as on a two-CPU machine
    with no CPU quota."""
    monkeypatch.setattr(gp, "_PARALLEL_MIN_N", 0)
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
gp._PARALLEL_MIN_N = 0
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
# each worker appends to the file named by argv[1] whether it found
# scipy.optimize loaded when it started.
PRELOAD_PROBE = """
import json, os, sys
import numpy as np
from tracksim import gp

init = gp._init_worker

def recording(*args):
    with open(sys.argv[1], "a") as fh:
        fh.write(json.dumps("scipy.optimize" in sys.modules) + "\\n")
    init(*args)

gp._init_worker = recording
gp._PARALLEL_MIN_N = 0
gp._CPU_MAX = os.devnull
os.sched_getaffinity = lambda pid: {0, 1}
rng = np.random.default_rng(70)
w = rng.normal(0.0, 1.0, size=(20, 6))
z = np.column_stack([np.sin(w[:, 0]), np.cos(w[:, 1])])
gp.fit(w, z, gp.FitConfig(max_iter=10, restarts=1))
"""


def run_probe(probe, *args):
    """Run a probe script in a fresh interpreter that imports this tracksim."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gp.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", probe, *args], env=dict(os.environ, PYTHONPATH=path),
        check=True, capture_output=True, text=True,
    )


class TestParallelFit:
    def test_pool_gives_the_serial_model_bytes(self, monkeypatch, tmp_path):
        # at this size the fit's last bits changed when the workers got the
        # training arrays through pickle instead of inheriting them
        rng = np.random.default_rng(61)
        w, z = make_problem(rng, 30)
        config = FitConfig(max_iter=40, restarts=2, seed=6)
        monkeypatch.setattr(gp, "_PARALLEL_MIN_N", 10**9)
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

        monkeypatch.setattr(gp, "_PARALLEL_MIN_N", 0)
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

    def test_workers_start_with_scipy_optimize_loaded(self, tmp_path):
        # the parent loads it before forking, so no worker imports it again
        log = tmp_path / "preloaded.jsonl"
        run_probe(PRELOAD_PROBE, str(log))
        assert [json.loads(line) for line in log.read_text().splitlines()] == [True, True]


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

    def test_jitter_is_the_base_level_of_the_fitted_matrix(self):
        rng = np.random.default_rng(67)
        w, z = make_problem(rng, 20)
        model = fit(w, z, FitConfig(max_iter=30, restarts=0, seed=2))
        for info, out in zip(model.report["outputs"], model.outputs):
            mean_diag = math.exp(out.theta[6]) + math.exp(out.theta[7])
            assert info["jitter"] == out.jitter
            assert math.isclose(out.jitter, gp.JITTER_REL_INIT * mean_diag, rel_tol=1e-12)


class TestHeldOutError:
    def test_mean_is_average_of_per_point_norms(self):
        rng = np.random.default_rng(41)
        w, z = make_problem(rng, 20)
        model = manual_model(w, z, np.zeros(6), 0.0, math.log(0.05))
        errors, mean_err = held_out_error(model, w[:8], z[:8] + 0.1)
        assert errors.shape == (8,)
        assert abs(mean_err - errors.mean()) < 1e-15
        mean, _ = predict(model, w[:8])
        expected = np.linalg.norm(mean - (z[:8] + 0.1), axis=1)
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
        m1, v1 = predict(model, q)
        m2, v2 = predict(loaded, q)
        assert np.max(np.abs(m1 - m2)) < 1e-12
        assert np.max(np.abs(v1 - v2)) < 1e-12
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
