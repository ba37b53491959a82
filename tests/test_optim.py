import json
import math
import re
import tracemalloc
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from novobench.harness import Checkpoint, checkpoint_from_dict, checkpoint_to_dict
from novobench.optim import (
    ALGORITHMS,
    AdamConfig,
    AdamState,
    NovoGradConfig,
    NovoGradState,
    OptimizerDriver,
    SgdMomentumConfig,
    SgdMomentumState,
    SngdConfig,
    SngdState,
    adam_step,
    adamw_step,
    make_config,
    novograd_step,
    sgd_momentum_step,
    sngd_step,
    state_from_dict,
    state_to_dict,
)
from novobench.optim import _bind
from novobench.params import ModelParams, ParameterLayer, l2_norm_sq


def single_layer(weights, grad):
    return ModelParams([ParameterLayer("w", np.array(weights, dtype=float), np.array(grad, dtype=float))])


def layers_of(state, cfg=NovoGradConfig()) -> dict:
    """Layer id -> the per-layer values of ``state``, read through its document
    (whose algorithm is only a label here; ``cfg`` tells whether a NovoGrad entry
    holds ``v_hat``)."""
    return {entry.pop("id"): entry for entry in state_to_dict("novograd", cfg, state)["layers"]}


def novograd_state(cfg, step_count, layers):
    """A NovoGrad state restored from a document with these layer entries."""
    doc = {"format_version": 1, "algorithm": "novograd", "config": asdict(cfg), "step_count": step_count, "layers": layers}
    return state_from_dict(doc)[2]


def run_novograd(w0, grads, lrs, cfg):
    """Drive the implementation over a gradient stream; returns weight snapshots."""
    params = single_layer(w0, grads[0])
    state = NovoGradState()
    snapshots = []
    for g, lr in zip(grads, lrs):
        params.layer("w").grad[...] = g
        novograd_step(params, state, cfg, lr)
        snapshots.append(params.layer("w").weights.copy())
    return snapshots, state


class TestNovoGradInit:
    def test_hand_checked_trace(self):
        params = single_layer([1.0, 1.0], [3.0, 4.0])
        cfg = NovoGradConfig(beta1=0.9, beta2=0.25, epsilon=0.0)
        state = NovoGradState()
        novograd_step(params, state, cfg, lr_t=0.1)
        assert layers_of(state)["w"]["v"] == 25.0
        np.testing.assert_allclose(layers_of(state)["w"]["m"], [0.6, 0.8], rtol=0, atol=1e-15)
        np.testing.assert_allclose(params.layer("w").weights, [0.94, 0.92], rtol=0, atol=1e-15)
        assert state.step_count == 1

    def test_weight_decay_enters_first_moment(self):
        params = single_layer([1.0, 1.0], [3.0, 4.0])
        state = NovoGradState()
        novograd_step(params, state, NovoGradConfig(weight_decay=0.1), lr_t=0.0)
        np.testing.assert_allclose(layers_of(state)["w"]["m"], [0.7, 0.9], rtol=0, atol=1e-15)

    def test_zero_gradient_layer_deferred(self):
        params = ModelParams(
            [
                ParameterLayer("a", np.array([1.0]), np.array([2.0])),
                ParameterLayer("b", np.array([5.0]), np.array([0.0])),
            ]
        )
        state = NovoGradState()
        novograd_step(params, state, NovoGradConfig(), lr_t=0.1)
        assert list(layers_of(state)) == ["a"]  # b is not initialized
        np.testing.assert_array_equal(params.layer("b").weights, [5.0])

    def test_deferred_layer_initializes_on_first_nonzero_gradient(self):
        params = ModelParams([ParameterLayer("b", np.array([5.0]), np.array([0.0]))])
        cfg = NovoGradConfig(beta1=0.9, beta2=0.25, epsilon=0.0)
        state = NovoGradState()
        novograd_step(params, state, cfg, lr_t=0.1)
        params.layer("b").grad[...] = [2.0]
        novograd_step(params, state, cfg, lr_t=0.1)
        # the late init must follow init semantics, not the EMA recursion
        fresh = ModelParams([ParameterLayer("b", np.array([5.0]), np.array([2.0]))])
        fresh_state = NovoGradState()
        novograd_step(fresh, fresh_state, cfg, lr_t=0.1)
        assert layers_of(state)["b"]["v"] == layers_of(fresh_state)["b"]["v"]
        np.testing.assert_array_equal(params.layer("b").weights, fresh.layer("b").weights)


class TestNovoGradStep:
    def test_hand_checked_trace_second_step(self):
        cfg = NovoGradConfig(beta1=0.9, beta2=0.25, epsilon=0.0)
        snapshots, state = run_novograd([1.0, 1.0], [[3.0, 4.0], [0.0, 5.0]], [0.1, 0.1], cfg)
        assert layers_of(state)["w"]["v"] == 25.0
        np.testing.assert_allclose(layers_of(state)["w"]["m"], [0.54, 1.72], rtol=0, atol=1e-15)
        np.testing.assert_allclose(snapshots[-1], [0.886, 0.748], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("style", ["cumulative", "ema"])
    @pytest.mark.parametrize("placement", ["in_moment", "decoupled_update"])
    @pytest.mark.parametrize("ams", [False, True])
    def test_matches_scalar_oracle(self, style, placement, ams):
        rng = np.random.default_rng(11)
        w0 = rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(6)]
        lrs = [0.05] * 6
        cfg = NovoGradConfig(
            beta1=0.9,
            beta2=0.25,
            weight_decay=0.05,
            epsilon=1e-8,
            first_moment_style=style,
            wd_placement=placement,
            ams=ams,
        )
        snapshots, _ = run_novograd(w0, grads, lrs, cfg)
        expected, _, _ = oracle.novograd_trace(
            w0,
            grads,
            lrs,
            beta1=0.9,
            beta2=0.25,
            d=0.05,
            eps=1e-8,
            style=style,
            placement=placement,
            ams=ams,
        )
        np.testing.assert_allclose(snapshots[-1], expected[-1], rtol=1e-14)

    def test_beta2_zero_matches_sngd(self):
        rng = np.random.default_rng(5)
        cfg = NovoGradConfig(beta1=0.0, beta2=0.0, epsilon=0.0)
        for _ in range(20):
            w = rng.standard_normal(3)
            g = rng.standard_normal(3)
            nov = single_layer(w, g)
            m, v = rng.standard_normal(3).tolist(), float(rng.uniform(0.1, 10))
            state = novograd_state(cfg, 3, [{"id": "w", "m": m, "v": v}])
            novograd_step(nov, state, cfg, 0.2)
            assert state.step_count == 4  # the step continued the document's state
            ref = single_layer(w, g)
            sngd_step(ref, SngdState(), SngdConfig(epsilon=0.0), 0.2)
            np.testing.assert_array_equal(nov.layer("w").weights, ref.layer("w").weights)

    def test_ams_uses_running_max(self):
        # norms 5 then 4 with beta2=0: v drops 25 -> 16 but the max holds at 25
        cfg = NovoGradConfig(beta1=0.9, beta2=0.0, epsilon=0.0, ams=True)
        grads = [[5.0], [4.0]]
        snapshots, state = run_novograd([1.0], grads, [0.1, 0.1], cfg)
        assert layers_of(state)["w"]["v"] == 16.0
        assert layers_of(state, cfg)["w"]["v_hat"] == 25.0
        expected, _, _ = oracle.novograd_trace(
            [1.0], grads, [0.1, 0.1], beta1=0.9, beta2=0.0, ams=True
        )
        np.testing.assert_allclose(snapshots[-1], expected[-1], rtol=1e-15)

    def test_ams_v_hat_nondecreasing(self):
        rng = np.random.default_rng(9)
        cfg = NovoGradConfig(ams=True)
        params = single_layer(rng.standard_normal(3), rng.standard_normal(3))
        state = NovoGradState()
        novograd_step(params, state, cfg, 0.01)
        prev = layers_of(state, cfg)["w"]["v_hat"]
        for t in range(40):
            scale = 1e3 if t % 2 == 0 else 1e-3
            params.layer("w").grad[...] = scale * rng.standard_normal(3)
            novograd_step(params, state, cfg, 0.01)
            assert layers_of(state, cfg)["w"]["v_hat"] >= prev
            prev = layers_of(state, cfg)["w"]["v_hat"]

    @pytest.mark.parametrize(
        "variant",
        [
            {"first_moment_style": "cumulative", "wd_placement": "in_moment"},
            {"first_moment_style": "cumulative", "wd_placement": "decoupled_update"},
            {"first_moment_style": "ema", "wd_placement": "in_moment"},
            {"first_moment_style": "ema", "wd_placement": "decoupled_update"},
        ],
    )
    @pytest.mark.parametrize("c", [2.0**-10, 2.0**10])
    def test_gradient_scale_invariance_bitwise(self, variant, c):
        rng = np.random.default_rng(13)
        w0 = rng.standard_normal(5)
        grads = [rng.standard_normal(5) for _ in range(25)]
        lrs = [0.03] * 25
        cfg = NovoGradConfig(weight_decay=0.02, epsilon=0.0, **variant)
        base, _ = run_novograd(w0, grads, lrs, cfg)
        scaled, _ = run_novograd(w0, [c * g for g in grads], lrs, cfg)
        for a, b in zip(base, scaled):
            np.testing.assert_array_equal(a, b)

    def test_zero_gradient_with_zero_denominator_is_noop(self):
        cfg = NovoGradConfig(beta1=0.9, beta2=0.0, epsilon=0.0)
        params = single_layer([1.0], [2.0])
        state = NovoGradState()
        novograd_step(params, state, cfg, 0.0)
        params.layer("w").grad[...] = 0.0
        w_before = params.layer("w").weights.copy()
        novograd_step(params, state, cfg, 0.1)
        # beta2=0 zero grad drives v to 0; the guard keeps the update finite
        assert np.isfinite(params.layer("w").weights).all()
        np.testing.assert_allclose(
            params.layer("w").weights, w_before - 0.1 * 0.9 * np.asarray(layers_of(state)["w"]["m"]) / 0.9
        )

    def test_negative_lr_rejected(self):
        params = single_layer([1.0], [1.0])
        state = NovoGradState()
        novograd_step(params, state, NovoGradConfig(), 0.1)
        with pytest.raises(ValueError, match="negative learning rate"):
            novograd_step(params, state, NovoGradConfig(), -0.1)

    def test_non_finite_gradient_names_layer(self):
        params = ModelParams(
            [
                ParameterLayer("ok", np.array([1.0]), np.array([1.0])),
                ParameterLayer("bad", np.array([1.0]), np.array([np.nan])),
            ]
        )
        state = NovoGradState()
        with pytest.raises(ValueError, match="non-finite gradient in layer 'bad'"):
            novograd_step(params, state, NovoGradConfig(), 0.1)

    def test_state_finite_with_positive_epsilon(self):
        rng = np.random.default_rng(17)
        cfg = NovoGradConfig(epsilon=1e-8, weight_decay=0.01)
        params = single_layer(rng.standard_normal(3), rng.standard_normal(3))
        state = NovoGradState()
        novograd_step(params, state, cfg, 0.01)
        for t in range(60):
            magnitude = 10.0 ** rng.uniform(-100, 100)
            params.layer("w").grad[...] = magnitude * rng.standard_normal(3)
            novograd_step(params, state, cfg, 0.01)
            assert np.isfinite(params.layer("w").weights).all()
            layer = layers_of(state)["w"]
            assert np.isfinite(layer["m"]).all()
            assert math.isfinite(layer["v"]) and layer["v"] >= 0.0


class TestAdam:
    def test_cold_start_without_bias_correction(self):
        params = single_layer([0.0], [1.0])
        cfg = AdamConfig(beta1=0.9, beta2=0.999, epsilon=0.0, bias_correction=False)
        state = AdamState()
        adam_step(params, state, cfg, 0.1)
        expected = -0.1 * 0.1 / math.sqrt(0.001)
        np.testing.assert_allclose(params.layer("w").weights, [expected], rtol=1e-12)
        assert abs(expected + 0.3162) < 1e-4

    def test_cold_start_with_bias_correction(self):
        params = single_layer([0.0], [1.0])
        cfg = AdamConfig(beta1=0.9, beta2=0.999, epsilon=0.0, bias_correction=True)
        adam_step(params, AdamState(), cfg, 0.1)
        np.testing.assert_allclose(params.layer("w").weights, [-0.1], rtol=0, atol=1e-15)

    def test_zero_gradient_never_moves(self):
        params = single_layer([2.0], [0.0])
        cfg = AdamConfig()
        state = AdamState()
        for _ in range(10):
            adam_step(params, state, cfg, 0.1)
        np.testing.assert_array_equal(params.layer("w").weights, [2.0])

    def test_matches_scalar_oracle_coupled_decay(self):
        rng = np.random.default_rng(23)
        w0 = rng.standard_normal(3)
        grads = [rng.standard_normal(3) for _ in range(7)]
        lrs = [0.02] * 7
        cfg = AdamConfig(weight_decay=0.05)
        params = single_layer(w0, grads[0])
        state = AdamState()
        for g, lr in zip(grads, lrs):
            params.layer("w").grad[...] = g
            adam_step(params, state, cfg, lr)
        expected = oracle.adam_trace(w0, grads, lrs, 0.9, 0.999, 1e-8, d=0.05)
        np.testing.assert_allclose(params.layer("w").weights, expected[-1], rtol=1e-14)

    @pytest.mark.parametrize("algorithm", ["adam", "adamw"])
    def test_zero_epsilon_leaves_zero_gradient_weights(self, algorithm):
        # sqrt(v_hat) is 0 for the first weight, with m_hat 0 (0/0) or, when
        # g*g underflows, nonzero (m_hat/0): neither may become NaN or -inf
        # (or a RuntimeWarning)
        for g0 in (0.0, 1e-200):
            params = single_layer([1.0, 2.0], [g0, 1.0])
            OptimizerDriver(algorithm, AdamConfig(epsilon=0.0)).step(params, 0.1)
            m_hat = (1.0 - 0.9) * 1.0 / (1.0 - 0.9)
            v_hat = (1.0 - 0.999) * 1.0 / (1.0 - 0.999)
            np.testing.assert_array_equal(params.weights, [1.0, 2.0 - 0.1 * (m_hat / math.sqrt(v_hat))])


class TestAdamW:
    def test_identical_to_adam_at_zero_decay(self):
        rng = np.random.default_rng(29)
        w0 = rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(9)]
        a = single_layer(w0, grads[0])
        b = single_layer(w0, grads[0])
        sa, sb = AdamState(), AdamState()
        cfg = AdamConfig(weight_decay=0.0)
        for g in grads:
            a.layer("w").grad[...] = g
            b.layer("w").grad[...] = g
            adam_step(a, sa, cfg, 0.01)
            adamw_step(b, sb, cfg, 0.01)
            np.testing.assert_array_equal(a.layer("w").weights, b.layer("w").weights)

    def test_pure_decay_step(self):
        params = single_layer([1.0], [0.0])
        cfg = AdamConfig(weight_decay=0.1)
        adamw_step(params, AdamState(), cfg, 0.1)
        np.testing.assert_allclose(params.layer("w").weights, [0.99], rtol=0, atol=1e-15)

    def test_equals_adam_step_plus_decay_term(self):
        rng = np.random.default_rng(31)
        w0 = rng.standard_normal(3)
        g = rng.standard_normal(3)
        cfg = AdamConfig(weight_decay=0.07)
        plain_cfg = AdamConfig(weight_decay=0.0)
        a = single_layer(w0, g)
        b = single_layer(w0, g)
        adamw_step(a, AdamState(), cfg, 0.1)
        adam_step(b, AdamState(), plain_cfg, 0.1)
        manual = b.layer("w").weights - 0.1 * 0.07 * w0
        # same identity, different association order: equal to float precision
        np.testing.assert_allclose(a.layer("w").weights, manual, rtol=0, atol=1e-15)


class TestSgdMomentum:
    def test_momentum_off_is_plain_sgd(self):
        params = single_layer([1.0, 2.0], [0.5, -0.5])
        cfg = SgdMomentumConfig(momentum=0.0)
        sgd_momentum_step(params, SgdMomentumState(), cfg, 0.1)
        np.testing.assert_allclose(params.layer("w").weights, [0.95, 2.05], rtol=0, atol=1e-15)

    def test_geometric_momentum_recursion(self):
        params = single_layer([0.0], [1.0])
        cfg = SgdMomentumConfig(momentum=0.9)
        state = SgdMomentumState()
        seen = []
        for _ in range(3):
            sgd_momentum_step(params, state, cfg, 1.0)
            seen.append(layers_of(state)["w"]["m"][0])
        np.testing.assert_allclose(seen, [1.0, 1.9, 2.71], rtol=1e-12)
        _, ms = oracle.sgd_momentum_trace([0.0], [[1.0]] * 3, [1.0] * 3, 0.9)
        np.testing.assert_allclose(seen, [m[0] for m in ms], rtol=0)

    def test_zero_gradient_zero_momentum_is_noop(self):
        params = single_layer([3.0], [0.0])
        sgd_momentum_step(params, SgdMomentumState(), SgdMomentumConfig(), 0.1)
        np.testing.assert_array_equal(params.layer("w").weights, [3.0])

    def test_weight_decay_matches_oracle(self):
        rng = np.random.default_rng(37)
        w0 = rng.standard_normal(3)
        grads = [rng.standard_normal(3) for _ in range(5)]
        params = single_layer(w0, grads[0])
        state = SgdMomentumState()
        cfg = SgdMomentumConfig(momentum=0.9, weight_decay=0.02)
        for g in grads:
            params.layer("w").grad[...] = g
            sgd_momentum_step(params, state, cfg, 0.05)
        expected, _ = oracle.sgd_momentum_trace(w0, grads, [0.05] * 5, 0.9, d=0.02)
        np.testing.assert_allclose(params.layer("w").weights, expected[-1], rtol=1e-14)


class TestSngd:
    def test_unit_direction_step(self):
        params = single_layer([0.0, 0.0], [3.0, 4.0])
        sngd_step(params, SngdState(), SngdConfig(epsilon=0.0), 0.5)
        np.testing.assert_allclose(params.layer("w").weights, [-0.3, -0.4], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("c", [2.0**-8, 2.0, 2.0**9])
    def test_direction_only_scale_free(self, c):
        base = single_layer([1.0, 1.0], [3.0, 4.0])
        scaled = single_layer([1.0, 1.0], [c * 3.0, c * 4.0])
        sngd_step(base, SngdState(), SngdConfig(epsilon=0.0), 0.5)
        sngd_step(scaled, SngdState(), SngdConfig(epsilon=0.0), 0.5)
        np.testing.assert_array_equal(base.layer("w").weights, scaled.layer("w").weights)

    def test_zero_gradient_noop(self):
        params = single_layer([1.0, 2.0], [0.0, 0.0])
        sngd_step(params, SngdState(), SngdConfig(), 0.5)
        np.testing.assert_array_equal(params.layer("w").weights, [1.0, 2.0])


def _frozen_driver_step(algorithm, cfg, lr, zero_weights):
    rng = np.random.default_rng(41)
    params = ModelParams(
        [
            ParameterLayer("a", np.zeros(3) if zero_weights else rng.standard_normal(3)),
            ParameterLayer("b", np.zeros(2) if zero_weights else rng.standard_normal(2)),
        ]
    )
    for layer in params:
        layer.grad[...] = rng.standard_normal(layer.size)
    driver = OptimizerDriver(algorithm, cfg)
    driver.step(params, 0.05)  # warm the state so the doubled step sees it frozen
    rng2 = np.random.default_rng(43)
    for layer in params:
        layer.grad[...] = rng2.standard_normal(layer.size)
        if zero_weights:
            layer.weights[...] = 0.0  # delta then equals the update term exactly
    before = {layer.id: layer.weights.copy() for layer in params}
    driver.step(params, lr)
    return {layer.id: params.layer(layer.id).weights - before[layer.id] for layer in params}


@pytest.mark.parametrize(
    "algorithm,cfg",
    [
        ("novograd", NovoGradConfig(weight_decay=0.03)),
        ("adam", AdamConfig(weight_decay=0.03)),
        ("adamw", AdamConfig(weight_decay=0.03)),
        ("sgd", SgdMomentumConfig(weight_decay=0.03)),
        ("sngd", SngdConfig()),
    ],
)
def test_update_linearity_in_lr(algorithm, cfg):
    # from w == 0 the delta IS the update term, so doubling is bit-exact
    delta1 = _frozen_driver_step(algorithm, cfg, 0.05, zero_weights=True)
    delta2 = _frozen_driver_step(algorithm, cfg, 0.1, zero_weights=True)
    for layer_id in delta1:
        np.testing.assert_array_equal(2.0 * delta1[layer_id], delta2[layer_id])
    # from random weights the reconstruction w_after - w_before adds one
    # rounding, so the doubled step matches to float precision
    delta1 = _frozen_driver_step(algorithm, cfg, 0.05, zero_weights=False)
    delta2 = _frozen_driver_step(algorithm, cfg, 0.1, zero_weights=False)
    for layer_id in delta1:
        np.testing.assert_allclose(2.0 * delta1[layer_id], delta2[layer_id], rtol=1e-12)


@pytest.mark.parametrize("algorithm", ["novograd", "adam", "sgd", "sngd"])
def test_layer_order_independence(algorithm):
    rng = np.random.default_rng(47)
    layers = [
        ParameterLayer("a", rng.standard_normal(3), rng.standard_normal(3)),
        ParameterLayer("b", rng.standard_normal(5), rng.standard_normal(5)),
    ]
    forward = ModelParams([layer.copy() for layer in layers])
    backward = ModelParams([layer.copy() for layer in reversed(layers)])
    d1 = OptimizerDriver(algorithm)
    d2 = OptimizerDriver(algorithm)
    for _ in range(4):
        d1.step(forward, 0.05)
        d2.step(backward, 0.05)
        for layer in layers:
            g = rng.standard_normal(layer.size)
            forward.layer(layer.id).grad[...] = g
            backward.layer(layer.id).grad[...] = g
    for layer in layers:
        np.testing.assert_array_equal(
            forward.layer(layer.id).weights, backward.layer(layer.id).weights
        )


# State documents written by the first v1 release (adam/adamw still carry the
# `decoupled` flag, and every stateful config an unread learning rate, `lr0` or
# `lr`), over two layers: a (2 elements) and b (1 element).
_V1_DOCUMENTS = {
    "novograd": (
        '{"format_version": 1, "algorithm": "novograd", "config": {"lr0": 0.01, "beta1": 0.95, '
        '"beta2": 0.25, "weight_decay": 0.0, "epsilon": 1e-08, "first_moment_style": "cumulative", '
        '"wd_placement": "in_moment", "ams": false}, "step_count": 2, "layers": [{"id": "a", '
        '"m": [0.6300485844577803, -0.4393144939842794], "v": 1.484375}, {"id": "b", '
        '"m": [-0.20170519788184915], "v": 12.0625}]}'
    ),
    "adam": (
        '{"format_version": 1, "algorithm": "adam", "config": {"lr": 0.001, "beta1": 0.9, '
        '"beta2": 0.999, "epsilon": 1e-08, "weight_decay": 0.0, "bias_correction": true, '
        '"decoupled": false}, "step_count": 2, "layers": [{"id": "a", "m": [0.11499999999999998, '
        '-0.12999999999999998], "v": [0.001061500000000001, 0.004246000000000004]}, {"id": "b", '
        '"m": [-0.3549999999999999], "v": [0.016249750000000014]}]}'
    ),
    "adamw": (
        '{"format_version": 1, "algorithm": "adamw", "config": {"lr": 0.001, "beta1": 0.9, '
        '"beta2": 0.999, "epsilon": 1e-08, "weight_decay": 0.0, "bias_correction": true, '
        '"decoupled": true}, "step_count": 2, "layers": [{"id": "a", "m": [0.11499999999999998, '
        '-0.12999999999999998], "v": [0.001061500000000001, 0.004246000000000004]}, {"id": "b", '
        '"m": [-0.3549999999999999], "v": [0.016249750000000014]}]}'
    ),
    "sgd": (
        '{"format_version": 1, "algorithm": "sgd", "config": {"lr": 0.1, "momentum": 0.9, '
        '"weight_decay": 0.0}, "step_count": 2, "layers": [{"id": "a", "m": [1.15, -1.3]}, '
        '{"id": "b", "m": [-3.55]}]}'
    ),
    "sngd": (
        '{"format_version": 1, "algorithm": "sngd", "config": {"epsilon": 1e-08}, "step_count": 0, '
        '"layers": []}'
    ),
    "novograd-ams-deferred-layer": (
        '{"format_version": 1, "algorithm": "novograd", "config": {"lr0": 0.01, "beta1": 0.95, '
        '"beta2": 0.25, "weight_decay": 0.0, "epsilon": 1e-08, "first_moment_style": "cumulative", '
        '"wd_placement": "in_moment", "ams": true}, "step_count": 2, "layers": [{"id": "b", '
        '"m": [1.4499999975], "v": 1.75, "v_hat": 4.0}]}'
    ),
    "novograd-ams-no-layers": (
        '{"format_version": 1, "algorithm": "novograd", "config": {"lr0": 0.01, "beta1": 0.95, '
        '"beta2": 0.25, "weight_decay": 0.0, "epsilon": 1e-08, "first_moment_style": "cumulative", '
        '"wd_placement": "in_moment", "ams": true}, "step_count": 1, "layers": []}'
    ),
    # written by the per-layer-dict state that preceded the flat moment buffers:
    # see test_deferred_init_document_lists_layers_in_init_order
    "novograd-ams-deferred-init": (
        '{"format_version": 1, "algorithm": "novograd", "config": {"lr0": 0.01, "beta1": 0.95, '
        '"beta2": 0.25, "weight_decay": 0.0, "epsilon": 1e-08, "first_moment_style": "cumulative", '
        '"wd_placement": "in_moment", "ams": true}, "step_count": 2, "layers": [{"id": "b", '
        '"m": [0.6166666677777777], "v": 3.0, "v_hat": 9.0}, {"id": "a", '
        '"m": [0.4472135954999579, 0.8944271909999159], "v": 5.0, "v_hat": 5.0}]}'
    ),
}


def _two_layer_model(dtype=np.float64):
    """The model of the v1 documents: layers a (2 elements) and b (1 element)."""
    return ModelParams([ParameterLayer("a", np.array([0.5, -0.25], dtype)), ParameterLayer("b", np.array([2.0], dtype))])


class TestSerialization:
    @pytest.mark.parametrize("algorithm", ["novograd", "adam", "adamw", "sgd", "sngd"])
    def test_round_trip_continues_bit_exact(self, algorithm):
        rng = np.random.default_rng(53)
        layers = [
            ParameterLayer("a", rng.standard_normal(3)),
            ParameterLayer("b", rng.standard_normal(2)),
        ]
        params = ModelParams([layer.copy() for layer in layers])
        driver = OptimizerDriver(algorithm)
        grads = [[rng.standard_normal(layer.size) for layer in layers] for _ in range(6)]
        for step in range(3):
            for layer, g in zip(params.layers, grads[step]):
                layer.grad[...] = g
            driver.step(params, 0.05)

        import json

        doc = json.loads(json.dumps(driver.state_dict()))
        restored_params = ModelParams([layer.copy() for layer in layers])
        for layer in restored_params:
            layer.weights[...] = params.layer(layer.id).weights
        restored = OptimizerDriver.from_state_dict(doc)

        for step in range(3, 6):
            for layer, g in zip(params.layers, grads[step]):
                layer.grad[...] = g
            for layer, g in zip(restored_params.layers, grads[step]):
                layer.grad[...] = g
            driver.step(params, 0.05)
            restored.step(restored_params, 0.05)
        for layer in layers:
            np.testing.assert_array_equal(
                params.layer(layer.id).weights, restored_params.layer(layer.id).weights
            )

    def test_fresh_state_round_trips_to_the_empty_state(self):
        driver = OptimizerDriver("adam")
        restored = OptimizerDriver.from_state_dict(driver.state_dict())
        assert restored.state == AdamState()
        assert restored.state_dict() == driver.state_dict()

    def test_unsupported_version_rejected(self):
        doc = OptimizerDriver("sgd").state_dict()
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            state_from_dict(doc)

    @pytest.mark.parametrize("name", sorted(_V1_DOCUMENTS))
    def test_v1_documents_reserialize_unchanged(self, name):
        doc = json.loads(_V1_DOCUMENTS[name])
        expected = json.loads(_V1_DOCUMENTS[name])
        expected["config"].pop("decoupled", None)
        expected["config"].pop("lr0" if name.startswith("novograd") else "lr", None)
        restored = OptimizerDriver.from_state_dict(doc)
        assert restored.state_dict() == expected
        assert json.dumps(restored.state_dict()) == json.dumps(expected)
        _bind(restored.state, _two_layer_model())  # bound to a model of its layout, the state serializes unchanged
        assert json.dumps(restored.state_dict()) == json.dumps(expected)

    def test_deferred_init_document_lists_layers_in_init_order(self):
        # b initializes at step 1 and a, its first gradient zero, at step 2:
        # the document lists b first, the order of initialization
        params = _two_layer_model()
        driver = OptimizerDriver("novograd", make_config("novograd", {"ams": True}))
        for g in ([0.0, 0.0, 3.0], [1.0, 2.0, -1.0]):
            params.grad[...] = g
            driver.step(params, 0.1)
        expected = json.loads(_V1_DOCUMENTS["novograd-ams-deferred-init"])
        del expected["config"]["lr0"]
        assert json.dumps(driver.state_dict()) == json.dumps(expected)
        np.testing.assert_array_equal(params.weights, [0.4552786404500042, -0.3394427190999916, 1.8383333332222223])

    def test_v1_ams_state_without_layers_keeps_an_empty_running_max(self):
        restored = OptimizerDriver.from_state_dict(json.loads(_V1_DOCUMENTS["novograd-ams-no-layers"]))
        assert (restored.state.step_count, layers_of(restored.state)) == (1, {})
        params = _two_layer_model()
        params.grad[...] = [3.0, 4.0, 0.0]
        restored.step(params, 0.1)
        assert layers_of(restored.state, restored.cfg) == {"a": {"m": [0.6, 0.8], "v": 25.0, "v_hat": 25.0}}

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=10, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        steps=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_state_dict_round_trip(self, algorithm, sizes, steps, seed):
        rng = np.random.default_rng(seed)
        params = ModelParams([ParameterLayer(f"l{i}", rng.standard_normal(n)) for i, n in enumerate(sizes)])
        hyperparams = {"ams": True} if algorithm == "novograd" and rng.uniform() < 0.5 else {}
        driver = OptimizerDriver(algorithm, make_config(algorithm, hyperparams))
        for _ in range(steps):
            # a zero layer gradient leaves a NovoGrad layer uninitialized
            params.grad[...] = rng.standard_normal(params.grad.size) * (rng.uniform(size=params.grad.size) < 0.7)
            driver.step(params, 0.05)
        doc = json.loads(json.dumps(driver.state_dict()))
        restored = OptimizerDriver.from_state_dict(doc)
        assert restored.algorithm == algorithm and restored.cfg == driver.cfg
        assert restored.state_dict() == doc
        assert restored.second_moments(params) == driver.second_moments(params)

    @pytest.mark.parametrize("algorithm", ["adam", "adamw"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_elementwise_second_moments_are_the_mean_of_v(self, algorithm, dtype):
        sizes = [1, 7, 8, 9, 299, 1000, 4096, 8193]
        rng = np.random.default_rng(3)
        params = ModelParams([ParameterLayer(f"l{n}", rng.standard_normal(n).astype(dtype)) for n in sizes])
        driver = OptimizerDriver(algorithm, make_config(algorithm))
        for _ in range(3):
            params.grad[...] = rng.standard_normal(params.grad.size) * np.exp2(rng.integers(-30, 30, params.grad.size))
            driver.step(params, 0.01)
            moments = driver.second_moments(params)
            assert driver.state.v.dtype == dtype
            for layer_id, layer in layers_of(driver.state).items():
                assert moments[layer_id] == float(np.mean(np.array(layer["v"], dtype)))
            params = params.copy()  # the state moves to a copy at its next step


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_state_moves_to_a_same_layout_copy_bit_exactly(algorithm, dtype):
    rng = np.random.default_rng(67)
    model = ModelParams([ParameterLayer(f"l{i}", rng.standard_normal(n).astype(dtype)) for i, n in enumerate((3, 2, 4))])
    grads = [rng.standard_normal(model.grad.size) for _ in range(8)]
    for g in grads[:5]:
        g[:3] = 0.0  # NovoGrad initializes l0 only after the move
    stay, stay_driver = model, OptimizerDriver(algorithm)
    moved, moved_driver = model.copy(), OptimizerDriver(algorithm)
    for step, g in enumerate(grads):
        if step == 3:
            left = moved
            moved = moved.copy()
        for params, driver in ((stay, stay_driver), (moved, moved_driver)):
            params.grad[...] = g
            driver.step(params, 0.05)
    assert moved.weights.tobytes() == stay.weights.tobytes()
    assert json.dumps(moved_driver.state_dict()) == json.dumps(stay_driver.state_dict())
    assert not np.array_equal(left.weights, moved.weights)  # the first model no longer moves


_MISSING = object()


class TestStateObjects:
    @pytest.mark.parametrize("cls", [NovoGradState, AdamState, SgdMomentumState, SngdState])
    @pytest.mark.parametrize("name", ["m", "v", "v_hat", "step_count"])
    def test_a_state_is_made_empty_and_takes_no_values(self, cls, name):
        with pytest.raises(TypeError):
            cls(**{name: {"w": np.zeros(2)} if name != "step_count" else 3})

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("cls", [NovoGradState, AdamState, SgdMomentumState, SngdState])
    def test_driver_rejects_another_algorithms_state(self, algorithm, cls):
        if cls is type(OptimizerDriver(algorithm).state):
            params = _two_layer_model()
            params.grad[...] = 1.0
            OptimizerDriver(algorithm, state=cls()).step(params, 0.1)
        else:
            with pytest.raises(ValueError, match=r"\bstate\b"):
                OptimizerDriver(algorithm, state=cls())

    @pytest.mark.parametrize(
        "key,value",
        [
            ("algorithm", _MISSING),
            ("algorithm", 3),
            ("algorithm", "lamb"),
            ("config", _MISSING),
            ("config", []),
            ("config", None),
            ("step_count", _MISSING),
            ("step_count", -1),
            ("step_count", 2.5),
            ("step_count", "2"),
            ("step_count", True),
            ("layers", _MISSING),
            ("layers", {}),
            ("layers", [["a"]]),
            ("layers", "ab"),
            ("format_version", _MISSING),
            ("format_version", True),
            ("format_version", "1"),
            ("extra", 1),
        ],
    )
    def test_malformed_document_names_the_key(self, key, value):
        doc = json.loads(_V1_DOCUMENTS["adam"])
        if value is _MISSING:
            del doc[key]
        else:
            doc[key] = value
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            OptimizerDriver.from_state_dict(doc)

    @pytest.mark.parametrize("change", ["no id", "numeric id", "duplicate"])
    @pytest.mark.parametrize("name", ["adam", "sgd", "novograd"])
    def test_layer_entries_need_unique_string_ids(self, name, change):
        doc = json.loads(_V1_DOCUMENTS[name])
        if change == "no id":
            del doc["layers"][1]["id"]
        elif change == "numeric id":
            doc["layers"][1]["id"] = 1
        else:
            doc["layers"].append(dict(doc["layers"][0]))
        with pytest.raises(ValueError, match="layers" if change == "duplicate" else r"\bid\b"):
            OptimizerDriver.from_state_dict(doc)

    @pytest.mark.parametrize(
        "field_name,value", [("v", -1.0), ("v", -math.inf), ("v", "1"), ("v", True), ("v", _MISSING), ("v_hat", -4.0)]
    )
    def test_a_novograd_second_moment_must_be_a_nonnegative_number(self, field_name, value):
        doc = json.loads(_V1_DOCUMENTS["novograd-ams-deferred-init"])
        if value is _MISSING:
            del doc["layers"][0][field_name]
        else:
            doc["layers"][0][field_name] = value
        with pytest.raises(ValueError, match=rf"\b{field_name}\b.*layer 'b'"):
            OptimizerDriver.from_state_dict(doc)

    @pytest.mark.parametrize("beta2", [0.0, 1.0])
    def test_an_overflowing_layer_norm_at_beta2_zero_or_one_gives_nan_v_silently(self, beta2):
        # layer a's squared norm is inf, so its second v is 0 * inf + ... (NaN, as in Python floats); b stays finite
        params = _two_layer_model()
        driver = OptimizerDriver("novograd", NovoGradConfig(beta2=beta2))
        for _ in range(2):
            params.grad[...] = [1e200, 1e200, 3.0]
            driver.step(params, 0.1)
        v = [entry["v"] for entry in driver.state_dict()["layers"]]
        assert math.isnan(v[0]) and v[1] == 9.0

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_novograd_second_moment_may_be_what_an_overflowing_step_writes(self, value):
        doc = json.loads(_V1_DOCUMENTS["novograd-ams-deferred-init"])
        doc["layers"][0]["v"] = doc["layers"][0]["v_hat"] = value
        driver = OptimizerDriver.from_state_dict(doc)
        driver.step(_two_layer_model(), 0.1)
        assert json.dumps(driver.state_dict()["layers"][0]["v"]) == json.dumps(value)

    @pytest.mark.parametrize(
        "name,extra",
        [("novograd", {"v_hat": 1.0}), ("adam", {"v_hat": 1.0}), ("sgd", {"v": [1.0]}), ("novograd", {"u": [2.0]})],
    )
    def test_a_restored_state_rejects_a_field_it_does_not_declare(self, name, extra):
        # a field of another algorithm or config, and one no algorithm has
        doc = json.loads(_V1_DOCUMENTS[name])
        doc["layers"][1].update(extra)
        key, layer = next(iter(extra)), doc["layers"][1]["id"]
        with pytest.raises(ValueError, match=rf"unknown key '{key}' in layer '{layer}'"):
            OptimizerDriver.from_state_dict(doc)

    @pytest.mark.parametrize("name,key", [("novograd", "m"), ("novograd-ams-deferred-init", "v_hat"), ("adam", "v"), ("sgd", "m")])
    def test_a_restored_state_rejects_a_missing_field(self, name, key):
        # an SGD entry without m used to load and fail at the first step as a KeyError
        doc = json.loads(_V1_DOCUMENTS[name])
        del doc["layers"][1][key]
        layer = doc["layers"][1]["id"]
        with pytest.raises(ValueError, match=rf"missing key '{key}' in layer '{layer}'"):
            OptimizerDriver.from_state_dict(doc)

    @pytest.mark.parametrize("value", [[True, 1.0], [1.0, "2"], "1.0", 1.0, [[1.0], [2.0]], None])
    @pytest.mark.parametrize("name,key", [("adam", "m"), ("adam", "v"), ("sgd", "m"), ("novograd", "m")])
    def test_a_vector_must_be_a_list_of_numbers(self, name, key, value):
        doc = json.loads(_V1_DOCUMENTS[name])
        doc["layers"][0][key] = value
        with pytest.raises(ValueError, match=rf"\b{key} of layer 'a' must be a list of numbers"):
            OptimizerDriver.from_state_dict(doc)

    @pytest.mark.parametrize("layers", [[{"id": "a"}], [{"id": "a", "m": [1.0, 2.0]}]])
    def test_an_sngd_document_holds_no_layers(self, layers):
        doc = json.loads(_V1_DOCUMENTS["sngd"])
        doc["layers"] = layers
        with pytest.raises(ValueError, match=r"\blayers\b.*layer 'a'"):
            OptimizerDriver.from_state_dict(doc)

    @pytest.mark.parametrize("loader", [state_from_dict, OptimizerDriver.from_state_dict])
    @pytest.mark.parametrize("doc", [1, None, "{}", [], [["format_version", 1]]])
    def test_a_document_that_is_no_object_is_rejected(self, loader, doc):
        with pytest.raises(ValueError, match=r"^state must be of type dict"):
            loader(doc)

    @pytest.mark.parametrize("name", sorted(_V1_DOCUMENTS))
    def test_a_restored_state_keeps_its_document_apart_from_the_callers(self, name):
        doc = json.loads(_V1_DOCUMENTS[name])
        expected = json.loads(_V1_DOCUMENTS[name])
        expected["config"].pop("decoupled", None)
        expected["config"].pop("lr0" if name.startswith("novograd") else "lr", None)
        driver = OptimizerDriver.from_state_dict(doc)
        for entry in doc["layers"]:  # the caller edits its document
            entry["id"] += "x"
            entry["m"][0] = 99.0
        doc["layers"].append({"id": "c"})
        saved = driver.state_dict()
        assert json.dumps(saved) == json.dumps(expected)
        for entry in saved["layers"]:  # and the one it saved
            entry["m"].append(1.0)
        assert json.dumps(driver.state_dict()) == json.dumps(expected)


# --- document fuzzer ---------------------------------------------------------
#
# Valid state documents of every algorithm, each with one key mutated at the
# top level or in a layer entry, and the checkpoints that hold them, each with
# one key mutated at the top level or in its weights.  A mutated document
# either raises ValueError naming the key, or resumes bit for bit like the
# valid one.

_FUZZ_VARIANTS = [("novograd", {}), ("novograd", {"ams": True}), ("adam", {}), ("adamw", {}), ("sgd", {}), ("sngd", {})]
_RETYPED = [True, "s", [[1.0]]]  # a bool, a string and a nested list


@st.composite
def _valid_documents(draw, algorithm, hyperparams):
    """(document, model, rng seed): the state and weights after a few steps on a
    model of 1-3 layers.  Layer gradients are zero at random, and layer 0's first
    one is (so NovoGrad's layers initialize out of model order); in one draw of two,
    layer 0's are scaled by 1e200, whose squares overflow: Adam's and NovoGrad's v
    hold inf there."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    steps = draw(st.integers(0, 3))
    zeros = draw(st.lists(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)), min_size=steps, max_size=steps))
    if zeros:  # layer 0 defers its init, so NovoGrad's other layers initialize before it
        zeros[0][0] = True
    huge = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    params = ModelParams([ParameterLayer(f"l{i}", rng.standard_normal(n)) for i, n in enumerate(sizes)])
    driver = OptimizerDriver(algorithm, make_config(algorithm, hyperparams))
    for zero in zeros:
        params.grad[...] = rng.standard_normal(params.grad.size) * params.broadcast(np.logical_not(zero))
        if huge:
            params.layers[0].grad[...] *= 1e200
        with np.errstate(over="ignore"):
            driver.step(params, 0.05)
    return driver.state_dict(), params, seed


def _mutations(doc, places):
    """(description, key, the mutated JSON text) of every mutation of ``doc`` in
    each of ``places``, functions that return one object of a document (its top
    level, a layer entry, a checkpoint's weights)."""
    text = json.dumps(doc)

    def mutated(place, change):  # change that object of a copy of doc
        copy = json.loads(text)
        change(place(copy))
        return json.dumps(copy)

    for place in places:
        target = place(doc)
        for key in target:
            yield "drop", key, mutated(place, lambda obj: obj.pop(key))
            for value in _RETYPED:
                if not (key == "id" and isinstance(value, str)):  # another string id is another layer
                    yield "retype", key, mutated(place, lambda obj: obj.__setitem__(key, value))
            # the key twice in the text, with one value: JSON keeps the last
            inner = json.dumps(target)
            yield "duplicate", key, text.replace(inner, inner[:-1] + ", " + json.dumps({key: target[key]})[1:], 1)
        for key in {"u", "m", "v", "v_hat", "id"} - target.keys():
            yield "add", key, mutated(place, lambda obj: obj.__setitem__(key, [2.0]))
    if doc.get("layers"):
        yield "duplicate entry", "layers", json.dumps({**doc, "layers": doc["layers"] + doc["layers"][:1]})


def _state_places(doc):
    """The top level and each layer entry of a state document."""
    return [lambda d: d] + [lambda d, i=i: d["layers"][i] for i in range(len(doc["layers"]))]


def _resumed(doc, params, seed):
    """The weights and the saved state after two steps from ``doc`` on a copy of ``params``."""
    rng = np.random.default_rng(seed)
    model = params.copy()
    driver = OptimizerDriver.from_state_dict(doc)
    for _ in range(2):
        model.grad[...] = rng.standard_normal(model.grad.size)
        driver.step(model, 0.05)
    return model.weights.tobytes(), json.dumps(driver.state_dict())


def _resumed_checkpoint(doc, params, seed):
    """The checkpoint document ``doc``'s step, and :func:`_resumed` from its state
    on a copy of ``params`` that holds its weights."""
    ckpt = checkpoint_from_dict(doc)
    model = params.copy()
    model.weights[...] = model.flatten(ckpt.weights)
    return ckpt.step, _resumed(ckpt.optimizer, model, seed)


@pytest.mark.parametrize("algorithm,hyperparams", _FUZZ_VARIANTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_mutated_document_names_the_key_or_resumes_alike(algorithm, hyperparams, data):
    doc, params, seed = data.draw(_valid_documents(algorithm, hyperparams))
    weights = {layer.id: layer.weights for layer in params}
    ckpt = checkpoint_to_dict(Checkpoint(doc["step_count"], weights, doc))
    for resume, valid, places in [
        (_resumed, doc, _state_places(doc)),
        (_resumed_checkpoint, ckpt, [lambda d: d, lambda d: d["weights"]]),
    ]:
        expected = resume(json.loads(json.dumps(valid)), params, seed)
        for change, key, text in _mutations(valid, places):
            try:
                actual = resume(json.loads(text), params, seed)
            except ValueError as error:
                assert re.search(rf"\b{key}\b", str(error)), (change, key, str(error))
            else:
                assert actual == expected, (change, key)


class TestConfigs:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_driver_rejects_another_algorithms_config(self, algorithm):
        own = type(make_config(algorithm))
        for cls in (NovoGradConfig, AdamConfig, SgdMomentumConfig, SngdConfig):
            if cls is not own:
                with pytest.raises(ValueError, match=r"\bcfg\b"):
                    OptimizerDriver(algorithm, cls())

    def test_make_config_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key 'beta3' in hyperparams"):
            make_config("adam", {"beta3": 0.5})

    @pytest.mark.parametrize("algorithm,decoupled", [("adam", True), ("adamw", False)])
    def test_decoupled_contradicting_the_algorithm_is_rejected(self, algorithm, decoupled):
        with pytest.raises(ValueError, match="unknown key 'decoupled' in hyperparams"):
            make_config(algorithm, {"decoupled": decoupled})
        doc = OptimizerDriver(algorithm).state_dict()
        doc["config"]["decoupled"] = decoupled
        with pytest.raises(ValueError, match="decoupled"):
            state_from_dict(doc)

    def test_defaults(self):
        cfg = NovoGradConfig()
        assert (cfg.beta1, cfg.beta2, cfg.epsilon) == (0.95, 0.25, 1e-8)
        assert AdamConfig().beta1 == 0.9 and AdamConfig().beta2 == 0.999
        assert SgdMomentumConfig().momentum == 0.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta1": 1.0},
            {"beta2": 1.5},
            {"weight_decay": -0.1},
            {"epsilon": -1e-8},
            {"first_moment_style": "bogus"},
            {"wd_placement": "bogus"},
        ],
    )
    def test_novograd_validation(self, kwargs):
        with pytest.raises(ValueError):
            NovoGradConfig(**kwargs)

    def test_beta2_zero_and_one_are_legal(self):
        NovoGradConfig(beta2=0.0)
        NovoGradConfig(beta2=1.0)


_OTHER_STRINGS = {"first_moment_style": "ema", "wd_placement": "decoupled_update"}


def _changed(value, name):
    """Another valid value for a config field of this value and name."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return _OTHER_STRINGS[name]
    return 0.5 * value + 0.25  # maps [0, 1) into [0.25, 0.75): a valid beta, epsilon or decay


@pytest.mark.parametrize(
    "algorithm,name", [(a, f.name) for a in ALGORITHMS for f in fields(type(make_config(a)))]
)
def test_every_config_field_changes_the_trajectory(algorithm, name):
    # weight decay is on, so its placement acts; the gradients shrink, so the running max of ams acts
    base = {"weight_decay": 0.1} if hasattr(make_config(algorithm), "weight_decay") else {}
    rng = np.random.default_rng(17)
    grads = [0.5**t * rng.standard_normal(3) for t in range(4)]
    final = []
    for hyperparams in (base, {**base, name: _changed(getattr(make_config(algorithm, base), name), name)}):
        params = _two_layer_model()
        driver = OptimizerDriver(algorithm, make_config(algorithm, hyperparams))
        for g in grads:
            params.grad[...] = g
            driver.step(params, 0.1)
        final.append(params.weights)
    assert not np.array_equal(*final)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_float32_resume_through_json_is_bit_exact(algorithm):
    # the JSON state holds float32 values as float64; stepping must cast them back
    rng = np.random.default_rng(43)
    w0 = rng.standard_normal(7).astype(np.float32)
    grads = [rng.standard_normal(7).astype(np.float32) for _ in range(12)]
    lrs = [0.05 * 0.8**t for t in range(12)]

    def model():
        return ModelParams([ParameterLayer("a", w0[:4].copy()), ParameterLayer("b", w0[4:].copy())])

    def run(params, driver, steps):
        for g, lr in steps:
            params.grad[...] = g
            driver.step(params, lr)

    straight = model()
    run(straight, OptimizerDriver(algorithm), zip(grads, lrs))
    resumed = model()
    first = OptimizerDriver(algorithm)
    run(resumed, first, zip(grads[:3], lrs[:3]))
    doc = json.loads(json.dumps(first.state_dict()))
    resumed.weights[...] = json.loads(json.dumps(resumed.weights.tolist()))
    run(resumed, OptimizerDriver.from_state_dict(doc), zip(grads[3:], lrs[3:]))
    assert resumed.weights.dtype == np.float32
    assert resumed.weights.tobytes() == straight.weights.tobytes()


def test_float32_footprint_mode_runs_in_reduced_precision():
    rng = np.random.default_rng(59)
    params = ModelParams(
        [ParameterLayer("w", rng.standard_normal(8).astype(np.float32))]
    )
    driver = OptimizerDriver("novograd", NovoGradConfig())
    for _ in range(5):
        params.layer("w").grad[...] = rng.standard_normal(8).astype(np.float32)
        driver.step(params, 0.05)
    assert params.layer("w").weights.dtype == np.float32
    assert driver.state.m.dtype == np.float32
    assert np.isfinite(params.layer("w").weights).all()


# --- fused steps against per-layer reference loops -------------------------
#
# The step functions update the whole model's flat buffers at once.  These
# references are the per-layer loops they replace; each layer's norm comes
# from l2_norm_sq on that layer alone, which the kernel tests show equals
# its segment of the whole-model call.


def _ref_novograd(layers, state, cfg, lr):
    d, eps = cfg.weight_decay, cfg.epsilon
    in_moment = d != 0.0 and cfg.wd_placement == "in_moment"
    decoupled = d != 0.0 and cfg.wd_placement == "decoupled_update"
    for layer_id, w, g in layers:
        gsq = l2_norm_sq(g)
        if layer_id not in state.v:
            if gsq == 0.0:
                continue
            m = g / math.sqrt(gsq) + d * w if in_moment else g / math.sqrt(gsq)
            state.v[layer_id] = gsq
            if state.v_hat is not None:
                state.v_hat[layer_id] = gsq
        else:
            v = cfg.beta2 * state.v[layer_id] + (1.0 - cfg.beta2) * gsq
            state.v[layer_id] = v
            if state.v_hat is not None:
                v = max(state.v_hat[layer_id], v)
                state.v_hat[layer_id] = v
            denom = math.sqrt(v) + eps
            normalized = np.zeros_like(g) if denom == 0.0 else g / denom
            contrib = normalized + d * w if in_moment else normalized
            if cfg.first_moment_style == "ema":
                m = cfg.beta1 * state.m[layer_id] + (1.0 - cfg.beta1) * contrib
            else:
                m = cfg.beta1 * state.m[layer_id] + contrib
        state.m[layer_id] = m
        decay = lr * d * w
        w -= lr * m
        if decoupled:
            w -= decay


def _ref_adam(layers, state, cfg, lr, decoupled):
    d = cfg.weight_decay
    state.step_count += 1
    t = state.step_count
    for layer_id, w, g in layers:
        if d != 0.0 and not decoupled:
            g = g + d * w
        m = cfg.beta1 * state.m[layer_id] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * state.v[layer_id] + (1.0 - cfg.beta2) * g * g
        state.m[layer_id], state.v[layer_id] = m, v
        if cfg.bias_correction:
            m, v = m / (1.0 - cfg.beta1**t), v / (1.0 - cfg.beta2**t)
        update = m / (np.sqrt(v) + cfg.epsilon)
        if d != 0.0 and decoupled:
            update = update + d * w
        w -= lr * update


def _ref_sgd(layers, state, cfg, lr):
    for layer_id, w, g in layers:
        if cfg.weight_decay != 0.0:
            g = g + cfg.weight_decay * w
        state.m[layer_id] = cfg.momentum * state.m[layer_id] + g
        w -= lr * state.m[layer_id]


def _ref_sngd(layers, cfg, lr):
    for _, w, g in layers:
        norm = math.sqrt(l2_norm_sq(g))
        if norm != 0.0:
            w -= lr * (g / (norm + cfg.epsilon))


_FUSED_CASES = [
    ("novograd", {}),
    ("novograd", {"ams": True, "weight_decay": 0.02}),
    ("novograd", {"first_moment_style": "ema", "weight_decay": 0.01}),
    ("novograd", {"wd_placement": "decoupled_update", "weight_decay": 0.03, "ams": True}),
    ("novograd", {"beta2": 0.0, "epsilon": 0.0}),
    ("adam", {"weight_decay": 0.01}),
    ("adam", {"bias_correction": False, "beta1": 0.5}),
    ("adamw", {"weight_decay": 0.05}),
    ("sgd", {"weight_decay": 0.01, "momentum": 0.5}),
    ("sngd", {}),
    ("sngd", {"epsilon": 0.0}),
]


def _assert_same_state(algorithm, cfg, state, ref):
    if algorithm == "sngd":
        return
    layers = layers_of(state, cfg if algorithm == "novograd" else NovoGradConfig())
    assert list(layers) == list(ref.m)
    assert state.m.dtype == next(iter(ref.m.values()), state.m).dtype
    for layer_id, m in ref.m.items():  # a document value cast back to the model's dtype is the value
        assert np.array(layers[layer_id]["m"], m.dtype).tobytes() == m.tobytes()
    if algorithm == "novograd":
        assert [layer["v"] for layer in layers.values()] == list(ref.v.values())
        assert [layer.get("v_hat") for layer in layers.values()] == list((ref.v_hat or dict.fromkeys(ref.v)).values())
    elif algorithm in ("adam", "adamw"):
        for layer_id, v in ref.v.items():
            assert np.array(layers[layer_id]["v"], v.dtype).tobytes() == v.tobytes()


def _ref_state(algorithm, cfg, params):
    """The references' state for ``params``: per-layer dicts, which a driver's state holds as arrays."""
    zeros = {layer.id: np.zeros_like(layer.weights) for layer in params}
    if algorithm == "novograd":
        return SimpleNamespace(m={}, v={}, v_hat={} if cfg.ams else None)
    if algorithm in ("adam", "adamw"):
        return SimpleNamespace(m=dict(zeros), v={k: z.copy() for k, z in zeros.items()}, step_count=0)
    if algorithm == "sgd":
        return SimpleNamespace(m=dict(zeros))
    return None


def _ref_step(algorithm, cfg, layers, ref, lr):
    if algorithm == "novograd":
        _ref_novograd(layers, ref, cfg, lr)
    elif algorithm in ("adam", "adamw"):
        _ref_adam(layers, ref, cfg, lr, decoupled=algorithm == "adamw")
    elif algorithm == "sgd":
        _ref_sgd(layers, ref, cfg, lr)
    else:
        _ref_sngd(layers, cfg, lr)


@pytest.mark.parametrize("algorithm,hyperparams", _FUSED_CASES)
@settings(max_examples=30, deadline=None)
@given(
    rows=st.sampled_from([1, 2, 5]),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
    stacked=st.booleans(),
)
def test_fused_step_equals_per_layer_reference(algorithm, hyperparams, rows, sizes, dtype, seed, stacked):
    """R models stepped as one stack (one row: a stack, or the model alone) at
    one learning rate per row, 0 among them, each row's zero layers (so
    NovoGrad's deferred init) its own, equal R per-layer reference loops."""
    rng = np.random.default_rng(seed)
    cfg = make_config(algorithm, hyperparams)
    models = [
        ModelParams([ParameterLayer(f"l{i}", rng.standard_normal(n).astype(dtype)) for i, n in enumerate(sizes)])
        for _ in range(rows)
    ]
    ref_weights = [[layer.weights.copy() for layer in model] for model in models]
    drivers = [OptimizerDriver(algorithm, cfg) for _ in models]
    refs = [_ref_state(algorithm, cfg, model) for model in models]
    if rows == 1 and not stacked:
        driver, params = drivers[0], models[0]
    else:
        params = ModelParams.stack(models)
        driver = OptimizerDriver.stack(drivers, models, params)
    for step in range(6):
        lrs = rng.uniform(0.0, 0.1, rows) * (rng.uniform(size=rows) < 0.8)
        grads = []
        for r, model in enumerate(models):
            grads.append([])
            for i, layer in enumerate(model):
                # the first layer's first gradient is zero in row 0: NovoGrad defers its init
                zero = (step == 0 and i == 0 and r == 0) or rng.uniform() < 0.2
                scale = 0.0 if zero else 10.0 ** rng.uniform(-3, 3)
                grads[-1].append((scale * rng.standard_normal(layer.size)).astype(dtype))
                layer.grad[...] = grads[-1][-1]
        driver.step(params, lrs.tolist() if params is not models[0] else float(lrs[0]))
        for model, weights, grad, ref, lr in zip(models, ref_weights, grads, refs, lrs.tolist()):
            _ref_step(algorithm, cfg, [(layer.id, w, g) for layer, w, g in zip(model, weights, grad)], ref, lr)
            for layer, w in zip(model, weights):
                assert layer.weights.dtype == w.dtype
                assert layer.weights.tobytes() == w.tobytes(), (step, layer.id)
        for row_driver, ref in zip(drivers, refs):
            _assert_same_state(algorithm, cfg, row_driver.state, ref)
            if algorithm != "sngd":
                assert row_driver.state.step_count == step + 1


@pytest.mark.parametrize("algorithm,hyperparams", _FUSED_CASES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_a_warm_stacked_step_allocates_nothing_the_size_of_the_model(algorithm, hyperparams, dtype):
    rng = np.random.default_rng(0)
    # large enough that numpy's fixed casting buffers (8,192 elements an operand) stay below the bound
    sizes = (60000, 7, 300)
    models = [
        ModelParams([ParameterLayer(f"l{i}", rng.standard_normal(n).astype(dtype)) for i, n in enumerate(sizes)])
        for _ in range(3)
    ]
    drivers = [OptimizerDriver(algorithm, make_config(algorithm, hyperparams)) for _ in models]
    params = ModelParams.stack(models)
    driver = OptimizerDriver.stack(drivers, models, params)
    params.grad[...] = rng.standard_normal(params.grad.shape)
    for _ in range(2):  # every layer initializes, and the workspace is made
        driver.step(params, [0.01, 0.0, 0.02])
    tracemalloc.start()
    try:
        driver.step(params, [0.01, 0.0, 0.02])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.weights.nbytes / 2


def test_stacking_rejects_states_of_different_step_counts():
    models = [ModelParams([ParameterLayer("w", np.ones(3))]) for _ in range(2)]
    drivers = [OptimizerDriver("adam") for _ in models]
    models[0].grad[...] = 1.0
    drivers[0].step(models[0], 0.1)
    with pytest.raises(ValueError, match="share one step count"):
        OptimizerDriver.stack(drivers, models, ModelParams.stack(models))


def test_non_finite_gradient_leaves_the_model_untouched():
    params = ModelParams(
        [
            ParameterLayer("ok", np.array([1.0]), np.array([1.0])),
            ParameterLayer("bad", np.array([1.0]), np.array([np.inf])),
        ]
    )
    for algorithm in ALGORITHMS:
        driver = OptimizerDriver(algorithm)
        with pytest.raises(ValueError, match="non-finite gradient in layer 'bad'"):
            driver.step(params, 0.1)
        np.testing.assert_array_equal(params.weights, [1.0, 1.0])


def test_steps_on_an_empty_model_only_count():
    params = ModelParams([])
    state = NovoGradState()
    novograd_step(params, state, NovoGradConfig(), 0.1)
    assert (state.step_count, layers_of(state)) == (1, {})
    driver = OptimizerDriver("novograd")
    driver.step(params, 0.1)
    assert (driver.state.step_count, driver.state_dict()["layers"]) == (1, [])
    for algorithm in ("adam", "adamw", "sgd", "sngd"):
        OptimizerDriver(algorithm).step(params, 0.1)


# configurations whose trajectory is invariant to scaling each layer's gradient
# by its own power of two: the layer-wise normalization (NovoGrad, SNGD) and the
# element-wise one (Adam; AdamW's decay does not touch the gradient), at epsilon 0
_PER_LAYER_INVARIANT = [
    ("novograd", {"epsilon": 0.0}),
    ("novograd", {"epsilon": 0.0, "first_moment_style": "ema", "ams": True, "weight_decay": 0.01}),
    ("sngd", {"epsilon": 0.0}),
    ("adam", {"epsilon": 0.0}),
    ("adamw", {"epsilon": 0.0, "weight_decay": 0.01}),
]


@pytest.mark.parametrize("algorithm,hyperparams", _PER_LAYER_INVARIANT)
@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_layer_power_of_two_gradient_scaling_leaves_the_trajectory_unchanged(
    algorithm, hyperparams, data, sizes, dtype, seed
):
    bound = 60 if dtype == np.float64 else 40
    exponents = data.draw(st.lists(st.integers(-bound, bound), min_size=len(sizes), max_size=len(sizes)))
    rng = np.random.default_rng(seed)
    w0 = rng.standard_normal(sum(sizes)).astype(dtype)
    grads = []
    for step in range(6):
        # magnitudes in [1/4, 4], so no scaled square leaves the normal range
        g = rng.uniform(0.25, 4.0, sum(sizes)) * rng.choice([-1.0, 1.0], sum(sizes))
        zero = rng.uniform(size=len(sizes)) < 0.2  # a zero layer; NovoGrad defers the first layer's init
        zero[0] |= step == 0
        grads.append(g * np.repeat(~zero, sizes))
    lrs = rng.uniform(0.0, 0.1, len(grads)).tolist()
    finals = []
    for factors in (np.ones(len(sizes)), np.exp2(exponents)):
        params = ModelParams([ParameterLayer(f"l{i}", w) for i, w in enumerate(np.split(w0, np.cumsum(sizes)[:-1]))])
        driver = OptimizerDriver(algorithm, make_config(algorithm, hyperparams))
        for g, lr in zip(grads, lrs):
            params.grad[...] = g.astype(dtype) * params.broadcast(factors, dtype)
            driver.step(params, lr)
        finals.append(params.weights.tobytes())
    assert finals[0] == finals[1]
