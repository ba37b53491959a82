import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
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
    adam_step,
    adamw_step,
    make_config,
    novograd_init,
    novograd_step,
    sgd_momentum_step,
    sngd_step,
    state_from_dict,
    state_to_dict,
)
from novobench.params import ModelParams, ParameterLayer, l2_norm_sq


def single_layer(weights, grad):
    return ModelParams([ParameterLayer("w", np.array(weights, dtype=float), np.array(grad, dtype=float))])


def run_novograd(w0, grads, lrs, cfg):
    """Drive the implementation over a gradient stream; returns weight snapshots."""
    params = single_layer(w0, grads[0])
    state = None
    snapshots = []
    for g, lr in zip(grads, lrs):
        params.layer("w").grad[...] = g
        if state is None:
            state = novograd_init(params, cfg, lr)
        else:
            novograd_step(params, state, cfg, lr)
        snapshots.append(params.layer("w").weights.copy())
    return snapshots, state


class TestNovoGradInit:
    def test_hand_checked_trace(self):
        params = single_layer([1.0, 1.0], [3.0, 4.0])
        cfg = NovoGradConfig(beta1=0.9, beta2=0.25, epsilon=0.0)
        state = novograd_init(params, cfg, lr_t=0.1)
        assert state.v["w"] == 25.0
        np.testing.assert_allclose(state.m["w"], [0.6, 0.8], rtol=0, atol=1e-15)
        np.testing.assert_allclose(params.layer("w").weights, [0.94, 0.92], rtol=0, atol=1e-15)
        assert state.step_count == 1

    def test_weight_decay_enters_first_moment(self):
        params = single_layer([1.0, 1.0], [3.0, 4.0])
        state = novograd_init(params, NovoGradConfig(weight_decay=0.1), lr_t=0.0)
        np.testing.assert_allclose(state.m["w"], [0.7, 0.9], rtol=0, atol=1e-15)

    def test_zero_gradient_layer_deferred(self):
        params = ModelParams(
            [
                ParameterLayer("a", np.array([1.0]), np.array([2.0])),
                ParameterLayer("b", np.array([5.0]), np.array([0.0])),
            ]
        )
        state = novograd_init(params, NovoGradConfig(), lr_t=0.1)
        assert state.initialized("a")
        assert not state.initialized("b")
        np.testing.assert_array_equal(params.layer("b").weights, [5.0])

    def test_deferred_layer_initializes_on_first_nonzero_gradient(self):
        params = ModelParams([ParameterLayer("b", np.array([5.0]), np.array([0.0]))])
        cfg = NovoGradConfig(beta1=0.9, beta2=0.25, epsilon=0.0)
        state = novograd_init(params, cfg, lr_t=0.1)
        params.layer("b").grad[...] = [2.0]
        novograd_step(params, state, cfg, lr_t=0.1)
        # the late init must follow init semantics, not the EMA recursion
        fresh = ModelParams([ParameterLayer("b", np.array([5.0]), np.array([2.0]))])
        fresh_state = novograd_init(fresh, cfg, lr_t=0.1)
        assert state.v["b"] == fresh_state.v["b"]
        np.testing.assert_array_equal(params.layer("b").weights, fresh.layer("b").weights)

    def test_no_layers_rejected(self):
        with pytest.raises(ValueError, match="no layers"):
            novograd_init(ModelParams([]), NovoGradConfig(), 0.1)


class TestNovoGradStep:
    def test_hand_checked_trace_second_step(self):
        cfg = NovoGradConfig(beta1=0.9, beta2=0.25, epsilon=0.0)
        snapshots, state = run_novograd([1.0, 1.0], [[3.0, 4.0], [0.0, 5.0]], [0.1, 0.1], cfg)
        assert state.v["w"] == 25.0
        np.testing.assert_allclose(state.m["w"], [0.54, 1.72], rtol=0, atol=1e-15)
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
            state = NovoGradState(
                m={"w": rng.standard_normal(3)}, v={"w": float(rng.uniform(0.1, 10))}, step_count=3
            )
            novograd_step(nov, state, cfg, 0.2)
            ref = single_layer(w, g)
            sngd_step(ref, SngdConfig(epsilon=0.0), 0.2)
            np.testing.assert_allclose(nov.layer("w").weights, ref.layer("w").weights, rtol=1e-12)

    def test_ams_uses_running_max(self):
        # norms 5 then 4 with beta2=0: v drops 25 -> 16 but the max holds at 25
        cfg = NovoGradConfig(beta1=0.9, beta2=0.0, epsilon=0.0, ams=True)
        grads = [[5.0], [4.0]]
        snapshots, state = run_novograd([1.0], grads, [0.1, 0.1], cfg)
        assert state.v["w"] == 16.0
        assert state.v_hat["w"] == 25.0
        expected, _, _ = oracle.novograd_trace(
            [1.0], grads, [0.1, 0.1], beta1=0.9, beta2=0.0, ams=True
        )
        np.testing.assert_allclose(snapshots[-1], expected[-1], rtol=1e-15)

    def test_ams_v_hat_nondecreasing(self):
        rng = np.random.default_rng(9)
        cfg = NovoGradConfig(ams=True)
        params = single_layer(rng.standard_normal(3), rng.standard_normal(3))
        state = novograd_init(params, cfg, 0.01)
        prev = state.v_hat["w"]
        for t in range(40):
            scale = 1e3 if t % 2 == 0 else 1e-3
            params.layer("w").grad[...] = scale * rng.standard_normal(3)
            novograd_step(params, state, cfg, 0.01)
            assert state.v_hat["w"] >= prev
            prev = state.v_hat["w"]

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
        state = novograd_init(params, cfg, 0.0)
        params.layer("w").grad[...] = 0.0
        w_before = params.layer("w").weights.copy()
        novograd_step(params, state, cfg, 0.1)
        # beta2=0 zero grad drives v to 0; the guard keeps the update finite
        assert np.isfinite(params.layer("w").weights).all()
        np.testing.assert_allclose(
            params.layer("w").weights, w_before - 0.1 * 0.9 * np.asarray(state.m["w"]) / 0.9
        )

    def test_negative_lr_rejected(self):
        params = single_layer([1.0], [1.0])
        state = novograd_init(params, NovoGradConfig(), 0.1)
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
        state = novograd_init(params, cfg, 0.01)
        for t in range(60):
            magnitude = 10.0 ** rng.uniform(-100, 100)
            params.layer("w").grad[...] = magnitude * rng.standard_normal(3)
            novograd_step(params, state, cfg, 0.01)
            assert np.isfinite(params.layer("w").weights).all()
            assert np.isfinite(state.m["w"]).all()
            assert math.isfinite(state.v["w"]) and state.v["w"] >= 0.0


class TestAdam:
    def test_cold_start_without_bias_correction(self):
        params = single_layer([0.0], [1.0])
        cfg = AdamConfig(beta1=0.9, beta2=0.999, epsilon=0.0, bias_correction=False)
        state = AdamState.zeros(params)
        adam_step(params, state, cfg, 0.1)
        expected = -0.1 * 0.1 / math.sqrt(0.001)
        np.testing.assert_allclose(params.layer("w").weights, [expected], rtol=1e-12)
        assert abs(expected + 0.3162) < 1e-4

    def test_cold_start_with_bias_correction(self):
        params = single_layer([0.0], [1.0])
        cfg = AdamConfig(beta1=0.9, beta2=0.999, epsilon=0.0, bias_correction=True)
        adam_step(params, AdamState.zeros(params), cfg, 0.1)
        np.testing.assert_allclose(params.layer("w").weights, [-0.1], rtol=0, atol=1e-15)

    def test_zero_gradient_never_moves(self):
        params = single_layer([2.0], [0.0])
        cfg = AdamConfig()
        state = AdamState.zeros(params)
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
        state = AdamState.zeros(params)
        for g, lr in zip(grads, lrs):
            params.layer("w").grad[...] = g
            adam_step(params, state, cfg, lr)
        expected = oracle.adam_trace(w0, grads, lrs, 0.9, 0.999, 1e-8, d=0.05)
        np.testing.assert_allclose(params.layer("w").weights, expected[-1], rtol=1e-14)


class TestAdamW:
    def test_identical_to_adam_at_zero_decay(self):
        rng = np.random.default_rng(29)
        w0 = rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(9)]
        a = single_layer(w0, grads[0])
        b = single_layer(w0, grads[0])
        sa, sb = AdamState.zeros(a), AdamState.zeros(b)
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
        adamw_step(params, AdamState.zeros(params), cfg, 0.1)
        np.testing.assert_allclose(params.layer("w").weights, [0.99], rtol=0, atol=1e-15)

    def test_equals_adam_step_plus_decay_term(self):
        rng = np.random.default_rng(31)
        w0 = rng.standard_normal(3)
        g = rng.standard_normal(3)
        cfg = AdamConfig(weight_decay=0.07)
        plain_cfg = AdamConfig(weight_decay=0.0)
        a = single_layer(w0, g)
        b = single_layer(w0, g)
        adamw_step(a, AdamState.zeros(a), cfg, 0.1)
        adam_step(b, AdamState.zeros(b), plain_cfg, 0.1)
        manual = b.layer("w").weights - 0.1 * 0.07 * w0
        # same identity, different association order: equal to float precision
        np.testing.assert_allclose(a.layer("w").weights, manual, rtol=0, atol=1e-15)


class TestSgdMomentum:
    def test_momentum_off_is_plain_sgd(self):
        params = single_layer([1.0, 2.0], [0.5, -0.5])
        cfg = SgdMomentumConfig(momentum=0.0)
        sgd_momentum_step(params, SgdMomentumState.zeros(params), cfg, 0.1)
        np.testing.assert_allclose(params.layer("w").weights, [0.95, 2.05], rtol=0, atol=1e-15)

    def test_geometric_momentum_recursion(self):
        params = single_layer([0.0], [1.0])
        cfg = SgdMomentumConfig(momentum=0.9)
        state = SgdMomentumState.zeros(params)
        seen = []
        for _ in range(3):
            sgd_momentum_step(params, state, cfg, 1.0)
            seen.append(float(state.m["w"][0]))
        np.testing.assert_allclose(seen, [1.0, 1.9, 2.71], rtol=1e-12)
        _, ms = oracle.sgd_momentum_trace([0.0], [[1.0]] * 3, [1.0] * 3, 0.9)
        np.testing.assert_allclose(seen, [m[0] for m in ms], rtol=0)

    def test_zero_gradient_zero_momentum_is_noop(self):
        params = single_layer([3.0], [0.0])
        sgd_momentum_step(params, SgdMomentumState.zeros(params), SgdMomentumConfig(), 0.1)
        np.testing.assert_array_equal(params.layer("w").weights, [3.0])

    def test_weight_decay_matches_oracle(self):
        rng = np.random.default_rng(37)
        w0 = rng.standard_normal(3)
        grads = [rng.standard_normal(3) for _ in range(5)]
        params = single_layer(w0, grads[0])
        state = SgdMomentumState.zeros(params)
        cfg = SgdMomentumConfig(momentum=0.9, weight_decay=0.02)
        for g in grads:
            params.layer("w").grad[...] = g
            sgd_momentum_step(params, state, cfg, 0.05)
        expected, _ = oracle.sgd_momentum_trace(w0, grads, [0.05] * 5, 0.9, d=0.02)
        np.testing.assert_allclose(params.layer("w").weights, expected[-1], rtol=1e-14)


class TestSngd:
    def test_unit_direction_step(self):
        params = single_layer([0.0, 0.0], [3.0, 4.0])
        sngd_step(params, SngdConfig(epsilon=0.0), 0.5)
        np.testing.assert_allclose(params.layer("w").weights, [-0.3, -0.4], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("c", [2.0**-8, 2.0, 2.0**9])
    def test_direction_only_scale_free(self, c):
        base = single_layer([1.0, 1.0], [3.0, 4.0])
        scaled = single_layer([1.0, 1.0], [c * 3.0, c * 4.0])
        sngd_step(base, SngdConfig(epsilon=0.0), 0.5)
        sngd_step(scaled, SngdConfig(epsilon=0.0), 0.5)
        np.testing.assert_array_equal(base.layer("w").weights, scaled.layer("w").weights)

    def test_zero_gradient_noop(self):
        params = single_layer([1.0, 2.0], [0.0, 0.0])
        sngd_step(params, SngdConfig(), 0.5)
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
        ("adamw", AdamConfig(weight_decay=0.03, decoupled=True)),
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

    def test_fresh_state_round_trips_to_none(self):
        driver = OptimizerDriver("adam")
        restored = OptimizerDriver.from_state_dict(driver.state_dict())
        assert restored.state is None

    def test_unsupported_version_rejected(self):
        doc = state_to_dict("sgd", SgdMomentumConfig(), None)
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            state_from_dict(doc)


class TestConfigs:
    def test_make_config_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown hyperparameter 'beta3'"):
            make_config("adam", {"beta3": 0.5})

    def test_adamw_cannot_be_coupled(self):
        with pytest.raises(ValueError, match="always decoupled"):
            make_config("adamw", {"decoupled": False})
        assert make_config("adamw", {}).decoupled is True

    def test_defaults(self):
        cfg = NovoGradConfig()
        assert (cfg.beta1, cfg.beta2, cfg.epsilon) == (0.95, 0.25, 1e-8)
        assert AdamConfig().beta1 == 0.9 and AdamConfig().beta2 == 0.999
        assert SgdMomentumConfig().momentum == 0.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr0": 0.0},
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
    assert driver.state.m["w"].dtype == np.float32
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


def _ref_adam(layers, state, cfg, lr):
    d = cfg.weight_decay
    decoupled = cfg.decoupled
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


def _assert_same_state(algorithm, state, ref):
    if algorithm == "sngd":
        return
    assert list(state.m) == list(ref.m)
    for layer_id in ref.m:
        assert state.m[layer_id].dtype == ref.m[layer_id].dtype
        assert state.m[layer_id].tobytes() == ref.m[layer_id].tobytes()
    if algorithm == "novograd":
        assert list(state.v.items()) == list(ref.v.items())
        assert state.v_hat == ref.v_hat
    elif algorithm in ("adam", "adamw"):
        for layer_id in ref.v:
            assert state.v[layer_id].tobytes() == ref.v[layer_id].tobytes()


@pytest.mark.parametrize("algorithm,hyperparams", _FUSED_CASES)
@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_step_equals_per_layer_reference(algorithm, hyperparams, sizes, dtype, seed):
    rng = np.random.default_rng(seed)
    cfg = make_config(algorithm, hyperparams)
    params = ModelParams(
        [ParameterLayer(f"l{i}", rng.standard_normal(n).astype(dtype)) for i, n in enumerate(sizes)]
    )
    ref_weights = [layer.weights.copy() for layer in params]
    driver = OptimizerDriver(algorithm, cfg)
    if algorithm == "novograd":
        ref = NovoGradState(v_hat={} if cfg.ams else None)
    elif algorithm in ("adam", "adamw"):
        ref = AdamState.zeros(params)
    elif algorithm == "sgd":
        ref = SgdMomentumState.zeros(params)
    else:
        ref = None
    for step in range(6):
        grads = []
        for i, layer in enumerate(params):
            # the first layer's first gradient is zero: NovoGrad defers its init
            zero = (step == 0 and i == 0) or rng.uniform() < 0.2
            scale = 0.0 if zero else 10.0 ** rng.uniform(-3, 3)
            grads.append((scale * rng.standard_normal(layer.size)).astype(dtype))
            layer.grad[...] = grads[-1]
        lr = float(rng.uniform(0.0, 0.1))
        driver.step(params, lr)
        layers = [(layer.id, w, g) for layer, w, g in zip(params, ref_weights, grads)]
        if algorithm == "novograd":
            _ref_novograd(layers, ref, cfg, lr)
        elif algorithm in ("adam", "adamw"):
            _ref_adam(layers, ref, cfg, lr)
        elif algorithm == "sgd":
            _ref_sgd(layers, ref, cfg, lr)
        else:
            _ref_sngd(layers, cfg, lr)
        for layer, w in zip(params, ref_weights):
            assert layer.weights.dtype == w.dtype
            assert layer.weights.tobytes() == w.tobytes(), (step, layer.id)
        _assert_same_state(algorithm, driver.state, ref)


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
    assert (state.step_count, state.m, state.v) == (1, {}, {})
    for algorithm in ("adam", "adamw", "sgd", "sngd"):
        OptimizerDriver(algorithm).step(params, 0.1)
