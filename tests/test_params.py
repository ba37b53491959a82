import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novobench.harness import Checkpoint
from novobench.optim import (
    AdamConfig,
    AdamState,
    NovoGradConfig,
    NovoGradState,
    SgdMomentumConfig,
    SngdConfig,
    adam_step,
    novograd_step,
    state_report,
    state_to_dict,
)
from novobench.params import ModelParams, ParameterLayer, _declared, checked_keys, l2_norm_sq
from novobench.problems import DatasetSpec
from novobench.schedule import LarcConfig, ScheduleSpec


def _params(sizes, rng=None):
    rng = rng or np.random.default_rng(0)
    return ModelParams(
        [ParameterLayer(f"layer{i}", rng.standard_normal(n)) for i, n in enumerate(sizes)]
    )


class TestL2NormSq:
    def test_known_values(self):
        assert l2_norm_sq([3.0, 4.0]) == 25.0
        assert l2_norm_sq([0.0, 0.0, 0.0]) == 0.0
        assert l2_norm_sq([1.0, 1.0, 1.0, 1.0]) == 4.0

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="empty layer"):
            l2_norm_sq(np.array([]))

    @pytest.mark.parametrize("exponent", [-12, -3, 1, 7, 12])
    def test_power_of_two_scaling_is_exact(self, exponent):
        rng = np.random.default_rng(42)
        v = rng.standard_normal(257)
        c = 2.0**exponent
        assert l2_norm_sq(c * v) == c * c * l2_norm_sq(v)

    def test_bit_exact_for_identical_order(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(1000)
        assert l2_norm_sq(v) == l2_norm_sq(v.copy())

    def test_permutation_invariant_within_tolerance(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(1000) * 10.0
        base = l2_norm_sq(v)
        for _ in range(5):
            shuffled = rng.permutation(v)
            assert abs(l2_norm_sq(shuffled) - base) <= 1e-12 * base


def _mid_range(draw, size, dtype):
    """Random elements of magnitude 2^-20..2^20 with random signs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitudes = rng.uniform(0.5, 1.0, size) * np.exp2(rng.integers(-20, 21, size))
    return (rng.choice([-1.0, 1.0], size) * magnitudes).astype(dtype)


@st.composite
def _vectors(draw, dtype):
    return _mid_range(draw, draw(st.integers(1, 300)), dtype)


@st.composite
def _segmented(draw):
    sizes = draw(st.lists(st.integers(1, 150), min_size=1, max_size=6))
    return _mid_range(draw, sum(sizes), np.float64), sizes


class TestVectorizedKernel:
    @settings(max_examples=60, deadline=None)
    @given(v=_vectors(np.float64), k=st.integers(-60, 60))
    def test_power_of_two_scaling_exact_float64(self, v, k):
        c = 2.0**k
        assert l2_norm_sq(c * v) == c * c * l2_norm_sq(v)

    @settings(max_examples=60, deadline=None)
    @given(v=_vectors(np.float32), k=st.integers(-40, 40))
    def test_power_of_two_scaling_exact_float32(self, v, k):
        scaled = (np.float32(2.0**k) * v).astype(np.float32)
        assert l2_norm_sq(scaled) == 4.0**k * l2_norm_sq(v)

    @settings(max_examples=40, deadline=None)
    @given(data=_segmented())
    def test_segment_sums_equal_single_calls(self, data):
        flat, sizes = data
        offsets = np.cumsum([0] + sizes[:-1])
        sums = l2_norm_sq(flat, offsets)
        assert sums.dtype == np.float64 and sums.shape == (len(sizes),)
        for start, n, total in zip(offsets, sizes, sums.tolist()):
            assert total == l2_norm_sq(flat[start : start + n].copy())

    @settings(max_examples=40, deadline=None)
    @given(data=_segmented(), rows=st.integers(1, 8), dtype=st.sampled_from([np.float64, np.float32]))
    def test_row_sums_equal_one_call_per_row(self, data, rows, dtype):
        flat, sizes = data
        offsets = np.cumsum([0] + sizes[:-1])
        rng = np.random.default_rng(len(flat))
        stack = np.stack([flat * rng.permutation(len(flat)) for _ in range(rows)]).astype(dtype)
        sums = l2_norm_sq(stack, offsets)
        assert sums.dtype == np.float64 and sums.shape == (rows, len(sizes))
        for row, row_sums in zip(stack, sums):
            assert row_sums.tobytes() == l2_norm_sq(row.copy(), offsets).tobytes()

    def test_float32_accumulates_in_float64(self):
        # 4097^2 = 16785409 needs 25 significant bits: float32 would round it
        v = np.full(3, 4097.0, dtype=np.float32)
        assert l2_norm_sq(v) == 3 * 16785409.0
        rng = np.random.default_rng(1)
        w = rng.standard_normal(1001).astype(np.float32)
        assert l2_norm_sq(w) == l2_norm_sq(w.astype(np.float64))
        params = ModelParams([ParameterLayer("a", w[:500]), ParameterLayer("b", w[500:])])
        sums = l2_norm_sq(params.weights, params.offsets)
        assert sums.dtype == np.float64
        assert sums[1] == l2_norm_sq(w[500:].astype(np.float64))

    def test_overflow_returns_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert l2_norm_sq([1e200, 1.0]) == np.inf
            sums = l2_norm_sq(np.array([1.0, 1e300, 2.0]), np.array([0, 1, 2]))
        np.testing.assert_array_equal(sums, [1.0, np.inf, 4.0])


class TestParameterLayer:
    def test_grad_defaults_to_zeros(self):
        layer = ParameterLayer("w", np.array([1.0, 2.0]))
        np.testing.assert_array_equal(layer.grad, [0.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grad length"):
            ParameterLayer("w", np.array([1.0, 2.0]), np.array([1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty layer"):
            ParameterLayer("w", np.array([], dtype=np.float64))

    def test_float32_mode_preserved(self):
        layer = ParameterLayer("w", np.array([1.0, 2.0], dtype=np.float32))
        assert layer.weights.dtype == np.float32
        assert layer.grad.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.bool_, np.float16])
    def test_other_dtypes_become_float64(self, dtype):
        layer = ParameterLayer("w", np.array([1, 0, 3], dtype=dtype))
        assert layer.weights.dtype == layer.grad.dtype == np.float64
        assert layer.weights.tolist() == np.array([1, 0, 3], dtype=dtype).astype(np.float64).tolist()
        assert ParameterLayer("w", [2, 5]).weights.tolist() == [2.0, 5.0]

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (2, 1, 1)])
    def test_weights_of_more_than_one_axis_rejected(self, shape):
        with pytest.raises(ValueError, match="layer 'w': weights must be a flat vector"):
            ParameterLayer("w", np.ones(shape))


class TestModelParams:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate layer ids"):
            ModelParams([ParameterLayer("w", [1.0]), ParameterLayer("w", [2.0])])

    def test_total_elements(self):
        assert _params([3, 5, 2]).total_elements == 10

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ValueError, match="mix dtypes"):
            ModelParams(
                [ParameterLayer("a", np.ones(2)), ParameterLayer("b", np.ones(2, dtype=np.float32))]
            )

    def test_layers_are_views_of_the_buffers(self):
        params = _params([3, 5, 2])
        assert params.weights.shape == params.grad.shape == (10,)
        np.testing.assert_array_equal(params.offsets, [0, 3, 8])
        np.testing.assert_array_equal(params.sizes, [3, 5, 2])
        assert params.layer_ids == ("layer0", "layer1", "layer2")
        layer = params.layer("layer1")
        assert np.shares_memory(layer.weights, params.weights)
        assert np.shares_memory(layer.grad, params.grad)
        layer.grad[...] = 7.0
        np.testing.assert_array_equal(params.grad[3:8], 7.0)
        params.weights[8:] = -1.0
        np.testing.assert_array_equal(params.layer("layer2").weights, [-1.0, -1.0])
        for view, layer in zip(params.split(params.weights), params):
            assert view.base is params.weights
            np.testing.assert_array_equal(view, layer.weights)
        np.testing.assert_array_equal(params.broadcast([1.0, 2.0, 3.0]), [1.0] * 3 + [2.0] * 5 + [3.0] * 2)

    def test_construction_copies_the_given_values(self):
        w = np.arange(4.0)
        g = np.ones(4)
        params = ModelParams([ParameterLayer("w", w, g)])
        np.testing.assert_array_equal(params.weights, w)
        np.testing.assert_array_equal(params.grad, g)
        params.weights[...] = 9.0
        np.testing.assert_array_equal(w, np.arange(4.0))

    def test_copy_is_independent(self):
        params = _params([3, 4])
        clone = params.copy()
        np.testing.assert_array_equal(clone.weights, params.weights)
        clone.layer("layer0").weights[...] = 0.0
        clone.grad[...] = 5.0
        assert not np.shares_memory(clone.weights, params.weights)
        assert params.weights[0] != 0.0 and not params.grad.any()
        assert np.shares_memory(clone.layer("layer0").weights, clone.weights)

    def test_empty_model(self):
        params = ModelParams([])
        assert params.total_elements == 0 and params.layer_ids == ()

    def test_layer_lookup(self):
        params = _params([3, 5])
        assert params.layer("layer1").size == 5
        with pytest.raises(KeyError):
            params.layer("nope")

    def test_stack_holds_models_as_rows_of_shared_buffers(self):
        models = [_params([3, 2], np.random.default_rng(seed)) for seed in range(3)]
        rows = [m.weights.copy() for m in models]
        stacked = ModelParams.stack(models)
        assert stacked.weights.shape == stacked.grad.shape == (3, 5)
        assert stacked.layer("layer0").weights.shape == (3, 3) and stacked.layer("layer1").size == 2
        for r, model in enumerate(models):
            np.testing.assert_array_equal(stacked.weights[r], rows[r])
            assert np.shares_memory(model.weights, stacked.weights)
            assert np.shares_memory(model.layer("layer1").grad, stacked.grad)
        stacked.layer("layer1").grad[...] = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        np.testing.assert_array_equal(models[1].layer("layer1").grad, [3.0, 4.0])
        models[2].weights[0] = 9.0
        assert stacked.layer("layer0").weights[2, 0] == 9.0

    def test_copy_of_a_stack_is_an_independent_stack(self):
        stacked = ModelParams.stack([_params([3, 2], np.random.default_rng(seed)) for seed in range(2)])
        stacked.grad[...] = np.arange(10.0).reshape(2, 5)
        clone = stacked.copy()
        assert clone.layer_ids == stacked.layer_ids and np.array_equal(clone.offsets, stacked.offsets)
        assert clone.weights.shape == clone.grad.shape == (2, 5)
        np.testing.assert_array_equal(clone.weights, stacked.weights)
        np.testing.assert_array_equal(clone.grad, stacked.grad)
        before = stacked.weights.copy()
        clone.layer("layer1").weights[...] = 0.0
        clone.grad[...] = -1.0
        np.testing.assert_array_equal(stacked.weights, before)
        np.testing.assert_array_equal(stacked.grad, np.arange(10.0).reshape(2, 5))
        np.testing.assert_array_equal(clone.weights[:, 3:], 0.0)
        assert np.shares_memory(clone.layer("layer0").weights, clone.weights)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_flatten_copies_per_layer_vectors_in_the_model_layout(self, dtype):
        params = ModelParams([ParameterLayer(f"layer{i}", np.ones(n, dtype=dtype)) for i, n in enumerate([3, 2])])
        flat = params.flatten({"layer1": [4.0, 5.0], "layer0": np.array([1.0, 2.0, 3.0])})
        assert flat.dtype == dtype and flat.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert params.flatten({"layer1": [4.0, 5.0]}, partial=True).tolist() == [0.0, 0.0, 0.0, 4.0, 5.0]

    @pytest.mark.parametrize(
        "per_layer,error",
        [
            ({"layer0": [1.0, 2.0, 3.0]}, "missing layer 'layer1'"),
            ({"layer0": [1.0, 2.0, 3.0], "layer1": [4.0, 5.0], "extra": [6.0]}, "unknown layer 'extra'"),
            ({"layer0": [1.0, 2.0, 3.0], "layer1": [4.0]}, r"layer 'layer1' has shape \(1,\)"),
            ({"layer0": [1.0, 2.0, 3.0], "layer1": 4.0}, r"layer 'layer1' has shape \(\)"),
        ],
    )
    def test_flatten_rejects_a_layout_mismatch(self, per_layer, error):
        with pytest.raises(ValueError, match=error):
            _params([3, 2]).flatten(per_layer)

    def test_stack_rejects_mixed_layouts_and_dtypes(self):
        with pytest.raises(ValueError, match="layout"):
            ModelParams.stack([_params([3, 2]), _params([2, 3])])
        f32 = ModelParams([ParameterLayer(f"layer{i}", np.ones(n, dtype=np.float32)) for i, n in enumerate([3, 2])])
        with pytest.raises(ValueError, match="dtype"):
            ModelParams.stack([_params([3, 2]), f32])


class TestStateReport:
    def test_adam_two_full_vectors(self):
        params = _params([250, 250, 250, 250])
        report = state_report("adam", params)
        assert (report.full_vectors, report.per_layer_scalars) == (2, 0)
        assert report.total_state_elements == 2000

    def test_novograd_one_vector_one_scalar(self):
        params = _params([250, 250, 250, 250])
        report = state_report("novograd", params)
        assert (report.full_vectors, report.per_layer_scalars) == (1, 1)
        assert report.total_state_elements == 1004

    def test_novograd_ams_matches_actual_state_layout(self):
        # independent oracle: count the elements a real initialized state holds
        rng = np.random.default_rng(3)
        params = _params([250, 250, 250, 250], rng)
        for layer in params:
            layer.grad[...] = rng.standard_normal(layer.size)
        state = NovoGradState()
        novograd_step(params, state, NovoGradConfig(ams=True), lr_t=0.0)
        layers = state_to_dict("novograd", NovoGradConfig(ams=True), state)["layers"]
        actual = sum(len(layer["m"]) + np.size(layer["v"]) + np.size(layer["v_hat"]) for layer in layers)
        assert actual == 1008
        assert state_report("novograd", params, ams=True).total_state_elements == actual

    def test_adam_report_matches_actual_state_layout(self):
        params = _params([100, 28])
        state = AdamState()
        adam_step(params, state, AdamConfig(), lr_t=0.0)
        actual = sum(len(layer["m"]) + len(layer["v"]) for layer in state_to_dict("adam", AdamConfig(), state)["layers"])
        assert state_report("adam", params).total_state_elements == actual

    def test_sgd_and_sngd(self):
        params = _params([10, 20])
        assert state_report("sgd", params).total_state_elements == 30
        assert state_report("sngd", params).total_state_elements == 0

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            state_report("nope", _params([2]))

    @pytest.mark.parametrize("sizes", [[100], [64, 64, 64, 64], [1, 999]])
    def test_half_footprint_bound(self, sizes):
        params = _params(sizes)
        novograd = state_report("novograd", params).total_state_elements
        adam = state_report("adam", params).total_state_elements
        assert novograd <= -(-adam // 2) + len(sizes)


# --- Config.from_dict -----------------------------------------------------------

_CONFIGS = [
    ScheduleSpec,
    LarcConfig,
    NovoGradConfig,
    AdamConfig,
    SgdMomentumConfig,
    SngdConfig,
    DatasetSpec,
    Checkpoint,
]
_JSON_OBJECTS = st.dictionaries(st.text(max_size=3), st.lists(st.floats(allow_nan=False), max_size=3), max_size=3)


def _field_values(expected, bounds):
    """A strategy for the valid values of a field of type ``expected`` within ``bounds``."""
    if expected is bool:
        return st.booleans()
    if expected is str:
        return st.sampled_from(bounds["choices"])
    if expected is int:
        return st.integers(bounds.get("min", -5), bounds.get("max", 50))
    if expected is float:
        return st.floats(
            min_value=bounds.get("min", bounds.get("above")),
            max_value=bounds.get("max", bounds.get("below")),
            exclude_min="above" in bounds,
            exclude_max="below" in bounds,
            allow_nan=False,
            allow_infinity=False,
        )
    return _JSON_OBJECTS  # a dict, such as a checkpoint's weights and optimizer state


@st.composite
def _valid_configs(draw, cls):
    """An instance of the config dataclass ``cls``, its fields drawn within their declared bounds."""
    values = {name: draw(_field_values(expected, bounds)) for name, expected, bounds in _declared(cls)}
    if cls is ScheduleSpec:  # the rules that span fields
        values["warmup_steps"] %= values["total_steps"]
        values["min_lr"] = min(values["min_lr"], values["base_lr"])
    if cls is DatasetSpec and values["task"] != "multiclass-blobs":
        values.update(n_classes=2, dim=2)
    return cls(**values)


class TestFromDict:
    @pytest.mark.parametrize("cls", _CONFIGS, ids=lambda cls: cls.__name__)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_from_dict_inverts_asdict(self, cls, data):
        config = data.draw(_valid_configs(cls))
        assert cls.from_dict(json.loads(json.dumps(asdict(config))), "section") == config

    @pytest.mark.parametrize(
        "section,message",
        [
            ({"base_lr": 0.1, "total_steps": 5, "bogus": 1}, "unknown key 'bogus' in schedule"),
            ({"total_steps": 5}, "missing key 'base_lr' in schedule"),
            ([("base_lr", 0.1)], "schedule must be of type dict, got [('base_lr', 0.1)]"),
            ({"base_lr": -1, "total_steps": 5}, "base_lr must be > 0, got -1 (in schedule)"),
        ],
    )
    def test_a_key_error_names_the_key_and_the_section(self, section, message):
        with pytest.raises(ValueError) as info:
            ScheduleSpec.from_dict(section, "schedule")
        assert str(info.value) == message

    def test_fixed_fields_are_no_keys(self):
        assert ScheduleSpec.from_dict({"base_lr": 0.1}, "schedule", total_steps=5) == ScheduleSpec(0.1, 5)
        with pytest.raises(ValueError, match="^unknown key 'total_steps' in schedule$"):
            ScheduleSpec.from_dict({"base_lr": 0.1, "total_steps": 5}, "schedule", total_steps=5)


class TestCheckedKeys:
    def test_unknown_then_missing_keys_name_the_key_and_the_section(self):
        assert checked_keys({"a": 1}, "s", ["a", "b"], ["a"]) == {"a": 1}
        assert checked_keys({"z": 1, "a": 1}, "s", None, ["a"]) == {"z": 1, "a": 1}
        with pytest.raises(ValueError, match="^unknown key 'z' in s$"):
            checked_keys({"z": 1}, "s", ["a", "b"], ["a"])
        with pytest.raises(ValueError, match="^missing key 'a' in s$"):
            checked_keys({"b": 1}, "s", ["a", "b"], ["a"])
