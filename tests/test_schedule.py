import math
from dataclasses import asdict

import numpy as np
import pytest

from novobench.optim import SgdMomentumConfig, sgd_momentum_step, state_from_dict
from novobench.params import ModelParams, ParameterLayer
from novobench.schedule import FAMILIES, LarcConfig, ScheduleSpec, larc_scale, lr_at


class TestLrAt:
    def test_cosine_endpoints_and_midpoint(self):
        spec = ScheduleSpec(base_lr=0.2, total_steps=100, family="cosine")
        assert lr_at(spec, 0) == 0.2
        assert lr_at(spec, 100) == 0.0
        assert lr_at(spec, 50) == pytest.approx(0.1, rel=1e-12)

    def test_polynomial_quadratic_midpoint(self):
        spec = ScheduleSpec(base_lr=0.4, total_steps=100, family="polynomial", power=2.0)
        assert lr_at(spec, 50) == 0.25 * 0.4

    def test_warmup_interpolation(self):
        spec = ScheduleSpec(base_lr=0.06, total_steps=1000, family="cosine", warmup_steps=500)
        assert lr_at(spec, 249) == 0.03
        assert lr_at(spec, 0) == 0.06 / 500  # never exactly zero

    def test_constant_family(self):
        spec = ScheduleSpec(base_lr=0.05, total_steps=10, family="constant")
        assert all(lr_at(spec, t) == 0.05 for t in range(11))

    @pytest.mark.parametrize("family", ["cosine", "polynomial"])
    def test_decay_reaches_min_lr_exactly(self, family):
        spec = ScheduleSpec(base_lr=0.3, total_steps=77, family=family, power=1.7)
        assert lr_at(spec, 77) == 0.0
        floored = ScheduleSpec(base_lr=0.3, total_steps=77, family=family, min_lr=0.01)
        assert lr_at(floored, 77) == 0.01

    @pytest.mark.parametrize("family", ["cosine", "polynomial"])
    def test_monotone_decay_and_warmup(self, family):
        spec = ScheduleSpec(
            base_lr=0.25, total_steps=137, family=family, power=2.0, warmup_steps=17, min_lr=0.001
        )
        values = [lr_at(spec, t) for t in range(spec.total_steps + 1)]
        warm = values[: spec.warmup_steps]
        decay = values[spec.warmup_steps :]
        assert all(a <= b for a, b in zip(warm, warm[1:]))
        assert all(a >= b for a, b in zip(decay, decay[1:]))
        assert all(spec.min_lr <= v <= spec.base_lr for v in values)

    def test_exhausted_schedule(self):
        spec = ScheduleSpec(base_lr=0.1, total_steps=10)
        with pytest.raises(ValueError, match="schedule exhausted"):
            lr_at(spec, 11)
        with pytest.raises(ValueError, match="negative step"):
            lr_at(spec, -1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_lr": 0.0, "total_steps": 10},
            {"base_lr": 0.1, "total_steps": 0},
            {"base_lr": 0.1, "total_steps": 10, "family": "exponential"},
            {"base_lr": 0.1, "total_steps": 10, "warmup_steps": 10},
            {"base_lr": 0.1, "total_steps": 10, "min_lr": -0.1},
            {"base_lr": 0.1, "total_steps": 10, "min_lr": 0.2},
            {"base_lr": 0.1, "total_steps": 10, "power": 0.0},
        ],
    )
    def test_validation_errors(self, kwargs):
        with pytest.raises(ValueError):
            ScheduleSpec(**kwargs)

    def test_families_list(self):
        assert FAMILIES == ("constant", "cosine", "polynomial")


class TestLarcScale:
    def test_clipping_example(self):
        cfg = LarcConfig(trust_coefficient=0.001, clip=True, eps_div=0.0)
        scale = larc_scale(10.0, 1.0, 0.1, cfg)
        assert scale == pytest.approx(0.1, rel=1e-15)

    def test_saturated_trust_passes_through(self):
        cfg = LarcConfig(trust_coefficient=0.5)
        assert larc_scale(100.0, 0.001, 0.1, cfg) == 1.0

    def test_degenerate_guards(self):
        cfg = LarcConfig()
        assert larc_scale(0.0, 1.0, 0.1, cfg) == 1.0
        assert larc_scale(1.0, 1.0, 0.0, cfg) == 1.0
        assert larc_scale(1.0, 0.0, 0.1, LarcConfig(eps_div=0.0)) == 1.0

    def test_unclipped_returns_raw_ratio(self):
        cfg = LarcConfig(trust_coefficient=0.001, clip=False, eps_div=0.0)
        assert larc_scale(10.0, 1.0, 0.001, cfg) == pytest.approx(10.0, rel=1e-15)

    def test_negative_inputs_rejected(self):
        cfg = LarcConfig()
        with pytest.raises(ValueError):
            larc_scale(-1.0, 1.0, 0.1, cfg)
        with pytest.raises(ValueError):
            larc_scale(1.0, -1.0, 0.1, cfg)
        with pytest.raises(ValueError, match="negative learning rate"):
            larc_scale(1.0, 1.0, -0.1, cfg)
        for lr in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite learning rate"):
                larc_scale(1.0, 1.0, lr, cfg)
        for norms in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="norms must be nonnegative"):
                larc_scale(*norms, 0.1, cfg)
        # an infinite norm is what a finite gradient whose squares overflow has
        assert larc_scale(1.0, math.inf, 0.1, cfg) == 0.0
        assert larc_scale(math.inf, 1.0, 0.1, cfg) == 1.0

    def test_scale_bounded_by_one_when_clipping(self):
        rng = np.random.default_rng(71)
        cfg = LarcConfig(trust_coefficient=0.02)
        for _ in range(200):
            scale = larc_scale(
                float(rng.uniform(1e-6, 100)), float(rng.uniform(0, 100)), float(rng.uniform(1e-6, 1)), cfg
            )
            assert 0.0 < scale <= 1.0

    def test_commutes_through_gradient_for_plain_sgd(self):
        rng = np.random.default_rng(73)
        w = rng.standard_normal(5)
        g = rng.standard_normal(5)
        cfg = LarcConfig(trust_coefficient=0.001)
        from novobench.params import l2_norm_sq

        scale = larc_scale(math.sqrt(l2_norm_sq(w)), math.sqrt(l2_norm_sq(g)), 0.1, cfg)

        pre_scaled = ModelParams([ParameterLayer("w", w.copy(), scale * g)])
        larc_applied = ModelParams([ParameterLayer("w", w.copy(), g.copy())])
        larc_applied.layer("w").grad *= scale
        sgd_cfg = SgdMomentumConfig(momentum=0.0)
        m = rng.standard_normal(5).tolist()  # momentum 0: the moment read from the document drops out
        for params in (pre_scaled, larc_applied):
            doc = {"format_version": 1, "algorithm": "sgd", "config": asdict(sgd_cfg), "step_count": 1, "layers": [{"id": "w", "m": m}]}
            sgd_momentum_step(params, state_from_dict(doc)[2], sgd_cfg, 0.1)
        np.testing.assert_array_equal(
            pre_scaled.layer("w").weights, larc_applied.layer("w").weights
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LarcConfig(trust_coefficient=0.0)
        with pytest.raises(ValueError):
            LarcConfig(eps_div=-1.0)
