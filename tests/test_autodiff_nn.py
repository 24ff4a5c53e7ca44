"""Unit tests for the nn module system and optimisers."""

import numpy as np
import pytest

from repro.autodiff import Tensor, nn, optim
from tests.oracles.gradcheck import check_gradients


def rng():
    return np.random.default_rng(11)


class TestModuleSystem:
    def test_parameter_discovery_nested(self):
        g = rng()
        model = nn.Sequential(nn.Linear(4, 8, g), nn.ReLU(), nn.Linear(8, 2, g))
        params = model.parameters()
        # 2 linears x (weight + bias)
        assert len(params) == 4

    def test_parameter_discovery_in_dict_and_list(self):
        g = rng()

        class Holder(nn.Module):
            def __init__(self):
                super().__init__()
                self.items = [nn.Linear(2, 2, g), nn.Linear(2, 2, g)]
                self.named = {"a": nn.Linear(2, 2, g)}

        assert len(Holder().parameters()) == 6

    def test_no_duplicate_parameters(self):
        g = rng()

        class Shared(nn.Module):
            def __init__(self):
                super().__init__()
                layer = nn.Linear(2, 2, g)
                self.a = layer
                self.b = layer

        assert len(Shared().parameters()) == 2

    def test_train_eval_propagates(self):
        g = rng()
        model = nn.Sequential(nn.Linear(2, 2, g), nn.BatchNorm2d(2))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_state_roundtrip(self):
        g = rng()
        a = nn.Linear(3, 3, g)
        b = nn.Linear(3, 3, g)
        b.load_arrays(a.state_arrays())
        x = np.ones((1, 3))
        np.testing.assert_allclose(a(Tensor(x)).data, b(Tensor(x)).data)

    def test_load_arrays_validates(self):
        g = rng()
        layer = nn.Linear(3, 3, g)
        with pytest.raises(ValueError):
            layer.load_arrays([np.zeros((3, 3))])  # missing bias
        with pytest.raises(ValueError):
            layer.load_arrays([np.zeros((2, 2)), np.zeros(3)])

class TestLayers:
    def test_linear_shapes(self):
        layer = nn.Linear(4, 7, rng())
        out = layer(Tensor(np.zeros((3, 4))))
        assert out.shape == (3, 7)

    def test_linear_batched_3d(self):
        layer = nn.Linear(4, 7, rng())
        out = layer(Tensor(np.zeros((2, 5, 4))))
        assert out.shape == (2, 5, 7)

    def test_linear_gradcheck(self):
        g = rng()
        layer = nn.Linear(3, 2, g)
        x = Tensor(g.normal(size=(4, 3)), requires_grad=True)
        check_gradients(
            lambda: layer(x).sum(), [x, layer.weight, layer.bias], rtol=1e-3
        )

    def test_conv2d_module_shapes(self):
        layer = nn.Conv2d(3, 8, 3, rng(), stride=2, padding=1)
        out = layer(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_depthwise_module_shapes(self):
        layer = nn.DepthwiseConv2d(5, 3, rng(), padding=1)
        out = layer(Tensor(np.zeros((2, 5, 6, 6))))
        assert out.shape == (2, 5, 6, 6)

    def test_conv1d_module_shapes(self):
        layer = nn.Conv1d(4, 6, 3, rng(), padding=1)
        out = layer(Tensor(np.zeros((2, 4, 10))))
        assert out.shape == (2, 6, 10)

class TestNorms:
    def test_batchnorm2d_normalises(self):
        g = rng()
        bn = nn.BatchNorm2d(3)
        x = Tensor(g.normal(3.0, 2.0, size=(8, 3, 4, 4)))
        out = bn(x)
        assert abs(out.data.mean()) < 1e-6
        assert abs(out.data.std() - 1.0) < 1e-2

    def test_batchnorm2d_running_stats_used_in_eval(self):
        g = rng()
        bn = nn.BatchNorm2d(2)
        for _ in range(50):
            bn(Tensor(g.normal(5.0, 1.0, size=(16, 2, 3, 3))))
        bn.eval()
        out = bn(Tensor(np.full((1, 2, 3, 3), 5.0)))
        # mean input equals running mean => output ~ beta = 0
        assert np.abs(out.data).max() < 0.2

    def test_batchnorm_gradcheck(self):
        g = rng()
        bn = nn.BatchNorm2d(2)
        x = Tensor(g.normal(size=(3, 2, 2, 2)), requires_grad=True)
        check_gradients(
            lambda: bn(x).sum(), [x, bn.gamma, bn.beta], rtol=1e-3, atol=1e-5
        )


class TestAttention:
    def test_self_attention_preserves_shape(self):
        attn = nn.SelfAttention2d(4, rng())
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4, 3, 5)))
        out = attn(x)
        assert out.shape == (2, 4, 3, 5)

    def test_self_attention_zero_gate_is_identity(self):
        attn = nn.SelfAttention2d(4, rng())
        x = Tensor(np.random.default_rng(3).normal(size=(1, 4, 3, 3)))
        np.testing.assert_allclose(attn(x).data, x.data)  # gate initialised to 0

    def test_self_attention_gradcheck(self):
        g = rng()
        attn = nn.SelfAttention2d(2, g)
        attn.gate.data[:] = 0.5
        x = Tensor(g.normal(size=(1, 2, 2, 2)), requires_grad=True)
        check_gradients(lambda: attn(x).sum(), [x], rtol=1e-3, atol=1e-5)

    def test_linear_attention_shapes(self):
        attn = nn.LinearAttention(8, 4, rng(), head_dim=6)
        x = Tensor(np.zeros((2, 10, 8)))
        out = attn(x)
        assert out.shape == (2, 10, 4)

    def test_linear_attention_gradcheck(self):
        g = rng()
        attn = nn.LinearAttention(3, 2, g, head_dim=3)
        x = Tensor(g.normal(size=(1, 4, 3)), requires_grad=True)
        check_gradients(lambda: attn(x).sum(), [x], rtol=1e-3, atol=1e-5)


class TestOptim:
    def _quadratic_problem(self):
        g = rng()
        target = g.normal(size=(4,))
        p = nn.Parameter(np.zeros(4))
        return p, target

    def test_adam_converges(self):
        p, target = self._quadratic_problem()
        opt = optim.Adam([p], lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            ((p - Tensor(target)) ** 2).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-3)

    def test_clip_grad_norm(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        pre = optim.clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_cosine_schedule_endpoints(self):
        p = nn.Parameter(np.zeros(1))
        opt = optim.Adam([p], lr=1.0)
        sched = optim.CosineSchedule(opt, lr_max=1.0, lr_min=0.1, steps=10)
        first = sched.step()
        assert first == pytest.approx(1.0)
        for _ in range(10):
            last = sched.step()
        assert last == pytest.approx(0.1, abs=1e-6)

    def test_adam_skips_none_grads(self):
        p = nn.Parameter(np.ones(2))
        opt = optim.Adam([p], lr=0.1)
        opt.step()  # no backward called; should be a no-op
        np.testing.assert_allclose(p.data, np.ones(2))
