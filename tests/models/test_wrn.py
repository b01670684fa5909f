"""Wide residual networks: structure, shapes, the (k_c, k_s) split."""

import numpy as np
import pytest

from repro.models import (
    BasicBlock,
    WideResNet,
    WRNHead,
    WRNHeadBank,
    WRNTrunk,
    scaled_channels,
    wrn_group_widths,
)
from repro.tensor import Tensor, no_grad


class TestWidths:
    def test_scaled_channels_rounding(self):
        assert scaled_channels(64, 0.25) == 16
        assert scaled_channels(64, 1) == 64
        assert scaled_channels(16, 0.01) == 1  # floor at one channel

    def test_group_widths_follow_paper(self):
        # conv_i has 16 * 2^(i-2) * k channels; conv1 fixed at 16 (paper §5.1)
        assert wrn_group_widths(4, 4) == (16, 64, 128, 256)
        assert wrn_group_widths(1, 0.25) == (16, 16, 32, 16)
        assert wrn_group_widths(2, 0.25) == (16, 32, 64, 16)

    def test_kc_ks_independent(self):
        w = wrn_group_widths(2, 8)
        assert w[1] == 32 and w[2] == 64  # controlled by k_c
        assert w[3] == 512  # controlled by k_s


class TestDepthValidation:
    @pytest.mark.parametrize("depth", [10, 16, 22, 28, 40])
    def test_valid_depths(self, depth):
        WideResNet(depth, 1, 1, num_classes=4)

    @pytest.mark.parametrize("depth", [9, 12, 15, 4])
    def test_invalid_depths(self, depth):
        with pytest.raises(ValueError):
            WideResNet(depth, 1, 1, num_classes=4)

    def test_blocks_per_group(self):
        net16 = WideResNet(16, 1, 1, num_classes=2)
        assert len(net16.trunk.groups[0].blocks) == 2  # (16-4)/6
        net10 = WideResNet(10, 1, 1, num_classes=2)
        assert len(net10.trunk.groups[0].blocks) == 1


class TestForwardShapes:
    def test_output_shape(self, rng):
        net = WideResNet(10, 1, 0.5, num_classes=7)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        with no_grad():
            net.eval()
            assert net(x).shape == (2, 7)

    def test_spatial_downsampling(self, rng):
        net = WideResNet(10, 1, 1, num_classes=3)
        x = Tensor(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))
        with no_grad():
            net.eval()
            feats = net.features(x)
        # conv2 stride1, conv3 stride2 -> 16/2 = 8 at library level 3
        assert feats.shape == (1, 32, 8, 8)

    def test_trunk_head_compose(self, rng):
        net = WideResNet(10, 1, 1, num_classes=5)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        with no_grad():
            net.eval()
            direct = net(x).numpy()
            composed = net.head(net.trunk(x)).numpy()
        assert np.allclose(direct, composed)

    def test_arch_name(self):
        assert WideResNet(16, 1, 0.25, 5).arch_name() == "WRN-16-(1, 0.25)"


class TestLibraryLevel:
    def test_level3_trunk_holds_conv1_to_conv3(self):
        net = WideResNet(10, 2, 1, num_classes=4, library_level=3)
        assert len(net.trunk.groups) == 2  # conv2, conv3
        assert len(net.head.groups) == 1  # conv4
        assert net.trunk.out_channels == 64  # 32 * k_c

    def test_level2_trunk_holds_conv1_to_conv2(self):
        net = WideResNet(10, 2, 1, num_classes=4, library_level=2)
        assert len(net.trunk.groups) == 1
        assert len(net.head.groups) == 2
        assert net.trunk.out_channels == 32  # 16 * k_c

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            WRNTrunk(10, 1, 1, library_level=4)

    def test_level2_forward(self, rng):
        net = WideResNet(10, 1, 1, num_classes=4, library_level=2)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        with no_grad():
            net.eval()
            assert net(x).shape == (2, 4)


class TestBasicBlock:
    def test_projection_when_channels_change(self):
        block = BasicBlock(8, 16, stride=1)
        assert block.needs_projection

    def test_projection_when_strided(self):
        block = BasicBlock(8, 8, stride=2)
        assert block.needs_projection

    def test_identity_shortcut(self):
        block = BasicBlock(8, 8, stride=1)
        assert not block.needs_projection
        assert block.shortcut is None

    def test_residual_path(self, rng):
        """With zeroed convolutions the block must be the identity."""
        block = BasicBlock(4, 4, stride=1)
        block.conv1.weight.data[:] = 0
        block.conv2.weight.data[:] = 0
        x = Tensor(rng.standard_normal((1, 4, 5, 5)).astype(np.float32))
        block.eval()
        with no_grad():
            out = block(x)
        assert np.allclose(out.numpy(), x.numpy(), atol=1e-5)

    def test_gradients_reach_all_params(self, rng):
        block = BasicBlock(4, 8, stride=2)
        x = Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32))
        block(x).sum().backward()
        for name, p in block.named_parameters():
            assert p.grad is not None, name


class TestHead:
    def test_head_output_classes(self, rng):
        head = WRNHead(10, 1, 0.25, num_classes=3)
        feats = Tensor(rng.standard_normal((2, 32, 4, 4)).astype(np.float32))
        head.eval()
        with no_grad():
            assert head(feats).shape == (2, 3)

    def test_head_explicit_in_channels(self, rng):
        head = WRNHead(10, 1, 0.25, num_classes=3, in_channels=48)
        feats = Tensor(rng.standard_normal((1, 48, 4, 4)).astype(np.float32))
        head.eval()
        with no_grad():
            assert head(feats).shape == (1, 3)


def _heads(count, depth=10, library_level=3, classes=3):
    return [
        WRNHead(depth, 1, 0.25, classes, library_level, rng=np.random.default_rng(seed))
        for seed in range(count)
    ]


class TestHeadBank:
    """``WRNHeadBank``: G heads stacked on a member axis train as G heads."""

    @pytest.mark.parametrize("depth,library_level", [(10, 3), (16, 2)])
    def test_one_step_matches_each_head_stepped_alone(self, rng, depth, library_level):
        from repro.optim import SGD

        in_channels = 32 if library_level == 3 else 16
        feats = rng.standard_normal((4, in_channels, 4, 4)).astype(np.float32)
        targets = rng.standard_normal((3, 4, 3)).astype(np.float32)
        alone = _heads(3, depth, library_level)
        for head, target in zip(alone, targets):
            optimizer = SGD(list(head.parameters()), lr=0.1)
            ((head(Tensor(feats)) - Tensor(target)) ** 2).sum().backward()
            optimizer.step()
        heads = _heads(3, depth, library_level)
        bank = WRNHeadBank(heads)
        optimizer = SGD(list(bank.parameters()), lr=0.1)
        ((bank(Tensor(feats)) - Tensor(targets)) ** 2).sum().backward()
        optimizer.step()
        assert bank.unstack() == heads
        for trained, reference in zip(heads, alone):
            for (name, value), expected in zip(
                trained.state_dict().items(), reference.state_dict().values()
            ):
                assert np.allclose(value, expected, rtol=1e-5, atol=1e-6), name
        # eval mode: each member's running statistics
        bank.eval()
        with no_grad():
            logits = bank(Tensor(feats)).numpy()
            for member, head in enumerate(alone):
                head.eval()
                assert np.allclose(logits[member], head(Tensor(feats)).numpy(), atol=1e-5)

    def test_unstack_gives_each_head_its_own_contiguous_float32_arrays(self, rng):
        heads = _heads(2)
        params = [list(head.parameters()) for head in heads]
        bank = WRNHeadBank(heads)
        assert all(p.shape[0] == 2 for p in bank.parameters())
        assert len(list(bank.parameters())) == len(params[0])
        bank.unstack()
        for head, before in zip(heads, params):
            assert list(head.parameters()) == before  # the same Parameter objects
            for array in head.state_dict().values():
                assert array.dtype == np.float32 and array.flags.c_contiguous
                assert array.base is None  # a copy, not a view into the bank
                assert not any(np.shares_memory(array, p.data) for p in bank.parameters())

    def test_rejects_heads_of_different_shapes(self):
        with pytest.raises(ValueError):
            WRNHeadBank(_heads(1, classes=2) + _heads(1, classes=3))
        with pytest.raises(ValueError):
            WRNHeadBank([])
