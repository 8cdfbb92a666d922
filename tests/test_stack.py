"""The lockstep grid engine against the one-member paths it replaces: a
stacked network step against each member's own 2-D step, bit for bit;
dropping members from a stack; and train_stack against per-cell train_once
runs, for stacks of 1 to 8 members of both architectures and both losses,
with members that fail mid-stack and one that fails at scoring."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from unmixlab import harness, nn
from unmixlab.harness import (
    ExperimentConfig,
    grid_seeds,
    train_once,
    train_stack,
)
from unmixlab.lmm import HsiBundle, NoiseSpec, generate_endmembers, sample_abundances, synthesize
from unmixlab.metrics import DegenerateSpectrumError, mse_loss, sad_loss

ARCHS = [
    ("original", {"gd_rate": 0.1}, sad_loss),
    ("original", {"gd_rate": 0.1}, mse_loss),
    ("basic", {"n1": 4}, mse_loss),
    ("basic", {"n1": 4}, sad_loss),
]


def _nets(arch, kwargs, count, bands=14, latent=3):
    """count one-member networks, seeded 40, 41, ...: the oracles."""
    nets = []
    for r in range(count):
        net = nn.build_network(arch, bands, latent, **kwargs)
        nets.append(nn.initialize_network(net, "xgu", 40 + r))
    return nets


def _stack(arch, kwargs, count, bands=14, latent=3):
    """The stack of _nets' networks, built and seeded in place."""
    stack = nn.build_network(arch, bands, latent, members=count, **kwargs)
    return nn.initialize_network(stack, "xgu", [40 + r for r in range(count)])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def assert_same_array(a, b):
    assert a.shape == b.shape and a.strides == b.strides
    np.testing.assert_array_equal(_bits(a), _bits(b))


# Python ints on both sides of 2**63: an array of them is float64, whose
# rounding would move every seed above 2**53
MIXED_SEEDS = [5553958407343274720, 2**63 + 12345, 7, 2**64 - 1]


class TestStackedNetwork:
    @pytest.mark.parametrize("arch,kwargs,loss_fn", ARCHS)
    def test_a_stack_step_is_each_members_own_step(self, arch, kwargs, loss_fn):
        """Forward, loss, backward and Adam on a stack of three give every
        member the bits (and the per-member layouts) of its one-member
        network, dropout noise from each member's own seed included."""
        singles = _nets(arch, kwargs, 3)
        stack = _stack(arch, kwargs, 3)
        states = [nn.AdamState(0.01) for _ in singles]
        stack_state = nn.AdamState(0.01)
        rng = np.random.default_rng(3)
        xt = rng.uniform(0.05, 1.0, (40, 14))
        for step, width in enumerate((8, 8, 3, 8)):
            idx = np.stack([rng.permutation(40)[:width] for _ in singles])
            seeds = [100 * step + r for r in range(len(singles))]
            recon, abundances, cache = nn.forward(stack, xt[idx].mT, nn.TRAIN, seeds)
            values, grad = loss_fn(xt[idx].mT, recon)
            nn.backward(stack, cache, grad)
            nn.apply_gradients(stack, stack_state)
            for r, (net, state) in enumerate(zip(singles, states)):
                xb = xt[idx[r]].T
                r_one, a_one, c_one = nn.forward(net, xb, nn.TRAIN, seeds[r])
                assert_same_array(recon[r], r_one)
                assert_same_array(abundances[r], a_one)
                value, grad_one = loss_fn(xb, r_one)
                assert value.shape == () and values[r] == value
                assert_same_array(grad[r], grad_one)
                nn.backward(net, c_one, grad_one)
                assert_same_array(stack.flat_grads[r], net.flat_grads)
                nn.apply_gradients(net, state)
                assert_same_array(stack.flat_params[r], net.flat_params)
                assert_same_array(stack_state.m[r], state.m)
                for name, buf in net.named_buffers().items():
                    assert_same_array(stack.named_buffers()[name][r], buf)

    @pytest.mark.parametrize("arch,kwargs", [("original", {"gd_rate": 0.1}), ("basic", {})])
    @pytest.mark.parametrize("scheme", ["khu", "xgn"])
    def test_per_member_init_is_each_members_own_init(self, arch, kwargs, scheme):
        """Member r of a stack seeded in place has the parameters, buffers,
        checksum and init_seed of a one-member network seeded alone with
        seed r, for seeds below and above 2**63 in one list."""
        stack = nn.build_network(arch, 14, 3, members=len(MIXED_SEEDS), **kwargs)
        nn.initialize_network(stack, scheme, MIXED_SEEDS)
        assert stack.meta["init_seed"] == MIXED_SEEDS
        assert all(type(seed) is int for seed in stack.meta["init_seed"])
        for r, seed in enumerate(MIXED_SEEDS):
            one = nn.initialize_network(nn.build_network(arch, 14, 3, **kwargs), scheme, seed)
            assert_same_array(stack.flat_params[r], one.flat_params)
            assert stack.parameter_checksum(r) == one.parameter_checksum()
            copy_out = stack.member(r)
            assert copy_out.meta == one.meta == {"init_scheme": one.meta["init_scheme"],
                                                 "init_seed": seed}
            assert_same_array(copy_out.flat_params, one.flat_params)
            for name, buf in one.named_buffers().items():
                assert_same_array(copy_out.named_buffers()[name], buf)

    def test_a_wrong_seed_count_is_rejected(self):
        """A stack of three takes three dropout or init seeds, or one for
        all; a list of two or four is refused before anything is drawn."""
        stack = _stack("original", {"gd_rate": 0.3}, 3)
        x = np.random.default_rng(7).uniform(0.05, 1.0, (3, 14, 6))
        version = stack._version
        for seeds in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(ValueError, match=f"{len(seeds)} dropout seeds .* 3 members"):
                nn.forward(stack, x, nn.TRAIN, seeds)
            with pytest.raises(ValueError, match=f"{len(seeds)} init seeds .* 3 members"):
                nn.initialize_network(stack, "xgu", seeds)
        assert stack._version == version and stack._slots == {}
        # one seed serves every member: the eval default, and in train mode
        # every member draws the same noise stream
        nn.forward(stack, x)
        recon = nn.forward(stack, x, nn.TRAIN, 5)[0].copy()
        np.testing.assert_array_equal(recon, nn.forward(stack, x, nn.TRAIN, [5, 5, 5])[0])
        # the dropout layer draws one member per generator, no fewer
        layer = stack.encoder[-1]
        with pytest.raises(ValueError):
            layer.forward(x, nn.TRAIN, [np.random.default_rng(1)] * 2, {})

    def test_a_stack_needs_a_member(self):
        with pytest.raises(ValueError, match="at least one member"):
            nn.build_network("basic", 14, 3, members=0)
        config = _config("basic", "mse")
        with pytest.raises(ValueError, match="at least one member"):
            train_stack(config, _scene(), [])

    def test_members_have_the_leading_axis(self):
        nets = _nets("original", {"gd_rate": 0.1}, 4)
        stack = _stack("original", {"gd_rate": 0.1}, 4)
        assert stack.members == 4 and stack.flat_params.shape[0] == 4
        params = stack.named_parameters()
        assert params["enc0.weight"].shape == (4, 27, 14)
        assert stack.named_buffers()["enc8.running_mean"].shape == (4, 3)
        for name, arr in params.items():
            assert np.shares_memory(arr, stack.flat_params)
            assert np.shares_memory(stack.named_grads[name], stack.flat_grads)
        with pytest.raises(ValueError, match=r"\(4 x 14 x b_s\)"):
            nn.forward(stack, np.ones((14, 5)))
        # an eval forward of the stack, one seed for all members
        x = np.random.default_rng(6).uniform(0.05, 1.0, (4, 14, 5))
        recon, abundances, _ = nn.forward(stack, x)
        for r, net in enumerate(nets):
            r_one, a_one, _ = nn.forward(net, x[r])
            assert_same_array(recon[r], r_one)
            assert_same_array(abundances[r], a_one)

    def test_keep_members_keeps_their_bits(self):
        stack = _stack("original", {"gd_rate": 0.1}, 4)
        x = np.random.default_rng(4).uniform(0.05, 1.0, (4, 14, 6))
        recon, _, cache = nn.forward(stack, x, nn.TRAIN, [1, 2, 3, 4])
        nn.backward(stack, cache, mse_loss(x, recon)[1])
        before = {
            "params": stack.flat_params.copy(), "grads": stack.flat_grads.copy(),
            "buffers": {k: v.copy() for k, v in stack.named_buffers().items()},
        }
        stack.keep_members([3, 1])
        assert stack.members == 2 and stack._slots == {}
        assert stack.meta["init_seed"] == [43, 41]
        assert_same_array(stack.flat_params, before["params"][[3, 1]])
        assert_same_array(stack.flat_grads, before["grads"][[3, 1]])
        for name, buf in stack.named_buffers().items():
            assert_same_array(buf, before["buffers"][name][[3, 1]])
        with pytest.raises(nn.CacheError, match="stale"):
            nn.backward(stack, cache, mse_loss(x, recon)[1])

    def test_a_member_copied_out_after_keep_members(self):
        """After keep_members, member(p) is the kept member alone: its
        parameters, train-moved buffers and init_seed, in arrays of its own,
        checkpointed as its one-member twin is."""
        stack = _stack("original", {"gd_rate": 0.1}, 4)
        x = np.random.default_rng(4).uniform(0.05, 1.0, (4, 14, 6))
        nn.forward(stack, x, nn.TRAIN, [1, 2, 3, 4])
        params = stack.flat_params.copy()
        buffers = {k: v.copy() for k, v in stack.named_buffers().items()}
        stack.keep_members([3, 1])
        for p, old in enumerate([3, 1]):
            one = stack.member(p)
            assert one.members is None and one.arch == "original"
            assert one.meta == {"init_scheme": "glorot_uniform", "init_seed": 40 + old}
            assert_same_array(one.flat_params, params[old])
            for name, buf in one.named_buffers().items():
                assert_same_array(buf, buffers[name][old])
                assert not np.shares_memory(buf, stack.named_buffers()[name])
            assert not np.shares_memory(one.flat_params, stack.flat_params)
            assert one.parameter_checksum() == stack.parameter_checksum(p)
        twin = _nets("original", {"gd_rate": 0.1}, 4)[1]
        nn.forward(twin, x[1], nn.TRAIN, 2)
        assert _checkpoint(stack.member(1)) == _checkpoint(twin)

    def test_a_nonfinite_member_names_itself_and_touches_nothing(self):
        stack = _stack("basic", {"n1": 4}, 3)
        state = nn.AdamState()
        x = np.random.default_rng(5).uniform(0.05, 1.0, (3, 14, 6))
        recon, _, cache = nn.forward(stack, x, nn.TRAIN, [0, 0, 0])
        nn.backward(stack, cache, mse_loss(x, recon)[1])
        stack.named_grads["enc2.bias"][1, 0] = np.nan
        stack.named_grads["enc0.weight"][2, 0, 0] = np.inf
        params = stack.flat_params.copy()
        with pytest.raises(nn.DivergenceError, match="enc2.bias of stack members") as exc:
            nn.apply_gradients(stack, state)
        assert exc.value.members == [1, 2]
        assert state.t == 0 and state.m is None
        assert_same_array(stack.flat_params, params)

    def test_stacks_need_one_architecture_and_have_no_checkpoint(self, tmp_path):
        """Every member of a stack has the stack's one architecture; the
        stack itself has no checkpoint, and a one-member network has no
        member to copy out."""
        stack = _stack("basic", {"n1": 4}, 2)
        specs = [layer.spec() for layer in stack.encoder + [stack.decoder]]
        for r in range(2):
            one = stack.member(r)
            assert [layer.spec() for layer in one.encoder + [one.decoder]] == specs
            assert (one.input_dim, one.latent_dim) == (stack.input_dim, stack.latent_dim)
        with pytest.raises(ValueError, match="one-member"):
            stack.member(0).member(0)
        with pytest.raises(ValueError, match="checkpoint"):
            nn.save_checkpoint(stack, tmp_path / "stack.ckpt")


def _checkpoint(net):
    """The bytes save_checkpoint writes for net."""
    with tempfile.TemporaryDirectory() as tmp:
        nn.save_checkpoint(net, Path(tmp) / "net.ckpt")
        return (Path(tmp) / "net.ckpt").read_bytes()


def _scene():
    w = generate_endmembers(16, 3, smoothness=3, seed=1)
    a = sample_abundances(3, 60, pure_fraction=0.2, seed=2)
    # noise makes every pixel unique, the poisoning's marker pixel too
    return synthesize(w, a, NoiseSpec(0.01), seed=3, name="stack")


def _config(arch, loss, **overrides):
    base = dict(
        experiment_id="stack", architecture=arch, loss=loss, batch_size=15,
        learning_rate=0.01, epochs=2, init_scheme="xgu", n_inits=8,
        runs_per_init=1, master_seed=11, n1=4,
        gd_rate=0.1 if arch == "original" else 0.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _members(config, count):
    """count cells of different initializations and run seeds."""
    return [(*grid_seeds(config.master_seed, i, 1), i, 1) for i in range(1, count + 1)]


def _poisoning(loss_fn, marker):
    """loss_fn, except that a member whose batch holds the marker pixel in
    its first quarter gets an infinite gradient (a failure after the trace
    row of that step), and in its second quarter a NaN loss (a failure
    before it). The marker pixel is in one batch per epoch, at a place
    that the member's run seed sets. poisoned.events lists each poisoning
    as (kind, step)."""
    def poisoned(x, x_hat):
        values, grad = loss_fn(x, x_hat)
        poisoned.steps += 1
        one = x.ndim == 2
        if one:  # a 2-D call is a stack of one
            x, values, grad = x[None], np.array([values]), grad[None]
        width = x.shape[-1]
        for p in range(x.shape[0]):
            at = np.flatnonzero((x[p] == marker[:, None]).all(axis=0))
            if at.size and at[0] < width // 4:
                grad[p, 0, 0] = np.inf
                poisoned.events.append(("gradient", poisoned.steps))
            elif at.size and at[0] < width // 2:
                values[p] = np.nan
                poisoned.events.append(("loss", poisoned.steps))
        return (float(values[0]), grad[0]) if one else (values, grad)
    poisoned.steps, poisoned.events = 0, []
    return poisoned


def _fit_alone(net, config, x, run_seed, trace):
    """The one-network loop that train_stack replaced, on 2-D batches: the
    oracle of a member's training. Trains net in place and returns its
    last loss, or None once a failure stops it (net then holds its state
    at the failure, and trace its rows up to it)."""
    traced = harness._trainable_encoder_layers(net)
    xt = np.ascontiguousarray(x.T)
    state = nn.AdamState(learning_rate=config.learning_rate)
    loss_fn = harness._LOSSES[config.loss]
    has_bn = any(layer.kind == "batch_norm" for layer in net.encoder)
    rng = np.random.default_rng(run_seed)
    iteration, value = 0, None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(x.shape[1])
            for start in range(0, x.shape[1], config.batch_size):
                idx = order[start : start + config.batch_size]
                if idx.size == 1 and has_bn:
                    continue
                xb = xt[idx].T
                seed = int(rng.integers(0, 2**63))
                iteration += 1
                recon, _, cache = nn.forward(net, xb, mode=nn.TRAIN, seed=seed)
                try:
                    value, grad = loss_fn(xb, recon)
                except DegenerateSpectrumError:
                    return None
                if not np.isfinite(value):
                    return None
                nn.backward(net, cache, grad)
                if trace.should_log(iteration):
                    stats = [(net.flat_grads[sl].mean(), net.flat_grads[sl].std())
                             for _, sl in traced]
                    trace.log(iteration, [m for m, _ in stats], [s for _, s in stats])
                try:
                    nn.apply_gradients(net, state)
                except nn.DivergenceError:
                    return None
    return value if np.isfinite(net.flat_params).all() else None


def _assert_matches_the_2d_loop(config, data, members, results, tmp_path):
    """Each member of a train_stack result holds the state, trace and loss
    that _fit_alone gives it."""
    for (init_seed, run_seed, *_), (net, record, trace) in zip(members, results):
        oracle = nn.build_network(config.architecture, data.bands, 3, n1=config.n1,
                                  gd_rate=config.gd_rate)
        nn.initialize_network(oracle, config.init_scheme, init_seed)
        oracle_trace = harness.GradientTrace(trace.layers)
        loss = _fit_alone(oracle, config, data.pixels, run_seed, oracle_trace)
        assert_same_array(net.flat_params, oracle.flat_params)
        for name, buf in oracle.named_buffers().items():
            assert_same_array(net.named_buffers()[name], buf)
        # a failing gradient's row holds NaN, so compare the CSV bytes
        trace.to_csv(tmp_path / "stacked.csv")
        oracle_trace.to_csv(tmp_path / "oracle.csv")
        assert (tmp_path / "stacked.csv").read_bytes() == (
            tmp_path / "oracle.csv"
        ).read_bytes()
        assert record.final_loss == loss or (loss is None and record.diverged)


def _outputs(results, tmp_path):
    """Per member: the record line, the trace CSV and the checkpoint bytes."""
    out = []
    for k, (net, record, trace) in enumerate(results):
        trace.to_csv(tmp_path / f"{k}.csv")
        nn.save_checkpoint(net, tmp_path / f"{k}.ckpt")
        out.append((record.to_json(), (tmp_path / f"{k}.csv").read_bytes(),
                    (tmp_path / f"{k}.ckpt").read_bytes()))
    return out


class TestTrainStack:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("arch,loss", [
        ("basic", "mse"), ("basic", "sad"), ("original", "mse"), ("original", "sad"),
    ])
    def test_a_stack_is_its_cells_trained_alone(self, size, arch, loss, tmp_path,
                                                monkeypatch):
        """Records, traces and checkpoints of a stack are byte-identical to
        per-cell train_once runs, members that fail mid-stack included."""
        data = _scene()
        config = _config(arch, loss)
        poisoned = _poisoning(harness._LOSSES[loss], data.pixels[:, 7].copy())
        monkeypatch.setitem(harness._LOSSES, loss, poisoned)
        members = _members(config, size)
        results = train_stack(config, data, members)
        stacked = _outputs(results, tmp_path)
        alone = [
            _outputs([train_once(config, data, *member)], tmp_path)[0]
            for member in members
        ]
        assert stacked == alone
        _assert_matches_the_2d_loop(config, data, members, results, tmp_path)

    def test_a_zero_norm_column_freezes_the_member_at_that_step(self, tmp_path):
        """A pixel whose squared entries underflow has a zero norm but a
        nonzero dot product: the SAD loss is NaN on it, and a stack
        member whose batch holds it fails at that step."""
        data = _scene()
        pixels = data.pixels.copy()
        pixels[:, 40] = 1e-170
        data = HsiBundle(pixels=pixels, name="underflow")
        config = _config("basic", "sad", latent_dim=3)
        members = _members(config, 3)
        results = train_stack(config, data, members)
        assert all(record.diverged for _, record, _ in results)
        assert len({len(trace) for *_, trace in results}) > 1
        _assert_matches_the_2d_loop(config, data, members, results, tmp_path)

    def test_the_poisoned_stack_fails_both_ways_and_keeps_survivors(self, monkeypatch):
        """The setting above does freeze members mid-stack, before and after
        a trace row, while others train to the end."""
        data = _scene()
        config = _config("basic", "mse")
        poisoned = _poisoning(harness._LOSSES["mse"], data.pixels[:, 7].copy())
        monkeypatch.setitem(harness._LOSSES, "mse", poisoned)
        results = train_stack(config, data, _members(config, 8))
        steps = 2 * 60 // 15
        assert {kind for kind, _ in poisoned.events} == {"gradient", "loss"}
        assert any(step < steps for _, step in poisoned.events)
        # a member poisoned at step s keeps the trace row of s when its
        # gradient failed, and ends at s - 1 when its loss did
        ends = sorted(step - (kind == "loss") for kind, step in poisoned.events)
        assert ends == sorted(len(t) for _, r, t in results if r.diverged)
        survivors = [r for _, r, t in results if not r.diverged]
        assert survivors and all(r.final_loss is not None for r in survivors)
        assert len(survivors) + len(poisoned.events) == 8

    def test_a_zero_decoder_column_at_scoring(self, tmp_path, monkeypatch):
        """The middle member of a stack of three loses an endmember column
        after training: its record is diverged with no loss, scores or
        permutation, and its neighbours' bytes are their train_once runs'."""
        data = _scene()
        config = _config("basic", "mse")
        members = _members(config, 3)
        dead = members[1][0]
        real = harness._score

        def score(net, bundle):
            if net.meta["init_seed"] == dead:
                net.decoder.weight[:, 1] = 0.0
            return real(net, bundle)

        monkeypatch.setattr(harness, "_score", score)
        results = train_stack(config, data, members)
        record = results[1][1]
        assert record.diverged and record.permutation is None
        assert {record.final_loss, record.recon_rmse, record.recon_sad,
                record.abundance_rmse, record.endmember_sad} == {None}
        assert len(results[1][2]) == 2 * 60 // 15
        stacked = _outputs(results, tmp_path)
        for k in (0, 2):
            assert stacked[k] == _outputs([train_once(config, data, *members[k])], tmp_path)[0]


class TestStackSplit:
    @pytest.mark.parametrize("cells, workers, sizes", [
        (1, 1, [1]),
        (4, 1, [4]),
        (4, 2, [2, 2]),
        (4, 4, [1, 1, 1, 1]),
        (8, 1, [8]),
        (9, 1, [5, 4]),
        (17, 2, [6, 6, 5]),
        (100, 1, [8] * 9 + [7] * 4),
        (2500, 2, [8] * 309 + [7] * 4),
    ])
    def test_stacks_cut_the_cells_in_order(self, cells, workers, sizes):
        order = list(range(cells))
        stacks = harness._stacks(order, workers)
        assert [len(s) for s in stacks] == sizes
        assert [c for s in stacks for c in s] == order
