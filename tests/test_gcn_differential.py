"""The network's fast paths against their plain references.

The branch-free activations, the in-place Adam step and the optimizer
steps on a net's flat vector must give the same values as the np.where
activations, the allocating Adam step and a step per tensor. Every
pass runs on a workspace, so a warm one that has served other batch
sizes must give the same values as a fresh one; the layers themselves
are checked against the dense Chebyshev recursion and central
differences in test_gcn.py.
"""

import tracemalloc

import numpy as np

from netselect.gcn.layers import (
    ChebNetConfig,
    Workspace,
    elu,
    elu_grad,
    forward_batch,
    init_params,
    leaky_relu,
    tensor_items,
)
from netselect.gcn.train import (
    TrainConfig,
    batch_loss,
    make_optimizer,
    train_prediction_net,
)
from netselect.numerics import sym_eig
from netselect.timeseries import Split
from oracles import AdamAllocating, elu_grad_where, elu_where, leaky_relu_where

SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 1e3, -1e3, np.inf, -np.inf])


def _spectrum(n, seed):
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(n, n))
    S = (S + S.T) / 2.0
    return sym_eig(S / np.max(np.abs(np.linalg.eigvalsh(S))))


def _net(n=12, f_out=3, out_dim=5, h=1, fc_sizes=(7,), cheb_order=5, seed=0):
    config = ChebNetConfig(cheb_order=cheb_order, f_out=f_out, fc_sizes=fc_sizes, h=h)
    params = init_params(config, n, out_dim, seed=seed)
    params.gconv_bias[:] = np.random.default_rng(seed).normal(size=(n, f_out))
    return config, params, _spectrum(n, seed)


def _assert_grads_equal(got, ref):
    for (name, a), (_, b) in zip(tensor_items(got), tensor_items(ref)):
        assert np.array_equal(a, b), name


def test_activations_never_exponentiate_a_positive_input():
    x = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
    with np.errstate(over="raise", invalid="raise"):
        assert np.array_equal(elu(x), [np.expm1(-800.0), np.expm1(-1.0), 0.0, 1.0, 800.0])
        assert np.array_equal(elu_grad(x), [np.exp(-800.0), np.exp(-1.0), 1.0, 1.0, 1.0])
        assert np.array_equal(leaky_relu(x, 0.2), [-160.0, -0.2, 0.0, 1.0, 800.0])


def test_activations_equal_the_where_forms():
    for seed, scale in ((0, 1.0), (1, 30.0), (2, 1e-300)):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=scale, size=(48, 40, 8))
        x.flat[rng.choice(x.size, SPECIAL.size, replace=False)] = SPECIAL
        # the references exponentiate the positive side, which overflows
        with np.errstate(over="ignore"):
            ref_elu, ref_grad = elu_where(x), elu_grad_where(x)
        assert np.array_equal(elu(x), ref_elu)
        assert np.array_equal(elu_grad(x), ref_grad)
        for alpha in (0.2, 0.01):
            assert np.array_equal(leaky_relu(x, alpha), leaky_relu_where(x, alpha))
        # the workspace form writes into out and scratch
        out, scratch = np.empty_like(x), np.empty_like(x)
        assert elu(x, out=out, scratch=scratch) is out
        assert np.array_equal(out, ref_elu)
        assert elu_grad(x, out=scratch) is scratch
        assert np.array_equal(scratch, ref_grad)


def test_adam_step_equals_the_allocating_step():
    rng = np.random.default_rng(7)
    shapes = [(21, 2, 3), (12, 3), (7, 36), (7,), (5, 7), (5,)]
    start = [rng.normal(size=s) for s in shapes]
    fast, ref = make_optimizer("adam", 0.05), AdamAllocating(0.05)
    fast_tensors = [t.copy() for t in start]
    ref_tensors = [t.copy() for t in start]
    for _ in range(20):
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s) for s in shapes]
        fast.step(fast_tensors, grads)
        ref.step(ref_tensors, grads)
    for a, b, ma, mb, va, vb in zip(fast_tensors, ref_tensors, fast.m, ref.m,
                                    fast.v, ref.v):
        assert np.array_equal(a, b)
        assert np.array_equal(ma, mb)
        assert np.array_equal(va, vb)


def test_flat_vector_steps_equal_the_per_tensor_steps():
    # the trainers step a net as the one vector its tensors are views of,
    # beside the mask w with its clip to [0, 1], as the masking rule does;
    # each entry must move as under a step per tensor
    class GDPerTensor:
        def __init__(self, lr):
            self.lr = lr

        def step(self, tensors, grads):
            for t, g in zip(tensors, grads):
                t -= self.lr * g

    for kind, reference in (("adam", AdamAllocating), ("gd", GDPerTensor)):
        _, params, _ = _net(n=12, out_dim=12)
        rng = np.random.default_rng(9)
        w = rng.uniform(size=12)
        ref_tensors = [t.copy() for _, t in tensor_items(params)] + [w.copy()]
        fast, ref = make_optimizer(kind, 0.05), reference(0.05)
        clipped = 0
        for _ in range(60):
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=t.shape)
                     for t in ref_tensors]
            fast.step([params.vector, w],
                      [np.concatenate([g.ravel() for g in grads[:-1]]), grads[-1]])
            np.clip(w, 0.0, 1.0, out=w)
            clipped += int(np.sum((w == 0.0) | (w == 1.0)))
            ref.step(ref_tensors, grads)
            np.clip(ref_tensors[-1], 0.0, 1.0, out=ref_tensors[-1])
        for (name, a), b in zip(tensor_items(params), ref_tensors):
            assert np.array_equal(a, b), (kind, name)
        assert np.array_equal(w, ref_tensors[-1]), kind
        assert clipped > 0, kind  # the clip took part


def test_workspace_gives_the_same_loss_and_gradients():
    n, out_dim = 12, 5
    _, params, spectrum = _net(n=n, out_dim=out_dim)
    rng = np.random.default_rng(3)
    workspace = Workspace(spectrum)
    # the buffers serve the largest batch; a smaller one reuses their head
    for B in (480, 160, 480):
        Xb = rng.normal(size=(B, n, params.h + 1))
        target = rng.normal(size=(B, out_dim))
        weight = rng.uniform(size=(1, out_dim))
        ref = batch_loss(Xb, target, weight, params, Workspace(spectrum),
                         want_input_grad=True)
        got = batch_loss(Xb, target, weight, params, workspace,
                         want_input_grad=True)
        assert got[0] == ref[0]
        _assert_grads_equal(got[1], ref[1])
        assert np.array_equal(got[2], ref[2])
        assert got[3].shape == (B, n, params.h + 1)
        assert np.array_equal(got[3], ref[3])
        assert np.array_equal(forward_batch(Xb, params, workspace),
                              forward_batch(Xb, params, Workspace(spectrum)))


def test_prediction_nets_trained_in_turn_on_one_workspace():
    # evaluate retrains one net per random draw on a shared workspace;
    # each must equal the net trained on a workspace of its own
    n, T = 12, 300
    rng = np.random.default_rng(6)
    X = rng.normal(size=(n, T))
    spectrum = _spectrum(n, 7)
    split = Split(220, 260, T)
    config = ChebNetConfig(cheb_order=3, f_out=2, fc_sizes=(6,), h=1)
    train = TrainConfig(lr=0.01, batch_size=40, max_epoch=3, seed=0)
    workspace = Workspace(spectrum)
    for I in ([0, 5], [3, 11], [0, 5]):
        shared, shared_val = train_prediction_net(X, split, workspace, I, config, train)
        own, own_val = train_prediction_net(X, split, Workspace(spectrum), I, config,
                                            train)
        assert shared_val == own_val
        _assert_grads_equal(shared, own)


def test_a_step_on_a_warm_workspace_allocates_less_than_one_block():
    # the gcn-mask benchmark's prediction net: one 480-row batch per step
    B, n, out_dim = 480, 40, 4
    config, params, spectrum = _net(n=n, f_out=8, out_dim=out_dim, h=0, fc_sizes=(64,),
                                    cheb_order=20)
    rng = np.random.default_rng(5)
    Xb = rng.normal(size=(B, n, params.h + 1))
    target = rng.normal(size=(B, out_dim))
    workspace = Workspace(spectrum)
    opt = make_optimizer("adam", 0.001)

    def step():
        _, grads, _, _ = batch_loss(Xb, target, 1.0, params, workspace)
        opt.step([params.vector], [grads.vector])

    step()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = B * n * config.f_out * 8
    assert peak - base < block, f"step peaked {peak - base} bytes over a {block}-byte block"
