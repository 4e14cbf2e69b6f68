"""ChebNet reconstruction network with hand-written reverse-mode gradients.

Architecture: one Chebyshev graph convolution (elu) over the lag
channels, flatten, a stack of fully-connected layers (leaky relu), and a
linear output layer. Gradients are derived by hand and checked against
central differences in the tests, so every forward quantity needed for
the backward pass is cached explicitly.
"""

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import InvalidInputError

LEAKY_ALPHA = 0.2  # negative-side slope of the hidden FC activations


def elu(x, out=None, scratch=None):
    """exp(x) - 1 for x < 0, identity otherwise.

    Branch-free: expm1 only sees min(x, 0), so a large positive x cannot
    overflow. out and scratch, when given, receive the result and the
    negative part instead of new arrays.
    """
    neg = np.minimum(x, 0.0, out=scratch)
    np.expm1(neg, out=neg)
    pos = np.maximum(x, 0.0, out=out)
    pos += neg
    return pos


def elu_grad(x, out=None):
    """exp(min(x, 0)): exp(x) for x < 0, 1 otherwise."""
    g = np.minimum(x, 0.0, out=out)
    np.exp(g, out=g)
    return g


def leaky_relu(x, alpha, out=None):
    """alpha * x for x < 0, identity otherwise (0 < alpha < 1).

    Branch-free; out, when given, receives the result."""
    scaled = np.multiply(x, alpha, out=out)
    return np.maximum(x, scaled, out=scaled)


def leaky_relu_grad(x, alpha):
    return np.where(x < 0, alpha, 1.0)


@dataclass(frozen=True)
class ChebNetConfig:
    """The architecture init_params builds a net from; its node and output
    counts come from the data, and the built params carry all of it."""

    cheb_order: int           # Chebyshev polynomial order K
    f_out: int                # GConv output channels
    fc_sizes: Tuple[int, ...] # hidden widths after flatten
    h: int = 0                # input lag depth; input channels = h + 1

    def __post_init__(self):
        if self.cheb_order < 0:
            raise InvalidInputError("cheb_order must be >= 0")
        if self.f_out < 1 or any(w < 1 for w in self.fc_sizes):
            raise InvalidInputError("f_out and fc widths must be >= 1")
        if self.h < 0:
            raise InvalidInputError("h must be >= 0")


@dataclass(frozen=True)
class ChebNetParams:
    """A net's tensors, each a view of one contiguous vector, so an
    optimizer steps the whole net as one array; their shapes are its
    architecture."""

    vector: np.ndarray              # every entry, in tensor_items order
    theta: np.ndarray               # (K+1, f_in, f_out)
    gconv_bias: np.ndarray          # (n, f_out)
    fc_weights: List[np.ndarray]    # hidden layers then the linear output
    fc_biases: List[np.ndarray]

    @property
    def h(self):  # input lag depth
        return self.theta.shape[1] - 1


def tensor_items(params: ChebNetParams):
    """Named parameter tensors in a fixed order."""
    items = [("theta", params.theta), ("gconv_bias", params.gconv_bias)]
    for m, (W, b) in enumerate(zip(params.fc_weights, params.fc_biases)):
        items.append((f"fc_w{m}", W))
        items.append((f"fc_b{m}", b))
    return items


def _on_vector(vector, shapes) -> ChebNetParams:
    """The net whose tensors, of the given shapes in tensor_items order,
    are consecutive views of vector."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(vector[start:start + size].reshape(shape))
        start += size
    return ChebNetParams(vector, views[0], views[1], views[2::2], views[3::2])


def init_params(config: ChebNetConfig, n, out_dim, seed=0) -> ChebNetParams:
    """Parameters of a net on n graph nodes with out_dim outputs:
    uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    rng = np.random.default_rng(seed)

    def glorot(shape, fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)

    K1, f_in = config.cheb_order + 1, config.h + 1
    dims = [n * config.f_out] + list(config.fc_sizes) + [out_dim]
    shapes = [(K1, f_in, config.f_out), (n, config.f_out)]
    for m in range(len(dims) - 1):
        shapes += [(dims[m + 1], dims[m]), (dims[m + 1],)]
    params = _on_vector(np.zeros(sum(map(math.prod, shapes))), shapes)
    params.theta[:] = glorot(shapes[0], K1 * f_in, config.f_out)
    for m, W in enumerate(params.fc_weights):  # the biases stay zero
        W[:] = glorot(W.shape, dims[m], dims[m + 1])
    return params


def scale_laplacian(L, lam_max):
    """Rescale a Laplacian so its spectrum lies in [-1, 1]:
    L_tilde = 2 L / lam_max - Id."""
    L = np.asarray(L, dtype=float)
    if lam_max <= 0:
        raise InvalidInputError(f"lam_max must be positive, got {lam_max}")
    return 2.0 * L / lam_max - np.eye(L.shape[0])


def cheb_values(lam, K):
    """Chebyshev polynomials T_0..T_K at the points lam, shape (K+1, n).

    T_0 = 1, T_1 = lam, T_k = 2 lam T_{k-1} - T_{k-2}.
    """
    lam = np.asarray(lam, dtype=float)
    T = np.empty((K + 1, lam.size))
    T[0] = 1.0
    if K >= 1:
        T[1] = lam
    for k in range(2, K + 1):
        T[k] = 2.0 * lam * T[k - 1] - T[k - 2]
    return T


class Workspace:
    """What one training run reuses from batch to batch.

    forward_batch and backward_batch write their batch-sized
    intermediates and the parameter gradients into a workspace instead
    of allocating them, which spares the page faults of freeing and
    refetching the same memory on every batch. Each named buffer is as
    large as the largest array it has served, and a smaller one is a
    view of its leading part, so a run that alternates batch sizes keeps
    its pages. A pass's cache, gradients and input gradient hold views
    into its workspace and are valid only until the next pass on the
    same workspace.

    The workspace also holds the Chebyshev table of the spectrum the run
    filters with, built on the first forward pass. It is kept while the
    passes hand in the same eigenvalue array, which must not change in
    place meanwhile, and rebuilt for any other.
    """

    def __init__(self):
        self._buffers = {}
        self._cheb = None  # (eigenvalue array, its table)

    def take(self, name, shape):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def cheb_table(self, lam, K):
        """cheb_values(lam, K), reused while lam is the same array."""
        if (self._cheb is None or self._cheb[0] is not lam
                or self._cheb[1].shape[0] != K + 1):
            self._cheb = (lam, cheb_values(lam, K))
        return self._cheb[1]


def forward_batch(Xb, params: ChebNetParams, spectrum, workspace: Workspace,
                  want_cache=False):
    """Batched forward pass; Xb has shape (B, n, f_in).

    spectrum is the EigenPair (lam, U) of the rescaled Laplacian L_tilde.
    The filter sum_k theta_k T_k(L_tilde) equals U diag(h) U^T with
    h = sum_k theta_k T_k(lam), so it is applied in the graph Fourier
    basis. Returns (B, out_dim) outputs, plus the intermediate cache when
    want_cache is set. The batch-sized intermediates are written into
    workspace, and the Chebyshev table is the one it holds.
    """
    Xb = np.asarray(Xb, dtype=float)
    K1, f_in, f_out = params.theta.shape
    n = params.gconv_bias.shape[0]
    if Xb.ndim != 3 or Xb.shape[1] != n or Xb.shape[2] != f_in:
        raise InvalidInputError(f"input must be (B, {n}, {f_in}), got {Xb.shape}")
    B = Xb.shape[0]
    in_shape, g_shape = Xb.shape, (B, n, f_out)
    U = spectrum.vectors
    T = workspace.cheb_table(spectrum.values, K1 - 1)            # (K+1, n)
    h = np.einsum("kj,kfo->jfo", T, params.theta)                # (n, f_in, f_out)
    X_hat = np.matmul(U.T, Xb, out=workspace.take("X_hat", in_shape))
    # "tmp" holds Z, then the negative part of elu, then in backward_batch
    # the first FC layer's input gradient and dG_hat; each is dead before
    # the next is written, and the cache never refers to it
    Z = np.einsum("bjf,jfo->bjo", X_hat, h, out=workspace.take("tmp", g_shape))
    G_pre = np.matmul(U, Z, out=workspace.take("G_pre", g_shape))
    G_pre += params.gconv_bias
    A1 = elu(G_pre, out=workspace.take("A1", g_shape),
             scratch=workspace.take("tmp", g_shape))
    f = A1.reshape(B, n * f_out)
    pre_acts = []
    feats = [f]
    n_hidden = len(params.fc_weights) - 1
    for m in range(n_hidden):
        fc_shape = (B, params.fc_weights[m].shape[0])
        u = np.matmul(f, params.fc_weights[m].T, out=workspace.take(f"u{m}", fc_shape))
        u += params.fc_biases[m]
        pre_acts.append(u)
        f = leaky_relu(u, LEAKY_ALPHA, out=workspace.take(f"a{m}", fc_shape))
        feats.append(f)
    out = f @ params.fc_weights[-1].T + params.fc_biases[-1]
    if not want_cache:
        return out
    cache = {"X_hat": X_hat, "T": T, "h": h, "G_pre": G_pre,
             "pre_acts": pre_acts, "feats": feats}
    return out, cache


def backward_batch(dout, cache, params: ChebNetParams, spectrum,
                   workspace: Workspace, want_input_grad=False):
    """Reverse-mode gradients from dL/dout of shape (B, out_dim).

    Returns (grads: ChebNetParams, dXb or None), grads laid out on one
    vector like params. dout must already include the loss
    normalization. The gradients, the (B, n, f_out) intermediates and
    dXb are written into workspace.
    """
    feats = cache["feats"]
    pre_acts = cache["pre_acts"]
    g_shape = cache["G_pre"].shape

    grads = _on_vector(workspace.take("grads", params.vector.shape),
                       [t.shape for _, t in tensor_items(params)])
    df = dout
    for m in range(len(params.fc_weights) - 1, -1, -1):
        if m < len(pre_acts):  # hidden layers; the output layer is linear
            # df is the product made below for layer m + 1, never dout
            df *= leaky_relu_grad(pre_acts[m], LEAKY_ALPHA)
        np.matmul(df.T, feats[m], out=grads.fc_weights[m])
        df.sum(axis=0, out=grads.fc_biases[m])
        df = np.matmul(df, params.fc_weights[m],
                       out=workspace.take("tmp", feats[0].shape) if m == 0 else None)

    dA1 = df.reshape(g_shape)
    dG = elu_grad(cache["G_pre"], out=workspace.take("dG", g_shape))
    dG *= dA1
    U = spectrum.vectors
    dG_hat = np.matmul(U.T, dG, out=workspace.take("tmp", g_shape))
    dh = np.einsum("bjf,bjo->jfo", cache["X_hat"], dG_hat)
    np.einsum("kj,jfo->kfo", cache["T"], dh, out=grads.theta)
    dG.sum(axis=0, out=grads.gconv_bias)

    dXb = None
    if want_input_grad:
        in_shape = cache["X_hat"].shape
        dX_hat = np.einsum("jfo,bjo->bjf", cache["h"], dG_hat,
                           out=workspace.take("dX_hat", in_shape))
        dXb = np.matmul(U, dX_hat, out=workspace.take("dXb", in_shape))
    return grads, dXb
