"""ChebNet reconstruction network with hand-written reverse-mode gradients.

Architecture: one Chebyshev graph convolution (elu) over the lag
channels, flatten, a stack of fully-connected layers (leaky relu), and a
linear output layer. Gradients are derived by hand and checked against
central differences in the tests, so every forward quantity needed for
the backward pass is cached explicitly.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import InvalidInputError


def elu(x):
    """exp(x) - 1 for x < 0, identity otherwise."""
    return np.where(x < 0, np.expm1(x), x)


def elu_grad(x):
    return np.where(x < 0, np.exp(x), 1.0)


def leaky_relu(x, alpha):
    """alpha * x for x < 0, identity otherwise."""
    return np.where(x < 0, alpha * x, x)


def leaky_relu_grad(x, alpha):
    return np.where(x < 0, alpha, 1.0)


@dataclass(frozen=True)
class ChebNetConfig:
    n: int                    # graph nodes
    cheb_order: int           # Chebyshev polynomial order K
    f_out: int                # GConv output channels
    fc_sizes: Tuple[int, ...] # hidden widths after flatten
    out_dim: int              # p (prediction net) or n (selection nets)
    h: int = 0                # input lag depth; input channels = h + 1
    leaky_alpha: float = 0.2

    def __post_init__(self):
        if self.cheb_order < 0:
            raise InvalidInputError("cheb_order must be >= 0")
        if self.n < 1 or self.f_out < 1 or self.out_dim < 1:
            raise InvalidInputError("n, f_out, out_dim must be >= 1")
        if any(w < 1 for w in self.fc_sizes):
            raise InvalidInputError("fc widths must be >= 1")
        if not (0 < self.leaky_alpha < 1):
            raise InvalidInputError("leaky_alpha must be in (0, 1)")
        if self.h < 0:
            raise InvalidInputError("h must be >= 0")

    @property
    def f_in(self):
        return self.h + 1


@dataclass
class ChebNetParams:
    theta: np.ndarray               # (K+1, f_in, f_out)
    gconv_bias: np.ndarray          # (n, f_out)
    fc_weights: List[np.ndarray]    # hidden layers then the linear output
    fc_biases: List[np.ndarray]


def tensor_items(params: ChebNetParams):
    """Named parameter tensors in a fixed order."""
    items = [("theta", params.theta), ("gconv_bias", params.gconv_bias)]
    for m, (W, b) in enumerate(zip(params.fc_weights, params.fc_biases)):
        items.append((f"fc_w{m}", W))
        items.append((f"fc_b{m}", b))
    return items


def init_params(config: ChebNetConfig, seed=0) -> ChebNetParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    rng = np.random.default_rng(seed)

    def glorot(shape, fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)

    K1 = config.cheb_order + 1
    theta = glorot((K1, config.f_in, config.f_out), K1 * config.f_in, config.f_out)
    gconv_bias = np.zeros((config.n, config.f_out))
    dims = [config.n * config.f_out] + list(config.fc_sizes) + [config.out_dim]
    fc_weights = [
        glorot((dims[m + 1], dims[m]), dims[m], dims[m + 1])
        for m in range(len(dims) - 1)
    ]
    fc_biases = [np.zeros(dims[m + 1]) for m in range(len(dims) - 1)]
    return ChebNetParams(theta, gconv_bias, fc_weights, fc_biases)


def pack_params(params: ChebNetParams):
    """Flatten all tensors to one vector (for finite-difference checks)."""
    return np.concatenate([a.ravel() for _, a in tensor_items(params)])


def unpack_params(vector, like: ChebNetParams) -> ChebNetParams:
    out_tensors = []
    pos = 0
    for _, a in tensor_items(like):
        chunk = vector[pos:pos + a.size]
        if chunk.size != a.size:
            raise InvalidInputError("vector length does not match parameter shapes")
        out_tensors.append(chunk.reshape(a.shape))
        pos += a.size
    if pos != vector.size:
        raise InvalidInputError("vector length does not match parameter shapes")
    theta, gconv_bias = out_tensors[0], out_tensors[1]
    rest = out_tensors[2:]
    fc_weights = rest[0::2]
    fc_biases = rest[1::2]
    return ChebNetParams(theta, gconv_bias, list(fc_weights), list(fc_biases))


def zeros_like_params(params: ChebNetParams) -> ChebNetParams:
    return ChebNetParams(
        np.zeros_like(params.theta),
        np.zeros_like(params.gconv_bias),
        [np.zeros_like(W) for W in params.fc_weights],
        [np.zeros_like(b) for b in params.fc_biases],
    )


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


def forward_batch(Xb, params: ChebNetParams, config: ChebNetConfig, spectrum,
                  want_cache=False):
    """Batched forward pass; Xb has shape (B, n, f_in).

    spectrum is the EigenPair (lam, U) of the rescaled Laplacian L_tilde.
    The filter sum_k theta_k T_k(L_tilde) equals U diag(h) U^T with
    h = sum_k theta_k T_k(lam), so it is applied in the graph Fourier
    basis. Returns (B, out_dim) outputs, plus the intermediate cache when
    want_cache is set.
    """
    Xb = np.asarray(Xb, dtype=float)
    if Xb.ndim != 3 or Xb.shape[1] != config.n or Xb.shape[2] != config.f_in:
        raise InvalidInputError(
            f"input must be (B, {config.n}, {config.f_in}), got {Xb.shape}"
        )
    U = spectrum.vectors
    T = cheb_values(spectrum.values, config.cheb_order)         # (K+1, n)
    h = np.einsum("kj,kfo->jfo", T, params.theta)                # (n, f_in, f_out)
    X_hat = U.T @ Xb                                             # (B, n, f_in)
    G_pre = U @ np.einsum("bjf,jfo->bjo", X_hat, h) + params.gconv_bias[None]
    A1 = elu(G_pre)
    f = A1.reshape(Xb.shape[0], config.n * config.f_out)
    pre_acts = []
    feats = [f]
    n_hidden = len(params.fc_weights) - 1
    for m in range(n_hidden):
        u = f @ params.fc_weights[m].T + params.fc_biases[m]
        pre_acts.append(u)
        f = leaky_relu(u, config.leaky_alpha)
        feats.append(f)
    out = f @ params.fc_weights[-1].T + params.fc_biases[-1]
    if not want_cache:
        return out
    cache = {"X_hat": X_hat, "T": T, "h": h, "G_pre": G_pre,
             "pre_acts": pre_acts, "feats": feats}
    return out, cache


def backward_batch(dout, cache, params: ChebNetParams, config: ChebNetConfig,
                   spectrum, want_input_grad=False):
    """Reverse-mode gradients from dL/dout of shape (B, out_dim).

    Returns (grads: ChebNetParams, dXb or None). dout must already
    include the loss normalization.
    """
    feats = cache["feats"]
    pre_acts = cache["pre_acts"]
    grads = zeros_like_params(params)
    B = dout.shape[0]

    df = dout
    grads.fc_weights[-1] = df.T @ feats[-1]
    grads.fc_biases[-1] = df.sum(axis=0)
    df = df @ params.fc_weights[-1]
    for m in range(len(params.fc_weights) - 2, -1, -1):
        du = df * leaky_relu_grad(pre_acts[m], config.leaky_alpha)
        grads.fc_weights[m] = du.T @ feats[m]
        grads.fc_biases[m] = du.sum(axis=0)
        df = du @ params.fc_weights[m]

    dA1 = df.reshape(B, config.n, config.f_out)
    dG = dA1 * elu_grad(cache["G_pre"])
    U = spectrum.vectors
    dG_hat = U.T @ dG                                            # (B, n, f_out)
    dh = np.einsum("bjf,bjo->jfo", cache["X_hat"], dG_hat)
    grads.theta = np.einsum("kj,jfo->kfo", cache["T"], dh)
    grads.gconv_bias = dG.sum(axis=0)

    dXb = None
    if want_input_grad:
        dXb = U @ np.einsum("jfo,bjo->bjf", cache["h"], dG_hat)
    return grads, dXb


def net_backward(x_input, target, params: ChebNetParams, config: ChebNetConfig,
                 spectrum, out_mask=None):
    """Loss and parameter gradients for one sample.

    Loss is sum_j m_j (out_j - target_j)^2 with m the optional output
    mask (default all ones). Returns (loss, grads).
    """
    Xb = np.asarray(x_input, dtype=float)[None]
    target = np.asarray(target, dtype=float)[None]
    out, cache = forward_batch(Xb, params, config, spectrum, want_cache=True)
    resid = out - target
    if out_mask is None:
        weighted = resid
        loss = float(np.sum(resid ** 2))
    else:
        m = np.asarray(out_mask, dtype=float)[None]
        weighted = m * resid
        loss = float(np.sum(m * resid ** 2))
    grads, _ = backward_batch(2.0 * weighted, cache, params, config, spectrum)
    return loss, grads
