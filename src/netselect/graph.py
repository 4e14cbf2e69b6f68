"""Sensor graph construction, Laplacians, Fourier basis, and graph kernels.

The graph is built from sensor coordinates with a self-tuning kNN rule:
each node connects to its k0 nearest neighbors with weight
exp(-d^2(i,j) / (sigma_i sigma_j)), where sigma_j is the distance from
node j to its k1-th nearest neighbor. Directed assignments are merged by
elementwise max and the result must be connected.
"""

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .errors import InvalidInputError
from .numerics import EigenPair, check_symmetric, sym_eig
from .timeseries import csv_rows, float_fields


@dataclass(frozen=True)
class SensorGraph:
    coords: np.ndarray      # (n, 2) latitude, longitude in degrees
    adjacency: np.ndarray   # (n, n) symmetric nonnegative weights, zero diagonal

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        adj = np.asarray(self.adjacency, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InvalidInputError(f"coords must be (n, 2), got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise InvalidInputError("coords contain non-finite values")
        adj = check_symmetric(adj, "adjacency")
        if adj.shape[0] != coords.shape[0]:
            raise InvalidInputError("adjacency and coords disagree on node count")
        if np.any(np.diag(adj) != 0):
            raise InvalidInputError("adjacency diagonal must be zero")
        if np.any(adj < 0):
            raise InvalidInputError("adjacency weights must be nonnegative")
        comps = connected_components(adj)
        if len(comps) > 1:
            raise InvalidInputError(
                f"graph has {len(comps)} connected components: {comps}"
            )
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self):
        return self.adjacency.shape[0]


def connected_components(adjacency):
    """Connected components of a nonnegative adjacency matrix, as sorted lists."""
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in np.nonzero(adjacency[i] > 0)[0]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(int(j))
        comps.append(sorted(comp))
    return comps


def build_knn_graph(coords, k0, k1) -> SensorGraph:
    """Self-tuning kNN graph over sensor coordinates.

    Parameters
    ----------
    coords : (n, 2) array of (lat, lon); distances are plain Euclidean
        on the raw pairs.
    k0 : neighbors per node.
    k1 : index of the neighbor whose distance sets the local scale sigma;
        coincident coordinates that make it zero raise InvalidInputError.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise InvalidInputError(f"coords must be (n, 2), got {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise InvalidInputError("coords contain non-finite values")
    n = coords.shape[0]
    if not (n > k0 >= k1 >= 1):
        raise InvalidInputError(f"need n > k0 >= k1 >= 1, got n={n}, k0={k0}, k1={k1}")

    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))

    # stable neighbor order: distance, then index; self excluded
    dist_ranked = dist.copy()
    np.fill_diagonal(dist_ranked, np.inf)
    order = np.argsort(dist_ranked, axis=1, kind="stable")
    sigma = np.empty(n)
    for i in range(n):
        sigma[i] = dist[i, order[i, k1 - 1]]
        if sigma[i] == 0.0:
            raise InvalidInputError(
                f"node {i} has zero distance to its k1-th neighbor "
                f"(duplicate coordinates)"
            )

    directed = np.zeros((n, n))
    for i in range(n):
        for j in order[i, :k0]:
            directed[i, j] = np.exp(-dist[i, j] ** 2 / (sigma[i] * sigma[j]))
    adjacency = np.maximum(directed, directed.T)

    comps = connected_components(adjacency)
    if len(comps) > 1:
        raise InvalidInputError(
            f"kNN graph with k0={k0} is not connected: components {comps}"
        )
    return SensorGraph(coords=coords, adjacency=adjacency)


def combinatorial_laplacian(g: SensorGraph):
    """L = D - A with D the diagonal of row sums."""
    A = g.adjacency
    return np.diag(A.sum(axis=1)) - A


def normalized_laplacian(g: SensorGraph):
    """Symmetric normalized Laplacian D^{-1/2} (D - A) D^{-1/2}.

    Eigenvalues lie in [0, 2]; requires every degree positive.
    """
    A = g.adjacency
    deg = A.sum(axis=1)
    if np.any(deg <= 0):
        isolated = np.nonzero(deg <= 0)[0].tolist()
        raise InvalidInputError(f"nodes with zero degree: {isolated}")
    inv_sqrt = 1.0 / np.sqrt(deg)
    L = np.diag(deg) - A
    Lsym = inv_sqrt[:, None] * L * inv_sqrt[None, :]
    return (Lsym + Lsym.T) / 2.0


def graph_spectrum(laplacian) -> EigenPair:
    """Eigendecomposition of a Laplacian (the graph Fourier basis)."""
    return sym_eig(check_symmetric(laplacian, "laplacian"))


def laplacian_kernel(spec: EigenPair):
    """Kernel K = Phi Lambda^+ Phi^T, the Moore-Penrose pseudoinverse of
    the Laplacian whose spectrum is spec."""
    values = spec.values
    # 1/lambda away from the kernel of L, 0 on it
    cutoff = 1e-10 * max(1.0, float(np.abs(values).max()))
    inv = np.zeros_like(values)
    nz = np.abs(values) > cutoff
    inv[nz] = 1.0 / values[nz]
    Phi = spec.vectors
    K = (Phi * inv[None, :]) @ Phi.T
    return (K + K.T) / 2.0


def read_coords(path):
    """Read a sensor coordinates CSV with header sensor_id,lat,lon.

    Returns (sensor_ids, coords). Malformed rows, non-finite coordinates
    and repeated sensor ids raise InvalidInputError naming the line
    number.
    """
    first_line: Dict[str, int] = {}  # sensor id -> line it is defined on
    rows: List[List[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        records = csv_rows(fh, path)
        header = next(records)[1]
        if [h.strip() for h in header] != ["sensor_id", "lat", "lon"]:
            raise InvalidInputError(
                f"{path}: line 1: expected header 'sensor_id,lat,lon', got {header}"
            )
        for line, row in records:
            where = f"{path}: line {line}"
            lat, lon = float_fields(row[1:], "coordinate", where)
            if row[0] in first_line:
                raise InvalidInputError(
                    f"{where}: sensor_id {row[0]!r} repeats line {first_line[row[0]]}")
            first_line[row[0]] = line
            rows.append([lat, lon])
    return list(first_line), np.asarray(rows, dtype=float).reshape(len(rows), 2)
