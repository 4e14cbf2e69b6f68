"""kNN graph construction, Laplacians, and graph kernels."""

import re

import numpy as np
import pytest

from netselect.errors import InvalidInputError
from netselect.graph import (
    SensorGraph,
    build_knn_graph,
    combinatorial_laplacian,
    connected_components,
    graph_spectrum,
    laplacian_kernel,
    normalized_laplacian,
    read_coords,
)


def _line_graph(n=5, spacing=1.0):
    coords = np.stack([np.arange(n) * spacing, np.zeros(n)], axis=1)
    return build_knn_graph(coords, k0=2, k1=1)


def test_knn_weights_on_collinear_points():
    # three unit-spaced points, k1=1 gives sigma=1 everywhere, so the
    # weights are exp(-d^2) exactly
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    g = build_knn_graph(coords, k0=2, k1=1)
    assert g.adjacency[0, 1] == pytest.approx(np.exp(-1.0))
    assert g.adjacency[1, 2] == pytest.approx(np.exp(-1.0))
    assert g.adjacency[0, 2] == pytest.approx(np.exp(-4.0))
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert np.all(np.diag(g.adjacency) == 0)


def test_knn_rejects_bad_neighbor_counts():
    coords = np.zeros((3, 2))
    coords[:, 0] = [0, 1, 2]
    with pytest.raises(InvalidInputError, match="k0"):
        build_knn_graph(coords, k0=3, k1=1)
    with pytest.raises(InvalidInputError, match="k0"):
        build_knn_graph(coords, k0=1, k1=2)


def test_knn_duplicate_coordinates():
    coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(InvalidInputError, match="zero distance"):
        build_knn_graph(coords, k0=2, k1=1)


def test_knn_disconnected_clusters():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0],
                       [100.0, 100.0], [101.0, 100.0], [100.5, 101.0]])
    with pytest.raises(InvalidInputError, match=re.escape("[[0, 1, 2], [3, 4, 5]]")):
        build_knn_graph(coords, k0=2, k1=1)


def test_connected_components_on_block_adjacency():
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 0] = 1.0
    A[2, 3] = A[3, 2] = 1.0
    assert connected_components(A) == [[0, 1], [2, 3]]


def test_sensor_graph_validation():
    coords = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InvalidInputError, match="diagonal"):
        SensorGraph(coords, np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(InvalidInputError, match="nonnegative"):
        SensorGraph(coords, np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(InvalidInputError, match=re.escape("[[0], [1]]")):
        SensorGraph(coords, np.zeros((2, 2)))


def test_combinatorial_laplacian_row_sums():
    g = _line_graph()
    L = combinatorial_laplacian(g)
    assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(L, L.T)


def test_normalized_laplacian_spectrum_bounds():
    g = _line_graph(6)
    L = normalized_laplacian(g)
    vals = np.linalg.eigvalsh(L)
    assert vals[0] >= -1e-10
    assert vals[-1] <= 2.0 + 1e-10


def test_normalized_laplacian_isolated_node():
    lonely = SensorGraph(np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(InvalidInputError, match="zero degree"):
        normalized_laplacian(lonely)


def test_graph_spectrum_ascending_with_null_mode():
    g = _line_graph()
    spec = graph_spectrum(combinatorial_laplacian(g))
    assert np.all(np.diff(spec.values) >= -1e-12)
    assert abs(spec.values[0]) <= 1e-10
    # the null mode of a connected graph is constant
    v0 = spec.vectors[:, 0]
    assert np.allclose(v0, v0[0], atol=1e-8)


def test_laplacian_kernel_is_pseudoinverse():
    g = _line_graph(6)
    L = combinatorial_laplacian(g)
    spec = graph_spectrum(L)
    K = laplacian_kernel(spec)
    assert np.allclose(K, np.linalg.pinv(L), atol=1e-8)
    assert np.allclose(L @ K @ L, L, atol=1e-8)
    assert np.allclose(K @ L @ K, K, atol=1e-8)
    assert np.min(np.linalg.eigvalsh(K)) >= -1e-10


def test_read_coords_round_trip_and_errors(tmp_path):
    path = tmp_path / "coords.csv"
    path.write_text("sensor_id,lat,lon\na,48.85,2.35\nb,48.86,2.36\n")
    ids, coords = read_coords(path)
    assert ids == ["a", "b"]
    assert coords.shape == (2, 2)
    assert coords[0, 0] == pytest.approx(48.85)

    bad = tmp_path / "bad.csv"
    bad.write_text("sensor_id,lat,lon\na,48.85\n")
    with pytest.raises(InvalidInputError, match="line 2"):
        read_coords(bad)
    bad.write_text("sensor_id,lat,lon\na,north,2.35\n")
    with pytest.raises(InvalidInputError, match="line 2"):
        read_coords(bad)
    bad.write_text("id,lat,lon\n")
    with pytest.raises(InvalidInputError, match="line 1"):
        read_coords(bad)
    bad.write_text("sensor_id,lat,lon\na,48.85,2.35\nb,nan,2.36\n")
    with pytest.raises(InvalidInputError, match="line 3: non-finite"):
        read_coords(bad)
    bad.write_text("sensor_id,lat,lon\na,48.85,inf\n")
    with pytest.raises(InvalidInputError, match="line 2: non-finite"):
        read_coords(bad)
    bad.write_text("sensor_id,lat,lon\na,48.85,2.35\nb,48.86,2.36\na,0.0,0.0\n")
    with pytest.raises(InvalidInputError, match="line 4: sensor_id 'a' repeats line 2"):
        read_coords(bad)
    bad.write_bytes(b"sensor_id,lat,lon\na,48.85,2.35\nb,48.8\xb0,2.36\n")
    with pytest.raises(InvalidInputError, match="line 3: not UTF-8 text"):
        read_coords(bad)
