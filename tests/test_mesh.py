import numpy as np
import pytest

from fvreact.mesh import (Mesh, build_time_grid_ramped,
                          build_time_grid_uniform, build_uniform_1d,
                          write_mesh_csv)


def test_uniform_1d_basic_geometry():
    mesh = build_uniform_1d(0.1, 50)
    assert mesh.n_cells == 50
    assert mesh.n_faces == 49
    assert np.allclose(mesh.volumes, 0.002)
    # transmissibility = face area / center distance = 1 / 0.002
    assert np.allclose(mesh.transmissibilities, 500.0)
    assert np.allclose(mesh.x, 0.001 + 0.002 * np.arange(50))
    assert mesh.size == pytest.approx(0.002)


def test_uniform_1d_single_cell():
    mesh = build_uniform_1d(1.0, 1)
    assert mesh.n_cells == 1
    assert mesh.n_faces == 0
    assert mesh.volumes[0] == pytest.approx(1.0)


def test_uniform_1d_quarter_spacing():
    mesh = build_uniform_1d(1.0, 4)
    assert np.allclose(mesh.volumes, 0.25)
    assert np.allclose(np.diff(mesh.x), 0.25)   # center distances
    assert np.allclose(mesh.transmissibilities, 4.0)


def test_uniform_1d_rejects_bad_args():
    with pytest.raises(ValueError):
        build_uniform_1d(0.0, 10)
    with pytest.raises(ValueError):
        build_uniform_1d(1.0, 0)


def test_measures_sum_to_domain_length():
    mesh = build_uniform_1d(0.37, 13)
    assert np.sum(mesh.volumes) == pytest.approx(0.37, rel=1e-14)


def _dense_laplacian(mesh):
    # column j is L applied to the j-th unit vector
    return np.column_stack([mesh.apply_laplacian(e)
                            for e in np.eye(mesh.n_cells)])


def _csr_laplacian(mesh):
    # the CSR matrix Mesh once built and multiplied by: the reference whose
    # row sums apply_laplacian reproduces bit for bit
    from scipy import sparse

    n = mesh.n_cells
    ka = np.arange(n - 1)
    lb = ka + 1
    t = mesh.transmissibilities
    rows = np.concatenate([ka, lb, ka, lb])
    cols = np.concatenate([lb, ka, ka, lb])
    vals = np.concatenate([-t, -t, t, t])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def test_laplacian_row_sums_vanish():
    mesh = build_uniform_1d(1.0, 8)
    lap = _dense_laplacian(mesh)
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.allclose(lap, lap.T)
    # constant field is in the kernel
    assert np.allclose(lap @ np.full(8, 3.7), 0.0)


def test_laplacian_matches_face_double_sum():
    # sum_K f_K (L f)_K equals sum over faces of T (f_L - f_K)^2
    rng = np.random.default_rng(42)
    mesh = build_uniform_1d(2.0, 17)
    f = rng.uniform(-1, 1, size=17)
    lhs = float(f @ mesh.apply_laplacian(f))
    # face i joins cells i and i + 1
    rhs = float(np.sum(mesh.transmissibilities * (f[1:] - f[:-1]) ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_laplacian_diagonal_is_deg():
    mesh = build_uniform_1d(1.0, 5)
    assert np.array_equal(np.diag(_dense_laplacian(mesh)), mesh.deg)
    assert np.allclose(mesh.deg, [5.0, 10.0, 10.0, 10.0, 5.0])
    assert np.array_equal(build_uniform_1d(1.0, 1).deg, [0.0])


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 50])
def test_apply_laplacian_equals_csr_matvec(n, uniform):
    # apply_laplacian sums each row as the CSR product does (left
    # neighbour, diagonal, right neighbour), so the two agree bit for bit
    rng = np.random.default_rng([n, uniform])
    if uniform:
        mesh = build_uniform_1d(0.1, n)
    else:
        edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, n))])
        x = 0.5 * (edges[:-1] + edges[1:])
        mesh = Mesh(edges=edges, volumes=np.diff(edges),
                    transmissibilities=1.0 / np.diff(x))
    lap = _csr_laplacian(mesh)
    for _ in range(20):
        mags = 10.0 ** rng.uniform(-300.0, 300.0, n)
        for f in (rng.choice([-1.0, 1.0], n) * mags,
                  rng.uniform(-1.0, 1.0, n),
                  np.full(n, -3.7)):
            assert np.array_equal(mesh.apply_laplacian(f), lap @ f)


def test_mesh_rejects_inconsistent_shapes():
    mesh = build_uniform_1d(1.0, 4)
    with pytest.raises(ValueError, match="edges"):
        Mesh(edges=mesh.edges, volumes=mesh.volumes[:-1],
             transmissibilities=mesh.transmissibilities[:-1])
    with pytest.raises(ValueError, match="transmissibilities"):
        Mesh(edges=mesh.edges, volumes=mesh.volumes,
             transmissibilities=mesh.transmissibilities[:-1])
    with pytest.raises(ValueError, match="measures"):
        Mesh(edges=mesh.edges, volumes=-mesh.volumes,
             transmissibilities=mesh.transmissibilities)


def test_time_grid_uniform():
    grid = build_time_grid_uniform(1.0, 4)
    assert np.allclose(grid.levels, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.n_steps == 4
    assert grid.final_time == pytest.approx(1.0)
    assert np.allclose(grid.steps, 0.25)

    single = build_time_grid_uniform(1e5, 1)
    assert np.allclose(single.levels, [0.0, 1e5])


def test_time_grid_uniform_rejects_bad_args():
    with pytest.raises(ValueError):
        build_time_grid_uniform(0.0, 4)
    with pytest.raises(ValueError):
        build_time_grid_uniform(1.0, 0)


def test_time_grid_ramped_small_case():
    grid = build_time_grid_ramped(0.5, 2.0, 1.5)
    # 0.5, then 1.0 would overshoot past 1.5 -> clipped to land exactly
    assert np.allclose(grid.levels, [0.0, 0.5, 1.5])
    assert grid.final_time == pytest.approx(1.5)


def test_time_grid_ramped_geometric_sum():
    grid = build_time_grid_ramped(1e-8, 1.1, 1e5)
    assert grid.levels[0] == 0.0
    assert grid.final_time == pytest.approx(1e5, rel=1e-12)
    dts = grid.steps
    # interior steps grow by exactly the ramp factor
    assert np.allclose(dts[1:-1] / dts[:-2], 1.1)
    assert dts[0] == pytest.approx(1e-8)
    assert np.all(dts > 0)


def test_time_grid_ramped_growth_one_is_uniform():
    grid = build_time_grid_ramped(0.25, 1.0, 1.0)
    assert np.allclose(grid.levels, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_time_grid_ramped_rejects_bad_args():
    with pytest.raises(ValueError):
        build_time_grid_ramped(0.0, 1.05, 1.0)
    with pytest.raises(ValueError):
        build_time_grid_ramped(0.1, 0.9, 1.0)
    with pytest.raises(ValueError):
        build_time_grid_ramped(2.0, 1.05, 1.0)


def test_time_grid_rejects_nonmonotone_levels():
    from fvreact.mesh import TimeGrid
    with pytest.raises(ValueError):
        TimeGrid(levels=np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(levels=np.array([0.1, 0.2]))


def test_write_mesh_csv(tmp_path):
    mesh = build_uniform_1d(1.0, 4)
    path = tmp_path / "mesh.csv"
    write_mesh_csv(mesh, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "cell_id,x,measure"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(0.125)
    assert float(first[2]) == pytest.approx(0.25)
