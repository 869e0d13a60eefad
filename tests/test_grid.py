import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import cmcsolve
from cmcsolve import (Ball, Ellipse, ModelKind, ProblemSpec, SolutionField, build_grid,
                      newton_solve, seed_field, transfer_field)
from cmcsolve import grid as grid_module
from cmcsolve.grid import _stencils
from helpers import (interior_fit_oracle, lattice_index, lsq_fit_oracle, quadric_domains,
                     RotatedQuadric, reference_boundary_gradient_ops, reference_derivative_ops,
                     stencil_rows)


def derivative_errors(domain, n_rho, n_phi):
    g = build_grid(domain, n_rho, n_phi)
    x = g.nodes
    u = np.sin(x[:, 0]) * np.cos(x[:, 1])
    du, d2u = g.derivative_arrays(u)
    exact_du = np.stack([np.cos(x[:, 0]) * np.cos(x[:, 1]),
                         -np.sin(x[:, 0]) * np.sin(x[:, 1])], axis=-1)
    exx = -np.sin(x[:, 0]) * np.cos(x[:, 1])
    exy = -np.cos(x[:, 0]) * np.sin(x[:, 1])
    e1 = np.max(np.abs(du - exact_du))
    e2 = max(np.max(np.abs(d2u[:, 0, 0] - exx)),
             np.max(np.abs(d2u[:, 0, 1] - exy)),
             np.max(np.abs(d2u[:, 1, 1] - exx)))
    return e1, e2


class TestBuild:
    def test_ball_rings(self):
        g = build_grid(Ball((0, 0), 1.0), 8, 16)
        assert np.array_equal(g.disk_map, np.eye(2))
        radii = np.linalg.norm(g.nodes[1:], axis=-1).reshape(8, 16)
        assert np.allclose(radii, radii[:, :1], atol=1e-12)

    def test_ellipse_axis_radii(self):
        g = build_grid(Ellipse((0, 0), (1.0, 0.8)), 8, 16)
        boundary = g.nodes[g.boundary_idx]
        assert np.allclose(boundary[0], (1.0, 0.0), rtol=0, atol=1e-12)
        assert np.allclose(boundary[4], (0.0, 0.8), rtol=0, atol=1e-12)  # phi = pi/2

    @pytest.mark.parametrize("dom", [Ball((0, 0), 1.0),
                                     Ellipse((0.2, 0), (1.0, 0.6))])
    def test_boundary_nodes_on_level_set(self, dom):
        g = build_grid(dom, 12, 24)
        h, _, _ = dom.defining(g.nodes[g.boundary_idx])
        assert np.max(np.abs(h)) <= 1e-9 * dom.diameter()

    def test_interior_nodes_inside(self):
        dom = Ellipse((0, 0), (1.0, 0.8))
        g = build_grid(dom, 12, 24)
        h, _, _ = dom.defining(g.nodes[g.interior_mask])
        assert np.all(h > 0)

    def test_no_node_collisions(self):
        g = build_grid(Ball((0, 0), 1.0), 8, 16)
        d = np.linalg.norm(g.nodes[:, None, :] - g.nodes[None, :, :], axis=-1)
        np.fill_diagonal(d, 1.0)
        assert d.min() > 1e-6

    @pytest.mark.parametrize("n_rho, n_phi", [(7, 16), (8, 15), (8, 14)])
    def test_resolution_validation(self, n_rho, n_phi):
        with pytest.raises(ValueError):
            build_grid(Ball((0, 0), 1.0), n_rho, n_phi)


class TestDerivativeRecovery:
    # the thin off-centre ellipse's Hessian rows at ring 2 have absolute
    # weight sums up to 7e4 and |u| is about 1.2 there, so the rounding of
    # u alone leaves several 1e-12
    @pytest.mark.parametrize("dom, hess_tol", [(Ball((0, 0), 1.0), 1e-12),
                                               (Ellipse((0, 0), (1.0, 0.8)), 1e-12),
                                               (Ellipse((0.3, -0.2), (1.0, 0.3)), 1e-11)])
    def test_linear_exactness(self, dom, hess_tol):
        g = build_grid(dom, 16, 32)
        u = 2.0 * g.nodes[:, 0] - 3.0 * g.nodes[:, 1]
        du, d2u = g.derivative_arrays(u)
        assert np.max(np.abs(du - [2.0, -3.0])) < 1e-12
        assert np.max(np.abs(d2u)) < hess_tol
        # the tangential difference is divided by its factor on cos and sin
        assert np.max(np.abs(g.boundary_gradients(u) - [2.0, -3.0])) <= 1e-13

    @pytest.mark.parametrize("n_rho", [16, 32, 64])
    def test_boundary_gradients_linear(self, n_rho):
        # exact to roundoff at every resolution: the tangential difference's
        # error on cos and sin is divided out, not just of fourth order
        g = build_grid(Ball((0, 0), 0.4), n_rho, 2 * n_rho)
        p = np.array([0.1, -0.2])
        assert np.max(np.abs(g.boundary_gradients(g.nodes @ p) - p)) <= 1e-13

    @pytest.mark.parametrize("dom, tol", [(Ball((0, 0), 1.0), 1e-10),
                                          (Ellipse((0, 0), (1.0, 0.8)), 1e-8),
                                          (Ellipse((0.3, -0.2), (1.0, 0.3)), 1e-8)])
    def test_quadratic_exactness(self, dom, tol):
        g = build_grid(dom, 16, 32)
        u = 0.5 * np.sum(g.nodes ** 2, axis=-1)
        du, d2u = g.derivative_arrays(u)
        assert np.max(np.abs(du - g.nodes)) < tol
        assert np.max(np.abs(d2u - np.eye(2))) < tol

    def test_smooth_convergence_factor(self):
        e1_c, e2_c = derivative_errors(Ball((0, 0), 1.0), 32, 64)
        e1_f, e2_f = derivative_errors(Ball((0, 0), 1.0), 64, 128)
        assert e1_c / e1_f >= 3.5
        assert e2_c / e2_f >= 3.5

    def test_observed_order(self):
        e1_c, e2_c = derivative_errors(Ball((0, 0), 1.0), 32, 64)
        e1_f, e2_f = derivative_errors(Ball((0, 0), 1.0), 64, 128)
        assert np.log2(e1_c / e1_f) >= 1.8
        assert np.log2(e2_c / e2_f) >= 1.8

    def test_boundary_gradients_quadratic(self):
        g = build_grid(Ball((0, 0), 1.0), 16, 32)
        u = 0.5 * np.sum(g.nodes ** 2, axis=-1)
        du_b = g.boundary_gradients(u)
        assert np.max(np.abs(du_b - g.nodes[g.boundary_idx])) < 1e-12


class TestOperatorWeights:
    @pytest.mark.parametrize("dom", [Ball((0, 0), 1.0),
                                     Ellipse((0.2, 0.1), (1.0, 0.6)),
                                     Ellipse((0.3, -0.2), (1.0, 0.3))])
    @pytest.mark.parametrize("n_rho, n_phi", [(8, 16), (8, 18), (16, 32), (16, 34),
                                              (64, 128)])
    def test_interior_rows_match_pinv_fit(self, dom, n_rho, n_phi):
        g = build_grid(dom, n_rho, n_phi)
        rows, cols, ref = interior_fit_oracle(g)
        for name, w in ref.items():
            op = g.ops[name]
            assert np.all(np.diff(op.indptr)[rows] == 9)  # the block is the row
            got = np.asarray(op[np.repeat(rows, 9), cols.ravel()]).reshape(w.shape)
            assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(op.data)), name

    @pytest.mark.parametrize("dom", [Ball((0, 0), 1.0),
                                     Ellipse((0.3, -0.2), (1.0, 0.3))])
    @pytest.mark.parametrize("n_rho, n_phi", [(8, 18), (16, 32), (16, 34), (64, 128)])
    def test_least_squares_rows_match_pinv_fit(self, dom, n_rho, n_phi):
        g = build_grid(dom, n_rho, n_phi)
        for rows, cols, ref in lsq_fit_oracle(g):
            for name, w in ref.items():
                op = g.ops[name]
                # the stencil, duplicates summed, is the row
                expected = sp.csr_matrix((w.ravel(), (np.repeat(rows, cols.shape[1]),
                                                      cols.ravel())), shape=op.shape)
                diff = (op[rows] - expected[rows]).toarray()
                assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(op.data)), name

    @pytest.mark.parametrize("n_rho, n_phi", [(16, 32), (64, 128)])
    def test_constants_cancel_exactly(self, n_rho, n_phi):
        g = build_grid(Ellipse((0.2, 0.1), (1.0, 0.6)), n_rho, n_phi)
        ones = np.ones(g.n_nodes)
        for name in ('dx', 'dy', 'dxx', 'dxy', 'dyy', 'bx', 'by'):
            assert np.all(g.ops[name] @ ones == 0.0), name


@settings(max_examples=40, deadline=None)
@given(dom=quadric_domains())
def test_constants_cancel_exactly_on_any_domain(dom):
    g = build_grid(dom, 8, 16)
    ones = np.ones(g.n_nodes)
    recovery, boundary = stencil_rows(g)
    for name, op in g.ops.items():
        assert np.all(op @ ones == 0.0), name
        # each row holds its stencil in stencil order, no column twice
        # (ring 1's pole entries summed into one)
        rows = boundary if name in ('bx', 'by') else recovery
        assert np.array_equal(op.indptr, np.append(0, np.cumsum([len(r) for r in rows]))), name
        assert np.array_equal(op.indices, np.concatenate(rows)), name
        assert all(len(set(r)) == len(r) for r in rows), name


@settings(max_examples=40, deadline=None)
@given(dom=quadric_domains(), n_phi=st.sampled_from([16, 18]))
def test_mirror_and_half_turn_symmetry(dom, n_phi):
    # each image sends node (i, j) to (i, ray[j]) and the pole to itself,
    # and (x, y) to (fx x, fy y).  The lattice, the weights and the
    # per-column bx/by rows are exact images; the fitted rows reach each ray
    # by its own rotation, so their images agree to roundoff
    g = build_grid(dom, 8, n_phi)
    centred = build_grid(replace(dom, center=(0.0, 0.0)), 8, n_phi)
    j = np.arange(n_phi)
    for ray, fx, fy in [(n_phi // 2 - j, -1.0, 1.0), (j + n_phi // 2, -1.0, -1.0),
                        (-j, 1.0, -1.0)]:
        ray = np.mod(ray, n_phi)
        t = np.concatenate([[0], np.arange(1, g.n_nodes).reshape(8, n_phi)[:, ray].ravel()])
        for a in (g.quad_weights[1:].reshape(8, n_phi), g.boundary_weights):
            assert np.array_equal(a[..., ray], a)
        parity = {'dx': fx, 'dy': fy, 'dxx': 1.0, 'dxy': fx * fy, 'dyy': 1.0,
                  'bx': fx, 'by': fy}
        for name, op in g.ops.items():
            diff = op[t][:, t].toarray() - parity[name] * op.toarray()
            tol = 0.0 if name in ('bx', 'by') else 1e-14 * np.max(np.abs(op.data))
            assert np.max(np.abs(diff)) <= tol, name
        assert np.array_equal(centred.nodes[t], centred.nodes * [fx, fy])
    for name, op in g.ops.items():  # the fits do not see where the domain sits
        assert np.array_equal(op.data, centred.ops[name].data), name


@pytest.mark.parametrize("n_phi", [16, 18])
def test_stencil_layout(n_phi):
    g = build_grid(Ball((0, 0), 1.0), 8, n_phi)
    i, j = np.repeat(np.arange(1, 9), n_phi), np.tile(np.arange(n_phi), 8)
    dis, djs = (-1, 0), (-2, -1, 0, 1, 2, n_phi + 1)
    expected = np.stack([lattice_index(g, i + di, j + dj) for di in dis for dj in djs], axis=1)
    assert np.array_equal(_stencils(np.arange(1, 9), dis, djs, n_phi), expected)
    assert np.array_equal(g.boundary_idx, lattice_index(g, 8, np.arange(n_phi)))


@pytest.mark.parametrize("n_rho, n_phi", [(8, 16), (16, 18), (16, 34), (32, 64), (64, 128)])
@pytest.mark.parametrize("dom", [Ball((0.1, -0.2), 0.7), Ellipse((0.2, 0.1), (1.0, 0.35)),
                                 RotatedQuadric((0.1, 0), 1.0)],
                         ids=["ball", "ellipse", "rotated"])
def test_operators_match_the_gathered_build(monkeypatch, dom, n_rho, n_phi):
    # the operators are written straight into their CSR layout, every row
    # in stencil order; every indptr, index and weight equals, bit for bit,
    # the build that concatenates full-size stencils and their weights
    # (n_phi / 4 is not an integer at 16 x 18 and 16 x 34)
    inputs = {}
    for name in ("_build_derivative_ops", "_build_boundary_gradient_ops"):
        def spy(*args, name=name, real=getattr(grid_module, name)):
            inputs[name] = args
            return real(*args)
        monkeypatch.setattr(grid_module, name, spy)
    g = build_grid(dom, n_rho, n_phi)
    want = {**reference_derivative_ops(*inputs["_build_derivative_ops"]),
            **reference_boundary_gradient_ops(*inputs["_build_boundary_gradient_ops"])}
    assert g.ops.keys() == want.keys()
    for name, op in g.ops.items():
        assert op.indptr.dtype == op.indices.dtype == np.int32, name
        shared = g.ops['bx' if name in ('bx', 'by') else 'dx']
        assert np.shares_memory(op.indices, shared.indices), name
        assert np.shares_memory(op.indptr, shared.indptr), name
        assert np.array_equal(op.indptr, want[name].indptr), name
        assert np.array_equal(op.indices, want[name].indices), name
        assert op.data.tobytes() == want[name].data.tobytes(), name


@pytest.mark.parametrize("n_rho, n_phi", [(8, 16), (16, 18), (16, 34), (32, 64), (64, 128)])
@pytest.mark.parametrize("dom", [Ball((0, 0), 1.0), Ellipse((0, 0), (1.0, 0.8)),
                                 Ellipse((0.2, 0.1), (1.0, 0.35)), RotatedQuadric((0.1, 0), 1.0)],
                         ids=["ball", "ellipse", "off-centre-ellipse", "rotated"])
def test_operators_are_exact_half_turn_images(dom, n_rho, n_phi):
    # P A P^T = -A for dx, dy, bx, by and +A for the Hessian operators, with
    # P the half turn's node permutation, entry for entry and in stored
    # order: row image[r] stores image[the columns of row r] in the same
    # order, with the weights times the sign, so it sums the same products
    # in the same order (test_even_fields_have_exact_parity).  The pole,
    # its own image, stores its columns in increasing order, and the image
    # of its column k holds the sign times its weight there.  Each fitted
    # row was its image's only to roundoff: up to one fold quantum in 2-8
    # entries of an operator, such as 1.1e-13 in dxx on the ball at 32 x 64
    g = build_grid(dom, n_rho, n_phi)
    (image,), rows, fold = g.half_turn
    h = n_phi // 2
    i, j = g.lattice_indices()
    assert np.array_equal(image, np.where(i == 0, 0, lattice_index(g, i, j + h)))
    assert np.array_equal(image[image], np.arange(g.n_nodes))
    assert np.array_equal(fold[rows], np.arange(len(rows)))
    assert np.array_equal(fold[:-1][image], fold[:-1])
    for name, op in g.ops.items():
        sign = -1.0 if name in ('dx', 'dy', 'bx', 'by') else 1.0
        lengths = np.diff(op.indptr)
        assert np.array_equal(lengths[image], lengths), name
        row = np.repeat(np.arange(g.n_nodes), lengths)
        # the position of each entry's counterpart in the image row
        at = op.indptr[image][row] + np.arange(op.nnz) - op.indptr[row]
        ring = row > 0
        assert np.array_equal(op.indices[at][ring], image[op.indices][ring]), name
        assert np.array_equal(op.data[at][ring], sign * op.data[ring]), name
        pole = slice(op.indptr[0], op.indptr[1])
        assert np.array_equal(op.indices[pole], np.arange(lengths[0])), name
        assert np.array_equal(op.data[pole][image[:lengths[0]]], sign * op.data[pole]), name


# signs of each operator under the half turn and the mirrors (x, y) -> (-x,
# y) and (x, -y), the order of grid.quarter's maps
_SIGNS = {'dx': (-1.0, -1.0, 1.0), 'dy': (-1.0, 1.0, -1.0), 'dxx': (1.0, 1.0, 1.0),
          'dxy': (1.0, -1.0, -1.0), 'dyy': (1.0, 1.0, 1.0), 'bx': (-1.0, -1.0, 1.0),
          'by': (-1.0, 1.0, -1.0)}


def _four_node_orbits(image):
    """The nodes whose orbit under the node maps image (3, N) has four
    nodes: every ring node off the mirror axes."""
    orbit = np.vstack([np.arange(image.shape[1]), image])
    return np.flatnonzero(np.all(np.sort(orbit, axis=0)[1:] != np.sort(orbit, axis=0)[:-1],
                                 axis=0))


@pytest.mark.parametrize("n_rho, n_phi", [(8, 16), (16, 18), (16, 34), (32, 64), (64, 128)])
@pytest.mark.parametrize("dom", [Ball((0, 0), 1.0), Ellipse((0, 0), (1.0, 0.8)),
                                 Ellipse((0.2, 0.1), (1.0, 0.35)), RotatedQuadric((0.1, 0), 1.0)],
                         ids=["ball", "ellipse", "off-centre-ellipse", "rotated"])
def test_operators_are_exact_mirror_images(dom, n_rho, n_phi):
    # on a diagonal L the mirrors about the peak, rays j to n_phi/2 - j and
    # -j, are exact too: every row off the mirror axes is the exact image of
    # its mirror images' rows in stored order, as under the half turn, so
    # the rays q < j mod n_phi/2 list their ray offsets reversed.  Rows on
    # the axes are their own mirror images or the half turn's images, and
    # the pole is its own.  A rotated quadric's L keeps only the half turn
    g = build_grid(dom, n_rho, n_phi)
    if isinstance(dom, RotatedQuadric):
        assert g.quarter is None
        return
    image, rows, fold = g.quarter
    h, q = n_phi // 2, n_phi // 4
    i, j = g.lattice_indices()
    for ray, m in zip([j + h, h - j, -j], image):
        assert np.array_equal(m, np.where(i == 0, 0, lattice_index(g, i, ray)))
        assert np.array_equal(m[m], np.arange(g.n_nodes))
    # the representatives: the pole and the rays j <= n_phi // 4
    assert np.array_equal(rows[:-1], np.flatnonzero(j <= q))
    assert len(rows) == 2 + n_rho * (q + 1) and rows[-1] == g.n_nodes
    assert np.array_equal(fold[rows], np.arange(len(rows)))
    assert all(np.array_equal(fold[:-1][m], fold[:-1]) for m in image)
    nodes = _four_node_orbits(image)
    assert len(nodes) == g.n_nodes - 1 - n_rho * (2 + 2 * (n_phi % 4 == 0))
    for name, op in g.ops.items():
        lengths = np.diff(op.indptr)
        for m, sign in zip(image, _SIGNS[name]):
            assert np.array_equal(lengths[m], lengths), name
            row = np.repeat(np.arange(g.n_nodes), lengths)
            at = op.indptr[m][row] + np.arange(op.nnz) - op.indptr[row]
            kept = np.isin(row, nodes)
            assert np.array_equal(op.indices[at][kept], m[op.indices][kept]), name
            assert np.array_equal(op.data[at][kept], sign * op.data[kept]), name


@pytest.mark.parametrize("dom, n_rho, n_phi", [
    (Ball((0, 0), 1.0), 16, 18), (Ball((0, 0), 1.0), 16, 34), (Ball((0, 0), 1.0), 64, 128),
    (Ball((0, 0), 1.0), 256, 512), (Ellipse((0, 0), (1.0, 0.35)), 64, 128),
    (RotatedQuadric((0, 0), 1.0), 32, 64)],
    ids=["ball-16-18", "ball-16-34", "ball-64-128", "ball-256-512", "ellipse-64-128",
         "rotated-32-64"])
def test_even_fields_have_exact_parity(dom, n_rho, n_phi):
    # every row sums its image's products in the same order, so an exactly
    # half-turn-even u has exactly odd Du and boundary Du and exactly even
    # D2u, bit for bit, on every node but one: the pole is its own image,
    # and its dx, dy sums run over the two halves of each ring in turn.  On
    # a diagonal L an exactly mirror-even u has each derivative's mirror
    # parities too, at every node off the mirror axes; a row on an axis is
    # its own mirror image, so its odd derivatives are roundoff, not zero
    g = build_grid(dom, n_rho, n_phi)
    (image,), _, _ = g.half_turn
    rng = np.random.default_rng(7)
    u = rng.standard_normal(g.n_nodes)
    u = 0.5 * (u + u[image])
    assert np.array_equal(u[image], u)
    for name, op in g.ops.items():
        sign = -1.0 if name in ('dx', 'dy', 'bx', 'by') else 1.0
        v = op @ u
        node = np.arange(1 if name in ('dx', 'dy') else 0, g.n_nodes)
        assert np.array_equal(v[image[node]], sign * v[node]), name
    if g.quarter is None:
        assert isinstance(dom, RotatedQuadric)
        return
    images, _, fold = g.quarter
    orbit = fold[:-1]
    u = rng.standard_normal(g.n_nodes)
    u = (np.bincount(orbit, u) / np.bincount(orbit))[orbit]
    assert all(np.array_equal(u[m], u) for m in images)
    nodes = _four_node_orbits(images)
    for name, op in g.ops.items():
        v = op @ u
        for m, sign in zip(images, _SIGNS[name]):
            assert np.array_equal(v[m[nodes]], sign * v[nodes]), name


def test_seeds_do_not_depend_on_the_blas_thread_count():
    # a BLAS dot product of the quadrature weights (OpenBLAS's threaded ddot
    # at N = 32 769) reads other bits with 1 and 2 threads, and so did the
    # mean-zero projection of every seed; the quadrature's pairwise sum is
    # the same under both.  The radial seed of a ball pair and the transport
    # seed, whose c is a quadrature, at 128 x 256
    src = str(Path(cmcsolve.__file__).parents[1])
    script = (
        "import hashlib\n"
        "from cmcsolve import Ball, Ellipse, ModelKind, ProblemSpec, build_grid, seed_field\n"
        "for omega, target in [(Ball((0, 0), 1.0), Ball((0, 0), 0.5)),\n"
        "                      (Ellipse((0.2, 0.1), (1.0, 0.6)), Ellipse((0, 0), (0.5, 0.3)))]:\n"
        "    seed = seed_field(ProblemSpec(omega, target, ModelKind.MINKOWSKI,\n"
        "                                  build_grid(omega, 128, 256)))\n"
        "    print(hashlib.sha256(seed.u.tobytes()).hexdigest(), seed.c.hex())\n")
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out.append(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True).stdout)
    assert len(out[0].splitlines()) == 2 and out[0] == out[1]


def test_shared_patterns_are_read_only():
    # the recovery operators share one indices/indptr pair and bx, by
    # another, so compacting or sorting one operator in place would change
    # its siblings' products (bx stores 16 exact zeros here, and compacting
    # it moved by's product by 127): each such call raises before writing
    g = build_grid(Ball((0, 0), 1.0), 16, 32)
    u = np.random.default_rng(3).standard_normal(g.n_nodes)
    before = {name: op @ u for name, op in g.ops.items()}
    for name, op in g.ops.items():
        assert not (op.indices.flags.writeable or op.indptr.flags.writeable), name
        for method in ("eliminate_zeros", "sort_indices", "sum_duplicates"):
            with pytest.raises(ValueError):
                getattr(op, method)()
            for other, expected in before.items():
                assert np.array_equal(g.ops[other] @ u, expected), (name, method, other)


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, -0.1)])
@pytest.mark.parametrize("n_rho, n_phi", [(16, 32), (32, 64), (64, 128)])
def test_near_round_ellipse_operators_match_ball(center, n_rho, n_phi):
    # a ball and an ellipse 2^-40 off round fit the same unit-disk lattice,
    # and their maps agree to 2^-40, so must the operators
    ball = build_grid(Ball(center, 0.7), n_rho, n_phi)
    near = build_grid(Ellipse(center, (0.7, 0.7 * (1.0 + 2.0 ** -40))), n_rho, n_phi)
    for name, op in ball.ops.items():
        other = near.ops[name]
        assert np.array_equal(op.indptr, other.indptr), name
        assert np.array_equal(op.indices, other.indices), name
        assert np.max(np.abs(op.data - other.data)) <= 1e-10 * np.max(np.abs(op.data)), name


@pytest.mark.parametrize("n_phi", [16, 18])
@pytest.mark.parametrize("dom", [Ball((0.1, 0), 0.7), Ellipse((0.1, 0), (1.0, 0.8))])
def test_fit_batch_sizes(monkeypatch, dom, n_phi):
    # (stencil rows, extra monomials) per fit: the pole's one, then the
    # first, interior and boundary rings, each ring fitted once on the
    # unit-disk lattice, all through the one fit routine
    batches = []

    def spy(offsets, extra, real=grid_module._lsq_weights):
        batches.append((len(offsets), len(extra)))
        return real(offsets, extra)
    monkeypatch.setattr(grid_module, "_lsq_weights", spy)
    n_rho = 8
    build_grid(dom, n_rho, n_phi)
    assert batches == [(1, 0), (1, 4), (n_rho - 2, 3), (1, 4)]


@pytest.mark.parametrize("a", [[[1.0, 0.2], [0.2, 1.0]], [[1.0, 0.6], [0.6, 2.0]]])
@pytest.mark.parametrize("n_rho, n_phi", [(8, 16), (16, 32), (16, 34)])
def test_rotated_quadric(a, n_rho, n_phi):
    # a quadric with an xy term maps the lattice by a symmetric L off the
    # diagonal, whose chain rule mixes the unit-disk derivatives
    class Rotated(Ball):
        def quadric(self):
            return np.zeros(2), np.array(a)

    dom = Rotated((0, 0), 1.0)
    g = build_grid(dom, n_rho, n_phi)
    h, _, _ = dom.defining(g.nodes[g.boundary_idx])
    assert np.max(np.abs(h)) <= 1e-12
    ones = np.ones(g.n_nodes)
    for name, op in g.ops.items():
        assert np.all(op @ ones == 0.0), name
    x, y = g.nodes.T
    du, d2u = g.derivative_arrays(x * x + 0.7 * x * y - 0.4 * y * y + 0.3 * x - 0.2 * y)
    assert np.max(np.abs(du - np.stack([2 * x + 0.7 * y + 0.3, 0.7 * x - 0.8 * y - 0.2],
                                       axis=-1))) < 1e-8
    assert np.max(np.abs(d2u - [[2.0, 0.7], [0.7, -0.8]])) < 1e-8


def test_hessian_batch_is_symmetric_by_components():
    # D^2u comes from kernel._symmetric: exactly symmetric, and each entry
    # d2u[:, i, j] a contiguous array, as the kernel and the Jacobian read it
    g = build_grid(Ellipse((0.1, -0.2), (1.0, 0.8)), 8, 16)
    x, y = g.nodes.T
    _, d2u = g.derivative_arrays(np.exp(x) * np.cos(2 * y) + x * y)
    assert np.array_equal(d2u, np.swapaxes(d2u, -1, -2))
    for i in range(2):
        for j in range(2):
            assert d2u[:, i, j].flags.c_contiguous, (i, j)


def test_spline_partials_in_blocks_match_one_gather(monkeypatch):
    # partials gather at most LatticeSpline.BLOCK points at a time: 8193 points
    # (two full blocks and one point) give, bit for bit, the single gather's
    # values, of a scalar and of a vector-valued spline on a solved field
    omega = Ellipse((0, 0), (1.0, 0.8))
    spec = ProblemSpec(omega, Ball((0, 0), 0.4), ModelKind.MINKOWSKI, build_grid(omega, 32, 64))
    fld, _ = newton_solve(spec, seed_field(spec))
    rng = np.random.default_rng(5)
    points = np.stack([rng.uniform(0, 1.05, 8193), rng.uniform(0, 2 * np.pi, 8193)], axis=-1)
    nus = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    splines = [grid_module.lattice_spline(fld.grid, fld.grid.to_param_array(v))
               for v in (fld.u, np.stack([fld.u, fld.u ** 2], axis=-1))]
    assert grid_module.LatticeSpline.BLOCK == 4096
    blocked = [spl.partials(points, nus) for spl in splines]
    monkeypatch.setattr(grid_module.LatticeSpline, "BLOCK", len(points))
    for spl, got in zip(splines, blocked):
        for a, b in zip(got, spl.partials(points, nus)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestQuadrature:
    def test_ball_area(self):
        g = build_grid(Ball((0, 0), 1.0), 32, 64)
        assert g.quadrature(np.ones(g.n_nodes)) == pytest.approx(np.pi, abs=1e-3)

    def test_ball_perimeter(self):
        g = build_grid(Ball((0, 0), 1.0), 32, 64)
        assert g.boundary_integral(np.ones(64)) == pytest.approx(2 * np.pi, abs=1e-3)

    def test_hessian_determinant_integral(self):
        # u = |x|^2/2 has det D^2 u = 1; its integral is the domain area
        dom = Ellipse((0, 0), (1.0, 0.8))
        g = build_grid(dom, 32, 64)
        u = 0.5 * np.sum(g.nodes ** 2, axis=-1)
        _, d2u = g.derivative_arrays(u)
        det = d2u[:, 0, 0] * d2u[:, 1, 1] - d2u[:, 0, 1] ** 2
        assert g.quadrature(det) == pytest.approx(0.8 * np.pi, abs=1e-3)

    def test_quadrature_order(self):
        vals = []
        for n in (16, 32, 64):
            g = build_grid(Ellipse((0, 0), (1.0, 0.8)), n, 2 * n)
            f = np.exp(g.nodes[:, 0]) * np.cos(g.nodes[:, 1])
            vals.append(g.quadrature(f))
        errs = [abs(v - vals[-1]) for v in vals[:-1]]
        assert np.log2(errs[0] / errs[1]) >= 1.8


class TestMeanZero:
    def test_idempotent_and_small(self):
        g = build_grid(Ball((0, 0), 1.0), 16, 32)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(g.n_nodes)
        p = g.mean_zero(u)
        assert np.allclose(g.mean_zero(p), p, atol=1e-15)
        assert abs(g.quad_weights @ p) <= 1e-14 * np.max(np.abs(p))


class TestSolutionField:
    def test_shape_validation(self):
        g = build_grid(Ball((0, 0), 1.0), 8, 16)
        with pytest.raises(ValueError):
            SolutionField(g, np.zeros(5), 0.0, ModelKind.MINKOWSKI)

    def test_derivatives_shared_until_u_rebound(self):
        g = build_grid(Ball((0, 0), 1.0), 8, 16)
        fld = SolutionField(g, g.mean_zero(np.sum(g.nodes ** 2, axis=-1)), 1.0,
                            ModelKind.MINKOWSKI)
        du, d2u = fld.derivatives()
        assert fld.derivatives()[0] is du and fld.derivatives()[1] is d2u
        assert not (du.flags.writeable or d2u.flags.writeable)
        fld.u = g.mean_zero(g.nodes[:, 0] ** 3)
        for got, expected in zip(fld.derivatives(), g.derivative_arrays(fld.u)):
            assert np.array_equal(got, expected)
        assert replace(fld, u=fld.u.copy()).derivatives()[0] is not fld.derivatives()[0]

    def test_transfer_same_lattice(self):
        dom = Ball((0, 0), 1.0)
        g1 = build_grid(dom, 8, 16)
        g2 = build_grid(dom.sublevel(0.5), 8, 16)
        u = g1.nodes[:, 0] ** 2
        fld = SolutionField(g1, g1.mean_zero(u), 1.0, ModelKind.MINKOWSKI)
        out = transfer_field(fld, g2)
        assert out.grid is g2
        assert abs(g2.quad_weights @ out.u) <= 1e-12

    def test_transfer_refinement(self):
        dom = Ball((0, 0), 1.0)
        g1 = build_grid(dom, 8, 16)
        g2 = build_grid(dom, 16, 32)
        u = 3.0 + 0.0 * g1.nodes[:, 0]
        fld = SolutionField(g1, u, 1.0, ModelKind.MINKOWSKI)
        out = transfer_field(fld, g2)
        # constants transfer exactly and are projected to mean zero
        assert np.max(np.abs(out.u)) < 1e-12

    def test_transfer_refinement_keeps_quadratics(self):
        # |x|^2 = rho^2 on the unit ball: the lattice spline (cubic in rho,
        # periodic in phi) carries it to a finer lattice exactly
        dom = Ball((0, 0), 1.0)
        g1 = build_grid(dom, 8, 16)
        g2 = build_grid(dom, 16, 32)
        fld = SolutionField(g1, g1.mean_zero(np.sum(g1.nodes ** 2, axis=-1)), 1.0,
                            ModelKind.MINKOWSKI)
        out = transfer_field(fld, g2)
        exact = g2.mean_zero(np.sum(g2.nodes ** 2, axis=-1))
        assert np.max(np.abs(out.u - exact)) <= 1e-12
