import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ellipe

from cmcsolve import Ball, Ellipse
from cmcsolve.domains import (CENTER_REACH, domain_from_dict, polar_frame,
                              require_inside_unit_ball)
from cmcsolve.errors import ConfigError, DegenerateSublevel, NotOnBoundary
from helpers import grad_bound_delta, quadric_domains, theta


class TestBallDefining:
    def test_center_values(self):
        ball = Ball((0, 0), 1.0)
        h, dh, d2h = ball.defining(np.zeros(2))
        assert h == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(dh, 0.0)
        assert np.allclose(d2h, -np.eye(2))

    def test_boundary_point(self):
        ball = Ball((0, 0), 1.0)
        h, dh, _ = ball.defining(np.array([1.0, 0.0]))
        assert abs(h) < 1e-15
        assert np.allclose(dh, [-1.0, 0.0])
        assert np.linalg.norm(dh) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_gradient_unit(self):
        ball = Ball((0.3, -0.2), 0.7)
        phi = np.linspace(0, 2 * np.pi, 40, endpoint=False)
        x = ball.peak + 0.7 * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        _, dh, _ = ball.defining(x)
        assert np.allclose(np.linalg.norm(dh, axis=-1), 1.0, atol=1e-12)

    def test_sign_pattern(self):
        ball = Ball((0, 0), 1.0)
        h_in, _, _ = ball.defining(np.array([0.5, 0.3]))
        h_out, _, _ = ball.defining(np.array([1.5, 0.3]))
        assert h_in > 0 and h_out < 0


class TestEllipseDefining:
    def test_boundary_point_and_direction(self):
        ell = Ellipse((0, 0), (1.0, 0.8))
        h, dh, _ = ell.defining(np.array([1.0, 0.0]))
        assert abs(h) < 1e-14
        n = dh / np.linalg.norm(dh)
        assert np.allclose(n, [-1.0, 0.0], atol=1e-14)

    def test_gradient_band(self):
        ell = Ellipse((0, 0), (1.0, 0.8))
        delta = grad_bound_delta(ell)
        assert delta > 0.5
        t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        x = np.stack([np.cos(t), 0.8 * np.sin(t)], axis=-1)
        _, dh, _ = ell.defining(x)
        g = np.linalg.norm(dh, axis=-1)
        assert np.all(g >= delta - 1e-12)
        assert np.all(g <= 1.0 / delta + 1e-12)

    def test_concavity_constant(self):
        ell = Ellipse((0, 0), (1.0, 0.8))
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.7, 0.7, (100, 2))
        _, _, d2h = ell.defining(pts)
        eigs = np.linalg.eigvalsh(d2h)
        assert np.all(eigs <= -theta(ell) + 1e-12)


class TestInwardNormal:
    @pytest.mark.parametrize("x, expected", [
        ((1.0, 0.0), (-1.0, 0.0)),
        ((0.0, -1.0), (0.0, 1.0)),
    ])
    def test_ball(self, x, expected):
        assert np.allclose(Ball((0, 0), 1.0).inward_normal(np.array(x)),
                           expected, atol=1e-12)

    def test_ellipse_minor_axis(self):
        ell = Ellipse((0, 0), (1.0, 0.8))
        nu = ell.inward_normal(np.array([0.0, 0.8]))
        assert np.allclose(nu, [0.0, -1.0], atol=1e-12)

    def test_not_on_boundary(self):
        with pytest.raises(NotOnBoundary):
            Ball((0, 0), 1.0).inward_normal(np.array([0.5, 0.0]))


class TestSublevel:
    def test_identity_at_one(self):
        ball = Ball((0, 0), 1.0)
        assert ball.sublevel(1.0) is ball

    def test_ball_half_level(self):
        # level = h_max/2 = 0.25 at t = 0.5; the set {h >= 0.25} is the
        # ball of radius 1/sqrt(2) (solve (1 - r^2)/2 = 0.25)
        sub = Ball((0, 0), 1.0).sublevel(0.5)
        r = sub.boundary_radius(np.linspace(0, 2 * np.pi, 16, endpoint=False))
        assert np.allclose(r, 1.0 / np.sqrt(2.0), atol=1e-12)

    def test_area_increasing_in_t(self):
        ell = Ellipse((0, 0), (1.0, 0.8))
        areas = [ell.sublevel(t).measures()[0] for t in (0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_degenerate(self):
        with pytest.raises(DegenerateSublevel):
            Ball((0, 0), 1.0).sublevel(1e-5)

    @pytest.mark.parametrize("dom", [Ball((0, 0), 1.0),
                                     Ellipse((0, 0), (1.0, 0.8)).sublevel(0.5)])
    @pytest.mark.parametrize("t", [1e-17, 1e-300])
    def test_degenerate_below_float_resolution(self, dom, t):
        # (1 - t) h_max rounds to h_max: the floor must answer before the
        # level set is built
        with pytest.raises(DegenerateSublevel):
            dom.sublevel(t)

    def test_nested_flattening(self):
        # a super-level set of a super-level set is again a scaled copy
        sub2 = Ball((0, 0), 1.0).sublevel(0.6).sublevel(0.5)
        assert sub2 == Ball((0, 0), np.sqrt(0.6) * np.sqrt(0.5))

    @pytest.mark.parametrize("dom, copy", [
        (Ball((0.2, -0.1), 0.8), Ball((0.2, -0.1), 0.8 * np.sqrt(0.3))),
        (Ellipse((0.1, 0.3), (1.0, 0.6)),
         Ellipse((0.1, 0.3), (np.sqrt(0.3), 0.6 * np.sqrt(0.3))))])
    def test_scaled_copy_of_same_class(self, dom, copy):
        # the copy's defining function is (h - (1-t) h_max)/sqrt(t)
        sub = dom.sublevel(0.3)
        assert sub == copy
        x = np.random.default_rng(0).uniform(-1, 1, (50, 2))
        h_sub, dh_sub, _ = sub.defining(x)
        h, dh, _ = dom.defining(x)
        assert np.allclose(h_sub, (h - 0.7 * dom.h_max) / np.sqrt(0.3), rtol=0, atol=1e-14)
        assert np.allclose(dh_sub, dh / np.sqrt(0.3), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dom, t", [(Ball((0, 0), 1e-102), 0.05),
                                        (Ball((0, 6e7), 1.0), 0.5)])
    def test_unrepresentable_copy(self, dom, t):
        # the copy's radius leaves RADIUS_RANGE, or its peak CENTER_REACH
        with pytest.raises(DegenerateSublevel, match="cannot be represented"):
            dom.sublevel(t)

    def test_level_curve_shape_near_peak(self):
        # second-order Taylor at the peak: the level curves approach the
        # ellipse of the defining-function Hessian, whose axis ratio here
        # equals a/b (the Hessian is -s diag(1/a^2, 1/b^2)); they do not
        # become round for this analytic defining function
        ell = Ellipse((0, 0), (1.0, 0.8))
        sub = ell.sublevel(0.05)
        phi = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        r = np.atleast_1d(sub.boundary_radius(phi))
        ratio = np.max(r) / np.min(r)
        assert ratio == pytest.approx(1.0 / 0.8, rel=1e-3)


class TestMeasures:
    @pytest.mark.parametrize("radius, area, perim", [
        (1.0, np.pi, 2 * np.pi),
        (0.5, np.pi / 4, np.pi),
    ])
    def test_ball(self, radius, area, perim):
        a, p = Ball((0, 0), radius).measures()
        assert a == pytest.approx(area, rel=1e-14)
        assert p == pytest.approx(perim, rel=1e-14)

    def test_ellipse_against_elliptic_integral(self):
        a, b = 1.0, 0.8
        area, perim = Ellipse((0, 0), (a, b)).measures()
        assert area == pytest.approx(np.pi * a * b, rel=1e-14)
        exact = 4 * a * ellipe(1 - (b / a) ** 2)
        assert perim == pytest.approx(exact, rel=1e-9)
        assert perim == pytest.approx(5.672333577794897, rel=1e-9)


class TestEllipsePerimeter:
    @pytest.mark.parametrize("a, b", [(1.0, 0.01), (1e6, 1.0)])
    def test_elongated(self, a, b):
        _, perim = Ellipse((0, 0), (a, b)).measures()
        assert perim == pytest.approx(4 * a * ellipe(1 - (b / a) ** 2), rel=1e-12)


class TestRoundTrip:
    @pytest.mark.parametrize("dom", [
        Ball((0.1, -0.2), 0.8),
        Ellipse((0, 0.3), (1.2, 0.5)),
        Ball((0, 0), 1.0).sublevel(0.4),
    ])
    def test_dict_round_trip(self, dom):
        back = domain_from_dict(dom.to_dict())
        assert back == dom

    @pytest.mark.parametrize("base", [Ball((0.1, -0.2), 0.8), Ellipse((0, 0.3), (1.2, 0.5))])
    def test_sublevel_header(self, base):
        # earlier versions wrote {h_base >= level} with this kind
        d = {"kind": "sublevel", "base": base.to_dict(), "level": 0.6 * base.h_max}
        assert domain_from_dict(d) == base.sublevel(0.4)


@settings(max_examples=50, deadline=None)
@given(cx=st.floats(-1, 1), cy=st.floats(-1, 1),
       a=st.floats(0.3, 2.0), b=st.floats(0.3, 2.0))
def test_ellipse_properties(cx, cy, a, b):
    ell = Ellipse((cx, cy), (a, b))
    h_peak, dh_peak, _ = ell.defining(ell.peak)
    assert h_peak == pytest.approx(ell.h_max, rel=1e-12)
    assert np.allclose(dh_peak, 0.0, atol=1e-12)
    phi = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    r = np.atleast_1d(ell.boundary_radius(phi))
    assert np.all(r > 0)
    x = ell.peak + r[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    h, _, _ = ell.defining(x)
    assert np.max(np.abs(h)) < 1e-10 * ell.diameter()


RAYS = np.linspace(0, 2 * np.pi, 16, endpoint=False)


def _translated(d: dict, offset) -> dict:
    """A domain's to_dict() form with its center moved by offset."""
    return {**d, "center": [c + o for c, o in zip(d["center"], offset)]}


class TestRayRoots:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_root_on_boundary(self, data):
        dom = data.draw(quadric_domains())
        r = dom.boundary_radius(RAYS)
        assert np.all(r > 0)
        h, _, _ = dom.defining(dom.peak + r[:, None] * np.stack([np.cos(RAYS), np.sin(RAYS)],
                                                                axis=-1))
        assert np.max(np.abs(h)) <= 1e-13 * dom.diameter()

    @pytest.mark.parametrize("dom, offset", [
        (Ellipse((0.2, -0.1), (1.0, 0.6)), (0.0, 0.0)),
        (Ellipse((0.2, -0.1), (1.0, 0.6)), (0.3, 0.2)),
        (Ball((0, 0), 1.0).sublevel(0.5), (-0.2, 0.1)),
        (Ellipse((0, 0), (1.0, 0.8)).sublevel(0.4), (0.1, 0.1)),
    ])
    def test_radii_invariant_under_translation(self, dom, offset):
        # radii are taken about the peak, so translating the domain by
        # offset leaves them unchanged
        moved = domain_from_dict(_translated(dom.to_dict(), offset))
        assert np.allclose(moved.peak, dom.peak + np.array(offset), rtol=0, atol=1e-15)
        assert np.allclose(moved.boundary_radius(RAYS), dom.boundary_radius(RAYS),
                           rtol=1e-14, atol=0)

    @settings(max_examples=100, deadline=None)
    @given(dom=quadric_domains())
    def test_radii_are_sampled_extremes(self, dom):
        r = dom.boundary_radius(np.linspace(0, 2 * np.pi, 4096, endpoint=False))
        r_in, r_out = dom.radii()
        assert r_in == pytest.approx(np.min(r), rel=1e-12)
        assert r_out == pytest.approx(np.max(r), rel=1e-12)
        assert dom.diameter() == 2 * r_out

    @pytest.mark.parametrize("dom", [Ball((0.1, 0), 0.7), Ellipse((0, 0), (1.0, 0.5)),
                                     Ellipse((0, 0), (1.0, 0.5)).sublevel(0.3)])
    def test_scalar_and_shape(self, dom):
        method = dom.boundary_radius
        assert type(method(0.3)) is float
        assert method(np.array([0.3])).shape == (1,)
        assert method(np.zeros((3, 4)) + 0.3).shape == (3, 4)
        assert method(np.array([0.3]))[0] == method(0.3)


@settings(max_examples=50, deadline=None)
@given(dom=quadric_domains())
def test_disk_map_sends_unit_circle_onto_boundary(dom):
    lmap = dom.disk_map()
    assert np.array_equal(lmap, lmap.T)
    h, _, _ = dom.defining(dom.peak + polar_frame(RAYS)[0] @ lmap.T)
    assert np.max(np.abs(h)) <= 1e-13 * dom.diameter()


@pytest.mark.parametrize("dom, diag", [(Ball((0.1, 0), 0.7), (0.7, 0.7)),
                                       (Ellipse((0.2, 0.1), (1.0, 0.35)), (1.0, 0.35)),
                                       (Ellipse((0, 0), (0.9, 0.2)), (0.9, 0.2))])
def test_disk_map_of_the_classes(dom, diag):
    assert np.array_equal(dom.disk_map(), np.diag(diag))


class TestQuadricMeasures:
    @pytest.mark.parametrize("a, b", [(1.0, 0.8), (1.2, 0.5), (2.0, 0.7)])
    def test_ellipse(self, a, b):
        area, perim = Ellipse((0.1, -0.3), (a, b)).measures()
        assert area == np.pi * a * b
        assert perim == pytest.approx(4 * a * ellipe(1 - (b / a) ** 2), rel=1e-10)

    @pytest.mark.parametrize("base", [Ball((0.2, 0), 0.9), Ellipse((0, 0.1), (1.0, 0.8))])
    @pytest.mark.parametrize("t", [0.2, 0.5, 0.9])
    def test_sublevel_area_scales_with_t(self, base, t):
        assert base.sublevel(t).measures()[0] == pytest.approx(
            t * base.measures()[0], rel=1e-12)


class TestCenterReach:
    @pytest.mark.parametrize("make", [lambda d: Ball((0, d), 1.0),
                                      lambda d: Ellipse((d * 0.3, 0), (1.0, 0.3))])
    def test_peak_within_reach_inradii(self, make):
        # the ellipse's inradius is 0.3: both sit exactly at the reach
        make(CENTER_REACH)
        with pytest.raises(ValueError, match="inradii of the origin"):
            make(1.01 * CENTER_REACH)

    def test_unresolvable_grid_refused(self):
        # at 2^51 inradii the nodes of an 8 x 16 grid round onto one another
        with pytest.raises(ValueError, match="inradii of the origin"):
            Ball((0, 2.0 ** 51 + 1), 1.0)


class TestMaxBoundaryNorm:
    @settings(max_examples=60, deadline=None)
    @given(dom=quadric_domains())
    # a subnormal peak coordinate made np.roots overflow on the quartic
    @example(dom=Ball((1.0, 2.225073858507203e-309), 1.0))
    def test_matches_dense_sample(self, dom):
        # 10^5 angles about the peak, then 10^5 more across the best one's
        # two neighbouring cells: the sample's own error is then far below
        # 1e-12, and it may exceed the exact value by rounding only
        def sampled(phi):
            pts = dom.peak + dom.boundary_radius(phi)[:, None] * polar_frame(phi)[0]
            norms = np.linalg.norm(pts, axis=-1)
            return norms.max(), phi[np.argmax(norms)]

        step = 2 * np.pi / 100_000
        _, best = sampled(np.arange(100_000) * step)
        sample, _ = sampled(np.linspace(best - step, best + step, 100_001))
        exact = dom.max_boundary_norm()
        assert exact >= sample * (1 - 4 * np.finfo(float).eps)
        assert exact <= sample * (1 + 1e-12)

    @pytest.mark.parametrize("dom, norm", [
        (Ball((0, 0), 0.4), 0.4), (Ball((0.5, 0), 0.2), 0.7),
        (Ball((0.3, 0.4), 0.5), 1.0), (Ellipse((0, 0.3), (0.2, 0.5)), 0.8)])
    def test_closed_forms(self, dom, norm):
        assert dom.max_boundary_norm() == pytest.approx(norm, rel=1e-15)


class TestUnitBallCheck:
    def test_inside_passes(self):
        require_inside_unit_ball(Ellipse((0.1, 0), (0.5, 0.3)))

    @pytest.mark.parametrize("dom", [Ball((0, 0), 1.01), Ball((0.6, 0), 0.4 + 1e-7)])
    def test_touching_or_outside_fails(self, dom):
        with pytest.raises(ConfigError, match="unit ball"):
            require_inside_unit_ball(dom)
