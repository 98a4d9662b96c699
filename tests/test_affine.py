import random
from fractions import Fraction as F

import pytest

from groupoids import (
    NotComposable,
    ReportBuilder,
    Vec2,
    aff_eval,
    aff_parallelograms,
    aff_product,
    aff_verify,
)
from groupoids import affine


def V(a, b):
    return Vec2(F(a), F(b))


def test_structure_maps():
    assert aff_eval("alpha", V(1, 1)) == F(3)
    assert aff_eval("beta", V(1, 1)) == F(2)
    assert aff_eval("eps", F(5)) == V(5, 0)
    assert aff_eval("inv", V(1, 1)) == V(4, -1)
    with pytest.raises(ValueError):
        aff_eval("gamma", V(0, 0))


def test_product_values():
    assert aff_product(V(1, 1), V(0, 1)) == V(-1, 2)
    assert aff_product(V(3, 0), V(1, 1)) == V(1, 1)


def test_product_respects_composability():
    with pytest.raises(NotComposable) as info:
        aff_product(V(1, 1), V(1, 1))
    assert "=" in str(info.value)  # states both sides of the failed equation


def test_unit_laws_at_a_point():
    x = V(1, 1)
    left = aff_eval("eps", aff_eval("alpha", x))
    right = aff_eval("eps", aff_eval("beta", x))
    assert aff_product(left, x) == x
    assert aff_product(x, right) == x


def test_inverse_laws_at_a_point():
    x = V(7, -3)
    xi = aff_eval("inv", x)
    assert aff_product(x, xi) == aff_eval("eps", aff_eval("alpha", x))
    assert aff_product(xi, x) == aff_eval("eps", aff_eval("beta", x))


def test_interchange_at_fixed_points():
    x, y = V(1, 1), V(0, 1)
    z, t = V(2, 0), V(0, 1)
    lhs = aff_product(x, y) + aff_product(z, t)
    rhs = aff_product(x + z, y + t)
    assert lhs == rhs == V(-1, 3)


def test_verify_is_clean_and_deterministic():
    a = aff_verify()
    assert a.valid and not a.notes
    assert a == aff_verify()


BASIS = ("0", *affine._PARAMETERS)
GOOD = {name: getattr(affine, name)
        for name in ("src", "tgt", "inverse", "aff_product", "_compose_after")}


def _product_plus_one(x, y):
    return GOOD["aff_product"](x, y) + V(1, 0)


def _x2y2_product(x, y):
    return GOOD["aff_product"](x, y) + Vec2(x.x2 * y.x2, F(0))


# name -> (attribute of the module, or of Vec2 for "__add__"; broken copy;
# rules the decision must report)
BROKEN = {
    # an arrow is fixed by its endpoints, so a product that moves either
    # endpoint leaves some law's pair uncomposable, unless it skips the test
    "product +1 on any pair": ("aff_product", lambda x, y: V(x.x1 - 2 * y.x2 + 1, x.x2 + y.x2), {
        "G1-assoc", "G1-source", "G1-target", "G2-left-unit", "G2-right-unit",
        "G3-left-inverse", "G3-right-inverse", "interchange", "parallelogram-A"}),
    "product +1": ("aff_product", _product_plus_one, {"composability"}),
    "product with an x2*y2 term": ("aff_product", _x2y2_product,
                                   {"G3-left-inverse", "G3-right-inverse"}),
    "compose_after +1": ("_compose_after",
                         lambda x, free: GOOD["_compose_after"](x, free) + V(1, 0),
                         {"composability"}),
    "inverse (x1+2*x2, -x2)": ("inverse", lambda p: Vec2(p.x1 + 2 * p.x2, -p.x2),
                               {"inverse-endpoints", "parallelogram-B"}),
    "inverse +1": ("inverse", lambda p: GOOD["inverse"](p) + V(1, 0),
                   {"inversion-involution", "inversion-additive", "unit-self-inverse"}),
    "unit (u, 1)": ("unit", lambda u: Vec2(F(u), F(1)),
                    {"unit-section", "unit-self-inverse", "unit-additive"}),
    "source +1": ("src", lambda p: GOOD["src"](p) + 1, {"source-additive"}),
    "target +1": ("tgt", lambda p: GOOD["tgt"](p) + 1, {"target-additive"}),
    "addition x + z + (0, x1)": ("__add__", lambda a, b: V(a.x1 + b.x1, a.x2 + b.x2 + a.x1),
                                 {"addition-commutes"}),
}


@pytest.fixture(params=sorted(BROKEN))
def broken(request, monkeypatch):
    attribute, copy, _ = BROKEN[request.param]
    monkeypatch.setattr(Vec2 if attribute == "__add__" else affine, attribute, copy)
    return request.param


def test_the_decision_refuses_every_broken_copy_at_a_basis_point(broken):
    report = aff_verify()
    assert BROKEN[broken][2] <= set(report.rules())
    assert {v.witness[0] for v in report.violations} <= set(BASIS)


def _images(params) -> dict:
    """Every map of the model that aff_verify's laws are built from, as
    coordinates of the nine parameters."""
    x1, x2, y2, w2, z1, z2, t2, u, v = params
    x, z = Vec2(x1, x2), Vec2(z1, z2)
    y = affine._compose_after(x, y2)
    w = affine._compose_after(y, w2)
    t = affine._compose_after(z, t2)
    points = {
        "y": y, "w": w, "t": t, "unit(u)": affine.unit(u), "inverse(x)": affine.inverse(x),
        "x.y": affine.aff_product(x, y), "y.w": affine.aff_product(y, w),
        "z.t": affine.aff_product(z, t), "x+z": x + z, "y+t": y + t,
        "(x+z).(y+t)": affine.aff_product(x + z, y + t),
    }
    images = {name: (p.x1, p.x2) for name, p in points.items()}
    images.update({"src(x)": (affine.src(x),), "tgt(x)": (affine.tgt(x),),
                   "u+v": (u + v,)})
    return images


def _random_fraction(rng: random.Random) -> F:
    # numerators in [-100, 100], denominators in [1, 10]; Fraction reduces
    return F(rng.randint(-100, 100), rng.randint(1, 10))


def _not_affine(seed: int, samples: int = 40) -> set:
    """The maps f of _images with f(p) != f(0) + sum of p_i * (f(e_i) - f(0))
    at some of ``samples`` seeded rational points p."""
    n = len(affine._PARAMETERS)
    zero = (F(0),) * n
    at_zero = _images(zero)
    units = [_images(zero[:i] + (F(1),) + zero[i + 1:]) for i in range(n)]
    rng = random.Random(seed)
    failing = set()
    for _ in range(samples):
        p = [_random_fraction(rng) for _ in range(n)]
        for name, value in _images(p).items():
            f0 = at_zero[name]
            interpolated = tuple(
                f0[k] + sum(p[i] * (units[i][name][k] - f0[k]) for i in range(n))
                for k in range(len(f0))
            )
            if value != interpolated:
                failing.add(name)
    return failing


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_map_of_the_model_is_affine(seed):
    # the premise of the basis theorem, at seeded rational points
    assert _not_affine(seed) == set()


def test_a_product_with_an_x2_y2_term_is_not_affine(monkeypatch):
    monkeypatch.setattr(affine, "aff_product", _x2y2_product)
    assert {"x.y", "y.w", "z.t", "(x+z).(y+t)"} <= _not_affine(0)


def _sampled(samples: int, seed: int):
    """The seeded sampler that aff_verify replaced: the same laws at
    ``samples`` random rational points, drawn in parameter order."""
    rb = ReportBuilder()
    rng = random.Random(seed)
    for k in range(samples):
        params = tuple(_random_fraction(rng) for _ in affine._PARAMETERS)
        affine._check_laws(rb, f"{k:06d}", params)
    return rb.build()


def test_the_sampler_passes_the_model():
    assert _sampled(200, 0).valid and _sampled(30, 5).valid


def test_the_sampler_agrees_with_the_decision_on_every_broken_copy(broken):
    decided, sampled = aff_verify(), _sampled(30, 5)
    assert not decided.valid and not sampled.valid
    if broken == "product with an x2*y2 term":
        # outside the premise: the basis sees only the laws it breaks at a
        # basis point, G3 at x2, where x and inverse(x) both have x2 != 0
        assert set(decided.rules()) < set(sampled.rules())
    else:
        assert decided.rules() == sampled.rules()


GRID = (F(-3), F(-1, 2), F(0), F(2, 3), F(5))


def test_quads_on_a_grid_of_parameters():
    for a in GRID:
        for b in GRID:
            for c in GRID:
                q = aff_parallelograms("A", (a, b, c))
                assert q.degenerate == (c == 0)
                assert q.is_parallelogram == (c != 0)
                assert q.midpoint_13 == q.midpoint_24
                if c != 0:
                    assert q.slopes == (F(-1, 2), F(-1, 2))
                    assert q.squared_lengths == (5 * c**2, 5 * c**2)
                else:
                    assert q.slopes is None and q.squared_lengths is None
    for x1 in GRID:
        for x2 in GRID:
            q = aff_parallelograms("B", (x1, x2))
            assert q.degenerate == (x2 == 0)
            assert q.is_parallelogram == (x2 != 0)
            assert q.midpoint_13 == q.midpoint_24
            if x2 != 0:
                assert q.slopes == (F(-1, 2), F(-1, 2))
                assert q.squared_lengths == (5 * x2**2, 5 * x2**2)


def test_quad_kind_a_reference_values():
    q = aff_parallelograms("A", (F(1), F(0), F(1)))
    assert q.points == (V(2, 0), V(1, 1), V(-1, 2), V(0, 1))
    assert q.midpoint_13 == q.midpoint_24 == V(F(1, 2), F(1))
    assert q.slopes == (F(-1, 2), F(-1, 2))
    assert q.squared_lengths == (F(5), F(5))
    assert q.is_parallelogram
    assert not q.degenerate


def test_quad_kind_a_scales_quadratically():
    q = aff_parallelograms("A", (F(0), F(0), F(2)))
    assert q.points == (V(4, 0), V(0, 4), V(-4, 6), V(0, 2))
    assert q.midpoint_13 == q.midpoint_24 == V(0, 3)
    assert q.squared_lengths == (F(20), F(20))


def test_quad_kind_b_reference_values():
    q = aff_parallelograms("B", (F(1), F(1)))
    assert q.points == (V(3, 0), V(1, 1), V(2, 0), V(4, -1))
    assert q.midpoint_13 == q.midpoint_24 == V(F(5, 2), F(0))
    assert q.is_parallelogram


def test_degenerate_quads():
    qa = aff_parallelograms("A", (F(3), F(-2), F(0)))
    assert qa.degenerate and not qa.is_parallelogram
    assert qa.slopes is None and qa.squared_lengths is None
    qb = aff_parallelograms("B", (F(1), F(0)))
    assert qb.degenerate and not qb.is_parallelogram


def test_quad_rejects_unknown_kind():
    with pytest.raises(ValueError):
        aff_parallelograms("C", (F(1), F(1)))


def test_vector_rendering():
    assert str(V(F(1, 2), -3)) == "(1/2, -3)"
    d = aff_parallelograms("A", (F(1), F(0), F(1))).to_dict()
    assert d["parallelogram"] is True
    assert d["points"]["A1"] == "(2, 0)"
    assert d["diagonal_midpoints"] == ["(1/2, 1)", "(1/2, 1)"]
