from __future__ import annotations

import pytest
from reference import euler_form, sym_form

from qgk import FRAMING_VERTEX, DimVector, Quiver, QuiverError, frame


def test_arrow_endpoints_must_exist():
    with pytest.raises(QuiverError):
        Quiver(["0"], [("0", "1")])


def test_duplicate_vertex_names_rejected():
    with pytest.raises(QuiverError):
        Quiver(["0", "0"])


def test_loop_and_parallel_counts(kronecker, jordan):
    assert kronecker.arrows == (("0", "1"), ("0", "1"))
    assert jordan.arrows == (("0", "0"),)


def test_dimvector_rejects_negative_and_unknown(a2):
    with pytest.raises(QuiverError):
        DimVector(a2, (-1, 0))
    with pytest.raises(QuiverError):
        DimVector(a2, {"7": 1})
    assert DimVector(a2, (0, 2), allow_negative=True)["1"] == 2


def test_dimvector_order_and_support(a2):
    d = DimVector(a2, (1, 2))
    assert d.as_tuple() == (1, 2)
    assert d.total == 3
    assert d.support == {"0", "1"}
    assert DimVector(a2, (1, 0)) <= d


def test_euler_form_reference_values(jordan, a2):
    assert euler_form(jordan, DimVector(jordan, (2,)), DimVector(jordan, (3,))) == 0
    d, e = DimVector(a2, (1, 0)), DimVector(a2, (0, 1))
    assert euler_form(a2, d, e) == -1
    assert euler_form(a2, d, d) == 1


def test_sym_form_reference_values(kronecker, jordan, g2loop):
    dd = DimVector(kronecker, (1, 1))
    assert sym_form(kronecker, dd, dd) == 0
    one = DimVector(jordan, (1,))
    assert sym_form(jordan, one, one) == 0
    one = DimVector(g2loop, (1,))
    assert sym_form(g2loop, one, one) == -2


def test_sym_form_symmetric_and_even(kronecker):
    import itertools

    vecs = [DimVector(kronecker, t) for t in itertools.product(range(3), repeat=2)]
    for d in vecs:
        for e in vecs:
            assert sym_form(kronecker, d, e) == sym_form(kronecker, e, d)
        assert sym_form(kronecker, d, d) % 2 == 0


def test_sym_form_orientation_independent(a2, kronecker):
    for q in (a2, kronecker):
        flipped = Quiver(list(q.vertices), [(t, s) for s, t in q.arrows])
        d = DimVector(q, (2, 1))
        e = DimVector(q, (1, 3))
        d2 = DimVector(flipped, (2, 1))
        e2 = DimVector(flipped, (1, 3))
        assert sym_form(q, d, e) == sym_form(flipped, d2, e2)


def test_frame_shapes(jordan, a2):
    framed_jordan = frame(jordan, DimVector(jordan, (1,)))
    assert framed_jordan.vertices == ("0", FRAMING_VERTEX)
    assert framed_jordan.arrows == (("0", "0"), (FRAMING_VERTEX, "0"))

    framed = frame(a2, DimVector(a2, (1, 0)))
    assert len(framed.vertices) == 3
    assert len(framed.arrows) == 2

    isolated = frame(a2, DimVector.zero(a2))
    assert len(isolated.arrows) == len(a2.arrows)
    assert isolated.vertices[-1] == FRAMING_VERTEX


def test_framed_form_identities(kronecker):
    import itertools

    f = DimVector(kronecker, (2, 1))
    framed = frame(kronecker, f)
    for dt, et in itertools.product(itertools.product(range(3), repeat=2), repeat=2):
        d, e = DimVector(kronecker, dt), DimVector(kronecker, et)
        d0 = DimVector(framed, dt + (0,))
        d1 = DimVector(framed, dt + (1,))
        e0 = DimVector(framed, et + (0,))
        assert sym_form(framed, d0, e0) == sym_form(kronecker, d, e)
        f_dot_e = sum(f[v] * e[v] for v in kronecker.vertices)
        assert sym_form(framed, d1, e0) == sym_form(kronecker, d, e) - f_dot_e


def test_cross_quiver_arithmetic_is_an_error(a2, kronecker):
    with pytest.raises(QuiverError):
        DimVector(a2, (1, 0)) + DimVector(kronecker, (1, 0))


def test_json_round_trip_and_schema_rejection(kronecker):
    text = '{"vertices": ["0", "1"], "arrows": [["0", "1"], ["0", "1"]]}'
    assert Quiver.from_json(text) == kronecker
    with pytest.raises(QuiverError):
        Quiver.from_json('{"vertices": ["0"], "extra": 1}')
    with pytest.raises(QuiverError):
        Quiver.from_json('{"arrows": []}')
    with pytest.raises(QuiverError):
        Quiver.from_json("not json")
    round_tripped = Quiver.from_json_dict(kronecker.to_json_dict())
    assert round_tripped == kronecker
