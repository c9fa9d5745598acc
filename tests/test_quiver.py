from __future__ import annotations

import pytest
from reference import euler_form, sym_form

from qgk import (
    FRAMING_VERTEX,
    Quiver,
    QuiverError,
    brute_force_counts,
    canonical_decomposition,
    frame,
    ip_general,
    lw_decompose,
)


def test_arrow_endpoints_must_exist():
    with pytest.raises(QuiverError):
        Quiver(["0"], [("0", "1")])


def test_duplicate_vertex_names_rejected():
    with pytest.raises(QuiverError):
        Quiver(["0", "0"])


def test_loop_and_parallel_counts(kronecker, jordan):
    assert kronecker.arrows == (("0", "1"), ("0", "1"))
    assert jordan.arrows == (("0", "0"),)


#: Every public function that takes a user's dimension vector, called on A2.
CHECKED_AT_ENTRY = {
    "vector": lambda q, d: q.vector(d),
    "frame": frame,
    "ip_general": ip_general,
    "canonical_decomposition": canonical_decomposition,
    "brute_force_counts": lambda q, d: brute_force_counts(q, d, 2),
    "lw_decompose": lambda q, d: lw_decompose(q, d, 2),
}


@pytest.mark.parametrize("name", sorted(CHECKED_AT_ENTRY))
@pytest.mark.parametrize(
    "d, message",
    [
        ((1, 2, 3), "dimension sequence length differs from vertex count"),
        ((1, -1), "negative entry in a dimension vector"),
    ],
    ids=["wrong-length", "negative"],
)
def test_dimension_vectors_are_checked_where_they_enter(a2, name, d, message):
    with pytest.raises(QuiverError, match=message):
        CHECKED_AT_ENTRY[name](a2, d)


def test_euler_form_reference_values(jordan, a2):
    assert euler_form(jordan, (2,), (3,)) == 0
    d, e = (1, 0), (0, 1)
    assert euler_form(a2, d, e) == -1
    assert euler_form(a2, d, d) == 1


def test_sym_form_reference_values(kronecker, jordan, g2loop):
    assert sym_form(kronecker, (1, 1), (1, 1)) == 0
    assert sym_form(jordan, (1,), (1,)) == 0
    assert sym_form(g2loop, (1,), (1,)) == -2


def test_sym_form_symmetric_and_even(kronecker):
    import itertools

    vecs = list(itertools.product(range(3), repeat=2))
    for d in vecs:
        for e in vecs:
            assert sym_form(kronecker, d, e) == sym_form(kronecker, e, d)
        assert sym_form(kronecker, d, d) % 2 == 0


def test_sym_form_orientation_independent(a2, kronecker):
    for q in (a2, kronecker):
        flipped = Quiver(list(q.vertices), [(t, s) for s, t in q.arrows])
        assert sym_form(q, (2, 1), (1, 3)) == sym_form(flipped, (2, 1), (1, 3))


def test_frame_shapes(jordan, a2):
    framed_jordan = frame(jordan, (1,))
    assert framed_jordan.vertices == ("0", FRAMING_VERTEX)
    assert framed_jordan.arrows == (("0", "0"), (FRAMING_VERTEX, "0"))

    framed = frame(a2, (1, 0))
    assert len(framed.vertices) == 3
    assert len(framed.arrows) == 2

    isolated = frame(a2, (0, 0))
    assert len(isolated.arrows) == len(a2.arrows)
    assert isolated.vertices[-1] == FRAMING_VERTEX


def test_framed_form_identities(kronecker):
    import itertools

    f = (2, 1)
    framed = frame(kronecker, f)
    for d, e in itertools.product(itertools.product(range(3), repeat=2), repeat=2):
        d0, d1, e0 = d + (0,), d + (1,), e + (0,)
        assert sym_form(framed, d0, e0) == sym_form(kronecker, d, e)
        f_dot_e = sum(a * b for a, b in zip(f, e))
        assert sym_form(framed, d1, e0) == sym_form(kronecker, d, e) - f_dot_e


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
