"""Codec fuzz: mutated wire documents parse or fail with a path-named ValueError.

Two formats are fuzzed, check configurations (``CheckConfig.from_json``) and
value tables (``DiffPolyRing.values_from_json``, as read from
``problem.phi.values``).  Each draw starts near a valid document and mutates
it, so both the accepting and the rejecting branches are reached; no suite
runs, only parsing.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from hwtaylor.checks import _CONFIG_INTS, CheckConfig, check_names
from hwtaylor.diffpoly import DiffPolyRing
from hwtaylor.rings import QQ, PolynomialRing, PrimeField, constant_structure

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)
# integers near every bound a wire field has
edge_ints = st.one_of(
    st.integers(min_value=-3, max_value=14),
    st.sampled_from([9999, 10000, 10001, 2**63 - 1, 2**63, 2**63 + 1, -(2**63), -(2**63) - 1]),
)

check_list = st.lists(st.one_of(st.sampled_from(check_names()), json_values), max_size=4)
valid_config = st.fixed_dictionaries(
    {},
    optional={
        **{wire: st.integers(lo, hi) for wire, (_, lo, hi) in _CONFIG_INTS.items()},
        "checks": st.lists(st.sampled_from(check_names()), max_size=3),
    },
)


@st.composite
def mutated_config(draw):
    """A valid configuration with up to two fields set to arbitrary values;
    one mutation in five adds an arbitrary field instead."""
    doc = draw(valid_config)
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.integers(0, 4)):
            key = draw(st.sampled_from([*_CONFIG_INTS, "checks"]))
        else:
            key = draw(st.text(max_size=8))
        doc[key] = draw(st.one_of(edge_ints, check_list, json_values))
    return doc


@settings(max_examples=200, deadline=None)
@given(st.one_of(mutated_config(), json_values))
def test_config_documents_parse_or_name_their_path(doc):
    try:
        config = CheckConfig.from_json(doc)
    except ValueError as exc:
        assert str(exc).startswith("config"), exc
    else:
        for wire, (field, _, _) in _CONFIG_INTS.items():
            assert getattr(config, field) == doc.get(wire, getattr(CheckConfig, field))
        assert config.checks == (tuple(doc["checks"]) if "checks" in doc else None)


coefficient_rings = [QQ, PrimeField(5), PolynomialRing(QQ, ["u"])]
value_texts = st.one_of(
    st.text(alphabet="u0123456789+-*/^() ", max_size=10),
    st.text(max_size=6),
)
rows = st.one_of(
    st.tuples(
        st.one_of(st.integers(-1, 2), json_scalars),
        st.one_of(st.lists(st.one_of(edge_ints, json_scalars), max_size=3), json_scalars),
        st.one_of(value_texts, json_scalars),
    ).map(list),
    json_values,
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(coefficient_rings),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.one_of(st.lists(rows, max_size=5), json_values),
)
def test_value_tables_parse_or_name_their_path(K, width, n_vars, doc):
    A = DiffPolyRing(constant_structure(K, width), ["x", "y"][:n_vars])
    try:
        table = A.values_from_json(doc, "problem.phi.values")
    except ValueError as exc:
        assert str(exc).startswith("problem.phi.values"), exc
    else:
        assert A.values_from_json(A.values_to_json(table)) == table
