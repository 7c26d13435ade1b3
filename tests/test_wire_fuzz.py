"""Codec fuzz: mutated wire documents parse or fail with a path-named ValueError.

Check configurations (``CheckConfig.from_json``) and value tables
(``DiffPolyRing.values_from_json``, as read from ``problem.phi.values``) are
only parsed.  Whole problem documents go through ``hwtaylor expand`` and
must end in exit 0, 2 or 3 without a traceback; exit 2 names a path in the
document.  Each draw starts near a valid document and mutates it, so both
the accepting and the rejecting branches are reached.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from hwtaylor.checks import _CONFIG_INTS, CheckConfig, check_names
from hwtaylor.cli import main
from hwtaylor.diffpoly import DiffPolyRing
from hwtaylor.rings import QQ, PolynomialRing, PrimeField, constant_structure
from hwtaylor.taylor import CONSTRUCTIONS

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


# Whole problem documents through ``hwtaylor expand``.  Each draw is a valid
# document, small enough (m <= 2, trunc <= 2, orders <= 1 and powers <= 3 in
# the element, value rows up to order trunc + 1) to expand at once, with up
# to two mutations: an element string replaced by tokens the polynomial
# scanner knows or rejects, a value row dropped, repeated or made up, the
# ring descriptor changed, or any node replaced by an arbitrary value.
ELEMENT_TOKENS = [
    "u", "v", "w", "uv", "0", "1", "2", "07", "64", "65", "1/2", "3/4", "1/0", "1/02",
    "\u0663", "+", "-", "*", "^", " ", "/", "$", "(", ".",
]
token_texts = st.lists(st.sampled_from(ELEMENT_TOKENS), max_size=8).map("".join)
small_ints = st.one_of(st.integers(-1, 3), st.sampled_from([64, 65, 2**63, True, None, "1"]))
RING_CHANGES = [
    ("kind", "Q"), ("kind", "Fp"), ("kind", "series"), ("p", 4), ("p", 2), ("p", 2**89 - 1),
    ("generators", []), ("generators", ["u", "u"]), ("generators", ["w"]),
    ("generators", ["1u"]), ("base", {"kind": "poly", "generators": ["w"]}),
    ("derivations", [{"u": "u"}, {"u": "1"}]), ("derivations", [{"w": "1"}]),
]


@st.composite
def poly_texts(draw, generators, rational):
    coeffs = ["1", "2", "1/2", "3/4"] if rational else ["1", "2", "4"]
    text = ""
    for _ in range(draw(st.integers(1, 3))):
        factors = [draw(st.sampled_from(coeffs))]
        for g in generators:
            e = draw(st.integers(0, 2))
            factors += [g if e == 1 else f"{g}^{e}"] if e else []
        text += draw(st.sampled_from([" + ", " - "] if text else ["", "-"])) + "*".join(factors)
    return text


def _box(width, bound):
    return [list(t) for t in itertools.product(range(bound + 1), repeat=width) if sum(t) <= bound]


@st.composite
def valid_problem(draw):
    width, trunc = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    generators = ["u", "v"][: draw(st.integers(1, 2))]
    p = draw(st.sampled_from([None, 3, 5]))
    text = poly_texts(generators, p is None)
    morphism, _, needs_constant, _ = draw(st.sampled_from(CONSTRUCTIONS))
    ring: dict = {"kind": "poly", "generators": generators}
    if p:
        ring["p"] = p
    if not needs_constant:
        # d/du and v*d/dv commute
        ring["derivations"] = [{"u": "1"}, {"v": "v"} if "v" in generators else {}][:width]
    doc = {"ring": ring, "m": width, "trunc": trunc, "morphism": morphism}
    if draw(st.integers(0, 4)) == 0:
        mode = draw(st.sampled_from(["zero", "ring"]))
        source = {"kind": "self", "derivations": mode}
        return {**doc, "source": source, "phi": "identity", "element": draw(text)}
    n_vars = draw(st.integers(1, 2))
    orders = _box(width, 1)
    element = [
        {
            "coeff": draw(text),
            "monomial": [
                [var, draw(st.sampled_from(orders)), draw(st.integers(1, 3))]
                for var in draw(st.lists(st.integers(0, n_vars - 1), max_size=2, unique=True))
            ],
        }
        for _ in range(draw(st.integers(1, 3)))
    ]
    rows = [[var, order, draw(text)] for var in range(n_vars) for order in _box(width, trunc + 1)]
    phi: dict = {"values": rows}
    if draw(st.booleans()):
        some = st.lists(st.sampled_from(range(len(rows))), max_size=4, unique=True)
        phi = {"default_zero": True, "values": [rows[i] for i in draw(some)]}
    source = {"kind": "diffpoly", "vars": ["x", "y"][:n_vars]}
    # a copy, so that no two nodes are one object
    return json.loads(json.dumps({**doc, "source": source, "phi": phi, "element": element}))


def _nodes(node, path=()):
    """Every path into a JSON document, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nodes(child, (*path, key))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def problem_documents(draw):
    doc = draw(valid_problem())
    for _ in range(draw(st.integers(0, 2))):
        if not isinstance(doc, dict):
            break
        kind = draw(st.sampled_from(["string", "string", "row", "ring", "node"]))
        paths = list(_nodes(doc))
        strings = [p for p in paths if isinstance(_get(doc, p), str) and p[-1] != "kind"]
        phi, ring = doc.get("phi"), doc.get("ring")
        rows = phi.get("values") if isinstance(phi, dict) else None
        if kind == "string" and strings:
            doc = _set(doc, draw(st.sampled_from(strings)), draw(token_texts))
        elif kind == "row" and isinstance(rows, list):
            action = draw(st.sampled_from(["drop", "repeat", "invent"]))
            if action == "drop" and rows:
                rows.pop(draw(st.integers(0, len(rows) - 1)))
            elif action == "repeat" and rows:
                # a copy of any row, which an earlier round may have made a non-list
                rows.append(json.loads(json.dumps(draw(st.sampled_from(rows)))))
            else:
                invented = [draw(small_ints), draw(st.lists(small_ints, max_size=3))]
                rows.append([*invented, draw(token_texts)])
        elif kind == "ring" and isinstance(ring, dict):
            key, value = draw(st.sampled_from(RING_CHANGES))
            ring[key] = value
        else:
            node = st.one_of(small_ints, json_values)
            doc = _set(doc, draw(st.sampled_from(paths)), draw(node))
    return doc


@settings(max_examples=150, deadline=None)
@given(problem_documents())
def test_problem_documents_expand_or_exit_cleanly(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["expand", "--spec", str(path)])
    assert time.perf_counter() - start < 5
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())["m"] == doc["m"]
    else:
        assert rc in (2, 3) and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    if rc == 2:
        # a validation error names its path: a node, or the document itself
        paths = ("error: problem.", "error: problem: ")
        assert err.getvalue().startswith(paths), err.getvalue()
