"""Taylor-mode raw series: evaluating a differential polynomial on symbol series.

For a source that is a ``DiffPolyRing``'s own ``differential_ring()``,
``taylor`` builds the raw series by evaluating the argument with series
products instead of deriving it.  The derived path stays for every other
source and for any table that does not cover a symbol the evaluation reads.
A twin source (the same derivations under another identity) takes the
derived path, so the two are compared here value for value and error for
error.  A third side evaluates the argument with ``DiffPolyRing.evaluate``
into the shift-derivation series ring at a higher truncation, on one series
per variable: the universal property of Hurwitz series, in unit-test form.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hwtaylor import taylor
from hwtaylor.cli import main
from hwtaylor.diffpoly import DiffPolyRing, UncoveredSymbolError
from hwtaylor.hurwitz import HurwitzRing
from hwtaylor.multiindex import MultiIndex, count_upto, enumerate_upto
from hwtaylor.rings import (
    QQ,
    DifferentialRing,
    PrimeField,
    Ring,
    constant_structure,
    differential_polynomial_carrier,
)
from hwtaylor.taylor import MorphismSpec

CAPPED = Path(__file__).parent / "data" / "capped_twisted.json"


def _specs(A, phi, trunc):
    """(Taylor-mode spec, derived-path spec) for one value map."""
    K = A.base
    twin = DifferentialRing(A, A.differential_ring().derivations)
    return (
        MorphismSpec(source=A.differential_ring(), coefficients=K, phi=phi, trunc=trunc),
        MorphismSpec(source=twin, coefficients=K, phi=phi, trunc=trunc),
    )


def _outcome(spec, a):
    """The raw series as (valid, entries), or the error it raised."""
    try:
        raw = taylor._raw_series(spec, a)
    except UncoveredSymbolError as exc:
        return ("error", str(exc))
    return (raw.valid, raw.entries)


def _evaluated(A, phi, a, trunc, k):
    """``a`` evaluated into the series ring at ``trunc + k`` by ``A.evaluate``.

    Variable x goes to its symbol series ``beta -> phi(x at order beta)``, so
    symbol (x, o) goes to that series shifted by o, and a coefficient c to
    ``beta -> phi(delta^beta c)``.  ``None`` when the table does not cover
    the point.
    """
    H = HurwitzRing(A.base.ring, A.width, trunc + k)

    def coefficient(c):
        table = taylor.derivative_table(A.base, c, H.trunc)
        return H._from_entries([phi(A.constant(d)) for d in table.values()], H.trunc)

    try:
        point = [
            H._from_entries([phi(A.symbol(var, beta)) for beta in H.indices], H.trunc)
            for var in range(len(A.variables))
        ]
    except UncoveredSymbolError:
        return None
    return A.evaluate(a, H.differential_structure(), point, coefficient)


@st.composite
def structures(draw):
    """A coefficient structure of width 1-3 and a small-element maker for it."""
    width = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["Q", "F3", "F5", "Q[u] d/du", "Q[u] u*d/du"]))
    if kind == "Q":
        return constant_structure(QQ, width), lambda n: QQ.embed_int(n) / 2
    if kind.startswith("F"):
        F = PrimeField(int(kind[1]))
        return constant_structure(F, width), F.embed_int
    # one derivation in every slot or zero, so the family commutes
    image = "1" if kind.endswith(" d/du") else "u"
    rows = [[draw(st.sampled_from([image, "0"]))] for _ in range(width)]
    K = differential_polynomial_carrier(QQ, ["u"], rows)
    R, u = K.ring, K.ring.gen("u")
    return K, lambda n: R.add(R.embed_int(n % 3 - 1), R.mul(R.embed_int(n // 3), u))


@st.composite
def problems(draw):
    """A value map on K{x, y} and an argument, small enough to derive."""
    K, element = draw(structures())
    width = K.width
    trunc = draw(st.integers(0, 6))
    A = DiffPolyRing(K, ["x", "y"][: draw(st.integers(1, 2))])
    rnd = draw(st.randoms(use_true_random=False))
    orders = enumerate_upto(width, 2)
    p = K.ring.characteristic
    a = A.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = A.constant(element(rnd.randrange(1, 9)))
        for _ in range(rnd.randint(0, 2)):
            sym = A.symbol(rnd.randrange(len(A.variables)), rnd.choice(orders))
            power = p if p and rnd.random() < 0.4 else rnd.randint(1, 3)
            term = A.mul(term, A.pow(sym, power))
        a = A.add(a, term)
    default_zero = draw(st.booleans())
    values = {}
    for var in range(len(A.variables)):
        for alpha in enumerate_upto(width, 2 + trunc):
            # a sparse table under default_zero, a nearly full one without
            if rnd.random() < (0.5 if default_zero else 0.95):
                values[var, alpha] = element(rnd.randrange(0, 12))
    return A, A.value_hom(values, default_zero=default_zero), a, trunc


@settings(max_examples=250, deadline=None)
@given(problems())
def test_taylor_raw_series_equals_derived(problem):
    A, phi, a, trunc = problem
    fast, derived = _specs(A, phi, trunc)
    got, want = _outcome(fast, a), _outcome(derived, a)
    assert got[0] == want[0]
    if want[0] == "error":
        assert got == want
    else:
        assert all(map(A.base.ring.eq, got[1], want[1]))
    # k = 2 is the highest symbol order the strategy draws
    psi = _evaluated(A, phi, a, trunc, 2)
    if psi is not None:
        assert got[0] != "error" and psi.valid >= trunc
        size = count_upto(A.width, trunc)
        assert all(map(A.base.ring.eq, psi.entries[:size], got[1]))


def _doc(ring, values, element, trunc=4, morphism="hurwitz_morphism"):
    return {
        "ring": ring,
        "m": 1,
        "trunc": trunc,
        "source": {"kind": "diffpoly", "vars": ["x", "y"]},
        "phi": {"values": values},
        "morphism": morphism,
        "element": element,
    }


def _expand(tmp_path, capsys, doc, *flags):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    rc = main(["expand", "--spec", str(path), *flags])
    out, err = capsys.readouterr()
    return rc, out, err


class TestFallback:
    def test_pth_power_needs_no_derivative_values(self, tmp_path, capsys):
        """Over F_3, D(x^3) = 0: the derived path never reads x', so neither may we."""
        doc = _doc(
            {"kind": "Fp", "p": 3},
            [[0, [0], "2"]],
            [{"coeff": "1", "monomial": [[0, [0], 3]]}],
        )
        rc, out, err = _expand(tmp_path, capsys, doc)
        assert (rc, err) == (0, "")
        assert json.loads(out)["coeffs"] == [[[0], "2"]]

        F = PrimeField(3)
        A = DiffPolyRing(constant_structure(F, 1), ["x"])
        fast, derived = _specs(A, A.value_hom({(0, MultiIndex((0,))): 2}), 4)
        a = A.pow(A.gen("x"), 3)
        assert _outcome(fast, a) == _outcome(derived, a) == (4, (2, 0, 0, 0, 0))

    def test_uncovered_symbol_names_the_derived_path_symbol(self, tmp_path, capsys):
        """x*y with x, x', y valued: evaluation would miss x'' first, derivation y'."""
        doc = _doc(
            {"kind": "Q"},
            [[0, [0], "1"], [0, [1], "2"], [1, [0], "3"]],
            [{"coeff": "1", "monomial": [[0, [0], 1], [1, [0], 1]]}],
            trunc=2,
        )
        rc, out, err = _expand(tmp_path, capsys, doc)
        assert (rc, out) == (2, "")
        assert err == "error: problem.phi.values: value table does not cover symbol y'\n"


class TestNoDerivation:
    def test_taylor_path_never_derives(self, monkeypatch, tmp_path, capsys):
        calls = []
        derive = DiffPolyRing.derive

        def counting(self, a, slot):
            calls.append(slot)
            return derive(self, a, slot)

        monkeypatch.setattr(DiffPolyRing, "derive", counting)
        doc = json.loads(CAPPED.read_text())
        rc, out, _ = _expand(tmp_path, capsys, doc)
        assert rc == 0 and out
        assert calls == []


class TestSubstitutionMemo:
    def test_symbol_series_built_once_and_powered_once(self, monkeypatch):
        """x^2*y + x^2 + x: one series of x, squared once for both terms."""
        A = DiffPolyRing(constant_structure(QQ, 1), ["x", "y"])
        x, y = A.gen("x"), A.gen("y")
        a = A.add(A.add(A.mul(A.pow(x, 2), y), A.pow(x, 2)), x)
        orders = enumerate_upto(1, 4)
        value = A.value_hom(
            {(v, b): QQ.embed_int(3 * v + b.degree + 2) for v in (0, 1) for b in orders}
        )
        arguments = []

        def phi(e):
            arguments.append(e)
            return value(e)

        fast, derived = _specs(A, phi, 4)
        powers = []
        pow_ = Ring.pow

        def counting(self, s, n):
            powers.append((s.entries, n))
            return pow_(self, s, n)

        monkeypatch.setattr(HurwitzRing, "pow", counting)
        got = taylor._raw_series(fast, a)
        assert arguments.count(x) == arguments.count(y) == 1
        assert len(set(powers)) == len(powers)
        assert [n for _, n in powers if n > 1] == [2]
        assert fast.target.eq(got, taylor._raw_series(derived, a))


class TestSymbolTable:
    """Taylor mode applies phi to each symbol once per spec, over all arguments."""

    def _spec(self, values, trunc):
        A = DiffPolyRing(constant_structure(QQ, 1), ["x", "y"])
        value = A.value_hom(values)
        applied, symbols = [], []

        def phi(e):
            applied.append(e)
            if len(e.terms) == 1 and len(e.terms[0][0]) == 1 and e.terms[0][0][0][1] == 1:
                symbols.append(e.terms[0][0][0][0])
            return value(e)

        spec = MorphismSpec(source=A.differential_ring(), coefficients=A.base, phi=phi, trunc=trunc)
        assert applied == []  # building a spec applies phi to nothing
        return A, spec, symbols

    @staticmethod
    def _stored(A, spec):
        """The symbols ``(var, order)`` whose images the spec's table holds, keyed by id."""
        return {A._codec.decode(i) for i in spec._symbols}

    def test_each_symbol_is_read_once_per_spec(self):
        values = {(v, MultiIndex.of(o)): QQ.embed_int(7 * v + o + 1) for v in (0, 1) for o in range(6)}
        A, spec, symbols = self._spec(values, 3)
        x, y = A.gen("x"), A.gen("y")
        x1, x2, y1 = A.symbol("x", [1]), A.symbol("x", [2]), A.symbol("y", [1])
        # the series of x and x' read x..x'''' between them, y reads y..y'''
        first = A.add(A.mul(x, x1), y)
        got = taylor._raw_series(spec, first)
        read = [(0, MultiIndex.of(o)) for o in range(5)] + [(1, MultiIndex.of(o)) for o in range(4)]
        assert len(symbols) == len(set(symbols)) and set(symbols) == set(read)
        # x'' and y' read x'' .. x^(5) and y' .. y'''': only x^(5) and y'''' are new
        symbols.clear()
        second = A.mul(x2, y1)
        taylor._raw_series(spec, second)
        assert sorted(symbols) == [(0, MultiIndex.of(5)), (1, MultiIndex.of(4))]
        assert self._stored(A, spec) == set(read + symbols)
        _, derived = _specs(A, A.value_hom(values), 3)
        assert spec.target.eq(got, taylor._raw_series(derived, first))
        assert spec.target.eq(spec._raw[second], taylor._raw_series(derived, second))

    def test_replace_starts_an_empty_table(self):
        A, spec, _ = self._spec({(0, MultiIndex.of(o)): QQ.one() for o in range(3)}, 2)
        taylor._raw_series(spec, A.gen("x"))
        assert spec._symbols and spec._raw
        fresh = replace(spec)
        assert fresh._symbols == {} and fresh._raw == {}

    def test_a_symbol_phi_refuses_is_not_stored(self):
        """x*x' at trunc 2 reads x''' that the table lacks: the derived path runs."""
        values = {(0, MultiIndex.of(o)): QQ.embed_int(o + 2) for o in range(3)}
        A, spec, symbols = self._spec(values, 2)
        x, x1 = A.gen("x"), A.symbol("x", [1])
        assert taylor._taylor_raw(spec, A.mul(x, x1)) is None
        assert (0, MultiIndex.of(3)) not in self._stored(A, spec)
        assert self._stored(A, spec) <= set(values)
        symbols.clear()
        assert taylor._taylor_raw(spec, A.symbol("x", [3])) is None
        assert symbols == [(0, MultiIndex.of(3))]


class TestCappedDocument:
    """A document inside every cap that took minutes to derive at trunc 10."""

    def test_trunc_6_output_is_pinned(self, tmp_path, capsys):
        rc, out, err = _expand(tmp_path, capsys, json.loads(CAPPED.read_text()))
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ed5b316a899753b1e2e2e2ac2e8576bb7eb5c9b6b13838f2c4ec96cff2516fcc"
        )

    def test_raw_series_agrees_with_derived_path(self):
        """The document at trunc 3, where deriving it is still quick."""
        doc = json.loads(CAPPED.read_text())
        K = differential_polynomial_carrier(
            QQ, ["u", "v", "w"], [["1", "0", "0"], ["0", "v", "0"], ["0", "0", "w"]]
        )
        A = DiffPolyRing(K, ["x"])
        phi = A.value_hom(A.values_from_json(doc["phi"]["values"]), default_zero=True)
        a = A.element_from_json(doc["element"])
        fast, derived = _specs(A, phi, 3)
        assert fast.target.eq(taylor._raw_series(fast, a), taylor._raw_series(derived, a))
