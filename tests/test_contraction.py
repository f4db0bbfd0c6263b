"""Exact bracket tables, the c -> infinity limit, and the CCR."""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from rbw.contraction import (
    BracketTable,
    CCRResult,
    JacobiResult,
    ccr_check,
    contract,
    format_combo,
    format_poly,
    format_table,
    galilean_table,
    jacobi_residual,
    poincare_table,
    with_flipped_sign,
)
from rbw.errors import MNotCentral, UnknownGenerator
from rbw.relsim import weak_boost_transform

def ipoly(degree=0, sign=1):
    """The coefficient polynomial sign * i * eps**degree."""
    return {degree: (0, sign)}


# ------------------------------------------------------------ scalar pieces

def test_rational_complex_strings():
    assert format_poly({0: (0, 0)}) == "0"
    assert format_poly({0: (Fraction(3, 4), 0)}) == "3/4"
    assert format_poly(ipoly()) == "i"
    assert format_poly(ipoly(sign=-1)) == "-i"
    assert format_poly({0: (Fraction(0), Fraction(-3))}) == "-3i"
    # whole polynomials: degrees in ascending order, whatever the dict order
    assert format_poly({}) == "0"
    assert format_poly({1: (0, Fraction(-1, 4)), 0: (1, 0)}) == "1 + (-1/4)i/c^2"
    assert format_poly({0: (Fraction(1, 2), Fraction(-3))}) == "(1/2-3i)"


# -------------------------------------------------------------- user tables

def user_table(entries, generators=("X", "Y", "Z", "T0"), degrees=1):
    """Table over `generators` from {(a, b, c, deg): (re, im)}: [a, b] holds
    (re + i im) eps**deg c, and [b, a] its negative."""
    n = len(generators)
    f = np.zeros((degrees, n, n, n, 2), dtype=np.int64)
    for (a, b, c, deg), value in entries.items():
        a, b, c = (generators.index(g) for g in (a, b, c))
        f[deg, a, b, c] = value
        f[deg, b, a, c] = [-v for v in value]
    return BracketTable("user", generators, f)


def test_user_table_round_trips_mixed_degrees():
    # [X,Y] = (1 + i eps) Z, as the one coefficient with two eps powers
    table = user_table({("X", "Y", "Z", 0): (1, 0), ("X", "Y", "Z", 1): (0, 1)},
                       degrees=2)
    assert table.bracket("X", "Y") == {"Z": {0: (1, 0), 1: (0, 1)}}
    assert table.bracket("Y", "X") == {"Z": {0: (-1, 0), 1: (0, -1)}}
    assert "[X,Y] = (1 + i/c^2) Z" in format_table(table)
    # evaluated at c = 2: 1 + i/4, summed over both degrees
    assert "[X,Y] = (1+(1/4)i) Z" in format_table(table, c=2)


def test_contract_guards_divergence():
    # a degree-0 bracket landing on T0 would need 1/eps once T0 = M/(eps hbar)
    table = user_table({("X", "Y", "T0", 0): (0, 1)})
    with pytest.raises(ValueError, match="diverges"):
        contract(table, 1, 1)


def test_divergence_names_the_first_offender():
    # [X,Y], [X,Z] and their negatives [Y,X], [Z,X] all diverge; the message
    # names the first of them in (deg, a, b, c) order
    table = user_table({("X", "Z", "T0", 0): (1, 0), ("X", "Y", "T0", 0): (0, 1)})
    with pytest.raises(ValueError) as info:
        contract(table, 1, 1)
    assert str(info.value) == "[X,Y] diverges as eps -> 0 through its T0 term"


def test_nested_list_and_array_inputs_agree():
    f = np.zeros((2, 4, 4, 4, 2), dtype=np.int64)
    f[0, 0, 1, 2] = (1, 0)          # [X,Y] = (1 + i eps) Z + 3 T0
    f[1, 0, 1, 2] = (0, 1)
    f[0, 0, 1, 3] = (3, 0)
    f[0, 2, 3, 0] = (0, -2)         # [Z,T0] = -2i X
    f = f - f.swapaxes(1, 2)
    generators = ("X", "Y", "Z", "T0")
    dense, nested = (BracketTable("user", generators, g) for g in (f, f.tolist()))
    for x, y in itertools.product(generators, repeat=2):
        assert nested.bracket(x, y) == dense.bracket(x, y)
    for c in (None, 3):
        assert format_table(nested, c=c) == format_table(dense, c=c)
    assert jacobi_residual(nested) == jacobi_residual(dense)
    assert jacobi_residual(dense).residual > 0
    assert np.array_equal(nested.f, f) and np.array_equal(dense.f, f)


@pytest.mark.parametrize("build", [
    poincare_table, galilean_table, lambda: contract(poincare_table(), Fraction(3, 2), 2),
    lambda: with_flipped_sign(poincare_table(), "T1", "K1"),
], ids=["poincare", "galilean", "contracted", "flipped"])
def test_dense_view_rebuilds_the_same_table(build):
    table = build()
    again = BracketTable(table.name, table.generators, table.f, table.scale)
    assert again.generators == table.generators and again.scale == table.scale
    for x, y in itertools.product(table.generators, repeat=2):
        assert again.bracket(x, y) == table.bracket(x, y)
    assert format_table(again) == format_table(table)
    assert table.f.dtype == np.int64 and not table.f.flags.writeable
    with pytest.raises(ValueError):
        table.f[0, 0, 1, 2, 1] = 5


def test_tables_copy_and_pickle():
    table = contract(poincare_table(), Fraction(3, 2), 2)
    assert not table.f.flags.writeable                 # the dense view is now cached
    for twin in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert (twin.name, twin.generators, twin.scale) == (table.name, table.generators,
                                                            table.scale)
        assert format_table(twin) == format_table(table)
        assert np.array_equal(twin.f, table.f) and not twin.f.flags.writeable


@pytest.mark.parametrize("bad", ["1/0", "pi", 0, -1])
def test_scales_must_be_positive_rationals(bad):
    table = poincare_table()
    for call in (lambda: contract(table, bad, 1), lambda: contract(table, 1, bad),
                 lambda: ccr_check(table, bad, 1), lambda: format_table(table, c=bad)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("name", ["hbar", "m"])
@pytest.mark.parametrize("check", [contract, ccr_check])
def test_infinite_scales_are_refused_as_not_rational(check, name, value):
    # Fraction(inf) raises OverflowError, which must not escape as its own type
    with pytest.raises(ValueError, match=f"^{name} must be rational, got {value!r}$"):
        check(poincare_table(), **{"hbar": 1, "m": 1, name: value})


@pytest.mark.parametrize("entry", [2 ** 64 + 1, -(2 ** 70), 2 ** 40, 0.5, 1.0, True])
def test_entries_that_do_not_fit_exactly_raise(entry):
    f = [[[[[0, 0] for _ in range(3)] for _ in range(3)] for _ in range(3)]]
    f[0][0][1][2], f[0][1][0][2] = [entry, 0], [-entry, 0]
    with pytest.raises(ValueError):
        BracketTable("big", ("X", "Y", "Z"), f)


def test_entry_at_int64_min_is_rejected():
    # -(-2**63) wraps to -2**63 in int64, so this array passes as antisymmetric
    f = np.zeros((1, 3, 3, 3, 2), dtype=np.int64)
    f[0, 0, 1, 2, 0] = f[0, 1, 0, 2, 0] = np.iinfo(np.int64).min
    with pytest.raises(ValueError, match="exceed"):
        BracketTable("wrapped", ("X", "Y", "Z"), f)


def test_table_is_checked_and_read_only():
    f = np.zeros((1, 3, 3, 3, 2), dtype=np.int64)
    f[0, 0, 1, 2, 1] = 1
    with pytest.raises(ValueError, match="antisymmetric"):
        BracketTable("lopsided", ("X", "Y", "Z"), f)
    with pytest.raises(ValueError, match="repeat"):
        BracketTable("twins", ("X", "X", "Z"), np.zeros_like(f))
    table = poincare_table()
    assert not table.f.flags.writeable
    with pytest.raises(ValueError):
        table.f[0, 0, 1, 2, 1] = 5


# ---------------------------------------------------------- reference table

def test_rotation_brackets():
    table = poincare_table()
    assert table.bracket("J1", "J2") == {"J3": ipoly()}
    assert table.bracket("J2", "J3") == {"J1": ipoly()}
    assert table.bracket("J2", "J1") == {"J3": ipoly(sign=-1)}
    assert table.bracket("J1", "K2") == {"K3": ipoly()}
    assert table.bracket("J2", "K1") == {"K3": ipoly(sign=-1)}
    assert table.bracket("J3", "T1") == {"T2": ipoly()}


def test_boost_boost_bracket_suppressed():
    table = poincare_table()
    assert table.bracket("K1", "K2") == {"J3": ipoly(1, sign=-1)}
    assert table.bracket("K3", "K1") == {"J2": ipoly(1, sign=-1)}


def test_time_translation_brackets():
    table = poincare_table()
    for n in (1, 2, 3):
        assert table.bracket("T0", f"K{n}") == {f"T{n}": ipoly()}
        assert table.bracket("T0", f"T{n}") == {}
        assert table.bracket("T0", f"J{n}") == {}


def test_translation_boost_bracket():
    # the sign the Jacobi identity and the final commutator both force
    table = poincare_table()
    assert table.bracket("T1", "K1") == {"T0": ipoly(1)}
    assert table.bracket("T2", "K2") == {"T0": ipoly(1)}
    assert table.bracket("T1", "K2") == {}
    assert table.bracket("T1", "T2") == {}
    assert table.bracket("K1", "T1") == {"T0": ipoly(1, sign=-1)}


def test_self_bracket_and_unknowns():
    table = poincare_table()
    assert table.bracket("K2", "K2") == {}
    with pytest.raises(UnknownGenerator):
        table.bracket("X1", "J1")
    with pytest.raises(UnknownGenerator):
        table.bracket("J1", "M")


def test_unknown_generator_message_reads_as_a_sentence():
    # a KeyError subclass, yet str() is the message rather than its repr
    with pytest.raises(KeyError) as info:
        poincare_table().bracket("X1", "J1")
    assert str(info.value) == "'X1' is not a generator of the poincare table"
    with pytest.raises(UnknownGenerator) as info:
        with_flipped_sign(poincare_table(), "T1", "T2")
    assert str(info.value) == "no stored bracket for (T1, T2)"


def test_antisymmetry_everywhere():
    table = poincare_table()
    for x, y in itertools.combinations(table.generators, 2):
        fwd = table.bracket(x, y)
        bwd = table.bracket(y, x)
        assert set(fwd) == set(bwd)
        for g in fwd:
            assert fwd[g] == {d: (-re, -im) for d, (re, im) in bwd[g].items()}


# ------------------------------------------------------------------- Jacobi

def test_jacobi_poincare_exactly_zero():
    result = jacobi_residual(poincare_table())
    assert result.residual == 0.0
    assert result.worst_triple is None


def test_jacobi_result_is_a_record_of_three_fields():
    assert JacobiResult._fields == ("residual", "worst_triple", "worst_combo")
    assert JacobiResult._field_defaults == {}
    # each Lie algebra gets its own empty worst_combo, not one shared default
    first, second = jacobi_residual(poincare_table()), jacobi_residual(galilean_table())
    assert first == (0.0, None, {}) and first.worst_combo is not second.worst_combo
    with pytest.raises(AttributeError):
        first.residual = 1.0


def test_jacobi_galilean_exactly_zero():
    assert jacobi_residual(galilean_table()).residual == 0.0


def test_jacobi_contracted_exactly_zero():
    assert jacobi_residual(contract(poincare_table(), 1, 1)).residual == 0.0


def test_flipped_sign_detected():
    bad = with_flipped_sign(poincare_table(), "T1", "K1")
    result = jacobi_residual(bad)
    assert result.residual == 2.0
    assert result.worst_triple is not None
    assert set(result.worst_triple) & {"T1", "K1"}
    # captured from the release before bracket values became plain data
    assert result.worst_combo == {"T0": {1: (2, 0)}}


# Residual and worst triple of every one-bracket sign flip, captured once
# from the dict-based engine this array engine replaced.
FLIPPED_POINCARE = {
    ("J1", "J2"): (2.0, ('J1', 'J2', 'K1')),
    ("J1", "J3"): (2.0, ('J1', 'J3', 'K1')),
    ("J1", "K2"): (2.0, ('J1', 'J2', 'K2')),
    ("J1", "K3"): (2.0, ('J1', 'J2', 'K1')),
    ("J1", "T2"): (2.0, ('J1', 'J2', 'T2')),
    ("J1", "T3"): (2.0, ('J1', 'J2', 'T1')),
    ("J2", "J3"): (2.0, ('J2', 'J3', 'K2')),
    ("J2", "K1"): (2.0, ('J1', 'J2', 'K1')),
    ("J2", "K3"): (2.0, ('J1', 'J2', 'K2')),
    ("J2", "T1"): (2.0, ('J1', 'J2', 'T1')),
    ("J2", "T3"): (2.0, ('J1', 'J2', 'T2')),
    ("J3", "K1"): (2.0, ('J1', 'J2', 'K1')),
    ("J3", "K2"): (2.0, ('J1', 'J2', 'K2')),
    ("J3", "T1"): (2.0, ('J1', 'J2', 'T1')),
    ("J3", "T2"): (2.0, ('J1', 'J2', 'T2')),
    ("K1", "K2"): (2.0, ('J1', 'K1', 'K2')),
    ("K1", "K3"): (2.0, ('J1', 'K1', 'K2')),
    ("K1", "T1"): (2.0, ('J2', 'K1', 'T3')),
    ("K1", "T0"): (2.0, ('J2', 'K1', 'T0')),
    ("K2", "K3"): (2.0, ('J2', 'K1', 'K2')),
    ("K2", "T2"): (2.0, ('J1', 'K2', 'T3')),
    ("K2", "T0"): (2.0, ('J1', 'K2', 'T0')),
    ("K3", "T3"): (2.0, ('J1', 'K2', 'T3')),
    ("K3", "T0"): (2.0, ('J1', 'K2', 'T0')),
}
FLIPPED_CONTRACTED = {      # contract(poincare_table(), 3/2, 2): M = (3/2) eps T0
    ("J1", "J2"): (2.0, ('J1', 'J2', 'K1')),
    ("J1", "J3"): (2.0, ('J1', 'J3', 'K1')),
    ("J1", "K2"): (2.0, ('J1', 'J2', 'K2')),
    ("J1", "K3"): (2.0, ('J1', 'J2', 'K1')),
    ("J1", "T2"): (2.0, ('J1', 'J2', 'T2')),
    ("J1", "T3"): (2.0, ('J1', 'J2', 'T1')),
    ("J2", "J3"): (2.0, ('J2', 'J3', 'K2')),
    ("J2", "K1"): (2.0, ('J1', 'J2', 'K1')),
    ("J2", "K3"): (2.0, ('J1', 'J2', 'K2')),
    ("J2", "T1"): (2.0, ('J1', 'J2', 'T1')),
    ("J2", "T3"): (2.0, ('J1', 'J2', 'T2')),
    ("J3", "K1"): (2.0, ('J1', 'J2', 'K1')),
    ("J3", "K2"): (2.0, ('J1', 'J2', 'K2')),
    ("J3", "T1"): (2.0, ('J1', 'J2', 'T1')),
    ("J3", "T2"): (2.0, ('J1', 'J2', 'T2')),
    ("K1", "T1"): (1.3333333333333333, ('J2', 'K1', 'T3')),
    ("K2", "T2"): (1.3333333333333333, ('J1', 'K2', 'T3')),
    ("K3", "T3"): (1.3333333333333333, ('J1', 'K2', 'T3')),
}


@pytest.mark.parametrize("table, golden", [
    (poincare_table(), FLIPPED_POINCARE),
    (contract(poincare_table(), Fraction(3, 2), 2), FLIPPED_CONTRACTED),
], ids=["poincare", "contracted"])
def test_flipped_controls_match_reference(table, golden):
    stored = [(x, y) for i, x in enumerate(table.generators)
              for y in table.generators[i + 1:] if table.bracket(x, y)]
    assert stored == list(golden)
    for (x, y), (residual, triple) in golden.items():
        result = jacobi_residual(with_flipped_sign(table, x, y))
        assert (result.residual, result.worst_triple) == (residual, triple)


@pytest.mark.parametrize("seed", range(6))
def test_jacobi_matches_a_float_oracle_on_random_tables(seed):
    # small Gaussian integers over two eps powers, so the float sums are exact
    rng = np.random.default_rng(seed)
    n = 5
    f = rng.integers(-3, 4, size=(2, n, n, n, 2)) * (rng.random((2, n, n, n, 1)) < 0.3)
    f = f - f.swapaxes(1, 2)
    generators = tuple("ABCDE")
    result = jacobi_residual(BracketTable("random", generators, f))

    z = f[..., 0] + 1j * f[..., 1]
    jac = np.zeros((3, n, n, n, n), dtype=complex)       # [deg, x, y, z, a]
    for d1, d2 in itertools.product(range(2), repeat=2):
        nested = np.einsum("yzb,xba->xyza", z[d1], z[d2])       # [x,[y,z]]
        jac[d1 + d2] += nested + nested.transpose(1, 2, 0, 3) + nested.transpose(2, 0, 1, 3)
    mags = {t: max(math.hypot(v.real, v.imag) for v in jac[:, t[0], t[1], t[2]].ravel())
            for t in itertools.combinations(range(n), 3)}
    worst = max(mags.values())
    assert result.residual == worst
    if worst:
        first = next(t for t, m in mags.items() if m == worst)
        assert result.worst_triple == tuple(generators[i] for i in first)


def test_jacobi_numeric_cross_check():
    # independent float evaluation at a finite speed: build numeric
    # structure constants and redo the check in complex arithmetic
    table = poincare_table()
    eps = Fraction(1, 4)   # c = 2
    gens = table.generators
    idx = {g: i for i, g in enumerate(gens)}
    n = len(gens)
    f = np.zeros((n, n, n), dtype=complex)
    for x in gens:
        for y in gens:
            for g, poly in table.bracket(x, y).items():
                f[idx[x], idx[y], idx[g]] = sum(
                    complex(float(re), float(im)) * float(eps) ** d
                    for d, (re, im) in poly.items())
    jac = (np.einsum("yzb,xba->xyza", f, f)
           + np.einsum("zxb,yba->xyza", f, f)
           + np.einsum("xyb,zba->xyza", f, f))
    assert np.max(np.abs(jac)) < 1e-12


# -------------------------------------------------------------- contraction

def test_contracted_reference_brackets():
    con = contract(poincare_table(), 1, 1)
    assert "T0" not in con.generators
    assert "M" in con.generators and "I" in con.generators
    assert con.bracket("K1", "K2") == {}
    assert con.bracket("T1", "K1") == {"M": ipoly()}
    assert con.bracket("J1", "J2") == {"J3": ipoly()}
    assert con.bracket("J1", "K2") == {"K3": ipoly()}
    for g in con.generators:
        assert con.bracket("M", g) == {}


def test_contracted_hbar_scaling():
    con = contract(poincare_table(), 2, 1)
    half_i = {0: (0, Fraction(1, 2))}
    assert con.bracket("T1", "K1") == {"M": half_i}


def test_galilean_brackets():
    table = galilean_table()
    assert table.bracket("T1", "K1") == {}
    assert table.bracket("K1", "K2") == {}
    assert table.bracket("J1", "K2") == {"K3": ipoly()}
    assert table.bracket("T0", "K2") == {"T2": ipoly()}


# ---------------------------------------------------------------------- CCR

def test_ccr_recovered_on_contraction():
    result = ccr_check(contract(poincare_table(), 1, 1), 1, 1)
    assert result.verdict == "CCR RECOVERED"
    assert result.pq[(1, 1)] == {"I": ipoly(sign=-1)}
    assert result.pq[(2, 2)] == {"I": ipoly(sign=-1)}
    assert result.pq[(1, 2)] == {}
    for key in result.pp:
        assert result.pp[key] == {}
        assert result.qq[key] == {}


def test_ccr_result_is_a_record_of_six_fields():
    assert CCRResult._fields == ("pq", "pp", "qq", "hbar", "mass", "verdict")
    result = ccr_check(contract(poincare_table(), 1, 1), 1, 1)
    with pytest.raises(AttributeError):
        result.verdict = "NO CCR"


def test_ccr_scales_with_hbar():
    result = ccr_check(contract(poincare_table(), 3, 2), 3, 2)
    assert result.verdict == "CCR RECOVERED"
    want = {0: (0, -3)}
    assert result.pq[(3, 3)] == {"I": want}


def test_ccr_absent_for_galilean():
    result = ccr_check(galilean_table(), 1, 1)
    assert result.verdict == "NO CCR"
    assert all(not combo for combo in result.pq.values())
    assert all(not combo for combo in result.qq.values())


def test_ccr_uncontracted_is_anomalous():
    assert ccr_check(poincare_table(), 1, 1).verdict == "ANOMALOUS"


def test_ccr_requires_central_mass():
    con = contract(poincare_table(), 1, 1)
    k1, m, t1 = (con.index(g) for g in ("K1", "M", "T1"))
    f = con.f.copy()
    f[0, k1, m, t1, 1], f[0, m, k1, t1, 1] = 1, -1        # [K1, M] = i T1
    bad = BracketTable("bad", con.generators, f, con.scale)
    with pytest.raises(MNotCentral, match=r"\[M, K1\] = -i T1"):
        ccr_check(bad, 1, 1)


def test_contraction_diagram_commutes():
    # defining P, Q before the limit and contracting afterwards must
    # match running ccr_check on the contracted table
    hb, m = Fraction(3, 2), Fraction(2)
    table = poincare_table()
    route1 = ccr_check(contract(table, hb, m), hb, m).pq[(1, 1)]

    pre = table.bracket("T1", "K1")                       # {T0: i eps}
    assert set(pre) == {"T0"}
    (degree, (re, im)), = pre["T0"].items()
    assert degree == 1          # the eps that T0 = M/(eps hbar) cancels
    # [P1, Q1] = -(hbar^2/m) [T1, K1]; then T0 -> M/(eps hbar), M -> m I
    k = (-hb * hb / m) * (1 / hb) * m
    route2 = {"I": {0: (re * k, im * k)}}
    assert route1 == route2 == {"I": {0: (0, -hb)}}


# -------------------------------------------------------(----- weak boosts

def test_weak_boost_identity():
    assert weak_boost_transform(0.37, -42.0, 0.0, 300000.0) == (0.37, -42.0)


def test_weak_boost_reference_point():
    c = 300000.0
    t2, x2 = weak_boost_transform(0.0, 1000.0, 0.6 * c, c)
    assert t2 == pytest.approx(-0.002, rel=1e-15)
    assert x2 == pytest.approx(1000.0)


def test_weak_boost_absolute_time_limit():
    t2, x2 = weak_boost_transform(2.0, 10.0, 3.0, math.inf)
    assert (t2, x2) == (2.0, 4.0)


# ---------------------------------------------------------------- rendering

def test_format_symbolic_table():
    text = format_table(poincare_table())
    assert "[K1,K2] = -i/c^2 J3" in text
    assert "[J1,J2] = i J3" in text
    assert "[K1,T1] = -i/c^2 T0" in text


def test_format_at_finite_speed():
    text = format_table(poincare_table(), c=2)
    assert "[K1,K2] = (-1/4)i J3" in text


def test_format_combo_zero():
    assert format_combo({}) == "0"
