"""Tables, axioms, and unitary irrep checks."""

import numpy as np
import pytest

from rbw import catalog
from rbw.errors import (
    DimensionMismatch,
    MissingIdentity,
    MissingInverse,
    NonAssociative,
    NonClosed,
    UnknownElement,
)
from rbw.grouprep import (
    Irrep,
    group_document,
    load_group,
    load_irrep,
    load_irreps,
    orthogonality_residual,
    resolution_identity,
    verify_irrep,
)


def brute_orthogonality_residual(irrep):
    # Independent of the einsum path: plain index loops.
    group, n = irrep.group, irrep.n
    worst = 0.0
    for k in range(n):
        for j in range(n):
            for l in range(n):
                for m in range(n):
                    acc = 0.0 + 0.0j
                    for g in group.elements:
                        acc += irrep.matrix_inv(g)[k, j] * irrep.matrix(g)[l, m]
                    acc *= n / group.N
                    target = (1.0 if j == l else 0.0) * (1.0 if k == m else 0.0)
                    worst = max(worst, abs(acc - target))
    return worst


# ------------------------------------------------------------------- loading

def test_z2_loads_and_validates():
    g = catalog.z2_group()
    assert g.elements == ("e", "r")
    assert g.identity == "e"
    assert g.inv("r") == "r"
    assert g.product("r", "r") == "e"


@pytest.mark.parametrize("g,h,expect", [
    ("(12)", "(13)", "(132)"),
    ("(13)", "(12)", "(123)"),
    ("(123)", "(123)", "(132)"),
    ("(123)", "(132)", "e"),
    ("(12)", "(123)", "(23)"),
    ("(123)", "(12)", "(13)"),
])
def test_s3_table_matches_permutation_composition(g, h, expect):
    group = catalog.s3_group()
    assert group.product(g, h) == expect


def test_s3_is_noncommutative():
    group = catalog.s3_group()
    assert group.product("(12)", "(13)") != group.product("(13)", "(12)")


def test_document_roundtrip():
    doc = catalog.s3_document()
    group = load_group(doc)
    irreps = load_irreps(doc, group)
    assert set(irreps) == {"trivial", "sign", "standard"}
    assert group.N == 6
    for irr in irreps.values():
        assert verify_irrep(irr).ok


def test_load_group_accepts_json_text():
    import json
    g = load_group(json.dumps(catalog.s3_document()))
    assert g.N == 6


def test_unknown_element_lookups():
    g = catalog.z2_group()
    with pytest.raises(UnknownElement):
        g.product("e", "nope")
    with pytest.raises(UnknownElement):
        g.inv("nope")
    irr = catalog.z2_irreps()["sign"]
    with pytest.raises(UnknownElement):
        irr.matrix("nope")
    with pytest.raises(UnknownElement):
        resolution_identity(irr, "nope")


# ----------------------------------------------------------------- bad input

def test_corrupted_table_rejected():
    with pytest.raises((NonClosed, MissingIdentity, MissingInverse, NonAssociative)):
        load_group(catalog.corrupted_s3_document())


def test_nonclosed_value():
    doc = {"elements": ["e"], "mul": {"e,e": "x"}}
    with pytest.raises(NonClosed):
        load_group(doc)


def test_missing_table_entry():
    doc = {"elements": ["e", "r"], "mul": {"e,e": "e", "e,r": "r", "r,e": "r"}}
    with pytest.raises(NonClosed):
        load_group(doc)


def test_missing_identity():
    # left projection x*y = x: closed and associative, no identity
    doc = {"elements": ["a", "b"],
           "mul": {"a,a": "a", "a,b": "a", "b,a": "b", "b,b": "b"}}
    with pytest.raises(MissingIdentity):
        load_group(doc)


def test_missing_inverse():
    # monoid: a absorbs itself, so nothing maps a back to e
    doc = {"elements": ["e", "a"],
           "mul": {"e,e": "e", "e,a": "a", "a,e": "a", "a,a": "a"}}
    with pytest.raises(MissingInverse):
        load_group(doc)


def test_nonassociative():
    doc = {"elements": ["e", "a", "b"],
           "mul": {"e,e": "e", "e,a": "a", "e,b": "b",
                   "a,e": "a", "a,a": "e", "a,b": "a",
                   "b,e": "b", "b,a": "b", "b,b": "e"}}
    with pytest.raises(NonAssociative):
        load_group(doc)


def test_comma_in_label_rejected():
    doc = {"elements": ["e", "a,b"], "mul": {}}
    with pytest.raises(ValueError):
        load_group(doc)


def test_wrong_matrix_shape():
    doc = catalog.builtin_documents()["z2"]
    doc = {**doc, "irreps": {"bad": {"n": 2, "matrices": {
        "e": [[[1, 0]]], "r": [[[1, 0]]]}}}}
    with pytest.raises(DimensionMismatch):
        load_irrep(doc, "bad")


def test_missing_matrix():
    doc = {**catalog.builtin_documents()["z2"],
           "irreps": {"partial": {"n": 1, "matrices": {"e": [[[1, 0]]]}}}}
    with pytest.raises(ValueError):
        load_irrep(doc, "partial")


# ------------------------------------------------------------- verification

@pytest.mark.parametrize("name", ["trivial", "sign", "standard"])
def test_s3_irreps_verify_clean(name):
    report = verify_irrep(catalog.s3_irreps()[name])
    assert report.ok
    assert report.max_unitarity_residual < 1e-12
    assert report.max_homomorphism_residual < 1e-12
    assert abs(report.irreducibility_indicator - 1.0) < 1e-12


def test_reducible_rep_flagged():
    # full 3-dim permutation action = trivial + standard, indicator 2
    group = catalog.s3_group()
    perms = catalog._S3_PERMS
    d = {g: catalog._perm_matrix(perms[g]).astype(complex) for g in group.elements}
    from rbw.grouprep import Irrep
    rep = Irrep(group=group, n=3, D=d, name="permutation")
    report = verify_irrep(rep)
    assert not report.ok
    assert abs(report.irreducibility_indicator - 2.0) < 1e-12
    assert report.max_unitarity_residual < 1e-12
    assert report.max_homomorphism_residual < 1e-12


def test_broken_homomorphism_flagged():
    irreps = catalog.z2_irreps()
    sign = irreps["sign"]
    from rbw.grouprep import Irrep
    bad = Irrep(group=sign.group, n=1,
                D={"e": np.array([[1.0 + 0j]]), "r": np.array([[0.5 + 0j]])},
                name="bad")
    report = verify_irrep(bad)
    assert not report.ok
    assert report.max_unitarity_residual > 0.4
    assert report.max_homomorphism_residual > 0.4


# ------------------------------------------------- orthogonality, resolution

@pytest.mark.parametrize("name", ["trivial", "sign", "standard"])
def test_orthogonality_s3(name):
    irr = catalog.s3_irreps()[name]
    assert orthogonality_residual(irr) < 1e-12


def test_orthogonality_matches_bruteforce():
    irr = catalog.s3_irreps()["standard"]
    fast = orthogonality_residual(irr)
    slow = brute_orthogonality_residual(irr)
    assert abs(fast - slow) < 1e-14


def test_orthogonality_z2_sign_exact():
    assert orthogonality_residual(catalog.z2_irreps()["sign"]) == 0.0


def test_resolution_identity_z2_sign():
    irr = catalog.z2_irreps()["sign"]
    out = resolution_identity(irr, "r")
    assert np.allclose(out, [[-1.0]], atol=1e-15)


@pytest.mark.parametrize("gprime", ["e", "(12)", "(123)"])
def test_resolution_identity_s3_standard(gprime):
    irr = catalog.s3_irreps()["standard"]
    out = resolution_identity(irr, gprime)
    assert np.max(np.abs(out - irr.matrix(gprime))) < 1e-12


def test_conjugated_irrep_still_verifies():
    # Any unitary change of basis preserves every checked property.
    rng = np.random.default_rng(20260819)
    irr = catalog.s3_irreps()["standard"]
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(a)
    from rbw.grouprep import Irrep
    rotated = Irrep(group=irr.group, n=2,
                    D={g: q @ irr.D[g] @ q.conj().T for g in irr.group.elements},
                    name="rotated")
    assert verify_irrep(rotated).ok
    assert orthogonality_residual(rotated) < 1e-12
    out = resolution_identity(rotated, "(123)")
    assert np.max(np.abs(out - rotated.matrix("(123)"))) < 1e-12


def test_group_document_roundtrip_serialization():
    group = catalog.s3_group()
    irreps = catalog.s3_irreps(group)
    doc = group_document(group, irreps.values())
    again = load_irreps(doc)
    for name, irr in irreps.items():
        for g in group.elements:
            assert np.allclose(again[name].D[g], irr.D[g], atol=1e-15)


# ------------------------------------------- per-element loops as the oracle
#
# The library computes every group sum as one array expression over the
# stacked matrices and the Cayley table.  The loops below walk the elements
# one at a time through the label API instead, and the array versions must
# agree with them.  Sums may be taken in another order, so agreement is to
# a few ulps of the larger magnitude.

ULPS = 16 * np.finfo(float).eps


def close(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= ULPS * max(1.0, np.max(np.abs(b)))


def dihedral_document(m, seed):
    """The dihedral group of order 2m with all its irreps, labels shuffled.

    r<k> is r^k and s<k> is s r^k, with r s = s r^-1.
    """
    elements = [(kind, k) for kind in "rs" for k in range(m)]
    elements = [elements[i] for i in np.random.default_rng(seed).permutation(2 * m)]
    label = {x: f"{x[0]}{x[1]}" for x in elements}

    def product(x, y):
        (kx, a), (ky, b) = x, y
        if kx == "r":
            return ("r", (a + b) % m) if ky == "r" else ("s", (b - a) % m)
        return ("s", (a + b) % m) if ky == "r" else ("r", (b - a) % m)

    def pairs(mat):
        return [[[z.real, z.imag] for z in row] for row in np.asarray(mat, dtype=complex)]

    irreps = {}
    for rho in ((1, -1) if m % 2 == 0 else (1,)):
        for sigma in (1, -1):
            irreps[f"one{rho:+d}{sigma:+d}"] = {"n": 1, "matrices": {
                label[(k, a)]: [[[float(rho ** a * (sigma if k == "s" else 1)), 0.0]]]
                for k, a in elements}}
    for j in range(1, (m - 1) // 2 + 1):
        mats = {}
        for k, a in elements:
            w = np.exp(2j * np.pi * j * a / m)
            mats[label[(k, a)]] = pairs([[w, 0], [0, np.conj(w)]] if k == "r"
                                        else [[0, np.conj(w)], [w, 0]])
        irreps[f"two{j}"] = {"n": 2, "matrices": mats}
    return {"elements": [label[x] for x in elements],
            "mul": {f"{label[x]},{label[y]}": label[product(x, y)]
                    for x in elements for y in elements},
            "irreps": irreps}


def loop_validate(doc):
    """The axioms checked element by element: (error class, message) of the
    first failure in element order, or None for a group."""
    elements = doc["elements"]
    mul = {tuple(key.split(",")): gh for key, gh in doc["mul"].items()}
    for g in elements:
        for h in elements:
            if (g, h) not in mul:
                return NonClosed, f"mul({g},{h}) is missing from the table"
    identities = [e for e in elements
                  if all(mul[(e, g)] == g and mul[(g, e)] == g for g in elements)]
    if not identities:
        return MissingIdentity, "no two-sided identity"
    e = identities[0]
    for g in elements:
        invs = [h for h in elements if mul[(g, h)] == e and mul[(h, g)] == e]
        if len(invs) != 1:
            return MissingInverse, (f"element {g!r} has " + (
                "no two-sided inverse" if not invs else f"multiple inverses {invs}"))
    for a in elements:
        for b in elements:
            for c in elements:
                if mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]:
                    return NonAssociative, f"({a}*{b})*{c} != {a}*({b}*{c})"
    return None


def loop_residuals(irr):
    group, n = irr.group, irr.n
    els = group.elements
    unit = max(np.max(np.abs(irr.matrix(g) @ irr.matrix(g).conj().T - np.eye(n)))
               for g in els)
    homo = max(np.max(np.abs(irr.matrix(g) @ irr.matrix(h)
                             - irr.matrix(group.product(g, h))))
               for g in els for h in els)
    norm = sum(abs(np.trace(irr.matrix(g))) ** 2 for g in els) / group.N
    return unit, homo, norm


def loop_resolution(irr, gprime):
    acc = np.zeros((irr.n, irr.n), dtype=complex)
    for g in irr.group.elements:
        acc += irr.matrix(g) * np.trace(irr.matrix_inv(g) @ irr.matrix(gprime))
    return acc * (irr.n / irr.group.N)


def loop_reconstruction(irr, values):
    rho = np.zeros((irr.n, irr.n), dtype=complex)
    for g in irr.group.elements:
        rho += irr.matrix_inv(g) * values[g]
    return rho * (irr.n / irr.group.N)


def broken_variants(irr):
    """The irrep itself, plus copies that break unitarity (one matrix
    scaled) and the homomorphism (one matrix rephased)."""
    g = irr.group.elements[-1]
    yield irr
    for factor in (1.5, np.exp(0.3j)):
        yield Irrep(group=irr.group, n=irr.n, name=f"{irr.name}*",
                    D={**irr.D, g: irr.D[g] * factor})


DIHEDRAL = [(m, seed) for m in range(3, 9) for seed in (0, 1)]


@pytest.mark.parametrize("m,seed", DIHEDRAL)
def test_dihedral_tables_match_the_loop_oracle(m, seed):
    doc = dihedral_document(m, seed)
    assert loop_validate(doc) is None
    group = load_group(doc)
    assert group.N == 2 * m and group.identity == "r0"
    for g in group.elements:
        assert group.product(g, group.inv(g)) == group.identity
        for h in group.elements:
            assert group.product(g, h) == doc["mul"][f"{g},{h}"]
    assert group_document(group)["mul"] == dict(sorted(doc["mul"].items()))


@pytest.mark.parametrize("m,seed", DIHEDRAL)
def test_dihedral_irreps_match_the_loop_oracle(m, seed):
    irreps = load_irreps(dihedral_document(m, seed))
    for irr in (v for base in irreps.values() for v in broken_variants(base)):
        report = verify_irrep(irr)
        unit, homo, norm = loop_residuals(irr)
        assert close(report.max_unitarity_residual, unit)
        assert close(report.max_homomorphism_residual, homo)
        assert close(report.irreducibility_indicator, norm)
        assert close(report.orthogonality_residual, brute_orthogonality_residual(irr))
        assert close(orthogonality_residual(irr), report.orthogonality_residual)
        worst = 0.0
        for g in irr.group.elements:
            resolved = loop_resolution(irr, g)
            assert close(resolution_identity(irr, g), resolved)
            worst = max(worst, np.max(np.abs(resolved - irr.matrix(g))))
        assert close(report.resolution_residual, worst)
        assert report.ok == (irr.name in irreps)


@pytest.mark.parametrize("m,seed", DIHEDRAL)
def test_dihedral_reconstruction_matches_the_loop_oracle(m, seed):
    from rbw.symmetry_state import ExpectationSet, expectations_from_state, reconstruct_density
    rng = np.random.default_rng(seed)
    for irr in load_irreps(dihedral_document(m, seed)).values():
        a = rng.normal(size=(irr.n, irr.n)) + 1j * rng.normal(size=(irr.n, irr.n))
        rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
        es = expectations_from_state(rho0, irr)
        for g in irr.group.elements:
            assert close(es.values[g], np.trace(rho0 @ irr.matrix(g)))
        assert close(reconstruct_density(es), loop_reconstruction(irr, es.values))
        raw = {g: complex(rng.normal(), rng.normal()) for g in irr.group.elements}
        assert close(reconstruct_density(ExpectationSet(irr, raw), validate=False),
                     loop_reconstruction(irr, raw))


@pytest.mark.parametrize("m,seed", DIHEDRAL)
def test_corrupted_dihedral_tables_fail_like_the_loop_oracle(m, seed):
    rng = np.random.default_rng(seed)
    doc = dihedral_document(m, seed)
    keys = sorted(doc["mul"])
    for trial in range(20):
        bad = {**doc, "mul": dict(doc["mul"])}
        key = keys[rng.integers(len(keys))]
        if trial % 5 == 0:
            del bad["mul"][key]
        else:
            bad["mul"][key] = doc["elements"][rng.integers(2 * m)]
        expected = loop_validate(bad)
        if expected is None:
            load_group(bad)
            continue
        with pytest.raises(expected[0]) as info:
            load_group(bad)
        assert str(info.value) == expected[1]


# ---------------------------------------------------------- first offenders

def table_document(elements, product):
    return {"elements": list(elements),
            "mul": {f"{g},{h}": product(g, h) for g in elements for h in elements}}


@pytest.mark.parametrize("order", [["e", "a", "b"], ["b", "e", "a"], ["a", "b", "e"]])
def test_nonassociative_names_the_first_triple(order):
    # closed, identity e, every element its own inverse, but a*b = a and
    # b*a = b break associativity in several triples
    table = {("a", "b"): "a", ("b", "a"): "b"}
    doc = table_document(order, lambda g, h: (
        h if g == "e" else g if h == "e" else "e" if g == h else table[(g, h)]))
    triples = [(a, b, c) for a in order for b in order for c in order
               if doc["mul"][f"{doc['mul'][f'{a},{b}']},{c}"]
               != doc["mul"][f"{a},{doc['mul'][f'{b},{c}']}"]]
    assert len(triples) >= 2
    a, b, c = triples[0]
    with pytest.raises(NonAssociative) as info:
        load_group(doc)
    assert str(info.value) == f"({a}*{b})*{c} != {a}*({b}*{c})"


@pytest.mark.parametrize("order,first", [(["e", "a", "b"], "a"), (["b", "e", "a"], "b")])
def test_missing_inverse_names_the_first_element(order, first):
    # x*y = x for x, y != e: neither a nor b has an inverse
    doc = table_document(order, lambda g, h: h if g == "e" else g)
    with pytest.raises(MissingInverse) as info:
        load_group(doc)
    assert str(info.value) == f"element {first!r} has no two-sided inverse"


def test_multiple_inverses_listed_in_element_order():
    # a loop (no associativity) where a*b = b*a = a*c = c*a = e
    elements = ["e", "c", "a", "b"]
    table = {("a", "a"): "b", ("a", "b"): "e", ("a", "c"): "e",
             ("b", "a"): "e", ("b", "b"): "c", ("b", "c"): "a",
             ("c", "a"): "e", ("c", "b"): "a", ("c", "c"): "b"}
    doc = table_document(elements, lambda g, h: (
        h if g == "e" else g if h == "e" else table[(g, h)]))
    with pytest.raises(MissingInverse) as info:
        load_group(doc)
    # c has the single inverse a; a is the first with two, listed as c, b
    assert str(info.value) == "element 'a' has multiple inverses ['c', 'b']"
    assert loop_validate(doc) == (MissingInverse, str(info.value))


def test_group_table_is_read_only():
    group = catalog.s3_group()
    for array in (group.table, group.inverse):
        with pytest.raises(ValueError):
            array[0] = 0


# ------------------------------------------------------- fail closed on NaN

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_irrep_fails_verification(bad):
    sign = catalog.z2_irreps()["sign"]
    irr = Irrep(group=sign.group, n=1, name="sign",
                D={"e": np.array([[1.0 + 0j]]), "r": np.array([[complex(bad)]])})
    report = verify_irrep(irr)
    assert not report.ok
    assert len(report.failures) >= 3


@pytest.mark.parametrize("pair", [["NaN", 0], [0, "inf"], [float("-inf"), 0]])
def test_non_finite_matrix_entry_rejected_at_load(pair):
    doc = {**catalog.builtin_documents()["z2"],
           "irreps": {"sign": {"n": 1, "matrices": {"e": [[[1, 0]]], "r": [[pair]]}}}}
    with pytest.raises(ValueError, match="finite"):
        load_irrep(doc, "sign")


@pytest.mark.parametrize("doc,match", [
    ({"elements": "er", "mul": {}}, "'elements' must be a JSON array"),
    ({"elements": ["e"], "mul": [["e", "e"]]}, "'mul' must be a JSON object"),
    ({"elements": ["e"], "mul": {"e,e": "e"}, "irreps": []}, "'irreps' must be a JSON object"),
    ({"elements": ["e"], "mul": {"e,e": "e"}, "irreps": {"x": {"matrices": {}}}},
     "missing field 'n'"),
    ({"elements": ["e"], "mul": {"e,e": "e"}, "irreps": {"x": {"n": 1, "matrices": []}}},
     "'matrices' must be a JSON object"),
    ({"elements": ["e"], "mul": {"e,e": "e"}, "irreps": {"x": {"n": 1, "matrices": {"e": 1}}}},
     "matrix must be a JSON array"),
    ({"elements": [["e"]], "mul": {}}, "bad element label"),
])
def test_malformed_documents_raise_value_error(doc, match):
    with pytest.raises(ValueError, match=match):
        load_irreps(doc)
