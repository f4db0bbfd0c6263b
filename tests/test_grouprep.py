"""Tables, axioms, and unitary irrep checks."""

import math
import operator
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from rbw import catalog, cayley, grouprep
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
    _resolve_all,
    group_document,
    load_group,
    load_irrep,
    load_irreps,
    orthogonality_residual,
    resolution_identity,
    verify_irrep,
)
from rbw.tolerance import exceeds


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


def test_validation_report_is_a_record_of_ten_fields():
    assert grouprep.ValidationReport._fields == (
        "name", "n", "N", "max_unitarity_residual", "max_homomorphism_residual",
        "irreducibility_indicator", "orthogonality_residual", "resolution_residual",
        "tolerance", "failures")
    assert grouprep.ValidationReport._field_defaults == {"failures": ()}
    report = verify_irrep(catalog.z2_irreps()["sign"])
    assert report.ok and report.failures == () and report[:3] == ("sign", 1, 2)
    with pytest.raises(AttributeError):
        report.name = "other"


def test_irrep_stacks_its_rows_once_and_compares_by_identity():
    group = catalog.z2_group()
    matrices = {"e": np.eye(1), "r": -np.eye(1)}
    irr = Irrep(group, 1, matrices, "sign")
    twin = Irrep(group=group, n=1, D=matrices, name="sign")
    assert irr != twin and len({irr, twin}) == 2
    assert not irr.stacked().flags.writeable
    for g in group.elements:
        assert np.shares_memory(irr.D[g], irr.stacked())
        assert np.array_equal(irr.matrix(g), matrices[g])


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


def test_unknown_element_message_reads_as_a_sentence():
    # a KeyError subclass, yet str() is the message rather than its repr
    with pytest.raises(KeyError) as info:
        catalog.z2_group().inv("nope")
    assert str(info.value) == "'nope' is not an element of the group"
    with pytest.raises(UnknownElement) as info:
        catalog.z2_irreps()["sign"].matrix("nope")
    assert str(info.value) == "irrep 'sign' has no matrix for 'nope'"


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
    doc = catalog.builtin_document("z2")
    doc = {**doc, "irreps": {"bad": {"n": 2, "matrices": {
        "e": [[[1, 0]]], "r": [[[1, 0]]]}}}}
    with pytest.raises(DimensionMismatch):
        load_irrep(doc, "bad")


def test_bool_irrep_dimension_rejected():
    # bool is an int subclass; n = true must not pass as n = 1
    doc = {**catalog.builtin_document("z2"),
           "irreps": {"sign": {"n": True, "matrices": {"e": [[[1, 0]]], "r": [[[-1, 0]]]}}}}
    with pytest.raises(ValueError, match="positive integer"):
        load_irrep(doc, "sign")


def test_missing_matrix():
    doc = {**catalog.builtin_document("z2"),
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


@pytest.mark.parametrize("doc", [catalog.s3_document(), dihedral_document(5, 1)],
                         ids=["s3", "dihedral-10"])
def test_group_spec_is_made_from_a_checked_table(doc):
    made, loaded = grouprep.GroupSpec(cayley.check_table(doc)), load_group(doc)
    assert made.elements == loaded.elements and made.identity == loaded.identity
    assert made.index == loaded.index
    for name in ("table", "inverse"):
        ours, theirs = getattr(made, name), getattr(loaded, name)
        assert ours.dtype == np.intp and np.array_equal(ours, theirs)
        assert not ours.flags.writeable and not theirs.flags.writeable
    # groups compare and hash by identity
    assert made != loaded and len({made, loaded}) == 2
    assert not hasattr(grouprep, "group_from_table")


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


def two_stack_resolve_all(irr):
    """Every element's resolution sum from its own (N, N) stack of
    D(g^-1) D(g') products, the table that verify_irrep once built apart
    from the homomorphism stack."""
    group, d = irr.group, irr.stacked()
    traces = np.trace(d[group.inverse] @ d[:, None], axis1=2, axis2=3)   # [g', g]
    return (traces[:, :, None, None] * d).sum(axis=1) * (irr.n / group.N)


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def bit_test_variants(irreps, seed):
    """broken_variants of every irrep, plus a copy with seeded noise in
    every entry, whose sums round differently in every order."""
    rng = np.random.default_rng(seed)
    for base in irreps.values():
        yield from broken_variants(base)
        yield Irrep(group=base.group, n=base.n, name=f"{base.name}~",
                    D={g: m + 1e-3 * (rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape))
                       for g, m in base.D.items()})


@pytest.mark.parametrize("m,seed", DIHEDRAL)
def test_group_sums_keep_the_two_stack_bits(m, seed):
    for irr in bit_test_variants(load_irreps(dihedral_document(m, seed)), seed):
        group, d = irr.group, irr.stacked()
        table = two_stack_resolve_all(irr)
        prod = d[:, None] @ d[None, :]
        assert np.array_equal(bits(_resolve_all(irr, prod)), bits(table))
        for i, g in enumerate(group.elements):
            assert np.array_equal(bits(resolution_identity(irr, g)), bits(table[i]))
        report = verify_irrep(irr)
        assert report.max_unitarity_residual == float(
            np.max(np.abs(d @ d.conj().swapaxes(1, 2) - np.eye(irr.n))))
        assert report.max_homomorphism_residual == float(
            np.max(np.abs(d[:, None] @ d[None, :] - d[group.table])))
        assert report.irreducibility_indicator == float(
            np.sum(np.abs(np.trace(d, axis1=1, axis2=2)) ** 2) / group.N)
        assert report.orthogonality_residual == orthogonality_residual(irr)
        assert report.resolution_residual == float(np.max(np.abs(table - d)))


def s3_and_dihedral_irreps():
    yield from catalog.s3_irreps().values()
    for m, seed in DIHEDRAL:
        yield from load_irreps(dihedral_document(m, seed)).values()


def test_traces_are_the_loop_traces():
    rng = np.random.default_rng(3)
    for irr in s3_and_dihedral_irreps():
        x = rng.normal(size=(irr.n, irr.n)) + 1j * rng.normal(size=(irr.n, irr.n))
        loop = [np.trace(irr.matrix(g) @ x) for g in irr.group.elements]
        assert close(irr.traces(x), loop)


def test_group_sum_of_the_traces_returns_any_matrix():
    # completeness, sum_g D(g) tr{D(g^-1) X} = (N/n) X, on a matrix that is
    # neither hermitian nor a state: what makes reconstruction exact
    rng = np.random.default_rng(4)
    for irr in s3_and_dihedral_irreps():
        x = rng.normal(size=(irr.n, irr.n)) + 1j * rng.normal(size=(irr.n, irr.n))
        assert np.max(np.abs(irr.group_sum(irr.traces(x)[irr.group.inverse]) - x)) <= 1e-12


def test_resolution_identity_never_builds_the_full_table(monkeypatch):
    def full_table(*args, **kwargs):
        raise AssertionError("resolution_identity built the N x N table")
    monkeypatch.setattr(grouprep, "_resolve_all", full_table)
    for irr in load_irreps(dihedral_document(8, 0)).values():
        for g in irr.group.elements:
            assert close(resolution_identity(irr, g), irr.matrix(g))


@pytest.mark.parametrize("m,seed", DIHEDRAL)
def test_dihedral_reconstruction_matches_the_loop_oracle(m, seed):
    from rbw.symmetry_state import expectations_from_state, reconstruct_density
    rng = np.random.default_rng(seed)
    for irr in load_irreps(dihedral_document(m, seed)).values():
        a = rng.normal(size=(irr.n, irr.n)) + 1j * rng.normal(size=(irr.n, irr.n))
        rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
        es = expectations_from_state(rho0, irr)
        for g in irr.group.elements:
            assert close(es.values[g], np.trace(rho0 @ irr.matrix(g)))
        assert close(reconstruct_density(es), loop_reconstruction(irr, es.values))
        raw = {g: complex(rng.normal(), rng.normal()) for g in irr.group.elements}
        v = np.array([raw[g] for g in irr.group.elements])
        assert close(irr.group_sum(v[irr.group.inverse]), loop_reconstruction(irr, raw))


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


def test_associativity_offender_past_the_first_block():
    # Z16 x K, where K = {e, u, v} has identity e, unique inverses
    # u*v = v*u = e, and u*u = u, v*v = v, so (u*u)*v = e != u = u*(u*v).
    # The 16 rows with an e component are associative, so the first
    # offender lies in the second row block of the check.
    kmul = {**{("e", k): k for k in "euv"}, **{(k, "e"): k for k in "euv"},
            ("u", "v"): "e", ("v", "u"): "e", ("u", "u"): "u", ("v", "v"): "v"}
    elements = [f"{k}{h}" for k in "euv" for h in range(16)]
    doc = {"elements": elements,
           "mul": {f"{k1}{h1},{k2}{h2}": f"{kmul[k1, k2]}{(h1 + h2) % 16}"
                   for k1 in "euv" for h1 in range(16) for k2 in "euv" for h2 in range(16)}}
    expected = loop_validate(doc)
    assert expected == (NonAssociative, "(u0*u0)*v0 != u0*(u0*v0)")
    with pytest.raises(NonAssociative) as info:
        load_group(doc)
    assert str(info.value) == expected[1]


def test_load_group_memory_stays_bounded():
    # the associativity check must not hold N^3 index arrays (~130 MB here)
    n = 200
    labels = [f"c{k}" for k in range(n)]
    doc = {"elements": labels,
           "mul": {f"c{i},c{j}": labels[(i + j) % n] for i in range(n) for j in range(n)}}
    tracemalloc.start()
    try:
        group = load_group(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.N == n and group.identity == "c0"
    assert peak < 20e6


# ------------------------------------------------- Light's associativity test

def cyclic_document(n, seed=None):
    """Z_n with c<k> = k, in index order or, given a seed, shuffled."""
    labels = [f"c{k}" for k in range(n)]
    order = labels if seed is None else random.Random(seed).sample(labels, n)
    return {"elements": order,
            "mul": {f"c{i},c{j}": labels[(i + j) % n] for i in range(n) for j in range(n)}}


def single_entry_corruptions(doc):
    """doc with one mul entry deleted, or overwritten by each other element."""
    for key in sorted(doc["mul"]):
        for value in [None, *doc["elements"]]:
            if value != doc["mul"][key]:
                bad = {**doc, "mul": dict(doc["mul"])}
                if value is None:
                    del bad["mul"][key]
                else:
                    bad["mul"][key] = value
                yield bad


def random_loop_document(n, rng):
    """A random table with identity "e" and unique two-sided inverses, shuffled
    into a random element order; it is almost never associative."""
    others = [f"x{k}" for k in range(1, n)]
    rng.shuffle(others)
    unpaired, inverse = list(others), {}
    while unpaired:
        g = unpaired.pop()
        h = unpaired.pop() if unpaired and rng.random() < 0.7 else g
        inverse[g], inverse[h] = h, g

    def product(g, h):
        if g == "e" or h == "e":
            return h if g == "e" else g
        return "e" if inverse[g] == h else rng.choice(others)
    elements = ["e", *others]
    rng.shuffle(elements)
    return {"elements": elements,
            "mul": {f"{g},{h}": product(g, h) for g in elements for h in elements}}


@pytest.mark.parametrize("doc", [catalog.s3_document(), dihedral_document(4, 0)],
                         ids=["s3", "dihedral-8"])
def test_every_single_entry_corruption_fails_like_the_loop_oracle(doc):
    verdicts = set()
    for bad in single_entry_corruptions(doc):
        expected = loop_validate(bad)
        assert expected is not None      # a group table has one entry per cell
        verdicts.add(expected[0])
        with pytest.raises(expected[0]) as info:
            load_group(bad)
        assert str(info.value) == expected[1]
    assert verdicts == {NonClosed, MissingIdentity, MissingInverse, NonAssociative}


@pytest.mark.parametrize("n", range(3, 13))
def test_random_nonassociative_tables_fail_like_the_loop_oracle(n):
    rng = random.Random(n)
    failures = 0
    for _ in range(30):
        doc = random_loop_document(n, rng)
        expected = loop_validate(doc)
        if expected is None:
            load_group(doc)
            continue
        assert expected[0] is NonAssociative
        failures += 1
        with pytest.raises(NonAssociative) as info:
            load_group(doc)
        assert str(info.value) == expected[1]
    assert failures >= 25


def light_comparisons(monkeypatch, doc):
    """(table entries compared, generators) for load_group(doc): each row
    getter of N items reads N entries per call."""
    n = len(doc["elements"])
    counts = {"entries": 0, "generators": 0}
    real_getter, real_generators = operator.itemgetter, cayley._generators

    def counting_getter(*items):
        get = real_getter(*items)
        if len(items) < n:
            return get

        def compare(row):
            counts["entries"] += n
            return get(row)
        return compare

    def counting_generators(rows, e):
        for s in real_generators(rows, e):
            counts["generators"] += 1
            yield s
    monkeypatch.setattr(cayley, "itemgetter", counting_getter)
    monkeypatch.setattr(cayley, "_generators", counting_generators)
    load_group(doc)
    return counts["entries"], counts["generators"]


@pytest.mark.parametrize("n", [32, 100])
def test_light_test_grows_like_n_squared(monkeypatch, n):
    small, _ = light_comparisons(monkeypatch, cyclic_document(n))
    large, _ = light_comparisons(monkeypatch, cyclic_document(2 * n))
    assert large <= 4.5 * small


@pytest.mark.parametrize("doc", [
    *(cyclic_document(n, seed) for n in (12, 30, 64, 97) for seed in range(3)),
    *(dihedral_document(m, seed) for m, seed in DIHEDRAL),
    catalog.s3_document(),
], ids=lambda doc: f"N{len(doc['elements'])}")
def test_light_generating_set_is_logarithmic(monkeypatch, doc):
    n = len(doc["elements"])
    _, generators = light_comparisons(monkeypatch, doc)
    assert 1 <= generators <= math.floor(math.log2(n)) + 1


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


def test_irrep_stack_is_built_once_and_read_only():
    irr = catalog.s3_irreps()["standard"]
    assert irr.stacked() is irr.stacked()
    assert irr.stacked().shape == (6, 2, 2)
    with pytest.raises(ValueError):
        irr.stacked()[0, 0, 0] = 1


def test_irrep_is_a_snapshot_of_its_matrices():
    # D rows are views of the stack, so later edits to the caller's arrays
    # cannot make matrix() and stacked() disagree
    sign = catalog.z2_irreps()["sign"]
    mats = {g: np.array(sign.matrix(g)) for g in sign.group.elements}
    irr = Irrep(group=sign.group, n=1, D=mats, name="copy")
    mats["r"][0, 0] = 0.5
    assert irr.matrix("r")[0, 0] == -1
    assert all(np.shares_memory(irr.matrix(g), irr.stacked()) for g in irr.group.elements)
    assert verify_irrep(irr).ok


def test_irrep_shape_checked_when_made():
    sign = catalog.z2_irreps()["sign"]
    with pytest.raises(DimensionMismatch,
                       match=r"matrix for 'r' has shape \(2, 2\), expected \(1, 1\)"):
        Irrep(group=sign.group, n=1, D={"e": np.eye(1), "r": np.eye(2)})


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


def test_near_irrep_notes_show_the_residual_and_tolerance(monkeypatch):
    # D(r) off by 5e-10: the character-norm note once read
    # "character norm 1.000000 != 1 (not irreducible)"
    monkeypatch.delenv("RBW_TOLERANCE", raising=False)
    sign = catalog.z2_irreps()["sign"]
    irr = Irrep(group=sign.group, n=1, name="sign",
                D={"e": np.array([[1.0 + 0j]]), "r": np.array([[-(1 + 5e-10) + 0j]])})
    report = verify_irrep(irr)
    assert report.failures == (
        "unitarity residual = 1e-09 exceeds the tolerance 1e-10",
        "homomorphism residual = 1e-09 exceeds the tolerance 1e-10",
        "|character norm - 1| = 5e-10 exceeds the tolerance 1e-10",
        "orthogonality residual = 5e-10 exceeds the tolerance 1e-10",
        "resolution residual = 5e-10 exceeds the tolerance 1e-10",
    )


def test_huge_irrep_entry_fails_verification_quietly():
    # 1e308 is a finite number, so it loads; its products overflow
    doc = {**catalog.builtin_document("z2"),
           "irreps": {"sign": {"n": 1, "matrices": {"e": [[[1, 0]]], "r": [[[1e308, 0]]]}}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_irrep(load_irrep(doc, "sign"))
    assert not report.ok


def _huge_standard():
    # D((12)) near 1e308: finite, so the irrep is made; its products overflow
    irr = catalog.s3_irreps()["standard"]
    return Irrep(group=irr.group, n=2, name="standard",
                 D={**irr.D, "(12)": np.full((2, 2), 1.5e308)})


def test_huge_irrep_entry_fails_the_orthogonality_residual_quietly():
    irr = _huge_standard()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = orthogonality_residual(irr)
    assert not math.isfinite(residual)
    assert exceeds(residual, "orthogonality residual") is not None


def test_huge_irrep_entry_fails_the_resolution_identity_quietly():
    irr = _huge_standard()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = resolution_identity(irr, "(12)")
    assert not np.isfinite(out).all()
    residual = float(np.max(np.abs(out - irr.matrix("(12)"))))
    assert exceeds(residual, "resolution residual") is not None


@pytest.mark.parametrize("pair", [["NaN", 0], [0, "inf"], [float("-inf"), 0],
                                  [True, False], ["-1", "0"], [10 ** 400, 0]])
def test_non_finite_matrix_entry_rejected_at_load(pair):
    doc = {**catalog.builtin_document("z2"),
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


# ------------------------------------------------- tall products and one pass

def tall_product_stacks():
    """(group, stack) for S3, the dihedral documents, and seeded random
    stacks over cyclic groups with N from 1 to 40 and n from 1 to 4."""
    for irr in s3_and_dihedral_irreps():
        yield irr.group, irr.stacked()
    rng = np.random.default_rng(24)
    for big_n in range(1, 41):
        group = load_group(cyclic_document(big_n))
        for n in range(1, 5):
            yield group, rng.normal(size=(big_n, n, n)) + 1j * rng.normal(size=(big_n, n, n))


def test_tall_products_keep_the_per_element_bits():
    # one (N*n, n) @ (n, n) product per operand must round like the per-pair
    # products it replaces; a BLAS that rounds it otherwise fails here
    rng = np.random.default_rng(5)
    for group, d in tall_product_stacks():
        n = d.shape[1]
        irr = Irrep(group=group, n=n, D=dict(zip(group.elements, d)))
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.array_equal(bits(irr.traces(x)),
                              bits(np.trace(d @ x, axis1=-2, axis2=-1)))
        assert np.array_equal(bits(grouprep._pair_products(d)),
                              bits(d[:, None] @ d[None, :]))


def doc_with_irrep(n, matrices):
    return {**catalog.builtin_document("z2"), "irreps": {"x": {"n": n, "matrices": matrices}}}


ONE = [[[1.0, 0.0]]]
EYE2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize("doc", [
    pytest.param(catalog.builtin_document("s3"), id="s3"),
    *(pytest.param(dihedral_document(m, seed), id=f"dihedral-{m}-{seed}")
      for m, seed in DIHEDRAL),
    pytest.param(doc_with_irrep(2, {"e": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                                    "r": [[[-0.0, 1e-300], [np.float64(0.6), -0.8]],
                                          [[0.8, 0], [0.6, -0.0]]]}), id="ints-numpy-signed-zeros"),
])
def test_parsed_stacks_are_the_stacked_matrices(doc):
    group = load_group(doc)
    for name, irr in load_irreps(doc, group).items():
        matrices = doc["irreps"][name]["matrices"]
        by_element = np.array([grouprep.matrix_from_pairs(matrices[g]) for g in group.elements])
        assert np.array_equal(bits(irr.stacked()), bits(by_element))
        want = np.array([[[complex(*pair) for pair in row] for row in matrices[g]]
                         for g in group.elements])
        assert np.array_equal(bits(irr.stacked()), bits(want))


@pytest.mark.parametrize("matrices,n,error,message", [
    ({"e": ONE, "r": [[[True, 0]]]}, 1, ValueError,
     "irrep 'x' matrix for 'r': [re, im] pair entry must be a finite number, got True"),
    ({"e": ONE, "r": [[[1.0, False]]]}, 1, ValueError,
     "irrep 'x' matrix for 'r': [re, im] pair entry must be a finite number, got False"),
    ({"e": ONE, "r": [[["0.5", 0]]]}, 1, ValueError,
     "irrep 'x' matrix for 'r': [re, im] pair entry must be a finite number, got '0.5'"),
    ({"e": ONE, "r": [[[10 ** 400, 0]]]}, 1, ValueError,
     f"irrep 'x' matrix for 'r': [re, im] pair entry must be a finite number, got {10 ** 400}"),
    ({"e": ONE, "r": [[[math.nan, 0.0]]]}, 1, ValueError,
     "irrep 'x' matrix for 'r': [re, im] pair entry must be a finite number, got nan"),
    ({"e": ONE, "r": [[[0.0, math.inf]]]}, 1, ValueError,
     "irrep 'x' matrix for 'r': [re, im] pair entry must be a finite number, got inf"),
    ({"e": ONE, "r": [[[np.float64("nan"), 0.0]]]}, 1, ValueError,
     "irrep 'x' matrix for 'r': [re, im] pair entry must be a finite number, "
     f"got {np.float64('nan')!r}"),
    ({"e": EYE2, "r": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}, 2, ValueError,
     "irrep 'x' matrix for 'r': matrix rows have lengths [2, 1]"),
    ({"e": ONE, "r": [[[1.0, 0.0, 0.0]]]}, 1, ValueError,
     "irrep 'x' matrix for 'r': complex number must be a [re, im] pair, got [1.0, 0.0, 0.0]"),
    ({"e": ONE, "r": [[1.0]]}, 1, ValueError,
     "irrep 'x' matrix for 'r': complex number must be a JSON array, got float"),
    ({"e": ONE, "r": [5]}, 1, ValueError,
     "irrep 'x' matrix for 'r': matrix row must be a JSON array, got int"),
    ({"e": ONE, "r": "1"}, 1, ValueError,
     "irrep 'x' matrix for 'r': matrix must be a JSON array, got str"),
    ({"e": ONE}, 1, ValueError, "irrep 'x' is missing matrices for ['r']"),
    ({"e": ONE, "r": ONE, "q": ONE}, 1, UnknownElement,
     "irrep 'x' has a matrix for 'q', which is not a group element"),
    ({"e": EYE2, "r": ONE}, 2, DimensionMismatch,
     "irrep 'x' matrix for 'r' has shape (1, 1), expected (2, 2)"),
    ({"e": ONE, "r": []}, 1, DimensionMismatch,
     "irrep 'x' matrix for 'r' has shape (0,), expected (1, 1)"),
    ({"e": ONE, "r": [[]]}, 1, DimensionMismatch,
     "irrep 'x' matrix for 'r' has shape (1, 0), expected (1, 1)"),
    # which offender is named: the first in document order while parsing,
    # the first entry of a matrix before its row lengths, missing matrices
    # before shapes, and shapes in element order
    ({"e": ONE, "r": [[[True, 0]], 5]}, 1, ValueError,
     "irrep 'x' matrix for 'r': [re, im] pair entry must be a finite number, got True"),
    ({"e": EYE2, "r": [[[1, 0]], [[0, 0], [True, 0]]]}, 2, ValueError,
     "irrep 'x' matrix for 'r': [re, im] pair entry must be a finite number, got True"),
    ({"r": [[["r", 0]]], "e": [[["e", 0]]]}, 1, ValueError,
     "irrep 'x' matrix for 'r': [re, im] pair entry must be a finite number, got 'r'"),
    ({"e": [[[None, 0]]], "q": ONE}, 1, ValueError,
     "irrep 'x' matrix for 'e': [re, im] pair entry must be a finite number, got None"),
    ({"q": ONE, "e": [[[None, 0]]]}, 1, UnknownElement,
     "irrep 'x' has a matrix for 'q', which is not a group element"),
    ({"e": ONE}, 2, ValueError, "irrep 'x' is missing matrices for ['r']"),
    ({"r": ONE, "e": [[[1.0, 0.0]] * 3]}, 2, DimensionMismatch,
     "irrep 'x' matrix for 'e' has shape (1, 3), expected (2, 2)"),
])
def test_malformed_irreps_fail_with_the_matrix_parser_messages(matrices, n, error, message):
    with pytest.raises(error) as info:
        load_irrep(doc_with_irrep(n, matrices), "x")
    assert type(info.value) is error
    assert str(info.value) == message
