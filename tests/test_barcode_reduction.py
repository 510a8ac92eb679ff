"""The persistence reduction behind `barcode` against the threshold sweep.

The oracle is the definition: at a = 0 and at every positive generator value,
`homology_ranks` of the generators with value > a, run-length encoded per
degree into bars.  It is cubic in the number of generators; `barcode` must
give the same bytes without calling it.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfs import (Ambient, Bar, Barcode, DomainError, Generator, GroupRing,
                 GroupRingComplex, ball_complex, barcode, equivar,
                 ref_profile)

MODES = ("plain", "equivariant")


def _sweep(cx, mode):
    """The barcode by threshold sweep: one `homology_ranks` per point."""
    values = sorted({g.value for g in cx.generators})
    points = [0.0] + [v for v in values if v > 0.0]
    ranks = [cx.homology_ranks(mode, [g.value > a for g in cx.generators])
             for a in points]
    bars = []
    for d in cx.degrees():
        run_rank, run_start = 0, 0.0
        for a, r in zip(points, ranks):
            if r.get(d, 0) != run_rank:
                if run_rank > 0:
                    bars.append(Bar(d, run_start, a, run_rank))
                run_rank, run_start = r.get(d, 0), a
        if run_rank > 0:
            bars.append(Bar(d, run_start, math.inf, run_rank))
    field = 2 if (mode == "plain" and cx.ring.k == 1) else cx.ring.mod
    return Barcode(bars, field)


def _bytes(bc):
    return bc.to_json() + bc.to_tsv()


@st.composite
def filtered_complexes(draw):
    """A direct sum of elementary pairs s --e--> t (v_s <= v_t) and single
    generators, under random value-respecting unitriangular changes of
    basis g_i -> g_i + c g_j (same degree, v_j <= v_i), so d o d = 0 and the
    filtration hold by construction while the matrices fill in."""
    k = draw(st.sampled_from([1, 3, 5]))
    ring = GroupRing(k)
    elems = st.lists(st.integers(0, ring.mod - 1), min_size=k, max_size=k)
    gens, D = [], {}
    for _ in range(draw(st.integers(1, 7))):
        q, v = draw(st.integers(0, 3)), draw(st.integers(0, 5))
        if draw(st.booleans()):
            gens.append(Generator(q, float(v)))
            continue
        gens += [Generator(q, float(v)),
                 Generator(q + 1, float(draw(st.integers(v, 5))))]
        D[(len(gens) - 2, len(gens) - 1)] = ring.elem(draw(elems))
    for _ in range(draw(st.integers(0, 15))):
        i = draw(st.integers(0, len(gens) - 1))
        j = draw(st.integers(0, len(gens) - 1))
        if i == j or gens[i].degree != gens[j].degree \
                or gens[j].value > gens[i].value:
            continue
        c = ring.elem(draw(elems))
        for (t, s), e in list(D.items()):      # d(g_i) += c d(g_j)
            if s == j:
                D[(t, i)] = ring.add(D.get((t, i), ring.zero), ring.mul(c, e))
        for (t, s), e in list(D.items()):      # x_j -= c x_i
            if t == i:
                D[(j, s)] = ring.sub(D.get((j, s), ring.zero), ring.mul(c, e))
    cx = GroupRingComplex(ring, gens)
    for (t, s), e in D.items():
        cx.add_diff(t, s, e)
    return cx


@settings(max_examples=150, deadline=None)
@given(filtered_complexes(), st.sampled_from(MODES))
def test_barcode_matches_threshold_sweep(cx, mode):
    assert cx.check_d2() == [] and cx.check_filtration() == []
    assert _bytes(barcode(cx, mode)) == _bytes(_sweep(cx, mode))


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2)
                                 for k in (1, 3, 5, 7, 23)])
def test_ball_barcode_bytes_match_sweep(n, k):
    amb = Ambient(n=n, R=1.0)
    for c_over_pi in (0.9, 60):
        cx = ball_complex(amb, ref_profile(-c_over_pi * math.pi, 0.1), k)
        for mode in MODES[:1] if k == 1 else MODES:
            assert _bytes(barcode(cx, mode)) == _bytes(_sweep(cx, mode)), \
                (c_over_pi, mode)


def test_steep_k1_barcode_matches_sweep_without_ranking(monkeypatch):
    cx = ball_complex(Ambient(n=1, R=1.0), ref_profile(-200 * math.pi, 0.1), 1)
    assert len(cx.generators) == 399

    def refuse(*args, **kwargs):
        raise AssertionError("barcode must not rank threshold complexes")

    with monkeypatch.context() as m:
        m.setattr(GroupRingComplex, "homology_ranks", refuse)
        m.setattr(GroupRingComplex, "matrix", refuse)
        m.setattr(equivar, "rank_mod_p", refuse)
        bc = barcode(cx, "plain")
    values = sorted({g.value for g in cx.generators})
    for q in (0.2, 0.45, 0.7, 0.9):
        i = int(q * len(values))
        a = 0.5 * (values[i] + values[i + 1])
        want = cx.homology_ranks("plain", [g.value > a for g in cx.generators])
        assert {d: bc.rank_at(d, a) for d in cx.degrees()} == want, a


def test_barcode_rejects_unknown_mode():
    ring = GroupRing(3)
    cx = GroupRingComplex(ring, [Generator(0, 1.0), Generator(1, 2.0)])
    cx.add_diff(0, 1, ring.T_minus_1)
    for c in (cx, GroupRingComplex(ring, [])):
        with pytest.raises(DomainError):
            barcode(c, "bogus")
    assert len(barcode(GroupRingComplex(ring, []), "plain")) == 0


# The dense reduction and point read-out that `barcode` replaced, pinned as a
# second oracle: numpy matrices per degree, every column compared with every
# point.  Quadratic, but independent of the sparse columns and event sweep.

def _dense_barcode(cx, mode):
    ring, gens, degrees, p = cx.ring, cx.generators, cx.degrees(), cx.ring.mod
    block = ring.k if mode == "plain" else 1
    order = {e: [] for d in degrees for e in (d - 1, d)}
    for i in sorted(range(len(gens)), key=lambda i: gens[i].value):
        order[gens[i].degree].append(i)
    pos = {i: q * block for idx in order.values() for q, i in enumerate(idx)}
    value = {d: np.repeat([gens[i].value for i in idx], block)
             for d, idx in order.items()}
    mats = {d: np.zeros((len(value[d - 1]), len(value[d])), dtype=np.int64)
            for d in degrees}
    for (t, s), e in cx.diff.items():
        mats[gens[s].degree][pos[t]:pos[t] + block, pos[s]:pos[s] + block] = (
            ring.circulant(e) if mode == "plain" else int(np.sum(e)) % p)
    born = {d: np.full(len(v), -np.inf) for d, v in value.items()}
    for d, M in mats.items():
        column_of = {}
        for j in range(M.shape[1]):
            nz = np.flatnonzero(M[:, j])
            while nz.size and nz[-1] in column_of:
                low, i = nz[-1], column_of[nz[-1]]
                f = int(M[low, j]) * pow(int(M[low, i]), -1, p) % p
                M[:, j] = (M[:, j] - f * M[:, i]) % p
                nz = np.flatnonzero(M[:, j])
            if nz.size:
                column_of[nz[-1]] = j
                born[d][j], born[d - 1][nz[-1]] = value[d - 1][nz[-1]], np.inf
    points = [0.0] + sorted({g.value for g in gens if g.value > 0.0})
    at = np.array(points)
    bars = []
    for d in degrees:
        ranks = ((born[d][:, None] <= at)
                 & (at < value[d][:, None])).sum(axis=0).tolist()
        run_rank, run_start = 0, 0.0
        for a, rd in zip(points, ranks):
            if rd != run_rank:
                if run_rank > 0:
                    bars.append(Bar(d, run_start, a, run_rank))
                run_rank, run_start = rd, a
        if run_rank > 0:
            bars.append(Bar(d, run_start, math.inf, run_rank))
    return Barcode(bars, p)


def _formula_tsv(bc):
    """`to_tsv` by its definition: per degree, the endpoints (0.0 first when
    none is <= 0) and `rank_at` at each."""
    lines = ["a\tdegree\trank"]
    for d in bc.degrees():
        pts = bc.endpoints(d)
        if not pts or pts[0] > 0.0:
            pts = [0.0] + pts
        for a in pts:
            lines.append("%.12g\t%d\t%d" % (a, d, bc.rank_at(d, a)))
    return "\n".join(lines) + "\n"


def _oracle_complexes():
    for n in (1, 2):
        yield ball_complex(Ambient(n=n, R=1.0),
                           ref_profile(-300 * math.pi, 0.1), 1)
    for k in (11, 13, 17, 19, 23):
        yield ball_complex(Ambient(n=1, R=1.0),
                           ref_profile(-1.25 * math.pi, 0.1), k)


def test_barcode_bytes_match_the_dense_reduction():
    for cx in _oracle_complexes():
        for mode in MODES:
            bc, want = barcode(cx, mode), _dense_barcode(cx, mode)
            assert bc.to_json() + bc.to_tsv() == \
                want.to_json() + _formula_tsv(want), (cx.ring.k, mode)


# Bars over a few degrees with shared endpoints, ranks above 1, infinite
# deaths and some with birth >= death.
_ENDS = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.25])
_BARS = st.lists(st.builds(Bar, st.integers(0, 3), _ENDS,
                           st.one_of(_ENDS, st.just(math.inf)),
                           st.integers(1, 4)), max_size=12)


@settings(max_examples=200, deadline=None)
@given(_BARS)
def test_to_tsv_matches_the_endpoint_formula(bars):
    bc = Barcode(bars, 3)
    assert bc.to_tsv() == _formula_tsv(bc)


# Bars as `to_json` meets them: empty lists, infinite deaths, -0.0, large
# ranks and degrees, floats of every size.
_JSON_BARS = st.lists(st.builds(
    Bar, st.integers(0, 2**70),
    st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(st.just(math.inf), st.just(-0.0),
              st.floats(allow_nan=False, allow_infinity=False)),
    st.integers(1, 2**70)), max_size=8)


@settings(max_examples=300, deadline=None)
@given(_JSON_BARS, st.sampled_from([2, 3, 23]))
def test_to_json_matches_json_dumps(bars, field):
    bc = Barcode(bars, field)
    obj = {"schema": "gfs/1", "field": field,
           "bars": [{"degree": b.degree, "birth": b.birth,
                     "death": None if math.isinf(b.death) else b.death,
                     "rank": b.rank} for b in bc.bars]}
    assert bc.to_json() == json.dumps(obj, indent=2) + "\n"
