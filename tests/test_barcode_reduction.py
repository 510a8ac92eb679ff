"""The closed-form `barcode` against the threshold sweep.

The oracle is the definition: at a = 0 and at every positive generator value,
`homology_ranks` of the generators with value > a, run-length encoded per
degree into bars.  It is cubic in the number of generators; `barcode` must
give the same bytes without calling it.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfs import (Ambient, Bar, Barcode, DomainError, Generator,
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
    return Barcode(bars, cx.field)


def _bytes(bc):
    return bc.to_json() + bc.to_tsv()


@st.composite
def filtered_complexes(draw):
    """Chains g_0 <- g_1 <- ... in consecutive degrees, values not falling as
    the degree rises, each link an entry x^v with v_in + v_out >= k at every
    inner generator, so d o d = 0; v_in + v_out > k leaves a free rank that
    no ball has.  A chain may be a lone generator, and the generators are
    listed in a random order."""
    k = draw(st.sampled_from([1, 3, 5, 7]))
    gens, links = [], []
    for _ in range(draw(st.integers(1, 5))):
        q, c = draw(st.integers(0, 3)), draw(st.integers(0, 5))
        gens.append(Generator(q, float(c)))
        v_in = k                    # the chain's first generator has no entry in
        for _ in range(draw(st.integers(0, 3))):
            if v_in == 0:           # v_out would need v_out >= k
                break
            v_in = draw(st.integers(k - v_in, k - 1))
            q, c = q + 1, draw(st.integers(c, 5))
            gens.append(Generator(q, float(c)))
            links.append((len(gens) - 2, len(gens) - 1, v_in))
    order = draw(st.permutations(range(len(gens))))
    pos = {old: new for new, old in enumerate(order)}
    cx = GroupRingComplex(k, [gens[i] for i in order])
    for t, s, v in links:
        cx.add_diff(pos[t], pos[s], v)
    return cx


@settings(max_examples=150, deadline=None)
@given(filtered_complexes(), st.sampled_from(MODES))
def test_barcode_matches_threshold_sweep(cx, mode):
    assert cx.check_d2() == []
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
    """`barcode` ranks nothing: not on the steep k = 1 ball, checked against
    `homology_ranks` at a few thresholds, and not on the plain k = 211 ball,
    whose dense expansion has a 211 x 211 block per entry, checked against
    its pinned bytes."""
    cx = ball_complex(Ambient(n=1, R=1.0), ref_profile(-200 * math.pi, 0.1), 1)
    assert len(cx.generators) == 399
    wide = ball_complex(Ambient(n=1), ref_profile(-0.9 * math.pi, 0.1), 211)

    def refuse(*args, **kwargs):
        raise AssertionError("barcode must not rank threshold complexes")

    with monkeypatch.context() as m:
        m.setattr(GroupRingComplex, "homology_ranks", refuse)
        m.setattr(GroupRingComplex, "matrix", refuse)
        m.setattr(equivar, "rank_mod_p", refuse)
        bc = barcode(cx, "plain")
        wide_bytes = _bytes(barcode(wide, "plain")).encode()
    assert hashlib.sha256(wide_bytes).hexdigest() == \
        LARGE_K_SHA256[211, "plain"]
    values = sorted({g.value for g in cx.generators})
    for q in (0.2, 0.45, 0.7, 0.9):
        i = int(q * len(values))
        a = 0.5 * (values[i] + values[i + 1])
        want = cx.homology_ranks("plain", [g.value > a for g in cx.generators])
        assert {d: bc.rank_at(d, a) for d in cx.degrees()} == want, a


def test_barcode_rejects_unknown_mode():
    cx = GroupRingComplex(3, [Generator(0, 1.0), Generator(1, 2.0)])
    cx.add_diff(0, 1, 1)
    for c in (cx, GroupRingComplex(3, [])):
        with pytest.raises(DomainError):
            barcode(c, "bogus")
    assert len(barcode(GroupRingComplex(3, []), "plain")) == 0


def test_barcode_refuses_a_non_complex():
    # x^0 x^0 = 1 on the path 2 -> 1 -> 0, so d o d != 0 for k = 3
    cx = GroupRingComplex(3, [Generator(d, d + 1.0) for d in range(3)])
    cx.add_diff(0, 1, 0)
    cx.add_diff(1, 2, 0)
    assert cx.check_d2() == [(0, 2)]
    for mode in MODES:
        with pytest.raises(DomainError):
            barcode(cx, mode)


# sha256 of to_json() + to_tsv() for the plain and equivariant balls of
# ref_profile(-0.9 pi, 0.1) at large k, where each plain entry stands for a
# k x k block.
LARGE_K_SHA256 = {
    (53, "plain"):
        "49f25774bfb8a78844391d9806a9bfba986fa8babc3f9b7d95e162b4c4c14056",
    (53, "equivariant"):
        "3cd1e0147d4e81d4f89db15d75e05d57fcc054266d2164c72805e0d34c4c534c",
    (101, "plain"):
        "d1eff16b82f41378a16d85e6d8fac4924d0377158a293c54e476122f005d2fcb",
    (211, "plain"):
        "518ce6484dbd61c4f1eb5cc92bbb4b02446a13c8191ad8913d70a34133483fae",
}


@pytest.mark.parametrize("k,mode", sorted(LARGE_K_SHA256))
def test_large_k_ball_barcode_bytes_are_pinned(k, mode):
    cx = ball_complex(Ambient(n=1), ref_profile(-0.9 * math.pi, 0.1), k)
    data = _bytes(barcode(cx, mode)).encode()
    assert hashlib.sha256(data).hexdigest() == LARGE_K_SHA256[k, mode]


# sha256 of to_json() + to_tsv() over the conftest ball grid, both modes,
# taken in the grid's order (mode last).
GRID_SHA256 = \
    "b12266ea3ef5d64da88787ea1e506c4ea552193ca8886decaf0123a10d5a1cbd"


def test_ball_grid_barcode_bytes_are_pinned(ball_grid):
    digest = hashlib.sha256()
    for cx in ball_grid.values():
        for mode in MODES:
            digest.update(_bytes(barcode(cx, mode)).encode())
    assert digest.hexdigest() == GRID_SHA256


# A dense column reduction and point read-out as a second oracle: the numpy
# `matrix` of each degree, every column compared with every point.
# Quadratic, but independent of the closed form and its event sweep.

def _dense_barcode(cx, mode):
    gens, degrees, p = cx.generators, cx.degrees(), cx.field
    block = cx.k if mode == "plain" else 1
    order, value = {}, {}       # rows of `matrix` by value; their values
    for d in {e for d in degrees for e in (d - 1, d)}:
        idx = cx.indices_of_degree(d)
        q = np.array(sorted(range(len(idx)), key=lambda q: gens[idx[q]].value),
                     dtype=int)
        order[d] = (q[:, None] * block + np.arange(block)).ravel()
        value[d] = np.repeat([gens[idx[j]].value for j in q], block)
    mats = {d: cx.matrix(d, mode)[np.ix_(order[d - 1], order[d])]
            for d in degrees}
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
                want.to_json() + _formula_tsv(want), (cx.k, mode)


# Bars over a few degrees with shared endpoints, ranks above 1, infinite
# deaths, some with birth >= death, and both zeros.
_ENDS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.25])
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
