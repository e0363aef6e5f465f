"""ladder_sums against the best-first heap it replaced, and the JSON text of
SpectrumResult against the json module."""

import heapq
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import random_fermion_form
from hypothesis import given, settings
from hypothesis import strategies as st

import bogodiag as bd
from bogodiag import spectral

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def best_first(ladders, k):
    """The k smallest (total, ranks) keys over ascending ladders, by a heap.

    Every rank tuple has one parent, itself with the last nonzero rank
    lowered by one, so a pop pushes only the successors that raise a rank at
    or after the one its parent raised; their keys are larger, and the heap
    pops keys in ascending order.  Totals add the picks in ladder order.
    """
    n = len(ladders)
    heap = [(float(sum(lad[0] for lad in ladders)), (0,) * n, 0)]
    out = []
    while heap and len(out) < k:
        total, idx, raised = heapq.heappop(heap)
        out.append((total, idx))
        for i in range(raised, n):
            if idx[i] + 1 < len(ladders[i]):
                nxt = idx[:i] + (idx[i] + 1,) + idx[i + 1:]
                nxt_total = float(sum(lad[j] for lad, j in zip(ladders, nxt)))
                heapq.heappush(heap, (nxt_total, nxt, i))
    return np.array([t for t, _ in out]), np.array([idx for _, idx in out], dtype=np.intp).T


def reference_ladder_sums(ladders, k):
    """ladder_sums by the heap: ranks over stably sorted ladders, mapped back."""
    values = [np.asarray(lad, dtype=float) for lad in ladders]
    orders = [np.argsort(v, kind="stable") for v in values]
    totals, ranks = best_first([v[order].tolist() for v, order in zip(values, orders)], k)
    dtype = np.min_scalar_type(max(len(v) for v in values))
    return totals, np.stack([order.astype(dtype)[row] for order, row in zip(orders, ranks)], axis=1)


def assert_same_sums(got, want):
    """Totals bit for bit (the sign of zero included), rungs and their dtype."""
    (totals, rungs), (want_totals, want_rungs) = got, want
    assert totals.tobytes() == want_totals.tobytes()
    assert rungs.dtype == want_rungs.dtype and np.array_equal(rungs, want_rungs)


def witten_ladder(lam, count):
    m, f = np.divmod(np.arange(2 * count), 2)
    return abs(lam) * (2 * m + 1) + 2.0 * lam * f - lam


@st.composite
def tie_heavy_ladders(draw):
    """1-4 ladders of one kind whose sums tie often, some in shuffled order."""
    kind = draw(st.sampled_from(
        ["integers", "equal", "commensurate", "tenths", "witten", "signs"]))
    ladders = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 4))
        if kind == "integers":
            lad = np.array(draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)), float)
        elif kind == "equal":
            lad = np.arange(size) + 0.5
        elif kind == "commensurate":
            lad = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])) * (np.arange(size) + 0.5)
        elif kind == "tenths":
            lad = 0.1 * np.array(draw(st.lists(st.integers(0, 5), min_size=size, max_size=size)))
        elif kind == "witten":
            lam = draw(st.sampled_from([-1.0, -0.3, -0.1, 0.1, 0.3, 0.7, 1.0]))
            lad = witten_ladder(lam, draw(st.integers(1, 2)))
        else:
            lam = draw(st.sampled_from([0.1, 0.2, 0.3, 1.0]))
            lad = np.array([-lam, lam])
        ladders.append(lad[draw(st.permutations(range(len(lad))))])
    return ladders


class TestLadderSums:
    @settings(max_examples=120, deadline=None)
    @given(ladders=tie_heavy_ladders())
    def test_matches_heap_bit_for_bit_at_every_k(self, ladders):
        # every k below the total takes the threshold enumeration, k = total
        # the full one
        total = math.prod(len(lad) for lad in ladders)
        want = reference_ladder_sums(ladders, total)
        for k in range(1, total + 1):
            assert_same_sums(bd.ladder_sums(ladders, k), (want[0][:k], want[1][:k]))

    @pytest.mark.parametrize("k", [4912, 4913])
    def test_full_enumeration_exactly_when_k_takes_every_combination(self, k):
        # 17^3 = 4913 combinations: k = 4912 bounds the totals by the k-th
        # smallest, k = 4913 enumerates them all; rungs 0-16 fit in uint8
        rng = np.random.default_rng(17)
        ladders = [0.25 * rng.integers(-4, 8, 17) for _ in range(3)]
        with mock.patch.object(spectral, "_kth_smallest_total",
                               wraps=spectral._kth_smallest_total) as kth:
            got = bd.ladder_sums(ladders, k)
        assert kth.called == (k < 4913)
        assert got[1].dtype == np.uint8
        assert_same_sums(got, reference_ladder_sums(ladders, k))

    @pytest.mark.parametrize("n, k", [(2, 3000), (3, 200), (6, 500)])
    def test_oscillator_ladders_above_full_enumeration(self, n, k):
        rng = np.random.default_rng(n * k)
        ladders = [rng.uniform(0.5, 2.0) * (np.arange(k) + 0.5) for _ in range(n)]
        assert_same_sums(bd.ladder_sums(ladders, k), reference_ladder_sums(ladders, k))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_witten_ladders_above_full_enumeration(self, n):
        rng = np.random.default_rng(40 + n)
        lam = rng.choice((-1.0, 1.0), n) * rng.uniform(0.5, 2.0, n)
        ladders = [witten_ladder(lv, 200) for lv in lam]
        assert_same_sums(bd.ladder_sums(ladders, 200), reference_ladder_sums(ladders, 200))

    def test_overflowing_kth_sum_refused(self):
        # the k-th smallest sum is +inf: enumerating every sum up to it
        # would take every combination
        ladders = [[1e308, 1.5e308, 1.7e308]] * 2
        with pytest.raises(bd.ValidationError) as info:
            bd.ladder_sums(ladders, 2)
        assert [v.check for v in info.value.violations] == ["derived_finite"]


def rendered(result):
    return "".join(result.json_chunks())


def dumped(result):
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


def spectra():
    """Spectra of all three label kinds, n = 1..12, and of the fixtures."""
    rng = np.random.default_rng(8)
    for n in range(1, 13):
        form = random_fermion_form(rng, n)
        yield f"signs{n}", bd.fermion_spectrum(bd.diagonalize_fermion(bd.to_standard(form)))
        lam = rng.choice((-1.0, 1.0), n) * rng.uniform(0.5, 2.0, n)
        yield f"witten{n}", bd.local_witten_spectrum(lam, 40)
        modes = tuple(bd.BosonMode(t=t, r=-1.0, mode_class=bd.ModeClass.DISCRETE)
                      for t in rng.uniform(0.05, 20.0, n))
        data = bd.BosonModeData(S=np.eye(n), modes=modes, k0=float(rng.normal()))
        yield f"occupations{n}", bd.boson_spectrum(data, 60)
    for name, count in (("fermion_pair", 10), ("boson_oscillator", 10), ("boson_oscillator", 1500)):
        form = bd.form_from_dict(json.loads((FIXTURES / f"{name}.json").read_text()))
        std = bd.to_standard(form)
        if form.statistics is bd.Statistics.FERMION:
            yield name, bd.fermion_spectrum(bd.diagonalize_fermion(std))
        else:
            yield f"{name}{count}", bd.boson_spectrum(bd.diagonalize_boson(std), count)


SPECTRA = dict(spectra())


class TestJsonChunks:
    @pytest.mark.parametrize("result", SPECTRA.values(), ids=SPECTRA.keys())
    def test_text_equals_json_dumps(self, result):
        assert rendered(result) == dumped(result)

    @pytest.mark.parametrize("levels", [1, 3, 16, 10**6])
    def test_chunk_boundaries(self, levels):
        form = random_fermion_form(np.random.default_rng(3), 4)
        result = bd.fermion_spectrum(bd.diagonalize_fermion(bd.to_standard(form)))
        with mock.patch.object(spectral, "_CHUNK_LEVELS", levels):
            chunks = list(result.json_chunks())
        assert len(chunks) == 2 + (16 - 1) // levels
        assert "".join(chunks) == dumped(result)

    def test_unbounded_boson_has_no_entries(self):
        mode = bd.BosonMode(t=-1.0, r=1.0, mode_class=bd.ModeClass.DISCRETE)
        result = bd.boson_spectrum(bd.BosonModeData(S=np.eye(1), modes=(mode,), k0=0.0), 10)
        assert result.entries == [] and not result.bounded_below
        assert rendered(result) == dumped(result)

    def test_energy_reprs_match_json(self):
        # negative zero, integers, exponents and 17-digit values
        energies = np.array([-1e300, -2.5e-7, -0.0, 0.0, 1.0, 0.1 + 0.2, 1e16, 123456789.125])
        result = spectral.SpectrumResult(
            energies=energies, rungs=np.arange(8, dtype=np.uint8)[:, None], sectors=None,
            label_kind="occupations", complete=False, bounded_below=True)
        with mock.patch.object(spectral, "_CHUNK_LEVELS", 3):
            assert rendered(result) == dumped(result)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_nonfinite_energy_refused(self, value):
        with pytest.raises(bd.ValidationError) as info:
            spectral.SpectrumResult(
                energies=np.array([0.0, value]), rungs=np.zeros((2, 1), np.uint8), sectors=None,
                label_kind="occupations", complete=False, bounded_below=True)
        assert [v.check for v in info.value.violations] == ["derived_finite"]
