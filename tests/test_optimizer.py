import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secbit import (
    BipartiteDistribution,
    Filtration,
    SearchConfig,
    TripartiteDistribution,
    apply,
    brute_force_mesbf,
    estimate_mesbf,
    local_randomization_demo,
    marginal_ab,
    mesbf_decoupled,
    point_mass_eve,
    product_with_eve,
    randomization_example,
    satellite_scenario,
    secret_bit_fraction,
    shared_bit,
)
from secbit import optimizer
from secbit.errors import DimensionMismatchError, InvalidParamsError, TooLargeError
from secbit.optimizer import (
    _BASE_BATCH,
    _CHEAP_SPANS,
    _CHUNK,
    _FINE_SPANS,
    _MICRO_SPANS,
    _coordinate_polish,
    _geomspace,
    _identity_projection,
    _joint_scan,
    _ladder,
    _lambda_raw,
    _lane_count,
    _selecting_seeds,
)
from secbit.measures import _pair_table

import oracles
from conftest import result_bits, traced_memory
from oracles import exhaustive_scan, scalar_polish

FAST = SearchConfig(restarts=8, iterations=600, seed=7)


def test_config_validation():
    with pytest.raises(InvalidParamsError):
        SearchConfig(restarts=0)
    for floor in (0.0, 1.0, 2.0, math.inf, math.nan):
        with pytest.raises(InvalidParamsError):
            SearchConfig(entry_floor=floor)


@pytest.mark.parametrize("name", ["restarts", "iterations", "grid_points"])
def test_config_counts_must_be_integers(name):
    # Unchecked, grid_points=2.5 fails inside the search with a numpy
    # TypeError and iterations=nan silently skips the whole cheap pass.
    for bad in (True, False, np.True_, 2.5, 8.0, math.nan, math.inf, "8"):
        with pytest.raises(InvalidParamsError, match="integers"):
            SearchConfig(**{name: bad})
    assert getattr(SearchConfig(**{name: np.int64(8)}), name) == 8


def _decoupled_table(d: int) -> np.ndarray:
    m = np.random.default_rng([2026, d]).uniform(0.1, 1.0, size=(d, d))
    return point_mass_eve(BipartiteDistribution(m / m.sum())).table


POLISH_TABLES = {
    "lemur": lambda: randomization_example().table,
    "satellite": lambda: satellite_scenario(0.2, 0.2, 0.15).table,
    "decoupled-2x2": lambda: _decoupled_table(2),
    "decoupled-3x3": lambda: _decoupled_table(3),
    "decoupled-4x4": lambda: _decoupled_table(4),
}
POLISH_SETTINGS = (
    [("micro", 6, _MICRO_SPANS, None)]
    + [(f"cheap-{cap}", 8, _CHEAP_SPANS, cap) for cap in (1, 37, 600, 2000)]
    + [("fine", 24, _FINE_SPANS, None)]
)


BUDGET_INSTANCES = ["lemur", "satellite", "coupled-2x3x4"]


def _budget_table(instance: str) -> np.ndarray:
    if instance == "coupled-2x3x4":
        return _kernel_case(2, 3, 4, 1, 0.3)[0]
    return POLISH_TABLES[instance]()


class TestBatchedPolish:
    """The batched polish retraces the scalar reference bit for bit."""

    @pytest.mark.parametrize("instance", list(POLISH_TABLES))
    def test_matches_the_scalar_reference(self, instance):
        table = POLISH_TABLES[instance]()
        d_a, d_b, _ = table.shape
        floor = 1e-9
        rng = np.random.default_rng([31, d_a, d_b])
        random_start = np.exp(rng.uniform(math.log(floor), 0.0, size=2 * (d_a + d_b)))
        starts = [
            (random_start[: 2 * d_a].reshape(2, d_a), random_start[2 * d_a :].reshape(2, d_b)),
            _selecting_seeds(d_a, d_b, floor)[-1][1:],
        ]
        for m_a, m_b in starts:
            for name, points, spans, cap in POLISH_SETTINGS:
                expected = scalar_polish(table, m_a, m_b, points, floor, spans, max_evals=cap)
                found = _coordinate_polish(table, [(m_a, m_b, cap)], points, spans, floor)[0]
                assert found[0] == expected[0], name
                assert np.array_equal(found[1], expected[1]), name
                assert np.array_equal(found[2], expected[2]), name

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)])
    def test_whole_polishes_count_as_the_scalar_reference(self, shape):
        # Uncapped polishes of several starts at once: every job's evaluation
        # count, not only its pair, is the one-at-a-time climber's.  Entries
        # at the floor and at 1 meet repeated grid values after an acceptance.
        d_a, d_b = shape
        m = np.random.default_rng([2026, d_a, d_b]).uniform(0.1, 1.0, size=shape)
        table = point_mass_eve(BipartiteDistribution(m / m.sum())).table
        floor = 1e-9
        sample = np.exp(np.random.default_rng([32, d_a, d_b]).uniform(math.log(floor), 0.0, size=2 * (d_a + d_b)))
        seeds = _selecting_seeds(d_a, d_b, floor)
        starts = [
            (np.clip(_identity_projection(d_a), floor, 1.0), np.clip(_identity_projection(d_b), floor, 1.0)),
            *(seeds[k][1:] for k in (1, len(seeds) // 2, -1)),
            (sample[: 2 * d_a].reshape(2, d_a), sample[2 * d_a :].reshape(2, d_b)),
        ]
        for points, spans in ((6, _MICRO_SPANS), (8, _CHEAP_SPANS), (12, _CHEAP_SPANS), (24, _FINE_SPANS)):
            found = _coordinate_polish(table, [(m_a, m_b, None) for m_a, m_b in starts], points, spans, floor)
            for k, ((m_a, m_b), (value, f_a, f_b, evals)) in enumerate(zip(starts, found)):
                expected = scalar_polish(table, m_a, m_b, points, floor, spans)
                assert (value, evals) == (expected[0], expected[3]), (points, k)
                assert np.array_equal(f_a, expected[1]) and np.array_equal(f_b, expected[2]), (points, k)

    @pytest.mark.parametrize("instance", BUDGET_INSTANCES)
    def test_stops_at_every_budget_boundary(self, instance):
        # Caps 1..120 cover the first sweeps' entry, row-pair and pair
        # boundaries one by one.  The sparse start has entries at 1 and at
        # the floor, whose sweeps skip grid values equal to the entry;
        # skipped values must not count toward the cap.
        table = _budget_table(instance)
        d_a, d_b, _ = table.shape
        m_a = np.clip(_identity_projection(d_a), 1e-9, 1.0)
        m_b = np.clip(_identity_projection(d_b), 1e-9, 1.0)
        for cap in range(1, 121):
            expected = scalar_polish(table, m_a, m_b, 8, 1e-9, _CHEAP_SPANS, max_evals=cap)
            found = _coordinate_polish(table, [(m_a, m_b, cap)], 8, _CHEAP_SPANS, 1e-9)[0]
            assert found[0] == expected[0], cap
            assert np.array_equal(found[1], expected[1]), cap
            assert np.array_equal(found[2], expected[2]), cap

    @pytest.mark.parametrize("instance", BUDGET_INSTANCES)
    def test_every_budget_boundary_in_one_lockstep_call(self, instance):
        # The same 120 caps as lanes of one call: lanes at different moves,
        # groups and families share each step, and every lane must still
        # stop where the one-at-a-time reference stops.
        table = _budget_table(instance)
        d_a, d_b, _ = table.shape
        m_a = np.clip(_identity_projection(d_a), 1e-9, 1.0)
        m_b = np.clip(_identity_projection(d_b), 1e-9, 1.0)
        found = _coordinate_polish(table, [(m_a, m_b, cap) for cap in range(1, 121)], 8, _CHEAP_SPANS, 1e-9)
        for cap, (value, f_a, f_b, _) in enumerate(found, start=1):
            expected = scalar_polish(table, m_a, m_b, 8, 1e-9, _CHEAP_SPANS, max_evals=cap)
            assert value == expected[0], cap
            assert np.array_equal(f_a, expected[1]), cap
            assert np.array_equal(f_b, expected[2]), cap

    def test_an_entry_with_equal_ends_leaves_the_other_grids_alone(self):
        # At the smallest floor a floored entry's sweep ends coincide.  A grid
        # rule taken for the whole lane then moved the other entries' grids
        # off their scalar np.geomspace values, and the witness with them.
        m = np.random.default_rng(4).uniform(0.1, 1.0, size=(2, 2, 2))
        table, start, floor = m / m.sum(), _identity_projection(2), 5e-324
        expected = scalar_polish(table, start, start, 24, floor, _FINE_SPANS)
        found = _coordinate_polish(table, [(start, start, None)], 24, _FINE_SPANS, floor)[0]
        assert found[0] == expected[0]
        assert np.array_equal(found[1], expected[1]) and np.array_equal(found[2], expected[2])

    def test_candidate_batches_have_bounded_memory(self):
        # Unbounded, the pair moves of one pass at 1000 grid points would
        # hold ~240k candidates of 16 entries (~30 MB per copy).
        table = _decoupled_table(4)
        rng = np.random.default_rng(5)
        m_a, m_b = rng.uniform(0.1, 1.0, size=(2, 4)), rng.uniform(0.1, 1.0, size=(2, 4))
        with traced_memory() as memory:
            value = _coordinate_polish(table, [(m_a, m_b, None)], 1000, _MICRO_SPANS, 1e-9)[0][0]
        assert 0.5 <= value <= 1.0
        assert memory.peak < 16 * 2**20

    def test_lockstep_batches_have_bounded_memory(self):
        # Only the lanes that _lane_count admits hold grids and batches at
        # once; with every one of the 200 starts live, the grids alone take
        # ~25 MB.
        table = _decoupled_table(4)
        rng = np.random.default_rng(5)
        jobs = [(rng.uniform(0.1, 1.0, size=(2, 4)), rng.uniform(0.1, 1.0, size=(2, 4)), 2000) for _ in range(200)]
        with traced_memory() as memory:
            results = _coordinate_polish(table, jobs, 1000, _MICRO_SPANS, 1e-9)
        assert all(0.0 <= value <= 1.0 for value, _, _, _ in results)
        assert memory.peak < 16 * 2**20


def _kernel_case(d_a: int, d_b: int, d_e: int, rows: int, zeros: float) -> tuple[np.ndarray, np.ndarray]:
    """A table with a share of structural zeros, and a stack with entries at the floor, at 1 and at 0."""
    rng = np.random.default_rng([41, d_a, d_b, d_e, rows])
    table = rng.uniform(0.0, 1.0, size=(d_a, d_b, d_e))
    table[rng.random(size=table.shape) < zeros] = 0.0
    table[0, 0, 0] += 0.1
    table /= table.sum()
    cands = np.exp(rng.uniform(math.log(1e-9), 0.0, size=(rows, 2 * (d_a + d_b))))
    cands[rng.random(size=cands.shape) < 0.1] = 1e-9
    cands[rng.random(size=cands.shape) < 0.1] = 1.0
    cands[::97] = 0.0
    return table, cands


class TestLockstep:
    """One kernel call for many candidates, and many polishes per call."""

    @pytest.mark.parametrize("d_a", range(1, 6))
    def test_kernel_matches_the_scalar_reference(self, d_a):
        # Each row of a call scores as a one-row call does, bit for bit (the
        # lockstep rests on it), and within 1e-14 of the measures pipeline.
        # A call of 1, 2, 7, 8 or 9 rows has a short candidate axis.
        misses, worst = {}, 0.0
        for d_b in range(1, 6):
            for d_e in (1, 2, 3, 4, 5, 32, 33, 40):
                for rows, zeros in [(1, 0.3), (2, 0.3), (7, 0.0), (8, 0.3), (9, 0.3), (1000, 0.0), (1000, 0.3)]:
                    table, cands = _kernel_case(d_a, d_b, d_e, rows, zeros)
                    # Every row of a short call, every 13th of a long one.
                    step = 13 if rows > 9 else 1
                    found, cands = _lambda_raw(cands, table)[::step], cands[::step]
                    single = [_lambda_raw(row[None], table)[0] for row in cands]
                    if not np.array_equal(found, single):
                        misses[(d_b, d_e, rows, zeros)] = int(np.count_nonzero(found != single))
                    p = TripartiteDistribution(table)
                    for row, value in zip(cands, found):
                        if not row.any():
                            assert value == 0.0
                            continue
                        f_a, f_b = row[: 2 * d_a].reshape(2, d_a), row[2 * d_a :].reshape(2, d_b)
                        expected = secret_bit_fraction(apply(Filtration(f_a), Filtration(f_b), p))
                        worst = max(worst, abs(value - expected) / expected)
        assert not misses
        assert worst <= 1e-14

    def test_sums_add_left_to_right(self):
        # The kernels sum over the leading axis of C-contiguous arrays of two
        # or more columns, which numpy adds one row after another; the joint
        # scan's reference, exhaustive_scan, adds Eve's symbols in that order.
        # This holds both kernels to a Python loop, bit for bit, at d_e =
        # 1-139, 255-257 and 511-513, with 1, 2, 3, 9 or 64 candidates or
        # rows of 2, 3, 9 or 64 row-1 pairs, so that a numpy which sums
        # another way fails here first.
        rng = np.random.default_rng(43)
        for d_e in [*range(1, 140), 255, 256, 257, 511, 512, 513]:
            table = rng.uniform(0.0, 1.0, size=(2, 2, d_e)) * 10.0 ** rng.integers(-9, 6, size=(2, 2, d_e))
            table[rng.random(size=table.shape) < 0.2] = 0.0
            for width in (1, 2, 3, 9, 64):
                # Each filter row keeps one symbol or none, so filtering picks
                # table entries with no rounding.
                picks = rng.integers(-1, 2, size=(width, 4))
                cands = np.zeros((width, 4, 2))
                k, row = np.nonzero(picks >= 0)
                cands[k, row, picks[k, row]] = 1.0
                cands = cands.reshape(width, 8)
                cells = [
                    np.where((picks[:, i] >= 0) & (picks[:, 2 + j] >= 0), table[picks[:, i], picks[:, 2 + j], e], 0.0)
                    for i, j in product(range(2), repeat=2)
                    for e in range(d_e)
                ]
                num, total = np.zeros(width), np.zeros(width)
                for e in range(d_e):
                    num = num + np.minimum(cells[e], cells[3 * d_e + e])
                for cell in cells:
                    total = total + cell
                expected = np.divide(2.0 * num, total, out=np.zeros(width), where=total > 0.0)
                assert np.array_equal(_as_bits(_lambda_raw(cands, table)), _as_bits(expected)), (d_e, width)
                if width == 1:
                    continue
                # Pair values of 3 Alice rows and `width` Bob rows, 1 or 5 row-0 pairs.
                shape = (d_e, 3 * width)
                pair2 = rng.uniform(0.0, 1.0, size=shape) * 10.0 ** rng.integers(-9, 6, size=shape)
                pair2[rng.random(size=pair2.shape) < 0.2] = 0.0
                mass = pair2.sum(axis=0).reshape(3, width) + 1.0
                pairs = pair2.reshape(d_e, 3, width)
                for rows in (1, 5):
                    (i0, i1), j0 = rng.integers(0, 3, size=(2, rows)), rng.integers(0, width, size=rows)
                    num = np.zeros((rows, width))
                    for e in range(d_e):
                        num = num + np.minimum(pairs[e, i0, j0][:, None], pairs[e, i1])
                    den = mass[i0, j0][:, None] + mass[i1] + mass[i0] + mass[i1, j0][:, None]
                    found = optimizer._row_values(pair2, mass, i0, j0, i1)
                    assert np.array_equal(_as_bits(found), _as_bits(num / den)), (d_e, width, rows)

    def test_wide_first_batches_take_fewer_steps(self, monkeypatch):
        # One lane of the fine stage at 40 points, on the benchmark's 2x2
        # oracle table of seed 1, cycle 0.  First batches of 16 moves take
        # 312 kernel calls; with one lane live they take 256 moves and 117
        # calls.  Each of the 12 passes opened scores its regauged pair in
        # its first sweep batch, not in a call of its own.
        m = np.random.default_rng([1, 0, 2, 2]).uniform(0.1, 1.0, size=(2, 2))
        table = point_mass_eve(BipartiteDistribution(m / m.sum())).table
        start = np.clip(_identity_projection(2), 1e-9, 1.0)
        calls = []
        monkeypatch.setattr(optimizer, "_lambda_raw", lambda cands, t: calls.append(t) or _lambda_raw(cands, t))
        wide = _coordinate_polish(table, [(start, start, None)], 40, _FINE_SPANS, 1e-9)[0]
        wide_calls = len(calls)
        calls.clear()
        monkeypatch.setattr(optimizer, "_STEP_MOVES", 0)
        narrow = _coordinate_polish(table, [(start, start, None)], 40, _FINE_SPANS, 1e-9)[0]
        assert (wide_calls, len(calls)) == (117, 312)
        assert wide[0] == narrow[0] and wide[3] == narrow[3]
        assert np.array_equal(wide[1], narrow[1]) and np.array_equal(wide[2], narrow[2])

    @pytest.mark.parametrize("instance", BUDGET_INSTANCES)
    def test_matches_one_polish_at_a_time(self, instance):
        table = _budget_table(instance)
        d_a, d_b, d_e = table.shape
        calls = _lockstep_calls(table)
        # The wide sweep grids of the last call make the lane bound admit
        # fewer lanes than jobs, so that finished lanes are reused.
        points, _, jobs = calls[-1]
        assert _lane_count(len(jobs), 2 * (d_a + d_b), d_e, points) < len(jobs)
        for points, spans, jobs in calls:
            found = _coordinate_polish(table, jobs, points, spans, 1e-9)
            assert len(found) == len(jobs)
            for k, job in enumerate(jobs):
                expected = _coordinate_polish(table, [job], points, spans, 1e-9)[0]
                assert found[k][0] == expected[0], (points, k)
                assert np.array_equal(found[k][1], expected[1]), (points, k)
                assert np.array_equal(found[k][2], expected[2]), (points, k)
                assert found[k][3] == expected[3], (points, k)

    def test_lane_bound(self):
        # Every start of a benchmark cheap stage (up to 138 on a 3x3x2
        # table) is live at once.
        assert _lane_count(138, 12, 2, 8) == 138
        for n, d_e, points, jobs in product(range(4, 25, 2), (1, 2, 4, 16), (2, 8, 24, 1000), (1, 138, 200, 10_000)):
            lanes = _lane_count(jobs, n, d_e, points)
            assert 1 <= lanes <= jobs
            # Sweep grid, factor pairs and live pairs of every lane.
            assert lanes * (n * (points + 2) + 2 * (2 * points + 1) + n * (n - 1)) <= _CHUNK
            # Each lane's first batch fits one kernel call.
            assert lanes * _BASE_BATCH * (n + 4 * d_e) <= _CHUNK
        # The memory test's 200 jobs at 1000 points on a 4x4 table.
        assert _lane_count(200, 16, 1, 1000) == 6

    def test_searches_print_nothing(self, lemur, capsys):
        # A run's last line of standard output is its result, so library
        # code must write nothing, warnings included.
        half = np.full((2, 2), 0.5)
        estimate_mesbf(lemur, FAST)
        brute_force_mesbf(lemur, FAST)
        for points in (8, 24):
            _coordinate_polish(lemur.table, [(half, half, 200)], points, _CHEAP_SPANS, 1e-9)
        assert capsys.readouterr() == ("", "")


def _lockstep_calls(table: np.ndarray) -> list[tuple]:
    """``(points, spans, jobs)`` of one polish call per grid size: 45 starts over six settings, then 12 wide jobs."""
    d_a, d_b, _ = table.shape
    floor = 1e-9
    rng = np.random.default_rng([37, d_a, d_b])
    starts = [
        (np.full((2, d_a), 0.5), np.full((2, d_b), 0.5)),
        (np.clip(_identity_projection(d_a), floor, 1.0), np.clip(_identity_projection(d_b), floor, 1.0)),
    ]
    starts += [seed[1:] for seed in _selecting_seeds(d_a, d_b, floor)][:12]
    while len(starts) < 45:
        sample = np.exp(rng.uniform(math.log(floor), 0.0, size=2 * (d_a + d_b)))
        starts.append((sample[: 2 * d_a].reshape(2, d_a), sample[2 * d_a :].reshape(2, d_b)))
    settings = [
        (6, _MICRO_SPANS, None),
        (8, _CHEAP_SPANS, 1),
        (8, _CHEAP_SPANS, 37),
        (8, _CHEAP_SPANS, 2000),
        (24, _FINE_SPANS, 2000),
        (24, _FINE_SPANS, None),
    ]
    calls = {}
    for k, (m_a, m_b) in enumerate(starts):
        points, spans, cap = settings[k % len(settings)]
        calls.setdefault((points, spans), []).append((m_a, m_b, cap))
    calls[1000, _MICRO_SPANS] = [(m_a, m_b, (1, 37, 2000)[k % 3]) for k, (m_a, m_b) in enumerate(starts[-12:])]
    return [(points, spans, jobs) for (points, spans), jobs in calls.items()]


class TestLaneTable:
    """The lane table advances every window with the schedule of one-at-a-time requests, and bounds its memory."""

    def test_kernel_calls_keep_their_rows(self, monkeypatch):
        # 57 jobs of mixed budgets in four calls on a coupled 2x3x4 table, in
        # lanes that are reused, take 909 kernel calls of 315 396 rows in all:
        # the batches of polishes that request their moves one batch at a
        # time, each pass's score in a row after the moves of its first
        # sweep batch, and one call per call's finished pairs.  A lockstep
        # that keeps every value but batches moves otherwise changes these
        # counts.
        table = _kernel_case(2, 3, 4, 1, 0.3)[0]
        calls = []
        monkeypatch.setattr(optimizer, "_lambda_raw", lambda cands, t: calls.append(len(cands)) or _lambda_raw(cands, t))
        found = [_coordinate_polish(table, jobs, points, spans, 1e-9) for points, spans, jobs in _lockstep_calls(table)]
        assert sum(map(len, found)) == 57
        assert (len(calls), sum(calls)) == (909, 315_396)

    def test_lanes_past_the_cell_bound_rejected(self):
        # A 4x4 lane holds 20 * points + 300 cells: 6538 grid points fit
        # _CHUNK, 6539 do not.  Unchecked, 10^7 points asked for a 1.3 GB
        # sweep grid; the oracle refuses before its joint scan.
        p = point_mass_eve(BipartiteDistribution(np.full((4, 4), 1 / 16)))
        assert _lane_count(1, 16, 1, 6538) == 1
        for points in (6539, 10**7):
            with traced_memory() as memory:
                with pytest.raises(TooLargeError, match="polish lane"):
                    brute_force_mesbf(p, SearchConfig(grid_points=points))
            assert memory.peak < 2**20
        # The largest lane still polishes; a budget of one evaluation keeps it short.
        table = _decoupled_table(4)
        start = np.clip(_identity_projection(4), 1e-9, 1.0)
        found = _coordinate_polish(table, [(start, start, 1)], 6538, _MICRO_SPANS, 1e-9)[0]
        expected = scalar_polish(table, start, start, 6538, 1e-9, _MICRO_SPANS, max_evals=1)
        assert found[0] == expected[0]
        assert np.array_equal(found[1], expected[1]) and np.array_equal(found[2], expected[2])


def _as_bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.int64)


class TestPassTables:
    """Each pass's sweep grid and pair table equal the numpy calls they replace, bit for bit."""

    @pytest.mark.parametrize("points", [1, 2, 6, 8, 12, 24, 40, 1000])
    def test_sweep_grid_matches_geomspace(self, points):
        floor = 1e-9
        rng = np.random.default_rng([47, points])
        for n in sorted({2 * (d_a + d_b) for d_a in range(1, 7) for d_b in range(1, 7)}):
            random = np.exp(rng.uniform(math.log(floor), 0.0, size=n))
            mixed = np.where(rng.random(n) < 0.5, floor, 1.0)
            for center in (np.full(n, floor), np.ones(n), random, mixed):
                for span in (*_MICRO_SPANS, *_CHEAP_SPANS, *_FINE_SPANS):
                    low, high = np.maximum(center / span, floor), np.minimum(center * span, 1.0)
                    expected = np.geomspace(low, high, points, axis=1)
                    assert np.array_equal(_as_bits(_geomspace(low, high, points).T), _as_bits(expected))
            # One lane mixes entries with equal ends and entries without; each
            # gets the grid of its own scalar call, as the scalar polish builds it.
            low = np.exp(rng.uniform(math.log(floor), 0.0, size=n))
            high = np.where(rng.random(n) < 0.5, low, np.minimum(2.0 * low, 1.0))
            expected = np.array([np.geomspace(a, b, points) for a, b in zip(low, high)])
            assert np.array_equal(_as_bits(_geomspace(low, high, points).T), _as_bits(expected))

    def test_ladder_matches_geomspace(self):
        # The scalar polish's factor pairs: (f, 1/f), then (f, f), for each step
        # f != 1 of np.geomspace(1 / span, span, points).
        for span in (*_MICRO_SPANS, *_CHEAP_SPANS, *_FINE_SPANS):
            for points in (*range(1, 41), 1000):
                steps = np.geomspace(1.0 / span, span, points)
                expected = np.array([(f, g) for f in steps[steps != 1.0] for g in (1.0 / f, f)]).reshape(-1, 2)
                assert np.array_equal(_as_bits(_ladder(span, points)), _as_bits(expected))

    def test_pair_table_matches_triu_indices(self):
        rng = np.random.default_rng(53)
        for k in range(17):
            unordered = np.triu_indices(k, 1)
            for ordered, (first, second) in ((False, unordered), (True, np.nonzero(~np.eye(k, dtype=bool)))):
                cols, opens = _pair_table(k, ordered=ordered)
                assert not cols.flags.writeable and cols.dtype == np.intp
                assert np.array_equal(cols[0], first) and np.array_equal(cols[1], second)
                assert list(opens) == np.searchsorted(first, np.arange(k + 1)).tolist()
            live = np.sort(rng.choice(24, size=k, replace=False))
            expected = np.stack([live[unordered[0]], live[unordered[1]]], axis=1)
            assert np.array_equal(live[_pair_table(k)[0].T], expected)


# The coarse ladders of brute_force_mesbf, by the larger honest alphabet.
SCAN_LADDERS = {2: (1e-9, 0.1, 0.2, 0.45, 1.0), 3: (1e-9, 0.1, 0.3, 1.0), 4: (1e-9, 0.3, 1.0)}


def _raw_table(shape: tuple[int, ...], zeros: float, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    table = rng.uniform(0.1, 1.0, size=shape)
    table[rng.random(size=shape) < zeros] = 0.0
    table[(0,) * len(shape)] += 0.1
    return table


def _scan_case(d_a: int, d_b: int, d_e: int, zeros: float) -> tuple[np.ndarray, np.ndarray]:
    table = _raw_table((d_a, d_b, d_e), zeros, [43, d_a, d_b, d_e, round(100 * zeros)])
    return table / table.sum(), np.array(SCAN_LADDERS[max(d_a, d_b)])


# Every shape, Eve alphabet and zero share once, top_k cycling through 1, 12
# and 200 (at 200 the signature dedup walks far down the ranked cells, to
# their end when fewer than 200 signatures exist).  3x3 and 4x4 stop at
# d_e = 2: one exhaustive 4x4 scan at d_e = 9 takes about 2 s.
ALL = (1, 2, 3, 9)
SCAN_CASES = [
    (d_a, d_b, d_e, zeros)
    for d_a, d_b, alphabets in [(2, 2, ALL), (2, 3, ALL), (3, 2, ALL), (3, 3, (1, 2)), (4, 4, (1, 2))]
    for d_e in alphabets
    for zeros in (0.0, 0.3)
]
SCAN_CASES = [(*case, (1, 12, 200)[k % 3]) for k, case in enumerate(SCAN_CASES)]


def _assert_same_scan(found, expected):
    assert len(found) == len(expected)
    for (value, m_a, m_b), (value_0, m_a0, m_b0) in zip(found, expected):
        assert type(value) is float and value == value_0
        assert np.array_equal(m_a, m_a0) and np.array_equal(m_b, m_b0)


def _assert_exact(table: np.ndarray, coarse: np.ndarray, top_k: int, floor: float = 1e-9) -> list:
    """``_joint_scan``'s result, checked against the exhaustive reference.

    The reference ranks only the cells at or above the scan's last value
    when the scan returns ``top_k`` seeds: its ``top_k`` signatures lie
    there, so the true ``top_k``-th value does too.
    """
    found = _joint_scan(table, coarse, floor, top_k)
    level = found[-1][0] if len(found) == top_k else -math.inf
    _assert_same_scan(found, exhaustive_scan(table, coarse, floor, top_k, level))
    return found


class TestJointScan:
    """The joint scan returns the exhaustive reference's cells bit for bit."""

    @pytest.mark.parametrize("d_a, d_b, d_e, zeros, top_k", SCAN_CASES)
    def test_matches_the_exhaustive_reference(self, d_a, d_b, d_e, zeros, top_k):
        _assert_exact(*_scan_case(d_a, d_b, d_e, zeros), top_k)

    @pytest.mark.parametrize("d_e", [1, 2, 3, 9, 17])
    def test_matches_with_ragged_chunks_and_split_rows(self, d_e, monkeypatch):
        # With 4000 cells a 2x2 group is one Alice pair of 625 cells, a block
        # of pair bounds one of 25 rows, and a block of values 1000 // (25 d_e)
        # rows of 25 cells: a group's 25 rows split into ragged blocks at
        # d_e >= 2 (blocks of 2 rows at d_e = 17).
        monkeypatch.setattr(optimizer, "_CHUNK", 4000)
        for zeros, top_k in [(0.0, 1), (0.3, 12)]:
            _assert_exact(*_scan_case(2, 2, d_e, zeros), top_k)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_result_does_not_depend_on_the_chunk(self, seed, monkeypatch):
        # The oracle-grid 2x2 table of the seed, cycle 0.  The scan that kept
        # each chunk's 8 top_k best cells returned other seeds here at 2^14
        # cells than at the default 2^17.
        m = np.random.default_rng([seed, 0, 2, 2]).uniform(0.1, 1.0, size=(2, 2))
        table, coarse = (m / m.sum())[:, :, None], np.array(SCAN_LADDERS[2])
        expected = _assert_exact(table, coarse, 12)
        for chunk in (4000, 1 << 14):
            monkeypatch.setattr(optimizer, "_CHUNK", chunk)
            _assert_same_scan(_assert_exact(table, coarse, 12), expected)

    def test_ties_at_one_half_keep_their_order(self):
        # Dyadic entries, ladder and floor make every sum exact, so ties hold
        # in any summation order: the 625 cells whose parties' two rows are
        # equal score exactly 1/2, the best value, and hold 16 signatures, of
        # which 12 are kept.  Which cell stands for a signature, and which
        # signatures are kept, follow (p, q); the chunked scan dropped the
        # cell that comes first.
        m = np.random.default_rng([103, 2, 2, 9]).integers(1, 16, size=(2, 2, 9)) / 1024
        coarse, floor = np.array([2.0**-12, 0.125, 0.25, 0.5, 1.0]), 2.0**-12
        found = _assert_exact(m, coarse, 12, floor)
        ranked = [value for value, _, _ in exhaustive_scan(m, coarse, floor, 17)]
        assert [value for value, _, _ in found] == ranked[:12] == [0.5] * 12
        assert ranked[12:16] == [0.5] * 4 and ranked[16] < 0.5

    def test_memory_is_bounded_in_eves_alphabet(self):
        # A (rows, row-1 pairs, d_e) minimum built whole for a chunk of rows
        # took 69 MB at 2x2x64.
        for shape in [(2, 2, 64), (4, 4, 64)]:
            table, coarse = _scan_case(*shape, 0.0)
            with traced_memory() as memory:
                seeds = _joint_scan(table, coarse, 1e-9, 12)
            assert len(seeds) == 12
            assert memory.peak < 16 * 2**20

    @pytest.mark.parametrize("shape", [(3, 3, 1), (4, 4, 1)])
    def test_passes_hold_a_quarter_chunk(self, shape):
        # Pair bounds and row values built a full _CHUNK at a time peaked at
        # 2.16 MB (3x3x1) and 2.11 MB (4x4x1); a quarter at 0.67 and 1.02 MB.
        table, coarse = _scan_case(*shape, 0.0)
        with traced_memory() as memory:
            seeds = _joint_scan(table, coarse, 1e-9, 12)
        assert len(seeds) == 12
        assert memory.peak < 1.5 * 2**20

    def test_too_many_pair_values_rejected_before_allocation(self):
        # 6561 row pairs over 200 symbols are 10.5 MB of pair values alone.
        table, coarse = _scan_case(4, 4, 200, 0.0)
        with traced_memory() as memory:
            with pytest.raises(TooLargeError, match="Eve symbols"):
                _joint_scan(table, coarse, 1e-9, 12)
        assert memory.peak < 5 * 2**20
        with pytest.raises(TooLargeError):
            brute_force_mesbf(TripartiteDistribution(table), FAST)


def _scan_sums(table: np.ndarray, coarse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doubled pair values ``(d_e, n_a n_b)`` and masses ``(n_a, n_b)``, as the joint scan builds them."""
    d_a, d_b, d_e = table.shape
    rows_a, rows_b = (np.array(list(product(coarse, repeat=d))) for d in (d_a, d_b))
    pair2 = 2.0 * np.einsum("ia,abe,jb->ije", rows_a, table, rows_b).reshape(-1, d_e).T
    return pair2, rows_a @ table.sum(axis=2) @ rows_b.T


@st.composite
def _scan_inputs(draw):
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    zeros = draw(st.floats(0.0, 0.3))
    # At 1e-300 the masses are subnormal and the bound's guard fails.
    scale = 10.0 ** draw(st.integers(-200, 200) | st.just(-300))
    table = scale * _raw_table(shape, zeros, draw(st.integers(0, 2**32 - 1)))
    return table, np.array(SCAN_LADDERS.get(max(shape[:2]), SCAN_LADDERS[4])), draw(st.integers(1, 12))


class TestScanBound:
    """The harmonic-mean bound that prunes the joint scan, and the guard that turns it off."""

    def test_matches_the_exhaustive_reference_on_either_path(self):
        taken = set()

        @given(case=_scan_inputs())
        @settings(derandomize=True, max_examples=40, database=None, deadline=None)
        def check(case):
            table, coarse, top_k = case
            taken.add(optimizer._bounds_hold(*_scan_sums(table, coarse)))
            _assert_exact(table, coarse, top_k)

        check()
        assert taken == {False, True}

    def test_too_few_signatures_fall_back(self):
        # The cells hold 100 of the 136 signatures that a 2x2 filter pair can
        # have, some far down the ranking (a scan keeping each chunk's 8 top_k
        # best cells found 46).
        found = _assert_exact(*_scan_case(2, 2, 1, 0.0), 100)
        assert len(found) == 100

    def test_fewer_signatures_than_asked(self):
        # Two ladder values: 16 row pairs, 256 cells and 136 signatures, so
        # the level never rises and every cell is scored.
        table, _ = _scan_case(2, 2, 1, 0.0)
        assert len(_assert_exact(table, np.array([1e-9, 1.0]), 200)) == 136

    def test_underflowing_masses_fall_back(self):
        table, coarse = _scan_case(2, 3, 1, 0.0)
        assert optimizer._bounds_hold(*_scan_sums(table, coarse))
        # Subnormal masses: the pair values no longer sum to them within the margin.
        table = 1e-300 * table
        pair2, mass = _scan_sums(table, coarse)
        assert 0.0 < mass.min() < np.finfo(float).tiny
        assert not optimizer._bounds_hold(pair2, mass)
        _assert_exact(table, coarse, 12)

    def test_cells_of_zero_mass_score_zero(self):
        # At a floor of 1e-200 the masses of pairs of near-floor rows underflow
        # to zero, and the scan divided 0 by 0 and kept nan cells.
        table, _ = _scan_case(2, 2, 1, 0.0)
        coarse = np.array([1e-200, *SCAN_LADDERS[2][1:]])
        pair2, mass = _scan_sums(table, coarse)
        assert mass.min() == 0.0 and not optimizer._bounds_hold(pair2, mass)
        found = _assert_exact(table, coarse, 12, 1e-200)
        assert all(0.5 <= value <= 1.0 for value, _, _ in found)

    @pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 3), (4, 4)])
    @pytest.mark.parametrize("d_e", [1, 2, 3, 4])
    def test_cells_never_exceed_their_bounds(self, d_a, d_b, d_e):
        rng = np.random.default_rng([71, d_a, d_b, d_e])
        coarse = np.array(SCAN_LADDERS[max(d_a, d_b)])
        slack = 1.0 + optimizer._BOUND_MARGIN
        for zeros, scale in [(0.0, 1.0), (0.3, 1e-200), (0.3, 1e200)]:
            pair2, mass = _scan_sums(scale * _raw_table((d_a, d_b, d_e), zeros, rng), coarse)
            (n_a, n_b), flat = mass.shape, mass.reshape(-1)
            p, q = rng.integers(0, n_a * n_b, size=(2, 4000))
            (i0, j0), (i1, j1) = np.divmod(p, n_b), np.divmod(q, n_b)
            value = np.minimum(pair2[:, p], pair2[:, q]).sum(axis=0) / (flat[p] + flat[q] + mass[i0, j1] + mass[i1, j0])
            rho0 = mass[i0, j0] / (mass[i0, j0] + mass[i1, j0])
            sigma1 = mass[i1, j1] / (mass[i0, j1] + mass[i1, j1])
            assert (value <= 2.0 * rho0 * sigma1 / (rho0 + sigma1) * slack).all()
            # Every cell of an Alice pair, against that pair's bound and its row's.
            bounds = optimizer._pair_bounds(mass)
            for a0, a1 in zip(i0[:20], i1[:20]):
                row0, row1 = pair2[:, a0 * n_b : a0 * n_b + n_b], pair2[:, a1 * n_b : a1 * n_b + n_b]
                num = np.minimum(row0[:, :, None], row1[:, None]).sum(axis=0)
                den = mass[a0][:, None] + mass[a1][None, :] + mass[a0][None, :] + mass[a1][:, None]
                assert (num / den).max() <= bounds[a0, a1] * slack
                rho, sigma = mass[a0] / (mass[a0] + mass[a1]), mass[a1] / (mass[a0] + mass[a1])
                rows = optimizer._harmonic(rho, sigma.max())
                assert ((num / den).max(axis=1) <= rows * slack).all()

    def test_memory_of_a_4x4_scan(self):
        table, coarse = _scan_case(4, 4, 1, 0.0)
        with traced_memory() as memory:
            found = _joint_scan(table, coarse, 1e-9, 12)
        assert len(found) == 12 and optimizer._bounds_hold(*_scan_sums(table, coarse))
        assert memory.peak < 8 * 2**20


def _seeded_table(shape: tuple[int, ...], zeros: float = 0.0) -> np.ndarray:
    table = _raw_table(shape, zeros, [61, *shape, round(100 * zeros)])
    return table / table.sum()


def _search_case(instance: str) -> TripartiteDistribution:
    if instance == "lemur":
        return randomization_example()
    if instance == "satellite":
        return satellite_scenario(0.2, 0.2, 0.15)
    return TripartiteDistribution(_seeded_table(tuple(int(d) for d in instance.split("x"))))


TRACE_KEYS = {"points", "candidates", "kept", "evals", "best"}


def _witness_bytes(result) -> bytes:
    return b"".join(f.matrix.tobytes() for f in result.witness)


class TestFunnel:
    """Both searches are stage tables of one funnel."""

    @pytest.mark.parametrize("instance", ["lemur", "satellite", "2x2x3", "2x3x4", "3x3x2"])
    def test_estimate_matches_the_frozen_search(self, instance):
        p = _search_case(instance)
        found, frozen = estimate_mesbf(p, FAST), oracles.estimate_mesbf(p, FAST)
        assert found.value.hex() == frozen.value.hex()
        assert _witness_bytes(found) == _witness_bytes(frozen)
        assert found.detail["source"] == frozen.detail["source"]

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (4, 4)])
    @pytest.mark.parametrize("zeros", [0.0, 0.3])
    def test_oracle_never_below_the_frozen_search(self, shape, zeros):
        # Only a ranking stage's best pair can move the result, and only up.
        p = point_mass_eve(BipartiteDistribution(_seeded_table(shape, zeros)))
        cfg = SearchConfig(seed=3, grid_points=8)
        found, frozen = brute_force_mesbf(p, cfg), oracles.brute_force_mesbf(p, cfg)
        assert found.value >= frozen.value
        if found.value == frozen.value:
            assert _witness_bytes(found) == _witness_bytes(frozen)
        assert found.detail["finalists"] == frozen.detail["finalists"]

    @pytest.mark.parametrize("seed, cycle, shape", [(7, 0, (3, 3)), (13, 1, (2, 3)), (6, 0, (4, 4))])
    def test_oracle_keeps_the_ranking_stages_best_pair(self, seed, cycle, shape):
        # Instances of the benchmark's oracle recipe on which the restarted
        # fine pass lost the micro or cheap stage's better basin.
        m = np.random.default_rng([seed, cycle, *shape]).uniform(0.1, 1.0, size=shape)
        p_ab = BipartiteDistribution(m / m.sum())
        exact = mesbf_decoupled(p_ab).value
        found = brute_force_mesbf(point_mass_eve(p_ab), SearchConfig(seed=seed, grid_points=12)).value
        assert exact - 2e-2 <= found <= exact + 1e-9

    def test_traces_count_every_stage(self, lemur, monkeypatch):
        calls = []

        def counted(table, jobs, points, spans, floor):
            results = _coordinate_polish(table, jobs, points, spans, floor)
            calls.append((points, len(jobs), sum(evals for *_, evals in results)))
            return results

        monkeypatch.setattr(optimizer, "_coordinate_polish", counted)
        for search in (estimate_mesbf, brute_force_mesbf):
            result = search(lemur, FAST)
            trace = result.detail["trace"]
            assert len(trace) == 3 and all(set(stage) == TRACE_KEYS for stage in trace)
            assert [(t["points"], t["candidates"], t["evals"]) for t in trace] == calls
            assert all(after["candidates"] == before["kept"] for before, after in zip(trace, trace[1:]))
            assert trace[-1]["kept"] == 1 and trace[0]["evals"] > 0
            calls.clear()
        assert result.detail["finalists"] == trace[1]["kept"]

    @pytest.mark.parametrize("instance", BUDGET_INSTANCES)
    def test_capped_evals_lie_between_the_cap_and_the_uncapped_count(self, instance):
        table = _budget_table(instance)
        d_a, d_b, _ = table.shape
        m_a = np.clip(_identity_projection(d_a), 1e-9, 1.0)
        m_b = np.clip(_identity_projection(d_b), 1e-9, 1.0)
        uncapped = _coordinate_polish(table, [(m_a, m_b, None)], 8, _CHEAP_SPANS, 1e-9)[0][3]
        caps = [1, 2, 5, 17, 37, 120, uncapped - 1]
        found = _coordinate_polish(table, [(m_a, m_b, cap) for cap in caps], 8, _CHEAP_SPANS, 1e-9)
        for cap, (*_, evals) in zip(caps, found):
            assert cap <= evals <= uncapped, cap


class TestEstimate:
    def test_example_distribution_beats_half(self, lemur):
        result = estimate_mesbf(lemur, FAST)
        assert result.value > 0.5
        # the reported value is exactly the recomputed witness value
        achieved = secret_bit_fraction(apply(*result.witness, lemur))
        assert achieved == pytest.approx(result.value, abs=1e-12)

    def test_perfect_correlations_found_exactly(self):
        p = product_with_eve(shared_bit(), [0.5, 0.5])
        assert estimate_mesbf(p, FAST).value == pytest.approx(1.0, abs=1e-6)

    def test_matches_closed_form_on_decoupled_instances(self):
        for k, (d_a, d_b) in enumerate([(2, 2), (2, 3), (3, 3)]):
            rng = np.random.default_rng([77, k])
            m = rng.uniform(0.1, 1.0, size=(d_a, d_b))
            p_ab = BipartiteDistribution(m / m.sum())
            exact = mesbf_decoupled(p_ab).value
            found = estimate_mesbf(point_mass_eve(p_ab), SearchConfig(seed=k)).value
            assert found == pytest.approx(exact, abs=1e-3)
            assert found <= exact + 1e-9

    def test_never_below_coin_toss(self):
        rng = np.random.default_rng(19)
        for k in range(5):
            table = rng.uniform(0.0, 1.0, size=(2, 2, 2))
            table[rng.random(size=table.shape) < 0.4] = 0.0
            table[0, 0, 0] += 0.1
            p = point_mass_eve(BipartiteDistribution(table.sum(axis=2)))
            value = estimate_mesbf(p, FAST).value
            assert 0.5 <= value <= 1.0 + 1e-12

    def test_never_below_one_half_on_coupled_tables(self):
        # Tables of the benchmark's coupled-search recipe on which the best
        # pair, the coin-toss pair's included, certified at
        # 0.4999999999999999 under one summation order or another.
        for seed, cycle, shape in [(2, 0, (2, 2, 3)), (5, 0, (2, 3, 4)), (8, 1, (2, 2, 3)),
                                   (9, 1, (2, 2, 3)), (13, 1, (2, 2, 3)), (20, 0, (2, 2, 3))]:
            m = np.random.default_rng([seed, cycle, *shape]).uniform(0.1, 1.0, size=shape)
            p = TripartiteDistribution(m / m.sum())
            result = estimate_mesbf(p)
            assert result.value >= 0.5, (seed, cycle, shape)
            assert secret_bit_fraction(apply(*result.witness, p)) == pytest.approx(result.value, abs=1e-12)

    def test_bit_for_bit_determinism(self, lemur):
        first = estimate_mesbf(lemur, FAST)
        second = estimate_mesbf(lemur, FAST)
        assert first.value == second.value
        assert np.array_equal(first.witness[0].matrix, second.witness[0].matrix)
        assert np.array_equal(first.witness[1].matrix, second.witness[1].matrix)
        assert first.detail["trace"] == second.detail["trace"]

    def test_reversible_optimum_never_exceeds_the_estimate(self):
        # Reversible filters are a subset of all filters, so the
        # reversible closed form bounds the unrestricted search from below
        # up to the search tolerance.
        from secbit import TripartiteDistribution, mesbf_reversible

        for k in range(2):
            rng = np.random.default_rng([55, k])
            table = rng.uniform(0.1, 1.0, size=(2, 2, 3))
            p = TripartiteDistribution(table / table.sum())
            restricted = mesbf_reversible(p).value
            unrestricted = estimate_mesbf(p, SearchConfig(seed=k)).value
            assert restricted <= unrestricted + 1e-3

    def test_preprocessing_cannot_raise_the_estimate(self, lemur):
        # A witness for the preprocessed distribution, composed with the
        # preprocessing, is a candidate for the original search.
        pre_a = Filtration(np.array([[0.9, 0.1], [0.05, 0.8]]))
        pre_b = Filtration(np.array([[0.7, 0.2], [0.1, 0.9]]))
        filtered = apply(pre_a, pre_b, lemur)
        filtered_result = estimate_mesbf(filtered, FAST)
        composed = (
            filtered_result.witness[0].compose(pre_a),
            filtered_result.witness[1].compose(pre_b),
        )
        original = estimate_mesbf(lemur, FAST, extra_starts=(composed,))
        assert filtered_result.value <= original.value + 1e-9

    def test_extra_starts_of_the_wrong_shape_rejected(self, lemur, monkeypatch):
        def no_polish(*args):
            raise AssertionError("a polish ran before the starts were checked")

        monkeypatch.setattr(optimizer, "_coordinate_polish", no_polish)
        good = (Filtration(np.eye(2)), Filtration(np.eye(2)))
        wide = Filtration(np.full((2, 3), 0.5))
        tall = Filtration(np.full((3, 2), 0.5))
        for bad in [(wide, good[1]), (tall, good[1]), (good[0], wide), (good[0], tall)]:
            with pytest.raises(DimensionMismatchError, match="extra start 1 "):
                estimate_mesbf(lemur, FAST, extra_starts=(good, bad))

    def test_start_pools_past_the_cell_bound_rejected(self, lemur, monkeypatch):
        # A 32x32 table has 492 032 selecting seeds (about 0.7 GB of starts)
        # and restarts=10**8 asks for 10^8 random ones: both are refused
        # before any start exists.
        def no_polish(*args):
            raise AssertionError("a polish ran")

        monkeypatch.setattr(optimizer, "_coordinate_polish", no_polish)
        wide = TripartiteDistribution(np.full((32, 32, 1), 1 / 1024))
        for p, cfg in [(wide, FAST), (lemur, SearchConfig(restarts=10**8))]:
            with traced_memory() as memory:
                with pytest.raises(TooLargeError, match="start pool"):
                    estimate_mesbf(p, cfg)
            assert memory.peak < 5 * 2**20

    def test_start_pool_bound_admits_the_16x16_defaults(self, monkeypatch):
        # 28 800 selecting seeds and 2 + restarts more, each counted as 256
        # cells: up to 3966 restarts fit 2^23 cells, so the default 64 do.
        def no_polish(*args):
            raise AssertionError("the pool was built")

        monkeypatch.setattr(optimizer, "_coordinate_polish", no_polish)
        p = TripartiteDistribution(np.full((16, 16, 1), 1 / 256))
        with pytest.raises(TooLargeError, match="start pool"):
            estimate_mesbf(p, SearchConfig(restarts=3967))
        with pytest.raises(AssertionError, match="the pool was built"):
            estimate_mesbf(p, SearchConfig(restarts=3966))


class TestBruteForce:
    def test_uniform_independent_distribution(self):
        p = point_mass_eve(BipartiteDistribution(np.full((2, 2), 0.25)))
        assert brute_force_mesbf(p, FAST).value == pytest.approx(0.5, abs=1e-9)

    def test_example_distribution_beats_half(self, lemur):
        result = brute_force_mesbf(lemur, FAST)
        assert result.value > 0.5
        achieved = secret_bit_fraction(apply(*result.witness, lemur))
        assert achieved == pytest.approx(result.value, abs=1e-12)

    def test_size_guard(self):
        p = point_mass_eve(BipartiteDistribution(np.full((5, 2), 0.1)))
        with pytest.raises(TooLargeError):
            brute_force_mesbf(p, FAST)

    def test_matches_closed_form_on_a_decoupled_instance(self):
        rng = np.random.default_rng(11)
        m = rng.uniform(0.1, 1.0, size=(3, 3))
        p_ab = BipartiteDistribution(m / m.sum())
        exact = mesbf_decoupled(p_ab).value
        found = brute_force_mesbf(point_mass_eve(p_ab), SearchConfig(seed=2)).value
        assert found == pytest.approx(exact, abs=2e-2)
        assert found <= exact + 1e-9


def _scaled_case(scale: float) -> TripartiteDistribution:
    m = np.random.default_rng(1).uniform(0.1, 1.0, size=(2, 2, 3))
    return TripartiteDistribution(m / m.sum() * scale)


def test_budgets_past_the_lane_table_are_none(lemur):
    # No lane can spend 2^62 evaluations, so any larger budget reads as
    # none; 2^63 once overflowed the lane table's integers.
    found = [result_bits(estimate_mesbf(lemur, SearchConfig(restarts=1, iterations=budget)))
             for budget in (2**62, 2**63, 2**80)]
    assert found[0] == found[1] == found[2]


class TestExtremeScales:
    """Both searches run on the table rescaled by a power of two, so its scale never changes a result."""

    def test_subnormal_search_keeps_the_coin_toss(self):
        # At the table's own scale the filtered products went subnormal and
        # the search reported 0.49537, below its 1/2 guarantee.
        result = estimate_mesbf(_scaled_case(1e-320), SearchConfig(restarts=2, iterations=50))
        assert result.value >= 0.5

    def test_subnormal_oracle_stays_below_the_closed_form(self):
        marginal = marginal_ab(_scaled_case(1e-320))
        found = brute_force_mesbf(point_mass_eve(marginal)).value
        assert found <= mesbf_decoupled(marginal).value + 1e-12

    def test_tiny_floors_run_without_warnings(self):
        # At entry_floor 1e-200 the joint scan's coarse rows near the floor
        # have zero mass; it divided 0 by 0 and kept nan cells.
        m = np.random.default_rng([5, 2, 2, 1]).uniform(0.1, 1.0, size=(2, 2, 1))
        p = TripartiteDistribution(m / m.sum())
        found = brute_force_mesbf(p, SearchConfig(entry_floor=1e-200, grid_points=6)).value
        assert 0.5 <= found <= mesbf_decoupled(marginal_ab(p)).value + 1e-12

    def test_near_overflow_tables_run_without_warnings(self):
        p = _scaled_case(1e308)
        assert estimate_mesbf(p, SearchConfig(restarts=2, iterations=50)).value >= 0.5
        assert brute_force_mesbf(p, SearchConfig(grid_points=6)).value >= 0.5

    def test_power_of_two_scales_give_the_same_bytes(self):
        # Every entry of the scaled tables is still normal, but at their own
        # scale filtered products went subnormal and the results moved.
        table = _kernel_case(2, 3, 4, 1, 0.3)[0]
        search = [estimate_mesbf(TripartiteDistribution(np.ldexp(table, k)), FAST) for k in (0, -1010)]
        assert result_bits(search[0]) == result_bits(search[1])
        m = np.random.default_rng(13).uniform(0.1, 1.0, size=(3, 3))
        p_ab = BipartiteDistribution(m / m.sum())
        oracle = [brute_force_mesbf(point_mass_eve(BipartiteDistribution(np.ldexp(p_ab.table, k))), FAST)
                  for k in (0, -1010)]
        assert result_bits(oracle[0]) == result_bits(oracle[1])


class TestRandomizationDemo:
    def test_reported_quantities(self):
        demo = local_randomization_demo()
        assert demo.lambda_before == pytest.approx(0.5, abs=1e-12)
        assert demo.lambda_reversible == pytest.approx(0.5, abs=1e-12)
        assert not demo.filter_reversible
        assert demo.lambda_after > 0.5
        # direct evaluation of the filtered tensor, no library code:
        # numerator cells 2*(6 + 10 eps + 2 eps^2)/24, mass (6 + 8(1+eps)^2
        # + 10(1+eps))/24 with eps = 0.01
        eps = demo.noise
        expected = (2 * (6 + 10 * eps + 2 * eps**2)) / (
            6 + 8 * (1 + eps) ** 2 + 10 * (1 + eps)
        )
        assert demo.lambda_after == pytest.approx(expected, abs=1e-12)

    def test_demo_distribution_is_the_example(self, lemur):
        demo = local_randomization_demo()
        np.testing.assert_array_equal(demo.distribution.table, lemur.table)
