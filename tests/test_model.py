import itertools
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from multisearch.analysis import binom_pmf
from multisearch.instances import sample_instance
from multisearch.kposition import estimate_k_position
from multisearch.model import (DRAW_BUFFER, MAX_2D_BATCH, DomainError, Instance,
                               NoiseModel, Oracle, k_position_true,
                               leq_probability, make_instance)


def test_make_instance_canonical():
    inst = make_instance(16, 2, [10, 3])
    assert inst.items == (3, 10)
    assert (inst.n, inst.k) == (16, 2)


def test_make_instance_trivial():
    assert make_instance(1, 1, [1]).items == (1,)


def test_make_instance_errors():
    with pytest.raises(DomainError):
        make_instance(4, 3, [2, 2, 5])  # 5 > n
    with pytest.raises(DomainError):
        make_instance(4, 3, [1, 2])  # wrong cardinality
    with pytest.raises(DomainError):
        make_instance(4, 2, [0, 1])  # below range
    with pytest.raises(DomainError):
        make_instance(0, 1, [1])
    with pytest.raises(TypeError):
        make_instance(4, 2, [2.9, 1.5])  # not truncated to (1, 2)
    # n, k and items follow the integer rule: a float is not an integer, 2.0 included
    with pytest.raises(TypeError):
        make_instance(4, 2, [2.0, 1.0])
    with pytest.raises(TypeError):
        make_instance(4.0, 2.0, [2, 1])
    for n, k in [(2.5, 1), (4, 1.5), (float("inf"), 1), (4, float("nan")), ("4", 1)]:
        with pytest.raises(TypeError):
            make_instance(n, k, [1])
    # booleans are not integers, although True == 1
    for n, k, items in [(16, True, [1]), (True, 1, [1]), (16, 1, [True]),
                        (16, 2, [np.True_, 3])]:
        with pytest.raises(TypeError):
            make_instance(n, k, items)


def test_instance_checks_itself():
    # the record sorts its items, so the oracle's bisect reads the multiset
    unsorted = Instance(8, 2, (6, 3))
    assert unsorted.items == (3, 6) and make_instance is Instance
    want = Oracle(make_instance(8, 2, [3, 6]), seed=4)
    got = Oracle(unsorted, seed=4)
    assert [got.query_batch(y, 40) for y in range(1, 9)] == \
        [want.query_batch(y, 40) for y in range(1, 9)]
    # numpy integers are stored as ints, so the record can be written
    inst = Instance(np.int64(8), np.int64(2), np.array([6, 3]))
    assert {type(inst.n), type(inst.k), *map(type, inst.items)} == {int}
    assert Instance.from_json(inst.to_json()) == inst == unsorted


def test_sample_instance_forced_cases():
    assert sample_instance(1, 3, "with-replacement", 42).items == (1, 1, 1)
    assert sample_instance(5, 5, "distinct", 42).items == (1, 2, 3, 4, 5)


def test_sample_instance_deterministic():
    a = sample_instance(16, 2, "distinct", 7)
    b = sample_instance(16, 2, "distinct", 7)
    assert a == b
    assert len(set(a.items)) == 2


def test_sample_instance_distinct_requires_k_le_n():
    with pytest.raises(DomainError):
        sample_instance(3, 4, "distinct", 0)


@pytest.mark.parametrize("mode", ["with-replacement", "distinct"])
def test_sample_instance_rejects_n_k_below_one(mode):
    # the generator owns its n and k: a DomainError, not numpy's ValueError
    for n, k in [(0, 2), (4, -1), (4, 0), (-3, 1)]:
        with pytest.raises(DomainError):
            sample_instance(n, k, mode, 0)


@pytest.mark.parametrize("mode", ["with-replacement", "distinct"])
def test_sample_instance_int64_range(mode):
    # numpy draws int64 values: n = 2^63 - 1 is the largest range it covers
    assert max(sample_instance(2**63 - 1, 2, mode, 0).items) < 2**63
    with pytest.raises(DomainError):
        sample_instance(2**63, 2, mode, 0)


def test_noise_model_bounds():
    NoiseModel(1.0)
    NoiseModel(0.75)
    with pytest.raises(DomainError):
        NoiseModel(0.5)
    with pytest.raises(DomainError):
        NoiseModel(1.1)


def test_k_position_true_examples():
    inst = make_instance(16, 2, [3, 10])
    assert k_position_true(inst, 2) == 0
    assert k_position_true(inst, 4) == 1
    assert k_position_true(inst, 0) == 0
    assert k_position_true(inst, 16) == 2
    multi = make_instance(8, 3, [2, 2, 5])
    assert k_position_true(multi, 2) == 2
    with pytest.raises(DomainError):
        k_position_true(inst, 17)
    with pytest.raises(DomainError):
        k_position_true(inst, -1)


def test_k_position_true_monotone():
    # every multiset for n <= 8, k <= 4, plus seeded ones at n = 64, k = 6
    rng = random.Random(64)
    cases = [(n, k, items) for n in range(1, 9) for k in range(1, 5)
             for items in itertools.combinations_with_replacement(range(1, n + 1), k)]
    cases += [(64, 6, [rng.randint(1, 64) for _ in range(6)]) for _ in range(200)]
    for n, k, items in cases:
        inst = make_instance(n, k, items)
        positions = [k_position_true(inst, y) for y in range(0, n + 1)]
        assert positions[0] == 0
        assert positions[-1] == k
        assert all(a <= b for a, b in zip(positions, positions[1:]))


def test_query_deterministic_noiseless_extremes():
    inst = make_instance(16, 2, [3, 10])
    o = Oracle(inst, seed=1)
    assert o.query_batch(16, 1) == 1  # every element <= n
    assert o.query_batch(1, 1) == 0   # below min(S)


def test_query_rejects_out_of_range():
    o = Oracle(make_instance(4, 1, [2]), seed=0)
    with pytest.raises(DomainError):
        o.query_batch(0, 1)
    with pytest.raises(DomainError):
        o.query_batch(5, 1)


def test_query_count_accounting():
    o = Oracle(make_instance(16, 2, [3, 10]), seed=0)
    o.query_batch(8, 1)
    o.query_batch(4, 10)
    o.query_batch(2, 1)
    assert o.query_count == 12
    # m is checked before it is counted; m = 0 is an empty batch
    with pytest.raises(DomainError):
        o.query_batch(8, -5)
    with pytest.raises(TypeError):
        o.query_batch(8, 2.5)
    assert o.query_batch(8, 0) == 0
    assert o.query_count == 12


@pytest.mark.parametrize("rho", [1.0, 0.9])
@pytest.mark.parametrize("m", [1, 16383, 16384, 16385, 49157])
def test_query_batch_is_the_query_stream(rho, m):
    # a batch reads the same answers as m single queries; the reference-stream
    # test reads batches across the scratch's refills
    inst = make_instance(16, 2, [3, 10])
    a = Oracle(inst, NoiseModel(rho), seed=5)
    b = Oracle(inst, NoiseModel(rho), seed=5)
    assert a.query_batch(8, m) == sum(b.query_batch(8, 1) for _ in range(m))
    assert a.query_count == b.query_count == m
    # both oracles stand at the same point of the stream afterwards
    assert a.query_batch(8, 64) == b.query_batch(8, 64)


def test_query_batch_rejects_non_integral_y():
    # y is checked before it is counted: a float or a bool neither spends
    # queries nor moves the stream, and a k-position estimate of it makes no
    # estimate, not even a forced one at y = 0 or y = n
    inst = make_instance(16, 2, [3, 10])
    o, ref = Oracle(inst, seed=3), Oracle(inst, seed=3)
    for call in (lambda: o.query_batch(2.5, 4), lambda: o.query_batch(3.0, 1),
                 lambda: estimate_k_position(o, 2.5, 8),
                 lambda: estimate_k_position(o, 0.0, 8),
                 lambda: estimate_k_position(o, 16.0, 8),
                 lambda: o.query_batch(True, 4), lambda: o.query_batch(8, True)):
        with pytest.raises(TypeError):
            call()
    assert o.query_count == 0
    assert o.query_batch(np.int64(8), 64) == ref.query_batch(8, 64)


@pytest.mark.parametrize("rho", [1.0, 0.9])
def test_query_batch_reads_the_reference_stream(rho):
    # a mixed sequence of batches and single queries, straddling the 2-D
    # bound and the scratch's refills, counts the answers of one unbuffered
    # draw of the seed's doubles, in order, none skipped or repeated; a batch
    # of probability 0 or 1 (at rho = 1, y = 2 and y = 16) reads no double
    inst = make_instance(16, 2, [3, 10])
    sizes = [0, 1, MAX_2D_BATCH - 1, MAX_2D_BATCH, MAX_2D_BATCH + 1, 3200, DRAW_BUFFER - 1,
             DRAW_BUFFER, DRAW_BUFFER + 1, 2 * DRAW_BUFFER + 1, 6 * DRAW_BUFFER + 5]
    calls = []  # (y, m) is query_batch(y, m)
    for i, m in enumerate(sizes + sizes[::-1]):
        y = [8, 4, 2, 16][i % 4]
        calls += [(y, m), (y, 1)]
    total = sum(m for _, m in calls)
    doubles = np.random.Generator(np.random.PCG64(11)).random(total)
    o = Oracle(inst, NoiseModel(rho), seed=11)
    pos = charged = 0
    for y, m in calls:
        p = leq_probability(k_position_true(inst, y), inst.k, rho)
        if p in (0.0, 1.0):
            assert o.query_batch(y, m) == m * p
        else:
            assert o.query_batch(y, m) == np.count_nonzero(doubles[pos:pos + m] < p)
            pos += m
        charged += m
        assert o.query_count == charged
        # a rejected call counts nothing and leaves the stream where it was
        for bad_y, bad_m in [(8, -1), (0, 1), (2.5, 1)]:
            with pytest.raises((DomainError, TypeError)):
                o.query_batch(bad_y, bad_m)
        assert o.query_count == charged
    ref = np.random.PCG64(11)
    ref.advance(pos)
    assert o._rng.bit_generator.state == ref.state
    assert charged == total and (pos < total) == (rho == 1.0)


def test_oracle_draws_only_the_answers_it_counts():
    # each answer the oracle cannot know is one double of the generator, so
    # after any sequence of calls, rejected ones included, the generator
    # stands exactly the uncertain queries' count of doubles past its seed:
    # nothing is drawn ahead, and a batch of probability 0 or 1 draws nothing
    inst = make_instance(16, 2, [3, 10])
    calls = [([8], 0, 1), ([4, 12], 512, 0), ([4], 100, 1), ([12], 1, 1),
             # the 2-D bound: batches of MAX_2D_BATCH are counted with one
             # 2-D compare, of MAX_2D_BATCH + 1 one at a time
             ([8], MAX_2D_BATCH - 1, 11), ([8], MAX_2D_BATCH, 11), ([4, 12], MAX_2D_BATCH + 1, 3),
             # the scratch: DRAW_BUFFER is one whole batch, one more is two draws
             ([4, 12], DRAW_BUFFER - 1, 2), ([8], DRAW_BUFFER, 3), ([4, 12], DRAW_BUFFER + 1, 2),
             ([8], 2 * DRAW_BUFFER + 3, 1), ([2], 3000, 4), ([2, 16], 7, 40),
             # certain and uncertain columns in one call, on every path
             ([2, 8, 16], 512, 9), ([1, 12], 1, 1), ([16, 4], MAX_2D_BATCH, 5),
             ([9, 2], MAX_2D_BATCH + 1, 3), ([1, 5, 10], DRAW_BUFFER + 1, 2), ([16, 1], 640, 3),
             # at m = 512 one draw holds 128 batches; a lone batch is counted flat
             ([4, 12], 512, 2), ([8], 512, 1)]
    for rho in (0.9, 1.0):
        o = Oracle(inst, NoiseModel(rho), seed=21)
        drawn = 0
        for ys, m, rows in calls:
            o.query_rows(ys, m, rows)
            # at rho = 1, K_y = 0 (y < 3) or K_y = k (y >= 10) is certain
            drawn += rows * m * sum(rho < 1 or 0 < k_position_true(inst, y) < inst.k for y in ys)
            ref = np.random.PCG64(21)
            ref.advance(drawn)
            assert o._rng.bit_generator.state == ref.state, (rho, ys, m, rows)
        assert (drawn == o.query_count) == (rho < 1)
        with pytest.raises(DomainError):
            o.query_rows([8, 17], 100, 2)
        ref = np.random.PCG64(21)
        ref.advance(drawn)
        assert o._rng.bit_generator.state == ref.state


@pytest.mark.parametrize("m", [0, 1, 640, 8193, DRAW_BUFFER + 1, -1])
def test_query_batch_is_one_row_of_query_rows(m):
    # the same count, charge and generator state, or for a rejected call
    # the same error, nothing charged and the stream where it was
    inst = make_instance(16, 2, [3, 10])
    a = Oracle(inst, NoiseModel(0.9), seed=17)
    b = Oracle(inst, NoiseModel(0.9), seed=17)
    for o in (a, b):
        o.query_batch(4, 3)  # start past the stream's first double
    if m < 0:
        with pytest.raises(DomainError):
            a.query_batch(8, m)
        with pytest.raises(DomainError):
            b.query_rows([8], m, 1)
    else:
        got, want = a.query_batch(8, m), b.query_rows([8], m, 1)[0, 0]
        assert type(got) is int and got == want
    assert a.query_count == b.query_count == 3 + max(m, 0)
    assert a._rng.bit_generator.state == b._rng.bit_generator.state


def test_query_batch_goes_through_query_rows(monkeypatch):
    def refused(self, ys, m, rows):
        raise RuntimeError("query_rows refused")

    o = Oracle(make_instance(16, 2, [3, 10]), seed=0)
    monkeypatch.setattr(Oracle, "query_rows", refused)
    for call in (lambda: o.query_batch(8, 4), lambda: o.query_batch(8, 1)):
        with pytest.raises(RuntimeError, match="query_rows refused"):
            call()
    assert o.query_count == 0


def test_oracle_memory_is_bounded():
    # an oracle keeps no drawn doubles between calls, whatever batches it
    # has served: they live in the thread's scratch
    o = Oracle(make_instance(16, 2, [3, 10]), NoiseModel(0.9), seed=0)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for m in (1, 512, 2**20):
            o.query_batch(8, m)
            current, _ = tracemalloc.get_traced_memory()
            assert current - base <= 4096, (m, current - base)
    finally:
        tracemalloc.stop()


def test_query_batch_allocates_no_drawn_doubles():
    # a batch draws into the thread's scratch in place: its peak is one
    # boolean compare mask of the scratch, whatever m is
    o = Oracle(make_instance(16, 2, [3, 10]), NoiseModel(0.9), seed=0)
    tracemalloc.start()
    try:
        o.query_batch(8, 2**24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= DRAW_BUFFER + 4096, peak


def test_live_oracles_share_one_scratch():
    # drawn doubles live in one scratch per thread, not one per oracle: 64
    # live oracles that have each drawn grow the traced memory by no more
    # than their own bookkeeping (about 1 KiB each) over one such oracle
    inst = make_instance(16, 2, [3, 10])
    Oracle(inst, seed=0).query_rows([4, 12], 512, 40)  # this thread's scratch exists

    def growth(count):
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            live = [Oracle(inst, NoiseModel(0.9), seed=i) for i in range(count)]
            for o in live:
                o.query_rows([4, 12], 512, 40)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return current - base

    one, many = growth(1), growth(64)
    assert many - one <= 63 * 4096, (one, many)


def test_oracles_in_two_threads_draw_their_own_streams():
    # two oracles driven at once from two threads count what the same
    # calls made one after the other count: each thread draws into its own
    # scratch, on every count path; a short switch interval makes the
    # threads trade the interpreter between and inside calls
    inst = make_instance(16, 4, [3, 5, 5, 10])
    calls = [([4, 8], 512, 60), ([9], MAX_2D_BATCH + 1, 30), ([2, 6, 16], 640, 40),
             ([5], DRAW_BUFFER, 4), ([4, 12], DRAW_BUFFER + 1, 2), ([8], 3 * DRAW_BUFFER, 1)] * 4

    def drive(oracle, out, start=None):
        if start is not None:
            start.wait(timeout=30)
        out.extend(oracle.query_rows(*call).tolist() for call in calls)

    interval = sys.getswitchinterval()
    for rho in (1.0, 0.9):
        oracles = [Oracle(inst, NoiseModel(rho), seed=s) for s in (31, 32)]
        got, start = ([], []), threading.Barrier(2)
        threads = [threading.Thread(target=drive, args=(o, out, start))
                   for o, out in zip(oracles, got)]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        want = ([], [])
        for s, out in zip((31, 32), want):
            drive(Oracle(inst, NoiseModel(rho), seed=s), out)
        assert got == want
        assert [o.query_count for o in oracles] == [sum(len(ys) * m * r for ys, m, r in calls)] * 2


@pytest.mark.parametrize("rho", [1.0, 0.75])
@pytest.mark.parametrize("ys", [[8], [4, 12]], ids=["one_y", "two_ys"])
@pytest.mark.parametrize("m", [1, 512, MAX_2D_BATCH, MAX_2D_BATCH + 1, 3200, 8191, 8193, 16385,
                               DRAW_BUFFER - 1, DRAW_BUFFER + 1])
def test_query_rows_is_the_query_stream(rho, ys, m):
    # rows of counts are the query_batch calls they stand for, made row
    # after row; successive calls start at other points of the stream
    inst = make_instance(16, 2, [3, 10])
    a = Oracle(inst, NoiseModel(rho), seed=9)
    b = Oracle(inst, NoiseModel(rho), seed=9)
    for rows in (0, 1, 7, 40):
        got = a.query_rows(ys, m, rows)
        want = [[b.query_batch(y, m) for y in ys] for _ in range(rows)]
        assert got.shape == (rows, len(ys))
        assert got.tolist() == want
        assert a.query_count == b.query_count
        assert a.query_batch(2, 100) == b.query_batch(2, 100)
    # a rejected call counts nothing and leaves the stream where it was
    for bad in [([8.0], m, 2), ([True], m, 2), ([8], 2.0, 2), ([8], True, 2),
                ([8], m, 2.0), ([8], m, False), ([8, 0], m, 2), ([17], m, 2),
                ([8], -1, 2), ([8], m, -1)]:
        with pytest.raises((DomainError, TypeError)):
            a.query_rows(*bad)
    assert a.query_count == b.query_count
    assert a.query_batch(2, 100) == b.query_batch(2, 100)


def test_query_rows_allocates_no_drawn_doubles():
    # like a batch, a block of rows counts in the thread's scratch: its
    # peak is one boolean compare mask of the scratch, numpy's cast buffer
    # of the 2-D row sums and O(rows) counts, whatever m is
    bound = DRAW_BUFFER + 8 * np.getbufsize() + 4096
    peaks = {}
    for m in (1, 512, 1024, 3200, 2**16, 2**20):
        o = Oracle(make_instance(16, 2, [3, 10]), NoiseModel(0.9), seed=0)
        tracemalloc.start()
        try:
            o.query_rows([4, 12], m, 40)
            _, peaks[m] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= bound, peaks


@pytest.mark.parametrize("rho", [1.0, 0.75])
def test_oracle_determinism(rho):
    inst = make_instance(16, 2, [3, 10])
    ys = [8, 4, 2, 3, 10, 16, 1] * 20
    a = Oracle(inst, NoiseModel(rho), seed=99)
    b = Oracle(inst, NoiseModel(rho), seed=99)
    assert [a.query_batch(y, 1) for y in ys] == [b.query_batch(y, 1) for y in ys]


@pytest.mark.parametrize("rho,y", [(1.0, 8), (0.75, 8), (0.8, 4)])
def test_query_distribution(rho, y):
    # empirical LEQ frequency within 4 sigma of rho*K_y/k + (1-rho)*(1-K_y/k)
    inst = make_instance(16, 2, [3, 10])
    o = Oracle(inst, NoiseModel(rho), seed=2024)
    big_n = 10**6
    freq = o.query_batch(y, big_n) / big_n
    ky = k_position_true(inst, y)
    expected = rho * ky / inst.k + (1 - rho) * (1 - ky / inst.k)
    assert abs(freq - expected) < 4 * math.sqrt(0.25 / big_n)


@pytest.mark.parametrize("rho", [1.0, 0.8])
@pytest.mark.parametrize("y", [1, 3, 9])  # K_y = 0, 1, 3
def test_query_count_distribution(rho, y):
    # counts of 12 consecutive answers must follow Binomial(12, p) as a whole
    # law, not only in the mean: chi-square over bins whose expected count is
    # at least 5 (tails pooled), below its 0.999 quantile
    from scipy.stats import chi2

    inst = make_instance(9, 3, [2, 5, 5])
    m, trials = 12, 50_000
    o = Oracle(inst, NoiseModel(rho), seed=2024)
    counts = np.array([o.query_batch(y, m) for _ in range(trials)])
    observed = np.bincount(counts, minlength=m + 1)
    p = leq_probability(k_position_true(inst, y), inst.k, rho)
    if p in (0.0, 1.0):
        assert observed[round(p * m)] == trials
        return
    expected = trials * np.array([binom_pmf(x, m, p) for x in range(m + 1)])
    lo = int(np.argmax(np.cumsum(expected) >= 5))
    hi = m - int(np.argmax(np.cumsum(expected[::-1]) >= 5))
    pool = lambda a: np.concatenate(([a[:lo + 1].sum()], a[lo + 1:hi], [a[hi:].sum()]))
    obs, exp = pool(observed), pool(expected)
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert stat < chi2.ppf(0.999, len(obs) - 1), (stat, obs, exp)


def test_instance_json_roundtrip():
    inst = make_instance(16, 2, [3, 10])
    assert Instance.from_json(inst.to_json()) == inst
