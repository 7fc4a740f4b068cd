import pytest

from multisearch.model import DomainError, NoiseModel, Oracle, make_instance
from multisearch.seeds import derive_seed
from multisearch.walker import (WalkConfig, WalkNode, chain_block, children,
                                choose_walk_length, find_tth, midpoint,
                                parent_of, solve_walker, walk_step)


def test_walk_length_rules():
    assert choose_walk_length(1024, 0.1) == 700
    assert choose_walk_length(1024, 2**-20) == 1400
    assert choose_walk_length(2, 0.5) == 70
    # subnormal delta: 1 / delta overflows, log2(delta) does not
    assert choose_walk_length(16, 1e-320) == 70 * 1064
    # n too large for a double: 1 / n underflows to 0.0, float(n) overflows
    assert choose_walk_length(10**400, 0.1) == 70 * 1329


def test_walk_length_rejects_bad_delta():
    with pytest.raises(DomainError):
        choose_walk_length(16, 0.0)


def test_walk_config_rejects_a_walk_it_cannot_take():
    # a negative m bounded nothing: the walk ran on until it reached a leaf chain
    for fields, error in [((-1, 3, 3), DomainError), ((2.5, 3, 3), TypeError),
                          ((True, 3, 3), TypeError), ((4, 0, 3), DomainError),
                          ((4, 3, 0), DomainError)]:
        with pytest.raises(error):
            WalkConfig(*fields)
    # an empty walk stays legal: it takes no step and asks nothing
    o = Oracle(make_instance(16, 2, [3, 10]), seed=0)
    assert find_tth(o, 1, WalkConfig(m=0, step1_m=3, step2_m=3)) is None
    assert o.query_count == 0


def test_children_and_midpoint():
    left, right = children(WalkNode(1, 16))
    assert midpoint(WalkNode(1, 16)) == 8
    assert (left, right) == (WalkNode(1, 8), WalkNode(9, 16))
    assert children(WalkNode(1, 2)) == (WalkNode(1, 1), WalkNode(2, 2))
    assert children(WalkNode(9, 16)) == (WalkNode(9, 12), WalkNode(13, 16))
    with pytest.raises(DomainError):
        children(WalkNode(3, 3))


def test_parent_of():
    assert parent_of(WalkNode(1, 8), 16) == WalkNode(1, 16)
    assert parent_of(WalkNode(13, 16), 16) == WalkNode(9, 16)
    assert parent_of(WalkNode(3, 3), 16) == WalkNode(3, 4)


def _cfg(n, k, delta=0.1, rho=1.0):
    return WalkConfig.for_problem(n, k, delta, rho)


def test_walk_step_descends_from_root():
    # membership holds at the root and K(8)=1 >= t=1, so go left
    inst = make_instance(16, 2, [3, 10])
    o = Oracle(inst, seed=4)
    nxt = walk_step(o, WalkNode(1, 16), t=1, cfg=_cfg(16, 2))
    assert nxt == WalkNode(1, 8)


def test_walk_step_backtracks_on_failed_membership():
    # K(12) = 2 > t-1 = 0, exact at rho=1, so membership fails -> parent
    inst = make_instance(16, 2, [3, 10])
    o = Oracle(inst, seed=4)
    nxt = walk_step(o, WalkNode(13, 16), t=1, cfg=_cfg(16, 2))
    assert nxt == WalkNode(9, 16)


def test_walk_step_chain_descends():
    inst = make_instance(16, 2, [3, 10])
    o = Oracle(inst, seed=6)
    before = o.query_count
    nxt = walk_step(o, WalkNode(3, 3, chain_depth=2), t=1, cfg=_cfg(16, 2))
    assert nxt == WalkNode(3, 3, chain_depth=3)
    # a chain step has no midpoint: it costs only its two endpoint checks
    assert o.query_count - before == 2 * _cfg(16, 2).step1_m


def test_walk_step_chain_backtracks_on_wrong_leaf():
    # sitting on the chain of 5 while the 1st element is 3: K(4) = 1 > 0,
    # exact at rho=1, so membership fails and the walk climbs the chain
    inst = make_instance(16, 2, [3, 10])
    o = Oracle(inst, seed=8)
    nxt = walk_step(o, WalkNode(5, 5, chain_depth=2), t=1, cfg=_cfg(16, 2))
    assert nxt == WalkNode(5, 5, chain_depth=1)


def test_backtrack_reaches_root():
    # membership fails at node [1,2]: K(2) = 0 < t = 1, exact at rho=1
    inst = make_instance(4, 1, [4])
    o = Oracle(inst, seed=0)
    nxt = walk_step(o, WalkNode(1, 2), t=1, cfg=_cfg(4, 1))
    assert nxt == WalkNode(1, 4)


def _reference_find_tth(oracle, t, cfg, stop=False):
    """find_tth as plain walk_step calls: cfg.m of them, or with ``stop``
    only until the chain depth reaches the steps left. Also returns the
    chain backtracks and the steps taken."""
    node, chain_backtracks, steps = WalkNode(1, oracle.n), 0, 0
    for left in range(cfg.m, 0, -1):
        if stop and node.chain_depth >= left:
            break
        nxt = walk_step(oracle, node, t, cfg)
        chain_backtracks += nxt.chain_depth < node.chain_depth
        node, steps = nxt, steps + 1
    return (node.a if node.is_leaf else None), chain_backtracks, steps


@pytest.mark.parametrize("rho", [1.0, 0.75])
def test_find_tth_matches_walk_step_loop(rho):
    # inline chain steps draw the same queries in the same order as
    # walk_step, up to the stop: same value, same query count, same stream
    # position after as the stopped reference; and the full-length walk on
    # the same answers reaches the same value
    tiny = WalkConfig(m=200, step1_m=3, step2_m=3)
    cases = [(make_instance(16, 4, [1, 5, 9, 16]), _cfg(16, 4, rho=rho), 3),
             (make_instance(1, 2, [1, 1]), _cfg(1, 2, rho=rho), 3),
             # tiny budgets: walks often fall off their chains and backtrack
             (make_instance(16, 4, [1, 5, 9, 16]), tiny, 3),
             # leaves at two tree depths and an odd walk length: here
             # left - depth takes both parities on a chain, so a stop one
             # step too early changes values
             (make_instance(13, 4, [1, 5, 9, 13]), tiny, 60),
             (make_instance(16, 4, [1, 5, 9, 16]), WalkConfig(m=13, step1_m=3, step2_m=3), 60),
             (make_instance(13, 4, [1, 5, 9, 13]), WalkConfig(m=13, step1_m=3, step2_m=3), 60)]
    chain_backtracks = stopped_early = 0
    for case, (inst, cfg, seeds) in enumerate(cases):
        for t in range(1, inst.k + 1):
            for i in range(seeds):
                seed = derive_seed(91, 100 * case + 10 * t + i)
                fast = Oracle(inst, NoiseModel(rho), seed=seed)
                ref = Oracle(inst, NoiseModel(rho), seed=seed)
                full = Oracle(inst, NoiseModel(rho), seed=seed)
                expected, backtracks, steps = _reference_find_tth(ref, t, cfg, stop=True)
                chain_backtracks += backtracks
                stopped_early += steps < cfg.m
                assert find_tth(fast, t, cfg) == expected
                assert fast.query_count == ref.query_count
                assert fast.query_batch(1, 64) == ref.query_batch(1, 64)
                assert _reference_find_tth(full, t, cfg)[0] == expected
    assert chain_backtracks > 0
    assert stopped_early > 0


def _block_is_taken(depth, left, steps):
    """Whether a step-by-step walk takes ``steps`` chain steps from ``depth``
    with ``left`` steps to go, whatever their moves: no step starts at depth
    0 (a tree step) or at depth >= steps left (the stop). Every +-1 path is
    covered through the set of depths its steps can start at."""
    starts = {depth}
    for j in range(steps):
        if any(d == 0 or d >= left - j for d in starts):
            return False
        starts = {d + move for d in starts for move in (-1, 1)}
    return True


def test_chain_block_is_always_taken():
    # find_tth draws a block's answers at once, so it must take every step
    # of it; and the block is as long as that allows
    for left in range(2, 81):
        for depth in range(1, left):
            b = chain_block(depth, left)
            assert b >= 1
            assert _block_is_taken(depth, left, b), (depth, left, b)
            assert not _block_is_taken(depth, left, b + 1), (depth, left, b)


def _descent(n, v):
    """Tree intervals from the root [1, n] down to the leaf [v, v]."""
    a, b, path = 1, n, []
    while a < b:
        path.append((a, b))
        u = (a + b) // 2
        a, b = (a, u) if v <= u else (u + 1, b)
    return path


@pytest.mark.parametrize("n, v", [(1, 1), (2, 2), (13, 1), (13, 7), (13, 13),
                                  (16, 1), (16, 11), (16, 16), (1000, 437)])
def test_find_tth_query_count_closed_form(n, v):
    # k = 1 at rho = 1: every estimate is exact, so the walk descends to v,
    # steps onto its chain and goes down it until the chain depth reaches
    # the steps left. Ends 0 and n are forced and cost nothing
    inst = make_instance(n, 1, [v])
    for cfg in (_cfg(n, 1), WalkConfig(m=40, step1_m=5, step2_m=7),
                WalkConfig(m=41, step1_m=5, step2_m=7)):
        cost = lambda y: 0 if y in (0, n) else cfg.step1_m
        path = _descent(n, v)
        tree = sum(cost(a - 1) + cost(b) + cfg.step2_m for a, b in path)
        leaf = cost(v - 1) + cost(v)
        # after the descent and the leaf step the depth is 1 with
        # m - s steps left; j more chain steps end at 1 + j >= m - s - j
        s = len(path) + 1
        chain_steps = (cfg.m - s) // 2
        o = Oracle(inst, seed=derive_seed(5, n + v))
        assert find_tth(o, 1, cfg) == v
        assert o.query_count == tree + (1 + chain_steps) * leaf, cfg


def test_find_tth_single_leaf():
    o = Oracle(make_instance(1, 1, [1]), seed=0)
    assert find_tth(o, 1, _cfg(1, 1)) == 1


def test_find_tth_exact_for_k1():
    # k=1 estimates are exact at rho=1, so the walk is deterministic
    for seed in range(10):
        o = Oracle(make_instance(4, 1, [4]), seed=seed)
        assert find_tth(o, 1, _cfg(4, 1)) == 4


def test_find_tth_worked_example_rate():
    inst = make_instance(16, 2, [3, 10])
    cfg = _cfg(16, 2)
    hits = sum(find_tth(Oracle(inst, seed=derive_seed(31, i)), 1, cfg) == 3
               for i in range(200))
    assert hits >= 180


def test_solve_walker_worked_example():
    inst = make_instance(16, 2, [3, 10])
    hits = 0
    for i in range(200):
        r = solve_walker(Oracle(inst, seed=derive_seed(17, i)), 16, 2, 0.1)
        hits += r.recovered == [3, 10]
    assert hits >= 180


def test_solve_walker_single_value_multiset():
    r = solve_walker(Oracle(make_instance(1, 3, [1, 1, 1]), seed=3), 1, 3, 0.1)
    assert r.recovered == [1, 1, 1]


def test_solve_walker_budget_bound():
    # 26 k^2 queries per step is a hard ceiling; shortcuts only reduce it
    budget = 4 * (70 * 8) * 26 * 16
    for i in range(5):
        o = Oracle(make_instance(256, 4, [10, 80, 150, 220]),
                   seed=derive_seed(41, i))
        r = solve_walker(o, 256, 4, 0.1)
        assert r.total_queries <= budget
        assert r.total_queries == o.query_count
        assert sum(q for _, _, q in r.per_target) == r.total_queries


def test_solve_walker_report_shape():
    r = solve_walker(Oracle(make_instance(8, 2, [2, 7]), seed=1), 8, 2, 0.1)
    assert len(r.per_target) == 2
    assert [t for t, _, _ in r.per_target] == [1, 2]


def test_solve_walker_noisy():
    inst = make_instance(16, 2, [3, 10])
    hits = 0
    for i in range(50):
        o = Oracle(inst, NoiseModel(0.75), seed=derive_seed(53, i))
        hits += solve_walker(o, 16, 2, 0.1).recovered == [3, 10]
    assert hits >= 45


def _correct_move(node, target, n, walk_m):
    """Ground-truth next node when every estimate is right."""
    a, b, d = node.a, node.b, node.chain_depth
    inside = a <= target <= b
    if not inside:
        if d > 0:
            return WalkNode(a, b, d - 1)
        if (a, b) == (1, n):
            return node
        return parent_of(node, n)
    if a < b:
        left, right = children(node)
        return left if target <= left.b else right
    return WalkNode(a, b, d + 1)


def test_wrong_move_fraction_below_bound():
    # per-step wrong-move probability is < 15/64 + 1/16 < 0.3
    from multisearch.instances import cluster_instance

    wrong = total = 0
    for i in range(5):
        inst = cluster_instance(256, 4, seed=derive_seed(61, i))
        cfg = _cfg(256, 4)
        for t in range(1, 5):
            target = inst.items[t - 1]
            o = Oracle(inst, seed=derive_seed(62, 10 * i + t))
            node = WalkNode(1, 256)
            for _ in range(cfg.m):
                nxt = walk_step(o, node, t, cfg)
                wrong += nxt != _correct_move(node, target, 256, cfg.m)
                total += 1
                node = nxt
    assert wrong / total < 0.3
