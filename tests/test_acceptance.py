"""Acceptance suite: the ten release criteria, one test per criterion.

Every test emits exactly one line — ``criterion N: PASS`` or
``criterion N: FAIL (<measured details>)`` — before asserting; the lines
are echoed in an "acceptance criteria" terminal-summary section, so a
plain pytest run yields a criterion-by-criterion scoreboard.  All runs
are seeded from one master constant; the suite is fully deterministic.

Criteria 4, 5 and 7 check the paper's statements at the sizes they run:
advocate, soft, finishes within the thm7 band n - 1 <= T <= n + O(ln n),
with the cell means of (T - n)/log2 n level across n; random pull stays
above the thm1 lower bound, of order k ln n, and falls further behind the
ideal k + log2 n as n grows; sampled single-message push gossip
concentrates around the deterministic mean-map curve.  Their clauses live
in pure helpers (``_advocate_clauses``, ``_pull_clauses``,
``_gossip_clauses``), and the control tests at the end feed each helper
synthetic data of the measured shape, which must pass, and of a shape the
paper rules out, which must fail.

The run grids of criteria 1 to 6 are planned and run like any sweep, by
``sweep.plan`` and ``sweep.execute``, which forks one worker per CPU.
Each cell's tag seeds its runs, and the result rows come back in plan
order, so every clause sees the same numbers as in a serial run.  Criteria
1/3 and 2 take their configs from the fig1 and fig3 builders, and
criterion 2 reads the reach statistic that a sweep records and
``verify thm5`` checks.
"""

import math
import os
from statistics import fmean

import numpy as np
import pytest

import gossipsim as g
from gossipsim.figures import FULL_VIEW, _interleave_config, _spaced_push_config
from gossipsim.oracle import (
    REACH_DELTA,
    bound_value,
    classical_gossip_sample,
    deterministic_gossip,
    geo_sum_sample,
    gossip_mean_map,
)
from gossipsim.metrics import REACH_WINDOW_FACTOR
from gossipsim.sweep import MAX_JOBS, execute, plan
from acceptance_lines import ACCEPTANCE_LINES
from test_invariants import GOLDEN, audit_occupancy_doubling, audit_trace

MASTER = 1729


def _report(num: int, clauses: list) -> None:
    """clauses: (ok, failure detail) pairs.  Print the line, then assert."""
    failed = [detail for ok, detail in clauses if not ok]
    line = f"criterion {num}: " + (
        "PASS" if not failed else "FAIL (" + "; ".join(failed) + ")"
    )
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert not failed, line


def _grid(cells: dict, seeds: int) -> dict:
    """Sweep result rows, `seeds` runs per cell, keyed like `cells`, which
    maps a criterion's own key to a (cell tag, config data) pair."""
    plans = plan(cells.values(), seeds, MASTER)
    rows = execute(plans, jobs=min(os.cpu_count() or 1, MAX_JOBS))
    return {key: rows[i * seeds : (i + 1) * seeds] for i, key in enumerate(cells)}


# -------------------------------------------------- criteria 1 and 3 (shared)


@pytest.fixture(scope="module")
def interleave_completions():
    """Completion slots at n=500, k=1000 for list sizes {2, 8, 16, 32} and
    the full view, 10 seeds per cell."""
    grid = _grid(
        {
            m: ((("interleave-m", m),), _interleave_config(500, 1000, m))
            for m in (2, 8, 16, 32, FULL_VIEW)
        },
        seeds=10,
    )
    for m, rows in grid.items():
        assert all(r["completed"] for r in rows), f"interleave m={m} hit its slot cap"
    return {m: [r["completion_slot"] for r in rows] for m, rows in grid.items()}


def test_criterion_01_interleave_completion_scale(interleave_completions):
    target = 2020.0
    clauses = []
    for m in (8, 16, 32, FULL_VIEW):
        mean = fmean(interleave_completions[m])
        clauses.append(
            (
                0.75 * target <= mean <= 1.25 * target,
                f"m={m} mean {mean:.1f} outside ±25% of {target:.0f}",
            )
        )
    m2, m8 = fmean(interleave_completions[2]), fmean(interleave_completions[8])
    clauses.append((m2 > m8, f"m=2 mean {m2:.1f} not above m=8 mean {m8:.1f}"))
    _report(1, clauses)


def test_criterion_03_interleave_within_upper_bound(interleave_completions):
    bound = bound_value("thm6", n=500, k=1000, eps=0.1)
    worst = max(max(comps) for comps in interleave_completions.values())
    _report(3, [(worst <= bound, f"slowest run {worst} exceeds bound {bound:.1f}")])


# ------------------------------------------------------------- criterion 2


def test_criterion_02_spaced_push_plateau_and_reach():
    n, k = 500, 600
    grid = _grid(
        {l: ((("push-l", l),), _spaced_push_config(n, k, l)) for l in (1, 2, 3)},
        seeds=10,
    )
    clauses = []
    for spacing, rows in grid.items():
        mean_limit = fmean(r["delay_limit"] for r in rows)
        target = 1.0 - math.exp(-spacing)
        clauses.append(
            (
                abs(mean_limit - target) <= 0.05,
                f"l={spacing} plateau {mean_limit:.4f} not within 0.05 of {target:.4f}",
            )
        )
    mean_reach = fmean(r["reach_fraction"] for r in grid[1])
    clauses.append(
        (
            mean_reach >= 0.90,
            f"l=1 reach {mean_reach:.4f} below 0.90 (ceil((1 - e^-1 - "
            f"{REACH_DELTA}) n) users within ceil({REACH_WINDOW_FACTOR} log2 n) slots)",
        )
    )
    _report(2, clauses)


# ------------------------------------------------------------- criterion 4


def _advocate_clauses(slots: dict) -> dict:
    """Criterion 4 clauses over advocate completion slots keyed by n, one
    entry per run; None marks a run that hit its slot cap.

    * floor: every run completes, in at least n - 1 slots;
    * ceiling: every completed run meets thm7, T <= n + C ln n at the
      ``verify`` default C = 3;
    * trend: the cell means of (T - n)/log2 n over the completed runs span
      at most 1.  An O(log n) excess keeps them level whatever its sign; an
      excess growing like sqrt(n) spreads them by about 1.6 over 128..1024.

    thm7 is reproduced only under the soft constraint, which the criterion
    runs.  Under the hard constraint advocate takes about 1.67n slots: with
    5 seeds at each n = k from 32 to 512, the largest (T - n)/ln n rose
    from 6.9 to 55.9.
    """
    floor, ceiling, means = [], [], {}
    for n, ts in slots.items():
        bound = bound_value("thm7", n=n, C=3.0)
        for idx, t in enumerate(ts):
            if t is None or t < n - 1:
                floor.append(f"n={n} seed#{idx} T={t}")
            elif t > bound:
                ceiling.append(f"n={n} seed#{idx} T={t} > {bound:.1f}")
        done = [t for t in ts if t is not None]
        if done:
            means[n] = fmean((t - n) / math.log2(n) for t in done)
    spread = max(means.values()) - min(means.values()) if means else math.inf
    summary = ", ".join(f"n={n}: {m:.4f}" for n, m in means.items())
    return {
        "floor": (not floor, f"runs below the n-1 floor: {floor[:3]}"),
        "ceiling": (not ceiling, f"runs over the thm7 ceiling: {ceiling[:3]}"),
        "trend": (
            spread <= 1.0,
            f"(T-n)/log2 n cell means [{summary}] spread {spread:.4f} > 1",
        ),
    }


def test_criterion_04_advocate_linear_completion():
    grid = _grid(
        {
            n: (
                (("advocate-n", n),),
                dict(
                    n=n,
                    k=n,
                    protocol=g.ADVOCATE,
                    constraint=g.SOFT,
                    initial_state=g.ONE_UNIQUE,
                ),
            )
            for n in (128, 256, 512, 1024)
        },
        seeds=20,
    )
    slots = {n: [r["completion_slot"] for r in rows] for n, rows in grid.items()}
    _report(4, list(_advocate_clauses(slots).values()))


# ------------------------------------------------------------- criterion 5


def _pull_clauses(grid: dict) -> dict:
    """Criterion 5 clauses over random-pull completion slots keyed by (n, k).

    * upper: every run meets thm3 (delta = 0.1, c = 1);
    * lower: every run meets thm1 at the ``verify`` defaults (beta = 0.5,
      eps = 0.1) -- pull-only dissemination needs order k ln n slots;
    * spread: T/(k ln n) varies by at most 3x across the grid;
    * growth: for each k, T/(k + log2 n) grows from n = 64 to n = 1024,
      i.e. pull falls further behind the ideal k + log2 n as n grows.  For
      T proportional to k ln n that growth is at most ln 1024/ln 64 = 5/3,
      so only its presence is required.
    """
    over, under = [], []
    for (n, k), comps in grid.items():
        upper = bound_value("thm3", n=n, k=k, delta=0.1, c=1.0)
        lower = bound_value("thm1", n=n, k=k, beta=0.5, eps=0.1)
        if max(comps) > upper:
            over.append(f"n={n},k={k}: {max(comps)} > {upper:.0f}")
        if min(comps) < lower:
            under.append(f"n={n},k={k}: {min(comps)} < {lower:.1f}")

    ratios = {cell: fmean(c) / (cell[1] * math.log(cell[0])) for cell, c in grid.items()}
    spread = max(ratios.values()) / min(ratios.values())

    scaled = {cell: fmean(c) / (cell[1] + math.log2(cell[0])) for cell, c in grid.items()}
    growths = {k: scaled[(1024, k)] / scaled[(64, k)] for k in (8, 32)}
    growth_detail = ", ".join(f"k={k}: {v:.3f}" for k, v in growths.items())

    return {
        "upper": (not over, f"runs over the pull upper bound: {over}"),
        "lower": (not under, f"runs under the thm1 pull lower bound: {under}"),
        "spread": (spread <= 3.0, f"T/(k ln n) spread {spread:.3f} exceeds 3x"),
        "growth": (
            all(v > 1.0 for v in growths.values()),
            f"T/(k+log2 n) growth 64->1024 [{growth_detail}] not above 1",
        ),
    }


def test_criterion_05_pull_scaling_grid():
    grid = _grid(
        {
            (n, k): ((("pull-n", n), ("pull-k", k)), dict(n=n, k=k, protocol=g.RANDOM_PULL))
            for n in (64, 256, 1024)
            for k in (8, 32)
        },
        seeds=10,
    )
    slots = {}
    for cell, rows in grid.items():
        assert all(r["completed"] for r in rows)
        slots[cell] = [r["completion_slot"] for r in rows]
    _report(5, list(_pull_clauses(slots).values()))


# ------------------------------------------------------------- criterion 6


def test_criterion_06_seeded_pull_bound_coverage():
    n, k, eta = 1000, 50, 0.5
    bound = bound_value("thm2", n=n, k=k, eta=eta, c=1.0)
    grid = _grid(
        {
            protocol: (
                (("seeded-pull", protocol),),
                dict(n=n, k=k, protocol=protocol, initial_state=g.ETA_SEEDED, eta=eta),
            )
            for protocol in (g.RANDOM_PULL, g.SEQUENTIAL_PULL)
        },
        seeds=100,
    )
    violations = [
        f"{protocol} seed#{r['seed_index']}"
        for protocol, rows in grid.items()
        for r in rows
        if r["completion_slot"] is None or r["completion_slot"] > bound
    ]
    fraction = 1.0 - len(violations) / 200
    required = 0.999 * (1.0 - 1.0 / n)
    _report(
        6,
        [
            (
                not violations and fraction >= required,
                f"{len(violations)} of 200 runs exceeded bound {bound:.1f} "
                f"(fraction {fraction:.4f} < required {required:.6f})",
            )
        ],
    )


# ------------------------------------------------------------- criterion 7


def _gossip_clauses(n: int, curve: list, trajectories: list) -> dict:
    """Criterion 7 clauses: sampled single-message push gossip against the
    deterministic curve ``curve`` (rounds 0..R).  A trajectory that reached
    n before round R is read as n from then on.

    * reach: at most one sampled run is still at or below 0.9n at round R;
    * concentration: at every round 0..R, every sampled trajectory lies
      within 0.02n of the curve.
    """
    rounds = len(curve) - 1

    def at(traj, t):
        return traj[t] if len(traj) > t else traj[-1]

    hits = sum(at(traj, rounds) > 0.9 * n for traj in trajectories)
    dev, t_dev = max(
        (max(abs(at(traj, t) - curve[t]) for traj in trajectories), t)
        for t in range(rounds + 1)
    )
    return {
        "reach": (
            hits >= len(trajectories) - 1,
            f"only {hits}/{len(trajectories)} sampled runs cleared 0.9n "
            f"by round {rounds}",
        ),
        "concentration": (
            dev <= 0.02 * n,
            f"a sampled run lies {dev / n:.4f}n from the curve "
            f"at round {t_dev} > 0.02n",
        ),
    }


def test_criterion_07_single_message_gossip_concentration():
    n = 10**5
    up = math.ceil(1.1 * math.log2(n))  # 19 rounds
    rng = np.random.default_rng(MASTER)
    trajectories = [classical_gossip_sample(n, rng, max_rounds=up) for _ in range(100)]
    clauses = _gossip_clauses(n, deterministic_gossip(n, up), trajectories)
    _report(7, list(clauses.values()))


# ------------------------------------------------------------- criterion 8


def test_criterion_08_mean_map_inequalities():
    tol = 1e-9
    clauses = []
    for n in (10, 10**3, 10**6):
        rng = np.random.default_rng(MASTER + n)
        ys = np.sort(np.concatenate(([1.0, float(n)], rng.uniform(1.0, n, 10_000))))
        G = gossip_mean_map(ys, n)
        steps = np.diff(ys)
        jumps = np.diff(G)
        clauses.extend(
            [
                (bool(np.all(jumps >= -tol * n)), f"n={n}: map not monotone"),
                (
                    bool(np.all(np.abs(jumps) <= 2 * steps * (1 + tol) + tol * n)),
                    f"n={n}: map not 2-Lipschitz",
                ),
                (
                    bool(np.all(G >= 2 * ys * (1 - ys / n) - tol * n)),
                    f"n={n}: quadratic lower estimate violated",
                ),
                (
                    bool(np.all(n - G <= (n - ys) * np.exp(-ys / n) + tol * n)),
                    f"n={n}: exponential-residual upper estimate violated",
                ),
            ]
        )
    _report(8, clauses)


# ------------------------------------------------------------- criterion 9


def test_criterion_09_pull_climb_left_tail():
    n, k, eps = 1000, 145, 0.5
    rng = np.random.default_rng(MASTER)
    samples = np.array([geo_sum_sample(n, k, rng) for _ in range(10_000)])
    threshold = (1.0 - eps) * n * math.log(n)
    p_emp = float(np.mean(samples <= threshold))
    se = math.sqrt(max(p_emp * (1.0 - p_emp), 1e-12) / samples.size)
    limit = 0.0205 + 3.0 * se
    _report(
        9,
        [
            (
                p_emp <= limit,
                f"P[climb <= {threshold:.0f}] = {p_emp:.4f} exceeds {limit:.4f}",
            )
        ],
    )


# ------------------------------------------------------------ criterion 10


def test_criterion_10_engine_invariants_and_goldens():
    clauses = []

    def check(name, fn):
        try:
            fn()
            clauses.append((True, name))
        except AssertionError as exc:
            detail = str(exc).splitlines()[0] if str(exc) else name
            clauses.append((False, f"{name}: {detail}"))

    for name, (cfg, digest, completion, events) in GOLDEN.items():
        res = g.run(cfg)
        check(f"{name} trace audit", lambda r=res: audit_trace(r))
        if cfg.constraint == g.HARD:
            check(f"{name} occupancy doubling", lambda r=res: audit_occupancy_doubling(r))
        check(
            f"{name} golden digest",
            lambda r=res, d=digest, c=completion, e=events: (
                _expect(r.trace_hash == d, "digest changed"),
                _expect(r.completion_slot == c, "completion changed"),
                _expect(len(r.trace) == e, "event count changed"),
            ),
        )

    def prefix_property():
        res = g.run(
            g.SimulationConfig(
                n=20, k=6, protocol=g.SEQUENTIAL_PULL, seed=7, record_trace=True
            )
        )
        assert res.completed
        for u in range(1, 20):
            slots = list(res.arrivals[u])
            assert all(b > a for a, b in zip(slots, slots[1:])), "prefix order broken"

    def channel_separation():
        res = g.run(GOLDEN["interleave"][0])
        for e in res.trace:
            parity = e.slot % 2
            assert (e.kind == "push") == (parity == 1), "channel parity broken"

    check("ordered-pull prefix property", prefix_property)
    check("interleave channel separation", channel_separation)
    _report(10, clauses)


def _expect(ok: bool, message: str) -> None:
    assert ok, message

# ------------------------------------------- controls for criteria 4, 5, 7
#
# The clause helpers are pure, so each is fed synthetic data twice: the
# shape measured at master seed 1729 must pass, and a shape the paper rules
# out must fail.  This keeps a passing criterion from being vacuous.

ADVOCATE_NS = (128, 256, 512, 1024)
PULL_GRID_1729 = {  # criterion 5 completion slots at master seed 1729
    (64, 8): [55, 53, 65, 51, 56, 60, 55, 52, 63, 57],
    (64, 32): [195, 198, 207, 202, 199, 203, 214, 197, 195, 194],
    (256, 8): [70, 62, 71, 70, 62, 71, 70, 64, 69, 80],
    (256, 32): [251, 249, 256, 254, 253, 253, 246, 246, 244, 247],
    (1024, 8): [84, 85, 84, 80, 84, 79, 85, 84, 86, 81],
    (1024, 32): [297, 286, 292, 299, 295, 293, 306, 286, 299, 301],
}


def _all_pass(clauses: dict) -> bool:
    return all(ok for ok, _ in clauses.values())


@pytest.mark.parametrize(
    "early, excess",
    [
        # at master seed 1729 every run takes n - 1 or n slots; these many
        # of the 20 per cell take n - 1
        ({128: 2, 256: 10, 512: 4, 1024: 6}, lambda n: 0),
        ({n: 0 for n in ADVOCATE_NS}, lambda n: round(2 * math.log2(n))),
    ],
    ids=["measured", "log-excess"],
)
def test_advocate_clauses_accept_o_log_excess(early, excess):
    slots = {n: [n - 1] * e + [n + excess(n)] * (20 - e) for n, e in early.items()}
    assert _all_pass(_advocate_clauses(slots))


def test_advocate_trend_rejects_sqrt_excess():
    slots = {n: [n + round(math.sqrt(n))] * 20 for n in ADVOCATE_NS}
    ok, detail = _advocate_clauses(slots)["trend"]
    assert not ok, detail


def test_advocate_ceiling_rejects_excess_over_thm7():
    slots = {n: [n] * 19 + [n + math.ceil(3 * math.log(n))] for n in ADVOCATE_NS}
    clauses = _advocate_clauses(slots)
    assert not clauses["ceiling"][0]
    assert clauses["floor"][0] and clauses["trend"][0]


def test_advocate_clauses_record_unfinished_run():
    slots = {n: [n] * 20 for n in ADVOCATE_NS}
    slots[512][3] = None
    clauses = _advocate_clauses(slots)
    ok, detail = clauses["floor"]
    assert not ok and "n=512 seed#3 T=None" in detail
    assert clauses["ceiling"][0] and clauses["trend"][0]


def test_pull_clauses_accept_measured_shape():
    assert _all_pass(_pull_clauses(PULL_GRID_1729))


def test_pull_clauses_reject_ideal_scaling():
    # the centralised optimum, k + log2 n slots, is what pull cannot reach
    grid = {(n, k): [k + round(math.log2(n))] * 10 for n, k in PULL_GRID_1729}
    clauses = _pull_clauses(grid)
    assert not clauses["lower"][0]
    assert not clauses["growth"][0]


def test_gossip_clauses_accept_measured_spread():
    # sampled runs at master seed 1729 stay within 0.0065n of the curve
    n, rounds = 10**5, 19
    curve = deterministic_gossip(n, rounds)
    trajectories = [
        [min(n, max(1, round(y + d * n))) for y in curve] for d in (-0.0065, 0, 0.0065)
    ]
    assert _all_pass(_gossip_clauses(n, curve, trajectories))


def test_gossip_concentration_rejects_one_round_shift():
    n, rounds = 10**5, 19
    curve = deterministic_gossip(n, rounds + 1)
    ahead = [round(y) for y in curve[1:]]
    behind = [1] + [round(y) for y in curve[:rounds]]
    for traj in (ahead, behind):
        clauses = _gossip_clauses(n, curve[: rounds + 1], [traj] * 100)
        ok, detail = clauses["concentration"]
        assert not ok, detail
