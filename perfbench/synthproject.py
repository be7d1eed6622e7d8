"""A seeded synthetic Python project for the lint-synth workload.

The project is laid out as ``src/repro/<package>/...`` so every lint
rule's default path scope applies, but it shares no code with the real
``src/``: its size and shape stay fixed while the program under test
changes.  It has per-package import chains, a hub module that every
other module imports, cross-module and cross-package calls, tolerant
float comparisons, seed-derived RNGs, locks and coroutines, and
(work, time)-named parameters, plus one planted violation of each rule
REP001-REP017 at a known (rule, path, line).
"""

from __future__ import annotations

import textwrap

import numpy as np

#: package -> modules in its import chain
PACKAGES = (("core", 45), ("baselines", 30), ("service", 30), ("analysis", 30), ("workloads", 30))
SMOKE_PACKAGES = (("core", 4), ("baselines", 2), ("service", 2), ("analysis", 2), ("workloads", 2))
#: function groups per module: 2, 3, 4 in turn by module index, so the
#: seed picks constants but not the project's shape (a seeded count moved
#: the cold-lint time by about 12% between seeds)
GROUPS = (2, 3, 4)
HUB = "src/repro/core/tolerance.py"

HUB_SOURCE = '''\
"""Tolerance helpers: every generated module imports this hub."""

from __future__ import annotations

EPS: float = 1e-9


def leq(a: float, b: float, *, eps: float = EPS) -> bool:
    """Tolerant a <= b, relative to magnitude."""
    return a <= b + eps * max(1.0, abs(a), abs(b))  # repro: noqa[REP001]


def geq(a: float, b: float, *, eps: float = EPS) -> bool:
    """Tolerant a >= b."""
    return leq(b, a, eps=eps)


def hub_version() -> int:
    return 1
'''


def _group(pkg: str, i: int, k: int, c: int) -> str:
    """One group of functions; each package adds its own idiom."""
    body = f'''

def fits_{i}_{k}(demand: float, supply: float) -> bool:
    """Tolerant admission of one demand against a supply."""
    return leq(demand, supply * {c}.0)


def tally_{i}_{k}(values: list[int]) -> int:
    total = 0
    for v in values:
        total = total + v * {c}
    return total


def label_{i}_{k}(name: str) -> str:
    parts = [name, str({c})]
    return "-".join(sorted(parts))


def scaled_{i}_{k}(wcet: float, speed: float) -> float:
    """Execution time of a work amount on a machine of some speed."""
    return wcet / speed
'''
    if pkg == "service":
        body += f'''

_LOCK_{i}_{k} = threading.Lock()
_STATE_{i}_{k}: dict[str, int] = {{}}


def record_{i}_{k}(key: str) -> None:
    with _LOCK_{i}_{k}:
        _STATE_{i}_{k}[key] = _STATE_{i}_{k}.get(key, 0) + {c}


async def poll_{i}_{k}(key: str) -> int:
    await asyncio.sleep(0)
    return len(key) + {c}
'''
    elif pkg == "workloads":
        body += f'''

def draw_{i}_{k}(seed: int, n: int) -> list[float]:
    rng = np.random.default_rng(seed + {c})
    return [float(x) for x in rng.random(n)]
'''
    elif pkg == "analysis":
        body += f'''

def trial_{i}_{k}(point: int) -> int:
    return point * {c}


def campaign_{i}_{k}(points: list[int]) -> list[int]:
    return list(run_trials(trial_{i}_{k}, points).records)
'''
    return body


def _module(pkg: str, i: int, rng: np.random.Generator) -> str:
    head = [f'"""Generated module repro.{pkg}.m{i:03d}."""', "", "from __future__ import annotations", ""]
    if pkg == "service":
        head += ["import asyncio", "import threading", ""]
    if pkg == "workloads":
        head += ["import numpy as np", ""]
    head.append("from repro.core.tolerance import geq, leq")
    if i > 0:
        head.append(f"from repro.{pkg}.m{i - 1:03d} import step_{i - 1}")
    if pkg != "core":
        head.append(f"from repro.core.m{i % 10:03d} import fits_{i % 10}_0")
    if pkg == "analysis":
        head.append("from repro.runner.executor import run_trials")
    weight = int(rng.integers(1, 97))
    chain = f"step_{i - 1}(count)" if i > 0 else "count"
    text = "\n".join(head) + f'''

WEIGHT_{i} = {weight}


def step_{i}(count: int) -> int:
    """One link of the package's import chain."""
    return {chain} + WEIGHT_{i}


def guard_{i}(demand: float, supply: float) -> bool:
    return geq(supply, demand)
'''
    if pkg != "core":
        text += f'''

def delegate_{i}(demand: float, supply: float) -> bool:
    return fits_{i % 10}_0(demand, supply)
'''
    for k in range(GROUPS[i % len(GROUPS)]):
        text += _group(pkg, i, k, int(rng.integers(2, 50)))
    return text


def _dedent(source: str) -> str:
    return textwrap.dedent(source).lstrip("\n")


#: (rule, path the finding is reported in, 1-based line, {path: source})
PLANTED: tuple[tuple[str, str, int, dict[str, str]], ...] = (
    ("REP001", "src/repro/core/planted_a.py", 3, {"src/repro/core/planted_a.py": _dedent('''
        def over(load: float, cap: float) -> bool:
            spare = cap - load
            return load <= cap
        ''')}),
    ("REP002", "src/repro/workloads/planted_b.py", 5, {"src/repro/workloads/planted_b.py": _dedent('''
        import numpy as np


        def unseeded():
            gen = np.random.default_rng()
            return gen.random()
        ''')}),
    ("REP003", "src/repro/experiments/planted_c.py", 5, {"src/repro/experiments/planted_c.py": _dedent('''
        import time


        def now_stamp() -> float:
            return time.time()
        ''')}),
    ("REP004", "src/repro/baselines/planted_d.py", 4, {"src/repro/baselines/planted_d.py": _dedent('''
        def summed(utils):
            acc = 0.0
            for u in utils:
                acc += u
            return acc
        ''')}),
    ("REP005", "src/repro/io_/planted_e.py", 3, {"src/repro/io_/planted_e.py": _dedent('''
        def ordered(ids: set):
            out = []
            for x in ids:
                out.append(x)
            return out
        ''')}),
    ("REP006", "src/repro/service/planted_f.py", 6, {"src/repro/service/planted_f.py": _dedent('''
        class Table:
            def __init__(self):
                self._rows = {}

            def insert(self, key, value):
                self._rows[key] = value
        ''')}),
    ("REP007", "src/repro/core/planted_g.py", 5, {
        "src/repro/core/planted_g_src.py": _dedent('''
            def need(tasks, span) -> float:
                return 0.25 * span
            '''),
        "src/repro/core/planted_g.py": _dedent('''
            from repro.core.planted_g_src import need


            def room(tasks, span, cap: float) -> bool:
                return need(tasks, span) <= cap
            '''),
    }),
    ("REP008", "src/repro/workloads/planted_h.py", 7, {
        "src/repro/workloads/planted_h_src.py": _dedent('''
            def name_seed(name):
                return hash(name)
            '''),
        "src/repro/workloads/planted_h.py": _dedent('''
            import numpy as np

            from repro.workloads.planted_h_src import name_seed


            def stream(name):
                return np.random.default_rng(name_seed(name))
            '''),
    }),
    ("REP009", "src/repro/experiments/e02_orphan.py", 1, {
        "src/repro/experiments/__init__.py": "from . import e01_wired  # noqa: F401\n",
        "src/repro/experiments/e01_wired.py": "WIRED = True\n",
        "src/repro/experiments/e02_orphan.py": "WIRED = True\n",
    }),
    ("REP010", "src/repro/service/planted_j_src.py", 8, {
        "src/repro/service/planted_j_src.py": _dedent('''
            import threading

            _GUARD = threading.Lock()
            _COUNTS = {}


            def incr(key):
                _COUNTS[key] = _COUNTS.get(key, 0) + 1


            def guarded_incr(key):
                with _GUARD:
                    incr(key)
            '''),
        "src/repro/service/planted_j.py": _dedent('''
            from repro.service.planted_j_src import incr


            def on_request(key):
                incr(key)
            '''),
    }),
    ("REP011", "src/repro/core/planted_k.py", 7, {
        "src/repro/core/planted_k_src.py": _dedent('''
            _TRAIL = []


            def note(value):
                _TRAIL.append(value)
                return value
            '''),
        "src/repro/core/planted_k.py": _dedent('''
            from functools import lru_cache

            from repro.core.planted_k_src import note


            @lru_cache(maxsize=None)
            def memo_note(value):
                return note(value)
            '''),
    }),
    ("REP012", "src/repro/service/planted_l.py", 5, {
        "src/repro/service/planted_l_src.py": _dedent('''
            import time


            def nap():
                time.sleep(0.01)
            '''),
        "src/repro/service/planted_l.py": _dedent('''
            from repro.service.planted_l_src import nap


            async def tick():
                nap()
            '''),
    }),
    ("REP013", "src/repro/analysis/planted_m.py", 6, {
        "src/repro/analysis/planted_m_src.py": _dedent('''
            _LOG = []


            def visit(point):
                _LOG.append(point)
                return point
            '''),
        "src/repro/analysis/planted_m.py": _dedent('''
            from repro.analysis.planted_m_src import visit
            from repro.runner.executor import run_trials


            def sweep(points):
                return run_trials(visit, points)
            '''),
    }),
    ("REP014", "src/repro/core/planted_n.py", 5, {
        "src/repro/core/planted_n_src.py": _dedent('''
            def util_sum(tasks):
                return sum(t.utilization for t in tasks)
            '''),
        "src/repro/core/planted_n.py": _dedent('''
            from repro.core.planted_n_src import util_sum


            def leftover(tasks, deadline):
                return deadline - util_sum(tasks)
            '''),
    }),
    ("REP015", "src/repro/core/planted_o.py", 5, {
        "src/repro/core/planted_o_src.py": _dedent('''
            def last_deadline(tasks):
                return max(t.deadline for t in tasks)
            '''),
        "src/repro/core/planted_o.py": _dedent('''
            from repro.core.planted_o_src import last_deadline


            def inside(tasks, x):
                return x < last_deadline(tasks) - 1e-9
            '''),
    }),
    ("REP016", "src/repro/core/planted_p.py", 5, {
        "src/repro/core/planted_p_src.py": _dedent('''
            def accept(utilization, speed):
                return utilization <= speed
            '''),
        "src/repro/core/planted_p.py": _dedent('''
            from repro.core.planted_p_src import accept


            def probe(task):
                return accept(task.period, 1.0)
            '''),
    }),
    ("REP017", "src/repro/core/planted_q.py", 5, {
        "src/repro/core/planted_q_src.py": _dedent('''
            def work_sum(tasks):
                return sum(t.wcet for t in tasks)
            '''),
        "src/repro/core/planted_q.py": _dedent('''
            from repro.core.planted_q_src import work_sum


            def overloaded(tasks, horizon):
                return work_sum(tasks) > horizon
            '''),
    }),
)


def generate(seed: int, smoke: bool = False) -> tuple[dict[str, str], list[tuple[str, str, int]], list[str]]:
    """(files by relative path, planted (rule, path, line), leaf paths).

    A leaf is the end of a package's import chain: no module imports it
    (the cross-package imports stop at ``core.m009``).
    """
    rng = np.random.default_rng((seed, 7))
    files: dict[str, str] = {HUB: HUB_SOURCE, "src/repro/__init__.py": ""}
    leaves = []
    for pkg, count in SMOKE_PACKAGES if smoke else PACKAGES:
        files[f"src/repro/{pkg}/__init__.py"] = ""
        for i in range(count):
            files[f"src/repro/{pkg}/m{i:03d}.py"] = _module(pkg, i, rng)
        leaves.append(f"src/repro/{pkg}/m{count - 1:03d}.py")
    for pkg in ("io_", "experiments"):
        files.setdefault(f"src/repro/{pkg}/__init__.py", "")
    for _, _, _, sources in PLANTED:
        files.update(sources)
    return files, sorted((rule, path, line) for rule, path, line, _ in PLANTED), leaves


def edit(source: str, generation: int) -> str:
    """A one-module edit that changes the module's content hash but not
    its findings: a trailing constant."""
    return source + f"\nEDIT_GENERATION = {generation}\n"
