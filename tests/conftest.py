import random
import signal

import pytest

from pbtsim.credit import credit
from pbtsim.graph import CreditGraph

TEST_TIME_LIMIT_S = 600  # about 8x the slowest test


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S, so a hang is reported
    as a failure instead of stopping the suite."""
    def expire(signum, frame):
        pytest.fail(f"test ran past its {TEST_TIME_LIMIT_S} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def line_graph():
    """A - B - C, every direction weight 10."""
    g = CreditGraph()
    for u, v in ((0, 1), (1, 2)):
        g.set_link(u, v, credit(10))
        g.set_link(v, u, credit(10))
    return g


@pytest.fixture
def star_graph():
    """Hub 0 with bidirectional spokes to 1..4, weight 10 each way."""
    g = CreditGraph()
    for leaf in range(1, 5):
        g.set_link(0, leaf, credit(10))
        g.set_link(leaf, 0, credit(10))
    return g


def bi_link(g, u, v, w=10):
    """Link u and v both ways, w whole units each."""
    g.set_link(u, v, credit(w))
    g.set_link(v, u, credit(w))


def random_graph(n: int, extra_edges: int, seed: int, wmin=1, wmax=50) -> CreditGraph:
    """Connected random graph: a random tree plus extra bidirectional links."""
    rnd = random.Random(seed)
    g = CreditGraph()
    g.add_node(0)
    for v in range(1, n):
        p = rnd.randrange(v)
        g.set_link(v, p, credit(rnd.randint(wmin, wmax)))
        g.set_link(p, v, credit(rnd.randint(wmin, wmax)))
    for _ in range(extra_edges):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v and v not in g.neighbors(u):
            g.set_link(u, v, credit(rnd.randint(wmin, wmax)))
            g.set_link(v, u, credit(rnd.randint(wmin, wmax)))
    return g


def unreachable_target(g: CreditGraph) -> int:
    """A max_flow target no flow in g can reach: its total weight plus one."""
    return sum(weight for weight, _ in g._links.values()) + 1


# ---- acceptance reporting ----------------------------------------------------

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_acceptance(name: str, outcome: str) -> None:
    _ACCEPTANCE_RESULTS[name] = outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{_ACCEPTANCE_RESULTS[name]:4s} {name}")
