import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import all_trees, connected_graphs_up_to


@pytest.fixture(scope="session")
def small_trees():
    """All non-isomorphic trees, orders 1..10."""
    return {n: all_trees(n) for n in range(1, 11)}


@pytest.fixture(scope="session")
def connected_graph_atlas():
    """All non-isomorphic connected graphs, orders 1..8, with count audit."""
    levels = connected_graphs_up_to(8)
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
    for n, count in expected.items():
        assert len(levels[n]) == count, f"connected graph count off at n={n}"
    return levels


@pytest.fixture
def gc_state():
    """Lets a test turn the cyclic collector on or off, and restores the
    state it found afterwards."""
    was_on = gc.isenabled()
    yield
    (gc.enable if was_on else gc.disable)()
