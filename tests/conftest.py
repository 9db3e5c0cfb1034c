import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scpm import build_index, load_graph

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def example_paths():
    return DATA / "example11.edges", DATA / "example11.attrs"


@pytest.fixture(scope="session")
def example_graph(example_paths):
    edges, attrs = example_paths
    with open(edges) as e, open(attrs) as a:
        return load_graph(e, a)


@pytest.fixture(scope="session")
def example_index(example_graph):
    return build_index(example_graph)


@pytest.fixture(scope="session")
def example_ids(example_graph):
    """Original-id <-> dense-id helpers plus attribute ids for the example graph."""
    d = example_graph.attribute_dictionary

    class Ids:
        A = d.id_for("A")
        B = d.id_for("B")
        C = d.id_for("C")

        @staticmethod
        def dense(orig):
            return example_graph.external_ids.index(orig)

        @staticmethod
        def dense_set(origs):
            return tuple(sorted(example_graph.external_ids.index(o) for o in origs))

        @staticmethod
        def orig(vs):
            return tuple(example_graph.external_ids[v] for v in vs)

    return Ids
