import pytest

from .corpus import (
    all_connected_graphs_upto,
    all_labeled_connected_graphs_upto,
)


@pytest.mark.parametrize(
    "nmax, classes, labeled",
    [(1, 1, 1), (2, 2, 2), (3, 4, 6), (4, 10, 44), (5, 31, 772)],
)
def test_corpus_counts(nmax, classes, labeled):
    # connected graphs on up to nmax nodes: one per isomorphism class
    # (OEIS A001349, summed) versus every labeled graph (A001187, summed)
    assert len(all_connected_graphs_upto(nmax)) == classes
    assert len(all_labeled_connected_graphs_upto(nmax)) == labeled


def test_every_representative_is_connected_and_labeled_in_the_full_list():
    labeled = {
        (g.n, g.adjacency) for g in all_labeled_connected_graphs_upto(5)
    }
    for g in all_connected_graphs_upto(5):
        assert g.is_connected()
        assert (g.n, g.adjacency) in labeled
