import pytest


@pytest.fixture
def small_grids(monkeypatch):
    """A setter of norms._COSET_NODES, the largest grid that the power sum
    takes in one sample and the longest coset, so that small grids reach
    cosets, folded spectra and one-coset batches."""
    import zygmund.norms

    def cap(nodes):
        monkeypatch.setattr(zygmund.norms, "_COSET_NODES", nodes)

    return cap
