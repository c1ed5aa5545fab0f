import numpy as np
import pytest

from oscdmrg import ConvergenceError


@pytest.fixture
def fail_dmrg_solve(monkeypatch):
    """``fail_dmrg_solve(k)`` makes the k-th eigensolver call of the DMRG
    engine (1-based, counted over every run of the test) raise the
    solver's ConvergenceError, and returns the residual norms that error
    carries; the other calls solve as usual."""
    import oscdmrg.dmrg as dmrg_mod

    lowest_k = dmrg_mod.lowest_k

    def install(fail_at: int) -> np.ndarray:
        residuals = np.array([3e-4, 5e-4])
        calls = [0]

        def failing(*args, **kwargs):
            calls[0] += 1
            if calls[0] == fail_at:
                raise ConvergenceError("no convergence after 2000 matvecs",
                                       residual_norms=residuals.copy())
            return lowest_k(*args, **kwargs)

        monkeypatch.setattr(dmrg_mod, "lowest_k", failing)
        return residuals

    return install
