"""Cross-rank work-stealing simulator tests."""

import numpy as np
import pytest

from repro.cluster.workstealing import WorkStealingSim
from repro.parallel.partition import segment_bounds


def _sim(P=4, p=2, **kw):
    return WorkStealingSim(workers=p, ranks=P, seed=3, **kw)


class TestBasics:
    def test_empty(self):
        st = _sim().run([], [0, 0, 0, 0, 0])
        assert st.makespan == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkStealingSim(workers=1, ranks=0)
        with pytest.raises(ValueError):
            _sim().run([1.0], [0, 1])      # wrong number of segments
        with pytest.raises(ValueError):
            _sim().run([-1.0] * 4, [0, 1, 2, 3, 4])

    def test_deterministic_by_seed(self):
        costs = np.random.default_rng(0).exponential(1e-4, 800)
        b = segment_bounds(800, 4)
        a = _sim().run(costs, b)
        c = _sim().run(costs, b)
        assert a.makespan == c.makespan
        assert a.inter_steals == c.inter_steals


class TestBalancing:
    def test_rescues_pathological_imbalance(self):
        """All work lands on rank 0's segment; remote steals must pull
        the makespan far below the serial pile-up."""
        costs = np.concatenate([np.full(1000, 1e-4), np.zeros(3000)])
        bounds = segment_bounds(4000, 4)
        st = _sim().run(costs, bounds)
        serial = costs.sum()
        # 8 workers total; even with steal overheads we expect ≥ 4×.
        assert st.makespan < serial / 4
        assert st.inter_steals > 0

    def test_balanced_work_rarely_steals_remotely(self):
        costs = np.full(4000, 1e-4)
        bounds = segment_bounds(4000, 4)
        st = _sim().run(costs, bounds)
        ideal = costs.sum() / 8
        assert st.makespan < 1.3 * ideal
        # Remote traffic stays a small fraction of all steals.
        assert st.inter_steals <= max(10, st.steals)

    def test_makespan_bounds(self):
        rng = np.random.default_rng(5)
        costs = rng.exponential(1e-4, 2000)
        bounds = segment_bounds(2000, 4)
        st = _sim().run(costs, bounds)
        assert st.makespan >= costs.sum() / 8 - 1e-12
        assert st.total_work == pytest.approx(costs.sum())


class TestSimulateFig4Integration:
    def test_stealing_beats_count_on_skew(self, protein_medium):
        from repro.config import ApproxParams
        from repro.parallel import WorkProfile, simulate_fig4
        prof = WorkProfile.from_molecule(protein_medium, ApproxParams())
        count = simulate_fig4(prof, 12, 1, seed=2, noise_sigma=0.0,
                              segmenting="count").wall_seconds
        steal = simulate_fig4(prof, 12, 1, seed=2, noise_sigma=0.0,
                              segmenting="stealing").wall_seconds
        # Stealing recovers the static imbalance minus steal overheads.
        assert steal < 1.05 * count

    def test_unknown_segmenting_rejected(self, protein_small):
        from repro.config import ApproxParams
        from repro.parallel import WorkProfile, simulate_fig4
        prof = WorkProfile.from_molecule(protein_small, ApproxParams())
        with pytest.raises(ValueError):
            simulate_fig4(prof, 2, 1, segmenting="magic")
