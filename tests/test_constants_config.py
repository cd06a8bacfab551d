"""Unit tests for constants and configuration objects."""

import pytest

from repro.config import ApproxParams
from repro.constants import (
    COULOMB_KCAL,
    EPSILON_SOLVENT,
    FOUR_PI,
    TAU_WATER,
    tau,
)


class TestConstants:
    def test_tau_water(self):
        assert TAU_WATER == pytest.approx(1.0 - 1.0 / 80.0)

    def test_tau_general(self):
        assert tau(2.0, 1.0) == pytest.approx(0.5)
        assert tau(80.0, 2.0) == pytest.approx(0.5 - 1.0 / 80.0)

    def test_tau_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tau(-1.0)
        with pytest.raises(ValueError):
            tau(80.0, 0.0)

    def test_four_pi(self):
        import math
        assert FOUR_PI == pytest.approx(4.0 * math.pi)

    def test_coulomb_constant_magnitude(self):
        # kcal·Å/(mol·e²): the standard MD electrostatics constant.
        assert 331.0 < COULOMB_KCAL < 333.0

    def test_epsilon_solvent_is_water(self):
        assert EPSILON_SOLVENT == 80.0


class TestApproxParams:
    def test_defaults_match_paper(self):
        p = ApproxParams()
        assert p.eps_born == 0.9
        assert p.eps_epol == 0.9
        assert not p.approx_math

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxParams(eps_born=0.0)
        with pytest.raises(ValueError):
            ApproxParams(eps_epol=-1.0)
        with pytest.raises(ValueError):
            ApproxParams(leaf_size=0)
        with pytest.raises(ValueError):
            ApproxParams(max_depth=0)
        with pytest.raises(ValueError):
            ApproxParams(max_depth=22)
        with pytest.raises(ValueError):
            ApproxParams(born_mac="fancy")

    def test_with_returns_modified_copy(self):
        p = ApproxParams()
        q = p.with_(eps_epol=0.3)
        assert q.eps_epol == 0.3
        assert p.eps_epol == 0.9
        assert q.eps_born == p.eps_born

    def test_hashable_for_caching(self):
        assert hash(ApproxParams()) == hash(ApproxParams())
        assert ApproxParams() == ApproxParams()
        assert ApproxParams(eps_born=0.5) != ApproxParams()
