import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e

import friedrichs as fr

P0 = np.zeros(3)


def bessel_omega(delta, hopping=(1.0, 1.0, 1.0), p=(0.0, 0.0, 0.0)):
    """Independent reference for the builtin family with phi = 1.

    With alpha_i = c_i cos(p_i / 2) the band-edge denominator separates as
    M(p) - w_p = sum_i 2 alpha_i (1 - cos s_i), so

        int_{T^3} ds / (delta + M - w_p)
            = (2 pi)^3 int_0^inf e^{-t delta} prod_i i0e(2 alpha_i t) dt.

    This reduces the torus integral to a 1-D Bessel integral evaluated by
    adaptive quadrature - a completely different route from the production
    bump-split scheme.
    """
    al = np.asarray(hopping, dtype=float) * np.cos(0.5 * np.asarray(p, dtype=float))

    def f(t):
        return np.exp(-t * delta) * i0e(2 * al[0] * t) * i0e(2 * al[1] * t) \
            * i0e(2 * al[2] * t)

    v1, _ = quad(f, 0.0, 60.0, limit=400)
    v2, _ = quad(f, 60.0, np.inf, limit=400)
    return (2.0 * np.pi) ** 3 * (v1 + v2)


# the off-axis trig_poly model of the fresh_fibers benchmark workload
OFF_AXIS_CONFIG = {
    "family": "trig_poly",
    "w_table": [{"index": [0, 0, 0], "value": 3.0},
                {"index": [1, 0, 0], "value": -1.0},
                {"index": [0, 1, 0], "value": -1.0},
                {"index": [0, 0, 1], "value": -1.0},
                {"index": [1, 1, 0], "value": 0.08},
                {"index": [0, 1, 1], "value": -0.06}],
    "phi_table": [{"index": [0, 0, 0], "value": 1.0},
                  {"index": [1, 0, 1], "value": 0.2, "sin": 0.1}],
}


def model_kinds():
    """phi = 1, the vanishing phi and the off-axis trig_poly, by name."""
    return {
        "one": fr.two_particle_model(),
        "vanishing": fr.two_particle_model(
            phi={"constant": 3.0, "cos1": [1.0, 1.0, 1.0]}),
        "off_axis": fr.DispersionModel(
            fr.ModelConfig.from_dict(OFF_AXIS_CONFIG)),
    }


@pytest.fixture(scope="session")
def bessel_ref():
    return bessel_omega


@pytest.fixture(scope="session")
def model_one():
    """Builtin simple-cubic model with phi = 1."""
    return fr.two_particle_model()


@pytest.fixture(scope="session")
def model_vanishing():
    """phi(q) = sum_i (1 + cos q_i): vanishes at the p=0 maximizer."""
    return fr.two_particle_model(
        phi={"constant": 3.0, "cos1": [1.0, 1.0, 1.0]})


@pytest.fixture(scope="session")
def cp_one(model_one):
    return fr.find_maximizer(model_one, P0)


@pytest.fixture(scope="session")
def ev_one(model_one, cp_one):
    return fr.OmegaEvaluator(model_one, P0, cp_one)


@pytest.fixture(scope="session")
def mu_one(model_one, cp_one, ev_one):
    return fr.coupling_threshold(model_one, P0, cp_one, evaluator=ev_one)


@pytest.fixture(scope="session")
def cp_vanishing(model_vanishing):
    return fr.find_maximizer(model_vanishing, P0)


@pytest.fixture(scope="session")
def ev_vanishing(model_vanishing, cp_vanishing):
    return fr.OmegaEvaluator(model_vanishing, P0, cp_vanishing)


@pytest.fixture
def threshold_evaluations(monkeypatch):
    """List that gains one entry per computation of Omega at z = M(p): each
    refinement loop of evaluate starts with the level-0 reduction, while
    an evaluate answered from the evaluator's cache reduces nothing."""
    calls = []
    value_at_level = fr.OmegaEvaluator.value_at_level

    def counting(self, z, level):
        if z == self.M and level == 0:
            calls.append(z)
        return value_at_level(self, z, level)

    monkeypatch.setattr(fr.OmegaEvaluator, "value_at_level", counting)
    return calls
