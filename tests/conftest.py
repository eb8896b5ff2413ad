import mpmath
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
    bump-split scheme - at relative tolerance 1e-13 with no absolute floor,
    so that it can check the Laplace-Bessel route within the route's bar.
    """
    al = np.asarray(hopping, dtype=float) * np.cos(0.5 * np.asarray(p, dtype=float))

    def f(t):
        return np.exp(-t * delta) * i0e(2 * al[0] * t) * i0e(2 * al[1] * t) \
            * i0e(2 * al[2] * t)

    v1, _ = quad(f, 0.0, 60.0, limit=400, epsabs=0.0, epsrel=1e-13)
    v2, _ = quad(f, 60.0, np.inf, limit=400, epsabs=0.0, epsrel=1e-13)
    return (2.0 * np.pi) ** 3 * (v1 + v2)


def mp_laplace_omega(model, p, delta, power=1, dps=30):
    """int phi^2 / (M + delta - w_p)^power for a two_particle model, from
    the Laplace-Bessel integral in mpmath at dps digits.

    The Fourier modes of phi^2 come from an FFT of phi^2 on a 16^3 grid
    (exact: phi^2 has order <= 4 per axis), not from the production
    tables; the t-integral runs over [0, 1] and, in s = t^(-1/2), over
    [1, inf), with ive(n, x) from besseli(0), besseli(1) and the
    three-term recurrence at 15 extra digits.
    """
    n = 16
    ax = 2.0 * np.pi * np.arange(n) / n
    grid = tuple(np.meshgrid(ax, ax, ax, indexing="ij"))
    a = np.fft.fftn(np.broadcast_to(model.phi(grid), (n, n, n)) ** 2) / n ** 3
    with mpmath.workdps(dps):
        half = [mpmath.mpf(float(v)) / 2 for v in p]
        alpha = [mpmath.mpf(c) * abs(mpmath.cos(h))
                 for c, h in zip(model.hopping, half)]
        q0 = [h + (mpmath.pi if mpmath.cos(h) > 0 else 0) for h in half]
        coef = {}
        for idx in zip(*np.nonzero(np.abs(a) > 1e-13)):
            m = [int(i) if i < n // 2 else int(i) - n for i in idx]
            phase = mpmath.expj(sum(mi * qi for mi, qi in zip(m, q0)))
            key = tuple(abs(v) for v in m)
            coef[key] = coef.get(key, 0) + mpmath.re(
                mpmath.mpc(a[idx].real, a[idx].imag) * phase)
        top = [max(k[j] for k in coef) for j in range(3)]
        delta = mpmath.mpf(float(delta))

        def f(t):
            factors = []
            for j in range(3):
                x = 2 * alpha[j] * t
                with mpmath.extradps(15):
                    e = [mpmath.besseli(0, x) * mpmath.exp(-x),
                         mpmath.besseli(1, x) * mpmath.exp(-x)]
                    for k in range(1, top[j]):
                        e.append(e[k - 1] - 2 * k / x * e[k])
                factors.append(e)
            g = mpmath.fsum(c * factors[0][k[0]] * factors[1][k[1]]
                            * factors[2][k[2]] for k, c in coef.items())
            return mpmath.exp(-t * delta) * t ** (power - 1) * g

        body = mpmath.quad(f, [0, 0.25, 1])
        tail = mpmath.quad(lambda s: 2 * f(1 / s ** 2) / s ** 3,
                           [0, 0.01, 0.1, 0.3, 1])
        return float((2 * mpmath.pi) ** 3 * (body + tail))


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


def _entries(table):
    return [{"index": [int(v) for v in k], "value": float(c), "sin": float(s)}
            for k, c, s in zip(table.indices, table.cos, table.sin)]


def quadrature_twin(model):
    """The trig_poly model with the Fourier tables of a two_particle model:
    the same w and phi, answered by the split quadrature instead of the
    Laplace-Bessel route."""
    return fr.DispersionModel(fr.ModelConfig.from_dict({
        "family": "trig_poly", "w_table": _entries(model._w_block),
        "phi_table": _entries(model._phi)}))


def scaled_phi(model, factor):
    """A copy of the model with phi replaced by factor * phi."""
    d = model.config.to_dict()
    if d["family"] == "two_particle":
        d["phi"] = {k: ([factor * x for x in v] if isinstance(v, list)
                        else factor * v) for k, v in d["phi"].items()}
    else:
        d["phi_table"] = [
            {"index": e["index"],
             "value": factor * e.get("value", e.get("cos", 0.0)),
             "sin": factor * e.get("sin", 0.0)} for e in d["phi_table"]]
    return fr.DispersionModel(fr.ModelConfig.from_dict(d))


def mixed_model():
    """A two_particle model with sin1 and cos2 harmonics and anisotropic
    hopping (1, 1, 3)."""
    return fr.two_particle_model(hopping=(1.0, 1.0, 3.0), phi={
        "constant": 1.0, "sin1": [0.3, -0.2, 0.25],
        "cos2": [0.15, 0.1, -0.2]})


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
def twin_one(model_one):
    """model_one as trig_poly tables: Omega from the split quadrature."""
    return quadrature_twin(model_one)


@pytest.fixture(scope="session")
def cp_twin_one(twin_one):
    return fr.find_maximizer(twin_one, P0)


@pytest.fixture(scope="session")
def ev_twin_one(twin_one, cp_twin_one):
    return fr.OmegaEvaluator(twin_one, P0, cp_twin_one)


@pytest.fixture(scope="session")
def twin_vanishing(model_vanishing):
    return quadrature_twin(model_vanishing)


@pytest.fixture(scope="session")
def cp_twin_vanishing(twin_vanishing):
    return fr.find_maximizer(twin_vanishing, P0)


@pytest.fixture(scope="session")
def ev_twin_vanishing(twin_vanishing, cp_twin_vanishing):
    return fr.OmegaEvaluator(twin_vanishing, P0, cp_twin_vanishing)


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
