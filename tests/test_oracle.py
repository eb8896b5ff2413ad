import numpy as np
import pytest

import friedrichs as fr

P0 = np.zeros(3)

# Frozen midpoint-grid threshold sums for the builtin phi = 1 model at
# p = 0 (z = M = 12).  The 1/N Richardson extrapolant of the (64, 128)
# pair is the reference the continuum quadrature is graded against; the
# normalised value R / ((2 pi)^3 / 2) is the simple-cubic lattice-sum
# constant ~ 0.5054620.
S64_REF = 62.150876025941
S128_REF = 62.420470511859
RICHARDSON_REF = 62.690064997778
W3_REF = 0.5054620


def test_threshold_sums_frozen(model_one, cp_one):
    s64, s128, rich = fr.richardson_omega_threshold(model_one, P0, cp_one.M)
    assert s64 == pytest.approx(S64_REF, abs=1e-8)
    assert s128 == pytest.approx(S128_REF, abs=1e-8)
    assert rich == pytest.approx(RICHARDSON_REF, abs=1e-7)
    w3 = rich / (0.5 * (2.0 * np.pi) ** 3)
    assert w3 == pytest.approx(W3_REF, abs=3e-6)


def test_richardson_needs_doubling_pair(model_one, cp_one):
    with pytest.raises(fr.InvalidInputError):
        fr.richardson_omega_threshold(model_one, P0, cp_one.M, (64, 96))


def test_secular_sequence_converges(model_one, cp_one, ev_one, mu_one):
    mu = 2.0 * mu_one
    e_cont = fr.solve_eigenvalue(model_one, P0, cp_one, mu, evaluator=ev_one)
    floor = fr.eigenvalue_error_estimate(model_one, P0, cp_one, mu, e_cont,
                                         evaluator=ev_one)
    rep = fr.convergence_report(model_one, P0, mu, [16, 32, 64], e_cont,
                                floor=floor)
    assert rep.trend_ok
    devs = [r[2] for r in rep.rows]
    # either genuine decrease or already at the continuum accuracy floor
    assert devs[-1] <= max(devs[0], rep.floor)
    assert devs[-1] / abs(e_cont) <= 3e-3


def test_secular_near_threshold_slow_but_decreasing(model_one, cp_one,
                                                    ev_one, mu_one):
    mu = 1.01 * mu_one
    e_cont = fr.solve_eigenvalue(model_one, P0, cp_one, mu, evaluator=ev_one)
    rep = fr.convergence_report(model_one, P0, mu, [16, 32, 64, 128], e_cont)
    devs = [r[2] for r in rep.rows]
    assert all(b < a for a, b in zip(devs, devs[1:]))  # strict decrease
    assert devs[0] > 1e-3  # visibly slow near the threshold
    assert rep.trend_ok


def test_tiny_coupling_has_no_root(model_one):
    for n in (16, 64):
        assert fr.secular_root(model_one, P0, 1e-6, n) is None


def test_huge_coupling_rank_one_dominates(model_one):
    mu = 1e4
    root = fr.secular_root(model_one, P0, mu, 16)
    ref = mu * (2.0 * np.pi) ** 3
    assert abs(root - ref) / ref <= 1e-3
    # cross-check against the dense eigensolver on the same matrix size
    dense = fr.dense_spectrum(model_one, P0, mu, 10)
    assert dense.spectrum_summary["max_eig"] == pytest.approx(
        dense.secular_root, abs=1e-10 * ref)


def test_secular_requires_even_grid(model_one):
    with pytest.raises(fr.InvalidInputError):
        fr.secular_root(model_one, P0, 0.03, 15)
    with pytest.raises(fr.InvalidInputError):
        fr.secular_root(model_one, P0, 0.03, 6)


def test_dense_matches_secular(model_one, mu_one):
    res = fr.dense_spectrum(model_one, P0, 2.0 * mu_one, 10)
    assert res.secular_root is not None
    assert res.spectrum_summary["max_eig"] == pytest.approx(
        res.secular_root, abs=1e-10)
    assert res.spectrum_summary["count_above_max_diag"] == 1


def test_dense_interlacing_and_positivity(model_one, mu_one):
    rng = np.random.default_rng(41)
    for _ in range(10):
        p = rng.uniform(-np.pi, np.pi, 3)
        mu = float(10.0 ** rng.uniform(-2.5, -0.5))
        res = fr.dense_spectrum(model_one, p, mu, 10)
        assert res.spectrum_summary["count_above_max_diag"] in (0, 1)
        assert (res.spectrum_summary["min_eig"]
                >= res.spectrum_summary["min_diag"] - 1e-10)


def test_secular_size_limit():
    from friedrichs.oracle import SECULAR_N_MAX, check_lattice_size

    check_lattice_size(SECULAR_N_MAX)
    with pytest.raises(fr.InvalidInputError, match="N <= 256"):
        check_lattice_size(258)


def test_dense_size_limit(model_one):
    with pytest.raises(fr.InvalidInputError):
        fr.dense_spectrum(model_one, P0, 0.03, 14)


def test_midpoint_shift_invariance(model_one, mu_one):
    mu = 2.0 * mu_one
    a = fr.secular_root(model_one, P0, mu, 64, offset=0.5)
    b = fr.secular_root(model_one, P0, mu, 64, offset=0.37)
    assert abs(a - b) <= 1e-6


def test_discrete_omega_matches_quadrature_off_threshold(model_one, cp_one,
                                                         ev_one):
    z = cp_one.M + 1.0
    disc = fr.discrete_omega(model_one, P0, z, 64)
    cont = ev_one.evaluate(z).value
    assert abs(disc - cont) / cont <= 1e-4


def test_discrete_omega_guards_nodes(model_one):
    # vertex grid puts nodes on the maximizer: the threshold sum must fail
    with pytest.raises(fr.InvalidInputError):
        fr.discrete_omega(model_one, P0, 12.0, 16, offset=0.0)


def test_convergence_report_csv(tmp_path, model_one, cp_one, ev_one, mu_one):
    mu = 2.0 * mu_one
    e_cont = fr.solve_eigenvalue(model_one, P0, cp_one, mu, evaluator=ev_one)
    rep = fr.convergence_report(model_one, P0, mu, [16, 32], e_cont,
                                floor=1e-6)
    out = tmp_path / "conv.csv"
    rep.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,root,abs_dev,rel_dev"
    assert len(lines) == 3
    n, root, adev, rdev = lines[1].split(",")
    assert int(n) == 16 and float(root) == rep.rows[0][1]


def test_secular_root_exceeds_max_diag(model_one, mu_one):
    from friedrichs.oracle import grid_values

    root = fr.secular_root(model_one, P0, 2.0 * mu_one, 32)
    w, _ = grid_values(model_one, P0, 32)
    assert root > w.max()


@pytest.mark.parametrize("n", [0, -1])
def test_dense_rejects_empty_lattice(model_one, n):
    with pytest.raises(fr.InvalidInputError):
        fr.dense_spectrum(model_one, P0, 0.03, n)


@pytest.mark.parametrize("n", [9, 11])
def test_dense_at_odd_n_skips_the_secular_root(model_one, n):
    res = fr.dense_spectrum(model_one, P0, 0.05, n)
    assert res.N == n
    assert res.secular_root is None
    assert res.spectrum_summary["matrix_size"] == n ** 3
