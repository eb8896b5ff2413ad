import ast
import gc
import pathlib
import tracemalloc

import numpy as np
import pytest

import friedrichs as fr
from conftest import model_kinds
from friedrichs.cli import _write_csv
from friedrichs.oracle import EDGE_RESOLUTION_FRACTION, _lattice, _secular_det
from friedrichs.roots import brentq
from friedrichs.torus import grid_axis, tensor_grid

P0 = np.zeros(3)
P1 = np.array([0.7, -0.3, 1.1])
KINDS = ("one", "vanishing", "off_axis")

def _imports_oracle(node):
    if isinstance(node, ast.Import):
        return any(a.name == "friedrichs.oracle" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module in ("oracle", "friedrichs.oracle"):
            return True
        return (module in ("", "friedrichs")
                and any(a.name == "oracle" for a in node.names))
    return False


def test_only_the_cli_imports_the_oracle():
    # the oracle is the independent truth of the production path: no
    # module that computes an answer may read it
    package = pathlib.Path(fr.__file__).parent
    importers = sorted(
        path.name for path in package.glob("*.py")
        if any(_imports_oracle(node)
               for node in ast.walk(ast.parse(path.read_text()))))
    assert importers == ["__init__.py", "cli.py"]


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
    _write_csv(out, rep.columns, rep.rows)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,root,abs_dev,rel_dev"
    assert len(lines) == 3
    n, root, adev, rdev = lines[1].split(",")
    assert int(n) == 16 and float(root) == rep.rows[0][1]


def test_secular_root_exceeds_max_diag(model_one, mu_one):
    root = fr.secular_root(model_one, P0, 2.0 * mu_one, 32)
    w, _ = _lattice(model_one, P0, 32)
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


def test_secular_root_frees_its_arrays_without_cycle_collection(model_one,
                                                                mu_one):
    mu = 2.0 * mu_one
    fr.secular_root(model_one, P0, mu, 64)  # warm numpy's caches
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        root = fr.secular_root(model_one, P0, mu, 64)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert root is not None
    assert peak - start > 8 * 64 ** 3       # one N^3 float array at least
    assert end - start < 64 * 1024          # and none of them kept


def grid_values(model, p, N, offset=0.5):
    """(w, phi) both materialised and flattened over the N^3 grid: the
    full-array reference for the oracle's lattice helper."""
    grid = tensor_grid(grid_axis(N, offset))
    w = np.broadcast_to(model.w(p, grid), (N, N, N))
    phi = np.broadcast_to(model.phi(grid), w.shape)
    return w.ravel(), phi.ravel()


def full_secular_det(z, mu_h3, w, phi):
    """The secular determinant through the full N^3 temporary z - w."""
    d = z - w
    return 1.0 - mu_h3 * np.divide(phi * phi, d, out=d).sum()


def reference_secular_root(model, p, mu, N, offset=0.5):
    """secular_root with full N^3 temporaries at every step and a gathered
    gap check: the reference for the streamed routine."""
    w, phi = grid_values(model, p, N, offset)
    phi2 = phi * phi
    h3 = (2.0 * np.pi / N) ** 3
    w_max = float(np.max(w))
    below = w[w < w_max - 1e-13 * max(1.0, abs(w_max))]
    gap = float(w_max - np.max(below)) if below.size else 0.0
    spread = float(w_max - np.min(w))
    z_lo = w_max + max(EDGE_RESOLUTION_FRACTION * gap,
                       64.0 * np.finfo(float).eps * max(1.0, abs(w_max)))

    def det(z):
        d = z - w
        return 1.0 - mu * h3 * np.divide(phi2, d, out=d).sum()

    if det(z_lo) >= 0.0:
        return None
    z_hi = z_lo + mu * h3 * float(np.sum(phi2)) + max(spread, 1.0)
    return brentq(det, z_lo, z_hi, args=(), xtol=1e-13,
                  rtol=4.0 * np.finfo(float).eps, maxiter=200)


def _threshold_coupling(model, p, N=64):
    """1 / (discrete threshold sum at N): the lattice's own mu(p)."""
    return 1.0 / fr.discrete_omega(model, p, fr.find_maximizer(model, p).M, N)


@pytest.mark.parametrize("N", [10, 42, 64, 128])
@pytest.mark.parametrize("name", KINDS)
def test_streamed_secular_det_equals_full_temporary(name, N):
    # N = 10 is one block; the 74,088 nodes of N = 42 split off plane
    # boundaries, so an off-axis phi^2 must be flattened to match
    model = model_kinds()[name]
    w, phi = grid_values(model, P1, N)
    w_s, phi_s = _lattice(model, P1, N, 0.5)
    assert np.array_equal(w_s, w)
    assert (phi_s.ndim == 0) == (name == "one")
    assert np.array_equal(np.broadcast_to(phi_s, w.shape), phi)
    phi2 = np.multiply(phi_s, phi_s, out=phi_s)  # as the oracle squares it
    mu_h3 = 0.37 * (2.0 * np.pi / N) ** 3
    for dz in (1e-9, 1e-3, 0.1, 1.0, 30.0):
        z = float(w.max()) + dz
        assert _secular_det(z, mu_h3, phi2, w_s) == full_secular_det(
            z, mu_h3, w, phi)


@pytest.mark.parametrize("name", KINDS)
def test_secular_roots_equal_the_full_temporary_routine(name):
    model = model_kinds()[name]
    for p in (P0, P1, np.array([2.1, -1.4, 0.4])):
        mu_N = _threshold_coupling(model, p)
        for ratio in (0.5, 1.2, 3.0):
            for N in (16, 42, 64, 128):
                got = fr.secular_root(model, p, ratio * mu_N, N)
                ref = reference_secular_root(model, p, ratio * mu_N, N)
                assert got == ref, (p, ratio, N)


@pytest.mark.parametrize("name", KINDS)
def test_discrete_omega_equals_full_temporary_sum(name):
    model = model_kinds()[name]
    M = fr.find_maximizer(model, P1).M
    for N in (42, 64, 128):
        w, phi = grid_values(model, P1, N)
        for z in (M, M + 0.5):
            ref = (2.0 * np.pi / N) ** 3 * float(np.sum(phi * phi / (z - w)))
            assert fr.discrete_omega(model, P1, z, N) == ref


@pytest.mark.parametrize("name", KINDS)
def test_secular_root_peak_memory(name):
    # the routine with full temporaries peaked at 5.0 N^3 float arrays;
    # the streamed one at 2.0 (phi = 1), 2.3 (vanishing) and 3.1 (off-axis),
    # and at 2.0, 2.3 and 2.3 once the model adds its terms and its p - q
    # table in place
    model = model_kinds()[name]
    mu = 2.0 * _threshold_coupling(model, P1)
    fr.secular_root(model, P1, mu, 64)  # warm numpy's caches
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        root = fr.secular_root(model, P1, mu, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert root is not None
    assert peak - start <= 2.5 * 8 * 64 ** 3


@pytest.mark.parametrize("name", KINDS)
def test_dense_spectrum_eigenvalues_equal_the_summed_matrix(name,
                                                            monkeypatch):
    model = model_kinds()[name]
    N, mu = 10, 1.5 * _threshold_coupling(model, P1)
    w, phi = grid_values(model, P1, N)
    h3 = (2.0 * np.pi / N) ** 3
    ref = np.linalg.eigvalsh(np.diag(w) + mu * h3 * np.outer(phi, phi))
    eigvalsh, seen = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda H: seen.append(eigvalsh(H)) or seen[-1])
    res = fr.dense_spectrum(model, P1, mu, N)
    assert len(seen) == 1 and np.array_equal(seen[0], ref)
    assert res.spectrum_summary["min_eig"] == ref[0]
    assert res.spectrum_summary["max_eig"] == ref[-1]
