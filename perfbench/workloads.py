"""The four benchmark workloads: inputs, set-up, the timed op and its checks.

Each workload turns the seed into its inputs, builds its state in
`setup` (timed as set-up), runs one op per input in `op` (timed), and
grades each result in `check` (untimed).  A check returns the number of
answers the op asked the program for, how many of them failed (a typed
error or a failed check) and the check failures themselves.  Ops call only
public functions and methods of the library.
"""

import csv
import io
import os
import shutil
import subprocess
import sys

import numpy as np

import friedrichs as fr
from reference import band_top, bessel_det, bessel_omega

P_MAX = 2.8          # |p_i| bound of fresh_fibers and lattice_oracle (one cost regime)
ZONE_EDGE = 3.14159  # sweep end point, just inside the zone boundary p1 = pi
ORACLE_LADDER = (32, 64, 128)
DENSE_N = 10
TAU0_REL_TOL = 1e-2  # the test suite's tolerance on tau0_fit

# phi = 1 (Bessel reference), phi vanishing at the p = 0 maximizer
# (phi(q0) = 3 - sum cos(p_i/2)), and a trig_poly model with off-axis
# harmonics whose phi >= 1 - sqrt(0.05) > 0 never vanishes.
MODEL_CONFIGS = {
    "phi_one": {"family": "two_particle", "hopping": [1.0, 1.0, 1.0],
                "phi": {"constant": 1.0}},
    "phi_vanishing": {"family": "two_particle", "hopping": [1.0, 1.0, 1.0],
                      "phi": {"constant": 3.0, "cos1": [1.0, 1.0, 1.0]}},
    "off_axis": {
        "family": "trig_poly",
        "w_table": [{"index": [0, 0, 0], "value": 3.0},
                    {"index": [1, 0, 0], "value": -1.0},
                    {"index": [0, 1, 0], "value": -1.0},
                    {"index": [0, 0, 1], "value": -1.0},
                    {"index": [1, 1, 0], "value": 0.08},
                    {"index": [0, 1, 1], "value": -0.06}],
        "phi_table": [{"index": [0, 0, 0], "value": 1.0},
                      {"index": [1, 0, 1], "value": 0.2, "sin": 0.1}]},
}
MODEL_ORDER = ("phi_one", "phi_vanishing", "off_axis")
# warm_couplings runs on fixed fibres, ROADMAP item 1's generic p, and the
# seed draws the couplings.  Whether a near-threshold second moment needs
# level 2 depends on p: with seeded p, level-2 builds and reductions landed
# in the ops of some seeds only.  At these fibres no op of either stratum
# needs level 2, so priming levels 0 and 1 keeps every build out of the ops.
WARM_FIBRES = (("phi_one", (0.7, -0.3, 1.1)), ("phi_vanishing", (0.7, -0.3, 1.1)))
N_INPUTS = 4000  # longer than any run can consume


def build_models():
    return {name: fr.DispersionModel(fr.ModelConfig.from_dict(cfg))
            for name, cfg in MODEL_CONFIGS.items()}


def _ok(problems, shortfalls=()):
    """One answer: failed if a check found it wrong (`problems`) or found
    its reported error bar too small (`shortfalls`)."""
    return {"answers": 1, "failed": 1 if problems or shortfalls else 0,
            "problems": problems, "shortfalls": list(shortfalls)}


def _bessel_root_check(mu, p, energy, err):
    """The Bessel determinant, within its own error, changes sign within
    err of energy."""
    lo, lo_err = bessel_det(mu, p, max(energy - err, band_top(p)))
    hi, hi_err = bessel_det(mu, p, energy + err)
    return lo <= lo_err and hi >= -hi_err


def _check_phi_one_energy(mu, p, energy, err, rel_tol, problems, shortfalls):
    """E against the Bessel route: the determinant at E within the
    quadrature tolerance (a wrong E otherwise), and its sign change within
    the reported error err of E (an error bar too small otherwise)."""
    det, det_err = bessel_det(mu, p, energy)
    if not abs(det) <= rel_tol + det_err:
        problems.append("E %.15g leaves the Bessel determinant at %.3g, "
                        "beyond rel_tol %.1g" % (energy, det, rel_tol))
    if not _bessel_root_check(mu, p, energy, err):
        shortfalls.append("E %.15g does not zero the Bessel determinant "
                          "within its error estimate %.3g" % (energy, err))


def _check_phi_one_omega(what, om, delta, p, rel_tol, problems, shortfalls):
    """One Omega value against the Bessel route.  Off by more than the
    quadrature tolerance rel_tol * |bessel| is a wrong answer; off by more
    than its own estimated_error is an error bar too small.  The
    reference's own error bound is added to both.  Returns the relative
    error and the error over the estimate."""
    ref, ref_err = bessel_omega(delta, p)
    dev = abs(om.value - ref)
    if not dev <= rel_tol * ref + ref_err:
        problems.append("%s %.12g vs Bessel %.12g beyond rel_tol %.1g"
                        % (what, om.value, ref, rel_tol))
    if not dev <= om.estimated_error + ref_err:
        shortfalls.append("%s %.12g vs Bessel %.12g beyond its estimated_error "
                          "%.3g" % (what, om.value, ref, om.estimated_error))
    return {"bessel_rel_err": dev / ref,
            "err_over_estimate": dev / om.estimated_error}


class FreshFibers:
    """One cold fibre per op: critical point, evaluator, analyze, classify."""

    name = "fresh_fibers"
    min_ops = 1
    round_ops = 3  # one fibre per model

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(N_INPUTS):
            p = rng.uniform(-P_MAX, P_MAX, 3)
            # the second op is the vanishing model at p = 0, where the
            # ThresholdEigenvalue path runs
            out.append((MODEL_ORDER[i % 3], np.zeros(3) if i == 1 else p))
        return {"ops": out}

    def setup(self, inputs):
        return {"models": build_models()}

    def op(self, state, inp):
        name, p = inp
        model = state["models"][name]
        cp = fr.find_maximizer(model, p)
        ev = fr.OmegaEvaluator(model, p, cp)
        omega = ev.evaluate(cp.M)
        mu_p = 1.0 / omega.value
        report = fr.analyze(model, p, cp, 2.0 * mu_p, evaluator=ev,
                            with_expansion=True)
        cls = fr.classify_threshold(model, p, cp, mu_p, evaluator=ev)
        return {"model": model, "cp": cp, "ev": ev, "omega": omega,
                "mu_p": mu_p, "report": report, "cls": cls}

    def fingerprint(self, res):
        r, c = res["report"], res["cls"]
        return (res["cp"].M, res["omega"].value, res["omega"].estimated_error,
                r.E, r.eigenfunction_norm, r.tau0_fit, r.tau0_closed,
                r.classification.value, c.label.value, c.l2_growth_rate)

    def check(self, state, inp, res):
        name, p = inp
        r, cp = res["report"], res["cp"]
        problems = []
        if r.E is None or not r.E > cp.M or r.classification.value != "BoundState":
            problems.append("no bound state above x1: E=%r" % (r.E,))
        expected = ("ThresholdEigenvalue"
                    if name == "phi_vanishing" and not np.any(p) else "Resonance")
        if res["cls"].label.value != expected:
            problems.append("classified %s, expected %s"
                            % (res["cls"].label.value, expected))
        if not abs(r.tau0_fit - r.tau0_closed) <= \
                TAU0_REL_TOL * max(abs(r.tau0_closed), 1.0):
            problems.append("tau0_fit %.6g vs closed %.6g"
                            % (r.tau0_fit, r.tau0_closed))
        extra, shortfalls = {}, []
        if name == "phi_one":
            rel_tol = res["ev"].spec.rel_tol
            extra = _check_phi_one_omega("Omega(p)", res["omega"], 0.0, p,
                                         rel_tol, problems, shortfalls)
            if r.E is not None:
                mu = 2.0 * res["mu_p"]
                err = fr.eigenvalue_error_estimate(res["model"], p, cp, mu, r.E,
                                                   evaluator=res["ev"])
                _check_phi_one_energy(mu, p, r.E, err, rel_tol, problems,
                                      shortfalls)
        return _ok(problems, shortfalls) | extra


class WarmCouplings:
    """Roots on primed evaluators: only the per-z reduction and root finding
    run in the op, level builds happen in set-up."""

    name = "warm_couplings"
    min_ops = 1
    round_ops = 2 * len(WARM_FIBRES)  # every fibre in both strata

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        fibres = [(name, np.array(p)) for name, p in WARM_FIBRES]
        ops = []
        for i in range(N_INPUTS):
            u = rng.random()
            # equal shares: near-threshold (1, 1.05], where the root sits in
            # the sqrt(z - M) boundary layer, and strong [1.5, 10]
            near = (i // len(fibres)) % 2 == 0
            r = 1.0 + 0.05 * (1.0 - u) if near else 1.5 + 8.5 * u
            ops.append((i % len(fibres), r))
        return {"fibres": fibres, "ops": ops}

    def setup(self, inputs):
        models = build_models()
        fibres = []
        for name, p in inputs["fibres"]:
            model = models[name]
            cp = fr.find_maximizer(model, p)
            ev = fr.OmegaEvaluator(model, p, cp)
            mu_p = 1.0 / ev.evaluate(cp.M).value  # builds levels 0 and 1
            fibres.append({"name": name, "p": p, "model": model, "cp": cp,
                           "ev": ev, "mu_p": mu_p})
        return {"fibres": fibres}

    def op(self, state, inp):
        f = state["fibres"][inp[0]]
        mu = inp[1] * f["mu_p"]
        energy = fr.solve_eigenvalue(f["model"], f["p"], f["cp"], mu,
                                     evaluator=f["ev"])
        err = fr.eigenvalue_error_estimate(f["model"], f["p"], f["cp"], mu,
                                           energy, evaluator=f["ev"])
        return {"fibre": f, "mu": mu, "E": energy, "err": err}

    def fingerprint(self, res):
        return (res["E"], res["err"])

    def check(self, state, inp, res):
        f, energy, err = res["fibre"], res["E"], res["err"]
        problems = []
        if energy is None or not energy > f["cp"].M:
            return _ok(["no bound state above x1: E=%r" % (energy,)])
        if not (np.isfinite(err) and err > 0.0):
            problems.append("error estimate %r" % (err,))
        out, shortfalls = {}, []
        if f["name"] == "phi_one":
            rel_tol = f["ev"].spec.rel_tol
            out = _check_phi_one_omega("Omega(E)", f["ev"].evaluate(energy),
                                       energy - f["cp"].M, f["p"], rel_tol,
                                       problems, shortfalls)
            _check_phi_one_energy(res["mu"], f["p"], energy, err, rel_tol,
                                  problems, shortfalls)
        return _ok(problems, shortfalls) | out


class LatticeOracle:
    """One finite-lattice ladder per op; no quadrature runs in the op."""

    name = "lattice_oracle"
    min_ops = 1
    round_ops = 3  # one case per model

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        triples = [(name, rng.uniform(-P_MAX, P_MAX, 3), rng.uniform(2.0, 6.0))
                   for name in MODEL_ORDER]
        return {"triples": triples, "ops": [i % 3 for i in range(N_INPUTS)]}

    def setup(self, inputs):
        models = build_models()
        cases = []
        for name, p, r in inputs["triples"]:
            model = models[name]
            cp = fr.find_maximizer(model, p)
            ev = fr.OmegaEvaluator(model, p, cp)
            mu = r / ev.evaluate(cp.M).value
            energy = fr.solve_eigenvalue(model, p, cp, mu, evaluator=ev)
            floor = fr.eigenvalue_error_estimate(model, p, cp, mu, energy,
                                                 evaluator=ev)
            cases.append({"model": model, "p": p, "mu": mu, "E": energy,
                          "floor": floor})
        return {"cases": cases}

    def op(self, state, inp):
        c = state["cases"][inp]
        report = fr.convergence_report(c["model"], c["p"], c["mu"],
                                       ORACLE_LADDER, c["E"], floor=c["floor"])
        dense = fr.dense_spectrum(c["model"], c["p"], c["mu"], DENSE_N)
        return {"report": report, "dense": dense}

    def fingerprint(self, res):
        d = res["dense"]
        return (res["report"].rows, res["report"].trend_ok, d.secular_root,
                tuple(sorted(d.spectrum_summary.items())))

    def check(self, state, inp, res):
        problems = []
        if not res["report"].trend_ok:
            problems.append("secular roots do not approach the continuum E: %r"
                            % (res["report"].rows,))
        d = res["dense"]
        top, count = d.spectrum_summary["max_eig"], d.spectrum_summary[
            "count_above_max_diag"]
        # rank-one interlacing allows at most one; mu > mu(p) needs one
        if d.secular_root is None or count != 1:
            problems.append("%d eigenvalues above the top diagonal at N=%d, "
                            "secular root %r" % (count, DENSE_N, d.secular_root))
        elif not abs(top - d.secular_root) <= 1e-9 * max(1.0, abs(top)):
            problems.append("dense top %.15g vs secular root %.15g"
                            % (top, d.secular_root))
        return _ok(problems)


def nproc():
    return len(os.sched_getaffinity(0))


class ZoneSweep:
    """The CLI sweep from p = 0 to the zone boundary, as a child process.

    Every op repeats the same sweep, so byte-identical output is checked
    across repetitions.  Rows that end in an error count as failed.
    """

    name = "zone_sweep"
    min_ops = 3  # a median of three, and the byte-identity check
    round_ops = 1
    MU = ("x0.5", "x1", "x2")
    answers_per_op = 9 * len(MU)  # rows of one sweep
    EXPECTED = {"x0.5": "Regular", "x1": "Resonance", "x2": "BoundState"}
    # the CLI's default tolerance: |Omega error| <= rel_tol |Omega| bounds
    # both 1/mu_threshold and the Bessel determinant at E
    rel_tol = fr.QuadratureSpec().rel_tol

    def __init__(self, root, out_dir):
        self.root = root
        self.out_dir = out_dir
        self.threads = nproc()
        self.reference_csv = None

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        p2, p3 = rng.uniform(-0.25, 0.25, 2)
        path = "0,%.17g,%.17g:%.17g,%.17g,%.17g" % (p2, p3, ZONE_EDGE, p2, p3)
        return {"path": path, "ops": [path] * N_INPUTS}

    def setup(self, inputs):
        return {}

    def op(self, state, path, threads=None, launcher=None):
        """Run the sweep CLI; `launcher` replaces `-m friedrichs` by a
        script taking the same arguments (the traced launcher)."""
        out = os.path.join(self.out_dir, "sweep")
        shutil.rmtree(out, ignore_errors=True)
        env = dict(os.environ, FRIEDRICHS_THREADS=str(threads or self.threads))
        cmd = [sys.executable] + (launcher or ["-m", "friedrichs"]) + [
            "sweep", "--path", path, "--samples", "9", "--mu", ",".join(self.MU),
            "--outputs", "threshold,eigenvalue,classify", "--out", out]
        proc = subprocess.run(cmd, env=env, cwd=self.root, capture_output=True,
                              timeout=170)
        csv_path = os.path.join(out, "sweep.csv")
        data = open(csv_path, "rb").read() if os.path.exists(csv_path) else b""
        shutil.rmtree(out, ignore_errors=True)
        return {"returncode": proc.returncode, "csv": data,
                "stderr": proc.stderr.decode(errors="replace")[-2000:]}

    def fingerprint(self, res):
        return res["csv"]

    def check(self, state, path, res):
        n_rows = self.answers_per_op
        if not res["csv"]:
            return {"answers": n_rows, "failed": n_rows,
                    "problems": ["sweep wrote no CSV (exit %d): %s"
                                 % (res["returncode"], res["stderr"])]}
        if self.reference_csv is None:
            self.reference_csv = res["csv"]
            self.reference_grade = self._grade(res)
        elif res["csv"] != self.reference_csv:
            grade = self._grade(res)
            grade["problems"].append("sweep.csv differs between repetitions")
            grade["failed"] = grade["answers"]
            return grade
        return dict(self.reference_grade,
                    problems=list(self.reference_grade["problems"]))

    def _grade(self, res):
        """Grade every row against the Bessel route and the truth table."""
        rows = list(csv.DictReader(io.StringIO(res["csv"].decode())))
        problems, failed, rel_errs = [], 0, []
        refs = {}
        for i, row in enumerate(rows):
            if row["error"]:
                failed += 1
                continue
            bad = []
            p = np.array([float(row[k]) for k in ("p1", "p2", "p3")])
            key = (row["p1"], row["p2"], row["p3"])
            if key not in refs:
                refs[key] = bessel_omega(0.0, p)[0]
            mu_thr, mu = float(row["mu_threshold"]), float(row["mu"])
            rel = abs(1.0 / mu_thr - refs[key]) / refs[key]
            rel_errs.append(rel)
            if not rel <= self.rel_tol:
                bad.append("mu_threshold off the Bessel value by %.2e" % rel)
            mu_spec = self.MU[i % len(self.MU)]
            if row["classification"] != self.EXPECTED[mu_spec]:
                bad.append("classified %s at %s" % (row["classification"],
                                                   mu_spec))
            if (row["E"] != "") != (mu_spec == "x2"):
                bad.append("eigenvalue presence wrong at %s" % mu_spec)
            elif row["E"] and not abs(bessel_det(mu, p, float(row["E"]))[0]) \
                    <= self.rel_tol:
                bad.append("E does not zero the Bessel determinant")
            if bad:
                failed += 1
                problems += ["row %d: %s" % (i, b) for b in bad]
        if len(rows) != self.answers_per_op:
            problems.append("sweep wrote %d rows" % len(rows))
        grade = {"answers": self.answers_per_op, "failed": failed,
                 "problems": problems, "rows": len(rows),
                 "rows_failed": sum(1 for r in rows if r["error"]),
                 "bessel_rel_err": max(rel_errs, default=0.0)}
        errors = sorted({r["error"] for r in rows if r["error"]})
        if errors:
            grade["error"] = "; ".join(errors)
        return grade
