"""Output checks for every command, independent of flatgp's numerics.

Where conditioning allows, values are recomputed here from scratch: kernel
matrices from their closed forms, and GP quantities through a Cholesky
factorization of ``gamma (K + nugget I) + sigma2 I`` (flatgp itself works
through symmetric eigendecompositions).  Elsewhere the checks assert
case-table invariants and that status rows are well formed.

``Checker.check(command, prefix, code)`` returns a list of problems; an empty
list means the command's outputs are correct.
"""

import csv
import json
import math
import re

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from workloads import (
    CRITERIA_GRID,
    CURVE_EPS,
    CURVE_GAMMAS,
    CURVE_XA,
    CURVE_XB,
    DOF_GRID,
    FIT_EPS,
    FIT_GAMMA,
    ISO_DOF,
    ISO_GRID,
    MATCHED_EPS,
    MATCHED_GAMMA,
    NUGGET,
    NUGGET_EPS,
    NUGGET_GAMMAS,
    SIGMA2,
)

RTOL = 1e-6
# cells above this gain are too ill-conditioned for an independent oracle;
# there only the shape of the output is checked
ORACLE_GAMMA_MAX = 1e4
CELLS_PER_GRID = 4
CONVERGE_TOL = 1e-2      # the CLI default of converge --tol
CONVERGE_SLOPE = 0.8     # the slope convergence_study requires to pass
EQUIV_TOL = 1e-8         # the CLI default of equiv-check --tol
ILL_STATUS = re.compile(r"^ill-conditioned:[-+]?\d\.\d{3}e[-+]\d+$")
ERROR_STATUS = re.compile(r"^error:[A-Za-z]+$")
CRITERIA = ("loo_mse", "loo_nll", "sure")
REGULARITY = {"matern15": 2, "exponential": 1, "gaussian": math.inf}


def _profile(family, t):
    if family == "gaussian":
        return np.exp(-t * t)
    if family == "exponential":
        return np.exp(-t)
    if family == "matern15":
        a = math.sqrt(3.0) * t
        return (1.0 + a) * np.exp(-a)
    raise ValueError(family)


def _dists(A, B):
    diff = A[:, None, :] - B[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _geom(spec):
    a, b, k = spec.split(":")
    return np.geomspace(float(a), float(b), int(k))


def poly_dim(k, d):
    return math.comb(k + d, d) if k >= 0 else 0


def expected_matched_case(family, dof, d):
    """Case of the matched flat-limit model for a source fit with ``dof``."""
    r = REGULARITY[family]
    if math.isfinite(r) and dof >= poly_dim(r - 1, d):
        return "spline-regression"
    p = 0
    while poly_dim(p, d) <= dof + 1e-9:
        p += 1
    if abs(dof - poly_dim(p - 1, d)) <= 1e-9:
        return "unpenalized-polynomial"
    return "penalized-polynomial"


def _loglog_slope(x, y):
    return float(np.polyfit(np.log(x), np.log(np.maximum(y, 1e-300)), 1)[0])


class GpOracle:
    """GP quantities by Cholesky, for one (eps, gamma, nugget) cell."""

    def __init__(self, family, X, y, eps, gamma, nugget=0.0):
        self.family, self.X, self.y = family, X, y
        self.eps, self.gamma = eps, gamma
        n = len(y)
        self.K = gamma * (_profile(family, eps * _dists(X, X)) + nugget * np.eye(n))
        self.chol = cho_factor(self.K + SIGMA2 * np.eye(n), lower=True)
        self.alpha = cho_solve(self.chol, y)

    def dof(self):
        return float(np.trace(cho_solve(self.chol, self.K)))

    def fitted(self):
        return self.y - SIGMA2 * self.alpha

    def posterior(self, Q):
        kq = self.gamma * _profile(self.family, self.eps * _dists(Q, self.X))
        mean = kq @ self.alpha
        quad = np.einsum("ij,ji->i", kq, cho_solve(self.chol, kq.T))
        return mean, self.gamma * _profile(self.family, 0.0) - quad

    def criteria(self):
        n = len(self.y)
        ainv_diag = np.diag(cho_solve(self.chol, np.eye(n)))
        resid = self.alpha / ainv_diag          # leave-one-out residuals
        var = 1.0 / ainv_diag                   # sigma2 / (1 - M_ii)
        loo_nll = np.mean(0.5 * np.log(2 * math.pi * var) + 0.5 * resid**2 / var)
        sure = -SIGMA2 + np.mean((SIGMA2 * self.alpha) ** 2) + 2 * SIGMA2 * self.dof() / n
        logdet = 2.0 * np.sum(np.log(np.diag(self.chol[0])))
        nlml = 0.5 * n * math.log(2 * math.pi) + 0.5 * logdet + 0.5 * float(self.y @ self.alpha)
        return {
            "loo_mse": float(np.mean(resid**2)),
            "loo_nll": float(loo_nll),
            "sure": float(sure),
            "nlml": float(nlml),
        }


class Problems(list):
    def close(self, what, got, want, rtol=RTOL, atol=0.0):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.append(f"{what}: shape {got.shape} != {want.shape}")
            return
        if not np.all(np.isfinite(got)):
            self.append(f"{what}: non-finite value")
            return
        err = np.abs(got - want) - (atol + rtol * np.abs(want))
        if np.any(err > 0):
            i = int(np.argmax(err))
            self.append(
                f"{what}: {got.flat[i]!r} != {want.flat[i]!r} (rtol={rtol:g}, atol={atol:g})"
            )

    def require(self, cond, message):
        if not cond:
            self.append(message)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(rows, col):
    return np.array([float(r[col]) for r in rows])


class Checker:
    """Expected outputs of one workload on one dataset."""

    def __init__(self, workload, inputs, seed):
        self.w, self.inputs, self.seed = workload, inputs, seed
        X, y = inputs.X, inputs.y
        self.n, self.d = X.shape
        fam = workload.family
        fit = GpOracle(fam, X, y, FIT_EPS, FIT_GAMMA)
        self.fit = {"fitted": fit.fitted(), "dof": fit.dof(), **fit.criteria()}
        self.predict = fit.posterior(inputs.queries)
        src = GpOracle(fam, X, y, MATCHED_EPS, MATCHED_GAMMA)
        self.matched_dof = src.dof()
        self.matched = src.posterior(inputs.queries)

        rng = np.random.default_rng(seed)
        self.dof_cells = self._cells(rng, DOF_GRID, lambda o: o.dof())
        self.criteria_cells = self._cells(rng, CRITERIA_GRID, lambda o: o.criteria())

        queries = np.array([np.full(self.d, CURVE_XA), np.full(self.d, CURVE_XB)])
        self.curve = {}
        for i, g in enumerate(_geom(CURVE_GAMMAS)):
            if g <= ORACLE_GAMMA_MAX and len(self.curve) < CELLS_PER_GRID:
                self.curve[i] = GpOracle(fam, X, y, CURVE_EPS, g).posterior(queries)[0]
        V = np.column_stack([np.ones(self.n), X])
        coef = np.linalg.lstsq(V, y, rcond=None)[0]
        Vq = np.column_stack([np.ones(2), queries])
        self.anchors = {0: np.full(2, np.mean(y)), 1: Vq @ coef}

        self._iso_cache = {}
        self.nugget = {}
        for v, nug in enumerate((NUGGET, 0.0)):
            for i, g in enumerate(_geom(NUGGET_GAMMAS)[:2]):
                if g <= ORACLE_GAMMA_MAX:
                    self.nugget[v * 40 + i] = GpOracle(fam, X, y, NUGGET_EPS, g, nug).dof()

    def _cells(self, rng, grids, value):
        eps, gammas = _geom(grids[0]), _geom(grids[1])
        candidates = [(i, j) for i in range(len(eps)) for j in range(len(gammas))
                      if gammas[j] <= ORACLE_GAMMA_MAX]
        pick = rng.choice(len(candidates), size=CELLS_PER_GRID, replace=False)
        out = {}
        for k in sorted(pick):
            i, j = candidates[k]
            oracle = GpOracle(self.w.family, self.inputs.X, self.inputs.y, eps[i], gammas[j])
            out[(i, j)] = value(oracle)
        return out

    def _iso_dof(self, eps, gamma):
        # the gains repeat exactly from pass to pass
        if (eps, gamma) not in self._iso_cache:
            oracle = GpOracle(self.w.family, self.inputs.X, self.inputs.y, eps, gamma)
            self._iso_cache[eps, gamma] = oracle.dof()
        return self._iso_cache[eps, gamma]

    # ------------------------------------------------------------------

    def check(self, command, prefix, code):
        """Problems with one command's exit code and outputs (empty when correct)."""
        p = Problems()
        if code != 0:
            p.append(f"exit code {code}, expected 0")
            return p
        try:
            with open(prefix + ".json") as fh:
                summary = json.load(fh)
            p.require(summary.get("command") == command, "summary names another command")
            p.require(summary.get("errors") == [], f"errors reported: {summary.get('errors')}")
            getattr(self, "_" + command.replace("-", "_"))(p, prefix, summary["metrics"])
        except (OSError, KeyError, IndexError, ValueError, TypeError) as exc:
            p.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return p

    def _coords(self, p, header, rows, want_cols, points):
        names = [f"x{j + 1}" for j in range(self.d)]
        p.require(header == names + want_cols, f"header {header}")
        p.require(len(rows) == len(points), f"{len(rows)} rows, expected {len(points)}")
        got = np.array([[float(v) for v in r[: self.d]] for r in rows])
        p.close("query coordinates", got, points, rtol=1e-12, atol=1e-15)

    def _fit(self, p, prefix, m):
        header, rows = _read_csv(prefix + ".csv")
        names = [f"x{j + 1}" for j in range(self.d)]
        p.require(header == ["index"] + names + ["y", "fitted"], f"header {header}")
        p.require([int(r[0]) for r in rows] == list(range(self.n)), "index column")
        echo = np.array([[float(v) for v in r[1 : self.d + 2]] for r in rows])
        p.require(
            np.array_equal(echo, np.column_stack([self.inputs.X, self.inputs.y])),
            "data echo is not bit-exact",
        )
        p.close("fitted", _floats(rows, self.d + 2), self.fit["fitted"], atol=1e-9)
        for key in ("dof", "loo_mse", "loo_nll", "sure", "nlml"):
            p.close(key, m[key], self.fit[key], atol=1e-9)
        p.require(m["n"] == self.n and m["d"] == self.d, "n/d echo")

    def _predict(self, p, prefix, m):
        header, rows = _read_csv(prefix + ".csv")
        self._coords(p, header, rows, ["mean", "variance"], self.inputs.queries)
        mean, var = self.predict
        p.close("mean", _floats(rows, self.d), mean, atol=1e-9)
        p.close("variance", _floats(rows, self.d + 1), np.maximum(var, 0.0), atol=1e-9)
        p.require(m["n_query"] == len(mean), "n_query")

    def _grid_rows(self, p, rows, grids, per_cell):
        eps, gammas = _geom(grids[0]), _geom(grids[1])
        want = len(eps) * len(gammas) * per_cell
        p.require(len(rows) == want, f"{len(rows)} rows, expected {want}")
        got = np.array([[float(r[0]), float(r[1])] for r in rows[::per_cell]])
        grid = np.array([[e, g] for e in eps for g in gammas])
        p.close("grid coordinates", got, grid, rtol=1e-15)
        return len(gammas)

    def _dof_grid(self, p, prefix, m):
        header, rows = _read_csv(prefix + ".csv")
        p.require(header == ["eps", "gamma", "dof", "status"], f"header {header}")
        ng = self._grid_rows(p, rows, DOF_GRID, 1)
        self._dof_column(p, rows, 2, ng, "dof-grid")
        for (i, j), want in self.dof_cells.items():
            p.close(f"dof at cell {i},{j}", float(rows[i * ng + j][2]), want, atol=1e-8)
        p.require(m["rows"] == len(rows), "rows metric")

    def _dof_column(self, p, rows, col, per_curve, what):
        """ok cells lie in [0, n] and grow with gamma; other rows are well formed."""
        for start in range(0, len(rows), per_curve):
            last = -math.inf
            for r in rows[start : start + per_curve]:
                if r[col + 1] == "ok":
                    v = float(r[col])
                    p.require(-1e-9 <= v <= self.n * (1 + 1e-9), f"{what}: dof {v} outside [0, n]")
                    p.require(v >= last - 1e-9 * self.n, f"{what}: dof decreases in gamma")
                    last = v
                else:
                    p.require(ILL_STATUS.match(r[col + 1]) and r[col] == "nan",
                              f"{what}: malformed status row {r}")

    def _criteria_grid(self, p, prefix, m):
        header, rows = _read_csv(prefix + ".csv")
        p.require(header == ["eps", "gamma", "criterion", "value", "status"], f"header {header}")
        ng = self._grid_rows(p, rows, CRITERIA_GRID, 3)
        for k, r in enumerate(rows):
            p.require(r[2] == CRITERIA[k % 3], f"criterion order at row {k}")
            if r[4] == "ok":
                p.require(math.isfinite(float(r[3])), f"non-finite {r}")
            else:
                p.require(ERROR_STATUS.match(r[4]) and r[3] == "nan", f"malformed status row {r}")
        for (i, j), want in self.criteria_cells.items():
            for c, crit in enumerate(CRITERIA):
                row = rows[3 * (i * ng + j) + c]
                p.close(f"{crit} at cell {i},{j}", float(row[3]), want[crit], rtol=1e-5, atol=1e-9)
        p.require(m["rows"] == len(rows), "rows metric")

    def _isofreedom(self, p, prefix, m):
        header, rows = _read_csv(prefix + ".csv")
        p.require(header == ["eps", "gamma", "dof", "residual"], f"header {header}")
        eps = _geom(ISO_GRID)
        p.require(len(rows) == len(eps), f"{len(rows)} rows")
        p.close("eps", _floats(rows, 0), eps, rtol=1e-15)
        gam, dof, res = _floats(rows, 1), _floats(rows, 2), _floats(rows, 3)
        p.require(np.all(gam > 0), "nonpositive gamma")
        p.close("|dof - target|", dof, np.full(len(dof), ISO_DOF), rtol=0, atol=1e-8 * self.n)
        p.close("residual", res, dof - ISO_DOF, rtol=0, atol=1e-12)
        for e, g in zip(eps, gam):
            if g <= ORACLE_GAMMA_MAX:
                p.close(f"oracle dof at eps={e:g}", self._iso_dof(float(e), float(g)), ISO_DOF,
                        rtol=0, atol=1e-6)
        half = math.ceil(len(eps) / 2)
        p.close("slope", m["slope"], _loglog_slope(eps[-half:], gam[-half:]), rtol=1e-9)
        p.require(m["target_dof"] == ISO_DOF, "target_dof")

    def _matched(self, p, prefix, m):
        header, rows = _read_csv(prefix + ".csv")
        cols = ["gp_mean", "gp_variance", "matched_mean", "matched_variance"]
        self._coords(p, header, rows, cols, self.inputs.queries)
        mean, var = self.matched
        gp_mean = _floats(rows, self.d)
        p.close("gp_mean", gp_mean, mean, atol=1e-9)
        p.close("gp_variance", _floats(rows, self.d + 1), np.maximum(var, 0.0), atol=1e-9)
        t_mean, t_var = _floats(rows, self.d + 2), _floats(rows, self.d + 3)
        p.require(np.all(np.isfinite(t_mean)), "non-finite matched mean")
        p.require(np.all(t_var >= 0), "negative matched variance")
        p.close("source_dof", m["source_dof"], self.matched_dof, atol=1e-8)
        p.close("achieved_dof", m["achieved_dof"], m["source_dof"], rtol=0, atol=1e-6)
        want_case = expected_matched_case(self.w.family, self.matched_dof, self.d)
        p.require(m["case"] == want_case, f"case {m['case']}, expected {want_case}")
        p.close("max_mean_gap", m["max_mean_gap"], np.max(np.abs(gp_mean - t_mean)), rtol=1e-12)
        p.require(m["penalty"] > 0, "nonpositive penalty")

    def _converge(self, p, prefix, m):
        header, rows = _read_csv(prefix + ".csv")
        p.require(header == ["eps", "mean_dev", "var_dev"], f"header {header}")
        grid = self.w.converge[self.w.converge.index("--eps-grid") + 1]
        eps = np.sort(_geom(grid))[::-1]
        p.require(m["dropped_eps"] == [], f"dropped eps {m['dropped_eps']}")
        p.require(len(rows) == len(eps), f"{len(rows)} rows, expected {len(eps)}")
        p.close("eps", _floats(rows, 0), eps, rtol=1e-15)
        dev_m, dev_v = _floats(rows, 1), _floats(rows, 2)
        p.require(np.all(dev_m >= 0) and np.all(dev_v >= 0), "negative deviation")
        p.require(m["case"] == self.w.converge_case, f"case {m['case']}")
        p.close("slope", m["slope"], _loglog_slope(eps, dev_m), rtol=1e-9)
        p.close("slope_var", m["slope_var"], _loglog_slope(eps, dev_v), rtol=1e-9)
        p.require(m["final_dev"] == dev_m[-1], "final_dev is not the last deviation")
        # the flat limit is approached at rate O(eps) or faster; whether the
        # last deviation is below --tol depends on the data, so it is not checked
        p.require(np.all(np.diff(dev_m) < 0), "mean deviation does not shrink with eps")
        p.require(m["slope"] >= CONVERGE_SLOPE, f"slope {m['slope']} below {CONVERGE_SLOPE}")
        passed = m["slope"] >= CONVERGE_SLOPE and m["final_dev"] <= CONVERGE_TOL
        p.require(m["pass"] == passed, "pass flag contradicts slope and final_dev")
        p.require(m["matched_gain"] > 0, "nonpositive matched gain")

    def _equiv_check(self, p, prefix, m):
        p.require(m["case"] == self.w.equiv_case, f"case {m['case']}")
        p.require(m["basis_size"] == self.w.equiv_basis, f"basis size {m['basis_size']}")
        p.require(m["all_equivalent"] is True, "not all equivalent")
        p.require(sorted(m["checks"]) == ["basis_change", "kernel_absorption"], "checks run")
        for name, c in m["checks"].items():
            p.require(c["equivalent"] is True and c["max_dev"] <= EQUIV_TOL,
                      f"{name}: max_dev {c['max_dev']}")

    def _pred_curve(self, p, prefix, m):
        header, rows = _read_csv(prefix + ".csv")
        p.require(header == ["gamma", "pred_a", "pred_b", "status"], f"header {header}")
        gammas = _geom(CURVE_GAMMAS)
        p.require(len(rows) == len(gammas), f"{len(rows)} rows")
        p.close("gamma", _floats(rows, 0), gammas, rtol=1e-15)
        for r in rows:
            if r[3] == "ok":
                p.require(math.isfinite(float(r[1])) and math.isfinite(float(r[2])), f"row {r}")
            else:
                p.require(r[1:] == ["nan", "nan", "ill-conditioned"], f"malformed status row {r}")
        for i, want in self.curve.items():
            got = [float(rows[i][1]), float(rows[i][2])]
            p.close(f"prediction at gamma={gammas[i]:g}", got, want, atol=1e-9)
        anchors = m["anchors"]
        p.require([a["degree"] for a in anchors] == list(range(len(anchors))), "anchor degrees")
        p.require(len(anchors) >= 2, "fewer than two anchors")
        for deg, want in self.anchors.items():
            a = anchors[deg]
            p.close(f"degree-{deg} anchor", [a["pred_a"], a["pred_b"]], want, rtol=1e-9, atol=1e-12)
        p.require(m["eps"] == CURVE_EPS, "eps echo")

    def _nugget_compare(self, p, prefix, m):
        header, rows = _read_csv(prefix + ".csv")
        p.require(header == ["variant", "gamma", "dof", "status"], f"header {header}")
        gammas = _geom(NUGGET_GAMMAS)
        k = len(gammas)
        p.require(len(rows) == 2 * k, f"{len(rows)} rows")
        p.require([r[0] for r in rows] == ["nugget"] * k + ["plain"] * k, "variant column")
        p.close("gamma", _floats(rows, 1), np.concatenate([gammas, gammas]), rtol=1e-15)
        self._dof_column(p, rows, 2, k, "nugget-compare")
        for i, want in self.nugget.items():
            p.close(f"{rows[i][0]} dof at gamma={float(rows[i][1]):g}", float(rows[i][2]), want,
                    atol=1e-8)
        p.require(m["eps"] == NUGGET_EPS, "eps echo")
