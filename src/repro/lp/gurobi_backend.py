"""The ``"gurobi"`` backend: persistent Gurobi models via ``gurobipy``.

Gurobi is an *optional* dependency: the backend stays registered whether
or not ``gurobipy`` is importable and licensed, and the registry reports
it unavailable — with the reason — instead of failing at import time.
Constructing the backend without a working installation raises the
single actionable :class:`~repro.errors.LPError` naming the missing
piece and the fallback to take.

The persistent contract maps directly onto gurobipy's incremental-model
idiom (build a ``gp.Model`` once, mutate attributes, re-``optimize``):
:class:`GurobiModel` keeps one model per overlay and rebinds row RHS /
objective entries between solves, exactly like
:class:`~repro.lp.highs_engine.PersistentLP`.  Rows arrive in
``row_lower <= A x <= row_upper`` form and are split by sense —
``-inf`` lower becomes a ``<=`` row, equal bounds an ``==`` row (the
only two shapes the compiled epigraph programs produce).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import LPError
from . import status
from .backends import PersistentModel, SolverBackend, register
from .model import LPSolution

__all__ = ["GurobiBackend", "GurobiModel"]

_PROBE: Optional[Tuple[bool, str]] = None


def _probe() -> Tuple[bool, str]:
    """Import gurobipy and start an environment once; cache the outcome.

    A successful import is not enough — environment start-up is where a
    missing or expired license surfaces — so the probe goes through
    ``gp.Env`` and records whichever step failed.
    """
    global _PROBE
    if _PROBE is None:
        try:
            import gurobipy as gp
        except Exception as exc:
            _PROBE = (False, f"gurobipy is not installed: {exc}")
            return _PROBE
        try:
            env = _quiet_env(gp)
            env.dispose()
        except Exception as exc:  # pragma: no cover - needs a license
            _PROBE = (False, f"gurobipy environment failed to start: {exc}")
        else:  # pragma: no cover - needs a license
            _PROBE = (True, "")
    return _PROBE


def _quiet_env(gp):  # pragma: no cover - needs gurobipy
    """A Gurobi environment that does not print the license banner."""
    try:
        return gp.Env(params={"OutputFlag": 0, "LogToConsole": 0})
    except TypeError:  # older gurobipy without the params kwarg
        env = gp.Env.__new__(gp.Env)
        env.__init__()
        return env


class GurobiModel(PersistentModel):  # pragma: no cover - needs gurobipy
    """One Gurobi model kept alive across solves.

    Same surface as :class:`~repro.lp.highs_engine.PersistentLP`: row
    rebounds and objective-entry overwrites mutate the live model, each
    non-resumed :meth:`solve` resets the solution state first (cold
    start, mirroring the HiGHS engine's deliberate ``clearSolver``), and
    the owner-pid guard inherited from :class:`PersistentModel` makes
    cross-fork use a loud error.
    """

    backend_name = "gurobi"

    def __init__(
        self,
        gp,
        env,
        matrix,
        col_costs: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        iteration_limit: Optional[int] = None,
    ):
        super().__init__()
        self._gp = gp
        a = matrix.tocsr()
        self.num_rows, self.num_cols = a.shape
        model = gp.Model("repro-epigraph", env=env)
        model.setParam("OutputFlag", 0)
        x = model.addMVar(
            self.num_cols,
            lb=np.asarray(col_lower, dtype=float),
            ub=np.asarray(col_upper, dtype=float),
        )
        model.setObjective(np.asarray(col_costs, dtype=float) @ x, gp.GRB.MINIMIZE)
        lower = np.asarray(row_lower, dtype=float)
        upper = np.asarray(row_upper, dtype=float)
        self._senses = []
        constraints = []
        for row in range(self.num_rows):
            coeffs = a.getrow(row)
            expr = coeffs @ x
            if np.isneginf(lower[row]):
                constraints.append(model.addConstr(expr <= float(upper[row])))
                self._senses.append("<")
            elif lower[row] == upper[row]:
                constraints.append(model.addConstr(expr == float(upper[row])))
                self._senses.append("=")
            else:
                raise LPError(
                    f"[lp-backend {self.backend_name}] range row {row} "
                    f"({lower[row]}, {upper[row]}) is not representable; "
                    "compiled programs only emit <= and == rows"
                )
        model.update()
        self._constraints = constraints
        self._vars = x
        self._model = model
        if iteration_limit is not None:
            model.setParam("IterationLimit", float(iteration_limit))

    # -- per-solve mutations -------------------------------------------------
    def set_row_bounds(self, row: int, lower: float, upper: float) -> None:
        self._assert_owner()
        sense = self._senses[row]
        if sense == "=" and lower != upper:
            raise LPError(
                f"[lp-backend {self.backend_name}] equality row {row} "
                f"cannot take bounds ({lower}, {upper})"
            )
        self._constraints[row].RHS = float(upper)

    def set_col_costs(self, indices, values) -> None:
        self._assert_owner()
        for index, value in zip(np.asarray(indices), np.asarray(values)):
            self._vars[int(index)].Obj = float(value)

    # -- solving -------------------------------------------------------------
    def solve(self, resume: bool = False) -> LPSolution:
        self._assert_owner()
        gp = self._gp
        if not resume:
            # cold start, mirroring the HiGHS engine; without a reset
            # Gurobi re-solves from the previous basis
            self._model.reset()
        self._model.optimize()
        code = self._model.Status
        if code == gp.GRB.OPTIMAL:
            name = status.OPTIMAL
        elif code == gp.GRB.INFEASIBLE:
            name = status.INFEASIBLE
        elif code in (gp.GRB.UNBOUNDED, gp.GRB.INF_OR_UNBD):
            name = status.UNBOUNDED
        elif code == gp.GRB.ITERATION_LIMIT:
            name = status.ITERATION_LIMIT
        else:
            name = status.ERROR
        self.last_iteration_count = int(self._model.IterCount) + int(
            getattr(self._model, "BarIterCount", 0)
        )
        message = f"gurobi status {code}"
        if name != status.OPTIMAL:
            return LPSolution(name, float("nan"), np.zeros(0), message=message)
        return LPSolution(
            status.OPTIMAL,
            float(self._model.ObjVal),
            np.asarray(self._vars.X, dtype=float),
            message=message,
        )

    def __repr__(self) -> str:
        return f"GurobiModel(num_cols={self.num_cols}, num_rows={self.num_rows})"


@register
class GurobiBackend(SolverBackend):
    """Persistent-model backend over ``gurobipy`` (optional, licensed).

    Parameters
    ----------
    max_iterations:
        Optional simplex iteration limit applied to every model
        (truncated solves report ``"iteration_limit"``, matching the
        other backends).
    """

    name = "gurobi"
    aliases = ("gurobipy", "grb")
    supports_persistent = True
    supports_multi_rhs = True
    supports_warm_start = True
    #: commercial solver, unmeasured on this workload until a licensed
    #: runner reports in — ranked between the measured HiGHS winner and
    #: the portable scipy baseline
    preference = 20

    def __init__(self, max_iterations: Optional[int] = None):
        ok, reason = _probe()
        if not ok:
            raise LPError(
                f"[lp-backend {self.name}] backend unavailable: {reason}; "
                "fall back with REPRO_LP_BACKEND=scipy or "
                "REPRO_LP_BACKEND=highs (or --lp-backend)"
            )
        self.max_iterations = None if max_iterations is None else int(max_iterations)
        import gurobipy as gp  # pragma: no cover - needs gurobipy

        self._gp = gp  # pragma: no cover
        self._env = _quiet_env(gp)  # pragma: no cover

    @classmethod
    def availability(cls) -> Tuple[bool, str]:
        return _probe()

    @property
    def cache_token(self):
        return ("lp-backend", self.name, self.max_iterations)

    def fork_reset(self) -> None:  # pragma: no cover - needs gurobipy
        """Drop the inherited environment; workers start their own."""
        self._env = _quiet_env(self._gp)

    def solve_arrays(
        self,
        c: np.ndarray,
        a_ub,
        b_ub: Optional[np.ndarray],
        a_eq,
        b_eq: Optional[np.ndarray],
        bounds,
        objective_constant: float = 0.0,
    ) -> LPSolution:  # pragma: no cover - needs gurobipy
        """One-shot solve through a throwaway persistent model."""
        from scipy import sparse

        blocks = []
        lowers = []
        uppers = []
        if a_ub is not None:
            blocks.append(sparse.csr_matrix(a_ub))
            lowers.append(np.full(len(b_ub), -np.inf))
            uppers.append(np.asarray(b_ub, dtype=float))
        if a_eq is not None:
            blocks.append(sparse.csr_matrix(a_eq))
            lowers.append(np.asarray(b_eq, dtype=float))
            uppers.append(np.asarray(b_eq, dtype=float))
        n = len(c)
        if blocks:
            matrix = sparse.vstack(blocks, format="csr")
            row_lower = np.concatenate(lowers)
            row_upper = np.concatenate(uppers)
        else:
            matrix = sparse.csr_matrix((0, n))
            row_lower = np.zeros(0)
            row_upper = np.zeros(0)
        bounds = np.asarray(bounds, dtype=float)
        # repro: allow(fork-safety) — throwaway model scoped to this call
        # (never stored, so it cannot cross a fork); the owner-pid guard
        # is pinned by tests/test_backends.py::test_persistent_model_fork_guard
        model = self.build_persistent(
            matrix,
            col_costs=np.asarray(c, dtype=float),
            col_lower=bounds[:, 0],
            col_upper=bounds[:, 1],
            row_lower=row_lower,
            row_upper=row_upper,
        )
        solution = model.solve()
        if solution.is_optimal and objective_constant:
            solution.objective += float(objective_constant)
        return solution

    def build_persistent(
        self,
        matrix,
        col_costs: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
    ) -> GurobiModel:  # pragma: no cover - needs gurobipy
        return GurobiModel(
            self._gp,
            self._env,
            matrix,
            col_costs=col_costs,
            col_lower=col_lower,
            col_upper=col_upper,
            row_lower=row_lower,
            row_upper=row_upper,
            iteration_limit=self.max_iterations,
        )

    def __repr__(self) -> str:
        return f"GurobiBackend(max_iterations={self.max_iterations!r})"
