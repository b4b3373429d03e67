"""Model construction: correlate state counts with measured energies.

A fitted model is a set of per-key constants (pJ per occurrence) plus an
optional static term (pJ per cycle) and optional parametric reducers that
replace whole key families with fitted functions of a key attribute
(linear in packet size, or staircase in the flit count).
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .statetrace import (
    HOP_FAMILY,
    HOP_KEY,
    ModelFunction,
    SYNC_KEY,
    StateCountVector,
    compose,
    function_from_json,
    function_to_json,
    parse_key,
    rule,
)
from .sysconfig import FieldError, fold_sum, json_document, json_field, n_flits

REDUCER_LINEAR = "LINEAR"
REDUCER_STAIRCASE = "STAIRCASE"

NEGATIVE_TOL = 1e-9


class FitError(ValueError):
    """A fit is underdetermined or its inputs are malformed."""


@dataclass(frozen=True)
class Reducer:
    """Fitted function replacing one key family.

    For keys under `family`, energy per occurrence is a + b*x with x the
    named input variable parsed from the key (LINEAR) or its flit count
    ceil(x / flit_payload_bytes) (STAIRCASE).
    """

    kind: str
    family: str
    a: float
    b: float
    variable: str = "size"
    flit_payload_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (REDUCER_LINEAR, REDUCER_STAIRCASE):
            raise FitError(f"unknown reducer kind {self.kind!r}")
        if self.kind == REDUCER_STAIRCASE and not self.flit_payload_bytes:
            raise FitError("staircase reducer needs flit_payload_bytes")

    def evaluate_key(self, key: str) -> float:
        x = _reducer_variable(key, parse_key(key), self.variable)
        return self.a + self.b * _size_regressor(self.kind, x, self.flit_payload_bytes)


def _reducer_variable(key: str, rec: dict[str, object], name: str) -> int:
    """The integer a key's field holds, as parse_key reads -?[0-9]+;
    FitError names the key where it lacks the field or holds anything else."""
    if name not in rec:
        raise FitError(f"key {key!r} lacks reducer variable {name!r}")
    if not isinstance(rec[name], int):
        raise FitError(f"key {key!r}: reducer variable {name!r} {rec[name]!r} "
                       "is not an integer")
    return rec[name]


@dataclass
class EnergyModel:
    """A state space, a granularity transform, and fitted constants."""

    function: ModelFunction
    constants: dict[str, float]
    reducers: list[Reducer] = field(default_factory=list)
    static_pj_per_cycle: float = 0.0
    provenance: dict = field(default_factory=dict)
    _pj: dict[str, float | None] = field(default_factory=dict, init=False,
                                         repr=False, compare=False)
    _packet: dict[tuple[int, int], float | None] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def reducer_for(self, key: str) -> Reducer | None:
        """The first reducer whose family is the key or its leading
        "/"-separated segments."""
        return next((r for r in self.reducers
                     if key == r.family or key.startswith(r.family + "/")), None)

    def energy_of_key(self, key: str) -> float | None:
        """pJ per occurrence of a key, or None when the model has no entry.
        Each answer is kept from its first call on, so the constants and
        reducers must not change after that."""
        try:
            return self._pj[key]
        except KeyError:
            reducer = self.reducer_for(key)
            pj = self._pj[key] = (self.constants.get(key) if reducer is None
                                  else reducer.evaluate_key(key))
            return pj

    def packet_pj(self, hops: int, size_bytes: int) -> float | None:
        """pJ of one channel-synchronized packet: the sync constant plus the
        HOP_KEY of (hops, size_bytes), or None when that key has no entry.
        Kept per (hops, size_bytes) like energy_of_key's answers."""
        try:
            return self._packet[hops, size_bytes]
        except KeyError:
            pj = self.energy_of_key(HOP_KEY.format(hops=hops, size=size_bytes))
            pj = self._packet[hops, size_bytes] = (
                None if pj is None else self.constants.get(SYNC_KEY, 0.0) + pj)
            return pj


@dataclass
class FitReport:
    """Residual diagnostics of one fit."""

    residuals: list[float]
    max_abs_error_pj: float
    mean_rel_error: float
    rank: int
    n_unknowns: int
    rank_deficient: bool
    negative_keys: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "observations": len(self.residuals),
            "max_abs_error_pj": self.max_abs_error_pj,
            "mean_rel_error": self.mean_rel_error,
            "rank": self.rank,
            "n_unknowns": self.n_unknowns,
            "rank_deficient": self.rank_deficient,
            "negative_keys": list(self.negative_keys),
        }


def _report(predicted: np.ndarray, measured: np.ndarray, rank: int,
            n_unknowns: int, constants: dict[str, float]) -> FitReport:
    residuals = (predicted - measured).tolist()
    max_abs = max((abs(r) for r in residuals), default=0.0)
    rels = [abs(r) / abs(m) for r, m in zip(residuals, measured) if m != 0.0]
    mean_rel = fold_sum(rels) / len(rels) if rels else 0.0
    negative = sorted(k for k, v in constants.items() if v < -NEGATIVE_TOL)
    return FitReport(residuals=residuals, max_abs_error_pj=max_abs,
                     mean_rel_error=mean_rel, rank=rank, n_unknowns=n_unknowns,
                     rank_deficient=rank < n_unknowns, negative_keys=negative)


def fit_constants(observations: list[tuple[StateCountVector, float]],
                  function: ModelFunction) -> tuple[EnergyModel, FitReport]:
    """Least-squares fit of per-key constants and a static pJ/cycle term.

    Minimizes sum((sum_k count_k*c_k + duration*p_static - measured)^2) over
    all observations.  Keys never observed get no constant.  Columns are
    ordered by sorted key, so the result is deterministic for a fixed
    observation order; rank-deficient systems are flagged and solved with
    the minimum-norm solution.
    """
    if not observations:
        raise FitError("at least one observation is required")
    keys = sorted({k for vec, _ in observations for k in vec.counts})
    n_cols = len(keys) + 1
    a = np.zeros((len(observations), n_cols))
    b = np.zeros(len(observations))
    index = {k: i for i, k in enumerate(keys)}
    for row, (vec, measured) in enumerate(observations):
        for key, count in vec.counts.items():
            a[row, index[key]] = count
        a[row, -1] = vec.duration
        b[row] = measured
    coef, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    constants = {k: float(coef[index[k]]) for k in keys}
    static = float(coef[-1])
    report = _report(a @ coef, b, int(rank), n_cols, constants)
    provenance = {
        "observations": len(observations),
        "solver": "lstsq-min-norm",
        "fitted_at": os.environ.get("ENERMOD_BUILD_DATE"),
        "signed_constants": bool(report.negative_keys),
    }
    return EnergyModel(function=function, constants=constants, reducers=[],
                       static_pj_per_cycle=static, provenance=provenance), report


# ---------------------------------------------------------------------------
# Packet-size regressions
# ---------------------------------------------------------------------------

def _size_regressor(kind: str, size: float, flit_payload_bytes: int | None) -> float:
    """What a reducer is linear in: the size, or its flit count (STAIRCASE)."""
    return n_flits(size, flit_payload_bytes) if kind == REDUCER_STAIRCASE else size


def _fit_size_regression(kind: str, points: list[tuple[float, float]],
                         window: list[tuple[float, float]] | None,
                         flit_payload_bytes: int | None = None
                         ) -> tuple[float, float, FitReport]:
    """Least squares for E(s) = a + b*x(s), x the _size_regressor of kind.

    The fit may use a subset (window) of the points; the report always
    evaluates residuals over every provided point.
    """
    if len(points) < 2:
        raise FitError("need at least two points")

    def columns(pts: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([_size_regressor(kind, s, flit_payload_bytes) for s, _ in pts],
                         dtype=float), np.array([e for _, e in pts], dtype=float))

    xs, ys = columns(window if window is not None else points)
    if len(set(xs.tolist())) < 2:
        raise FitError("underdetermined: single flit count in fit window"
                       if kind == REDUCER_STAIRCASE else "underdetermined: all sizes equal")
    coef, _, rank, _ = np.linalg.lstsq(np.column_stack([np.ones_like(xs), xs]), ys,
                                       rcond=None)
    a, b = float(coef[0]), float(coef[1])
    all_x, all_y = columns(points)
    return a, b, _report(a + b * all_x, all_y, int(rank), 2, {})


def fit_linear(points: list[tuple[float, float]],
               window: list[tuple[float, float]] | None = None
               ) -> tuple[float, float, FitReport]:
    """Ordinary least squares for E(s) = a + b*s."""
    return _fit_size_regression(REDUCER_LINEAR, points, window)


def fit_staircase(points: list[tuple[float, float]], flit_payload_bytes: int,
                  window: list[tuple[float, float]] | None = None
                  ) -> tuple[float, float, FitReport]:
    """Least squares for E(s) = a + b*ceil(s / flit_payload_bytes)."""
    return _fit_size_regression(REDUCER_STAIRCASE, points, window, flit_payload_bytes)


# ---------------------------------------------------------------------------
# NoC model reduction
# ---------------------------------------------------------------------------

# A hop reduction's then stage: noc keys by hop count and size, others kept.
_HOP_STAGE = ModelFunction(rules=(rule({"component": "noc"}, HOP_KEY), rule({}, "{key}")),
                           name="hops")


def reduce_noc_model(full: EnergyModel) -> EnergyModel:
    """Re-key (src, dst, size) NoC constants by (hop count, size).

    Pairs sharing a hop count must agree within 1e-9 pJ (they do on the
    congestion-free oracle); disagreeing families are averaged with a
    warning.  Model size shrinks from O(pairs * sizes) to O(hops * sizes).
    The model's function must emit noc/src:<s>/dst:<d>/size:<n> keys; the
    reduced model's function is it with the hop stage composed onto it.
    """
    if not any(r.emit.startswith("noc/src:") for r in full.function.rules):
        raise FitError(
            f"model function {full.function.name!r} emits no "
            "noc/src:<s>/dst:<d>/size:<n> keys; a hop reduction needs a noc-pair fit")
    groups: dict[str, list[float]] = {}
    for key, value in full.constants.items():
        groups.setdefault(_HOP_STAGE.rekey(key), []).append(value)
    constants: dict[str, float] = {}
    for key, values in sorted(groups.items()):
        spread = max(values) - min(values)
        if spread > 1e-9:
            warnings.warn(
                f"constants for {key} disagree by {spread:.3e} pJ; averaging",
                stacklevel=2)
        constants[key] = fold_sum(values) / len(values)
    return EnergyModel(function=compose(_HOP_STAGE, full.function), constants=constants,
                       reducers=list(full.reducers),
                       static_pj_per_cycle=full.static_pj_per_cycle,
                       provenance=dict(full.provenance, reduced="hops"))


def fit_packet_reducers(model: EnergyModel, kind: str = REDUCER_STAIRCASE,
                        flit_payload_bytes: int | None = None) -> EnergyModel:
    """Replace per-(hops, size) constants with one fitted function per hop
    family, shrinking the model to two coefficients per hop count."""
    families: dict[str, list[tuple[float, float]]] = {}
    constants: dict[str, float] = {}
    for key, value in model.constants.items():
        rec = parse_key(key)
        family = HOP_FAMILY.format(hops=rec["hops"]) if "hops" in rec else None
        # only a key that its family's reducer covers: a pair key has hops too
        if family and "size" in rec and key.startswith(family + "/"):
            families.setdefault(family, []).append(
                (_reducer_variable(key, rec, "size"), value))
        else:
            constants[key] = value
    reducers = list(model.reducers)
    for family, points in sorted(families.items()):
        points.sort()
        if kind == REDUCER_STAIRCASE:
            a, b, _ = fit_staircase(points, flit_payload_bytes)
        else:
            a, b, _ = fit_linear(points)
        reducers.append(Reducer(kind=kind, family=family, a=a, b=b,
                                variable="size",
                                flit_payload_bytes=flit_payload_bytes))
    return EnergyModel(function=model.function, constants=constants,
                       reducers=reducers,
                       static_pj_per_cycle=model.static_pj_per_cycle,
                       provenance=dict(model.provenance, reducers=kind))


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------

def model_to_json(model: EnergyModel) -> dict:
    """The model file; static_power_pw comes from provenance["clock_hz"],
    and is None without it."""
    clock = model.provenance.get("clock_hz")
    doc = {
        "function": function_to_json(model.function),
        "constants": {k: model.constants[k] for k in sorted(model.constants)},
        "reducers": [{
            "kind": r.kind, "family": r.family, "a": r.a, "b": r.b,
            "variable": r.variable, "flit_payload_bytes": r.flit_payload_bytes,
        } for r in model.reducers],
        "static_power_pw": (model.static_pj_per_cycle * clock) if clock else None,
        "static_pj_per_cycle": model.static_pj_per_cycle,
        "provenance": dict(model.provenance, clock_hz=clock),
    }
    return doc


def model_from_json(doc: dict) -> EnergyModel:
    """A model from its file's document.  A field of the wrong type raises
    FitError naming the field, or ModelFunctionError inside the function."""
    try:
        return _model_from_json(doc)
    except FieldError as exc:
        raise FitError(str(exc)) from None


def _model_from_json(doc) -> EnergyModel:
    if not isinstance(doc, dict):
        raise FieldError(f"a model file must be an object, got {doc!r}")
    function = function_from_json(json_field("", doc, "function", "an object"))
    constants = json_field("", doc, "constants", "an object")
    for key in constants:
        json_field("constants.", constants, key, "a number")
    reducers = []
    for i, r in enumerate(json_field("", doc, "reducers", "a list", [])):
        at = f"reducers[{i}]."
        if not isinstance(r, dict):
            raise FieldError(f"{at[:-1]} must be an object, got {r!r}")
        reducers.append(Reducer(
            kind=json_field(at, r, "kind", "a string"),
            family=json_field(at, r, "family", "a string"),
            a=json_field(at, r, "a", "a number"),
            b=json_field(at, r, "b", "a number"),
            variable=json_field(at, r, "variable", "a string", "size"),
            flit_payload_bytes=json_field(at, r, "flit_payload_bytes", "an integer",
                                          None)))
    return EnergyModel(
        function=function,
        constants=dict(constants),
        reducers=reducers,
        static_pj_per_cycle=json_field("", doc, "static_pj_per_cycle", "a number", 0.0),
        provenance=json_field("", doc, "provenance", "an object", {}),
    )


def save_model(model: EnergyModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> EnergyModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json_document(fh.read(), FitError))
