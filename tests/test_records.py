"""The record types are immutable named tuples: each keeps its field names
and order, its defaults, keyword construction and its validation messages."""

import math

import numpy as np
import pytest
import scipy.linalg

from issgains import config
from issgains.config import ConfigError, RunConfig
from issgains.fattorini import DiagnosticReport
from issgains.gains import GainBundle, PathSpec, frac_control_norm
from issgains.numerics import (
    EigenDecomposition,
    QuadratureResult,
    apply_matrix_function,
    sym_tridiag_eig,
)
from issgains.simulate import Trajectory, simulate
from issgains.sweep import SweepRecord
from issgains.systems import ClosedControlSystem, WeightedSpace, build_heat_dirichlet
from oracles import (
    PreClosureSystem,
    a_matrix,
    build_preclosure_heat,
    close_system,
    frac_control_norm_gram,
    resolvent_dense,
    with_dense_eig,
)

SPACE = WeightedSpace(n=4)
ARRAY = np.zeros(3)
EIG = EigenDecomposition(eigenvalues=ARRAY, eigenvectors=ARRAY)

# Each type with its fields in order, the defaults among them, and values
# for the fields that have none.
RECORDS = [
    (RunConfig,
     ("n_schedule", "a", "alpha", "lambda_min", "lambda_max", "lambda_count",
      "weight_exponent", "u_norm", "mu_p", "mu_e", "t_end", "h", "seed", "output_dir"),
     {"n_schedule": (250, 500, 1000, 2000, 4000), "a": 1.0, "alpha": 0.5,
      "lambda_min": 1e-4, "lambda_max": 1e4, "lambda_count": 400, "weight_exponent": 2, "u_norm": "max", "mu_p": 1.0, "mu_e": 1.0,
      "t_end": 3.0, "h": 0.05, "seed": 20240501, "output_dir": "out"},
     {}),
    (PathSpec, ("lambda_min", "lambda_max"), {}, {"lambda_min": 1e-4, "lambda_max": 1e4}),
    (GainBundle,
     ("alpha", "theta", "k1", "k2", "kappa", "frac_norm_limit", "beta_m", "beta_omega",
      "gamma_slope"),
     {},
     {"alpha": 0.5, "theta": 3.0, "k1": 1.0, "k2": 1.0, "kappa": 1.0, "frac_norm_limit": 1.0,
      "beta_m": 1.0, "beta_omega": 1.0, "gamma_slope": 1.0}),
    (SweepRecord, ("n", "omega_n", "d_n", "frac_norm_n"), {},
     {"n": 4, "omega_n": 9.0, "d_n": 1.0, "frac_norm_n": 1.4}),
    (WeightedSpace, ("n", "weight_exponent", "input_norm"),
     {"weight_exponent": 2, "input_norm": "max"}, {"n": 4}),
    (ClosedControlSystem, ("space", "a_diag", "a_offdiag", "b_matrix", "eig"), {},
     {"space": SPACE, "a_diag": ARRAY, "a_offdiag": ARRAY[:2], "b_matrix": np.zeros((3, 2)),
      "eig": EIG}),
    (PreClosureSystem, ("ainit", "bop", "restrict_r", "bop_rinv"), {},
     {"ainit": ARRAY, "bop": ARRAY, "restrict_r": ARRAY, "bop_rinv": ARRAY}),
    (QuadratureResult, ("value", "abs_error_estimate", "evaluations"), {},
     {"value": 1.0, "abs_error_estimate": 0.0, "evaluations": 1}),
    (EigenDecomposition, ("eigenvalues", "eigenvectors"), {},
     {"eigenvalues": ARRAY, "eigenvectors": ARRAY}),
    (Trajectory, ("times", "states", "norms", "input_sup_norm"), {},
     {"times": ARRAY, "states": ARRAY, "norms": ARRAY, "input_sup_norm": 0.0}),
    (DiagnosticReport, ("name", "values", "verdict", "detail"), {},
     {"name": "probe", "values": {"x": 1.0}, "verdict": "pass", "detail": "ok"}),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults, required", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_and_defaults(self, cls, fields, defaults, required):
        assert cls._fields == fields
        assert cls._field_defaults == defaults
        record = cls(**required)
        assert type(record) is cls
        assert repr(record).startswith(cls.__name__ + "(")
        for name, value in required.items():
            assert getattr(record, name) is value, name
        for name, value in defaults.items():
            assert getattr(record, name) == value, name

    def test_immutable(self, cls, fields, defaults, required):
        record = cls(**required)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_unknown_field(self, cls, fields, defaults, required):
        with pytest.raises(TypeError):
            cls(**required, extra=None)


# Each validated type with arguments it refuses and the message it gives,
# named by the type and the field and value it refuses.
INVALID = {
    "WeightedSpace-n=1":
        (WeightedSpace, {"n": 1}, "grid needs at least 2 intervals, got n = 1"),
    "WeightedSpace-weight_exponent=3":
        (WeightedSpace, {"n": 4, "weight_exponent": 3},
         "weight exponent must be 1 or 2, got 3"),
    "WeightedSpace-input_norm=l1":
        (WeightedSpace, {"n": 4, "input_norm": "l1"},
         "input norm must be 'euclidean' or 'max', got 'l1'"),
    "PathSpec-lambda_min=0.0":
        (PathSpec, {"lambda_min": 0.0, "lambda_max": 1e4}, "need 0 < lambda_min < lambda_max"),
    "PathSpec-lambda_max=1.0":
        (PathSpec, {"lambda_min": 2.0, "lambda_max": 1.0}, "need 0 < lambda_min < lambda_max"),
    "PathSpec-lambda_max=nan":
        (PathSpec, {"lambda_min": 1e-4, "lambda_max": math.nan},
         "need 0 < lambda_min < lambda_max"),
    "SweepRecord-omega_n=nan":
        (SweepRecord, {"n": 4, "omega_n": math.nan, "d_n": 1.0, "frac_norm_n": 1.0},
         "non-finite sweep record at n = 4"),
    "SweepRecord-d_n=inf":
        (SweepRecord, {"n": 4, "omega_n": 9.0, "d_n": math.inf, "frac_norm_n": 1.0},
         "non-finite sweep record at n = 4"),
    "SweepRecord-frac_norm_n=-inf":
        (SweepRecord, {"n": 8, "omega_n": 9.0, "d_n": 1.0, "frac_norm_n": -math.inf},
         "non-finite sweep record at n = 8"),
}


@pytest.mark.parametrize("cls, kwargs, message", INVALID.values(), ids=INVALID.keys())
def test_validation_message(cls, kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        cls(**kwargs)
    assert str(excinfo.value) == message


def test_run_config_validates_on_request():
    cfg = RunConfig(weight_exponent=3)
    with pytest.raises(ConfigError, match="^weight_exponent must be 1 or 2, got 3$"):
        cfg.validate()


def test_resolvent_gap_needs_two_points():
    # The path is the window alone; the resolvent gap takes its grid's size
    # from lambda_count, which the config refuses below 2.
    with pytest.raises(ConfigError, match="^lambda_count must be >= 2$"):
        RunConfig(lambda_count=1).validate()


def test_parsers_follow_the_fields():
    # The config keys and flags, in field order, with the parser of each.
    parse_schedule = config.PARSERS["n_schedule"]
    assert list(config.PARSERS.items()) == [
        ("n_schedule", parse_schedule), ("a", float), ("alpha", float),
        ("lambda_min", float), ("lambda_max", float), ("lambda_count", int),
        ("weight_exponent", int), ("u_norm", str), ("mu_p", float), ("mu_e", float),
        ("t_end", float), ("h", float), ("seed", int), ("output_dir", str),
    ]
    assert parse_schedule("250, 500,1000") == (250, 500, 1000)
    with pytest.raises(ValueError, match="^entry 4 of 4 in '250, 500,1000,' is empty$"):
        parse_schedule("250, 500,1000,")


BUILDERS = {
    "direct": lambda n, p, norm: build_heat_dirichlet(n, 2.0, p, norm),
    "closure": lambda n, p, norm: close_system(build_preclosure_heat(n, 2.0), p, norm),
}


class TestBuiltSystem:
    """Each builder makes its system's space from n, and its spectrum once;
    every route reads the spectrum the system was built with."""

    @pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS.keys())
    @pytest.mark.parametrize("p, norm", [(1, "max"), (2, "euclidean")])
    def test_space_is_made_from_n(self, builder, p, norm):
        system = builder(6, p, norm)
        assert system.space == WeightedSpace(6, p, norm)
        assert system.eigendecomposition() is system.eig
        np.testing.assert_array_equal(system.eig.eigenvalues,
                                      sym_tridiag_eig(system.a_diag, system.a_offdiag).eigenvalues)

    def test_default_space(self):
        assert build_heat_dirichlet(6, 1.0).space == WeightedSpace(6)
        assert close_system(build_preclosure_heat(6, 1.0)).space == WeightedSpace(6)

    def test_replaced_input_keeps_spectrum(self):
        system = build_heat_dirichlet(6, 1.0)
        driven = system._replace(b_matrix=system.b_matrix[:, [0]])
        assert driven.eig is system.eig

    def test_routes_read_the_built_spectrum(self):
        """A non-uniform generator, which the closed form refuses, built
        around its dense decomposition: each route agrees with a dense
        reference, so each read the decomposition it was given."""
        n = 16
        rng = np.random.default_rng(3)
        c = float(n * n)
        b = np.zeros((n - 1, 2))
        b[0, 0] = b[-1, 1] = c
        system = with_dense_eig(WeightedSpace(n), -c * rng.uniform(3.1, 4.0, n - 1),
                                c * rng.uniform(0.5, 1.5, n - 2), b)
        with pytest.raises(ValueError, match="not uniform"):
            sym_tridiag_eig(system.a_diag, system.a_offdiag)
        assert frac_control_norm(system, 0.5) == pytest.approx(frac_control_norm_gram(system),
                                                               rel=1e-12)
        rhs = rng.standard_normal(n - 1)
        resolvent = apply_matrix_function(system.eigendecomposition(),
                                          lambda lam: 1.0 / (2.0 - lam), rhs)
        np.testing.assert_allclose(resolvent, resolvent_dense(system, 2.0, rhs), rtol=1e-12, atol=0)
        # Held input: x(t) = exp(At) x0 + A^{-1} (exp(At) - I) B u, densely.
        x0, u, t = rng.standard_normal(n - 1), np.array([1.0, -0.5]), 1e-3
        a = a_matrix(system)
        expm = scipy.linalg.expm(a * t)
        expected = expm @ x0 + np.linalg.solve(a, (expm - np.eye(n - 1)) @ (b @ u))
        final = system.eig.eigenvectors @ simulate(system, x0, u[None], t, t).states[0]
        np.testing.assert_allclose(final, expected, rtol=1e-11, atol=1e-13 * np.max(np.abs(expected)))
