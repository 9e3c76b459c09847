import io
import math

import numpy as np
import pytest

from issgains import systems
from issgains.config import CSV_HEADER, DEFAULT_THETA
from issgains.fattorini import PathSpec
from issgains.gains import LIMIT_TOL, assemble_gains, k_constants
from issgains.sweep import SweepRecord, emit_csv, run_sweep

PATH = PathSpec()


class TestRunSweep:
    def test_single_resolution(self):
        (rec,) = run_sweep([3], 1.0, 0.5, PATH)
        assert rec.n == 3
        assert rec.omega_n == pytest.approx(9.0, rel=1e-12)
        assert rec.d_n == pytest.approx(10001.0 / 10009.0, rel=1e-12)
        assert rec.frac_norm_n == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_omega_increases_toward_limit(self):
        records = run_sweep([50, 100, 200, 400], 1.0, 0.5, PATH)
        omegas = [r.omega_n for r in records]
        assert all(a < b for a, b in zip(omegas, omegas[1:]))
        assert omegas[-1] < math.pi**2

    def test_schedule_independence(self):
        alone = run_sweep([64], 1.0, 0.5, PATH)[0]
        within = run_sweep([32, 64, 128], 1.0, 0.5, PATH)[1]
        assert alone == within

    def test_one_eigensolve_per_resolution(self, monkeypatch):
        # growth, sector and fractional norm all read the one memoized
        # decomposition of each system.  The heat generator is uniform, so
        # the decomposition is the closed form and never reaches LAPACK;
        # count the calls of the system's decomposition entry point instead.
        calls = []
        solver = systems.sym_tridiag_eig

        def counting(*args, **kwargs):
            calls.append(np.asarray(args[0]).size)
            return solver(*args, **kwargs)

        monkeypatch.setattr(systems, "sym_tridiag_eig", counting)
        run_sweep([16, 32, 64], 1.0, 0.5, PATH)
        assert calls == [15, 31, 63]

    @pytest.mark.parametrize("schedule", [[], [4, 4], [8, 4], [1, 4]])
    def test_bad_schedules(self, schedule):
        with pytest.raises(ValueError):
            run_sweep(schedule, 1.0, 0.5, PATH)


class TestAggregate:
    """The limits over n that assemble_gains takes from a real sweep."""

    def records(self, ns):
        return run_sweep(ns, 1.0, 0.5, PATH)

    def test_omega_cauchy_convergence(self):
        records = self.records([2000, 4000])
        bundle = assemble_gains(records, 0.5, DEFAULT_THETA)
        assert bundle.beta_omega == records[-1].omega_n
        last_delta = records[-1].omega_n - records[-2].omega_n
        assert 0.0 < last_delta <= 1e-4
        # Taylor expansion of the discrete rate: delta ~ pi^4/12 (1/2000^2 - 1/4000^2)
        assert last_delta == pytest.approx(math.pi**4 / 12 * (1 / 2000**2 - 1 / 4000**2),
                                           rel=1e-2)
        assert abs(records[-1].frac_norm_n - records[-2].frac_norm_n) <= LIMIT_TOL

    def test_d_hat_is_supremum(self):
        records = self.records([100, 200, 400])
        bundle = assemble_gains(records, 0.5, DEFAULT_THETA)
        omega = records[-1].omega_n
        # K2 grows with D, so the supremum gives the largest K2 of any record.
        k2_sup = k_constants(0.5, DEFAULT_THETA, omega, max(r.d_n for r in records))[1]
        assert bundle.k2 == k2_sup
        assert all(bundle.k2 >= k_constants(0.5, DEFAULT_THETA, omega, r.d_n)[1]
                   for r in records)

    def test_mu_scaling(self):
        records = self.records([100, 200])
        plain = assemble_gains(records, 0.5, DEFAULT_THETA)
        scaled = assemble_gains(records, 0.5, DEFAULT_THETA, mu_p=1.1, mu_e=1.2)
        # K2 is linear in D, so D = mu_p mu_e max D_n scales it by 1.32.
        assert scaled.k2 == pytest.approx(1.32 * plain.k2, rel=1e-12)
        assert scaled.k1 == plain.k1
        assert scaled.beta_m == pytest.approx(1.32, rel=1e-12)


class TestEmitCsv:
    def test_format(self):
        rec = SweepRecord(n=3, omega_n=9.0, d_n=0.9992006794, frac_norm_n=math.sqrt(2.0))
        buf = io.BytesIO()
        nbytes = emit_csv([rec], buf)
        text = buf.getvalue().decode()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "3,9.000000000,0.9992006794,1.414213562"
        assert text.endswith("\n")
        assert nbytes == len(buf.getvalue())

    def test_round_trip(self):
        records = run_sweep([16, 32], 1.0, 0.5, PATH)
        buf = io.BytesIO()
        emit_csv(records, buf)
        lines = buf.getvalue().decode().splitlines()[1:]
        for rec, line in zip(records, lines):
            n, omega, d, frac = line.split(",")
            assert int(n) == rec.n
            assert float(omega) == pytest.approx(rec.omega_n, rel=1e-9)
            assert float(d) == pytest.approx(rec.d_n, rel=1e-9)
            assert float(frac) == pytest.approx(rec.frac_norm_n, rel=1e-9)

    def test_determinism(self):
        records = run_sweep([16, 32], 1.0, 0.5, PATH)
        bufs = []
        for _ in range(2):
            buf = io.BytesIO()
            emit_csv(run_sweep([16, 32], 1.0, 0.5, PATH), buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_file_output(self, tmp_path):
        dest = tmp_path / "sub" / "sweep.csv"
        emit_csv(run_sweep([8], 1.0, 0.5, PATH), str(dest))
        assert dest.read_text().startswith(CSV_HEADER)

    def test_empty_records(self):
        with pytest.raises(ValueError):
            emit_csv([], io.BytesIO())

    def test_non_finite_record_rejected(self):
        with pytest.raises(ValueError):
            SweepRecord(n=4, omega_n=float("nan"), d_n=1.0, frac_norm_n=1.0)
