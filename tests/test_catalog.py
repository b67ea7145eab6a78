import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from projconn.catalog import CHARTS, builtin, catalog_names
from projconn.connections import PROJECTIVE
from projconn.curvature import lam_scale, nullity_fit
from projconn.geometry import load_spec, sample
from projconn.theorems import run_checks

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_core_names_stable():
    names = catalog_names()
    assert len(names) >= 5
    assert "euclidean3" in names
    assert "cylinder_s2xr" in names
    assert "gssf_c1" in names
    assert "sphere3_bad_xi" in names


@pytest.mark.parametrize("name", catalog_names())
def test_every_entry_loads(name):
    entry = builtin(name)
    assert entry.spec.name == name
    assert entry.provenance


def test_unknown_entry_rejected():
    with pytest.raises(KeyError):
        builtin("torus_of_unusual_size")


@pytest.mark.parametrize(
    "name",
    ["../charts/euclidean3", "euclidean3.manifold", "", "euclidean2", "euclidean6", "euclidean03"],
)
def test_only_catalog_names_are_entries(name):
    with pytest.raises(KeyError):
        builtin(name)


def test_chart_files_are_the_catalog():
    assert sorted(p.stem for p in CHARTS.glob("*.manifold")) == sorted(catalog_names())


def test_package_data_ships_every_chart(tmp_path):
    # An installed package has only what build_py copies, so the charts
    # must be declared as package data.
    pytest.importorskip("setuptools")
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO_ROOT / "pyproject.toml", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "build_py", "--build-lib", "out"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    built = tmp_path / "out" / "projconn" / "charts"
    assert sorted(p.stem for p in built.glob("*.manifold")) == sorted(catalog_names())


def test_builtin_equals_loaded_document():
    for name in catalog_names():
        assert load_spec(CHARTS / f"{name}.manifold") == builtin(name).spec


@pytest.mark.parametrize("name", catalog_names())
def test_declared_gate_flags_verified(name):
    spec = builtin(name).spec
    report = run_checks(spec, sample(spec, 40, seed=5), selected=["parallel_unit_xi"])[0]
    measured_parallel = report.gate_status == "passed"
    assert measured_parallel == spec.parallel_xi_expected


@pytest.mark.parametrize("name", catalog_names())
def test_verdicts_do_not_depend_on_the_seed(name):
    # the benchmark's verdict table names one verdict per chart and check
    # for every run seed; the sample points are all a seed changes
    spec = builtin(name).spec
    verdicts = {
        seed: [(r.check_id, "skip" if r.skipped else "pass" if r.passed else "fail")
               for r in run_checks(spec, count=200, seed=seed)]
        for seed in (0, 7, 42, 1234)
    }
    assert all(v == verdicts[42] for v in verdicts.values()), verdicts


def test_gate_failure_magnitude_on_sphere():
    spec = builtin("sphere3_bad_xi").spec
    report = run_checks(spec, sample(spec, 40, seed=5), selected=["parallel_unit_xi"])[0]
    assert report.residual_max > 0.1


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_nullity_scale_across_dimensions(n):
    spec = builtin(f"euclidean{n}").spec
    fit = nullity_fit(spec, PROJECTIVE, sample(spec, 30, seed=13))
    assert fit.k == pytest.approx(lam_scale(n), abs=1e-10)
    assert fit.k == pytest.approx(-(n * n) / (n + 1.0) ** 2, abs=1e-10)


def test_gssf_structure_fields_present():
    for name in ("gssf_c1", "gssf_c4"):
        spec = builtin(name).spec
        assert spec.phi is not None
        assert spec.f1 is not None and spec.f2 is not None and spec.f3 is not None


def test_gssf_coefficients():
    from projconn import expr as ex

    c1 = builtin("gssf_c1").spec
    assert ex.evaluate(c1.f1, {}) == pytest.approx(0.25)
    c4 = builtin("gssf_c4").spec
    assert ex.evaluate(c4.f1, {}) == pytest.approx(1.0)
