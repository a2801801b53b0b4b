import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sunbch
from sunbch.cli import main
from sunbch.verify import RunConfig, run_suite

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return json.loads(out)


def test_compose_quarter_turns(capsys):
    code, out, err = run_cli(
        capsys,
        "compose", "--n", "2",
        "--m", "[1.5708, 0, 0]",
        "--nvec", "[0, 1.5708, 0]",
    )
    assert code == 0 and err == ""
    doc = parse(out)
    np.testing.assert_allclose(doc["r"], [0.0, 0.0, 1.5708], atol=1e-4)
    assert doc["residual"] < 1e-9
    assert len(doc["rho"]) == 3 and len(doc["rho"][0]) == 2


def test_compose_identity_right_factor(capsys):
    code, out, _ = run_cli(
        capsys,
        "compose", "--n", "2",
        "--m", "[0.3, -0.2, 0.5]",
        "--nvec", "[0, 0, 0]",
    )
    assert code == 0
    doc = parse(out)
    np.testing.assert_allclose(doc["r"], [0.3, -0.2, 0.5], atol=1e-10)
    assert doc["residual"] < 1e-9


def test_compose_n4_self_check(capsys):
    from sunbch import cached_algebra
    from conftest import seeded_samples

    basis, _ = cached_algebra(4)
    m, nvec = seeded_samples(basis, 211, 2)
    code, out, _ = run_cli(
        capsys,
        "compose", "--n", "4",
        "--m", json.dumps(list(m)),
        "--nvec", json.dumps(list(nvec)),
    )
    assert code == 0
    assert parse(out)["residual"] < 1e-9


def test_similarity_zero_exponent(capsys):
    code, out, _ = run_cli(
        capsys,
        "similarity", "--n", "2",
        "--m", "[0, 0, 0]",
        "--nvec", "[0.1, 0.2, 0.3]",
    )
    assert code == 0
    doc = parse(out)
    np.testing.assert_allclose(doc["nprime"], [0.1, 0.2, 0.3], atol=1e-12)


def test_similarity_half_angle_rotation(capsys):
    code, out, _ = run_cli(
        capsys,
        "similarity", "--n", "2",
        "--m", "[0, 0, 0.7854]",
        "--nvec", "[1, 0, 0]",
    )
    assert code == 0
    doc = parse(out)
    np.testing.assert_allclose(doc["nprime"], [0.0, 1.0, 0.0], atol=1e-4)
    assert doc["norm_drift"] < 1e-9
    assert doc["scalar_constraint"] < 1e-9


def test_similarity_half_turn(capsys):
    """Tr exp(-iM) = 0 here; conjugating s1 by a half-turn about z gives -s1."""
    code, out, _ = run_cli(
        capsys,
        "similarity", "--n", "2",
        "--m", "[0, 0, 1.5707963267948966]",
        "--nvec", "[1, 0, 0]",
    )
    assert code == 0
    doc = parse(out)
    np.testing.assert_allclose(doc["nprime"], [-1.0, 0.0, 0.0], atol=1e-12)
    assert doc["norm_drift"] < 1e-9


def test_similarity_linearizes_once(capsys, monkeypatch):
    """One linearization per call, and the report the two-linearization
    front end produced, byte for byte."""
    from sunbch import cached_algebra, linearize_fn, similarity
    from sunbch.cli import _render

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return linearize_fn(*args, **kwargs)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("sunbch") and getattr(module, "linearize_fn", None) is linearize_fn:
            monkeypatch.setattr(module, "linearize_fn", counted)

    # the README example and the N = 2 half-turn
    for m, nvec in (([0, 0, 0.7854], [1, 0, 0]), ([0, 0, 1.5707963267948966], [1, 0, 0])):
        calls.clear()
        code, out, err = run_cli(
            capsys, "similarity", "--n", "2", "--m", json.dumps(m), "--nvec", json.dumps(nvec)
        )
        assert code == 0 and err == ""
        assert len(calls) == 1
        basis, tensors = cached_algebra(2)
        m, nvec = np.asarray(m, dtype=float), np.asarray(nvec, dtype=float)
        nprime = similarity(tensors, basis, m, nvec)
        mu = linearize_fn(tensors, basis, m).conj()
        expected = {
            "nprime": [float(x) for x in nprime],
            "norm_drift": abs(float(np.sqrt(np.dot(nprime, nprime)) - np.sqrt(np.dot(nvec, nvec)))),
            "scalar_constraint": abs(complex(np.dot(mu.vector, nvec) - np.dot(mu.vector, nprime))),
        }
        assert out == _render(expected) + "\n"


@pytest.mark.parametrize("n", [2, 3, 8])
def test_similarity_large_observables_exit_0(capsys, n):
    """An observable of norm 1e8, and one of norm 1e300 under m = 0, are
    conjugated with a finite report (the guards scale with |n|)."""
    from sunbch import cached_algebra, random_coords

    basis, _ = cached_algebra(n)
    rng = np.random.default_rng(5)
    m, nvec = random_coords(basis, rng), random_coords(basis, rng)
    for m, nvec in ((m, nvec * 1e8 / np.linalg.norm(nvec)), (np.zeros(basis.dim), nvec * 1e300)):
        code, out, err = run_cli(
            capsys,
            "similarity", "--n", str(n),
            "--m", json.dumps(m.tolist()),
            "--nvec", json.dumps(nvec.tolist()),
        )
        assert code == 0 and err == ""
        assert len(parse(out)["nprime"]) == basis.dim


def test_similarity_degenerate_exponent_exits_0(capsys):
    """lambda_8 has a double eigenvalue; exp(-iM) is still its Hermite
    interpolant, so the conjugation succeeds and matches the dense oracle."""
    from sunbch import cached_algebra, similarity_direct

    basis, _ = cached_algebra(3)
    e8 = [0, 0, 0, 0, 0, 0, 0, 1]
    code, out, err = run_cli(
        capsys,
        "similarity", "--n", "3",
        "--m", json.dumps(e8),
        "--nvec", json.dumps([1] * 8),
    )
    assert code == 0 and err == ""
    expected = similarity_direct(basis, np.array(e8, dtype=float), np.ones(8))
    assert np.max(np.abs(np.array(parse(out)["nprime"]) - expected)) <= 1e-13


def test_basis_n2(capsys):
    code, out, _ = run_cli(capsys, "basis", "--n", "2")
    assert code == 0
    doc = parse(out)
    assert doc["n"] == 2
    assert doc["f"] == [[1, 2, 3, 1.0]]
    assert doc["d"] == []
    assert len(doc["generators"]) == 3
    assert doc["checks"]["max_jacobi_residual"] < 1e-12
    assert doc["checks"]["max_orthonormality_defect"] < 1e-12


def test_basis_n3_checks(capsys):
    code, out, _ = run_cli(capsys, "basis", "--n", "3", "--emit", "generators")
    assert code == 0
    doc = parse(out)
    assert len(doc["generators"]) == 8
    assert doc["checks"]["max_jacobi_residual"] < 1e-12
    assert "f" not in doc


@pytest.mark.parametrize("n", [2, 3])
def test_basis_checks_are_the_suite_rows(capsys, n):
    # One definition of each tensor check, read by `basis` and `verify`.
    _, out, _ = run_cli(capsys, "basis", "--n", str(n), "--emit", "f")
    checks = parse(out)["checks"]
    rows = {
        row["name"]: row["max_residual"]
        for row in run_suite(RunConfig(n, 1, 1))["properties"]
    }
    assert checks["max_jacobi_residual"] == rows["jacobi_ff"]
    assert checks["max_orthonormality_defect"] == rows["orthonormality"]


def test_basis_emit_selector(capsys):
    code, out, _ = run_cli(capsys, "basis", "--n", "2", "--emit", "d")
    doc = parse(out)
    assert code == 0 and "d" in doc and "f" not in doc and "generators" not in doc


def test_verify_n2_thousand_trials(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "2", "--trials", "1000", "--seed", "42"
    )
    assert code == 0
    report = parse(out)
    assert report["pass"] is True
    assert max(r["max_residual"] for r in report["properties"]) < 1e-9


def test_verify_n4_two_hundred_trials(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--trials", "200", "--seed", "42"
    )
    assert code == 0
    assert parse(out)["pass"] is True


@pytest.mark.parametrize("n, seed", [(6, 2), (8, 4), (8, 8)])
def test_verify_large_n_ends_in_report(capsys, n, seed):
    # Each configuration once stopped with exit 3 (an ill-conditioned
    # Vandermonde solve, inside linearize_fn for the first two and inside
    # the expansion_coeffs cross-check for N = 8, seed 8) before writing
    # any report.
    code, out, _ = run_cli(
        capsys, "verify", "--n", str(n), "--trials", "10", "--seed", str(seed)
    )
    assert code == 0
    report = parse(out)
    assert report["pass"] is True
    assert report["n"] == n


@pytest.mark.parametrize("seed", [16, 32, 48])
def test_verify_n4_benchmark_seeds_pass(capsys, seed):
    # The first `sunbch verify` seeds the verify-n4 benchmark workload runs;
    # each property, not only the route agreements, has to pass on them.
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--trials", "50", "--seed", str(seed)
    )
    report = parse(out)
    assert report["failed"] == []
    assert code == 0


def test_verify_unreachable_tolerance_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "2", "--trials", "5", "--tol", "1e-16"
    )
    assert code == 1
    report = parse(out)
    assert report["pass"] is False
    assert report["failed"]


@pytest.mark.parametrize("cap", ["1e-7", "inf"])
def test_verify_unmeetable_spectral_cap_exits_2(capsys, cap):
    # 1e-7 leaves no draw with eigenvalue gaps of min_gap; inf is refused
    # up front.  Either way a usage error, not a failed property.
    code, out, err = run_cli(
        capsys, "verify", "--n", "3", "--trials", "1", "--spectral-cap", cap
    )
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "usage"
    assert "spectral_cap" in doc["message"]


def test_verify_byte_identical_reports(capsys):
    _, first, _ = run_cli(capsys, "verify", "--n", "3", "--trials", "10")
    _, second, _ = run_cli(capsys, "verify", "--n", "3", "--trials", "10")
    assert first == second


def test_float_rendering_has_full_precision(capsys):
    from sunbch import cached_algebra

    _, out, _ = run_cli(capsys, "basis", "--n", "3", "--emit", "d")
    # every tensor value must round-trip bit-exactly through the report
    _, t = cached_algebra(3)
    parsed = [tuple(row) for row in parse(out)["d"]]
    assert parsed == [tuple(entry) for entry in t.d_entries]


def test_usage_error_bad_n(capsys):
    code, out, err = run_cli(
        capsys, "basis", "--n", "1"
    )
    assert code == 2
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize(
    "bad",
    ["[1, 2", '{"a": 1}', '[{"a": 1}, 0, 0]', '["a", 0, 0]'],
    ids=["not-json", "object", "object-entry", "string-entry"],
)
def test_usage_error_malformed_vector(capsys, bad):
    """Text that is no JSON, or JSON that is no array of numbers, is a
    usage error naming the flag, never a traceback."""
    code, _, err = run_cli(
        capsys,
        "compose", "--n", "2", "--m", bad, "--nvec", "[0, 0, 0]",
    )
    assert code == 2
    report = json.loads(err)
    assert report["error"] == "usage"
    assert "--m" in report["message"]


def test_usage_error_wrong_length(capsys):
    code, _, err = run_cli(
        capsys,
        "compose", "--n", "2", "--m", "[1, 2]", "--nvec", "[0, 0, 0]",
    )
    assert code == 2
    assert "3" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["compose", "similarity"])
@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_usage_error_nonfinite_coordinate(capsys, command, bad):
    code, out, err = run_cli(
        capsys,
        command, "--n", "3",
        "--m", f"[{bad}, 0, 0, 0, 0, 0, 0, 0]",
        "--nvec", "[0.1, 0, 0, 0, 0, 0, 0, 0]",
    )
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "usage"
    assert "--m" in report["message"] and "finite" in report["message"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "basis", "--n", "2", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 2


def test_output_unwritable_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "basis", "--n", "2", "--output", str(target))
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "usage"
    assert "x.json" in doc["message"]


def test_verify_nonfinite_tol_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--trials", "1", "--tol", "inf")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "usage" and "tol" in doc["message"]


@pytest.mark.parametrize("n, scale", [(2, "1e10"), (3, "1e10")])
def test_compose_rounding_out_of_group_exits_3(capsys, n, scale):
    dim = n * n - 1
    m = json.dumps([float(scale)] + [0.0] * (dim - 1))
    nvec = json.dumps([0.0, 0.2] + [0.0] * (dim - 2))
    code, out, err = run_cli(capsys, "compose", "--n", str(n), "--m", m, "--nvec", nvec)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "constraint-violation"


@pytest.mark.parametrize("n, fragment", [(2, "is not finite"), (8, "reached nan")])
def test_compose_huge_exponent_exits_3(capsys, n, fragment):
    """m = 1e200 L1 overflows the Newton form: a typed refusal (exit 3),
    not NaN coordinates refused later as a non-unitary product."""
    dim = n * n - 1
    m = json.dumps([1e200] + [0.0] * (dim - 1))
    code, out, err = run_cli(capsys, "compose", "--n", str(n), "--m", m, "--nvec", json.dumps([0.0] * dim))
    assert code == 3 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "constraint-violation" and fragment in doc["message"]


def run_console_script(*argv):
    """Run the `sunbch` script declared in pyproject.toml as its own process.

    The target is resolved from the checkout rather than from PATH, and the
    child imports the same `sunbch` package as this test.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["sunbch"]
    module, function = target.split(":")
    launcher = (
        "import sys; sys.argv[0] = 'sunbch'; "
        f"from {module} import {function}; {function}()"
    )
    return run_checkout_python("-c", launcher, *argv)


def run_checkout_python(*args):
    """Run `python *args` as its own process, importing this test's `sunbch`."""
    package_root = str(Path(sunbch.__file__).resolve().parents[1])
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [package_root, pythonpath])),
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.mark.parametrize("n", [2, 8])
def test_overflow_refusal_is_all_of_stderr(n):
    """`python -m sunbch` writes the refusal of m = 1e200 L1 as the whole of
    stderr, one JSON document, with no floating-point warning before it."""
    dim = n * n - 1
    m, nvec = json.dumps([1e200] + [0.0] * (dim - 1)), json.dumps([0.0] * dim)
    child = run_checkout_python("-m", "sunbch", "compose", "--n", str(n), "--m", m, "--nvec", nvec)
    assert child.returncode == 3 and child.stdout == ""
    assert json.loads(child.stderr)["error"] == "constraint-violation"


def test_console_script_entry_point():
    script = run_console_script("basis", "--n", "2", "--emit", "f")
    assert script.returncode == 0
    assert json.loads(script.stdout)["f"] == [[1, 2, 3, 1.0]]

    usage = run_console_script("basis", "--n", "1")
    assert usage.returncode == 2
    assert json.loads(usage.stderr)["error"] == "usage"


def test_import_leaves_verification_suite_unloaded():
    # The suite and the LU module load with the CLI, not with the package.
    child = run_checkout_python(
        "-c",
        "import sys, sunbch; "
        "print([m for m in ('sunbch.verify', 'sunbch.linsolve') if m in sys.modules])",
    )
    assert child.returncode == 0 and child.stderr == ""
    assert child.stdout == "[]\n"


@pytest.mark.parametrize("module", ["sunbch", "sunbch.cli"])
def test_python_dash_m_runs_cli(capsys, module):
    argv = ["verify", "--n", "2", "--trials", "3"]
    child = run_checkout_python("-m", module, *argv)
    assert main(argv) == 0
    assert child.returncode == 0 and child.stderr == ""
    assert child.stdout == capsys.readouterr().out

    usage = run_checkout_python("-m", module, "basis", "--n", "1")
    assert usage.returncode == 2
    assert json.loads(usage.stderr)["error"] == "usage"


@pytest.mark.skipif(
    shutil.which("sunbch") is None, reason="sunbch console script not installed"
)
def test_installed_console_script_matches_checkout(capsys):
    argv = ["basis", "--n", "2", "--emit", "f"]
    script = subprocess.run(["sunbch", *argv], capture_output=True)
    assert main(argv) == 0
    assert script.returncode == 0
    assert script.stdout == capsys.readouterr().out.encode("utf-8")
