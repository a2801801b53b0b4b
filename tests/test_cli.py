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
    from sunbch.linearize import exp_plus_i

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
        mu = linearize_fn(tensors, basis, m, exp_plus_i)
        expected = {
            "nprime": [float(x) for x in nprime],
            "norm_drift": abs(float(np.sqrt(np.dot(nprime, nprime)) - np.sqrt(np.dot(nvec, nvec)))),
            "scalar_constraint": abs(complex(np.dot(mu.vector, nvec) - np.dot(mu.vector, nprime))),
        }
        assert out == _render(expected) + "\n"


def test_similarity_degenerate_exponent_exits_3(capsys):
    e8 = [0, 0, 0, 0, 0, 0, 0, 1]
    code, out, err = run_cli(
        capsys,
        "similarity", "--n", "3",
        "--m", json.dumps(e8),
        "--nvec", json.dumps([1] * 8),
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "degenerate-spectrum"


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


def test_verify_unreachable_tolerance_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "2", "--trials", "5", "--tol", "1e-16"
    )
    assert code == 1
    report = parse(out)
    assert report["pass"] is False
    assert report["failed"]


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


def test_usage_error_malformed_vector(capsys):
    code, _, err = run_cli(
        capsys,
        "compose", "--n", "2", "--m", "[1, 2", "--nvec", "[0, 0, 0]",
    )
    assert code == 2
    assert "JSON" in json.loads(err)["message"]


def test_usage_error_wrong_length(capsys):
    code, _, err = run_cli(
        capsys,
        "compose", "--n", "2", "--m", "[1, 2]", "--nvec", "[0, 0, 0]",
    )
    assert code == 2
    assert "3" in json.loads(err)["message"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "basis", "--n", "2", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 2


def run_console_script(*argv):
    """Run the `sunbch` script declared in pyproject.toml as its own process.

    The target is resolved from the checkout rather than from PATH, and the
    child imports the same `sunbch` package as this test.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["sunbch"]
    module, function = target.split(":")
    package_root = str(Path(sunbch.__file__).resolve().parents[1])
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [package_root, pythonpath])),
    )
    launcher = (
        "import sys; sys.argv[0] = 'sunbch'; "
        f"from {module} import {function}; {function}()"
    )
    return subprocess.run(
        [sys.executable, "-c", launcher, *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_console_script_entry_point():
    script = run_console_script("basis", "--n", "2", "--emit", "f")
    assert script.returncode == 0
    assert json.loads(script.stdout)["f"] == [[1, 2, 3, 1.0]]

    usage = run_console_script("basis", "--n", "1")
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
