"""The gradient-check suite: reproducible inputs, live pass/fail wiring."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from vqdet import gradcheck
from vqdet.gradcheck import run_suite

SRC = Path(__file__).resolve().parents[1] / "src"


def _linear_error_in_fresh_process(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = "from vqdet.gradcheck import run_suite; print(run_suite(names=['linear'])[0][1].hex())"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_inputs_do_not_depend_on_the_string_hash_seed():
    assert _linear_error_in_fresh_process("1") == _linear_error_in_fresh_process("2")


@pytest.mark.parametrize("name", list(gradcheck.REGISTRY))
def test_registered_check_passes(name):
    (row,) = run_suite(names=[name])
    assert row[0] == name and row[3], row


def test_perturbed_suite_fails(monkeypatch):
    fn, tol, repeats = gradcheck.REGISTRY["linear"]
    monkeypatch.setitem(gradcheck.REGISTRY, "linear",
                        (lambda rng: fn(rng) + 10.0 * tol, tol, repeats))
    (row,) = run_suite(names=["linear"])
    assert not row[3]
