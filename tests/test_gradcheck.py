"""The gradient-check suite: reproducible inputs, live pass/fail wiring."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vqdet import gradcheck
from vqdet import numerics as nm
from vqdet.gradcheck import OP_TOLERANCE, _projected, run_suite

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


def _vjp_scaled(op, factor: float):
    """``op`` with its output's VJP multiplied by ``factor``: a planted fault."""
    def scaled(*args):
        out = op(*args)
        if out._vjp is not None:
            vjp = out._vjp
            out._vjp = lambda g: [pg * factor for pg in vjp(g)]
        return out

    return scaled


# a one-leaf op, and an op whose weights are drawn by ``consts``
PROJECTED_OPS = {
    "exp": (nm.exp, [((3, 4), 1.0)], lambda rng: ()),
    "weighted_sum": (lambda a, b, w: nm.weighted_sum([a, b], w), [((), 1.0), ((), 1.0)],
                     lambda rng: (rng.normal(size=2),)),
}


@pytest.mark.parametrize("name", PROJECTED_OPS)
@pytest.mark.parametrize("factor", [None, 1.0 + 1e-3], ids=["unscaled", "scaled"])
def test_projected_check_catches_a_vjp_off_by_a_thousandth(name, factor):
    """The one check that twelve registry entries share fails a VJP scaled by
    1 + 1e-3 and passes the same op unscaled."""
    op, specs, consts = PROJECTED_OPS[name]
    check = _projected(op if factor is None else _vjp_scaled(op, factor), *specs, consts=consts)
    rng = np.random.default_rng(5)
    worst = max(check(rng) for _ in range(5))
    assert (worst > OP_TOLERANCE) == (factor is not None), worst
