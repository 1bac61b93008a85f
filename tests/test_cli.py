"""The ``vqdet`` command line."""

import numpy as np
import pytest

from vqdet import gradcheck
from vqdet import numerics as nm
from vqdet.cli import main
from vqdet.gradcheck import check_scalar_fn


def test_grad_check_named_checks_pass(capsys):
    assert main(["grad-check", "linear", "component_loss", "weighted_sum"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["linear", "component_loss", "weighted_sum"]
    assert all(line.split()[-1] == "ok" for line in lines)


def test_grad_check_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(gradcheck.REGISTRY, "always_off", (lambda rng: 1.0, 1e-5, 1))
    assert main(["grad-check", "linear", "always_off"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].split()[-1] == "FAIL"


def _nan_in_second_leaf(rng) -> float:
    """A check whose second leaf gets one NaN gradient entry from a planted VJP."""
    x, w = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    nan_at_5 = np.where(np.arange(8) == 5, np.nan, 1.0).reshape(4, 2)

    def build(ts):
        planted = nm._node(ts[1].data, (ts[1],), lambda g: (g * nan_at_5,))
        return nm.sum_all(nm.linear(ts[0], planted, nm.Tensor(np.zeros(2))))

    return check_scalar_fn(build, [x, w])


def test_grad_check_nan_error_fails(monkeypatch, capsys):
    monkeypatch.setitem(gradcheck.REGISTRY, "nan_vjp", (_nan_in_second_leaf, 1e-5, 3))
    assert main(["grad-check", "linear", "nan_vjp"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].split()[1:] == ["inf", "1e-05", "FAIL"]


def test_grad_check_unknown_name_is_named(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grad-check", "linear", "no_such_check"])
    assert exc.value.code == 2
    assert "no_such_check" in capsys.readouterr().err
