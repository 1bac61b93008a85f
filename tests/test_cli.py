"""The ``vqdet`` command line."""

import pytest

from vqdet import gradcheck
from vqdet.cli import main


def test_grad_check_named_checks_pass(capsys):
    assert main(["grad-check", "linear", "sigmoid_focal_loss", "giou_loss"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["linear", "sigmoid_focal_loss", "giou_loss"]
    assert all(line.split()[-1] == "ok" for line in lines)


def test_grad_check_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(gradcheck.REGISTRY, "always_off", (lambda rng: 1.0, 1e-5, 1))
    assert main(["grad-check", "linear", "always_off"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].split()[-1] == "FAIL"


def test_grad_check_unknown_name_is_named(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grad-check", "linear", "no_such_check"])
    assert exc.value.code == 2
    assert "no_such_check" in capsys.readouterr().err
