"""The gradient-check suite: reproducible inputs, live pass/fail wiring."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_fused_loss_entries_pass():
    rows = run_suite(names=["l1_loss", "giou_loss", "weighted_sum"])
    assert [name for name, *_ in rows] == ["l1_loss", "giou_loss", "weighted_sum"]
    assert all(ok for *_, ok in rows), rows


def test_perturbed_suite_fails():
    (row,) = run_suite(names=["linear"], perturb=True)
    assert not row[3]


def test_attention_entries_pass():
    rows = run_suite(names=["masked_multihead_attention", "multihead_cross_attention"])
    assert all(ok for *_, ok in rows), rows
