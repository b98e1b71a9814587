"""Smoke test of ``scripts/ranking_evidence.py``, which no other test imports.

The script's studies take about a minute, so only its pieces run here: the
paired line it prints and the context managers that swap index functions
(T and TK, or round_robin), which every index path must see and which
restore the table on exit.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

from cellsched import strategies
from cellsched.metrics import MetricsReport
from cellsched.strategies import StrategySpec, select_client

from conftest import index_of, make_view

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import ranking_evidence  # noqa: E402


def reports(*values) -> list[MetricsReport]:
    return [MetricsReport(alpt=1.0, log_alpt=v, completed=1) for v in values]


def test_print_pair_bytes(capsys):
    # differences 0.5, 1, 1: mean 5/6, sd sqrt(1/12), t 5
    a, b = reports(2.5, 3.0, 4.0), reports(2.0, 2.0, 3.0)
    ranking_evidence.print_pair("a - b", a, b)
    ranking_evidence.print_pair("a - b", a, b, digits=5)
    assert capsys.readouterr().out == (
        f"  {'a - b':<24} +0.8333  sd 0.2887  t    5.0\n"
        f"  {'a - b':<24} +0.83333  sd 0.28868  t    5.0\n"
    )


def test_tied_pair_prints_zero_t(capsys):
    a = reports(7.1, 7.2, 7.0)
    ranking_evidence.print_pair("tas - tas", a, a)
    assert capsys.readouterr().out == f"  {'tas - tas':<24} +0.0000  sd 0.0000  t    0.0\n"


def test_never_served_first_restores_index_funcs():
    saved = dict(strategies._INDEX_FUNCS)
    with ranking_evidence.never_served_first():
        assert strategies._INDEX_FUNCS["T"] is not saved["T"]
        assert strategies._INDEX_FUNCS["TK"] is not saved["TK"]
    assert strategies._INDEX_FUNCS == saved
    with pytest.raises(RuntimeError), ranking_evidence.never_served_first():
        raise RuntimeError
    assert strategies._INDEX_FUNCS == saved


def test_never_served_first_reaches_every_index_path():
    # by the T formula a never-served flow of positive age scores 0, so the
    # served flow wins; the patched entry scores it +inf on every path
    t = StrategySpec(kind="T")
    linear = StrategySpec(kind="linear", children=(t,), weights=(1.0,))
    never, served = make_view(id=0, served=0.0, age=7), make_view(id=1, last_served=9)

    def seen():
        chosen = select_client(t, [never, served]).spec.id
        return index_of(t, never), index_of(linear, never), chosen

    assert seen() == (0.0, 0.0, 1)
    with ranking_evidence.never_served_first():
        assert seen() == (math.inf, math.inf, 0)
    assert seen() == (0.0, 0.0, 1)


def test_cyclic_round_robin_restores_index_funcs():
    saved = dict(strategies._INDEX_FUNCS)
    with ranking_evidence.cyclic_round_robin():
        changed = {k for k, fn in strategies._INDEX_FUNCS.items() if fn is not saved[k]}
        assert changed == {"round_robin"}
    assert strategies._INDEX_FUNCS == saved
    with pytest.raises(RuntimeError), ranking_evidence.cyclic_round_robin():
        raise RuntimeError
    assert strategies._INDEX_FUNCS == saved


def test_cyclic_round_robin_serves_the_least_recently_served_flow():
    # 1/age serves the younger flow; a constant index leaves it to the tie rule,
    # which serves the flow served longer ago
    rr = StrategySpec(kind="round_robin")
    older, younger = make_view(id=0, age=9, last_served=3), make_view(id=1, age=2, last_served=8)
    assert select_client(rr, [older, younger]) is younger
    with ranking_evidence.cyclic_round_robin():
        assert index_of(rr, older) == index_of(rr, younger)
        assert select_client(rr, [older, younger]) is older
    assert select_client(rr, [older, younger]) is younger
