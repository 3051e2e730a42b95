"""One place pauses the cyclic garbage collector: ``cli.main``, around
its handler.  The library leaves the interpreter's collector alone."""

import pytest

from ast_guards import calls_or_raises


@pytest.mark.parametrize("name", ["disable", "enable"])
def test_the_collector_is_paused_and_resumed_only_by_main(name):
    assert calls_or_raises(name) == {("cli.py", "main")}


@pytest.mark.parametrize("name", ["collect", "set_threshold", "freeze"])
def test_nothing_runs_or_tunes_the_collector(name):
    assert calls_or_raises(name) == set()
