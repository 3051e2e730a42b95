"""One command climbs a tower: ``verify`` is the only caller of
``iwasawa.verify_growth``, so a growth-law mismatch always exits 5."""

from ast_guards import calls_or_raises


def test_verify_growth_is_called_only_by_cmd_verify():
    found = calls_or_raises("verify_growth")
    assert found == {("cli.py", "cmd_verify")}
