"""Driver-contract invariants for __ray_entry__.py.

The driver imports the module AFTER calling ray.init itself, runs the
first ~50 queries() entries against oracle_sql() through DuckDB, and
hash-compares values. These tests pin the structural contract so a
refactor can't silently break the gate: key consistency, the 50-slot
driver window, and the one intentionally oracle-less query."""

import sys


def _entry():
    sys.path.insert(0, ".")
    import __ray_entry__ as e

    return e


def test_every_oracle_has_a_query():
    e = _entry()
    q, o = e.queries(), e.oracle_sql()
    missing = set(o) - set(q)
    assert not missing, f"oracle_sql keys without queries(): {missing}"


def test_oracle_coverage_is_total_except_hll():
    """Every deterministic query carries a DuckDB oracle; the only
    rows-only entry is the approximate HLL sketch (its 3-sigma invariant
    companion hll_error_bound IS oracle-checked)."""
    e = _entry()
    q, o = e.queries(), e.oracle_sql()
    no_oracle = set(q) - set(o)
    assert no_oracle == {"distinct_count_hll"}, no_oracle


def test_driver_window_is_50_unique_known_queries():
    e = _entry()
    q = e.queries()
    w = e._DRIVER_WINDOW_FIRST
    assert len(w) == 50
    assert len(set(w)) == 50
    unknown = [k for k in w if k not in q]
    assert not unknown, f"window names not in queries(): {unknown}"
    # queries() iteration order must lead with the window — the driver
    # takes the FIRST ~50 entries
    assert list(q)[:50] == w


def test_module_does_not_own_a_ray_session():
    """Importing the module must not have initialised Ray (driver owns
    the session; tests run under the conftest session fixture, so assert
    on source instead of runtime state)."""
    import ast
    import inspect

    e = _entry()
    tree = ast.parse(inspect.getsource(e))
    calls = [
        n.func.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name) and n.func.value.id == "ray"
        and n.func.attr in ("init", "shutdown")
    ]
    assert not calls, f"__ray_entry__ calls ray.{calls} — driver owns the session"


def test_out_dir_keys_on_the_package_sources(tmp_path, monkeypatch):
    """Two copies of the package that differ in one stripe/ file get
    different query scratch directories, so a gate run never decodes
    outputs another checkout wrote; identical copies share one."""
    import os
    import shutil

    import apacheorcdotnet_ray as pkg

    e = _entry()
    src = os.path.dirname(pkg.__file__)
    copies = []
    for name in ("a", "b", "c"):
        dst = tmp_path / name / "apacheorcdotnet_ray"
        shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
        copies.append(dst)
    with open(copies[1] / "stripe" / "framing.py", "a") as f:
        f.write("\n# one changed line\n")

    def out_dir(copy):
        monkeypatch.setattr(pkg, "__file__", str(copy / "__init__.py"))
        return e._out_dir(str(tmp_path), "rt-lineitem")
    a, b, c = map(out_dir, copies)
    assert a != b
    assert a == c
