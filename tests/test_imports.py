"""What `import binwords` loads, each case in a fresh interpreter.

The package imports errors, words and morphisms at once and loads detect,
search and checks the first time one of their names is read; numpy loads
with detect, which checks and the CLI import only where they scan.  A
pytest process has long since imported every module, so each case here
runs its code in a new interpreter and reads its `sys.modules`.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAZY = ("binwords.detect", "binwords.search", "binwords.checks")


def fresh(code: str) -> set[str]:
    """Run code in a new interpreter after `import binwords`; the numpy and
    binwords modules loaded at its end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    script = "import sys\nimport binwords\n" + textwrap.dedent(code) + textwrap.dedent("""
        print(json.dumps(sorted(m for m in sys.modules
                                if m == "numpy" or m.startswith("binwords"))))
    """)
    proc = subprocess.run([sys.executable, "-c", "import json\n" + script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_bare_import_loads_neither_numpy_nor_the_lazy_modules():
    loaded = fresh("")
    assert loaded == {"binwords", "binwords.errors", "binwords.words", "binwords.morphisms"}


def test_scan_loads_detect_only():
    loaded = fresh("""
        w = binwords.fixed_point_prefix(binwords.PRESETS["g"].morphism, 0, 300)
        assert not binwords.scan_word(w, 2, 2).found
    """)
    assert {"numpy", "binwords.detect"} <= loaded
    assert not loaded & {"binwords.search", "binwords.checks"}


def test_search_loads_search_and_battery_loads_checks():
    loaded = fresh("""
        assert binwords.longest_avoiding(2, 2, 3, 20).max_length == 20
    """)
    assert {"binwords.detect", "binwords.search"} <= loaded
    assert "binwords.checks" not in loaded
    loaded = fresh("""
        cfg = binwords.CheckConfig(desub_scan_len=100, desub_max_len=8)
        assert [r.passed for r in binwords.run_all(cfg, names=["desubstitution"])] == [True]
    """)
    assert {"numpy", "binwords.detect", "binwords.checks"} <= loaded
    assert "binwords.search" not in loaded


def test_word_level_command_loads_neither_numpy_nor_detect_nor_search():
    # the CLI imports checks for verify's choices, and checks loads detect
    # (and numpy) only in the checks that scan
    loaded = fresh("""
        from binwords import cli
        assert cli.main(["signature", "01"]) == 0
    """)
    assert "binwords.cli" in loaded
    assert not loaded & {"numpy", "binwords.detect", "binwords.search"}


def test_each_lazy_name_is_its_submodules_object():
    fresh("""
        import importlib
        for name, module in binwords._LAZY.items():
            sub = importlib.import_module("binwords." + module)
            assert getattr(binwords, name) is (sub if name == module else getattr(sub, name)), name
            assert name in vars(binwords), name  # stored: later reads skip __getattr__
    """)


def test_all_resolves_and_star_import_binds_every_name():
    loaded = fresh("""
        assert all(hasattr(binwords, name) for name in binwords.__all__)
        namespace = {}
        exec("from binwords import *", namespace)
        assert set(binwords.__all__) <= set(namespace)
        assert all(namespace[name] is getattr(binwords, name) for name in binwords.__all__)
    """)
    assert set(LAZY) <= loaded


def test_dir_lists_all_before_any_lazy_load():
    loaded = fresh("""
        assert set(binwords.__all__) <= set(dir(binwords))
        assert {"detect", "search", "checks"} <= set(dir(binwords))
    """)
    assert not loaded & set(LAZY)


def test_unknown_name_raises_attribute_error_naming_it():
    loaded = fresh("""
        try:
            binwords.no_such_name
        except AttributeError as e:
            assert "no_such_name" in str(e) and "binwords" in str(e), e
        else:
            raise AssertionError("no AttributeError")
        assert not hasattr(binwords, "no_such_name")
    """)
    assert not loaded & set(LAZY)


def test_from_import_of_a_submodule():
    loaded = fresh("""
        from binwords import detect
        assert detect is sys.modules["binwords.detect"] is binwords.detect
    """)
    assert "binwords.detect" in loaded
    assert not loaded & {"binwords.search", "binwords.checks"}
