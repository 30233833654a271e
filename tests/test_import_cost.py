"""Importing the package generates no code beyond its named tuples.

A frozen dataclass exec-compiles a source string for each method it
generates, six per class on Python 3.11, which made dataclasses the
largest part of the import. `collections.namedtuple` evals one `__new__`
per record, and a class annotation written as a string would compile one
more string per field (a `typing.ForwardRef`). So in a fresh interpreter
that has already imported the standard library modules the package
imports, this counts the source strings compiled from "<string>" while
`beliefcheck` and `beliefcheck.cli` are imported, and bounds them by the
package's named tuple classes. The count does not depend on the host or
on a bytecode cache. Run as a script, or under pytest:

    python -S -W error tests/test_import_cost.py
"""

import ast
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(HERE, os.pardir, "src", "beliefcheck")


def stdlib_imports() -> list:
    """The absolute imports of the package's modules, top-level names."""
    names = set()
    for name in os.listdir(PACKAGE):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names.add(node.module.split(".")[0])
    return sorted(names - {"__future__"})


def count_in_this_process() -> dict:
    """Import the standard library modules, then the package, counting
    the source strings compiled from "<string>" during the second step."""
    for name in stdlib_imports():
        __import__(name)
    compiled = []

    def hook(event, args):
        if event == "compile" and args[1] == "<string>":
            compiled.append(args[0])

    sys.addaudithook(hook)
    sys.path.insert(0, os.path.dirname(PACKAGE))
    import beliefcheck.cli  # noqa: F401, imports beliefcheck first

    records = {
        id(value)
        for name, module in sys.modules.items()
        if name.split(".")[0] == "beliefcheck"
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, tuple)
        and hasattr(value, "_fields")
    }
    return {"compiled": len(compiled), "records": len(records)}


def test_import_generates_one_source_per_named_tuple():
    # A fresh interpreter: the test session has imported the package and
    # an audit hook cannot be removed once added.
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", __file__, "--count"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["compiled"] <= counts["records"], counts


if __name__ == "__main__":
    if sys.argv[1:] == ["--count"]:
        print(json.dumps(count_in_this_process()))
    else:
        test_import_generates_one_source_per_named_tuple()
        print(
            "importing beliefcheck compiles one generated source at most "
            "per named tuple on Python %s" % sys.version.split()[0]
        )
