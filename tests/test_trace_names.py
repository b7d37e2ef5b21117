"""The benchmark's tracer finds every name it wraps, and every library name
the benchmark's scripts read resolves.

`perfbench/spans.py` replaces each traced function in every module namespace
its callers look it up from. The tier-1 suite runs the benchmark untraced
only, so a refactor that drops one of those imports would break
`perfbench/run.py --trace 1` without a failing test; this one fails instead.
The same holds for `perfbench/generate_expected.py`, which no test runs: its
library names are read off the source, without running it.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

from hierarchy_one import cli, membership
from hierarchy_one.lang import compile_dfa, dfa_to_dict
from hierarchy_one.pairs import cyclic_length_group

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
LIBRARY = "hierarchy_one"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_one_function_in_each_listed_module():
    spans = load_spans()
    for name, (attr, namespaces) in spans.TRACED.items():
        found = [getattr(spans._MODULES[key], attr, None) for key in namespaces]
        assert callable(found[0]), f"{name}: {namespaces[0]}.{attr} is missing"
        for key, fn in zip(namespaces, found):
            assert fn is found[0], f"{name}: {key}.{attr} is not {namespaces[0]}.{attr}"
    for name, (cls, attr) in spans.TRACED_METHODS.items():
        assert callable(cls.__dict__.get(attr)), f"{name}: {cls.__name__}.{attr} is missing"


def test_pair_calls_made_through_the_base_table_are_traced(capsys):
    # each Base calls its pair function by name at run time, so the wrapper
    # the tracer put in membership's namespace sees the call
    spans = load_spans()
    tracer = spans.Tracer()
    calls = [
        (lambda: membership.decide("(a|b)*a", "ab", basis="st"), "pairs.st_pairs"),
        (lambda: membership.decide("(a|b)*a", "ab", basis="mod"), "pairs.mod_pairs"),
        (lambda: membership.decide("(a|b)*a", "ab", basis="amt"), "pairs.amt_pairs"),
        (lambda: membership.decide("(a|b)*a", "ab", basis=cyclic_length_group(3, "ab")),
         "pairs.group_morphism_pairs"),
        (lambda: cli.main(["pairs", "(a|b)*a", "--alphabet", "ab", "--basis", "mod"]),
         "pairs.mod_pairs"),
    ]
    tracer.install()
    try:
        for call, name in calls:
            before, counted = len(tracer.spans), tracer.counts["pairs.count"]
            call()
            opened = [span[0] for span in tracer.spans[before:] if span[0].startswith("pairs.")]
            assert opened == [name]
            assert tracer.counts["pairs.count"] > counted
    finally:
        tracer.uninstall()
    capsys.readouterr()


def test_decide_compiles_and_minimizes_its_input_once(tmp_path, capsys):
    # the library reads the input: the CLI neither compiles nor minimizes it
    spans = load_spans()
    tracer = spans.Tracer()
    pattern = "(a|b)*a(a|b)*b(a|b)*"
    path = tmp_path / "d.json"
    path.write_text(json.dumps(dfa_to_dict(compile_dfa(pattern, "ab"))))
    tracer.install()
    try:
        for language, compiled in ([pattern, "--alphabet", "ab"], 1), ([str(path)], 0):
            before = len(tracer.spans)
            assert cli.main(["decide", *language]) == 0
            opened = [span[0] for span in tracer.spans[before:]]
            assert opened.count("lang.compile_dfa") == compiled
            assert opened.count("lang.minimize") == 1
    finally:
        tracer.uninstall()
    capsys.readouterr()


def _module(name: str):
    """The library module called `name`, or None when it names no module."""
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError as exc:
        if exc.name != name:
            raise
        return None


def library_reads(tree: ast.Module) -> tuple[list[tuple[str, str]], dict[str, object]]:
    """The (module, name) pairs a script imports from the library, and the
    local names it binds to library modules."""
    imported: list[tuple[str, str]] = []
    modules: dict[str, object] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == LIBRARY:
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = _module(alias.name if alias.asname else LIBRARY)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == LIBRARY:
            for alias in node.names:
                imported.append((node.module, alias.name))
                sub = _module(f"{node.module}.{alias.name}")
                if sub is not None:
                    modules[alias.asname or alias.name] = sub
    return imported, modules


def test_every_library_name_the_benchmark_reads_resolves():
    checked: dict[str, set[str]] = {}
    for script in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(script.read_text(), filename=str(script))
        imported, modules = library_reads(tree)
        for module, name in imported:
            assert hasattr(importlib.import_module(module), name), \
                f"{script.name}: {module}.{name} is missing"
        reads = {f"{module}.{name}" for module, name in imported}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                owner = modules[node.value.id]
                assert hasattr(owner, node.attr), \
                    f"{script.name}:{node.lineno}: {owner.__name__}.{node.attr} is missing"
                reads.add(f"{owner.__name__}.{node.attr}")
        checked[script.name] = reads
    # the names only the expected-data generator reads are among those checked
    assert {
        "hierarchy_one.membership.check_specialized",
        "hierarchy_one.membership.EQ_SIMON",
        "hierarchy_one.membership.EQ_KNAST",
        "hierarchy_one.pairs.explicit_pairs",
        "hierarchy_one.pairs.cyclic_length_group",
        "hierarchy_one.pairs.parikh_group",
    } <= checked["generate_expected.py"]
