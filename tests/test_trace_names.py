"""The benchmark's tracer finds every name it wraps.

`perfbench/spans.py` replaces each traced function in every module namespace
its callers look it up from. The tier-1 suite runs the benchmark untraced
only, so a refactor that drops one of those imports would break
`perfbench/run.py --trace 1` without a failing test; this one fails instead.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
