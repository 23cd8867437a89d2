"""What importing the toolchain costs a fresh process: no frozen class gets
methods compiled from generated source. Runs in a new interpreter, so no
other test has imported a layer before it."""

import json
import textwrap

from conftest import fresh_interpreter

# The mutable dataclasses that `import cpl.cli` defines; only they may have
# their methods generated by `dataclasses`.
MUTABLE_ON_CHECK_PATH = {"cpl.desugar.Alias", "cpl.builtins.EffectContext", "cpl.toolchain.Loaded"}


def test_import_generates_methods_only_for_the_mutable_dataclasses():
    code, out, err = fresh_interpreter("-c", textwrap.dedent("""
        import dataclasses, json

        classes, generated = [], set()
        process_class, create_fn = dataclasses._process_class, dataclasses._create_fn

        def traced_process_class(cls, *args, **kwargs):
            classes.append(cls)
            try:
                return process_class(cls, *args, **kwargs)
            finally:
                classes.pop()

        def traced_create_fn(name, *args, **kwargs):
            generated.add(f"{classes[-1].__module__}.{classes[-1].__qualname__}")
            return create_fn(name, *args, **kwargs)

        dataclasses._process_class = traced_process_class
        dataclasses._create_fn = traced_create_fn
        import cpl.cli
        print(json.dumps(sorted(generated)))
    """))
    assert code == 0, err
    generated = set(json.loads(out))
    assert generated, "the wrapper saw no generated method"
    assert generated <= MUTABLE_ON_CHECK_PATH, sorted(generated - MUTABLE_ON_CHECK_PATH)
