"""src/netselect holds only code that the pipeline or the benchmark runs."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_library_name_is_used_outside_the_tests():
    # a reference that only tests call belongs in tests/oracles.py; names
    # in perfbench count, since its tracer wraps library functions by name,
    # and package re-exports do not
    modules = [p for p in sorted((ROOT / "src" / "netselect").rglob("*.py"))
               if p.name != "__init__.py"]
    texts = [p.read_text(encoding="utf-8") for p in modules]
    corpus = "\n".join(texts + [p.read_text(encoding="utf-8")
                                for p in sorted((ROOT / "perfbench").glob("*.py"))])
    unused = [f"{path.stem}.{name}"
              for path, text in zip(modules, texts)
              for name in re.findall(r"^(?:def|class) (\w+)", text, flags=re.M)
              if len(re.findall(rf"\b{name}\b", corpus)) < 2]
    assert not unused, f"defined in src/netselect but used by no other code: {unused}"
