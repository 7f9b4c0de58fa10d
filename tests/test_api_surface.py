"""Every public function and method of the core modules has a use.

A name counts as used when code in ``src/`` outside its own definition
refers to it, when README's "Library API" section lists it, or when the
benchmark's tracer (``perfbench/tracing.targets()``) binds it. The tracer's
list is imported, not copied, so its exemptions lapse once it binds other
names.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "scenemotion")
MODULES = ("body", "energy", "sdf", "scene", "metrics", "sequence", "cvae", "refine")


def public_names():
    """(owner, qualified name, attribute) of each public function and method."""
    out = []
    for name in MODULES:
        mod = importlib.import_module(f"scenemotion.{name}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((mod, f"{name}.{attr}", attr))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out.append((obj, f"{name}.{attr}.{meth}", meth))
    return out


def src_references():
    """Each name read as a variable or an attribute anywhere in ``src/``; a
    name is not counted by its own ``def``, an assignment or an import."""
    names = set()
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        names.add(node.attr)
    return names


def readme_api():
    """Backticked names in README's "Library API" section."""
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    section = re.search(r"^## Library API\n(.*?)(?=^## |\Z)", text, re.S | re.M)
    assert section, "README has no '## Library API' section"
    return set(re.findall(r"`([\w.]+)", section.group(1)))


def traced():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(owner, attr) for _, owner, attr, _ in tracing.targets()}


def test_every_public_name_has_a_use():
    refs, listed, bound = src_references(), readme_api(), traced()
    unused = [qual for owner, qual, attr in public_names()
              if attr not in refs and (owner, attr) not in bound
              and not any(qual == e or qual.endswith("." + e) for e in listed)]
    assert unused == [], (
        f"public names with no caller in src/, no README 'Library API' entry and no "
        f"benchmark binding: {unused}")

