"""Every public function and method of the package has a use, one
module lays out arrays on disk, and one module sets the process policy.

A name counts as used when code in ``src/`` outside its own definition
refers to it (a method only through an attribute read such as ``x.rest``,
never through a bare variable of the same name), when README's "Library API"
section lists it, or when the benchmark's tracer
(``perfbench/tracing.targets()``) binds it. The tracer's
list is imported, not copied, so its exemptions lapse once it binds other
names.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re

import scenemotion
from helpers import perfbench_tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "scenemotion")
# every module of the package but the process-policy module
MODULES = tuple(m.name.split(".", 1)[1]
                for m in pkgutil.walk_packages(scenemotion.__path__, "scenemotion.")
                if m.name != "scenemotion._runtime")


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


def src_trees():
    """(path relative to the package, parsed module) of each file in ``src/``."""
    for dirpath, _, files in os.walk(SRC):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    yield os.path.relpath(os.path.join(dirpath, f), SRC), ast.parse(fh.read())


def src_references():
    """(names read as a variable, names read as an attribute) anywhere in
    ``src/``; a name is not counted by its own ``def``, an assignment or an
    import."""
    names, attrs = set(), set()
    for _, tree in src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return names, attrs


def readme_api():
    """Backticked names in README's "Library API" section."""
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    section = re.search(r"^## Library API\n(.*?)(?=^## |\Z)", text, re.S | re.M)
    assert section, "README has no '## Library API' section"
    return set(re.findall(r"`([\w.]+)", section.group(1)))


def traced():
    return {(owner, attr) for _, owner, attr, _ in perfbench_tracing().targets()}


def test_every_public_name_has_a_use():
    (names, attrs), listed, bound = src_references(), readme_api(), traced()
    unused = [qual for owner, qual, attr in public_names()
              if attr not in (names | attrs if inspect.ismodule(owner) else attrs)
              and (owner, attr) not in bound
              and not any(qual == e or qual.endswith("." + e) for e in listed)]
    assert unused == [], (
        f"public names with no caller in src/, no README 'Library API' entry and no "
        f"benchmark binding: {unused}")


def test_refinement_has_no_test_only_hooks():
    # tests freeze the contact targets through tests/helpers.py instead
    refine = importlib.import_module("scenemotion.refine")
    energy = importlib.import_module("scenemotion.energy")
    assert not hasattr(refine, "contact_correspondences")
    assert list(inspect.signature(refine.energy_and_gradients).parameters) == [
        "template", "frames", "scene_field", "weights", "segmentation"]
    assert list(inspect.signature(energy.scene_energy).parameters) == [
        "template", "vertices", "scene_field", "weights", "segmentation", "want_grad"]


def test_the_contact_query_has_one_path():
    """``VertexIndex`` has one query method, and the energy terms run in turn
    on the calling thread: ``energy`` hands nothing to the worker."""
    scene = importlib.import_module("scenemotion.scene")
    energy = importlib.import_module("scenemotion.energy")
    assert not hasattr(scene.VertexIndex, "_nearest")
    assert [m for m in vars(scene.VertexIndex) if "nearest" in m] == ["nearest"]
    assert not {"both", "partial", "worker"} & set(vars(energy))


def test_only_the_measured_sites_import_the_worker():
    """Each module that fans out has a measured gain in README's two-thread
    section; a new fan-out brings its measurement and a row there."""
    def imports_worker(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "_worker" for n in names):
                return True
        return False

    importers = sorted(path[:-3].replace(os.sep, ".") for path, tree in src_trees()
                       if imports_worker(tree))
    assert importers == ["body", "cvae", "motion_nets", "nn.lstm", "refine"]


def parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_fixed_settings_are_not_parameters():
    """What every caller holds fixed is a constant or gone, not an option:
    the body gradient has one layout, the thresholds, the activation of the
    point MLP and the latent fit's step size are set in code, and a
    generated motion is a straight walk."""
    body = importlib.import_module("scenemotion.body")
    cvae = importlib.import_module("scenemotion.cvae")
    datagen = importlib.import_module("scenemotion.datagen")
    energy = importlib.import_module("scenemotion.energy")
    metrics = importlib.import_module("scenemotion.metrics")
    scene = importlib.import_module("scenemotion.scene")
    layers = importlib.import_module("scenemotion.nn.layers")
    assert parameters(body.pullback_batch) == ["cache", "g_vertices"]
    assert not hasattr(body.BodyParams, "rest")
    assert parameters(layers.MLP) == ["dims", "rng", "name"]
    assert parameters(energy.segment_from_centroids) == ["left", "right"]
    assert parameters(metrics.contact_score) == ["seq", "template", "grid"]
    assert parameters(cvae.fit_latent) == ["model", "cond", "target_ph", "steps", "seed"]
    assert [f.name for f in dataclasses.fields(scene.PointCloud)] == ["points"]
    assert [f.name for f in dataclasses.fields(datagen.SyntheticMotionSpec)] == [
        "waypoints", "step_length", "cadence", "pelvis_height", "beta"]


_TERMS = {"_foot_term", "_col_term", "_cont_term", "_smooth_term"}
# the alias the benchmark's tracer binds (perfbench/tracing.py)
_TRACED_ALIAS = ("refine.py", "_contact_value_grad")


def term_reads(path, tree):
    """``path:line name`` of each import or read of an energy term in one module,
    but for the import of the tracer's alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names if (path, a.asname) != _TRACED_ALIAS]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        yield from (f"{path}:{node.lineno} {n}" for n in names if n in _TERMS)


def test_only_the_energy_module_reads_the_energy_terms():
    """Refinement, CVAE training and the reports reach the terms through
    ``energy.scene_energy``; only the tracer's alias in ``refine`` names one."""
    found = [r for path, tree in src_trees() if path != "energy.py"
             for r in term_reads(path, tree)]
    assert found == [], f"energy terms read outside scenemotion.energy: {found}"


def raw_array_io(tree):
    """Line of each ``np.fromfile``, ``.tofile`` and binary-write ``open`` call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in ("fromfile", "tofile"):
            yield node.lineno
        elif isinstance(fn, ast.Name) and fn.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or ("b" in m.value and m.value != "rb")
                   for m in modes):
                yield node.lineno


def test_only_the_artefact_module_writes_raw_arrays():
    found = [f"{path}:{line}" for path, tree in src_trees() if path != "artefact.py"
             for line in raw_array_io(tree)]
    assert found == [], f"raw binary array I/O outside scenemotion.artefact: {found}"


# offsets of the flat body record and of the variable layout; 0 and 3 are left
# out, as they also bound short arrays of other kinds
_RECORD_OFFSETS = {9, 19, 41, 51, 65, 75}


def record_offsets(tree):
    """``line bound`` of each constant slice bound that is a body record offset."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Slice):
            for bound in (node.lower, node.upper):
                if isinstance(bound, ast.Constant) and bound.value in _RECORD_OFFSETS:
                    yield f"{node.lineno} {bound.value}"


def test_only_the_body_module_writes_record_offsets():
    """Every other module indexes a body record through ``body``'s field names."""
    found = [f"{path}:{hit}" for path, tree in src_trees() if path != "body.py"
             for hit in record_offsets(tree)]
    assert found == [], f"body record offsets outside scenemotion.body: {found}"


_ENV_WRITES = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _is_environ(node):
    return ((isinstance(node, ast.Attribute) and node.attr == "environ")
            or (isinstance(node, ast.Name) and node.id == "environ"))


def process_policy_sites(tree):
    """Line of each ``ctypes`` import and each write to the process environment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "ctypes" for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "ctypes":
                yield node.lineno
        elif isinstance(node, ast.Subscript):
            if _is_environ(node.value) and isinstance(node.ctx, (ast.Store, ast.Del)):
                yield node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            fn = node.func
            if (fn.attr in _ENV_WRITES and _is_environ(fn.value)) or fn.attr in ("putenv",
                                                                                  "unsetenv"):
                yield node.lineno


def test_only_the_runtime_module_sets_the_process_policy():
    sites = {path: list(process_policy_sites(tree)) for path, tree in src_trees()}
    assert sites.pop("_runtime.py"), "the check finds nothing in scenemotion._runtime"
    found = [f"{path}:{line}" for path, lines in sites.items() for line in lines]
    assert found == [], f"ctypes import or environment write outside scenemotion._runtime: {found}"
