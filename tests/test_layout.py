"""Package layout: every definition in src/cilab is reached from the
benchmark's step or waits on a named ROADMAP item, no module imports a
name it does not use, cilab.spectral_ops keeps only the whole-field names
bench/ reaches, and no caller can set a check's tolerance or scope.
Reference implementations that only tests call live in tests/oracles.py.

Reachability is a walk by name over the syntax trees. Its roots are the
names bench/*.py uses and the names src's module-level code uses (not its
imports); a module-level def or class is reached when a root or a reached
definition uses its name, a method only when one accesses an attribute of
that name (`.name`; a bare local `name` does not count), and a dunder
method with its class. Matching by name can miss dead code (any `.name`
reaches every method called `name`); a definition reached only through a
string, as getattr does, is flagged.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted((ROOT / "src" / "cilab").glob("*.py"))}

# Definitions that no step calls yet, keyed by the ROADMAP item that will
# call them. They are roots of the walk, with the methods of a class, so
# the helpers they use need no entry. The change that wires an item in
# deletes its entries.
WAITING = {
    4: ("blocks.BlockSet.transport_slice",),
    # the Biot-Savart law is spectral.curl with inverse_laplacian=True
    5: ("spectral.curl",),
    8: ("spectral.inv_div_sym", "spectral.inv_div_skew",
        "spectral.frac_laplacian", "mollify.mollified_pressure"),
    10: ("field.lebesgue_norm", "blocks.block_norm",
         "blocks.predicted_block_norm",
         "blocks.measure_intermittency", "blocks.product_norm",
         "blocks.predicted_product_norm",
         "blocks.measure_product_intermittency", "blocks.IntermittencyFit",
         "profiles.fit_loglog", "profiles.TemporalProfiles.g_base"),
}

# (module, name) imported only to be imported from there: bench/child.py
# takes fft_workers from cilab.grid
RE_EXPORTS = {("grid", "fft_workers")}


# what cilab.spectral_ops may define besides the names bench/ reaches: the
# 4D divergence gate (ROADMAP item 11)
SPECTRAL_OPS_OWN = {"_div_rel_defect"}

# parameter names that would let a caller loosen a gate or narrow what a
# check reads
GATE_KNOBS = {"tol", "div_tol", "rtol", "time_indices"}


def _names(node) -> set:
    """The bare names node uses and, marked by a leading dot, the
    attributes it accesses."""
    return {sub.id if isinstance(sub, ast.Name) else "." + sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _walk():
    """{qualified name: node} of every module- and class-level def and
    class, and the names the roots use (_names)."""
    defs = {}
    used = set().union(*(_names(ast.parse(path.read_text()))
                         for path in sorted((ROOT / "bench").glob("*.py"))))

    def collect(body, prefix):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[prefix + stmt.name] = stmt
                # decorators, bases and defaults run at definition time
                head = stmt.decorator_list + getattr(stmt, "bases", [])
                if isinstance(stmt, ast.FunctionDef):
                    head += stmt.args.defaults + [
                        d for d in stmt.args.kw_defaults if d is not None]
                used.update(*map(_names, head))
                if isinstance(stmt, ast.ClassDef):
                    collect(stmt.body, prefix + stmt.name + ".")
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                used.update(_names(stmt))

    for module, tree in MODULES.items():
        collect(tree.body, module + ".")
    return defs, used


def _reached(defs, used, roots=()) -> set:
    used, reached = set(used), set()
    for qual in defs:
        if any(qual == r or qual.startswith(r + ".") for r in roots):
            reached.add(qual)
            used |= _names(defs[qual])
    grew = True
    while grew:
        grew = False
        for qual, node in defs.items():
            owner, name = qual.rsplit(".", 1)
            dunder = name.startswith("__") and name.endswith("__")
            # a method is reached through an attribute, anything else
            # through either
            named = "." + name in used or owner not in defs and name in used
            if qual not in reached and (named or dunder and owner in reached):
                reached.add(qual)
                used |= _names(node)
                grew = True
    return reached


def test_every_definition_is_reached_or_waiting():
    defs, used = _walk()
    reached = _reached(defs, used, [q for qs in WAITING.values() for q in qs])
    # a method of an unreached class is reported with its class
    missing = [qual for qual in defs if qual not in reached
               and qual.rsplit(".", 1)[0] not in defs.keys() - reached]
    assert not missing, (
        f"{missing} run in no step: call them from the step, move them to "
        "tests/oracles.py, delete them, or list them under the ROADMAP "
        "item that will call them")


def test_waiting_entries_are_defined_and_not_yet_called():
    defs, used = _walk()
    reached = _reached(defs, used)
    for item, entries in WAITING.items():
        for qual in entries:
            assert qual in defs, f"item {item}: {qual} is not defined"
            assert qual not in reached, (
                f"item {item}: a step reaches {qual} now; delete its entry")


def test_no_unused_module_level_import():
    unused = []
    for module, tree in MODULES.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign)
                    and getattr(stmt.targets[0], "id", "") == "__all__"):
                loaded |= set(ast.literal_eval(stmt.value))
        for stmt in tree.body:
            if (isinstance(stmt, (ast.Import, ast.ImportFrom))
                    and getattr(stmt, "module", "") != "__future__"):
                unused += [f"{module}: {name}" for name in (
                    (a.asname or a.name).split(".")[0] for a in stmt.names)
                    if name not in loaded
                    and (module, name) not in RE_EXPORTS]
    assert not unused, f"unused imports {unused}"


def test_spectral_ops_keeps_only_what_the_benchmark_reaches():
    # spatial operators are slice kernels in cilab.spectral; the
    # whole-field forms stay only where bench/ names them, as an attribute
    # or as the string a tracer patches (bench/tracing.py patches
    # (spectral_ops, "leray"))
    reached = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        reached |= {name.lstrip(".") for name in _names(tree)} | {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    defined = set()
    for stmt in MODULES["spectral_ops"].body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            defined |= {name.lstrip(".") for target in stmt.targets
                        for name in _names(target)}
    extra = sorted(defined - reached - SPECTRAL_OPS_OWN)
    assert not extra, (
        f"cilab.spectral_ops defines {extra}, which bench/ does not reach: "
        "put a spatial operator in cilab.spectral as a slice kernel")


def test_no_definition_takes_a_gate_tolerance_or_scope():
    # each check fixes its tolerances and reads every slice; a caller
    # that wants a failing check's residuals reads the error's report
    knobs = [f"{module}.{getattr(node, 'name', 'lambda')}({arg.arg})"
             for module, tree in MODULES.items() for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda))
             for arg in (node.args.posonlyargs + node.args.args
                         + node.args.kwonlyargs)
             if arg.arg in GATE_KNOBS]
    assert not knobs, f"{knobs} let a caller set a gate"
