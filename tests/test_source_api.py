"""Code that nothing but the tests calls does not live in ``src/``: every
public function and class of the package is named somewhere in the package
outside its own definition, and every public member of a class is named
there as an attribute. Private module-level functions and classes obey the
same rule, so a helper whose last caller is gone is caught too."""

import ast
import inspect
from collections import Counter
from pathlib import Path

from corpus_forge import decontam, ngramlm, retrieval, segmenter, splitter
from corpus_forge.config import PipelineConfig
from corpus_forge.pipeline import STAGE_TABLE

SRC = Path(__file__).resolve().parents[1] / "src" / "corpus_forge"


def public_definitions(body, member=False):
    """(definition, is a class member) for the public functions and classes
    of a module body, and the public methods (and nested classes) of its
    classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node, member
            if isinstance(node, ast.ClassDef):
                yield from public_definitions(node.body, member=True)


def imported_names(tree) -> set[str]:
    """The names a module binds to what it imports from outside the package:
    those of every ``import`` and of every absolute ``from`` import."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and not node.level
        for alias in node.names
    }


def names_in(node, attributes_only=False, external=frozenset()) -> Counter:
    """How often each identifier is named by an ``Attribute`` (or, unless
    ``attributes_only``, a ``Name``) under ``node``; docstrings and other
    strings do not count, nor does an attribute of a name in ``external``
    (``unicodedata.normalize`` names no package definition)."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, kinds)
        and not (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                 and n.value.id in external)
    )


def unused_definitions(definitions):
    """``module:line name`` of each (definition, is a class member) that
    ``definitions(module body)`` yields and that the package names nowhere
    outside the definition itself."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    external = {module: imported_names(tree) for module, tree in trees.items()}
    used = {member: sum((names_in(tree, member, external[module])
                         for module, tree in trees.items()), Counter())
            for member in (False, True)}
    used[False].update(f"stage_{name}" for name in STAGE_TABLE)  # run_stage looks them up by key
    return [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node, member in definitions(tree.body)
        if used[member][node.name] <= names_in(node, member, external[module])[node.name]
    ]


def private_definitions(body):
    """(definition, False) for the private functions and classes of a
    module body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                yield node, False


def test_every_public_definition_is_used_in_src():
    assert unused_definitions(public_definitions) == []


def test_every_private_module_definition_is_used_in_src():
    assert unused_definitions(private_definitions) == []


def default_of(fn, parameter):
    return inspect.signature(fn).parameters[parameter].default


def test_module_defaults_equal_the_config_defaults():
    """Each module default that a config key also sets is the config's
    default, so a test that relies on a function's defaults tests the values
    a run uses."""
    cfg = PipelineConfig()
    pairs = {
        "shard_size": (retrieval.DEFAULT_SHARD_SIZE, cfg.shard_size),
        "shard_stride": (retrieval.DEFAULT_SHARD_STRIDE, cfg.shard_stride),
        "wer_threshold": (retrieval.DEFAULT_WER_THRESHOLD, cfg.wer_threshold),
        "rare_wordform_threshold": (retrieval.DEFAULT_RARE_THRESHOLD, cfg.rare_wordform_threshold),
        "min_segment_ms": (segmenter.DEFAULT_MIN_LEN_MS, cfg.min_segment_ms),
        "max_segment_ms": (segmenter.DEFAULT_MAX_LEN_MS, cfg.max_segment_ms),
        "decontam_threshold": (decontam.DEFAULT_CONTAMINATION_THRESHOLD, cfg.decontam_threshold),
        "limited_speakers_per_gender": (
            default_of(splitter.make_limited_supervision, "speakers_per_gender"),
            cfg.limited_speakers_per_gender),
        "oov_context": (default_of(ngramlm.evaluate, "oov_context"), cfg.oov_context),
    }
    assert {key: module for key, (module, _) in pairs.items()} == {
        key: config for key, (_, config) in pairs.items()}


def test_only_manifest_opens_and_decodes_input_files():
    """``manifest.read_bytes`` and ``manifest.read_text`` are the one reader
    of input files: no other module names the errors that opening or
    decoding a file raises, so a second copy of the reader is caught."""
    naming = [path.name for path in sorted(SRC.glob("*.py"))
              if {"OSError", "UnicodeDecodeError"} & set(
                  names_in(ast.parse(path.read_text(encoding="utf-8"))))]
    assert naming == ["manifest.py"]


def test_only_config_hashes():
    """``config.derived_seed`` is the one seed rule and ``config_hash`` the
    one config digest: no other module imports or names ``hashlib``, so a
    second copy of the seed rule is caught."""
    naming = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "hashlib" in set(names_in(tree)) | imported_names(tree):
            naming.append(path.name)
    assert naming == ["config.py"]


def nodes_by_function(node, qualname=""):
    """(qualified name of the innermost enclosing function or class, node)
    for every node under ``node``; "" for module-level code."""
    for child in ast.iter_child_nodes(node):
        name = qualname
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{qualname}.{child.name}".lstrip(".")
        yield name, child
        yield from nodes_by_function(child, name)


def test_one_line_rule_for_every_line_file():
    """Line-oriented input files are split into lines, and their comments
    cut, by ``manifest.numbered_lines`` alone. ``str.splitlines`` stays only
    where it decides a book text's LM sentence lines, and ``bytes.splitlines``
    (LF, CR LF and a lone CR) only in the token reader, so a second copy of
    the line rule is caught."""
    splitlines, comment_splits = [], []
    for path in sorted(SRC.glob("*.py")):
        for where, node in nodes_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "splitlines":
                splitlines.append(f"{path.stem}.{where}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "split" and node.args
                    and isinstance(node.args[0], ast.Constant) and node.args[0].value == "#"):
                comment_splits.append(f"{path.stem}.{where}")
    assert splitlines == ["segmenter.read_token_stream", "textnorm.normalize_lines"]
    assert comment_splits == ["manifest.numbered_lines"]


def test_only_make_dir_makes_directories():
    """Every output directory is made by ``manifest.make_dir``, which names
    the path a file stands in the way of; ``synth`` writes a fresh input
    tree. So a raw ``mkdir`` that would end in a traceback is caught."""
    mkdirs = sorted({f"{path.stem}.{where}"
                     for path in sorted(SRC.glob("*.py"))
                     for where, node in nodes_by_function(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Attribute) and node.attr == "mkdir"})
    assert [m for m in mkdirs if not m.startswith("synth.")] == ["manifest.make_dir"]


def test_one_fork_and_no_other_concurrency():
    """``pipeline.ordered_map`` is the one parallel path: ``os.fork`` is
    called in one place, and no module imports a pool, an executor or
    threads, so a second parallel copy of a stage loop is caught."""
    forks, imported = [], set()
    for path in sorted(SRC.glob("*.py")):
        for where, node in nodes_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            if getattr(node, "attr", getattr(node, "id", None)) == "fork":  # os.fork or fork
                forks.append(f"{path.stem}.{where}")
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            if isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
    assert forks == ["pipeline.ordered_map"]
    assert not {name.split(".")[0] for name in imported} & {"multiprocessing", "concurrent",
                                                             "threading"}
