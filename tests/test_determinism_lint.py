"""Determinism lint: no ambient randomness or wall clocks in ``src/``.

The whole DST premise — same seed, byte-identical deployment — holds
only while every source of nondeterminism stays behind two sanctioned
doors:

* ``repro.simkit.rng`` — all randomness flows through named
  :class:`RngStream` draws derived from the master seed;
* ``repro.obs.wallclock`` — the only module allowed to read the host
  clock, for telemetry that the digest layer explicitly excludes.

This test AST-walks every module under ``src/`` and fails on `import
random`, `time.time()`/`perf_counter()`-style clock reads,
`datetime.now()`/`utcnow()`, or direct `numpy.random` use anywhere
else. An alias (``from time import perf_counter as pc``) is caught at
the import, so call-site renaming cannot sneak past the lint.

Ambient *filesystem* access is banned the same way: a simulation that
reads or writes host files mid-run is coupled to machine state the
seed does not control (and a crash-recovery replay could observe a
file a previous run left behind). ``open()`` and the ``pathlib``
read/write/mutate methods are confined to the declared I/O edges —
the CLI, the exporters, artifact files, the durability media
(``persist/``) and telemetry dumps (``obs/``).

A layering lint rides along: product code never imports
``repro.testkit``. Only the CLI (which fronts ``repro fuzz``) and the
testkit itself may, so the from-scratch reference cannot creep back
into the product as an oracle branch.
"""

from __future__ import annotations

import ast
import pathlib

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules allowed to touch the named nondeterminism source.
ALLOWED = {
    "random": set(),  # the stdlib PRNG is banned outright
    "time": {"obs/wallclock.py"},
    "datetime-now": {"obs/wallclock.py"},
    "numpy-random": {"simkit/rng.py"},
    # Host parallelism: worker scheduling is OS-timing-dependent, so
    # process/thread pools are confined to the one module built to merge
    # results back deterministically (in campaign-index order).
    "parallelism": {"testkit/executor.py"},
}

#: The declared I/O edges: the only places allowed to touch the host
#: filesystem. Everything else must stay a pure function of the seed.
FS_ALLOWED_FILES = {"cli.py", "mapping/export.py", "testkit/artifact.py"}
FS_ALLOWED_PREFIXES = ("persist/", "obs/")

#: Method names that read or mutate the filesystem when called.
FS_METHODS = {
    "write_text",
    "write_bytes",
    "read_text",
    "read_bytes",
    "mkdir",
    "unlink",
    "rmdir",
}

#: ``time`` module members that read a clock (importing them is the offence).
CLOCK_MEMBERS = {
    "time",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "time_ns",
    "clock_gettime",
}


def _module_findings(path: pathlib.Path, tree: ast.AST):
    rel = path.relative_to(SRC_ROOT).as_posix()
    findings = []
    fs_allowed = rel in FS_ALLOWED_FILES or rel.startswith(FS_ALLOWED_PREFIXES)

    def offend(kind: str, node: ast.AST, what: str) -> None:
        if rel not in ALLOWED[kind]:
            findings.append(f"{rel}:{node.lineno}: {what}")

    def offend_fs(node: ast.AST, what: str) -> None:
        if not fs_allowed:
            findings.append(f"{rel}:{node.lineno}: {what}")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "random":
                    offend("random", node, "imports stdlib `random`")
                elif root == "time":
                    offend("time", node, "imports `time` (wall clock)")
                elif root in ("multiprocessing", "concurrent", "threading"):
                    offend(
                        "parallelism",
                        node,
                        f"imports `{root}` (ambient parallelism)",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root == "random":
                offend("random", node, "imports from stdlib `random`")
            elif root in ("multiprocessing", "concurrent", "threading"):
                offend(
                    "parallelism",
                    node,
                    f"imports from `{root}` (ambient parallelism)",
                )
            elif root == "time":
                names = {alias.name for alias in node.names}
                clocks = sorted(names & CLOCK_MEMBERS)
                if clocks:
                    offend("time", node, f"imports clock(s) {clocks} from `time`")
            elif root == "numpy":
                sub = (node.module or "").split(".")
                if "random" in sub[1:]:
                    offend("numpy-random", node, "imports from `numpy.random`")
                for alias in node.names:
                    if alias.name == "random" or alias.name == "default_rng":
                        offend(
                            "numpy-random", node, f"imports numpy `{alias.name}`"
                        )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                offend_fs(node, "calls builtin `open()` (ambient filesystem)")
            elif isinstance(func, ast.Attribute) and func.attr in FS_METHODS:
                offend_fs(
                    node, f"filesystem access via `.{func.attr}()`"
                )
        elif isinstance(node, ast.Attribute):
            # np.random.* / numpy.random.* access
            if node.attr == "random" and isinstance(node.value, ast.Name):
                if node.value.id in ("np", "numpy"):
                    offend("numpy-random", node, "uses `numpy.random` directly")
            # os.fork() — process creation outside the executor.
            if node.attr in ("fork", "forkpty") and isinstance(
                node.value, ast.Name
            ):
                if node.value.id == "os":
                    offend(
                        "parallelism", node, f"forks via `os.{node.attr}`"
                    )
            # datetime.now() / utcnow() — a wall-clock read even without
            # importing `time`.
            if node.attr in ("now", "utcnow", "today"):
                target = node.value
                names = set()
                while isinstance(target, ast.Attribute):
                    names.add(target.attr)
                    target = target.value
                if isinstance(target, ast.Name):
                    names.add(target.id)
                if names & {"datetime", "date"}:
                    offend(
                        "datetime-now",
                        node,
                        f"reads the wall clock via `datetime.{node.attr}()`",
                    )
    return findings


#: Modules outside ``testkit/`` allowed to import ``repro.testkit``.
TESTKIT_IMPORTERS = {"cli.py"}


def _testkit_imports(path: pathlib.Path, tree: ast.AST):
    """Imports of ``repro.testkit`` (absolute or relative) from ``path``."""
    rel = path.relative_to(SRC_ROOT).as_posix()
    if rel in TESTKIT_IMPORTERS or rel.startswith("testkit/"):
        return []
    package = ["repro", *rel.split("/")[:-1]]
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package[: len(package) - node.level + 1]
                module = ".".join(parts + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "repro.testkit" or n.startswith("repro.testkit.") for n in names):
            findings.append(f"{rel}:{node.lineno}: imports `repro.testkit`")
    return findings


def test_no_ambient_nondeterminism_in_src():
    assert SRC_ROOT.is_dir(), SRC_ROOT
    findings = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        findings.extend(_module_findings(path, tree))
    assert not findings, (
        "nondeterminism sources outside the sanctioned modules "
        "(route randomness through simkit.rng, clocks through obs.wallclock):\n"
        + "\n".join(findings)
    )


def test_product_code_does_not_import_the_testkit():
    findings = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        findings.extend(_testkit_imports(path, tree))
    assert not findings, (
        "product modules importing the test kit (only cli.py and testkit/ may):\n"
        + "\n".join(findings)
    )


def test_layering_lint_catches_a_planted_testkit_import():
    code = (
        "from ..testkit.reference import ScratchSfm\n"
        "from .. import testkit\n"
        "import repro.testkit.harness\n"
        "from repro.testkit import run_fuzz\n"
        "from ..testkits import lookalike\n"
    )
    tree = ast.parse(code)
    offences = _testkit_imports(SRC_ROOT / "core" / "pipeline.py", tree)
    assert [line.split(":")[1] for line in offences] == ["1", "2", "3", "4"]
    for rel in ("testkit/harness.py", "cli.py"):
        assert not _testkit_imports(SRC_ROOT / rel, tree), rel


def test_lint_catches_a_planted_offence():
    """The linter itself must flag each banned pattern (no dead lint)."""
    bad = (
        "import random\n"
        "from time import perf_counter as pc\n"
        "import numpy as np\n"
        "x = np.random.rand()\n"
        "import datetime\n"
        "t = datetime.datetime.now()\n"
        "fh = open('sneaky.txt')\n"
        "out.write_text('state')\n"
        "import multiprocessing\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import os\n"
        "pid = os.fork()\n"
    )
    tree = ast.parse(bad)
    fake = SRC_ROOT / "core" / "planted.py"
    findings = _module_findings(fake, tree)
    kinds = "\n".join(findings)
    assert "stdlib `random`" in kinds
    assert "clock(s) ['perf_counter']" in kinds
    assert "`numpy.random` directly" in kinds
    assert "datetime.now()" in kinds
    assert "builtin `open()`" in kinds
    assert ".write_text()" in kinds
    assert "imports `multiprocessing` (ambient parallelism)" in kinds
    assert "imports from `concurrent` (ambient parallelism)" in kinds
    assert "forks via `os.fork`" in kinds


def test_parallelism_lint_allows_only_the_executor():
    """Process pools are legal in testkit/executor.py and nowhere else."""
    code = (
        "import multiprocessing\n"
        "from multiprocessing.connection import wait\n"
    )
    tree = ast.parse(code)
    assert not _module_findings(SRC_ROOT / "testkit" / "executor.py", tree)
    offences = _module_findings(SRC_ROOT / "testkit" / "fuzzer.py", tree)
    assert len(offences) == 2


def test_filesystem_lint_respects_the_io_edges():
    """The same I/O is legal at a declared edge (e.g. the WAL media)."""
    code = "fh = open('wal.bin', 'wb')\npath.write_bytes(frame)\n"
    tree = ast.parse(code)
    for rel in ("persist/wal.py", "obs/export.py", "testkit/artifact.py", "cli.py"):
        assert not _module_findings(SRC_ROOT / rel, tree), rel
    offences = _module_findings(SRC_ROOT / "server" / "backend.py", tree)
    assert len(offences) == 2
