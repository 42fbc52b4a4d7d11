"""The process entry keeps OpenSSL unloaded; importing or calling carlab does not.

`numpy.random` imports `secrets`, whose `hmac` loads OpenSSL's libcrypto
through `_hashlib`.  `python -m carlab.cli` and the `carlab` script mark
`_hashlib` absent first, and carlab draws numbers without it.  The
parser's path, up to help, version or a flag refusal, imports no numpy.
Each check runs in a fresh interpreter, as pytest's own imports may have
loaded `_hashlib` and numpy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_bench_tracer import _traced

ROOT = Path(__file__).resolve().parents[1]
RUN = ["min-distance", "--dim", "2", "--trials", "1"]


def _fresh(code: str, tmp_path) -> dict:
    """The JSON object that `code`, run in a fresh interpreter, prints last."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _console_script() -> str:
    """The `module:function` that pyproject.toml installs as the `carlab` script."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return project["scripts"]["carlab"]


def _entry_code(entry: str, argv: list[str]) -> str:
    """Code that runs `entry` on `argv` as a fresh process would, leaving its exit code in `code`."""
    code = f"sys.argv = ['carlab', *{argv!r}]\n"
    if entry == "carlab script":
        module, function = _console_script().split(":")
        return code + f"import importlib\ncode = importlib.import_module({module!r}).{function}()\n"
    return code + (
        "import runpy\n"
        "try:\n"
        "    runpy.run_module('carlab.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
    )


@pytest.mark.parametrize("entry", ["python -m carlab.cli", "carlab script"])
def test_process_entry_draws_numbers_without_openssl(tmp_path, entry):
    code = (
        "import json, sys\n"
        "preloaded = '_hashlib' in sys.modules\n"
        + _entry_code(entry, RUN + ["--output", "out.json"])
        + "print(json.dumps({'preloaded': preloaded, 'code': code,\n"
        "    'hashlib_blocked': sys.modules.get('_hashlib', 'absent') is None,\n"
        "    'numpy_random': 'numpy.random' in sys.modules}))\n"
    )
    result = _fresh(code, tmp_path)
    if result["preloaded"]:
        pytest.skip("_hashlib was loaded before the entry ran")
    assert result["code"] == 0
    assert (tmp_path / "out.json").is_file()
    # the run drew numbers, so a vacuous pass is ruled out
    assert result["numpy_random"]
    assert result["hashlib_blocked"]


def test_in_process_main_keeps_openssl(tmp_path):
    pytest.importorskip("_hashlib")
    code = (
        "import json, sys\n"
        "import carlab.cli\n"
        f"code = carlab.cli.main({RUN + ['--output', 'out.json']!r})\n"
        "blocked = sys.modules.get('_hashlib', 'absent') is None\n"
        "import _hashlib, hashlib\n"
        "print(json.dumps({'code': code, 'blocked': blocked,\n"
        "    'openssl_sha256': hashlib.sha256 is _hashlib.openssl_sha256}))\n"
    )
    result = _fresh(code, tmp_path)
    assert result == {"code": 0, "blocked": False, "openssl_sha256": True}


def test_import_loads_neither_numpy_random_nor_hashlib(tmp_path):
    # the entry's guard acts only if numpy.random is first imported after it
    code = (
        "import json, sys\n"
        "import carlab, carlab.cli\n"
        "carlab.cli.build_parser()\n"
        "print(json.dumps({name: name in sys.modules for name in ('numpy.random', '_hashlib')}))\n"
    )
    assert _fresh(code, tmp_path) == {"numpy.random": False, "_hashlib": False}


def test_unseeded_streams_work_under_the_guard(tmp_path):
    code = (
        "import json, sys\n"
        + _entry_code("python -m carlab.cli", ["--version"])
        + "import numpy.random\n"
        "entropy = numpy.random.SeedSequence().entropy\n"
        "draw = numpy.random.default_rng().random()\n"
        "print(json.dumps({'code': code, 'blocked': sys.modules['_hashlib'] is None,\n"
        "    'entropy_is_int': isinstance(entropy, int), 'draw': 0.0 <= draw < 1.0}))\n"
    )
    result = _fresh(code, tmp_path)
    assert result == {"code": 0, "blocked": True, "entropy_is_int": True, "draw": True}


# each exits in the parser: version, a low budget, a negative seed, a dimension not offered
PARSE_ONLY = [
    ["--version"],
    ["min-distance", "--budget", "10"],
    ["min-distance", "--seed", "-1"],
    ["fsigma-search", "--dim", "3"],
]


def test_parse_path_imports_no_numpy(tmp_path):
    # the benchmark tracer looks up every traced module in sys.modules after `import carlab.cli`
    traced = sorted(f"carlab.{short}" for short in _traced())
    code = (
        "import contextlib, io, json, sys\n"
        "import carlab, carlab.cli\n"
        "carlab.cli.build_parser()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [carlab.cli.main(argv) for argv in {PARSE_ONLY!r}]\n"
        "numpy = 'numpy' in sys.modules\n"
        f"missing = [name for name in {traced!r} if name not in sys.modules]\n"
        "vector_state = carlab.VectorState.__module__\n"
        "print(json.dumps({'codes': codes, 'numpy': numpy, 'missing': missing,\n"
        "    'vector_state': vector_state, 'numpy_once_used': 'numpy' in sys.modules}))\n"
    )
    assert _fresh(code, tmp_path) == {
        "codes": [0, 2, 2, 2],
        "numpy": False,
        "missing": [],
        "vector_state": "carlab.states",
        "numpy_once_used": True,
    }
