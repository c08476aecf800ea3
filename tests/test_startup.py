"""Cold-start guards: what ``import repro`` and ``repro --help`` load.

SciPy alone costs about a second to import, so no default command, pool
worker, example or ``repro serve run`` daemon loads it; only the opt-in
``precision="fast"`` path imports it, on first use.  The
CLI imports each subcommand's modules in its handler.
The checks that observe ``sys.modules`` run in a fresh interpreter, because
this test process has long since imported NumPy, SciPy and the engines.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Prints, as JSON, the loaded modules that a cold start must not pull in.
_REPORT_HEAVY = (
    "import json, sys; print(json.dumps(sorted(m for m in sys.modules "
    "if m.split('.')[0] in ('numpy', 'scipy') or m.startswith('repro.'))))"
)


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("REPRO_STORE_DIR", None)
    return env


def _python(*args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=timeout)


def _heavy_modules_after(code: str) -> list[str]:
    result = _python("-c", f"{code}\n{_REPORT_HEAVY}")
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_repro_loads_no_submodule_numpy_or_scipy():
    assert _heavy_modules_after("import repro") == []


def test_help_loads_neither_numpy_nor_scipy():
    # ``python -m repro --help``, observed from inside the process.
    loaded = _heavy_modules_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0, stop.code\n")
    assert not [name for name in loaded
                if name.split(".")[0] in ("numpy", "scipy")], loaded


def _run_repro_without_scipy(*argv: str) -> list[str]:
    """Run ``python -m repro ARGV`` with ``scipy`` blocked; return the
    ``scipy`` modules it loaded.

    The block makes any SciPy import fail, in forked pool workers too, so
    the command exits non-zero if a default path still needs SciPy.
    """
    result = _python("-c", (
        "import json, runpy, sys\n"
        "sys.modules['scipy'] = None\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    assert not stop.code, stop.code\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy'\n"
        "                        and sys.modules[m] is not None)))\n"),
        timeout=300.0)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def test_fabric_executor_leaves_scipy_unloaded():
    result = _python("-c", (
        "import sys\n"
        "from repro.sim.execution import get_fabric\n"
        "fabric = get_fabric()\n"
        "fabric.executor()\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        "fabric.shutdown()\n"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


def test_reproduce_loads_no_scipy(tmp_path):
    assert _run_repro_without_scipy(
        "reproduce", "--store-dir", str(tmp_path / "store")) == []


def test_waveform_sweep_loads_no_scipy():
    assert _run_repro_without_scipy("waveform", "--sweep", "modes") == []


def test_fast_precision_loads_scipy_on_first_use():
    result = _python("-c", (
        "import dataclasses, sys\n"
        "from repro.sim.waveform_engine import WAVEFORM_SWEEPS, run_sweep\n"
        "spec = dataclasses.replace(WAVEFORM_SWEEPS['modes'], num_symbols=4,\n"
        "                           symbols_per_burst=4)\n"
        "loaded = lambda: 'scipy.signal' in sys.modules\n"
        "run_sweep(spec, shards=1)\n"
        "before = loaded()\n"
        "run_sweep(spec, shards=1, precision='fast')\n"
        "print(before, loaded())\n"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


def test_serve_run_listens_without_loading_scipy(tmp_path):
    process = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro", "serve", "run",
         "--port", "0", "--store-dir", str(tmp_path / "store")],
        cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    # A daemon that never listens would block the read loop: kill it.
    watchdog = threading.Timer(120.0, process.kill)
    watchdog.start()
    lines = []
    try:
        for line in process.stderr:
            lines.append(line)
            if "listening on" in line:
                break
        process.send_signal(signal.SIGINT)
        process.communicate(timeout=60)
    finally:
        watchdog.cancel()
        process.kill()
    assert lines and "listening on" in lines[-1], "".join(lines[-20:])
    assert process.returncode == 0
    scipy_import = re.compile(r"\|\s*scipy(\.|$)")
    assert not [line for line in lines if scipy_import.search(line.rstrip())]


def test_reexports_are_the_defining_modules_objects():
    from repro import (DownlinkParameters, LoRaParameters, SaiyanConfig,
                       SaiyanMode, SaiyanReceiver)
    from repro.core import config, receiver
    from repro.lora import parameters

    assert SaiyanConfig is config.SaiyanConfig
    assert SaiyanMode is config.SaiyanMode
    assert SaiyanReceiver is receiver.SaiyanReceiver
    assert DownlinkParameters is parameters.DownlinkParameters
    assert LoRaParameters is parameters.LoRaParameters


def test_every_public_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


def test_version_is_declared_once():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"}


def test_six_examples_are_present():
    assert len(EXAMPLES) == 6, EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script):
    # SciPy is blocked, so an example that reaches an opt-in SciPy path
    # fails here; the examples are part of what must stay reachable
    # without it.
    result = _python("-c", (
        "import runpy, sys\n"
        "sys.modules['scipy'] = None\n"
        f"sys.argv = [{str(script)!r}]\n"
        f"runpy.run_path({str(script)!r}, run_name='__main__')\n"),
        timeout=300.0)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), f"{script.name} printed nothing"
