"""Payload bytes must not depend on the BLAS thread count.

A payload is a function of (spec, seed, code) only.  OpenBLAS splits some
kernels (a long ``dot``, for one) across its threads, and the thread count
follows the host's cores unless pinned, so a payload path that calls such a
kernel rounds differently from host to host.  This guard computes every
figure artefact, every registered waveform sweep (64 symbols per cell) and
every network scenario in two fresh interpreters, one with
``OPENBLAS_NUM_THREADS=1`` and one with ``=4``, and compares the SHA-256 of
each payload's canonical JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.sim.experiments import FIGURE_DRIVERS
from repro.sim.scenario import scenario_names
from repro.sim.waveform_engine import sweep_names

ROOT = Path(__file__).resolve().parents[2]

#: Prints ``{name: sha256(canonical payload JSON)}`` for every payload.
_DIGESTS = """
import hashlib, json
from repro.sim.batch import BatchRunner
from repro.sim.network_engine import run_scenario
from repro.sim.scenario import get_scenario, scenario_names
from repro.sim.waveform_engine import get_sweep, run_sweep, sweep_names
from repro.utils.hashing import canonical_json

payloads = {f"figure:{name}": result.to_dict()
            for name, result in BatchRunner().run().results.items()}
for name in scenario_names():
    payloads[f"scenario:{name}"] = run_scenario(get_scenario(name)).to_dict()
for name in sweep_names():
    run = run_sweep(get_sweep(name).with_(num_symbols=64), shards=1)
    payloads[f"waveform:{name}"] = run.to_sweep_result().to_dict()
print(json.dumps({name: hashlib.sha256(canonical_json(payload).encode()).hexdigest()
                  for name, payload in payloads.items()}))
"""


def _digests(blas_threads: int) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_STORE_DIR", None)
    result = subprocess.run([sys.executable, "-c", _DIGESTS], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_payload_bytes_do_not_depend_on_blas_threads():
    with ThreadPoolExecutor(max_workers=2) as pool:
        one, four = pool.map(_digests, (1, 4))
    expected = ({f"figure:{name}" for name in FIGURE_DRIVERS}
                | {f"scenario:{name}" for name in scenario_names()}
                | {f"waveform:{name}" for name in sweep_names()})
    assert set(one) == set(four) == expected
    differing = sorted(name for name in one if one[name] != four.get(name))
    assert not differing, f"payloads that change with the BLAS thread count: {differing}"
