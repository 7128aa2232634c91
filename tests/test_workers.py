"""The worker map of ``condet._workers`` when a worker process dies."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import condet

pytestmark = pytest.mark.workers

#: Maps a function that kills its own worker process on item 3 of 8 over two
#: workers, then prints the exception the map raised and the children left.
SCRIPT = """
import multiprocessing, os, signal, sys
from condet import _workers

def fn(item):
    if item == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return item

if __name__ == "__main__":
    _workers._available_cpus = lambda: 2
    try:
        print(list(_workers.ordered_map(fn, (), range(8))))
    except Exception as exc:
        print(type(exc).__name__)
    print(multiprocessing.active_children())
"""


def test_dead_worker_fails_the_map(tmp_path):
    # A multiprocessing.Pool replaced the dead worker and waited for its
    # lost result forever.
    script = tmp_path / "kill_worker.py"
    script.write_text(SCRIPT)
    src = str(Path(condet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["BrokenProcessPool", "[]"]
