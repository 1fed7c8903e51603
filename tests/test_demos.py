"""The demos run end to end and print what they promise."""

import os
import subprocess
import sys
from pathlib import Path

import curveinv

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(path):
    src = str(Path(curveinv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path)], env=env, capture_output=True,
                          text=True, timeout=300)


def test_demos_exit_cleanly():
    demos = sorted(DEMOS.glob("*.py"))
    assert len(demos) == 4
    outputs = {}
    for demo in demos:
        proc = run_demo(demo)
        assert proc.returncode == 0, (demo.name, proc.stderr)
        outputs[demo.name] = proc.stdout
    # demo 03 prints one block per fixture; each sphere fixture has a J+ line
    blocks = {block.split()[0]: block
              for block in outputs["03_numeric_cross_validation.py"].split("\n\n")
              if block.strip()}
    for name in ("latitude", "great_circle", "figure8_sphere_param"):
        assert sum(line.startswith("  J+:") for line in blocks[name].splitlines()) == 1
    assert "J+" not in blocks["circle_torus"]
