"""The demos run end to end in a fresh interpreter with `src` on the path."""

import os
import subprocess
import sys
from pathlib import Path

import quatsys

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    env = dict(os.environ)
    src = str(Path(quatsys.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_demo_field_and_ideals():
    out = run_demo("01_field_and_ideals.py")
    assert "discriminant: 49" in out
    assert "Norm(<2 - eta>) = 7" in out
    assert "<7> == <2 - eta>^3: True" in out


def test_demo_torsion_and_bounds():
    out = run_demo("04_torsion_and_bounds.py")
    assert "torsion orders whose cosine trace lies in Q(eta): [1, 2, 3, 4, 6, 7, 14]" in out
    assert "verdict=torsion-free" in out
    rows = {}
    for line in out.splitlines():
        if line.startswith("norm "):
            _, norm, _floor, count, psl, genus, _log = line.split()
            rows[int(norm)] = (int(count), int(psl), int(genus))
    assert rows == {7: (336, 168, 3), 8: (504, 504, 7), 13: (2184, 1092, 14)}


def test_demo_systole_search():
    out = run_demo("05_systole_search.py")
    rows = [line.split() for line in out.splitlines()
            if line.startswith(("<2-eta>", "<2>", "p13#"))]
    assert [row[0] for row in rows] == ["<2-eta>", "<2>", "p13#0", "p13#1", "p13#2"]
    assert all(row[3] == "certified" for row in rows)
    assert rows[0][1] == "3.9359"
