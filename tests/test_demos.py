"""The demos run end to end in a fresh interpreter with `src` on the path."""

import os
import re
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


def test_demo_quaternion_algebra():
    out = run_demo("02_quaternion_algebra.py")
    assert "real places: ['split', 'ramified', 'ramified']" in out
    assert "j'^2 == j' + (1 + 3 eta): True" in out
    statuses = [line.split()[2] for line in out.splitlines()
                if line.startswith("  norm ")]
    assert len(statuses) == 15 and set(statuses) == {"split"}
    assert "  norm  8: split    (the one dyadic prime" in out
    assert "real_ramified=1,2" in out and "parity_consistent=true" in out
    assert "(2,3) over Q, finite ramification <= 13: [2, 3]" in out


def test_demo_congruence_quotients():
    out = run_demo("03_congruence_quotients.py")
    rows = {}
    for line in out.splitlines():
        if "q=" in line and "norm_one=" in line:
            fields = dict(re.findall(r"(\w+)=\s*(\S+)", line))
            rows[line.split()[0]] = fields
    assert {name: (f["norm_one"], f["formula"], f["type"], f["lambda"], f["bound"])
            for name, f in rows.items()} == {
        "<2-eta>": ("336", "336", "M2(F_q)", "1", "343"),
        "<2>": ("504", "504", "M2(F_q)", "1", "512"),
        "p13": ("2184", "2184", "M2(F_q)", "1", "2197")}
    assert "<2-eta>^2: residues=5764801, norm_one=115248 == formula 115248" in out
    assert "standard order at <2>: radical size 512, semisimple type F_q" in out


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
