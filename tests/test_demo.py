import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "run_synthetic_experiment.py")
PROCEDURES = ["Baseline+SEN", "AW+SEN", "AW+SEN+SW", "Baseline+SWN", "AW+SWN+SW+RANK"]


def test_demo_writes_one_report_per_procedure(tmp_path):
    out = tmp_path / "demo"
    result = subprocess.run(
        [sys.executable, SCRIPT, "--entities", "2", "--reviews", "4", "--sweeps", "6",
         "--procedures", ",".join(PROCEDURES), "--output-dir", str(out)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    expected = {f"report_{name.replace('+', '_')}.json" for name in PROCEDURES}
    assert {p.name for p in out.iterdir()} == expected
