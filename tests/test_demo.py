import hashlib
import json
import os
import subprocess
import sys

from segsum.corpus import DEFAULT_STOPWORDS

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "run_synthetic_experiment.py")
# sha256 of each report the demo writes with the arguments of _run
PINNED_REPORTS = {
    "Baseline+SEN": "ea5f0c0db8b90b0278c909df9f875432aa3f428b5e000b63cf654ceefb4e813e",
    "AW+SEN": "c8dffe263f139e578b37fa4944c2d87bc81bf5e03a835e4e98286a1701c8af68",
    "AW+SEN+SW": "87e5a6f7f234aedf1d6877b741018f7c9c2664ac92d96102cd616463986fba31",
    "Baseline+SWN": "68edcab416c49aca47e677e11441b4c54fb7f5595b2f5132aa87cf4033d56f4c",
    "AW+SWN+SW+RANK": "492742cfe1b9058ebfc2960c68b89696e5340167a2a73ce61d8146fc2056b174",
}


def _run(out, procedures):
    return subprocess.run(
        [sys.executable, SCRIPT, "--entities", "2", "--reviews", "4", "--sweeps", "6",
         "--procedures", ",".join(procedures), "--output-dir", str(out)],
        capture_output=True, text=True, timeout=120)


def test_demo_writes_the_pinned_reports_and_one_row_per_procedure(tmp_path):
    out = tmp_path / "demo"
    result = _run(out, PINNED_REPORTS)
    assert result.returncode == 0, result.stderr
    for name, digest in PINNED_REPORTS.items():
        report = out / f"report_{name.replace('+', '_')}.json"
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest, name
    labels = [line.split()[0] for line in result.stdout.splitlines() if line.strip()]
    assert all(labels.count(name) == 1 for name in PINNED_REPORTS)
    # the default stopwords, stems as the vocabulary's words are, apply
    topics = json.loads((out / "topics.json").read_text())["topics"]
    assert not DEFAULT_STOPWORDS & {word for topic in topics for word in topic["aspect_words"]}


def test_demo_exits_with_the_code_of_an_unknown_procedure(tmp_path):
    result = _run(tmp_path / "demo", ["Baseline+SEN", "Nope+SEN", "AW+SEN"])
    assert result.returncode == 1
    assert "config error: unknown stage 'Nope'" in result.stderr
    assert not (tmp_path / "demo" / "report_AW_SEN.json").exists()
