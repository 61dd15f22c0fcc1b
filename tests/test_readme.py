"""The README's library example runs as written, and its sample output is true.

The one ``python`` block of the README's "Library use" section is run in a
fresh interpreter on the package source, with numpy's runtime warnings
raised as errors.  The command the "Command line" section's sample output
names is run the same way, without ``IRS_SIM_SEED``, and must print the
sample's table lines byte for byte.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    return block


def test_the_library_example_runs():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", library_example()],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def sample_output() -> tuple[list[str], list[str]]:
    """The command the README's sample output names, and the table it shows."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sample = re.search(
        r"Sample output of `irsrelay ([^`]*)`.*?\n```\n(.*?)```", readme, flags=re.DOTALL
    )
    return sample[1].split(), sample[2].splitlines()


def test_the_sample_output_is_what_its_command_prints():
    args, table = sample_output()
    env = {
        key: value for key, value in os.environ.items() if key != "IRS_SIM_SEED"
    }
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    result = subprocess.run(
        [sys.executable, "-m", "irsrelay", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    printed = [line for line in result.stdout.splitlines() if not line.startswith("#")]
    assert printed == table
