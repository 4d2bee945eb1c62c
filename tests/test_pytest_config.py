"""The repo's pytest settings keep a failing property readable.

``pyproject.toml`` turns deprecation warnings into errors.  Hypothesis
imports libcst while it reports a failure, and that import warns; as an
error the warning replaced the falsifying example with a pytest
INTERNALERROR.  This runs a property that always fails under the repo's
settings, in a subprocess, and reads what it prints.
"""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_PROPERTY = textwrap.dedent('''
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None, max_examples=20)
    @given(value=st.integers())
    def test_always_fails(value):
        assert value != value
''')


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_planted.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c",
         os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(tmp_path / "test_planted.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert run.returncode == 1, output
    assert "Falsifying example" in output, output
