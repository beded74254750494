import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_GIVEN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(x=st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_fails_alone(tmp_path):
    # under the project's warning filters, a failing @given test is one
    # failure: hypothesis' failure report must not turn into an
    # INTERNALERROR that ends the session before the other tests run
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_GIVEN)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in out
