"""Every CLI artifact stays byte-identical: the default-grid subset of the
output-policy matrix against the digests committed in tests/golden. The full
matrix runs through `scripts/output_digests.py --check`."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = runpy.run_path(str(ROOT / "scripts" / "output_digests.py"))
GOLDEN = ROOT / "tests" / "golden" / "outputs.sha256"


def test_default_grid_outputs_match_golden_digests():
    made_under, want = DIGESTS["read_digests"](GOLDEN)
    here = DIGESTS["environment"]()
    if made_under != here:
        pytest.skip(f"golden digests were made under {', '.join(made_under)}, not {', '.join(here)}")
    got = DIGESTS["digests"](full=False)
    # 6 runs x 6 artifacts, 84 transpiles x 4 and 20 dilation checks x 3
    assert len(got) == 36 + 336 + 60
    assert DIGESTS["differences"]({name: want[name] for name in got if name in want}, got) == []
