"""No line of the package or its tests is longer than 120 characters."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 120


def test_no_line_over_the_limit():
    long = [
        f"{path.relative_to(ROOT)}:{k}: {len(line)} characters"
        for top in ("src/ordsub", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert not long, "\n".join(long)
