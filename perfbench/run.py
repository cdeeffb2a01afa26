"""Benchmark entry point.  From the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports fracindex from the checkout's src/ only and exits nonzero,
printing no result, when that source is missing.  The last line of
standard output is the JSON result; see perfbench/README.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_source() -> None:
    """Put this checkout's src/ first on the import path, or stop."""
    src = ROOT / "src"
    if not (src / "fracindex" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fracindex source under {src}")
    sys.path.insert(0, str(src))


if __name__ == "__main__":
    use_checkout_source()
    import harness

    sys.exit(harness.main(sys.argv[1:]))
