"""Time what every CLI invocation pays before its first layer call.

Run in a fresh interpreter with ``src`` on the path:
``python3 perfbench/setup_probe.py CONFIG``.  Prints the seconds spent
importing ``cascadelab.cli`` and parsing CONFIG.
"""

import sys
import time


def main(config_path: str) -> None:
    start = time.perf_counter()
    import cascadelab.cli  # noqa: F401
    from cascadelab.config import parse_config

    parse_config(config_path)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1])
