"""``python -m pweyl``: the same command-line interface as ``pweyl``."""

from .cli import main

if __name__ == "__main__":
    main()
