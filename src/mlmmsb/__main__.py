"""Command-line entry point: ``python -m mlmmsb``."""

from .io_cli import main

if __name__ == "__main__":
    main()
