"""Entry point for `python -m foqc`."""

from .cli import main

if __name__ == "__main__":
    main()
