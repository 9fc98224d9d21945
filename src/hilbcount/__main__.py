"""Entry point for `python -m hilbcount`, the same CLI as `hilbcount`."""

from .cli import main

if __name__ == "__main__":
    main()
