"""``python -m starconfig``: the same command line as the console script."""

from .cli import main

if __name__ == "__main__":
    main()
