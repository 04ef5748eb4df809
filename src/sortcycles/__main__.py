"""``python -m sortcycles``: the same command line as the ``sortcycles`` script."""

from .cli import main

if __name__ == "__main__":
    main()
